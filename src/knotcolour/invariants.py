"""The untying invariants su and cu, the symplectic class s of a colouring
vector, and the triple-wedge obstruction.

su sums the epsilon pairing around the full t-orbit of the vector; cu pairs
a structured lift of (V; t.V; ...; t^{m-2}.V) against the block tridiagonal
linking form L(M). Both work per cyclic factor with that factor's modulus
and return a group element.
"""

from functools import lru_cache
from itertools import product

from . import abelian
from ._intlin import mat_pow, mat_vec
from .errors import (
    BadParameters,
    DivisibilityFailure,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
)
from .surface_data import _mat_apply, _symplectic_reduce, validate


def su(data, lifts=None):
    """Orbit sum of the epsilon pairing: per factor c with modulus n,
    su_c = sum over j of <lift(t^j V), (M lift(t^{j+1} V) - M^T lift(t^j V)) / n>.

    ``lifts`` may supply the m integer lift matrices (one row per vector
    entry) instead of the minimal ones; any choice congruent to the
    coordinates gives the same value, which the property suite exercises.
    """
    if not validate(data).valid:
        raise InvalidData("su needs valid surface data")
    spec, M, V = data.spec, data.matrix, data.vector
    m, orders, r = spec.m, spec.orders, spec.rank
    size = len(M)
    if lifts is None:
        lifts = []
        for j in range(m):
            lifts.append([list(abelian.act_pow(v, j).coords) for v in V])
    else:
        lifts = [[list(row) for row in block] for block in lifts]
        if len(lifts) != m or any(len(b) != size for b in lifts):
            raise BadParameters("lifts must give m blocks of one row per entry")
    out = []
    for c in range(r):
        n = orders[c]
        total = 0
        for j in range(m):
            xj = [lifts[j][i][c] for i in range(size)]
            xj1 = [lifts[(j + 1) % m][i][c] for i in range(size)]
            for i in range(size):
                w = sum(M[i][k] * xj1[k] for k in range(size)) \
                    - sum(M[k][i] * xj[k] for k in range(size))
                if w % n:
                    raise DivisibilityFailure(
                        f"pairing entry {w} not divisible by {n} in factor {c}")
                total += xj[i] * (w // n)
        out.append(total % n)
    return abelian.element(spec, tuple(out))


def linking_form_matrix(matrix, m):
    """L(M): (m-1) x (m-1) blocks, diagonal M + M^T, superdiagonal M^T,
    subdiagonal M."""
    size = len(matrix)
    blocks = m - 1
    L = [[0] * (blocks * size) for _ in range(blocks * size)]
    for a in range(blocks):
        for i in range(size):
            for j in range(size):
                L[a * size + i][a * size + j] = matrix[i][j] + matrix[j][i]
                if a + 1 < blocks:
                    L[a * size + i][(a + 1) * size + j] = matrix[j][i]
                    L[(a + 1) * size + i][a * size + j] = matrix[i][j]
    return L


def _structured_lifts(spec):
    """Yield every integer lift C of the action with C^m = I mod n_i^2
    (entry (i, j) reduced mod n_i^2), entries in [0, n_i^2), searched in
    row-major candidate order."""
    m, orders, r = spec.m, spec.orders, spec.rank
    cand_lists = []
    for i in range(r):
        for j in range(r):
            base = spec.action[i][j] % orders[i]
            cand_lists.append(tuple(base + k * orders[i] for k in range(orders[i])))
    for flat in product(*cand_lists):
        C = [list(flat[i * r:(i + 1) * r]) for i in range(r)]
        P = mat_pow(C, m)
        ok = True
        for i in range(r):
            sq = orders[i] * orders[i]
            for j in range(r):
                if (P[i][j] - (1 if i == j else 0)) % sq:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield tuple(tuple(row) for row in C)


@lru_cache(maxsize=None)
def structured_lift(spec):
    """First structured lift in search order; LiftFailure if none exists."""
    for C in _structured_lifts(spec):
        return C
    raise LiftFailure(
        f"no lift of the action satisfies C^{spec.m} = I mod n_i^2")


def cu(data, nlift=None, vlift=None):
    """Pair the structured lift of (V; t.V; ...; t^{m-2}.V) against L(M),
    per factor c: Q = <x, L x / n>; for odd n return Q mod n, for even n
    the pairing is even and the value is Q/2 mod n.

    ``nlift``/``vlift`` may override the action lift and the minimal
    vector lift (testing hooks for the well-definedness properties).
    """
    if not validate(data).valid:
        raise InvalidData("cu needs valid surface data")
    spec, M, V = data.spec, data.matrix, data.vector
    m, orders, r = spec.m, spec.orders, spec.rank
    if m < 2:
        raise BadParameters("cu needs m >= 2")
    size = len(M)
    C = nlift if nlift is not None else structured_lift(spec)
    C = [list(row) for row in C]
    base = [list(row) for row in vlift] if vlift is not None \
        else [list(v.coords) for v in V]
    if len(base) != size:
        raise BadParameters("vector lift must have one row per entry")
    blocks = [[list(row) for row in base]]
    for _ in range(m - 2):
        blocks.append([mat_vec(C, row) for row in blocks[-1]])
    L = linking_form_matrix(M, m)
    dim = (m - 1) * size
    out = []
    for c in range(r):
        n = orders[c]
        x = [blocks[a][i][c] for a in range(m - 1) for i in range(size)]
        q = 0
        for i in range(dim):
            w = sum(L[i][j] * x[j] for j in range(dim))
            if w % n:
                raise DivisibilityFailure(
                    f"L(M) pairing entry {w} not divisible by {n} in factor {c}")
            q += x[i] * (w // n)
        if n % 2:
            out.append(q % n)
        else:
            if q % 2:
                raise InternalInconsistency(
                    "pairing value is odd over an even-order factor")
            out.append((q // 2) % n)
    return abelian.element(spec, tuple(out))


def vector_class(data):
    """The symplectic class s: wedge P^-1 V in adjacent pairs, P reducing
    M - M^T to block form. The reduction carries P^-1 and the matrix was
    checked at construction, so no det or inverse is taken. Structural,
    so defined on non-validating data too (the canonical vectors).
    """
    spec = data.spec
    size = data.size
    if size == 0:
        return abelian.wedge2_zero(spec)
    W = _mat_apply(_symplectic_reduce(data.matrix)[1], data.vector, spec)
    total = abelian.wedge2_zero(spec)
    for b in range(size // 2):
        total = total + abelian.wedge2(W[2 * b], W[2 * b + 1])
    return total


def y_obstruction(triples):
    """Sum of multiplicity-scaled triple wedges: sum n_i (a_i ^ b_i ^ c_i)."""
    items = list(triples)
    if not items:
        raise BadParameters("need at least one triple")
    total = None
    spec = None
    for triple, mult in items:
        if type(mult) is not int:
            raise BadParameters(
                f"multiplicity must be an integer, got {mult!r}")
        a, b, c = triple
        for e in (a, b, c):
            if not isinstance(e, abelian.GroupElement):
                raise BadParameters("triple entries must be GroupElement")
            if spec is None:
                spec = e.spec
            elif e.spec != spec:
                raise GroupMismatch("triples mix group specs")
        term = abelian.wedge3_scale(mult, abelian.wedge3(a, b, c))
        total = term if total is None else total + term
    return total
