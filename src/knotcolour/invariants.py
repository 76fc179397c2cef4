"""The untying invariants su and cu, the symplectic class s of a colouring
vector, and the triple-wedge obstruction.

su sums the epsilon pairing around the full t-orbit of the vector; cu pairs
a structured lift of (V; t.V; ...; t^{m-2}.V) against the block tridiagonal
linking form L(M). Both work per cyclic factor with that factor's modulus
and return a group element; s is the form M^T - M on the columns of X.
All three run on the integer coordinate matrix X of the vector (one row
per entry); GroupElement and WedgeElement2 appear only in their values.
"""

from functools import lru_cache
from itertools import product
from operator import add, mul

from . import abelian
from ._intlin import mat_mul, mat_pow, transpose
from .errors import (
    BadParameters,
    DivisibilityFailure,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
)
from .surface_data import validate


def _pairing(M, MT, x, u, v, n, c, what):
    """sum_i x_i (M u + M^T v)_i / n, MT the rows of M^T; the division is
    exact, or DivisibilityFailure names the first entry that is not."""
    total = 0
    for xi, row, col in zip(x, M, MT):
        w = sum(map(mul, row, u)) + sum(map(mul, col, v))
        if w % n:
            raise DivisibilityFailure(
                f"{what} {w} not divisible by {n} in factor {c}")
        total += xi * (w // n)
    return total


def _int_rows(rows, width, what):
    """rows as int tuples; BadParameters unless each holds width ints (a
    bool is not an int)."""
    rows = [tuple(row) for row in rows]
    if any(len(row) != width or any(type(x) is not int for x in row)
           for row in rows):
        raise BadParameters(f"{what} rows must hold {width} integers")
    return rows


def su(data, lifts=None):
    """Orbit sum of the epsilon pairing: per factor c with modulus n,
    su_c = sum over j of <x_j, (M x_{j+1} - M^T x_j) / n>, x_j the column
    c of an integer lift of t^j V (j mod m). Works on the coordinate
    matrix X of the vector; the orbit is X acted on row by row.

    ``lifts`` may supply the m integer lift matrices (one row of r ints
    per vector entry) instead of the minimal ones; any choice congruent
    to the coordinates gives the same value, which the property suite
    exercises.
    """
    if not validate(data).valid:
        raise InvalidData("su needs valid surface data")
    spec, M = data.spec, data.matrix
    m, orders, r = spec.m, spec.orders, spec.rank
    size = len(M)
    if lifts is None:
        lifts = [data._coords]
        for _ in range(m - 1):
            lifts.append(abelian.act_rows(lifts[-1], spec))
    else:
        lifts = [list(block) for block in lifts]
        if len(lifts) != m or any(len(b) != size for b in lifts):
            raise BadParameters("lifts must give m blocks of one row per entry")
        lifts = [_int_rows(block, r, "lifts") for block in lifts]
    MT = tuple(zip(*M))
    out = []
    for c, n in enumerate(orders):
        xs = [[row[c] for row in block] for block in lifts]
        total = sum(_pairing(M, MT, xs[j], xs[(j + 1) % m],
                             [-a for a in xs[j]], n, c, "pairing entry")
                    for j in range(m))
        out.append(total % n)
    return abelian.element(spec, tuple(out))


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
    """Pair the structured lift x = (x_0; ...; x_{m-2}) of
    (V; t.V; ...; t^{m-2}.V) against the block tridiagonal linking form
    L(M), per factor c: Q = <x, L x / n>; for odd n return Q mod n, for
    even n the pairing is even and the value is Q/2 mod n. L(M) has
    diagonal blocks M + M^T, superdiagonal M^T and subdiagonal M, so
    block a of L x is M (x_a + x_{a-1}) + M^T (x_a + x_{a+1}) with
    x_{-1} = x_{m-1} = 0; it is applied block by block, never built.

    ``nlift`` (r x r) and ``vlift`` (one row of r ints per entry) may
    override the action lift and the minimal vector lift (testing hooks
    for the well-definedness properties).
    """
    if not validate(data).valid:
        raise InvalidData("cu needs valid surface data")
    spec, M = data.spec, data.matrix
    m, orders, r = spec.m, spec.orders, spec.rank
    if m < 2:
        raise BadParameters("cu needs m >= 2")
    size = len(M)
    if nlift is None:
        C = structured_lift(spec)
    else:
        C = _int_rows(nlift, r, "nlift")
        if len(C) != r:
            raise BadParameters(f"nlift must have {r} rows")
    base = data._coords
    if vlift is not None:
        base = list(vlift)
        if len(base) != size:
            raise BadParameters("vector lift must have one row per entry")
        base = _int_rows(base, r, "vector lift")
    blocks = [base]
    CT = transpose(C)
    for _ in range(m - 2):
        blocks.append(mat_mul(blocks[-1], CT))
    MT = tuple(zip(*M))
    out = []
    zero = [0] * size
    for c, n in enumerate(orders):
        xs = [zero] + [[row[c] for row in b] for b in blocks] + [zero]
        q = sum(_pairing(M, MT, xs[a], list(map(add, xs[a], xs[a - 1])),
                         list(map(add, xs[a], xs[a + 1])), n, c,
                         "L(M) pairing entry")
                for a in range(1, m))
        if n % 2:
            out.append(q % n)
        else:
            if q % 2:
                raise InternalInconsistency(
                    "pairing value is odd over an even-order factor")
            out.append((q // 2) % n)
    return abelian.element(spec, tuple(out))


def vector_class(data):
    """The symplectic class s in A ^ A: coordinate (p, q), p < q, is
    x_p^T (M^T - M) x_q = sum_i (x_iq (MX)_ip - x_ip (MX)_iq), x_p the
    column p of the coordinate matrix X of V, summed over the integers and
    reduced once mod gcd(n_p, n_q). It is the adjacent-pair wedge of
    W = P^-1 X for any P with P^T S P = J (S = M - M^T, J the block sum
    of [[0, -1], [1, 0]]): S = P^-T J P^-1, and expanding bilinearly,
    sum_b W_2b ^ W_2b+1 = sum_{i<j} (P^-T (-J) P^-1)_ij X_i ^ X_j =
    sum_{i<j} -S_ij X_i ^ X_j, with no division by 2, so 2-torsion in
    A ^ A is safe. Structural, so defined on non-validating data too (the
    canonical vectors).
    """
    X = data._coords
    MX = mat_mul(data.matrix, X)
    return abelian.WedgeElement2(data.spec, tuple(
        sum(x[q] * y[p] - x[p] * y[q] for x, y in zip(X, MX))
        for p, q in abelian.pair_indices(data.spec)))


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
