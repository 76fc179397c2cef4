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
from math import prod
from operator import add, mul

from . import abelian
from ._intlin import (
    identity, kernel_mod, mat_mul, mat_pow, solve_mod, transpose)
from .errors import (
    BadParameters,
    BudgetExceeded,
    DivisibilityFailure,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
)
from .surface_data import validate

# most lift candidates searched, or lift-system solutions listed
LIFT_BUDGET = 10 ** 7


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


def _hensel_lift(m, n, N):
    """N + n X for the least X with (N + n X)^m = I mod n^2, or None."""
    r, sq = len(N), n * n
    powers = [identity(r)]
    for _ in range(m):
        powers.append([[x % sq for x in row] for row in mat_mul(powers[-1], N)])
    residue = [powers[m][i][j] - (i == j) for i in range(r) for j in range(r)]
    if any(x % n for x in residue):
        return None
    F = [[sum(powers[a][i][k] * powers[m - 1 - a][l][j] for a in range(m))
          for k in range(r) for l in range(r)]
         for i in range(r) for j in range(r)]
    mods = [n] * (r * r)
    x0 = solve_mod(F, [-x // n for x in residue], mods)
    if x0 is None:
        return None
    X = min(tuple((a + b) % n for a, b in zip(x0, k))
            for k in kernel_mod(F, mods, mods, LIFT_BUDGET))
    return [[N[i][j] + n * X[i * r + j] for j in range(r)] for i in range(r)]


def _searched_lift(m, orders, N):
    """The first lift in the row-major search, or None."""
    r = len(orders)
    count = prod(orders) ** r
    if count > LIFT_BUDGET:
        raise BudgetExceeded(
            f"{count} lift candidates exceed budget {LIFT_BUDGET}")
    cand_lists = [range(N[i][j], orders[i] ** 2, orders[i])
                  for i in range(r) for j in range(r)]
    for flat in product(*cand_lists):
        C = [list(flat[i * r:(i + 1) * r]) for i in range(r)]
        P = mat_pow(C, m)
        if all((P[i][j] - (i == j)) % (n * n) == 0
               for i, n in enumerate(orders) for j in range(r)):
            return C
    return None


@lru_cache(maxsize=None)
def structured_lift(spec):
    """The first integer lift C of the action N (reduced mod n_i in row
    i) with C^m = I mod n_i^2 in row i, searching C_ij = N_ij + k n_i,
    0 <= k < n_i, in row-major order; LiftFailure if none exists.

    Equal orders n (every rank-1 group among them): write C = N + n X.
    Each term of (N + n X)^m with X twice carries n^2, so C^m = I mod
    n^2 is exactly the linear system sum_{a<m} N^a X N^(m-1-a) =
    -(N^m - I)/n mod n (Hensel's one-step lift), and row-major order on C
    is lex order on X mod n. So C is N + n X for the least X among a
    particular solution plus the kernel, both from the Smith core.
    Unequal orders: with C = N + diag(n_i) X the second-order terms need
    not vanish mod n_i^2, and the first lift can have cross entries that
    the linearised system misses, so the box is searched, BudgetExceeded
    past LIFT_BUDGET candidates.
    """
    m, orders = spec.m, spec.orders
    N = [[x % n for x in row] for row, n in zip(spec.action, orders)]
    if len(set(orders)) == 1:
        C = _hensel_lift(m, orders[0], N)
    else:
        C = _searched_lift(m, orders, N)
    if C is None:
        raise LiftFailure(
            f"no lift of the action satisfies C^{m} = I mod n_i^2")
    return tuple(tuple(row) for row in C)


def cu(data, nlift=None, vlift=None):
    """Pair the structured lift x = (x_0; ...; x_{m-2}) of
    (V; t.V; ...; t^{m-2}.V) against the block tridiagonal linking form
    L(M), per factor c: Q = <x, L x / n>; for odd n return Q mod n, for
    even n the pairing is even and the value is Q/2 mod n. L(M) has
    diagonal blocks M + M^T, superdiagonal M^T and subdiagonal M, so
    block a of L x is M (x_a + x_{a-1}) + M^T (x_a + x_{a+1}) with
    x_{-1} = x_{m-1} = 0; it is applied block by block, never built.

    The action lift C is read only for m >= 3: at m = 2 there is one
    block, x_0 = V. Skipping it there hides no LiftFailure, since every
    m = 2 group has a lift: make_group ensures N^2 = I on A with N - I
    invertible, so (N - I)(N + I) = 0 forces N = -I on A; then
    C = diag(n_i^2 - 1) lifts N and C^2 = I mod n_i^2.

    ``nlift`` (r x r) and ``vlift`` (one row of r ints per entry) may
    override the action lift and the minimal vector lift (testing hooks
    for the well-definedness properties); an ``nlift`` is shape-checked
    at every m.
    """
    if not validate(data).valid:
        raise InvalidData("cu needs valid surface data")
    spec, M = data.spec, data.matrix
    m, orders, r = spec.m, spec.orders, spec.rank
    if m < 2:
        raise BadParameters("cu needs m >= 2")
    size = len(M)
    if nlift is not None:
        C = _int_rows(nlift, r, "nlift")
        if len(C) != r:
            raise BadParameters(f"nlift must have {r} rows")
    elif m > 2:
        C = structured_lift(spec)
    base = data._coords
    if vlift is not None:
        base = list(vlift)
        if len(base) != size:
            raise BadParameters("vector lift must have one row per entry")
        base = _int_rows(base, r, "vector lift")
    blocks = [base]
    if m > 2:
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
