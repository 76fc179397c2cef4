"""The untying invariants su and cu, the symplectic class s of a colouring
vector, and the triple-wedge obstruction.

su sums the epsilon pairing around the full t-orbit of the vector; cu pairs
a lift of (V; t.V; ...; t^{m-2}.V) against the block tridiagonal linking
form L(M), built with the action N at m <= 3 and with the structured lift
C only at m >= 4, where cu always raises DivisibilityFailure. Both work
per cyclic factor with that factor's modulus and return a group element;
s is the form M^T - M on the columns of X.
All three run on the integer coordinate matrix X of the vector (one row
per entry) and read M only through the datum's product pair (MX, M^T X)
over Z (SurfaceData._products), which validation shares. The lifts that
su and cu pair are X times an r x r right factor (powers of the action
N^T for su's orbit, of C^T for cu's blocks), so their products are the
pair times the same factor: no further product with M is formed.
GroupElement and WedgeElement2 appear only in their values.
"""

from functools import lru_cache
from itertools import chain, product, repeat
from math import prod
from operator import floordiv, mod, mul, sub

from . import abelian
from ._intlin import (
    check_budget, identity, kernel_mod, mat_mul, mat_pow, solve_mod)
from .errors import (
    BadParameters,
    DivisibilityFailure,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
)
from .surface_data import SurfaceData, _product_pair, validate

# most lift candidates searched, or lift-system solutions listed
LIFT_BUDGET = 10 ** 7


def _divided_sum(ys, ws, n, c, what):
    """sum of y w / n over the integers ys and ws in step; the division is
    exact, or DivisibilityFailure names the first w that is not."""
    ws = tuple(ws)
    if any(map(mod, ws, repeat(n))):
        w = next(w for w in ws if w % n)
        raise DivisibilityFailure(
            f"{what} {w} not divisible by {n} in factor {c}")
    return sum(map(mul, ys, map(floordiv, ws, repeat(n))))


def _times(cols, F):
    """X F^T over Z for X given by its columns, as columns: column c is
    sum_d F_cd x_d."""
    return tuple(tuple(map(sum, zip(*[map(mul, x, repeat(f))
                                      for f, x in zip(Fc, cols)])))
                 for Fc in F)


def _stacked(Y, products):
    """The columns of (Y; MY; M^T Y), products = (MY, M^T Y): one column
    per factor, so an r x r right factor applies to all three at once."""
    MY, MTY = products
    return tuple(zip(*Y, *MY, *MTY))


def su(data, lifts=None):
    """Orbit sum of the epsilon pairing: per factor c with modulus n,
    su_c = sum over j of <x_j, (M x_{j+1} - M^T x_j) / n>, x_j the column
    c of an integer lift of t^j V (j mod m).

    The lifts are the orbit Y_j = X (N^T)^j for j < m, X the coordinate
    matrix of V and N the action, closed at Y_0 = X (Y_m = X (N^T)^m is
    congruent to X, not equal). Then M Y_j and M^T Y_j are the product
    pair (MX, M^T X) times (N^T)^j, one r x r right factor per step.

    Why su mod n does not depend on the lifts, on valid data: replace
    x_j by x_j + n k. The term j changes by n k^T (M x_{j+1} - M^T x_j)
    - n k^T M x_j - n^2 k^T M k (as x^T M^T y = y^T M x), the term j - 1
    by n k^T M^T x_{j-1}, and no other term holds x_j, so the total
    changes by
        k^T (M x_{j+1} - M^T x_j) + k^T (M^T x_{j-1} - M x_j) - n k^T M k,
    and both brackets are 0 mod n: the colouring equation M^T V = M t.V
    gives M^T x_i = M x_{i+1} mod n for every i, as x_{i+1} = t.x_i mod
    n in column c. The same congruence makes every pairing entry
    divisible by n under any lifts.

    ``lifts`` may supply the m integer lift matrices (one row of r ints
    per vector entry) instead; their products with M are computed here.
    Any choice congruent to the coordinates gives the same value, which
    the property suite exercises.
    """
    if not validate(data).valid:
        raise InvalidData("su needs valid surface data")
    spec = data.spec
    m, r, size = spec.m, spec.rank, data.size
    if lifts is None:
        # orbit step j is the stacked (Y_j; M Y_j; M^T Y_j)
        orbit = [_stacked(data._coords, data._products)]
        for _ in range(m - 1):
            orbit.append(_times(orbit[-1], spec.action))
    else:
        if not isinstance(lifts, (list, tuple)) or len(lifts) != m or \
                any(not isinstance(b, (list, tuple)) or len(b) != size
                    for b in lifts):
            raise BadParameters("lifts must give m blocks of one row per entry")
        orbit = [_stacked(Y, _product_pair(data.matrix, Y))
                 for Y in (abelian.int_rows(b, "lifts", size, r)
                           for b in lifts)]
    Y, P, Q = slice(size), slice(size, 2 * size), slice(2 * size, None)
    out = []
    for c, n in enumerate(spec.orders):
        cols = [step[c] for step in orbit]
        ys = chain.from_iterable(col[Y] for col in cols)
        ws = chain.from_iterable(map(sub, cols[(j + 1) % m][P], cols[j][Q])
                                 for j in range(m))
        out.append(_divided_sum(ys, ws, n, c, "pairing entry") % n)
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
    check_budget(prod(orders) ** r, LIFT_BUDGET, "lift candidates")
    cand_lists = [range(N[i][j], orders[i] ** 2, orders[i])
                  for i in range(r) for j in range(r)]
    for flat in product(*cand_lists):
        C = [list(flat[i * r:(i + 1) * r]) for i in range(r)]
        P = mat_pow(C, m)
        if all((P[i][j] - (i == j)) % (n * n) == 0
               for i, n in enumerate(orders) for j in range(r)):
            return C
    return None


def structured_lift(spec):
    """The first integer lift C of the action N (reduced mod n_i in row
    i) with C^m = I mod n_i^2 in row i, searching C_ij = N_ij + k n_i,
    0 <= k < n_i, in row-major order; LiftFailure if none exists.

    Equal orders n (every rank-1 group among them): write C = N + n X.
    Each term of (N + n X)^m with X twice carries n^2, so C^m = I mod
    n^2 is exactly the linear system sum_{a<m} N^a X N^(m-1-a) =
    -(N^m - I)/n mod n (Hensel's one-step lift), and row-major order on C
    is lex order on X mod n. So C is N + n X for the least X among a
    particular solution (from the Smith form, solve_mod) plus the kernel
    (from the column echelon, kernel_mod).
    Unequal orders: with C = N + diag(n_i) X the second-order terms need
    not vanish mod n_i^2, and the first lift can have cross entries that
    the linearised system misses, so the box is searched, BudgetExceeded
    past LIFT_BUDGET candidates.
    """
    C = _lift(abelian._expect(spec, abelian.GroupSpec))
    if C is None:
        raise LiftFailure(
            f"no lift of the action satisfies C^{spec.m} = I mod n_i^2")
    return C


@lru_cache(maxsize=None)
def _lift(spec):
    """structured_lift's lift as a tuple of rows, or None when none
    exists: both outcomes are cached, so a spec is searched once."""
    m, orders = spec.m, spec.orders
    N = [[x % n for x in row] for row, n in zip(spec.action, orders)]
    if len(set(orders)) == 1:
        C = _hensel_lift(m, orders[0], N)
    else:
        C = _searched_lift(m, orders, N)
    return None if C is None else tuple(tuple(row) for row in C)


def cu(data, nlift=None, vlift=None):
    """Pair the lift x = (x_0; ...; x_{m-2}) of (V; t.V; ...; t^{m-2}.V)
    against the block tridiagonal linking form L(M), per factor c:
    Q = <x, L x / n>; for odd n return Q mod n, for even n the pairing
    is even and the value is Q/2 mod n. L(M) has diagonal blocks M + M^T,
    superdiagonal M^T and subdiagonal M, so block a of L x is
    M (x_a + x_{a-1}) + M^T (x_a + x_{a+1}) with x_{-1} = x_{m-1} = 0;
    it is applied block by block, never built.
    Block a is X (C^T)^a, so M x_a and M^T x_a are the product pair
    (MX, M^T X) times (C^T)^a: the same integers as multiplying by M
    directly, so a DivisibilityFailure names the same entry.

    C is the action N at m <= 3 and the structured lift only at m >= 4.
    At m = 2 there is one block, x_0 = V, and C is not read. At m = 3
    the blocks X and X N^T are the first two steps of su's orbit. Both
    derivations below use the colouring equation M^T V = M t.V, which
    gives M^T x_a = M x_{a+1} mod n, x_{a+1} any lift of t^{a+1} V in
    column c (as in su).

    m = 3: cu is the same for every integer C whose row c is N's mod
    n_c, N itself and every structured lift among them. Here <x, L x> is
    x_0^T (M + M^T) x_0 + 2 x_1^T M x_0 + x_1^T (M + M^T) x_1; replacing
    x_1 by x_1 + n e changes it by 2 n e^T (M x_0 + (M + M^T) x_1)
    + 2 n^2 e^T M e. Here M x_0 + (M + M^T) x_1 = M (1 + t + t^2) V = 0
    mod n, since N^3 = I with N - I invertible forces N^2 + N + I = 0 on
    A; call it n w. So Q changes by 2 n (e^T w + e^T M e), and Q mod n,
    Q/2 mod n for even n and the parity of Q are unchanged. Every entry
    of L x changes by a multiple of n, so no divisibility verdict moves.

    m >= 4: no valid datum passes the per-entry division, so cu raises
    DivisibilityFailure (after the lift's own LiftFailure or
    BudgetExceeded). Suppose every entry divides, in every factor.
    Block 0 of L x is M (1 + t + t^2) V and block 1 is
    M (1 + t + t^2 + t^3) V mod n, so M sigma = 0 in A^2g for both sums
    sigma. Then M^T sigma = t.(M sigma) = 0 by the colouring equation,
    so (M - M^T) sigma = 0, and M - M^T is unimodular: both sums are 0.
    Their difference t^3 V is 0, so V = 0, which does not generate A.
    The lift only picks which entry the message names.

    ``nlift`` (r x r) and ``vlift`` (one row of r ints per entry) may
    override C and the minimal vector lift (testing hooks for the
    well-definedness properties); a ``vlift``'s products with M are
    computed here. An ``nlift`` overrides C at every m and is
    shape-checked at every m.
    """
    if not validate(data).valid:
        raise InvalidData("cu needs valid surface data")
    spec = data.spec
    m, orders, r = spec.m, spec.orders, spec.rank
    if m < 2:
        raise BadParameters("cu needs m >= 2")
    size = data.size
    if nlift is not None:
        C = abelian.int_rows(nlift, "nlift", r, r)
    else:
        C = spec.action if m <= 3 else structured_lift(spec)
    if vlift is None:
        base, products = data._coords, data._products
    else:
        if not isinstance(vlift, (list, tuple)) or len(vlift) != size:
            raise BadParameters("vector lift must have one row per entry")
        base = abelian.int_rows(vlift, "vector lift", size, r)
        products = _product_pair(data.matrix, base)
    # block a is the stacked (x_a; M x_a; M^T x_a)
    blocks = [_stacked(base, products)]
    for _ in range(m - 2):
        blocks.append(_times(blocks[-1], C))
    zero = (0,) * (3 * size)
    Y, P, Q = slice(size), slice(size, 2 * size), slice(2 * size, None)
    out = []
    for c, n in enumerate(orders):
        cols = [zero] + [b[c] for b in blocks] + [zero]
        ys = chain.from_iterable(col[Y] for col in cols[1:m])
        ws = chain.from_iterable(
            map(sum, zip(cols[a][P], cols[a - 1][P], cols[a][Q],
                         cols[a + 1][Q])) for a in range(1, m))
        q = _divided_sum(ys, ws, n, c, "L(M) pairing entry")
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
    reduced once mod gcd(n_p, n_q); MX is read from the datum's product
    pair. It is the adjacent-pair wedge of
    W = P^-1 X for any P with P^T S P = J (S = M - M^T, J the block sum
    of [[0, -1], [1, 0]]): S = P^-T J P^-1, and expanding bilinearly,
    sum_b W_2b ^ W_2b+1 = sum_{i<j} (P^-T (-J) P^-1)_ij X_i ^ X_j =
    sum_{i<j} -S_ij X_i ^ X_j, with no division by 2, so 2-torsion in
    A ^ A is safe. Structural, so defined on non-validating data too (the
    canonical vectors).
    """
    X, MX = abelian._expect(data, SurfaceData)._coords, data._products[0]
    return abelian.WedgeElement2(data.spec, tuple(
        sum(x[q] * y[p] - x[p] * y[q] for x, y in zip(X, MX))
        for p, q in abelian.pair_indices(data.spec)))


def y_obstruction(triples):
    """Sum of multiplicity-scaled triple wedges: sum n_i (a_i ^ b_i ^ c_i),
    from a list or tuple of ((a_i, b_i, c_i), n_i) pairs."""
    if not isinstance(triples, (list, tuple)):
        raise BadParameters(f"triples must be a list or tuple, got {triples!r}")
    if not triples:
        raise BadParameters("need at least one triple")
    total = None
    spec = None
    for item in triples:
        try:
            (a, b, c), mult = item
        except (TypeError, ValueError):
            raise BadParameters(
                f"expected a ((a, b, c), multiplicity) pair, got {item!r}") \
                from None
        if type(mult) is not int:
            raise BadParameters(
                f"multiplicity must be an integer, got {mult!r}")
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
