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
over Z (SurfaceData._products). Every lift that su and cu pair is X
times an r x r right factor, so each total is a pairing of the datum's
Gram matrix G = X^T (MX) (SurfaceData._gram) with an r x r matrix of the
spec alone, kept on the spec (abelian._per_spec): W_c for su (_su_forms)
and Z_c for cu at m <= 3 (_cu_forms); s reads G itself. The moves and
connect sums carry G exactly from sources whose G is formed (see
surface_data.lambda1), so along a chain of moves that reads them
after each move, G is formed once, for the chain's head. cu at m >= 4
forms only blocks 0 and 1 of L x in factor 0, from the product pair
and the structured lift, and names the first entry that does not divide.
GroupElement and WedgeElement2 appear only in their values.
"""

from itertools import chain, product
from math import lcm, prod
from operator import mul

from . import abelian
from ._intlin import (
    _euclid, check_budget, echelon_mod, identity, mat_mul, mat_pow, mat_vec,
    solve_mod, transpose)
from .errors import (
    BadParameters,
    DivisibilityFailure,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
)
from .surface_data import SurfaceData, validate

# most lift candidates searched over unequal orders
LIFT_BUDGET = 10 ** 7


def su(data):
    """Orbit sum of the epsilon pairing: per factor c with modulus n,
    su_c = sum over j of <x_j, (M x_{j+1} - M^T x_j) / n>, x_j the column
    c of an integer lift of t^j V (j mod m).

    The lifts are the orbit Y_j = X (N^T)^j for j < m, X the coordinate
    matrix of V and N the action, closed at Y_0 = X (Y_m = X (N^T)^m is
    congruent to X, not equal). Column c of Y_j is X a_j^T, a_j the row
    c of N^j, so with G = X^T (MX) (the datum's cached Gram matrix, and
    x^T M^T x = x^T M x) term j is a_j G (a_{j+1} - a_j)^T, a_m := a_0,
    and the total is <G, W_c> (see _su_forms). On valid data every
    pairing entry divides (below), so the total does, and su_c is
    (<G, W_c> mod n^2) / n mod n: W_c is needed only mod n^2, and no
    work grows with m past the O(r^3 log m) of W_c, once per spec. A
    total that does not divide is InternalInconsistency, as it would
    contradict the derivation below, so su raises no DivisibilityFailure.

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
    """
    if not validate(data).valid:
        raise InvalidData("su needs valid surface data")
    spec = data.spec
    g = tuple(chain.from_iterable(data._gram))
    return abelian.GroupElement(spec, tuple(
        _paired(g, W, n, c) % n
        for c, (n, W) in enumerate(zip(spec.orders, _su_forms(spec)))))


def _paired(g, F, n, c):
    """<G, F> / n for G flattened to g and F flattened alike; a total
    that n does not divide is InternalInconsistency (su's and cu's
    docstrings show that on valid data every entry, so the total,
    divides)."""
    t = sum(map(mul, g, F))
    if t % n:
        raise InternalInconsistency(
            f"pairing total {t} not divisible by {n} in factor {c}")
    return t // n


def _orbit_sums(N, c, k, sq):
    """(N^k, S_k) mod sq, S_k = sum_{j<k} a_j^T a_j with a_j the row c of
    N^j, by doubling as mat_pow does: S_2k = S_k + (N^k)^T S_k N^k and
    S_(k+1) = S_k + a_k^T a_k, O(r^3 log k) in all."""
    if k == 0:
        r = len(N)
        return identity(r), [[0] * r for _ in range(r)]
    if k & 1:
        P, S = _orbit_sums(N, c, k - 1, sq)
        a = P[c]
        return ([[x % sq for x in row] for row in mat_mul(P, N)],
                [[(s + x * y) % sq for s, y in zip(row, a)]
                 for row, x in zip(S, a)])
    P, S = _orbit_sums(N, c, k >> 1, sq)
    T = mat_mul(mat_mul(transpose(P), S), P)
    return ([[x % sq for x in row] for row in mat_mul(P, P)],
            [[(s + t) % sq for s, t in zip(u, v)] for u, v in zip(S, T)])


@abelian._per_spec
def _su_forms(spec):
    """W_c mod n_c^2 per factor c, flattened row by row: su_c is
    <G, W_c> / n_c mod n_c. W_c = sum_{j<m} a_j^T (a_{j+1} - a_j) with
    a_j the row c of N^j and a_m := a_0 (su's docstring). As
    a_j^T a_{j+1} = a_j^T a_j N, that is S_(m-1) (N - I)
    + a_{m-1}^T (e_c - a_{m-1}), S_k as in _orbit_sums."""
    N, r = spec.action, spec.rank
    out = []
    for c, n in enumerate(spec.orders):
        sq = n * n
        P, S = _orbit_sums(N, c, spec.m - 1, sq)
        a = P[c]
        SN = mat_mul(S, N)
        out.append(tuple(
            (SN[p][q] - S[p][q] + a[p] * ((q == c) - a[q])) % sq
            for p in range(r) for q in range(r)))
    return tuple(out)


@abelian._per_spec
def _cu_forms(spec):
    """Z_c per factor c at m <= 3, flattened row by row: cu's total
    <x, L x> is <G, Z_c>. Block a of the lift is X b_a^T with b_0 = e_c
    and, at m = 3, b_1 = b the row c of N, and
    <x, L x> = sum_a 2 x_a^T M x_a + 2 sum_a x_{a+1}^T M x_a, so
    Z_c = 2 E_c at m = 2 and 2 (E_c + b^T e_c + b^T b) at m = 3, with
    E_c = e_c^T e_c."""
    r = spec.rank
    out = []
    for c, b in enumerate(spec.action):
        e = [int(i == c) for i in range(r)]
        u = b if spec.m == 3 else [0] * r
        out.append(tuple(2 * ((x + y) * e[q] + y * u[q])
                         for x, y in zip(e, u) for q in range(r)))
    return tuple(out)


def _hensel_lift(m, n, N):
    """N + n X for the least X with (N + n X)^m = I mod n^2, or None:
    X runs over x0 (solve_mod) plus L = {X : F X = 0 mod n}, which holds
    n Z^(r^2). As (N + n E)^m = N^m + n sum_a N^a E N^(m-1-a) mod n^2,
    column (k, l) of F is ((N + n E_kl)^m - N^m) / n mod n, one mat_pow
    each. A _euclid pass at each position i over L's echelon_mod span,
    retiring each pivot p, leaves a triangular basis (p[i] | n), so X[i]
    mod |p[i]| in order of i is the lex-least X; no point of L is listed."""
    r, sq = len(N), n * n
    Nm = mat_pow(N, m, [sq] * r)
    residue = [Nm[i][j] - (i == j) for i in range(r) for j in range(r)]
    if any(x % n for x in residue):
        return None

    def column(k):
        E = [list(row) for row in N]
        E[k // r][k % r] += n
        return [(x - y) % sq // n for u, v in zip(mat_pow(E, m, [sq] * r), Nm)
                for x, y in zip(u, v)]
    F = transpose([column(k) for k in range(r * r)])
    mods = [n] * (r * r)
    x0 = solve_mod(F, [-x // n for x in residue], mods)
    if x0 is None:
        return None
    X, K = x0, echelon_mod(F, mods)[1]
    for i in range(r * r):
        p = _euclid(K, i)
        K.remove(p)
        p = [-x for x in p] if p[i] < 0 else p
        q = X[i] // p[i]
        X = [a - q * b for a, b in zip(X, p)]
    return [[N[i][j] + n * X[i * r + j] for j in range(r)] for i in range(r)]


def _searched_lift(m, orders, N):
    """The first lift in the row-major search, or None. Powers are reduced
    mod lcm(orders)^2, as a candidate need not act on prod Z/n_i^2."""
    r, mods = len(orders), [lcm(*orders) ** 2] * len(orders)
    check_budget(prod(orders) ** r, LIFT_BUDGET, "lift candidates")
    cand_lists = [range(N[i][j], orders[i] ** 2, orders[i])
                  for i in range(r) for j in range(r)]
    for flat in product(*cand_lists):
        C = [list(flat[i * r:(i + 1) * r]) for i in range(r)]
        P = mat_pow(C, m, mods)
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
    is lex order on X mod n. So C is N + n X for the least X in a
    particular solution (solve_mod) plus the kernel lattice, read off its
    triangular basis with no listing, budget or O(m) work (_hensel_lift).
    Unequal orders: with C = N + diag(n_i) X the second-order terms need
    not vanish mod n_i^2, and the first lift can have cross entries that
    the linearised system misses, so the box is searched, BudgetExceeded
    past LIFT_BUDGET candidates. Nor does the first lift split over the
    factors: for make_group(4, (3, 5), ((2, 0), (0, 4))) it is
    ((2, 3), (5, 4)), while the per-factor Hensel lifts give diag(8, 24),
    a lift that comes later in row-major order. Over coprime orders
    2..11 with diagonal actions and m = 2..6, 52 of the 130 specs have a
    split first lift, 50 a non-split one and 28 none; so the search
    stays the definition here.
    """
    C = _lift(abelian._expect(spec, abelian.GroupSpec))
    if C is None:
        raise LiftFailure(
            f"no lift of the action satisfies C^{spec.m} = I mod n_i^2")
    return C


@abelian._per_spec
def _lift(spec):
    """structured_lift's lift as a tuple of rows, or None when none
    exists: both outcomes are kept, so a spec is searched once."""
    m, orders = spec.m, spec.orders
    N = [[x % n for x in row] for row, n in zip(spec.action, orders)]
    if len(set(orders)) == 1:
        C = _hensel_lift(m, orders[0], N)
    else:
        C = _searched_lift(m, orders, N)
    return None if C is None else tuple(tuple(row) for row in C)


def cu(data):
    """Pair the lift x = (x_0; ...; x_{m-2}) of (V; t.V; ...; t^{m-2}.V)
    against the block tridiagonal linking form L(M), per factor c:
    Q = <x, L x / n>; for odd n return Q mod n, for even n the pairing
    is even and the value is Q/2 mod n. L(M) has diagonal blocks M + M^T,
    superdiagonal M^T and subdiagonal M, so block a of L x is
    M (x_a + x_{a-1}) + M^T (x_a + x_{a+1}) with x_{-1} = x_{m-1} = 0;
    it is never built. Block a is X (C^T)^a, C the action N at m <= 3
    and the structured lift only at m >= 4.

    At m <= 3, Q is the total <G, Z_c> divided by n, G the
    datum's Gram matrix X^T (MX) and Z_c a matrix of the spec
    (_cu_forms). The derivations below show that on valid data every
    entry of L x is divisible by n there, so the total is, and Q is the
    sum of the per-entry quotients. A total that n does not divide would
    contradict them, so it is InternalInconsistency: the per-entry
    DivisibilityFailure names an entry, which the total does not hold.
    At m >= 4, M x_a and M^T x_a are the product pair (MX, M^T X) times
    a_a, a_0 = e_0, a_1 = C[0] and a_2 = C^T a_1: the same integers as
    multiplying by M directly, for factor 0 and blocks 0 and 1 alone.

    The derivations use the colouring equation M^T V = M t.V, which
    gives M^T x_a = M x_{a+1} mod n, x_{a+1} any lift of t^{a+1} V in
    column c (as in su), and that t - 1 is invertible on A: by the
    equation V = S^-1 M (t - 1) V with S = M^T - M, so every entry of V
    lies in (t - 1) A, and V generates A.

    m = 1: N = I on A, so the equation gives (M^T - M) V = 0, hence
    V = 0, which cannot generate A (rank >= 1): no datum is valid, and
    su and cu raise InvalidData first.

    m = 2: there is one block, x_0 = V, and C is not read. N^2 = I on A
    and (N - I)(N + I) = N^2 - I, so N = -I on A. Hence
    M^T x_0 = M x_1 = -M x_0 mod n, and L x = (M + M^T) x_0 = 0 mod n:
    every entry divides.

    m = 3: N^3 = I on A and (N - I)(N^2 + N + I) = N^3 - I, so
    N^2 + N + I = 0 on A. Block 0 of L x is M x_0 + M^T (x_0 + x_1) and
    block 1 is M x_0 + (M + M^T) x_1; both are M (x_0 + x_1 + x_2) =
    M (1 + t + t^2) V = 0 mod n, x_2 a lift of t^2 V, so every entry
    divides. And cu is the same for every integer C whose row c is N's
    mod n_c, N itself and every structured lift among them. Here
    <x, L x> is x_0^T (M + M^T) x_0 + 2 x_1^T M x_0 + x_1^T (M + M^T) x_1;
    replacing x_1 by x_1 + n e changes it by 2 n e^T (M x_0 + (M + M^T)
    x_1) + 2 n^2 e^T M e, and M x_0 + (M + M^T) x_1 is block 1, n w say.
    So Q changes by 2 n (e^T w + e^T M e), and Q mod n, Q/2 mod n for
    even n and the parity of Q are unchanged. Every entry of L x changes
    by a multiple of n, so no divisibility verdict moves.

    m >= 4: on valid data every factor fails the per-entry division
    within blocks 0 and 1, for every action and every det M. Let
    U = M V; the colouring equation M^T V = t.U gives (M^T - M) V =
    (t - 1) U, so V = S^-1 (t - 1) U with S = M^T - M unimodular. Fix
    factor c with modulus n, phi_c its coordinate. Mod n, block 1 minus
    block 0 of L x is M x_1 + M^T x_2 - M^T x_0 = M x_3 (as M^T x_a =
    M x_{a+1}), x_3 a lift of t^3 V in column c, which is phi_c(t^3 U)
    entry by entry. If blocks 0 and 1 both divide, every entry of U
    lies in H = ker(phi_c t^3), a proper subgroup, as phi_c t^3 maps
    onto Z/n (t is invertible and n >= 2). Then every entry of V lies
    in (t - 1) H, which has at most |H| < |A| elements, so V does not
    generate A: the datum is not valid. So cu raises DivisibilityFailure
    in factor 0, which is read first, at the first entry of block 0 or 1
    that n_0 does not divide (after the lift's own LiftFailure or
    BudgetExceeded); blocks that both divide would contradict the proof,
    so they are InternalInconsistency. The lift only picks which entry
    the message names.
    """
    if not validate(data).valid:
        raise InvalidData("cu needs valid surface data")
    spec = data.spec
    if spec.m <= 3:
        g = tuple(chain.from_iterable(data._gram))
        return abelian.GroupElement(spec, tuple(
            _halved(_paired(g, Z, n, c), n)
            for c, (n, Z) in enumerate(zip(spec.orders, _cu_forms(spec)))))
    C = structured_lift(spec)
    n, a1 = spec.orders[0], C[0]
    a = (identity(spec.rank)[0], a1, mat_vec(transpose(C), a1))
    MX, MTX = data._products
    p0, p1 = (mat_vec(MX, b) for b in a[:2])
    q0, q1, q2 = (mat_vec(MTX, b) for b in a)
    for w in chain(map(sum, zip(p0, q0, q1)), map(sum, zip(p0, p1, q1, q2))):
        if w % n:
            raise DivisibilityFailure(
                f"L(M) pairing entry {w} not divisible by {n} in factor 0")
    raise InternalInconsistency(
        f"L(M) blocks 0 and 1 divisible by {n} in factor 0")


def _halved(q, n):
    """cu_c from the total Q: Q mod n for odd n, Q/2 mod n for even n,
    where Q must be even."""
    if n % 2:
        return q % n
    if q % 2:
        raise InternalInconsistency(
            "pairing value is odd over an even-order factor")
    return (q // 2) % n


def vector_class(data):
    """The symplectic class s in A ^ A: coordinate (p, q), p < q, is
    x_p^T (M^T - M) x_q = G_qp - G_pq, x_p the column p of the
    coordinate matrix X of V and G = X^T (MX) the datum's Gram matrix,
    summed over the integers and reduced once mod gcd(n_p, n_q). It is
    the adjacent-pair wedge of
    W = P^-1 X for any P with P^T S P = J (S = M - M^T, J the block sum
    of [[0, -1], [1, 0]]): S = P^-T J P^-1, and expanding bilinearly,
    sum_b W_2b ^ W_2b+1 = sum_{i<j} (P^-T (-J) P^-1)_ij X_i ^ X_j =
    sum_{i<j} -S_ij X_i ^ X_j, with no division by 2, so 2-torsion in
    A ^ A is safe. Structural, so defined on non-validating data too (the
    canonical vectors).
    """
    G = abelian._expect(data, SurfaceData)._gram
    return abelian.WedgeElement2(data.spec, tuple(
        G[q][p] - G[p][q] for p, q in abelian.pair_indices(data.spec)))


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
