import random
from itertools import combinations, permutations, product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import _intlin as lin, abelian
from knotcolour.errors import BadParameters, BudgetExceeded, NotUnimodular
from util import (
    BAD_BUDGETS, dense_unimodular, rand_unimodular, random_group_spec,
    slow_inverse_unimodular, slow_kernel_mod, slow_mat_mul, slow_mat_pow)

small = st.integers(-9, 9)


def naive_det(A):
    n = len(A)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= A[i][perm[i]]
        total += sign * prod
    return total


@given(st.lists(small, min_size=9, max_size=9))
def test_det_matches_permanent_formula(flat):
    A = [flat[0:3], flat[3:6], flat[6:9]]
    assert lin.det(A) == naive_det(A)


def test_det_empty_and_singular():
    assert lin.det([]) == 1
    assert lin.det([[1, 2], [2, 4]]) == 0


@settings(deadline=None)
@given(st.integers(0, 10 ** 6))
def test_inverse_unimodular(seed):
    rng = random.Random(seed)
    n = rng.randrange(1, 13)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(8, 4 * n + 9)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            t = rng.choice((-2, -1, 1, 2))
            for r in range(n):
                U[r][j] += t * U[r][i]
    inv = lin.inverse_unimodular(U)
    assert lin.mat_mul(U, inv) == lin.identity(n)


def test_inverse_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        lin.inverse_unimodular([[2, 0], [0, 1]])


@pytest.mark.parametrize("A", [[[1, 0, 0], [0, 1, 0]],
                               [[1, 0], [0, 1], [0, 0]]])
def test_inverse_rejects_non_square(A):
    with pytest.raises(NotUnimodular):
        lin.inverse_unimodular(A)


def test_inverse_empty():
    assert lin.inverse_unimodular([]) == []


@pytest.mark.parametrize("A", [
    [[0]], [[2]], [[-2]], [[1, 2], [2, 4]], [[0, 1], [2, 0]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 0]], [[3, 1], [1, 1]],
])
def test_inverse_rejects_det_zero_and_two(A):
    assert lin.det(A) in (0, 2, -2)
    with pytest.raises(NotUnimodular):
        lin.inverse_unimodular(A)


def random_unimodular(rng, n, dense):
    """Sparse: 1 to 3 transvections, as walks and shorten_vector build;
    dense: about 4n of them plus row swaps and sign flips."""
    if dense:
        return dense_unimodular(rng, n)
    return rand_unimodular(rng, n, ops=rng.randrange(1, 4)) if n else ()


def raised(fn, A):
    with pytest.raises(NotUnimodular) as info:
        fn(A)
    return str(info.value)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 42), st.booleans(), st.integers(0, 10 ** 6))
def test_inverse_matches_smith_oracle(n, dense, seed):
    """The row-reduction inverse equals the Smith-form inverse (the
    inverse of a unimodular matrix is unique) and leaves A as it was."""
    U = [list(row) for row in random_unimodular(random.Random(seed), n, dense)]
    before = [list(row) for row in U]
    inv = lin.inverse_unimodular(U)
    assert U == before
    assert inv == slow_inverse_unimodular(U)
    assert lin.mat_mul(U, inv) == lin.identity(n)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(1, 42), st.sampled_from((0, 2, -2, 3, -3)),
       st.booleans(), st.integers(0, 10 ** 6))
def test_inverse_rejects_like_smith_oracle(n, d, dense, seed):
    """On det 0, +-2, +-3 (U diag(d, 1, ..., 1) W with U, W unimodular)
    and on non-square input, both inverses raise NotUnimodular with the
    same message."""
    rng = random.Random(seed)
    D = lin.identity(n)
    D[0][0] = d
    A = lin.mat_mul(lin.mat_mul(random_unimodular(rng, n, dense), D),
                    random_unimodular(rng, n, dense))
    assert lin.det(A) in (d, -d)
    assert raised(lin.inverse_unimodular, A) == \
        raised(slow_inverse_unimodular, A)
    cols = rng.choice([c for c in range(n + 2) if c != n])
    B = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(n)]
    assert raised(lin.inverse_unimodular, B) == \
        raised(slow_inverse_unimodular, B)


@given(st.lists(small, min_size=1, max_size=12))
def test_smith_form(flat):
    cols = 3
    rows = (len(flat) + cols - 1) // cols
    flat = flat + [0] * (rows * cols - len(flat))
    A = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    U, D, V = lin.smith(A)
    assert lin.mat_mul(lin.mat_mul(U, A), V) == D
    assert lin.det(U) in (1, -1)
    assert lin.det(V) in (1, -1)
    diag = [D[i][i] for i in range(min(rows, cols))]
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(st.lists(small, min_size=4, max_size=4), st.lists(small, min_size=2, max_size=2))
def test_solve_mod(flat, x):
    C = [flat[0:2], flat[2:4]]
    mods = [4, 6]
    target = [v % n for v, n in zip(lin.mat_vec(C, x), mods)]
    sol = lin.solve_mod(C, target, mods)
    assert sol is not None and len(sol) == 2
    got = lin.mat_vec(C, sol)
    assert all((g - t) % n == 0 for g, t, n in zip(got, target, mods))


def test_solve_mod_unsolvable():
    assert lin.solve_mod([[2]], [1], [4]) is None


@pytest.mark.parametrize("mods", [
    (4, 6), (3, 9), (2, 2, 2), (6,), (9, 3, 6)])
def test_smith_mod_and_solve_mod_match_brute_force(mods):
    """F x modulo mods depends on x only modulo lcm(mods), so a walk over
    (Z/lcm)^k finds the image of F. smith_mod's prod(d) is the order of
    (prod Z/mods) / image, and solve_mod returns a vector exactly when the
    target lies in the image, a vector that solves the system."""
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        k = rng.randrange(3)
        F = [[rng.randrange(-12, 13) for _ in range(k)] for _ in mods]
        image = {tuple(sum(f * v for f, v in zip(row, x)) % n
                       for row, n in zip(F, mods))
                 for x in product(range(lcm(*mods)), repeat=k)}
        assert prod(lin.smith_mod(F, mods)[1]) * len(image) == prod(mods)
        targets = [rng.choice(sorted(image)),
                   [rng.randrange(-2 * n, 2 * n) for n in mods]]
        for b in targets:
            sol = lin.solve_mod(F, b, mods)
            assert (sol is not None) == (
                tuple(v % n for v, n in zip(b, mods)) in image)
            if sol is not None:
                assert len(sol) == k
                assert all((g - v) % n == 0 for g, v, n in
                           zip(lin.mat_vec(F, sol), b, mods))

    check()


def test_mat_mul_matches_index_loop():
    """mat_mul against the index-loop oracle on rectangular shapes with
    inner dimension 0 to 5, left factors from dense to all zero, lists
    and tuples of tuples; the empty product and an empty inner dimension
    are drawn too."""
    seen = set()

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        rows, inner, cols = (rng.randrange(6) for _ in range(3))
        zeros = rng.choice((0.0, 0.5, 0.9, 1.0))
        A = [[0 if rng.random() < zeros else rng.randrange(-9, 10)
              for _ in range(inner)] for _ in range(rows)]
        B = [[rng.randrange(-10 ** 12, 10 ** 12) for _ in range(cols)]
             for _ in range(inner)]
        if rng.randrange(2):
            A, B = tuple(map(tuple, A)), tuple(map(tuple, B))
        got = lin.mat_mul(A, B)
        assert got == slow_mat_mul(A, B)
        assert all(type(row) is list for row in got)
        seen.update((("rows", min(rows, 1)), ("inner", min(inner, 1)),
                     ("zeros", zeros), type(A)))
        if inner and rows and not any(map(any, A)):
            seen.add("all-zero left factor")

    check()
    assert seen == {("rows", 0), ("rows", 1), ("inner", 0), ("inner", 1),
                    ("zeros", 0.0), ("zeros", 0.5), ("zeros", 0.9),
                    ("zeros", 1.0), list, tuple, "all-zero left factor"}


@pytest.mark.parametrize("A, B, want", [
    ([], [], []),
    ((), ((1, 2),), []),
    ([[], []], [], [[], []]),
    ([[0, 0]], [[5], [7]], [[0]]),
    (((1, 0, 2),), ((1,), (9,), (3,)), [[7]]),
])
def test_mat_mul_edge_shapes(A, B, want):
    assert lin.mat_mul(A, B) == slow_mat_mul(A, B) == want


def test_mat_mul_skips_zeros_of_left_factor():
    """A zero entry of the left factor never reads its row of B (row 0
    of B is read once, for the width)."""
    class Unread:
        def __getitem__(self, j):
            raise AssertionError("a row met only by zeros was read")

    A = [[0, 2, 0], [0, -1, 0]]
    B = [[1, 1], [3, 4], Unread()]
    assert lin.mat_mul(A, B) == [[6, 8], [-3, -4]]


def test_mat_vec_matches_index_loop():
    rng = random.Random(7)
    for _ in range(200):
        rows, inner = rng.randrange(5), rng.randrange(1, 5)
        A = [[rng.randrange(-9, 10) for _ in range(inner)]
             for _ in range(rows)]
        v = [rng.randrange(-99, 100) for _ in range(inner)]
        want = [row[0] for row in slow_mat_mul(A, [[x] for x in v])]
        assert lin.mat_vec(A, v) == lin.mat_vec(tuple(A), tuple(v)) == want
    assert lin.mat_vec([[], []], []) == [0, 0]
    assert lin.mat_vec([], [1, 2]) == []


def test_mat_pow():
    A = [[1, 1], [0, 1]]
    assert lin.mat_pow(A, 0, (7, 7)) == lin.identity(2)
    assert lin.mat_pow(A, 5, (7, 7)) == [[1, 5], [0, 1]]
    assert lin.mat_pow(A, 12, (7, 7)) == [[1, 5], [0, 1]]


def test_mat_pow_matches_repeated_product():
    """mat_pow(A, k, mods) is the k-fold product for k = 0..9 on random
    1x1 to 4x4 matrices, and leaves A as it was: one common modulus 2^64
    is over twice every |entry| (at most 16^9), so reducing by it loses
    nothing."""
    big = 2 ** 64

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 5)
        A = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        before = [list(row) for row in A]
        want = lin.identity(n)
        for k in range(10):
            assert lin.mat_pow(A, k, (big,) * n) == \
                [[x % big for x in row] for row in want]
            assert A == before
            want = lin.mat_mul(want, A)

    check()


def test_mat_pow_is_the_reduced_power():
    """mat_pow(A, k, mods) is slow_mat_pow(A, k) with row i reduced mod
    mods[i], for k = 0..40: on compatible actions of random_group_spec
    over equal and unequal orders (row-wise moduli, row i shifted by
    random multiples of n_i), and on arbitrary integer A under one
    common modulus. k = 0 gives the identity."""
    seen = set()

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        cases = []
        for equal in (True, False):
            spec = random_group_spec(rng, equal, False)
            cases.append(([[x + n * rng.randrange(-3, 4) for x in row]
                           for row, n in zip(spec.action, spec.orders)],
                          spec.orders))
        n = rng.randrange(1, 4)
        cases.append(([[rng.randrange(-50, 51) for _ in range(n)]
                       for _ in range(n)], (rng.randrange(2, 100),) * n))
        for A, mods in cases:
            assert lin.mat_pow(A, 0, mods) == lin.identity(len(A))
            for k in range(41):
                want = [[x % q for x in row]
                        for row, q in zip(slow_mat_pow(A, k), mods)]
                assert lin.mat_pow(A, k, mods) == want
            seen.add(len(set(mods)))

    check()
    assert seen == {1, 2}


MODS_OUT = ((2,), (3,), (4,), (9,), (2, 4), (3, 3), (6,), (2, 2, 2))


@pytest.mark.parametrize("mods_in", [
    (2, 4), (3, 9), (2, 2, 2), (4, 2, 3), (9, 3, 6), (5,)])
def test_kernel_mod_matches_brute_force(mods_in):
    """kernel_mod lists exactly the solutions a walk over every x finds,
    in the same order, and its echelon-index count is exact: a budget one
    below the number of solutions raises."""
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        mods_out = sum((rng.choice(MODS_OUT)
                        for _ in range(rng.randrange(1, 3))), ())
        # F is well defined on prod Z/mods_in: mods_out[i] | F[i][j] mods_in[j]
        F = [[rng.randrange(-3, 4) * (o // gcd(o, n)) for n in mods_in]
             for o in mods_out]
        want = [x for x in product(*(range(n) for n in mods_in))
                if all(sum(f * v for f, v in zip(row, x)) % o == 0
                       for row, o in zip(F, mods_out))]
        assert lin.kernel_mod(F, mods_in, mods_out, len(want)) == want
        with pytest.raises(BudgetExceeded):
            lin.kernel_mod(F, mods_in, mods_out, len(want) - 1)

    check()


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_kernel_mod_rejects_untyped_budget(budget):
    with pytest.raises(BadParameters, match="budget must be an integer"):
        lin.kernel_mod([[1]], (3,), (3,), budget)


def test_echelon_matches_smith_oracle():
    """Over random F, with mods_in and mods_out unequal (other lengths,
    other moduli, 1 among them), k = 0 and all-zero F included:
    kernel_mod equals the Smith-form listing, order included, and
    echelon_mod's index is the product of smith_mod's invariant factors,
    for a well-defined F and for an F of arbitrary entries alike."""
    seen = set()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        mods_in = tuple(rng.randrange(2, 10) for _ in range(rng.randrange(4)))
        mods_out = tuple(rng.randrange(1, 10)
                         for _ in range(rng.randrange(1, 4)))
        zero = rng.randrange(5) == 0
        # well defined on prod Z/mods_in: mods_out[i] | F[i][j] mods_in[j]
        F = [[0 if zero else rng.randrange(-4, 5) * (o // gcd(o, n))
              for n in mods_in] for o in mods_out]
        assert lin.kernel_mod(F, mods_in, mods_out, 10 ** 6) == \
            slow_kernel_mod(F, mods_in, mods_out)
        raw = [[rng.randrange(-30, 31) for _ in mods_in] for _ in mods_out]
        for G in (F, raw):
            assert lin.echelon_mod(G, mods_out)[0] == \
                prod(lin.smith_mod(G, mods_out)[1])
        seen.add((not mods_in, zero))

    check()
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


ECHELON_MODS = (1, 4, 6, 8, 9, 27)


def large_matrix(rng, mods, k):
    """len(mods) rows of k entries up to +-10^6; about a quarter of them
    a multiple of the row's modulus, nonzero where the modulus allows."""
    return [[n * rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6 // n + 1)
             if rng.randrange(4) == 0 else rng.randrange(-10 ** 6, 10 ** 6 + 1)
             for _ in range(k)] for n in mods]


def test_echelon_passes_see_residues(monkeypatch):
    """echelon_mod reduces row i of every column mod n_i before its
    _euclid pass, so the pass at row i, one per row and in order, sees
    entries in [0, n_i] only, the modulus column n_i e_i among them; F
    has entries up to +-10^6 and nonzero multiples of the moduli."""
    passes, real = [], lin._euclid

    def spy(vecs, i):
        passes.append((i, [v[i] for v in vecs]))
        return real(vecs, i)

    monkeypatch.setattr(lin, "_euclid", spy)
    rng = random.Random(36)
    for _ in range(200):
        mods = [rng.choice(ECHELON_MODS) for _ in range(rng.randrange(1, 4))]
        passes.clear()
        lin.echelon_mod(large_matrix(rng, mods, rng.randrange(5)), mods)
        assert [i for i, _ in passes] == list(range(len(mods)))
        for i, entries in passes:
            assert mods[i] in entries
            assert all(0 <= x <= mods[i] for x in entries), (mods, i, entries)


def test_echelon_on_large_entries():
    """Over F with entries up to +-10^6, nonzero multiples of the row
    moduli among them, and moduli from ECHELON_MODS: echelon_mod's index
    is the product of smith_mod's invariant factors; each of its k kernel
    columns x has F x = 0 mod the moduli, and |det| of those columns is
    prod(mods) / index, the index of the kernel in Z^k, so they span it.
    On such an F rounded to be well defined on small mods_in, kernel_mod
    equals the Smith-form listing."""
    seen = set()

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        mods = tuple(rng.choice(ECHELON_MODS)
                     for _ in range(rng.randrange(1, 4)))
        k = rng.randrange(5)
        F = large_matrix(rng, mods, k)
        index, K = lin.echelon_mod(F, mods)
        assert index == prod(lin.smith_mod(F, mods)[1])
        assert len(K) == k
        for x in K:
            assert all(y % n == 0 for y, n in zip(lin.mat_vec(F, x), mods))
        assert abs(lin.det(K)) * index == prod(mods)
        mods_in = tuple(rng.choice((2, 3, 4, 6, 9))
                        for _ in range(rng.randrange(1, 4)))
        # n | G_ij mods_in[j]: round each entry down to a multiple of
        # n / gcd(n, mods_in[j]), which keeps the multiples of n
        G = [[f - f % (n // gcd(n, q)) for f, q in zip(row, mods_in)]
             for row, n in zip(large_matrix(rng, mods, len(mods_in)), mods)]
        assert lin.kernel_mod(G, mods_in, mods, 10 ** 6) == \
            slow_kernel_mod(G, mods_in, mods)
        seen.add((k > 0, 1 in mods))

    check()
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def test_coords_generate_matches_smith_verdict():
    """_coords_generate agrees with the Smith verdict (some tuple given
    and every invariant factor 1) on random coordinate tuples over random
    orders: empty, with repeats, and scaled by a common factor of the
    orders so that they cannot generate."""
    seen = set()

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        orders = tuple(rng.choice((2, 3, 4, 6, 9))
                       for _ in range(rng.randrange(1, 4)))
        gens = [tuple(rng.randrange(n) for n in orders)
                for _ in range(rng.randrange(5))]
        if gens and rng.randrange(3) == 0:
            gens.append(rng.choice(gens))
        if rng.randrange(4) == 0:
            p = min(orders)
            gens = [tuple(p * g % n for g, n in zip(x, orders)) for x in gens]
        F = [[g[i] for g in gens] for i in range(len(orders))]
        want = bool(gens) and all(d == 1 for d in lin.smith_mod(F, orders)[1])
        got = abelian._coords_generate(abelian.unsafe_spec(orders),
                                       tuple(gens))
        assert got == want
        seen.add((bool(gens), len(set(gens)) < len(gens), want))

    check()
    assert {(False, False, False), (True, True, True), (True, True, False),
            (True, False, True), (True, False, False)} <= seen


def test_det_matches_leibniz():
    """det equals the Leibniz sum for n <= 5 on random matrices, on
    signed and scaled permutation matrices (which test the sign alone)
    and on singular ones (a row that is a combination of others, or a
    zero row), and leaves A as it was."""
    seen = set()

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        n = rng.randrange(6)
        kind = rng.choice(("random", "permutation", "singular"))
        A = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        if kind == "permutation":
            perm = rng.sample(range(n), n)
            A = [[rng.choice((-2, -1, 1, 3)) * (j == perm[i])
                  for j in range(n)] for i in range(n)]
        elif kind == "singular" and n:
            r = rng.randrange(n)
            others = A[:r] + A[r + 1:]
            a, b = rng.randrange(-2, 3), rng.randrange(-2, 3)
            A[r] = [a * x + b * y for x, y in
                    zip(rng.choice(others), rng.choice(others))] \
                if others and rng.randrange(3) else [0] * n
        before = [list(row) for row in A]
        got = lin.det(A)
        assert got == naive_det(A)
        assert A == before
        assert got == 0 or kind != "singular" or not n
        seen.add((n, kind, got == 0))

    check()
    assert {(n, "permutation", False) for n in range(1, 6)} <= seen
    assert {(n, "singular", True) for n in range(1, 6)} <= seen


def determinantal_divisors(A):
    """D_k = gcd of the k x k minors of A, for k = 1..min(rows, cols)."""
    rows, cols = len(A), len(A[0]) if A else 0
    return [gcd(*(naive_det([[A[i][j] for j in cs] for i in rs])
                  for rs in combinations(range(rows), k)
                  for cs in combinations(range(cols), k)))
            for k in range(1, min(rows, cols) + 1)]


def test_smith_diagonal_matches_determinantal_divisors():
    """d_1 ... d_k = D_k, the gcd of the k x k minors, on random matrices
    up to 4x4, square, rectangular and rank-deficient (a row that is a
    combination of others): the diagonal is the unique Smith form, and
    U A V = D with U and V unimodular."""
    seen = set()

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.integers(0, 10 ** 6))
    def check(seed):
        rng = random.Random(seed)
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        A = [[rng.randrange(-12, 13) for _ in range(cols)]
             for _ in range(rows)]
        if rows > 1 and rng.randrange(3) == 0:
            a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
            A[-1] = [a * x + b * y for x, y in zip(A[0], A[-2])]
        U, D, V = lin.smith(A)
        assert lin.mat_mul(lin.mat_mul(U, A), V) == D
        assert lin.det(U) in (1, -1) and lin.det(V) in (1, -1)
        assert all(D[i][j] == 0 for i in range(rows) for j in range(cols)
                   if i != j)
        diag = [D[i][i] for i in range(min(rows, cols))]
        assert [prod(diag[:k]) for k in range(1, len(diag) + 1)] == \
            determinantal_divisors(A)
        rank = sum(1 for d in diag if d)
        seen.add((rows == cols, rank < min(rows, cols),
                  any(d > 1 for d in diag)))

    check()
    assert {(True, False, True), (False, False, True), (True, True, True),
            (False, True, True), (True, False, False)} <= seen
