import hashlib
import random
from functools import cached_property
from itertools import product
from operator import mod, ne

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import _intlin, abelian, classify, invariants, surface_data
from knotcolour._intlin import (
    det, identity, inverse_unimodular, mat_mul, mat_vec, transpose)
from knotcolour.errors import (
    BadParameters,
    BudgetExceeded,
    DivisibilityFailure,
    GroupMismatch,
    InvalidData,
    NonGenerating,
    NotSymplecticable,
    NotUnimodular,
    PatternMismatch,
)
from test_acceptance import brute_force
from util import (
    BAD_BUDGETS, TREFOIL_L, FIG8_L, construction_spy, dense_unimodular,
    invariant_triple, move_chain, move_pool, odd_pool, outcome,
    rand_unimodular, random_move, slow_inverse_unimodular, slow_mat_apply,
    slow_mat_mul, slow_mat_pow, slow_validate, slow_vector_class,
    wedge2_zero, wedge3_zero)


def random_seifert(rng, specs):
    """A random Seifert matrix U^T M U and its group, for specs of
    (spec, max_genus, base): M is the standard matrix of a random genus,
    or half the time the given genus-1 base, plus symmetric noise (which
    keeps M - M^T), divisible by 5 on a base."""
    spec, max_genus, base = rng.choice(specs)
    g = rng.randrange(1, max_genus + 1)
    scale = 1 if base is None or rng.random() < 0.5 else 5
    base = surface_data.standard_matrix(g) if scale == 1 else base
    M = [list(r) for r in base]
    for i in range(2 * g):
        for j in range(i, 2 * g):
            x = scale * rng.randrange(-2, 3)  # symmetric: keeps S
            M[i][j] += x
            if j != i:
                M[j][i] += x
    U = rand_unimodular(rng, 2 * g)
    return mat_mul(mat_mul(transpose(U), M), U), spec


class TestConstruction:
    def test_rejects_odd_size(self, d6):
        with pytest.raises(BadParameters):
            surface_data.make_data(d6, ((1,),), [(0,)])

    def test_rejects_non_square(self, d6):
        with pytest.raises(BadParameters):
            surface_data.make_data(d6, ((1, 0), (0,)), [(0,), (0,)])

    def test_rejects_wrong_determinant(self, d6):
        with pytest.raises(BadParameters):
            surface_data.make_data(d6, ((0, 2), (0, 0)), [(0,), (0,)])

    @pytest.mark.parametrize("matrix", [
        ((0, 2), (0, 0)), ((1, 0), (0, 1)), ((0, 3), (0, 0)),
        ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))])
    def test_public_constructors_check_determinant(self, d6, matrix):
        vec = (abelian.zero(d6),) * len(matrix)
        with pytest.raises(BadParameters, match="expected 1"):
            surface_data.SurfaceData(d6, matrix, vec)
        obj = {"group": abelian.group_to_json(d6),
               "seifert": [list(row) for row in matrix],
               "vector": [[0]] * len(matrix)}
        with pytest.raises(BadParameters, match="expected 1"):
            surface_data.data_from_json(obj)

    def test_rejects_vector_length(self, d6):
        with pytest.raises(BadParameters):
            surface_data.make_data(d6, TREFOIL_L, [(1,)])

    def test_rejects_non_sequence_vector(self, d10):
        with pytest.raises(BadParameters):
            surface_data.SurfaceData(d10, ((1, 1), (0, -1)), 5)

    @pytest.mark.parametrize("call", [
        lambda d10, data: surface_data.make_data(
            d10, ((1, 1), (0, -1)), [1, 3]),
        lambda d10, data: surface_data.lambda1(data, 5),
        lambda d10, data: surface_data.lambda1(data, [1, 2]),
        lambda d10, data: surface_data.lambda2(data, 5, 1),
        lambda d10, data: surface_data.enumerate_colourings(5, d10),
    ], ids=["make_data", "lambda1_int", "lambda1_rows", "lambda2",
            "enumerate_colourings"])
    def test_non_sequences_are_bad_parameters(self, d10, call):
        data = surface_data.make_data(d10, ((1, 1), (0, -1)), [(1,), (3,)])
        with pytest.raises(BadParameters):
            call(d10, data)

    @pytest.mark.parametrize("matrix, coords", [
        ([[-1.9, 1], [0, True]], [["1"], [2.5]]),
        ([[-1, 1], [0, True]], [(1,), (2,)]),
        ([[-1.0, 1], [0, -1]], [(1,), (2,)]),
        (TREFOIL_L, [(1,), (2.0,)]),
        (TREFOIL_L, [(1,), (False,)]),
    ])
    def test_rejects_non_integers(self, d6, matrix, coords):
        with pytest.raises(BadParameters):
            surface_data.make_data(d6, matrix, coords)

    @pytest.mark.parametrize("entry", [(1,), 1, None])
    def test_rejects_non_element_entries(self, d6, entry):
        with pytest.raises(BadParameters,
                           match="^vector entries must be GroupElement$"):
            surface_data.SurfaceData(d6, TREFOIL_L,
                                     (abelian.zero(d6), entry))

    def test_rejects_foreign_entries(self, d6, d10):
        with pytest.raises(GroupMismatch):
            surface_data.SurfaceData(
                d6, TREFOIL_L, (abelian.zero(d10), abelian.zero(d10)))

    def test_empty_datum(self, d6):
        data = surface_data.make_data(d6, (), [])
        assert data.size == 0 and data.genus == 0
        assert not surface_data.validate(data).valid

    def test_size_and_genus(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        assert data.size == 2 and data.genus == 1


# each a factory, as a generator is used up by one read, and the message
# every matrix reader raises for it
BAD_MATRICES = {
    "bool": (lambda: ((-1, 1), (0, True)),
             "matrix row must be integers, got (0, True)"),
    "float": (lambda: ((-1, 1.0), (0, -1)),
              "matrix row must be integers, got (-1, 1.0)"),
    "str": (lambda: ((-1, 1), ("0", -1)),
            "matrix row must be integers, got ('0', -1)"),
    "ragged": (lambda: ((-1, 1), (0,)), "matrix must be square"),
    "non-sequence row": (lambda: ((-1, 1), range(2)),
                         "matrix row must be a list or tuple, got "
                         "range(0, 2)"),
    "first bad row": (lambda: [[-1, 1.0], 7],
                      "matrix row must be integers, got [-1, 1.0]"),
    "generator": (lambda: (row for row in ((-1, 1), (0, True))),
                  "matrix row must be integers, got (0, True)"),
}

MATRIX_READERS = {
    "lambda1": lambda spec, M: surface_data.lambda1(
        surface_data.make_data(spec, TREFOIL_L, [(1,), (2,)]), M),
    "make_data": lambda spec, M: surface_data.make_data(
        spec, M, [(1,), (2,)]),
    "enumerate_colourings": lambda spec, M:
        surface_data.enumerate_colourings(M, spec),
}


class TestMatrixErrors:
    """The matrix readers name the first bad row, with the same type and
    message whichever reads it."""

    @pytest.mark.parametrize("reader", MATRIX_READERS)
    @pytest.mark.parametrize("name", BAD_MATRICES)
    def test_message(self, d6, reader, name):
        make, message = BAD_MATRICES[name]
        assert outcome(MATRIX_READERS[reader], d6, make()) == \
            (BadParameters, message)

    @pytest.mark.parametrize("reader", MATRIX_READERS)
    def test_generator_of_rows_reads_as_tuple(self, d6, reader):
        call = MATRIX_READERS[reader]
        rows = ((1, 0), (1, 1)) if reader == "lambda1" else TREFOIL_L
        assert call(d6, (row for row in rows)) == call(d6, rows)


class TestValidate:
    def test_valid_trefoil(self, d6):
        report = surface_data.validate(
            surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)]))
        assert report.valid and report.generates and report.equation_holds \
            and report.genus_ok

    def test_zero_vector_does_not_generate(self, d6):
        report = surface_data.validate(
            surface_data.make_data(d6, TREFOIL_L, [(0,), (0,)]))
        assert report.equation_holds and not report.generates \
            and not report.valid

    def test_equation_failure(self, d6):
        report = surface_data.validate(
            surface_data.make_data(d6, TREFOIL_L, [(1,), (1,)]))
        assert report.generates and not report.equation_holds

    def test_genus_too_small(self, c7_222):
        # (Z/2)^3 needs three generators; a 2x2 matrix can never carry them
        data = surface_data.make_data(c7_222, TREFOIL_L, [(1, 1, 0), (0, 1, 1)])
        assert not surface_data.validate(data).genus_ok

    def test_equation_matches_s_inverse_form(self, d6, d10, a4, c2_35):
        """M^T V = M (t.V) is V = S^-1 M (t-1)V for S = M^T - M, computed
        here per factor over Z on moved data and on random vectors. Over
        the rank-2 groups A4 and C2 x| (Z/3 x Z/5) the first factor that
        fails is seen to be 0 and to be 1, so the check of factor 1 runs
        after factor 0 holds."""
        pool = move_pool(d6, d10, a4, c2_35)
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            data = rng.choice(pool)
            for _ in range(rng.randrange(4)):
                data = random_move(rng, data)
            spec, M, size = data.spec, data.matrix, data.size
            if rng.random() < 0.5:
                # random entries; half the time only the last coordinate
                # is redrawn, which leaves a diagonal action's other
                # factors holding
                kept = rng.randrange(2) * (spec.rank - 1)
                data = surface_data.make_data(spec, M, [
                    x[:kept] + tuple(rng.randrange(n)
                                     for n in spec.orders[kept:])
                    for x in data._coords])
            S = [[M[j][i] - M[i][j] for j in range(size)] for i in range(size)]
            Sinv = inverse_unimodular(S)
            assert mat_mul(S, Sinv) == identity(size)
            failing = []
            for c, n in enumerate(spec.orders):
                x = [v.coords[c] for v in data.vector]
                tx = [abelian.act(v).coords[c] for v in data.vector]
                y = mat_vec(Sinv, mat_vec(M, [a - b for a, b in zip(tx, x)]))
                if not all((a - b) % n == 0 for a, b in zip(x, y)):
                    failing.append(c)
            holds = surface_data.validate(data).equation_holds
            assert holds == (not failing)
            seen.add(holds)
            if failing and spec.rank == 2:
                seen.add(("first failing", failing[0]))

        check()
        assert seen == {True, False, ("first failing", 0),
                        ("first failing", 1)}

    @pytest.mark.parametrize("orders, want", [
        ((2, 2, 2), 3), ((4, 6), 2), ((3, 5), 1), ((6, 10, 15), 2),
        ((8, 4, 2), 3)])
    def test_min_generators_matches_prime_count(self, orders, want):
        primes = {p for n in orders for p in range(2, n + 1)
                  if n % p == 0 and all(p % q for q in range(2, p))}
        prime_count = max(sum(1 for n in orders if n % p == 0) for p in primes)
        spec = abelian.unsafe_spec(orders)
        assert surface_data._min_generators(spec) == prime_count == want


class TestValidateOnce:
    def test_full_check_runs_once(self, a4, monkeypatch):
        calls = []
        body = surface_data._validate
        monkeypatch.setattr(surface_data, "_validate",
                            lambda data: calls.append(data) or body(data))
        data = surface_data.make_data(a4, ((1, 0), (1, 1)), [(1, 1), (0, 1)])
        invariants.su(data)
        report = surface_data.validate(data)
        invariants.cu(data)
        classify.a4_class(data)
        assert surface_data.validate(data) is report and report.valid
        # a4_class may also check its own reference data on a cold cache
        assert [d for d in calls if d is data] == [data]

    def test_pair_and_gram_formed_once(self, a4, c4z5, c6_93,
                                       monkeypatch):
        """On a fresh datum, validate, su, cu at m <= 3 and vector_class
        form the product pair once and the Gram matrix G once, and cu at
        m <= 3 asks for no structured lift. cu at m = 4 asks for the
        structured lift once and forms no G (cu's docstring)."""
        pairs, grams, lifts = [], [], []
        pair_body = surface_data._product_pair
        gram_body = surface_data.SurfaceData._gram.func
        lift_body = invariants.structured_lift

        gram = cached_property(lambda d: grams.append(d) or gram_body(d))
        gram.__set_name__(surface_data.SurfaceData, "_gram")
        monkeypatch.setattr(surface_data.SurfaceData, "_gram", gram)
        monkeypatch.setattr(surface_data, "_product_pair",
                            lambda M, X: pairs.append(X) or pair_body(M, X))
        monkeypatch.setattr(invariants, "structured_lift",
                            lambda spec: lifts.append(spec) or lift_body(spec))
        M = ((-2, -3), (-2, -2))
        a4_data = surface_data.make_data(a4, ((1, 0), (1, 1)),
                                         [(1, 1), (0, 1)])
        for data in (a4_data, surface_data.SurfaceData(
                c6_93, M, surface_data.enumerate_colourings(M, c6_93)[0])):
            pairs.clear(), grams.clear()
            assert surface_data.validate(data).valid
            assert grams == []
            invariants.su(data)
            invariants.vector_class(data)
            if data.spec.m <= 3:
                invariants.cu(data)
            assert pairs == [data._coords] and grams == [data]
            assert lifts == []
        grams.clear()
        c4z5_data = surface_data.make_data(c4z5, ((8, 0), (1, 1)),
                                           [(1,), (3,)])
        with pytest.raises(DivisibilityFailure):
            invariants.cu(c4z5_data)
        assert lifts == [c4z5] and grams == []

    def test_memo_leaves_identity_alone(self, d6):
        """A validated datum and an equal fresh one compare, hash, print
        and serialise alike."""
        done = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        fresh = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        surface_data.validate(done)
        assert done == fresh and fresh == done
        assert hash(done) == hash(fresh)
        assert repr(done) == repr(fresh)
        assert surface_data.data_to_json(done) == \
            surface_data.data_to_json(fresh)

    @pytest.mark.parametrize("coords", [[(0, 0), (0, 0)], [(1, 0), (0, 1)]])
    @pytest.mark.parametrize("validated_first", [False, True])
    def test_invalid_data_still_raises(self, a4, coords, validated_first):
        # the first vector does not generate A, the second breaks the
        # colouring equation
        data = surface_data.make_data(a4, ((1, 0), (1, 1)), coords)
        if validated_first:
            assert not surface_data.validate(data).valid
        basis = [abelian.element(a4, (1, 0)), abelian.element(a4, (0, 1))]
        for call in (invariants.su, invariants.cu, classify.a4_class,
                     lambda d: surface_data.shorten_vector(d, basis)):
            with pytest.raises(InvalidData):
                call(data)


class TestValidateOracle:
    def test_matches_slow_oracle_on_random_vectors(self, d6, d10, a4, c2_35,
                                                    c7_222):
        """Pool data after 0-3 random moves, with their vector or a random
        one (a shifted lift, any integers): validate equals the
        GroupElement oracle, and so does vector_class, valid or not. So
        does validate at the edges: an m = 1 datum that generates but
        fails the equation (validation applies N all the same) and the
        0x0 datum, whose Gram matrix is r x r zeros."""
        m1 = surface_data.make_data(abelian.unsafe_spec((3,)), TREFOIL_L,
                                    [(1,), (0,)])
        empty = surface_data.make_data(a4, (), [])
        for data in (m1, empty):
            assert surface_data.validate(data) == slow_validate(data)
        report = surface_data.validate(m1)
        assert report.generates and not report.equation_holds
        assert surface_data.validate(empty).equation_holds
        assert empty._gram == ((0, 0), (0, 0))
        pool = move_pool(d6, d10, a4, c2_35)
        pool.append(surface_data.make_data(
            c7_222, surface_data.standard_matrix(2),
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]))
        seen = set()

        @settings(deadline=None, max_examples=80, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            data = rng.choice(pool)
            for _ in range(rng.randrange(4)):
                data = random_move(rng, data)
            if rng.random() < 0.7:
                data = surface_data.make_data(
                    data.spec, data.matrix,
                    [[rng.randrange(-2 * n, 2 * n) for n in data.spec.orders]
                     for _ in range(data.size)])
            report = surface_data.validate(data)
            assert report == slow_validate(data)
            assert invariants.vector_class(data) == slow_vector_class(data)
            seen.update(f"{k}={v}" for k, v in vars(report).items())

        check()
        assert seen >= {"valid=True", "valid=False", "generates=False",
                        "equation_holds=False"}


def fresh_copy(data):
    """data rebuilt through the public constructor, with nothing cached."""
    return surface_data.SurfaceData(data.spec, data.matrix, data.vector)


def carry_unimodular(rng, n):
    """A U of 1 to 3 transvections, a dense U, or a U with a diagonal
    entry -1 or 0 inside J (a sign flip, or a rotation of two basis
    vectors), maybe with a row outside J reaching into it. Y = U^-1 X
    reduced mod the orders then often leaves K = U Y - X nonzero."""
    kind = rng.randrange(3)
    if kind == 0:
        return rand_unimodular(rng, n, ops=rng.randrange(1, 4))
    if kind == 1:
        return dense_unimodular(rng, n)
    U = identity_rows(n)
    i, j = rng.sample(range(n), 2)
    if rng.randrange(2):
        U[i][i] = -1
    else:
        U[i][i], U[i][j], U[j][i], U[j][j] = 0, -1, 1, 0
    k = rng.randrange(n)
    if k not in (i, j):
        U[k][i] = rng.choice((-2, 1, 3))
    return U


class TestCarriedPair:
    """lambda1, lambda2, lambda2_inverse and connect_sum carry the product
    pair (MX, M^T X) over Z from their sources' pairs, in place of forming
    it again for their output."""

    @staticmethod
    def pool(d6, d10, a4, c2_35, c6_93):
        """Fresh validated data over D10, A4, C2 x| (Z/3 x Z/5) and
        C6 x| (Z/9 x Z/3) (m = 6, unequal orders), each holding the pair
        its validation formed."""
        pool = [fresh_copy(d) for d in move_pool(d6, d10, a4, c2_35)
                if d.spec != d6]
        for M in (((-2, -3), (-2, -2)), ((-1, 0), (-1, 2))):
            found = surface_data.enumerate_colourings(M, c6_93)
            pool += [surface_data.SurfaceData(c6_93, M, V)
                     for V in found[::6]]
        for data in pool:
            assert surface_data.validate(data).valid
            assert "_products" in vars(data)
        return pool

    def test_exact_over_move_chains(self, d6, d10, a4, c2_35, c6_93):
        """After every move of a random chain the carried pair equals a
        fresh (MX, M^T X), the output still validates, and its Gram
        matrix equals X^T (MX); the pair and G come from the index-loop
        oracle slow_mat_mul, not from the column dot products of
        _product_pair and SurfaceData._gram. The output holds a carried G
        exactly when its sources' G were formed (both, for connect_sum),
        and the check reads that slot. A pool datum's G is formed only
        when it is picked as a connect_sum partner, half the time, and
        the check forms each output's, so both are seen. lambda1 draws the
        U of carry_unimodular, and K = U Y - X (so R = -U^-1 K) is seen
        both zero and nonzero, nonzero also with G carried; lambda2 runs
        in both variants, lambda2_inverse right after it, and connect_sum
        with a pool datum on either side."""
        pool = self.pool(d6, d10, a4, c2_35, c6_93)
        seen = set()

        @settings(deadline=None, max_examples=150, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            data = rng.choice(pool)
            stabilised = False
            for _ in range(rng.randrange(1, 7)):
                kind = rng.randrange(5 if stabilised else 4)
                had = "_gram" in vars(data)
                if kind == 0:
                    U = carry_unimodular(rng, data.size)
                    moved = surface_data.lambda1(data, U)
                    UY = map(tuple, mat_mul(U, moved._coords))
                    K = any(map(ne, UY, data._coords))
                    seen.add(("K != 0", K))
                    if K and had:
                        seen.add("K != 0, G carried")
                elif kind in (1, 2):
                    c = [rng.randrange(-3, 4) for _ in range(data.size)]
                    moved = surface_data.lambda2(data, c, kind)
                elif kind == 3:
                    other = rng.choice([d for d in pool
                                        if d.spec == data.spec])
                    if rng.randrange(2):
                        other._gram
                    pair = (data, other) if rng.randrange(2) else \
                        (other, data)
                    moved = surface_data.connect_sum(*pair)
                    had = "_gram" in vars(data) and "_gram" in vars(other)
                    seen.add(("sum", had))
                else:
                    moved = surface_data.lambda2_inverse(data)
                assert "_products" in vars(moved)
                assert ("_gram" in vars(moved)) == had
                seen.add(("G carried", had))
                M, X = moved.matrix, moved._coords
                assert moved._products == tuple(
                    tuple(map(tuple, slow_mat_mul(P, X)))
                    for P in (M, transpose(M)))
                assert surface_data.validate(moved).valid
                assert moved._gram == tuple(map(tuple, slow_mat_mul(
                    transpose(X), slow_mat_mul(M, X))))
                seen.update((kind, moved.spec))
                data, stabilised = moved, kind in (1, 2)

        check()
        assert seen == {0, 1, 2, 3, 4, d10, a4, c2_35, c6_93,
                        ("K != 0", False), ("K != 0", True),
                        "K != 0, G carried", ("G carried", False),
                        ("G carried", True), ("sum", False), ("sum", True)}

    def test_gram_formed_once_per_chain(self, d6, d10, a4, c2_35, c6_93,
                                        monkeypatch):
        """validate, su, cu (at m <= 3) and vector_class on every datum
        of a move chain form G (run the SurfaceData._gram body) only for
        the chain's first datum: each move carries it from its source,
        connect_sum with the first datum itself as the partner."""
        pool = self.pool(d6, d10, a4, c2_35, c6_93)
        grams = []
        body = surface_data.SurfaceData._gram.func
        gram = cached_property(lambda d: grams.append(d) or body(d))
        gram.__set_name__(surface_data.SurfaceData, "_gram")
        monkeypatch.setattr(surface_data.SurfaceData, "_gram", gram)

        def read(data):
            assert surface_data.validate(data).valid
            invariants.su(data)
            invariants.vector_class(data)
            if data.spec.m <= 3:
                invariants.cu(data)

        rng = random.Random(42)
        seen = set()
        for base in pool:
            head = fresh_copy(base)
            grams.clear()
            read(head)
            for kind, data in move_chain(rng, [head], 6):
                read(data)
                seen.add(kind)
            assert grams == [head]
        assert seen == {"lambda1", "lambda2", "connect_sum",
                        "lambda2_inverse"}

    def test_pair_formed_once_per_chain(self, d6, d10, a4, c2_35, c6_93,
                                        monkeypatch):
        """Counted as test_products_only_at_samples counts them: a chain
        of moves from a validated base, each output validated and paired
        by su and vector_class, forms the pair once, for the base. From a
        bare base (nothing cached), apply_moves, lambda2, lambda2_inverse
        and connect_sum also form it once, for the base, and every output
        holds the exact pair."""
        pool = self.pool(d6, d10, a4, c2_35, c6_93)
        pair = surface_data._product_pair
        calls = []
        monkeypatch.setattr(surface_data, "_product_pair",
                            lambda M, X: calls.append(M) or pair(M, X))
        rng = random.Random(24)
        for base in pool:
            calls.clear()
            data = fresh_copy(base)
            assert surface_data.validate(data).valid
            moves = []
            for _ in range(6):
                if rng.randrange(2):
                    moves.append(("lambda1",
                                  carry_unimodular(rng, data.size)))
                    data = surface_data.lambda1(data, moves[-1][1])
                else:
                    moves.append(("lambda2", [rng.randrange(-3, 4) for _ in
                                              range(data.size)],
                                  rng.choice((1, 2))))
                    data = surface_data.lambda2(data, *moves[-1][1:])
                assert surface_data.validate(data).valid
                invariants.su(data)
                invariants.vector_class(data)
            assert calls == [base.matrix]
            calls.clear()
            bare = fresh_copy(base)
            replayed = surface_data.apply_moves(bare, moves)
            assert replayed == data
            stabilised = surface_data.lambda2(bare, [1] * bare.size, 2)
            outs = (replayed, stabilised,
                    surface_data.lambda2_inverse(stabilised),
                    surface_data.connect_sum(data, bare),
                    surface_data.connect_sum(bare, data))
            assert calls == [base.matrix]
            for out in outs:
                assert vars(out)["_products"] == pair(out.matrix,
                                                      out._coords)

    def test_lambda1_residue_at_walk_sizes(self, d10, a4):
        """At sizes 20 to 40 over D10 (rank 1) and A4 (rank 2), a
        one-transvection and a dense U each give lambda1 an output whose
        carried pair equals slow_mat_mul of its matrix and coordinates.
        The residue R = U^-1 X - Y over Z, Y the output's rows, is seen
        both zero and nonzero."""
        bases = (surface_data.make_data(d10, FIG8_L, [(1,), (3,)]),
                 surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)]))
        rng = random.Random(29)
        seen = set()
        for seed, base in enumerate(bases):
            for size in (20, 30, 40):
                data = grown(base, size, seed)
                n = data.size
                U = identity_rows(n)
                i, j = rng.sample(range(n), 2)
                U[i][j] = rng.choice((-2, -1, 1, 2))
                for U in (U, dense_unimodular(rng, n)):
                    moved = surface_data.lambda1(data, U)
                    M, Y = moved.matrix, moved._coords
                    assert moved._products == tuple(
                        tuple(map(tuple, slow_mat_mul(P, Y)))
                        for P in (M, transpose(M)))
                    E = slow_mat_mul(slow_inverse_unimodular(U),
                                     data._coords)
                    seen.add(any(map(ne, map(tuple, E), Y)))
        assert seen == {False, True}

    def test_m6_divisibility_failure(self, c6_93_lifted):
        """On moved C6 x| (Z/9 x Z/3) data, cu reads the carried pair and
        raises the DivisibilityFailure, message included, of the same
        datum built fresh."""
        M = ((-2, -3), (-4, -2))
        rng = random.Random(6)
        for V in surface_data.enumerate_colourings(M, c6_93_lifted):
            data = surface_data.SurfaceData(c6_93_lifted, M, V)
            assert surface_data.validate(data).valid
            for _ in range(3):
                data = random_move(rng, data)
            assert "_products" in vars(data)
            got = outcome(invariants.cu, data)
            assert got[0] is DivisibilityFailure
            assert got == outcome(invariants.cu, fresh_copy(data))


class TestNotData:
    """Every public function that takes surface data raises BadParameters
    on anything else, and so do structured_lift on a non-spec and
    canonical_vector on a non-class."""

    @pytest.mark.parametrize("call", [
        surface_data.validate,
        invariants.su,
        invariants.cu,
        invariants.vector_class,
        lambda d: surface_data.lambda1(d, ((1, 0), (0, 1))),
        lambda d: surface_data.lambda2(d, (0, 0), 1),
        surface_data.lambda2_inverse,
        lambda d: surface_data.connect_sum(d, d),
        lambda d: surface_data.apply_moves(d, []),
        lambda d: surface_data.shorten_vector(d, []),
        surface_data.data_to_json,
        classify.a4_class,
    ], ids=["validate", "su", "cu", "vector_class", "lambda1", "lambda2",
            "lambda2_inverse", "connect_sum", "apply_moves",
            "shorten_vector", "data_to_json", "a4_class"])
    @pytest.mark.parametrize("junk", [5, None, ((1, 0), (0, 1))],
                             ids=["int", "none", "matrix"])
    def test_rejects_non_data(self, call, junk):
        with pytest.raises(BadParameters, match="expected a SurfaceData"):
            call(junk)

    def test_connect_sum_checks_both(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        for args in ((data, 5), (5, data)):
            with pytest.raises(BadParameters, match="expected a SurfaceData"):
                surface_data.connect_sum(*args)

    @pytest.mark.parametrize("junk", [5, (3,), None])
    def test_structured_lift_rejects_non_spec(self, junk):
        with pytest.raises(BadParameters, match="expected a GroupSpec"):
            invariants.structured_lift(junk)

    def test_canonical_vector_rejects_non_class(self, d6):
        for junk in (5, abelian.element(d6, (1,)),
                     wedge3_zero(abelian.unsafe_spec((3, 3, 3)))):
            with pytest.raises(BadParameters, match="expected a WedgeElement2"):
                surface_data.canonical_vector(junk)

class TestVectorTransport:
    def test_matches_group_element_loop(self, d6, d10, d14, c3z7, c4z5, a4,
                                        c2_33, c2_35, c3_55, c7_222, z46,
                                        z333):
        """The vector parts of lambda1 and lambda2, integer matrices on the
        coordinate rows, equal the GroupElement loop over every fixture
        group, mixed orders and rank 3 included: U^-1 V for a transvection
        U with a negative or large multiplier, and lambda2's appended
        entries for c with negative, large and zero entries, on empty
        vectors too."""
        specs = (d6, d10, d14, c3z7, c4z5, a4, c2_33, c2_35, c3_55, c7_222,
                 z46, z333)
        seen = set()

        @settings(deadline=None, max_examples=40, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            for spec in specs:
                size = 2 * rng.randrange(3)
                data = surface_data.make_data(
                    spec, surface_data.standard_matrix(size // 2),
                    [[rng.randrange(n) for n in spec.orders]
                     for _ in range(size)])
                bound = rng.choice((3, 10 ** 12))
                c = [rng.randrange(-bound, bound + 1)
                     if rng.random() < 0.8 else 0 for _ in range(size)]
                variant = rng.choice((1, 2))
                (acc,) = slow_mat_apply((c,), data.vector, spec)
                y = abelian.sub(acc, abelian.act_pow(acc, -1)) \
                    if variant == 1 else abelian.sub(abelian.act(acc), acc)
                assert surface_data.lambda2(data, c, variant).vector == \
                    data.vector + (abelian.zero(spec), y)
                U = [[int(i == j) for j in range(size)] for i in range(size)]
                if size:
                    i, j = rng.sample(range(size), 2)
                    U[i][j] = rng.randrange(-bound, bound + 1)
                assert surface_data.lambda1(data, U).vector == \
                    slow_mat_apply(slow_inverse_unimodular(U), data.vector,
                                   spec)
                seen.update("zero" for x in c if x == 0)
                seen.update("large" if x < -3 else "negative"
                            for row in (c, *U) for x in row if x < 0)
                if not size:
                    seen.add("empty")

        check()
        assert seen == {"zero", "negative", "large", "empty"}


class TestEnumerate:
    def test_d6_trefoil_frozen(self, d6):
        found = surface_data.enumerate_colourings(TREFOIL_L, d6)
        assert [[v.coords for v in vec] for vec in found] == \
            [[(1,), (2,)], [(2,), (1,)]]

    def test_d10_fig8_frozen(self, d10):
        found = surface_data.enumerate_colourings(FIG8_L, d10)
        assert [[v.coords for v in vec] for vec in found] == \
            [[(1,), (3,)], [(2,), (1,)], [(3,), (4,)], [(4,), (2,)]]

    def test_a4_trefoil_frozen(self, a4):
        found = surface_data.enumerate_colourings(TREFOIL_L, a4)
        assert [[v.coords for v in vec] for vec in found] == \
            [[(0, 1), (1, 1)], [(1, 0), (0, 1)], [(1, 1), (1, 0)]]

    def test_empty_cases(self, d6, d10):
        assert surface_data.enumerate_colourings(FIG8_L, d6) == []
        assert surface_data.enumerate_colourings(TREFOIL_L, d10) == []

    def test_budget(self, d6):
        with pytest.raises(BudgetExceeded):
            surface_data.enumerate_colourings(TREFOIL_L, d6, budget=2)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_rejects_untyped_budget(self, d6, budget):
        with pytest.raises(BadParameters, match="budget must be an integer"):
            surface_data.enumerate_colourings(TREFOIL_L, d6, budget=budget)

    def test_budget_bounds_solutions(self, d6):
        # M^T V = M (t.V) has 3 solutions over D6, of which 2 generate
        found = surface_data.enumerate_colourings(TREFOIL_L, d6, budget=3)
        assert len(found) == 2

    def test_matches_brute_force(self, d6, d10, a4, c2_33, c3_55):
        """Random Seifert matrices U^T M U of genus 1 and 2 agree with the
        brute-force search over every vector, order included. The action
        of C3(Z5)^2 is not symmetric, so it tells N from N^T; its base
        ((7, -2), (-1, 7)) has colourings, kept by noise divisible by 5."""
        specs = ((d6, 2, None), (d10, 2, None), (a4, 2, None),
                 (c2_33, 1, None), (c3_55, 1, ((7, -2), (-1, 7))))
        seen = set()

        @settings(deadline=None, max_examples=40, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            M, spec = random_seifert(random.Random(seed), specs)
            got = [tuple(v.coords for v in vec)
                   for vec in surface_data.enumerate_colourings(M, spec)]
            assert got == brute_force(M, spec), (M, spec)
            seen.add(bool(got))

        check()
        assert seen == {True, False}

    def test_matches_validate_filter(self, d6, d10, a4, c2_33, c3_55,
                                     c7_222):
        """Keeping kernel solutions by generation alone gives exactly the
        solutions the full validate keeps, in order; C7(Z2)^3 adds data
        whose genus may be too small for A."""
        specs = ((d6, 2, None), (d10, 2, None), (a4, 2, None),
                 (c2_33, 1, None), (c3_55, 1, ((7, -2), (-1, 7))),
                 (c7_222, 2, None))
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            M, spec = random_seifert(random.Random(seed), specs)
            negM = [[-x for x in row] for row in M]
            kernel = [surface_data.make_data(spec, M, rows).vector
                      for rows in abelian.linear_kernel(
                          transpose(M), negM, spec, 10 ** 7)]
            want = [V for V in kernel if surface_data.validate(
                surface_data.SurfaceData(spec, M, V)).valid]
            assert surface_data.enumerate_colourings(M, spec) == want
            seen.add(bool(want))

        check()
        assert seen == {True, False}

    def test_genus_too_small(self, c7_222, z333):
        # a 2x2 matrix cannot carry generators of a rank-3 group; over
        # C7(Z2)^3 the trefoil's only solution is zero, over (Z3)^3 it
        # has 27, none generating
        for spec, count in ((c7_222, 1), (z333, 27)):
            negM = [[-x for x in row] for row in TREFOIL_L]
            kernel = [surface_data.make_data(spec, TREFOIL_L, rows)
                      for rows in abelian.linear_kernel(
                          transpose(TREFOIL_L), negM, spec, 10 ** 7)]
            assert len(kernel) == count
            assert surface_data.enumerate_colourings(TREFOIL_L, spec) == []

    def test_checks_matrix(self, d6):
        with pytest.raises(BadParameters):
            surface_data.enumerate_colourings(((1, 0), (0, 1)), d6)

    def test_rejects_missing_spec(self):
        with pytest.raises(BadParameters, match="expected a GroupSpec"):
            surface_data.enumerate_colourings(TREFOIL_L, None)

    def test_one_element_per_row_and_no_smith(self, c2_33):
        """c6_g1 # 3_1^l over C2(Z3)^2, the benchmark's largest kept set:
        624 colourings repr-equal to the brute-force search, built from one
        GroupElement per distinct coordinate row (9 of them, not 2,496)
        and without a Smith form."""
        M = ((3, 1, 0, 0), (2, 3, 0, 0), (0, 0, -1, 1), (0, 0, 0, -1))
        want = repr([tuple(abelian.GroupElement(c2_33, x) for x in V)
                     for V in brute_force(M, c2_33)])
        with construction_spy() as (built, smith_calls):
            found = surface_data.enumerate_colourings(M, c2_33)
        assert len(found) == 624 and repr(found) == want
        assert sorted(built) == sorted({x.coords for V in found for x in V})
        assert len(built) == 9 and smith_calls == []


def dense_formula(data, U):
    """(U^T M U, U^-1 V) by dense products and the Smith-form inverse."""
    M = mat_mul(mat_mul(transpose(U), data.matrix), U)
    V = slow_mat_apply(slow_inverse_unimodular(U), data.vector, data.spec)
    return tuple(tuple(r) for r in M), V


def walk_datum(data, size, rng):
    """data grown to at least size as a walk grows it: one transvection
    with t = +-1, then a stabilisation with c = +-1 at two entries, in
    either variant."""
    while data.size < size:
        n = data.size
        U = identity_rows(n)
        i, j = rng.sample(range(n), 2)
        U[i][j] = rng.choice((-1, 1))
        data = surface_data.lambda1(data, U)
        c = [0] * n
        for i in rng.sample(range(n), 2):
            c[i] = rng.choice((-1, 1))
        data = surface_data.lambda2(data, c, rng.choice((1, 2)))
    return data


class TestLambda1:
    def test_transforms(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        U = ((1, 1), (0, 1))
        moved = surface_data.lambda1(data, U)
        assert moved.matrix == ((-1, 0), (-1, -1))
        # U^-1 V: first entry v1 - v2
        assert [v.coords for v in moved.vector] == [(2,), (2,)]
        assert surface_data.validate(moved).valid

    def test_identity(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        moved = surface_data.lambda1(data, ((1, 0), (0, 1)))
        assert moved == data

    def test_rejects_non_unimodular(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(NotUnimodular):
            surface_data.lambda1(data, ((2, 0), (0, 1)))

    def test_rejects_wrong_size(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(BadParameters):
            surface_data.lambda1(data, ((1,),))

    def test_matches_dense_formula(self, d6, d10, a4, c2_35):
        """lambda1 equals the dense (U^T M) U with the Smith-form inverse
        on V, on move-chain data stabilised up to genus 20, for sparse
        (1 to 3 transvections) and dense U, and on the 0x0 datum."""
        pool = move_pool(d6, d10, a4, c2_35)
        empty = surface_data.make_data(d6, (), [])
        moved = surface_data.lambda1(empty, ())
        assert (moved.matrix, moved.vector) == dense_formula(empty, ())

        @settings(deadline=None, max_examples=30, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            chain = move_chain(rng, pool, rng.randrange(4))
            data = chain[-1][1] if chain else rng.choice(pool)
            genus = rng.randrange(1, 21)
            while data.genus < genus:
                c = [rng.randrange(-2, 3) for _ in range(data.size)]
                data = surface_data.lambda2(data, c, rng.choice((1, 2)))
            n = data.size
            for U in (rand_unimodular(rng, n, ops=rng.randrange(1, 4)),
                      dense_unimodular(rng, n)):
                moved = surface_data.lambda1(data, U)
                assert (moved.matrix, moved.vector) == dense_formula(data, U)

        check()

    def test_transvection_carries_rows(self, d10, a4, monkeypatch):
        """One transvection U = I + t e_i e_j^T on size-40 walk data:
        lambda1 transposes nothing, every row of the output equal to the
        source's row is that same object, and the output is the dense
        formula's. Row j comes back as it was when row i of M is zero,
        which a variant-1 stabilisation leaves; both cases are seen."""
        transposed = []

        def spy(A):
            transposed.append(A)
            return transpose(A)

        monkeypatch.setattr(_intlin, "transpose", spy)
        monkeypatch.setattr(surface_data, "transpose", spy)
        rng = random.Random(37)
        seen = set()
        for base in (surface_data.make_data(d10, FIG8_L, [(1,), (3,)]),
                     surface_data.make_data(a4, TREFOIL_L,
                                            [(0, 1), (1, 1)])):
            data = walk_datum(base, 40, rng)
            M, n = data.matrix, data.size
            zero = [i for i, row in enumerate(M) if not any(row)]
            for trial in range(10):
                i, j = rng.sample(range(n), 2)
                if trial % 2 and zero:
                    i = rng.choice(zero)
                    j = rng.choice([k for k in range(n) if k != i])
                U = identity_rows(n)
                U[i][j] = rng.choice((-1, 1))
                moved = surface_data.lambda1(data, U)
                assert transposed == []
                for new, old in zip(moved.matrix, M):
                    assert new is old or new != old
                seen.add(moved.matrix[j] is M[j])
                # the oracle's names were bound before the spy went in
                assert (moved.matrix, moved.vector) == dense_formula(data, U)
        assert seen == {False, True}


def grown(data, size, seed):
    """data stabilised by seeded lambda2 moves up to at least size."""
    rng = random.Random(seed)
    while data.size < size:
        c = [rng.randrange(-2, 3) for _ in range(data.size)]
        data = surface_data.lambda2(data, c, rng.choice((1, 2)))
    return data


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


class TestLambda1Split:
    """lambda1 inverts only the block U_JJ, J the columns where U differs
    from the identity; checked against the dense (U^T M) U and the
    Smith-form inverse, with equal repr."""

    @pytest.fixture
    def pool(self, d10, a4):
        bases = (surface_data.make_data(d10, FIG8_L, [(1,), (3,)]),
                 surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)]))
        return [grown(base, size, seed) for seed, base in enumerate(bases)
                for size in (2, 12, 40)]

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The size of every block lambda1 passes to inverse_unimodular."""
        sizes = []

        def spy(A):
            sizes.append(len(A))
            return inverse_unimodular(A)

        monkeypatch.setattr(surface_data, "inverse_unimodular", spy)
        return sizes

    @staticmethod
    def check(data, U):
        moved = surface_data.lambda1(data, U)
        M = mat_mul(mat_mul(transpose(U), data.matrix), U)
        V = slow_mat_apply(slow_inverse_unimodular(U), data.vector, data.spec)
        want = surface_data.SurfaceData(data.spec, M, V)
        assert moved == want
        assert repr(moved) == repr(want)
        assert surface_data.validate(moved).valid
        return moved

    def test_identity(self, pool, blocks):
        for data in pool:
            assert self.check(data, identity_rows(data.size)) == data
        assert set(blocks) == {0}

    def test_signed_diagonal(self, pool, blocks):
        rng = random.Random(1)
        for data in pool:
            U = identity_rows(data.size)
            flips = rng.sample(range(data.size), data.size // 2 or 1)
            for i in flips:
                U[i][i] = -1
            self.check(data, U)
            assert blocks[-1] == len(flips)

    def test_column_permutation(self, pool, blocks):
        rng = random.Random(2)
        for data in pool:
            n = data.size
            perm = list(range(n))
            rng.shuffle(perm)
            self.check(data, [[int(perm[i] == j) for j in range(n)]
                              for i in range(n)])
            assert blocks[-1] == sum(perm[i] != i for i in range(n))

    def test_outside_rows_reach_into_j(self, pool, blocks):
        """Rows outside J carry entries in the columns of J, so
        Y_i = X_i - sum_j U_ij Y_j runs with a nontrivial U_JJ^-1."""
        rng = random.Random(3)
        for data in pool[1:3] + pool[4:]:
            n = data.size
            J = sorted(rng.sample(range(n), 2))
            U = identity_rows(n)
            (a, b), (c, d) = (2, 1), (1, 1)  # det 1
            U[J[0]][J[0]], U[J[0]][J[1]] = a, b
            U[J[1]][J[0]], U[J[1]][J[1]] = c, d
            for i in set(range(n)) - set(J):
                if rng.random() < 0.5:
                    U[i][rng.choice(J)] = rng.choice((-3, -1, 2, 5))
            self.check(data, U)
            assert blocks[-1] == 2

    def test_dense(self, pool, blocks):
        rng = random.Random(4)
        for data in pool:
            U = dense_unimodular(rng, data.size)
            self.check(data, U)
            assert blocks[-1] == sum(
                any(U[i][j] != (i == j) for i in range(data.size))
                for j in range(data.size))

    def test_empty(self, d6, blocks):
        empty = surface_data.make_data(d6, (), [])
        moved = surface_data.lambda1(empty, ())
        assert moved == empty and repr(moved) == repr(empty)
        assert blocks == [0]

    @pytest.mark.parametrize("kind", ["zero_column", "two_in_block",
                                      "singular_block"])
    def test_not_unimodular_message(self, pool, kind):
        """The message names the Smith diagonal of the whole U, as the
        full inverse did, not that of U_JJ."""
        data = pool[2]
        assert data.size == 40
        U = identity_rows(40)
        U[3][17] = -1
        if kind == "zero_column":
            for row in U:
                row[8] = 0
            want = [1] * 39 + [0]
        elif kind == "two_in_block":
            U[17][17] = 2
            want = [1] * 39 + [2]
        else:
            U[17][3], U[3][3], U[17][17] = 1, 1, -1  # columns 3, 17 equal
            want = [1] * 39 + [0]
        with pytest.raises(NotUnimodular) as oracle:
            slow_inverse_unimodular(U)
        with pytest.raises(NotUnimodular) as err:
            surface_data.lambda1(data, U)
        assert str(err.value) == str(oracle.value) == \
            f"Smith diagonal {want}, expected all 1"

    def test_one_transvection_inverts_one_entry(self, pool, blocks):
        """Regression guard for the split: a single transvection at size
        40 inverts a 1x1 block, not the whole U."""
        data = pool[2]
        U = identity_rows(40)
        U[3][17] = -1
        self.check(data, U)
        assert blocks == [1]


class TestLambda2:
    def test_variant2_frozen(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        st2 = surface_data.lambda2(data, (1, 0), 2)
        assert st2.matrix == ((-1, 1, 1, 0), (0, -1, 0, 0),
                              (1, 0, 0, 0), (0, 0, 1, 0))
        assert [v.coords for v in st2.vector] == [(1,), (2,), (0,), (1,)]
        assert surface_data.validate(st2).valid

    def test_variant1(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        st1 = surface_data.lambda2(data, (2, 1), 1)
        assert st1.matrix == ((-1, 1, 2, 0), (0, -1, 1, 0),
                              (2, 1, 0, -1), (0, 0, 0, 0))
        assert surface_data.validate(st1).valid

    def test_round_trips(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        for variant in (1, 2):
            st_ = surface_data.lambda2(data, (2, -1), variant)
            assert surface_data.lambda2_inverse(st_) == data

    def test_bad_arguments(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(BadParameters):
            surface_data.lambda2(data, (1,), 2)
        with pytest.raises(BadParameters):
            surface_data.lambda2(data, (1, 0), 3)

    @pytest.mark.parametrize("variant", [True, 1.0, "1", None])
    def test_rejects_non_integer_variant(self, d6, variant):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(BadParameters):
            surface_data.lambda2(data, (1, 0), variant)

    @pytest.mark.parametrize("c", [(1.7, True), (1, True), (1, 0.0),
                                   ("1", 0)])
    def test_rejects_non_integer_c(self, d6, c):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(BadParameters):
            surface_data.lambda2(data, c, 2)

    def test_chain_forms_one_power(self):
        """A chain of lambda2 moves over one spec forms N^(m-1) at most
        once, as it is held on the spec. Each move appends the rows
        (0; y) of the definition, y = a - N^(m-1) a (variant 1) or
        N a - a (variant 2) with a = sum c_i x_i, here from the
        repeated-product power, and keeps the datum valid and its
        invariants."""
        # a fresh spec, C3 x| (Z/5)^2, so nothing is cached on it yet
        t = classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 4)))
        spec, data = t.group, t.entries[0].data
        N, orders = spec.action, spec.orders
        inverse = slow_mat_pow(N, spec.m - 1)
        want = invariant_triple(data)
        powers, real = [], _intlin.mat_pow
        rng = random.Random(38)
        with pytest.MonkeyPatch.context() as mp:
            # _intlin.mat_pow recurses through its own binding; count the
            # calls from the modules that imported it by name
            for module in (abelian, surface_data, invariants):
                if getattr(module, "mat_pow", None) is real:
                    mp.setattr(module, "mat_pow",
                               lambda A, k, mods: powers.append(k) or
                               real(A, k, mods))
            for step in range(12):
                variant = 1 + step % 2
                c = [rng.randrange(-3, 4) for _ in range(data.size)]
                moved = surface_data.lambda2(data, c, variant)
                a = [sum(ci * x[j] for ci, x in zip(c, data._coords))
                     for j in range(spec.rank)]
                P = inverse if variant == 1 else N
                b = [sum(p * x for p, x in zip(row, a)) for row in P]
                y = [u - v for u, v in zip(a, b)] if variant == 1 else \
                    [v - u for u, v in zip(a, b)]
                assert moved._coords == data._coords + (
                    (0,) * spec.rank, tuple(map(mod, y, orders)))
                assert surface_data.validate(moved).valid
                data = moved
        assert len(powers) <= 1
        assert invariant_triple(data) == want

    def test_inverse_pattern_mismatch(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(PatternMismatch):
            surface_data.lambda2_inverse(data)
        st2 = surface_data.lambda2(data, (1, 0), 2)
        tampered = surface_data.SurfaceData(
            d6, st2.matrix, st2.vector[:3] + (abelian.element(d6, (2,)),))
        with pytest.raises(PatternMismatch):
            surface_data.lambda2_inverse(tampered)

    @pytest.mark.parametrize("M, message", [
        (((-1, 1, 1, 0), (0, -1, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0)),
         "penultimate row/column are not symmetric"),
        (((-1, 1, 0, 1), (0, -1, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0)),
         "last row/column must vanish off the corner"),
    ])
    def test_inverse_rejects_unstabilized_shape(self, d6, M, message):
        """Seifert matrices (det(M - M^T) = 1) whose last two rows and
        columns break the stabilized shape before the corner is read."""
        data = surface_data.make_data(d6, M, [(1,), (2,), (0,), (0,)])
        with pytest.raises(PatternMismatch, match=f"^{message}$"):
            surface_data.lambda2_inverse(data)

    def test_inverse_needs_room(self, d6):
        with pytest.raises(PatternMismatch):
            surface_data.lambda2_inverse(surface_data.make_data(d6, (), []))


class TestSymplecticReduce:
    def test_trefoil_frozen(self):
        assert surface_data.symplectic_reduce(TREFOIL_L) == ((0, 1), (1, 0))

    def test_standard_forms_identity(self):
        for g in (1, 2, 3):
            M = surface_data.standard_matrix(g)
            assert surface_data.symplectic_reduce(M) == \
                tuple(tuple(1 if i == j else 0 for j in range(2 * g))
                      for i in range(2 * g))

    @settings(deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_congruence(self, seed):
        rng = random.Random(seed)
        g = rng.choice((1, 2))
        base = [list(r) for r in surface_data.standard_matrix(g)]
        for i in range(2 * g):
            for j in range(2 * g):
                if rng.random() < 0.5:
                    sym = rng.randrange(-2, 3)
                    base[i][j] += sym
                    base[j][i] += sym
        U = rand_unimodular(rng, 2 * g)
        from knotcolour._intlin import mat_mul, transpose
        M = mat_mul(mat_mul(transpose(U), base), U)
        P = surface_data.symplectic_reduce(M)
        S = [[M[i][j] - M[j][i] for j in range(2 * g)] for i in range(2 * g)]
        got = mat_mul(mat_mul(transpose(P), S), P)
        want = [[0] * (2 * g) for _ in range(2 * g)]
        for b in range(g):
            want[2 * b][2 * b + 1] = -1
            want[2 * b + 1][2 * b] = 1
        assert got == want

    def test_rejects_degenerate(self):
        with pytest.raises(NotSymplecticable):
            surface_data.symplectic_reduce(((0, 2), (0, 0)))

    @pytest.mark.parametrize("matrix", [
        ((1,),), ((0, 1, 0), (0, 0, 0), (0, 0, 0)),      # odd size
        ((1, 0), (0, 1)), ((2, 3), (3, 2)),               # det 0
        ((1, 1), (-1, 1)), ((0, 1), (-1, 0))])            # det 4
    def test_rejects_non_seifert(self, matrix):
        with pytest.raises(NotSymplecticable):
            surface_data.symplectic_reduce(matrix)


class TestMoveOutputs:
    def test_carry_seifert_condition(self, d6, d10, a4, c2_35):
        """Move outputs skip the determinant check; every output of a
        random chain still has det(M - M^T) = 1, int rows, and equals the
        datum that public construction builds from its fields."""
        pool = move_pool(d6, d10, a4, c2_35)
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            for move, out in move_chain(rng, pool, rng.randrange(7)):
                M, size = out.matrix, out.size
                assert type(M) is tuple
                assert all(type(row) is tuple and len(row) == size
                           and all(type(x) is int for x in row) for row in M)
                S = [[M[i][j] - M[j][i] for j in range(size)]
                     for i in range(size)]
                assert det(S) == 1
                fresh = surface_data.SurfaceData(out.spec, M, out.vector)
                assert fresh == out and out == fresh
                assert hash(fresh) == hash(out)
                assert surface_data.data_to_json(fresh) == \
                    surface_data.data_to_json(out)
                assert surface_data.validate(out) == \
                    surface_data.validate(fresh)
                seen.add(move)

        check()
        assert seen == {"lambda1", "lambda2", "lambda2_inverse",
                        "connect_sum"}


class TestStoredRows:
    """A datum stores its vector as reduced coordinate rows; .vector,
    repr, ==, hash and the JSON form are its public face."""

    FROZEN_DIGEST = (
        "af1d68cc2c46012df755c7f532f80ac785ab595dd9d58ad26ef7bd2eac67074b")

    def test_public_face(self, d6, d10, a4, c2_35, c3_55):
        """repr of a seeded chain's outputs and of two tables hashes to
        the value the GroupElement-stored datum gave; every output equals,
        hashes and serialises like its rebuild through the public
        constructor, and .vector holds elements over the datum's spec."""
        pool = move_pool(d6, d10, a4, c2_35) + odd_pool(c3_55)
        rng = random.Random(14)
        h = hashlib.sha256()
        for _ in range(12):
            for _, out in move_chain(rng, pool, 6):
                h.update(repr(out).encode())
                assert all(type(v) is abelian.GroupElement
                           and v.spec == out.spec for v in out.vector)
                fresh = surface_data.SurfaceData(out.spec, out.matrix,
                                                 out.vector)
                assert fresh == out and hash(fresh) == hash(out)
                assert surface_data.data_to_json(fresh) == \
                    surface_data.data_to_json(out)
        for t in (classify.metacyclic_table(2, 5, 4),
                  classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 4)))):
            h.update(repr(t).encode())
        assert h.hexdigest() == self.FROZEN_DIGEST

    def test_inverse_round_trip(self, d6, d10, d14, c3z7, c4z5, a4, c2_33,
                                c2_35, c3_55, c7_222, z46, z333):
        """lambda2_inverse undoes lambda2 on every fixture group, m = 3,
        4, 7 and mixed orders included, for c with negative and 10^12
        entries: the appended rows are reduced, so the inverse compares
        them with its own recomputation and the JSON form stays in range.
        """
        specs = (d6, d10, d14, c3z7, c4z5, a4, c2_33, c2_35, c3_55, c7_222,
                 z46, z333)
        rng = random.Random(7)
        for spec in specs:
            for variant in (1, 2):
                size = 2 * rng.randrange(1, 3)
                data = surface_data.make_data(
                    spec, surface_data.standard_matrix(size // 2),
                    [[rng.randrange(n) for n in spec.orders]
                     for _ in range(size)])
                c = [rng.choice((-1, 1)) * rng.randrange(10 ** 12)
                     for _ in range(size)]
                c[0] = -10 ** 12
                st_ = surface_data.lambda2(data, c, variant)
                assert surface_data.lambda2_inverse(st_) == data
                assert all(0 <= x < n for row in
                           surface_data.data_to_json(st_)["vector"]
                           for x, n in zip(row, spec.orders))

    @pytest.mark.parametrize("variant", [1, 2])
    def test_inverse_rejects_wrong_power(self, c3z7, c4z5, c3_55, variant):
        """Over m >= 3 groups t^-1 != t, so a tail built with t in place of
        t^-1 (variant 1) or t^-1 in place of t (variant 2) is no
        stabilization."""
        for spec in (c3z7, c4z5, c3_55):
            data = surface_data.make_data(
                spec, surface_data.standard_matrix(1),
                [(1,) * spec.rank, (0,) * spec.rank])
            st_ = surface_data.lambda2(data, (1, 0), variant)
            a = data.vector[0]
            y = abelian.sub(a, abelian.act(a)) if variant == 1 \
                else abelian.sub(abelian.act_pow(a, -1), a)
            assert y != st_.vector[-1]
            tampered = surface_data.SurfaceData(
                spec, st_.matrix, st_.vector[:-1] + (y,))
            with pytest.raises(PatternMismatch):
                surface_data.lambda2_inverse(tampered)

    def test_elements_only_at_the_boundary(self, d6, d10, a4, c2_35, c3_55,
                                           monkeypatch):
        """Moves, validate, vector_class, lambda2_inverse and data_to_json
        build no GroupElement; su and cu build only their return values."""
        pool = move_pool(d6, d10, a4, c2_35) + odd_pool(c3_55)
        built = []
        post_init = abelian.GroupElement.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(abelian.GroupElement, "__post_init__", counting)
        rng = random.Random(3)
        outputs = [out for _ in range(8)
                   for _, out in move_chain(rng, pool, 5)]
        assert not built
        for out in outputs:
            assert surface_data.validate(out).valid
            su, cu = invariants.su(out), invariants.cu(out)
            invariants.vector_class(out)
            stabilised = surface_data.lambda2(out, [1] * out.size, 1)
            assert surface_data.lambda2_inverse(stabilised) == out
            surface_data.data_to_json(out)
            assert built[-2] is su and built[-1] is cu
        assert len(built) == 2 * len(outputs)


class TestConnectSum:
    def test_blocks(self, d6):
        d1 = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        d2 = surface_data.make_data(d6, TREFOIL_L, [(2,), (1,)])
        s = surface_data.connect_sum(d1, d2)
        assert s.matrix == ((-1, 1, 0, 0), (0, -1, 0, 0),
                            (0, 0, -1, 1), (0, 0, 0, -1))
        assert [v.coords for v in s.vector] == [(1,), (2,), (2,), (1,)]
        assert surface_data.validate(s).valid

    def test_spec_mismatch(self, d6, d10):
        d1 = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        d2 = surface_data.make_data(d10, FIG8_L, [(1,), (3,)])
        with pytest.raises(GroupMismatch):
            surface_data.connect_sum(d1, d2)


class TestCanonicalVector:
    def test_a4_class_one(self, a4):
        w = abelian.WedgeElement2(a4, (1,))
        vec = surface_data.canonical_vector(w)
        assert [v.coords for v in vec] == \
            [(1, 0), (0, 1), (0, 0), (1, 0), (0, 0), (0, 1)]

    def test_zero_class_tail_only(self, a4):
        vec = surface_data.canonical_vector(wedge2_zero(a4))
        assert [v.coords for v in vec] == \
            [(0, 0), (1, 0), (0, 0), (0, 1)]


class TestShortenVector:
    def test_z2z2_example(self, a4):
        data = surface_data.make_data(a4, ((1, 0), (1, 1)), [(1, 1), (0, 1)])
        basis = [abelian.element(a4, (1, 0)), abelian.element(a4, (0, 1))]
        res = surface_data.shorten_vector(data, basis)
        lens = surface_data._word_lengths(a4, tuple(b.coords for b in basis))
        assert all(lens[v.coords] <= 1 for v in res.data.vector)
        assert surface_data.validate(res.data).valid
        assert surface_data.apply_moves(data, res.moves) == res.data
        assert invariants.su(data) == invariants.su(res.data)
        assert invariants.cu(data) == invariants.cu(res.data)
        assert invariants.vector_class(data) == \
            invariants.vector_class(res.data)

    def test_larger_example(self, c2_35):
        from knotcolour import classify
        t = classify.rank2_diag_table(2, 3, 5, 2, 4)
        data = t.entries[0].data
        basis = [abelian.element(c2_35, (1, 0)),
                 abelian.element(c2_35, (0, 1))]
        res = surface_data.shorten_vector(data, basis)
        lens = surface_data._word_lengths(
            c2_35, tuple(b.coords for b in basis))
        assert all(lens[v.coords] <= 1 for v in res.data.vector)
        assert invariants.su(data) == invariants.su(res.data)

    # per seed, each lambda2's c as (length, index, value) of its single
    # nonzero entry, and a digest of every move and result
    FROZEN_LAMBDA2 = {
        0: [(6, 0, 1), (8, 1, 1)], 1: [(4, 0, 3)], 2: [],
        3: [(8, 0, 3), (10, 0, 2)], 4: [(2, 0, 3)],
        5: [(8, 0, 1), (10, 1, 1)], 6: [], 7: [(4, 0, 1)],
        8: [(6, 0, 3), (8, 0, 2)], 9: [(10, 0, 2)], 10: [],
        11: [(8, 0, 2)], 12: [(8, 0, 2), (10, 2, 3), (12, 2, 3)], 13: [],
        14: [], 15: [(4, 0, 3), (6, 0, 2)], 16: [(4, 0, 1), (6, 1, 1)],
        17: [(8, 0, 1), (10, 0, 2), (12, 2, 3)], 18: [(4, 0, 3)], 19: [],
        20: [], 21: [(6, 0, 3), (8, 0, 3)], 22: [], 23: [(2, 0, 1)],
    }
    FROZEN_DIGEST = (
        "b2fccde1fa8c34078ed2ce78a35e8d351d58c054eb697ce1cabd6d615bffd1ff")

    def test_moves_frozen(self, d6, d10, a4, c2_35):
        """The recorded moves depend on solve_mod's particular solutions;
        pinned on pool data after seeded random moves, standard basis."""
        pool = move_pool(d6, d10, a4, c2_35)
        digest = hashlib.sha256()
        for seed, want in self.FROZEN_LAMBDA2.items():
            rng = random.Random(seed)
            data = rng.choice(pool)
            for _ in range(rng.randrange(1, 4)):
                data = random_move(rng, data)
            spec = data.spec
            basis = [abelian.element(spec, [int(i == j)
                                            for j in range(spec.rank)])
                     for i in range(spec.rank)]
            res = surface_data.shorten_vector(data, basis)
            assert [m[1] for m in res.moves if m[0] == "lambda2"] == [
                tuple(v * (j == i) for j in range(n)) for n, i, v in want]
            assert surface_data.apply_moves(data, res.moves) == res.data
            digest.update(repr((res.moves, res.data.matrix,
                                [v.coords for v in res.data.vector]))
                          .encode())
        assert digest.hexdigest() == self.FROZEN_DIGEST

    def test_non_generating_basis(self, a4):
        data = surface_data.make_data(a4, ((1, 0), (1, 1)), [(1, 1), (0, 1)])
        with pytest.raises(NonGenerating):
            surface_data.shorten_vector(data, [abelian.element(a4, (1, 0))])

    def test_foreign_basis(self, a4, d6):
        data = surface_data.make_data(a4, ((1, 0), (1, 1)), [(1, 1), (0, 1)])
        with pytest.raises(GroupMismatch):
            surface_data.shorten_vector(data, [abelian.element(d6, (1,))])

    def test_invalid_data(self, a4):
        data = surface_data.make_data(a4, ((1, 0), (1, 1)), [(0, 0), (0, 0)])
        basis = [abelian.element(a4, (1, 0)), abelian.element(a4, (0, 1))]
        with pytest.raises(InvalidData):
            surface_data.shorten_vector(data, basis)

    def test_budget_on_huge_group(self):
        n = 101 ** 3
        spec = abelian.make_group(2, (n,), ((n - 1,),))
        x = (-pow(2, -1, n)) % n
        a = pow(2, -2, n)
        data = surface_data.make_data(spec, ((a + n, 0), (1, 1)),
                                      [(1,), (x,)])
        assert surface_data.validate(data).valid
        with pytest.raises(BudgetExceeded):
            surface_data.shorten_vector(data, [abelian.element(spec, (1,))])

    def test_apply_moves_rejects_junk(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(BadParameters):
            surface_data.apply_moves(data, (("slide", 1),))


class TestJson:
    def test_round_trip(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        obj = surface_data.data_to_json(data)
        assert obj == {"group": {"m": 2, "orders": [3], "action": [[2]]},
                       "seifert": [[-1, 1], [0, -1]],
                       "vector": [[1], [2]]}
        assert surface_data.data_from_json(obj) == data
