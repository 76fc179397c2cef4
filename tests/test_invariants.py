import random
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import _intlin, abelian, classify, invariants, surface_data
from knotcolour._intlin import (
    inverse_unimodular, mat_mul, mat_vec, transpose)
from knotcolour.errors import (
    BadParameters,
    BudgetExceeded,
    DivisibilityFailure,
    FixedPoints,
    GroupMismatch,
    InvalidData,
    LiftFailure,
)
import util
from test_surface_data import random_seifert
from util import (
    TREFOIL_L, FIG8_L, dense_unimodular, fresh_spec, invariant_triple,
    lift_pool, linking_form_matrix, mat_mul_spy, move_chain, move_pool,
    odd_pool, outcome, rand_unimodular, random_group_spec, random_move,
    slow_cu, slow_hensel_lift, slow_mat_mul, slow_mat_pow,
    slow_structured_lift, slow_su, slow_validate, slow_vector_class)

FIXTURE_GROUPS = ("d6", "d10", "d14", "c3z7", "c4z5", "a4", "c2_33",
                  "c2_35", "c3_55", "c7_222", "z46", "z333")


class TestSu:
    def test_worked_example(self, d6):
        # metacyclic (2, 3, 2), k = 1
        data = surface_data.make_data(d6, ((4, 0), (1, 1)), [(1,), (1,)])
        assert invariants.su(data).coords == (1,)

    def test_metacyclic_families_frozen(self):
        frozen = {
            (2, 3, 2): [1, 0, 2],
            (2, 5, 4): [3, 4, 0, 1, 2],
            (2, 7, 6): [2, 5, 1, 4, 0, 3, 6],
            (3, 7, 2): [0, 0, 0, 0, 0, 0, 0],
        }
        for (m, n, xi), want in frozen.items():
            t = classify.metacyclic_table(m, n, xi)
            assert [e.su.coords[0] for e in t.entries] == want

    def test_rejects_invalid_data(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(0,), (0,)])
        with pytest.raises(InvalidData):
            invariants.su(data)

    def test_custom_lifts_agree(self, d10):
        """The oracle on lifts shifted by multiples of n gives su's value."""
        data = surface_data.make_data(d10, FIG8_L, [(1,), (3,)])
        want = invariants.su(data)
        rng = random.Random(7)
        for _ in range(10):
            lifts = []
            for j in range(d10.m):
                block = []
                for v in data.vector:
                    w = abelian.act_pow(v, j)
                    block.append([c + 5 * rng.randrange(-3, 4)
                                  for c in w.coords])
                lifts.append(block)
            assert slow_su(data, lifts) == want

    def test_additive_under_connect_sum(self, a4):
        t = classify.a4_representatives()
        by_name = {e.name: e for e in t.entries}
        tre = by_name["3_1^l"]
        fig = by_name["4_1^l"]
        s = surface_data.connect_sum(tre.data, fig.data)
        assert invariants.su(s) == abelian.add(tre.su, fig.su)

    def test_conjugation_invariance(self, d10):
        data = surface_data.make_data(d10, FIG8_L, [(1,), (3,)])
        rolled = surface_data.SurfaceData(
            d10, data.matrix, tuple(abelian.act(v) for v in data.vector))
        assert invariants.su(rolled) == invariants.su(data)


class TestStructuredLift:
    def test_frozen_lifts(self, d6, d10, d14, c3z7, c4z5, a4, c2_33, c2_35,
                          c3_55):
        frozen = {
            d6: ((8,),),
            d10: ((24,),),
            d14: ((48,),),
            c3z7: ((30,),),
            c4z5: ((7,),),
            a4: ((0, 1), (3, 3)),
            c2_33: ((8, 0), (0, 8)),
            c2_35: ((8, 0), (0, 24)),
            c3_55: ((0, 4), (6, 24)),
        }
        for spec, want in frozen.items():
            got = invariants.structured_lift(spec)
            assert got == want, (spec.orders, got, want)

    def test_unequal_first_lift_does_not_split(self):
        """The counterexample of structured_lift's docstring: over
        Z/3 x Z/5 with diagonal action (2, 4) and m = 4 the first lift
        has cross entries, while the per-factor Hensel lifts give
        diag(8, 24), also a lift but later in row-major order."""
        spec = abelian.make_group(4, (3, 5), ((2, 0), (0, 4)))
        first = ((2, 3), (5, 4))
        assert invariants.structured_lift(spec) == first
        assert slow_structured_lift(spec) == first
        parts = [invariants._hensel_lift(4, n, [[xi]])
                 for n, xi in ((3, 2), (5, 4))]
        assert parts == [[[8]], [[24]]]
        for C in (first, ((8, 0), (0, 24))):
            P = slow_mat_pow([list(r) for r in C], 4)
            assert all((P[i][j] - (i == j)) % n ** 2 == 0
                       for i, n in enumerate((3, 5)) for j in range(2))
        assert first < ((8, 0), (0, 24))

    def test_lift_is_structured(self, c3_55):
        C = invariants.structured_lift(c3_55)
        P = slow_mat_pow([list(r) for r in C], c3_55.m)
        for i in range(2):
            for j in range(2):
                assert (P[i][j] - (1 if i == j else 0)) % 25 == 0

    def test_matches_slow_oracle(self, request):
        """structured_lift against the unbudgeted row-major search, lift
        or LiftFailure, on every fixture group and on random specs: m in
        {2, 3, 4}, rank <= 2, equal and unequal orders <= 13, from
        make_group or unvalidated. Unvalidated orders stay <= 7, since a
        spec with no lift makes the oracle try the whole box. Two specs
        with no lift, over equal and over unequal orders, are pinned."""
        for name in FIXTURE_GROUPS:
            spec = request.getfixturevalue(name)
            assert outcome(invariants.structured_lift, spec) == \
                outcome(slow_structured_lift, spec)
        seen = set()
        for spec in (abelian.GroupSpec(2, (4, 2), ((1, 2), (0, 1))),
                     abelian.GroupSpec(4, (4, 4), ((3, 1), (2, 3)))):
            got = outcome(invariants.structured_lift, spec)
            assert got[0] is LiftFailure
            assert got == outcome(slow_structured_lift, spec)
            seen.add((len(set(spec.orders)) == 1, True))

        @settings(deadline=None, max_examples=80, derandomize=True)
        @given(st.integers(0, 10 ** 6), st.booleans(), st.booleans())
        def check(seed, equal, validated):
            rng = random.Random(seed)
            spec = random_group_spec(rng, equal, validated,
                                     top=13 if validated else 7)
            got = outcome(invariants.structured_lift, spec)
            assert got == outcome(slow_structured_lift, spec)
            seen.add((equal, got[0] is LiftFailure))

        check()
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_hensel_lift_matches_listing(self):
        """_hensel_lift against the kernel listing and min, on random
        equal-order actions of rank 1 to 3 (orders small enough to list
        every solution): half of them at a multiple of N's order mod n,
        where the system is set up and may still have no solution, the
        rest at a random m, where N^m = I mod n mostly fails."""
        seen = set()

        @settings(deadline=None, max_examples=150, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            r = rng.choice((1, 2, 3))
            n = rng.randrange(2, (31, 8, 4)[r - 1])
            N = [[rng.randrange(n) for _ in range(r)] for _ in range(r)]
            m = rng.randrange(2, 7)
            ordered = rng.random() < 0.5
            if ordered:
                P = N
                for k in range(1, 13):
                    if all((P[i][j] - (i == j)) % n == 0
                           for i in range(r) for j in range(r)):
                        m = k * rng.choice((1, 2, 3)) if k > 1 else m
                        break
                    P = [[x % n for x in row] for row in mat_mul(P, N)]
                else:
                    ordered = False
            got = invariants._hensel_lift(m, n, N)
            assert got == slow_hensel_lift(m, n, N), (m, n, N)
            seen.add((ordered, got is None))

        check()
        assert seen == {(True, True), (True, False), (False, True),
                        (False, False)}

    def test_hensel_lift_ignores_kernel_basis(self, monkeypatch, request):
        """_hensel_lift reads the lex-least lift off any basis of the
        kernel lattice: with echelon_mod's kernel columns replaced by
        their product with a random unimodular matrix (transvections,
        swaps and sign flips), structured_lift is unchanged on equal-order
        specs at m >= 4 and still matches the row-major search."""
        specs = [request.getfixturevalue(name) for name in FIXTURE_GROUPS]
        rng = random.Random(36)
        specs += [random_group_spec(rng, True, validated, top=7,
                                    m_choices=(4, 6, 8))
                  for validated in (True, False) for _ in range(15)]
        specs = list(dict.fromkeys(
            s for s in specs if s.m >= 4 and len(set(s.orders)) == 1))
        want = [outcome(invariants.structured_lift, fresh_spec(s))
                for s in specs]
        echelon, bases = invariants.echelon_mod, []

        def mixed(F, mods):
            index, K = echelon(F, mods)
            U = dense_unimodular(rng, len(K))
            bases.append(U)
            return index, transpose(mat_mul(transpose(K), U))

        monkeypatch.setattr(invariants, "echelon_mod", mixed)
        got = [outcome(invariants.structured_lift, fresh_spec(s))
               for s in specs]
        assert got == want
        assert got == [outcome(slow_structured_lift, s) for s in specs]
        lifts = [C for C in got if type(C[0]) is tuple]
        assert len(lifts) > 10 and any(len(C) > 1 for C in lifts)
        assert len(bases) == len(lifts)  # one basis per lift

    def test_lift_past_the_listing_budget(self):
        """At m = 4 over (Z/17)^3 with diag(4, 13, 16) the lift system has
        17^6 = 24,137,569 solutions, more than LIFT_BUDGET: no budget
        applies, as the lift is read off the lattice basis."""
        spec = abelian.make_group(4, (17,) * 3,
                                  ((4, 0, 0), (0, 13, 0), (0, 0, 16)))
        C = invariants.structured_lift(spec)
        assert C == ((38, 0, 0), (0, 251, 0), (0, 0, 288))
        P = slow_mat_pow([list(row) for row in C], 4)
        for i, (row, action) in enumerate(zip(C, spec.action)):
            assert all((c - a) % 17 == 0 for c, a in zip(row, action))
            assert all((P[i][j] - (i == j)) % 17 ** 2 == 0
                       for j in range(3))

    def test_equal_orders_list_no_kernel(self, monkeypatch, request):
        """structured_lift over equal orders never calls kernel_mod, from
        any module: the fixture groups, and (Z/13)^3 at m = 4 with
        diag(5, 8, 12), whose lift system has 4,826,809 solutions."""
        calls, listing = [], _intlin.kernel_mod

        def spy(*args):
            calls.append(args)
            return listing(*args)

        for module in (_intlin, invariants, abelian):
            monkeypatch.setattr(module, "kernel_mod", spy, raising=False)
        specs = [fresh_spec(request.getfixturevalue(name))
                 for name in FIXTURE_GROUPS]
        specs = [s for s in specs if len(set(s.orders)) == 1]
        specs.append(abelian.make_group(
            4, (13,) * 3, ((5, 0, 0), (0, 8, 0), (0, 0, 12))))
        for spec in specs:
            outcome(invariants.structured_lift, spec)
        assert outcome(invariants.structured_lift, specs[-1]) == \
            ((70, 0, 0), (0, 99, 0), (0, 0, 168))
        assert len(specs) > 5 and calls == []

    def test_m2_lift_exists(self, request):
        """Every m = 2 group has a lift, and diag(n_i^2 - 1) is one: N is
        -I on A, so it lifts N and squares to I mod n_i^2."""
        specs = [request.getfixturevalue(name) for name in FIXTURE_GROUPS]
        rng = random.Random(23)
        specs += [random_group_spec(rng, equal, True, m_choices=(2,))
                  for equal in (True, False) for _ in range(10)]
        for spec in specs:
            if spec.m != 2:
                continue
            invariants.structured_lift(spec)
            D = [[n * n - 1 if i == j else 0 for j in range(spec.rank)]
                 for i, n in enumerate(spec.orders)]
            P = slow_mat_pow(D, 2)
            for i, n in enumerate(spec.orders):
                for j in range(spec.rank):
                    assert (D[i][j] - spec.action[i][j]) % n == 0
                    assert (P[i][j] - (i == j)) % (n * n) == 0

    def test_random_group_spec_gives_up(self, monkeypatch):
        """No make_group spec of rank <= 2 has m = 5 and orders <= 9
        (every compatible action fails), so the draws run out, and the
        error names m_choices and top; a low draw cap keeps the test
        fast."""
        monkeypatch.setattr(util, "SPEC_DRAWS", 20)
        for equal in (True, False):
            with pytest.raises(AssertionError, match=r"^no make_group spec "
                               r"in 20 draws with m in \(5,\) and orders "
                               r"<= 9$"):
                random_group_spec(random.Random(5), equal, True,
                                  m_choices=(5,), top=9)

    def test_unequal_search_budget(self):
        """(5 * 7 * 11)^3 = 5.7e7 candidates: refused before searching."""
        spec = abelian.make_group(2, (5, 7, 11),
                                  ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
        with pytest.raises(BudgetExceeded):
            invariants.structured_lift(spec)

    def test_lift_failure_searched_once(self, c6_93, monkeypatch):
        """A LiftFailure is kept too: the second call on a fresh spec
        raises the same error without searching again."""
        spec, calls = fresh_spec(c6_93), []
        searched = invariants._searched_lift

        def counted(*args):
            calls.append(args)
            return searched(*args)

        monkeypatch.setattr(invariants, "_searched_lift", counted)
        messages = []
        for _ in range(2):
            with pytest.raises(LiftFailure) as info:
                invariants.structured_lift(spec)
            messages.append(str(info.value))
        assert len(calls) == 1 and messages[0] == messages[1]

    def test_cu_reads_lift_from_m4(self, c4z5, monkeypatch):
        """cu takes no lift at m = 2 or 3 and takes one at m = 4."""
        def refuse(spec):
            raise LiftFailure("not expected")

        d6_data = classify.metacyclic_table(2, 3, 2).entries[0].data
        c3z7_data = classify.metacyclic_table(3, 7, 2).entries[0].data
        c4z5_data = surface_data.make_data(c4z5, ((8, 0), (1, 1)),
                                           [(1,), (3,)])
        want = invariants.cu(d6_data), invariants.cu(c3z7_data)
        monkeypatch.setattr(invariants, "structured_lift", refuse)
        assert (invariants.cu(d6_data), invariants.cu(c3z7_data)) == want
        with pytest.raises(LiftFailure, match="not expected"):
            invariants.cu(c4z5_data)


class TestCu:
    def test_metacyclic_families_frozen(self):
        frozen = {
            (2, 3, 2): [1, 0, 2],
            (2, 5, 4): [1, 3, 0, 2, 4],
            (2, 7, 6): [6, 1, 3, 5, 0, 2, 4],
            (3, 7, 2): [0, 0, 0, 0, 0, 0, 0],
        }
        for (m, n, xi), want in frozen.items():
            t = classify.metacyclic_table(m, n, xi)
            assert [e.cu.coords[0] for e in t.entries] == want

    def test_distinct_value_counts_match_order_formula(self):
        for n, xi in ((3, 2), (5, 4), (7, 6), (7, 2)):
            m = 2 if xi == n - 1 else 3
            t = classify.metacyclic_table(m, n, xi)
            distinct = len({e.cu.coords for e in t.entries})
            assert distinct == abelian.additive_order(
                2 * (1 - pow(xi, -3, n)), n)

    def test_rejects_invalid_data(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(0,), (0,)])
        with pytest.raises(InvalidData):
            invariants.cu(data)

    def test_m4_divisibility_failure(self, c4z5):
        data = surface_data.make_data(c4z5, ((8, 0), (1, 1)), [(1,), (3,)])
        assert surface_data.validate(data).valid
        assert invariants.su(data).coords == (0,)
        with pytest.raises(DivisibilityFailure):
            invariants.cu(data)

    def test_vlift_stability(self, a4):
        """The oracle on vector lifts shifted by multiples of n_i gives
        cu's value."""
        t = classify.a4_representatives()
        rng = random.Random(11)
        for e in t.entries:
            want = e.cu
            for _ in range(5):
                vlift = [[c + o * rng.randrange(-3, 4)
                          for c, o in zip(v.coords, a4.orders)]
                         for v in e.data.vector]
                assert slow_cu(e.data, vlift=vlift) == want

    def test_nlift_stability(self, d6):
        """The oracle on action lifts shifted by multiples of n^2 gives
        cu's value."""
        data = surface_data.make_data(d6, ((4, 0), (1, 1)), [(1,), (1,)])
        want = invariants.cu(data)
        C = invariants.structured_lift(d6)
        rng = random.Random(13)
        for _ in range(5):
            shifted = tuple(tuple(x + 9 * rng.randrange(-2, 3) for x in row)
                            for row in C)
            assert slow_cu(data, nlift=shifted) == want

    def test_additive_under_connect_sum(self, a4):
        t = classify.a4_representatives()
        by_name = {e.name: e for e in t.entries}
        tre = by_name["3_1^l"]
        s = surface_data.connect_sum(tre.data, tre.data)
        assert invariants.cu(s) == abelian.add(tre.cu, tre.cu)
        assert invariants.cu(s).coords == (0, 0)


class TestVectorClass:
    def test_a4_representatives_frozen(self):
        t = classify.a4_representatives()
        want = {"3_1^l": (1,), "3_1^r": (1,), "4_1^l": (1,), "4_1^r": (1,),
                "3_1^l#3_1^l": (0,), "3_1^l#4_1^l": (0,),
                "3_1^l#4_1^r": (0,), "4_1^l#4_1^r": (0,)}
        assert {e.name: e.s.coords for e in t.entries} == want

    def test_rank2_diag_genus1_frozen(self):
        t = classify.rank2_diag_table(2, 3, 3, 2, 2)
        for e in t.entries:
            if e.name == "g1":
                assert e.s.coords == (e.i % 3,)
            else:
                assert e.s.coords == (0,)

    def test_empty_datum(self, a4):
        data = surface_data.make_data(a4, (), [])
        assert invariants.vector_class(data).is_zero()

    def test_move_invariance(self, a4):
        data = surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)])
        w = invariants.vector_class(data)
        assert w.coords == (1,)
        moved = surface_data.lambda2(data, (1, 1), 2)
        assert invariants.vector_class(moved) == w


    def test_matches_slow_oracle_on_moves(self, d6, d10, a4, c2_35, c3_55):
        """The move_pool groups all have s = -s, so C3 x| (Z/5)^2 data
        with s != -s join the pool, and some chain must reach them."""
        pool = move_pool(d6, d10, a4, c2_35)
        t = classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 4)))
        assert t.entries[0].data.spec == c3_55
        pool += [e.data for e in t.entries if not (e.s + e.s).is_zero()][:4]
        signed = set()

        @settings(deadline=None, max_examples=40, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            for _, out in move_chain(rng, pool, rng.randrange(7)):
                assert invariants.vector_class(out) == slow_vector_class(out)
                w = invariants.vector_class(out)
                signed.add(not (w + w).is_zero())

        check()
        assert True in signed

    def test_matches_slow_oracle_on_congruences(self, request):
        """Random U^T M U of genus 1-4 over every fixture group, with
        random vectors: the class is structural, so most do not validate."""
        specs = [(request.getfixturevalue(name), 4, None)
                 for name in FIXTURE_GROUPS]
        seen = set()

        @settings(deadline=None, max_examples=200, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            M, spec = random_seifert(rng, specs)
            coords = [[rng.randrange(-n, 2 * n) for n in spec.orders]
                      for _ in M]
            data = surface_data.make_data(spec, M, coords)
            w = invariants.vector_class(data)
            assert w == slow_vector_class(data)
            seen.add((spec, w.is_zero()))

        check()
        assert len({spec for spec, _ in seen}) == len(FIXTURE_GROUPS)
        assert {zero for _, zero in seen} == {True, False}

    def test_matches_slow_oracle_up_to_genus_20(self, d6, d10, d14, c3z7,
                                                a4, c2_33, c2_35, c3_55):
        """Sparse lambda2 and lambda1 moves, as in the walk benchmark, grow
        every lift-pool datum to genus 20; at each genus the class equals
        the inverting oracle and the base datum's class. The C2(Z3)^2 and
        C3(Z5)^2 data carry classes s with 2s != 0, which a sign or index
        slip would negate."""
        pool = lift_pool(d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55)
        rng = random.Random(20)
        for data in pool:
            want = invariants.vector_class(data)
            while data.genus < 20:
                c = [0] * data.size
                for i in rng.sample(range(data.size), 2):
                    c[i] = rng.choice((-1, 1))
                data = surface_data.lambda2(data, c, rng.choice((1, 2)))
                data = surface_data.lambda1(
                    data, rand_unimodular(rng, data.size, ops=2))
                assert invariants.vector_class(data) == \
                    slow_vector_class(data) == want
        assert any(not (w + w).is_zero()
                   for w in map(invariants.vector_class, pool))

    def test_independent_of_reducing_matrix(self, request):
        """Wedging the rows of P'^-1 X in adjacent pairs gives the class for
        any P' with P'^T (M - M^T) P' = J, not only the reduction's P:
        P' = P T, T a product of symplectic transvections I + c u u^T J,
        which satisfy T^T J T = J as u^T J u = 0."""
        specs = [(request.getfixturevalue(name), 4, None)
                 for name in FIXTURE_GROUPS]
        seen = set()

        @settings(deadline=None, max_examples=100, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            M, spec = random_seifert(rng, specs)
            size = len(M)
            X = [[rng.randrange(n) for n in spec.orders] for _ in M]
            data = surface_data.make_data(spec, M, X)
            std = surface_data.standard_matrix(size // 2)
            J = [[std[i][j] - std[j][i] for j in range(size)]
                 for i in range(size)]
            P = surface_data.symplectic_reduce(M)
            for _ in range(rng.randrange(1, 4)):
                u = [rng.randrange(-2, 3) for _ in range(size)]
                uJ = mat_vec(transpose(J), u)
                c = rng.choice((-2, -1, 1, 2))
                P = mat_mul(P, [[(i == k) + c * u[i] * uJ[k]
                                 for k in range(size)] for i in range(size)])
            S = [[M[i][j] - M[j][i] for j in range(size)]
                 for i in range(size)]
            assert mat_mul(mat_mul(transpose(P), S), P) == J
            W = mat_mul(inverse_unimodular(P), X)
            w = abelian.WedgeElement2(spec, tuple(
                sum(a[p] * b[q] - a[q] * b[p]
                    for a, b in zip(W[0::2], W[1::2]))
                for p, q in abelian.pair_indices(spec)))
            assert w == invariants.vector_class(data)
            seen.add((w + w).is_zero())

        check()
        assert seen == {True, False}


class TestSlowOracles:
    """validate, su and cu against the GroupElement oracles of
    tests/util.py: equal values, or the same error type and message."""

    @staticmethod
    def assert_agree(data, lifts=None, nlift=None, vlift=None):
        """Compare all three layers, the oracles on the given lifts (by
        default their own); return the su and cu outcomes."""
        assert surface_data.validate(data) == slow_validate(data)
        su_got = outcome(invariants.su, data)
        assert su_got == outcome(slow_su, data, lifts)
        cu_got = outcome(invariants.cu, data)
        assert cu_got == outcome(slow_cu, data, nlift, vlift)
        return su_got, cu_got

    def test_move_chains(self, d6, d10, a4, c2_35, c3_55):
        """The C3 x| (Z/5)^2 data carry su, cu and s of odd order, which
        a sign slip would change."""
        pool = move_pool(d6, d10, a4, c2_35) + odd_pool(c3_55)
        for data in pool:
            self.assert_agree(data)
        odd = []

        @settings(deadline=None, max_examples=40, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            for _, out in move_chain(rng, pool, rng.randrange(1, 7)):
                self.assert_agree(out)
                if out.spec == c3_55:
                    odd.append(out)

        check()
        assert odd

    def test_family_entries(self):
        tables = [classify.metacyclic_table(m, n, xi)
                  for m, n, xi in ((2, 3, 2), (2, 5, 4), (2, 7, 6),
                                   (3, 7, 2))]
        tables += [classify.rank2_diag_table(2, 3, 3, 2, 2),
                   classify.rank2_diag_table(2, 3, 5, 2, 4),
                   classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 4))),
                   classify.a4_representatives()]
        for t in tables:
            for e in t.entries:
                assert self.assert_agree(e.data) == (e.su, e.cu)
                assert e.s == slow_vector_class(e.data)

    def test_shifted_lifts(self, d6, d10, d14, c3z7, a4, c2_33, c2_35,
                           c3_55):
        """su lifts and cu vector lifts shifted by multiples of n_i, the
        action lift by multiples of n_i^2: the oracles on the shifted
        lifts give su's and cu's values."""
        pool = lift_pool(d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55)
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            data = rng.choice(pool)
            spec = data.spec

            def shift(coords):
                return [c + n * rng.randrange(-3, 4)
                        for c, n in zip(coords, spec.orders)]

            lifts = [[shift(abelian.act_pow(v, j).coords)
                      for v in data.vector] for j in range(spec.m)]
            vlift = [shift(v.coords) for v in data.vector]
            nlift = [[x + n * n * rng.randrange(-2, 3) for x in row]
                     for row, n in zip(invariants.structured_lift(spec),
                                       spec.orders)]
            su_got, cu_got = self.assert_agree(data, lifts=lifts,
                                               vlift=vlift, nlift=nlift)
            seen.add((spec, any(su_got.coords), any(cu_got.coords)))

        check()
        assert {spec for spec, _, _ in seen} == {d.spec for d in pool}
        assert {(su, cu) for _, su, cu in seen} >= {(True, True),
                                                    (False, False)}

    def test_m4_divisibility_failures(self, c4z5):
        """The m = 4 entries that classify.metacyclic_table(4, 5, 2) and
        rank2_nondiag_table(4, 5, ((0, 1), (4, 0))) build before cu
        fails (x = 3, a = 3; xi = xt = 3, p = 2): both sides raise the
        same DivisibilityFailure, message included."""
        data = [surface_data.make_data(c4z5, ((3 + 5 * k, 0), (1, 1)),
                                       [(1,), (3,)]) for k in range(1, 6)]
        rank2 = abelian.make_group(4, (5, 5), ((0, 4), (1, 0)))
        for k, l in ((1, 1), (2, 4), (5, 3)):
            for i in (1, 2):
                data.append(surface_data.make_data(
                    rank2, (((3 * i) % 5 + 5 * k, -3),
                            (-2, (3 * pow(i, -1, 5)) % 5 + 5 * l)),
                    [(1, 0), (0, i)]))
            data.append(surface_data.make_data(
                rank2, ((5 * k, 2, 0, 2), (3, 0, 3, 0), (0, 3, 5 * l, 2),
                        (2, 0, 3, 0)),
                [(1, 0), (0, 0), (0, 1), (0, 0)]))
        failures = []
        for d in data:
            assert surface_data.validate(d).valid
            _, cu_got = self.assert_agree(d)
            if isinstance(cu_got, tuple):
                failures.append((d.spec, cu_got))
        assert {spec for spec, _ in failures} == {c4z5, rank2}
        assert all(kind is DivisibilityFailure for _, (kind, _) in failures)


class TestCuDomain:
    """The two derivations in cu's docstring, on the dense oracle: at
    m = 3 any integer C congruent to the action N gives cu's value, so cu
    reads N; at m >= 4 no valid datum passes the per-entry division."""

    def test_m3_any_congruent_action(self, c3z7, a4, c3_55):
        """Random move chains from m = 3 table data: cu equals the dense
        oracle under C = N, and under C whose row c is N's plus n_c times
        a random integer row (criterion 10 shifts a structured lift by
        n_c^2 only)."""
        pool = [e.data for e in classify.metacyclic_table(3, 7, 2).entries]
        pool += [e.data for e in classify.a4_representatives().entries]
        pool += odd_pool(c3_55)
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            steps = move_chain(rng, pool, rng.randrange(4))
            data = steps[-1][1] if steps else rng.choice(pool)
            spec = data.spec
            want = invariants.cu(data)
            assert want == slow_cu(data, spec.action)
            for _ in range(3):
                nlift = [[x + n * rng.randrange(-9, 10) for x in row]
                         for row, n in zip(spec.action, spec.orders)]
                assert slow_cu(data, nlift) == want
            seen.add(spec)

        check()
        assert seen == {c3z7, a4, c3_55}

    def test_m5_always_fails_division(self):
        """Every valid colouring of genus-1 and genus-2 matrices over
        C5 x| Z/11 raises the oracle's DivisibilityFailure, message
        included, under the structured lift; the oracle raises one under
        C = N too."""
        spec = abelian.make_group(5, (11,), ((3,),))
        g1 = [((-2, 0), (-1, -1)), ((-3, 1), (0, 3)), ((-1, 0), (-1, -2))]
        # block sums, and a congruence of the first
        g2 = [tuple(r + (0, 0) for r in a) + tuple((0, 0) + r for r in b)
              for a, b in ((g1[0], g1[1]), (g1[2], g1[2]))]
        U = rand_unimodular(random.Random(5), 4)
        g2.append(mat_mul(mat_mul(transpose(U), g2[0]), U))
        for M in g1 + g2:
            found = surface_data.enumerate_colourings(M, spec)
            assert found
            for V in found:
                data = surface_data.SurfaceData(spec, M, V)
                got = outcome(invariants.cu, data)
                assert got == outcome(slow_cu, data)
                assert got[0] is DivisibilityFailure
                assert outcome(slow_cu, data, spec.action)[0] is \
                    DivisibilityFailure

    def test_m3_without_searchable_lift(self):
        """C3 x| (Z/19 x Z/361): the unequal-order lift search has
        19^2 * 361^2 = 47,045,881 candidates, past the budget, yet cu has
        a value, since it reads N at m = 3."""
        spec = abelian.make_group(3, (19, 361), ((7, 0), (0, 292)))
        data = surface_data.make_data(
            spec, ((19, 2, 0, 0), (3, 0, 0, 0), (0, 0, 361, 97),
                   (0, 0, 98, 0)),
            ((1, 0), (0, 0), (0, 1), (0, 0)))
        assert surface_data.validate(data).valid
        with pytest.raises(BudgetExceeded, match="47045881 lift candidates"):
            invariants.structured_lift(spec)
        assert invariants.cu(data) == slow_cu(data, spec.action)
        assert invariants.cu(data).coords == (0, 0)

    def test_m1_data_are_invalid(self):
        """At m = 1 the action is I on A, so the colouring equation gives
        (M^T - M) V = 0 and V = 0, which does not generate A: over
        unsafe_spec((3,)) the trefoil with V = (1; 2) is invalid, and su
        and cu raise InvalidData (cu's docstring)."""
        spec = abelian.unsafe_spec((3,))
        data = surface_data.make_data(spec, TREFOIL_L, [(1,), (2,)])
        assert not surface_data.validate(data).valid
        assert surface_data.enumerate_colourings(TREFOIL_L, spec) == []
        for invariant in (invariants.su, invariants.cu):
            with pytest.raises(InvalidData):
                invariant(data)


# a genus-2 colouring over C6 x| (Z/3)^2 with su = (2, 2)
RANK2_M = ((3, -3, -2, -3), (-2, 0, -2, -3), (-2, -2, 2, -2),
           (-3, -3, -1, 0))
RANK2_V = ((1, 1), (1, 1), (1, 1), (0, 1))
RANK2_ACTION = ((0, 2), (1, 1))


class TestClosedForms:
    """su and cu at m <= 3 pair the datum's Gram matrix G with a matrix
    of the spec. On move chains from lift_pool, the A4 and C3 x| (Z/4)^2
    tables (even orders, so cu halves its total), trefoil colourings over
    C600 x| Z/7 (action 3) and a C6 x| (Z/3)^2 datum with su = (2, 2),
    the closed forms equal the oracles."""

    @staticmethod
    def orbit_lifts(data):
        """Y_j = X (N^T)^j over Z for j < m, by slow_mat_mul."""
        NT = transpose(data.spec.action)
        lifts = [[list(row) for row in data._coords]]
        for _ in range(data.spec.m - 1):
            lifts.append(slow_mat_mul(lifts[-1], NT))
        return lifts

    def test_match_per_block_and_oracles(self, d6, d10, d14, c3z7, a4,
                                         c2_33, c2_35, c3_55):
        pool = lift_pool(d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55)
        four = classify.rank2_nondiag_table(3, 4, ((0, 1), (3, 3)))
        pool += [e.data for e in four.entries[::5]]
        c600 = abelian.make_group(600, (7,), ((3,),))
        pool += [surface_data.SurfaceData(c600, TREFOIL_L, V) for V in
                 surface_data.enumerate_colourings(TREFOIL_L, c600)]
        c6_33 = abelian.make_group(6, (3, 3), RANK2_ACTION)
        pool.append(surface_data.make_data(c6_33, RANK2_M, RANK2_V))
        seen = set()

        @settings(deadline=None, max_examples=80, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            steps = move_chain(rng, pool, rng.randrange(4))
            data = steps[-1][1] if steps else rng.choice(pool)
            spec = data.spec
            assert invariants.su(data) == slow_su(data)
            cu = outcome(invariants.cu, data)
            if spec.m <= 3:
                assert cu == outcome(slow_cu, data, spec.action)
            seen.add(spec)
            seen.update(("even", any(cu.coords)) for n in spec.orders
                        if n % 2 == 0)

        check()
        assert seen >= {a4, four.group, c600, c6_33, c3_55, ("even", True),
                        ("even", False)}


class TestGramScaling:
    """validate and su at m = 6 * 10^6: validation is one product by N on
    the product pair, and su one pairing of G with W_c, which doubling
    builds from powers reduced mod n^2. So both form a bounded count of
    mat_mul products on entries that do not grow with m, in well under a
    second; stacking the orbit X (N^T)^j, j < m, over Z would not
    finish. The minimal lifts t^j V repeat with period 6, so su at
    m = 6 K is K times su at m = 6; here K = 10^6 = 1 mod 3 and mod 7."""

    M = 6 * 10 ** 6

    def check(self, orders, action, matrix, coords):
        spec = abelian.make_group(self.M, orders, action)
        data = surface_data.make_data(spec, matrix, coords)
        start = time.perf_counter()
        # the pair, validation and G, then per factor and for the
        # N^m check about 4 products per bit of m
        limit = 4 * (len(orders) + 1) * self.M.bit_length()
        with mat_mul_spy(limit) as calls:
            assert surface_data.validate(data).valid
            got = invariants.su(data)
        elapsed = time.perf_counter() - start
        assert all(abs(x) < 2 ** 32 for product in calls for F in product
                   for row in F for x in row)
        assert elapsed < 0.25
        six = abelian.make_group(6, orders, action)
        assert got.coords == invariants.su(
            surface_data.make_data(six, matrix, coords)).coords
        return got.coords

    def test_trefoil(self):
        """The trefoil over C_m x| Z/7, action 3 (su is 0 here)."""
        V = surface_data.enumerate_colourings(
            TREFOIL_L, abelian.make_group(6, (7,), ((3,),)))[0]
        coords = [v.coords for v in V]
        assert self.check((7,), ((3,),), TREFOIL_L, coords) == (0,)

    def test_rank2(self):
        assert self.check((3, 3), RANK2_ACTION, RANK2_M, RANK2_V) == (2, 2)


class TestLiftScaling:
    """structured_lift at m = 6 * 10^6 over equal orders: N^m and each
    column of the one-step system are single powers reduced mod n^2
    (_hensel_lift), r^2 + 1 mat_pow calls on entries below n^4, in well
    under a second; a list of the powers N^0 .. N^m would not finish."""

    M = 6 * 10 ** 6

    @pytest.mark.parametrize("orders, action, want", [
        ((7,), ((3,),), ((31,),)),
        ((13,) * 3, ((5, 0, 0), (0, 8, 0), (0, 0, 12)),
         ((70, 0, 0), (0, 99, 0), (0, 0, 168)))])
    def test_diagonal(self, orders, action, want):
        """Each diagonal entry is the least N_cc + k n with
        (N_cc + k n)^m = 1 mod n^2, by Python's pow."""
        spec = abelian.make_group(self.M, orders, action)
        r = len(orders)
        start = time.perf_counter()
        with mat_mul_spy(2 * (r * r + 1) * self.M.bit_length()) as calls:
            got = invariants.structured_lift(spec)
        assert time.perf_counter() - start < 0.25
        assert all(abs(x) < 2 ** 32 for product in calls for F in product
                   for row in F for x in row)
        assert got == want
        for c, (n, row) in enumerate(zip(orders, action)):
            assert got[c][c] == next(
                row[c] + k * n for k in range(n)
                if pow(row[c] + k * n, self.M, n * n) == 1)


class TestStream:
    """cu at m >= 4 forms blocks 0 and 1 of L x in factor 0 only and
    raises at their first entry that does not divide (cu's docstring
    proves that every factor of a valid datum fails there)."""

    COLOURED_DRAWS = 1000

    @staticmethod
    def agree(rng, data):
        """su and cu against the oracles, messages included; returns the
        two outcomes. su is compared on the orbit X (N^T)^j over Z, which
        its closed form pairs. The oracles on lifts shifted by multiples
        of n_i keep su's value and cu's error type, and under C = N raise
        DivisibilityFailure (cu's docstring: at m >= 4 every entry of L x
        mod n_c is that of any congruent lift)."""
        spec, V = data.spec, data.vector

        def shift(coords):
            return [x + n * rng.randrange(-2, 3)
                    for x, n in zip(coords, spec.orders)]

        got = [outcome(invariants.su, data), outcome(invariants.cu, data)]
        assert got == [
            outcome(slow_su, data, TestClosedForms.orbit_lifts(data)),
            outcome(slow_cu, data)]
        lifts = [[shift(abelian.act_pow(v, j).coords) for v in V]
                 for j in range(spec.m)]
        vlift = [shift(v.coords) for v in V]
        assert outcome(slow_su, data, lifts) == got[0]
        kind = [x[0] if isinstance(x, tuple) else type(x)
                for x in (got[1], outcome(slow_cu, data, vlift=vlift))]
        assert kind[0] is kind[1]
        assert outcome(slow_cu, data, spec.action)[0] is DivisibilityFailure
        return got

    def test_matches_oracles_at_m4_and_up(self):
        """Random specs with m in {4, 6, 8}, equal and unequal orders
        <= 7, from make_group or GroupSpec; colourings of random genus-1
        and genus-2 matrices, the spec and matrix redrawn (at most
        COLOURED_DRAWS specs, 10 matrices each) until they have one, so
        that every example is checked. A GroupSpec with nonzero fixed
        points is redrawn without a matrix: it has no colouring, since
        Delta(1) = +-1 makes t - 1 invertible on a coloured A. The draws
        hold a non-diagonal make_group action. No failure in factor 1
        after factor 0 divides is asked for: by cu's docstring every
        factor of a valid datum fails within blocks 0 and 1, so factor 0
        always fails."""
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6), st.booleans(), st.booleans())
        def check(seed, equal, validated):
            rng = random.Random(seed)
            for _ in range(self.COLOURED_DRAWS):
                spec = random_group_spec(rng, equal, validated, top=7,
                                         m_choices=(4, 6, 8))
                try:
                    abelian.make_group(spec.m, spec.orders, spec.action)
                except FixedPoints:
                    continue
                for _ in range(10):
                    M, _ = random_seifert(rng, [(spec, 2, None)])
                    found = surface_data.enumerate_colourings(M, spec)
                    if found:
                        break
                if found:
                    break
            else:
                raise AssertionError(f"no colouring in {self.COLOURED_DRAWS}"
                                     " spec draws")
            diagonal = all(x == 0 for i, row in enumerate(spec.action)
                           for j, x in enumerate(row) if i != j)
            seen.add(("make_group" if validated else "raw", diagonal))
            for V in rng.sample(found, min(2, len(found))):
                for x in self.agree(rng, surface_data.SurfaceData(spec, M, V)):
                    if not isinstance(x, tuple):
                        seen.add(type(x))
                    else:
                        seen.add((x[0], x[1][-1]))  # x[1] ends "factor c"

        check()
        assert seen >= {("make_group", False), abelian.GroupElement,
                        (DivisibilityFailure, "0")}, seen

    def test_every_factor_fails_within_blocks_0_1(self):
        """cu's m >= 4 proof on every factor, not only the one that
        raises. Random make_group specs with m in {4, 6, 8, 10, 12},
        equal and unequal orders <= 7, and colourings of random genus-1
        and genus-2 matrices, redrawn as in the test above: in every
        factor c, the dense oracle L(M) x of tests/util.py, x the column
        c of the lifts V, C V, ... under the row-major lift C
        (slow_structured_lift), has an entry of block 0 or 1 that n_c
        does not divide, and cu names factor 0 and its first such entry.
        The draws hold non-diagonal actions and factors with
        gcd(det M, n_c) > 1, the case that a unit det M does not settle;
        slow_cu stays the all-blocks oracle."""
        seen = set()

        @settings(deadline=None, max_examples=40, derandomize=True)
        @given(st.integers(0, 10 ** 6), st.booleans())
        def check(seed, equal):
            rng = random.Random(seed)
            for _ in range(self.COLOURED_DRAWS):
                spec = random_group_spec(rng, equal, True, top=7,
                                         m_choices=(4, 6, 8, 10, 12))
                M, _ = random_seifert(rng, [(spec, 2, None)])
                found = surface_data.enumerate_colourings(M, spec)
                if found:
                    break
            else:
                raise AssertionError(f"no colouring in {self.COLOURED_DRAWS}"
                                     " spec draws")
            size, m, C = len(M), spec.m, slow_structured_lift(spec)
            L = linking_form_matrix(M, m)[:2 * size]
            seen.add(("diagonal", all(
                x == 0 for i, row in enumerate(spec.action)
                for j, x in enumerate(row) if i != j)))
            for V in rng.sample(found, min(2, len(found))):
                blocks = [[list(v.coords) for v in V]]
                for _ in range(m - 2):
                    blocks.append([mat_vec(C, row) for row in blocks[-1]])
                firsts = []
                for c, n in enumerate(spec.orders):
                    x = [row[c] for block in blocks for row in block]
                    bad = [w for w in mat_vec(L, x) if w % n]
                    assert bad, (spec, M, V, c)
                    firsts.append(bad[0])
                    seen.update((("shared", gcd(_intlin.det(M), n) > 1),
                                 ("factor", c)))
                got = outcome(invariants.cu,
                              surface_data.SurfaceData(spec, M, V))
                assert got == (DivisibilityFailure, "L(M) pairing entry "
                               f"{firsts[0]} not divisible by "
                               f"{spec.orders[0]} in factor 0")

        check()
        assert seen >= {("diagonal", False), ("shared", True), ("factor", 1)}

    def test_first_failure_in_block_1(self):
        """A datum whose first non-dividing entry lies in block 1 of L x,
        where about a fifth of searched factors first fail: C6 x Z/7
        under x -> 2x, M = ((2, 1), (2, 0)), V = (0; 1), the first hit of
        a seeded search (seeds 0-399, random_group_spec from make_group
        with top 7 and m in {4, 6, 8}, one genus-1 random_seifert matrix
        each). Its lift is 30 and det M = -2 a unit mod 7: block 0 is
        (63, 0), which 7 divides, and block 1 is (1891, 0). The C4 x Z/5
        datum fails in block 0. Both raise the dense oracle's message."""
        for group, M, V, entry in [
                ((6, (7,), ((2,),)), ((2, 1), (2, 0)), [(0,), (1,)],
                 "1891 not divisible by 7"),
                ((4, (5,), ((2,),)), ((8, 0), (1, 1)), [(1,), (3,)],
                 "96 not divisible by 5")]:
            data = surface_data.make_data(abelian.make_group(*group), M, V)
            message = f"L(M) pairing entry {entry} in factor 0"
            with pytest.raises(DivisibilityFailure) as info:
                invariants.cu(data)
            assert str(info.value) == message
            assert outcome(slow_cu, data) == (DivisibilityFailure, message)


class TestProductPair:
    """validate, su, cu and s read M only through the datum's product pair
    (MX, M^T X); against the oracles of tests/util.py on C6 x| (Z/9 x Z/3)
    data. There m = 6, the orders differ, and N^6 != I over Z, so a
    residue reduced by another factor's order, or an su orbit that ends
    at X (N^T)^6 instead of closing at X, changes a value."""

    @staticmethod
    def colourings(spec, matrix):
        found = surface_data.enumerate_colourings(matrix, spec)
        assert found
        return [surface_data.SurfaceData(spec, matrix, V) for V in found]

    def test_move_chains(self, c6_93):
        """Genus-1 colourings through lambda1/lambda2 chains: validate, su,
        s equal the oracles; cu raises the oracle's LiftFailure, message
        included, and the oracle under the action itself as the lift a
        DivisibilityFailure."""
        pool = self.colourings(c6_93, ((-2, -3), (-2, -2)))
        pool += self.colourings(c6_93, ((-1, 0), (-1, 2)))
        nlift = c6_93.action
        seen = set()

        @settings(deadline=None, max_examples=20, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            chain = move_chain(rng, pool, rng.randrange(5))
            for data in [rng.choice(pool)] + [out for _, out in chain]:
                assert surface_data.validate(data) == slow_validate(data)
                su = invariants.su(data)
                assert su == slow_su(data)
                assert invariants.vector_class(data) == \
                    slow_vector_class(data)
                lifted = outcome(invariants.cu, data)
                assert lifted == outcome(slow_cu, data)
                seen.update((lifted[0], outcome(slow_cu, data, nlift)[0],
                             any(su.coords)))

        check()
        assert seen == {LiftFailure, DivisibilityFailure, False, True}

    def test_m6_divisibility_failure(self, c6_93_lifted):
        """With a structured lift, m = 6 cu raises the oracle's
        DivisibilityFailure, message included, on the colourings and on
        lambda moves of them."""
        pool = self.colourings(c6_93_lifted, ((-2, -3), (-4, -2)))
        rng = random.Random(6)
        for data in pool + [random_move(rng, d) for d in pool]:
            got = outcome(invariants.cu, data)
            assert got[0] is DivisibilityFailure
            assert got == outcome(slow_cu, data)
            assert invariants.su(data) == slow_su(data)

    def test_mutated_matrix_fails_validation(self, c6_93):
        """M + E_00 keeps M - M^T, so the datum constructs, but breaks the
        colouring equation: the report says so, and su and cu refuse."""
        for data in self.colourings(c6_93, ((-2, -3), (-2, -2))):
            M = [list(row) for row in data.matrix]
            M[0][0] += 1
            bad = surface_data.SurfaceData(c6_93, M, data.vector)
            report = surface_data.validate(bad)
            assert report == slow_validate(bad)
            assert report.generates and not report.equation_holds
            for call in (invariants.su, invariants.cu):
                with pytest.raises(InvalidData):
                    call(bad)


class TestYObstruction:
    def test_single_triple(self, z333):
        e = lambda c: abelian.element(z333, c)
        w = invariants.y_obstruction(
            [((e((1, 0, 0)), e((0, 1, 0)), e((0, 0, 1))), 2)])
        assert w.coords == (2,)

    def test_cancellation(self, z333):
        e = lambda c: abelian.element(z333, c)
        w = invariants.y_obstruction(
            [((e((1, 0, 0)), e((0, 1, 0)), e((0, 0, 1))), 1),
             ((e((0, 1, 0)), e((1, 0, 0)), e((0, 0, 1))), 1)])
        assert w.is_zero()

    @pytest.mark.parametrize("mult", [2.7, 2.0, True, "2", None])
    def test_rejects_non_integer_multiplicity(self, z333, mult):
        triple = tuple(abelian.element(z333, c)
                       for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert invariants.y_obstruction([(triple, -1)]).coords == (2,)
        with pytest.raises(BadParameters):
            invariants.y_obstruction([(triple, mult)])

    def test_empty_rejected(self):
        with pytest.raises(BadParameters):
            invariants.y_obstruction([])

    @pytest.mark.parametrize("shape", ["int", "pair", "short", "flat",
                                       "generator"])
    def test_rejects_malformed_items(self, z333, shape):
        a, b, c = (abelian.element(z333, x)
                   for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        triples = {"int": 5, "pair": [((a, b), 3)],
                   "short": [((a, b, c),)], "flat": [(a, b, c)],
                   "generator": (t for t in [((a, b, c), 1)])}[shape]
        with pytest.raises(BadParameters):
            invariants.y_obstruction(triples)

    @pytest.mark.parametrize("entry", [(1, 0, 0), 0, None])
    def test_rejects_non_element_entries(self, z333, entry):
        a, b = (abelian.element(z333, x) for x in ((1, 0, 0), (0, 1, 0)))
        with pytest.raises(BadParameters,
                           match="^triple entries must be GroupElement$"):
            invariants.y_obstruction([((a, b, entry), 1)])

    def test_mixed_specs_rejected(self, z333, a4):
        t1 = ((abelian.zero(z333),) * 3, 1)
        t2 = ((abelian.zero(a4),) * 3, 1)
        with pytest.raises(GroupMismatch):
            invariants.y_obstruction([t1, t2])


class TestMoveInvarianceTriple:
    def test_triple_under_both_moves(self, d10):
        data = surface_data.make_data(d10, FIG8_L, [(1,), (3,)])
        base = invariant_triple(data)
        rng = random.Random(3)
        from util import random_move
        cur = data
        for _ in range(6):
            cur = random_move(rng, cur)
            assert surface_data.validate(cur).valid
            assert invariant_triple(cur) == base
