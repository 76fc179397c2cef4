import random

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import abelian, classify, invariants, surface_data
from knotcolour.errors import (
    BadParameters,
    DivisibilityFailure,
    GroupMismatch,
    InvalidData,
)
from test_surface_data import random_seifert
from util import (
    TREFOIL_L, FIG8_L, invariant_triple, move_chain, move_pool,
    slow_vector_class)

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
            assert invariants.su(data, lifts=lifts) == want

    def test_rejects_malformed_lifts(self, d6):
        data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
        with pytest.raises(BadParameters):
            invariants.su(data, lifts=[[[1], [2]]])

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

    def test_lift_is_structured(self, c3_55):
        from knotcolour._intlin import mat_pow
        C = invariants.structured_lift(c3_55)
        P = mat_pow([list(r) for r in C], c3_55.m)
        for i in range(2):
            for j in range(2):
                assert (P[i][j] - (1 if i == j else 0)) % 25 == 0


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
        t = classify.a4_representatives()
        rng = random.Random(11)
        for e in t.entries:
            want = e.cu
            for _ in range(5):
                vlift = [[c + o * rng.randrange(-3, 4)
                          for c, o in zip(v.coords, a4.orders)]
                         for v in e.data.vector]
                assert invariants.cu(e.data, vlift=vlift) == want

    def test_nlift_stability(self, d6):
        data = surface_data.make_data(d6, ((4, 0), (1, 1)), [(1,), (1,)])
        want = invariants.cu(data)
        C = invariants.structured_lift(d6)
        rng = random.Random(13)
        for _ in range(5):
            shifted = tuple(tuple(x + 9 * rng.randrange(-2, 3) for x in row)
                            for row in C)
            assert invariants.cu(data, nlift=shifted) == want

    def test_additive_under_connect_sum(self, a4):
        t = classify.a4_representatives()
        by_name = {e.name: e for e in t.entries}
        tre = by_name["3_1^l"]
        s = surface_data.connect_sum(tre.data, tre.data)
        assert invariants.cu(s) == abelian.add(tre.cu, tre.cu)
        assert invariants.cu(s).coords == (0, 0)

    def test_rejects_malformed_vlift(self, d6):
        data = surface_data.make_data(d6, ((4, 0), (1, 1)), [(1,), (1,)])
        with pytest.raises(BadParameters):
            invariants.cu(data, vlift=[[1]])


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


    def test_matches_slow_oracle_on_moves(self, d6, d10, a4, c2_35):
        pool = move_pool(d6, d10, a4, c2_35)

        @settings(deadline=None, max_examples=40, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            for _, out in move_chain(rng, pool, rng.randrange(7)):
                assert invariants.vector_class(out) == slow_vector_class(out)

        check()

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
