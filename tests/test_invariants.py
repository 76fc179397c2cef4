import random

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import abelian, classify, invariants, surface_data
from knotcolour._intlin import (
    inverse_unimodular, mat_mul, mat_pow, mat_vec, transpose)
from knotcolour.errors import (
    BadParameters,
    BudgetExceeded,
    DivisibilityFailure,
    GroupMismatch,
    InvalidData,
    LiftFailure,
)
from test_surface_data import random_seifert
from util import (
    TREFOIL_L, FIG8_L, invariant_triple, lift_pool, move_chain, move_pool,
    odd_pool, outcome, rand_unimodular, random_group_spec, random_move,
    slow_cu,
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

    @pytest.mark.parametrize("lifts", [
        [[[1.0, 0], [0, 1]]] * 3,
        [[[1, 0], [0]]] * 3,
        [[[1, 0, 0], [0, 1]]] * 3,
        [[[True, 0], [0, 1]]] * 3,
        5, [5, 5, 5], [[5, 5]] * 3, "abc",
    ])
    def test_rejects_untyped_lifts(self, a4, lifts):
        """Each lift block is size rows of r ints: a float, a bool, a
        ragged row or a non-sequence is refused, not run or silently
        truncated."""
        data = surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)])
        with pytest.raises(BadParameters):
            invariants.su(data, lifts=lifts)

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

    def test_matches_slow_oracle(self, request):
        """structured_lift against the unbudgeted row-major search, lift
        or LiftFailure, on every fixture group and on random specs: m in
        {2, 3, 4}, rank <= 2, equal and unequal orders <= 13, from
        make_group or unvalidated. Unvalidated orders stay <= 7, since a
        spec with no lift makes the oracle try the whole box."""
        for name in FIXTURE_GROUPS:
            spec = request.getfixturevalue(name)
            assert outcome(invariants.structured_lift, spec) == \
                outcome(slow_structured_lift, spec)
        seen = set()

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
            P = mat_pow(D, 2)
            for i, n in enumerate(spec.orders):
                for j in range(spec.rank):
                    assert (D[i][j] - spec.action[i][j]) % n == 0
                    assert (P[i][j] - (i == j)) % (n * n) == 0

    def test_unequal_search_budget(self):
        """(5 * 7 * 11)^3 = 5.7e7 candidates: refused before searching."""
        spec = abelian.make_group(2, (5, 7, 11),
                                  ((-1, 0, 0), (0, -1, 0), (0, 0, -1)))
        with pytest.raises(BudgetExceeded):
            invariants.structured_lift(spec)

    def test_lift_failure_searched_once(self, c6_93, monkeypatch):
        """A LiftFailure is cached too: the second call raises the same
        error without searching again."""
        calls = []
        searched = invariants._searched_lift

        def counted(*args):
            calls.append(args)
            return searched(*args)

        monkeypatch.setattr(invariants, "_searched_lift", counted)
        invariants._lift.cache_clear()
        messages = []
        for _ in range(2):
            with pytest.raises(LiftFailure) as info:
                invariants.structured_lift(c6_93)
            messages.append(str(info.value))
        assert len(calls) == 1 and messages[0] == messages[1]

    def test_cu_reads_lift_from_m4(self, c4z5, monkeypatch):
        """cu takes no lift at m = 2 or 3, takes one at m = 4, and still
        shape-checks an nlift."""
        def refuse(spec):
            raise LiftFailure("not expected")

        d6_data = classify.metacyclic_table(2, 3, 2).entries[0].data
        c3z7_data = classify.metacyclic_table(3, 7, 2).entries[0].data
        c4z5_data = surface_data.make_data(c4z5, ((8, 0), (1, 1)),
                                           [(1,), (3,)])
        want = invariants.cu(d6_data), invariants.cu(c3z7_data)
        monkeypatch.setattr(invariants, "structured_lift", refuse)
        assert (invariants.cu(d6_data), invariants.cu(c3z7_data)) == want
        with pytest.raises(BadParameters):
            invariants.cu(d6_data, nlift=((8,), (0,)))
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

    @pytest.mark.parametrize("vlift", [
        [[1.5, 0], [0, 1]],
        [[0, 1], [1]],
        [[0, 1, 0], [1, 1]],
        [[0, False], [1, 1]],
        5, [5, 5],
    ])
    def test_rejects_untyped_vlift(self, a4, vlift):
        data = surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)])
        with pytest.raises(BadParameters):
            invariants.cu(data, vlift=vlift)

    @pytest.mark.parametrize("nlift", [
        ((1,),),
        ((0, 1), (3,)),
        ((0, 1), (3, 3), (0, 0)),
        ((0, 1.0), (3, 3)),
        5, [5, 5],
    ])
    def test_rejects_untyped_nlift(self, a4, nlift):
        data = surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)])
        with pytest.raises(BadParameters):
            invariants.cu(data, nlift=nlift)


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
        """Compare all three layers; return the su and cu outcomes."""
        assert surface_data.validate(data) == slow_validate(data)
        su_got = outcome(invariants.su, data, lifts)
        assert su_got == outcome(slow_su, data, lifts)
        cu_got = outcome(invariants.cu, data, nlift, vlift)
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
        action lift by multiples of n_i^2; one draw in five shifts the
        vector lifts by anything, which mostly breaks divisibility."""
        pool = lift_pool(d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55)
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            data = rng.choice(pool)
            spec = data.spec
            step = 1 if rng.random() < 0.2 else None

            def shift(coords):
                return [c + (step or n) * rng.randrange(-3, 4)
                        for c, n in zip(coords, spec.orders)]

            lifts = [[shift(abelian.act_pow(v, j).coords)
                      for v in data.vector] for j in range(spec.m)]
            vlift = [shift(v.coords) for v in data.vector]
            nlift = [[x + n * n * rng.randrange(-2, 3) for x in row]
                     for row, n in zip(invariants.structured_lift(spec),
                                       spec.orders)]
            got = self.assert_agree(data, lifts=lifts, vlift=vlift,
                                    nlift=nlift)
            if step is None:
                assert got == (invariants.su(data), invariants.cu(data))
            seen.update(type(x) for x in got)

        check()
        assert tuple in seen and abelian.GroupElement in seen

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
    """The two derivations in cu's docstring: at m = 3 any integer C
    congruent to the action N gives the same value, so cu reads N; at
    m >= 4 no valid datum passes the per-entry division."""

    def test_m3_any_congruent_action(self, c3z7, a4, c3_55):
        """Random move chains from m = 3 table data: cu is unchanged when
        row c of C is N's plus n_c times a random integer row (criterion
        10 shifts a structured lift by n_c^2 only), and equals the dense
        oracle under C = N."""
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
                assert invariants.cu(data, nlift=nlift) == want
            seen.add(spec)

        check()
        assert seen == {c3z7, a4, c3_55}

    def test_m5_always_fails_division(self):
        """Every valid colouring of genus-1 and genus-2 matrices over
        C5 x| Z/11 raises the oracle's DivisibilityFailure, message
        included, under the structured lift and under C = N."""
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
                for nlift in (None, spec.action):
                    got = outcome(invariants.cu, data, nlift)
                    assert got == outcome(slow_cu, data, nlift)
                    assert got[0] is DivisibilityFailure

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

    @staticmethod
    def minimal_lifts(data):
        return [[list(abelian.act_pow(v, j).coords) for v in data.vector]
                for j in range(data.spec.m)]

    def test_move_chains(self, c6_93):
        """Genus-1 colourings through lambda1/lambda2 chains: validate, su,
        s equal the oracles; su equals su on the minimal lifts; cu raises
        the oracle's LiftFailure, and under the action itself as nlift
        the oracle's DivisibilityFailure, message included."""
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
                assert su == invariants.su(data,
                                           lifts=self.minimal_lifts(data))
                assert invariants.vector_class(data) == \
                    slow_vector_class(data)
                lifted = outcome(invariants.cu, data)
                assert lifted == outcome(slow_cu, data)
                got = outcome(invariants.cu, data, nlift)
                assert got == outcome(slow_cu, data, nlift)
                seen.update((lifted[0], got[0], any(su.coords)))

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
