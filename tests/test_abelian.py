import gc
import importlib
import inspect
import pkgutil
import random
import time
import weakref
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

import knotcolour
from knotcolour import (
    _intlin as lin, abelian, diagram, invariants, surface_data)
from knotcolour.errors import (
    ArtifactError,
    BadParameters,
    DivisibilityFailure,
    FixedPoints,
    GroupMismatch,
    LiftFailure,
    NotOrderM,
)
from util import (
    TREFOIL_L, fresh_spec, mat_mul_spy, outcome, pair_orders,
    slow_linear_kernel, slow_mat_pow, triple_orders, wedge2_scale,
    wedge2_zero, wedge3_zero)


def closure_generates(spec, coord_tuples):
    """Brute-force oracle: walk the subgroup the tuples generate."""
    start = (0,) * spec.rank
    seen, frontier = {start}, [start]
    while frontier:
        cur = frontier.pop()
        for g in coord_tuples:
            nxt = tuple((c + d) % n for c, d, n in zip(cur, g, spec.orders))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == abelian.group_order(spec)


class TestMakeGroup:
    def test_rejects_bad_m(self):
        """make_group and GroupSpec refuse m alike, message
        included."""
        for build in (abelian.make_group, abelian.GroupSpec):
            for m in (0, -1, True, "2", 2.0):
                with pytest.raises(BadParameters) as err:
                    build(m, (3,), ((2,),))
                assert str(err.value) == \
                    f"m must be a positive integer, got {m!r}"

    def test_rejects_bad_orders(self):
        with pytest.raises(BadParameters):
            abelian.make_group(2, (), ())
        with pytest.raises(BadParameters):
            abelian.make_group(2, (1,), ((0,),))

    def test_rejects_wrong_shape(self):
        with pytest.raises(BadParameters):
            abelian.make_group(2, (3, 3), ((2, 0),))

    @pytest.mark.parametrize("action", [5, [5], ((2,), 5), "22", None])
    def test_rejects_non_sequence_action(self, action):
        """A non-sequence action or row is a BadParameters, not a bare
        TypeError."""
        with pytest.raises(BadParameters):
            abelian.make_group(2, (3,), action)

    def test_rejects_incompatible_entry(self):
        # entry (0, 1) maps a Z/2 generator into Z/4 with odd coefficient
        with pytest.raises(BadParameters):
            abelian.make_group(2, (4, 2), ((1, 1), (0, 1)))

    @pytest.mark.parametrize("m, orders, action", [
        (2, (3.7,), ((2.2,),)), (2, (3.0,), ((2,),)), (2, (3,), ((2.0,),)),
        (True, (3,), ((2,),)), (2, (3,), ((True,),)),
        (2, (3,), (("2",),)), (2.0, (3,), ((2,),))])
    def test_rejects_non_integers(self, m, orders, action):
        with pytest.raises(BadParameters):
            abelian.make_group(m, orders, action)

    def test_rejects_wrong_order(self):
        with pytest.raises(NotOrderM):
            abelian.make_group(2, (5,), ((2,),))

    def test_rejects_fixed_points(self):
        # -1 on Z/4 x Z/6 fixes (2, 0)
        with pytest.raises(FixedPoints):
            abelian.make_group(2, (4, 6), ((3, 0), (0, 5)))

    def test_action_reduced_mod_row_order(self, d6):
        spec = abelian.make_group(2, (3,), ((-1,),))
        assert spec == d6

    def test_a4_convention(self, a4):
        # column convention: act(s1) = s2, act(s2) = s1 + s2
        s1 = abelian.element(a4, (1, 0))
        s2 = abelian.element(a4, (0, 1))
        assert abelian.act(s1).coords == (0, 1)
        assert abelian.act(s2).coords == (1, 1)

    def test_accepted_actions_are_automorphisms(self):
        """Whenever GroupSpec accepts an action, its columns generate A
        (walked by the closure oracle) and N^(m-1) inverts N on A, so
        neither GroupSpec nor make_group needs an automorphism check of
        its own. Actions are drawn compatible with the orders, over ranks
        1 to 3 and m = 1..6."""
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            for _ in range(50):
                orders = tuple(rng.choice((2, 3, 4, 5, 7, 9))
                               for _ in range(rng.randrange(1, 4)))
                m, r = rng.randrange(1, 7), len(orders)
                # n_i | N_ij n_j: N_ij a multiple of n_i / gcd(n_i, n_j)
                N = [[rng.randrange(0, a, a // gcd(a, b)) for b in orders]
                     for a in orders]
                try:
                    spec = abelian.GroupSpec(m, orders, N)
                except ArtifactError:
                    continue
                cols = {tuple(row[j] for row in spec.action)
                        for j in range(r)}
                assert closure_generates(spec, cols)
                inv = lin.mat_mul(slow_mat_pow(spec.action, m - 1),
                                  spec.action)
                assert all((inv[i][j] - (i == j)) % orders[i] == 0
                           for i in range(r) for j in range(r))
                seen.add((r, m))

        check()
        assert {r for r, _ in seen} == {1, 2, 3}
        assert len({m for _, m in seen}) >= 4


class TestPowerScaling:
    """Each single power of the action is one _intlin.mat_pow: at most
    2 m.bit_length() products, each of two factors reduced mod the orders
    row by row, and well under a second at m = 6 * 10^5 and 6 * 10^6,
    where an unreduced power or one act per step grows with m."""

    def check(self, m, orders, call):
        start = time.perf_counter()
        with mat_mul_spy() as calls:
            call()
        elapsed = time.perf_counter() - start
        top = len(orders) * (max(orders) - 1) ** 2
        assert 0 < len(calls) <= 2 * m.bit_length()
        for A, B, P in calls:
            for F in (A, B):
                assert all(0 <= x < n
                           for row, n in zip(F, orders) for x in row)
            assert all(0 <= x <= top for row in P for x in row)
        assert elapsed < 0.25

    def test_make_group(self):
        m = 6 * 10 ** 6
        self.check(m, (7,), lambda: abelian.make_group(m, (7,), ((3,),)))

    def test_act_pow_quandle_inverse_and_lambda2(self):
        """Each call runs on its own fresh spec, which forms N^(m-1) once:
        a second call on that spec forms no power."""
        calls = (lambda spec, a, b, data: abelian.act_pow(a, -1),
                 lambda spec, a, b, data: diagram.quandle_op_inverse(
                     a, b, spec),
                 lambda spec, a, b, data: surface_data.lambda2(
                     data, (1, 2), 1))
        for call in calls:
            spec = abelian.make_group(6 * 10 ** 5, (7,), ((3,),))
            a, b = abelian.element(spec, (2,)), abelian.element(spec, (5,))
            args = spec, a, b, surface_data.SurfaceData(spec, TREFOIL_L,
                                                        (a, b))
            self.check(spec.m, spec.orders, lambda: call(*args))
            with mat_mul_spy() as again:
                call(*args)
            assert again == []
        # t^-1 = t^5 on Z/7 under x -> 3x: 2 -> 2 * 5 = 3
        assert abelian.act_pow(a, -1).coords == (3,)


class TestSpecHash:
    def test_hash_is_the_generated_one(self, d6, a4, c2_35):
        """The hash is the record hash of (m, orders, action), as for
        any record, and == compares the three fields, not the memo.
        GroupSpec stores lists as tuples and the action reduced mod the
        orders."""
        raws = [abelian.GroupSpec(2, (3,), ((2,),)),
                abelian.GroupSpec(2, [3], [[2]]),
                abelian.GroupSpec(2, (3,), ((5,),))]
        for spec in (d6, a4, c2_35, *raws, abelian.unsafe_spec((4, 6))):
            assert hash(spec) == hash((spec.m, spec.orders, spec.action))
        for raw in raws:
            assert raw == d6 and hash(raw) == hash(d6)
        assert len({*raws, d6}) == 1
        assert abelian.GroupSpec(2, (3,), ((1,),)) != d6
        assert abelian.GroupSpec(4, (3,), ((2,),)) != d6
        assert repr(d6) == "GroupSpec(m=2, orders=(3,), action=((2,),))"

    def test_elements_hash_their_coords(self, c7_222, monkeypatch):
        """GroupElement and the wedges hash their coordinates alone, so
        hashing one calls no GroupSpec.__hash__. Equal elements of equal
        specs built apart hash alike, and elements of unequal specs with
        equal coordinates stay apart in a set."""
        twin, other = fresh_spec(c7_222), abelian.unsafe_spec((2, 2, 2))
        xs = [cls(spec, coords) for spec in (c7_222, twin, other)
              for cls, coords in ((abelian.GroupElement, (1, 0, 1)),
                                  (abelian.WedgeElement2, (0, 1, 1)),
                                  (abelian.WedgeElement3, (1,)))]
        calls = []
        body = abelian.GroupSpec.__hash__
        monkeypatch.setattr(abelian.GroupSpec, "__hash__",
                            lambda spec: calls.append(spec) or body(spec))
        assert [hash(x) for x in xs] == [hash(x.coords) for x in xs]
        assert len(set(xs)) == 6 and set(xs[:3]) == set(xs[3:6])
        assert calls == []


class TestPerSpecMemo:
    """What su, cu and the generation test keep of a group lives in its
    spec's memo (abelian._per_spec): it goes with the spec, and an equal
    spec built apart keeps its own."""

    # (make_group arguments, a Seifert matrix with colourings over it,
    # what cu gives on its first colouring): A4, where cu runs at m = 3;
    # C4 x Z/5, whose lift exists; C6 x (Z/9 x Z/3), with no lift
    GROUPS = [((3, (2, 2), ((0, 1), (1, 1))), TREFOIL_L,
               abelian.GroupElement),
              ((4, (5,), ((2,),)), ((8, 0), (1, 1)), DivisibilityFailure),
              ((6, (9, 3), ((2, 0), (1, 2))), ((-2, -3), (-2, -2)),
               LiftFailure)]

    @staticmethod
    def run(spec, matrix):
        """Both enumerators, then validate, su and cu on the first
        colouring and on both of its lambda2 stabilisations."""
        found = surface_data.enumerate_colourings(matrix, spec)
        out = [found, diagram.enumerate_diagram_colourings(
            diagram.catalog()["3_1^l"], spec)]
        data = surface_data.SurfaceData(spec, matrix, found[0])
        for moved in (data, *(surface_data.lambda2(data, (1, 0), variant)
                              for variant in (1, 2))):
            out += [moved, surface_data.validate(moved),
                    outcome(invariants.su, moved),
                    outcome(invariants.cu, moved)]
        return out

    @pytest.mark.parametrize("group, matrix, cu", GROUPS)
    def test_spec_is_freed(self, group, matrix, cu):
        spec = abelian.make_group(*group)
        self.run(spec, matrix)
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("group, matrix, cu", GROUPS)
    def test_equal_specs_keep_apart(self, group, matrix, cu):
        first, second = (abelian.make_group(*group) for _ in range(2))
        kept = dict(second._memo)
        want = self.run(first, matrix)
        got = want[5]  # cu on the first colouring
        assert (got[0] if type(got) is tuple else type(got)) is cu
        assert second._memo == kept
        assert self.run(second, matrix) == want
        assert first._memo is not second._memo
        assert first._memo.keys() == second._memo.keys()


def test_module_caches_are_constant_tables():
    """Every module-level function of the package with a functools cache
    takes no parameters, so the only process-wide caches are constant
    tables; state keyed on an input lives on its spec (_per_spec)."""
    cached = {}
    for info in pkgutil.iter_modules(knotcolour.__path__):
        module = importlib.import_module(f"knotcolour.{info.name}")
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info"):
                cached[f"{info.name}.{name}"] = value
    assert sorted(cached) == ["classify.a4_representatives",
                              "classify.a4_spec", "diagram.catalog"]
    for name, fn in cached.items():
        assert not inspect.signature(fn).parameters, name


class TestIntTuple:
    @pytest.mark.parametrize("values", [(1, True), [2.0], (1, "2"),
                                        (None,)])
    def test_rejects_non_ints(self, values):
        with pytest.raises(BadParameters) as err:
            abelian.int_tuple(values, "row")
        assert str(err.value) == f"row must be integers, got {values!r}"

    def test_accepts_ints(self):
        assert abelian.int_tuple([3, -1, 0], "row") == (3, -1, 0)
        assert abelian.int_tuple((), "row") == ()


class TestUnsafeSpec:
    def test_identity_action(self):
        spec = abelian.unsafe_spec((4, 6))
        assert spec.orders == (4, 6)
        assert spec.action == ((1, 0), (0, 1))

    @pytest.mark.parametrize("orders", [(4.9, 6), (4.0, 6), (True, 6),
                                        (4, "6")])
    def test_rejects_non_integers(self, orders):
        with pytest.raises(BadParameters):
            abelian.unsafe_spec(orders)

    @pytest.mark.parametrize("orders", [(0, 3), (1, 3), (-4, 6), (), 5])
    def test_checks_orders_as_make_group(self, orders):
        """(0, 3) would build a spec whose elements divide by zero."""
        with pytest.raises(BadParameters):
            abelian.unsafe_spec(orders)


class TestElements:
    def test_coords_reduced(self, d10):
        assert abelian.element(d10, (7,)).coords == (2,)
        assert abelian.element(d10, (-1,)).coords == (4,)

    def test_wrong_length(self, d10):
        with pytest.raises(BadParameters):
            abelian.element(d10, (1, 2))

    @pytest.mark.parametrize("coords", [3, None, 2.5])
    def test_constructors_reject_non_sequences(self, d10, coords):
        for cls in (abelian.GroupElement, abelian.WedgeElement2,
                    abelian.WedgeElement3):
            with pytest.raises(BadParameters):
                cls(d10, coords)

    @pytest.mark.parametrize("coords", [(2.5,), (2.0,), (True,), ("1",),
                                        (None,)])
    def test_rejects_non_integers(self, d10, coords):
        with pytest.raises(BadParameters):
            abelian.element(d10, coords)

    @pytest.mark.parametrize("coords", [3, None, "1", {0: 1}])
    def test_element_rejects_non_sequences(self, d10, coords):
        with pytest.raises(BadParameters):
            abelian.element(d10, coords)

    def test_arithmetic(self, c2_35):
        a = abelian.element(c2_35, (2, 3))
        b = abelian.element(c2_35, (2, 4))
        assert abelian.add(a, b).coords == (1, 2)
        assert abelian.sub(a, b).coords == (0, 4)
        assert abelian.neg(a).coords == (1, 2)
        assert abelian.mul(7, a).coords == (2, 1)

    @pytest.mark.parametrize("coords", [(2.5,), (2.0,), (True,), ("3",),
                                        (None,)])
    def test_constructor_rejects_non_integers(self, d10, coords):
        with pytest.raises(BadParameters):
            abelian.GroupElement(d10, coords)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_mul_rejects_non_integer_scalar(self, d10, k):
        e = abelian.element(d10, (1,))
        assert abelian.mul(-3, e).coords == (2,)
        with pytest.raises(BadParameters):
            abelian.mul(k, e)

    @pytest.mark.parametrize("call", [
        lambda e: abelian.add(5, e), lambda e: abelian.add(e, (1,)),
        lambda e: abelian.sub(e, None), lambda e: abelian.sub(e.coords, e),
        lambda e: abelian.neg(5), lambda e: abelian.mul(2, (1,)),
        lambda e: abelian.act(5), lambda e: abelian.act_pow(5, 1),
        lambda e: abelian.add(wedge2_zero(e.spec), e),
    ], ids=["add_left", "add_right", "sub_right", "sub_coords", "neg",
            "mul", "act", "act_pow", "add_wedge"])
    def test_arithmetic_rejects_non_elements(self, d10, call):
        """An operand that is not a GroupElement is a BadParameters, not
        a bare AttributeError."""
        with pytest.raises(BadParameters,
                           match="^expected a GroupElement, got "):
            call(abelian.element(d10, (1,)))

    def test_mixing_specs_raises(self, d6, d10):
        with pytest.raises(GroupMismatch):
            abelian.add(abelian.zero(d6), abelian.zero(d10))

    def test_act_pow(self, c3z7):
        e = abelian.element(c3z7, (3,))
        assert abelian.act_pow(e, 1).coords == (6,)
        assert abelian.act_pow(e, 2).coords == (12 % 7,)
        assert abelian.act_pow(e, 3).coords == (3,)
        assert abelian.act_pow(e, -1) == abelian.act_pow(e, 2)

    @pytest.mark.parametrize("j", [2.5, True, "1", None])
    def test_act_pow_rejects_non_int(self, c3z7, j):
        with pytest.raises(BadParameters):
            abelian.act_pow(abelian.element(c3z7, (3,)), j)

    def test_elements_lex(self, a4):
        assert [e.coords for e in abelian.elements(a4)] == \
            [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_group_order(self, c3_55):
        assert abelian.group_order(c3_55) == 25

    def test_elements_of_rows(self, d10):
        """One element per distinct row, shared by equal rows."""
        vectors = [((1,), (7,)), ((2,), (1,)), ()]
        want = [(abelian.element(d10, (1,)), abelian.element(d10, (2,))),
                (abelian.element(d10, (2,)), abelian.element(d10, (1,))), ()]
        for given in (vectors, tuple(vectors)):
            got = abelian.elements_of_rows(d10, given)
            assert got == want
            assert got[0][0] is got[1][1]


class TestGenerates:
    def test_basis_generates(self, a4):
        assert abelian.generates([abelian.element(a4, (1, 0)),
                                  abelian.element(a4, (0, 1))])

    def test_diagonal_does_not(self, a4):
        assert not abelian.generates([abelian.element(a4, (1, 1))])

    def test_empty(self, a4):
        assert not abelian.generates([], a4)

    def test_spec_mismatch(self, d6, a4):
        with pytest.raises(GroupMismatch):
            abelian.generates([abelian.zero(d6)], a4)

    def test_smith_path_on_large_group(self):
        spec = abelian.unsafe_spec((101, 103))
        e1 = abelian.element(spec, (1, 0))
        e2 = abelian.element(spec, (0, 1))
        assert abelian.generates([e1, e2])
        assert not abelian.generates([e1])
        assert abelian.generates([abelian.element(spec, (1, 1))])

    @pytest.mark.parametrize("name", [
        "d6", "d10", "d14", "c3z7", "c4z5", "a4", "c2_33", "c2_35",
        "c3_55", "c7_222", "z46", "z333"])
    def test_matches_closure_walk(self, name, request):
        spec = request.getfixturevalue(name)
        assert abelian.group_order(spec) <= 125
        rng = random.Random(name)
        elems = abelian.elements(spec)
        seen = set()
        for _ in range(60):
            picked = [rng.choice(elems) for _ in range(rng.randrange(1, 7))]
            got = abelian.generates(picked)
            assert got == closure_generates(spec, [e.coords for e in picked])
            seen.add(got)
        assert seen == {True, False}


class TestLinearKernel:
    @pytest.mark.parametrize("P, Q", [
        (((1, 0),), ((1,),)),             # other row length
        (((1,), (0,)), ((1,),)),          # other row count
        (((1, 0), (0,)), ((1, 0), (0,))),  # one shape, but ragged
    ])
    def test_rejects_mismatched_shapes(self, d6, P, Q):
        with pytest.raises(BadParameters, match="one shape"):
            abelian.linear_kernel(P, Q, d6, 10 ** 7)

    def test_rejects_missing_spec(self):
        with pytest.raises(BadParameters, match="expected a GroupSpec"):
            abelian.linear_kernel(((1,),), ((1,),), None, 10 ** 7)

    def test_matches_brute_force(self):
        """linear_kernel equals the walk over A^n, order and row shape
        included: P and Q with 0-3 rows and 0-3 columns, square or not,
        over compatible actions of rank 1-3 on equal and mixed orders,
        each with m its order on A (an action with none is redrawn). A
        rank-0 spec does not exist: GroupSpec refuses empty orders."""
        seen = set()

        @settings(deadline=None, max_examples=200, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            r = rng.randrange(1, 4)
            if rng.randrange(2):
                orders = (rng.choice((2, 3, 4, 5)),) * r
            else:
                orders = tuple(rng.choice((2, 3, 4, 6)) for _ in range(r))
            one = tuple(map(tuple, lin.identity(r)))
            while True:
                # n_i | N_ij n_j: N_ij a multiple of n_i / gcd(n_i, n_j)
                N = tuple(tuple(rng.randrange(0, a, a // gcd(a, b))
                                for b in orders) for a in orders)
                # the powers of N up to the first repeat end at I exactly
                # when N has an order on A, which is then their count
                powers, P = [], N
                while P not in powers:
                    powers.append(P)
                    P = tuple(tuple(x % n for x in row)
                              for row, n in zip(lin.mat_mul(P, N), orders))
                if powers[-1] == one:
                    break
            spec = abelian.GroupSpec(len(powers), orders, N)
            rows, cols = rng.randrange(4), rng.randrange(4)
            while prod(orders) ** cols > 5000:
                cols -= 1
            P, Q = ([[rng.randrange(-2, 3) for _ in range(cols)]
                     for _ in range(rows)] for _ in range(2))
            want = slow_linear_kernel(P, Q, spec)
            assert abelian.linear_kernel(P, Q, spec, 10 ** 7) == want
            seen.add(("rank", r, len(set(orders)) > 1))
            seen.add(("shape", rows, cols if rows else None))

        check()
        assert {k for k in seen if k[0] == "rank"} == {
            ("rank", 1, False), ("rank", 2, False), ("rank", 2, True),
            ("rank", 3, False), ("rank", 3, True)}
        assert {k for k in seen if k[0] == "shape"} == {("shape", 0, None)} | {
            ("shape", i, j) for i in (1, 2, 3) for j in (0, 1, 2, 3)}
        with pytest.raises(BadParameters, match="orders must be nonempty"):
            abelian.GroupSpec(2, (), ())


class TestWedge:
    def test_pair_indices(self, z333):
        assert abelian.pair_indices(z333) == ((0, 1), (0, 2), (1, 2))
        assert abelian.triple_indices(z333) == ((0, 1, 2),)
        assert pair_orders(z333) == (3, 3, 3)
        assert triple_orders(z333) == (3,)

    def test_mixed_orders(self, z46):
        assert pair_orders(z46) == (2,)

    def test_antisymmetry(self, c3_55):
        a = abelian.element(c3_55, (2, 3))
        b = abelian.element(c3_55, (1, 4))
        assert abelian.wedge2(a, b) == -abelian.wedge2(b, a)
        assert abelian.wedge2(a, a).is_zero()

    @given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
    def test_bilinearity(self, flat):
        spec = abelian.unsafe_spec((3, 4))
        a = abelian.element(spec, flat[0:2])
        b = abelian.element(spec, flat[2:4])
        c = abelian.element(spec, flat[4:6])
        left = abelian.wedge2(abelian.add(a, b), c)
        assert left == abelian.wedge2(a, c) + abelian.wedge2(b, c)

    def test_wedge3_alternates(self, z333):
        a = abelian.element(z333, (1, 0, 2))
        b = abelian.element(z333, (0, 1, 1))
        c = abelian.element(z333, (2, 2, 0))
        w = abelian.wedge3(a, b, c)
        assert abelian.wedge3(b, a, c) == -w
        assert abelian.wedge3(a, b, a).is_zero()

    def test_scales(self, z333):
        a = abelian.element(z333, (1, 0, 0))
        b = abelian.element(z333, (0, 1, 0))
        w = abelian.wedge2(a, b)
        assert wedge2_scale(3, w).is_zero()
        assert wedge2_scale(2, w) == w + w

    @pytest.mark.parametrize("coords", [(1.5,), (1.0,), (True,), ("1",)])
    def test_wedge2_rejects_non_integers(self, a4, coords):
        assert abelian.WedgeElement2(a4, (3,)).coords == (1,)
        with pytest.raises(BadParameters):
            abelian.WedgeElement2(a4, coords)

    @pytest.mark.parametrize("coords", [(1.5,), (1.0,), (True,), ("1",)])
    def test_wedge3_rejects_non_integers(self, z333, coords):
        assert abelian.WedgeElement3(z333, (4,)).coords == (1,)
        with pytest.raises(BadParameters):
            abelian.WedgeElement3(z333, coords)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None])
    def test_scales_reject_non_integer_scalar(self, z333, k):
        a, b, c = (abelian.element(z333, x)
                   for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        w2, w3 = abelian.wedge2(a, b), abelian.wedge3(a, b, c)
        assert abelian.wedge3_scale(2, w3).coords == (2,)
        with pytest.raises(BadParameters):
            abelian.wedge3_scale(k, w3)
        with pytest.raises(BadParameters):
            wedge2_scale(k, w2)

    def test_scales_reject_other_degree(self):
        """A wedge of the other degree is refused, also over a rank-1
        spec where both degrees have no coordinates at all."""
        with pytest.raises(BadParameters):
            wedge2_scale(2, wedge3_zero(
                abelian.unsafe_spec((3,))))
        with pytest.raises(BadParameters):
            abelian.wedge3_scale(2, wedge2_zero(
                abelian.unsafe_spec((3, 3))))

    @pytest.mark.parametrize("w", [5, None, (1, 2)])
    def test_scales_reject_non_wedges(self, w):
        with pytest.raises(BadParameters):
            wedge2_scale(2, w)
        with pytest.raises(BadParameters):
            abelian.wedge3_scale(2, w)

    def test_wrong_coord_count(self, z333):
        with pytest.raises(BadParameters):
            abelian.WedgeElement2(z333, (1,))

    def test_spec_mismatch(self, z333, a4):
        with pytest.raises(GroupMismatch):
            wedge2_zero(z333) + wedge2_zero(a4)

    def test_degree_classes(self, z333):
        w2, w3 = wedge2_zero(z333), wedge3_zero(z333)
        assert repr(w2).startswith("WedgeElement2(spec=GroupSpec(")
        assert repr(w3).startswith("WedgeElement3(spec=GroupSpec(")
        assert w2 == abelian.WedgeElement2(z333, (3, 0, 6))
        assert hash(w2) == hash(abelian.WedgeElement2(z333, (3, 0, 6)))
        assert w3 != abelian.WedgeElement2(z333, (0, 0, 0))
        with pytest.raises(GroupMismatch):
            w2 + w3
        with pytest.raises(GroupMismatch):
            w3 + w2


class TestH3:
    def test_cyclic(self):
        for n in (3, 5, 7):
            assert abelian.h3_order((n,)) == n

    def test_rank_two(self):
        assert abelian.h3_order((2, 2)) == 8
        assert abelian.h3_order((4, 6)) == 48
        assert abelian.h3_order((3, 5)) == 15
        assert abelian.h3_order((3, 3)) == 27

    def test_rank_three(self):
        assert abelian.h3_order((2, 2, 2)) == 128

    def test_accepts_spec(self, a4):
        assert abelian.h3_order(a4) == 8

    @pytest.mark.parametrize("orders", [(0, 3), (-4, 6), (1,), (True, 3),
                                        (), 5, (2.0, 3)])
    def test_rejects_bad_orders(self, orders):
        with pytest.raises(BadParameters):
            abelian.h3_order(orders)

    @pytest.mark.parametrize("k, n", [(2.5, 5), (True, 5), ("2", 5),
                                      (2, 5.0), (2, True), (2, 0)])
    def test_additive_order_rejects(self, k, n):
        with pytest.raises(BadParameters):
            abelian.additive_order(k, n)

    def test_additive_order(self):
        assert abelian.additive_order(2, 7) == 7
        assert abelian.additive_order(0, 7) == 1
        assert abelian.additive_order(6, 9) == 3
        with pytest.raises(BadParameters):
            abelian.additive_order(1, 0)


class TestJson:
    def test_round_trip(self, c3_55):
        obj = abelian.group_to_json(c3_55)
        assert obj == {"m": 3, "orders": [5, 5], "action": [[0, 4], [1, 4]]}
        assert abelian.group_from_json(obj) == c3_55

    def test_from_json_validates(self):
        with pytest.raises(NotOrderM):
            abelian.group_from_json(
                {"m": 2, "orders": [5], "action": [[2]]})


class TestAsSpec:
    @pytest.mark.parametrize("call", [
        lambda s: abelian.element(s, (1,)), abelian.zero,
        abelian.group_order, abelian.elements, wedge2_zero, wedge3_zero,
    ], ids=["element", "zero", "group_order", "elements", "wedge2_zero",
            "wedge3_zero"])
    @pytest.mark.parametrize("spec", [5, None, (3,)])
    def test_rejects_non_specs(self, call, spec):
        """A spec argument that is not a GroupSpec is a BadParameters, not
        a bare AttributeError."""
        with pytest.raises(BadParameters, match="^expected a GroupSpec, got "):
            call(spec)
