import random

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import abelian, classify, diagram, surface_data
from knotcolour.errors import BadParameters, BudgetExceeded, GroupMismatch
from util import (
    BAD_BUDGETS, FIG8_L, TREFOIL_L, backtrack_colourings, construction_spy)

TREFOIL_L_PD = ((-1, (0, 1, 2, 1)), (-1, (1, 2, 0, 2)), (-1, (2, 0, 1, 0)))
TREFOIL_R_PD = ((1, (1, 0, 2, 0)), (1, (0, 2, 1, 2)), (1, (2, 1, 0, 1)))
FIG8_L_PD = ((1, (1, 0, 3, 0)), (-1, (0, 2, 1, 2)),
             (1, (2, 3, 0, 3)), (-1, (3, 1, 2, 1)))


class TestDiagram:
    def test_construction(self):
        d = diagram.Diagram(TREFOIL_L_PD, 0)
        assert d.arcs == (0, 1, 2)
        assert d.crossings == TREFOIL_L_PD

    def test_rejects_bad_sign(self):
        with pytest.raises(BadParameters):
            diagram.Diagram(((2, (0, 1, 2, 1)),) + TREFOIL_L_PD[1:], 0)

    def test_rejects_short_crossing(self):
        with pytest.raises(BadParameters):
            diagram.Diagram(((-1, (0, 1, 2)),), 0)

    def test_rejects_mismatched_over_slots(self):
        bad = ((-1, (0, 1, 2, 2)),) + TREFOIL_L_PD[1:]
        with pytest.raises(BadParameters):
            diagram.Diagram(bad, 0)

    def test_rejects_dangling_arc(self):
        # arc 1 is over-only: zero under-strand endpoints
        with pytest.raises(BadParameters):
            diagram.Diagram(((1, (0, 1, 0, 1)), (1, (2, 1, 2, 1))), 0)

    def test_rejects_open_strand(self):
        with pytest.raises(BadParameters):
            diagram.Diagram(((1, (0, 1, 2, 1)),), 0)

    def test_rejects_non_integer_arc_ids(self):
        bad = ((-1, (0.2, 1, 2, 1)),) + TREFOIL_L_PD[1:]
        with pytest.raises(BadParameters):
            diagram.Diagram(bad, 0)

    @pytest.mark.parametrize("base", [True, 1.0])
    def test_rejects_non_integer_base(self, base):
        with pytest.raises(BadParameters):
            diagram.Diagram(TREFOIL_L_PD, base)

    def test_rejects_bool_sign(self):
        with pytest.raises(BadParameters):
            diagram.Diagram(((True, (1, 0, 2, 0)),) + TREFOIL_R_PD[1:], 0)

    def test_rejects_foreign_base(self):
        with pytest.raises(BadParameters):
            diagram.Diagram(TREFOIL_L_PD, 7)

    def test_rejects_split_link(self):
        """Two disjoint trefoils: as many crossings as arcs, every arc
        with two under-strand ends, but two components."""
        other = tuple((s, tuple(a + 3 for a in arcs))
                      for s, arcs in TREFOIL_L_PD)
        with pytest.raises(BadParameters,
                           match="meets 3 of 6 arcs; not a one-component"):
            diagram.Diagram(TREFOIL_L_PD + other, 0)


class TestQuandleOp:
    def test_a4_multiplication_table(self, a4):
        a, b, c, d = (abelian.element(a4, t)
                      for t in ((0, 0), (1, 0), (0, 1), (1, 1)))
        table = {(x.coords, y.coords):
                 diagram.quandle_op(x, y, a4).coords
                 for x in (a, b, c, d) for y in (a, b, c, d)}
        rows = {
            a.coords: (a, d, b, c),
            b.coords: (c, b, d, a),
            c.coords: (d, a, c, b),
            d.coords: (b, c, a, d),
        }
        for x in (a, b, c, d):
            for y, want in zip((a, b, c, d), rows[x.coords]):
                assert table[(x.coords, y.coords)] == want.coords

    def test_idempotent_and_invertible(self, d10):
        elems = abelian.elements(d10)
        for x in elems:
            assert diagram.quandle_op(x, x, d10) == x
            for y in elems:
                z = diagram.quandle_op(x, y, d10)
                assert diagram.quandle_op_inverse(z, y, d10) == x

    def test_right_distributivity(self, a4):
        elems = abelian.elements(a4)
        op = lambda x, y: diagram.quandle_op(x, y, a4)
        for x in elems:
            for y in elems:
                for z in elems:
                    assert op(op(x, y), z) == op(op(x, z), op(y, z))

    def test_rejects_foreign_elements(self, d6, a4):
        x = abelian.element(d6, (1,))
        y = abelian.element(a4, (1, 0))
        with pytest.raises(GroupMismatch):
            diagram.quandle_op(x, y, a4)
        with pytest.raises(GroupMismatch):
            diagram.quandle_op_inverse(y, y, d6)


class TestBraidClosure:
    def test_left_trefoil(self):
        d = diagram.braid_closure((-1, -1, -1), 2)
        assert d.crossings == TREFOIL_L_PD
        assert d.base_arc == 0

    def test_right_trefoil(self):
        d = diagram.braid_closure((1, 1, 1), 2)
        assert d.crossings == TREFOIL_R_PD

    def test_left_figure_eight(self):
        d = diagram.braid_closure((1, -2, 1, -2), 3)
        assert d.crossings == FIG8_L_PD

    def test_rejects_bad_words(self):
        with pytest.raises(BadParameters):
            diagram.braid_closure((1,), 1)
        with pytest.raises(BadParameters):
            diagram.braid_closure((1, 0), 2)
        with pytest.raises(BadParameters):
            diagram.braid_closure((2,), 2)
        with pytest.raises(BadParameters):
            diagram.braid_closure(("a",), 2)

    def test_rejects_bool_letters(self):
        with pytest.raises(BadParameters):
            diagram.braid_closure((True, 1, 1), 2)

    @pytest.mark.parametrize("word", [(1, 1), (1, 1, 1, 1)])
    def test_rejects_links(self, word):
        """The Hopf link and the (2, 4) torus link close to two
        components."""
        with pytest.raises(BadParameters,
                           match="not a one-component diagram$"):
            diagram.braid_closure(word, 2)

    def test_builds_exactly_the_knot_words(self):
        """A braid word closes to a diagram exactly when its permutation
        is one cycle (the closure is a knot); every link word raises."""
        seen = set()

        @settings(deadline=None, max_examples=150, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            strands = rng.choice((2, 3, 4))
            word = [rng.choice((1, -1)) * rng.randrange(1, strands)
                    for _ in range(rng.randrange(1, 8))]
            perm = list(range(strands))
            for letter in word:
                i = abs(letter) - 1
                perm[i], perm[i + 1] = perm[i + 1], perm[i]
            cycle, p = 1, perm[0]
            while p != 0:
                cycle, p = cycle + 1, perm[p]
            knot = cycle == strands
            try:
                diagram.braid_closure(word, strands)
                built = True
            except BadParameters:
                built = False
            assert built == knot, word
            seen.add(knot)

        check()
        assert seen == {True, False}


class TestCatalog:
    def test_names(self):
        assert sorted(diagram.catalog()) == sorted([
            "unknot", "3_1^l", "3_1^r", "4_1^l", "4_1^r",
            "3_1^l#3_1^l", "3_1^l#4_1^l", "3_1^l#4_1^r", "4_1^l#4_1^r"])

    def test_cached(self):
        assert diagram.catalog() is diagram.catalog()

    def test_every_entry_validates(self):
        for d in diagram.catalog().values():
            assert d.base_arc in d.arcs


class TestEnumerate:
    def test_unknot_has_no_surjective_colourings(self, d6, a4):
        unknot = diagram.catalog()["unknot"]
        assert diagram.enumerate_diagram_colourings(unknot, d6) == []
        assert diagram.enumerate_diagram_colourings(unknot, a4) == []

    def test_trefoil_over_d6(self, d6):
        cols = diagram.enumerate_diagram_colourings(
            diagram.catalog()["3_1^l"], d6)
        got = [{k: v.coords for k, v in c.labels.items()} for c in cols]
        assert got == [{0: (0,), 1: (1,), 2: (2,)},
                       {0: (0,), 1: (2,), 2: (1,)}]

    def test_counts_match_surface_counts(self, d6, d10, a4):
        cat = diagram.catalog()
        want = {
            ("3_1^l", "d6"): 2, ("3_1^r", "d6"): 2,
            ("4_1^l", "d6"): 0, ("4_1^r", "d6"): 0,
            ("3_1^l", "d10"): 0, ("3_1^r", "d10"): 0,
            ("4_1^l", "d10"): 4, ("4_1^r", "d10"): 4,
            ("3_1^l", "a4"): 3, ("3_1^r", "a4"): 3,
            ("4_1^l", "a4"): 3, ("4_1^r", "a4"): 3,
        }
        specs = {"d6": d6, "d10": d10, "a4": a4}
        for (name, gname), count in want.items():
            cols = diagram.enumerate_diagram_colourings(
                cat[name], specs[gname])
            assert len(cols) == count, (name, gname)

    def test_connect_sums_match_surface_data(self, a4):
        cat = diagram.catalog()
        by_name = {e.name: e.data
                   for e in classify.a4_representatives().entries}
        for name in ("3_1^l#3_1^l", "3_1^l#4_1^l",
                     "3_1^l#4_1^r", "4_1^l#4_1^r"):
            dcount = len(diagram.enumerate_diagram_colourings(cat[name], a4))
            scount = len(surface_data.enumerate_colourings(
                by_name[name].matrix, a4))
            assert dcount == scount == 15

    def test_granny_over_d6(self, d6):
        cols = diagram.enumerate_diagram_colourings(
            diagram.catalog()["3_1^l#3_1^l"], d6)
        assert len(cols) == 8

    def test_budget(self, d6):
        with pytest.raises(BudgetExceeded):
            diagram.enumerate_diagram_colourings(
                diagram.catalog()["3_1^l"], d6, budget=2)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_rejects_untyped_budget(self, d6, budget):
        with pytest.raises(BadParameters, match="budget must be an integer"):
            diagram.enumerate_diagram_colourings(
                diagram.catalog()["3_1^l"], d6, budget=budget)

    def test_budget_bounds_solutions(self, d6):
        # the crossing relations of 3_1 over D6 have 3 solutions, of
        # which the 2 non-constant ones generate
        cols = diagram.enumerate_diagram_colourings(
            diagram.catalog()["3_1^l"], d6, budget=3)
        assert len(cols) == 2

    def test_sum_beyond_ambient_size(self, c2_35):
        # 15^6 labellings of the free arcs, far past the default budget
        zeros = [(0, 0), (0, 0)]
        surf = surface_data.connect_sum(
            surface_data.make_data(c2_35, TREFOIL_L, zeros),
            surface_data.make_data(c2_35, FIG8_L, zeros)).matrix
        d = diagram.catalog()["3_1^l#4_1^l"]
        assert 15 ** (len(d.arcs) - 1) > 10 ** 7
        dcount = len(diagram.enumerate_diagram_colourings(d, c2_35))
        scount = len(surface_data.enumerate_colourings(surf, c2_35))
        assert dcount == scount == 8

    def test_matches_backtracking_oracle(self, d6, d10, a4, c2_33, c3_55,
                                         c7_222):
        """Short random braid closures over six groups agree with the
        backtracking search, colourings and order included. The actions
        of C3(Z5)^2 and C7(Z2)^3 are not symmetric, so they tell N from
        N^T."""
        specs = (d6, d10, a4, c2_33, c3_55, c7_222)
        seen = set()

        @settings(deadline=None, max_examples=60, derandomize=True)
        @given(st.integers(0, 10 ** 6))
        def check(seed):
            rng = random.Random(seed)
            strands = rng.choice((2, 3))
            while True:
                word = [rng.choice((1, -1)) * rng.randrange(1, strands)
                        for _ in range(rng.randrange(1, 7))]
                perm = list(range(strands))
                for letter in word:
                    i = abs(letter) - 1
                    perm[i], perm[i + 1] = perm[i + 1], perm[i]
                cycle, p = 1, perm[0]
                while p != 0:
                    cycle, p = cycle + 1, perm[p]
                if cycle == strands:  # the closure is a knot
                    break
            d = diagram.braid_closure(word, strands)
            spec = rng.choice(specs)
            got = [{a: x.coords for a, x in c.labels.items()}
                   for c in diagram.enumerate_diagram_colourings(d, spec)]
            assert got == backtrack_colourings(d, spec), (word, spec)
            seen.add(bool(got))

        check()
        assert seen == {True, False}

    @pytest.mark.parametrize("name", sorted(diagram.catalog()))
    def test_catalog_matches_backtracking_in_repr(self, d6, d10, a4, name):
        """Each catalog diagram over D6, D10 and A4 gives colourings
        repr-equal to the backtracking search, built from one GroupElement
        per distinct coordinate row per call and without a Smith form."""
        d = diagram.catalog()[name]
        for spec in (d6, d10, a4):
            want = repr([diagram.QuandleColouring(
                {a: abelian.GroupElement(spec, x) for a, x in c.items()})
                for c in backtrack_colourings(d, spec)])
            with construction_spy() as (built, smith_calls):
                found = diagram.enumerate_diagram_colourings(d, spec)
            assert repr(found) == want, (name, spec)
            assert sorted(built) == sorted(
                {x.coords for c in found for x in c.labels.values()})
            assert smith_calls == []

    def test_typed_errors(self, d6):
        d = diagram.catalog()["3_1^l"]
        with pytest.raises(BadParameters, match="expected a GroupSpec"):
            diagram.enumerate_diagram_colourings(d, None)
        with pytest.raises(BadParameters, match="expected a Diagram"):
            diagram.enumerate_diagram_colourings(5, d6)

    def test_base_arc_fixed_at_zero(self, a4):
        cols = diagram.enumerate_diagram_colourings(
            diagram.catalog()["4_1^l"], a4)
        assert len(cols) == 3
        for c in cols:
            assert c.labels[0].coords == (0, 0)

    def test_crossing_relations_hold(self, d10):
        d = diagram.catalog()["4_1^l"]
        for c in diagram.enumerate_diagram_colourings(d, d10):
            for sign, (a, b, out, _) in d.crossings:
                if sign > 0:
                    want = diagram.quandle_op(c.labels[a], c.labels[b], d10)
                else:
                    want = diagram.quandle_op_inverse(
                        c.labels[a], c.labels[b], d10)
                assert c.labels[out] == want


class TestJson:
    def test_round_trip(self):
        d = diagram.catalog()["4_1^r"]
        blob = diagram.diagram_to_json(d)
        assert blob["base_arc"] == d.base_arc
        back = diagram.diagram_from_json(blob)
        assert back == d

    def test_malformed_json(self):
        with pytest.raises(BadParameters):
            diagram.diagram_from_json({"crossings": [{"sign": 1}],
                                       "base_arc": 0})
        with pytest.raises(BadParameters):
            diagram.diagram_from_json({"base_arc": 0})
        with pytest.raises(BadParameters):
            diagram.diagram_from_json({"crossings": "junk", "base_arc": 0})

    def test_json_validates_diagram(self):
        blob = {"crossings": [{"sign": 1, "arcs": [0, 1, 2, 1]}],
                "base_arc": 0}
        with pytest.raises(BadParameters):
            diagram.diagram_from_json(blob)
