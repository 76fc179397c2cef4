from math import gcd, lcm

import pytest

from knotcolour import abelian, classify, invariants, surface_data
from knotcolour.errors import (
    ArtifactError,
    BadParameters,
    BudgetExceeded,
    DivisibilityFailure,
    InternalInconsistency,
    InvalidData,
    NotA4,
    UnsupportedM,
)

from util import (BAD_BUDGETS, outcome, per_entry_block, slow_cu,
                  slow_structured_lift, slow_su)


class TestMetacyclic:
    def test_worked_example(self):
        t = classify.metacyclic_table(2, 3, 2)
        assert t.family == "metacyclic"
        assert len(t.entries) == 3
        e1 = t.entries[0]
        assert e1.k == 1 and e1.name == "F1"
        assert e1.data.matrix == ((4, 0), (1, 1))
        assert [v.coords for v in e1.data.vector] == [(1,), (1,)]
        assert e1.su.coords == (1,)
        assert {e.su.coords[0] for e in t.entries} == {0, 1, 2}

    def test_every_entry_validates(self):
        for m, n, xi in ((2, 3, 2), (2, 5, 4), (2, 7, 6), (3, 7, 2), (3, 7, 4)):
            t = classify.metacyclic_table(m, n, xi)
            assert len(t.entries) == n
            for e in t.entries:
                assert surface_data.validate(e.data).valid

    def test_bounds(self):
        for n in (3, 5, 7):
            t = classify.metacyclic_table(2, n, n - 1)
            assert t.upper_bound == n
            assert t.lower_bound == n
        assert classify.metacyclic_table(3, 7, 2).lower_bound == 1

    def test_m3_collapse_is_noted(self):
        t = classify.metacyclic_table(3, 7, 2)
        assert any("distinct" in note for note in t.notes)
        t = classify.metacyclic_table(2, 5, 4)
        assert not t.notes

    def test_rejects_non_unit_xi(self):
        with pytest.raises(BadParameters):
            classify.metacyclic_table(2, 3, 1)
        with pytest.raises(BadParameters):
            classify.metacyclic_table(2, 9, 3)

    def test_rejects_wrong_order(self):
        with pytest.raises(BadParameters):
            classify.metacyclic_table(2, 5, 2)

    @pytest.mark.parametrize("xi", [2.0, "2", True, None])
    def test_rejects_non_integer_xi(self, xi):
        with pytest.raises(BadParameters):
            classify.metacyclic_table(2, 3, xi)

    def test_rejects_tiny_modulus(self):
        """n = 1 fails the size check; n = 2 passes it and is refused
        only because xi or xi - 1 is even."""
        for m in (1, 2, 3):
            for xi in range(4):
                with pytest.raises(BadParameters,
                                   match=r"^need integers m >= 1, n >= 2$"):
                    classify.metacyclic_table(m, 1, xi)
                with pytest.raises(BadParameters, match=r"^xi and xi - 1 "
                                   r"must be units mod n$"):
                    classify.metacyclic_table(m, 2, xi)

    def test_m4_propagates_divisibility_failure(self):
        with pytest.raises(DivisibilityFailure):
            classify.metacyclic_table(4, 5, 2)


class TestRank2Diag:
    def test_coprime_orders(self, c2_35):
        t = classify.rank2_diag_table(2, 3, 5, 2, 4)
        assert t.group == c2_35
        assert len(t.entries) == 15
        assert all(e.name == "g2" for e in t.entries)
        assert t.upper_bound == 15
        assert t.lower_bound == (3, 5)
        assert any("no genus-1" in n for n in t.notes)
        for e in t.entries:
            assert surface_data.validate(e.data).valid
        assert len({e.su.coords for e in t.entries}) == 15

    def test_genus2_matrix_shape(self):
        t = classify.rank2_diag_table(2, 3, 5, 2, 4)
        e = next(x for x in t.entries if (x.k, x.l) == (1, 1))
        assert e.data.matrix == ((3, 1, 0, 0), (2, 0, 0, 0),
                                 (0, 0, 5, 2), (0, 0, 3, 0))
        assert [v.coords for v in e.data.vector] == \
            [(1, 0), (0, 0), (0, 1), (0, 0)]

    def test_shared_factor_orders(self, c2_33):
        t = classify.rank2_diag_table(2, 3, 3, 2, 2)
        assert t.group == c2_33
        g1 = [e for e in t.entries if e.name == "g1"]
        g2 = [e for e in t.entries if e.name == "g2"]
        assert len(g1) == 18 and len(g2) == 9
        assert t.upper_bound == 27
        want = {(1, 1): (2, 2), (1, 2): (2, 1), (1, 3): (2, 0),
                (2, 1): (1, 2), (2, 2): (1, 1), (2, 3): (1, 0),
                (3, 1): (0, 2), (3, 2): (0, 1), (3, 3): (0, 0)}
        assert {(e.k, e.l): e.su.coords for e in g2} == want
        for e in t.entries:
            assert surface_data.validate(e.data).valid

    def test_genus1_matrix_shape(self):
        t = classify.rank2_diag_table(2, 3, 3, 2, 2)
        e = next(x for x in t.entries
                 if x.name == "g1" and (x.k, x.l, x.i) == (1, 1, 1))
        assert e.data.matrix == ((3, 1), (2, 3))
        assert [v.coords for v in e.data.vector] == [(1, 0), (0, 1)]

    def test_incompatible_congruences_skip_genus1(self):
        t = classify.rank2_diag_table(3, 7, 7, 2, 2)
        assert all(e.name == "g2" for e in t.entries)
        assert len(t.entries) == 49
        assert any("no common solution" in n for n in t.notes)

    def test_non_generating_i_skipped(self):
        # gcd = 9 but i must stay a unit mod 9
        t = classify.rank2_diag_table(2, 9, 9, 8, 8)
        g1_is = {e.i for e in t.entries if e.name == "g1"}
        assert g1_is == {1, 2, 4, 5, 7, 8}
        assert any("does not generate" in n for n in t.notes)

    def test_genus1_x_is_least_crt_solution(self):
        # the benchmark's odd-order grid; coprime orders have no genus-1
        # entries
        odd = (3, 5, 7, 9, 11, 13)
        seen = 0
        for n1 in odd:
            for n2 in odd:
                if n1 * n2 > 91 or gcd(n1, n2) == 1:
                    continue
                for xi1 in range(2, n1):
                    for xi2 in range(2, n2):
                        if any(gcd(xi, n) != 1 or gcd(xi - 1, n) != 1
                               or xi * xi % n != 1
                               for xi, n in ((xi1, n1), (xi2, n2))):
                            continue
                        x1 = xi1 * pow(1 - xi1, -1, n1) % n1
                        x2 = pow(xi2 - 1, -1, n2)
                        want = min(v for v in range(lcm(n1, n2))
                                   if v % n1 == x1 and v % n2 == x2)
                        t = classify.rank2_diag_table(2, n1, n2, xi1, xi2)
                        g1 = [e for e in t.entries if e.name == "g1"]
                        assert g1
                        assert {e.data.matrix[0][1] for e in g1} == {want}
                        seen += len(g1)
        assert seen == 1006

    def test_rejects_bad_parameters(self):
        with pytest.raises(BadParameters):
            classify.rank2_diag_table(2, 3, 5, 1, 4)
        with pytest.raises(BadParameters):
            classify.rank2_diag_table(2, 3, 5, 2, 2)

    @pytest.mark.parametrize("xi1, xi2", [("2", 4), (2, 4.0), (2.0, 4.0),
                                          (2, None)])
    def test_rejects_non_integer_xi(self, xi1, xi2):
        with pytest.raises(BadParameters):
            classify.rank2_diag_table(2, 3, 5, xi1, xi2)

    @pytest.mark.parametrize("m, n1, n2", [(2.0, 3, 5), (2, 3.0, 5),
                                           (2, 3, "5"), (None, 3, 5)])
    def test_rejects_non_integer_sizes(self, m, n1, n2):
        with pytest.raises(BadParameters,
                           match="^need integers m >= 1, n1, n2 >= 2$"):
            classify.rank2_diag_table(m, n1, n2, 2, 4)


class TestRank2Nondiag:
    def test_c3_55_table(self, c3_55):
        t = classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 4)))
        assert t.group == c3_55
        g1 = [e for e in t.entries if e.name == "g1"]
        g2 = [e for e in t.entries if e.name == "g2"]
        assert len(g1) == 100 and len(g2) == 25
        assert t.upper_bound == 125
        assert t.lower_bound == 1
        for e in t.entries:
            assert surface_data.validate(e.data).valid
        row = {(e.k, e.l): e.su.coords for e in g2 if e.k == 1}
        assert row == {(1, 1): (4, 4), (1, 2): (1, 1), (1, 3): (3, 3),
                       (1, 4): (0, 0), (1, 5): (2, 2)}
        assert any("count formula" in n for n in t.notes)

    @pytest.mark.parametrize("N", [((0, 1.0), (1.9, True)),
                                   ((0, 1), (1, True))])
    def test_rejects_non_integer_action(self, N):
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(3, 2, N)

    def test_a4_companion_family(self):
        t = classify.rank2_nondiag_table(3, 2, ((0, 1), (1, 1)))
        assert len(t.entries) == 8
        assert t.upper_bound == 8
        assert t.lower_bound == 1
        triples = {(e.su.coords, e.cu.coords, e.s.coords)
                   for e in t.entries}
        assert len(triples) == 4
        by_key = {(e.k, e.l, e.name): (e.su.coords, e.cu.coords, e.s.coords)
                  for e in t.entries}
        assert by_key[(1, 1, "g1")] == ((1, 1), (1, 1), (1,))
        assert by_key[(1, 2, "g1")] == ((0, 0), (0, 0), (1,))
        assert by_key[(1, 1, "g2")] == ((0, 0), (0, 0), (0,))
        assert by_key[(1, 2, "g2")] == ((1, 1), (1, 1), (0,))

    def test_mod7_companion(self):
        t = classify.rank2_nondiag_table(3, 7, ((0, 1), (6, 6)))
        g1 = [e for e in t.entries if e.name == "g1"]
        g2 = [e for e in t.entries if e.name == "g2"]
        assert len(g1) == 294 and len(g2) == 49
        assert t.upper_bound == 343
        assert t.lower_bound == 1
        assert {e.su.coords for e in t.entries} == \
            {(j, j) for j in range(7)}
        for e in t.entries[::23]:
            assert surface_data.validate(e.data).valid

    def test_genus1_corner_congruence_always_holds(self):
        """On the N21 = -1 branch xt = (1 - N21 - N22)^-1 = (2 - N22)^-1,
        so the display's corner entry 1 - 2 xt + xt N22 = 1 - xt (2 - N22)
        vanishes mod n for every admissible (n, N22)."""
        reached = 0
        for n in range(2, 200):
            n21 = n - 1
            for n22 in range(n):
                if gcd((1 - n21 - n22) % n, n) != 1:
                    continue
                xt = pow(1 - n21 - n22, -1, n)
                assert (1 - 2 * xt + xt * n22) % n == 0
                reached += 1
        assert reached == 12151

    def test_rejects_non_companion(self):
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(3, 5, ((1, 0), (0, 1)))
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(3, 5, ((0, 1, 0), (4, 4, 0)))

    @pytest.mark.parametrize("N", [7, None, ((0, 1), 4), ((0, 1), (4.0, 4))])
    def test_rejects_malformed_n(self, N):
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(3, 5, N)

    def test_rejects_non_unit_parameters(self):
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(3, 6, ((0, 1), (3, 4)))
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 2)))

    def test_rejects_wrong_order_action(self):
        with pytest.raises(BadParameters):
            classify.rank2_nondiag_table(2, 5, ((0, 1), (4, 4)))

    def test_m4_rotation_propagates_divisibility_failure(self):
        with pytest.raises(DivisibilityFailure):
            classify.rank2_nondiag_table(4, 5, ((0, 1), (4, 0)))

    @pytest.mark.parametrize("N", [7, None, ((0, 1),), ((0, 1), 4),
                                   ((0, 1), (4, 4, 0)), ((0, 1), (4.0, 4))])
    def test_lower_bound_rejects_malformed_n(self, N):
        """The table's sequence and 2x2 check, with its messages."""
        got = outcome(classify.nondiag_lower_bound, 3, 5, N)
        assert got[0] is BadParameters
        assert got == outcome(classify.rank2_nondiag_table, 3, 5, N)

    @pytest.mark.parametrize("n", [0, -5, 5.0, True, "5", None])
    def test_lower_bound_rejects_bad_n(self, n):
        """n is checked before N is reduced mod n: 0 was a bare
        ZeroDivisionError, and 5.0 named the wrong argument."""
        with pytest.raises(BadParameters) as err:
            classify.nondiag_lower_bound(3, n, ((0, 1), (4, 4)))
        assert str(err.value) == f"n must be a positive integer, got {n!r}"
        with pytest.raises(BadParameters, match="^n must be"):
            classify.nondiag_lower_bound(3, n, "not a matrix")
        with pytest.raises(UnsupportedM):
            classify.nondiag_lower_bound(2, n, ((0, 1), (4, 4)))

    @pytest.mark.parametrize("m, n", [(3.0, 5), (3, 5.0), ("3", 5),
                                      (3, None)])
    def test_rejects_non_integer_sizes(self, m, n):
        with pytest.raises(BadParameters,
                           match="^need integers m >= 1, n >= 2$"):
            classify.rank2_nondiag_table(m, n, ((0, 1), (4, 4)))

    def test_tables_only_at_m3_with_both_minus_one(self):
        """Over n = 2..8, m = 1..6 and every (N21, N22), a table comes
        back exactly for m = 3 with N21 = N22 = -1 mod n, and then with
        genus-1 classes and a proven lower bound; every other case
        raises an ArtifactError (the derivation is in the docstring)."""
        tables = []
        for n in range(2, 9):
            for m in range(1, 7):
                for n21 in range(n):
                    for n22 in range(n):
                        try:
                            t = classify.rank2_nondiag_table(
                                m, n, ((0, 1), (n21, n22)))
                        except ArtifactError:
                            continue
                        assert m == 3 and n21 == n22 == n - 1
                        assert any(e.name == "g1" for e in t.entries)
                        assert type(t.lower_bound) is int
                        tables.append(n)
        # then 1 - N21 - N22 = 3, which must be a unit mod n
        assert tables == [n for n in range(2, 9) if n % 3]

    def test_lower_bound_wants_m3(self):
        assert classify.nondiag_lower_bound(3, 5, ((0, 1), (4, 4))) == 1
        assert classify.nondiag_lower_bound(3, 7, ((0, 1), (6, 6))) == 1
        with pytest.raises(UnsupportedM):
            classify.nondiag_lower_bound(2, 5, ((0, 1), (4, 4)))


class TestBudget:
    @pytest.mark.parametrize("build, params, count", [
        (classify.metacyclic_table, (2, 5, 4), 5),
        (classify.rank2_diag_table, (2, 3, 3, 2, 2), 27),
        (classify.rank2_diag_table, (3, 7, 7, 2, 2), 49),
        (classify.rank2_nondiag_table, (3, 7, ((0, 1), (6, 6))), 343),
    ])
    def test_entry_count_against_budget(self, build, params, count,
                                        monkeypatch):
        assert len(build(*params, budget=count).entries) == count

        def no_entries(*args):
            raise AssertionError("an entry was built")

        monkeypatch.setattr(classify, "_entry", no_entries)
        with pytest.raises(BudgetExceeded,
                           match=f"{count} table entries exceed budget"):
            build(*params, budget=count - 1)

    @pytest.mark.parametrize("n", [5, 10 ** 14 + 31])
    def test_metacyclic_budget_before_group(self, n, monkeypatch):
        """A refusing budget never builds the group: make_group runs a
        generation test that factors n, and at rank 1 it cannot fail once
        the builder's own checks pass."""
        def no_group(*args):
            raise AssertionError("the group was built")

        monkeypatch.setattr(abelian, "make_group", no_group)
        with pytest.raises(BudgetExceeded,
                           match=f"{n} table entries exceed budget 1"):
            classify.metacyclic_table(2, n, -1, budget=1)

    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    @pytest.mark.parametrize("build, params", [
        (classify.metacyclic_table, (3, 7, 2)),
        (classify.rank2_diag_table, (2, 3, 3, 2, 2)),
        (classify.rank2_nondiag_table, (3, 5, ((0, 1), (4, 4)))),
    ])
    def test_rejects_untyped_budget(self, build, params, budget):
        with pytest.raises(BadParameters, match="budget must be an integer"):
            build(*params, budget=budget)

    def test_default_budget(self):
        # 10^7 + 1 entries; none is built
        with pytest.raises(BudgetExceeded):
            classify.metacyclic_table(2, 10 ** 7 + 1, 10 ** 7)


# every family at m = 2 and 3, genus-1 and genus-2 blocks, and the
# non-diagonal family over n = 2, 4 and 5
AFFINE_CASES = [
    (classify.metacyclic_table, (2, 7, 6)),
    (classify.metacyclic_table, (3, 7, 2)),
    (classify.rank2_diag_table, (2, 3, 3, 2, 2)),
    (classify.rank2_diag_table, (3, 7, 7, 2, 4)),
    (classify.rank2_nondiag_table, (3, 2, ((0, 1), (1, 1)))),
    (classify.rank2_nondiag_table, (3, 4, ((0, 1), (3, 3)))),
    (classify.rank2_nondiag_table, (3, 5, ((0, 1), (4, 4)))),
]


def _units(m, n):
    # the admissible xi mod n: xi and xi - 1 units, xi^m = 1
    return [xi for xi in range(2, n)
            if gcd(xi, n) == gcd(xi - 1, n) == 1 and pow(xi, m, n) == 1]


# every admissible metacyclic (m, n, xi), m in {2, 3} and n <= 13, and
# rank2diag (m, n1, n2, xi1, xi2), n1, n2 <= 7 (only n1 = n2 can give
# genus-1 blocks); rank2nondiag at m = 3 needs N21 = N22 = -1 and 3
# prime to n
SWEEP_CASES = [case for case in [
    *((classify.metacyclic_table, (m, n, xi))
      for m in (2, 3) for n in range(2, 14) for xi in _units(m, n)),
    *((classify.rank2_diag_table, (m, n1, n2, xi1, xi2))
      for m in (2, 3) for n1 in range(2, 8) for n2 in range(2, 8)
      for xi1 in _units(m, n1) for xi2 in _units(m, n2)),
    *((classify.rank2_nondiag_table, (3, n, ((0, 1), (n - 1, n - 1))))
      for n in (2, 4, 5, 7)),
] if case not in AFFINE_CASES]

M4_CASES = [
    (classify.metacyclic_table, (4, 5, 2)),
    (classify.rank2_nondiag_table, (4, 5, ((0, 1), (4, 0)))),
]


def case_id(case):
    return f"{case[0].__name__}{case[1]}"


class TestAffineBuild:
    """The table builders evaluate su and cu at three samples per block
    and derive the other entries by affinity in (k, l); these checks
    rebuild every entry independently."""

    @pytest.mark.parametrize("case", AFFINE_CASES, ids=case_id)
    def test_entries_match_oracles(self, case):
        build, params = case
        t = build(*params)
        names = {e.name for e in t.entries}
        assert "F1" in names or {"g1", "g2"} <= names
        C = slow_structured_lift(t.group)
        for e in t.entries:
            data = surface_data.SurfaceData(t.group, e.data.matrix,
                                            e.data.vector)
            assert surface_data.validate(data).valid
            got = (e.su, e.cu, e.s)
            assert got == (invariants.su(data), invariants.cu(data),
                           invariants.vector_class(data))
            assert (e.su, e.cu) == (slow_su(data), slow_cu(data, C))

    @pytest.mark.parametrize("case", AFFINE_CASES + SWEEP_CASES, ids=case_id)
    def test_matches_per_entry_build(self, case, monkeypatch):
        """The table equals the per-entry build's, repr for repr: entry by
        entry, so a failure names the first differing (k, l, i, name) at
        once instead of diffing two long reprs, then the other fields."""
        build, params = case
        got = build(*params)
        monkeypatch.setattr(classify, "_block", per_entry_block)
        want = build(*params)
        assert len(got.entries) == len(want.entries)
        for e, f in zip(got.entries, want.entries):
            if repr(e) != repr(f):
                pytest.fail(f"first differing entry {(f.k, f.l, f.i, f.name)}")
        for name in got._fields:
            if name != "entries":
                assert repr(getattr(got, name)) == repr(getattr(want, name))

    def test_every_entry_is_validated(self, monkeypatch):
        """validate runs once on every entry, derived ones included, and
        a derived entry that fails it raises InternalInconsistency."""
        validate = surface_data.validate
        seen = []

        def counting(data):
            seen.append(data)
            return validate(data)

        monkeypatch.setattr(surface_data, "validate", counting)
        t = classify.rank2_diag_table(2, 3, 5, 2, 4)
        assert sorted(map(id, seen)) == sorted(id(e.data) for e in t.entries)

        last = t.entries[-1].data.matrix

        def failing(data):
            if data.matrix == last:
                return surface_data.ValidationReport(True, False, True, False)
            return validate(data)

        monkeypatch.setattr(surface_data, "validate", failing)
        with pytest.raises(InternalInconsistency,
                           match="family entry g2 failed validation"):
            classify.rank2_diag_table(2, 3, 5, 2, 4)

    @pytest.mark.parametrize("case", M4_CASES, ids=case_id)
    def test_m4_failure_matches_first_entry(self, case, monkeypatch):
        """The per-entry path fails at the first entry; the affine build
        raises the same error type and message."""
        build, params = case
        got = outcome(build, *params)
        assert got[0] is DivisibilityFailure
        monkeypatch.setattr(classify, "_block", per_entry_block)
        assert outcome(build, *params) == got
        monkeypatch.setattr(
            classify, "_block",
            lambda spec, name, i, coords, matrix_at, rows, cols=None:
            per_entry_block(spec, name, i, coords, matrix_at, 1,
                            1 if cols else None))
        assert outcome(build, *params) == got

    @pytest.mark.parametrize("case", AFFINE_CASES, ids=case_id)
    def test_products_only_at_samples(self, case, monkeypatch):
        """A derived entry, certified affine with symmetric steps, takes
        the first sample's report, so the product pair (MX, M^T X) is
        formed only for the samples: 3 per block with columns, 2
        without."""
        build, params = case
        pair = surface_data._product_pair
        calls = []
        monkeypatch.setattr(surface_data, "_product_pair",
                            lambda M, X: calls.append(M) or pair(M, X))
        t = build(*params)
        blocks = sum(e.k == 1 and e.l in (None, 1) for e in t.entries)
        per_block = 2 if t.family == "metacyclic" else 3
        assert len(calls) == per_block * blocks
        assert set(calls) <= {e.data.matrix for e in t.entries}

    def test_derived_failure_is_seen(self, c2_35):
        """A matrix_at that breaks the colouring equation on one derived
        entry (1 added to a diagonal entry keeps M - M^T) makes the block
        raise, with no mocking."""

        def bumped_at(point):
            return lambda k, l: ((3 * k + ((k, l) == point), 1, 0, 0),
                                 (2, 0, 0, 0), (0, 0, 5 * l, 2),
                                 (0, 0, 3, 0))

        coords = ((1, 0), (0, 0), (0, 1), (0, 0))
        assert len(classify._block(c2_35, "g2", None, coords,
                                   bumped_at(None), 3, 5)) == 15
        with pytest.raises(InternalInconsistency,
                           match="family entry g2 failed validation"):
            classify._block(c2_35, "g2", None, coords, bumped_at((2, 4)),
                            3, 5)

    @pytest.mark.parametrize("case", AFFINE_CASES, ids=case_id)
    def test_reports_match_fresh_validation(self, case):
        """Each entry's report, a derived entry's taken from its block's
        first sample, is the one a fresh datum of its matrix and vector
        validates to."""
        build, params = case
        for e in build(*params).entries:
            fresh = surface_data.SurfaceData(e.data.spec, e.data.matrix,
                                             e.data.vector)
            assert surface_data.validate(e.data) == \
                surface_data._validate(fresh)

    def test_valid_non_affine_entry_raises(self, c2_35):
        """3 added to M_00 at (3, 2) only keeps the entry valid (it is
        the (4, 2) matrix of the same family) and M - M^T, but takes it
        off the affine law, and its su off the derived value: the block
        refuses it rather than record that value."""

        def matrix_at(k, l, bumped=(3, 2)):
            return ((3 * k + 3 * ((k, l) == bumped), 1, 0, 0),
                    (2, 0, 0, 0), (0, 0, 5 * l, 2), (0, 0, 3, 0))

        coords = ((1, 0), (0, 0), (0, 1), (0, 0))
        odd = surface_data.make_data(c2_35, matrix_at(3, 2), coords)
        assert surface_data.validate(odd).valid
        affine = classify._block(c2_35, "g2", None, coords,
                                 lambda k, l: matrix_at(k, l, None), 3, 5)
        assert (affine[11].k, affine[11].l) == (3, 2)
        assert invariants.su(odd) != affine[11].su
        with pytest.raises(InternalInconsistency,
                           match="family entry g2 failed validation"):
            classify._block(c2_35, "g2", None, coords, matrix_at, 3, 5)

    def test_asymmetric_step_raises(self, a4):
        """A k-step of 2 in M_01 alone, over the m = 3, n = 2 companion
        spec, keeps the three samples valid with det(M - M^T) = 1, but
        gives det(M - M^T) = 9 at k = 3: the block refuses its derived
        entries."""

        def matrix_at(k, l):
            return ((1 + 2 * k, 2 * k - 3), (0, 1 + 2 * l))

        coords = ((1, 0), (0, 1))
        for k, l in ((1, 1), (1, 2), (2, 1)):
            data = surface_data.make_data(a4, matrix_at(k, l), coords)
            assert surface_data.validate(data).valid
        with pytest.raises(BadParameters, match=r"det\(M - M\^T\) = 9"):
            surface_data.make_data(a4, matrix_at(3, 1), coords)
        with pytest.raises(InternalInconsistency,
                           match="family entry g1 failed validation"):
            classify._block(a4, "g1", 1, coords, matrix_at, 3, 2)

    @pytest.mark.parametrize("case", AFFINE_CASES, ids=case_id)
    def test_full_path_once_per_block(self, case, monkeypatch):
        """Only the first sample of a block runs the constructor's
        Seifert check and vector_class: the later samples share its
        M - M^T, so they are built on its checked coordinate rows and
        take its s."""
        seifert, vector_class = (surface_data._check_seifert,
                                 invariants.vector_class)
        checked, classes = [], []
        monkeypatch.setattr(
            surface_data, "_check_seifert",
            lambda M, *args: checked.append(M) or seifert(M, *args))
        monkeypatch.setattr(invariants, "vector_class",
                            lambda d: classes.append(d) or vector_class(d))
        build, params = case
        t = build(*params)
        blocks = sum(e.k == 1 and e.l in (None, 1) for e in t.entries)
        assert len(checked) == len(classes) == blocks
        assert {e.s for e in t.entries} <= {vector_class(d) for d in classes}

    @pytest.mark.parametrize("cols", [None, 2])
    def test_unlike_sample_takes_full_path(self, a4, cols, monkeypatch):
        """A sample whose M - M^T differs from the first sample's, here
        with det(M - M^T) = 4, goes through the constructor and raises the
        per-entry error and message; a sample that shares it does not."""

        def matrix_at(k, l):
            return ((1 + 2 * k, 3 * k - 4), (0, 1 + 2 * (l or 1)))

        coords = ((1, 0), (0, 1))
        want = outcome(per_entry_block, a4, "g1", 1, coords, matrix_at, 3,
                       cols)
        assert want == (BadParameters, "det(M - M^T) = 4, expected 1")
        seifert, checked = surface_data._check_seifert, []
        monkeypatch.setattr(
            surface_data, "_check_seifert",
            lambda M, *args: checked.append(M) or seifert(M, *args))
        assert outcome(classify._block, a4, "g1", 1, coords, matrix_at, 3,
                       cols) == want
        assert checked == [matrix_at(1, 1), matrix_at(2, 1)]

    @pytest.mark.parametrize("case", AFFINE_CASES, ids=case_id)
    def test_pair_note_counts_records(self, case):
        """_table counts the (s, su) pairs by coordinate tuples; the note
        agrees with a count by record equality, which also compares the
        specs."""
        build, params = case
        for t in (build(*params), classify.a4_representatives()):
            pairs = len(set((e.s, e.su) for e in t.entries))
            notes = [n for n in t.notes if "distinct (s, su) pairs" in n]
            want = [] if pairs == len(t.entries) else [
                f"only {pairs} distinct (s, su) pairs among "
                f"{len(t.entries)} entries"]
            assert notes == want


class TestA4Representatives:
    def test_table_shape(self, a4):
        t = classify.a4_representatives()
        assert t.family == "a4"
        assert t.group == a4
        assert [e.name for e in t.entries] == \
            ["3_1^l", "3_1^r", "4_1^l", "4_1^r", "3_1^l#3_1^l",
             "3_1^l#4_1^l", "3_1^l#4_1^r", "4_1^l#4_1^r"]
        assert t.upper_bound == 8
        assert t.lower_bound == 2

    def test_base_matrices_and_vectors(self):
        t = classify.a4_representatives()
        by_name = {e.name: e for e in t.entries}
        assert by_name["3_1^l"].data.matrix == ((-1, 1), (0, -1))
        assert by_name["3_1^r"].data.matrix == ((1, 0), (-1, 1))
        assert by_name["4_1^l"].data.matrix == ((1, 1), (0, -1))
        assert by_name["4_1^r"].data.matrix == ((-1, 0), (-1, 1))
        assert [v.coords for v in by_name["3_1^l"].data.vector] == \
            [(0, 1), (1, 1)]
        assert [v.coords for v in by_name["4_1^l"].data.vector] == \
            [(0, 1), (1, 1)]

    def test_invariants_frozen(self):
        t = classify.a4_representatives()
        got = {e.name: (e.s.coords, e.su.coords, e.cu.coords)
               for e in t.entries}
        assert got == {
            "3_1^l": ((1,), (1, 1), (1, 1)),
            "3_1^r": ((1,), (1, 1), (1, 1)),
            "4_1^l": ((1,), (0, 0), (0, 0)),
            "4_1^r": ((1,), (0, 0), (0, 0)),
            "3_1^l#3_1^l": ((0,), (0, 0), (0, 0)),
            "3_1^l#4_1^l": ((0,), (1, 1), (1, 1)),
            "3_1^l#4_1^r": ((0,), (1, 1), (1, 1)),
            "4_1^l#4_1^r": ((0,), (0, 0), (0, 0)),
        }

    def test_every_entry_validates(self):
        t = classify.a4_representatives()
        for e in t.entries:
            assert surface_data.validate(e.data).valid

    def test_cu_takes_two_values(self):
        t = classify.a4_representatives()
        assert {e.cu.coords for e in t.entries} == {(0, 0), (1, 1)}


class TestA4Class:
    def test_base_classes(self):
        t = classify.a4_representatives()
        by_name = {e.name: e.data for e in t.entries}
        assert classify.a4_class(by_name["3_1^l"]) == classify.TREFOIL_CLASS
        assert classify.a4_class(by_name["3_1^r"]) == classify.TREFOIL_CLASS
        assert classify.a4_class(by_name["4_1^l"]) == classify.FIGURE8_CLASS
        assert classify.a4_class(by_name["4_1^r"]) == classify.FIGURE8_CLASS

    def test_sum_classes_follow_group_law(self):
        t = classify.a4_representatives()
        by_name = {e.name: e.data for e in t.entries}
        assert classify.a4_class(by_name["3_1^l#3_1^l"]) == \
            classify.FIGURE8_CLASS
        assert classify.a4_class(by_name["3_1^l#4_1^l"]) == \
            classify.TREFOIL_CLASS
        assert classify.a4_class(by_name["3_1^l#4_1^r"]) == \
            classify.TREFOIL_CLASS
        assert classify.a4_class(by_name["4_1^l#4_1^r"]) == \
            classify.FIGURE8_CLASS

    def test_rejects_wrong_group(self, d6):
        data = surface_data.make_data(d6, ((-1, 1), (0, -1)), [(1,), (2,)])
        with pytest.raises(NotA4):
            classify.a4_class(data)

    def test_rejects_invalid_data(self, a4):
        data = surface_data.make_data(a4, ((-1, 1), (0, -1)),
                                      [(0, 0), (0, 0)])
        with pytest.raises(InvalidData):
            classify.a4_class(data)

    def test_sum_class_law(self):
        f8 = classify.FIGURE8_CLASS
        t31 = classify.TREFOIL_CLASS
        assert classify.a4_sum_class(t31, t31) == f8
        assert classify.a4_sum_class(t31, f8) == t31
        assert classify.a4_sum_class(f8, t31) == t31
        assert classify.a4_sum_class(f8, f8) == f8

    def test_sum_class_rejects_junk(self):
        with pytest.raises(BadParameters):
            classify.a4_sum_class("granny_class", classify.TREFOIL_CLASS)

    def test_class_matches_connect_sum(self, a4):
        # the class map is a homomorphism onto the two-element group
        t = classify.a4_representatives()
        by_name = {e.name: e.data for e in t.entries}
        for n1 in ("3_1^l", "4_1^l"):
            for n2 in ("3_1^r", "4_1^r"):
                s = surface_data.connect_sum(by_name[n1], by_name[n2])
                assert classify.a4_class(s) == classify.a4_sum_class(
                    classify.a4_class(by_name[n1]),
                    classify.a4_class(by_name[n2]))
