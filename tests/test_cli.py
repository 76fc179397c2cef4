import hashlib
import json
import random
import shutil
import subprocess
import sys
import time
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import (
    abelian, classify, cli, diagram, invariants, surface_data)
from util import (
    FIG8_L, FIG8_R, TREFOIL_L, TREFOIL_R, mat_mul_spy, outcome,
    rand_unimodular, random_group_spec)

D6_JSON = {"m": 2, "orders": [3], "action": [[2]]}
A4_JSON = {"m": 3, "orders": [2, 2], "action": [[0, 1], [1, 1]]}
TREFOIL_DATA = {"group": D6_JSON,
                "seifert": [[-1, 1], [0, -1]],
                "vector": [[1], [2]]}


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)
    return write


def run(capsys, argv):
    code = cli.run(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


class TestH3:
    def test_exact_bytes(self, capsys):
        code, out = run(capsys, ["h3", "--orders", "2,2"])
        assert code == 0
        assert out == '{\n  "h3_order": 8\n}\n'

    def test_group_file(self, capsys, files):
        code, got = run_json(capsys, ["h3", "--group",
                                      files("d6.json", D6_JSON)])
        assert code == 0 and got == {"h3_order": 3}

    def test_wants_exactly_one_source(self, capsys, files):
        g = files("d6.json", D6_JSON)
        code, got = run_json(capsys, ["h3", "--group", g,
                                      "--orders", "2,2"])
        assert code == 1 and got["error"]["type"] == "UsageError"
        code, got = run_json(capsys, ["h3"])
        assert code == 1 and got["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("argv", [["--orders", "0,3"],
                                      ["--orders=-4,6"]])
    def test_orders_below_two(self, capsys, argv):
        code, got = run_json(capsys, ["h3"] + argv)
        assert code == 2 and got["error"]["type"] == "BadParameters"

    def test_bad_orders_string(self, capsys):
        code, got = run_json(capsys, ["h3", "--orders", "2,x"])
        assert code == 1 and got["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("action", [5, [5]])
    def test_non_sequence_action_is_domain_error(self, capsys, files,
                                                 action):
        group = files("g.json", dict(D6_JSON, action=action))
        code, got = run_json(capsys, ["h3", "--group", group])
        assert code == 2 and got["error"]["type"] == "BadParameters"

    @pytest.mark.wallclock
    def test_unfactorable_order_is_budget_error(self, capsys, files):
        """A prime order past the trial-division bound, 10^24 + 7, is
        refused within a second, as an error object with exit code 2."""
        n = 10 ** 24 + 7
        group = files("g.json", {"m": 2, "orders": [n],
                                 "action": [[n - 1]]})
        start = time.perf_counter()
        code, got = run_json(capsys, ["h3", "--group", group])
        assert time.perf_counter() - start < 1
        assert code == 2 and got["error"] == {
            "type": "BudgetExceeded",
            "message": f"cannot factor {n}: its cofactor {n} has no prime "
                       "factor up to 10^7 and could be composite"}


class TestValidate:
    def test_valid_datum(self, capsys, files):
        code, got = run_json(capsys, ["validate", "--data",
                                      files("t.json", TREFOIL_DATA)])
        assert code == 0
        assert got == {"valid": True, "generates": True,
                       "equation_holds": True, "genus_ok": True}

    def test_invalid_datum_reports_failure(self, capsys, files):
        bad = dict(TREFOIL_DATA, vector=[[0], [0]])
        code, got = run_json(capsys, ["validate", "--data",
                                      files("z.json", bad)])
        assert code == 0
        assert got["valid"] is False and got["generates"] is False

    def test_group_flag_must_agree(self, capsys, files):
        data = files("t.json", TREFOIL_DATA)
        other = files("a4.json", A4_JSON)
        code, got = run_json(capsys, ["validate", "--group", other,
                                      "--data", data])
        assert code == 2 and got["error"]["type"] == "GroupMismatch"

    def test_non_seifert_matrix_is_domain_error(self, capsys, files):
        bad = dict(TREFOIL_DATA, seifert=[[1, 0], [0, 1]])
        code, got = run_json(capsys, ["validate", "--data",
                                      files("i.json", bad)])
        assert code == 2 and got["error"]["type"] == "BadParameters"

    @pytest.mark.parametrize("seifert, d", [
        ([[1, 0], [0, 1]], 0), ([[0, 2], [0, 0]], 4),
        ([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 3], [0, 0, 0, 0]], 9)])
    def test_non_seifert_error_bytes(self, capsys, files, seifert, d):
        bad = dict(TREFOIL_DATA, seifert=seifert, vector=[[0]] * len(seifert))
        code, out = run(capsys, ["validate", "--data", files("i.json", bad)])
        assert code == 2
        assert out == ('{\n  "error": {\n'
                       f'    "message": "det(M - M^T) = {d}, expected 1",\n'
                       '    "type": "BadParameters"\n  }\n}\n')


class TestInvariant:
    def test_matches_library(self, capsys, files):
        code, got = run_json(capsys, ["invariant", "--data",
                                      files("t.json", TREFOIL_DATA)])
        assert code == 0
        spec = abelian.make_group(2, (3,), ((2,),))
        data = surface_data.make_data(
            spec, TREFOIL_DATA["seifert"], TREFOIL_DATA["vector"])
        assert got["su"] == list(invariants.su(data).coords)
        assert got["cu"] == list(invariants.cu(data).coords)
        assert got["s"] == {"pairs": []}

    def test_m3_without_searchable_lift(self, capsys, files):
        """cu reads the action at m = 3, so a group whose lift search is
        past the budget still gets a value."""
        data = {"group": {"m": 3, "orders": [19, 361],
                          "action": [[7, 0], [0, 292]]},
                "seifert": [[19, 2, 0, 0], [3, 0, 0, 0], [0, 0, 361, 97],
                            [0, 0, 98, 0]],
                "vector": [[1, 0], [0, 0], [0, 1], [0, 0]]}
        code, got = run_json(capsys, ["invariant", "--data",
                                      files("c3.json", data)])
        assert code == 0 and got["cu"] == [0, 0]


class TestLargeM:
    """classify and invariant at m = 6 * 10^6 over C_m x| Z/7 (action 3)
    print m = 6's bytes, in well under a second under a product bound
    that does not grow with m: cu forms only blocks 0-1 of L x in factor
    0, where its docstring proves a valid datum fails, and the lift is a
    few powers reduced mod n^2."""

    M = 6 * 10 ** 6

    def bounded(self, capsys, argv):
        start = time.perf_counter()
        with mat_mul_spy(16 * self.M.bit_length()):
            got = run(capsys, argv)
        assert time.perf_counter() - start < 0.25
        return got

    def test_classify_metacyclic(self, capsys):
        argv = ["classify", "metacyclic", "--n", "7", "--xi", "3", "--m"]
        got = self.bounded(capsys, argv + [str(self.M)])
        assert got == run(capsys, argv + ["6"])
        assert got[0] == 2 and \
            "L(M) pairing entry 328 not divisible by 7 in factor 0" in got[1]

    def test_invariant(self, capsys, files):
        """The first trefoil colouring."""
        V = surface_data.enumerate_colourings(
            TREFOIL_L, abelian.make_group(6, (7,), ((3,),)))[0]

        def data(m):
            return files(f"c{m}.json", {
                "group": {"m": m, "orders": [7], "action": [[3]]},
                "seifert": [list(row) for row in TREFOIL_L],
                "vector": [list(v.coords) for v in V]})

        got = self.bounded(capsys, ["invariant", "--data", data(self.M)])
        assert got == run(capsys, ["invariant", "--data", data(6)])
        assert got[0] == 2 and \
            "entry -30 not divisible by 7 in factor 0" in got[1]


class TestEnumerate:
    def test_trefoil_over_d6(self, capsys, files):
        code, got = run_json(capsys, [
            "enumerate", "--group", files("d6.json", D6_JSON),
            "--matrix", files("m.json", TREFOIL_DATA["seifert"])])
        assert code == 0
        assert got == {"count": 2, "colourings": [[[1], [2]], [[2], [1]]]}

    def test_budget(self, capsys, files):
        code, got = run_json(capsys, [
            "enumerate", "--group", files("d6.json", D6_JSON),
            "--matrix", files("m.json", TREFOIL_DATA["seifert"]),
            "--max-search", "2"])
        assert code == 2 and got["error"]["type"] == "BudgetExceeded"

    def test_junk_matrix_is_usage_error(self, capsys, files):
        code, got = run_json(capsys, [
            "enumerate", "--group", files("d6.json", D6_JSON),
            "--matrix", files("m.json", {"rows": 2})])
        assert code == 1 and got["error"]["type"] == "UsageError"


class TestMove:
    def test_lambda1(self, capsys, files):
        code, got = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda1", files("u.json", [[1, 1], [0, 1]])])
        assert code == 0
        assert got["seifert"] == [[-1, 0], [-1, -1]]
        assert got["vector"] == [[2], [2]]
        assert got["group"] == {"m": 2, "orders": [3], "action": [[2]]}

    def test_lambda2_round_trip(self, capsys, files, tmp_path):
        code, moved = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda2", "1,2"])
        assert code == 0
        assert len(moved["seifert"]) == 4
        stabilized = tmp_path / "stab.json"
        stabilized.write_text(json.dumps(moved))
        code, back = run_json(capsys, [
            "move", "--data", str(stabilized), "--lambda2-inverse"])
        assert code == 0
        assert back["seifert"] == TREFOIL_DATA["seifert"]
        assert back["vector"] == TREFOIL_DATA["vector"]

    def test_lambda2_variant_1(self, capsys, files):
        code, got = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda2", "2,1", "--variant", "1"])
        assert code == 0
        assert got["seifert"] == [[-1, 1, 2, 0], [0, -1, 1, 0],
                                  [2, 1, 0, -1], [0, 0, 0, 0]]

    def test_lambda2_negative_leading_entry(self, capsys, files):
        data = files("t.json", TREFOIL_DATA)
        code, got = run_json(capsys, ["move", "--data", data,
                                      "--lambda2", "-2,1"])
        assert code == 0
        assert got["seifert"] == [[-1, 1, -2, 0], [0, -1, 1, 0],
                                  [-2, 1, 0, 0], [0, 0, 1, 0]]
        assert run_json(capsys, ["move", "--data", data,
                                 "--lambda2=-2,1"]) == (0, got)

    def test_lambda1_not_unimodular_bytes(self, capsys, files):
        code, out = run(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda1", files("u.json", [[2, 0], [0, 1]])])
        assert code == 2
        assert out == ('{\n  "error": {\n'
                       '    "message": "Smith diagonal [1, 2], expected all 1",\n'
                       '    "type": "NotUnimodular"\n  }\n}\n')

    @pytest.mark.parametrize("u, code, kind", [
        ({"rows": 2}, 1, "UsageError"), (5, 1, "UsageError"),
        ([1, 2], 2, "BadParameters")])
    def test_lambda1_junk_matrix(self, capsys, files, u, code, kind):
        """A U file that is not a JSON array is a usage error; an array
        whose rows are not arrays is a domain error."""
        got = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda1", files("u.json", u)])
        assert got[0] == code and got[1]["error"]["type"] == kind

    def test_bare_integer_vector_entry(self, capsys, files):
        data = dict(TREFOIL_DATA, vector=[1, [2]])
        code, got = run_json(capsys, ["move", "--data", files("t.json", data),
                                      "--lambda2-inverse"])
        assert code == 2 and got["error"] == {
            "type": "BadParameters",
            "message": "coordinates must be a list or tuple, got 1"}

    def test_bad_c_vector(self, capsys, files):
        code, got = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda2", "a,b"])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_inverse_needs_stabilized_tail(self, capsys, files):
        code, got = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda2-inverse"])
        assert code == 2 and got["error"]["type"] == "PatternMismatch"

    def test_moves_are_mutually_exclusive(self, capsys, files):
        code, got = run_json(capsys, [
            "move", "--data", files("t.json", TREFOIL_DATA),
            "--lambda2", "1,2", "--lambda2-inverse"])
        assert code == 1 and got["error"]["type"] == "UsageError"


class TestMoveChain:
    FROZEN_DIGEST = (
        "7adb3ff39449de001b33918c6d99d2aebee6810ab2706096c945b601e8cb88d3")

    def test_seeded_chain_bytes_frozen(self, capsys, tmp_path):
        """Seeded chains of --lambda1 and --lambda2 calls from three
        genus-1 data, each call fed the previous stdout, up to size 12:
        the SHA-256 of every stdout."""
        starts = (TREFOIL_DATA,
                  {"group": A4_JSON, "seifert": [[-1, 1], [0, -1]],
                   "vector": [[0, 1], [1, 1]]},
                  {"group": {"m": 2, "orders": [5], "action": [[4]]},
                   "seifert": [[1, 1], [0, -1]], "vector": [[1], [3]]})
        digest = hashlib.sha256()
        calls = 0
        for seed, start in enumerate(starts):
            rng = random.Random(seed)
            data = tmp_path / f"chain{seed}.json"
            data.write_text(json.dumps(start))
            size = 2
            while size < 12:
                argv = ["move", "--data", str(data)]
                if rng.random() < 0.5:
                    u = tmp_path / "u.json"
                    u.write_text(json.dumps(rand_unimodular(rng, size)))
                    argv += ["--lambda1", str(u)]
                else:
                    argv += ["--lambda2", ",".join(
                        str(rng.randrange(-3, 4)) for _ in range(size)),
                        "--variant", str(rng.choice((1, 2)))]
                code, out = run(capsys, argv)
                assert code == 0, out
                digest.update(out.encode())
                data.write_text(out)
                size = len(json.loads(out)["seifert"])
                calls += 1
        assert calls > 15
        assert digest.hexdigest() == self.FROZEN_DIGEST


class TestClassify:
    def test_metacyclic_json(self, capsys):
        code, got = run_json(capsys, ["classify", "metacyclic",
                                      "--m", "2", "--n", "3", "--xi", "2"])
        assert code == 0
        assert got["family"] == "metacyclic"
        assert got["upper_bound"] == 3
        assert got["lower_bound"] == 3
        assert {tuple(e["su"]) for e in got["entries"]} == {(0,), (1,), (2,)}
        assert all(e["s"] == [] for e in got["entries"])

    def test_metacyclic_tsv_snapshot(self, capsys):
        code, out = run(capsys, ["classify", "metacyclic", "--m", "2",
                                 "--n", "3", "--xi", "2", "--format", "tsv"])
        assert code == 0
        assert out == ("# family\tmetacyclic\n"
                       "# upper_bound\t3\n"
                       "# lower_bound\t3\n"
                       "k\tl\ti\tname\tsu\tcu\ts\n"
                       "1\t\t\tF1\t1\t1\t\n"
                       "2\t\t\tF2\t0\t0\t\n"
                       "3\t\t\tF3\t2\t2\t\n")

    def test_tsv_note_lines(self, capsys):
        """Each table note is one '# note' line ahead of the header."""
        argv = ["classify", "rank2diag", "--m", "2", "--n1", "3", "--n2",
                "5", "--xi1", "2", "--xi2", "4"]
        notes = classify.rank2_diag_table(2, 3, 5, 2, 4).notes
        assert notes
        code, out = run(capsys, argv + ["--format", "tsv"])
        assert code == 0
        lines = out.splitlines()
        header = lines.index("k\tl\ti\tname\tsu\tcu\ts")
        assert lines[3:header] == [f"# note\t{n}" for n in notes]

    def test_a4_table(self, capsys):
        code, got = run_json(capsys, ["classify", "a4"])
        assert code == 0
        assert len(got["entries"]) == 8
        assert got["upper_bound"] == 8 and got["lower_bound"] == 2

    def test_rank2diag_tuple_bound(self, capsys):
        code, got = run_json(capsys, ["classify", "rank2diag", "--m", "2",
                                      "--n1", "3", "--n2", "5",
                                      "--xi1", "2", "--xi2", "4"])
        assert code == 0
        assert got["lower_bound"] == [3, 5]
        assert len(got["entries"]) == 15

    def test_rank2nondiag(self, capsys):
        code, got = run_json(capsys, ["classify", "rank2nondiag",
                                      "--m", "3", "--n", "5",
                                      "--n21", "4", "--n22", "4"])
        assert code == 0
        assert len(got["entries"]) == 125
        assert got["lower_bound"] == 1

    def test_budget_exit_2(self, capsys):
        code, got = run_json(capsys, ["classify", "rank2nondiag",
                                      "--m", "3", "--n", "5", "--n21", "4",
                                      "--n22", "4", "--max-search", "124"])
        assert code == 2 and got["error"] == {
            "type": "BudgetExceeded",
            "message": "125 table entries exceed budget 124"}
        code, got = run_json(capsys, ["classify", "metacyclic", "--m", "2",
                                      "--n", "3", "--xi", "2",
                                      "--max-search", "3"])
        assert code == 0 and len(got["entries"]) == 3

    def test_domain_error_exit_2(self, capsys):
        code, got = run_json(capsys, ["classify", "metacyclic",
                                      "--m", "2", "--n", "3", "--xi", "1"])
        assert code == 2 and got["error"]["type"] == "BadParameters"

    def test_unknown_family_exit_1(self, capsys):
        code, got = run_json(capsys, ["classify", "granny"])
        assert code == 1 and got["error"]["type"] == "UsageError"


class TestClassifyCorpus:
    FROZEN_DIGEST = (
        "0804eb46530bb1eec695d776f20f5d2bad284fd24e9dd5e56bb887db891376bf")
    TABLES = (
        ("metacyclic", {"m": 2, "n": 3, "xi": 2}),
        ("metacyclic", {"m": 2, "n": 9, "xi": 8}),
        ("metacyclic", {"m": 3, "n": 7, "xi": 2}),
        ("metacyclic", {"m": 3, "n": 13, "xi": 9}),
        ("rank2diag", {"m": 2, "n1": 3, "n2": 5, "xi1": 2, "xi2": 4}),
        ("rank2diag", {"m": 2, "n1": 3, "n2": 3, "xi1": 2, "xi2": 2}),
        ("rank2diag", {"m": 2, "n1": 9, "n2": 9, "xi1": 8, "xi2": 8}),
        ("rank2diag", {"m": 2, "n1": 3, "n2": 9, "xi1": 2, "xi2": 8}),
        ("rank2diag", {"m": 3, "n1": 7, "n2": 7, "xi1": 2, "xi2": 2}),
        ("rank2diag", {"m": 3, "n1": 7, "n2": 7, "xi1": 2, "xi2": 4}),
        ("rank2nondiag", {"m": 3, "n": 2, "n21": 1, "n22": 1}),
        ("rank2nondiag", {"m": 3, "n": 4, "n21": 3, "n22": 3}),
        ("rank2nondiag", {"m": 3, "n": 7, "n21": 6, "n22": 6}),
        ("a4", {}),
    )
    DIV, LIFT = "DivisibilityFailure", "LiftFailure"
    FAILURES = (
        ("metacyclic", {"m": 4, "n": 7, "xi": 6}, DIV),
        ("metacyclic", {"m": 6, "n": 7, "xi": 3}, DIV),
        ("metacyclic", {"m": 6, "n": 27, "xi": 17}, LIFT),
        ("rank2diag", {"m": 4, "n1": 5, "n2": 5, "xi1": 3, "xi2": 3}, DIV),
        ("rank2diag", {"m": 6, "n1": 3, "n2": 9, "xi1": 2, "xi2": 8}, DIV),
        ("rank2diag", {"m": 6, "n1": 9, "n2": 9, "xi1": 5, "xi2": 5}, LIFT),
        ("rank2nondiag", {"m": 4, "n": 3, "n21": 2, "n22": 0}, DIV),
        ("rank2nondiag", {"m": 6, "n": 3, "n21": 2, "n22": 1}, DIV),
        ("rank2nondiag", {"m": 6, "n": 4, "n21": 1, "n22": 1}, LIFT),
    )

    def test_classify_bytes_frozen(self, capsys):
        """The SHA-256 of (argv, exit code, stdout) over classify calls:
        every family in JSON and TSV, tables at m = 2 and 3 (the gcd,
        congruence, skip, count-formula and distinctness notes among
        them), each parameterised table again with a budget one entry
        short, and the m >= 4 failures: DivisibilityFailure at m = 4 and
        6 in every family, LiftFailure at m = 6. These families have no
        LiftFailure at m = 4: N - I invertible mod 2 with N^4 = I cannot
        hold, as (N - I)^4 = N^4 - I mod 2, so n is odd, prime to m, and
        the rank-1 lift always exists; the rank-2 families had none for
        odd n < 60 either."""
        digest = hashlib.sha256()
        seen = set()

        def call(family, params, *extra):
            argv = ["classify", family] + [
                x for k, v in params.items() for x in (f"--{k}", str(v))]
            argv += list(extra)
            code, out = run(capsys, argv)
            digest.update(json.dumps([argv, code, out]).encode())
            if code:
                seen.add((family, params.get("m"),
                          json.loads(out)["error"]["type"]))
            return code, out

        for family, params in self.TABLES:
            code, out = call(family, params)
            assert code == 0, out
            call(family, params, "--format", "tsv")
            if family != "a4":
                size = len(json.loads(out)["entries"])
                call(family, params, "--max-search", str(size - 1))
        for family, params, _ in self.FAILURES:
            for fmt in ("json", "tsv"):
                call(family, params, "--format", fmt)
        assert seen == {(f, p["m"], "BudgetExceeded")
                        for f, p in self.TABLES if f != "a4"} | {
            (f, p["m"], kind) for f, p, kind in self.FAILURES}
        assert digest.hexdigest() == self.FROZEN_DIGEST


class TestInvariantCorpus:
    FROZEN_DIGEST = (
        "093b86844e5cc4aa89216f580e9961e9741dd040e28fe3321a61862a8bb6fcf1")
    GROUPS = (
        {"m": 2, "orders": [5], "action": [[4]]},
        {"m": 2, "orders": [3, 5], "action": [[2, 0], [0, 4]]},
        {"m": 3, "orders": [7], "action": [[2]]},
        {"m": 3, "orders": [2, 2], "action": [[0, 1], [1, 1]]},
        {"m": 4, "orders": [5], "action": [[2]]},
        {"m": 4, "orders": [5, 5], "action": [[2, 0], [0, 3]]},
        {"m": 6, "orders": [7], "action": [[3]]},
        {"m": 6, "orders": [27], "action": [[17]]},
    )

    def test_invariant_validate_move_bytes_frozen(self, capsys, tmp_path):
        """The SHA-256 of (argv, exit code, stdout) over invariant,
        validate and move calls, with each file argument replaced by its
        contents: per group (m = 2, 3, 4 and 6), colourings of genus-1
        matrices moved by seeded random lambda moves and connect sums,
        a tampered copy of each, and every move subcommand on the moved
        datum. cu raises DivisibilityFailure at m = 4 and 6, naming an
        integer entry of the stacked blocks; C_6 acting on Z/27 by 17 has
        no lift, so cu raises LiftFailure there."""
        rng = random.Random(28)
        digest = hashlib.sha256()
        seen = set()

        def write(obj):
            path = tmp_path / f"f{len(list(tmp_path.iterdir()))}.json"
            path.write_text(json.dumps(obj))
            return str(path), obj

        def call(*argv):
            code, out = run(capsys, [a[0] if isinstance(a, tuple) else a
                                     for a in argv])
            shown = [a[1] if isinstance(a, tuple) else a for a in argv]
            digest.update(json.dumps([shown, code, out]).encode())
            seen.add((argv[0], code, json.loads(out)["error"]["type"]
                      if code else None))
            return code, out

        for group in self.GROUPS:
            spec = abelian.group_from_json(group)
            # ((7, 0), (1, 1)) is metacyclic_table's base over Z/27
            matrices = [M for a in range(-3, 4) for b in range(-3, 4)
                        for M in (((a, 1), (0, b)), ((a, 0), (1, b)))]
            pool = [surface_data.SurfaceData(spec, M, V)
                    for M in matrices + [((7, 0), (1, 1))]
                    for V in surface_data.enumerate_colourings(M, spec)[:2]]
            assert pool, group
            for data in rng.sample(pool, min(4, len(pool))):
                for _ in range(rng.randrange(1, 4)):
                    kind = rng.randrange(3)
                    if kind == 0:
                        data = surface_data.lambda1(
                            data, rand_unimodular(rng, data.size))
                    elif kind == 1:
                        data = surface_data.lambda2(
                            data, [rng.randrange(-2, 3)
                                   for _ in range(data.size)],
                            rng.choice((1, 2)))
                    else:
                        data = surface_data.connect_sum(data,
                                                        rng.choice(pool))
                obj = surface_data.data_to_json(data)
                bad = json.loads(json.dumps(obj))
                bad["vector"][0][0] += 1
                for body in (obj, bad):
                    f = write(body)
                    call("validate", "--data", f)
                    call("invariant", "--data", f)
                f = write(obj)
                U = write([list(r) for r in rand_unimodular(rng, data.size)])
                c = ",".join(str(rng.randrange(-2, 3))
                             for _ in range(data.size))
                call("move", "--data", f, "--lambda1", U)
                for v in ("1", "2"):
                    code, out = call("move", "--data", f, "--lambda2", c,
                                     "--variant", v)
                    call("move", "--data", write(json.loads(out)),
                         "--lambda2-inverse")
                call("move", "--data", f, "--lambda2-inverse")
        assert {k for k in seen if k[0] == "invariant"} >= {
            ("invariant", 0, None), ("invariant", 2, "InvalidData"),
            ("invariant", 2, "DivisibilityFailure"),
            ("invariant", 2, "LiftFailure")}
        assert ("validate", 0, None) in seen
        assert ("move", 2, "PatternMismatch") in seen
        assert digest.hexdigest() == self.FROZEN_DIGEST


class TestPowerCorpus:
    FROZEN_DIGEST = (
        "39b667afd34b8ef3575e1faeaebf6bec41e22c325ec696b3f6ac8bbd1e872086")
    # m = 4, 6 and 12 over equal and unequal orders, one action not
    # diagonal
    GROUPS = (
        (4, (5,), ((2,),)),
        (4, (5, 5), ((2, 0), (0, 3))),
        (4, (5, 13), ((2, 0), (0, 5))),
        (6, (7,), ((3,),)),
        (6, (7, 7), ((3, 0), (0, 5))),
        (6, (7, 9), ((3, 0), (0, 2))),
        (6, (2, 2), ((0, 1), (1, 1))),
        (12, (13,), ((2,),)),
        (12, (13, 13), ((2, 0), (0, 6))),
        (12, (13, 5), ((2, 0), (0, 2))),
    )

    def test_powers_of_the_action_frozen(self, capsys, tmp_path):
        """The SHA-256 over every single power of an action: act_pow for
        j in [-2m, 2m] and quandle_op_inverse on random elements, both
        lambda2 variants with their lambda2_inverse (also on a tampered
        copy) and CLI move --lambda2 at m = 4, 6 and 12, make_group's
        values and NotOrderM, FixedPoints and BadParameters messages on
        random actions with m up to 60, and structured_lift's values and
        LiftFailure and BudgetExceeded messages on random specs and five
        fixed ones, among them C_6 x| (Z/9 x Z/3) with action
        ((2, 6), (1, 2)), whose row-wise reduction mod n_i^2 would be
        inexact."""
        rng = random.Random(30)
        digest = hashlib.sha256()
        seen = set()

        def record(*parts):
            digest.update(repr(parts).encode())

        def kind(got):
            return got[0].__name__ if isinstance(got, tuple) and \
                isinstance(got[0], type) else type(got).__name__

        specs = [abelian.make_group(*g) for g in self.GROUPS]
        specs += [random_group_spec(rng, equal, True, m_choices=(4, 6, 12))
                  for equal in (True, False) for _ in range(3)]
        for spec in specs:
            m, orders = spec.m, spec.orders
            elems = [abelian.element(spec, [rng.randrange(n) for n in orders])
                     for _ in range(3)]
            for e in elems:
                record("act_pow", spec, e.coords,
                       [abelian.act_pow(e, j).coords
                        for j in range(-2 * m, 2 * m + 1)])
            for x, b in zip(elems, elems[1:] + elems[:1]):
                a = diagram.quandle_op_inverse(x, b, spec)
                assert diagram.quandle_op(a, b, spec) == x
                record("quandle_op_inverse", spec, x.coords, b.coords,
                       a.coords)
            for M in (TREFOIL_L, FIG8_L):
                data = surface_data.SurfaceData(spec, M, elems[:2])
                if rng.randrange(2):
                    data = surface_data.connect_sum(data, data)
                path = tmp_path / "data.json"
                path.write_text(json.dumps(surface_data.data_to_json(data)))
                for variant in (1, 2):
                    c = [rng.randrange(-3, 4) for _ in range(data.size)]
                    moved = surface_data.lambda2(data, c, variant)
                    assert surface_data.lambda2_inverse(moved) == data
                    bad = surface_data.SurfaceData(
                        spec, moved.matrix,
                        moved.vector[:-1] + (abelian.add(
                            moved.vector[-1], elems[0]),))
                    record("lambda2", c, variant, moved, moved._products,
                           outcome(surface_data.lambda2_inverse, bad))
                    argv = ["move", "--data", str(path), "--lambda2",
                            ",".join(map(str, c)), "--variant", str(variant)]
                    code, out = run(capsys, argv)
                    assert code == 0, out
                    record(argv[3:], out)
                    seen.add(("lambda2", m, len(orders), len(set(orders))))
        for _ in range(300):
            orders = tuple(rng.choice((2, 3, 4, 5, 7, 8, 9, 13))
                           for _ in range(rng.randrange(1, 4)))
            m = rng.choice((rng.randrange(1, 61), rng.choice((2, 3, 4, 6))
                            * rng.randrange(1, 11)))
            action = [[rng.randrange(0, a, a // gcd(a, b)) +
                       a * rng.randrange(-2, 3) for b in orders]
                      for a in orders]
            if rng.randrange(8) == 0:
                i, j = rng.randrange(len(orders)), rng.randrange(len(orders))
                action[i][j] += 1
            got = outcome(abelian.make_group, m, orders, action)
            record("make_group", m, orders, action, got)
            seen.add(("make_group", kind(got)))
        lift_specs = [abelian.make_group(*g) for g in (
            (6, (9, 3), ((2, 6), (1, 2))), (4, (3, 5), ((2, 0), (0, 4))),
            (6, (27,), ((17,),)), (6, (9, 9), ((5, 0), (0, 5))),
            (2, (5, 7, 11), ((-1, 0, 0), (0, -1, 0), (0, 0, -1))))]
        lift_specs += [random_group_spec(rng, equal, True,
                                         m_choices=(2, 3, 4, 6), top=7)
                       for equal in (True, False) for _ in range(40)]
        for spec in lift_specs:
            got = outcome(invariants.structured_lift, spec)
            record("structured_lift", spec, got)
            seen.add(("structured_lift", kind(got)))
        assert {k for k in seen if k[0] == "lambda2"} >= {
            ("lambda2", m, r, d) for m in (4, 6, 12)
            for r, d in ((1, 1), (2, 1), (2, 2))}
        assert {k for k in seen if k[0] != "lambda2"} == {
            ("make_group", "GroupSpec"), ("make_group", "NotOrderM"),
            ("make_group", "FixedPoints"), ("make_group", "BadParameters"),
            ("structured_lift", "tuple"), ("structured_lift", "LiftFailure"),
            ("structured_lift", "BudgetExceeded")}
        assert digest.hexdigest() == self.FROZEN_DIGEST, digest.hexdigest()

class TestEnumerateCorpus:
    FROZEN_DIGEST = (
        "ecbdb8c0c102f07933fb943cb4392418c5454f5a4a088c36577ec461550b0364")
    # the groups, Seifert matrices and cases of the enumerate workload
    GROUPS = {
        "D6": D6_JSON,
        "D10": {"m": 2, "orders": [5], "action": [[4]]},
        "D14": {"m": 2, "orders": [7], "action": [[6]]},
        "A4": A4_JSON,
        "C2(Z3)^2": {"m": 2, "orders": [3, 3], "action": [[2, 0], [0, 2]]},
        "C2(Z3xZ5)": {"m": 2, "orders": [3, 5], "action": [[2, 0], [0, 4]]},
        "C7(Z2)^3": {"m": 7, "orders": [2, 2, 2],
                     "action": [[0, 0, 1], [1, 0, 1], [0, 1, 0]]},
    }
    SEIFERT = {
        "3_1^l": TREFOIL_L, "3_1^r": TREFOIL_R,
        "4_1^l": FIG8_L, "4_1^r": FIG8_R,
        "c6_g1": ((3, 1), (2, 3)),
        "c6_g2": ((3, 1, 0, 0), (2, 0, 0, 0), (0, 0, 5, 2), (0, 0, 3, 0)),
    }
    SURFACE_CASES = (
        ("3_1^l", "D6"), ("4_1^l", "D6"), ("3_1^r#4_1^r", "D6"),
        ("3_1^l#3_1^l#4_1^l", "D6"),
        ("3_1^l", "D10"), ("4_1^r", "D10"), ("3_1^l#4_1^l", "D10"),
        ("3_1^r#3_1^r#4_1^l", "D10"),
        ("3_1^l", "D14"), ("4_1^l#4_1^r", "D14"),
        ("3_1^l", "A4"), ("3_1^l#3_1^l", "A4"), ("3_1^l#4_1^l#3_1^r", "A4"),
        ("c6_g1", "C2(Z3)^2"), ("c6_g1#3_1^l", "C2(Z3)^2"),
        ("c6_g2", "C2(Z3xZ5)"),
        ("3_1^l", "C7(Z2)^3"), ("4_1^l#3_1^l", "C7(Z2)^3"),
    )
    DIAGRAM_GROUPS = ("D6", "D10", "A4")

    def block_sum(self, knot):
        parts = [self.SEIFERT[p] for p in knot.split("#")]
        size = sum(map(len, parts))
        out, at = [], 0
        for part in parts:
            out += [[0] * at + list(row) + [0] * (size - at - len(row))
                    for row in part]
            at += len(part)
        return out

    def test_colourings_and_bytes_frozen(self, capsys, tmp_path):
        """The SHA-256 over the coordinate rows of every colouring, in
        order, of the enumerate workload's 18 surface cases (each matrix
        moved to U^T M U by a seeded unimodular U) and 27 catalog-diagram
        cases, and over the stdout of CLI enumerate and colour-diagram on
        each of them."""
        rng = random.Random(32)
        digest = hashlib.sha256()
        counts = []

        def record(*parts):
            digest.update(repr(parts).encode())

        def write(name, obj):
            path = tmp_path / name
            path.write_text(json.dumps(obj))
            return str(path)

        for knot, g in self.SURFACE_CASES:
            spec = abelian.group_from_json(self.GROUPS[g])
            M = self.block_sum(knot)
            U = rand_unimodular(rng, len(M))
            M = [[sum(U[k][i] * M[k][l] * U[l][j]
                      for k in range(len(M)) for l in range(len(M)))
                  for j in range(len(M))] for i in range(len(M))]
            found = surface_data.enumerate_colourings(M, spec)
            record(knot, g, M, [tuple(e.coords for e in V) for V in found])
            code, out = run(capsys, [
                "enumerate", "--group", write("g.json", self.GROUPS[g]),
                "--matrix", write("m.json", M)])
            assert code == 0 and json.loads(out)["count"] == len(found)
            record(out)
            counts.append(len(found))
        for name, d in diagram.catalog().items():
            for g in self.DIAGRAM_GROUPS:
                spec = abelian.group_from_json(self.GROUPS[g])
                found = diagram.enumerate_diagram_colourings(d, spec)
                record(name, g, [[(arc, e.coords)
                                  for arc, e in col.labels.items()]
                                 for col in found])
                code, out = run(capsys, [
                    "colour-diagram", "--group",
                    write("g.json", self.GROUPS[g]),
                    "--pd", write("pd.json", diagram.diagram_to_json(d))])
                assert code == 0 and json.loads(out)["count"] == len(found)
                record(out)
                counts.append(len(found))
        assert len(counts) == 45 and counts.count(0) > 0
        assert max(counts) == 624
        assert digest.hexdigest() == self.FROZEN_DIGEST, digest.hexdigest()


class TestColourDiagram:
    def test_trefoil_over_d6(self, capsys, files):
        pd = {"base_arc": 0, "crossings": [
            {"arcs": [0, 1, 2, 1], "sign": -1},
            {"arcs": [1, 2, 0, 2], "sign": -1},
            {"arcs": [2, 0, 1, 0], "sign": -1}]}
        code, got = run_json(capsys, [
            "colour-diagram", "--group", files("d6.json", D6_JSON),
            "--pd", files("pd.json", pd)])
        assert code == 0
        assert got == {"count": 2, "colourings": [
            [[0, [0]], [1, [1]], [2, [2]]],
            [[0, [0]], [1, [2]], [2, [1]]]]}

    def test_malformed_pd_is_domain_error(self, capsys, files):
        code, got = run_json(capsys, [
            "colour-diagram", "--group", files("d6.json", D6_JSON),
            "--pd", files("pd.json", {"base_arc": 0})])
        assert code == 2 and got["error"]["type"] == "BadParameters"

    def test_arc_ids_are_not_read_from_object_keys(self, capsys, files):
        # an object's keys are strings, so " 1" is not taken for arc 1
        pd = {"base_arc": 0, "crossings": [
            {"arcs": {"0": 0, "1": 0, "2": 0, " 1": 0}, "sign": -1},
            {"arcs": [1, 2, 0, 2], "sign": -1},
            {"arcs": [2, 0, 1, 0], "sign": -1}]}
        code, got = run_json(capsys, [
            "colour-diagram", "--group", files("d6.json", D6_JSON),
            "--pd", files("pd.json", pd)])
        assert code == 2 and got["error"]["type"] == "BadParameters"


class TestCatalog:
    def test_stable_bytes_and_content(self, capsys):
        code1, out1 = run(capsys, ["catalog"])
        code2, out2 = run(capsys, ["catalog"])
        assert code1 == code2 == 0
        assert out1 == out2
        got = json.loads(out1)["diagrams"]
        assert len(got) == 9
        assert got["3_1^l"] == {"base_arc": 0, "crossings": [
            {"arcs": [0, 1, 2, 1], "sign": -1},
            {"arcs": [1, 2, 0, 2], "sign": -1},
            {"arcs": [2, 0, 1, 0], "sign": -1}]}


class TestPlumbing:
    def test_help_exits_zero(self, capsys):
        assert run(capsys, ["--help"])[0] == 0

    def test_unknown_command(self, capsys):
        code, got = run_json(capsys, ["frobnicate"])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_missing_file(self, capsys):
        code, got = run_json(capsys, ["validate", "--data",
                                      "/nonexistent/x.json"])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_syntax_error_file(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{")
        code, got = run_json(capsys, ["validate", "--data", str(p)])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_deeply_nested_file(self, capsys, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100000 + "]" * 100000)
        code, got = run_json(capsys, ["validate", "--data", str(p)])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_matrix_as_data_file(self, capsys, files):
        code, got = run_json(capsys, [
            "validate", "--data",
            files("m.json", TREFOIL_DATA["seifert"])])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_data_without_group_anywhere(self, capsys, files):
        headless = {"seifert": TREFOIL_DATA["seifert"],
                    "vector": TREFOIL_DATA["vector"]}
        code, got = run_json(capsys, ["validate", "--data",
                                      files("h.json", headless)])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_junk_group_structure(self, capsys, files):
        code, got = run_json(capsys, ["h3", "--group",
                                      files("g.json", {"rank": 2})])
        assert code == 1 and got["error"]["type"] == "UsageError"

    @pytest.mark.parametrize("where, leaf", [
        ("seifert", -1.9), ("vector", 1.5), ("vector", True),
        ("vector", "1"), ("seifert", None)])
    def test_non_integer_leaf_is_usage_error(self, capsys, files, where, leaf):
        data = json.loads(json.dumps(TREFOIL_DATA))
        data[where][0][0] = leaf
        code, got = run_json(capsys, ["validate", "--data",
                                      files("t.json", data)])
        assert code == 1 and got["error"]["type"] == "UsageError"

    def test_every_input_file_is_integer_only(self, capsys, files):
        d6 = files("d6.json", D6_JSON)
        pd = {"base_arc": 0, "crossings": [{"arcs": [0, 1, 2, 1],
                                             "sign": -1.0}]}
        for argv in (
                ["h3", "--group", files("g.json", dict(D6_JSON, m=2.0))],
                ["validate", "--group", files("g.json", dict(D6_JSON, m=True)),
                 "--data", files("t.json", TREFOIL_DATA)],
                ["enumerate", "--group", d6,
                 "--matrix", files("m.json", [[-1, 1], [0, "-1"]])],
                ["move", "--data", files("t.json", TREFOIL_DATA),
                 "--lambda1", files("u.json", [[1, 0], [0, None]])],
                ["colour-diagram", "--group", d6,
                 "--pd", files("pd.json", pd)]):
            code, got = run_json(capsys, argv)
            assert code == 1 and got["error"]["type"] == "UsageError", argv

    def test_group_with_fixed_points_exit_2(self, capsys, files):
        bad = {"m": 2, "orders": [4, 6], "action": [[3, 0], [0, 5]]}
        code, got = run_json(capsys, ["h3", "--group",
                                      files("g.json", bad)])
        assert code == 2 and got["error"]["type"] == "FixedPoints"

    def test_console_script(self):
        exe = shutil.which("knotcolour")
        if exe is None:
            proc = subprocess.run(
                [sys.executable, "-m", "knotcolour.cli",
                 "h3", "--orders", "3,3"],
                capture_output=True, text=True)
        else:
            proc = subprocess.run([exe, "h3", "--orders", "3,3"],
                                  capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"h3_order": 27}


# -- fuzz: malformed files and flags for every subcommand ---------------

def mostly(good, bad):
    """good seven times in eight, else bad."""
    return st.integers(0, 7).flatmap(lambda k: good if k else bad)


KEYS = ("m", "orders", "action", "group", "seifert", "vector", "crossings",
        "sign", "arcs", "base_arc", "x")
small_int = st.integers(-3, 13)
# ragged and nested arrays, objects with wrong keys, rare non-int leaves
json_junk = st.recursive(
    mostly(small_int, st.sampled_from((1.5, True, None, "1"))),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=4),
    max_leaves=12)


def int_matrix(size):
    return st.lists(st.lists(small_int, min_size=size, max_size=size),
                    min_size=size, max_size=size)


# groups with orders <= 13: valid, or of the right shape, or junk
C3_55_JSON = {"m": 3, "orders": [5, 5], "action": [[0, 4], [1, 4]]}
group_json = mostly(
    st.sampled_from((D6_JSON, A4_JSON, C3_55_JSON))
    | st.integers(1, 3).flatmap(lambda r: st.fixed_dictionaries({
        "m": st.integers(-1, 6),
        "orders": st.lists(st.integers(-1, 13), min_size=r, max_size=r),
        "action": int_matrix(r)})),
    json_junk)
# Seifert matrices of the trefoil, the figure eight and a genus-2 datum
SEIFERT = (TREFOIL_DATA["seifert"], [[1, 0], [-1, -1]],
           [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]])
matrix_json = mostly(
    st.sampled_from(SEIFERT) | st.integers(0, 4).flatmap(int_matrix),
    json_junk)
data_json = mostly(
    st.sampled_from(SEIFERT).flatmap(lambda M: st.fixed_dictionaries(
        {"seifert": st.just(M),
         "vector": st.lists(mostly(st.lists(small_int, min_size=1,
                                            max_size=1),
                                   st.lists(small_int, min_size=2,
                                            max_size=2)),
                            min_size=len(M), max_size=len(M))},
        optional={"group": group_json})),
    st.fixed_dictionaries({"seifert": matrix_json, "vector": json_junk},
                          optional={"group": group_json}) | json_junk)
crossing = st.fixed_dictionaries(
    {"sign": st.sampled_from((1, -1, 0)),
     "arcs": st.lists(st.integers(0, 4), min_size=3, max_size=5)})
# catalog knots, the Hopf link, random crossings, junk
HOPF_PD = {"base_arc": 0, "crossings": [{"sign": 1, "arcs": [0, 1, 0, 1]},
                                        {"sign": 1, "arcs": [1, 0, 1, 0]}]}
pd_json = mostly(
    st.sampled_from([diagram.diagram_to_json(d)
                     for d in diagram.catalog().values()] + [HOPF_PD])
    | st.fixed_dictionaries({"crossings": st.lists(crossing, max_size=5),
                             "base_arc": st.integers(-1, 4)}),
    json_junk)
# unimodular 2x2 and 4x4 matrices for lambda1, or any matrix
u_json = st.sampled_from(([[1, 0], [1, 1]], [[0, -1], [1, 0]], [
    [1, 0, 0, 0], [0, 1, 0, 0], [2, 0, 1, 0], [0, 0, 0, 1]])) | matrix_json
flag_int = mostly(st.integers(-2, 13).map(str),
                  st.sampled_from(("x", "", "1.5")))
budget = mostly(st.integers(-1, 1000).map(str), st.sampled_from(("x", "-")))
csv = st.lists(mostly(st.integers(-3, 13).map(str), st.just("x")),
               max_size=3).map(",".join)


def fuzz_argv(draw, path):
    """A random subcommand and one argv for it, its files written under
    path."""
    def file(strategy):
        p = path / f"f{len(list(path.iterdir()))}.json"
        p.write_text(json.dumps(draw(strategy)))
        return str(p)

    def opt(*argv):
        return list(argv) if draw(st.booleans()) else []

    command = draw(st.sampled_from((
        "validate", "invariant", "enumerate", "move", "classify", "h3",
        "colour-diagram", "catalog")))
    if command in ("validate", "invariant"):
        argv = ["--data", file(data_json)] + opt("--group", file(group_json))
    elif command == "enumerate":
        argv = ["--group", file(group_json), "--matrix", file(matrix_json),
                "--max-search", draw(budget)]
    elif command == "move":
        argv = ["--data", file(data_json)] + draw(st.sampled_from((
            ["--lambda1", file(u_json)], ["--lambda2", draw(csv)],
            ["--lambda2-inverse"]))) + opt("--variant", draw(
                mostly(st.sampled_from(("1", "2")), flag_int)))
    elif command == "classify":
        family = draw(st.sampled_from(
            ("metacyclic", "rank2diag", "rank2nondiag", "a4", "granny")))
        names = {"metacyclic": ("m", "n", "xi"),
                 "rank2diag": ("m", "n1", "n2", "xi1", "xi2"),
                 "rank2nondiag": ("m", "n", "n21", "n22")}.get(family, ())
        argv = [family]
        for name in names:
            value = draw(flag_int)
            if name == "m" and value.lstrip("-").isdigit():
                value = str(int(value) % 7)  # keeps the lift search small
            argv += [f"--{name}", value]
        argv += ["--max-search", draw(budget)]
        argv += opt("--format", draw(st.sampled_from(("json", "tsv", "x"))))
    elif command == "h3":
        argv = opt("--group", file(group_json)) + opt("--orders", draw(csv))
    elif command == "colour-diagram":
        argv = ["--group", file(group_json), "--pd", file(pd_json),
                "--max-search", draw(budget)]
    else:
        argv = []
    argv = [command] + argv
    if draw(st.integers(0, 7)) == 0:  # a token lost or one too many
        i = draw(st.integers(0, len(argv)))
        argv = argv[:i] + argv[i + 1:] if draw(st.booleans()) else \
            argv[:i] + [draw(st.sampled_from(("--bogus", "1", "--group")))] \
            + argv[i:]
    return command, argv


class TestFuzz:
    def test_every_call_ends_in_an_exit_code(self, capsys, tmp_path):
        """Malformed JSON files and flags for every subcommand: each call
        returns 0, or 1 or 2 with exactly one error object on stdout; no
        exception escapes run."""
        seen = set()

        @settings(deadline=None, max_examples=400, derandomize=True)
        @given(st.data())
        def check(data):
            path = tmp_path / str(len(list(tmp_path.iterdir())))
            path.mkdir()
            command, argv = fuzz_argv(data.draw, path)
            code = cli.run(argv)
            out = capsys.readouterr().out
            assert code in (0, 1, 2), argv
            if code:
                got = json.loads(out)
                assert list(got) == ["error"], argv
                assert sorted(got["error"]) == ["message", "type"], argv
                assert (got["error"]["type"] == "UsageError") == \
                    (code == 1), argv
            seen.add((command, code))

        check()
        assert {c for c, _ in seen} == {
            "validate", "invariant", "enumerate", "move", "classify", "h3",
            "colour-diagram", "catalog"}
        assert {code for _, code in seen} == {0, 1, 2}
