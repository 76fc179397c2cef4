import hashlib
import json
import random
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from knotcolour import (
    abelian, classify, cli, diagram, invariants, surface_data)
from util import rand_unimodular

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
