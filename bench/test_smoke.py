"""Smoke test of the benchmark itself, on one round per workload.

    python3 -m pytest -q bench/test_smoke.py

It checks that every end-to-end and per-layer metric of BENCHMARK.json
is printed with its unit for every workload, that corrupted expected
values make ops fail (so the oracles can fail), that the frozen
colouring counts match the library, and that the benchmark refuses to
run without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from knotcolour import diagram, surface_data  # noqa: E402

WORKLOADS = ("enumerate", "walk", "tables", "cli")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    p = subprocess.run([sys.executable, script] + list(args),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       cwd=cwd, timeout=600, check=False)
    return p.returncode, p.stdout.decode(), p.stderr.decode()


def result(*args):
    code, out, err = bench(*args)
    assert code == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(workloads.WORKLOADS) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(name, trace):
    res = result("--workload", name, "--seed", str(SEED), "--seconds", "0",
                 "--trace", str(trace), "--max-rounds", "1")
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    for v in res["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_expectations_fail(name):
    res = result("--workload", name, "--seed", str(SEED), "--seconds", "0",
                 "--max-rounds", "1", "--corrupt")
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0


def test_frozen_counts_match_the_library():
    groups = workloads.make_groups()
    for (knot, g), want in workloads.COUNTS.items():
        got = surface_data.enumerate_colourings(workloads.knot_matrix(knot),
                                                groups[g])
        assert len(got) == want, (knot, g)
    for knot, d in diagram.catalog().items():
        for g in workloads.DIAGRAM_GROUPS:
            got = diagram.enumerate_diagram_colourings(d, groups[g])
            assert len(got) == workloads.COUNTS[knot, g], (knot, g)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = bench("--workload", "walk", "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=tmp_path,
                         script=str(tmp_path / "bench" / "run.py"))
    assert code != 0
    assert not any(line.startswith("{") for line in out.splitlines())
