"""knotcolour benchmark: seeded closed-loop workloads with output checks.

    python3 bench/run.py --workload {enumerate,walk,tables,cli,all}
                         --seed N --seconds S --trace {0,1}

One process, one caller: each op starts when the previous one has ended
(for `cli`, one child process at a time). The run stops at the first
round boundary after S seconds with at least MIN_OPS ops done, so the
90th percentile has at least ten samples beyond it. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a separate traced run with --trace 1. Lines before it, all starting
with '#', give provenance, input properties and a readable summary.
Op latencies are scaled to a reference machine speed (calibration.py);
the summary also gives the unscaled wall-clock figures.

The package is imported from `src/` of the checkout this file sits in;
the run fails, printing no result, when that is missing.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from calibration import CHILD_PROCESS, IN_PROCESS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("enumerate", "walk", "tables", "cli")
MIN_OPS = 100
SETUP_SAMPLES = 5
CLI_SAMPLES = 5
HOLDOUT_SEED = 90017

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("peak_rss_mb", "MiB"),
)

# (metric, unit, layer, statistic); statistics are described in layer_metrics
PER_LAYER = (
    ("intlin.inverse_unimodular.calls", "count/op",
     "_intlin.inverse_unimodular", "calls"),
    ("intlin.inverse_unimodular.self_s", "s/op",
     "_intlin.inverse_unimodular", "self"),
    ("intlin.det.calls", "count/op", "_intlin.det", "calls"),
    ("intlin.det.self_s", "s/op", "_intlin.det", "self"),
    ("intlin.smith.calls", "count/op", "_intlin.smith", "calls"),
    ("intlin.smith.self_s", "s/op", "_intlin.smith", "self"),
    ("abelian.arith.calls", "count/op", "abelian.arith", "calls"),
    ("abelian.arith.self_s", "s/op", "abelian.arith", "self"),
    ("abelian.generates.calls", "count/op", "abelian.generates", "calls"),
    ("abelian.generates.self_s", "s/op", "abelian.generates", "self"),
    ("abelian.make_group.calls", "count/op", "abelian.make_group", "calls"),
    ("abelian.make_group.self_s", "s/op", "abelian.make_group", "self"),
    ("abelian.wedge2.calls", "count/op", "abelian.wedge2", "calls"),
    ("surface_data.validate.calls", "count/op", "surface_data.validate",
     "calls"),
    ("surface_data.validate.self_s", "s/op", "surface_data.validate",
     "self"),
    ("surface_data.validate.per_datum", "count/datum",
     "surface_data.validate", "per_datum"),
    ("surface_data.enumerate_colourings.calls", "count/op",
     "surface_data.enumerate_colourings", "calls"),
    ("surface_data.enumerate_colourings.self_s", "s/op",
     "surface_data.enumerate_colourings", "self"),
    ("surface_data.enumerate_colourings.ambient", "count/call",
     "surface_data.enumerate_colourings", "ambient"),
    ("surface_data.enumerate_colourings.kept", "count/call",
     "surface_data.enumerate_colourings", "kept"),
    ("surface_data.enumerate_colourings.kept_per_ambient", "ratio",
     "surface_data.enumerate_colourings", "kept_per_ambient"),
    ("surface_data.moves.self_s", "s/op", "surface_data.moves", "self"),
    ("surface_data.symplectic_reduce.self_s", "s/op",
     "surface_data.symplectic_reduce", "self"),
    ("invariants.su.self_s", "s/op", "invariants.su", "self"),
    ("invariants.cu.self_s", "s/op", "invariants.cu", "self"),
    ("invariants.vector_class.self_s", "s/op", "invariants.vector_class",
     "self"),
    ("invariants.structured_lift.calls", "count/op",
     "invariants.structured_lift", "calls"),
    ("invariants.structured_lift.self_s", "s/op",
     "invariants.structured_lift", "self"),
    ("classify.table.self_s", "s/op", "classify.table", "self"),
    ("classify.entries", "count/call", "classify.table", "entries"),
    ("diagram.enumerate_diagram_colourings.self_s", "s/op",
     "diagram.enumerate_diagram_colourings", "self"),
    ("diagram.enumerate_diagram_colourings.ambient", "count/call",
     "diagram.enumerate_diagram_colourings", "ambient"),
    ("diagram.enumerate_diagram_colourings.kept", "count/call",
     "diagram.enumerate_diagram_colourings", "kept"),
    ("diagram.quandle_op.calls", "count/op", "diagram.quandle_op", "calls"),
    ("cli.interp_s", "s", None, None),
    ("cli.import_s", "s", None, None),
    ("cli.run.self_s", "s/op", "cli.run", "self"),
    ("trace.ops_per_s", "1/s", None, None),
    ("trace.untraced_ops_per_s", "1/s", None, None),
    ("trace.overhead", "ratio", None, None),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# environment


def child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def import_package():
    """Import knotcolour from this checkout's src/ and return the import
    time in seconds."""
    if not os.path.isfile(os.path.join(SRC, "knotcolour", "__init__.py")):
        raise BenchError(f"no knotcolour package under {SRC}")
    sys.path.insert(0, SRC)
    start = perf_counter()
    import knotcolour
    elapsed = perf_counter() - start
    where = os.path.dirname(os.path.abspath(knotcolour.__file__))
    if where != os.path.join(SRC, "knotcolour"):
        raise BenchError(f"knotcolour imported from {where}, not {SRC}")
    return elapsed


def build():
    """Byte-compile the package, so that no timed import compiles."""
    import compileall
    package = os.path.join(SRC, "knotcolour")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise BenchError(f"no knotcolour package under {SRC}")
    if not compileall.compile_dir(package, quiet=1):
        raise BenchError("src/knotcolour does not compile")


def git_commit():
    """The checkout's commit from .git, without running git; None when
    the checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def provenance(seed):
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def make_workload(name, seed, corrupt=False, inproc=False):
    from workloads import WORKLOADS
    rng = random.Random(f"{name}:{seed}")
    extra = {}
    if name == "cli":
        extra = dict(workdir=os.path.join(ROOT, ".bench_work",
                                          f"cli-{os.getpid()}"),
                     inproc=inproc, python=sys.executable, env=child_env())
    try:
        return WORKLOADS[name](rng, corrupt=corrupt, **extra)
    except BaseException:
        remove_workdir(extra.get("workdir"))
        raise


class Measurement:
    """Op latencies (raw wall seconds) and the calibration samples taken
    between them."""

    def __init__(self, calibration):
        self.calibration = calibration
        self.latencies, self.midpoints, self.errors = [], [], []
        self.failed = 0
        self.peak_rss_kib = None    # after set-up and the first round
        self.cal_times, self.cal_lengths = [], []

    def calibrate(self):
        t0 = perf_counter()
        self.calibration.job()
        t1 = perf_counter()
        self.cal_times.append((t0 + t1) / 2)
        self.cal_lengths.append(t1 - t0)

    def scaled(self):
        """Latencies at the reference speed."""
        return self.calibration.scale(self.midpoints, self.latencies,
                                      self.cal_times, self.cal_lengths)

    def speed(self):
        """Machine speed over the run, relative to the reference."""
        return self.calibration.nominal / statistics.median(self.cal_lengths)


def measure(workload, seconds, min_ops=MIN_OPS, tracer=None,
            max_rounds=None, rusage=resource.RUSAGE_SELF):
    """Run whole rounds until `seconds` have passed and `min_ops` ops are
    done. Peak memory is read after the first round, so that it does not
    grow with the number of rounds a faster commit fits in."""
    cal = CHILD_PROCESS if getattr(workload, "child_processes", False) \
        else IN_PROCESS
    m = Measurement(cal)
    m.calibrate()
    since_cal = 0.0
    start = perf_counter()
    for done, ops in enumerate(workload.rounds(), 1):
        for op in ops:
            error = None
            if tracer is None:
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception as e:      # a failed op, not a crash
                    error = f"{op.kind}: {type(e).__name__}: {e}"
                t1 = perf_counter()
            else:
                with tracer.op(op.kind):
                    t0 = perf_counter()
                    try:
                        result = op.run()
                    except Exception as e:
                        error = f"{op.kind}: {type(e).__name__}: {e}"
                    t1 = perf_counter()
            if error is None:
                try:
                    error = op.check(result)
                except Exception as e:
                    error = f"{op.kind} check: {type(e).__name__}: {e}"
            m.latencies.append(t1 - t0)
            m.midpoints.append((t0 + t1) / 2)
            if error is not None:
                m.failed += 1
                if len(m.errors) < 5:
                    m.errors.append(error)
            since_cal += t1 - t0
            if since_cal >= cal.every:
                m.calibrate()
                since_cal = 0.0
        if done == 1:
            m.peak_rss_kib = resource.getrusage(rusage).ru_maxrss
        if max_rounds is not None and done >= max_rounds:
            break
        if perf_counter() - start >= seconds and len(m.latencies) >= min_ops:
            break
    m.calibrate()
    return m


def percentile_ms(latencies, q):
    """The q-th percentile (q in 1..99) in milliseconds."""
    return statistics.quantiles(latencies, n=100)[q - 1] * 1000


def end_to_end(latencies, setup_s, peak_rss_kib):
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": peak_rss_kib / 1024,
    }


def layer_metrics(tracer, ops):
    """Per-layer values from the tracer's aggregates. `calls` and `self`
    are per op; `ambient`, `kept` and `entries` per call of the layer;
    `kept_per_ambient` is total kept over total ambient; `per_datum` is
    validate calls per distinct datum validated within one op."""
    out = {}
    for name, _, layer, stat in PER_LAYER:
        if layer is None:
            continue
        calls = tracer.calls[layer]
        counts = tracer.counts.get(layer, {})
        if stat == "calls":
            value = calls / ops
        elif stat == "self":
            value = tracer.self_s[layer] / ops
        elif stat == "per_datum":
            value = calls / len(tracer.validated) if tracer.validated else 0
        elif stat == "kept_per_ambient":
            ambient = counts.get("ambient", 0)
            value = counts.get("kept", 0) / ambient if ambient else 0
        else:
            value = counts.get(stat, 0) / calls if calls else 0
        out[name] = value
    return out


def run_child(args, timeout=170):
    """Run this script as a child with `args`; return its last stdout line
    parsed as JSON."""
    cmd = [sys.executable, os.path.abspath(__file__)] + args
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       cwd=ROOT, timeout=timeout, check=False)
    lines = p.stdout.decode("utf-8").strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {p.returncode}: "
                         f"{p.stderr.decode('utf-8', 'replace')[-2000:]}")
    return json.loads(lines[-1])


def cli_floor():
    """(bare interpreter wall seconds, fresh-interpreter import time of
    knotcolour.cli), each the median of CLI_SAMPLES child processes."""
    env = child_env()
    bare, imports = [], []
    probe = ("import time; t = time.perf_counter(); import knotcolour.cli; "
             "print(time.perf_counter() - t)")
    for _ in range(CLI_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT,
                       check=True)
        bare.append(perf_counter() - t0)
        p = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                           stdout=subprocess.PIPE, check=True)
        imports.append(float(p.stdout))
    return statistics.median(bare), statistics.median(imports)


def print_result(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))


# ---------------------------------------------------------------------------
# roles


def set_up(args):
    """Import the package and build the workload. Returns the workload
    and the set-up time at the reference speed of the in-process
    calibration job, timed five times before and five times after."""
    def job_s():
        t0 = perf_counter()
        IN_PROCESS.job()
        return perf_counter() - t0

    before = [job_s() for _ in range(5)]
    import_s = import_package()
    t0 = perf_counter()
    workload = make_workload(args.workload, args.seed, args.corrupt,
                             args.inproc)
    elapsed = import_s + perf_counter() - t0
    after = [job_s() for _ in range(5)]
    return workload, elapsed * IN_PROCESS.nominal / statistics.median(
        before + after)


def role_setup(args):
    """One set-up sample in a fresh process."""
    workload, setup_s = set_up(args)
    cleanup(workload)
    print(json.dumps({"setup_s": setup_s}))


def cleanup(workload):
    """Remove the files a workload wrote during set-up."""
    remove_workdir(getattr(workload, "workdir", None))


def remove_workdir(workdir):
    if workdir and os.path.isdir(workdir):
        import shutil
        shutil.rmtree(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass        # another run still has files there


def role_untraced(args):
    """An untraced run; prints ops_per_s, for the traced run's overhead."""
    workload, _ = set_up(args)
    try:
        m = measure(workload, args.seconds, max_rounds=args.max_rounds)
    finally:
        cleanup(workload)
    for e in m.errors:
        print("# failure:", e, file=sys.stderr)
    print(json.dumps({"ops_per_s": len(m.latencies) / sum(m.scaled()),
                      "attempted": len(m.latencies), "failed": m.failed}))


def role_main(args):
    build()
    print("# provenance:", json.dumps(provenance(args.seed)))
    if args.trace:
        return traced_run(args)
    workload, setup_s = set_up(args)
    setups = [setup_s]
    # for cli, the largest op child; set-up samples run after the ops
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" \
        else resource.RUSAGE_SELF
    try:
        m = measure(workload, args.seconds, max_rounds=args.max_rounds,
                    rusage=who)
    finally:
        cleanup(workload)
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child(["--workload", args.workload,
                                 "--seed", str(args.seed),
                                 "--role", "setup"])["setup_s"])
    setup_s = statistics.median(setups)
    metrics = end_to_end(m.scaled(), setup_s, m.peak_rss_kib)
    raw = end_to_end(m.latencies, setup_s, m.peak_rss_kib)
    print("# inputs:", json.dumps(workload.properties()))
    for e in m.errors:
        print("# failure:", e)
    ops = len(m.latencies)
    print(f"# {args.workload}: "
          + " ".join(f"{k}={v:.6g}" for k, v in metrics.items())
          + f" failed_frac={m.failed / ops:.6g} ops={ops}")
    print(f"# {args.workload} unscaled wall clock: "
          + " ".join(f"{k}={raw[k]:.6g}" for k in
                     ("ops_per_s", "op_p50_ms", "op_p90_ms"))
          + f" machine speed {m.speed():.3f} x reference")
    print_result(m.failed == 0, ops, m.failed, metrics, dict(END_TO_END))


def traced_run(args):
    from tracing import Tracer
    # cli ops are traced as in-process cli.run calls; the untraced run it
    # is compared with runs the same calls in its own fresh process
    args.inproc = args.workload == "cli"
    untraced = run_child(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--role", "untraced"]
        + (["--inproc"] if args.inproc else [])
        + (["--corrupt"] if args.corrupt else [])
        + ([f"--max-rounds={args.max_rounds}"] if args.max_rounds else []))
    workload, _ = set_up(args)
    try:
        with Tracer() as tracer:
            m = measure(workload, args.seconds, tracer=tracer,
                        max_rounds=args.max_rounds)
    finally:
        cleanup(workload)
    ops = len(m.latencies)
    metrics = layer_metrics(tracer, ops)
    traced_ops_per_s = ops / sum(m.scaled())
    metrics["trace.ops_per_s"] = traced_ops_per_s
    metrics["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
    metrics["trace.overhead"] = untraced["ops_per_s"] / traced_ops_per_s
    metrics["cli.interp_s"], metrics["cli.import_s"] = cli_floor()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir,
                         f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.dump(spans, {"workload": args.workload, "seed": args.seed,
                        "ops": ops})
    print("# inputs:", json.dumps(workload.properties()))
    for e in m.errors:
        print("# failure:", e)
    print(f"# {args.workload} traced: {ops} ops, tracing overhead "
          f"{metrics['trace.overhead']:.3g}x, spans in {spans}")
    print_result(m.failed == 0 and untraced["failed"] == 0, ops,
                 m.failed + untraced["failed"], metrics,
                 {name: unit for name, unit, _, _ in PER_LAYER})


def role_all(args):
    """Every workload in its own child process, then one summary."""
    build()
    print("# provenance:", json.dumps(provenance(args.seed)))
    merged, correct, attempted, failed, units = {}, True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        res = run_child(["--workload", name, "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], timeout=900)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        cells = [f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()]
        print(f"# {name}: failed_frac={res['failed'] / res['attempted']:.6g} "
              + " ".join(cells))
        for k, v in res["metrics"].items():
            merged[f"{name}.{k}"] = v["value"]
            units[f"{name}.{k}"] = v["unit"]
    print_result(correct, attempted, failed, merged, units)


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: child processes of a run
    p.add_argument("--role", choices=("main", "setup", "untraced"),
                   default="main", help=argparse.SUPPRESS)
    p.add_argument("--inproc", action="store_true", help=argparse.SUPPRESS)
    # for bench/test_smoke.py: stop after N rounds; perturb expected values
    p.add_argument("--max-rounds", type=int, help=argparse.SUPPRESS)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    role = {"main": role_main, "setup": role_setup,
            "untraced": role_untraced}[args.role]
    if args.workload == "all":
        role = role_all
    try:
        role(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
