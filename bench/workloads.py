"""The four benchmark workloads: enumerate, walk, tables and cli.

A workload's constructor is its set-up: it builds the inputs from a
seeded `random.Random`, and the library sees nothing but those inputs.
Ops come in rounds. A round has a fixed composition (which cases, which
walk sizes, which tables), and the seed only draws the concrete
inputs inside that composition. The runner stops at round boundaries,
so two seeds measure the same mix of work.

An op is a pair of callables: `run` (timed) and `check` (untimed), where
`check(result)` returns None when the output is right and a message
otherwise. `corrupt=True` perturbs each workload's expected values, so
the checks can be seen to fail.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter, namedtuple
from math import gcd

from knotcolour import abelian, classify, cli, diagram, invariants
from knotcolour import surface_data

# ---------------------------------------------------------------------------
# shared inputs

SEIFERT = {
    "3_1^l": ((-1, 1), (0, -1)),
    "3_1^r": ((1, 0), (-1, 1)),
    "4_1^l": ((1, 1), (0, -1)),
    "4_1^r": ((-1, 0), (-1, 1)),
    # the genus-1 and genus-2 matrices of the acceptance suite's
    # enumeration-agreement criterion (criterion 6)
    "c6_g1": ((3, 1), (2, 3)),
    "c6_g2": ((3, 1, 0, 0), (2, 0, 0, 0), (0, 0, 5, 2), (0, 0, 3, 0)),
}


def make_groups():
    return {
        "D6": abelian.make_group(2, (3,), ((2,),)),
        "D10": abelian.make_group(2, (5,), ((4,),)),
        "D14": abelian.make_group(2, (7,), ((6,),)),
        "A4": classify.a4_spec(),
        "C2(Z3)^2": abelian.make_group(2, (3, 3), ((2, 0), (0, 2))),
        "C2(Z3xZ5)": abelian.make_group(2, (3, 5), ((2, 0), (0, 4))),
        "C7(Z2)^3": abelian.make_group(7, (2, 2, 2),
                                       ((0, 0, 1), (1, 0, 1), (0, 1, 0))),
    }


def knot_matrix(knot):
    """Seifert matrix of a '#'-joined name: the block sum of its parts.
    The unknot has the empty matrix."""
    parts = [SEIFERT[p] for p in knot.split("#") if p != "unknot"]
    size = sum(len(p) for p in parts)
    out = [[0] * size for _ in range(size)]
    at = 0
    for part in parts:
        for i, row in enumerate(part):
            out[at + i][at:at + len(row)] = row
        at += len(part)
    return tuple(tuple(row) for row in out)


def rand_unimodular(rng, size, steps=None):
    """A product of random transvections I + t E_ij, t = +-1."""
    U = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(size if steps is None else steps):
        i, j = rng.sample(range(size), 2)
        t = rng.choice((-1, 1))
        for row in U:
            row[j] += t * row[i]
    return tuple(tuple(row) for row in U)


def congruent(matrix, U):
    """U^T M U over the integers."""
    n = len(matrix)
    MU = [[sum(matrix[i][k] * U[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    return tuple(tuple(sum(U[k][i] * MU[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


Op = namedtuple("Op", "kind run check")


def _count_check(kind, want):
    def check(found):
        if len(found) != want:
            return f"{kind}: {len(found)} colourings, expected {want}"
        return None
    return check


# ---------------------------------------------------------------------------
# enumerate


# Colouring counts of the untransformed matrices. The surface count is
# invariant under M -> U^T M U, and the diagram count of a catalog knot
# equals the surface count of its Seifert matrix (criterion 6 states this
# for the genus-1 knots). bench/test_smoke.py recomputes every entry.
COUNTS = {
    ("unknot", "D6"): 0, ("unknot", "D10"): 0, ("unknot", "A4"): 0,
    ("3_1^l", "D6"): 2, ("3_1^l", "D10"): 0, ("3_1^l", "A4"): 3,
    ("3_1^r", "D6"): 2, ("3_1^r", "D10"): 0, ("3_1^r", "A4"): 3,
    ("4_1^l", "D6"): 0, ("4_1^l", "D10"): 4, ("4_1^l", "A4"): 3,
    ("4_1^r", "D6"): 0, ("4_1^r", "D10"): 4, ("4_1^r", "A4"): 3,
    ("3_1^l#3_1^l", "D6"): 8, ("3_1^l#3_1^l", "D10"): 0,
    ("3_1^l#3_1^l", "A4"): 15,
    ("3_1^l#4_1^l", "D6"): 2, ("3_1^l#4_1^l", "D10"): 4,
    ("3_1^l#4_1^l", "A4"): 15,
    ("3_1^l#4_1^r", "D6"): 2, ("3_1^l#4_1^r", "D10"): 4,
    ("3_1^l#4_1^r", "A4"): 15,
    ("4_1^l#4_1^r", "D6"): 0, ("4_1^l#4_1^r", "D10"): 24,
    ("4_1^l#4_1^r", "A4"): 15,
    ("3_1^r#4_1^r", "D6"): 2,
    ("3_1^l#3_1^l#4_1^l", "D6"): 8,
    ("3_1^r#3_1^r#4_1^l", "D10"): 4,
    ("3_1^l", "D14"): 0,
    ("4_1^l#4_1^r", "D14"): 0,
    ("3_1^l#4_1^l#3_1^r", "A4"): 63,
    ("c6_g1", "C2(Z3)^2"): 48,
    ("c6_g1#3_1^l", "C2(Z3)^2"): 624,
    ("c6_g2", "C2(Z3xZ5)"): 192,
    ("3_1^l", "C7(Z2)^3"): 0,
    ("4_1^l#3_1^l", "C7(Z2)^3"): 0,
}

# 18 surface cases of genus 1-3 over the seven groups, ambient size
# |A|^n from 9 to 50,625, kept shares from 0 to 0.6.
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


class Enumerate:
    """One op is one call to surface_data.enumerate_colourings on a fresh
    U^T M U, or to diagram.enumerate_diagram_colourings on a catalog
    diagram. A round is all 18 surface cases and all 27 diagram cases
    (45 ops) in a seeded order."""

    name = "enumerate"

    def __init__(self, rng, corrupt=False, **_):
        self.rng = rng
        self.groups = make_groups()
        self.catalog = diagram.catalog()
        bump = 1 if corrupt else 0
        self.cases = []      # (kind, knot, group label, expected)
        for knot, g in SURFACE_CASES:
            self.cases.append(("surface", knot, g, COUNTS[knot, g] + bump))
        for knot in self.catalog:
            for g in DIAGRAM_GROUPS:
                self.cases.append(("diagram", knot, g, COUNTS[knot, g] + bump))
        self.base = {knot: knot_matrix(knot) for _, knot, _, _ in self.cases}

    def _op(self, kind, knot, g, want):
        spec = self.groups[g]
        if kind == "diagram":
            d = self.catalog[knot]
            return Op(kind, lambda: diagram.enumerate_diagram_colourings(
                d, spec), _count_check(f"{knot} over {g}", want))
        M = self.base[knot]
        matrix = congruent(M, rand_unimodular(self.rng, len(M)))
        return Op(kind, lambda: surface_data.enumerate_colourings(
            matrix, spec), _count_check(f"U^T M U of {knot} over {g}", want))

    def rounds(self):
        while True:
            order = list(self.cases)
            self.rng.shuffle(order)
            yield [self._op(*case) for case in order]

    def properties(self):
        ambient, kept, genus = [], [], Counter()
        for kind, knot, g, _ in self.cases:
            order = abelian.group_order(self.groups[g])
            if kind == "surface":
                size = len(self.base[knot])
                genus[size // 2] += 1
            else:
                size = len(self.catalog[knot].arcs) - 1
            ambient.append(order ** size)
            kept.append(COUNTS[knot, g] / order ** size)
        kept.sort()
        return {
            "ops_per_round": len(self.cases),
            "ambient_min": min(ambient), "ambient_max": max(ambient),
            "kept_per_ambient_quartiles": [
                round(kept[len(kept) * q // 4], 4) for q in range(4)]
            + [round(kept[-1], 4)],
            "surface_genus_histogram": dict(sorted(genus.items())),
            "distinct_groups": len({g for _, _, g, _ in self.cases}),
        }


# ---------------------------------------------------------------------------
# walk


STEPS = 38          # moves per walk: 19 stabilisations, so size 2 -> 40
WALKS_PER_GROUP = 2


def _walk_bases():
    """Family-table entries (datum with su, cu, s) over the five walk
    groups, genus 1 where the family has one."""
    g2 = lambda t: [e for e in t.entries if e.name == "g2"]
    g1 = lambda t: [e for e in t.entries if e.name != "g2"]
    a4 = [e for e in classify.a4_representatives().entries
          if e.data.size == 2]
    return {
        "D6": list(classify.metacyclic_table(2, 3, 2).entries),
        "D10": list(classify.metacyclic_table(2, 5, 4).entries),
        "A4": a4,
        "C2(Z3xZ5)": g2(classify.rank2_diag_table(2, 3, 5, 2, 4)),
        "C3(Z5)^2": g1(classify.rank2_nondiag_table(3, 5, ((0, 1),
                                                           (4, 4)))),
    }


class Walk:
    """One op is one lambda1 or lambda2 move followed by validate, su, cu
    and vector_class on the result. A round is two walks per group, all
    ten interleaved: each starts from a fresh base datum and alternates
    lambda1 and lambda2 for STEPS moves, growing from size 2 (4 for
    C2(Z3xZ5), which has no genus-1 family data) to about 40. Every round
    thus covers every size of every group once."""

    name = "walk"

    def __init__(self, rng, corrupt=False, **_):
        self.rng = rng
        self.bases = _walk_bases()
        self.corrupt = corrupt
        self.sizes = Counter()

    def _expect(self, entry):
        su, cu, s = entry.su, entry.cu, entry.s
        if self.corrupt:
            su = abelian.add(su, abelian.element(
                su.spec, (1,) + (0,) * (su.spec.rank - 1)))
        return su, cu, s

    def _op(self, walker, step):
        rng = self.rng
        data = walker["data"]
        size = data.size
        # sparse moves keep the cost of a step at a given size close
        # across seeds: one transvection, or a band meeting two others
        if step % 2 == 0:
            U = rand_unimodular(rng, size, steps=1)
            move = lambda: surface_data.lambda1(data, U)
            kind = "lambda1"
        else:
            c = [0] * size
            for i in rng.sample(range(size), 2):
                c[i] = rng.choice((-1, 1))
            c = tuple(c)
            variant = rng.choice((1, 2))
            move = lambda: surface_data.lambda2(data, c, variant)
            kind = "lambda2"
        want = walker["want"]

        def run():
            moved = move()
            return (moved, surface_data.validate(moved).valid,
                    invariants.su(moved), invariants.cu(moved),
                    invariants.vector_class(moved))

        def check(result):
            moved, valid, su, cu, s = result
            if not valid:
                return f"{kind} at size {size}: result does not validate"
            if (su, cu, s) != want:
                return (f"{kind} at size {size}: (su, cu, s) = "
                        f"{su.coords, cu.coords, s.coords}, base datum has "
                        f"{want[0].coords, want[1].coords, want[2].coords}")
            if kind == "lambda2" and \
                    surface_data.lambda2_inverse(moved) != data:
                return f"lambda2_inverse does not undo lambda2 at size {size}"
            walker["data"] = moved
            self.sizes[moved.size] += 1
            return None

        return Op(kind, run, check)

    def _round(self):
        walkers = []
        for entries in self.bases.values():
            for _ in range(WALKS_PER_GROUP):
                entry = self.rng.choice(entries)
                walkers.append({"data": entry.data,
                                "want": self._expect(entry)})
        for step in range(STEPS):
            self.rng.shuffle(walkers)
            for walker in walkers:
                # made only now: the move applies to the previous result
                yield self._op(walker, step)

    def rounds(self):
        while True:
            yield self._round()

    def properties(self):
        genus = Counter()
        for size, n in self.sizes.items():
            genus[size // 2] += n
        return {
            "ops_per_round": STEPS * WALKS_PER_GROUP * len(self.bases),
            "size_min": min(self.sizes, default=None),
            "size_max": max(self.sizes, default=None),
            "genus_histogram": dict(sorted(genus.items())),
            "distinct_groups": len(self.bases),
        }


# ---------------------------------------------------------------------------
# tables


def _units(m, n):
    """xi mod n with xi^m = 1, xi != 1, and xi, xi - 1 both units."""
    return [x for x in range(2, n) if gcd(x, n) == 1 and gcd(x - 1, n) == 1
            and pow(x, m, n) == 1]


def table_pool():
    """Admissible (family, params) pairs with m in {2, 3}, each over its
    own group. Sizes are capped at table builds of about 0.3 s at the
    parent commit; the whole pool takes about 9 s."""
    pool = []
    for m in (2, 3):
        for n in range(3, 122):
            for xi in _units(m, n):
                pool.append(("metacyclic", (m, n, xi)))
    odd = (3, 5, 7, 9, 11, 13)
    for n1 in odd:
        for n2 in odd:
            if n1 * n2 > 91:
                continue
            for xi1 in _units(2, n1):
                for xi2 in _units(2, n2):
                    pool.append(("rank2diag", (2, n1, n2, xi1, xi2)))
    for xi in _units(3, 7):
        # xi1 != xi2 would give 343 genus-1 entries
        pool.append(("rank2diag", (3, 7, 7, xi, xi)))
    for n in (2, 4, 5):
        pool.append(("rank2nondiag", (3, n, n - 1, n - 1)))
    return pool


def _grid(entries, rows, cols):
    return Counter((e.k, e.l) for e in entries) == Counter(
        (k, l) for k in range(1, rows + 1) for l in range(1, cols + 1))


def _check_table(family, params, table, want_bound):
    """None when the table is right, else a message: every entry
    validates, the entries cover the family's k/l/i ranges exactly, and
    the upper bound is h3 of the group."""
    label = f"{family}{params}"
    if table.upper_bound != want_bound:
        return f"{label}: upper bound {table.upper_bound} != {want_bound}"
    for e in table.entries:
        if not surface_data.validate(e.data).valid:
            return f"{label}: entry {e.name} k={e.k} l={e.l} does not validate"
    if family == "metacyclic":
        n = params[1]
        if sorted(e.k for e in table.entries) != list(range(1, n + 1)):
            return f"{label}: k does not run over 1..{n} once each"
        return None
    if family == "rank2diag":
        _, n1, n2, _, _ = params
        g = gcd(n1, n2)
        allowed = {i for i in range(1, g) if gcd(i, n2) == 1}
    else:
        _, n, n21, _ = params
        n1 = n2 = n
        allowed = {i for i in range(1, n) if gcd(i, n) == 1}
        if (n21 + 1) % n:
            allowed = set()
    g2 = [e for e in table.entries if e.name == "g2"]
    g1 = [e for e in table.entries if e.name == "g1"]
    if len(g1) + len(g2) != len(table.entries):
        return f"{label}: unexpected entry names"
    if not _grid(g2, n1, n2):
        return f"{label}: genus-2 entries do not cover k, l once each"
    # diagonal families have genus-1 classes only when a congruence on
    # the action is solvable; when they exist, all admissible i occur
    seen = {e.i for e in g1}
    if seen != allowed and (seen or family == "rank2nondiag"):
        return f"{label}: genus-1 i values {sorted(seen)} != {sorted(allowed)}"
    for i in seen:
        if not _grid([e for e in g1 if e.i == i], n1, n2):
            return f"{label}: genus-1 entries for i={i} do not cover k, l"
    return None


# looked up at call time, so that the tracer's wrappers are called
FAMILIES = {
    "metacyclic": lambda *p: classify.metacyclic_table(*p),
    "rank2diag": lambda *p: classify.rank2_diag_table(*p),
    "rank2nondiag": lambda m, n, a, b: classify.rank2_nondiag_table(
        m, n, ((0, 1), (a, b))),
}


class Tables:
    """One op is one call to metacyclic_table, rank2_diag_table or
    rank2_nondiag_table. A round is one pass over the whole pool in a
    seeded order, so every run builds the same tables. Every op of a pass
    has its own group, so the caches keyed on the group start cold as in
    a CLI call; after a pass every cache of the package is emptied."""

    name = "tables"

    def __init__(self, rng, corrupt=False, **_):
        self.rng = rng
        self.pool = table_pool()
        self.bump = 1 if corrupt else 0
        self.entries = Counter()
        self.passes = 0

    def _op(self, family, params):
        build = FAMILIES[family]

        def check(table):
            self.entries.update(e.data.genus for e in table.entries)
            want = abelian.h3_order(table.group) + self.bump
            return _check_table(family, params, table, want)

        return Op(family, lambda: build(*params), check)

    def rounds(self):
        while True:
            order = list(self.pool)
            self.rng.shuffle(order)
            self.passes += 1
            yield [self._op(*item) for item in order]
            # start the next pass as cold as a fresh process
            clear_caches()

    def properties(self):
        return {
            "ops_per_round": len(self.pool),
            "distinct_groups_per_round": len(self.pool),
            "cold_cache_share": 1.0,
            "passes": self.passes,
            "entry_genus_histogram": dict(sorted(self.entries.items())),
        }


# ---------------------------------------------------------------------------
# cli


class Cli:
    """One op is one `python -m knotcolour.cli` child process over inputs
    written during set-up; a round is 15 calls covering every subcommand
    and every classify family. Expected stdout comes from the in-process
    cli.run call on the same argv. With inproc=True an op is that
    in-process call instead (the traced run's op)."""

    name = "cli"

    def __init__(self, rng, corrupt=False, workdir=None, inproc=False,
                 python=None, env=None):
        self.rng = rng
        self.inproc = inproc
        self.python = python
        self.env = env
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        groups = make_groups()
        write = lambda stem, obj: _write_json(workdir, stem, obj)

        diag = classify.rank2_diag_table(2, 3, 5, 2, 4)
        d1 = rng.choice(diag.entries).data
        d1 = surface_data.lambda1(d1, rand_unimodular(rng, d1.size))
        meta = classify.metacyclic_table(3, 7, rng.choice((2, 4)))
        d2 = rng.choice(meta.entries).data
        c = [rng.randrange(-2, 3) for _ in range(d1.size)]
        d3 = surface_data.lambda2(d1, c, rng.choice((1, 2)))
        files = {
            "d1": write("d1", surface_data.data_to_json(d1)),
            "d2": write("d2", surface_data.data_to_json(d2)),
            "d3": write("d3", surface_data.data_to_json(d3)),
            "u": write("u", [list(r) for r in rand_unimodular(rng, d1.size)]),
            "m": write("m", [list(r) for r in congruent(
                knot_matrix("3_1^l#4_1^l"), rand_unimodular(rng, 4))]),
            "d10": write("d10", abelian.group_to_json(groups["D10"])),
            "a4": write("a4", abelian.group_to_json(groups["A4"])),
        }
        cat = diagram.catalog()
        for key, names in (("pd1", ("3_1^l", "3_1^r", "4_1^l", "4_1^r")),
                           ("pd2", ("3_1^l#4_1^r", "4_1^l#4_1^r"))):
            files[key] = write(key, diagram.diagram_to_json(
                cat[rng.choice(names)]))
        n1, n2 = rng.choice(((3, 5), (5, 3)))
        orders = ",".join(str(rng.randrange(2, 13)) for _ in range(3))
        c2 = ",".join(str(rng.randrange(-2, 3)) for _ in range(d1.size))
        self.argvs = [
            ["validate", "--data", files["d1"]],
            ["invariant", "--data", files["d1"]],
            ["invariant", "--data", files["d2"]],
            ["enumerate", "--group", files["d10"], "--matrix", files["m"]],
            ["move", "--data", files["d1"], "--lambda1", files["u"]],
            # '=' keeps argparse from reading a leading '-2' as a flag
            ["move", "--data", files["d1"], f"--lambda2={c2}",
             "--variant", str(rng.choice((1, 2)))],
            ["move", "--data", files["d3"], "--lambda2-inverse"],
            ["classify", "metacyclic", "--m", "3", "--n", "13",
             "--xi", str(rng.choice((3, 9)))],
            ["classify", "rank2diag", "--m", "2", "--n1", str(n1),
             "--n2", str(n2), "--xi1", str(n1 - 1), "--xi2", str(n2 - 1)],
            ["classify", "rank2nondiag", "--m", "3", "--n", "4",
             "--n21", "3", "--n22", "3"],
            ["classify", "a4", "--format", rng.choice(("json", "tsv"))],
            ["h3", "--orders", orders],
            ["colour-diagram", "--group", files["a4"], "--pd", files["pd1"]],
            ["colour-diagram", "--group", files["d10"], "--pd", files["pd2"]],
            ["catalog"],
        ]
        self.expected = []
        for argv in self.argvs:
            code, out = run_inproc(argv)
            if code != 0:
                raise RuntimeError(f"cli {argv[0]} exits {code} in process")
            self.expected.append(out + ("x" if corrupt else ""))

    def _op(self, argv, want):
        label = " ".join(argv[:2])
        if self.inproc:
            def run():
                return run_inproc(argv)
        else:
            cmd = [self.python, "-m", "knotcolour.cli"] + argv
            def run():
                p = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, env=self.env,
                                   cwd=self.workdir, check=False)
                return p.returncode, p.stdout.decode("utf-8")

        def check(result):
            code, out = result
            if code != 0:
                return f"{label}: exit code {code}"
            if out != want:
                return f"{label}: stdout differs from in-process cli.run"
            return None

        return Op(argv[0], run, check)

    def rounds(self):
        while True:
            pairs = list(zip(self.argvs, self.expected))
            self.rng.shuffle(pairs)
            yield [self._op(a, w) for a, w in pairs]

    @property
    def child_processes(self):
        return not self.inproc

    def properties(self):
        return {
            "ops_per_round": len(self.argvs),
            "subcommands": sorted({a[0] for a in self.argvs}),
            "child_processes": self.child_processes,
        }


def _write_json(workdir, stem, obj):
    path = os.path.join(workdir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def clear_caches():
    """Empty every functools cache of the package, as a fresh process has
    them. Looks through tracing wrappers (`__wrapped__`)."""
    for name, module in list(sys.modules.items()):
        if name != "knotcolour" and not name.startswith("knotcolour."):
            continue
        for value in list(vars(module).values()):
            if not hasattr(value, "cache_clear"):
                value = getattr(value, "__wrapped__", None)
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_inproc(argv):
    """(exit code, stdout) of cli.run(argv) in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (Enumerate, Walk, Tables, Cli)}
