"""Acceptance checks, one test per criterion.

Each test gathers every violated clause into a list, prints a single
CRITERION NN: PASS/FAIL line, then asserts the list is empty.  Two
criteria once stated expectations that the documented invariants cannot
meet: criterion 1's pointwise formula su = k(xi - 1), and criterion 4's
pairwise distinctness of (s, su) and trefoil class for 4_1^l#4_1^r.
Each was replaced by what the documented definitions force, with the
derivation written beside the check that rests on it; the lemmas those
derivations use (additivity under connected sum, su of a mirror) are
checked in criterion 4.
"""

import random
from itertools import product
from math import gcd

from knotcolour import abelian, classify, diagram, invariants, surface_data
from knotcolour.errors import DivisibilityFailure

from util import (FIG8_L, FIG8_R, TREFOIL_L, TREFOIL_R, invariant_triple,
                  lift_pool, move_pool, odd_pool, random_move)


def report(num, failures):
    print(f"CRITERION {num:02d}: {'FAIL' if failures else 'PASS'}")
    assert not failures, "\n".join(failures)


def test_criterion_01_dihedral_tables():
    # su is the documented orbit sum
    #   su = sum_{j<m} <X_j, (M X_{j+1} - M^T X_j) / n>,  X_j = lift(t^j V),
    # and x^T M^T x = x^T M x, so each term is (X_j^T M X_{j+1} - X_j^T M X_j)/n.
    # F_k = (M_k, V) with M_k = [[a + kn, 0], [1, 1]] and V = (1; x) (the
    # metacyclic_table docstring); only M_k depends on k.
    #
    # Slope in k: M_{k+1} - M_k = n E_11 and X_j[0] = xi^j mod n, so
    #   su(F_{k+1}) - su(F_k) = sum_j X_j[0] (X_{j+1}[0] - X_j[0])
    #                         = (xi - 1) sum_{j<m} xi^{2j}   (mod n),
    # which is 2(xi - 1) for m = 2.  The pointwise formula su = k(xi - 1)
    # once asserted here has slope xi - 1, so su(F_k) - k(xi - 1) = c +
    # k(xi - 1) for a constant c.  As xi - 1 is a unit (metacyclic_table
    # requires it), that is 0 at exactly one k in 1..n: the formula cannot
    # hold throughout.  That clause is replaced by the slope law and by the
    # closed form for m = 2: the four terms of the orbit sum combine to
    #   su(F_k) = -D^T M_k D / n,   D = lift(t.V) - lift(V)   (exact).
    # An su that kept only the j = 0 term would have slope xi - 1 and fail.
    failures = []
    m = 2
    for n in (3, 5, 7):
        xi = n - 1
        t = classify.metacyclic_table(m, n, xi)
        if len(t.entries) != n:
            failures.append(f"n={n}: {len(t.entries)} entries")
            continue
        x = xi * pow(1 - xi, -1, n) % n
        a = -xi * pow((1 - xi) ** 2, -1, n) % n
        D = (xi % n - 1, xi * x % n - x)
        slope = (xi - 1) * sum(xi ** (2 * j) for j in range(m)) % n
        if [(e.k, e.data.matrix, [v.coords for v in e.data.vector])
                for e in t.entries] != [(k, ((a + k * n, 0), (1, 1)),
                                         [(1,), (x,)])
                                        for k in range(1, n + 1)]:
            failures.append(f"n={n}: entries are not F_1..F_n")
            continue
        for e in t.entries:
            if not surface_data.validate(e.data).valid:
                failures.append(f"n={n} k={e.k}: entry does not validate")
            M = e.data.matrix
            q = sum(D[i] * M[i][j] * D[j] for i in range(2) for j in range(2))
            want = (-q // n) % n
            if q % n or e.su.coords != (want,):
                failures.append(f"n={n} k={e.k}: su {e.su.coords} != "
                                f"-D^T M D / n = {-q}/{n}")
        su = [e.su.coords[0] for e in t.entries]
        steps = {(nxt - cur) % n for cur, nxt in zip(su, su[1:])}
        if steps != {slope}:
            failures.append(f"n={n}: su steps {sorted(steps)} != "
                            f"(xi-1) sum xi^2j = {slope}")
        hits = [k for k, v in enumerate(su, 1) if v == k * (xi - 1) % n]
        if len(hits) != 1:
            failures.append(f"n={n}: su = k(xi-1) at k in {hits}; the slope "
                            "law allows exactly one")
        if len({e.su.coords for e in t.entries}) != n:
            failures.append(f"n={n}: su values not pairwise distinct")
        if len({e.cu.coords for e in t.entries}) != n:
            failures.append(f"n={n}: cu values not pairwise distinct")
        if t.lower_bound != n:
            failures.append(f"n={n}: lower bound {t.lower_bound} != {n}")
    report(1, failures)


def test_criterion_02_m3_collapse():
    failures = []
    for m, n, xi in ((3, 7, 2), (3, 7, 4), (3, 13, 3), (3, 13, 9)):
        lb = classify.metacyclic_table(m, n, xi).lower_bound
        if lb != 1:
            failures.append(f"({m},{n},{xi}): lower bound {lb} != 1")
    report(2, failures)


def test_criterion_03_h3_orders():
    failures = []
    for n in range(2, 21):
        got = abelian.h3_order((n,))
        if got != n:
            failures.append(f"h3((Z/{n})) = {got} != {n}")
    for n1 in range(2, 13):
        for n2 in range(2, 13):
            got = abelian.h3_order((n1, n2))
            want = n1 * n2 * gcd(n1, n2)
            if got != want:
                failures.append(f"h3((Z/{n1} x Z/{n2})) = {got} != {want}")
    if abelian.h3_order((2, 2)) != 8:
        failures.append("h3((Z/2)^2) != 8")
    report(3, failures)


def mirror(matrix):
    """-M^T: the Seifert matrix of the mirror image."""
    size = len(matrix)
    return tuple(tuple(-matrix[j][i] for j in range(size))
                 for i in range(size))


def inverting_automorphism(spec):
    """phi with phi(t.x) = t^-1.phi(x): the identity when m = 2, and for
    A4 the Frobenius x -> x^2 of F_4 = (Z/2)^2, on which t is
    multiplication by a root of x^2 + x + 1."""
    P = ((1, 0), (0, 1)) if spec.m == 2 else ((1, 1), (0, 1))
    r = spec.rank
    return lambda v: abelian.element(
        spec, tuple(sum(P[i][j] * v.coords[j] for j in range(r))
                    for i in range(r)))


def additivity_failures(table):
    """s, su and cu of X # Y are the sums over X and Y, for all 16 ordered
    pairs of genus-1 entries.  connect_sum makes M block diagonal and
    concatenates V, and none of the three has a term across the blocks:
    su is a sum of terms M_ab X_j[a] X_j'[b] over entries of M; cu pairs
    against L(M), which is block diagonal after reordering its
    coordinates; and from P^T (M - M^T) P = J with W = P^-1 V,
    s = sum_{a<b} (M_ba - M_ab) V_a ^ V_b."""
    failures = []
    base = [e for e in table.entries if "#" not in e.name]
    for x, y in product(base, repeat=2):
        data = surface_data.connect_sum(x.data, y.data)
        if not surface_data.validate(data).valid:
            failures.append(f"{x.name}#{y.name} does not validate")
            continue
        for label, got, want in (
                ("s", invariants.vector_class(data), x.s + y.s),
                ("su", invariants.su(data), abelian.add(x.su, y.su)),
                ("cu", invariants.cu(data), abelian.add(x.cu, y.cu))):
            if got != want:
                failures.append(f"{label}({x.name}#{y.name}) = {got.coords}"
                                f" != {want.coords}")
    return failures


def mirror_failures(specs):
    """su(-M^T, phi V) = -su(M, V) for every colouring V of the trefoil and
    the figure-eight, and phi maps the colourings of M onto those of -M^T.

    Proof for m = 2 (phi = 1).  (-M^T)^T V = -M V and (-M^T)(t.V) =
    -M^T(t.V); applying t^-1 to M^T V = M(t.V) gives M V = M^T(t^-1.V),
    so V colours -M^T exactly when it colours M with t^-1 = t (the other
    clauses of validity see M - M^T, which the mirror keeps).  In the
    orbit sum, X_j^T (-M^T) X_{j+1} = -X_{j+1}^T M X_j, so su(-M^T, V; t)
    = -su(M, V; t^-1), the orbit read backwards, which is -su(M, V).

    For m = 3 the same steps give su(-M^T, phi V; t) = -su(M, phi V; t^-1).
    The remaining step, su(M, phi V; t^-1) = su(M, V; t), is not proven:
    su is computed per cyclic factor and phi mixes the two factors of
    (Z/2)^2.  It is checked here on every colouring of both knots, which
    is all criterion 4 uses.  In (Z/2)^2, -x = x, so mirrors share su.
    """
    failures = []
    for spec in specs:
        phi = inverting_automorphism(spec)
        if any(phi(abelian.act(v)) != abelian.act_pow(phi(v), -1)
               for v in abelian.elements(spec)):
            failures.append(f"phi does not invert the action of {spec}")
            continue
        for matrix in (TREFOIL_L, FIG8_L):
            image = mirror(matrix)
            found = surface_data.enumerate_colourings(matrix, spec)
            mapped = sorted(tuple(phi(v).coords for v in vec)
                            for vec in found)
            want = sorted(tuple(v.coords for v in vec) for vec in
                          surface_data.enumerate_colourings(image, spec))
            if mapped != want:
                failures.append(f"{matrix} over {spec.orders}: phi does not "
                                "map colourings onto those of the mirror")
            for vec in found:
                got = invariants.su(surface_data.SurfaceData(
                    spec, image, tuple(phi(v) for v in vec)))
                want = abelian.neg(invariants.su(
                    surface_data.SurfaceData(spec, matrix, vec)))
                if got != want:
                    failures.append(f"{matrix} over {spec.orders}, V = "
                                    f"{[v.coords for v in vec]}: mirror su "
                                    f"{got.coords} != {want.coords}")
    return failures


def test_criterion_04_a4_family(d6, d10, d14, a4):
    failures = []
    surf = surface_data.enumerate_colourings(TREFOIL_L, a4)
    if len(surf) != 3:
        failures.append(f"trefoil surface colourings: {len(surf)} != 3")
    diag = diagram.enumerate_diagram_colourings(
        diagram.catalog()["3_1^l"], a4)
    if len(diag) != 3:
        failures.append(f"trefoil diagram colourings: {len(diag)} != 3")

    t = classify.a4_representatives()
    if len(t.entries) != 8:
        failures.append(f"{len(t.entries)} representatives != 8")
    for e in t.entries:
        if not surface_data.validate(e.data).valid:
            failures.append(f"{e.name}: entry does not validate")
    if len({e.cu.coords for e in t.entries}) != 2:
        failures.append("cu does not take exactly two values")

    # The lemmas the clauses below rest on.
    failures += additivity_failures(t)
    failures += mirror_failures((d6, d10, d14, a4))

    # (s, su) cannot be pairwise distinct over the eight entries.  s lies
    # in A^A = Z/2.  On a genus-1 entry s = (M_10 - M_01) V_0 ^ V_1 =
    # V_0 ^ V_1, as det(M - M^T) = 1, and a generating pair of (Z/2)^2 is a
    # basis, so s = 1; by additivity s = 0 on the four sums.  Mirrors share su (-x = x in (Z/2)^2), so the genus-1 entries
    # give at most two su values; each sum's su is its summands' sum, so
    # 3_1#3_1 and 4_1^l#4_1^r both give 0 and 3_1#4_1^l, 3_1#4_1^r share
    # su(3_1) + su(4_1).  Hence at most 4 values, and exactly 4 because
    # su(3_1) != su(4_1).
    by_name = {e.name: e for e in t.entries}
    for e in t.entries:
        if "#" in e.name:
            x, y = (by_name[nm] for nm in e.name.split("#"))
            if e.s.coords != (0,):
                failures.append(f"s({e.name}) = {e.s.coords} != (0,)")
            if e.su != abelian.add(x.su, y.su):
                failures.append(f"su({e.name}) is not su({x.name}) + "
                                f"su({y.name})")
        elif e.s.coords != (1,):
            failures.append(f"s({e.name}) = {e.s.coords} != (1,)")
    for x, y in (("3_1^l", "3_1^r"), ("4_1^l", "4_1^r")):
        if by_name[x].su != by_name[y].su:
            failures.append(f"mirrors {x}, {y} differ in su")
    pairs = {(e.s.coords, e.su.coords) for e in t.entries}
    if len(pairs) != 4:
        failures.append(f"{len(pairs)} distinct (s, su) values, not 4")

    # Classes: a4_class reads cu, which is additive, so each sum lands in
    # a4_sum_class of its summands' classes; 4_1^l#4_1^r is figure8 +
    # figure8 = figure8, not trefoil.
    knot_class = {"3_1": classify.TREFOIL_CLASS,
                  "4_1": classify.FIGURE8_CLASS}
    for e in t.entries:
        got = classify.a4_class(e.data)
        if "#" in e.name:
            x, y = e.name.split("#")
            want = classify.a4_sum_class(classify.a4_class(by_name[x].data),
                                         classify.a4_class(by_name[y].data))
        else:
            want = knot_class[e.name[:3]]
        if got != want:
            failures.append(f"class({e.name}) = {got} != {want}")
    got = classify.a4_class(by_name["3_1^l#3_1^l"].data)
    if got != classify.FIGURE8_CLASS:
        failures.append(f"class(3_1#3_1) = {got} != {classify.FIGURE8_CLASS}")

    f8, t31 = classify.FIGURE8_CLASS, classify.TREFOIL_CLASS
    law = {(f8, f8): f8, (f8, t31): t31, (t31, f8): t31, (t31, t31): f8}
    for (x, y), want in law.items():
        got = classify.a4_sum_class(x, y)
        if got != want:
            failures.append(f"sum class {x}+{y} = {got} != {want}")
    report(4, failures)


def test_criterion_05_move_invariance(d6, d10, a4, c2_35, c3_55):
    failures = []
    # the C3 x| (Z/5)^2 data have su, cu and s of odd order
    pool = move_pool(d6, d10, a4, c2_35) + odd_pool(c3_55)
    frozen = [invariant_triple(d) for d in pool]
    current = list(pool)
    rng = random.Random(20260815)
    for trial in range(200):
        idx = rng.randrange(len(pool))
        moved = random_move(rng, current[idx])
        if not surface_data.validate(moved).valid:
            failures.append(f"trial {trial}: move broke validity (datum "
                            f"{idx})")
            continue
        if invariant_triple(moved) != frozen[idx]:
            failures.append(f"trial {trial}: invariants changed (datum "
                            f"{idx})")
            continue
        current[idx] = moved
    report(5, failures)


def brute_force(matrix, spec):
    found = []
    size = len(matrix)
    for vec in product(abelian.elements(spec), repeat=size):
        data = surface_data.make_data(spec, matrix,
                                      [e.coords for e in vec])
        if surface_data.validate(data).valid:
            found.append(tuple(e.coords for e in vec))
    return found


def test_criterion_06_enumeration_agreement(d6, d10, a4, c2_33, c2_35,
                                            c7_222):
    failures = []
    granny = surface_data.connect_sum(
        surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)]),
        surface_data.make_data(a4, TREFOIL_L, [(0, 1), (1, 1)])).matrix
    c2_33_g1 = ((3, 1), (2, 3))
    c2_35_g2 = ((3, 1, 0, 0), (2, 0, 0, 0), (0, 0, 5, 2), (0, 0, 3, 0))
    cases = [
        (TREFOIL_L, d6), (TREFOIL_R, d6), (FIG8_L, d6),
        (TREFOIL_L, d10), (FIG8_L, d10),
        (TREFOIL_L, a4), (FIG8_L, a4), (TREFOIL_R, a4), (FIG8_R, a4),
        (granny, a4), (c2_33_g1, c2_33), (c2_35_g2, c2_35),
        (TREFOIL_L, c7_222),
    ]
    for matrix, spec in cases:
        total = abelian.group_order(spec) ** len(matrix)
        assert total <= 10 ** 6
        want = [tuple(abelian.GroupElement(spec, x) for x in vec)
                for vec in brute_force(matrix, spec)]
        got = surface_data.enumerate_colourings(matrix, spec)
        if repr(got) != repr(want):
            failures.append(
                f"matrix {matrix} over {spec.orders}: enumerate gave "
                f"{len(got)}, brute force {len(want)}")

    cat = diagram.catalog()
    surf_matrix = {"3_1^l": TREFOIL_L, "3_1^r": TREFOIL_R,
                   "4_1^l": FIG8_L, "4_1^r": FIG8_R}
    for name, matrix in surf_matrix.items():
        for label, spec in (("d6", d6), ("d10", d10), ("a4", a4)):
            dcount = len(diagram.enumerate_diagram_colourings(
                cat[name], spec))
            scount = len(surface_data.enumerate_colourings(matrix, spec))
            if dcount != scount:
                failures.append(f"{name} over {label}: diagram {dcount} != "
                                f"surface {scount}")
    report(6, failures)


def test_criterion_07_wedge_round_trip(a4, z46, z333):
    failures = []
    for label, spec in (("(Z/2)^2", a4), ("Z/4xZ/6", z46),
                        ("(Z/3)^3", z333)):
        elems = abelian.elements(spec)
        basis = [abelian.element(spec, tuple(int(i == j)
                                             for j in range(len(spec.orders))))
                 for i in range(len(spec.orders))]
        pairs = abelian.pair_indices(spec)

        def rebuild(coords):
            w = abelian.wedge2_zero(spec)
            for (i, j), c in zip(pairs, coords):
                w = w + abelian.wedge2_scale(c, abelian.wedge2(basis[i],
                                                               basis[j]))
            return w

        for a in elems:
            for b in elems:
                w = abelian.wedge2(a, b)
                if rebuild(w.coords) != w:
                    failures.append(f"{label}: {a.coords}^{b.coords} does "
                                    "not survive the round trip")
        for coords in product(*(range(o) for o in abelian.pair_orders(spec))):
            if rebuild(coords).coords != coords:
                failures.append(f"{label}: coordinates {coords} do not "
                                "survive the round trip")
    report(7, failures)


def test_criterion_08_elementary_2group_is_uncolourable(c7_222):
    failures = []
    count = 0
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if (b - c) ** 2 != 1:
            continue
        count += 1
        matrix = ((a, b), (c, d))
        found = surface_data.enumerate_colourings(matrix, c7_222)
        if found:
            failures.append(f"{matrix}: {len(found)} unexpected colourings")
    if count != 200:
        failures.append(f"searched {count} matrices, expected 200")
    report(8, failures)


def test_criterion_09_quandle_table_and_axioms(d6, d10, d14, c3z7, c4z5, a4,
                                               c2_33, c2_35, c3_55, c7_222):
    failures = []
    a, b, c, d = (abelian.element(a4, t)
                  for t in ((0, 0), (1, 0), (0, 1), (1, 1)))
    want_rows = {a: (a, d, b, c), b: (c, b, d, a),
                 c: (d, a, c, b), d: (b, c, a, d)}
    entries = 0
    for x, row in want_rows.items():
        for y, want in zip((a, b, c, d), row):
            entries += 1
            got = diagram.quandle_op(x, y, a4)
            if got != want:
                failures.append(f"table: {x.coords}*{y.coords} = "
                                f"{got.coords} != {want.coords}")
    if entries != 16:
        failures.append(f"checked {entries} table entries, expected 16")

    specs = {"d6": d6, "d10": d10, "d14": d14, "c3z7": c3z7, "c4z5": c4z5,
             "a4": a4, "c2_33": c2_33, "c2_35": c2_35, "c3_55": c3_55,
             "c7_222": c7_222}
    for label, spec in specs.items():
        if abelian.group_order(spec) > 64:
            failures.append(f"{label}: carrier larger than 64")
            continue
        elems = abelian.elements(spec)
        op = lambda x, y: diagram.quandle_op(x, y, spec)
        for x in elems:
            if op(x, x) != x:
                failures.append(f"{label}: {x.coords} not idempotent")
        for x in elems:
            for y in elems:
                if diagram.quandle_op_inverse(op(x, y), y, spec) != x:
                    failures.append(f"{label}: op(., {y.coords}) not "
                                    "invertible")
        for x in elems:
            for y in elems:
                for z in elems:
                    if op(op(x, y), z) != op(op(x, z), op(y, z)):
                        failures.append(
                            f"{label}: self-distributivity fails at "
                            f"({x.coords},{y.coords},{z.coords})")
    report(9, failures)


def test_criterion_10_lift_stability(d6, d10, d14, c3z7, a4, c2_33, c2_35,
                                     c3_55):
    failures = []
    rng = random.Random(97)
    pool = lift_pool(d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55)
    for idx, data in enumerate(pool):
        spec = data.spec
        try:
            want = invariants.cu(data)
            C = invariants.structured_lift(spec)
            for _ in range(3):
                nlift = tuple(
                    tuple(x + spec.orders[i] ** 2 * rng.randrange(-2, 3)
                          for x in row)
                    for i, row in enumerate(C))
                if invariants.cu(data, nlift=nlift) != want:
                    failures.append(f"datum {idx}: cu moved under nlift "
                                    "change")
                vlift = [[c + o * rng.randrange(-3, 4)
                          for c, o in zip(v.coords, spec.orders)]
                         for v in data.vector]
                if invariants.cu(data, vlift=vlift) != want:
                    failures.append(f"datum {idx}: cu moved under vlift "
                                    "change")
        except DivisibilityFailure as e:
            failures.append(f"datum {idx}: divisibility failure on valid "
                            f"data ({e})")
    report(10, failures)
