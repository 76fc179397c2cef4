"""Shared test helpers: reference Seifert matrices, random unimodular
matrices, the index-loop oracle for _intlin.mat_mul and the
repeated-product oracle for _intlin.mat_pow, the Smith-form
oracles for _intlin.inverse_unimodular and _intlin.kernel_mod, the
brute-force oracle for abelian.linear_kernel, the echelon and
explicit-orbit oracles for abelian._coords_generate, random
S-equivalence moves, the fixture data pool, the backtracking oracle for
diagram colourings, the GroupElement oracle for an integer matrix
acting on a vector, the GroupElement oracles for validate,
invariants.su and invariants.cu (on any lifts), the inverting oracle for
invariants.vector_class, the search oracle for
invariants.structured_lift, the listing oracle for
invariants._hensel_lift, random group specs for them, a fresh copy
of a spec, the per-entry oracle for classify._block, a spy on element
construction and Smith calls, a spy on _intlin.mat_mul and
_intlin.mat_vec that can bound their call counts, and the abelian
helpers that the library never calls (act_rows, pair_orders,
triple_orders, wedge2_zero, wedge3_zero and wedge2_scale)."""

from contextlib import contextmanager
from functools import lru_cache
from itertools import product
from math import gcd
from operator import mod

import pytest

from knotcolour import (
    _intlin, abelian, classify, diagram, invariants, surface_data)
from knotcolour._intlin import (
    echelon_mod, inverse_unimodular, kernel_mod, mat_mul, mat_vec, smith,
    smith_mod, solve_mod, transpose)
from knotcolour.errors import (
    ArtifactError,
    BadParameters,
    DivisibilityFailure,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
    NotUnimodular,
)

TREFOIL_L = ((-1, 1), (0, -1))
TREFOIL_R = ((1, 0), (-1, 1))
FIG8_L = ((1, 1), (0, -1))
FIG8_R = ((-1, 0), (-1, 1))
# budgets that are not ints: a string, None, a bool and a float
BAD_BUDGETS = ("x", None, True, 2.5)


def rand_unimodular(rng, n, ops=6):
    """Product of random elementary column operations; det is +-1."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        t = rng.choice((-2, -1, 1, 2))
        for r in range(n):
            U[r][j] += t * U[r][i]
    return tuple(tuple(r) for r in U)


def dense_unimodular(rng, n):
    """About 4n random transvections with multipliers +-1 and +-2, then
    random row swaps and sign flips; det is +-1."""
    U = [list(row) for row in rand_unimodular(rng, n, ops=4 * n)]
    for i in range(n):
        j = rng.randrange(n)
        U[i], U[j] = U[j], U[i]
        if rng.randrange(2):
            U[i] = [-x for x in U[i]]
    return tuple(tuple(r) for r in U)


def slow_mat_mul(A, B):
    """Index-loop oracle for _intlin.mat_mul: entry (i, j) sums
    A[i][k] B[k][j] over every k, zeros included. An empty A gives no
    rows, and an empty B (a zero inner dimension) one empty row per row
    of A, as mat_mul does."""
    cols = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B)))
             for j in range(cols)] for i in range(len(A))]


def slow_mat_pow(A, k):
    """Over-Z oracle for _intlin.mat_pow: the identity times A, k times
    over, by slow_mat_mul and with no reduction."""
    out = [[int(i == j) for j in range(len(A))] for i in range(len(A))]
    for _ in range(k):
        out = slow_mat_mul(out, A)
    return out


def slow_inverse_unimodular(A):
    """Slow oracle for _intlin.inverse_unimodular: from the Smith form
    U A V = D, A is unimodular exactly when every d_i = 1, and then
    A^-1 = V U."""
    if any(len(row) != len(A) for row in A):
        raise NotUnimodular(f"{len(A)}x{len(A[0])} matrix is not square")
    U, D, V = smith(A)
    diag = [D[i][i] for i in range(len(D))]
    if any(d != 1 for d in diag):
        raise NotUnimodular(f"Smith diagonal {diag}, expected all 1")
    return mat_mul(V, U)


def slow_kernel_mod(F, mods_in, mods_out):
    """Smith-form oracle for _intlin.kernel_mod: in (U, d, V) =
    smith_mod(F, mods_out) the last k = len(mods_in) columns of V span the
    kernel over Z, and the set closure of their residues lists it, sorted."""
    k, l = len(mods_in), len(mods_out)
    V = smith_mod(F, mods_out)[2]
    span = {(0,) * k}
    for j in range(l, l + k):
        g = [V[i][j] % n for i, n in enumerate(mods_in)]
        steps, x = [], tuple(g)  # coset representatives of span in span+<g>
        while x not in span:
            steps.append(x)
            x = tuple((a + b) % n for a, b, n in zip(x, g, mods_in))
        span |= {tuple((a + b) % n for a, b, n in zip(s, x, mods_in))
                 for x in steps for s in span}
    return sorted(span)


def slow_linear_kernel(P, Q, spec):
    """Brute-force oracle for abelian.linear_kernel: walk every V in A^n,
    n the column count of P, row by row in lexicographic order, and keep
    each V with sum_j (P_ij v_j + Q_ij N v_j) = 0 in A for every row i
    of P, N the action."""
    orders, N = spec.orders, spec.action
    r = len(orders)

    def vanishes(prow, qrow, V):
        return all(sum(p * v[c] + q * sum(N[c][d] * v[d] for d in range(r))
                       for p, q, v in zip(prow, qrow, V)) % orders[c] == 0
                   for c in range(r))

    return [V for V in product(product(*map(range, orders)),
                               repeat=len(P[0]) if P else 0)
            if all(vanishes(prow, qrow, V) for prow, qrow in zip(P, Q))]


# abelian helpers that the library itself never calls


def act_rows(rows, spec):
    """t applied to each coordinate row, reduced mod the orders: the
    integer form of abelian.act. BadParameters unless spec is a GroupSpec
    and rows a list or tuple of rank-length rows of ints."""
    X = abelian.int_rows(rows, "coordinates", None,
                         abelian._expect(spec, abelian.GroupSpec).rank)
    return [tuple(map(mod, row, spec.orders))
            for row in mat_mul(X, transpose(spec.action))]


def pair_orders(spec):
    """Per basis wedge of A ^ A, the gcd of its two factors' orders."""
    return abelian._wedge_orders(spec, 2)


def triple_orders(spec):
    return abelian._wedge_orders(spec, 3)


def wedge2_zero(spec):
    return abelian.WedgeElement2(spec, (0,) * len(abelian.pair_indices(spec)))


def wedge3_zero(spec):
    return abelian.WedgeElement3(spec,
                                 (0,) * len(abelian.triple_indices(spec)))


def wedge2_scale(k, w):
    """k w; BadParameters unless k is an int and w a WedgeElement2."""
    abelian._check_scalar(k)
    return abelian.WedgeElement2(
        abelian._expect(w, abelian.WedgeElement2).spec,
        tuple(k * c for c in w.coords))


def slow_coords_generate(spec, coord_tuples):
    """Echelon oracle for abelian._coords_generate: the tuples generate A
    exactly when the columns of the relation matrix
    [g_1 ... g_k | diag(orders)] span Z^r, i.e. its echelon index is 1."""
    if not coord_tuples:
        return False
    F = [[g[i] for g in coord_tuples] for i in range(spec.rank)]
    return echelon_mod(F, spec.orders)[0] == 1


def slow_orbit_generate(spec, rows):
    """Explicit-orbit oracle for abelian._coords_generate with orbit: the
    t-orbits of the rows from m steps of act_rows, then the echelon
    verdict on the whole orbit."""
    orbit, rows = set(), list(rows)
    for _ in range(spec.m):
        orbit.update(rows)
        rows = act_rows(rows, spec)
    return slow_coords_generate(spec, tuple(sorted(orbit)))


def invariant_triple(data):
    return (invariants.su(data).coords,
            invariants.cu(data).coords,
            invariants.vector_class(data).coords)


def random_move(rng, data):
    kind = rng.randrange(3)
    if kind == 0:
        return surface_data.lambda1(data, rand_unimodular(rng, data.size))
    c = [rng.randrange(-3, 4) for _ in range(data.size)]
    return surface_data.lambda2(data, c, 1 if kind == 1 else 2)


def move_chain(rng, pool, steps):
    """(move, output) for each of `steps` random moves from a random pool
    datum: lambda1, lambda2 in either variant, connect_sum with a pool
    datum over the same spec, and lambda2_inverse right after a lambda2."""
    data = rng.choice(pool)
    out = []
    for _ in range(steps):
        stabilised = bool(out) and out[-1][0] == "lambda2"
        kind = rng.randrange(5 if stabilised else 4)
        if kind == 0:
            data = surface_data.lambda1(data, rand_unimodular(rng, data.size))
            out.append(("lambda1", data))
        elif kind in (1, 2):
            c = [rng.randrange(-3, 4) for _ in range(data.size)]
            data = surface_data.lambda2(data, c, kind)
            out.append(("lambda2", data))
        elif kind == 3:
            other = rng.choice([d for d in pool if d.spec == data.spec])
            data = surface_data.connect_sum(data, other)
            out.append(("connect_sum", data))
        else:
            data = surface_data.lambda2_inverse(data)
            out.append(("lambda2_inverse", data))
    return out


def move_pool(d6, d10, a4, c2_35):
    """Valid base data over the four move-invariance groups."""
    pool = []
    t = classify.metacyclic_table(2, 3, 2)
    pool += [t.entries[0].data, t.entries[1].data]
    t = classify.metacyclic_table(2, 5, 4)
    pool += [t.entries[0].data, t.entries[2].data]
    t = classify.a4_representatives()
    by_name = {e.name: e.data for e in t.entries}
    pool += [by_name["3_1^l"], by_name["4_1^l"], by_name["3_1^l#4_1^l"]]
    t = classify.rank2_diag_table(2, 3, 5, 2, 4)
    pool += [e.data for e in t.entries if (e.k, e.l) in ((1, 1), (2, 4))]
    assert {d.spec for d in pool} == {d6, d10, a4, c2_35}
    return pool


def odd_pool(c3_55):
    """The first genus-1 and genus-2 entries of the C3 x| (Z/5)^2 table:
    A ^ A has odd exponent there, so their su, cu and s need not equal
    their negatives, unlike every move_pool group's."""
    t = classify.rank2_nondiag_table(3, 5, ((0, 1), (4, 4)))
    pool = [next(e.data for e in t.entries if e.name == name)
            for name in ("g1", "g2")]
    assert {d.spec for d in pool} == {c3_55}
    return pool


def lift_pool(d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55):
    """Valid data over every m in {2, 3} fixture group, for the
    lift-stability sweep."""
    pool = list(move_pool(d6, d10, a4, c2_35))
    t = classify.metacyclic_table(2, 7, 6)
    pool += [t.entries[1].data]
    t = classify.metacyclic_table(3, 7, 2)
    pool += [t.entries[0].data]
    t = classify.a4_representatives()
    by_name = {e.name: e.data for e in t.entries}
    pool += [by_name["3_1^l#3_1^l"], by_name["4_1^l#4_1^r"]]
    t = classify.rank2_diag_table(2, 3, 3, 2, 2)
    pool += [next(e.data for e in t.entries if e.name == "g1"),
             next(e.data for e in t.entries if e.name == "g2")]
    pool += odd_pool(c3_55)
    specs = {d.spec for d in pool}
    assert specs == {d6, d10, d14, c3z7, a4, c2_33, c2_35, c3_55}
    return pool


def backtrack_colourings(d, spec):
    """Slow oracle for diagram.enumerate_diagram_colourings: label the base
    arc zero, then every other arc in ascending order with each element of
    A, checking a crossing through quandle_op as soon as its last arc is
    labelled; keep the labellings whose t-orbits generate A. Returns
    {arc: coords} dicts in search order."""
    order = [d.base_arc] + [a for a in d.arcs if a != d.base_arc]
    index_of = {a: i for i, a in enumerate(order)}
    ready = {i: [] for i in range(len(order))}
    for sign, (a, b, c, _) in d.crossings:
        ready[max(index_of[a], index_of[b], index_of[c])].append(
            (sign, a, b, c))
    elems = abelian.elements(spec)
    labels = {}
    out = []

    def consistent(depth):
        for sign, a, b, c in ready[depth]:
            op = diagram.quandle_op if sign > 0 else diagram.quandle_op_inverse
            if labels[c] != op(labels[a], labels[b], spec):
                return False
        return True

    def walk(depth):
        if depth == len(order):
            orbit = [abelian.act_pow(x, j)
                     for x in labels.values() for j in range(spec.m)]
            if abelian.generates(orbit, spec):
                out.append({a: x.coords for a, x in labels.items()})
            return
        for e in [abelian.zero(spec)] if depth == 0 else elems:
            labels[order[depth]] = e
            if consistent(depth):
                walk(depth + 1)
            del labels[order[depth]]

    walk(0)
    return out


def slow_mat_apply(M, vec, spec):
    """Slow oracle for an integer matrix acting on a vector of group
    elements (the vector parts of lambda1 and lambda2): each output entry
    built from GroupElement arithmetic, one mul and one add per nonzero
    matrix entry, starting from zero."""
    out = []
    for i in range(len(M)):
        acc = abelian.zero(spec)
        for j, v in enumerate(vec):
            if M[i][j]:
                acc = abelian.add(acc, abelian.mul(M[i][j], v))
        out.append(acc)
    return tuple(out)


def slow_vector_class(data):
    """Slow oracle for invariants.vector_class: symplectic_reduce (which
    checks det(M - M^T) = 1 again), P^-1 by inverse_unimodular, then the
    transformed vector wedged in adjacent pairs."""
    spec = data.spec
    total = wedge2_zero(spec)
    if data.size == 0:
        return total
    P = surface_data.symplectic_reduce(data.matrix)
    W = slow_mat_apply(
        inverse_unimodular([list(row) for row in P]), data.vector, spec)
    for b in range(data.size // 2):
        total = total + abelian.wedge2(W[2 * b], W[2 * b + 1])
    return total


def slow_validate(data):
    """Slow oracle for surface_data.validate: both sides of the colouring
    equation built as GroupElement tuples through slow_mat_apply and one
    act per entry, and generation through abelian.generates."""
    spec, M, V = data.spec, data.matrix, data.vector
    size = len(M)
    tV = tuple(abelian.act(v) for v in V)
    lhs = slow_mat_apply(transpose(M), V, spec) if size else ()
    rhs = slow_mat_apply(M, tV, spec) if size else ()
    equation = lhs == rhs
    gen = abelian.generates(list(V), spec)
    genus_ok = size >= surface_data._min_generators(spec)
    return surface_data.ValidationReport(gen, equation, genus_ok,
                                         gen and equation and genus_ok)


def slow_su(data, lifts=None):
    """Slow oracle for invariants.su: the orbit lifts from act_pow on each
    element, or the m given lift blocks, and the pairing by explicit
    index loops over M and M^T. It is the lift-independence oracle: su
    takes only the datum, so the tests compare su with this oracle on
    shifted lifts."""
    if not slow_validate(data).valid:
        raise InvalidData("su needs valid surface data")
    spec, M, V = data.spec, data.matrix, data.vector
    m, orders, r = spec.m, spec.orders, spec.rank
    size = len(M)
    if lifts is None:
        lifts = []
        for j in range(m):
            lifts.append([list(abelian.act_pow(v, j).coords) for v in V])
    else:
        lifts = [[list(row) for row in block] for block in lifts]
        if len(lifts) != m or any(len(b) != size for b in lifts):
            raise BadParameters("lifts must give m blocks of one row per entry")
    out = []
    for c in range(r):
        n = orders[c]
        total = 0
        for j in range(m):
            xj = [lifts[j][i][c] for i in range(size)]
            xj1 = [lifts[(j + 1) % m][i][c] for i in range(size)]
            for i in range(size):
                w = sum(M[i][k] * xj1[k] for k in range(size)) \
                    - sum(M[k][i] * xj[k] for k in range(size))
                if w % n:
                    raise DivisibilityFailure(
                        f"pairing entry {w} not divisible by {n} in factor {c}")
                total += xj[i] * (w // n)
        out.append(total % n)
    return abelian.element(spec, tuple(out))


def slow_structured_lift(spec):
    """Slow oracle for invariants.structured_lift: every integer lift C of
    the action with entry (i, j) in [0, n_i^2), C = N mod n_i, tried in
    row-major order with no budget; the first with C^m = I mod n_i^2
    (row i), or LiftFailure. The outcome is memoised per spec."""
    C = _slow_lift_search(spec)
    if C is None:
        raise LiftFailure(
            f"no lift of the action satisfies C^{spec.m} = I mod n_i^2")
    return C


@lru_cache(maxsize=None)
def _slow_lift_search(spec):
    """The row-major search behind slow_structured_lift; None when no
    candidate lifts."""
    m, orders, r = spec.m, spec.orders, spec.rank
    cand_lists = []
    for i in range(r):
        for j in range(r):
            base = spec.action[i][j] % orders[i]
            cand_lists.append(tuple(base + k * orders[i]
                                    for k in range(orders[i])))
    for flat in product(*cand_lists):
        C = [list(flat[i * r:(i + 1) * r]) for i in range(r)]
        P = slow_mat_pow(C, m)
        if all((P[i][j] - (1 if i == j else 0)) % (orders[i] ** 2) == 0
               for i in range(r) for j in range(r)):
            return tuple(tuple(row) for row in C)
    return None


def slow_hensel_lift(m, n, N):
    """Listing oracle for invariants._hensel_lift: the same one-step
    system sum_{a<m} N^a X N^(m-1-a) = -(N^m - I)/n mod n over plain
    powers of N, every solution x0 + k listed through kernel_mod, and
    N + n X for the least, or None when there is none."""
    r = len(N)
    powers = [slow_mat_pow(N, a) for a in range(m + 1)]
    residue = [powers[m][i][j] - (i == j) for i in range(r) for j in range(r)]
    if any(x % n for x in residue):
        return None
    F = [[sum(powers[a][i][k] * powers[m - 1 - a][l][j] for a in range(m))
          for k in range(r) for l in range(r)]
         for i in range(r) for j in range(r)]
    mods = [n] * (r * r)
    x0 = solve_mod(F, [-x // n for x in residue], mods)
    if x0 is None:
        return None
    X = min(tuple((a + b) % n for a, b in zip(x0, k))
            for k in kernel_mod(F, mods, mods, 10 ** 7))
    return [[N[i][j] + n * X[i * r + j] for j in range(r)] for i in range(r)]


# draws of m and orders before random_group_spec gives up
SPEC_DRAWS = 1000


def random_group_spec(rng, equal, validated, m_choices=(2, 3, 4),
                      top=13):
    """A random spec with m from m_choices and orders in [2, top]: equal
    orders of rank 1 or 2, or two distinct orders, and a compatible
    action, redrawn until it passes, for at most SPEC_DRAWS draws of m
    and orders (AssertionError past them). Validated specs come from
    make_group; unvalidated ones from GroupSpec, an action with N^m = I
    on A that may have fixed points and may have no lift."""
    build = abelian.make_group if validated else abelian.GroupSpec
    for _ in range(SPEC_DRAWS):
        m, r = rng.choice(m_choices), rng.choice((1, 2))
        if equal:
            orders = (rng.randrange(2, top + 1),) * r
        else:
            orders = tuple(rng.sample(range(2, top + 1), 2))
        for _ in range(50):
            # n_i | N_ij n_j: N_ij a multiple of n_i / gcd(n_i, n_j)
            N = tuple(tuple(rng.randrange(0, a, a // gcd(a, b))
                            for b in orders) for a in orders)
            try:
                return build(m, orders, N)
            except ArtifactError:
                pass
    raise AssertionError(f"no {build.__name__} spec in {SPEC_DRAWS} draws "
                         f"with m in {m_choices} and orders <= {top}")


def fresh_spec(spec):
    """A spec equal to spec but built apart, so nothing is kept on it yet
    (abelian._per_spec)."""
    return abelian.GroupSpec(spec.m, spec.orders, spec.action)


def linking_form_matrix(matrix, m):
    """L(M): (m-1) x (m-1) blocks, diagonal M + M^T, superdiagonal M^T,
    subdiagonal M."""
    size = len(matrix)
    blocks = m - 1
    L = [[0] * (blocks * size) for _ in range(blocks * size)]
    for a in range(blocks):
        for i in range(size):
            for j in range(size):
                L[a * size + i][a * size + j] = matrix[i][j] + matrix[j][i]
                if a + 1 < blocks:
                    L[a * size + i][(a + 1) * size + j] = matrix[j][i]
                    L[(a + 1) * size + i][a * size + j] = matrix[i][j]
    return L


def slow_cu(data, nlift=None, vlift=None):
    """Slow oracle for invariants.cu: the dense linking form
    linking_form_matrix(M, m) applied to the stacked lift, one mat_vec
    per lift block. The action lift nlift (by default
    slow_structured_lift) and the vector lift vlift (by default the
    coordinates) may be given: it is the lift-independence oracle, as cu
    takes only the datum."""
    if not slow_validate(data).valid:
        raise InvalidData("cu needs valid surface data")
    spec, M, V = data.spec, data.matrix, data.vector
    m, orders, r = spec.m, spec.orders, spec.rank
    size = len(M)
    C = nlift if nlift is not None else slow_structured_lift(spec)
    C = [list(row) for row in C]
    base = [list(row) for row in vlift] if vlift is not None \
        else [list(v.coords) for v in V]
    if len(base) != size:
        raise BadParameters("vector lift must have one row per entry")
    blocks = [[list(row) for row in base]]
    for _ in range(m - 2):
        blocks.append([mat_vec(C, row) for row in blocks[-1]])
    L = linking_form_matrix(M, m)
    dim = (m - 1) * size
    out = []
    for c in range(r):
        n = orders[c]
        x = [blocks[a][i][c] for a in range(m - 1) for i in range(size)]
        q = 0
        for i in range(dim):
            w = sum(L[i][j] * x[j] for j in range(dim))
            if w % n:
                raise DivisibilityFailure(
                    f"L(M) pairing entry {w} not divisible by {n} in factor {c}")
            q += x[i] * (w // n)
        if n % 2:
            out.append(q % n)
        else:
            if q % 2:
                raise InternalInconsistency(
                    "pairing value is odd over an even-order factor")
            out.append((q // 2) % n)
    return abelian.element(spec, tuple(out))


def outcome(fn, *args, **kwargs):
    """fn's value, or the type and message of the library error it
    raised, so a fast path and its oracle compare on failures too."""
    try:
        return fn(*args, **kwargs)
    except ArtifactError as e:
        return type(e), str(e)


def per_entry_block(spec, name, i, coords, matrix_at, rows, cols=None):
    """Oracle for classify._block: every entry of the block through the
    full per-entry path (make_data, validate, su, cu, vector_class), in
    table order."""
    ls = range(1, cols + 1) if cols else (None,)
    return [classify._entry(spec, k, l, i, name.format(k=k),
                            matrix_at(k, l), coords)
            for k in range(1, rows + 1) for l in ls]


@contextmanager
def construction_spy():
    """Yields (built, smith_calls): inside the block, the coords of every
    GroupElement constructed and the argument of every _intlin.smith call
    are appended to them."""
    built, smith_calls = [], []
    post, smith = abelian.GroupElement.__post_init__, _intlin.smith

    def spy_post(self):
        post(self)
        built.append(self.coords)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(abelian.GroupElement, "__post_init__", spy_post)
        mp.setattr(_intlin, "smith",
                   lambda A: smith_calls.append(A) or smith(A))
        yield built, smith_calls


class _Products(list):
    """The (A, B, A B) of every mat_mul call; the (A, v, A v) of every
    mat_vec call apart, in .vecs."""


@contextmanager
def mat_mul_spy(limit=None):
    """Yields a list: inside the block, every _intlin.mat_mul call
    appends its (A, B, A B), so a test can count the products a call
    forms and bound their entries, and every _intlin.mat_vec call
    appends its (A, v, A v) to the list's .vecs, kept apart. With a
    limit the spy also stands in for both names in every package module
    that imported them, and past limit calls of either it raises
    AssertionError instead of forming another product, so a call whose
    product count grows with m fails fast."""
    calls = _Products()
    calls.vecs = []
    real = {"mat_mul": (_intlin.mat_mul, calls),
            "mat_vec": (_intlin.mat_vec, calls.vecs)}

    def spying(name):
        body, seen = real[name]

        def spy(A, B):
            if limit is not None and len(seen) >= limit:
                raise AssertionError(f"more than {limit} {name} calls")
            P = body(A, B)
            seen.append((A, B, P))
            return P
        return spy

    spies = {name: spying(name) for name in real}
    modules = (_intlin,) if limit is None else (
        _intlin, abelian, surface_data, invariants)
    with pytest.MonkeyPatch.context() as mp:
        for module in modules:
            for name, (body, _) in real.items():
                if getattr(module, name, None) is body:
                    mp.setattr(module, name, spies[name])
        yield calls
