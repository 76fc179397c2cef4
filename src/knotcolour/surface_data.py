"""Surface data: Seifert matrices paired with colouring vectors.

Validation, lexicographic colouring enumeration, the two S-equivalence
moves and their inverses, symplectic reduction of the intersection form,
connect sums, and the word-length normal form for colouring vectors.

Matrices are tuples of int tuples. A datum stores its colouring vector
only as coordinate rows reduced mod the orders (SurfaceData._coords,
the size x r matrix X); .vector builds the GroupElement tuple from X
when first read. A datum also caches one product pair
(SurfaceData._products = (MX, M^T X) over Z, one row per entry). The
invariants read M only through it, and so does validation, with one
exception: a datum derived from a valid one by _with_matrix (the family
tables' entries past their samples) is validated from its matrix
difference to that datum, and forms no product. The empty 0x0 datum is
permitted (it can never validate over a nontrivial A, but keeps connect
sums total).
"""

from functools import cached_property
from itertools import compress
from math import lcm
from operator import mod, mul, sub

from . import abelian
from .abelian import _Record, _expect
from ._intlin import (
    det,
    identity,
    inverse_unimodular,
    mat_mul,
    not_unimodular,
    solve_mod,
    transpose,
)
from .errors import (
    BadParameters,
    BudgetExceeded,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    NonGenerating,
    NotSymplecticable,
    NotUnimodular,
    PatternMismatch,
)


def _as_matrix(matrix):
    try:
        it = iter(matrix)
    except TypeError:
        raise BadParameters(
            f"matrix must be a sequence of rows, got {matrix!r}") from None
    rows = tuple(abelian.int_tuple(row, "matrix row") for row in it)
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise BadParameters("matrix must be square")
    return rows


def _check_seifert(matrix, err=BadParameters):
    rows = _as_matrix(matrix)
    size = len(rows)
    if size % 2 != 0:
        raise err(f"Seifert matrix size must be even, got {size}")
    if size:
        S = [[rows[i][j] - rows[j][i] for j in range(size)] for i in range(size)]
        d = det(S)
        if d != 1:
            raise err(f"det(M - M^T) = {d}, expected 1")
    return rows


class SurfaceData(_Record):
    spec: abelian.GroupSpec
    matrix: tuple
    _coords: tuple

    def __init__(self, spec, matrix, vector):
        _expect(spec, abelian.GroupSpec)
        rows = _check_seifert(matrix)
        try:
            vec = tuple(vector)
        except TypeError:
            raise BadParameters("vector must be a sequence") from None
        if len(vec) != len(rows):
            raise BadParameters(
                f"vector length {len(vec)} != matrix size {len(rows)}")
        for v in vec:
            if not isinstance(v, abelian.GroupElement):
                raise BadParameters("vector entries must be GroupElement")
            if v.spec != spec:
                raise GroupMismatch("vector entry over a different spec")
        self.__dict__.update(spec=spec, matrix=rows,
                             _coords=tuple(v.coords for v in vec))

    def __repr__(self):
        return (f"SurfaceData(spec={self.spec!r}, matrix={self.matrix!r}, "
                f"vector={self.vector!r})")

    @classmethod
    def _moved(cls, spec, matrix, coords):
        """Unchecked: moves keep det(M - M^T) = 1 on checked inputs, and
        coords must be reduced mod the orders."""
        data = object.__new__(cls)
        data.__dict__.update(spec=spec, matrix=matrix, _coords=coords)
        return data

    def _with_matrix(self, matrix):
        """Unchecked: this vector under another matrix of the same size
        with the same M - M^T, validated from its difference to this
        datum, which must be valid (InternalInconsistency otherwise).

        Why this is exact. validate's colouring equation is the residual
        R(M) = M^T X - M Z = 0 mod n_c in column c, with Z = X N^T (row
        z_k has entries sum_d N_cd x_kd over Z): row i of M Z in column c
        is sum_d N_cd (MX)_id, the right side that _validate reads.
        - R is linear in M over Z. With D = M - M0, M0 this datum's
          matrix, R(M) = R(M0) + R(D), and R(M0) = 0 mod n_c as this
          datum is valid. So the equation holds for M exactly when
          R(D) = 0 mod n_c. This needs no symmetry of D; a symmetric D
          is what keeps M - M^T, and so det(M - M^T) = 1.
        - R(D) is read off the nonzeros of D: D_ij = d adds d x_i to row
          j of D^T X and -d z_j to row i of D Z, and no other row is
          touched.
        - Generation and the genus bound depend on X and the size only,
          so they are this datum's.
        The new datum's report is this datum's, or the same with the
        equation and validity false. It is stored as the new datum's
        _report, so validate returns it, and no product with M is formed.
        """
        report = self._report
        if not report.valid:
            raise InternalInconsistency(
                "a datum derived by matrix difference needs a valid base")
        X, Z, r = self._coords, self._twisted, self.spec.rank
        residual = {}
        entries = range(len(X))
        for i, row, row0 in zip(entries, matrix, self.matrix):
            if row == row0:
                continue
            diff = tuple(map(sub, row, row0))
            xi = X[i]
            Ri = residual.setdefault(i, [0] * r)
            for j in compress(entries, diff):
                d, zj = diff[j], Z[j]
                Rj = residual.setdefault(j, [0] * r)
                for c in range(r):
                    Rj[c] += d * xi[c]
                    Ri[c] -= d * zj[c]
        orders = self.spec.orders
        if any(any(map(mod, R, orders)) for R in residual.values()):
            report = ValidationReport(report.generates, False,
                                      report.genus_ok, False)
        data = SurfaceData._moved(self.spec, matrix, X)
        data.__dict__["_report"] = report
        return data

    @property
    def size(self):
        return len(self.matrix)

    @property
    def genus(self):
        return len(self.matrix) // 2

    @cached_property
    def vector(self):
        return tuple(abelian.GroupElement(self.spec, x) for x in self._coords)

    @cached_property
    def _report(self):
        # every field is immutable, so the report never goes stale
        return _validate(self)

    @cached_property
    def _twisted(self):
        # Z = X N^T over Z, the rows of t.X before reduction; read only
        # by _with_matrix
        return tuple(tuple(sum(map(mul, Nc, x)) for Nc in self.spec.action)
                     for x in self._coords)

    @cached_property
    def _products(self):
        # (MX, M^T X) over Z, the only products of M that validate, su,
        # cu and vector_class read
        return _product_pair(self.matrix, self._coords)


def make_data(spec, matrix, coords):
    """SurfaceData from raw coordinate rows (one row per vector entry)."""
    return SurfaceData(spec, matrix,
                       tuple(abelian.element(spec, c) for c in coords))


class ValidationReport(_Record):
    generates: bool
    equation_holds: bool
    genus_ok: bool
    valid: bool

    def __init__(self, generates, equation_holds, genus_ok, valid):
        self.__dict__.update(generates=generates,
                             equation_holds=equation_holds,
                             genus_ok=genus_ok, valid=valid)


def _product_pair(M, X):
    """(MX, M^T X) over Z as tuples of rows, X one integer row per entry
    of M: one pass over the nonzero entries of M, each M_ik adding
    M_ik x_k to row i of MX and M_ik x_i to row k of M^T X."""
    r = len(X[0]) if X else 0
    P = [[0] * r for _ in X]
    Q = [[0] * r for _ in X]
    entries = range(len(X))
    for Pi, xi, row in zip(P, X, M):
        for k in compress(entries, row):
            a, xk, Qk = row[k], X[k], Q[k]
            for c in range(r):
                Pi[c] += a * xk[c]
                Qk[c] += a * xi[c]
    return tuple(map(tuple, P)), tuple(map(tuple, Q))


def _min_generators(spec):
    """Minimal size of a generating set of A: max_p dim A/pA over the
    primes p dividing |A|. A generating set maps onto each A/pA, and by
    Burnside's basis theorem (see abelian._coords_generate) that many
    elements, spanning every A/pA at once by the Chinese remainder
    theorem, generate."""
    return max(len(I) for _, I, _ in abelian._frattini(spec))


def validate(data):
    """Full validity check: entries generate A, the colouring equation
    M^T V = M (t.V) holds, and the size admits the rank of A. As
    S = M^T - M is unimodular, the equation says V = S^-1 M (t-1)V.
    The check runs once per datum; later calls return the same report.
    """
    return _expect(data, SurfaceData)._report


def _validate(data):
    spec, X = data.spec, data._coords
    MX, MTX = data._products
    # per factor c: M^T x_c = M (t.X)_c mod n_c, x_c the column c of X.
    # (t.X)_c = sum_d N_cd x_d mod n_c, and reducing x_d mod n_d is
    # harmless as n_c | N_cd n_d, so the right side is sum_d N_cd (MX)_d;
    # all() stops at the first entry that fails
    factors = tuple(enumerate(zip(spec.action, spec.orders)))
    equation = all(not (q[c] - sum(map(mul, Nc, p))) % n
                   for p, q in zip(MX, MTX) for c, (Nc, n) in factors)
    gen = abelian._coords_generate(spec, tuple(sorted(set(X))))
    genus_ok = len(X) >= _min_generators(spec)
    return ValidationReport(gen, equation, genus_ok,
                            gen and equation and genus_ok)


def enumerate_colourings(matrix, spec, budget=10 ** 7):
    """All colouring vectors V with validate((matrix, V)).valid, in
    lexicographic coordinate order: the solutions of (M^T - M.t) V = 0
    over A whose entries generate A. Generation implies the genus bound,
    as fewer entries than the minimal number of generators cannot
    generate. BudgetExceeded when the linear system has more than budget
    solutions."""
    M = _check_seifert(matrix)
    negM = [[-x for x in row] for row in M]
    found = abelian.linear_kernel(transpose(M), negM, spec, budget)
    return abelian.elements_of_rows(spec, [
        V for V in found
        if abelian._coords_generate(spec, tuple(sorted(set(V))))])


# ---------------------------------------------------------------------------
# S-equivalence moves


def lambda1(data, U):
    """Unimodular congruence: (M, V) -> (U^T M U, U^-1 V); NotUnimodular
    when det U != +-1.

    J is the sorted set of columns where U differs from the identity;
    every column j outside J is e_j. Ordering the columns as (J, J') makes
    U block lower-triangular, U = [[U_JJ, 0], [U_J'J, I]]. Hence:
    - det U = det U_JJ, and only U_JJ is inverted;
    - Y = U^-1 X, X the coordinate rows of V, has Y_J = U_JJ^-1 X_J and
      Y_i = X_i - sum_{j in J} U_ij Y_j for i outside J;
    - W = M U differs from M only in the columns in J, and W_ik, k in J,
      sums M_ij U_jk over the nonzeros of column k of U;
    - U^T W differs from W only in the rows in J, and row k sums the rows
      U_jk W_j over the same nonzeros.
    Past the read of U, a U of a few transvections (walks and
    shorten_vector) costs O(n |J|), and a dense U what a dense product
    costs. The failure message names the Smith diagonal of the whole U.
    """
    size = _expect(data, SurfaceData).size
    Ur = _as_matrix(U)
    if len(Ur) != size:
        raise BadParameters(f"U must be {size}x{size}")
    entries = range(size)
    # off[i]: the columns j != i of the nonzero entries of row i
    off = [[j for j in compress(entries, row) if j != i]
           for i, row in enumerate(Ur)]
    J = sorted({j for js in off for j in js}.union(
        i for i, row in enumerate(Ur) if row[i] != 1))
    try:
        inv = inverse_unimodular([[Ur[i][j] for j in J] for i in J])
    except NotUnimodular:
        raise not_unimodular(Ur) from None
    # the nonzero entries (j, U_jk) of each column k in J
    cols = {k: [(k, Ur[k][k])] if Ur[k][k] else [] for k in J}
    for i, js in enumerate(off):
        for j in js:
            cols[j].append((i, Ur[i][j]))
    W = []
    for row in data.matrix:
        w = list(row)
        for k, col in cols.items():
            w[k] = sum(row[j] * a for j, a in col)
        W.append(w)
    M2 = list(map(tuple, W))
    for k, col in cols.items():
        acc = [0] * size
        for j, a in col:
            acc = [x + a * y for x, y in zip(acc, W[j])]
        M2[k] = tuple(acc)
    orders, X = data.spec.orders, data._coords
    Y = list(X)
    for j, y in zip(J, mat_mul(inv, [X[j] for j in J])):
        Y[j] = tuple(map(mod, y, orders))
    for i, js in enumerate(off):
        if js and i not in cols:  # a row outside J with entries in J
            y = X[i]
            for j in js:
                a = Ur[i][j]
                y = [x - a * z for x, z in zip(y, Y[j])]
            Y[i] = tuple(map(mod, y, orders))
    return SurfaceData._moved(data.spec, tuple(M2), tuple(Y))


def _lambda2_tail(spec, X, c, variant):
    """The appended coordinate rows (0; y) for the chosen variant, X the
    coordinate rows of the vector and a = sum c_i x_i: y = t.a - a, or
    (t-1)/t . a = a - t^(m-1).a for variant 1."""
    a = mat_mul((c,), X)[0] if X else (0,) * spec.rank
    b = [a]
    for _ in range(spec.m - 1 if variant == 1 else 1):
        b = abelian.act_rows(b, spec)
    y = map(sub, a, b[0]) if variant == 1 else map(sub, b[0], a)
    return ((0,) * spec.rank, tuple(map(mod, y, spec.orders)))


# the corner (M_kk, M_k,k+1, M_k+1,k, M_k+1,k+1) of the new band k, k+1 that
# lambda2 variant v appends, at _CORNERS[v - 1]
_CORNERS = ((0, -1, 0, 0), (0, 0, 1, 0))


def lambda2(data, c, variant):
    """Stabilization: grow the matrix by two rows/columns in one of the two
    patterns and append the transported vector entries."""
    size = _expect(data, SurfaceData).size
    c = abelian.int_tuple(c, "c")
    if len(c) != size:
        raise BadParameters(f"c must have length {size}")
    if type(variant) is not int or variant not in (1, 2):
        raise BadParameters(f"variant must be 1 or 2, got {variant!r}")
    M = data.matrix
    a, b, d, e = _CORNERS[variant - 1]
    rows = [list(M[i]) + [c[i], 0] for i in range(size)]
    rows.append(list(c) + [a, b])
    rows.append([0] * size + [d, e])
    tail = _lambda2_tail(data.spec, data._coords, c, variant)
    return SurfaceData._moved(
        data.spec, tuple(tuple(r) for r in rows), data._coords + tail)


def lambda2_inverse(data):
    """Undo a lambda2 stabilization; PatternMismatch when the last two
    rows/columns (or vector entries) do not match either pattern."""
    size = _expect(data, SurfaceData).size
    if size < 2:
        raise PatternMismatch("no stabilized block to remove")
    M = data.matrix
    inner = size - 2
    col_c = tuple(M[i][inner] for i in range(inner))
    row_c = tuple(M[inner][j] for j in range(inner))
    if col_c != row_c:
        raise PatternMismatch("penultimate row/column are not symmetric")
    if any(M[i][inner + 1] for i in range(inner)) or \
            any(M[inner + 1][j] for j in range(inner)):
        raise PatternMismatch("last row/column must vanish off the corner")
    corner = (M[inner][inner], M[inner][inner + 1],
              M[inner + 1][inner], M[inner + 1][inner + 1])
    if corner not in _CORNERS:
        raise PatternMismatch(f"corner {corner} matches neither pattern")
    variant = _CORNERS.index(corner) + 1
    base = data._coords[:inner]
    if data._coords[inner:] != _lambda2_tail(data.spec, base, col_c, variant):
        raise PatternMismatch("vector entries do not match the stabilization")
    inner_rows = tuple(row[:inner] for row in M[:inner])
    return SurfaceData._moved(data.spec, inner_rows, base)


# ---------------------------------------------------------------------------
# symplectic reduction


def symplectic_reduce(matrix):
    """Unimodular P with P^T (M - M^T) P the g-fold block sum of
    [[0, -1], [1, 0]]; NotSymplecticable unless det(M - M^T) = 1.

    P is the product of the congruences on S = M - M^T. Band b runs
    Euclid on row b past b, pivoting on the first entry of least absolute
    value; the +-1 entry left moves to column b + 1 (then b swaps with
    b + 1 if it is +1), and rows b and b + 1 are cleared past b + 1.
    The result is certified against standard_matrix.
    """
    M = _check_seifert(matrix, err=NotSymplecticable)
    size = len(M)
    S = [[M[i][j] - M[j][i] for j in range(size)] for i in range(size)]
    P = identity(size)

    def colop(dst, src, t):
        # congruence: column and matching row
        for i in range(size):
            S[i][dst] += t * S[i][src]
            P[i][dst] += t * P[i][src]
        for j in range(size):
            S[dst][j] += t * S[src][j]

    def swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        S[i], S[j] = S[j], S[i]
        for row in P:
            row[i], row[j] = row[j], row[i]

    for b in range(0, size, 2):
        # Euclid on row b past b; one entry is left, and it is +-1, as
        # the remaining block is unimodular
        cols = [j for j in range(b + 1, size) if S[b][j]]
        while len(cols) > 1:
            p = min(cols, key=lambda j: abs(S[b][j]))
            for j in cols:
                if j != p:
                    colop(j, p, -(S[b][j] // S[b][p]))
            cols = [j for j in cols if S[b][j]]
        swap(b + 1, cols[0])
        if S[b][b + 1] == 1:
            swap(b, b + 1)
        # S[b][b+1] == -1, S[b+1][b] == 1; clear the rest of the two rows
        for k in range(b + 2, size):
            if S[b][k]:
                colop(k, b + 1, S[b][k])
            if S[b + 1][k]:
                colop(k, b, -S[b + 1][k])
    # certify against the form of standard_matrix
    std = standard_matrix(size // 2)
    if S != [[std[i][j] - std[j][i] for j in range(size)] for i in range(size)]:
        raise NotSymplecticable("reduction failed to reach block form")
    return tuple(tuple(row) for row in P)


def standard_matrix(g):
    """The 2g x 2g matrix with M - M^T already in standard block form;
    BadParameters unless g is an int >= 0 (a bool is not an int here)."""
    if type(g) is not int or g < 0:
        raise BadParameters(f"genus must be a nonnegative integer, got {g!r}")
    size = 2 * g
    rows = [[0] * size for _ in range(size)]
    for b in range(g):
        rows[2 * b + 1][2 * b] = 1
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# sums and normal forms


def connect_sum(d1, d2):
    if _expect(d1, SurfaceData).spec != _expect(d2, SurfaceData).spec:
        raise GroupMismatch("connect sum requires a common group spec")
    n1, n2 = d1.size, d2.size
    rows = [list(d1.matrix[i]) + [0] * n2 for i in range(n1)]
    rows += [[0] * n1 + list(d2.matrix[i]) for i in range(n2)]
    return SurfaceData._moved(
        d1.spec, tuple(tuple(r) for r in rows), d1._coords + d2._coords)


def canonical_vector(w):
    """The explicit inverse of the class map: for each basis pair (i, j)
    with coefficient c emit c adjacent pairs (s_i; s_j), then trailing
    pairs (0; s_k) for every factor k."""
    spec = _expect(w, abelian.WedgeElement2).spec
    r = spec.rank

    def basis(i):
        return abelian.element(spec, tuple(1 if t == i else 0 for t in range(r)))

    out = []
    for idx, (i, j) in enumerate(abelian.pair_indices(spec)):
        for _ in range(w.coords[idx]):
            out.append(basis(i))
            out.append(basis(j))
    for k in range(r):
        out.append(abelian.zero(spec))
        out.append(basis(k))
    return tuple(out)


class ShortenResult(_Record):
    data: SurfaceData
    moves: tuple


def apply_moves(data, moves):
    """Replay a recorded move list (as produced by shorten_vector): a list
    or tuple of moves ("lambda1", U) and ("lambda2", c, variant)."""
    cur = _expect(data, SurfaceData)
    if not isinstance(moves, (list, tuple)):
        raise BadParameters(f"moves must be a list or tuple, got {moves!r}")
    for move in moves:
        tag = move[0] if isinstance(move, (list, tuple)) and move else None
        if tag == "lambda1" and len(move) == 2:
            cur = lambda1(cur, move[1])
        elif tag == "lambda2" and len(move) == 3:
            cur = lambda2(cur, move[1], move[2])
        else:
            raise BadParameters(f"unknown move {move!r}")
    return cur


def _word_lengths(spec, gens):
    """Word length of every element of A over the generating sequence
    gens of coordinate tuples (shorten_vector passes +-b for each basis
    entry b). Breadth-first walk; A is finite."""
    dist = {(0,) * spec.rank: 0}
    frontier = [(0,) * spec.rank]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                cand = tuple((a + b) % n for a, b, n in zip(cur, g, spec.orders))
                if cand not in dist:
                    dist[cand] = dist[cur] + 1
                    nxt.append(cand)
        frontier = nxt
    return dist


def _block_unimodular(size, entries):
    """Identity with the given (i, j) -> value entries written in."""
    U = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for (i, j), val in entries.items():
        U[i][j] = val
    return tuple(tuple(r) for r in U)


def shorten_vector(data, ordered_basis):
    """Drive every vector entry into {0} u {+-b : b in basis} by recorded
    lambda moves.

    Greedy loop: while some entry has word length > 1, take a longest one
    (rotating it into the odd slot of its pair if needed), stabilize with
    a lambda2 whose new band carries a length-shortening generator b, and
    slide the band into place with three symplectic transvections. Each
    round strictly shrinks the multiset of per-pair excess word lengths,
    so the loop terminates.
    """
    spec = _expect(data, SurfaceData).spec
    basis = abelian._as_tuple(ordered_basis)
    for b in basis:
        if not isinstance(b, abelian.GroupElement) or b.spec != spec:
            raise GroupMismatch("basis entries must lie in the data's group")
    if not abelian.generates(list(basis), spec):
        raise NonGenerating("ordered basis does not generate A")
    if not validate(data).valid:
        raise InvalidData("shorten_vector needs valid surface data")
    if abelian.group_order(spec) > 10 ** 6:
        raise BudgetExceeded("word-length table over A would be too large")

    orders = spec.orders
    exponent = lcm(*orders)
    gen_seq = tuple(g for b in basis for g in (
        b.coords, tuple((-x) % n for x, n in zip(b.coords, orders))))
    dist = _word_lengths(spec, gen_seq)

    NmI = [[(spec.action[i][j] - (1 if i == j else 0))
            for j in range(spec.rank)] for i in range(spec.rank)]

    moves = []
    cur = data

    def record_l1(U):
        nonlocal cur
        cur = lambda1(cur, U)
        moves.append(("lambda1", U))

    while True:
        lens = [dist[x] for x in cur._coords]
        top = max(lens, default=0)
        if top <= 1:
            break
        odd = [q for q in range(1, cur.size, 2) if lens[q] == top]
        if not odd:
            p = lens.index(top)  # an even slot; rotate the pair
            record_l1(_block_unimodular(
                cur.size, {(p, p): 0, (p, p + 1): -1,
                           (p + 1, p): 1, (p + 1, p + 1): 0}))
            continue
        q = odd[0]
        v = cur._coords[q]
        b = next(g for g in gen_seq if dist[
            tuple((x + y) % n for x, y, n in zip(v, g, orders))] < top)
        # lambda2 with (t-1).(sum c_i v_i) = b, i.e. sum c_i v_i = (t-1)^-1 b
        w = solve_mod(NmI, list(b), list(orders))
        if w is None:
            raise InternalInconsistency("t - 1 is not invertible on A")
        w = [x % n for x, n in zip(w, orders)]
        cols = transpose(cur._coords)
        c = solve_mod(cols, w, list(orders))
        if c is None:
            raise InternalInconsistency("valid data stopped generating A")
        # c only matters mod the exponent of A; keep the new band small
        c = [x % exponent for x in c]
        sz = cur.size
        cur = lambda2(cur, c, 2)
        moves.append(("lambda2", tuple(c), 2))
        # slide the new band: v_q += b, then move the partner into the band
        record_l1(_block_unimodular(sz + 2, {(q, sz + 1): -1}))
        record_l1(_block_unimodular(sz + 2, {(sz, q - 1): 1}))
        record_l1(_block_unimodular(
            sz + 2, {(sz, sz): 0, (sz, sz + 1): -1,
                     (sz + 1, sz): 1, (sz + 1, sz + 1): 0}))
    return ShortenResult(cur, tuple(moves))


# ---------------------------------------------------------------------------
# JSON interchange


def data_to_json(data):
    return {
        "group": abelian.group_to_json(_expect(data, SurfaceData).spec),
        "seifert": [list(row) for row in data.matrix],
        "vector": [list(x) for x in data._coords],
    }


def data_from_json(obj):
    spec = abelian.group_from_json(obj["group"])
    return make_data(spec, obj["seifert"], obj["vector"])
