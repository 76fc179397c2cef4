"""Surface data: Seifert matrices paired with colouring vectors.

Validation, lexicographic colouring enumeration, the two S-equivalence
moves and their inverses, symplectic reduction of the intersection form,
connect sums, and the word-length normal form for colouring vectors.

Matrices are tuples of int tuples. A datum stores its colouring vector
only as coordinate rows reduced mod the orders (SurfaceData._coords,
the size x r matrix X); .vector builds the GroupElement tuple from X
when first read. A datum also caches one product pair
(SurfaceData._products = (MX, M^T X) over Z, one row per entry), formed
when first read. Validation and the invariants read M only through it:
validation checks the colouring equation per factor c as column c of
M^T X against sum_d N_cd (column d of MX), N the action, and s, su and
cu at m <= 3 read the cached r x r Gram matrix SurfaceData._gram =
X^T (MX); cu at m >= 4 forms two blocks of L x from the pair. The
empty 0x0 datum is permitted (it can never validate over a nontrivial
A, but keeps connect sums total).

The pair and G are column dot products summed at C level (_dots), so
only O(r^2) work per datum runs as bytecode. The moves and connect
sums derive their output's pair exactly from their sources' pairs, at
the cost of the rows they change, so a chain of moves forms the pair
once, for its head. They carry G the same way, but only from sources
whose G is already formed, so a chain whose head's G the invariants
formed forms it once too. The validation report is carried only for
certified family table entries (classify._block), which share their
first sample's; validate still checks each moved datum, from its
carried pair. lambda1 reads U only on the rows that are not rows of
the identity, forms M U one column in J (the columns where U differs
from the identity) at a time and rebuilds only the rows it changes,
and corrects the carried pair only by the residue of reducing U^-1 X
mod the orders.
"""

from functools import cached_property
from itertools import chain, compress, repeat
from math import lcm
from operator import add, itemgetter, mod, mul, ne, sub

from . import abelian
from .abelian import _Record, _expect
from ._intlin import (
    det,
    identity,
    inverse_unimodular,
    mat_mul,
    mat_vec,
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


# the row types _as_matrix admits in its C-level pass
_ROW = frozenset((list, tuple))


def _as_matrix(matrix):
    """matrix as a square tuple of int tuples, coercing nothing:
    BadParameters if it is not iterable, naming the first row that is not
    a list or tuple of ints (a bool is not an int here), or unless every
    row is as long as there are rows. One C-level pass over the types
    admits the common case; only a failing matrix is read row by row."""
    try:
        it = iter(matrix)
    except TypeError:
        raise BadParameters(
            f"matrix must be a sequence of rows, got {matrix!r}") from None
    rows = tuple(it)
    if _ROW.issuperset(map(type, rows)) and \
            abelian._INT.issuperset(map(type, chain.from_iterable(rows))):
        rows = tuple(map(tuple, rows))
    else:
        rows = tuple(abelian.int_tuple(row, "matrix row") for row in rows)
    if not {len(rows)}.issuperset(map(len, rows)):
        raise BadParameters("matrix must be square")
    return rows


def _check_seifert(matrix, err=BadParameters):
    rows = _as_matrix(matrix)
    size = len(rows)
    if size % 2 != 0:
        raise err(f"Seifert matrix size must be even, got {size}")
    d = det([[rows[i][j] - rows[j][i] for j in range(size)]
             for i in range(size)])
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
    def _moved(cls, spec, matrix, coords, _gram=None, **cached):
        """Unchecked: the caller has proved det(M - M^T) = 1, and coords
        must be reduced mod the orders. _gram and cached fill only cache
        slots the caller has proved: _products, the exact pair
        (MX, M^T X) a move or connect sum carried; _gram, the exact
        G = X^T (MX) a move or connect sum carried from sources whose G
        was already formed (None leaves the slot empty, as a move never
        forms G for it); or _report, a certified family table entry's
        report (classify._block)."""
        data = object.__new__(cls)
        data.__dict__.update(spec=spec, matrix=matrix, _coords=coords,
                             **cached)
        if _gram is not None:
            data.__dict__["_gram"] = _gram
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
    def _products(self):
        # (MX, M^T X) over Z, the only products of M that validation and
        # the invariants read
        return _product_pair(self.matrix, self._coords)

    @cached_property
    def _gram(self):
        # G = X^T (MX), r x r over Z (zeros for the 0x0 datum), G_pq the
        # column p of X dotted with the column q of MX: s, su and cu at
        # m <= 3 are pairings of G with a matrix of the spec
        X, r = self._coords, self.spec.rank
        if not X:
            return ((0,) * r,) * r
        return _dots(tuple(zip(*X)), zip(*self._products[0]))


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


def _axpy(u, t, v):
    """The integer row u + t v."""
    return tuple(map(add, u, map(mul, v, repeat(t))))


def _combo(terms):
    """The integer vector sum t v, lazily, over the (t, v) in terms, at
    least one; each v an iterable of ints."""
    acc = None
    for t, v in terms:
        if t != 1:
            v = map(mul, v, repeat(t))
        acc = v if acc is None else map(add, acc, v)
    return acc


def _dots(rows, cols):
    """The integer matrix of dot products (row p . col q) as tuples of
    rows, rows a sequence: column q is one C-level pass down rows."""
    return tuple(zip(*[map(sum, map(map, repeat(mul), rows, repeat(col)))
                       for col in cols]))


def _product_pair(M, X):
    """(MX, M^T X) over Z as tuples of rows, X one integer row per entry
    of M: the rows of M and of M^T dotted with the columns of X."""
    cols = tuple(zip(*X))
    return _dots(M, cols), _dots(tuple(zip(*M)), cols)


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
    # per factor c: M^T x_c = M (t.X)_c mod n_c, x_c the column c of X.
    # (t.X)_c = sum_d N_cd x_d mod n_c, and reducing x_d mod n_d is
    # harmless as n_c | N_cd n_d, so the sides are column c of M^T X and
    # sum_d N_cd (column d of MX), compared entry by entry; any() stops
    # at the first entry failing, all() at the first factor failing
    MX, MTX = data._products
    cols = tuple(zip(*MX))
    equation = all(
        not any(map(mod, map(sub, lhs, _combo(zip(row, cols))), repeat(n)))
        for lhs, row, n in zip(zip(*MTX), spec.action, spec.orders))
    gen = abelian._coords_generate(spec, frozenset(X))
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
        if abelian._coords_generate(spec, frozenset(V))])


# ---------------------------------------------------------------------------
# S-equivalence moves


def lambda1(data, U):
    """Unimodular congruence: (M, V) -> (U^T M U, U^-1 V); NotUnimodular
    when det U != +-1.

    J is the sorted set of columns where U differs from the identity;
    every column j outside J is e_j. Ordering the columns as (J, J') makes
    U block lower-triangular, U = [[U_JJ, 0], [U_J'J, I]]. Hence:
    - det U = det U_JJ, and only U_JJ is inverted;
    - E = U^-1 X over Z, X the coordinate rows of V, has
      E_J = U_JJ^-1 X_J and E_i = X_i - sum_{j in J} U_ij E_j for the
      rows i outside J with entries in J; every other row is X_i;
    - U^T R, for any rows R, differs from R only in the rows in J, and
      row k sums the rows U_jk R_j over the nonzeros of column k of U
      (_ut_times);
    - W = M U differs from M only in the columns in J, column k summing
      U_jk times column j of M, so only the rows where such a column
      changed are rebuilt; M' = U^T M U is _ut_times on W.
    J and the nonzeros of its columns are read from the rows D of U that
    are not rows of the identity: a nonzero U_jk off the diagonal, or a
    U_kk != 1, lies in a row of D.
    The output's rows are Y = E mod the orders, and the product pair is
    carried from the source's through the residue R = E - Y, nonzero
    only in the rows E changed:
    - M' Y = U^T (MX) - M' R and M'^T Y = U^T (M^T X) - M'^T R;
    - row i of R subtracts R_i times column i of M' from the first, and
      times row i of M' from the second, on the rows p where that column
      or row of M' is nonzero.
    Past the read of U (C-level passes over its n^2 entries), a U of a
    few transvections (walks and shorten_vector) costs O(n) at C level
    per nonzero in its columns J and O(|J|) per rebuilt row, the pair
    O(n |supp R|), and a dense U what a dense product costs. Every row
    of M that the move leaves as it was is carried as the same object.
    The failure message names the Smith diagonal of the whole U.

    When the source's Gram matrix G = X^T (MX) is formed, the output's
    G' = Y^T (M'Y) is carried too (and never formed here otherwise). As
    E^T M' E = X^T U^-T U^T M U U^-1 X = G and Y = E - R,
        G' = E^T M'Y - R^T (M'Y) = G - E^T M' R - R^T (M'Y),
    summed over the rows b with R_b != 0: G' = G - sum_b (v_b R_b^T +
    R_b (M'Y)_b^T), v_b = sum_a M'_ab E_a the row b of M'^T E. And
    M'^T E = U^T M^T U U^-1 X = U^T (M^T X), the carried M^T X before its
    correction by R, so v_b is read, not formed, and (M'Y)_b is the
    corrected row. Exact over Z, at O(|supp R| r^2) where a fresh G
    costs O(n r^2).
    """
    size = _expect(data, SurfaceData).size
    Ur = _as_matrix(U)
    if len(Ur) != size:
        raise BadParameters(f"U must be {size}x{size}")
    # every entry is an int, so count(0) counts the zeros
    D = [i for i, row in enumerate(Ur)
         if row[i] != 1 or row.count(0) != size - 1]
    entries = range(size)
    J = sorted({j for i in D for j in compress(entries, Ur[i]) if j != i}
               .union(i for i in D if Ur[i][i] != 1))
    try:
        inv = inverse_unimodular([[Ur[i][j] for j in J] for i in J])
    except NotUnimodular:
        raise not_unimodular(Ur) from None
    # the nonzero entries (j, U_jk) of each column k in J: they lie in
    # the rows D and k, as a row k outside D is e_k
    cols = {k: [(j, Ur[j][k]) for j in {k, *D} if Ur[j][k]] for k in J}
    M = data.matrix
    # column k of W = M U, and the rows where some column changed
    W = {k: tuple(_combo((a, map(itemgetter(j), M)) for j, a in col))
         for k, col in cols.items()}
    changed = set()
    for k, w in W.items():
        changed.update(compress(entries, map(ne, w, map(itemgetter(k), M))))
    rows = list(M)
    for p in changed:
        row = list(M[p])
        for k, w in W.items():
            row[k] = w[p]
        rows[p] = tuple(row)
    Mp = _ut_times(cols, rows)
    for k in J:  # a row that comes back as it was stays the same object
        if Mp[k] == M[k]:
            Mp[k] = M[k]
    orders, X = data.spec.orders, data._coords
    E = dict(zip(J, mat_mul(inv, [X[j] for j in J])))
    for k in J:
        for i, a in cols[k]:
            if i not in cols:  # a row outside J with an entry in J
                E[i] = _axpy(E.get(i, X[i]), -a, E[k])
    Y = list(X)
    MX, MTX = (_ut_times(cols, P) for P in data._products)
    # -R_b and v_b on the rows b with R_b != 0, v_b read before any
    # correction, as a correction for one row can change another's
    residues = {}
    for i, e in E.items():
        Y[i] = y = tuple(map(mod, e, orders))
        r = tuple(map(sub, y, e))
        if any(r):
            residues[i] = r, MTX[i]
    for i, (r, _) in residues.items():
        col, row = tuple(map(itemgetter(i), Mp)), Mp[i]
        for p in compress(entries, col):
            MX[p] = _axpy(MX[p], col[p], r)
        for p in compress(entries, row):
            MTX[p] = _axpy(MTX[p], row[p], r)
    G = vars(data).get("_gram")
    if G is not None:
        for b, (r, v) in residues.items():
            w = MX[b]
            G = tuple(_axpy(_axpy(g, vp, r), rp, w)
                      for g, vp, rp in zip(G, v, r))
    return SurfaceData._moved(data.spec, tuple(Mp), tuple(Y),
                              _products=(tuple(MX), tuple(MTX)), _gram=G)


def _ut_times(cols, R):
    """U^T R as a list of rows, R a sequence of integer rows and U given
    by the nonzeros (j, U_jk) of each column k in cols: every other
    column of U is e_k, so the other rows are R's own."""
    out = list(R)
    for k, col in cols.items():
        out[k] = tuple(_combo((a, R[j]) for j, a in col))
    return out


def _lambda2_tail(spec, X, c, variant):
    """a = sum c_i x_i over Z (X the coordinate rows of the vector) and
    the appended rows (0; y) for the chosen variant: y = t.a - a, or
    (t-1)/t . a = a - t^(m-1).a for variant 1, t^(m-1) the spec's
    N^(m-1) (abelian._inverse)."""
    a = mat_mul((c,), X)[0] if X else (0,) * spec.rank
    b = mat_vec(abelian._inverse(spec) if variant == 1 else spec.action, a)
    y = map(sub, a, b) if variant == 1 else map(sub, b, a)
    return a, ((0,) * spec.rank, tuple(map(mod, y, spec.orders)))


# the corner (M_kk, M_k,k+1, M_k+1,k, M_k+1,k+1) of the new band k, k+1 that
# lambda2 variant v appends, at _CORNERS[v - 1]
_CORNERS = ((0, -1, 0, 0), (0, 0, 1, 0))


def lambda2(data, c, variant):
    """Stabilization: grow the matrix by two rows/columns in one of the two
    patterns and append the transported vector entries. With the new rows
    (0; y) and corner (p, q; u, w), a carried MX keeps its rows and gains
    a + q y and w y, and M^T X gains a + u y and w y (a = sum c_i x_i).
    So a formed G = X^T (MX) gains 0^T (a + q y) + y^T (w y): G' =
    G + w y y^T, and w = 0 in both _CORNERS, so G is carried as it is."""
    size = _expect(data, SurfaceData).size
    c = abelian.int_tuple(c, "c")
    if len(c) != size:
        raise BadParameters(f"c must have length {size}")
    if type(variant) is not int or variant not in (1, 2):
        raise BadParameters(f"variant must be 1 or 2, got {variant!r}")
    M = data.matrix
    p, q, u, w = _CORNERS[variant - 1]
    rows = tuple(map(add, M, zip(c, repeat(0)))) + (
        c + (p, q), (0,) * size + (u, w))
    a, tail = _lambda2_tail(data.spec, data._coords, c, variant)
    zero, y = tail
    wy = _axpy(zero, w, y)
    MX, MTX = data._products
    return SurfaceData._moved(
        data.spec, rows, data._coords + tail,
        _products=(MX + (_axpy(a, q, y), wy), MTX + (_axpy(a, u, y), wy)),
        _gram=vars(data).get("_gram"))


def lambda2_inverse(data):
    """Undo a lambda2 stabilization; PatternMismatch when the last two
    rows/columns (or vector entries) do not match either pattern. The
    removed rows (0; y) add 0^T (a + q y) + y^T (w y) = 0 to G (see
    lambda2), so a formed G is carried as it is."""
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
    if data._coords[inner:] != _lambda2_tail(data.spec, base, col_c,
                                             variant)[1]:
        raise PatternMismatch("vector entries do not match the stabilization")
    inner_rows = tuple(row[:inner] for row in M[:inner])
    # the pattern holds, so the last two rows (0; y) meet the first inner
    # rows of M and M^T in zeros: the inner pair is the truncated pair
    MX, MTX = data._products
    return SurfaceData._moved(data.spec, inner_rows, base,
                              _products=(MX[:inner], MTX[:inner]),
                              _gram=vars(data).get("_gram"))


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
    """The block sum of the two data. Its pair is the two pairs stacked,
    and its G = X1^T (M1 X1) + X2^T (M2 X2) is G1 + G2, carried when both
    are formed."""
    if _expect(d1, SurfaceData).spec != _expect(d2, SurfaceData).spec:
        raise GroupMismatch("connect sum requires a common group spec")
    n1, n2 = d1.size, d2.size
    rows = [list(d1.matrix[i]) + [0] * n2 for i in range(n1)]
    rows += [[0] * n1 + list(d2.matrix[i]) for i in range(n2)]
    G1, G2 = vars(d1).get("_gram"), vars(d2).get("_gram")
    G = None if G1 is None or G2 is None else tuple(
        tuple(map(add, g1, g2)) for g1, g2 in zip(G1, G2))
    return SurfaceData._moved(
        d1.spec, tuple(tuple(r) for r in rows), d1._coords + d2._coords,
        _products=tuple(map(add, d1._products, d2._products)), _gram=G)


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
    U = identity(size)
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
