"""Exact integer linear algebra: products, determinants, the unimodular
inverse, Smith normal form and the solves over Z/n built on it, and one
column echelon over Z for the kernels over Z/n and their index (which
decides generation).

Everything here works on plain lists/tuples of Python ints; matrices are
row-major. Sizes in this package stay small (at most a few dozen rows),
so clarity wins over asymptotics, except for sparsity that costs nothing
to use: mat_mul skips the zero entries of its left factor, and
inverse_unimodular touches only the rows that have a nonzero entry in
the pivot column. The moves do not lean on either for U:
surface_data.lambda1 inverts only the block of U on the columns where
U differs from the identity and reads the rest of U through its
nonzero entries.
"""

from math import prod

from .errors import BadParameters, BudgetExceeded, NotUnimodular


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(A):
    return [list(row) for row in zip(*A)] if A else []


def mat_mul(A, B):
    rows, inner = len(A), len(B)
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(cols):
                    row[j] += a * Bk[j]
    return out


def mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def mat_pow(A, k):
    """A^k for k >= 0 by binary powering: out starts at the lowest set
    bit and base is squared only while higher bits remain."""
    out = None
    base = [list(r) for r in A]
    while k:
        if k & 1:
            out = base if out is None else mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return identity(len(A)) if out is None else out


def det(A):
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def inverse_unimodular(A):
    """Exact inverse of a square integer matrix with det = +-1.

    Gauss-Jordan over Z on [A | I] with unimodular row operations only:
    in each column k, Euclid-reduce the entries at rows >= k onto the
    smallest, which must end as a single +-1 pivot, then clear column k
    in every other row. Only rows with a nonzero entry in column k are
    touched, so a sparse A (a few transvections) costs O(n^2). On a zero
    column or a pivot other than +-1, A is not unimodular, and the
    Smith diagonal names why.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise NotUnimodular(f"{len(A)}x{len(A[0])} matrix is not square")
    R = [list(row) + [0] * n for row in A]
    for i in range(n):
        R[i][n + i] = 1
    for k in range(n):
        rows = [i for i in range(k, n) if R[i][k]]
        while len(rows) > 1:
            p = min(rows, key=lambda i: abs(R[i][k]))
            Rp, a = R[p], R[p][k]
            for i in rows:
                if i != p:
                    q = R[i][k] // a
                    R[i] = [x - q * y for x, y in zip(R[i], Rp)]
            rows = [i for i in rows if R[i][k]]
        if not rows or abs(R[rows[0]][k]) != 1:
            raise not_unimodular(A)
        p = rows[0]
        R[k], R[p] = R[p], R[k]
        if R[k][k] < 0:
            R[k] = [-x for x in R[k]]
        Rk = R[k]
        for i in range(k):  # rows below k are already clear
            q = R[i][k]
            if q:
                R[i] = [x - q * y for x, y in zip(R[i], Rk)]
    return [row[n:] for row in R]


def not_unimodular(A):
    """The NotUnimodular error for a square A that is not unimodular,
    naming its Smith diagonal."""
    D = smith(A)[1]
    return NotUnimodular(
        f"Smith diagonal {[D[i][i] for i in range(len(A))]}, expected all 1")


def smith(A):
    """Smith normal form with transforms: (U, D, V) with U*A*V = D,
    U and V unimodular, D diagonal, nonnegative, d1 | d2 | ...
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = identity(rows)
    V = identity(cols)

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(i, j, t):  # row_i += t * row_j
        D[i] = [a + t * b for a, b in zip(D[i], D[j])]
        U[i] = [a + t * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, t):  # col_i += t * col_j
        for row in D:
            row[i] += t * row[j]
        for row in V:
            row[i] += t * row[j]

    def neg_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    rank = 0
    for t in range(min(rows, cols)):
        # smallest-magnitude nonzero pivot in the trailing block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] and (piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, rows):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
            rest = [i for i in range(t + 1, rows) if D[i][t]]
            if rest:
                swap_rows(t, rest[0])  # strictly smaller remainder as pivot
                continue
            for j in range(t + 1, cols):
                if D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
            rest = [j for j in range(t + 1, cols) if D[t][j]]
            if rest:
                swap_cols(t, rest[0])
                continue
            break
        if D[t][t] < 0:
            neg_row(t)
        rank = t + 1

    # enforce d_i | d_{i+1} by folding adjacent pairs
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if b % a == 0:
                continue
            changed = True
            add_col(i, i + 1, 1)  # corner becomes [[a, 0], [b, b]]
            while D[i + 1][i]:
                add_row(i, i + 1, -(D[i][i] // D[i + 1][i]))
                swap_rows(i, i + 1)
            # pivot is now +-gcd(a, b); it divides the dirty corner entry
            if D[i][i + 1]:
                add_col(i + 1, i, -(D[i][i + 1] // D[i][i]))
            if D[i][i] < 0:
                neg_row(i)
            if D[i + 1][i + 1] < 0:
                neg_row(i + 1)
    return U, D, V


def smith_mod(F, mods):
    """The Smith form of a system F x = b modulo per-row moduli, which is
    the integer system [F | diag(mods)]: (U, d, V) with U [F | diag(mods)]
    V diagonal, its l = len(mods) invariant factors d. F has l rows of k
    entries each. Every mod is >= 1, so no d_i is 0, and prod(d) is the
    order of (prod Z/mods) / F(Z^k).
    """
    l = len(mods)
    U, D, V = smith([list(F[i]) + [n if j == i else 0 for j in range(l)]
                     for i, n in enumerate(mods)])
    return U, [D[i][i] for i in range(l)], V


def solve_mod(C, target, mods):
    """Integer vector x with C x = target modulo per-row moduli.

    C is r x k over Z, target and mods have length r. Returns x of
    length k, or None when no solution exists. With (U, d, V) =
    smith_mod(C, mods), y_i = (U target)_i / d_i must be integral, and x
    is the first k entries of V y.
    """
    U, d, V = smith_mod(C, mods)
    c = mat_vec(U, target)
    if any(ci % di for ci, di in zip(c, d)):
        return None
    return mat_vec(V[:len(V) - len(d)], [ci // di for ci, di in zip(c, d)])


def echelon_mod(F, mods):
    """The index and kernel lattice of F modulo per-row moduli, by one
    column (Hermite) echelon over Z (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4) instead of Smith's two-sided form.

    F has l = len(mods) rows of k entries each. Column-reduce
    [[F, diag(mods)], [I_k, 0]] on its top l rows. In row i, Euclid
    passes reduce the live columns by the one of least |entry| there
    until a single live column is nonzero in row i; it is that row's
    pivot and is retired. [F | diag(mods)] has full row rank, so every
    row gets a pivot and the top rows end lower triangular. Column
    operations are unimodular, so:
    - index = prod |pivot| is the order of (prod Z/mods) / F(Z^k), which
      is prod(smith_mod(F, mods)[1]);
    - the k columns left over vanish on the top rows, and their bottom
      rows span {x in Z^k : F x = 0 mod mods} over Z.
    Returns (index, those k columns as lists of length k).
    """
    l = len(mods)
    k = len(F[0]) if F else 0
    cols = [[F[i][j] for i in range(l)] + [int(j == c) for c in range(k)]
            for j in range(k)]
    cols += [[n if c == i else 0 for c in range(l)] + [0] * k
             for i, n in enumerate(mods)]
    index = 1
    for i in range(l):
        live = [c for c in cols if c[i]]
        while len(live) > 1:
            p = min(live, key=lambda c: abs(c[i]))
            a = p[i]
            for c in live:
                if c is not p:
                    q = c[i] // a
                    c[i:] = [x - q * y for x, y in zip(c[i:], p[i:])]
            live = [c for c in live if c[i]]
        index *= abs(live[0][i])
        cols.remove(live[0])
    return index, [c[l:] for c in cols]


def kernel_mod(F, mods_in, mods_out, budget):
    """Every x in prod Z/mods_in with F x = 0 mod mods_out, sorted. F is
    well defined there (mods_out[i] | F[i][j] mods_in[j]) and has a row
    if it has a column. In (index, K) = echelon_mod(F, mods_out), the k =
    len(mods_in) columns of K span the kernel over Z, and there are
    prod(mods_in) index / prod(mods_out) solutions; BudgetExceeded, before
    any is listed, if over budget, and BadParameters if budget is not an
    int (a bool is not an int here).
    """
    if type(budget) is not int:
        raise BadParameters(f"budget must be an integer, got {budget!r}")
    k = len(mods_in)
    index, K = echelon_mod(F, mods_out)
    order = prod(mods_in) * index // prod(mods_out)
    if order > budget:
        raise BudgetExceeded(f"{order} solutions exceed budget {budget}")
    span = {(0,) * k}
    for col in K:
        g = tuple(v % n for v, n in zip(col, mods_in))
        steps, x = [], g  # coset representatives of span in span+<g>
        while x not in span:
            steps.append(x)
            x = tuple((a + b) % n for a, b, n in zip(x, g, mods_in))
        span |= {tuple((a + b) % n for a, b, n in zip(s, x, mods_in))
                 for x in steps for s in span}
    return sorted(span)
