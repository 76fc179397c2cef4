"""Exact integer linear algebra over Z and over prod Z/n_i.

One Euclid pass (_euclid) lies under the determinant, the unimodular
inverse and the column echelon that gives the kernels over prod Z/n_i
and their index (which sizes them); the echelon reduces row i mod n_i
before its pass, a column operation with the modulus column, so its
entries stay residues (Cohen 2.4.2). Smith normal form, built on one
block matrix [[A, I], [I, 0]], serves the solves over prod Z/n_i and
the NotUnimodular message. Neither decides generation or the minimal
generator count of A: abelian reads both off the quotients A/pA.

Everything here works on plain lists/tuples of Python ints; matrices are
row-major. Sizes in this package stay small (at most a few dozen rows),
so clarity wins over asymptotics, except for sparsity that costs nothing
to use: mat_mul skips the zero entries of its left factor, and
inverse_unimodular touches only the rows that have a nonzero entry in
the pivot column. mat_mul and mat_vec form the dense integer products
of invariants and abelian (the invariants' forms and blocks, the action
on coordinates, the F_p action in abelian's generation test); mat_pow is
every power of an action or of a lift candidate, reduced row by row.
surface_data forms its per-datum products (the product pair, the Gram
matrix X^T (MX), the colouring equation) as column dot products summed
at C level, and reads the moves' sparse U from its nonzeros:
surface_data._ut_times forms U^T R from the nonzero entries of U's
columns where U differs from the identity, and surface_data.lambda1
inverts only the block of U on those columns.
"""

from math import prod
from operator import add, mod, mul

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
    """A v; a row of A longer than v is read only on v's length."""
    return [sum(map(mul, row, v)) for row in A]


def mat_pow(A, k, mods):
    """A^k for k >= 0 by repeated squaring, row i of every product
    reduced mod mods[i]: exact on prod Z/mods when A is well defined
    there (mods[i] | A_ij mods[j]); one common modulus fits every A."""
    if k < 2:
        P = A if k else identity(len(A))
    elif k & 1:
        P = mat_mul(mat_pow(A, k - 1, mods), mat_pow(A, 1, mods))
    else:
        P = mat_pow(A, k >> 1, mods)
        P = mat_mul(P, P)
    return [[x % n for x in row] for row, n in zip(P, mods)]


def _euclid(vecs, i):
    """One Euclid pass at position i over vecs, in place: pivot on the
    first vector of least |entry| at i and subtract floor multiples of
    it, from position i on, from every other vector nonzero at i, until
    a single vector is nonzero at i. Returns that vector, or None when
    every vector is zero at i. Vectors zero at i are not touched.
    """
    live = [v for v in vecs if v[i]]
    while len(live) > 1:
        p = min(live, key=lambda v: abs(v[i]))
        a, tail = p[i], p[i:]
        for v in live:
            if v is not p:
                q = v[i] // a
                v[i:] = [x - q * y for x, y in zip(v[i:], tail)]
        live = [v for v in live if v[i]]
    return live[0] if live else None


def det(A):
    """Exact determinant: Euclid-reduce the rows of A position by
    position (_euclid only adds multiples of one row to another, which
    keeps det) and retire each position's pivot row. In the order of
    retirement the rows form an upper triangular matrix with the pivots
    on its diagonal, so det A is the product of the pivots times the
    sign of that order, (-1)^(sum of k) with k the place of each retired
    row among the rows still remaining (its Lehmer code).
    """
    vecs = [list(row) for row in A]
    d = 1
    for i in range(len(vecs)):
        p = _euclid(vecs, i)
        if p is None:
            return 0
        k = vecs.index(p)  # every other row is 0 at i
        d *= -p[i] if k % 2 else p[i]
        del vecs[k]
    return d


def inverse_unimodular(A):
    """Exact inverse of a square integer matrix with det = +-1.

    Gauss-Jordan over Z on [A | I] with unimodular row operations only:
    in each column k, Euclid-reduce the rows >= k (_euclid), which must
    leave a single +-1 pivot, then clear column k in every other row.
    Only rows with a nonzero entry in column k are touched, so a sparse
    A (a few transvections) costs O(n^2). On a zero column or a pivot
    other than +-1, A is not unimodular, and the Smith diagonal names
    why.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise NotUnimodular(f"{len(A)}x{len(A[0])} matrix is not square")
    R = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(A)]
    for k in range(n):
        p = _euclid(R[k:], k)
        if p is None or abs(p[k]) != 1:
            raise not_unimodular(A)
        j = R.index(p, k)  # every other row >= k is 0 at k
        R[k], R[j] = p, R[k]
        if p[k] < 0:
            R[k] = p = [-x for x in p]
        for i in range(k):  # rows below k are already clear
            q = R[i][k]
            if q:
                R[i] = [x - q * y for x, y in zip(R[i], p)]
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

    One block matrix B = [[A, I], [I, 0]] carries all three: a row
    operation on its top rows acts on D and U, and a column operation on
    its left columns acts on D and V. Step t pivots on the least nonzero
    |entry| of the trailing block of D and clears its row and column by
    remainder passes, each remainder becoming the next pivot. If d_t then
    misses an entry of the trailing block, that entry's row is added to
    row t and the passes run again, so d_t shrinks until it divides the
    rest. That step needs a pivot other than +-1.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    B = [list(A[i]) + [int(i == j) for j in range(rows)] for i in range(rows)]
    B += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]

    def swap_cols(i, j):
        for row in B:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, t):  # row_i += t * row_j
        B[i] = [a + t * b for a, b in zip(B[i], B[j])]

    def add_col(i, j, t):  # col_i += t * col_j
        for row in B:
            row[i] += t * row[j]

    for t in range(min(rows, cols)):
        # smallest-magnitude nonzero pivot in the trailing block
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if B[i][j] and (piv is None or abs(B[i][j]) < abs(B[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        B[t], B[piv[0]] = B[piv[0]], B[t]
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, rows):
                if B[i][t]:
                    add_row(i, t, -(B[i][t] // B[t][t]))
            rest = [i for i in range(t + 1, rows) if B[i][t]]
            if rest:  # strictly smaller remainder as pivot
                B[t], B[rest[0]] = B[rest[0]], B[t]
                continue
            for j in range(t + 1, cols):
                if B[t][j]:
                    add_col(j, t, -(B[t][j] // B[t][t]))
            rest = [j for j in range(t + 1, cols) if B[t][j]]
            if rest:
                swap_cols(t, rest[0])
                continue
            rest = [i for i in range(t + 1, rows)
                    if any(B[i][j] % B[t][t] for j in range(t + 1, cols))]
            if not rest:
                break
            add_row(t, rest[0], 1)
        if B[t][t] < 0:
            B[t] = [-a for a in B[t]]
    return ([row[cols:] for row in B[:rows]], [row[:cols] for row in B[:rows]],
            [row[:cols] for row in B[rows:]])


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
    column (Hermite) echelon over Z, kept on residues as in a Hermite form
    modulo D (Cohen, A Course in Computational Algebraic Number Theory,
    2.4.2) instead of Smith's two-sided form.

    F has l = len(mods) rows of k entries each. Column-reduce
    [[F, diag(mods)], [I_k, 0]] on its top l rows. The modulus column
    n_i e_i is zero outside row i, so no pass before row i touches it and
    it joins the columns only there. At row i, first reduce that entry of
    every column mod n_i: subtracting q n_i e_i changes row i alone, so
    it is a column operation too, and a column that is 0 mod n_i leaves
    the pass. Then _euclid reduces the columns, on entries in [0, n_i],
    until a single one is nonzero in row i; it is that row's pivot, positive,
    and is retired. [F | diag(mods)] has full row rank, so every row gets
    a pivot and the top rows end lower triangular. Column operations are
    unimodular, so the reduction moves neither the lattice, nor the index,
    nor any listing read from it:
    - index = prod pivot is the order of (prod Z/mods) / F(Z^k), which
      is prod(smith_mod(F, mods)[1]);
    - the k columns left over vanish on the top rows, and their bottom
      rows span {x in Z^k : F x = 0 mod mods} over Z.
    Returns (index, those k columns as lists of length k).
    """
    l = len(mods)
    k = len(F[0]) if F else 0
    cols = [list(col) + [int(j == c) for c in range(k)]
            for j, col in enumerate(zip(*F))]
    index = 1
    for i, n in enumerate(mods):
        for v in cols:
            v[i] %= n
        cols.append([0] * i + [n] + [0] * (l - 1 - i + k))
        p = _euclid(cols, i)
        index *= p[i]
        cols = [v for v in cols if v is not p]  # every other is 0 at i
    return index, [c[l:] for c in cols]


def check_budget(count, budget, what):
    """BadParameters unless budget is an int (a bool is not an int here),
    and BudgetExceeded if the count of what a search would visit exceeds
    it."""
    if type(budget) is not int:
        raise BadParameters(f"budget must be an integer, got {budget!r}")
    if count > budget:
        raise BudgetExceeded(f"{count} {what} exceed budget {budget}")


def kernel_mod(F, mods_in, mods_out, budget):
    """Every x in prod Z/mods_in with F x = 0 mod mods_out, as tuples
    reduced coordinate by coordinate mod mods_in, sorted. F is
    well defined there (mods_out[i] | F[i][j] mods_in[j]) and has a row
    if it has a column. In (index, K) = echelon_mod(F, mods_out), the k =
    len(mods_in) columns of K span the kernel over Z, and there are
    prod(mods_in) index / prod(mods_out) solutions; BudgetExceeded, before
    any is listed, if over budget (see check_budget).
    """
    k = len(mods_in)
    index, K = echelon_mod(F, mods_out)
    check_budget(prod(mods_in) * index // prod(mods_out), budget, "solutions")
    span = {(0,) * k}
    for col in K:
        g = tuple(map(mod, col, mods_in))
        steps, x = [], g  # coset representatives of span in span+<g>
        while x not in span:
            steps.append(x)
            x = tuple(map(mod, map(add, x, g), mods_in))
        span |= {tuple(map(mod, map(add, s, x), mods_in))
                 for x in steps for s in span}
    return sorted(span)
