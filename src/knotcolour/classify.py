"""Base-knot tables for the four worked families: metacyclic groups,
rank-2 abelian kernels with diagonal and non-diagonal action, and the
alternating group A4.

Each table carries the emitted surface data together with the invariant
values (su, cu, s), the bordism upper bound (h3_order of the kernel) and
the proven lower bound. Observations that deviate from the expected
count formulas are recorded in the table's notes rather than asserted.
"""

from functools import lru_cache
from itertools import chain, repeat
from math import gcd
from operator import add, mod, mul, sub

from . import abelian, invariants, surface_data
from ._intlin import check_budget, solve_mod
from .errors import (
    BadParameters,
    InternalInconsistency,
    InvalidData,
    NotA4,
    NotOrderM,
    FixedPoints,
    UnsupportedM,
)

TREFOIL_CLASS = "trefoil_class"
FIGURE8_CLASS = "figure8_class"

# most entries a table builder may emit
TABLE_BUDGET = 10 ** 7


class FamilyEntry(abelian._Record):
    k: object
    l: object
    i: object
    name: str
    data: surface_data.SurfaceData
    su: abelian.GroupElement
    cu: abelian.GroupElement
    s: abelian.WedgeElement2

    def __init__(self, k, l, i, name, data, su, cu, s):
        self.__dict__.update(k=k, l=l, i=i, name=name, data=data, su=su,
                             cu=cu, s=s)


class FamilyTable(abelian._Record):
    family: str
    group: abelian.GroupSpec
    entries: tuple
    upper_bound: int
    lower_bound: object
    notes: tuple


def _entry(spec, k, l, i, name, matrix, coords):
    return _evaluated(k, l, i, name,
                      surface_data.make_data(spec, matrix, coords))


def _evaluated(k, l, i, name, data):
    """The entry of a datum through the full per-entry path: validate,
    su, cu and vector_class."""
    _checked(data, name)
    return FamilyEntry(k, l, i, name, data,
                       invariants.su(data), invariants.cu(data),
                       invariants.vector_class(data))


def _checked(data, name, certified=True):
    if not (certified and surface_data.validate(data).valid):
        raise InternalInconsistency(f"family entry {name} failed validation")
    return data


def _block(spec, name, i, coords, matrix_at, rows, cols=None):
    """The entries (k, l) -> (matrix_at(k, l), coords), k = 1..rows and
    l = 1..cols (l is None without cols), in table order, named by
    name.format(k=k).

    Samples. The first, (1, 1) (without cols: k = 1), runs the full
    per-entry path. The others, (1, 2) and (2, 1) (without cols: k = 2),
    are built by SurfaceData._moved on the first sample's checked
    coordinate rows when their M - M^T equals the first's exactly; each
    is validated in full, from its own product pair, and takes su and
    cu from the library and s from the first sample. A sample whose
    M - M^T differs takes the full path.

    Derived entries. Every other entry shares the first sample's
    coordinate rows and validation report, takes su and cu from the
    affine law below and s from the first sample, and is certified
    first: every sample must share the first's M - M^T (so the steps
    D_k = M(2, 1) - M(1, 1) and D_l = M(1, 2) - M(1, 1) are symmetric),
    and M(k, l) must equal M(1, 1) + (k-1) D_k + (l-1) D_l exactly
    (InternalInconsistency otherwise, as for a failed validation).
    validate still runs on each, and returns the shared report. The
    builders list their blocks for _entries, and their M moves with
    (k, l) only through k n_1 and l n_2 on the diagonal, so they pass.
    Each sample is one integer vector x: the flat M, then su, then cu.
    The steps dk = x(2, .) - x(1, .) and dl = x(1, 2) - x(1, 1) (0
    without cols) are taken once per block; row k forms x0 + (k-1) dk
    once, at C level, and an entry adds (l-1) dl only for l > 1. Its
    first size^2 values are the certificate, the next r su and the last
    r cu, reduced mod the orders, one element per distinct coordinate
    tuple of the block. The row and the certificate's flat M are lists,
    so no tuple of unknown length is built per entry. A derived datum is
    SurfaceData._moved with the first sample's report in its cache slot.

    Why this is exact. V, and with it every integer lift the invariants
    use (the coordinate rows X, su's orbit lifts X (N^T)^j, cu's blocks
    X (C^T)^a, read through the Gram matrix X^T (MX) or block by block),
    is fixed on the block, and on a certified block M is affine in
    (k, l) and M^T - M is constant:
    - s = x_p^T (M^T - M) x_q reads M only through M^T - M, so a sample
      or entry that shares the first sample's X and M - M^T shares its
      s. So do det(M - M^T) = 1, the even size and the checks on the
      coordinate rows, which the first sample passed in the constructor.
    - Every pairing entry w of su and cu is linear in M, so affine in
      (k, l): w(k, l) = w(1,1) + (k-1) dk + (l-1) dl. If n divides w at
      the three samples it divides dk and dl, so it divides w on the
      whole block, and w/n is affine too. So are the totals, and so
      su(k, l) = su(1,1) + (k-1)(su(2,1) - su(1,1)) + (l-1)(su(1,2) -
      su(1,1)) mod n_c, per factor c; likewise cu. For even n the total
      Q is even at the samples, so even everywhere (an affine integer
      function with even values at three such points has even
      coefficients), and Q/2 is affine.
    - The colouring equation's residual is linear in M, so affine, and
      vanishes mod n_c at the three valid samples, so on the whole
      block; generation and the genus bound depend on X and the size
      only. So the first sample's report is every entry's, and only the
      samples form the product pair (MX, M^T X).
    - Failures keep their place. The samples are the first entries in
      table order but for (2, 1), which the per-entry path reaches after
      row k = 1. A block that passes at (1, 1) and (1, 2) passes, by
      affinity in l, on all of row k = 1; so the first entry that raises
      (a DivisibilityFailure, which only m >= 4 can raise and there
      always does, see invariants.cu; an odd Q over an even factor) is
      a sample, and it raises the per-entry error and message. A sample
      whose M - M^T differs from the first's takes the per-entry path,
      so it raises what that path raises (BadParameters on
      det(M - M^T) != 1).
    """
    ls = range(1, cols + 1) if cols else (None,)
    first, *later = ((1, 1), (1, 2), (2, 1)) if cols else ((1, None),
                                                           (2, None))
    base = _entry(spec, *first, i, name.format(k=1), matrix_at(*first),
                  coords)
    X, skew = base.data._coords, _skew(base.data.matrix)
    got, symmetric = {first: base}, True
    for k, l in later:
        label, M = name.format(k=k), surface_data._as_matrix(matrix_at(k, l))
        if _skew(M) == skew:
            data = _checked(surface_data.SurfaceData._moved(spec, M, X),
                            label)
            got[k, l] = FamilyEntry(k, l, i, label, data, invariants.su(data),
                                    invariants.cu(data), base.s)
        else:
            symmetric = False
            got[k, l] = _entry(spec, k, l, i, label, M, coords)
    x0, xk, xl = ([*chain(*e.data.matrix), *e.su.coords, *e.cu.coords]
                  for e in (base, got[2, ls[0]], got[1, 2] if cols else base))
    dk, dl = list(map(sub, xk, x0)), list(map(sub, xl, x0))
    cut, r = len(X) ** 2, spec.rank
    orders, report, s = spec.orders, base.data._report, base.s
    trusted = abelian.GroupElement._trusted
    made = {}  # one element per distinct coordinate tuple
    entries = []
    for k in range(1, rows + 1):
        label = name.format(k=k)
        xa = [*map(add, x0, map(mul, dk, repeat(k - 1)))]
        for l in ls:
            e = got.get((k, l))
            if e is None:
                x = [*map(add, xa, map(mul, dl, repeat(l - 1)))] \
                    if l and l > 1 else xa
                su = tuple(map(mod, x[cut:], orders))
                cu = tuple(map(mod, x[cut + r:], orders))
                su = made.get(su) or made.setdefault(su, trusted(spec, su))
                cu = made.get(cu) or made.setdefault(cu, trusted(spec, cu))
                M = matrix_at(k, l)
                data = surface_data.SurfaceData._moved(spec, M, X,
                                                       _report=report)
                _checked(data, label,
                         symmetric and [*chain(*M)] == x[:cut])
                e = FamilyEntry(k, l, i, label, data, su, cu, s)
            entries.append(e)
    return entries


def _skew(M):
    """M - M^T as a list of row tuples, M a square tuple of int rows."""
    return [tuple(map(sub, row, col)) for row, col in zip(M, zip(*M))]


def _entries(blocks, budget):
    """The function of a spec that builds the entries of blocks in order,
    each block the tuple of _block's arguments after spec; BudgetExceeded
    here, before any entry (or, in metacyclic_table, the group) is built,
    when their rows * (cols or 1) entries exceed budget."""
    check_budget(sum(rows * (cols or 1) for *_, rows, cols in blocks),
                 budget, "table entries")
    return lambda spec: [e for b in blocks for e in _block(spec, *b)]


def _table(family, spec, entries, lower, notes):
    """The table, bounded above by h3_order of the kernel; its notes are
    the builder's, then one on repeated (s, su) pairs."""
    # a table has one spec, so coordinate tuples count the pairs
    pairs = len({(e.s.coords, e.su.coords) for e in entries})
    if pairs != len(entries):
        notes.append(f"only {pairs} distinct (s, su) pairs among "
                     f"{len(entries)} entries")
    return FamilyTable(family, spec, tuple(entries), abelian.h3_order(spec),
                       lower, tuple(notes))


def _rank2_blocks(g, n1, n2, notes, g1_at, g2_at):
    """The rank-2 blocks over k <= n1, l <= n2: (s1; i s2) at g1_at(i) for
    each i < g prime to n2 (a note in notes skips every other i), then
    (s1; 0; s2; 0) at g2_at."""
    blocks = []
    for i in range(1, g):
        if gcd(i, n2) != 1:
            notes.append(f"i={i} skipped: i s2 does not generate Z/{n2}")
        else:
            blocks.append(("g1", i, ((1, 0), (0, i)), g1_at(i), n1, n2))
    return blocks + [("g2", None, ((1, 0), (0, 0), (0, 1), (0, 0)), g2_at,
                      n1, n2)]


def metacyclic_table(m, n, xi, budget=TABLE_BUDGET):
    """The k-twist family over C_m acting on Z/n by the unit xi:
    M_k = [[a + kn, 0], [1, 1]], V = (s; x s) with x = xi/(1-xi) and
    a the minimal natural congruent to -xi/(1-xi)^2. BudgetExceeded,
    before the group or any entry is built, when its n entries exceed
    budget."""
    if not (type(m) is type(n) is int and m >= 1 and n >= 2):
        raise BadParameters("need integers m >= 1, n >= 2")
    if type(xi) is not int:
        raise BadParameters(f"xi must be an integer, got {xi!r}")
    xi = xi % n
    if gcd(xi, n) != 1 or gcd(xi - 1, n) != 1:
        raise BadParameters("xi and xi - 1 must be units mod n")
    if pow(xi, m, n) != 1 % n:
        raise BadParameters(f"xi^{m} != 1 mod {n}")
    x = (xi * pow(1 - xi, -1, n)) % n
    a = (-xi * pow((1 - xi) ** 2, -1, n)) % n
    # make_group cannot fail here (compatibility is trivial at rank 1,
    # xi^m = 1 gives N^m = I, and xi - 1 is a unit), so the budget is
    # checked first: make_group factors n
    build = _entries([("F{k}", None, ((1,), (x,)),
                       lambda k, _: ((a + k * n, 0), (1, 1)), n, None)],
                     budget)
    spec = abelian.make_group(m, (n,), ((xi,),))
    entries = build(spec)
    lower = abelian.additive_order(2 * (1 - pow(xi, -3, n)), n)
    return _table("metacyclic", spec, entries, lower, [])


def rank2_diag_table(m, n1, n2, xi1, xi2, budget=TABLE_BUDGET):
    """Families over A = Z/n1 x Z/n2 with diagonal action (xi1, xi2).

    Genus-1 classes (s1; i s2), i = 1..gcd-1, exist only when the single
    off-diagonal entry x can satisfy x = xi1/(1-xi1) mod n1 and
    x = 1/(xi2-1) mod n2 simultaneously; the genus-2 (s1;0;s2;0) family
    always exists. BudgetExceeded, before any entry is built, when the
    (#genus-1 i + 1) n1 n2 entries exceed budget.
    """
    if not (type(m) is type(n1) is type(n2) is int and m >= 1
            and n1 >= 2 and n2 >= 2):
        raise BadParameters("need integers m >= 1, n1, n2 >= 2")
    if type(xi1) is not int or type(xi2) is not int:
        raise BadParameters(
            f"xi1 and xi2 must be integers, got {xi1!r}, {xi2!r}")
    xi1, xi2 = xi1 % n1, xi2 % n2
    for xi, n in ((xi1, n1), (xi2, n2)):
        if gcd(xi, n) != 1 or gcd(xi - 1, n) != 1:
            raise BadParameters("each xi and xi - 1 must be units")
        if pow(xi, m, n) != 1 % n:
            raise BadParameters(f"xi^{m} != 1 mod {n}")
    spec = abelian.make_group(m, (n1, n2), ((xi1, 0), (0, xi2)))
    g = gcd(n1, n2)
    notes = []
    x1 = (xi1 * pow(1 - xi1, -1, n1)) % n1
    x2_g1 = pow(xi2 - 1, -1, n2)
    if g == 1:
        notes.append("gcd(n1, n2) = 1: no genus-1 classes")
    elif x1 % g != x2_g1 % g:
        notes.append("no genus-1 classes: the congruences for x "
                     "have no common solution")
        g = 1  # so no genus-1 block
    else:
        x = solve_mod([[1], [1]], [x1, x2_g1], (n1, n2))[0] % (n1 * n2 // g)
    x2 = (xi2 * pow(1 - xi2, -1, n2)) % n2
    blocks = _rank2_blocks(
        g, n1, n2, notes,
        lambda i: lambda k, l: ((k * n1, x), (x + 1, l * n2)),
        lambda k, l: ((k * n1, x1, 0, 0), (x1 + 1, 0, 0, 0),
                      (0, 0, l * n2, x2), (0, 0, x2 + 1, 0)))
    entries = _entries(blocks, budget)(spec)
    lower = (abelian.additive_order(2 * (1 - pow(xi1, -3, n1)), n1),
             abelian.additive_order(2 * (1 - pow(xi2, -3, n2)), n2))
    return _table("rank2diag", spec, entries, lower, notes)


def nondiag_lower_bound(m, n, N):
    """Additive order of 6(1 + N22 + N22^2 - N21^2) mod n; only the m = 3
    case has a proven bound. BadParameters unless n is an int >= 1 (a
    bool is not an int here), checked before N is reduced mod n."""
    if m != 3:
        raise UnsupportedM(f"lower bound formula only covers m = 3, got {m}")
    if type(n) is not int or n < 1:
        raise BadParameters(f"n must be a positive integer, got {n!r}")
    n21, n22 = (x % n for x in abelian.int_rows(N, "N", 2, 2)[1])
    return abelian.additive_order(6 * (1 + n22 + n22 * n22 - n21 * n21), n)


def rank2_nondiag_table(m, n, N, budget=TABLE_BUDGET):
    """Families over A = (Z/n)^2 where the action matrix is the companion
    form [[0, 1], [N21, N22]] (in the row convention phi(s1) = s2).

    Genus-1 classes (s1; i s2) need N21 = -1 mod n; the genus-2
    (s1;0;s2;0) family always exists. The emitted integer matrices carry
    the unique det-exact lifts of the displayed residues. BudgetExceeded,
    before any entry is built, when the (#genus-1 i + 1) n^2 entries
    exceed budget.

    A table comes back only at m = 3, with N21 = N22 = -1 mod n, so it
    always has the genus-1 classes and a proven lower bound:
    - m <= 2: make_group rejects the action (N = I has fixed points, and
      N^2 = I with N - I invertible forces N = -I, not a companion form);
    - m = 3: (N - I)(N^2 + N + I) = N^3 - I = 0 with N - I invertible
      gives N^2 + N + I = 0, which for the stored action ((0, N21),
      (1, N22)) reads N21 + 1 = N22 + 1 = 0 mod n;
    - m >= 4: the budget check or the first sample's cu raises (cu
      always raises there, see invariants.cu); the N21 = -1 test only
      decides which sample comes first.
    """
    if not (type(m) is type(n) is int and m >= 1 and n >= 2):
        raise BadParameters("need integers m >= 1, n >= 2")
    rows = abelian.int_rows(N, "N", 2, 2)
    if rows[0] != (0, 1):
        raise BadParameters("N must be in companion form [[0, 1], [N21, N22]]")
    n21, n22 = rows[1][0] % n, rows[1][1] % n
    if gcd(n21, n) != 1 or gcd((1 - n21 - n22) % n, n) != 1:
        raise BadParameters("N and N - I must be invertible mod n")
    xi = pow(1 - n21 - n22, -1, n)
    try:
        # stored action is the transpose of the row-convention matrix
        spec = abelian.make_group(m, (n, n), ((0, n21), (1, n22)))
    except (NotOrderM, FixedPoints) as e:
        raise BadParameters(f"companion action rejected: {e}") from None
    notes = []

    def g1_at(i):
        # 1 - 2xi + xi N22 = 1 - xi(2 - N22) = 0 mod n, as xi = (2 - N22)^-1
        d1, d2 = (xi * i) % n, (xi * pow(i, -1, n)) % n
        return lambda k, l: ((d1 + k * n, -xi), (1 - xi, d2 + l * n))

    p = (n21 * xi) % n
    blocks = _rank2_blocks(
        n if (n21 + 1) % n == 0 else 1, n, n, notes, g1_at,
        lambda k, l: ((k * n, p, 0, p), (p + 1, 0, xi, 0),
                      (0, xi, l * n, xi - 1), (p, 0, xi, 0)))
    entries = _entries(blocks, budget)(spec)
    lower = nondiag_lower_bound(m, n, rows)
    # both families are present: only m = 3 gets here
    for g, formula in ((1, n * sum(n // gcd(n, j) for j in range(1, n))),
                       (2, n * abelian.additive_order(n22 - n21 + 1, n))):
        seen = len({e.su.coords for e in entries if e.name == f"g{g}"})
        if seen != formula:
            notes.append(f"genus-{g} su takes {seen} distinct values; the "
                         f"expected count formula gives {formula}")
    return _table("rank2nondiag", spec, entries, lower, notes)


# ---------------------------------------------------------------------------
# A4


@lru_cache(maxsize=None)
def a4_spec():
    """C_3 acting on (Z/2)^2 by the companion matrix: the A4 colouring
    target."""
    return abelian.make_group(3, (2, 2), ((0, 1), (1, 1)))


_A4_MATRICES = (
    ("3_1^l", ((-1, 1), (0, -1))),
    ("3_1^r", ((1, 0), (-1, 1))),
    ("4_1^l", ((1, 1), (0, -1))),
    ("4_1^r", ((-1, 0), (-1, 1))),
)

_A4_SUMS = (("3_1^l", "3_1^l"), ("3_1^l", "4_1^l"),
            ("3_1^l", "4_1^r"), ("4_1^l", "4_1^r"))


def _lex_coloured(spec, matrix):
    """First colouring in lex order whose symplectic class is nonzero."""
    for vec in surface_data.enumerate_colourings(matrix, spec):
        data = surface_data.SurfaceData(spec, matrix, vec)
        if not invariants.vector_class(data).is_zero():
            return data
    raise InternalInconsistency("no colouring with nonzero class found")


@lru_cache(maxsize=None)
def a4_representatives():
    """The four genus-1 knots 3_1^l, 3_1^r, 4_1^l, 4_1^r and four of
    their connect sums. The table bounds the number of classes by h3 = 8
    above and by 2 (the two values of cu) below; it does not show that
    these eight entries exhaust the classes, and only four distinct
    (s, su) values occur among them."""
    spec = a4_spec()
    base = {}
    entries = []
    for name, matrix in _A4_MATRICES:
        base[name] = _lex_coloured(spec, matrix)
        entries.append(_evaluated(None, None, None, name, base[name]))
    for nm1, nm2 in _A4_SUMS:
        entries.append(_evaluated(
            None, None, None, f"{nm1}#{nm2}",
            surface_data.connect_sum(base[nm1], base[nm2])))
    return _table("a4", spec, entries, 2, [])


def a4_class(data):
    """Which of the two rho-equivalence classes valid A4 data sits in,
    decided by cu."""
    if abelian._expect(data, surface_data.SurfaceData).spec != a4_spec():
        raise NotA4("data is not coloured by the A4 spec")
    if not surface_data.validate(data).valid:
        raise InvalidData("a4_class needs valid surface data")
    cu = {e.name: e.cu for e in a4_representatives().entries}
    value = invariants.cu(data)
    if value == cu["4_1^l"]:
        return FIGURE8_CLASS
    if value == cu["3_1^l"]:
        return TREFOIL_CLASS
    raise InternalInconsistency(f"cu value {value} matches neither class")


def a4_sum_class(c1, c2):
    """The connect-sum group law on the two classes: figure8 is the
    identity and trefoil # trefoil = figure8."""
    for c in (c1, c2):
        if c not in (TREFOIL_CLASS, FIGURE8_CLASS):
            raise BadParameters(f"unknown class tag {c!r}")
    if (c1 == TREFOIL_CLASS) != (c2 == TREFOIL_CLASS):
        return TREFOIL_CLASS
    return FIGURE8_CLASS
