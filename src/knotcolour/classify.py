"""Base-knot tables for the four worked families: metacyclic groups,
rank-2 abelian kernels with diagonal and non-diagonal action, and the
alternating group A4.

Each table carries the emitted surface data together with the invariant
values (su, cu, s), the bordism upper bound (h3_order of the kernel) and
the proven lower bound. Observations that deviate from the expected
count formulas are recorded in the table's notes rather than asserted.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import attrgetter

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


@dataclass(frozen=True)
class FamilyEntry:
    k: object
    l: object
    i: object
    name: str
    data: surface_data.SurfaceData
    su: abelian.GroupElement
    cu: abelian.GroupElement
    s: abelian.WedgeElement2


@dataclass(frozen=True)
class FamilyTable:
    family: str
    group: abelian.GroupSpec
    entries: tuple
    upper_bound: int
    lower_bound: object
    notes: tuple


def _inv(a, n):
    try:
        return pow(a % n, -1, n)
    except ValueError:
        raise BadParameters(f"{a} is not invertible mod {n}") from None


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


def _checked(data, name):
    if not surface_data.validate(data).valid:
        raise InternalInconsistency(f"family entry {name} failed validation")
    return data


def _block(spec, name, i, coords, matrix_at, rows, cols=None):
    """The entries (k, l) -> (matrix_at(k, l), coords), k = 1..rows and
    l = 1..cols (l is None without cols), in table order, named by
    name.format(k=k). Only the samples (1, 1), (1, 2), (2, 1) (without
    cols: k = 1, 2) run the full per-entry path; every other entry is
    validated, shares the first sample's coordinate rows, and takes su
    and cu from the affine law below, and s from the samples.

    Why this is exact. V, and with it every integer lift the invariants
    use (the coordinate rows X, su's orbit lifts X (N^T)^j, cu's blocks
    X (C^T)^a), is fixed on the block, and M depends on
    (k, l) only through k n_1 and l n_2 on the diagonal, so M is affine
    in (k, l) and M^T - M is constant:
    - s = x_p^T (M^T - M) x_q is the samples' value, and det(M - M^T) = 1
      holds on the block once the first sample passes the constructor.
    - Every pairing entry w of su and cu is linear in M, so affine in
      (k, l): w(k, l) = w(1,1) + (k-1) dk + (l-1) dl. If n divides w at
      the three samples it divides dk and dl, so it divides w on the
      whole block, and w/n is affine too. So are the totals, and so
      su(k, l) = su(1,1) + (k-1)(su(2,1) - su(1,1)) + (l-1)(su(1,2) -
      su(1,1)) mod n_c, per factor c; likewise cu. For even n the total
      Q is even at the samples, so even everywhere (an affine integer
      function with even values at three such points has even
      coefficients), and Q/2 is affine.
    - The validation residuals are affine mod n_c in the same way, and
      generation and the genus bound depend on V and the size only.
    - Failures keep their place. The samples are the first entries in
      table order but for (2, 1), which the per-entry path reaches after
      row k = 1. A block that passes at (1, 1) and (1, 2) passes, by
      affinity in l, on all of row k = 1; so the first entry that raises
      (a DivisibilityFailure, which only m >= 4 can raise and there
      always does, see invariants.cu; an odd Q over an even factor) is
      a sample, and it raises the per-entry error and message.
    Every derived entry is still validated, and InternalInconsistency
    raised if one fails. Its report comes from its own matrix, through
    its difference to the first sample (SurfaceData._with_matrix, with
    the proof there): the colouring equation's residual is linear in M,
    and only the rows that the difference touches are computed. So only
    the samples form the product pair (MX, M^T X).
    """
    ls = range(1, cols + 1) if cols else (None,)
    points = [(k, l) for k in range(1, rows + 1) for l in ls]
    samples = points[:2] + ([(2, 1)] if cols else [])
    got = {p: _entry(spec, *p, i, name.format(k=p[0]), matrix_at(*p), coords)
           for p in samples}
    base, along_k = got[points[0]], got[(2, ls[0])]
    along_l = got[(1, 2)] if cols else base

    def affine(value):
        x0, xk, xl = (value(e).coords for e in (base, along_k, along_l))
        deltas = tuple(zip(x0, (y - x for x, y in zip(x0, xk)),
                           (z - x for x, z in zip(x0, xl))))
        return lambda a, b: abelian.GroupElement(
            spec, tuple(x + a * dk + b * dl for x, dk, dl in deltas))

    su_at, cu_at = affine(attrgetter("su")), affine(attrgetter("cu"))
    entries = []
    for k, l in points:
        e = got.get((k, l))
        if e is None:
            label = name.format(k=k)
            data = _checked(base.data._with_matrix(matrix_at(k, l)), label)
            a, b = k - 1, (l or 1) - 1
            e = FamilyEntry(k, l, i, label, data, su_at(a, b), cu_at(a, b),
                            base.s)
        entries.append(e)
    return entries


def _distinctness_note(entries):
    pairs = set((e.s, e.su) for e in entries)
    if len(pairs) != len(entries):
        return [f"only {len(pairs)} distinct (s, su) pairs among "
                f"{len(entries)} entries"]
    return []


def metacyclic_table(m, n, xi, budget=TABLE_BUDGET):
    """The k-twist family over C_m acting on Z/n by the unit xi:
    M_k = [[a + kn, 0], [1, 1]], V = (s; x s) with x = xi/(1-xi) and
    a the minimal natural congruent to -xi/(1-xi)^2. BudgetExceeded,
    before any entry is built, when its n entries exceed budget."""
    if not (type(m) is type(n) is int and m >= 1 and n >= 2):
        raise BadParameters("need integers m >= 1, n >= 2")
    if type(xi) is not int:
        raise BadParameters(f"xi must be an integer, got {xi!r}")
    xi = xi % n
    if gcd(xi, n) != 1 or gcd(xi - 1, n) != 1:
        raise BadParameters("xi and xi - 1 must be units mod n")
    if pow(xi, m, n) != 1 % n:
        raise BadParameters(f"xi^{m} != 1 mod {n}")
    check_budget(n, budget, "table entries")
    spec = abelian.make_group(m, (n,), ((xi,),))
    x = (xi * _inv(1 - xi, n)) % n
    a = (-xi * _inv((1 - xi) ** 2, n)) % n
    entries = _block(spec, "F{k}", None, ((1,), (x,)),
                     lambda k, _: ((a + k * n, 0), (1, 1)), n)
    lower = abelian.additive_order(2 * (1 - pow(xi, -3, n)), n)
    notes = _distinctness_note(entries)
    return FamilyTable("metacyclic", spec, tuple(entries),
                       abelian.h3_order(spec), lower, tuple(notes))


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
    entries = []
    notes = []

    x1 = (xi1 * _inv(1 - xi1, n1)) % n1
    x2_g1 = _inv(xi2 - 1, n2)
    g1_is = []
    if g == 1:
        notes.append("gcd(n1, n2) = 1: no genus-1 classes")
    elif x1 % g != x2_g1 % g:
        notes.append("no genus-1 classes: the congruences for x "
                     "have no common solution")
    else:
        x = solve_mod([[1], [1]], [x1, x2_g1], (n1, n2))[0] % (n1 * n2 // g)
        for i in range(1, g):
            if gcd(i, n2) != 1:
                notes.append(f"i={i} skipped: i s2 does not generate Z/{n2}")
            else:
                g1_is.append(i)
    check_budget((len(g1_is) + 1) * n1 * n2, budget, "table entries")
    for i in g1_is:
        entries += _block(spec, "g1", i, ((1, 0), (0, i)),
                          lambda k, l: ((k * n1, x), (x + 1, l * n2)),
                          n1, n2)

    x2 = (xi2 * _inv(1 - xi2, n2)) % n2
    entries += _block(spec, "g2", None, ((1, 0), (0, 0), (0, 1), (0, 0)),
                      lambda k, l: ((k * n1, x1, 0, 0),
                                    (x1 + 1, 0, 0, 0),
                                    (0, 0, l * n2, x2),
                                    (0, 0, x2 + 1, 0)),
                      n1, n2)

    lower = (abelian.additive_order(2 * (1 - pow(xi1, -3, n1)), n1),
             abelian.additive_order(2 * (1 - pow(xi2, -3, n2)), n2))
    notes.extend(_distinctness_note(entries))
    return FamilyTable("rank2diag", spec, tuple(entries),
                       abelian.h3_order(spec), lower, tuple(notes))


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
    xi = _inv(1 - n21 - n22, n)
    try:
        # stored action is the transpose of the row-convention matrix
        spec = abelian.make_group(m, (n, n), ((0, n21), (1, n22)))
    except (NotOrderM, FixedPoints) as e:
        raise BadParameters(f"companion action rejected: {e}") from None
    entries = []
    notes = []
    xt = xi % n

    g1_is = []
    if (n21 + 1) % n == 0:
        for i in range(1, n):
            if gcd(i, n) != 1:
                notes.append(f"i={i} skipped: i s2 does not generate Z/{n}")
            else:
                g1_is.append(i)
    check_budget((len(g1_is) + 1) * n * n, budget, "table entries")
    for i in g1_is:
        # 1 - 2xt + xt N22 = 1 - xt(2 - N22) = 0 mod n, as xt = (2 - N22)^-1
        d1, d2 = (xi * i) % n, (xi * _inv(i, n)) % n
        entries += _block(spec, "g1", i, ((1, 0), (0, i)),
                          lambda k, l: ((d1 + k * n, -xt),
                                        (1 - xt, d2 + l * n)),
                          n, n)

    p = (n21 * xi) % n
    entries += _block(spec, "g2", None, ((1, 0), (0, 0), (0, 1), (0, 0)),
                      lambda k, l: ((k * n, p, 0, p),
                                    (p + 1, 0, xt, 0),
                                    (0, xt, l * n, xt - 1),
                                    (p, 0, xt, 0)),
                      n, n)

    lower = nondiag_lower_bound(m, n, rows)
    # both families are present: only m = 3 gets here
    for g, formula in ((1, n * sum(n // gcd(n, j) for j in range(1, n))),
                       (2, n * abelian.additive_order(n22 - n21 + 1, n))):
        seen = len({e.su for e in entries if e.name == f"g{g}"})
        if seen != formula:
            notes.append(f"genus-{g} su takes {seen} distinct values; the "
                         f"expected count formula gives {formula}")
    notes.extend(_distinctness_note(entries))
    return FamilyTable("rank2nondiag", spec, tuple(entries),
                       abelian.h3_order(spec), lower, tuple(notes))


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
    notes = _distinctness_note(entries)
    return FamilyTable("a4", spec, tuple(entries),
                       abelian.h3_order(spec), 2, tuple(notes))


@lru_cache(maxsize=None)
def _a4_reference_cu():
    table = a4_representatives()
    by_name = {e.name: e for e in table.entries}
    return by_name["3_1^l"].cu, by_name["4_1^l"].cu


def a4_class(data):
    """Which of the two rho-equivalence classes valid A4 data sits in,
    decided by cu."""
    if abelian._expect(data, surface_data.SurfaceData).spec != a4_spec():
        raise NotA4("data is not coloured by the A4 spec")
    if not surface_data.validate(data).valid:
        raise InvalidData("a4_class needs valid surface data")
    cu_tref, cu_fig8 = _a4_reference_cu()
    value = invariants.cu(data)
    if value == cu_fig8:
        return FIGURE8_CLASS
    if value == cu_tref:
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
