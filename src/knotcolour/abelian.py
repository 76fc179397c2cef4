"""Finite metabelian colouring groups G = C_m |x A and the wedge algebra of A.

A = Z/n_1 x ... x Z/n_r with all n_i >= 2. The cyclic generator t acts on A
through an integer matrix in the *column* convention: t.a has coordinates
action @ a, with entry (i, j) read mod n_i (the modulus of the target
coordinate). Sources that write the action on row vectors should pass the
transpose.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod
import operator
from operator import mod

from ._intlin import det, identity, kernel_mod, mat_pow
from .errors import (
    BadParameters,
    FixedPoints,
    GroupMismatch,
    NotOrderM,
)


@dataclass(frozen=True)
class GroupSpec:
    """Validated by make_group; direct construction performs no checks.

    Direct construction is deliberate for abelian-only carriers: some
    order tuples (e.g. (4, 6)) admit no fixed-point-free action at all,
    yet the wedge layer only ever reads .orders.
    """

    m: int
    orders: tuple
    action: tuple

    def __post_init__(self):
        # the generated hash re-hashes the nested tuples on every cache
        # lookup keyed on a spec; the value is the same
        object.__setattr__(
            self, "_hash", hash((self.m, self.orders, self.action)))

    def __hash__(self):
        return self._hash

    @property
    def rank(self):
        return len(self.orders)


@dataclass(frozen=True)
class GroupElement:
    spec: GroupSpec
    coords: tuple

    def __post_init__(self):
        # the spec check costs nothing unless it fails: every GroupSpec
        # has orders, so _expect raises
        try:
            orders = self.spec.orders
        except AttributeError:
            _expect(self.spec, GroupSpec)
            raise
        _store_coords(self, orders)


def _expect(x, cls):
    """x itself; BadParameters unless it is a cls."""
    if not isinstance(x, cls):
        raise BadParameters(f"expected a {cls.__name__}, got {x!r}")
    return x


def _store_coords(x, mods):
    """Store the coordinates of the frozen element x reduced mod mods;
    BadParameters unless they are a sequence of len(mods) ints (a bool is
    not an int here)."""
    coords = x.coords
    try:
        count = len(coords)
    except TypeError:
        raise BadParameters("coordinates must be a sequence") from None
    if count != len(mods):
        raise BadParameters(f"coordinate length {count} != rank {len(mods)}")
    for c in coords:
        if type(c) is not int:
            raise BadParameters(
                f"coordinates must be integers, got {coords!r}")
    object.__setattr__(x, "coords", tuple(map(mod, coords, mods)))


def _check_scalar(k):
    if type(k) is not int:
        raise BadParameters(f"scalar must be an integer, got {k!r}")


# the one type int_tuple accepts, for a C-level pass over the entry types
_INT = frozenset((int,))


def int_tuple(values, what):
    """values as a tuple of ints, coercing nothing: BadParameters unless
    values is a list or tuple of ints (a bool is not an int here)."""
    if not isinstance(values, (list, tuple)):
        raise BadParameters(f"{what} must be a list or tuple, got {values!r}")
    if not _INT.issuperset(map(type, values)):
        raise BadParameters(f"{what} must be integers, got {values!r}")
    return tuple(values)


def int_rows(rows, what, count, width):
    """rows as a tuple of int tuples, coercing nothing: BadParameters
    unless rows is a list or tuple of count rows, each a list or tuple of
    width ints (a bool is not an int here)."""
    if not isinstance(rows, (list, tuple)) or \
            any(not isinstance(row, (list, tuple)) for row in rows):
        raise BadParameters(
            f"{what} must be a list or tuple of rows, got {rows!r}")
    if len(rows) != count or any(len(row) != width for row in rows):
        raise BadParameters(f"{what} must be {count}x{width}")
    return tuple(int_tuple(row, f"{what} row") for row in rows)


def _orders(orders):
    """orders as a nonempty tuple of ints >= 2; BadParameters otherwise."""
    orders = int_tuple(orders, "orders")
    if not orders:
        raise BadParameters("orders must be nonempty")
    if any(n < 2 for n in orders):
        raise BadParameters(f"every cyclic order must be >= 2, got {orders}")
    return orders


def make_group(m, orders, action):
    """Validating factory for GroupSpec.

    Checks, in order: well-formedness of the parameters, that the action
    is a homomorphism for the given orders, N^m = I on A, and
    invertibility of action - id (no nonzero fixed points). The action
    is then an automorphism of A with no further check: N^(m-1) N = N^m
    = I on A, so N^(m-1) inverts it.
    """
    if type(m) is not int or m < 1:
        raise BadParameters(f"m must be a positive integer, got {m!r}")
    orders = _orders(orders)
    r = len(orders)
    action = int_rows(action, "action", r, r)
    # homomorphism compatibility: n_j * column j must vanish, i.e.
    # n_i | action[i][j] * n_j
    for i in range(r):
        for j in range(r):
            if (action[i][j] * orders[j]) % orders[i] != 0:
                raise BadParameters(
                    f"action entry ({i},{j}) is not compatible with orders "
                    f"{orders[i]}, {orders[j]}")
    N = [[action[i][j] % orders[i] for j in range(r)] for i in range(r)]
    Nm = mat_pow(N, m)
    for i in range(r):
        for j in range(r):
            if (Nm[i][j] - (1 if i == j else 0)) % orders[i] != 0:
                raise NotOrderM(f"action^{m} != identity on A (entry {i},{j})")
    spec = GroupSpec(m, orders, tuple(tuple(row) for row in N))
    cols1 = [tuple((N[i][j] - (1 if i == j else 0)) % orders[i]
                   for i in range(r)) for j in range(r)]
    if not _coords_generate(spec, tuple(sorted(set(cols1)))):
        raise FixedPoints("action - id is singular on A")
    return spec


def element(spec, coords):
    return GroupElement(spec, int_tuple(coords, "coordinates"))


def zero(spec):
    return GroupElement(spec, (0,) * _expect(spec, GroupSpec).rank)


def _same_spec(*elems):
    s = _expect(elems[0], GroupElement).spec
    for e in elems[1:]:
        if _expect(e, GroupElement).spec != s:
            raise GroupMismatch("elements belong to different group specs")
    return s


def add(a, b):
    s = _same_spec(a, b)
    return GroupElement(s, tuple(x + y for x, y in zip(a.coords, b.coords)))


def neg(a):
    return GroupElement(_expect(a, GroupElement).spec,
                        tuple(-x for x in a.coords))


def sub(a, b):
    s = _same_spec(a, b)
    return GroupElement(s, tuple(x - y for x, y in zip(a.coords, b.coords)))


def mul(k, a):
    """Integer multiple k.a, reduced mod each factor order."""
    _check_scalar(k)
    return GroupElement(_expect(a, GroupElement).spec,
                        tuple(k * x for x in a.coords))


def act(a):
    """t.a: apply the action matrix once."""
    spec = _expect(a, GroupElement).spec
    N = spec.action
    r = spec.rank
    return GroupElement(
        spec,
        tuple(sum(N[i][j] * a.coords[j] for j in range(r)) for i in range(r)))


def act_pow(a, j):
    """t^j.a for any integer j (the action has order dividing m)."""
    _expect(a, GroupElement)
    _check_scalar(j)
    out = a
    for _ in range(j % a.spec.m):
        out = act(out)
    return out


def act_rows(rows, spec):
    """t applied to each coordinate row, reduced mod the orders: the
    integer form of act, for loops that never build an element."""
    pairs = tuple(zip(_expect(spec, GroupSpec).action, spec.orders))
    return [tuple(sum(map(operator.mul, Ni, x)) % n for Ni, n in pairs)
            for x in rows]


def linear_kernel(P, Q, spec, budget):
    """Every V in A^n with (P + Q.t) V = 0, for integer matrices P and Q
    of one shape, as n reduced coordinate rows in lexicographic order
    (see kernel_mod). Entry (i, j) acts on A as P_ij I + Q_ij N, N the action.
    BadParameters unless spec is a GroupSpec and P and Q share one shape.
    """
    _expect(spec, GroupSpec)
    try:
        n = len(P[0]) if P else 0
        shaped = len(Q) == len(P) and all(len(row) == n for row in (*P, *Q))
    except TypeError:
        shaped = False
    if not shaped:
        raise BadParameters("P and Q must be matrices of one shape")
    N, orders, r = spec.action, spec.orders, spec.rank
    F = [[P[i][j] * (c == d) + Q[i][j] * N[c][d]
          for j in range(n) for d in range(r)]
         for i in range(len(P)) for c in range(r)]
    return [tuple(x[j * r:(j + 1) * r] for j in range(n))
            for x in kernel_mod(F, orders * n, orders * len(P), budget)]


def elements_of_rows(spec, vectors):
    """Each vector of coordinate rows as a tuple of GroupElements, built
    through the validating constructor once per distinct row; equal rows
    share one (immutable) element."""
    _expect(spec, GroupSpec)
    made = {}
    for V in vectors:
        for x in V:
            if x not in made:
                made[x] = GroupElement(spec, x)
    return [tuple(map(made.__getitem__, V)) for V in vectors]


def group_order(spec):
    return prod(_expect(spec, GroupSpec).orders)


def elements(spec):
    """All of A in lexicographic coordinate order."""
    return [GroupElement(spec, c)
            for c in product(*map(range, _expect(spec, GroupSpec).orders))]


def _primes(n):
    """The primes dividing n >= 1, ascending, by trial division up to
    sqrt(n)."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return out + [n] if n > 1 else out


@lru_cache(maxsize=None)
def _frattini(spec):
    """A/pA per prime p dividing |A|, as (p, I_p, N_p) in ascending p:
    A/pA = F_p^{I_p} with I_p = (i : p | n_i), and N_p the action on it,
    the action restricted to I_p mod p. An entry N_ij with j outside I_p
    vanishes mod p, as n_i | N_ij n_j, so N_p is all of t on A/pA."""
    orders, N = spec.orders, spec.action
    out = []
    for p in sorted({p for n in orders for p in _primes(n)}):
        I = tuple(i for i, n in enumerate(orders) if n % p == 0)
        out.append((p, I, tuple(tuple(N[i][j] % p for j in I) for i in I)))
    return tuple(out)


def _spans(rows, p, I, Np):
    """Whether the rows, read mod p on the coordinates I, span F_p^I; with
    Np given, whether their closure under Np does. One row echelon over
    F_p, read lazily: each new basis vector b queues Np b, and the test
    stops as soon as the rank reaches |I|."""
    basis = []  # (pivot, vector: 1 at its pivot, 0 at earlier pivots)
    for x in rows:
        todo = [[x[i] % p for i in I]]
        while todo:
            v = todo.pop()
            for k, b in basis:
                c = v[k]
                if c:
                    v = [(y - c * z) % p for y, z in zip(v, b)]
            k = next((k for k, y in enumerate(v) if y), None)
            if k is None:
                continue
            if len(basis) == len(I) - 1:
                return True
            c = pow(v[k], -1, p)
            v = [y * c % p for y in v]
            basis.append((k, v))
            if Np:
                todo.append([sum(map(operator.mul, row, v)) % p
                             for row in Np])
    return False


@lru_cache(maxsize=None)
def _coords_generate(spec, coord_tuples, orbit=False):
    """Whether the given coordinate tuples generate A; with orbit, whether
    their t-orbits do (for a spec from make_group, where N^m = I).

    Burnside's basis theorem (M. Hall, The Theory of Groups, 1959, ch.
    12): a set generates the finite abelian A exactly when, for every
    prime p dividing |A|, its image spans A/pA. The t-orbits generate A
    exactly when those images span A/pA under N_p (see _frattini).
    """
    return all(_spans(coord_tuples, p, I, Np if orbit else None)
               for p, I, Np in _frattini(spec))


def _as_tuple(elems):
    """elems, an iterable of GroupElements, as a tuple; BadParameters if
    it is not iterable. The caller checks the entries."""
    try:
        return tuple(elems)
    except TypeError:
        raise BadParameters(
            f"expected an iterable of GroupElements, got {elems!r}") from None


def generates(elems, spec=None):
    """True iff the elements, any iterable of GroupElements, generate A
    as a group; with no elements, False. BadParameters unless spec is
    None or a GroupSpec, GroupMismatch if it is not the elements' spec."""
    if spec is not None:
        _expect(spec, GroupSpec)
    elems = _as_tuple(elems)
    if not elems:
        return False
    found = _same_spec(*elems)
    if spec is not None and spec != found:
        raise GroupMismatch("elements do not belong to the given spec")
    return _coords_generate(found, tuple(sorted({e.coords for e in elems})))


# ---------------------------------------------------------------------------
# wedge algebra — depends only on spec.orders


def _basis(spec, degree):
    """The basis wedges of the degree as ascending index tuples, in
    lexicographic order; BadParameters unless spec is a GroupSpec."""
    return tuple(combinations(range(_expect(spec, GroupSpec).rank), degree))


def pair_indices(spec):
    return _basis(spec, 2)


def triple_indices(spec):
    return _basis(spec, 3)


def _wedge_orders(spec, degree):
    """Per basis wedge of the degree, the gcd of its factors' orders."""
    return tuple(gcd(*(spec.orders[i] for i in idx))
                 for idx in _basis(spec, degree))


def pair_orders(spec):
    return _wedge_orders(spec, 2)


def triple_orders(spec):
    return _wedge_orders(spec, 3)


@dataclass(frozen=True)
class _Wedge:
    """Element of the degree-fold exterior power of A (the subclass sets
    the degree); + needs equal degree and spec."""

    spec: GroupSpec
    coords: tuple

    def __post_init__(self):
        _store_coords(self, _wedge_orders(self.spec, self.degree))

    def __add__(self, other):
        if type(other) is not type(self) or other.spec != self.spec:
            raise GroupMismatch("wedges of different degrees or specs")
        return type(self)(
            self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.spec, tuple(-a for a in self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True)
class WedgeElement2(_Wedge):
    """Element of A ^ A, coordinates over the basis s_i ^ s_j, i < j."""
    degree = 2


@dataclass(frozen=True)
class WedgeElement3(_Wedge):
    """Element of A ^ A ^ A over the basis s_i ^ s_j ^ s_k, i < j < k."""
    degree = 3


def wedge2_zero(spec):
    return WedgeElement2(spec, (0,) * len(pair_indices(spec)))


def wedge3_zero(spec):
    return WedgeElement3(spec, (0,) * len(triple_indices(spec)))


def _minors(cls, *elems):
    """The wedge of elems as a cls: coordinate idx is the determinant of
    the elements' coordinate rows restricted to the index tuple idx."""
    s = _same_spec(*elems)
    return cls(s, tuple(det([[e.coords[i] for i in idx] for e in elems])
                        for idx in _basis(s, cls.degree)))


def wedge2(a, b):
    """a ^ b with coordinate (i, j) equal to a_i b_j - a_j b_i mod gcd(n_i, n_j)."""
    return _minors(WedgeElement2, a, b)


def wedge3(a, b, c):
    """a ^ b ^ c via the 3x3 coordinate determinants mod the triple gcds."""
    return _minors(WedgeElement3, a, b, c)


def _wedge_scale(k, w, cls):
    """k w; BadParameters unless k is an int and w a cls."""
    _check_scalar(k)
    return cls(_expect(w, cls).spec, tuple(k * c for c in w.coords))


def wedge2_scale(k, w):
    return _wedge_scale(k, w, WedgeElement2)


def wedge3_scale(k, w):
    return _wedge_scale(k, w, WedgeElement3)


# ---------------------------------------------------------------------------
# homology bound and cyclic orders


def h3_order(spec):
    """|H_3(A; Z)| by iterated Kunneth: the product of all n_i, all
    pairwise gcds, and all triple gcds. Accepts a GroupSpec or a bare
    list or tuple of cyclic orders, each >= 2 (only the orders matter).
    """
    orders = spec.orders if isinstance(spec, GroupSpec) else _orders(spec)
    return (prod(orders) * prod(gcd(*p) for p in combinations(orders, 2))
            * prod(gcd(*p) for p in combinations(orders, 3)))


def additive_order(k, n):
    """Order of k in Z/nZ; BadParameters unless k and n >= 1 are ints."""
    _check_scalar(k)
    if type(n) is not int or n < 1:
        raise BadParameters(f"modulus must be positive, got {n!r}")
    return n // gcd(k % n, n)


# ---------------------------------------------------------------------------
# JSON interchange


def group_to_json(spec):
    _expect(spec, GroupSpec)
    return {
        "m": spec.m,
        "orders": list(spec.orders),
        "action": [list(row) for row in spec.action],
    }


def group_from_json(obj):
    return make_group(obj["m"], obj["orders"], obj["action"])


def unsafe_spec(orders):
    """Raw abelian-only carrier: GroupSpec with m = 1 and the identity
    action; only the orders are checked, as make_group checks them. For
    the wedge layer over order tuples that admit no fixed-point-free
    action; do not feed to su/cu.
    """
    orders = _orders(orders)
    return GroupSpec(1, orders, tuple(tuple(row) for row in identity(len(orders))))
