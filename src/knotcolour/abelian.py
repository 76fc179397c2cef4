"""Finite metabelian colouring groups G = C_m |x A and the wedge algebra of A.

A = Z/n_1 x ... x Z/n_r with all n_i >= 2. The cyclic generator t acts on A
through an integer matrix in the *column* convention: t.a has coordinates
action @ a, with entry (i, j) read mod n_i (the modulus of the target
coordinate). Sources that write the action on row vectors should pass the
transpose.
"""

from functools import wraps
from itertools import chain, combinations, product
from math import gcd, prod
from operator import attrgetter, mod

from ._intlin import det, identity, kernel_mod, mat_pow, mat_vec
from .errors import (
    BadParameters,
    BudgetExceeded,
    FixedPoints,
    GroupMismatch,
    NotOrderM,
)


class _Record:
    """Base of the package's record classes. Each class is set up once,
    with no generated code, so importing the package loads neither
    dataclasses nor inspect. The fields are the annotated names of the
    class and its bases, bases first.

    - A record is built by position or keyword, then __post_init__ runs;
      a subclass with a hot constructor writes its own fixed-signature
      __init__.
    - repr is Name(field=value, ...).
    - == holds only between records of one class with equal fields, and
      the hash is that of the field tuple.
    - Assigning or deleting an attribute raises AttributeError, so a
      constructor stores through __dict__. A mutable subclass restores
      object's __setattr__ and __delattr__ and sets __hash__ = None.
    """

    def __init_subclass__(cls):
        super().__init_subclass__()
        # getattr, not the class __dict__: from Python 3.14 the dict holds
        # __annotate__ and the annotations are made on first access
        cls._fields = fields = tuple(dict.fromkeys(
            name for base in reversed(cls.__mro__)
            for name in getattr(base, "__annotations__", ())))
        # attrgetter is no descriptor: self._values(self) is the field
        # tuple (attrgetter of one name gives the bare value)
        get = attrgetter(*fields)
        cls._values = get if len(fields) > 1 else staticmethod(
            lambda x: (get(x),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        # a surplus or repeated argument leaves fewer values than given
        if len(values) != len(args) + len(kwargs) or \
                values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields "
                            f"{', '.join(fields)}, each once")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in
                           zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GroupSpec(_Record):
    """G = C_m |x A, A = Z/n_1 x ... x Z/n_r, t acting by the action N.
    Construction runs make_group's checks but the fixed-point one, in
    its order and with its messages: m an int >= 1, the orders, N an
    r x r integer matrix, compatibility (n_i | N_ij n_j) and N^m = I on
    A (by mat_pow). N is stored reduced, row i mod n_i, and is an
    automorphism of A: N^(m-1) N = N^m = I there.

    Direct construction is for carriers with fixed points: some order
    tuples (e.g. (4, 6)) admit no fixed-point-free action, yet the wedge
    layer only reads .orders (unsafe_spec). State of G alone is in _memo.
    """

    m: int
    orders: tuple
    action: tuple

    def __post_init__(self):
        m = self.m
        if type(m) is not int or m < 1:
            raise BadParameters(f"m must be a positive integer, got {m!r}")
        orders = _orders(self.orders)
        r = len(orders)
        action = int_rows(self.action, "action", r, r)
        # homomorphism compatibility: n_j * column j must vanish, i.e.
        # n_i | action[i][j] * n_j
        for i in range(r):
            for j in range(r):
                if (action[i][j] * orders[j]) % orders[i] != 0:
                    raise BadParameters(
                        f"action entry ({i},{j}) is not compatible with "
                        f"orders {orders[i]}, {orders[j]}")
        N = tuple(tuple(x % n for x in row) for row, n in zip(action, orders))
        for i, row in enumerate(mat_pow(N, m, orders)):
            for j, x in enumerate(row):
                if x != (i == j):
                    raise NotOrderM(
                        f"action^{m} != identity on A (entry {i},{j})")
        fields = self.__dict__
        fields["orders"], fields["action"], fields["_memo"] = orders, N, {}

    @property
    def rank(self):
        return len(self.orders)


def _per_spec(fn):
    """fn(spec, *args), kept per args in spec._memo: it dies with the spec."""
    @wraps(fn)
    def kept(spec, *args):
        try:
            return spec._memo[kept, args]
        except KeyError:
            return spec._memo.setdefault((kept, args), fn(spec, *args))
    return kept


@_per_spec
def _inverse(spec):
    # N^(m-1), t^-1 on A as N^m = I there, rows reduced
    return tuple(map(tuple, mat_pow(spec.action, spec.m - 1, spec.orders)))


class GroupElement(_Record):
    spec: GroupSpec
    coords: tuple

    def __init__(self, spec, coords):
        fields = self.__dict__
        fields["spec"], fields["coords"] = spec, coords
        self.__post_init__()

    # == spells the field tuple inline, about half the cost of _Record's
    # attrgetter call; the hash reads coords alone (equal records have
    # equal coords), so it never re-hashes the spec's nested tuples
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.spec, self.coords) == (other.spec, other.coords)
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __post_init__(self):
        spec = self.spec
        if spec.__class__ is not GroupSpec:  # spares a real spec the call
            _expect(spec, GroupSpec)
        _store_coords(self, spec.orders)

    @classmethod
    def _trusted(cls, spec, coords):
        """Unchecked: coords must be a tuple of ints reduced mod
        spec.orders, rows the library reduced itself."""
        e = object.__new__(cls)
        fields = e.__dict__
        fields["spec"], fields["coords"] = spec, coords
        return e


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
    unless rows is a list or tuple of count rows (any number if count is
    None), each a list or tuple of width ints (a bool is not an int
    here)."""
    if not isinstance(rows, (list, tuple)) or \
            any(not isinstance(row, (list, tuple)) for row in rows):
        raise BadParameters(
            f"{what} must be a list or tuple of rows, got {rows!r}")
    if count not in (None, len(rows)) or \
            any(len(row) != width for row in rows):
        raise BadParameters(
            f"{what} must be {'n' if count is None else count}x{width}")
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
    """Validating factory for GroupSpec: the spec's own checks (see
    GroupSpec), then invertibility of action - id (no nonzero fixed
    points), FixedPoints otherwise."""
    spec = GroupSpec(m, orders, action)
    N, orders, r = spec.action, spec.orders, spec.rank
    cols1 = [tuple((N[i][j] - (1 if i == j else 0)) % orders[i]
                   for i in range(r)) for j in range(r)]
    if not _coords_generate(spec, frozenset(cols1)):
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
    return GroupElement(spec, mat_vec(spec.action, a.coords))


def act_pow(a, j):
    """t^j.a for any integer j: one product by N^(j mod m), as N^m = I."""
    spec = _expect(a, GroupElement).spec
    _check_scalar(j)
    j %= spec.m
    return GroupElement(spec, mat_vec(_inverse(spec) if j == spec.m - 1 else
                                      mat_pow(spec.action, j, spec.orders),
                                      a.coords))


def linear_kernel(P, Q, spec, budget):
    """Every V in A^n with (P + Q.t) V = 0, for integer matrices P and Q
    of one shape, as n reduced coordinate rows in lexicographic order
    (see kernel_mod). Entry (i, j) acts on A as P_ij I + Q_ij N, N the action.
    Each flat solution is cut into its n rows by zip over r references
    to one iterator. BadParameters unless spec is a GroupSpec and P and
    Q share one shape.
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
    return [tuple(zip(*[iter(x)] * r))
            for x in kernel_mod(F, orders * n, orders * len(P), budget)]


def elements_of_rows(spec, vectors):
    """Each vector, a sequence of coordinate rows, as a tuple of
    GroupElements, built through the validating constructor once per
    distinct row; equal rows share one (immutable) element. BadParameters
    if vectors, a vector or a row is not iterable, a row not hashable, or
    the constructor refuses a row."""
    _expect(spec, GroupSpec)
    made = {}
    try:
        for V in vectors:
            for x in V:
                if x not in made:
                    made[x] = GroupElement(spec, x)
    except TypeError:
        raise BadParameters(
            f"expected a list of coordinate row vectors, got {vectors!r}"
        ) from None
    return [tuple(map(made.__getitem__, V)) for V in vectors]


def group_order(spec):
    return prod(_expect(spec, GroupSpec).orders)


def elements(spec):
    """All of A in lexicographic coordinate order."""
    return [GroupElement(spec, c)
            for c in product(*map(range, _expect(spec, GroupSpec).orders))]


def _primes(n):
    """The primes dividing n >= 1, ascending, by trial division up to
    sqrt(n) with divisors at most 10^7: BudgetExceeded when the cofactor
    left has no prime factor up to 10^7 and is at least (10^7 + 1)^2, as
    it could then be composite. Every n below 10^14 factors."""
    # the last candidate, 10^7 + 1 = 11 * 909091, divides no cofactor
    # and only closes the loop
    out, m = [], n
    for p in chain((2,), range(3, 10 ** 7 + 2, 2)):
        if p * p > m:
            return out + [m] if m > 1 else out
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
    raise BudgetExceeded(
        f"cannot factor {n}: its cofactor {m} has no prime factor up to "
        f"10^7 and could be composite")


@_per_spec
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
                todo.append([y % p for y in mat_vec(Np, v)])
    return False


@_per_spec
def _coords_generate(spec, rows, orbit=False):
    """Whether the set of coordinate rows (a frozenset at every caller,
    so one set takes one memo entry) generates A; with orbit, whether
    their t-orbits do.

    Burnside's basis theorem (M. Hall, The Theory of Groups, 1959, ch.
    12): a set generates the finite abelian A exactly when, for every
    prime p dividing |A|, its image spans A/pA. The t-orbits generate A
    exactly when those images span A/pA under N_p (see _frattini).
    """
    return all(_spans(rows, p, I, Np if orbit else None)
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
    return _coords_generate(found, frozenset(e.coords for e in elems))


# ---------------------------------------------------------------------------
# wedge algebra — depends only on spec.orders


def _basis(spec, degree):
    """The basis wedges of the degree as ascending index tuples, in
    lexicographic order; BadParameters unless spec is a GroupSpec."""
    return _wedge_basis(_expect(spec, GroupSpec), degree)[0]


def pair_indices(spec):
    return _basis(spec, 2)


def triple_indices(spec):
    return _basis(spec, 3)


def _wedge_orders(spec, degree):
    """Per basis wedge of the degree, the gcd of its factors' orders;
    BadParameters unless spec is a GroupSpec."""
    return _wedge_basis(_expect(spec, GroupSpec), degree)[1]


@_per_spec
def _wedge_basis(spec, degree):
    """(_basis, _wedge_orders) of the degree, kept on the spec: the spec
    is checked by the callers, as the memo is read off it."""
    basis = tuple(combinations(range(spec.rank), degree))
    return basis, tuple(gcd(*(spec.orders[i] for i in idx)) for idx in basis)


class _Wedge(_Record):
    """Element of the degree-fold exterior power of A (the subclass sets
    the degree); + needs equal degree and spec."""

    spec: GroupSpec
    coords: tuple

    def __init__(self, spec, coords):
        fields = self.__dict__
        fields["spec"], fields["coords"] = spec, coords
        _store_coords(self, _wedge_orders(spec, self.degree))

    __eq__, __hash__ = GroupElement.__eq__, GroupElement.__hash__

    def __add__(self, other):
        if type(other) is not type(self) or other.spec != self.spec:
            raise GroupMismatch("wedges of different degrees or specs")
        return type(self)(
            self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.spec, tuple(-a for a in self.coords))

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class WedgeElement2(_Wedge):
    """Element of A ^ A, coordinates over the basis s_i ^ s_j, i < j."""
    degree = 2


class WedgeElement3(_Wedge):
    """Element of A ^ A ^ A over the basis s_i ^ s_j ^ s_k, i < j < k."""
    degree = 3


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


def wedge3_scale(k, w):
    """k w; BadParameters unless k is an int and w a WedgeElement3."""
    _check_scalar(k)
    return WedgeElement3(_expect(w, WedgeElement3).spec,
                         tuple(k * c for c in w.coords))


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
    """Abelian-only carrier: the GroupSpec with m = 1 and the identity
    action, whose checks are those of the orders alone. For the wedge
    layer over order tuples that admit no fixed-point-free action; its
    data never validate (N = I leaves V = 0), so su and cu refuse them.
    """
    orders = _orders(orders)
    return GroupSpec(1, orders, identity(len(orders)))
