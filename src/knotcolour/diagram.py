"""Diagram-level colouring oracle.

PD-coded knot diagrams, the coset quandle of G = C_m x| A, and the
quandle colourings with the basepoint convention that the base arc
carries the coset t (A-part zero). The quandle is an Alexander quandle,
so the colourings solve one linear system over A, a relation per
crossing. That system is built from the diagram alone, never from a
Seifert matrix, so counts from this module cross-check the surface-data
pipeline; the two share only the kernel solver.

A crossing is (sign, (a, b, c, d)): the under-strand enters at arc a and
leaves at arc c, the over-strand is arc b (= d, one arc passes over).
"""

from functools import lru_cache
from itertools import count

from . import abelian
from .errors import BadParameters, GroupMismatch


class Diagram(abelian._Record):
    """A one-component diagram: every arc has two under-strand ends, and
    the under-strand, joined at each crossing from arc a to arc c, runs
    from the base arc through every arc. Counts cannot tell a knot from
    a link: each crossing gives two under-strand ends and each arc takes
    two, so crossings and arcs always number the same."""

    crossings: tuple
    base_arc: int

    def __post_init__(self):
        if not isinstance(self.crossings, (list, tuple)):
            raise BadParameters(
                f"crossings must be a list or tuple, got {self.crossings!r}")
        norm = []
        for cr in self.crossings:
            if not isinstance(cr, (list, tuple)) or len(cr) != 2:
                raise BadParameters(
                    f"crossing must be a (sign, arcs) pair, got {cr!r}")
            sign, arcs = cr
            arcs = abelian.int_tuple(arcs, "arc ids")
            if type(sign) is not int or sign not in (1, -1):
                raise BadParameters(f"crossing sign must be +-1, got {sign!r}")
            if len(arcs) != 4:
                raise BadParameters("crossing needs four arc ids")
            if arcs[1] != arcs[3]:
                raise BadParameters(
                    "over-strand arc must repeat in slots 2 and 4")
            norm.append((sign, arcs))
        object.__setattr__(self, "crossings", tuple(norm))
        ends = {}  # arc -> the arcs its under-strand ends meet
        ids = set()
        for sign, (a, b, c, _) in self.crossings:
            ids.update((a, b, c))
            ends.setdefault(a, []).append(c)
            ends.setdefault(c, []).append(a)
        for arc in ids:
            if len(ends.get(arc, ())) != 2:
                raise BadParameters(
                    f"arc {arc} has {len(ends.get(arc, ()))} under-strand "
                    "endpoints, expected 2")
        if type(self.base_arc) is not int or self.base_arc not in ids:
            raise BadParameters(f"base arc {self.base_arc} not in diagram")
        strand, todo = {self.base_arc}, [self.base_arc]
        while todo:
            new = set(ends[todo.pop()]) - strand
            strand |= new
            todo += new
        if strand != ids:
            raise BadParameters(
                f"{len(self.crossings)} crossings but the strand through arc "
                f"{self.base_arc} meets {len(strand)} of {len(ids)} arcs; "
                "not a one-component diagram")

    @property
    def arcs(self):
        ids = set()
        for _, (a, b, c, _) in self.crossings:
            ids.update((a, b, c))
        return tuple(sorted(ids))


class QuandleColouring(abelian._Record):
    """Mutable, so unhashable."""

    labels: dict

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, labels):
        self.labels = labels


def _check_operands(a, b, spec):
    if abelian._same_spec(a, b) != abelian._expect(spec, abelian.GroupSpec):
        raise GroupMismatch("quandle operands must lie in the given spec")


def quandle_op(a, b, spec):
    """Label of the outgoing under-arc: a * b = phi(a - b) + b."""
    _check_operands(a, b, spec)
    return abelian.add(abelian.act(abelian.sub(a, b)), b)


def quandle_op_inverse(x, b, spec):
    """The unique a with quandle_op(a, b) = x: phi^-1(x - b) + b."""
    _check_operands(x, b, spec)
    return abelian.add(abelian.act_pow(abelian.sub(x, b), -1), b)


def _surjective(rows, spec):
    # the cosets t.a_i generate G iff the phi-orbits of the label rows
    # generate A (the base label is zero); the orbits are closed over
    # each A/pA inside the cached test, which is keyed on the distinct
    # rows, so no orbit is formed per solution
    return abelian._coords_generate(spec, tuple(sorted(set(rows))), True)


def enumerate_diagram_colourings(diagram, spec, budget=10 ** 7):
    """All colourings with base arc labelled zero, every crossing relation
    satisfied, and the labels generating G; in lexicographic label order
    over the non-base arcs (ascending arc id). A crossing with out = in *
    over is the relation out - t.in + (t - 1).over = 0 over A (a negative
    crossing swaps in and out); BudgetExceeded past budget solutions."""
    abelian._expect(diagram, Diagram)
    free = [a for a in diagram.arcs if a != diagram.base_arc]
    col = {a: j for j, a in enumerate(free)}
    P, Q = ([[0] * len(free) for _ in diagram.crossings] for _ in range(2))
    for row, (sign, (a, b, c, _)) in enumerate(diagram.crossings):
        into, out = (a, c) if sign > 0 else (c, a)
        for arc, p, q in ((out, 1, 0), (into, 0, -1), (b, -1, 1)):
            if arc in col:
                P[row][col[arc]] += p
                Q[row][col[arc]] += q
    found = abelian.linear_kernel(P, Q, spec, budget)
    zero = (0,) * spec.rank
    kept = [(zero,) + rows for rows in found if _surjective(rows, spec)]
    arcs = [diagram.base_arc] + free
    return [QuandleColouring(dict(zip(arcs, labels)))
            for labels in abelian.elements_of_rows(spec, kept)]


# ---------------------------------------------------------------------------
# diagram builders


def braid_closure(word, strands):
    """Close a braid word (letters +-1..+-(strands-1), sigma_i positive
    when the strand at position i crosses over position i+1) and relabel
    arcs canonically by first occurrence. BadParameters unless the
    closure is a knot: Diagram rejects a link whose components all
    cross, and a strand that no letter crosses is rejected here."""
    if type(strands) is not int or strands < 2:
        raise BadParameters("need an integer strand count >= 2")
    word = abelian.int_tuple(word, "braid word")
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise BadParameters(f"braid letter {letter!r} out of range")
    # letter i crosses positions i - 1 and i; an uncrossed strand closes
    # to a split unknot, which no crossing would record
    if len({abs(x) for x in word} | {abs(x) - 1 for x in word}) < strands:
        raise BadParameters(
            f"a strand of {word} is never crossed; not a one-component "
            "diagram")
    arc_at = list(range(strands))
    fresh = count(strands)
    crossings = []
    for letter in word:
        i = abs(letter) - 1
        new = next(fresh)
        if letter > 0:
            over, under_in = arc_at[i], arc_at[i + 1]
            crossings.append((1, under_in, over, new))
            arc_at[i], arc_at[i + 1] = new, over
        else:
            over, under_in = arc_at[i + 1], arc_at[i]
            crossings.append((-1, under_in, over, new))
            arc_at[i], arc_at[i + 1] = over, new
    total = next(fresh)
    parent = list(range(total))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(strands):
        parent[find(arc_at[p])] = find(p)
    canon = {}
    for x in range(total):
        canon.setdefault(find(x), len(canon))
    return Diagram(tuple((s, (canon[find(a)], canon[find(b)],
                              canon[find(c)], canon[find(b)]))
                         for s, a, b, c in crossings), canon[find(0)])


def _shift(word, offset):
    return tuple(x + offset if x > 0 else x - offset for x in word)


@lru_cache(maxsize=None)
def catalog():
    """Built-in diagrams: the unknot (one kink), both trefoils, both
    figure-eight chiralities, and the connect sums the A4 table needs.
    Sums are closures of concatenated braids sharing one strand."""
    tl = (-1, -1, -1)
    tr = (1, 1, 1)
    fl = (1, -2, 1, -2)
    fr = (-1, 2, -1, 2)
    return {
        "unknot": braid_closure((1,), 2),
        "3_1^l": braid_closure(tl, 2),
        "3_1^r": braid_closure(tr, 2),
        "4_1^l": braid_closure(fl, 3),
        "4_1^r": braid_closure(fr, 3),
        "3_1^l#3_1^l": braid_closure(tl + _shift(tl, 1), 3),
        "3_1^l#4_1^l": braid_closure(tl + _shift(fl, 1), 4),
        "3_1^l#4_1^r": braid_closure(tl + _shift(fr, 1), 4),
        "4_1^l#4_1^r": braid_closure(fl + _shift(fr, 2), 5),
    }


# ---------------------------------------------------------------------------
# JSON interchange


def diagram_to_json(d):
    abelian._expect(d, Diagram)
    return {
        "crossings": [{"sign": s, "arcs": list(arcs)}
                      for s, arcs in d.crossings],
        "base_arc": d.base_arc,
    }


def diagram_from_json(obj):
    try:
        crossings = tuple((cr["sign"], tuple(cr["arcs"]))
                          for cr in obj["crossings"])
        base = obj["base_arc"]
    except (KeyError, TypeError) as e:
        raise BadParameters(f"malformed diagram JSON: {e}") from None
    return Diagram(crossings, base)
