"""The record behaviour of the package's twelve record classes: fields in
declaration order (bases first), construction by position or keyword,
the Name(field=value, ...) repr, == only within one class, the hash of
the field tuple, and immutability; QuandleColouring alone is mutable and
unhashable. Only public behaviour is read, so the checks do not depend
on how the classes are built."""

import pytest

from knotcolour import abelian, classify, diagram, surface_data

from util import TREFOIL_L


class _Wedge1(abelian._Wedge):
    """A degree-1 wedge: the fields and methods of the shared base."""
    degree = 1


def _records(d6):
    """(instance, the names its constructor takes and its repr shows)."""
    z333 = abelian.unsafe_spec((3, 3, 3))
    data = surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])
    table = classify.metacyclic_table(2, 3, 2)
    trefoil = diagram.catalog()["3_1^l"]
    elem_f = ("spec", "coords")
    report_f = ("generates", "equation_holds", "genus_ok", "valid")
    entry_f = ("k", "l", "i", "name", "data", "su", "cu", "s")
    table_f = ("family", "group", "entries", "upper_bound", "lower_bound",
               "notes")
    return [
        (d6, ("m", "orders", "action")),
        (abelian.element(d6, (2,)), elem_f),
        (_Wedge1(z333, (1, 2, 0)), elem_f),
        (abelian.WedgeElement2(z333, (1, 2, 0)), elem_f),
        (abelian.WedgeElement3(z333, (2,)), elem_f),
        # the datum stores coordinate rows, and takes and shows its vector
        (data, ("spec", "matrix", "vector")),
        (surface_data.validate(data), report_f),
        (surface_data.ShortenResult(data, ()), ("data", "moves")),
        (table.entries[0], entry_f),
        (table, table_f),
        (trefoil, ("crossings", "base_arc")),
        (diagram.enumerate_diagram_colourings(trefoil, d6)[0], ("labels",)),
    ]


@pytest.fixture(scope="module")
def records(d6):
    return _records(d6)


def test_every_record_class_is_covered(records):
    assert {type(x).__name__ for x, _ in records} == {
        "GroupSpec", "GroupElement", "_Wedge1", "WedgeElement2",
        "WedgeElement3", "SurfaceData", "ValidationReport", "ShortenResult",
        "FamilyEntry", "FamilyTable", "Diagram", "QuandleColouring"}
    assert issubclass(abelian.WedgeElement2, abelian._Wedge)
    assert issubclass(abelian.WedgeElement3, abelian._Wedge)


def test_repr(records):
    for x, fields in records:
        body = ", ".join(f"{name}={getattr(x, name)!r}" for name in fields)
        assert repr(x) == f"{type(x).__name__}({body})"


def test_construction_by_position_and_keyword(records):
    for x, fields in records:
        values = [getattr(x, name) for name in fields]
        by_position = type(x)(*values)
        by_keyword = type(x)(**dict(zip(fields, values)))
        assert by_position == x and by_keyword == x
        assert repr(by_position) == repr(by_keyword) == repr(x)
        with pytest.raises(TypeError):
            type(x)(*values, *values)
        with pytest.raises(TypeError):
            type(x)(*values[1:])
        with pytest.raises(TypeError):
            type(x)(*values, no_such_field=0)


def test_equal_records_have_equal_hashes(records):
    for x, fields in records:
        if isinstance(x, diagram.QuandleColouring):
            continue
        twin = type(x)(*(getattr(x, name) for name in fields))
        assert twin is not x and twin == x and not twin != x
        assert hash(twin) == hash(x)
        assert len({x, twin}) == 1


def test_equality_needs_one_class():
    """Equal fields do not make records of two classes equal."""
    z333 = abelian.unsafe_spec((3, 3, 3))
    elem = abelian.GroupElement(z333, (1, 2, 0))
    w2 = abelian.WedgeElement2(z333, (1, 2, 0))
    assert elem.spec == w2.spec and elem.coords == w2.coords
    assert elem != w2 and w2 != elem and not elem == w2
    assert _Wedge1(z333, (1, 2, 0)) != w2
    # rank 5 has ten basis pairs and ten basis triples
    z2 = abelian.unsafe_spec((2,) * 5)
    coords = (1, 0) * 5
    w2 = abelian.WedgeElement2(z2, coords)
    w3 = abelian.WedgeElement3(z2, coords)
    assert w2.coords == w3.coords and w2 != w3
    assert elem != (elem.spec, elem.coords)


def test_frozen(records):
    for x, fields in records:
        if isinstance(x, diagram.QuandleColouring):
            continue
        for name in fields:
            before = getattr(x, name)
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) == before


def test_quandle_colouring_is_mutable_and_unhashable():
    c = diagram.QuandleColouring({0: "a"})
    with pytest.raises(TypeError):
        hash(c)
    c.labels = {1: "b"}
    assert c == diagram.QuandleColouring({1: "b"})
    assert repr(c) == "QuandleColouring(labels={1: 'b'})"
    del c.labels
    c.labels = {}
    assert c == diagram.QuandleColouring(labels={})
