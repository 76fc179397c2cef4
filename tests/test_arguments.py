"""Argument checks shared by the whole library: abelian._expect for types,
abelian.int_rows for integer matrices, _intlin.check_budget for search
budgets; and the stdlib-only rule for the package's imports."""

import ast
import sys
from pathlib import Path

import pytest

from knotcolour import _intlin, abelian, classify, diagram, surface_data
from knotcolour.errors import BadParameters, BudgetExceeded

from util import TREFOIL_L

SRC = Path(__file__).resolve().parents[1] / "src" / "knotcolour"


def _datum(d6):
    return surface_data.make_data(d6, TREFOIL_L, [(1,), (2,)])


# each call passes a non-object where a spec, element, datum, diagram or
# sequence belongs; every one escaped as a bare AttributeError,
# TypeError, IndexError or ValueError, or was accepted
MALFORMED = {
    "quandle_op": lambda d6: diagram.quandle_op(1, 2, 3),
    "quandle_op_inverse": lambda d6: diagram.quandle_op_inverse(1, 2, 3),
    "quandle_op_spec": lambda d6: diagram.quandle_op(
        abelian.zero(d6), abelian.zero(d6), 5),
    "pair_indices": lambda d6: abelian.pair_indices(5),
    "triple_indices": lambda d6: abelian.triple_indices(5),
    "pair_orders": lambda d6: abelian.pair_orders(5),
    "triple_orders": lambda d6: abelian.triple_orders(5),
    "group_to_json": lambda d6: abelian.group_to_json(5),
    "diagram_to_json": lambda d6: diagram.diagram_to_json(5),
    "act_rows": lambda d6: abelian.act_rows([(1,)], 5),
    "elements_of_rows": lambda d6: abelian.elements_of_rows(5, [((1,),)]),
    "elements_of_rows_none": lambda d6: abelian.elements_of_rows(5, []),
    "GroupElement": lambda d6: abelian.GroupElement(5, (1,)),
    "WedgeElement2": lambda d6: abelian.WedgeElement2(5, (1,)),
    "WedgeElement3": lambda d6: abelian.WedgeElement3(None, ()),
    "linear_kernel": lambda d6: abelian.linear_kernel(5, 5, d6, 1),
    "linear_kernel_rows": lambda d6: abelian.linear_kernel([5], [5], d6, 1),
    "standard_matrix": lambda d6: surface_data.standard_matrix("a"),
    "standard_matrix_bool": lambda d6: surface_data.standard_matrix(True),
    "standard_matrix_negative": lambda d6: surface_data.standard_matrix(-1),
    "apply_moves": lambda d6: surface_data.apply_moves(_datum(d6), 5),
    "apply_moves_item": lambda d6: surface_data.apply_moves(_datum(d6), [5]),
    "apply_moves_empty": lambda d6: surface_data.apply_moves(
        _datum(d6), [()]),
    "apply_moves_short": lambda d6: surface_data.apply_moves(
        _datum(d6), [("lambda2", (0, 0))]),
    "shorten_vector": lambda d6: surface_data.shorten_vector(_datum(d6), 5),
    "surface_data_spec": lambda d6: surface_data.make_data(5, (), ()),
    "braid_closure": lambda d6: diagram.braid_closure(5, 2),
    "Diagram": lambda d6: diagram.Diagram(5, 0),
    "Diagram_short": lambda d6: diagram.Diagram(((1,),), 0),
}


@pytest.mark.parametrize("call", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_arguments_are_bad_parameters(d6, call):
    with pytest.raises(BadParameters):
        call(d6)


@pytest.mark.parametrize("build, args, message", [
    (classify.metacyclic_table, (True, 3, 2),
     "need integers m >= 1, n >= 2"),
    (classify.rank2_diag_table, (True, 3, 3, 2, 2),
     "need integers m >= 1, n1, n2 >= 2"),
    (classify.rank2_nondiag_table, (True, 5, ((0, 1), (4, 4))),
     "need integers m >= 1, n >= 2"),
])
def test_table_builders_refuse_bool_sizes(build, args, message):
    """A bool is not an int here, as everywhere else in the library."""
    with pytest.raises(BadParameters) as err:
        build(*args)
    assert str(err.value) == message


def test_expect():
    spec = abelian.unsafe_spec((3,))
    assert abelian._expect(spec, abelian.GroupSpec) is spec
    with pytest.raises(BadParameters) as err:
        abelian._expect((3,), abelian.GroupSpec)
    assert str(err.value) == "expected a GroupSpec, got (3,)"


@pytest.mark.parametrize("rows, message", [
    (5, "N must be a list or tuple of rows, got 5"),
    (((0, 1), 4), "N must be a list or tuple of rows, got ((0, 1), 4)"),
    (((0, 1),), "N must be 2x2"),
    (((0, 1), (4, 4, 0)), "N must be 2x2"),
    (((0, 1), (4.0, 4)), "N row must be integers, got (4.0, 4)"),
    (((0, 1), (True, 4)), "N row must be integers, got (True, 4)"),
])
def test_int_rows_rejects(rows, message):
    with pytest.raises(BadParameters) as err:
        abelian.int_rows(rows, "N", 2, 2)
    assert str(err.value) == message


def test_int_rows_returns_tuples():
    assert abelian.int_rows([[0, 1], (4, -1)], "N", 2, 2) == \
        ((0, 1), (4, -1))
    assert abelian.int_rows((), "lifts", 0, 3) == ()


def test_check_budget():
    _intlin.check_budget(5, 5, "table entries")
    with pytest.raises(BudgetExceeded) as err:
        _intlin.check_budget(6, 5, "table entries")
    assert str(err.value) == "6 table entries exceed budget 5"
    for budget in (True, 5.0, "5", None):
        with pytest.raises(BadParameters,
                           match="^budget must be an integer, got "):
            _intlin.check_budget(0, budget, "solutions")


def test_package_imports_only_the_standard_library():
    """The package has no runtime dependencies: every import in
    src/knotcolour is relative, of the package itself, or of a module in
    the standard library."""
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in
                        sys.stdlib_module_names | {"knotcolour"}]
    assert outside == []
