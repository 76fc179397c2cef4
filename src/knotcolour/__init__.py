"""Exact-arithmetic toolkit for knots coloured by metabelian groups
C_m |x A: surface data validation and enumeration, S-equivalence moves,
the su/cu/s invariants, base-knot classification tables, and a
diagram-level quandle colouring oracle.
"""

from . import abelian, classify, diagram, invariants, surface_data
from .abelian import (
    GroupElement,
    GroupSpec,
    WedgeElement2,
    WedgeElement3,
    additive_order,
    generates,
    group_from_json,
    group_to_json,
    h3_order,
    make_group,
    unsafe_spec,
    wedge2,
    wedge3,
)
from .classify import (
    FIGURE8_CLASS,
    TREFOIL_CLASS,
    FamilyEntry,
    FamilyTable,
    a4_class,
    a4_representatives,
    a4_spec,
    a4_sum_class,
    metacyclic_table,
    nondiag_lower_bound,
    rank2_diag_table,
    rank2_nondiag_table,
)
from .diagram import (
    Diagram,
    QuandleColouring,
    braid_closure,
    catalog,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagram_colourings,
    quandle_op,
    quandle_op_inverse,
)
from .errors import (
    ArtifactError,
    BadParameters,
    BudgetExceeded,
    DivisibilityFailure,
    FixedPoints,
    GroupMismatch,
    InternalInconsistency,
    InvalidData,
    LiftFailure,
    NonGenerating,
    NotA4,
    NotOrderM,
    NotSymplecticable,
    NotUnimodular,
    PatternMismatch,
    UnsupportedM,
)
from .invariants import cu, structured_lift, su, vector_class, y_obstruction
from .surface_data import (
    ShortenResult,
    SurfaceData,
    ValidationReport,
    apply_moves,
    canonical_vector,
    connect_sum,
    data_from_json,
    data_to_json,
    enumerate_colourings,
    lambda1,
    lambda2,
    lambda2_inverse,
    make_data,
    shorten_vector,
    standard_matrix,
    symplectic_reduce,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
