"""Saturation coefficients for hierarchical error estimation on reference squares."""

from refsat.assembly import EDGE_CLASSES
from refsat.bases import BoundaryCondition1D
from refsat.coefficients import (
    CANONICAL_PROBLEMS,
    NumericalError,
    ProblemSpec,
    SaturationResult,
    q_strategy,
    saturation_coefficient,
)
from refsat.patches import (
    GridEdge,
    RefinedPatch,
    extension_operator,
    interior_edge_traversal,
    local_dirichlet_edges,
    patch_catalog,
    verify_traversal_lemma,
)

__version__ = "0.1.0"
