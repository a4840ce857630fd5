"""Saturation coefficients for hierarchical error estimation on reference squares."""

from refsat.assembly import (
    EDGE_CLASSES,
    QuotientSpace,
    TensorSpace,
    quotient_space,
    tensor_space,
)
from refsat.bases import (
    Basis1D,
    BoundaryCondition1D,
    QuadRule,
    boundary_trace,
    build_basis_1d,
    gauss_legendre_rule,
    gram_matrices,
    legendre_eval_all,
)
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
