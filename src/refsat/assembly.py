"""Tensor-product spaces and Dirichlet edge classes on the reference square.

The reference square is [-1, 1]^2. Its edges are numbered counterclockwise
starting from the rightmost one: 1 is the right edge (x = +1), 2 the top
(y = +1), 3 the left (x = -1), 4 the bottom (y = -1). An edge set is a
frozenset of these numbers and marks where homogeneous Dirichlet conditions
are imposed.

Flattening of tensor indices is row-major with the x factor outermost: the
basis member (ix, iy) sits at flat index ix * ny + iy. No 2D matrix is
assembled: every operator on these spaces is a tensor product of the 1D
Grams of the two factor bases, which ``refsat.coefficients`` works with
directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from refsat.bases import Basis1D, BoundaryCondition1D, build_basis_1d

__all__ = [
    "RIGHT",
    "TOP",
    "LEFT",
    "BOTTOM",
    "EDGE_CLASSES",
    "normalize_edges",
    "factor_conditions",
    "TensorSpace",
    "QuotientSpace",
    "tensor_space",
    "quotient_space",
]

RIGHT, TOP, LEFT, BOTTOM = 1, 2, 3, 4

#: canonical Dirichlet edge classes; the E classes drive the volume-load
#: problems, the F classes the edge-load problems (loads act on edge 1, so
#: edge 1 never carries a Dirichlet condition in an F class)
EDGE_CLASSES: dict[str, frozenset[int]] = {
    "E1": frozenset({RIGHT}),
    "E2": frozenset({RIGHT, TOP}),
    "E3": frozenset({RIGHT, LEFT}),
    "E4": frozenset({RIGHT, TOP, LEFT}),
    "E5": frozenset({RIGHT, TOP, LEFT, BOTTOM}),
    "F1": frozenset({TOP}),
    "F2": frozenset({LEFT}),
    "F3": frozenset({TOP, LEFT}),
    "F4": frozenset({TOP, LEFT, BOTTOM}),
}


def normalize_edges(edges) -> frozenset[int]:
    """Coerce an iterable of edge numbers to a validated frozenset."""
    out = frozenset(int(e) for e in edges)
    if not out <= {RIGHT, TOP, LEFT, BOTTOM}:
        raise ValueError(f"edge numbers must lie in 1..4, got {sorted(out)}")
    return out


@dataclass(frozen=True)
class TensorSpace:
    """Polynomial tensor space on the square with Dirichlet edges removed."""

    edges: frozenset[int]
    basis_x: Basis1D
    basis_y: Basis1D

    @property
    def dim(self) -> int:
        return self.basis_x.n_functions * self.basis_y.n_functions


@dataclass(frozen=True)
class QuotientSpace:
    """Full polynomial space modulo constants.

    Realized as the tensor square of the mean-zero family with the purely
    constant member removed, giving (r + 1)^2 - 1 functions whose first
    basis direction is flattened outermost exactly like TensorSpace.
    """

    degree: int
    basis: Basis1D

    @property
    def dim(self) -> int:
        return (self.degree + 1) ** 2 - 1


def factor_conditions(
    edges: frozenset[int],
) -> tuple[BoundaryCondition1D, BoundaryCondition1D]:
    """Dirichlet flags of the x and the y factor basis for an edge set."""
    bc_x = BoundaryCondition1D(
        dirichlet_at_minus1=LEFT in edges, dirichlet_at_plus1=RIGHT in edges
    )
    bc_y = BoundaryCondition1D(
        dirichlet_at_minus1=BOTTOM in edges, dirichlet_at_plus1=TOP in edges
    )
    return bc_x, bc_y


def tensor_space(edges, degree: int) -> TensorSpace:
    """Build the Dirichlet tensor space of coordinate degree at most ``degree``."""
    edges = normalize_edges(edges)
    bc_x, bc_y = factor_conditions(edges)
    basis_x = build_basis_1d("integrated_legendre", bc_x, degree)
    basis_y = build_basis_1d("integrated_legendre", bc_y, degree)
    return TensorSpace(edges=edges, basis_x=basis_x, basis_y=basis_y)


def quotient_space(degree: int) -> QuotientSpace:
    if degree < 1:
        raise ValueError("the quotient space needs degree >= 1 to be nonempty")
    return QuotientSpace(degree=degree, basis=build_basis_1d("mean_zero", r=degree))
