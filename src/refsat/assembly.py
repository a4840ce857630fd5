"""Dirichlet edge classes on the reference square and their 1D factors.

The reference square is [-1, 1]^2. Its edges are numbered counterclockwise
starting from the rightmost one: 1 is the right edge (x = +1), 2 the top
(y = +1), 3 the left (x = -1), 4 the bottom (y = -1). An edge set is a
frozenset of these numbers and marks where homogeneous Dirichlet conditions
are imposed.

A Dirichlet space on the square is the tensor product of an x and a y
factor basis, and an edge set fixes the boundary conditions of both
(:func:`factor_conditions`). Tensor indices are flattened row-major with
the x factor outermost: the member (ix, iy) sits at flat index
ix * ny + iy. No 2D space or matrix is built: every operator on these
spaces is a tensor product of 1D ones, which ``refsat.coefficients`` works
with directly.
"""

from __future__ import annotations

from refsat.bases import BoundaryCondition1D

__all__ = [
    "RIGHT",
    "TOP",
    "LEFT",
    "BOTTOM",
    "EDGE_CLASSES",
    "normalize_edges",
    "factor_conditions",
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
