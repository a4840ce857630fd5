"""The dihedral action on floating-point corners: a test oracle.

The 8 transforms about the vertex (2, 2) are the counterclockwise quarter
turns t = 0..3 and the same after mirroring x (t = 4..7). Each corner of
a cell or edge is moved as a float point and the image is read back by
rounding. The tests build the dihedral images of the catalog patches with
it, to show that the traversal enumeration belongs to the catalog frame.
"""

from __future__ import annotations

from refsat.patches import GridEdge


def transform_point(t: int, point: tuple[float, float]) -> tuple[float, float]:
    x, y = point[0] - 2.0, point[1] - 2.0
    if t & 4:
        x = -x
    for _ in range(t & 3):
        x, y = -y, x
    return (x + 2.0, y + 2.0)


def transform_edge(t: int, edge: GridEdge) -> GridEdge:
    if edge.orientation == "H":
        p0, p1 = (edge.x, edge.y), (edge.x + 1, edge.y)
    else:
        p0, p1 = (edge.x, edge.y), (edge.x, edge.y + 1)
    (x0, y0), (x1, y1) = sorted((transform_point(t, p0), transform_point(t, p1)))
    if y0 == y1:
        return GridEdge("H", int(round(x0)), int(round(y0)))
    return GridEdge("V", int(round(x0)), int(round(y0)))


def transform_cell(t: int, cell: tuple[int, int]) -> tuple[int, int]:
    corners = [
        transform_point(t, (cell[0] + dx, cell[1] + dy))
        for dx in (0, 1)
        for dy in (0, 1)
    ]
    return (
        int(round(min(p[0] for p in corners))),
        int(round(min(p[1] for p in corners))),
    )

