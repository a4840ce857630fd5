"""The dihedral action on floating-point corners: the test oracle.

``refsat.patches`` moves cells and edges by their midpoints in integer
offsets from the vertex (2, 2), and inverts a transform in closed form.
Here each corner is moved as a float point and the image is read back by
rounding, and the inverse of each transform is found by searching for the
one that restores three probe points.
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


def inverse_table() -> dict[int, int]:
    probes = [(0.0, 0.0), (1.0, 3.0), (4.0, 1.0)]
    table = {}
    for t in range(8):
        for u in range(8):
            if all(
                transform_point(u, transform_point(t, p)) == p for p in probes
            ):
                table[t] = u
                break
    return table
