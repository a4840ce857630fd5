"""Refined vertex patches: catalog, interior-edge traversal, extensions.

Geometry lives on the 4x4 reference grid [0, 4]^2 with the distinguished
vertex at (2, 2). A cell (cx, cy) is the unit square [cx, cx+1] x [cy, cy+1];
a GridEdge is a horizontal edge ("H", x, y) = [x, x+1] x {y} or a vertical
edge ("V", x, y) = {x} x [y, y+1]. The sides of a cell are named e1..e4
counterclockwise from the rightmost: e1 right, e2 top, e3 left, e4 bottom.

The interior edges of the full grid carry a fixed enumeration 1..24 along
anti-diagonal bands (see canonical_numbering). Each patch traverses its own
interior edges in increasing inherited number; the owner of an edge is the
square above it (horizontal edges) or to its left (vertical edges), so the
edge is always the owner's bottom or right side. At step i the local
Dirichlet sides of the owner are those covered by not-yet-traversed interior
edges or by clamped patch-boundary edges; every such set matches one of five
situations (a)-(e), each of which admits an explicit bounded zero-extension
built from reflections and at most one linear decay factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from refsat.bases import BoundaryCondition1D
from refsat.coefficients import _chains

__all__ = [
    "GridEdge",
    "RefinedPatch",
    "TraversalStep",
    "TraversalViolation",
    "TraversalReport",
    "SITUATIONS",
    "cell_sides",
    "owner_square",
    "interior_edges_of",
    "boundary_edges_of",
    "canonical_numbering",
    "patch_catalog",
    "interior_edge_traversal",
    "local_dirichlet_edges",
    "verify_traversal_lemma",
    "extension_norm",
]

SITUATIONS = ("a", "b", "c", "d", "e")

GRID_CELLS = frozenset((x, y) for x in range(4) for y in range(4))


class GridEdge(NamedTuple):
    orientation: str  # "H" or "V"
    x: int
    y: int


def cell_sides(cell: tuple[int, int]) -> dict[str, GridEdge]:
    cx, cy = cell
    return {
        "e1": GridEdge("V", cx + 1, cy),
        "e2": GridEdge("H", cx, cy + 1),
        "e3": GridEdge("V", cx, cy),
        "e4": GridEdge("H", cx, cy),
    }


def edge_neighbors(edge: GridEdge) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two cells an edge would separate: (above, below) or (right, left)."""
    if edge.orientation == "H":
        return (edge.x, edge.y), (edge.x, edge.y - 1)
    return (edge.x, edge.y), (edge.x - 1, edge.y)


#: each grid cell's (side, edge, the cell across that edge), sides in the
#: order e1..e4, shared by the traversal checks
_CELL_EDGES = {
    cell: tuple((side, edge, next(c for c in edge_neighbors(edge) if c != cell))
                for side, edge in cell_sides(cell).items())
    for cell in GRID_CELLS
}


def owner_square(edge: GridEdge) -> tuple[int, int]:
    """The square above a horizontal edge, or left of a vertical one."""
    if edge.orientation == "H":
        return (edge.x, edge.y)
    return (edge.x - 1, edge.y)


def _edges_of(cells: frozenset) -> tuple[frozenset[GridEdge], frozenset[GridEdge]]:
    """(interior, boundary) edges of a set of cells, from one scan."""
    interior, boundary = set(), set()
    for cell in cells:
        for edge in cell_sides(cell).values():
            a, b = edge_neighbors(edge)
            (interior if a in cells and b in cells else boundary).add(edge)
    return frozenset(interior), frozenset(boundary)


def interior_edges_of(cells: frozenset) -> frozenset[GridEdge]:
    return _edges_of(cells)[0]


def boundary_edges_of(cells: frozenset) -> frozenset[GridEdge]:
    return _edges_of(cells)[1]


def _band(edge: GridEdge) -> float:
    # anti-diagonal sweep coordinate; the +1/2 interleaves V edges between
    # the H bands so that a square's top/left sides always land strictly
    # after its bottom/right sides
    if edge.orientation == "H":
        return float(edge.y - edge.x)
    return edge.y - edge.x + 0.5


@lru_cache(maxsize=1)
def canonical_numbering() -> Mapping[GridEdge, int]:
    """Numbers 1..24 for the interior edges of the full grid, read-only.

    Edges are sorted by (band, -x): bottom-right anti-diagonal band first,
    right to left within a band. Patch edges inherit these numbers.
    """
    edges = sorted(interior_edges_of(GRID_CELLS), key=lambda e: (_band(e), -e.x))
    return MappingProxyType({edge: k for k, edge in enumerate(edges, start=1)})


_CENTER_CELLS = frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})


@dataclass(frozen=True)
class RefinedPatch:
    """One catalogued refined patch around the vertex (2, 2)."""

    id: int
    vertex_kind: str  # "interior" or "boundary"
    cells: frozenset
    ext_dirichlet: frozenset

    def __post_init__(self) -> None:
        if self.vertex_kind not in ("interior", "boundary"):
            raise ValueError(f"unknown vertex kind {self.vertex_kind!r}")
        if not self.cells or not self.cells <= GRID_CELLS:
            raise ValueError(f"patch {self.id}: cells must be a nonempty grid subset")
        if not self.ext_dirichlet <= self.boundary_edges:
            raise ValueError(
                f"patch {self.id}: clamped edges must lie on the patch boundary"
            )
        interior_vertex = _CENTER_CELLS <= self.cells
        if interior_vertex != (self.vertex_kind == "interior"):
            raise ValueError(
                f"patch {self.id}: vertex kind does not match the cell geometry"
            )
        if self.vertex_kind == "interior" and self.ext_dirichlet:
            raise ValueError(
                f"patch {self.id}: interior-vertex patches have no clamped edges"
            )
        if self.vertex_kind == "boundary" and not self.ext_dirichlet:
            raise ValueError(
                f"patch {self.id}: boundary-vertex patches need clamped edges"
            )

    @cached_property
    def interior_edges(self) -> frozenset[GridEdge]:
        return interior_edges_of(self.cells)

    @cached_property
    def boundary_edges(self) -> frozenset[GridEdge]:
        return boundary_edges_of(self.cells)

    @cached_property
    def ext_neumann(self) -> frozenset[GridEdge]:
        return self.boundary_edges - self.ext_dirichlet

    @property
    def n_steps(self) -> int:
        return len(self.interior_edges)


class TraversalStep(NamedTuple):
    """One traversal step and its classification.

    ``dirichlet_sides`` are the owner's sides covered by later interior
    edges or clamped boundary edges; ``situation`` is one of "a".."e", or
    None when no situation matches. On the packaged catalog that happens
    exactly when the set is empty at the final step of an interior-vertex
    patch (the traversal cannot continue there).
    """

    index: int  # 1-based step position within this patch
    number: int  # inherited grid number 1..24
    edge: GridEdge
    owner: tuple[int, int]
    dirichlet_sides: frozenset[str]
    ext_neumann_sides: frozenset[str]
    situation: str | None


# ---------------------------------------------------------------- catalog


#: the form of each catalog line, which the message on a malformed one names
_LINE_FORMS = {
    "patch": "patch <id> <kind>",
    "cells": "cells <CX,CY> ...",
    "dirichlet": "dirichlet [<H|V> <X> <Y>] ...",
}


def _line_values(keyword: str, tokens: list[str]) -> list:
    """The values of a catalog line after its keyword: the id and kind of a
    patch line, the cells or clamped edges of the others. A ValueError
    means that the tokens do not parse."""
    if keyword == "patch":
        pid, kind = tokens
        return [int(pid), kind]
    if keyword == "cells":
        return [(int(cx), int(cy)) for cx, cy in (t.split(",") for t in tokens)]
    if len(tokens) % 3:
        raise ValueError("clamped edges take three tokens each")
    return [GridEdge(o, int(x), int(y)) for o, x, y in zip(*[iter(tokens)] * 3)]


def _parse_catalog(text: str) -> dict[int, RefinedPatch]:
    patches: dict[int, RefinedPatch] = {}
    current: dict | None = None

    def flush():
        if current is None:
            return
        patch = RefinedPatch(
            id=current["id"],
            vertex_kind=current["kind"],
            cells=frozenset(current["cells"]),
            ext_dirichlet=frozenset(current["dirichlet"]),
        )
        if patch.id in patches:
            raise ValueError(f"duplicate patch id {patch.id}")
        patches[patch.id] = patch

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *tokens = line.split()
        if keyword not in _LINE_FORMS:
            raise ValueError(f"unrecognized catalog line: {line!r}")
        if keyword != "patch" and current is None:
            raise ValueError(f"{keyword} line before any patch line")
        try:
            values = _line_values(keyword, tokens)
        except ValueError as exc:
            raise ValueError(f"malformed {keyword} line, expected "
                             f"'{_LINE_FORMS[keyword]}': {line!r}") from exc
        if keyword == "patch":
            flush()
            pid, kind = values
            current = {"id": pid, "kind": kind, "cells": [], "dirichlet": []}
        else:
            current[keyword].extend(values)
    flush()
    if not patches:
        raise ValueError("catalog has no patch line")
    return patches


def patch_catalog(path: str | None = None) -> dict[int, RefinedPatch]:
    """Load the patch catalog, keyed by id 1..13.

    Without a path the packaged data file is used; it is parsed once, and
    each call returns a new dict of the same frozen patches.
    """
    if path is None:
        return dict(_default_catalog())
    with open(path, encoding="utf-8") as handle:
        return _parse_catalog(handle.read())


@lru_cache(maxsize=1)
def _default_catalog() -> dict[int, RefinedPatch]:
    text = (
        resources.files("refsat").joinpath("data/patch_catalog.txt").read_text()
    )
    return _parse_catalog(text)


# -------------------------------------------------------------- traversal


def interior_edge_traversal(patch: RefinedPatch) -> tuple[TraversalStep, ...]:
    """Traverse the patch's interior edges in increasing inherited number,
    the fixed ``canonical_numbering`` of the full grid, and classify each
    step as it is taken: the interior edges traversed later are exactly
    those not reached yet."""
    numbering = canonical_numbering()
    edges = sorted(patch.interior_edges, key=lambda e: numbering[e])
    pending = set(edges)
    steps = []
    for i, edge in enumerate(edges, start=1):
        pending.remove(edge)
        owner = owner_square(edge)
        dirichlet, neumann = set(), set()
        for name, side, _ in _CELL_EDGES[owner]:
            if side == edge:
                self_side = name
            elif side in patch.ext_dirichlet or side in pending:
                dirichlet.add(name)
            elif side in patch.ext_neumann:
                neumann.add(name)
        dirichlet, neumann = frozenset(dirichlet), frozenset(neumann)
        steps.append(TraversalStep(
            index=i, number=numbering[edge], edge=edge, owner=owner,
            dirichlet_sides=dirichlet, ext_neumann_sides=neumann,
            situation=_classify(dirichlet, neumann, self_side)))
    return tuple(steps)


def _classify(
    dirichlet: frozenset[str], ext_neumann: frozenset[str], self_side: str
) -> str | None:
    """Match the local Dirichlet pattern to one of the five situations.

    Exact patterns first: the Dirichlet sides are those of a situation's
    ``PRE_ZERO_SIDES``, and each of the owner's top and left sides e2, e3
    is Dirichlet or free. If none fits, free (Neumann) sides may stand in
    for clamped ones, in which case the admissible widened pattern is fixed
    by which side of the owner the traversed edge is (bottom or right).
    """
    covered = dirichlet | ext_neumann
    for situation, zero in PRE_ZERO_SIDES.items():
        if dirichlet == set(zero) and {"e2", "e3"} <= covered:
            return situation
    if dirichlet and self_side == "e4" and {"e1", "e2", "e3"} <= covered:
        return "a"
    if dirichlet and self_side == "e1" and {"e2", "e3", "e4"} <= covered:
        return "b"
    return None


def local_dirichlet_edges(patch: RefinedPatch, i: int) -> TraversalStep:
    """Traversal step i, with its local Dirichlet sides and situation label.

    Valid steps are 1 <= i <= n-1, plus i = n for boundary-vertex patches.
    Calling with i = n on an interior-vertex patch does not raise: it
    returns the empty set with situation None, the signal that the
    traversal cannot be continued past the last edge.
    """
    steps = interior_edge_traversal(patch)
    if not 1 <= i <= len(steps):
        raise ValueError(f"step must be in 1..{len(steps)}, got {i}")
    return steps[i - 1]


# ------------------------------------------------- zero-extension witnesses

#: the zero-extension of each situation, keyed "a".."e", followed by two
#: witness-only layouts: each maps square offsets to decayed sides. The
#: piece at an offset is the original mirrored across e1 if it lies to the
#: right, across e4 if it lies below (``_source``), times a linear decay
#: that vanishes on each decayed side. The two-square decay layouts are
#: legitimate when the decayed column or row already kills the outer trace.
#: The traversal check tries a step's own situation first, then the others
#: in this order.
_LAYOUTS: dict[str, dict[tuple[int, int], frozenset[str]]] = {
    "a": {(0, 0): frozenset(), (0, -1): frozenset()},
    "b": {(0, 0): frozenset(), (1, 0): frozenset()},
    "c": {(0, 0): frozenset(), (1, 0): frozenset(), (0, -1): frozenset(),
          (1, -1): frozenset()},
    "d": {(0, 0): frozenset(), (1, 0): frozenset({"e1"}), (0, -1): frozenset(),
          (1, -1): frozenset({"e1"})},
    "e": {(0, 0): frozenset(), (0, -1): frozenset({"e4"}), (1, 0): frozenset(),
          (1, -1): frozenset({"e4"})},
    "right_decay": {(0, 0): frozenset(), (1, 0): frozenset({"e1"})},
    "down_decay": {(0, 0): frozenset(), (0, -1): frozenset({"e4"})},
}

_OPPOSITE = {"e1": "e3", "e2": "e4", "e3": "e1", "e4": "e2"}


def _source(offset: tuple[int, int], side: str) -> str:
    """The side of the original whose trace the piece at ``offset`` carries
    on ``side``: a mirror swaps the two sides across its axis."""
    axis = side in ("e2", "e4")
    return _OPPOSITE[side] if offset[axis] else side


#: each piece of each layout: its offset and, for each side in the order
#: e1..e4, the side of the original whose trace it carries there, or None
#: where its decay kills the trace
_PIECES = {
    name: tuple((offset, tuple(None if side in decayed else _source(offset, side)
                               for side in ("e1", "e2", "e3", "e4")))
                for offset, decayed in layout.items())
    for name, layout in _LAYOUTS.items()
}


def _layout_valid(
    name: str,
    owner: tuple[int, int],
    dirichlet_sides: frozenset[str],
    patch: RefinedPatch,
    later: frozenset[GridEdge],
    current: GridEdge,
) -> bool:
    """Zero-extension legitimacy of one witness layout at one step.

    The extension carries v's side traces around by reflection, killed where
    a decay factor applies. It is legitimate iff the trace vanishes on every
    inner-boundary edge of the occupied squares (so the zero-extension stays
    conforming) and on every clamped or not-yet-traversed edge inside them,
    the traversed edge itself excepted.
    """
    squares = {}
    for (dx, dy), sources in _PIECES[name]:
        square = (owner[0] + dx, owner[1] + dy)
        if square in patch.cells:
            squares[square] = sources
    if owner not in squares:
        return False
    for square, sources in squares.items():
        for (_, edge, other), source in zip(_CELL_EDGES[square], sources):
            if edge == current or source is None or source in dirichlet_sides:
                continue
            if edge in patch.ext_dirichlet or edge in (
                    later if other in squares else patch.interior_edges):
                return False
    return True


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class TraversalViolation:
    step: int
    edge: GridEdge
    reason: str


@dataclass(frozen=True)
class TraversalReport:
    patch_id: int
    passed: bool
    violations: tuple[TraversalViolation, ...]
    situation_counts: tuple[tuple[str, int], ...]


def verify_traversal_lemma(patch: RefinedPatch) -> TraversalReport:
    """Machine check of the traversal classification in the catalog frame.

    Every valid step, traversed in the fixed order of
    ``canonical_numbering``, must classify into a situation with an
    admissible zero-extension witness. A patch met in another orientation
    is the image of a catalogued one with the enumeration carried along, so
    this frame is the whole check. The report carries one violation per
    failed check and the number of labelled steps of each situation.
    """
    violations: list[TraversalViolation] = []
    counts: dict[str, int] = {}
    steps = interior_edge_traversal(patch)
    n = len(steps)
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for cx, cy in patch.cells:
        rows[cy] = min(rows.get(cy, cx), cx)
        cols[cx] = max(cols.get(cx, cy), cy)

    def bad(step, reason):
        violations.append(TraversalViolation(step.index, step.edge, reason))

    for step in steps:
        if patch.vertex_kind == "interior" and step.index == n:
            if step.dirichlet_sides:
                bad(step, "final step of an interior-vertex patch must see an "
                          "empty local Dirichlet set")
            continue
        if not step.dirichlet_sides:
            bad(step, "empty local Dirichlet set")
            continue
        if step.situation is None:
            bad(step, f"no situation matches sides {sorted(step.dirichlet_sides)}")
            continue
        counts[step.situation] = counts.get(step.situation, 0) + 1
        if step.situation in ("d", "e"):
            ox, oy = step.owner
            if rows[oy] != ox and cols[ox] != oy:
                bad(step, "decay situation away from its row start or column top")
        later = frozenset(s.edge for s in steps[step.index:])
        # the step's own layout is the likeliest witness
        layouts = dict.fromkeys((step.situation, *_LAYOUTS))
        if not any(_layout_valid(name, step.owner, step.dirichlet_sides, patch,
                                 later, step.edge) for name in layouts):
            bad(step, "no admissible zero-extension layout")
    return TraversalReport(
        patch_id=patch.id,
        passed=not violations,
        violations=tuple(violations),
        situation_counts=tuple(sorted(counts.items())),
    )


# ---------------------------------------------------------- extension norms

#: sides of v that must carry zero trace before extending
PRE_ZERO_SIDES = {
    "a": ("e1", "e2", "e3"),
    "b": ("e2", "e3", "e4"),
    "c": ("e2", "e3"),
    "d": ("e2",),
    "e": ("e3",),
}

#: decayed side -> (axis, Legendre coefficients of the linear weight that is
#: 0 on that side and 1 on the opposite one)
_DECAY_WEIGHTS = {
    "e1": (0, np.array([0.5, -0.5])),
    "e4": (1, np.array([0.5, 0.5])),
}


def _decay(c: np.ndarray, axis: int, weight: np.ndarray) -> np.ndarray:
    """Multiply by a linear weight along one axis (degree grows by one).

    With x P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1), multiplying every
    column by w0 + w1 x is one product with an (m+1) x m tridiagonal matrix.
    """
    moved = c if axis == 0 else c.T
    k = np.arange(moved.shape[0])
    times = np.zeros((k.size + 1, k.size))
    times[k, k] = weight[0]
    times[k + 1, k] = weight[1] * (k + 1) / (2 * k + 1)
    times[k[1:] - 1, k[1:]] = weight[1] * k[1:] / (2 * k[1:] + 1)
    out = times @ moved
    return out if axis == 0 else out.T


def _members(bc: BoundaryCondition1D, degree: int):
    """Legendre coefficient columns of the 1D factor of degree ``degree``
    with ends ``bc`` (the chain members of ``refsat.coefficients._chains``,
    after the constant sqrt(1/2) when no end is Dirichlet) and of their
    derivatives: a member with top term c L_m has the orthonormal
    derivative c (2m - 1) L_{m-1}, as L_m' - L_{m-2}' = (2m - 1) L_{m-1}."""
    free = int(not (bc.dirichlet_at_minus1 or bc.dirichlet_at_plus1))
    index, coeff = (np.vstack(part) for part in zip(*_chains(bc, degree)))
    rows = np.arange(len(index))
    cols = np.zeros((degree + 1, free + len(index)))
    ders = np.zeros_like(cols)
    cols[0, :free] = np.sqrt(0.5)
    for s in (0, 1):
        cols[index[:, s], free + rows] = coeff[:, s]
    top = index.argmax(axis=1)
    m = index[rows, top]
    ders[m - 1, free + rows] = coeff[rows, top] * (2 * m - 1)
    return cols, ders


def _mass_1d(cols: np.ndarray) -> np.ndarray:
    """L2 Gram of 1D plain Legendre coefficient columns."""
    norms = 2.0 / (2.0 * np.arange(cols.shape[0]) + 1.0)
    return cols.T @ (norms[:, None] * cols)


def _pencil_eigenvalues(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a x = lambda m x for symmetric a and
    definite m: with m = L L^T, those of L^{-1} a L^{-T}."""
    factor = np.linalg.cholesky(m)
    half = np.linalg.solve(factor, a)
    return np.linalg.eigvalsh(np.linalg.solve(factor, half.T))


def _decay_pencil(situation: str, degree: int):
    """The 1D Grams of a decay situation's extension norm (see
    ``extension_norm``): the number of plain pieces; B and C, the stiffness
    and mass Grams of the decayed pieces summed; S and M, those of the
    factor along the decay axis; and the cross modes theta, descending."""
    layout = _LAYOUTS[situation]
    decayed = [(offset, side) for offset, sides in layout.items() for side in sides]
    zero = PRE_ZERO_SIDES[situation]
    ends = (BoundaryCondition1D("e3" in zero, "e1" in zero),
            BoundaryCondition1D("e4" in zero, "e2" in zero))
    axis = _DECAY_WEIGHTS[decayed[0][1]][0]
    along, along_der = _members(ends[axis], degree)
    cross = _members(ends[1 - axis], degree)[0]
    stiff, mass = _mass_1d(along_der), _mass_1d(along)
    b = c = 0.0
    for offset, side in decayed:
        w0, w1 = _DECAY_WEIGHTS[side][1]
        # a mirror is an isometry: w(x) v(-x) has the Grams of w(-x) v(x)
        if offset[axis]:
            w1 = -w1
        # (w v)' = w' v + w v', with w' the constant w1
        der = _decay(along_der, 0, (w0, w1))
        der[:-1] += w1 * along
        b += _mass_1d(der)
        c += _mass_1d(_decay(along, 0, (w0, w1)))
    thetas = 1.0 / np.linalg.eigvalsh(_mass_1d(cross))
    return len(layout) - len(decayed), b, c, stiff, mass, thetas


def _top_at_end_modes(b, c, stiff, mass, thetas) -> float:
    """max over theta in ``thetas`` (positive and sorted) of
    lambda_max(b + theta c, stiff + theta mass), from the first and the
    last theta alone (see ``extension_norm``)."""
    return max(_pencil_eigenvalues(b + theta * c, stiff + theta * mass)[-1]
               for theta in (thetas[0], thetas[-1]))


def extension_norm(situation: str, degree: int) -> float:
    """Exact norm of the situation's extension in the H1 seminorm.

    Admissible v (coordinate degree ``degree``, zero trace on the clamped
    sides) span tensor products of the 1D factors of ``_members``. Each
    piece of the layout is v mirrored, an isometry of the seminorm, at most
    times a linear decay w along one axis, so a layout without decay has
    norm sqrt(number of pieces). Otherwise, with S, M the 1D stiffness and
    mass Grams along the decay axis and B, C those of the decayed pieces
    summed, the tensor pencil splits by fast diagonalization: the squared
    norm is n_plain + max over theta of lambda_max(B + theta C, S + theta M),
    for theta in the eigenvalues of the cross factor, 1 / eigvalsh(M_c), as
    its one Dirichlet end makes its stiffness I.

    That maximum lies at the smallest or the largest theta, so two pencil
    eigensolves give it. For a fixed x, with b = x^T B x, c = x^T C x,
    s = x^T S x >= 0 and m = x^T M x > 0, the quotient
    (b + theta c) / (s + theta m) is linear-fractional in theta, with a
    denominator that is positive for theta > 0. Its derivative
    (c s - b m) / (s + theta m)^2 keeps one sign, so the quotient is
    monotone in theta and largest at one end of the modes; so is its
    maximum over x. The dense 2D route is the oracle ``extension_norm_2d``
    in the tests, and the loop over every mode ``extension_norm_all_modes``.
    """
    if situation not in SITUATIONS:
        raise ValueError(f"situation must be one of {SITUATIONS}, got {situation!r}")
    if isinstance(degree, bool) or not isinstance(degree, (int, np.integer)):
        raise ValueError(f"degree must be an integer, got {degree!r}")
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    layout = _LAYOUTS[situation]
    if not any(layout.values()):
        return float(np.sqrt(len(layout)))
    n_plain, *pencil = _decay_pencil(situation, degree)
    return float(np.sqrt(n_plain + _top_at_end_modes(*pencil)))
