"""The 2D extension builder, hand-written tables and Monte-Carlo ratios.

``refsat.patches`` reports each situation's exact extension norm by 1D
separation and never builds an extension. ``extension_operator`` here
builds one piece by piece from the situation's witness layout in
``refsat.patches._LAYOUTS``, as plain Legendre coefficient matrices. It
looks the decay up as ``refsat.patches._decay`` at call time, so a test
that patches the decay reaches it. The tables here are written out by
hand: the seams inside each configuration and the outer sides that must
come out clamped. The tests check them against the seams and clamped sides
derived from ``_LAYOUTS``, and use them to check the built pieces.
``measured_extension_ratio`` samples random admissible polynomials, so it
gives a lower bound on ``extension_norm``. ``decay_by_columns`` is the
column-by-column ``legmul`` product that the one-matrix decay in
``refsat.patches._decay`` replaced. ``extension_norm_2d`` is the dense
generalized eigenproblem on the 2D tensor basis that the 1D-separated
``refsat.patches.extension_norm`` replaced, and ``extension_norm_scipy`` is
the 1D route that the coefficients' chains replaced there: endpoint null
spaces of the Legendre coefficients from scipy's ``null_space``, derivative
Grams through ``legder`` and scipy's generalized ``eigh``. The 1D spaces of
the oracles and of ``random_admissible`` are ``_endpoint_nullspace``, the
numpy SVD form of that null space, and ``_stiffness_1d`` differentiates
their columns; both moved here from ``refsat.patches``, as did the mirror
``_mirror_x``, which the production norm no longer needs.
``extension_norm_all_modes`` takes lambda_max at every cross mode on the
production Grams, the loop that the end-point rule replaced, and
``layout_valid_by_calls`` is the witness check that looked each cell's
sides, neighbours and mirrored sources up by call, before
``refsat.patches._layout_valid`` read them from tables built at import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.polynomial import legendre as npleg

from refsat import patches
from refsat.patches import (
    PRE_ZERO_SIDES,
    SITUATIONS,
    _DECAY_WEIGHTS,
    _LAYOUTS,
    _mass_1d,
    _source,
    cell_sides,
    edge_neighbors,
)


def _endpoint_nullspace(degree: int, zero_at_minus1: bool, zero_at_plus1: bool):
    """Orthonormal basis of the Legendre coefficient columns of degree
    ``degree`` that vanish at the chosen endpoints: the right singular
    vectors of the endpoint rows past their rank, which counts the singular
    values above max(M, N) eps s_max (the rule of scipy's ``null_space``)."""
    rows = []
    k = np.arange(degree + 1)
    if zero_at_plus1:
        rows.append(np.ones(degree + 1))
    if zero_at_minus1:
        rows.append((-1.0) ** k)
    if not rows:
        return np.eye(degree + 1)
    _, values, vh = np.linalg.svd(np.array(rows))
    rank = np.sum(values > max(len(rows), degree + 1) * np.finfo(float).eps
                  * values[0])
    return vh[rank:].T


def _stiffness_1d(cols: np.ndarray) -> np.ndarray:
    """Derivative L2 Gram of 1D plain Legendre coefficient columns."""
    return _mass_1d(npleg.legder(cols, axis=0))


@dataclass(frozen=True)
class Extension:
    """Piecewise polynomial extension on unit squares around the original.

    ``pieces`` maps square offsets (in whole squares; (0, 0) is the original)
    to plain Legendre coefficient matrices in that square's own [-1, 1]^2
    coordinates. The gradient seminorm is invariant under the affine map to
    any congruent square, so the squared seminorm of the extension is simply
    the sum over pieces.
    """

    situation: str
    degree: int
    pieces: dict[tuple[int, int], np.ndarray]

    def seminorm_squared(self) -> float:
        return sum(h1_seminorm_squared(c) for c in self.pieces.values())


def _mirror_x(c: np.ndarray) -> np.ndarray:
    out = c.copy()
    out[1::2, :] *= -1.0
    return out


def _mirror_y(c: np.ndarray) -> np.ndarray:
    out = c.copy()
    out[:, 1::2] *= -1.0
    return out


def side_trace(coeffs: np.ndarray, side: str) -> np.ndarray:
    """Trace on one side of the square as 1d Legendre coefficients.

    Endpoint evaluation of a Legendre series is a signed coefficient sum, so
    this is exact.
    """
    c = np.asarray(coeffs, dtype=float)
    if side == "e1":
        return c.sum(axis=0)
    if side == "e3":
        signs = (-1.0) ** np.arange(c.shape[0])
        return signs @ c
    if side == "e2":
        return c.sum(axis=1)
    if side == "e4":
        signs = (-1.0) ** np.arange(c.shape[1])
        return c @ signs
    raise ValueError(f"unknown side {side!r}")


def _seminorm_gram(stack: np.ndarray) -> np.ndarray:
    """Gradient inner products of a stack of plain Legendre coefficient matrices."""
    s = np.asarray(stack, dtype=float)
    norms = lambda n: 2.0 / (2.0 * np.arange(n) + 1.0)  # noqa: E731
    gram = np.zeros((s.shape[0], s.shape[0]))
    for axis in (1, 2):
        if s.shape[axis] > 1:
            d = npleg.legder(s, axis=axis)
            weighted = d * np.outer(norms(d.shape[1]), norms(d.shape[2]))
            gram += weighted.reshape(len(s), -1) @ d.reshape(len(s), -1).T
    return gram


def h1_seminorm_squared(coeffs: np.ndarray) -> float:
    """Squared gradient seminorm of a plain Legendre coefficient matrix."""
    return float(_seminorm_gram(np.atleast_2d(coeffs)[None])[0, 0])


def extension_operator(
    situation: str, coeffs: np.ndarray, degree: int | None = None
) -> Extension:
    """Extend v beyond its square by the situation's reflection construction.

    ``coeffs`` is the plain Legendre coefficient matrix of v on [-1, 1]^2.
    The input must satisfy the situation's zero-trace preconditions. Each
    piece is built from the situation's layout in ``_LAYOUTS``. The result
    restricts to v on the original square, vanishes on the clamped outer
    sides of the configuration, and raises the coordinate degree by at most
    one (only the decay situations raise it at all).
    """
    if situation not in SITUATIONS:
        raise ValueError(f"situation must be one of {SITUATIONS}, got {situation!r}")
    c = np.atleast_2d(np.asarray(coeffs, dtype=float))
    if degree is not None:
        if c.shape[0] > degree + 1 or c.shape[1] > degree + 1:
            raise ValueError(
                f"coefficients of shape {c.shape} exceed degree {degree}"
            )
        padded = np.zeros((degree + 1, degree + 1))
        padded[: c.shape[0], : c.shape[1]] = c
        c = padded
    scale = max(1.0, float(np.max(np.abs(c))) if c.size else 1.0)
    for side in PRE_ZERO_SIDES[situation]:
        if np.max(np.abs(side_trace(c, side)), initial=0.0) > 1e-12 * scale:
            raise ValueError(
                f"situation {situation} needs zero trace on side {side}"
            )
    pieces = {}
    for offset, decayed in _LAYOUTS[situation].items():
        # a piece to the right is mirrored in x, a piece below in y
        piece = c
        if offset[0]:
            piece = _mirror_x(piece)
        if offset[1]:
            piece = _mirror_y(piece)
        for side in decayed:
            piece = patches._decay(piece, *_DECAY_WEIGHTS[side])
        pieces[offset] = piece
    return Extension(situation=situation, degree=max(c.shape) - 1,
                     pieces=pieces)


#: outer sides of the extended configuration that must come out clamped;
#: keys are (offset, side-of-that-piece)
_POST_ZERO: dict[str, tuple[tuple[tuple[int, int], str], ...]] = {
    "a": (((0, 0), "e1"), ((0, 0), "e2"), ((0, 0), "e3"),
          ((0, -1), "e1"), ((0, -1), "e3"), ((0, -1), "e4")),
    "b": (((0, 0), "e2"), ((0, 0), "e3"), ((0, 0), "e4"),
          ((1, 0), "e1"), ((1, 0), "e2"), ((1, 0), "e4")),
    "c": (((0, 0), "e2"), ((0, 0), "e3"), ((1, 0), "e1"), ((1, 0), "e2"),
          ((0, -1), "e3"), ((0, -1), "e4"), ((1, -1), "e1"), ((1, -1), "e4")),
    "d": (((0, 0), "e2"), ((1, 0), "e2"), ((1, 0), "e1"),
          ((0, -1), "e4"), ((1, -1), "e4"), ((1, -1), "e1")),
    "e": (((0, 0), "e3"), ((0, -1), "e3"), ((0, -1), "e4"),
          ((1, 0), "e1"), ((1, -1), "e1"), ((1, -1), "e4")),
}

#: interfaces inside each configuration: (offset_a, side_a, offset_b, side_b)
_SEAMS: dict[str, tuple[tuple, ...]] = {
    "a": (((0, 0), "e4", (0, -1), "e2"),),
    "b": (((0, 0), "e1", (1, 0), "e3"),),
    "c": (
        ((0, 0), "e1", (1, 0), "e3"),
        ((0, 0), "e4", (0, -1), "e2"),
        ((1, 0), "e4", (1, -1), "e2"),
        ((0, -1), "e1", (1, -1), "e3"),
    ),
    "d": (
        ((0, 0), "e1", (1, 0), "e3"),
        ((0, 0), "e4", (0, -1), "e2"),
        ((1, 0), "e4", (1, -1), "e2"),
        ((0, -1), "e1", (1, -1), "e3"),
    ),
    "e": (
        ((0, 0), "e1", (1, 0), "e3"),
        ((0, 0), "e4", (0, -1), "e2"),
        ((1, 0), "e4", (1, -1), "e2"),
        ((0, -1), "e1", (1, -1), "e3"),
    ),
}


def extension_interface_checks(ext: Extension) -> tuple[float, float]:
    """Max seam mismatch and max clamped-side trace of an extension.

    Both are coefficient-space sup norms; conforming extensions keep them at
    rounding level.
    """
    seam_err = 0.0
    for off_a, side_a, off_b, side_b in _SEAMS[ext.situation]:
        ta = side_trace(ext.pieces[off_a], side_a)
        tb = side_trace(ext.pieces[off_b], side_b)
        width = max(ta.size, tb.size)
        pa = np.zeros(width)
        pa[: ta.size] = ta
        pb = np.zeros(width)
        pb[: tb.size] = tb
        seam_err = max(seam_err, float(np.max(np.abs(pa - pb), initial=0.0)))
    clamp_err = 0.0
    for offset, side in _POST_ZERO[ext.situation]:
        tr = side_trace(ext.pieces[offset], side)
        clamp_err = max(clamp_err, float(np.max(np.abs(tr), initial=0.0)))
    return seam_err, clamp_err


def random_admissible(
    situation: str, degree: int, rng: np.random.Generator
) -> np.ndarray:
    """Random coefficient matrix satisfying the situation's preconditions."""
    zero = PRE_ZERO_SIDES[situation]
    bx = _endpoint_nullspace(degree, "e3" in zero, "e1" in zero)
    by = _endpoint_nullspace(degree, "e4" in zero, "e2" in zero)
    for _ in range(100):
        g = rng.standard_normal((bx.shape[1], by.shape[1]))
        c = bx @ g @ by.T
        if h1_seminorm_squared(c) > 1e-12:
            return c
    raise RuntimeError("failed to draw a nonzero admissible polynomial")


def measured_extension_ratio(
    situation: str, degree: int, samples: int, seed: int = 0
) -> float:
    """Largest observed seminorm ratio |Ev| / |v| over random admissible v."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        c = random_admissible(situation, degree, rng)
        ext = extension_operator(situation, c)
        ratio = np.sqrt(ext.seminorm_squared() / h1_seminorm_squared(c))
        worst = max(worst, float(ratio))
    return worst


def decay_by_columns(c: np.ndarray, axis: int, weight: np.ndarray) -> np.ndarray:
    """Multiply by a linear weight along one axis (degree grows by one)."""
    moved = c if axis == 0 else c.T
    out = np.zeros((moved.shape[0] + 1, moved.shape[1]))
    for j in range(moved.shape[1]):
        prod = npleg.legmul(weight, moved[:, j])
        out[: prod.size, j] = prod
    return out if axis == 0 else out.T


def extension_norm_2d(situation: str, degree: int) -> float:
    """Exact norm of the situation's extension in the H1 seminorm.

    The admissible polynomials of coordinate degree ``degree`` (zero trace on
    the situation's clamped sides) are spanned by tensor products of 1D
    endpoint-nullspace bases. The norm is the square root of the largest
    generalized eigenvalue of the extended against the original seminorm
    Gram on that span.
    """
    if situation not in SITUATIONS:
        raise ValueError(f"situation must be one of {SITUATIONS}, got {situation!r}")
    if degree < 2:
        raise ValueError(f"degree must be at least 2, got {degree}")
    zero = PRE_ZERO_SIDES[situation]
    bx = _endpoint_nullspace(degree, "e3" in zero, "e1" in zero)
    by = _endpoint_nullspace(degree, "e4" in zero, "e2" in zero)
    basis = np.einsum("ai,bj->ijab", bx, by).reshape(-1, degree + 1, degree + 1)
    extensions = [extension_operator(situation, c) for c in basis]
    extended = sum(
        _seminorm_gram([ext.pieces[offset] for ext in extensions])
        for offset in _LAYOUTS[situation]
    )
    top = scipy.linalg.eigh(extended, _seminorm_gram(basis), eigvals_only=True)
    return float(np.sqrt(top[-1]))


def extension_norm_scipy(situation: str, degree: int) -> float:
    """Exact norm of a decay situation's extension in the H1 seminorm.

    The 1D-separated route of ``refsat.patches.extension_norm`` on scipy's
    endpoint null spaces and generalized eigensolves: the squared norm is
    n_plain + max over theta of lambda_max(B + theta C, S + theta M), for
    theta in the eigenvalues of S_c z = theta M_c z.
    """
    layout = _LAYOUTS[situation]
    decayed = [(offset, side) for offset, sides in layout.items() for side in sides]
    if not decayed:
        raise ValueError(f"situation {situation} has no decay")
    zero = PRE_ZERO_SIDES[situation]
    k = np.arange(degree + 1)
    ends = [[np.ones(degree + 1)] * plus + [(-1.0) ** k] * minus
            for minus, plus in (("e3" in zero, "e1" in zero),
                                ("e4" in zero, "e2" in zero))]
    bases = [scipy.linalg.null_space(np.array(end)) if end
             else np.eye(degree + 1) for end in ends]
    axis = _DECAY_WEIGHTS[decayed[0][1]][0]
    along, cross = bases[axis], bases[1 - axis]
    pieces = [
        patches._decay(_mirror_x(along) if offset[axis] else along, 0,
                       _DECAY_WEIGHTS[side][1])
        for offset, side in decayed
    ]
    b = sum(_stiffness_1d(piece) for piece in pieces)
    c = sum(_mass_1d(piece) for piece in pieces)
    stiff, mass = _stiffness_1d(along), _mass_1d(along)
    thetas = scipy.linalg.eigh(_stiffness_1d(cross), _mass_1d(cross),
                               eigvals_only=True)
    top = max(scipy.linalg.eigh(b + theta * c, stiff + theta * mass,
                                eigvals_only=True)[-1] for theta in thetas)
    return float(np.sqrt(len(layout) - len(decayed) + top))


def extension_norm_all_modes(situation: str, degree: int) -> float:
    """A decay situation's norm with lambda_max(B + theta C, S + theta M)
    taken at every cross mode theta, on the Grams of
    ``refsat.patches._decay_pencil``."""
    n_plain, b, c, stiff, mass, thetas = patches._decay_pencil(situation, degree)
    top = max(patches._pencil_eigenvalues(b + theta * c, stiff + theta * mass)[-1]
              for theta in thetas)
    return float(np.sqrt(n_plain + top))


def layout_valid_by_calls(name, owner, dirichlet_sides, patch, later, current):
    """``refsat.patches._layout_valid`` with every side, neighbour and
    mirrored source found by a call to ``cell_sides``, ``edge_neighbors``
    and ``_source``."""
    squares = {}
    for offset, decayed in _LAYOUTS[name].items():
        square = (owner[0] + offset[0], owner[1] + offset[1])
        if square in patch.cells:
            squares[square] = offset, decayed
    if owner not in squares:
        return False
    interior = patch.interior_edges
    for square, (offset, decayed) in squares.items():
        for side, edge in cell_sides(square).items():
            if edge == current:
                continue
            zero = side in decayed or _source(offset, side) in dirichlet_sides
            a, b = edge_neighbors(edge)
            other = b if a == square else a
            if other in squares:
                if (edge in later or edge in patch.ext_dirichlet) and not zero:
                    return False
                continue
            if edge in interior or edge in patch.ext_dirichlet:
                if not zero:
                    return False
    return True
