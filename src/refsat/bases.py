"""One-dimensional polynomial bases on [-1, 1].

Every basis function is stored as a row of Legendre coefficients, so a basis
with n functions of degree at most r is an (n, r + 1) array. Working in
Legendre coefficients keeps all inner products small and exact: by default
:func:`gram_matrices` integrates in coefficient space, as sums of coefficient
products weighted by the Legendre norms 2 / (2k + 1), and differentiates by
the exact coefficient recurrence; a Gauss-Legendre rule that is exact for
the degree of the products can be passed instead to integrate pointwise.

Three families are provided by :func:`build_basis_1d`:

``legendre``
    phi_k = sqrt(k + 1/2) * L_k for k = 0..r, orthonormal in L2(-1, 1).

``integrated_legendre``
    Interior functions xi_k = sqrt(k - 1/2) * int_x^1 L_{k-1}(t) dt for
    k = 2..r, which vanish at both endpoints and are orthonormal in the H1
    seminorm, optionally preceded by the linear boundary supplements
    xi_1(x) = sqrt(2)/2 * (1 - x) (vanishes at +1, kept only when the left
    endpoint is unconstrained) and xi_1~(x) = xi_1(-x) (vanishes at -1, kept
    only when the right endpoint is unconstrained).

``mean_zero``
    The constant chi_0 = 1/sqrt(2) followed by xi_k minus its mean value for
    k = 1..r (xi_1 here is the left supplement above). Every non-constant
    member integrates to zero, which makes the family suitable for building
    quotient spaces modulo constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import legendre as npleg

__all__ = [
    "QuadRule",
    "BoundaryCondition1D",
    "Basis1D",
    "gauss_legendre_rule",
    "legendre_eval_all",
    "build_basis_1d",
    "gram_matrices",
    "boundary_trace",
]

#: entries smaller than this in absolute value are snapped to exact zero in
#: assembled Gram matrices, so structural orthogonality is bitwise visible
SNAP_TOL = 1e-14

BASIS_KINDS = ("legendre", "integrated_legendre", "mean_zero")


@dataclass(frozen=True)
class QuadRule:
    """Quadrature nodes and weights on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1d arrays of equal length")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class BoundaryCondition1D:
    """Homogeneous Dirichlet flags for the two endpoints of [-1, 1]."""

    dirichlet_at_minus1: bool = False
    dirichlet_at_plus1: bool = False


@dataclass(frozen=True)
class Basis1D:
    """A finite polynomial basis, one row of Legendre coefficients per function.

    ``coefficients`` has shape (n_functions, degree + 1). The row order for
    ``integrated_legendre`` is: left supplement (if present), right supplement
    (if present), then the interior functions by increasing index. For
    ``mean_zero`` the constant comes first.
    """

    kind: str
    coefficients: np.ndarray
    bc: BoundaryCondition1D = field(default_factory=BoundaryCondition1D)

    def __post_init__(self) -> None:
        coeff = np.asarray(self.coefficients, dtype=float)
        if coeff.ndim != 2:
            raise ValueError("coefficients must be a 2d array")
        object.__setattr__(self, "coefficients", coeff)

    @property
    def n_functions(self) -> int:
        return self.coefficients.shape[0]

    @property
    def degree(self) -> int:
        return self.coefficients.shape[1] - 1


def gauss_legendre_rule(n: int) -> QuadRule:
    """Return the n-point Gauss-Legendre rule on [-1, 1].

    The rule integrates polynomials of degree up to 2n - 1 exactly and its
    weights sum to 2 (the measure of the interval).
    """
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one node, got n={n}")
    nodes, weights = npleg.leggauss(n)
    return QuadRule(nodes=nodes, weights=weights)


def legendre_eval_all(kmax: int, x: np.ndarray) -> np.ndarray:
    """Evaluate L_0, ..., L_kmax at the points x by the three-term recurrence.

    Returns an array of shape (kmax + 1, len(x)).
    """
    if kmax < 0:
        raise ValueError(f"kmax must be nonnegative, got {kmax}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(1, kmax):
        out[k + 1] = ((2 * k + 1) * x * out[k] - k * out[k - 1]) / (k + 1)
    return out


def _interior_rows(r: int) -> np.ndarray:
    """Rows of xi_k = (L_{k-2} - L_k) / sqrt(4k - 2), the closed form of the
    integral, for k = 2..r, each with r + 1 Legendre coefficients."""
    k = np.arange(2, r + 1)
    scale = 1.0 / np.sqrt(4.0 * k - 2.0)
    rows = np.zeros((k.size, r + 1))
    index = np.arange(k.size)
    rows[index, k - 2] = scale
    rows[index, k] = -scale
    return rows


def build_basis_1d(
    kind: str,
    bc: BoundaryCondition1D | None = None,
    r: int = 1,
) -> Basis1D:
    """Build a 1d basis of maximal degree r.

    For ``integrated_legendre`` the boundary condition controls membership of
    the two supplements: a supplement is included exactly when the endpoint
    where it is nonzero is unconstrained. The resulting cardinality is
    (r + 1) minus the number of Dirichlet flags. ``legendre`` and
    ``mean_zero`` ignore the boundary condition and always have r + 1
    functions.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}, expected one of {BASIS_KINDS}")
    if r < 0:
        raise ValueError(f"degree bound must be nonnegative, got r={r}")
    if bc is None:
        bc = BoundaryCondition1D()

    if kind == "legendre":
        coeff = np.diag(np.sqrt(np.arange(r + 1) + 0.5))
        return Basis1D(kind=kind, coefficients=coeff, bc=bc)

    half = np.sqrt(2.0) / 2.0
    if kind == "integrated_legendre":
        # the left supplement (1 - x) sqrt(2)/2 and the right one (1 + x) sqrt(2)/2
        supplements = []
        if r >= 1:
            if not bc.dirichlet_at_minus1:
                supplements.append((half, -half))
            if not bc.dirichlet_at_plus1:
                supplements.append((half, half))
        n_supp = len(supplements)
        coeff = np.zeros((n_supp + max(r - 1, 0), r + 1))
        if n_supp:
            coeff[:n_supp, :2] = supplements
        coeff[n_supp:] = _interior_rows(r)
        if coeff.shape[0] == 0:
            raise ValueError(
                "basis is empty: no function of degree <= "
                f"{r} satisfies the requested boundary conditions"
            )
        return Basis1D(kind=kind, coefficients=coeff, bc=bc)

    # mean_zero: constant, then mean-shifted functions. Subtracting the mean
    # value <f, 1> / 2 zeroes the L_0 coefficient; only the k = 1 and k = 2
    # members have one to remove.
    coeff = np.zeros((r + 1, r + 1))
    coeff[0, 0] = 1.0 / np.sqrt(2.0)
    if r >= 1:
        coeff[1, 1] = -half
    coeff[2:] = _interior_rows(r)
    coeff[2:, 0] = 0.0
    return Basis1D(kind=kind, coefficients=coeff, bc=bc)


def _required_points(degree_sum: int) -> int:
    # An n-point rule is exact through degree 2n - 1.
    return degree_sum // 2 + 1


def _padded(coeff: np.ndarray, width: int) -> np.ndarray:
    out = np.zeros((coeff.shape[0], width))
    out[:, : coeff.shape[1]] = coeff
    return out


def gram_matrices(
    row_basis: Basis1D,
    col_basis: Basis1D,
    rule: QuadRule | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Return the L2 mass matrix and the H1 stiffness matrix of two bases.

    M[i, j] = <row_i, col_j> and S[i, j] = <row_i', col_j'> on (-1, 1). By
    default the integrals are evaluated in coefficient space using the
    Legendre norm weights 2 / (2k + 1), which is exact and keeps structural
    zeros exactly zero, so the sparsity of the bases is preserved bitwise.
    An explicit quadrature rule switches to pointwise integration; a rule
    that cannot integrate the products exactly is rejected.
    """
    dr, dc = row_basis.degree, col_basis.degree
    if rule is not None:
        if rule.n < _required_points(dr + dc):
            raise ValueError(
                f"rule with {rule.n} points cannot integrate degree {dr + dc} "
                f"products exactly; need at least {_required_points(dr + dc)}"
            )
        x, w = rule.nodes, rule.weights
        rv = npleg.legval(x, row_basis.coefficients.T)
        cv = npleg.legval(x, col_basis.coefficients.T)
        mass = (rv * w) @ cv.T
        rd = npleg.legval(x, npleg.legder(row_basis.coefficients.T, axis=0))
        cd = npleg.legval(x, npleg.legder(col_basis.coefficients.T, axis=0))
        stiff = (rd * w) @ cd.T
    else:
        width = max(dr, dc) + 1
        norms = 2.0 / (2.0 * np.arange(width) + 1.0)
        rc = _padded(row_basis.coefficients, width)
        cc = _padded(col_basis.coefficients, width)
        mass = rc @ (cc * norms).T
        if width >= 2:
            rd = npleg.legder(rc.T, axis=0)
            # legder loops over the degree in Python: differentiate a basis
            # paired with itself once
            cd = rd if col_basis is row_basis else npleg.legder(cc.T, axis=0)
            stiff = rd.T @ (cd * norms[: width - 1, np.newaxis])
        else:
            stiff = np.zeros_like(mass)
    mass[np.abs(mass) < SNAP_TOL] = 0.0
    stiff[np.abs(stiff) < SNAP_TOL] = 0.0
    return mass, stiff


def boundary_trace(basis: Basis1D, endpoint: float) -> np.ndarray:
    """Values of all basis functions at an endpoint (+1.0 or -1.0).

    Endpoint values of Legendre series are alternating coefficient sums, so
    they are computed exactly up to rounding.
    """
    if endpoint not in (1.0, -1.0):
        raise ValueError(f"endpoint must be +1.0 or -1.0, got {endpoint}")
    k = np.arange(basis.degree + 1)
    signs = np.ones_like(k, dtype=float) if endpoint == 1.0 else (-1.0) ** k
    return basis.coefficients @ signs
