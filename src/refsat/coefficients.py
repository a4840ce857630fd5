"""Saturation coefficients of nested discrete spaces on the reference square.

A problem is a triple of degrees p <= q <= r together with a load family and
a Dirichlet edge set. The coefficient measures how much dual norm is lost
when the fine space of degree r is replaced by the intermediate space of
degree q:

    mu = max over functionals F of  ||F||_(fine dual) / ||F||_(coarse dual),

computed as the square root of the largest generalized eigenvalue of the
pair of dual Gram matrices R = L A^{-1} L^T (L the load matrix, A the
stiffness matrix). mu >= 1 always, mu = 1 exactly when q = r, and small
mu - 1 certifies that the intermediate space already captures the loads.

Families:

``A``  volume loads, Legendre pairs up to degree p, on a space with at
       least one Dirichlet edge;
``B``  edge loads on the right edge, Legendre up to degree p, the right
       edge always free;
``C``  mean-free edge loads on the quotient space modulo constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from refsat.assembly import (
    EDGE_CLASSES,
    QuotientSpace,
    TensorSpace,
    factor_conditions,
    normalize_edges,
)
from refsat.bases import (
    Basis1D,
    BoundaryCondition1D,
    boundary_trace,
    build_basis_1d,
    gram_matrices,
)

__all__ = [
    "FAMILIES",
    "Q_STRATEGIES",
    "CANONICAL_PROBLEMS",
    "NumericalError",
    "ProblemSpec",
    "SaturationResult",
    "q_strategy",
    "dual_gram",
    "max_generalized_eigenvalue",
    "saturation_coefficient",
]

FAMILIES = ("A", "B", "C")

#: admissible rules for choosing the intermediate degree from p
Q_STRATEGIES = ("p+4", "p+ceil(p/7)", "2p")

#: the ten canonical problems: five Dirichlet classes with volume loads,
#: four with edge loads, and the quotient problem
CANONICAL_PROBLEMS: dict[str, tuple[str, frozenset[int] | None]] = {
    "E1": ("A", EDGE_CLASSES["E1"]),
    "E2": ("A", EDGE_CLASSES["E2"]),
    "E3": ("A", EDGE_CLASSES["E3"]),
    "E4": ("A", EDGE_CLASSES["E4"]),
    "E5": ("A", EDGE_CLASSES["E5"]),
    "F1": ("B", EDGE_CLASSES["F1"]),
    "F2": ("B", EDGE_CLASSES["F2"]),
    "F3": ("B", EDGE_CLASSES["F3"]),
    "F4": ("B", EDGE_CLASSES["F4"]),
    "C": ("C", None),
}

_B_CLASSES = tuple(EDGE_CLASSES[name] for name in ("F1", "F2", "F3", "F4"))


class NumericalError(RuntimeError):
    """A linear algebra step failed or produced an ill-posed subproblem."""


@dataclass(frozen=True)
class ProblemSpec:
    """One saturation problem: family, Dirichlet edges and degrees p <= q <= r."""

    family: str
    edges: frozenset[int] | None
    p: int
    q: int
    r: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        min_p = 1 if self.family == "C" else 0
        if self.p < min_p:
            raise ValueError(f"family {self.family} needs p >= {min_p}, got {self.p}")
        if not self.p <= self.q <= self.r:
            raise ValueError(
                f"degrees must satisfy p <= q <= r, got ({self.p}, {self.q}, {self.r})"
            )
        if self.family == "C":
            if self.edges:
                raise ValueError("the quotient family takes no Dirichlet edges")
            object.__setattr__(self, "edges", None)
            return
        if self.edges is None:
            raise ValueError(f"family {self.family} needs a Dirichlet edge set")
        edges = normalize_edges(self.edges)
        object.__setattr__(self, "edges", edges)
        if self.family == "A" and not edges:
            raise ValueError("volume-load problems need at least one Dirichlet edge")
        if self.family == "B" and edges not in _B_CLASSES:
            raise ValueError(
                "edge-load problems use one of the four canonical Dirichlet "
                "classes {2}, {3}, {2,3}, {2,3,4} relative to the loaded right edge"
            )


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of one saturation computation."""

    spec: ProblemSpec
    mu: float
    mu_squared: float
    maximizer: np.ndarray
    dim_H: int
    dim_V: int
    dim_F: int
    residual: float
    tie: bool
    wall_seconds: float


def q_strategy(name: str, p: int) -> int:
    """Intermediate degree q chosen from p by one of the published rules."""
    if p < 1:
        raise ValueError(f"strategies need p >= 1, got {p}")
    if name == "p+4":
        return p + 4
    if name == "p+ceil(p/7)":
        return p + -(-p // 7)
    if name == "2p":
        return 2 * p
    raise ValueError(f"unknown strategy {name!r}, expected one of {Q_STRATEGIES}")


def _modes(basis: Basis1D) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the 1D pencil S v = lambda M v, normalized so V^T M V = I.

    The constant of the mean-zero family has no gradient and is L2-orthogonal
    to every other member, so both Grams are exactly block diagonal there.
    Its mode, lambda = 0 with v = e_0 / sqrt(M_00), is set up explicitly
    instead of being read off a roundoff eigenvalue.
    """
    mass, stiff = gram_matrices(basis, basis)
    start = 1 if basis.kind == "mean_zero" else 0
    try:
        lam, vec = scipy.linalg.eigh(stiff[start:, start:], mass[start:, start:])
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"1D eigensolve failed: {exc}") from exc
    if start == 0:
        return lam, vec
    modes = np.zeros_like(mass)
    modes[0, 0] = 1.0 / np.sqrt(mass[0, 0])
    modes[1:, 1:] = vec
    return np.concatenate(([0.0], lam)), modes


class _Factor(NamedTuple):
    """One 1D factor basis in its eigenbasis, as the dual Grams use it."""

    #: eigenvalues of the pencil S v = lambda M v
    lam: np.ndarray
    #: W[k, i] = <phi_k, v_i> for the probes phi_k of degree k = 0..degree
    loads: np.ndarray
    #: t[i] = v_i(+1), the values of the modes on the right edge
    trace: np.ndarray


def _factor(basis: Basis1D) -> _Factor:
    """Modes of ``basis`` with its load Gram and right-edge trace in them.

    The probes phi_k = sqrt(k + 1/2) L_k are orthonormal Legendre
    polynomials, so <phi_k, sum_m c_m L_m> = c_k sqrt(2 / (2k + 1)): the
    load Gram is W = diag(sqrt(2 / (2k + 1))) C^T V with C the coefficient
    rows of the basis, and the Gram of the probes up to degree p is a row
    slice of it.
    """
    lam, vec = _modes(basis)
    k = np.arange(basis.degree + 1)
    norms = np.sqrt(2.0 / (2.0 * k + 1.0))
    loads = (norms[:, np.newaxis] * basis.coefficients.T) @ vec
    return _Factor(lam, loads, boundary_trace(basis, 1.0) @ vec)


def _factor_args(spec: ProblemSpec, degree: int) -> tuple[tuple, tuple]:
    """Construction arguments (kind, bc, degree) of the x and y factor bases."""
    if spec.family == "C":
        args = ("mean_zero", BoundaryCondition1D(), degree)
        return args, args
    bc_x, bc_y = factor_conditions(spec.edges)
    return (("integrated_legendre", bc_x, degree),
            ("integrated_legendre", bc_y, degree))


def _contract(spec: ProblemSpec, fx: _Factor, fy: _Factor) -> np.ndarray:
    """Dual Gram R = L A^{-1} L^T of the spec's loads from the two 1D factors.

    Fast diagonalization (Lynch, Rice & Thomas, Numer. Math. 1964): with
    the 1D modes V^T S V = diag(lambda), V^T M V = I of each factor basis,
    the stiffness Sx (x) My + Mx (x) Sy is diagonal in the basis Vx (x) Vy
    with entries lambda_i + mu_j. R therefore contracts the 1D load Grams
    W with the weights 1 / (lambda_i + mu_j), and no 2D matrix is formed.
    Rows follow the load order of the family: probe pairs with the x probe
    outermost for A, probe degrees for B and C. The result is symmetrized
    to remove roundoff skew.
    """
    denom = fx.lam[:, np.newaxis] + fy.lam
    if spec.family == "C":
        # the constant tensor member is not part of the quotient space, and
        # probe degrees k >= 1 only keep the functionals mean free
        denom[0, 0] = np.inf
        probes = slice(1, spec.p + 1)
    else:
        probes = slice(0, spec.p + 1)
    weights = 1.0 / denom
    wy = fy.loads[probes]
    if spec.family == "A":
        n = spec.p + 1
        wx = fx.loads[probes]
        # xx[(a, c), i] = wx[a, i] wx[c, i] and yy[j, (b, d)] = wy[b, j] wy[d, j]
        xx = (wx[:, np.newaxis, :] * wx).reshape(n * n, -1)
        yy = (wy.T[:, :, np.newaxis] * wy.T[:, np.newaxis, :]).reshape(-1, n * n)
        r = (xx @ (weights @ yy)).reshape(n, n, n, n)
        r = r.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    else:
        # the loads see v only through its trace on the right edge
        r = (wy * (fx.trace**2 @ weights)) @ wy.T
    return (r + r.T) / 2.0


def dual_gram(spec: ProblemSpec, space: TensorSpace | QuotientSpace) -> np.ndarray:
    """Dual Gram matrix R = L A^{-1} L^T of the spec's loads on ``space``.

    The 1D factors of the space's bases are computed afresh and contracted
    as in ``saturation_coefficient``. The space's degree must be at least
    the load degree p.
    """
    if spec.family == "C":
        bases = (space.basis,)
    else:
        bases = (space.basis_x, space.basis_y)
    degree = min(basis.degree for basis in bases)
    if spec.p > degree:
        raise ValueError(
            f"load degree p = {spec.p} exceeds the space degree {degree}")
    factors = [_factor(basis) for basis in bases]
    return _contract(spec, factors[0], factors[-1])


#: orders up to which the eigensolves form their operator densely: a dense
#: eigh of the explicit matrix beats the fixed cost of a Lanczos run (at
#: least 20 operator applications) up to about this order
_DENSE_ORDER = 100

#: relative floor on the smallest eigenvalue of the denominator dual Gram
_PD_FLOOR = 1e-12


def _top_eigenpairs(
    apply, n: int, k: int, tol: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs, ascending, of the symmetric operator ``apply``.

    ``apply`` maps an n-vector or an n x m block to its image. Small orders
    apply it to the identity and use a dense eigh; larger ones run ARPACK's
    Lanczos (Lehoucq, Sorensen & Yang, 1998) to the relative accuracy
    ``tol`` (0 asks for machine precision) from a seeded start vector, so
    repeated runs return bitwise equal vectors.
    """
    if n <= _DENSE_ORDER:
        # the full spectrum: LAPACK's index-subset drivers can return no
        # eigenvalue at all for a tight cluster, as at q = r. eigh reads
        # only the lower triangle, so roundoff skew needs no symmetrizing
        try:
            values, vectors = scipy.linalg.eigh(
                apply(np.eye(n)), driver="evd", check_finite=False
            )
        except scipy.linalg.LinAlgError as exc:
            raise NumericalError(f"dense eigensolve failed: {exc}") from exc
        return values[n - k:], vectors[:, n - k:]
    # imported here: scipy.sparse.linalg costs start-up time and memory
    # that only the large orders need
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    op = LinearOperator((n, n), matvec=apply, matmat=apply, dtype=float)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        values, vectors = eigsh(op, k=k, which="LA", tol=tol, v0=start)
    except ArpackError as exc:
        raise NumericalError(f"Lanczos eigensolve failed: {exc}") from exc
    order = np.argsort(values)
    return values[order], vectors[:, order]


def max_generalized_eigenvalue(
    r_top: np.ndarray, r_bottom: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Largest lambda with r_top F = lambda r_bottom F, plus maximizer and tie flag.

    With the Cholesky factor r_bottom = L L^T the pencil becomes the
    standard problem for L^{-1} r_top L^{-T}, whose top two eigenpairs give
    the value, the tie flag and, through F = L^{-T} y, the maximizer. Only
    the top of the spectrum is computed. r_bottom must be safely positive
    definite: its smallest eigenvalue, estimated as 1 / lambda_max(r_bottom^{-1})
    with the same factor, is checked against 1e-12 times its trace, and the
    problem is rejected as ill posed otherwise, rather than silently
    regularized.
    """
    r_top = np.asarray(r_top, dtype=float)
    r_bottom = np.asarray(r_bottom, dtype=float)
    if r_top.shape != r_bottom.shape or r_top.shape[0] != r_top.shape[1]:
        raise ValueError(
            f"expected square matrices of equal shape, got {r_top.shape} "
            f"and {r_bottom.shape}"
        )
    n = r_top.shape[0]
    trace = max(float(np.trace(r_bottom)), np.finfo(float).tiny)
    ill_posed = (
        "denominator dual Gram is numerically singular; the coarse space "
        "cannot represent all functionals (ill-posed quotient): "
    )
    try:
        factor = scipy.linalg.cholesky(r_bottom, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(
            ill_posed + f"its Cholesky factorization failed ({exc}), so "
            f"lambda_min/trace is at or below roundoff, under the floor "
            f"{_PD_FLOOR:.0e}"
        ) from exc
    # a Ritz value never exceeds lambda_max, so a loose tolerance can only
    # overstate lambda_min by a relative 1e-8
    inverse_top, _ = _top_eigenpairs(
        lambda y: scipy.linalg.cho_solve((factor, True), y, check_finite=False),
        n, 1, tol=1e-8,
    )
    margin = 1.0 / (float(inverse_top[-1]) * trace)
    if margin < _PD_FLOOR:
        raise NumericalError(
            ill_posed + f"estimated lambda_min/trace {margin:.3e} is under the "
            f"floor {_PD_FLOOR:.0e}"
        )

    def standard_form(y: np.ndarray) -> np.ndarray:
        z = scipy.linalg.solve_triangular(
            factor, y, lower=True, trans="T", check_finite=False
        )
        return scipy.linalg.solve_triangular(
            factor, r_top @ z, lower=True, check_finite=False
        )

    values, vectors = _top_eigenpairs(standard_form, n, min(2, n))
    top = float(values[-1])
    tie = values.size >= 2 and (top - float(values[-2])) <= 1e-12 * max(1.0, abs(top))
    maximizer = scipy.linalg.solve_triangular(
        factor, vectors[:, -1], lower=True, trans="T"
    )
    return top, maximizer, tie


def saturation_coefficient(
    spec: ProblemSpec, factors: dict | None = None
) -> SaturationResult:
    """Compute the saturation coefficient for one problem spec.

    Forms the dual Grams of the fine (degree r) and intermediate (degree q)
    spaces and extracts the largest generalized eigenvalue. The returned
    residual is the relative defect of the eigenpair and should be tiny.

    The 1D factors of both spaces are looked up in ``factors``, a table
    keyed by their construction arguments (kind, bc, degree) and filled on
    a miss. A caller that passes one table to many calls, as a sweep does,
    builds each factor once; without a table the call starts from an empty
    one of its own.
    """
    start = time.perf_counter()
    if factors is None:
        factors = {}
    grams, dims = [], []
    for degree in (spec.r, spec.q):
        pair = []
        for args in _factor_args(spec, degree):
            if args not in factors:
                factors[args] = _factor(build_basis_1d(*args))
            pair.append(factors[args])
        grams.append(_contract(spec, *pair))
        # the quotient space leaves out the constant tensor member
        dims.append(pair[0].lam.size * pair[1].lam.size - (spec.family == "C"))
    r_fine, r_mid = grams
    value, maximizer, tie = max_generalized_eigenvalue(r_fine, r_mid)
    defect = r_fine @ maximizer - value * (r_mid @ maximizer)
    scale = np.linalg.norm(r_fine, "fro") * np.linalg.norm(maximizer)
    residual = float(np.linalg.norm(defect) / max(scale, np.finfo(float).tiny))
    mu = float(np.sqrt(value))
    return SaturationResult(
        spec=spec,
        mu=mu,
        mu_squared=float(value),
        maximizer=maximizer,
        dim_H=dims[0],
        dim_V=dims[1],
        dim_F=r_fine.shape[0],
        residual=residual,
        tie=tie,
        wall_seconds=time.perf_counter() - start,
    )
