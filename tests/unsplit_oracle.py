"""Unsplit dual Grams and their full-Gram eigensolve: the test oracle.

``refsat.coefficients`` contracts each dual Gram block by block, from 1D
factors split into parity classes, and solves the blocks one at a time.
This is the route it replaced: each 1D factor solved as one pencil, the
whole dual Gram contracted at once and symmetrized, and one eigensolve of
the whole pencil.

The matrix forms of the block route live here too, for the tests to
compare against other routes: ``dual_gram`` scatters its blocks into the
whole dual Gram, ``block_orders`` lists their orders, ``checked_pencil``
solves one block's pair after the definiteness check by a full
eigensolve that production replaced with an estimate, above the dense
order by ``standard_form``, the Lanczos run on L^{-1} r_top L^{-T} that
production replaced with one on R_q^{-1} R_r, and
``max_generalized_eigenvalue`` runs it on a whole matrix pair.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from basis_oracle import build_basis_1d
from pencil_oracle import _factor
import refsat.coefficients
from refsat.coefficients import (
    _DENSE_ORDER,
    _ILL_POSED,
    NumericalError,
    ProblemSpec,
    _cholesky,
    _embed,
    _factor_args,
    _max_over_blocks,
    _pair,
    _sides,
    _solve_pencil,
    _spec_blocks,
    _top_eigenpairs,
    _volume_gram,
)


def block_orders(spec: ProblemSpec) -> tuple[int, ...]:
    """Orders of the diagonal blocks of the spec's dual Grams, in load order;
    E5's mirror block is listed, though only its twin is solved."""
    return tuple(block.order for block in _spec_blocks(spec))


def dual_gram(spec: ProblemSpec, degree: int) -> np.ndarray:
    """Dual Gram matrix R = L A^{-1} L^T of the spec's loads at ``degree``.

    The space is the spec's Dirichlet tensor space (family A and B) or
    quotient space (family C) of coordinate degree at most ``degree``, which
    must be at least the load degree p. Its 1D factors (and edge weights)
    are computed afresh, and the blocks contracted as in
    ``saturation_coefficient`` are scattered into the full matrix in the
    family's load order.
    """
    if spec.p > degree:
        raise ValueError(
            f"load degree p = {spec.p} exceeds the space degree {degree}")
    xs, ys = _sides(spec, degree, {})
    blocks = _spec_blocks(spec)
    size = sum(block.order for block in blocks)
    gram = np.zeros((size, size))
    for block in blocks:
        part = _volume_gram(*_pair(block, xs, ys))
        gram += _embed(block, _embed(block, part.T, size).T, size)
    return gram


def standard_form(r_top, factor: np.ndarray):
    """Top of the pencil r_top F = lambda L L^T F of one block, r_top an
    operator that maps an n-vector to its image and ``factor`` the
    ``_cholesky`` factor L of the coarse block, with the contract of
    ``_solve_pencil``: Lanczos (``_top_eigenpairs``) computes the top of the
    standard form L^{-1} r_top L^{-T}, each step one product and two
    triangular solves, and the maximizer is F = L^{-T} y."""
    dtrmv, dtrsv = scipy.linalg.blas.dtrmv, scipy.linalg.blas.dtrsv

    def solve(y: np.ndarray, trans: int) -> np.ndarray:
        """factor^{-1} y, or factor^{-T} y with ``trans`` 1."""
        return dtrsv(factor, y, lower=1, trans=trans)

    values, vectors = _top_eigenpairs(
        lambda y: solve(r_top(solve(y, 1)), 0), factor.shape[0], 2)
    maximizer = solve(vectors[:, -1], 1)
    bottom = dtrmv(factor, dtrmv(factor, maximizer, lower=1, trans=1), lower=1)
    defect = r_top(maximizer) - values[-1] * bottom
    return values, maximizer, float(np.linalg.norm(defect))


def checked_pencil(r_top, r_bottom: np.ndarray, trace: float, floor: float = 0.0):
    """``_solve_pencil`` on one block's pair, or ``standard_form`` where
    r_top is an operator, with the definiteness check that production
    makes by an estimate (``_solve_block``) made by a values-only
    eigensolve of the formed block.

    Unless ``floor``, a lower bound on the smallest eigenvalue of the
    coarse block ``r_bottom``, is at least ``_PD_FLOOR`` times ``trace``,
    that eigenvalue is read by a values-only LAPACK ``dsyevd`` and checked
    against the same bound, with production's message. As in production, a
    failed ``_cholesky`` factor is reported before the check. ``r_bottom``
    is left as it was: the factor overwrites a copy.
    """
    least, margin = refsat.coefficients._PD_FLOOR, np.inf
    if floor < least * trace:
        # r_bottom is symmetric: its transpose is the Fortran-ordered matrix
        values, _, info = scipy.linalg.lapack.dsyevd(r_bottom.T, compute_v=0,
                                                     lower=1)
        assert info == 0, info
        margin = values[0] / max(trace, np.finfo(float).tiny)
    factor = _cholesky(r_bottom.copy())
    if margin < least:
        raise NumericalError(_ILL_POSED + f"estimated lambda_min/trace "
                             f"{margin:.3e} is under the floor {least:.0e}")
    if isinstance(r_top, np.ndarray):
        return _solve_pencil(r_top, factor)
    return standard_form(r_top, factor)


def max_generalized_eigenvalue(
    r_top: np.ndarray, r_bottom: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Largest lambda with r_top F = lambda r_bottom F, plus maximizer and tie flag.

    With the Cholesky factor r_bottom = L L^T the pencil becomes the
    standard problem for L^{-1} r_top L^{-T}, whose top two eigenpairs give
    the value, the tie flag and, through F = L^{-T} y, the maximizer. The
    pair is solved densely up to order ``_DENSE_ORDER``, as in
    ``saturation_coefficient``; above it ``standard_form`` runs Lanczos on
    the product with r_top, which computes only the top of the spectrum.
    r_bottom must be safely positive definite: its smallest eigenvalue,
    computed by ``checked_pencil``, is checked against 1e-12 times its
    trace, and the problem is rejected as ill posed otherwise, rather than
    silently regularized. A matrix pair has no 1D factors to bound that eigenvalue
    from below, so the check always runs.
    """
    r_top = np.asarray(r_top, dtype=float)
    r_bottom = np.asarray_chkfinite(r_bottom, dtype=float)
    if r_top.shape != r_bottom.shape or r_top.shape[0] != r_top.shape[1]:
        raise ValueError(
            f"expected square matrices of equal shape, got {r_top.shape} "
            f"and {r_bottom.shape}"
        )
    top = r_top if r_top.shape[0] <= _DENSE_ORDER else r_top.__matmul__
    solution = checked_pencil(top, r_bottom, float(np.trace(r_bottom)))
    value, tie, _, maximizer, _ = _max_over_blocks(
        [solution], [1], float(np.linalg.norm(r_top)))
    return value, maximizer, tie


def contract(spec: ProblemSpec, fx, fy) -> np.ndarray:
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


def unsplit_grams(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The fine (degree r) and intermediate (degree q) dual Grams, unsplit."""
    kind = "mean_zero" if spec.family == "C" else "integrated_legendre"
    grams = []
    for degree in (spec.r, spec.q):
        fx, fy = (_factor(build_basis_1d(kind, bc, degree))
                  for bc, _ in _factor_args(spec, degree))
        grams.append(contract(spec, fx, fy))
    return grams[0], grams[1]


def saturation(spec: ProblemSpec):
    """(mu^2, maximizer, tie, residual, r_fine, r_mid) by the unsplit route."""
    r_fine, r_mid = unsplit_grams(spec)
    value, maximizer, tie = max_generalized_eigenvalue(r_fine, r_mid)
    defect = r_fine @ maximizer - value * (r_mid @ maximizer)
    scale = np.linalg.norm(r_fine, "fro") * np.linalg.norm(maximizer)
    residual = float(np.linalg.norm(defect) / max(scale, np.finfo(float).tiny))
    return value, maximizer, tie, residual, r_fine, r_mid
