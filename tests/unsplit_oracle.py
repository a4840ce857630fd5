"""Unsplit dual Grams and their full-Gram eigensolve: the test oracle.

``refsat.coefficients`` contracts each dual Gram block by block, from 1D
factors split into parity classes, and solves the blocks one at a time.
This is the route it replaced: each 1D factor solved as one pencil, the
whole dual Gram contracted at once and symmetrized, and one eigensolve of
the whole pencil.

The matrix forms of the block route live here too, for the tests to
compare against other routes: ``dual_gram`` scatters its blocks into the
whole dual Gram, ``block_orders`` lists their orders, and
``max_generalized_eigenvalue`` runs its top-of-pencil eigensolve on a
matrix pair.
"""

from __future__ import annotations

import numpy as np

from basis_oracle import build_basis_1d
from pencil_oracle import _factor
from refsat.coefficients import (
    ProblemSpec,
    _embed,
    _factor_args,
    _grams,
    _max_over_blocks,
    _pair,
    _sides,
    _spec_blocks,
)


def block_orders(spec: ProblemSpec) -> tuple[int, ...]:
    """Orders of the diagonal blocks of the spec's dual Grams, in load order;
    E5's mirror block is listed, though only its twin is solved."""
    return tuple(block.index.size for block in _spec_blocks(spec))


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
    size = sum(block.index.size for block in blocks)
    gram = np.zeros((size, size))
    parts = _grams(blocks, [_pair(block, xs, ys) for block in blocks])
    for block, part in zip(blocks, parts):
        gram += _embed(block, _embed(block, part.T, size).T, size)
    return gram


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
    regularized. A matrix pair has no 1D factors to bound that eigenvalue
    from below, so the estimate always runs.
    """
    r_top = np.asarray(r_top, dtype=float)
    r_bottom = np.asarray_chkfinite(r_bottom, dtype=float)
    if r_top.shape != r_bottom.shape or r_top.shape[0] != r_top.shape[1]:
        raise ValueError(
            f"expected square matrices of equal shape, got {r_top.shape} "
            f"and {r_bottom.shape}"
        )
    value, tie, _, maximizer, _ = _max_over_blocks(
        [(r_top, r_bottom, 1, 0.0)], float(np.trace(r_bottom)),
        float(np.linalg.norm(r_top)))
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
