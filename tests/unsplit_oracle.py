"""Unsplit dual Grams and their full-Gram eigensolve: the test oracle.

``refsat.coefficients`` contracts each dual Gram block by block, from 1D
factors split into parity classes, and solves the blocks one at a time.
This is the route it replaced: each 1D factor solved as one pencil, the
whole dual Gram contracted at once and symmetrized, and one eigensolve of
the whole pencil.
"""

from __future__ import annotations

import numpy as np

from pencil_oracle import _factor
from refsat.bases import build_basis_1d
from refsat.coefficients import (
    ProblemSpec,
    _factor_args,
    max_generalized_eigenvalue,
)


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
    grams = []
    for degree in (spec.r, spec.q):
        fx, fy = (_factor(build_basis_1d(*args))
                  for args in _factor_args(spec, degree))
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
