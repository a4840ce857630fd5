"""Full-spectrum generalized eigensolve: the test oracle.

The production eigensolve (``refsat.coefficients._solve_block``, one
diagonal block at a time; on a matrix pair,
``unsplit_oracle.max_generalized_eigenvalue``) solves on the denominator's
Cholesky factor (``_cholesky``), written in its place. Up to order
``_DENSE_ORDER`` it reduces the formed pair on that factor (LAPACK
``dsygst``) and solves the full standard-form spectrum (``dsyevd``,
``_solve_pencil``); above it, the fine side is an operator and Lanczos
computes only the top of the spectrum: production's on R_q^{-1} R_r
through the factor (``_solve_lanczos``), the matrix pair route's on the
standard form (``unsplit_oracle.standard_form``). Production checks
positive definiteness through a lower bound from the 1D factors, or else
estimates the smallest eigenvalue from above by one Lanczos run on the
block's inverse; the matrix pair route reads it off a values-only
``dsyevd`` instead (``unsplit_oracle.checked_pencil``). This is the
independent route they
replaced: a full ``eigvalsh`` of the denominator for the
positive-definiteness check and a full generalized ``eigh`` with every
eigenvector, on the whole pencil rather than one block at a time.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from refsat.coefficients import NumericalError


def max_generalized_eigenvalue(
    r_top: np.ndarray, r_bottom: np.ndarray
) -> tuple[float, np.ndarray, bool]:
    """Largest lambda with r_top F = lambda r_bottom F, plus maximizer and tie flag.

    r_bottom must be safely positive definite: its smallest eigenvalue is
    checked against 1e-12 times its trace and the problem is rejected as
    ill posed otherwise, rather than silently regularized.
    """
    r_top = np.asarray(r_top, dtype=float)
    r_bottom = np.asarray(r_bottom, dtype=float)
    if r_top.shape != r_bottom.shape or r_top.shape[0] != r_top.shape[1]:
        raise ValueError(
            f"expected square matrices of equal shape, got {r_top.shape} "
            f"and {r_bottom.shape}"
        )
    floor = 1e-12 * max(np.trace(r_bottom), np.finfo(float).tiny)
    if np.min(scipy.linalg.eigvalsh(r_bottom)) < floor:
        raise NumericalError(
            "denominator dual Gram is numerically singular; the coarse space "
            "cannot represent all functionals (ill-posed quotient)"
        )
    try:
        values, vectors = scipy.linalg.eigh(r_top, r_bottom)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigensolve failed: {exc}") from exc
    top = float(values[-1])
    tie = values.size >= 2 and (top - float(values[-2])) <= 1e-12 * max(1.0, abs(top))
    return top, vectors[:, -1].copy(), tie
