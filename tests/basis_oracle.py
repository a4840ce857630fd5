"""Row-by-row construction of the 1D bases, kept as the test oracle.

``refsat.bases.build_basis_1d`` fills each coefficient array with a few
indexed assignments. This module builds the same arrays one row at a time
from the defining closed forms, as the package did before; the tests require
the two to agree bitwise.
"""

import numpy as np

from refsat.bases import BoundaryCondition1D


def _interior_coeff(k: int, ncols: int) -> np.ndarray:
    # xi_k = (L_{k-2} - L_k) / sqrt(4k - 2), the closed form of the integral
    c = np.zeros(ncols)
    c[k - 2] += 1.0
    c[k] -= 1.0
    return c / np.sqrt(4.0 * k - 2.0)


def _supplement_coeffs(ncols: int) -> tuple[np.ndarray, np.ndarray]:
    left = np.zeros(ncols)
    left[0] = np.sqrt(2.0) / 2.0
    left[1] = -np.sqrt(2.0) / 2.0
    right = np.zeros(ncols)
    right[0] = np.sqrt(2.0) / 2.0
    right[1] = np.sqrt(2.0) / 2.0
    return left, right


def basis_rows(kind: str, bc: BoundaryCondition1D, r: int) -> np.ndarray:
    """Coefficient array of ``build_basis_1d(kind, bc, r)``, row by row."""
    ncols = r + 1
    if kind == "legendre":
        coeff = np.zeros((r + 1, ncols))
        for k in range(r + 1):
            coeff[k, k] = np.sqrt(k + 0.5)
        return coeff
    if kind == "integrated_legendre":
        rows = []
        if r >= 1:
            left, right = _supplement_coeffs(ncols)
            if not bc.dirichlet_at_minus1:
                rows.append(left)
            if not bc.dirichlet_at_plus1:
                rows.append(right)
        for k in range(2, r + 1):
            rows.append(_interior_coeff(k, ncols))
        return np.array(rows)
    rows = [np.zeros(ncols)]
    rows[0][0] = 1.0 / np.sqrt(2.0)
    if r >= 1:
        left, _ = _supplement_coeffs(ncols)
        shifted = left.copy()
        shifted[0] = 0.0
        rows.append(shifted)
    for k in range(2, r + 1):
        c = _interior_coeff(k, ncols)
        c[0] = 0.0
        rows.append(c)
    return np.array(rows)
