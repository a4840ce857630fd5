"""1D factors by dense generalized eigensolves: the test oracle.

``refsat.coefficients`` solves each 1D factor as symmetric tridiagonal
eigenproblems built from closed-form mass entries. This is the route it
replaced: the mass and stiffness Grams of the factor basis formed by
``gram_matrices`` and the pencil S v = lambda M v solved densely, once per
parity class of a symmetric basis.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from refsat.bases import Basis1D, boundary_trace, gram_matrices
from refsat.coefficients import NumericalError, _Factor, _symmetric


def _modes(basis: Basis1D) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the 1D pencil S v = lambda M v, normalized so V^T M V = I.

    The constant of the mean-zero family has no gradient and is L2-orthogonal
    to every other member, so both Grams are exactly block diagonal there.
    Its mode, lambda = 0 with v = e_0 / sqrt(M_00), is set up explicitly
    instead of being read off a roundoff eigenvalue. The odd parity class of
    that family has no constant and is solved as it stands.
    """
    mass, stiff = gram_matrices(basis, basis)
    constant = (basis.kind == "mean_zero" and basis.n_functions > 0
                and not basis.coefficients[0, 1:].any())
    start = 1 if constant else 0
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
    return _Factor(lam, loads, boundary_trace(basis, 1.0) @ vec, k)


def _classes(basis: Basis1D) -> tuple[_Factor, ...]:
    """The factor of ``basis``, one ``_Factor`` per parity class.

    The modes of a symmetric basis are even or odd, and the probe L_k of
    parity k loads only the modes of its own parity. Each class is solved
    from the basis rows of its parity and keeps only its own probe rows, so
    the loads across parities are exactly zero rather than roundoff. In the
    free-free case the supplements (1 -/+ x) sqrt(2)/2 are replaced by their
    sum sqrt(2) L_0 and difference sqrt(2) L_1, which span the same space.
    Any other basis is a single class.
    """
    if not _symmetric(basis.kind, basis.bc):
        return (_factor(basis),)
    coeff = basis.coefficients
    if basis.kind == "integrated_legendre" and not basis.bc.dirichlet_at_minus1:
        coeff = coeff.copy()
        coeff[:2] = coeff[0] + coeff[1], coeff[1] - coeff[0]
    odd = coeff[:, 1::2].any(axis=1)
    if (odd & coeff[:, 0::2].any(axis=1)).any():
        raise ValueError("a symmetric factor basis has rows of mixed parity")
    classes = []
    for parity in (0, 1):
        part = _factor(Basis1D(basis.kind, coeff[odd == parity], basis.bc))
        classes.append(part._replace(loads=part.loads[parity::2],
                                     probes=part.probes[parity::2]))
    return tuple(classes)


def _lower_solve(lower: list, columns: list) -> list:
    """Solutions x of lower @ x = b for each column b, by forward substitution."""
    import mpmath

    out = []
    for b in columns:
        x = []
        for i, row in enumerate(lower):
            x.append((b[i] - mpmath.fdot(row[:i], x)) / row[i])
        out.append(x)
    return out


def _gram(rows: list, weights: list | None = None) -> list:
    """The symmetric matrix of the weighted dot products of ``rows``."""
    import mpmath

    scaled = rows if weights is None else [
        [y * w for y, w in zip(row, weights)] for row in rows]
    gram = [[None] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            gram[i][j] = gram[j][i] = mpmath.fdot(row, scaled[j])
    return gram


def reference_classes(kind: str, bc, degree: int, dps: int = 40) -> list:
    """(eigenvalues, resolvent Gram) of each class of a factor, in mpmath.

    The basis is the one of ``build_basis_1d``, written with ``dps``-digit
    coefficients and split into parity classes as ``_classes`` does. Its
    mass and stiffness Grams are integrated in Legendre coefficients, with
    the derivative L_j' = sum of (2m + 1) L_m over m < j, j - m odd. The
    eigenvalues are those of L^-1 S L^-T with M = L L^T, ascending. The
    resolvent Gram is B (S + M)^-1 B^T for the rows B of the class probes
    phi_k (ascending) followed by the values on the right edge: in the
    modes it is W diag(1 / (lambda + 1)) W^T with the trace t appended to W.
    Returns float arrays.
    """
    import mpmath

    with mpmath.workdps(dps):
        half = mpmath.sqrt(2) / 2
        rows = []
        if kind == "mean_zero":
            rows += [{0: half}, {1: -half}]
        elif not bc.dirichlet_at_minus1 and not bc.dirichlet_at_plus1:
            # the sum and difference of the supplements, as ``_classes``
            rows += [{0: 2 * half}, {1: 2 * half}]
        elif not bc.dirichlet_at_minus1 or not bc.dirichlet_at_plus1:
            rows.append({0: half, 1: half if bc.dirichlet_at_minus1 else -half})
        for k in range(2, degree + 1):
            scale = 1 / mpmath.sqrt(4 * k - 2)
            rows.append({k: -scale} if kind == "mean_zero" and k == 2
                        else {k - 2: scale, k: -scale})
        norms = [mpmath.mpf(2) / (2 * m + 1) for m in range(degree + 1)]
        if _symmetric(kind, bc):
            groups = [(parity, [row for row in rows if min(row) % 2 == parity])
                      for parity in (0, 1)]
        else:
            groups = [(None, rows)]
        out = []
        for parity, group in groups:
            dense = [[row.get(m, 0) for m in range(degree + 1)] for row in group]
            slope = [[(2 * m + 1) * mpmath.fsum(c[m + 1::2])
                      for m in range(degree + 1)] for c in dense]
            mass, stiff = _gram(dense, norms), _gram(slope, norms)
            lower = mpmath.cholesky(mpmath.matrix(mass)).tolist()
            half_pencil = _lower_solve(lower, stiff)
            pencil = _lower_solve(lower, [list(r) for r in zip(*half_pencil)])
            lam = mpmath.eigsy(mpmath.matrix(pencil), eigvals_only=True)
            probes = range(parity or 0, degree + 1, 1 if parity is None else 2)
            loads = [[mpmath.sqrt(norms[k]) * c[k] for c in dense] for k in probes]
            loads.append([mpmath.fsum(c) for c in dense])
            total = mpmath.matrix(mass) + mpmath.matrix(stiff)
            gram = _gram(_lower_solve(mpmath.cholesky(total).tolist(), loads))
            out.append((np.sort(np.array(lam.tolist(), dtype=float).ravel()),
                        np.array(gram, dtype=float)))
        return out
