"""1D factors by dense generalized eigensolves: the test oracle.

``refsat.coefficients`` solves each 1D factor as symmetric tridiagonal
eigenproblems built from closed-form mass entries. This is the route it
replaced: the mass and stiffness Grams of the factor basis formed by
``gram_matrices`` and the pencil S v = lambda M v solved densely, once per
parity class of a symmetric basis. It also keeps the right-edge traces of
the modes, from which the edge weights of families B and C were summed
before ``refsat.coefficients`` took them from the 1D resolvent
(``edge_weights``), and a 40-digit mpmath reference of both. Last, it
keeps the small eigensolve of W W^T per class by which the coarse blocks
were bounded from below before ``refsat.coefficients`` took that bound in
closed form (``load_floor``). And it keeps the full load matrix of each
chain, scattered member by member over all degree + 1 probes, from which
``refsat.coefficients`` read the probe rows up to p before it gathered
just those rows (``scatter_classes``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from basis_oracle import Basis1D, boundary_trace, build_basis_1d, gram_matrices
from refsat.coefficients import NumericalError, _chains, _Factor, _mass, _symmetric


class Factor(NamedTuple):
    """One 1D factor basis, or one parity class of it, in its eigenbasis:
    the fields of ``refsat.coefficients._Factor`` and the modes' traces."""

    #: eigenvalues of the pencil S v = lambda M v
    lam: np.ndarray
    #: W[k, i] = <phi_k, v_i> for the probes phi_k of degree k that load the
    #: modes, one row per degree from 0 up to the basis degree
    loads: np.ndarray
    #: t[i] = v_i(+1), the values of the modes on the right edge
    trace: np.ndarray


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


def _factor(basis: Basis1D) -> Factor:
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
    return Factor(lam, loads, boundary_trace(basis, 1.0) @ vec)


def _classes(basis: Basis1D) -> tuple[Factor, ...]:
    """The factor of ``basis``, one ``Factor`` per parity class.

    The modes of a symmetric basis are even or odd, and the probe L_k of
    parity k loads only the modes of its own parity. Each class is solved
    from the basis rows of its parity, so its load rows of the other
    parity's probes are exactly zero rather than roundoff. In the
    free-free case the supplements (1 -/+ x) sqrt(2)/2 are replaced by their
    sum sqrt(2) L_0 and difference sqrt(2) L_1, which span the same space.
    Any other basis is a single class.
    """
    if not _symmetric(basis.bc):
        return (_factor(basis),)
    coeff = basis.coefficients
    if basis.kind == "integrated_legendre" and not basis.bc.dirichlet_at_minus1:
        coeff = coeff.copy()
        coeff[:2] = coeff[0] + coeff[1], coeff[1] - coeff[0]
    odd = coeff[:, 1::2].any(axis=1)
    if (odd & coeff[:, 0::2].any(axis=1)).any():
        raise ValueError("a symmetric factor basis has rows of mixed parity")
    return tuple(_factor(Basis1D(basis.kind, coeff[odd == parity], basis.bc))
                 for parity in (0, 1))


def scatter_classes(bc, degree: int) -> tuple[_Factor, ...]:
    """The classes of the 1D factor of degree ``degree`` with ends ``bc``
    (``refsat.coefficients._chains``) with their full load matrices.

    Each chain is solved by ``scipy.linalg.eigh_tridiagonal`` with the
    LAPACK ``stevd`` driver, its modes scaled to V = Q diag(theta)^(-1/2),
    and every member's coefficients scattered into the rows of all its
    Legendre degrees, the rows then scaled by sqrt(2 / (2k + 1)). With no
    Dirichlet end the constant, lambda = 0 and the load row e_0, is
    prepended to the even chain.
    """
    classes = []
    for index, coeff in _chains(bc, degree):
        theta, vec = np.ones(0), np.zeros((0, 0))
        if len(index):
            theta, vec = scipy.linalg.eigh_tridiagonal(
                *_mass(index, coeff, degree), lapack_driver="stevd")
        vec = vec / np.sqrt(theta)
        loads = np.zeros((degree + 1, theta.size))
        for s in (0, 1):
            loads[index[:, s]] += coeff[:, s, np.newaxis] * vec
        loads *= np.sqrt(2.0 / (2.0 * np.arange(degree + 1) + 1.0))[:, np.newaxis]
        classes.append(_Factor(1.0 / theta, loads))
    if _symmetric(bc) and not bc.dirichlet_at_minus1:
        constant = (np.zeros(1), np.eye(degree + 1, 1))
        classes[0] = _Factor(*(np.concatenate(pair, axis=-1)
                               for pair in zip(constant, classes[0])))
    return tuple(classes)


def edge_weights(xs, mu: np.ndarray, quotient: bool = False) -> np.ndarray:
    """sum_i t_i^2 / (lambda_i + mu_j) over the modes of the x classes ``xs``.

    Edge loads see an x mode only through its trace t on the right edge.
    With ``quotient`` the pair of a lambda = 0 mode and mu_j = 0, the
    constant tensor member, is left out, as the quotient space leaves it.
    """
    total = np.zeros(len(mu))
    for fx in xs:
        denom = fx.lam[:, np.newaxis] + mu
        if quotient:
            denom[(fx.lam == 0.0)[:, np.newaxis] & (mu == 0.0)] = np.inf
        total += fx.trace ** 2 @ (1.0 / denom)
    return total


def load_floor(w: np.ndarray) -> float:
    """lambda_min(W W^T) of the load rows W of one class, clamped at 0, by
    a values-only LAPACK ``dsyevd``; exactly 0 for a class with more probes
    than modes, whose load Gram is singular."""
    if len(w) > w.shape[1]:
        return 0.0
    values, _, info = scipy.linalg.lapack.dsyevd(w @ w.T, compute_v=0)
    assert info == 0, info
    return max(float(values[0]), 0.0)


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
        if _symmetric(bc):
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


def _sparse_solve(matrix: list, rhs: list) -> list:
    """x with matrix @ x = rhs, by Gaussian elimination without pivoting
    that skips zero entries, so that a banded matrix costs its band."""
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for k in range(n):
        pivot = a[k]
        support = [j for j in range(k + 1, n + 1) if pivot[j]]
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] / pivot[k]
                for j in support:
                    a[i][j] -= factor * pivot[j]
    x = [None] * n
    for k in reversed(range(n)):
        x[k] = (a[k][n] - sum(a[k][j] * x[j] for j in range(k + 1, n))) / a[k][k]
    return x


def reference_edge_weights(kind: str, bc, degree: int, mu, quotient: bool = False,
                           dps: int = 40) -> np.ndarray:
    """c^T (S + mu M)^{-1} c for each entry of ``mu``, solved in mpmath.

    S and M are the stiffness and mass Grams of the rows of
    ``build_basis_1d(kind, bc, degree)``, read exactly and integrated in
    ``dps``-digit Legendre coefficients, and c their values at x = +1.
    The constant of the mean-zero basis has no stiffness and no mass
    coupling to the other members; its term c_0^2 / (mu M_00) is added
    apart, and left out at mu = 0 with ``quotient``. Returns floats.
    """
    import mpmath

    with mpmath.workdps(dps):
        rows = [[mpmath.mpf(float(v)) for v in row]
                for row in build_basis_1d(kind, bc, degree).coefficients]
        constant = None
        if kind == "mean_zero":
            constant, rows = rows[0], rows[1:]
        norms = [mpmath.mpf(2) / (2 * m + 1) for m in range(degree + 1)]
        slopes = [[(2 * m + 1) * mpmath.fsum(c[m + 1::2])
                   for m in range(degree + 1)] for c in rows]
        mass, stiff = _gram(rows, norms), _gram(slopes, norms)
        values = [mpmath.fsum(row) for row in rows]
        out = []
        for m in mu:
            m = mpmath.mpf(float(m))
            matrix = [[s + m * t for s, t in zip(srow, trow)]
                      for srow, trow in zip(stiff, mass)]
            total = mpmath.fdot(values, _sparse_solve(matrix, values))
            if constant is not None and (m > 0 or not quotient):
                total += mpmath.fsum(constant) ** 2 / (
                    m * mpmath.fdot(constant, [c * w for c, w in zip(constant, norms)]))
            out.append(float(total))
        return np.array(out)
