"""Sparse-LU dual Grams on the assembled 2D Kronecker stiffness: the test oracle.

This is an independent route to R = L A^{-1} L^T. It assembles the tensor
stiffness Sx (x) My + Mx (x) Sy as a sparse matrix and the load matrices
row by row, factors the stiffness with SuperLU once per Gram and solves one
dense right-hand side per functional. It shares nothing with the
production fast diagonalization in ``refsat.coefficients`` but the edge
conventions of ``refsat.assembly``: its spaces are tensor products of the
coefficient-row bases of ``basis_oracle``, whose 1D Grams are checked
against brute-force quadrature in ``test_bases``, and the matrices
assembled here are checked in ``test_assembly``.

Flattening of tensor indices is row-major with the x factor outermost: the
basis member (ix, iy) sits at flat index ix * ny + iy. Stiffness matrices
are sparse and exactly symmetric; load matrices are dense with one row per
functional.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from basis_oracle import Basis1D, boundary_trace, build_basis_1d, gram_matrices
from refsat.assembly import RIGHT, factor_conditions, normalize_edges
from refsat.coefficients import NumericalError, ProblemSpec


@dataclass(frozen=True)
class TensorSpace:
    """Polynomial tensor space on the square with Dirichlet edges removed."""

    edges: frozenset[int]
    basis_x: Basis1D
    basis_y: Basis1D

    @property
    def dim(self) -> int:
        return self.basis_x.n_functions * self.basis_y.n_functions


@dataclass(frozen=True)
class QuotientSpace:
    """Full polynomial space modulo constants.

    Realized as the tensor square of the mean-zero family with the purely
    constant member removed, giving (r + 1)^2 - 1 functions whose first
    basis direction is flattened outermost exactly like TensorSpace.
    """

    degree: int
    basis: Basis1D

    @property
    def dim(self) -> int:
        return (self.degree + 1) ** 2 - 1


def tensor_space(edges, degree: int) -> TensorSpace:
    """Build the Dirichlet tensor space of coordinate degree at most ``degree``."""
    edges = normalize_edges(edges)
    bc_x, bc_y = factor_conditions(edges)
    basis_x = build_basis_1d("integrated_legendre", bc_x, degree)
    basis_y = build_basis_1d("integrated_legendre", bc_y, degree)
    return TensorSpace(edges=edges, basis_x=basis_x, basis_y=basis_y)


def quotient_space(degree: int) -> QuotientSpace:
    if degree < 1:
        raise ValueError("the quotient space needs degree >= 1 to be nonempty")
    return QuotientSpace(degree=degree, basis=build_basis_1d("mean_zero", r=degree))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2.0


def _tensor_stiffness(bx: Basis1D, by: Basis1D) -> scipy.sparse.csr_matrix:
    mx, sx = gram_matrices(bx, bx)
    my, sy = gram_matrices(by, by)
    mx, sx, my, sy = map(_sym, (mx, sx, my, sy))
    a = scipy.sparse.kron(
        scipy.sparse.csr_matrix(sx), scipy.sparse.csr_matrix(my)
    ) + scipy.sparse.kron(scipy.sparse.csr_matrix(mx), scipy.sparse.csr_matrix(sy))
    return a.tocsr()


def stiffness_matrix(space: TensorSpace | QuotientSpace) -> scipy.sparse.csr_matrix:
    """Gradient Gram matrix of the space, sparse and exactly symmetric.

    For the quotient space the constant tensor member is dropped, which makes
    the matrix positive definite again.
    """
    if isinstance(space, TensorSpace):
        return _tensor_stiffness(space.basis_x, space.basis_y)
    full = _tensor_stiffness(space.basis, space.basis)
    return full[1:, :][:, 1:].tocsr()


def load_matrix_volume(space: TensorSpace, p: int) -> np.ndarray:
    """Rows are the volume functionals v -> <phi_i x phi_j, v> for i, j <= p.

    Row order has i outermost, matching the tensor flattening.
    """
    if p < 0:
        raise ValueError(f"functional degree must be nonnegative, got {p}")
    probes = build_basis_1d("legendre", r=p)
    gx, _ = gram_matrices(probes, space.basis_x)
    gy, _ = gram_matrices(probes, space.basis_y)
    return np.kron(gx, gy)


def load_matrix_edge(space: TensorSpace, p: int) -> np.ndarray:
    """Rows are the edge functionals v -> <phi_k, v(1, .)> for k <= p.

    The functionals live on the right edge, so that edge must be free: a
    Dirichlet condition there would annihilate every functional.
    """
    if p < 0:
        raise ValueError(f"functional degree must be nonnegative, got {p}")
    if RIGHT in space.edges:
        raise ValueError(
            "edge loads act on the right edge, which this space constrains "
            "to zero; remove edge 1 from the Dirichlet set"
        )
    probes = build_basis_1d("legendre", r=p)
    tx = boundary_trace(space.basis_x, 1.0)
    gy, _ = gram_matrices(probes, space.basis_y)
    return np.kron(tx[np.newaxis, :], gy)


def load_matrix_quotient_edge(space: QuotientSpace, p: int) -> np.ndarray:
    """Rows are v -> <phi_k, v(1, .)> for 1 <= k <= p on the quotient space.

    Starting at k = 1 keeps the functionals mean free, so they are well
    defined modulo constants.
    """
    if p < 1:
        raise ValueError(f"quotient edge loads start at degree 1, got p={p}")
    probes_full = build_basis_1d("legendre", r=p)
    probes = Basis1D(kind="legendre", coefficients=probes_full.coefficients[1:])
    tx = boundary_trace(space.basis, 1.0)
    gy, _ = gram_matrices(probes, space.basis)
    full = np.kron(tx[np.newaxis, :], gy)
    return full[:, 1:]


def _factorize(stiffness):
    """Sparse LU of the stiffness matrix with an explicit singularity check.

    SuperLU happily factors an exactly singular matrix through a roundoff
    pivot, so the diagonal of U is inspected instead of trusting the solve.
    """
    a = scipy.sparse.csc_matrix(stiffness)
    try:
        lu = scipy.sparse.linalg.splu(a)
    except RuntimeError as exc:
        raise NumericalError(f"stiffness factorization failed: {exc}") from exc
    pivots = np.abs(lu.U.diagonal())
    if pivots.size and np.min(pivots) < 1e-12 * np.max(pivots):
        raise NumericalError("stiffness matrix is numerically singular")
    return lu


def schur_dual_gram(load: np.ndarray, stiffness) -> np.ndarray:
    """Dual Gram matrix R = L A^{-1} L^T, factoring A once for all rows of L.

    The result is symmetrized to remove roundoff skew. A singular stiffness
    matrix raises NumericalError.
    """
    load = np.atleast_2d(np.asarray(load, dtype=float))
    a = scipy.sparse.csc_matrix(stiffness)
    if a.shape[0] != a.shape[1] or a.shape[1] != load.shape[1]:
        raise ValueError(
            f"shape mismatch: load {load.shape} against stiffness {a.shape}"
        )
    lu = _factorize(a)
    solved = lu.solve(load.T)
    r = load @ solved
    if not np.all(np.isfinite(r)):
        raise NumericalError("stiffness matrix is numerically singular")
    return (r + r.T) / 2.0


def dual_norm_oracle(functional: np.ndarray, load: np.ndarray, stiffness) -> float:
    """Dual norm of one functional via its Galerkin representer.

    Solves A u = L^T F and returns sqrt(u^T A u). Used as an independent
    check of the quadratic form F^T R F.
    """
    functional = np.asarray(functional, dtype=float)
    rhs = np.asarray(load, dtype=float).T @ functional
    a = scipy.sparse.csc_matrix(stiffness)
    u = _factorize(a).solve(rhs)
    return float(np.sqrt(u @ (a @ u)))


def _build_pair(spec: ProblemSpec, degree: int):
    if spec.family == "A":
        space = tensor_space(spec.edges, degree)
        return stiffness_matrix(space), load_matrix_volume(space, spec.p)
    if spec.family == "B":
        space = tensor_space(spec.edges, degree)
        return stiffness_matrix(space), load_matrix_edge(space, spec.p)
    space = quotient_space(degree)
    return stiffness_matrix(space), load_matrix_quotient_edge(space, spec.p)
