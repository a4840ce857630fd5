"""Tests for the tensor spaces and for the sparse oracle's assembly.

The sparse stiffness and load matrices of ``sparse_oracle`` are checked
here against brute-force quadrature, so that the oracle the dual-Gram
tests compare against is itself verified.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from basis_oracle import gauss_legendre_rule
from refsat.assembly import normalize_edges
from refsat.coefficients import CANONICAL_PROBLEMS
from sparse_oracle import (
    load_matrix_edge,
    load_matrix_quotient_edge,
    load_matrix_volume,
    quotient_space,
    stiffness_matrix,
    tensor_space,
)


def factor_values(basis, pts, deriv=False):
    coeff = basis.coefficients.T
    if deriv:
        coeff = npleg.legder(coeff, axis=0)
    return np.atleast_2d(npleg.legval(pts, coeff))


def eval_member(space, ix, iy, x, y, dx=0, dy=0):
    """Pointwise values of one tensor basis member on a grid (oracle path)."""
    vx = factor_values(space.basis_x, x, deriv=bool(dx))[ix]
    vy = factor_values(space.basis_y, y, deriv=bool(dy))[iy]
    return np.outer(vx, vy)


def legendre_values(k, pts):
    c = np.zeros(k + 1)
    c[k] = np.sqrt(k + 0.5)
    return npleg.legval(pts, c)


def test_tensor_space_dims():
    full = tensor_space(CANONICAL_PROBLEMS["E5"][1], 5)
    assert full.dim == 16
    one = tensor_space(CANONICAL_PROBLEMS["E1"][1], 5)
    assert one.dim == 30
    with pytest.raises(ValueError, match="empty"):
        tensor_space(CANONICAL_PROBLEMS["E5"][1], 1)


def test_members_vanish_on_dirichlet_edges():
    rng = np.random.default_rng(3)
    pts = np.linspace(-0.9, 0.9, 5)
    for name, (_, edges) in CANONICAL_PROBLEMS.items():
        if edges is None:
            continue
        space = tensor_space(edges, 4)
        c = rng.standard_normal(space.dim)
        cmat = c.reshape(space.basis_x.n_functions, space.basis_y.n_functions)
        vx = factor_values(space.basis_x, pts)
        vy = factor_values(space.basis_y, pts)
        tx1 = factor_values(space.basis_x, np.array([1.0]))[:, 0]
        tx3 = factor_values(space.basis_x, np.array([-1.0]))[:, 0]
        ty2 = factor_values(space.basis_y, np.array([1.0]))[:, 0]
        ty4 = factor_values(space.basis_y, np.array([-1.0]))[:, 0]
        traces = {
            1: tx1 @ cmat @ vy,
            2: vx.T @ (cmat @ ty2),
            3: tx3 @ cmat @ vy,
            4: vx.T @ (cmat @ ty4),
        }
        for e in edges:
            assert np.max(np.abs(traces[e])) < 1e-12, name


def test_stiffness_frozen_smallest_space():
    space = tensor_space(CANONICAL_PROBLEMS["E5"][1], 2)
    a = stiffness_matrix(space).toarray()
    assert a.shape == (1, 1)
    assert abs(a[0, 0] - 0.8) < 1e-14


def test_stiffness_symmetric_positive_definite():
    for name in ("E1", "E3", "E5", "F4"):
        space = tensor_space(CANONICAL_PROBLEMS[name][1], 6)
        a = stiffness_matrix(space)
        dense = a.toarray()
        assert np.max(np.abs(dense - dense.T)) < 1e-13
        assert np.min(np.linalg.eigvalsh(dense)) > 0.0


def test_quotient_space_basics():
    space = quotient_space(2)
    assert space.dim == 8
    a = stiffness_matrix(space).toarray()
    assert a.shape == (8, 8)
    assert np.max(np.abs(a - a.T)) < 1e-13
    assert np.min(np.linalg.eigvalsh(a)) > 0.0
    with pytest.raises(ValueError):
        quotient_space(0)


def test_quotient_members_have_zero_mean():
    space = quotient_space(3)
    rule = gauss_legendre_rule(6)
    x, w = rule.nodes, rule.weights
    vals = factor_values(space.basis, x)
    n = space.basis.n_functions
    for flat in range(1, n * n):
        ix, iy = divmod(flat, n)
        mean = w @ np.outer(vals[ix], vals[iy]) @ w
        assert abs(mean) < 1e-12


def test_stiffness_matches_quadrature():
    rng = np.random.default_rng(11)
    space = tensor_space(CANONICAL_PROBLEMS["E2"][1], 6)
    a = stiffness_matrix(space)
    rule = gauss_legendre_rule(9)
    x, w = rule.nodes, rule.weights
    nx, ny = space.basis_x.n_functions, space.basis_y.n_functions
    vx = factor_values(space.basis_x, x)
    vy = factor_values(space.basis_y, x)
    dvx = factor_values(space.basis_x, x, deriv=True)
    dvy = factor_values(space.basis_y, x, deriv=True)
    for _ in range(5):
        u = rng.standard_normal(space.dim)
        v = rng.standard_normal(space.dim)
        um, vm = u.reshape(nx, ny), v.reshape(nx, ny)
        ux = np.einsum("ia,jb,ij->ab", dvx, vy, um)
        uy = np.einsum("ia,jb,ij->ab", vx, dvy, um)
        wx = np.einsum("ia,jb,ij->ab", dvx, vy, vm)
        wy = np.einsum("ia,jb,ij->ab", vx, dvy, vm)
        integral = w @ (ux * wx + uy * wy) @ w
        assert abs(u @ (a @ v) - integral) < 1e-11


def test_volume_load_matches_brute_force():
    space = tensor_space(CANONICAL_PROBLEMS["E1"][1], 4)
    p = 3
    load = load_matrix_volume(space, p)
    assert load.shape == ((p + 1) ** 2, space.dim)
    rule = gauss_legendre_rule(8)
    x, w = rule.nodes, rule.weights
    ny = space.basis_y.n_functions
    for row in range((p + 1) ** 2):
        i, j = divmod(row, p + 1)
        probe = np.outer(legendre_values(i, x), legendre_values(j, x))
        for col in range(space.dim):
            ix, iy = divmod(col, ny)
            member = eval_member(space, ix, iy, x, x)
            expect = w @ (probe * member) @ w
            assert abs(load[row, col] - expect) < 1e-12


def test_edge_load_matches_brute_force():
    space = tensor_space(CANONICAL_PROBLEMS["F1"][1], 4)
    p = 3
    load = load_matrix_edge(space, p)
    assert load.shape == (p + 1, space.dim)
    rule = gauss_legendre_rule(8)
    y, w = rule.nodes, rule.weights
    ny = space.basis_y.n_functions
    tx = factor_values(space.basis_x, np.array([1.0]))[:, 0]
    for k in range(p + 1):
        probe = legendre_values(k, y)
        for col in range(space.dim):
            ix, iy = divmod(col, ny)
            trace_vals = tx[ix] * factor_values(space.basis_y, y)[iy]
            expect = w @ (probe * trace_vals)
            assert abs(load[k, col] - expect) < 1e-12
    # only the x factor that is nonzero at x=1 contributes
    nonzero_ix = np.nonzero(np.abs(tx) > 1e-14)[0]
    assert nonzero_ix.size == 1
    for col in range(space.dim):
        ix = col // ny
        if ix != nonzero_ix[0]:
            assert np.max(np.abs(load[:, col])) == 0.0


def test_edge_load_rejects_constrained_right_edge():
    space = tensor_space(CANONICAL_PROBLEMS["E1"][1], 4)
    with pytest.raises(ValueError, match="right edge"):
        load_matrix_edge(space, 2)


def test_quotient_edge_load_matches_brute_force():
    space = quotient_space(3)
    p = 2
    load = load_matrix_quotient_edge(space, p)
    assert load.shape == (p, space.dim)
    rule = gauss_legendre_rule(8)
    y, w = rule.nodes, rule.weights
    n = space.basis.n_functions
    tx = factor_values(space.basis, np.array([1.0]))[:, 0]
    vy = factor_values(space.basis, y)
    for k in range(1, p + 1):
        probe = legendre_values(k, y)
        for col in range(space.dim):
            ix, iy = divmod(col + 1, n)
            expect = w @ (probe * tx[ix] * vy[iy])
            assert abs(load[k - 1, col] - expect) < 1e-12
    with pytest.raises(ValueError):
        load_matrix_quotient_edge(space, 0)


def test_stiffness_sparsity_is_banded():
    space = tensor_space(CANONICAL_PROBLEMS["E5"][1], 20)
    a = stiffness_matrix(space).tocsr()
    per_row = np.diff(a.indptr)
    assert np.max(per_row) <= 25
    assert a.nnz <= 25 * space.dim


def test_normalize_edges_validation():
    assert normalize_edges([4, 1]) == frozenset({1, 4})
    with pytest.raises(ValueError):
        normalize_edges([0, 2])
    with pytest.raises(ValueError):
        normalize_edges([5])


def test_assembly_is_deterministic():
    first = stiffness_matrix(tensor_space(CANONICAL_PROBLEMS["E4"][1], 9))
    second = stiffness_matrix(tensor_space(CANONICAL_PROBLEMS["E4"][1], 9))
    assert np.array_equal(first.toarray(), second.toarray())
    lf = load_matrix_volume(tensor_space(CANONICAL_PROBLEMS["E4"][1], 9), 5)
    ls = load_matrix_volume(tensor_space(CANONICAL_PROBLEMS["E4"][1], 9), 5)
    assert np.array_equal(lf, ls)
