"""Tests for the 1d Legendre-coefficient bases.

The quadrature oracle here is an independent Newton iteration, and the
interior functions are rebuilt from their defining integral with a different
code path (series antidifferentiation), so agreement is meaningful.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from basis_oracle import basis_rows
from refsat.bases import (
    Basis1D,
    BoundaryCondition1D,
    QuadRule,
    boundary_trace,
    build_basis_1d,
    gauss_legendre_rule,
    gram_matrices,
    legendre_eval_all,
)


def newton_gauss_oracle(n):
    """Gauss-Legendre nodes/weights via Newton iteration on P_n."""
    k = np.arange(1, n + 1)
    x = np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    dp = np.ones_like(x)
    for _ in range(100):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        if n == 1:
            dp = np.ones_like(x)
        else:
            dp = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def test_gauss_rule_frozen_small():
    r1 = gauss_legendre_rule(1)
    assert np.allclose(r1.nodes, [0.0], atol=1e-15)
    assert np.allclose(r1.weights, [2.0], atol=1e-15)
    r2 = gauss_legendre_rule(2)
    assert np.allclose(r2.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
    assert np.allclose(r2.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_rule_matches_newton_oracle():
    for n in range(1, 26):
        rule = gauss_legendre_rule(n)
        xs, ws = newton_gauss_oracle(n)
        assert np.allclose(np.sort(rule.nodes), xs, atol=1e-13)
        assert np.allclose(rule.weights[np.argsort(rule.nodes)], ws, atol=1e-13)


def test_gauss_rule_weight_sum_and_exactness():
    for n in (1, 3, 8, 20, 50):
        rule = gauss_legendre_rule(n)
        assert abs(rule.weights.sum() - 2.0) < 1e-13
        for j in range(2 * n):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            got = np.dot(rule.weights, rule.nodes**j)
            assert abs(got - exact) < 1e-12


def test_gauss_rule_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        gauss_legendre_rule(0)
    with pytest.raises(ValueError):
        gauss_legendre_rule(-3)


def test_legendre_eval_all_recurrence():
    vals = legendre_eval_all(2, np.array([0.0]))
    assert vals[2, 0] == -0.5
    x = np.linspace(-1, 1, 11)
    vals = legendre_eval_all(30, x)
    assert np.allclose(vals[:, -1], 1.0, atol=1e-14)
    signs = (-1.0) ** np.arange(31)
    assert np.allclose(vals[:, 0], signs, atol=1e-14)
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1, 1, size=40)
    vals = legendre_eval_all(30, pts)
    for k in range(31):
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        assert np.allclose(vals[k], npleg.legval(pts, unit), atol=1e-13)


def test_legendre_basis_is_l2_orthonormal():
    basis = build_basis_1d("legendre", r=64)
    mass, _ = gram_matrices(basis, basis)
    assert np.max(np.abs(mass - np.eye(65))) < 1e-12


def test_interior_functions_match_integral_definition():
    basis = build_basis_1d(
        "integrated_legendre",
        BoundaryCondition1D(dirichlet_at_minus1=True, dirichlet_at_plus1=True),
        r=64,
    )
    for i, k in enumerate(range(2, 65)):
        src = np.zeros(k)
        src[k - 1] = np.sqrt(k - 0.5)
        anti = npleg.legint(src)
        # int_x^1 f = F(1) - F(x), expressed again in Legendre coefficients
        expect = -anti
        expect[0] += npleg.legval(1.0, anti)
        got = basis.coefficients[i]
        assert np.max(np.abs(got[: expect.size] - expect)) < 1e-13
        if expect.size < got.size:
            assert np.max(np.abs(got[expect.size:])) == 0.0


def test_interior_gram_structure():
    bc = BoundaryCondition1D(dirichlet_at_minus1=True, dirichlet_at_plus1=True)
    basis = build_basis_1d("integrated_legendre", bc, r=64)
    mass, stiff = gram_matrices(basis, basis)
    assert np.max(np.abs(stiff - np.eye(63))) < 1e-12
    for i in range(63):
        for j in range(63):
            if abs(i - j) in (0, 2):
                assert abs(mass[i, j]) > 1e-6
            else:
                assert abs(mass[i, j]) < 1e-13


def test_supplement_gram_entries():
    basis = build_basis_1d("integrated_legendre", r=4)
    # rows: left supplement, right supplement, xi_2, xi_3, xi_4
    mass, stiff = gram_matrices(basis, basis)
    assert abs(stiff[0, 0] - 1.0) < 1e-14
    assert abs(stiff[1, 1] - 1.0) < 1e-14
    assert abs(stiff[0, 1] + 1.0) < 1e-14
    # supplements are H1-orthogonal to every interior function
    assert np.max(np.abs(stiff[:2, 2:])) == 0.0
    # and L2-orthogonal to interior functions of index four and higher
    assert np.max(np.abs(mass[:2, 4:])) == 0.0
    assert np.min(np.abs(mass[:2, 2:4])) > 0.0


def test_cross_gram_sparsity_pattern():
    rows = build_basis_1d("legendre", r=62)
    cols = build_basis_1d(
        "integrated_legendre",
        BoundaryCondition1D(dirichlet_at_minus1=True, dirichlet_at_plus1=True),
        r=64,
    )
    mass, _ = gram_matrices(rows, cols)
    for k in range(63):
        for j in range(63):
            m = j + 2
            if m - k in (0, 2):
                assert mass[k, j] != 0.0
            else:
                assert mass[k, j] == 0.0
    assert abs(mass[0, 0] - 1.0 / np.sqrt(3.0)) < 1e-14


def test_self_gram_equals_the_gram_with_a_copy():
    # a basis paired with itself is differentiated once; the result is the
    # one of two separate differentiations, bitwise
    for kind in ("legendre", "integrated_legendre", "mean_zero"):
        for degree in (1, 2, 9, 64):
            basis = build_basis_1d(kind, r=degree)
            copy = Basis1D(kind, basis.coefficients.copy(), basis.bc)
            for got, expect in zip(gram_matrices(basis, basis),
                                   gram_matrices(basis, copy)):
                assert np.array_equal(got, expect)


def test_mean_zero_family():
    basis = build_basis_1d("mean_zero", r=3)
    assert basis.n_functions == 4
    # integrals are twice the constant-mode coefficient
    integrals = 2.0 * basis.coefficients[:, 0]
    assert abs(integrals[0] - np.sqrt(2.0)) < 1e-15
    assert np.max(np.abs(integrals[1:])) == 0.0
    _, stiff = gram_matrices(basis, basis)
    assert np.max(np.abs(stiff[0, :])) == 0.0
    assert np.max(np.abs(stiff[:, 0])) == 0.0
    # the unshifted degree-2 interior function has mean 2/sqrt(6)
    raw = build_basis_1d(
        "integrated_legendre",
        BoundaryCondition1D(dirichlet_at_minus1=True, dirichlet_at_plus1=True),
        r=2,
    )
    assert abs(2.0 * raw.coefficients[0, 0] - 2.0 / np.sqrt(6.0)) < 1e-15


def test_membership_and_cardinality():
    cases = {
        (False, False): 5,
        (True, False): 4,
        (False, True): 4,
        (True, True): 3,
    }
    for (dm, dp), expected in cases.items():
        bc = BoundaryCondition1D(dirichlet_at_minus1=dm, dirichlet_at_plus1=dp)
        basis = build_basis_1d("integrated_legendre", bc, r=4)
        assert basis.n_functions == expected
        if dm:
            assert np.max(np.abs(boundary_trace(basis, -1.0))) < 1e-14
        if dp:
            assert np.max(np.abs(boundary_trace(basis, 1.0))) < 1e-14


def test_empty_basis_is_rejected():
    bc = BoundaryCondition1D(dirichlet_at_minus1=True, dirichlet_at_plus1=True)
    with pytest.raises(ValueError, match="empty"):
        build_basis_1d("integrated_legendre", bc, r=1)
    with pytest.raises(ValueError, match="empty"):
        build_basis_1d("integrated_legendre", r=0)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="kind"):
        build_basis_1d("monomial", r=3)


def test_underresolved_rule_is_rejected():
    basis = build_basis_1d("legendre", r=8)
    with pytest.raises(ValueError, match="exactly"):
        gram_matrices(basis, basis, rule=gauss_legendre_rule(3))
    # a minimal exact rule agrees with the automatic one
    auto_m, auto_s = gram_matrices(basis, basis)
    min_m, min_s = gram_matrices(basis, basis, rule=gauss_legendre_rule(9))
    assert np.allclose(auto_m, min_m, atol=1e-13)
    assert np.allclose(auto_s, min_s, atol=1e-13)


def test_boundary_trace_values():
    free = build_basis_1d("integrated_legendre", r=6)
    tr = boundary_trace(free, 1.0)
    assert abs(tr[1] - np.sqrt(2.0)) < 1e-15
    assert np.max(np.abs(tr[2:])) == 0.0
    leg = build_basis_1d("legendre", r=10)
    expect = np.sqrt(np.arange(11) + 0.5)
    assert np.allclose(boundary_trace(leg, 1.0), expect, atol=1e-14)
    with pytest.raises(ValueError):
        boundary_trace(leg, 0.5)


def test_build_matches_the_row_by_row_oracle():
    for kind in ("legendre", "integrated_legendre", "mean_zero"):
        for left in (False, True):
            for right in (False, True):
                bc = BoundaryCondition1D(left, right)
                for r in range(257):
                    expect = basis_rows(kind, bc, r)
                    if expect.shape[0] == 0:
                        with pytest.raises(ValueError, match="empty"):
                            build_basis_1d(kind, bc, r)
                        continue
                    got = build_basis_1d(kind, bc, r).coefficients
                    # bitwise, signed zeros included
                    assert got.shape == expect.shape, (kind, bc, r)
                    assert got.tobytes() == expect.tobytes(), (kind, bc, r)


def test_build_is_deterministic():
    bc = BoundaryCondition1D(dirichlet_at_plus1=True)
    first = build_basis_1d("integrated_legendre", bc, r=12)
    second = build_basis_1d("integrated_legendre", bc, r=12)
    assert np.array_equal(first.coefficients, second.coefficients)


def test_quadrule_validation():
    with pytest.raises(ValueError):
        QuadRule(nodes=np.zeros((2, 2)), weights=np.zeros(4))
    with pytest.raises(ValueError):
        Basis1D(kind="legendre", coefficients=np.zeros(3))
