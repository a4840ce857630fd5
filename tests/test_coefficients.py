"""Tests for the saturation coefficient machinery.

Published reference values are pinned to 2e-4 here only as spot checks; the
full table comparison lives in the acceptance suite. The eigenvalue and dual
norm routes are cross-checked against independent dense linear algebra, the
top-of-spectrum eigensolve against the full-spectrum oracle in
``dense_eigen_oracle``, and the fast-diagonalization dual Grams against the
sparse-LU oracle in ``sparse_oracle``, the block route (parity classes
and swap blocks) against the unsplit route in ``unsplit_oracle``, and the
tridiagonal 1D factors and the resolvent edge weights against the dense
pencils and the 40-digit mpmath references in ``pencil_oracle``.
"""

from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import refsat.coefficients
from basis_oracle import Basis1D, boundary_trace, build_basis_1d, gram_matrices
from refsat.assembly import EDGE_CLASSES
from refsat.bases import BoundaryCondition1D
from refsat.cli import load_published_table
from dense_eigen_oracle import max_generalized_eigenvalue as dense_oracle
from pencil_oracle import (
    _classes,
    _factor,
    _modes,
    edge_weights as oracle_edge_weights,
    reference_classes,
    reference_edge_weights,
)
from refsat.coefficients import (
    _DENSE_ORDER,
    CANONICAL_PROBLEMS,
    NumericalError,
    ProblemSpec,
    _classes as factor_classes,
    _edge_weights,
    _factor_args,
    _PD_FLOOR,
    _denominator_factor,
    _gram_floors,
    _gram_norm,
    _gram_trace,
    _grams,
    _lower_solver,
    _max_over_blocks,
    _pair,
    _products,
    _sides,
    _spec_blocks,
    _top_eigenpairs,
    _top_of_pencil,
    _volume_gram,
    q_strategy,
    saturation_coefficient,
)
from sparse_oracle import (
    _build_pair,
    dual_norm_oracle,
    load_matrix_edge,
    load_matrix_volume,
    quotient_space,
    schur_dual_gram,
    stiffness_matrix,
    tensor_space,
)
from unsplit_oracle import (
    block_orders,
    contract,
    dual_gram,
    max_generalized_eigenvalue,
    saturation as unsplit_saturation,
)


def spec_for(name, p, q, r):
    family, edges = CANONICAL_PROBLEMS[name]
    return ProblemSpec(family=family, edges=edges, p=p, q=q, r=r)


def triples(blocks, xs, ys):
    """The ``_pair`` of each block, as the Gram kernels take them."""
    return [_pair(block, xs, ys) for block in blocks]


def _space(spec, degree):
    if spec.family == "C":
        return quotient_space(degree)
    return tensor_space(spec.edges, degree)


def test_q_strategy_values():
    assert q_strategy("p+4", 12) == 16
    assert q_strategy("p+ceil(p/7)", 14) == 16
    assert q_strategy("p+ceil(p/7)", 7) == 8
    assert q_strategy("2p", 8) == 16
    with pytest.raises(ValueError):
        q_strategy("p+5", 4)
    with pytest.raises(ValueError):
        q_strategy("2p", 0)


def test_schur_dual_gram_scalar_case():
    r = schur_dual_gram(np.array([[3.0]]), np.array([[2.0]]))
    assert r.shape == (1, 1)
    assert abs(r[0, 0] - 4.5) < 1e-15


def test_schur_dual_gram_symmetry_and_values():
    rng = np.random.default_rng(5)
    space = tensor_space(EDGE_CLASSES["E2"], 6)
    a = stiffness_matrix(space)
    load = load_matrix_volume(space, 3)
    r = schur_dual_gram(load, a)
    assert np.array_equal(r, r.T)
    # quadratic form against a dense solve done from scratch
    dense = np.linalg.inv(a.toarray())
    expect = load @ dense @ load.T
    assert np.max(np.abs(r - expect)) < 1e-11 * np.linalg.norm(expect)
    f = rng.standard_normal(load.shape[0])
    assert abs(f @ r @ f - f @ expect @ f) < 1e-10


def test_schur_dual_gram_rejects_singular_stiffness():
    # a pure Neumann space contains the constants, so the stiffness is singular
    space = tensor_space(frozenset(), 3)
    a = stiffness_matrix(space)
    load = load_matrix_volume(space, 1)
    with pytest.raises(NumericalError):
        schur_dual_gram(load, a)


def test_schur_dual_gram_shape_mismatch():
    with pytest.raises(ValueError):
        schur_dual_gram(np.ones((2, 3)), np.eye(4))


def test_max_generalized_eigenvalue_basics():
    value, vec, tie = max_generalized_eigenvalue(np.eye(4), np.eye(4))
    assert abs(value - 1.0) < 1e-14
    assert tie  # every direction achieves the maximum
    top = np.diag([4.0, 1.0])
    value, vec, tie = max_generalized_eigenvalue(top, np.eye(2))
    assert abs(value - 4.0) < 1e-14
    assert abs(abs(vec[0]) - 1.0) < 1e-12 and abs(vec[1]) < 1e-12
    assert not tie
    with pytest.raises(ValueError):
        max_generalized_eigenvalue(np.eye(3), np.eye(2))


def test_max_generalized_eigenvalue_rejects_singular_denominator():
    bottom = np.diag([1.0, 0.0])
    with pytest.raises(NumericalError, match="ill-posed.*Cholesky.*floor 1e-12"):
        max_generalized_eigenvalue(np.eye(2), bottom)
    # the factorization succeeds here, and the margin decides
    with pytest.raises(
        NumericalError,
        match=r"ill-posed.*lambda_min/trace 1\.000e-14 is under the floor 1e-12",
    ):
        max_generalized_eigenvalue(np.eye(2), np.diag([1.0, 1e-14]))
    value, _, _ = max_generalized_eigenvalue(np.eye(2), np.diag([1.0, 1e-10]))
    assert abs(value - 1e10) <= 1e-4


def test_max_generalized_eigenvalue_rejects_a_nonfinite_denominator():
    for bad in (np.nan, np.inf):
        bottom = np.eye(3)
        bottom[2, 0] = bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            max_generalized_eigenvalue(np.eye(3), bottom)


def test_nearly_singular_denominator_is_rejected_at_the_lanczos_order():
    n = _DENSE_ORDER + 20
    rng = np.random.default_rng(3)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    spectrum = np.linspace(1.0, 2.0, n)
    spectrum[0] = 1e-14 * spectrum.sum()
    bottom = (basis * spectrum) @ basis.T
    scipy.linalg.cholesky(bottom)  # succeeds: only the floor can reject it
    with pytest.raises(
        NumericalError,
        match=r"ill-posed.*lambda_min/trace \d\.\d{3}e-14 is under the floor",
    ):
        max_generalized_eigenvalue(np.eye(n), bottom)


def test_eigenvalue_dominates_random_rayleigh_quotients():
    rng = np.random.default_rng(17)
    for dim in (2, 4, 6):
        g = rng.standard_normal((dim, dim))
        bottom = g @ g.T + dim * np.eye(dim)
        h = rng.standard_normal((dim, dim))
        top = h @ h.T
        value, vec, _ = max_generalized_eigenvalue(top, bottom)
        x = rng.standard_normal((100_000, dim))
        quot = np.einsum("ij,jk,ik->i", x, top, x) / np.einsum(
            "ij,jk,ik->i", x, bottom, x
        )
        best = float(np.max(quot))
        assert best <= value + 1e-6 * max(1.0, value)
        achieved = (vec @ top @ vec) / (vec @ bottom @ vec)
        assert abs(achieved - value) < 1e-9 * max(1.0, value)


def test_dual_norm_oracle_matches_quadratic_form():
    rng = np.random.default_rng(23)
    for name, p, degree in (("E1", 3, 8), ("F1", 4, 10), ("E5", 2, 7)):
        family, edges = CANONICAL_PROBLEMS[name]
        space = tensor_space(edges, degree)
        a = stiffness_matrix(space)
        if family == "A":
            load = load_matrix_volume(space, p)
        else:
            load = load_matrix_edge(space, p)
        assert a.shape[0] <= 200
        r = schur_dual_gram(load, a)
        for _ in range(5):
            f = rng.standard_normal(load.shape[0])
            via_gram = np.sqrt(f @ r @ f)
            via_solve = dual_norm_oracle(f, load, a)
            assert abs(via_gram - via_solve) < 1e-11 * max(1.0, via_solve)


def oracle_saturation(spec):
    """(mu, dim_H, dim_V, dim_F) through the sparse-LU dual Grams."""
    stiff_fine, load_fine = _build_pair(spec, spec.r)
    stiff_mid, load_mid = _build_pair(spec, spec.q)
    value, _, _ = dense_oracle(
        schur_dual_gram(load_fine, stiff_fine),
        schur_dual_gram(load_mid, stiff_mid),
    )
    return (float(np.sqrt(value)), stiff_fine.shape[0], stiff_mid.shape[0],
            load_fine.shape[0])


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_dual_gram_matches_sparse_oracle(name):
    for p, degree in ((1, 2), (2, 2), (3, 3), (4, 8), (6, 13), (8, 24)):
        spec = spec_for(name, p, degree, degree)
        stiffness, load = _build_pair(spec, degree)
        expect = schur_dual_gram(load, stiffness)
        got = dual_gram(spec, degree)
        assert got.shape == expect.shape
        assert np.linalg.norm(got - expect) <= 1e-10 * np.linalg.norm(expect)


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_saturation_matches_sparse_oracle(name):
    # (3, 6, 6) has q = r; (2, 2, 5) and (4, 4, 8) have p = q, which leaves
    # the coarse space too small for the loads of some problems: then both
    # routes must reject the problem as ill posed
    for p, q, r in ((2, 5, 10), (4, 8, 16), (3, 6, 6), (2, 2, 5), (4, 4, 8)):
        spec = spec_for(name, p, q, r)
        try:
            mu, dim_h, dim_v, dim_f = oracle_saturation(spec)
        except NumericalError:
            with pytest.raises(NumericalError, match="ill-posed"):
                saturation_coefficient(spec)
            continue
        res = saturation_coefficient(spec)
        assert (res.dim_H, res.dim_V, res.dim_F) == (dim_h, dim_v, dim_f)
        assert abs(res.mu - mu) <= 1e-10


#: (p, q, r) per family: a dense order, then Lanczos orders plain, with
#: q = r and with p = q
EIGEN_CASES = {
    "A": ((3, 6, 12), (12, 16, 32), (12, 16, 16), (12, 12, 24)),
    "B": ((12, 16, 32), (104, 112, 128), (104, 112, 112), (104, 104, 120)),
    "C": ((12, 16, 32), (104, 112, 128), (104, 112, 112), (104, 104, 120)),
}


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_top_eigenpair_matches_dense_oracle(name):
    family = CANONICAL_PROBLEMS[name][0]
    lanczos = []
    for p, q, r in EIGEN_CASES[family]:
        spec = spec_for(name, p, q, r)
        r_fine = dual_gram(spec, r)
        r_mid = dual_gram(spec, q)
        lanczos.append(r_fine.shape[0] > _DENSE_ORDER)
        try:
            expect, _, expect_tie = dense_oracle(r_fine, r_mid)
        except NumericalError:
            with pytest.raises(NumericalError, match="ill-posed"):
                max_generalized_eigenvalue(r_fine, r_mid)
            continue
        # every volume problem leaves the p = q coarse space too small
        assert not (family == "A" and p == q)
        value, maximizer, tie = max_generalized_eigenvalue(r_fine, r_mid)
        assert abs(value - expect) <= 1e-12 * expect
        assert tie == expect_tie == (q == r)
        quotient = (maximizer @ r_fine @ maximizer) / (maximizer @ r_mid @ maximizer)
        assert abs(quotient - value) <= 1e-12 * value
    assert lanczos == [False, True, True, True]


def tied(tops):
    """The tie flag of ``_max_over_blocks`` over the block tops ``tops``."""
    tops = sorted(tops)
    return len(tops) >= 2 and tops[-1] - tops[-2] <= 1e-12 * max(1.0, tops[-1])


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_formed_pencils_match_lanczos_on_the_same_pair(name):
    family = CANONICAL_PROBLEMS[name][0]
    checked = 0
    for p, q, r in EIGEN_CASES[family]:
        spec = spec_for(name, p, q, r)
        blocks = [block for block in _spec_blocks(spec) if block.copies]
        fine, mid = (triples(blocks, *_sides(spec, degree, {}))
                     for degree in (r, q))
        trace = _gram_trace(blocks, mid)
        dense_tops, lanczos_tops, whole = [], [], True
        for block, formed, product, bottom in zip(
                blocks, _grams(blocks, fine), _products(blocks, fine),
                _grams(blocks, mid)):
            n = block.index.size
            whole &= n <= _DENSE_ORDER
            if n > _DENSE_ORDER:
                continue
            try:
                factor = _denominator_factor(bottom, trace, 0.0)
            except NumericalError:
                whole = False
                continue
            values, maximizer = _top_of_pencil(formed, factor)
            solve = _lower_solver(factor)
            if n > 2:
                expect, _ = _top_eigenpairs(
                    lambda y: solve(product(solve(y, 1)), 0), n, 2)
            else:
                expect = scipy.linalg.eigvalsh(formed, bottom)[-2:]
            assert values.size == expect.size == min(2, n)
            assert np.all(np.abs(values - expect) <= 1e-12 * expect[-1]), (
                spec, block.x, block.y)
            quotient = ((maximizer @ formed @ maximizer)
                        / (maximizer @ bottom @ maximizer))
            assert abs(quotient - expect[-1]) <= 1e-12 * expect[-1]
            dense_tops.extend(values.tolist() * block.copies)
            lanczos_tops.extend(expect.tolist() * block.copies)
            checked += 1
        assert tied(dense_tops) == tied(lanczos_tops), spec
        if whole:
            assert tied(dense_tops) == (q == r), spec
    assert checked


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_q_equals_r_ties_at_one_on_the_dense_route(monkeypatch, name):
    def no_lanczos(*args, **kwargs):
        raise AssertionError("a Lanczos run")

    monkeypatch.setattr(refsat.coefficients, "_top_eigenpairs", no_lanczos)
    spec = spec_for(name, 6, 12, 12)
    assert max(block_orders(spec)) <= _DENSE_ORDER
    res = saturation_coefficient(spec)
    assert abs(res.mu - 1.0) <= 1e-12
    assert res.tie


def test_modes_diagonalize_the_1d_pencil():
    bases = [
        build_basis_1d("integrated_legendre", BoundaryCondition1D(True, False), 9),
        build_basis_1d("integrated_legendre", BoundaryCondition1D(), 9),
        build_basis_1d("mean_zero", r=9),
    ]
    for basis in bases:
        lam, vec = _modes(basis)
        mass, stiff = gram_matrices(basis, basis)
        assert np.allclose(vec.T @ mass @ vec, np.eye(lam.size), atol=1e-12)
        assert np.allclose(vec.T @ stiff @ vec, np.diag(lam), atol=1e-10)
    # the constant mode of the mean-zero family is exact, not a roundoff value
    assert lam[0] == 0.0
    assert np.count_nonzero(vec[0]) == 1 and np.count_nonzero(vec[:, 0]) == 1


#: the five (kind, bc) pairs of the 1D factor bases; the mean-zero basis
#: and the free-free one share the factor ``factor_classes(bc, degree)``
FACTOR_KINDS = [("integrated_legendre", BoundaryCondition1D(left, right))
                for left in (False, True) for right in (False, True)]
FACTOR_KINDS.append(("mean_zero", BoundaryCondition1D()))


def test_parity_classes_merge_to_the_unsplit_modes():
    # every degree up to 64, then every 32nd up to 256 (all 256 degrees
    # take about 15 s)
    degrees = [*range(1, 65), *range(96, 257, 32)]
    for kind, bc in FACTOR_KINDS:
        symmetric = kind == "mean_zero" or bc.dirichlet_at_minus1 == bc.dirichlet_at_plus1
        for degree in degrees:
            if bc.dirichlet_at_minus1 and bc.dirichlet_at_plus1 and degree < 2:
                continue
            basis = build_basis_1d(kind, bc, degree)
            lam, _ = _modes(basis)
            classes = _classes(basis)
            assert len(classes) == (2 if symmetric else 1)
            merged = np.sort(np.concatenate([c.lam for c in classes]))
            assert merged.shape == lam.shape
            # the unsplit free-free pencil drifts beyond degree 112, up to
            # 5e-12 of the top at 256; against the eigenvalues of the exact
            # Grams in 40-digit arithmetic the classes are the closer ones
            # (3e-14 against 1.4e-13 of the top at degree 40, 4.5e-13
            # against 1.2e-12 at degree 128)
            free = kind == "integrated_legendre" and not bc.dirichlet_at_minus1 \
                and not bc.dirichlet_at_plus1
            tol = 1e-11 if free and degree > 112 else 1e-12
            assert np.max(np.abs(merged - lam)) <= tol * lam.max(), (kind, bc, degree)
            for parity, part in enumerate(classes):
                if symmetric:
                    assert np.array_equal(part.probes % 2, np.full(part.probes.size, parity))
                assert part.loads.shape == (part.probes.size, part.lam.size)


def test_only_the_mean_zero_constant_mode_is_set_up_exactly():
    # the odd class has no constant: its lowest mode is a sine-like one
    even, odd = _classes(build_basis_1d("mean_zero", r=9))
    assert even.lam[0] == 0.0 and np.count_nonzero(even.lam == 0.0) == 1
    assert np.all(odd.lam > 1.0)


def test_1d_factors_match_a_40_digit_reference():
    # the dense pencils are 8.9e-13 off on the resolvent Gram at degree 48.
    # The least accurate eigenvalue here is the top one of the one-end
    # chain (1.3e-12 at degree 16; the pencils: 2.3e-13); its weight
    # 1 / (lambda + mu) is of order 1e-8
    for kind, bc in FACTOR_KINDS:
        for degree in (8, 16, 24, 48):
            classes = factor_classes(bc, degree)
            reference = reference_classes(kind, bc, degree)
            assert len(classes) == len(reference)
            scale = max(np.max(np.abs(gram)) for _, gram in reference)
            for part, (lam, gram) in zip(classes, reference):
                got = (part.loads / (part.lam + 1.0)) @ part.loads.T
                assert np.max(np.abs(got - gram[:-1, :-1])) <= 1e-14 * np.max(
                    np.abs(gram)), (kind, bc, degree)
                # the constant mode: exactly 0 here, 0 to 40 digits there
                assert np.all(np.abs(np.sort(part.lam) - lam)
                              <= 1e-11 * np.abs(lam) + 1e-30), (kind, bc, degree)
            # the trace rows of the classes sum to the edge weight at mu = 1
            edge = _edge_weights(bc, degree, np.ones(1))[0]
            expect = sum(gram[-1, -1] for _, gram in reference)
            assert abs(edge - expect) <= 1e-14 * scale, (kind, bc, degree)


def test_chain_classes_match_the_pencil_oracle():
    for kind, bc in FACTOR_KINDS:
        free = kind == "mean_zero" or not (
            bc.dirichlet_at_minus1 or bc.dirichlet_at_plus1)
        for degree in range(1, 65):
            if bc.dirichlet_at_minus1 and bc.dirichlet_at_plus1 and degree < 2:
                with pytest.raises(ValueError, match="empty"):
                    factor_classes(bc, degree)
                continue
            classes = factor_classes(bc, degree)
            expect = _classes(build_basis_1d(kind, bc, degree))
            assert len(classes) == len(expect)
            top = max(part.lam.max() for part in expect if part.lam.size)
            for parity, (part, oracle) in enumerate(zip(classes, expect)):
                assert np.array_equal(part.probes, oracle.probes)
                assert part.loads.shape == oracle.loads.shape
                lam = np.sort(part.lam)
                error = np.abs(lam - np.sort(oracle.lam))
                assert np.max(error, initial=0.0) <= 1e-11 * top
                # only the constant of the free factors has lambda = 0, exactly
                assert np.count_nonzero(lam == 0.0) == (free and parity == 0)
                # the others are at least (pi / 4)^2, the lowest of -u'' = lambda u
                assert np.all(lam[lam != 0.0] > 0.6)
                got, want = ((f.loads / (f.lam + 1.0)) @ f.loads.T
                             for f in (part, oracle))
                assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
            # the traces, which the factor no longer carries, as edge weights
            edge = _edge_weights(bc, degree, np.ones(1))
            want = oracle_edge_weights(expect, np.ones(1))
            assert np.all(np.abs(edge - want) <= 1e-11 * want), (kind, bc, degree)


#: the x basis of each edge-load problem's factor oracle: the quotient
#: problem's free x factor stands for the mean-zero basis
EDGE_KINDS = {name: "mean_zero" if name == "C" else "integrated_legendre"
              for name in ("F1", "F2", "F3", "F4", "C")}


def edge_cases(name, degrees):
    """(spec at degree, x conditions, the edge weights and mu of each y class)."""
    for degree in degrees:
        spec = spec_for(name, 1, degree, degree)
        (bc_x, _), (bc_y, _) = _factor_args(spec, degree)
        if bc_y.dirichlet_at_minus1 and bc_y.dirichlet_at_plus1 and degree < 2:
            with pytest.raises(ValueError, match="empty"):
                _sides(spec, degree, {})
            continue
        xs, ys = _sides(spec, degree, {})
        assert len(xs) == len(ys)
        yield spec, bc_x, [(edge, fy.lam) for edge, fy in zip(xs, ys)]


@pytest.mark.parametrize("name", list(EDGE_KINDS))
def test_resolvent_edge_weights_match_the_eigen_route(name):
    for spec, bc_x, pairs in edge_cases(name, range(1, 65)):
        oracle = _classes(build_basis_1d(EDGE_KINDS[name], bc_x, spec.r))
        for edge, mu in pairs:
            expect = oracle_edge_weights(oracle, mu, quotient=name == "C")
            assert np.all(np.abs(edge - expect) <= 1e-11 * expect), (name, spec.r)


@pytest.mark.parametrize("name", list(EDGE_KINDS))
def test_resolvent_edge_weights_match_a_40_digit_solve(name):
    # at degree 48 the eigen route is up to 7.6e-13 off (F3), the resolvent
    # up to 9.7e-14
    for spec, bc_x, pairs in edge_cases(name, (16, 48)):
        for edge, mu in pairs:
            expect = reference_edge_weights(EDGE_KINDS[name], bc_x, spec.r, mu,
                                            quotient=name == "C")
            assert np.all(np.abs(edge - expect) <= 1e-11 * expect), (name, spec.r)


def unsplit_cases(name):
    """(p, q, r) at p = 0, 1, 8 plain and with q = r, and p = q at 2 and 8
    (a Dirichlet-Dirichlet factor of degree q < 2 is empty)."""
    family = CANONICAL_PROBLEMS[name][0]
    low = (1, 2) if family == "C" else (0, 1)
    cases = [(2, 2, 7), (8, 8, 13)]
    for p in (*low, 8):
        cases += [(p, p + 3, 2 * p + 6), (p, p + 4, p + 4)]
    return cases


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_block_route_matches_the_unsplit_oracle(name):
    for p, q, r in unsplit_cases(name):
        spec = spec_for(name, p, q, r)
        try:
            expect, _, expect_tie, _, r_fine, r_mid = unsplit_saturation(spec)
        except NumericalError:
            with pytest.raises(NumericalError, match="ill-posed"):
                saturation_coefficient(spec)
            continue
        res = saturation_coefficient(spec)
        assert abs(res.mu - np.sqrt(expect)) <= 1e-12, (name, p, q, r)
        assert res.tie is expect_tie
        assert res.dim_F == res.maximizer.size == r_fine.shape[0]
        f = res.maximizer
        quotient = (f @ r_fine @ f) / (f @ r_mid @ f)
        assert abs(quotient - res.mu_squared) <= 1e-12 * res.mu_squared
        assert res.residual < 1e-12


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_dual_gram_blocks_match_the_unsplit_oracle(name):
    family = CANONICAL_PROBLEMS[name][0]
    for p, degree in ((1, 2), (2, 5), (4, 8), (8, 8), (8, 16)):
        spec = spec_for(name, p, degree, degree)
        space = _space(spec, degree)
        if family == "C":
            fx = fy = _factor(space.basis)
        else:
            fx, fy = _factor(space.basis_x), _factor(space.basis_y)
        xs, ys = _sides(spec, degree, {})
        expect = contract(spec, fx, fy)
        got = dual_gram(spec, degree)
        assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)
        blocks = _spec_blocks(spec)
        pairs = triples(blocks, xs, ys)
        parts = list(_grams(blocks, pairs))
        assert tuple(part.shape[0] for part in parts) == block_orders(spec)
        assert sum(part.shape[0] for part in parts) == expect.shape[0]
        for part in parts:
            assert np.linalg.norm(part - part.T) <= 1e-14 * np.linalg.norm(part)
        trace = sum(np.trace(part) for part in parts)
        assert abs(_gram_trace(blocks, pairs) - trace) <= 1e-14 * trace
        assert abs(trace - np.trace(expect)) <= 1e-12 * trace


def test_split_gram_is_closer_to_the_sparse_oracle_than_the_unsplit_one():
    # the unsplit free-free factor drifts with the degree; the parity
    # classes do not
    spec = spec_for("E1", 8, 24, 24)
    stiffness, load = _build_pair(spec, 24)
    lu = schur_dual_gram(load, stiffness)
    space = _space(spec, 24)
    split = dual_gram(spec, 24)
    unsplit = contract(spec, _factor(space.basis_x), _factor(space.basis_y))
    assert np.linalg.norm(split - lu) <= 1e-13 * np.linalg.norm(lu)
    assert np.linalg.norm(split - lu) <= np.linalg.norm(unsplit - lu)


def test_block_counts_follow_the_symmetries():
    orders = {name: block_orders(spec_for(name, 4, 8, 16))
              for name in CANONICAL_PROBLEMS}
    assert orders["E1"] == orders["E4"] == (15, 10)  # one parity split
    assert orders["E2"] == (15, 10)  # swap: n(n + 1)/2 and n(n - 1)/2
    assert orders["E3"] == orders["E5"] == (9, 6, 6, 4)
    assert orders["F1"] == orders["F3"] == (5,)
    assert orders["F2"] == orders["F4"] == (3, 2)
    assert orders["C"] == (2, 2)
    # p = 0 has no odd probe: the blocks that need one are left out
    assert block_orders(spec_for("E3", 0, 2, 4)) == (1,)
    assert block_orders(spec_for("E2", 0, 2, 4)) == (1,)


def operator_pairs(pairs):
    """(r_top, r_bottom) matrix pairs as the blocks ``_max_over_blocks``
    takes: both as matrices, each block counted once, with no lower bound
    on its smallest eigenvalue, so that the estimate checks it."""
    return [(top, bottom, 1, 0.0) for top, bottom in pairs]


def frobenius(pairs):
    return np.sqrt(sum(np.linalg.norm(top) ** 2 for top, _ in pairs))


def test_pd_floor_compares_each_block_with_the_whole_trace():
    top = np.diag([2.0, 1.0])
    big = 100.0 * np.eye(2)
    # lambda_min/trace is 1e-11 on its own trace, 5e-14 on the whole
    small = np.diag([1.0, 1e-11])
    pairs = [(top, small)]
    value, tie, index, _, _ = _max_over_blocks(
        operator_pairs(pairs), np.trace(small), frobenius(pairs))
    assert (value, tie, index) == (pytest.approx(1e11), False, 0)
    whole = np.trace(big) + np.trace(small)
    pairs = [(top, big), (top, small)]
    with pytest.raises(
        NumericalError,
        match=r"ill-posed.*lambda_min/trace 4\.975e-14 is under the floor 1e-12",
    ):
        _max_over_blocks(operator_pairs(pairs), whole, frobenius(pairs))


def test_top_values_and_tie_are_taken_over_all_blocks():
    # the top two values sit in different blocks: a tie across blocks
    pairs = [(np.diag([3.0, 1.0]), np.eye(2)), (np.diag([3.0, 2.0]), np.eye(2))]
    value, tie, index, maximizer, residual = _max_over_blocks(
        operator_pairs(pairs), 4.0, frobenius(pairs))
    assert value == pytest.approx(3.0) and tie and index == 0
    assert residual < 1e-15
    pairs[1] = (np.diag([2.5, 2.0]), np.eye(2))
    value, tie, index, _, _ = _max_over_blocks(
        operator_pairs(pairs), 4.0, frobenius(pairs))
    assert not tie and index == 0


def published_cells(max_p=None):
    """The distinct published (problem, p, q, r) cells, up to ``max_p``."""
    return sorted({(entry.problem, entry.p, entry.q, entry.r)
                   for entry in load_published_table()
                   if max_p is None or entry.p <= max_p})


def coarse_floors(name, p, q, r, factors):
    """(spec, solved blocks, x side and y classes at q, their floors)."""
    spec = spec_for(name, p, q, r)
    blocks = [block for block in _spec_blocks(spec) if block.copies]
    xs, ys = _sides(spec, q, factors)
    return spec, blocks, xs, ys, _gram_floors(blocks, triples(blocks, xs, ys))


def test_block_floors_bound_the_smallest_eigenvalue():
    cases = [(name, *degrees) for name in CANONICAL_PROBLEMS
             for degrees in EIGEN_CASES[CANONICAL_PROBLEMS[name][0]]]
    factors, singular = {}, 0
    for name, p, q, r in cases + published_cells(max_p=16):
        spec, blocks, xs, ys, floors = coarse_floors(name, p, q, r, factors)
        for floor, gram in zip(floors, _grams(blocks, triples(blocks, xs, ys))):
            lowest = scipy.linalg.eigvalsh(gram)[0]
            # eigvalsh is backward stable: an exactly singular block reads
            # an eigenvalue of either sign at the rounding level
            slack = gram.shape[0] * np.finfo(float).eps * np.trace(gram)
            assert 0.0 <= floor <= lowest + slack, (name, p, q, r)
            if p == q and np.linalg.matrix_rank(gram) < gram.shape[0]:
                singular += 1
                assert floor == 0.0, (name, p, q, r)
    # the p = q cases of E1..E5, F1, F3 and F4 have singular blocks
    assert singular == 17


#: the mu of each published cell in full precision, in table order
PINNED_MU = Path(__file__).parent / "data" / "table_mu.txt"


def pinned_cells():
    """(problem, strategy, p, q, r, mu) of each line of ``PINNED_MU``."""
    for raw in PINNED_MU.read_text().splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            yield line[0], line[1], *map(int, line[2:5]), float(line[5])


def test_published_mu_match_the_pinned_values_to_1e10():
    cells = list(pinned_cells())
    assert [cell[:5] for cell in cells] == [
        (entry.problem, entry.strategy, entry.p, entry.q, entry.r)
        for entry in load_published_table()]
    factors, checked = {}, 0
    for name, _, p, q, r, mu in cells:
        if p <= 16:
            got = saturation_coefficient(spec_for(name, p, q, r), factors).mu
            assert abs(got - mu) <= 1e-10 * mu, (name, p, q, r)
            checked += 1
    assert checked == 96


def test_every_published_block_is_certified_definite(monkeypatch):
    def no_block(*args):
        raise AssertionError("a coarse block was formed")

    monkeypatch.setattr(refsat.coefficients, "_volume_gram", no_block)
    monkeypatch.setattr(refsat.coefficients, "_swap_grams", no_block)
    factors = {}
    cells = published_cells()
    assert len(cells) == 145
    for name, p, q, r in cells:
        spec, blocks, xs, ys, floors = coarse_floors(name, p, q, r, factors)
        every = _spec_blocks(spec)
        trace = _gram_trace(every, triples(every, xs, ys))
        rounding = (q + 1) ** 2 * np.finfo(float).eps
        assert min(floors) >= (_PD_FLOOR + rounding) * trace, (name, p, q, r)


def test_certified_blocks_skip_the_inverse_eigensolve(monkeypatch):
    calls = []
    lowest = refsat.coefficients._lowest_eigenvalue

    def counting(r_bottom, factor):
        calls.append(r_bottom.shape[0])
        return lowest(r_bottom, factor)

    monkeypatch.setattr(refsat.coefficients, "_lowest_eigenvalue", counting)
    # Lanczos blocks (E1, E2) and a dense one (F1, of order 65)
    for name, p, q, r in (("E1", 28, 32, 64), ("E2", 28, 32, 64),
                          ("F1", 64, 128, 256)):
        res = saturation_coefficient(spec_for(name, p, q, r))
        assert res.mu > 1.0 and calls == [], name
    # the whole messages; only the numbers that rounding decides are free
    ill_posed = (
        r"^denominator dual Gram is numerically singular; the coarse space "
        r"cannot represent all functionals \(ill-posed quotient\): ")
    with pytest.raises(NumericalError, match=ill_posed + (
            r"its Cholesky factorization failed \(\d+-th leading minor of "
            r"the array is not positive definite\), so lambda_min/trace is "
            r"at or below roundoff, under the floor 1e-12$")):
        saturation_coefficient(spec_for("E5", 4, 4, 8))
    # a singular block that factors has floor 0: the estimate rejects it
    with pytest.raises(NumericalError, match=ill_posed + (
            r"estimated lambda_min/trace \S+e-\d+ is under the floor "
            r"1e-12$")):
        saturation_coefficient(spec_for("F1", 4, 4, 8))
    assert calls == [5]


def test_stages_time_the_three_stages():
    res = saturation_coefficient(spec_for("E3", 4, 8, 16))
    assert set(res.stages) == {"factors", "grams", "eigensolve"}
    assert all(seconds >= 0.0 for seconds in res.stages.values())
    assert sum(res.stages.values()) <= res.wall_seconds


#: (p, degree) of the fine operators: p = 0 (no odd probe), p = degree,
#: a dense order and Lanczos orders
PRODUCT_CASES = ((0, 3), (1, 2), (5, 5), (4, 8), (8, 24), (14, 16))


def fine_blocks(name):
    """(spec, blocks, classes at degree) over the ``PRODUCT_CASES``."""
    for p, degree in PRODUCT_CASES:
        if CANONICAL_PROBLEMS[name][0] == "C" and p == 0:
            continue
        spec = spec_for(name, p, degree, degree)
        yield spec, _spec_blocks(spec), *_sides(spec, degree, {})


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_fine_products_match_the_formed_blocks(name):
    rng = np.random.default_rng(7)
    for spec, blocks, xs, ys in fine_blocks(name):
        pairs = triples(blocks, xs, ys)
        for block, apply, gram in zip(blocks, _products(blocks, pairs),
                                      _grams(blocks, pairs)):
            n = gram.shape[0]
            vector = rng.standard_normal(n)
            columns = rng.standard_normal((n, 3))
            for v in (vector, columns, np.eye(n)):
                got = apply(v)
                assert got.shape == v.shape
                expect = gram @ v
                assert (np.linalg.norm(got - expect)
                        <= 1e-13 * np.linalg.norm(expect)), (spec, block.x, block.y)


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_factored_norm_matches_the_formed_grams(name):
    for spec, blocks, xs, ys in fine_blocks(name):
        expect = np.linalg.norm(dual_gram(spec, spec.r))
        pairs = triples(blocks, xs, ys)
        parts = np.sqrt(sum(np.linalg.norm(part) ** 2
                            for part in _grams(blocks, pairs)))
        got = _gram_norm(blocks, pairs)
        assert abs(got - expect) <= 1e-13 * expect
        assert abs(got - parts) <= 1e-13 * parts


def test_blas_solves_match_solve_triangular():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    factor = scipy.linalg.cholesky(a @ a.T + 40.0 * np.eye(40), lower=True)
    for y in (rng.standard_normal(40), rng.standard_normal((40, 5))):
        for trans in (0, 1):
            expect = scipy.linalg.solve_triangular(factor, y, lower=True,
                                                   trans=trans)
            got = _lower_solver(factor)(y, trans)
            assert got.shape == y.shape
            assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)


def summed_gram(wx, wy, weights):
    """A class pair's dual Gram with the x side contracted last, as
    xx @ (weights @ yy) over the squared load rows of both sides."""
    (nx, mx), (ny, my) = wx.shape, wy.shape
    xx = (wx[:, np.newaxis, :] * wx).reshape(nx * nx, mx)
    yy = (wy.T[:, :, np.newaxis] * wy.T[:, np.newaxis, :]).reshape(my, ny * ny)
    t = (xx @ (weights @ yy)).reshape(nx, nx, ny, ny)
    return t.transpose(0, 2, 1, 3).reshape(nx * ny, nx * ny)


def test_edge_blocks_are_the_weighted_y_products_bitwise():
    # with the 1 x 1 identity for Wx the coarse block is Wy diag(e) Wy^T
    # exactly, so an exactly singular block (F1 at p = q) rounds as before
    empty = 0
    for name in ("F1", "F2", "F3", "F4", "C"):
        for degree in (2, 8, 64, 256):
            spec = spec_for(name, degree, degree, degree)
            xs, ys = _sides(spec, degree, {})
            blocks = _spec_blocks(spec)
            assert len(blocks) == len(ys)
            for block, (wx, wy, weights) in zip(blocks, triples(blocks, xs, ys)):
                assert np.array_equal(wx, np.eye(1))
                empty += wy.shape[1] == 0
                expect = (wy * xs[block.y]) @ wy.T
                assert np.array_equal(_volume_gram(wx, wy, weights), expect), (
                    name, degree, block.y)
    # the odd class of F4's Dirichlet-Dirichlet y factor at degree 2
    assert empty == 1


def test_volume_blocks_match_the_x_first_contraction():
    for name in ("E1", "E2", "E3", "E4", "E5"):
        for p, degree in ((2, 2), (8, 8), (16, 64)):
            spec = spec_for(name, p, degree, degree)
            xs, ys = _sides(spec, degree, {})
            blocks = _spec_blocks(spec)
            for block, triple in zip(blocks, triples(blocks, xs, ys)):
                expect = summed_gram(*triple)
                got = _volume_gram(*triple)
                assert (np.linalg.norm(got - expect)
                        <= 1e-14 * np.linalg.norm(expect)), (name, degree)


def test_saturation_forms_no_fine_block_above_the_dense_order(monkeypatch):
    formed = []
    volume, swap = refsat.coefficients._volume_gram, refsat.coefficients._swap_grams

    def counting_volume(wx, wy, weights):
        gram = volume(wx, wy, weights)
        formed.append((weights.shape, gram.shape[0]))
        return gram

    def counting_swap(wx, weights, blocks):
        grams = swap(wx, weights, blocks)
        formed.extend((weights.shape, gram.shape[0]) for gram in grams)
        return grams

    monkeypatch.setattr(refsat.coefficients, "_volume_gram", counting_volume)
    monkeypatch.setattr(refsat.coefficients, "_swap_grams", counting_swap)
    # every block is above the dense order here: one coarse product per
    # parity block, one per pair of swap blocks, and no fine one
    for name, orders in (("E1", [435, 406]), ("E2", [435, 406])):
        spec = spec_for(name, 28, 32, 64)
        xs, ys = (factor_classes(*args) for args in _factor_args(spec, spec.q))
        coarse = {(fx.lam.size, fy.lam.size) for fx in xs for fy in ys}
        formed.clear()
        saturation_coefficient(spec)
        assert [order for _, order in formed] == orders, name
        assert {shape for shape, _ in formed} <= coarse, name
    # small blocks are formed on both sides, each solved block once; E5
    # does not form its mirror block
    for name, solved in (("E1", 2), ("E2", 2), ("E3", 4), ("E4", 2), ("E5", 3)):
        spec = spec_for(name, 4, 8, 16)
        xs, ys = (factor_classes(*args) for args in _factor_args(spec, spec.r))
        fine = {(fx.lam.size, fy.lam.size) for fx in xs for fy in ys}
        formed.clear()
        saturation_coefficient(spec)
        assert len(formed) == 2 * solved, name
        assert sum(shape in fine for shape, _ in formed) == solved, name
        assert all(order <= _DENSE_ORDER for _, order in formed), name


def test_e5_counts_its_mirror_block_twice():
    spec = spec_for("E5", 6, 8, 16)
    blocks = _spec_blocks(spec)
    assert [block.copies for block in blocks] == [1, 2, 0, 1]
    assert block_orders(spec) == (16, 12, 12, 9)
    # the mirror pencil has the spectrum of the solved one
    spectra = []
    for index in (1, 2):
        block = [blocks[index]]
        fine, mid = (list(_grams(block, triples(block, *(
            factor_classes(*args) for args in _factor_args(spec, degree)))))[0]
            for degree in (spec.r, spec.q))
        spectra.append(scipy.linalg.eigvalsh(fine, mid))
    assert np.allclose(spectra[0], spectra[1], rtol=1e-12, atol=0.0)
    res = saturation_coefficient(spec)
    assert res.dim_F == res.maximizer.size == sum(block_orders(spec))
    # a block counted twice ties with itself
    top = np.diag([2.0, 1.0])
    value, tie, _, _, _ = _max_over_blocks(
        [(top, np.eye(2), 2, 0.0)], 2.0,
        np.sqrt(2.0) * np.linalg.norm(top))
    assert value == pytest.approx(2.0) and tie


def probe_load_gram(basis, p, vec):
    """Load Gram of the Legendre probes up to degree p in the modes ``vec``,
    by the probe mass matrix: the oracle of the closed form in ``_factor``."""
    probes = build_basis_1d("legendre", r=p)
    return gram_matrices(probes, basis)[0] @ vec


def test_closed_form_load_gram_matches_probe_products():
    kinds = [("integrated_legendre", BoundaryCondition1D(left, right))
             for left in (False, True) for right in (False, True)]
    kinds.append(("mean_zero", BoundaryCondition1D()))
    for kind, bc in kinds:
        for degree in range(1, 65):
            if bc.dirichlet_at_minus1 and bc.dirichlet_at_plus1 and degree < 2:
                continue
            basis = build_basis_1d(kind, bc, degree)
            factor = _factor(basis)
            lam, vec = _modes(basis)
            assert np.array_equal(factor.lam, lam)
            assert factor.loads.shape == (degree + 1, basis.n_functions)
            for p in range(degree + 1):
                expect = probe_load_gram(basis, p, vec)
                assert np.max(np.abs(factor.loads[: p + 1] - expect)) <= 1e-14, (
                    kind, bc, degree, p)
            assert np.max(np.abs(
                factor.trace - boundary_trace(basis, 1.0) @ vec)) <= 1e-14


def test_dual_gram_rejects_loads_above_the_space_degree():
    spec = spec_for("F1", 5, 6, 8)
    with pytest.raises(ValueError, match="exceeds the space degree 4"):
        dual_gram(spec, 4)


def test_failed_1d_eigensolve_is_a_numerical_error():
    # a zero member makes the 1D mass matrix singular
    good = build_basis_1d("integrated_legendre", r=4)
    degenerate = Basis1D(
        kind="integrated_legendre",
        coefficients=np.vstack([good.coefficients, np.zeros(5)]),
    )
    with pytest.raises(NumericalError, match="eigensolve"):
        _classes(degenerate)


def test_published_spot_values():
    assert abs(saturation_coefficient(spec_for("E1", 4, 8, 16)).mu - 1.0017) < 2e-4
    assert abs(saturation_coefficient(spec_for("F1", 4, 8, 16)).mu - 1.0295) < 2e-4
    assert abs(saturation_coefficient(spec_for("C", 4, 8, 16)).mu - 1.0013) < 2e-4


def test_ill_posed_coarse_space_is_rejected():
    # with q = p the all-edges space has fewer functions than functionals,
    # so some functionals have zero coarse dual norm and the quotient blows up
    with pytest.raises(NumericalError, match="ill-posed"):
        saturation_coefficient(spec_for("E5", 4, 4, 8))


def test_mu_is_one_when_spaces_coincide():
    for name in ("E3", "F2", "C"):
        res = saturation_coefficient(spec_for(name, 3, 7, 7))
        assert abs(res.mu - 1.0) < 1e-10
        assert res.dim_V == res.dim_H


def test_random_specs_satisfy_result_contract():
    rng = np.random.default_rng(41)
    names = list(CANONICAL_PROBLEMS)
    for _ in range(15):
        name = names[rng.integers(len(names))]
        p = int(rng.integers(1, 5))
        # q >= p + 2 keeps the coarse dual Gram nonsingular for every family
        q = p + 2 + int(rng.integers(0, 3))
        r = q + int(rng.integers(0, 5))
        res = saturation_coefficient(spec_for(name, p, q, r))
        assert res.mu >= 1.0 - 1e-10
        assert res.residual < 1e-9
        assert res.dim_V <= res.dim_H
        assert res.dim_F == res.maximizer.size
        assert res.wall_seconds >= 0.0


def test_monotonicity_in_q_and_r():
    for name in ("E2", "F1"):
        by_q = [saturation_coefficient(spec_for(name, 3, q, 12)).mu for q in (4, 6, 8)]
        assert by_q[0] >= by_q[1] - 1e-10
        assert by_q[1] >= by_q[2] - 1e-10
        by_r = [saturation_coefficient(spec_for(name, 3, 6, r)).mu for r in (6, 8, 12)]
        assert abs(by_r[0] - 1.0) < 1e-10
        assert by_r[1] <= by_r[2] + 1e-10


def test_volume_problems_respect_square_symmetries():
    def mu_for(edges):
        return saturation_coefficient(
            ProblemSpec(family="A", edges=frozenset(edges), p=3, q=5, r=8)
        ).mu

    singles = [mu_for({e}) for e in (1, 2, 3, 4)]
    assert max(singles) - min(singles) < 1e-8
    adjacent = [mu_for(s) for s in ({1, 2}, {2, 3}, {3, 4}, {1, 4})]
    assert max(adjacent) - min(adjacent) < 1e-8
    opposite = [mu_for(s) for s in ({1, 3}, {2, 4})]
    assert max(opposite) - min(opposite) < 1e-8


def test_problem_spec_validation():
    with pytest.raises(ValueError):
        ProblemSpec(family="D", edges=frozenset({1}), p=2, q=3, r=4)
    with pytest.raises(ValueError):
        ProblemSpec(family="A", edges=frozenset({1}), p=5, q=3, r=4)
    with pytest.raises(ValueError):
        ProblemSpec(family="A", edges=frozenset(), p=2, q=3, r=4)
    with pytest.raises(ValueError):
        ProblemSpec(family="B", edges=frozenset({1, 2}), p=2, q=3, r=4)
    with pytest.raises(ValueError):
        ProblemSpec(family="B", edges=frozenset({4}), p=2, q=3, r=4)
    with pytest.raises(ValueError):
        ProblemSpec(family="C", edges=frozenset({2}), p=2, q=3, r=4)
    with pytest.raises(ValueError):
        ProblemSpec(family="C", edges=None, p=0, q=3, r=4)


def test_problem_spec_takes_only_integer_degrees():
    """A float or bool degree is invalid input, not a traceback from the
    1D factors; numpy integers are degrees."""
    for degrees in ((4.0, 8, 16), (4, 8.0, 16), (4, 8, 16.0), (True, 8, 16),
                    (4, 8, np.float64(16)), (4, 8, np.bool_(True))):
        with pytest.raises(ValueError, match="degrees must be integers"):
            ProblemSpec("A", {1}, *degrees)
    spec = ProblemSpec("A", {1}, np.int64(4), np.int32(8), np.int64(16))
    assert (spec.p, spec.q, spec.r) == (4, 8, 16)
    assert saturation_coefficient(spec).mu == pytest.approx(
        saturation_coefficient(ProblemSpec("A", {1}, 4, 8, 16)).mu, rel=1e-12)


def test_canonical_problem_list():
    assert len(CANONICAL_PROBLEMS) == 10
    assert list(CANONICAL_PROBLEMS) == [
        "E1", "E2", "E3", "E4", "E5", "F1", "F2", "F3", "F4", "C",
    ]
    for name, (family, edges) in CANONICAL_PROBLEMS.items():
        if family == "C":
            assert edges is None
        else:
            assert edges


def test_results_are_deterministic():
    # a dense order and a Lanczos order of the top eigensolve
    for spec in (spec_for("F3", 4, 6, 9), spec_for("E1", 12, 16, 32)):
        first = saturation_coefficient(spec)
        second = saturation_coefficient(spec)
        assert first.mu == second.mu
        assert np.array_equal(first.maximizer, second.maximizer)
