"""Tests for the saturation coefficient machinery.

Published reference values are pinned to 2e-4 here only as spot checks; the
full table comparison lives in the acceptance suite. The eigenvalue and dual
norm routes are cross-checked against independent dense linear algebra, the
top-of-spectrum eigensolve against the full-spectrum oracle in
``dense_eigen_oracle``, and the fast-diagonalization dual Grams against the
sparse-LU oracle in ``sparse_oracle``, the block route (parity classes)
against the unsplit route in ``unsplit_oracle``, E2's class pair solved
whole against its swap blocks in ``gram_oracle``, the Schur route against
the Cholesky route, the Lanczos path on R_q^{-1} R_r against the
standard-form Lanczos of ``unsplit_oracle``, the reorthogonalized Lanczos
against ARPACK in ``arpack_oracle``, and the tridiagonal 1D factors, the
resolvent edge weights and the closed-form load floors against the dense
pencils, the 40-digit mpmath references and the per-class eigensolves in
``pencil_oracle``.
"""

import itertools
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import refsat.coefficients
from arpack_oracle import top_eigenpairs as arpack_top_eigenpairs
from basis_oracle import Basis1D, boundary_trace, build_basis_1d, gram_matrices
from refsat.bases import BoundaryCondition1D
from refsat.cli import load_published_table, main
from dense_eigen_oracle import max_generalized_eigenvalue as dense_oracle
from gram_oracle import (
    embed as swap_embed,
    split_saturation,
    swap_blocks,
    swap_gram,
    swap_grams,
    volume_gram,
)
from pencil_oracle import (
    _classes,
    _factor,
    _modes,
    edge_weights as oracle_edge_weights,
    load_floor as oracle_load_floor,
    reference_classes,
    reference_edge_weights,
    scatter_classes,
)
from refsat.coefficients import (
    _DENSE_ORDER,
    _SCHUR_ORDER,
    CANONICAL_PROBLEMS,
    NumericalError,
    ProblemSpec,
    _class_probes,
    _classes as factor_classes,
    _edge_weights,
    _factor_args,
    _PD_FLOOR,
    _gram_floors,
    _gram_norm,
    _gram_trace,
    _load_floor,
    _max_over_blocks,
    _pair,
    _probe_rows,
    _product,
    _schur_inverse,
    _sides,
    _solve_block,
    _spec_blocks,
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
from route_counts import counts
from schur_oracle import h22_inverse
from unsplit_oracle import (
    block_orders,
    checked_pencil,
    contract,
    diagonal_blocks,
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
    space = tensor_space(CANONICAL_PROBLEMS["E2"][1], 6)
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
        blocks = _spec_blocks(spec)
        fine, mid = (triples(blocks, *_sides(spec, degree, {}))
                     for degree in (r, q))
        trace = _gram_trace(blocks, mid)
        dense_tops, lanczos_tops, whole = [], [], True
        for block, fine_pair, mid_pair in zip(blocks, fine, mid):
            n = block.index.size
            whole &= n <= _DENSE_ORDER
            if n > _DENSE_ORDER:
                continue
            formed, bottom = _volume_gram(*fine_pair), _volume_gram(*mid_pair)
            try:
                values, maximizer, _ = checked_pencil(formed, bottom, trace)
            except NumericalError:
                whole = False
                continue
            if n > 2:
                # the same pair with the fine block as an operator: the
                # Lanczos route, which production takes above the dense order
                expect, _, _ = checked_pencil(_product(*fine_pair), bottom,
                                              trace)
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
                # a parity class does not load the other parity's probes
                if symmetric:
                    assert not part.loads[1 - parity::2].any()
                assert part.loads.shape == (degree + 1, part.lam.size)


def test_gathered_probe_rows_match_the_scattered_load_matrix():
    # every end condition, every degree up to 64 and every 32nd up to 256,
    # at p = 0, 1, about half the degree, and the degree less one and itself
    degrees = [*range(1, 65), *range(96, 257, 32)]
    checked = 0
    for left in (False, True):
        for right in (False, True):
            bc = BoundaryCondition1D(left, right)
            for degree in degrees[1:] if left and right else degrees:
                modes = factor_classes(bc, degree)
                expect = scatter_classes(bc, degree)
                assert len(modes) == len(expect)
                for part, oracle in zip(modes, expect):
                    assert np.array_equal(part.lam, oracle.lam), (bc, degree)
                    for p in sorted({0, 1, degree // 2, degree - 1, degree}):
                        got = _probe_rows(part, p)
                        assert got.lam is part.lam
                        want = oracle.loads[:p + 1]
                        assert got.loads.shape == want.shape, (bc, degree, p)
                        # an exactly zero row, of the other parity, stays zero
                        bound = 1e-14 * np.linalg.norm(want, axis=1)
                        error = np.abs(got.loads - want).max(axis=1, initial=0.0)
                        assert np.all(error <= bound), (bc, degree, p)
                        checked += 1
                if not (left or right):
                    # the constant of the free factor: lambda = 0 and the
                    # load row e_0, exactly
                    even = _probe_rows(modes[0], degree)
                    assert even.lam[0] == 0.0
                    assert np.array_equal(even.loads[:, 0], np.eye(degree + 1)[0])
    assert checked == 2060
    # C with p = 1 at degree 1: the free even chain is empty, and the even
    # class is the constant alone
    spec = spec_for("C", 1, 1, 1)
    _, (even, odd) = _sides(spec, 1, {})
    assert np.array_equal(even.lam, [0.0])
    assert np.array_equal(even.loads, [[1.0], [0.0]])
    assert odd.loads.shape == (2, 1) and odd.loads[0, 0] == 0.0
    assert saturation_coefficient(spec).mu == pytest.approx(1.0)


def test_cells_that_differ_in_p_share_their_chain_eigensolves(monkeypatch):
    solves = counts(monkeypatch.setattr).chains
    factors = {}
    cells = [spec_for("F2", 4, 8, 16), spec_for("F2", 8, 8, 16)]
    results = [saturation_coefficient(spec, factors) for spec in cells]
    # F2's free-free y factor: two parity chains at each of q and r, solved
    # once for both cells, which gather their own probe rows
    assert sorted(solves) == [8, 8, 16, 16]
    free = BoundaryCondition1D()
    for degree in (8, 16):
        for p in (4, 8):
            rows = [len(part.loads) for part in factors[free, degree, p]]
            assert rows == [p + 1] * 2
    # a shared table changes no result
    for spec, result in zip(cells, results):
        alone = saturation_coefficient(spec)
        assert (alone.mu, alone.residual) == (result.mu, result.residual)
        assert np.array_equal(alone.maximizer, result.maximizer)


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
            classes = [_probe_rows(modes, degree)
                       for modes in factor_classes(bc, degree)]
            reference = reference_classes(kind, bc, degree)
            assert len(classes) == len(reference)
            scale = max(np.max(np.abs(gram)) for _, gram in reference)
            for parity, (part, (lam, gram)) in enumerate(zip(classes, reference)):
                # the reference has the rows of the class's own probes
                loads = part.loads[parity::2] if len(classes) == 2 else part.loads
                got = (loads / (part.lam + 1.0)) @ loads.T
                assert np.max(np.abs(got - gram[:-1, :-1])) <= 1e-14 * np.max(
                    np.abs(gram)), (kind, bc, degree)
                # the constant mode: exactly 0 here, 0 to 40 digits there
                assert np.all(np.abs(np.sort(part.lam) - lam)
                              <= 1e-11 * np.abs(lam) + 1e-30), (kind, bc, degree)
            # the trace rows of the classes sum to the edge weight at mu = 1
            edge = _edge_weights(bc, degree, np.ones(1))[0]
            expect = sum(gram[-1, -1] for _, gram in reference)
            assert abs(edge - expect) <= 1e-14 * scale, (kind, bc, degree)


def test_closed_form_chain_lengths_count_the_chain_members(monkeypatch):
    """``_chain_lengths`` counts the members of every chain of ``_chains``
    and ``_class_sizes`` the modes of every class of ``_classes`` for the
    four end conditions, and ``estimated_seconds`` reads them without
    building a chain."""
    for minus, plus in itertools.product((False, True), repeat=2):
        bc = BoundaryCondition1D(minus, plus)
        for degree in range(1 + (minus and plus), 300):
            lengths = tuple(len(index) for index, _ in
                            refsat.coefficients._chains(bc, degree))
            assert refsat.coefficients._chain_lengths(bc, degree) == lengths
            if degree <= 64:
                sizes = tuple(modes.lam.size for modes in
                              refsat.coefficients._classes(bc, degree))
                assert refsat.coefficients._class_sizes(bc, degree) == sizes
    monkeypatch.setattr(refsat.coefficients, "_chains", None)
    for name in CANONICAL_PROBLEMS:
        assert refsat.coefficients.estimated_seconds(spec_for(name, 64, 128, 256)) > 0


def test_chain_classes_match_the_pencil_oracle():
    for kind, bc in FACTOR_KINDS:
        free = kind == "mean_zero" or not (
            bc.dirichlet_at_minus1 or bc.dirichlet_at_plus1)
        for degree in range(1, 65):
            if bc.dirichlet_at_minus1 and bc.dirichlet_at_plus1 and degree < 2:
                with pytest.raises(ValueError, match="empty"):
                    factor_classes(bc, degree)
                continue
            classes = [_probe_rows(modes, degree)
                       for modes in factor_classes(bc, degree)]
            expect = _classes(build_basis_1d(kind, bc, degree))
            assert len(classes) == len(expect)
            top = max(part.lam.max() for part in expect if part.lam.size)
            for parity, (part, oracle) in enumerate(zip(classes, expect)):
                assert part.loads.shape == oracle.loads.shape
                if len(classes) == 2:
                    assert not part.loads[1 - parity::2].any()
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
        # every diagonal block, E5's mirror included
        blocks = diagonal_blocks(spec)
        pairs = triples(blocks, xs, ys)
        parts = [_volume_gram(*pair) for pair in pairs]
        assert tuple(part.shape[0] for part in parts) == block_orders(spec)
        assert sum(part.shape[0] for part in parts) == expect.shape[0]
        for part in parts:
            assert np.linalg.norm(part - part.T) <= 1e-14 * np.linalg.norm(part)
        trace = sum(np.trace(part) for part in parts)
        solved = _spec_blocks(spec)
        got = _gram_trace(solved, triples(solved, xs, ys))
        assert abs(got - trace) <= 1e-14 * trace
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
    assert orders["E2"] == (25,)  # one class pair, solved whole
    assert orders["E3"] == orders["E5"] == (9, 6, 6, 4)
    assert orders["F1"] == orders["F3"] == (5,)
    assert orders["F2"] == orders["F4"] == (3, 2)
    assert orders["C"] == (2, 2)
    # p = 0 has no odd probe: the blocks that need one are left out
    assert block_orders(spec_for("E3", 0, 2, 4)) == (1,)
    assert block_orders(spec_for("E2", 0, 2, 4)) == (1,)


def solve_pairs(pairs, trace):
    """``_max_over_blocks`` over the (r_top, r_bottom) matrix pairs, each
    solved as a block counted once, with no lower bound on its smallest
    eigenvalue, so that ``checked_pencil`` computes it."""
    frobenius = np.sqrt(sum(np.linalg.norm(top) ** 2 for top, _ in pairs))
    solutions = [checked_pencil(top, bottom, trace) for top, bottom in pairs]
    return _max_over_blocks(solutions, [1] * len(pairs), frobenius)


def test_pd_floor_compares_each_block_with_the_whole_trace():
    top = np.diag([2.0, 1.0])
    big = 100.0 * np.eye(2)
    # lambda_min/trace is 1e-11 on its own trace, 5e-14 on the whole
    small = np.diag([1.0, 1e-11])
    value, tie, index, _, _ = solve_pairs([(top, small)], np.trace(small))
    assert (value, tie, index) == (pytest.approx(1e11), False, 0)
    whole = np.trace(big) + np.trace(small)
    pairs = [(top, big), (top, small)]
    with pytest.raises(
        NumericalError,
        match=r"ill-posed.*lambda_min/trace 4\.975e-14 is under the floor 1e-12",
    ):
        solve_pairs(pairs, whole)


def test_top_values_and_tie_are_taken_over_all_blocks():
    # the top two values sit in different blocks: a tie across blocks
    pairs = [(np.diag([3.0, 1.0]), np.eye(2)), (np.diag([3.0, 2.0]), np.eye(2))]
    value, tie, index, maximizer, residual = solve_pairs(pairs, 4.0)
    assert value == pytest.approx(3.0) and tie and index == 0
    assert residual < 1e-15
    pairs[1] = (np.diag([2.5, 2.0]), np.eye(2))
    value, tie, index, _, _ = solve_pairs(pairs, 4.0)
    assert not tie and index == 0


def published_cells(max_p=None):
    """The distinct published (problem, p, q, r) cells, up to ``max_p``."""
    return sorted({(entry.problem, entry.p, entry.q, entry.r)
                   for entry in load_published_table()
                   if max_p is None or entry.p <= max_p})


def test_block_rows_match_their_orders():
    # each block has one distinct row per load, and the blocks, E5's mirror
    # included, cover every load once; the solved blocks, each counted
    # ``copies`` times, count every load
    for cell in published_cells():
        spec = spec_for(*cell)
        blocks = diagonal_blocks(spec)
        for block in blocks:
            assert block.index.size == block.order, cell
        rows = np.concatenate([block.index for block in blocks])
        assert np.array_equal(np.sort(rows), np.arange(rows.size)), cell
        solved = _spec_blocks(spec)
        assert sum(block.copies * block.order for block in solved) == rows.size


def coarse_floors(name, p, q, r, factors):
    """(spec, blocks, their ``_pair`` triples at q, the coarse trace)."""
    spec = spec_for(name, p, q, r)
    blocks = _spec_blocks(spec)
    mid = triples(blocks, *_sides(spec, q, factors))
    return spec, blocks, mid, _gram_trace(blocks, mid)


def test_closed_form_load_floors_match_the_lapack_route():
    # every end condition, every probe degree p up to the factor's and
    # every class with probes; two Dirichlet ends need degree 2
    degrees = [*range(1, 70), 96, 128, 192, 256]
    cases, singular = 0, 0
    for left in (False, True):
        for right in (False, True):
            bc = BoundaryCondition1D(left, right)
            for degree in degrees[1:] if left and right else degrees:
                # row k does not depend on the p the rows are gathered to
                classes = [_probe_rows(part, degree)
                           for part in factor_classes(bc, degree)]
                for p in range(degree + 1):
                    for cls, probes in enumerate(_class_probes(bc, p)):
                        if not probes.size:
                            continue
                        w = classes[cls].loads[probes]
                        got = _load_floor(bc, degree, cls, probes)
                        assert abs(got - oracle_load_floor(w)) <= 1e-11, (
                            bc, degree, p, cls)
                        if len(w) > w.shape[1]:
                            singular += 1
                            assert got == 0.0, (bc, degree, p, cls)
                        cases += 1
    assert (cases, singular) == (18811, 362)


def test_block_floors_bound_the_smallest_eigenvalue():
    cases = [(name, *degrees) for name in CANONICAL_PROBLEMS
             for degrees in EIGEN_CASES[CANONICAL_PROBLEMS[name][0]]]
    factors, singular = {}, 0
    for name, p, q, r in cases + published_cells(max_p=16):
        spec, blocks, mid, trace = coarse_floors(name, p, q, r, factors)
        # the closed form is the floor plus the forming allowance
        allowance = (q + 1) ** 2 * np.finfo(float).eps * trace
        for block, triple in zip(blocks, mid):
            gram = _volume_gram(*triple)
            lowest = scipy.linalg.eigvalsh(gram)[0]
            # eigvalsh is backward stable: an exactly singular block reads
            # an eigenvalue of either sign at the rounding level
            slack = gram.shape[0] * np.finfo(float).eps * np.trace(gram)
            deficient = p == q and np.linalg.matrix_rank(gram) < gram.shape[0]
            # one block at a time, as the first singular block raises
            try:
                (floor,) = _gram_floors(spec, [block], [triple], trace)
            except NumericalError as exc:
                assert re.search(SINGULAR_BLOCK, str(exc)), (name, p, q, r)
                assert deficient, (name, p, q, r)
                singular += 1
                continue
            assert not deficient, (name, p, q, r)
            assert 0.0 <= floor + allowance <= lowest + slack, (name, p, q, r)
    # the p = q cases of E1..E5, F1, F3 and F4 have singular blocks, E2's
    # one class pair a single block
    assert singular == 16


def test_gram_floors_are_the_closed_form_less_the_forming_allowance():
    spec, blocks, mid, trace = coarse_floors("E1", 28, 32, 64, {})
    (bc_x, _), (bc_y, _) = _factor_args(spec, 32)
    closed = [_load_floor(bc_y, 32, block.y, block.py)
              * _load_floor(bc_x, 32, block.x, block.px) * float(weights.min())
              for block, (_, _, weights) in zip(blocks, mid)]
    assert _gram_floors(spec, blocks, mid, trace) == [
        floor - 33 ** 2 * np.finfo(float).eps * trace for floor in closed]


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
    factors = {}
    cells = published_cells()
    assert len(cells) == 145
    # and the cells p + ceil(p/7) planned beyond the table, up to q = 192
    planned = [(name, p, q, 2 * q) for name in CANONICAL_PROBLEMS
               for p in (70, 84, 112, 140, 168)
               for q in [q_strategy("p+ceil(p/7)", p)]]
    for name, p, q, r in cells + planned:
        spec, blocks, mid, trace = coarse_floors(name, p, q, r, factors)
        floors = _gram_floors(spec, blocks, mid, trace)
        assert min(floors) >= _PD_FLOOR * trace, (name, p, q, r)


def test_certified_blocks_skip_the_inverse_eigensolve(monkeypatch):
    # the order of each block whose smallest eigenvalue is estimated, by
    # the one-pair Lanczos run on its route's inverse
    counted = counts(monkeypatch.setattr)
    # Lanczos blocks (E1, E2) and a dense one (F1, of order 65)
    for name, p, q, r in (("E1", 28, 32, 64), ("E2", 28, 32, 64),
                          ("F1", 64, 128, 256)):
        res = saturation_coefficient(spec_for(name, p, q, r))
        assert res.mu > 1.0 and counted.estimates == [], name
    # at q = 512 the floors of E1 (4, 512, 512) no longer clear the check,
    # so both of its small formed blocks are estimated
    res = saturation_coefficient(spec_for("E1", 4, 512, 512))
    assert counted.estimates == [15, 10]
    assert abs(res.mu - 1.0) <= 1e-12
    counted.runs.clear()
    # a singular block has floor 0 and is rejected before any eigenvalue of
    # it is read
    for name in ("E5", "F1"):
        with pytest.raises(NumericalError, match=ILL_POSED + SINGULAR_BLOCK):
            saturation_coefficient(spec_for(name, 4, 4, 8))
    assert counted.estimates == []


def checked_outcome(spec):
    """mu^2 of the spec, or the message of its rejection, with every coarse
    block formed and checked by ``checked_pencil`` against production's
    floors: the definiteness path that the estimate replaced. "singular"
    stands for the rejection that ``_gram_floors`` raises."""
    blocks = _spec_blocks(spec)
    fine, mid = (triples(blocks, *_sides(spec, degree, {}))
                 for degree in (spec.r, spec.q))
    trace = _gram_trace(blocks, mid)
    try:
        floors = _gram_floors(spec, blocks, mid, trace)
    except NumericalError:
        return "singular"
    try:
        solutions = [checked_pencil(_volume_gram(*top) if block.order <= _DENSE_ORDER
                                    else _product(*top),
                                    _volume_gram(*bottom), trace, floor)
                     for block, top, bottom, floor in zip(blocks, fine, mid, floors)]
    except NumericalError as exc:
        return str(exc)
    return _max_over_blocks(solutions, [block.copies for block in blocks],
                            _gram_norm(blocks, fine))[0]


def test_uncertified_formed_blocks_are_estimated_as_the_oracle_decides(
        monkeypatch):
    # with the floor raised, the closed-form floors certify few blocks, and
    # each other formed coarse block has its smallest eigenvalue estimated
    # by one Lanczos run through its Cholesky factor. The estimate lies
    # within a relative 1e-8 above the values-only dsyevd's, or below it by
    # no more than that eigensolve's own rounding, and every accept or
    # reject, with its message, is the oracle's
    blocks, estimates = [], []
    cholesky = refsat.coefficients._cholesky
    lanczos = refsat.coefficients._top_eigenpairs

    def kept_cholesky(r_bottom):
        blocks.append(r_bottom.copy())
        return cholesky(r_bottom)

    def estimating_lanczos(apply, n, k, *args, **kwargs):
        values, vectors = lanczos(apply, n, k, *args, **kwargs)
        if k == 1:
            estimates.append((blocks[-1], 1.0 / float(values[-1])))
        return values, vectors

    monkeypatch.setattr(refsat.coefficients, "_cholesky", kept_cholesky)
    monkeypatch.setattr(refsat.coefficients, "_top_eigenpairs", estimating_lanczos)
    cells = [(name, *degrees) for name, (family, _) in CANONICAL_PROBLEMS.items()
             for degrees in EIGEN_CASES[family] + ((8, 12, 24),)]
    outcomes, counts = {}, []
    for least in (1e-4, 1e-3, 1e-2):
        monkeypatch.setattr(refsat.coefficients, "_PD_FLOOR", least)
        for cell in cells:
            spec = spec_for(*cell)
            blocks.clear()
            estimates.clear()
            try:
                got = saturation_coefficient(spec).mu_squared
            except NumericalError as exc:
                got = str(exc)
            expect = checked_outcome(spec)
            if expect == "singular":
                assert re.search(SINGULAR_BLOCK, got) and not estimates, cell
            else:
                assert got == expect, (cell, least)
            for block, estimate in estimates:
                values = scipy.linalg.lapack.dsyevd(block.T, compute_v=0,
                                                    lower=1)[0]
                slack = block.shape[0] * np.finfo(float).eps * np.trace(block)
                assert values[0] - slack <= estimate <= values[0] * (1 + 1e-8), (
                    cell, least)
            outcomes[cell, least] = got
            counts.append(len(estimates))
    # 41 cells accepted, 20 of them with estimated blocks, and 85 rejected
    # by an estimate, over 108 estimates; the other 24 have a singular block
    accepted = [cell for cell, got in outcomes.items() if isinstance(got, float)]
    assert (len(accepted), sum(counts), len(outcomes)) == (41, 108, 150)
    # E1 and F1 (8, 12, 24) on either side of a floor of 1e-3
    rejected = outcomes[("E1", 8, 12, 24), 1e-3]
    assert "estimated lambda_min/trace 1.538e-04" in rejected
    assert isinstance(outcomes[("F1", 8, 12, 24), 1e-3], float)


def test_lanczos_runs_stop_once_their_top_ritz_pairs_converge(monkeypatch):
    # operator applications of each Lanczos run: 7 for E2's whole class
    # pair, 13 and 13 for E1, as each second Ritz value is certified below
    # the tie gap before it converges; converging the second pairs too
    # takes 10, and 16 and 16
    runs = counts(monkeypatch.setattr).runs
    for (name, p, q, r), solved, most in ((("E2", 16, 32, 64), 1, 7),
                                          (("E1", 28, 32, 64), 2, 13)):
        runs.clear()
        saturation_coefficient(spec_for(name, p, q, r))
        assert len(runs) == solved, name
        assert all(n > _DENSE_ORDER for n, _, _ in runs), name
        assert all(count <= most for _, _, count in runs), (name, runs)


def test_lanczos_matches_the_arpack_oracle(monkeypatch):
    # every run also goes through ARPACK on the same operator (the route's
    # inverse of the fine block's image, in the fine block's inner
    # product); the top two values of each block must agree to 1e-14. At
    # q = r the pencil is the identity, whose eigenvalues are exactly 1,
    # and the top two values are held to 1 instead: ARPACK converges to
    # the top of the operator's rounding, up to 1.1e-14 above 1 on these
    # cells, while the run stops at its first dropped coupling on Rayleigh
    # quotients within 5e-16 of 1
    compared = []
    lanczos = refsat.coefficients._top_eigenpairs

    def checked_lanczos(apply, n, k, *args, **kwargs):
        values, vectors = lanczos(apply, n, k, *args, **kwargs)
        expect, _ = arpack_top_eigenpairs(apply, n, k, *args, **kwargs)
        if k == 2:
            if identity:
                expect = np.ones(2)
            assert np.all(np.abs(values - expect) <= 1e-14 * np.abs(expect)), (
                n, values, expect)
            compared.append(n)
        return values, vectors

    monkeypatch.setattr(refsat.coefficients, "_top_eigenpairs", checked_lanczos)
    cells = [(name, p, q, r) for name, (family, _) in CANONICAL_PROBLEMS.items()
             for p, q, r in EIGEN_CASES[family]]
    cells += [(name, 28, 32, 64) for name in ("E1", "E2", "E3", "E4", "E5")]
    for cell in cells:
        identity = cell[2] == cell[3]
        try:
            saturation_coefficient(spec_for(*cell))
        except NumericalError as exc:
            assert "ill-posed" in str(exc), cell
    # the order-105 blocks of F1 and F3 at (104, 112, 128) and (104, 112, 112),
    # E2's whole class pair of order 169 at (12, 16, 32) and (12, 16, 16),
    # and the blocks of E1..E5 at (28, 32, 64)
    assert len(compared) == 18 and min(compared) > _DENSE_ORDER


def test_lanczos_finds_the_top_of_a_known_spectrum():
    top_eigenpairs = refsat.coefficients._top_eigenpairs
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((300, 300)))
    spectrum = np.linspace(1.0, 2.0, 300) ** 8
    matrix = (q * spectrum) @ q.T
    values, vectors = top_eigenpairs(matrix.__matmul__, 300, 2)
    assert np.all(np.abs(values - spectrum[-2:]) <= 1e-13 * spectrum[-1])
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-13)
    defect = matrix @ vectors - vectors * values
    assert np.linalg.norm(defect) <= 1e-12 * spectrum[-1]
    # the identity spans nothing past its start vector: each step starts
    # afresh, and two steps find the top pair at 1
    images = []

    def identity(v):
        images.append(v.copy())
        return images[-1]

    values, vectors = top_eigenpairs(identity, 50, 2)
    assert len(images) == 2
    assert np.allclose(values, [1.0, 1.0], rtol=1e-15, atol=0.0)
    assert np.allclose(vectors.T @ vectors, np.eye(2), atol=1e-15)
    # a small operator is solved on its whole space
    values, _ = top_eigenpairs(np.diag([3.0, 1.0, 2.0]).__matmul__, 3, 2)
    assert np.allclose(values, [2.0, 3.0], rtol=1e-15)


def rotated(spectrum):
    """The product with a matrix of eigenvalues ``spectrum`` in a seeded
    random basis, and the list of the vectors it is applied to."""
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal(
        (spectrum.size, spectrum.size)))
    matrix = (q * spectrum) @ q.T
    applied = []

    def apply(v):
        applied.append(v)
        return matrix @ v

    return apply, applied


def test_a_lanczos_run_stops_once_its_second_value_lies_below_the_tie_gap(
        monkeypatch):
    # the top pair 2 converges long before the second, 1, pulls clear of
    # the bulk in [0, 0.9]: the run stops with a second Ritz value that is
    # certified more than the tie gap below the top, a lower bound on 1
    spectrum = np.concatenate([np.linspace(0.0, 0.9, 198), [1.0, 2.0]])
    apply, applied = rotated(spectrum)
    values, _ = refsat.coefficients._top_eigenpairs(apply, spectrum.size, 2)
    assert abs(values[-1] - 2.0) <= 1e-14 * 2.0
    assert values[-2] <= 1.0
    # with no gap to certify against, the run goes on until both Ritz
    # pairs converge
    stopped = len(applied)
    applied.clear()
    monkeypatch.setattr(refsat.coefficients, "_TIE", np.inf)
    both, _ = refsat.coefficients._top_eigenpairs(apply, spectrum.size, 2)
    assert abs(both[-2] - 1.0) <= 1e-14
    assert stopped < len(applied), (stopped, len(applied))


@pytest.mark.parametrize("gap, tie", [(1e-13, True), (1e-11, False)])
def test_a_lanczos_run_decides_a_near_tie(gap, tie):
    # inside the tie gap the second pair cannot be certified below it, so
    # the run resolves both pairs; outside it the second Ritz value, a
    # lower bound, keeps the gap
    spectrum = np.concatenate([np.linspace(0.0, 0.5, 198), [1.0, 1.0 + gap]])
    apply, _ = rotated(spectrum)
    values, vectors = refsat.coefficients._top_eigenpairs(apply, spectrum.size, 2)
    value, tied, _, _, _ = _max_over_blocks([(values, vectors[:, -1], 0.0)],
                                            [1], 1.0)
    assert abs(value - (1.0 + gap)) <= 1e-14
    assert tied == tie


@pytest.mark.parametrize("gap, tie", [(1e-13, True), (1e-11, False)])
def test_a_near_tie_across_the_swap_blocks_ties_alike_when_solved_whole(gap, tie):
    # the top eigenvector of an operator on 8 x 8 arrays is a symmetric
    # matrix, and the second, inside or outside the tie gap below it, an
    # antisymmetric one: the class pair solved whole ties as its two swap
    # blocks of the split oracle do
    blocks = swap_blocks(8)
    assert [(block.order, block.sign) for block in blocks] == [(36, 1.0), (28, -1.0)]
    embeds = [swap_embed(block, np.eye(block.order), 64) for block in blocks]
    applies = [rotated(np.concatenate([np.linspace(0.0, 0.5, block.order - 1),
                                       [top]]))[0]
               for block, top in zip(blocks, (1.0 + gap, 1.0))]
    split = [refsat.coefficients._top_eigenpairs(apply, block.order, 2)
             for block, apply in zip(blocks, applies)]
    values, vectors = refsat.coefficients._top_eigenpairs(
        lambda v: sum(embed @ apply(embed.T @ v)
                      for embed, apply in zip(embeds, applies)), 64, 2)
    _, whole, _, _, _ = _max_over_blocks([(values, vectors[:, -1], 0.0)], [1], 1.0)
    _, parts, _, _, _ = _max_over_blocks(
        [(values, vectors[:, -1], 0.0) for values, vectors in split], [1, 1], 1.0)
    assert abs(values[-1] - (1.0 + gap)) <= 1e-14
    assert whole == parts == tie


@pytest.mark.parametrize("name", ["E1", "E2"])
def test_q_equals_r_ties_at_one_on_the_lanczos_route(monkeypatch, name):
    # E1 has two parity class pairs, E2 one pair solved whole. The operator
    # is the identity up to rounding: each run drops its first coupling and
    # stops after two applications
    orders = {"E1": [153, 136], "E2": [289]}[name]
    counted = counts(monkeypatch.setattr)
    runs, solves = counted.runs, counted.solves
    spec = spec_for(name, 16, 32, 32)
    assert list(block_orders(spec)) == orders
    res = saturation_coefficient(spec)
    assert [n for n, _, _ in runs] == orders
    assert [solve.route for solve in solves] == ["Cholesky"] * len(orders)
    assert all(count <= 2 for _, _, count in runs), runs
    assert abs(res.mu - 1.0) <= 1e-14
    assert res.tie


def test_a_lanczos_run_that_does_not_converge_is_a_numerical_failure(
        monkeypatch, capsys):
    monkeypatch.setattr(refsat.coefficients, "_LANCZOS_STEPS", 3)
    # the Cholesky route, and the Schur route of E1 (28, 32, 64)
    for cell in (("E1", 16, 32, 64), ("E1", 28, 32, 64)):
        with pytest.raises(NumericalError, match="^Lanczos eigensolve failed"):
            saturation_coefficient(spec_for(*cell))
    code = main(["compute", "--family", "A", "--edges", "1",
                 "--p", "16", "--q", "32", "--r", "64"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: Lanczos eigensolve failed")


def test_a_failed_lanczos_eigensolve_is_a_numerical_failure(monkeypatch, capsys):
    # every chain of E1 (16, 32, 64) has at least 16 members, so the dstevd
    # calls on shorter tridiagonals are the Lanczos runs' projections
    dstevd, failed = scipy.linalg.lapack.dstevd, []

    def fail(d, e, *args, **kwargs):
        theta, vec, info = dstevd(d, e, *args, **kwargs)
        if len(d) < 16:
            failed.append(len(d))
            return theta, vec, 3
        return theta, vec, info

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", fail)
    with pytest.raises(NumericalError,
                       match="^Lanczos eigensolve failed: dstevd returned info 3$"):
        saturation_coefficient(spec_for("E1", 16, 32, 64))
    assert failed == [1]
    code = main(["compute", "--family", "A", "--edges", "1",
                 "--p", "16", "--q", "32", "--r", "64"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: Lanczos eigensolve failed: "
                          "dstevd returned info 3")


def test_an_eigenpair_off_its_pencil_is_a_numerical_failure(monkeypatch, capsys):
    # a Cholesky factor 0.1 % off on its diagonal: the Lanczos runs of
    # E1 (16, 32, 64), both above the dense order, converge on the wrong
    # pencil, and the defect taken from the two products reads 4.4e-5 of
    # the fine Gram's norm. Without the residual check the cell would print
    # mu as if nothing were wrong
    cholesky = refsat.coefficients._cholesky

    def perturbed(r_bottom):
        factor = cholesky(r_bottom)
        factor[np.diag_indices_from(factor)] *= 1.001
        return factor

    monkeypatch.setattr(refsat.coefficients, "_cholesky", perturbed)
    with pytest.raises(NumericalError, match=r"^eigensolve failed: the top "
                       r"eigenpair has relative residual 4\.4e-05, above 1e-8$"):
        saturation_coefficient(spec_for("E1", 16, 32, 64))
    code = main(["compute", "--family", "A", "--edges", "1",
                 "--p", "16", "--q", "32", "--r", "64"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: eigensolve failed")


#: the start of each rejection of a singular coarse block
ILL_POSED = (
    r"^denominator dual Gram is numerically singular; the coarse space "
    r"cannot represent all functionals \(ill-posed quotient\): ")

#: the rest of the rejection of a block with floor 0
SINGULAR_BLOCK = (r"the coarse block of (x class \d and )?y class \d is singular, "
                  r"as one of its 1D classes has more probes than modes$")

#: cells with a class of more probes than modes: E3, E4, E5 and F4 at every
#: q = p + 1, and cells at p = q
SINGULAR_CELLS = [(name, p, p + 1, 2 * p + 2) for name in ("E3", "E4", "E5", "F4")
                  for p in (4, 16, 64)] + [
    ("E1", 3, 3, 3), ("E2", 60, 60, 60), ("E5", 4, 4, 8), ("F1", 4, 4, 8)]


def test_singular_coarse_blocks_are_rejected_before_they_are_formed(monkeypatch):
    def no_block(*args):
        raise AssertionError("a coarse block was formed")

    monkeypatch.setattr(refsat.coefficients, "_volume_gram", no_block)
    for cell in SINGULAR_CELLS:
        with pytest.raises(NumericalError, match=ILL_POSED + SINGULAR_BLOCK) as err:
            saturation_coefficient(spec_for(*cell))
        # the floors alone raise it, on the same block
        spec, blocks, mid, trace = coarse_floors(*cell, {})
        with pytest.raises(NumericalError) as floors:
            _gram_floors(spec, blocks, mid, trace)
        assert str(floors.value) == str(err.value), cell


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
        for block, triple in zip(blocks, pairs):
            apply, gram = _product(*triple), _volume_gram(*triple)
            n = gram.shape[0]
            vector = rng.standard_normal(n)
            got = apply(vector)
            assert got.shape == vector.shape
            expect = gram @ vector
            assert (np.linalg.norm(got - expect)
                    <= 1e-13 * np.linalg.norm(expect)), (spec, block.x, block.y)
            # the operator applied to each unit vector is the whole block
            whole = np.column_stack([apply(unit) for unit in np.eye(n)])
            assert (np.linalg.norm(whole - gram)
                    <= 1e-13 * np.linalg.norm(gram)), (spec, block.x, block.y)


@pytest.mark.parametrize("name", list(CANONICAL_PROBLEMS))
def test_factored_norm_matches_the_formed_grams(name):
    for spec, blocks, xs, ys in fine_blocks(name):
        expect = np.linalg.norm(dual_gram(spec, spec.r))
        pairs = triples(blocks, xs, ys)
        parts = np.sqrt(sum(block.copies * np.linalg.norm(_volume_gram(*pair)) ** 2
                            for block, pair in zip(blocks, pairs)))
        got = _gram_norm(blocks, pairs)
        assert abs(got - expect) <= 1e-13 * expect
        assert abs(got - parts) <= 1e-13 * parts


def test_blas_solves_match_solve_triangular():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40))
    factor = scipy.linalg.cholesky(a @ a.T + 40.0 * np.eye(40), lower=True)
    y = rng.standard_normal(40)
    for trans in (0, 1):
        expect = scipy.linalg.solve_triangular(factor, y, lower=True,
                                               trans=trans)
        got = scipy.linalg.blas.dtrsv(factor, y, lower=1, trans=trans)
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


#: (p, degree) of the coarse kernel checks: p = 0 (E2 has no antisymmetric
#: swap block), p = 1 (its antisymmetric block has order 1), p = degree, a
#: Lanczos order with a finer space, and the coarse side at (28, 32, 64)
KERNEL_CASES = ((0, 2), (1, 4), (8, 8), (16, 64), (28, 32))


def test_coarse_kernels_match_the_replaced_contractions():
    # the split oracle's swap blocks of E2 are also checked, against the
    # route they replaced and as compressions of the pair's whole block
    orders = []
    for name in ("E1", "E2", "E3", "E4", "E5"):
        for p, degree in KERNEL_CASES:
            spec = spec_for(name, p, degree, degree)
            blocks = _spec_blocks(spec)
            for block, triple in zip(blocks, triples(blocks, *_sides(spec, degree, {}))):
                got, want = _volume_gram(*triple), volume_gram(*triple)
                assert got.shape == want.shape == (block.order,) * 2
                assert (np.linalg.norm(got - want)
                        <= 1e-14 * np.linalg.norm(want)), (name, p, block.order)
            if name != "E2":
                continue
            # E2's one block is the last formed
            parts, (wx, _, weights) = swap_blocks(p + 1), triple
            for part, expect in zip(parts, swap_grams(wx, weights, parts)):
                embedding = swap_embed(part, np.eye(part.order), got.shape[0])
                for want in expect, embedding.T @ got @ embedding:
                    assert (np.linalg.norm(swap_gram(part, *triple) - want)
                            <= 1e-14 * np.linalg.norm(want)), (p, part.sign)
            orders.append([part.order for part in parts])
    assert orders[:2] == [[1], [3, 1]]
    # with the 1 x 1 identity for Wx the two contractions are one product
    for name in ("F1", "F2", "F3", "F4", "C"):
        for degree in (2, 8, 64):
            spec = spec_for(name, degree, degree, degree)
            blocks = _spec_blocks(spec)
            for triple in triples(blocks, *_sides(spec, degree, {})):
                assert np.array_equal(_volume_gram(*triple), volume_gram(*triple))


def residual_gap(spec, factors) -> tuple[float, int]:
    """|residual - formed| and the order n of the winning block, where the
    eigensolve's residual is taken on each block's production route, from
    the Cholesky factor that overwrote its formed block up to the dense
    order or from the fine and coarse products above it, and ``formed``
    takes it from a kept copy of the formed block."""
    blocks = _spec_blocks(spec)
    fine, mid = (triples(blocks, *_sides(spec, degree, factors))
                 for degree in (spec.r, spec.q))
    trace, frobenius = _gram_trace(blocks, mid), _gram_norm(blocks, fine)
    kept = [_volume_gram(*pair) for pair in mid]
    stages = {"grams": 0.0, "eigensolve": 0.0}
    solutions = [_solve_block(*args, trace, stages, spec, factors) for args in
                 zip(blocks, fine, mid, _gram_floors(spec, blocks, mid, trace))]
    value, _, index, maximizer, residual = _max_over_blocks(
        solutions, [block.copies for block in blocks], frobenius)
    # the fine side as ``_solve_block`` applies it
    block, pair = blocks[index], fine[index]
    image = (_volume_gram(*pair) @ maximizer if block.order <= _DENSE_ORDER
             else _product(*pair)(maximizer))
    defect = image - value * (kept[index] @ maximizer)
    formed = np.linalg.norm(defect) / (frobenius * np.linalg.norm(maximizer))
    return abs(residual - formed), len(kept[index])


def test_factor_residual_matches_the_formed_block():
    # CI checks every published cell; E1 (28, 32, 64) takes the Schur route
    factors, eps = {}, np.finfo(float).eps
    for cell in published_cells(max_p=16) + [("E1", 28, 32, 64)]:
        gap, n = residual_gap(spec_for(*cell), factors)
        assert gap <= n * eps, cell


def traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates through Python and numpy above
    what is live before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()


def peak_blocks(spec) -> float:
    """The traced peak of ``saturation_coefficient(spec)``, in blocks of its
    largest solved order."""
    largest = max(block.order for block in _spec_blocks(spec))
    # a first call loads the modules that the eigensolves import
    saturation_coefficient(spec_for("E1", 16, 20, 40))
    return traced_peak(lambda: saturation_coefficient(spec)) / (8 * largest ** 2)


def test_saturation_holds_one_coarse_block_at_a_time():
    # CI holds E1..E5 at (64, 128, 256) to 1.6 blocks
    for name in ("E1", "E2", "E3", "E4", "E5"):
        assert peak_blocks(spec_for(name, 28, 32, 64)) <= 2.0, name


def test_saturation_forms_no_fine_block_above_the_dense_order(monkeypatch):
    formed = []
    volume = refsat.coefficients._volume_gram

    def counting_volume(wx, wy, weights):
        gram = volume(wx, wy, weights)
        formed.append((weights.shape, gram.shape[0]))
        return gram

    monkeypatch.setattr(refsat.coefficients, "_volume_gram", counting_volume)
    # every block is above the dense order here: one coarse product per
    # block, and no fine one; E1 and E2 at (28, 32, 64) take the Schur
    # route above the Schur order, which forms no block
    for name, p, q, r, orders in (("E2", 16, 32, 64, [289]),
                                  ("E3", 28, 32, 64, [225, 210, 210, 196]),
                                  ("E1", 28, 32, 64, []), ("E2", 28, 32, 64, [])):
        spec = spec_for(name, p, q, r)
        xs, ys = (factor_classes(*args) for args in _factor_args(spec, spec.q))
        coarse = {(fx.lam.size, fy.lam.size) for fx in xs for fy in ys}
        formed.clear()
        saturation_coefficient(spec)
        assert [order for _, order in formed] == orders, name
        assert {shape for shape, _ in formed} <= coarse, name
    # small blocks are formed on both sides, each solved block once; E5
    # does not form its mirror block
    for name, solved in (("E1", 2), ("E2", 1), ("E3", 4), ("E4", 2), ("E5", 3)):
        spec = spec_for(name, 4, 8, 16)
        xs, ys = (factor_classes(*args) for args in _factor_args(spec, spec.r))
        fine = {(fx.lam.size, fy.lam.size) for fx in xs for fy in ys}
        formed.clear()
        saturation_coefficient(spec)
        assert len(formed) == 2 * solved, name
        assert sum(shape in fine for shape, _ in formed) == solved, name
        assert all(order <= _DENSE_ORDER for _, order in formed), name


def test_schur_inverse_is_the_kronecker_sum_less_a_low_rank_correction(
        monkeypatch):
    # R^{-1} = P^{-1} - C: the first term is the Kronecker sum
    # P^{-1} = Ax' (x) My + Mx (x) Ay' of the load rows' pseudo-inverses,
    # and the correction C is semidefinite of rank at most k. The strip
    # operator, the CG preconditioner, eliminates all of set 2 but the
    # corner, so it lies between R^{-1} and P^{-1}, and less R^{-1} it is
    # semidefinite of rank at most the corner's c pairs
    rng = np.random.default_rng(5)
    kinds = set()

    def matrix(apply, n):
        return np.column_stack([apply(unit) for unit in np.eye(n)])

    for name in ("E1", "E2", "E3", "E4", "E5"):
        for p, q in ((2, 3), (4, 6), (6, 7), (5, 10)):
            spec, factors = spec_for(name, p, q, 2 * q), {}
            xs, ys = _sides(spec, q, factors)
            for block in _spec_blocks(spec):
                x, y = block.x, block.y
                wx, wy, weights = _pair(block, xs, ys)
                (nx, mx), (ny, my) = wx.shape, wy.shape
                if nx > mx or ny > my:
                    continue
                gram = _volume_gram(wx, wy, weights)
                sides = refsat.coefficients._schur_sides(spec, block, factors)
                inverse = _schur_inverse(*sides, (wx, wy, weights))
                vector = rng.standard_normal(nx * ny)
                assert (np.linalg.norm(gram @ inverse(vector) - vector)
                        <= 1e-11 * np.linalg.norm(vector)), (name, p, q, x, y)
                whole = matrix(inverse, nx * ny)
                px, py = np.linalg.pinv(wx), np.linalg.pinv(wy)
                kronecker = (np.kron((px.T * xs[x].lam) @ px, py.T @ py)
                             + np.kron(px.T @ px, (py.T * ys[y].lam) @ py))
                values = scipy.linalg.eigvalsh(kronecker - whole)
                slack = 1e-11 * np.linalg.norm(kronecker, 2)
                k = mx * my - nx * ny
                assert values[0] >= -slack, (name, p, q, x, y)
                assert np.sum(values > slack) <= k, (name, p, q, x, y)
                # the CG branch, with each solve returning its preconditioned
                # right-hand side
                with monkeypatch.context() as strips_only:
                    strips_only.setattr(refsat.coefficients, "_schur_by_cg",
                                        lambda modes, order: True)
                    strips_only.setattr(refsat.coefficients, "_conjugate_gradient",
                                        lambda apply, precondition, b: precondition(b))
                    strips = matrix(_schur_inverse(*sides, (wx, wy, weights)), nx * ny)
                values = scipy.linalg.eigvalsh(strips - whole)
                assert values[0] >= -slack, (name, p, q, x, y)
                assert scipy.linalg.eigvalsh(kronecker - strips)[0] >= -slack
                c = (mx - nx) * (my - ny)
                assert np.sum(values > slack) <= c, (name, p, q, x, y)
                kinds.add((min(k, 1), min(c, 1)))
    assert kinds == {(0, 0), (1, 0), (1, 1)}


def schur_inverses(cell, factors: dict):
    """(block, whether it is inverted by CG, production inverse, exact
    reference) of each Schur block of ``cell``: the reference is the
    H22-factor oracle where its k x k H22 stays small, and the corner
    kernel with the CG branch turned off above that (the blocks of
    (64, 128, 256) with k over 6000)."""
    spec = spec_for(*cell)
    xs, ys = _sides(spec, spec.q, factors)
    for block in _spec_blocks(spec):
        if not refsat.coefficients._schur_route(block):
            continue
        mid = _pair(block, xs, ys)
        (nx, mx), (ny, my) = mid[0].shape, mid[1].shape
        sides = refsat.coefficients._schur_sides(spec, block, factors)
        inverse = _schur_inverse(*sides, mid)
        if mx * my - nx * ny <= 3100:
            reference = h22_inverse(*mid[:2], xs[block.x].lam, ys[block.y].lam)
        else:
            with pytest.MonkeyPatch.context() as exact:
                exact.setattr(refsat.coefficients, "_schur_by_cg",
                              lambda modes, order: False)
                reference = _schur_inverse(*sides, mid)
        cg = refsat.coefficients._schur_by_cg(mx * my, block.order)
        yield block, cg, inverse, reference


def test_schur_inverse_matches_the_h22_oracle():
    # every published Schur block, 29 with the corner kernel and 17 by CG,
    # the k = 0 block of E1 (24, 25, 50) and the q = r blocks of E1 and E4
    # at (28, 32, 32): the inverse agrees with the exact one to 1e-13
    rng, factors, counts = np.random.default_rng(11), {}, [0, 0]
    for cell in SCHUR_CELLS + [("E1", 24, 25, 50), ("E1", 28, 32, 32),
                               ("E4", 28, 32, 32)]:
        for block, cg, inverse, reference in schur_inverses(cell, factors):
            for vector in rng.standard_normal((2, block.order)):
                want = reference(vector)
                assert (np.linalg.norm(inverse(vector) - want)
                        <= 1e-13 * np.linalg.norm(want)), (cell, block.order)
            counts[cg] += 1
    assert counts == [34, 17]


def test_schur_setup_factors_only_the_corners(monkeypatch):
    # E1 (56, 64, 128): each block's class pair has 7 x 4 corner pairs out
    # of k = 459 and 452 extra ones, and the corners are all that is
    # factored, so the setup holds O(c^2), not O(k^2)
    dpotrf, shapes = scipy.linalg.lapack.dpotrf, []

    def counting_dpotrf(a, *args, **kwargs):
        shapes.append(a.shape)
        return dpotrf(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", counting_dpotrf)
    solves, _ = schur_routes(monkeypatch)
    saturation_coefficient(spec_for("E1", 56, 64, 128))
    assert on_schur(solves) == [(1653, 459), (1596, 452)]
    assert shapes == [(28, 28), (28, 28)]


def schur_routes(monkeypatch):
    """The Lanczos solves of both routes (``counts``), and the (nx, ny) of
    each class pair set up for a Schur solve, as they run."""
    setups, setup = [], refsat.coefficients._schur_inverse

    def counting_setup(x, y, coarse):
        setups.append((len(coarse[0]), len(coarse[1])))
        return setup(x, y, coarse)

    monkeypatch.setattr(refsat.coefficients, "_schur_inverse", counting_setup)
    return counts(monkeypatch.setattr).solves, setups


def on_schur(solves) -> list[tuple[int, int]]:
    """(order, k) of each of ``solves`` on the Schur route."""
    return [(solve.order, solve.k) for solve in solves if solve.route == "Schur"]


#: the published cells with a block on the Schur route, and every block of
#: each takes it
SCHUR_CELLS = [(name, p, q, r) for name, cells in (
    ("E1", ((28, 32, 64), (32, 64, 128), (56, 64, 128), (60, 64, 128),
            (64, 128, 256))),
    ("E2", ((28, 32, 64), (32, 64, 128), (56, 64, 128), (60, 64, 128),
            (64, 128, 256))),
    ("E3", ((56, 64, 128), (60, 64, 128), (64, 128, 256))),
    ("E4", ((28, 32, 64), (32, 64, 128), (56, 64, 128), (60, 64, 128),
            (64, 128, 256))),
    ("E5", ((56, 64, 128), (60, 64, 128), (64, 128, 256)))) for p, q, r in cells]


def schur_routed(spec) -> list[bool]:
    """Whether each solved block of ``spec`` takes the Schur route."""
    return [refsat.coefficients._schur_route(block) for block in _spec_blocks(spec)]


def cg_routed(spec) -> list[bool]:
    """Whether each solved block of ``spec`` takes the Schur route with its
    inverse by CG, its class pair of mx x my modes having k = mx my - n >= n
    for its order n; read from the class sizes as ``estimated_seconds``
    reads them."""
    (bc_x, _), (bc_y, _) = _factor_args(spec, spec.q)
    sizes_x, sizes_y = (refsat.coefficients._class_sizes(bc, spec.q)
                        for bc in (bc_x, bc_y))
    return [refsat.coefficients._schur_route(block)
            and sizes_x[block.x] * sizes_y[block.y] >= 2 * block.order
            for block in _spec_blocks(spec)]


def test_schur_cells_are_the_published_cells_on_the_route():
    routed = {cell: schur_routed(spec_for(*cell)) for cell in published_cells()}
    assert sorted(cell for cell, route in routed.items() if any(route)) == SCHUR_CELLS
    assert all(all(routed[cell]) for cell in SCHUR_CELLS)
    assert sum(len(routed[cell]) for cell in SCHUR_CELLS) == 46
    # 17 of them, at (32, 64, 128) and (64, 128, 256), invert by CG
    cg = {cell: sum(cg_routed(spec_for(*cell))) for cell in SCHUR_CELLS}
    assert sum(cg.values()) == 17
    assert {cell[1:] for cell, count in cg.items() if count} == {
        (32, 64, 128), (64, 128, 256)}
    # the benchmark's small cells keep the Cholesky route
    for cell in published_cells(max_p=16):
        assert max(block_orders(spec_for(*cell))) <= _SCHUR_ORDER, cell


def test_schur_route_matches_the_cholesky_route_on_the_published_blocks(
        monkeypatch):
    # the oracle is the Cholesky route, forced by raising the cut above
    # every block: each Schur block, whose inverse is exact or by CG, has
    # the top two values of the oracle's block of its class pair. The
    # residual of its maximizer is taken against its formed coarse block
    solve_block, solved = refsat.coefficients._solve_block, []

    def kept_block(block, fine, mid, *args):
        solved.append((block, fine, mid, solve_block(block, fine, mid, *args)))
        return solved[-1][3]

    monkeypatch.setattr(refsat.coefficients, "_solve_block", kept_block)
    factors, eps, blocks = {}, np.finfo(float).eps, [0, 0]
    for cell in SCHUR_CELLS:
        spec = spec_for(*cell)
        solved.clear()
        res = saturation_coefficient(spec, factors)
        schur = solved[:]
        solved.clear()
        with monkeypatch.context() as forced:
            forced.setattr(refsat.coefficients, "_SCHUR_ORDER", np.inf)
            expect = saturation_coefficient(spec, factors)
        assert expect.tie == res.tie, cell
        assert abs(expect.mu - res.mu) <= 1e-13 * expect.mu, cell
        listed = _spec_blocks(spec)
        frobenius = _gram_norm(listed, triples(listed, *_sides(spec, spec.r, factors)))
        for (block, fine, mid, solution), (oracle, _, _, (want, _, _)), cg in zip(
                schur, solved, cg_routed(spec)):
            assert refsat.coefficients._schur_route(block), cell
            assert (oracle.x, oracle.y) == (block.x, block.y), cell
            values, maximizer, defect = solution
            assert abs(values[-1] - want[-1]) <= 1e-13 * want[-1], (cell, values, want)
            # a second value may be a Ritz value certified below the tie
            # gap, a lower bound that serves only the tie flag
            gap = want[-1] * (1.0 - refsat.coefficients._TIE)
            assert (abs(values[-2] - want[-2]) <= 1e-13 * want[-1]
                    or max(values[-2], want[-2]) < gap), (cell, values, want)
            kept = _volume_gram(*mid)
            formed = np.linalg.norm(_product(*fine)(maximizer)
                                    - values[-1] * (kept @ maximizer))
            scale = frobenius * np.linalg.norm(maximizer)
            assert abs(defect - formed) <= block.order * eps * scale, cell
            blocks[cg] += 1
    # 29 blocks with an exact inverse and 17 with CG
    assert blocks == [29, 17]


def test_schur_route_solves_k_zero_and_q_equal_r(monkeypatch):
    solves, _ = schur_routes(monkeypatch)
    # E1 (24, 25, 50): the x class and the even y class have as many
    # probes as modes, so the order-325 block has k = 0 and no correction
    spec = spec_for("E1", 24, 25, 50)
    res = saturation_coefficient(spec)
    assert on_schur(solves) == [(325, 0)]
    with monkeypatch.context() as forced:
        forced.setattr(refsat.coefficients, "_SCHUR_ORDER", np.inf)
        expect = saturation_coefficient(spec)
    assert abs(res.mu - expect.mu) <= 1e-13 * expect.mu
    assert res.tie == expect.tie
    # q = r: the identity pencil ties at 1, each run stopping after two
    # applications as on the Cholesky route
    for name, orders in (("E1", [435, 406]), ("E2", [841])):
        solves.clear()
        res = saturation_coefficient(spec_for(name, 28, 32, 32))
        assert [order for order, _ in on_schur(solves)] == orders, name
        assert [solve.route for solve in solves] == ["Schur"] * len(orders)
        assert all(solve.applications <= 2 for solve in solves), (name, solves)
        assert abs(res.mu - 1.0) <= 1e-14 and res.tie, name


def test_e2_solves_its_class_pair_whole_on_the_schur_route(monkeypatch):
    # one block of order (p + 1)^2, one setup of its class pair and one
    # Lanczos run, whether its inverse is exact or by CG
    factors = {}
    for cell in [cell for cell in SCHUR_CELLS if cell[0] == "E2"]:
        spec, n = spec_for(*cell), (cell[1] + 1) ** 2
        with monkeypatch.context() as counted:
            solves, setups = schur_routes(counted)
            runs = counts(counted.setattr).runs
            saturation_coefficient(spec, factors)
        assert block_orders(spec) == (n,), cell
        assert [order for order, _ in on_schur(solves)] == [n], cell
        assert setups == [(cell[1] + 1,) * 2], cell
        assert len(runs) == 1, cell
    # E1's two class pairs take a setup each
    solves, setups = schur_routes(monkeypatch)
    saturation_coefficient(spec_for("E1", 28, 32, 64), factors)
    assert on_schur(solves) == [(435, 109), (406, 106)]
    assert setups == [(29, 15), (29, 14)]


def test_published_e2_cells_solved_whole_match_the_split_oracle():
    # the oracle splits E2's class pair into its symmetric and its
    # antisymmetric block, formed up to order 2145 at (64, 128, 256)
    factors, cells = {}, [cell for cell in published_cells() if cell[0] == "E2"]
    for cell in cells:
        spec = spec_for(*cell)
        res = saturation_coefficient(spec, factors)
        value, tie = split_saturation(spec, factors)
        assert abs(res.mu_squared - value) <= 1e-13 * value, cell
        assert res.tie == tie, cell
    assert len(cells) == 10


def test_no_published_cell_forms_a_coarse_block_above_the_schur_order(
        monkeypatch):
    volume = refsat.coefficients._volume_gram

    def small_block(wx, wy, weights):
        assert len(wx) * len(wy) <= _SCHUR_ORDER, "a large block was formed"
        return volume(wx, wy, weights)

    monkeypatch.setattr(refsat.coefficients, "_volume_gram", small_block)
    factors = {}
    for cell in published_cells():
        saturation_coefficient(spec_for(*cell), factors)


def test_a_cg_solve_that_does_not_converge_is_a_numerical_failure(
        monkeypatch, capsys):
    # the cap is the Lanczos one: the first CG solve of the first step of
    # E1 (32, 64, 128), which takes more than 3 iterations, reaches it
    monkeypatch.setattr(refsat.coefficients, "_LANCZOS_STEPS", 3)
    with pytest.raises(NumericalError, match="^CG solve failed: a coarse block "
                       "of order 561 did not converge in 3 iterations$"):
        saturation_coefficient(spec_for("E1", 32, 64, 128))
    code = main(["compute", "--family", "A", "--edges", "1",
                 "--p", "32", "--q", "64", "--r", "128"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: CG solve failed")


def test_uncertified_blocks_on_the_schur_route_are_estimated_as_on_the_cholesky_route(
        monkeypatch):
    # E2 (28, 32, 64): floor 7.7e-8 of the trace, smallest eigenvalue
    # 4.9e-7. At a floor of 3e-7 the whole pair is not certified and passes
    # the estimate; at 1e-6 it fails it, with the Cholesky route's message
    spec = spec_for("E2", 28, 32, 64)
    expect = saturation_coefficient(spec)
    solves, _ = schur_routes(monkeypatch)
    monkeypatch.setattr(refsat.coefficients, "_PD_FLOOR", 3e-7)
    assert saturation_coefficient(spec).mu == expect.mu
    assert on_schur(solves) == [(841, 183)]
    monkeypatch.setattr(refsat.coefficients, "_PD_FLOOR", 1e-6)
    messages = []
    for cut in (_SCHUR_ORDER, np.inf):
        monkeypatch.setattr(refsat.coefficients, "_SCHUR_ORDER", cut)
        with pytest.raises(NumericalError, match="estimated lambda_min/trace") as err:
            saturation_coefficient(spec)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert "estimated lambda_min/trace 4.926e-07 is under" in messages[0]


def test_a_cell_that_the_floors_do_not_certify_takes_the_schur_route(monkeypatch):
    # E1 (256, 260, 520), the p+4 cell at p = 256: the floors of its blocks
    # (orders 33153 and 32896, k = 907) less the rounding allowance are
    # negative, so each is estimated definite through its Schur inverse.
    # No coarse block is formed (one would take 8.2 GiB), and the cost
    # model prices the route the cell takes
    spec = spec_for("E1", 256, 260, 520)
    assert schur_routed(spec) == [True, True]
    assert refsat.coefficients.estimated_seconds(spec) < 2.0

    def no_gram(*args):
        raise AssertionError("a coarse block was formed")

    monkeypatch.setattr(refsat.coefficients, "_volume_gram", no_gram)
    res = saturation_coefficient(spec)
    assert 2.4 < res.mu < 2.5 and not res.tie
    assert res.residual <= 1e-12


def test_schur_route_holds_less_than_one_block():
    # no block is formed: the Lanczos bases, the corner factors and the 1D
    # matrices stay under one block of the largest order
    for name in ("E1", "E2", "E4"):
        assert peak_blocks(spec_for(name, 28, 32, 64)) < 1.0, name


def test_a_failed_schur_factorization_is_a_numerical_failure(
        monkeypatch, capsys):
    dpotrf = scipy.linalg.lapack.dpotrf

    def fail(a, *args, **kwargs):
        factor, _ = dpotrf(a, *args, **kwargs)
        return factor, 5

    # every block of E1 (28, 32, 64) takes the Schur route, so the only
    # dpotrf calls factor the 6 x 6 corner of each class pair
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", fail)
    with pytest.raises(NumericalError,
                       match="^Schur route failed: dpotrf returned info 5$"):
        saturation_coefficient(spec_for("E1", 28, 32, 64))
    code = main(["compute", "--family", "A", "--edges", "1",
                 "--p", "28", "--q", "32", "--r", "64"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: Schur route failed: dpotrf")


def test_e5_counts_its_mirror_block_twice():
    spec = spec_for("E5", 6, 8, 16)
    assert [block.copies for block in _spec_blocks(spec)] == [1, 2, 1]
    assert block_orders(spec) == (16, 12, 12, 9)
    # the oracle's mirror pencil has the spectrum of the solved one
    blocks = diagonal_blocks(spec)
    assert [(block.x, block.y) for block in blocks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    spectra = []
    for index in (1, 2):
        block = blocks[index]
        fine, mid = (_volume_gram(*_pair(block, *_sides(spec, degree, {})))
                     for degree in (spec.r, spec.q))
        spectra.append(scipy.linalg.eigvalsh(fine, mid))
    assert np.allclose(spectra[0], spectra[1], rtol=1e-12, atol=0.0)
    res = saturation_coefficient(spec)
    assert res.dim_F == res.maximizer.size == sum(block_orders(spec)) == 49
    # a block counted twice ties with itself
    top = np.diag([2.0, 1.0])
    value, tie, _, _, _ = _max_over_blocks(
        [checked_pencil(top, np.eye(2), 2.0)], [2],
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


def test_problem_spec_takes_only_integer_edges():
    """A string, a float or a bool edge is invalid input, not converted to
    an edge number; numpy integers are edge numbers."""
    for edges in ("13", b"13", [1.7], [True, 3], [1, np.float64(3)],
                  [np.bool_(True)]):
        with pytest.raises(ValueError, match="edge numbers must be integers"):
            ProblemSpec("A", edges, 2, 4, 8)
    with pytest.raises(ValueError, match="edge numbers must be integers"):
        ProblemSpec("B", "2", 2, 4, 8)
    for edges in (1, 3.0):
        with pytest.raises(ValueError, match="edge set must be a collection"):
            ProblemSpec("A", edges, 2, 4, 8)
    spec = ProblemSpec("A", [np.int64(1), np.int32(3)], 2, 4, 8)
    assert spec == ProblemSpec("A", frozenset({1, 3}), 2, 4, 8)


#: records whether scipy.linalg is loaded when ``saturation_coefficient``
#: first reads its clock; runs in a fresh interpreter, as this one has
#: scipy.linalg loaded already
CLOCK_PROBE = """\
import sys, time, types
import refsat.coefficients as coefficients

loaded = []

def perf_counter():
    loaded.append("scipy.linalg" in sys.modules)
    return time.perf_counter()

coefficients.time = types.SimpleNamespace(perf_counter=perf_counter)
print("scipy.linalg" in sys.modules)
coefficients.saturation_coefficient(coefficients.ProblemSpec("C", None, 1, 1, 1))
print(loaded[0])
"""


def test_the_first_cell_is_timed_after_the_scipy_import():
    """The first cell of a process does not count the scipy.linalg import
    in its ``wall_seconds`` or its stages."""
    proc = subprocess.run(
        [sys.executable, "-c", CLOCK_PROBE], capture_output=True, text=True,
        cwd=Path(refsat.coefficients.__file__).resolve().parents[1],
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


#: records whether scipy.sparse.linalg is loaded when a Lanczos cell
#: (E1 (16, 20, 40), orders 153 and 136) reads its clock and after it
#: returns, and whether scipy.linalg is loaded when it first reads its
#: clock
LANCZOS_CLOCK_PROBE = """\
import sys, time, types
import refsat.coefficients as coefficients

loaded = []

def perf_counter():
    loaded.append(("scipy.linalg" in sys.modules,
                   "scipy.sparse.linalg" in sys.modules))
    return time.perf_counter()

coefficients.time = types.SimpleNamespace(perf_counter=perf_counter)
coefficients.saturation_coefficient(coefficients.ProblemSpec("A", {1}, 16, 20, 40))
print(loaded[0][0], any(sparse for _, sparse in loaded))
print("scipy.sparse.linalg" in sys.modules)
"""


def test_a_lanczos_cell_never_loads_the_sparse_solvers():
    """A cell with a block above ``_DENSE_ORDER`` runs its Lanczos without
    scipy.sparse.linalg, and reads its clock after scipy.linalg has
    loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", LANCZOS_CLOCK_PROBE], capture_output=True,
        text=True, cwd=Path(refsat.coefficients.__file__).resolve().parents[1],
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]


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


def test_result_fields_are_python_scalars():
    # a dense cell, a Lanczos cell, a swap cell and a tied cell (q = r)
    for spec in (spec_for("F1", 16, 20, 40), spec_for("E1", 16, 20, 40),
                 spec_for("E2", 16, 20, 40), spec_for("E2", 6, 12, 12)):
        res = saturation_coefficient(spec)
        assert type(res.tie) is bool, spec
        assert all(type(value) is float
                   for value in (res.mu, res.mu_squared, res.residual)), spec
    assert res.tie


def test_results_are_deterministic():
    # a dense order and a Lanczos order of the top eigensolve
    for spec in (spec_for("F3", 4, 6, 9), spec_for("E1", 12, 16, 32)):
        first = saturation_coefficient(spec)
        second = saturation_coefficient(spec)
        assert first.mu == second.mu
        assert np.array_equal(first.maximizer, second.maximizer)
