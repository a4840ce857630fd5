"""Acceptance criteria for the saturation coefficient package.

One test per criterion; each prints a single PASS line on success (visible
with pytest -v -s). Tolerances against the four-decimal reference values
are 2e-4 throughout.
"""

import time

import numpy as np
import pytest

from refsat.cli import main as cli_main
from refsat.coefficients import (
    CANONICAL_PROBLEMS,
    ProblemSpec,
    saturation_coefficient,
)
from sparse_oracle import (
    load_matrix_edge,
    load_matrix_quotient_edge,
    load_matrix_volume,
    quotient_space,
    schur_dual_gram,
    stiffness_matrix,
    tensor_space,
)
from unsplit_oracle import dual_gram, max_generalized_eigenvalue

TOL = 2e-4

SNAPSHOT_4_8_16 = {
    "E1": 1.0017, "E2": 1.0120, "E3": 1.0017, "E4": 1.0138, "E5": 1.0150,
    "F1": 1.0295, "F2": 1.0013, "F3": 1.0295, "F4": 1.0346, "C": 1.0013,
}

SNAPSHOT_12_16_32 = {
    "E1": 1.0344, "E2": 1.1076, "E3": 1.0350, "E4": 1.1112, "E5": 1.1143,
    "F1": 1.1012, "F2": 1.0106, "F3": 1.1012, "F4": 1.1055, "C": 1.0106,
}


def canonical_spec(name, p, q, r):
    family, edges = CANONICAL_PROBLEMS[name]
    return ProblemSpec(family=family, edges=edges, p=p, q=q, r=r)


def mu_of(name, p, q, r):
    return saturation_coefficient(canonical_spec(name, p, q, r)).mu


def test_criterion_1_snapshot_at_4_8_16():
    start = time.perf_counter()
    for name, expected in SNAPSHOT_4_8_16.items():
        mu = mu_of(name, 4, 8, 16)
        assert abs(mu - expected) <= TOL, (name, mu, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 1: PASS - all ten problems match the (4, 8, 16) "
          f"reference within {TOL:g} in {elapsed:.1f} s")


def test_criterion_2_snapshot_at_12_16_32():
    start = time.perf_counter()
    values = {}
    for name, expected in SNAPSHOT_12_16_32.items():
        mu = mu_of(name, 12, 16, 32)
        values[name] = mu
        assert abs(mu - expected) <= TOL, (name, mu, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    # one Dirichlet edge stays strictly easier than two opposite edges
    assert values["E1"] < values["E3"]
    print(f"criterion 2: PASS - all ten problems match the (12, 16, 32) "
          f"reference within {TOL:g} in {elapsed:.1f} s")


def test_criterion_3_fine_space_saturation_for_edge_loads():
    expected = {16: 1.0295, 32: 1.0317, 64: 1.0318}
    values = {r: mu_of("F1", 4, 8, r) for r in (16, 32, 64)}
    for r, target in expected.items():
        assert abs(values[r] - target) <= TOL, (r, values[r])
    assert values[16] <= values[32] <= values[64]
    first = values[32] - values[16]
    second = values[64] - values[32]
    assert second < first
    print("criterion 3: PASS - edge-load coefficient saturates in r "
          f"({values[16]:.4f} -> {values[32]:.4f} -> {values[64]:.4f})")


def test_criterion_4_strategy_trends_in_p():
    for name in CANONICAL_PROBLEMS:
        doubling_small = mu_of(name, 4, 8, 16)
        doubling_large = mu_of(name, 8, 16, 32)
        assert doubling_large <= doubling_small + 1e-10, name
        additive_large = mu_of(name, 12, 16, 32)
        assert additive_large >= doubling_small - 1e-10, name
    print("criterion 4: PASS - q = 2p improves with p while q = p + 4 "
          "degrades, for every canonical problem")


def test_criterion_5_structural_invariants():
    rng = np.random.default_rng(2024)
    b_classes = [frozenset({2}), frozenset({3}), frozenset({2, 3}),
                 frozenset({2, 3, 4})]
    checked = 0
    for _ in range(50):
        family = ("A", "B", "C")[int(rng.integers(3))]
        p = int(rng.integers(1, 7))
        q = p + 2 + int(rng.integers(0, 4))
        r = q + int(rng.integers(0, 5))
        if family == "A":
            edges = frozenset(
                int(e) for e in rng.choice(4, size=rng.integers(1, 5),
                                           replace=False) + 1
            )
        elif family == "B":
            edges = b_classes[int(rng.integers(4))]
        else:
            edges = None
        result = saturation_coefficient(
            ProblemSpec(family=family, edges=edges, p=p, q=q, r=r))
        assert result.mu >= 1.0 - 1e-10
        assert result.residual < 1e-9
        checked += 1
    assert checked == 50

    for name in ("E2", "F4", "C"):
        assert abs(mu_of(name, 3, 7, 7) - 1.0) <= 1e-10

    grid = {
        (q, r): mu_of("E2", 4, q, r)
        for q in (6, 8, 10) for r in (12, 16, 20)
    }
    for r in (12, 16, 20):
        assert grid[(6, r)] >= grid[(8, r)] - 1e-10
        assert grid[(8, r)] >= grid[(10, r)] - 1e-10
    for q in (6, 8, 10):
        assert grid[(q, 12)] <= grid[(q, 16)] + 1e-10
        assert grid[(q, 16)] <= grid[(q, 20)] + 1e-10

    singles = [
        saturation_coefficient(
            ProblemSpec(family="A", edges=frozenset({e}), p=3, q=6, r=12)).mu
        for e in (1, 2, 3, 4)
    ]
    assert max(singles) - min(singles) <= 1e-8
    print("criterion 5: PASS - 50 random problems stay >= 1, exactness at "
          "q = r, q/r monotonicity, and rotation symmetry all hold")


def test_criterion_6_dual_norm_cross_checks():
    rng = np.random.default_rng(99)
    setups = [
        (tensor_space(frozenset({1}), 9), "volume", 3),
        (tensor_space(frozenset({1, 2, 3, 4}), 13), "volume", 4),
        (tensor_space(frozenset({2}), 9), "edge", 5),
        (quotient_space(12), "quotient", 6),
    ]
    checked = 0
    for space, kind, p in setups:
        stiffness = stiffness_matrix(space)
        assert space.dim <= 200
        if kind == "volume":
            load = load_matrix_volume(space, p)
        elif kind == "edge":
            load = load_matrix_edge(space, p)
        else:
            load = load_matrix_quotient_edge(space, p)
        gram = schur_dual_gram(load, stiffness)
        dense = stiffness.toarray()
        for _ in range(5):
            c = rng.standard_normal(load.shape[0])
            vec = c @ load
            via_gram = np.sqrt(c @ gram @ c)
            u = np.linalg.solve(dense, vec)
            via_galerkin = np.sqrt(vec @ u)
            assert via_gram == pytest.approx(via_galerkin, rel=1e-11,
                                             abs=1e-11)
            checked += 1
    assert checked == 20

    # brute-force Rayleigh search cannot beat the computed maximum
    edges = frozenset({2})
    spec = ProblemSpec(family="B", edges=edges, p=5, q=8, r=12)
    r_fine = dual_gram(spec, 12)
    r_coarse = dual_gram(spec, 8)
    value, _, _ = max_generalized_eigenvalue(r_fine, r_coarse)
    directions = rng.standard_normal((1_000_000, r_fine.shape[0]))
    num = np.einsum("nd,de,ne->n", directions, r_fine, directions)
    den = np.einsum("nd,de,ne->n", directions, r_coarse, directions)
    best = float(np.max(num / den))
    assert best <= value + 1e-6 * max(1.0, value)
    assert best >= 0.5 * value
    print("criterion 6: PASS - dual gram agrees with direct solves on 20 "
          "functionals and dominates a million random Rayleigh quotients")


def test_criterion_7_patch_verification_suite(capsys):
    code = cli_main(["patches", "verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "catalog verified" in out
    assert out.count(" ok") >= 13
    print("criterion 7: PASS - all 13 refined patches verify in the "
          "catalog frame with bounded extensions")
