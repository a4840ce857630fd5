"""Tests for the command line interface."""

import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import refsat
from refsat.cli import (
    CSV_COLUMNS,
    DEFAULT_BUDGET_SECONDS,
    _spec_for_problem,
    estimated_seconds,
    load_published_table,
    load_sweep_config,
    main,
)
from refsat.coefficients import (
    CANONICAL_PROBLEMS,
    NumericalError,
    ProblemSpec,
    SaturationResult,
    saturation_coefficient,
)

EXPECTED_HEADER = ("family,edge_class,p,q,r,mu,mu_display,"
                   "dim_H,dim_V,dim_F,wall_seconds,status")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def mask_wall(text):
    """CSV text with the wall_seconds column blanked in every data row."""
    header, rows = parse_csv(text)
    idx = header.index("wall_seconds")
    masked = [header]
    for row in rows:
        row = list(row)
        row[idx] = "X"
        masked.append(row)
    return masked


def fake_result(spec):
    """An instant, fixed stand-in for a saturation result."""
    return SaturationResult(
        spec=spec, mu=1.0 + spec.p / 7.0, mu_squared=0.0,
        maximizer=np.zeros(1), dim_H=spec.r, dim_V=spec.q, dim_F=spec.p,
        residual=0.0, tie=False, wall_seconds=0.25,
    )


@pytest.fixture
def computed(monkeypatch):
    """Replace the coefficient computation by fake_result; list its specs."""
    specs = []

    def fake(spec, factors=None):
        specs.append(spec)
        return fake_result(spec)

    monkeypatch.setattr("refsat.cli.saturation_coefficient", fake)
    return specs


def test_compute_emits_one_well_formed_row(capsys):
    code, out, _ = run_cli(
        ["compute", "--family", "A", "--edges", "1,3",
         "--p", "4", "--q", "8", "--r", "16"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == EXPECTED_HEADER
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["family"] == "A"
    assert row["edge_class"] == "E3"
    assert (row["p"], row["q"], row["r"]) == ("4", "8", "16")
    assert row["status"] == "ok"
    mu = float(row["mu"])
    assert row["mu_display"] == f"{mu:.4f}" == "1.0017"
    assert repr(mu) == row["mu"]
    assert int(row["dim_H"]) > int(row["dim_V"]) >= int(row["dim_F"])
    assert float(row["wall_seconds"]) >= 0.0


def test_compute_labels_noncanonical_edge_sets(capsys):
    code, out, _ = run_cli(
        ["compute", "--family", "A", "--edges", "2",
         "--p", "3", "--q", "6", "--r", "12"],
        capsys,
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["edge_class"] == "2"


def test_compute_writes_to_file(tmp_path, capsys):
    target = tmp_path / "row.csv"
    code, out, _ = run_cli(
        ["compute", "--family", "B", "--edges", "2",
         "--p", "4", "--q", "8", "--r", "16", "--output", str(target)],
        capsys,
    )
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    row = dict(zip(header, rows[0]))
    assert row["edge_class"] == "F1"
    assert row["mu_display"] == "1.0295"


def test_compute_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "row.csv"
    code, out, err = run_cli(
        ["compute", "--family", "C", "--p", "2", "--q", "4", "--r", "8",
         "--output", str(target)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ") and str(target) in err
    assert err.count("\n") == 1


def test_compute_invalid_inputs_exit_2(capsys):
    cases = [
        ["compute", "--family", "C", "--edges", "1", "--p", "4", "--q", "8",
         "--r", "16"],
        ["compute", "--family", "A", "--p", "4", "--q", "8", "--r", "16"],
        ["compute", "--family", "A", "--edges", "x", "--p", "4", "--q", "8",
         "--r", "16"],
        ["compute", "--family", "A", "--edges", "5", "--p", "4", "--q", "8",
         "--r", "16"],
        ["compute", "--family", "A", "--edges", "1", "--p", "9", "--q", "8",
         "--r", "16"],
        ["compute", "--family", "B", "--edges", "1", "--p", "4", "--q", "8",
         "--r", "16"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert "invalid input" in err


def test_compute_numerical_failure_exits_3(capsys):
    # coarse space too small for the functional family: detected, not patched
    code, _, err = run_cli(
        ["compute", "--family", "A", "--edges", "1,2,3,4",
         "--p", "4", "--q", "4", "--r", "8"],
        capsys,
    )
    assert code == 3
    assert "numerical failure" in err


def test_sweep_runs_requested_grid(tmp_path, capsys):
    config = {
        "problems": ["E1", "F1"],
        "strategies": ["2p"],
        "p_values": [2, 3],
        "r_factors": [2],
        "output": str(tmp_path / "sweep.csv"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 0
    assert out == ""
    header, rows = parse_csv((tmp_path / "sweep.csv").read_text())
    assert ",".join(header) == EXPECTED_HEADER
    assert len(rows) == 4
    labels = [(r[0], r[1], r[2], r[3], r[4]) for r in rows]
    assert labels == [
        ("A", "E1", "2", "4", "8"),
        ("A", "E1", "3", "6", "12"),
        ("B", "F1", "2", "4", "8"),
        ("B", "F1", "3", "6", "12"),
    ]
    assert all(r[-1] == "ok" for r in rows)


def test_sweep_is_deterministic_up_to_timing(tmp_path, capsys):
    config = {
        "problems": ["E3", "C"],
        "strategies": ["p+4"],
        "p_values": [2, 4],
        "output": None,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    _, first, _ = run_cli(["sweep", "--config", str(path)], capsys)
    _, second, _ = run_cli(["sweep", "--config", str(path)], capsys)
    assert mask_wall(first) == mask_wall(second)
    assert first.count("\n") == 5


def test_sweep_budget_zero_skips_everything(tmp_path, capsys):
    config = {"problems": ["E1"], "strategies": ["2p"], "p_values": [2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(
        ["sweep", "--config", str(path), "--budget", "0"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["status"] == "skipped"
    assert row["mu"] == "---"
    assert row["mu_display"] == "---"
    assert row["wall_seconds"] == "---"
    assert (row["p"], row["q"], row["r"]) == ("2", "4", "8")


def test_sweep_markdown_format(tmp_path, capsys):
    config = {"problems": ["F2"], "strategies": ["2p"], "p_values": [2],
              "format": "markdown"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| family | edge_class |")
    assert set(lines[1]) <= {"|", "-", " "}
    assert len(lines) == 3


def test_sweep_config_validation(tmp_path, capsys):
    bad_configs = [
        {"problems": ["E9"]},
        {"strategies": ["p+5"]},
        {"r_factors": [3]},
        {"p_values": [0]},
        {"p_values": []},
        {"format": "yaml"},
        {"mystery": 1},
    ]
    for raw in bad_configs:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 2, raw
        assert "invalid input" in err
    path.write_text("{not json")
    code, _, err = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 2


def test_sweep_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(["sweep", "--config", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ") and str(missing) in err
    assert err.count("\n") == 1


def test_sweep_config_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = load_sweep_config(str(path))
    assert cfg.strategies == ("p+4", "p+ceil(p/7)", "2p")
    assert cfg.p_values == (4, 8, 16)
    assert cfg.r_factors == (2,)
    assert cfg.problems == tuple(CANONICAL_PROBLEMS)
    assert cfg.output is None
    assert cfg.format == "csv"


def test_published_table_is_complete_and_consistent():
    table = load_published_table()
    assert len(table) == 177
    by_problem = {}
    for entry in table:
        by_problem.setdefault(entry.problem, []).append(entry)
        assert 1.0 <= entry.value < 2.0
        assert entry.q >= entry.p
        assert entry.r % entry.q == 0
    assert sorted(by_problem) == sorted(CANONICAL_PROBLEMS)
    for name in ("E1", "E2", "E3", "E4", "E5", "F2", "C"):
        assert len(by_problem[name]) == 12
    for name in ("F1", "F3", "F4"):
        assert len(by_problem[name]) == 31
    lookup = {
        (e.problem, e.strategy, e.p, e.r): e.value for e in table
    }
    assert lookup[("E1", "p+4", 12, 32)] == 1.0344
    assert lookup[("E3", "p+4", 12, 32)] == 1.0350
    assert lookup[("C", "p+ceil(p/7)", 14, 32)] == 1.0384
    assert lookup[("F2", "p+ceil(p/7)", 14, 32)] == 1.0385
    assert lookup[("F1", "p+4", 4, 64)] == 1.0318


def test_reproduce_small_slice_passes(tmp_path, capsys):
    target = tmp_path / "repro.csv"
    code, out, err = run_cli(
        ["reproduce", "--max-p", "4", "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    # p = 4 rows: one p+4 and one 2p cell per problem, plus the extra
    # F-family r factors
    assert len(rows) == 2 * 10 + 4 * 3
    assert all(r[-1] == "pass" for r in rows)
    assert "0 failed" in err


@pytest.fixture
def pencil_solves(monkeypatch):
    """Count the 1D chain eigensolves done through refsat.coefficients."""
    import refsat.coefficients as coefficients

    solves = []
    chain = coefficients._chain

    def counting(index, coeff, degree):
        solves.append(degree)
        return chain(index, coeff, degree)

    monkeypatch.setattr(coefficients, "_chain", counting)
    return solves


def test_reproduce_builds_each_1d_factor_once(capsys, pencil_solves):
    code, _, _ = run_cli(["reproduce", "--max-p", "16"], capsys)
    assert code == 0
    # 96 cells with 384 factor lookups share 24 distinct (bc, degree), the
    # quotient problem's factors among the free-free ones; 12 of them are
    # symmetric and solved once per parity class
    assert len(pencil_solves) == 24 + 12


def test_each_compute_builds_its_own_factors(capsys, pencil_solves):
    argv = ["compute", "--family", "A", "--edges", "1",
            "--p", "4", "--q", "8", "--r", "16"]
    assert run_cli(argv, capsys)[0] == 0
    # x and y factors at q and at r; the free-free y factor is symmetric
    # and solved once per parity class
    assert len(pencil_solves) == 6
    assert run_cli(argv, capsys)[0] == 0
    assert len(pencil_solves) == 12
    # the quotient space has equal x and y factors: one symmetric factor,
    # two parity classes, per degree
    assert run_cli(["compute", "--family", "C", "--p", "4", "--q", "8",
                    "--r", "16"], capsys)[0] == 0
    assert len(pencil_solves) == 16


def test_saturation_forms_no_1d_pencil(capsys, monkeypatch):
    calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(a, b=None, *args, **kwargs):
        if b is not None:
            calls.append("generalized eigh")
        return eigh(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    assert run_cli(["reproduce", "--max-p", "16"], capsys)[0] == 0
    assert calls == []


def test_failed_chain_eigensolve_is_a_numerical_failure(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", fail)
    with pytest.raises(NumericalError, match="1D eigensolve failed"):
        saturation_coefficient(_spec_for_problem("E1", 4, 8, 16))
    code, out, err = run_cli(["compute", "--family", "A", "--edges", "1",
                              "--p", "4", "--q", "8", "--r", "16"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: 1D eigensolve failed")


def test_reproduce_matches_cold_cells(tmp_path, capsys):
    target = tmp_path / "repro.csv"
    code, _, _ = run_cli(
        ["reproduce", "--max-p", "16", "--output", str(target)], capsys)
    assert code == 0
    header, rows = parse_csv(target.read_text())
    assert len(rows) == 96
    for row in rows:
        cell = dict(zip(header, row))
        family, edges = CANONICAL_PROBLEMS[
            "C" if cell["family"] == "C" else cell["edge_class"]]
        spec = ProblemSpec(family=family, edges=edges, p=int(cell["p"]),
                           q=int(cell["q"]), r=int(cell["r"]))
        cold = saturation_coefficient(spec)
        assert abs(float(cell["mu"]) - cold.mu) <= 1e-12 * cold.mu, cell
        assert (int(cell["dim_H"]), int(cell["dim_V"]), int(cell["dim_F"])) == (
            cold.dim_H, cold.dim_V, cold.dim_F)


@pytest.mark.parametrize("max_p", ["3", "0", "-3"])
def test_reproduce_below_the_smallest_published_p_is_rejected(tmp_path, capsys,
                                                             max_p):
    target = tmp_path / "repro.csv"
    code, out, err = run_cli(
        ["reproduce", "--max-p", max_p, "--output", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err == (f"invalid input: --max-p {max_p} selects no published "
                   "cell; the smallest published p is 4\n")
    assert not target.exists()


def test_reproduce_unreachable_tolerance_fails(capsys):
    code, out, err = run_cli(
        ["reproduce", "--max-p", "4", "--tol", "1e-12"], capsys)
    assert code == 1
    header, rows = parse_csv(out)
    assert any(r[-1] == "fail" for r in rows)
    assert "failed" in err


def test_reproduce_budget_zero_compares_nothing(capsys):
    code, out, err = run_cli(
        ["reproduce", "--max-p", "8", "--budget", "0"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert rows
    assert all(r[-1] == "skipped" for r in rows)
    assert "0 compared" in err


def test_reproduce_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.csv"
    code, _, err = run_cli(
        ["reproduce", "--max-p", "4", "--budget", "0", "--output", str(target)],
        capsys,
    )
    assert code == 2
    assert err.startswith("invalid input: ") and str(target) in err
    assert err.count("\n") == 1


def test_unwritable_output_fails_before_any_cell(tmp_path, capsys, computed):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run_cli(
        ["reproduce", "--max-p", "4", "--output", str(target)], capsys)
    assert code == 2
    assert err.startswith("invalid input: ") and str(target) in err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problems": ["E1"], "p_values": [2],
                                "output": str(target)}))
    code, _, err = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("invalid input: ") and str(target) in err
    assert computed == []


@pytest.mark.parametrize("command", ["reproduce", "sweep"])
def test_numerical_failure_keeps_the_finished_rows(tmp_path, capsys,
                                                   monkeypatch, command):
    target = tmp_path / "out.csv"
    specs = []

    def fail_on_third(spec, factors=None):
        specs.append(spec)
        if len(specs) == 3:
            raise NumericalError("third cell")
        return fake_result(spec)

    monkeypatch.setattr("refsat.cli.saturation_coefficient", fail_on_third)
    if command == "reproduce":
        argv = ["reproduce", "--max-p", "4", "--output", str(target)]
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": ["E1", "C"],
                                    "strategies": ["2p"], "p_values": [2, 3],
                                    "output": str(target)}))
        argv = ["sweep", "--config", str(path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "numerical failure: third cell" in err
    header, rows = parse_csv(target.read_text())
    assert ",".join(header) == EXPECTED_HEADER
    assert [tuple(row[2:5]) for row in rows] == [
        (str(spec.p), str(spec.q), str(spec.r)) for spec in specs[:2]]


SWEEP_CSV = """\
family,edge_class,p,q,r,mu,mu_display,dim_H,dim_V,dim_F,wall_seconds,status
A,E1,2,4,8,1.2857142857142856,1.2857,8,4,2,0.250,ok
A,E1,3,6,12,1.4285714285714286,1.4286,12,6,3,0.250,ok
A,E1,40,80,160,---,---,---,---,---,---,skipped
C,C,2,4,8,1.2857142857142856,1.2857,8,4,2,0.250,ok
C,C,3,6,12,1.4285714285714286,1.4286,12,6,3,0.250,ok
C,C,40,80,160,6.714285714285714,6.7143,160,80,40,0.250,ok
"""

SWEEP_MARKDOWN = """\
| family | edge_class | p | q | r | mu | mu_display | dim_H | dim_V | dim_F \
| wall_seconds | status |
| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |
| A | E1 | 2 | 4 | 8 | 1.2857142857142856 | 1.2857 | 8 | 4 | 2 | 0.250 | ok |
| A | E1 | 3 | 6 | 12 | 1.4285714285714286 | 1.4286 | 12 | 6 | 3 | 0.250 | ok |
| A | E1 | 40 | 80 | 160 | --- | --- | --- | --- | --- | --- | skipped |
| C | C | 2 | 4 | 8 | 1.2857142857142856 | 1.2857 | 8 | 4 | 2 | 0.250 | ok |
| C | C | 3 | 6 | 12 | 1.4285714285714286 | 1.4286 | 12 | 6 | 3 | 0.250 | ok |
| C | C | 40 | 80 | 160 | 6.714285714285714 | 6.7143 | 160 | 80 | 40 | 0.250 \
| ok |
"""


def test_streamed_rows_match_the_collected_table(tmp_path, capsys, computed):
    """Rows written one by one read as the whole table written at the end."""
    for fmt, expected in (("csv", SWEEP_CSV), ("markdown", SWEEP_MARKDOWN)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": ["E1", "C"],
                                    "strategies": ["2p"],
                                    "p_values": [2, 3, 40], "format": fmt}))
        code, out, _ = run_cli(
            ["sweep", "--config", str(path), "--budget", "0.05"], capsys)
        assert code == 0
        assert out == expected
    code, out, err = run_cli(
        ["reproduce", "--max-p", "4", "--budget", "0.0023"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[:3] == [
        EXPECTED_HEADER,
        "A,E1,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,fail",
        "A,E1,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,fail",
    ]
    statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert statuses.count("fail") == 20 and statuses.count("skipped") == 12
    assert err.splitlines()[:2] == [
        "reproduce: 20 compared, 20 failed, 12 skipped (tol 0.0002)",
        "  E1 p+4 p=4 q=8 r=16: expected 1.0017, got 1.571429 (diff 5.70e-01)",
    ]


def test_reproduce_rejects_bad_tolerance(capsys):
    code, _, err = run_cli(["reproduce", "--tol", "-1"], capsys)
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_reproduce_rejects_a_tolerance_that_is_not_positive_and_finite(capsys, tol):
    code, out, err = run_cli(["reproduce", "--max-p", "4", "--tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert err == "invalid input: --tol must be positive and finite\n"


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["reproduce", "sweep"])
def test_a_budget_that_is_not_finite_and_nonnegative_is_rejected(
        tmp_path, capsys, command, budget):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problems": ["E1"], "p_values": [2]}))
    argv = (["reproduce", "--max-p", "4"] if command == "reproduce"
            else ["sweep", "--config", str(path)])
    code, out, err = run_cli(argv + ["--budget", budget], capsys)
    assert code == 2
    assert out == ""
    assert err == "invalid input: --budget must be a finite number of seconds >= 0\n"


def test_patches_verify_reports_all_patches(capsys):
    code, out, _ = run_cli(["patches", "verify"], capsys)
    assert code == 0
    for pid in range(1, 14):
        assert f"patch {pid:2d} " in out
    assert out.count(" ok") >= 13
    assert "catalog verified" in out
    lines = out.splitlines()
    for situation, norm in (("a", "1.414214"), ("b", "1.414214"),
                            ("c", "2.000000"), ("d", "2.154601"),
                            ("e", "2.154601")):
        assert f"    situation {situation}: norm {norm}" in lines


def test_patches_verify_flags_corrupted_catalog(tmp_path, capsys):
    # a plausible record whose free edge breaks the classification
    bad = tmp_path / "catalog.txt"
    bad.write_text("patch 11 boundary\ncells 1,1 2,1 2,2\ndirichlet V 2 2\n")
    code, out, _ = run_cli(
        ["patches", "verify", "--catalog", str(bad)], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "orientation" in out and "step" in out


def test_patches_verify_rejects_malformed_catalog(tmp_path, capsys):
    bad = tmp_path / "catalog.txt"
    bad.write_text("patch 1 boundary\ncells 2,1\ndirichlet H 0 0\n")
    code, _, err = run_cli(
        ["patches", "verify", "--catalog", str(bad)], capsys)
    assert code == 2
    assert "invalid input" in err


def test_patches_verify_missing_catalog_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code, out, err = run_cli(
        ["patches", "verify", "--catalog", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ") and str(missing) in err
    assert err.count("\n") == 1


def test_cost_estimate_is_deterministic_and_monotone():
    small = ProblemSpec(family="B", edges=frozenset({2}), p=4, q=8, r=16)
    large = ProblemSpec(family="B", edges=frozenset({2}), p=4, q=8, r=64)
    assert estimated_seconds(small) == estimated_seconds(small)
    assert estimated_seconds(small) < estimated_seconds(large)
    assert estimated_seconds(small) > 0.0


def test_console_entry_point_runs():
    # run from the directory that holds the package under test, so that
    # ``-m`` finds it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "refsat.cli", "compute", "--family", "C",
         "--p", "3", "--q", "6", "--r", "12"],
        capture_output=True, text=True,
        cwd=Path(refsat.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(EXPECTED_HEADER)


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_no_published_cell_exceeds_the_default_budget():
    for entry in load_published_table():
        spec = _spec_for_problem(entry.problem, entry.p, entry.q, entry.r)
        assert estimated_seconds(spec) <= DEFAULT_BUDGET_SECONDS, entry
