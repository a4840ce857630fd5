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
    _edge_class_label,
    _format_row,
    _row,
    _spec_for_problem,
    build_parser,
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
from route_counts import counts

EXPECTED_HEADER = ("family,edge_class,p,q,r,mu,mu_display,"
                   "dim_H,dim_V,dim_F,wall_seconds,status")

#: ``refsat patches verify`` on the packaged catalog, byte for byte
PATCHES_VERIFY_OUTPUT = """\
patch  1 interior steps=22 ok  situations: b=8 c=7 d=3 e=3
patch  2 interior steps=20 ok  situations: b=7 c=6 d=3 e=3
patch  3 interior steps=17 ok  situations: b=6 c=5 d=3 e=2
patch  4 interior steps=12 ok  situations: b=4 c=3 d=2 e=2
patch  5 interior steps= 4 ok  situations: b=1 d=1 e=1
patch  6 boundary steps=14 ok  situations: b=5 c=5 d=2 e=2
patch  7 boundary steps=13 ok  situations: b=4 c=5 d=2 e=2
patch  8 boundary steps= 8 ok  situations: b=2 c=3 d=2 e=1
patch  9 boundary steps=10 ok  situations: b=3 c=3 d=2 e=2
patch 10 boundary steps= 7 ok  situations: b=2 c=3 e=2
patch 11 boundary steps= 2 ok  situations: d=1 e=1
patch 12 boundary steps= 1 ok  situations: e=1
patch 13 boundary steps= 0 ok
extension operator norms in the H1 seminorm (degree 8, exact):
    situation a: norm 1.414214
    situation b: norm 1.414214
    situation c: norm 2.000000
    situation d: norm 2.154601
    situation e: norm 2.154601
catalog verified
"""

#: a plausible record whose free edge breaks the classification
CORRUPTED_CATALOG = "patch 11 boundary\ncells 1,1 2,1 2,2\ndirichlet V 2 2\n"

#: ``refsat patches verify`` on CORRUPTED_CATALOG: the step violation,
#: once, with its step and edge
CORRUPTED_REPORT = """\
patch 11 boundary steps= 2 FAIL  situations: e=1
    step 1 edge GridEdge(orientation='V', x=2, y=1): empty local Dirichlet set
extension operator norms in the H1 seminorm (degree 8, exact):
    situation a: norm 1.414214
    situation b: norm 1.414214
    situation c: norm 2.000000
    situation d: norm 2.154601
    situation e: norm 2.154601
catalog FAILED
"""


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


def cell_key(spec):
    """The (edge_class, p, q, r) columns of the spec's CSV row."""
    return (_edge_class_label(spec), str(spec.p), str(spec.q), str(spec.r))


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


def test_every_canonical_problem_is_labelled_by_its_name():
    for name, (family, edges) in CANONICAL_PROBLEMS.items():
        spec = ProblemSpec(family=family, edges=edges, p=2, q=4, r=8)
        assert _edge_class_label(spec) == name
    # a family-A set is labelled by its E class whatever its order, and by
    # its edges where it has none, even when it is an F class's set
    assert _edge_class_label(ProblemSpec("A", (3, 1), 2, 4, 8)) == "E3"
    assert _edge_class_label(ProblemSpec("A", {2}, 2, 4, 8)) == "2"
    assert _edge_class_label(ProblemSpec("A", {2, 4}, 2, 4, 8)) == "2+4"


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


def test_compute_unwritable_output_exits_2(tmp_path, capsys, computed):
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
    # the destination fails before the cell is computed
    assert computed == []


def test_compute_invalid_inputs_exit_2(capsys):
    degrees = ["--p", "4", "--q", "8", "--r", "16"]
    cases = [
        (["--family", "C", "--edges", "1", *degrees],
         "the quotient family takes no Dirichlet edges"),
        (["--family", "A", *degrees], "family A needs a Dirichlet edge set"),
        (["--family", "B", *degrees], "family B needs a Dirichlet edge set"),
        (["--family", "A", "--edges", "x", *degrees],
         "cannot parse --edges 'x'"),
        (["--family", "A", "--edges", "5", *degrees],
         "edge numbers must lie in 1..4"),
        (["--family", "A", "--edges", "1", "--p", "9", "--q", "8", "--r", "16"],
         "degrees must satisfy p <= q <= r"),
        (["--family", "B", "--edges", "1", *degrees],
         "edge-load problems use one of the four canonical Dirichlet classes"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(["compute", *argv], capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("invalid input: " + message), (argv, err)


def test_compute_writes_its_row_to_stdout_for_a_dash(capsys, computed):
    code, out, err = run_cli(
        ["compute", "--family", "A", "--edges", "1,3",
         "--p", "4", "--q", "8", "--r", "16", "--output", "-"],
        capsys,
    )
    assert code == 0
    assert err == ""
    assert out == (EXPECTED_HEADER + "\n"
                   + "A,E3,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,ok\n")


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


@pytest.mark.parametrize("key", ["strategies", "p_values", "r_factors", "problems"])
def test_sweep_config_lists_must_be_nonempty_arrays(tmp_path, capsys, key):
    # a string would be read as a list of its characters, and an empty
    # list would write a header and nothing else
    for value in ("E1", [], {"E1": 1}, 4):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        code, out, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert (code, out) == (2, ""), value
        assert err == f"invalid input: {key} must be a non-empty JSON array\n"


def test_sweep_config_rejects_entries_of_the_wrong_type(tmp_path, capsys):
    # an unhashable problem and a float factor used to end in a traceback
    for raw, message in (
            ({"problems": [["E1"]]}, "unknown problem ['E1']"),
            ({"r_factors": [2.0]}, "r_factors must be drawn from (2, 4, 8)")):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(["sweep", "--config", str(path)], capsys)
        assert code == 2
        assert err == f"invalid input: {message}\n"


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
    return counts(monkeypatch.setattr).chains


def test_reproduce_builds_each_1d_factor_once(capsys, pencil_solves):
    code, _, _ = run_cli(["reproduce", "--max-p", "16"], capsys)
    assert code == 0
    # the 96 cells build the x and y factors of family A and only the y
    # factors of families B and C, whose x side is the edge weights. Of the
    # 24 distinct (bc, degree) that x and y factors would span, that drops
    # the 6 left-Dirichlet x factors of F2..F4 and the 2 free-free ones that
    # only F1's x used (degrees 128 and 256), which leaves 16: 6 each with
    # two and with one Dirichlet end, and 4 free-free. The 10 symmetric ones
    # are solved once per parity class
    assert len(pencil_solves) == 16 + 10


def test_reproduce_computes_each_edge_weight_vector_once(capsys, monkeypatch):
    import refsat.coefficients as coefficients

    calls = []
    edge_weights = coefficients._edge_weights

    def counting(bc, degree, mu):
        calls.append((bc, degree, mu.size))
        return edge_weights(bc, degree, mu)

    monkeypatch.setattr(coefficients, "_edge_weights", counting)
    assert run_cli(["reproduce", "--max-p", "16"], capsys)[0] == 0
    # one vector per (x conditions, y conditions, degree) of the B and C
    # cells: 6 degrees each for F1, F3 and F4 (their extra r factors reach
    # 256), 4 each for F2 and C; the y factors differ in size, so no two
    # calls share (bc_x, degree, number of mu)
    assert len(calls) == 3 * 6 + 2 * 4
    assert len(set(calls)) == len(calls)


def test_edge_load_compute_builds_only_the_y_factor(capsys, monkeypatch,
                                                    pencil_solves):
    import refsat.coefficients as coefficients
    from refsat.bases import BoundaryCondition1D

    built = []
    classes = coefficients._classes

    def recording(bc, degree):
        built.append((bc, degree))
        return classes(bc, degree)

    monkeypatch.setattr(coefficients, "_classes", recording)
    assert run_cli(["compute", "--family", "B", "--edges", "3", "--p", "4",
                    "--q", "8", "--r", "16"], capsys)[0] == 0
    # F2's y factor is the free-free one, two parity chains at r and at q;
    # its left-Dirichlet x factor is never solved
    free = BoundaryCondition1D()
    assert built == [(free, 16), (free, 8)]
    assert len(pencil_solves) == 2 * 2


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
    dstevd = scipy.linalg.lapack.dstevd
    # E1 (4, 8, 16) solves its blocks densely: only the chains call dstevd.
    # It fails by its info, or with a smallest eigenvalue of the mass at 0
    for failure, reason in (("info", "dstevd returned info 3"),
                            ("indefinite", "the mass is not definite")):

        def fail(d, e, *args, failure=failure, **kwargs):
            theta, vec, info = dstevd(d, e, *args, **kwargs)
            if failure == "info":
                return theta, vec, 3
            return theta - theta[-1], vec, info

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", fail)
        message = "1D eigensolve failed: " + reason
        with pytest.raises(NumericalError, match=message):
            saturation_coefficient(_spec_for_problem("E1", 4, 8, 16))
        code, out, err = run_cli(["compute", "--family", "A", "--edges", "1",
                                  "--p", "4", "--q", "8", "--r", "16"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: " + message)


def test_failed_dense_eigensolve_is_a_numerical_failure(capsys, monkeypatch):
    dsyevd = scipy.linalg.lapack.dsyevd

    def fail_with_vectors(a, compute_v=1, **kwargs):
        # production asks for vectors on every call; a values-only one,
        # as the test oracles make, passes
        values, vectors, info = dsyevd(a, compute_v=compute_v, **kwargs)
        return values, vectors, 3 if compute_v else info

    monkeypatch.setattr(scipy.linalg.lapack, "dsyevd", fail_with_vectors)
    with pytest.raises(NumericalError,
                       match="^dense eigensolve failed: dsyevd returned info 3$"):
        saturation_coefficient(_spec_for_problem("E1", 4, 8, 16))
    code, out, err = run_cli(["compute", "--family", "A", "--edges", "1",
                              "--p", "4", "--q", "8", "--r", "16"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("numerical failure: dense eigensolve failed")


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


@pytest.fixture
def solves(monkeypatch):
    """Spy on the coefficient computation of the CLI; list its specs."""
    specs = []

    def spy(spec, factors=None):
        specs.append(spec)
        return saturation_coefficient(spec, factors)

    monkeypatch.setattr("refsat.cli.saturation_coefficient", spy)
    return specs


def test_reproduce_solves_each_distinct_cell_once(capsys, monkeypatch, solves):
    priced = []

    def price(spec):
        priced.append(spec)
        return estimated_seconds(spec)

    monkeypatch.setattr("refsat.cli.estimated_seconds", price)
    code, out, _ = run_cli(["reproduce", "--max-p", "16"], capsys)
    assert code == 0
    entries = [entry for entry in load_published_table() if entry.p <= 16]
    specs = [_spec_for_problem(entry.problem, entry.p, entry.q, entry.r)
             for entry in entries]
    # p+4 and 2p name the same cell at p = 4: 16 of the 96 rows repeat one
    assert (len(specs), len(set(specs))) == (96, 80)
    assert solves == list(dict.fromkeys(specs))
    # a repeated row reuses its cell's result unpriced: 80 estimates, not 96
    assert priced == solves
    # the rows equal those of solving every row afresh, but for the timing
    factors = {}
    expected = _format_row(CSV_COLUMNS, "csv") + "".join(
        _format_row(_row(spec, saturation_coefficient(spec, factors), "pass"),
                    "csv") for spec in specs)
    assert mask_wall(out) == mask_wall(expected)
    # and a repeated row repeats its cell's timing as well
    _, rows = parse_csv(out)
    first = {}
    for spec, row in zip(specs, rows):
        assert first.setdefault(spec, row) == row
    # the solved cells are forgotten when the run ends
    assert run_cli(["reproduce", "--max-p", "16"], capsys)[0] == 0
    assert len(solves) == 2 * 80


def test_sweep_solves_coinciding_strategies_once(tmp_path, capsys, solves):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problems": ["E1"], "strategies": ["p+4", "2p"],
                                "p_values": [4]}))
    code, out, _ = run_cli(["sweep", "--config", str(path)], capsys)
    assert code == 0
    assert solves == [_spec_for_problem("E1", 4, 8, 16)]
    _, rows = parse_csv(out)
    assert len(rows) == 2 and rows[0] == rows[1]
    assert rows[0][1:5] == ["E1", "4", "8", "16"]


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
        # at p = 4 the strategies p+4 and 2p name the same cell, so each
        # distinct cell is two rows: the rows before the third distinct
        # cell are E1, E1, E2, E2
        argv = ["reproduce", "--max-p", "4", "--output", str(target)]
        rows_per_cell = 2
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": ["E1", "C"],
                                    "strategies": ["2p"], "p_values": [2, 3],
                                    "output": str(target)}))
        argv = ["sweep", "--config", str(path)]
        rows_per_cell = 1
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "numerical failure: third cell" in err
    header, rows = parse_csv(target.read_text())
    assert ",".join(header) == EXPECTED_HEADER
    assert [tuple(row[1:5]) for row in rows] == [
        cell_key(spec) for spec in specs[:2] for _ in range(rows_per_cell)]
    if command == "reproduce":
        assert [row[1] for row in rows] == ["E1", "E1", "E2", "E2"]


#: numpy's message when an array cannot be allocated
ALLOCATION_FAILURE = ("Unable to allocate 16.5 GiB for an array with shape "
                      "(45451, 45451) and data type float64")


def test_out_of_memory_exits_3(capsys, monkeypatch):
    """A cell too large for memory is reported, not raised; the error is
    simulated, so nothing large is allocated."""
    def too_large(spec, factors=None):
        raise MemoryError(ALLOCATION_FAILURE)

    monkeypatch.setattr("refsat.cli.saturation_coefficient", too_large)
    code, out, err = run_cli(
        ["compute", "--family", "A", "--edges", "1", "--p", "300",
         "--q", "300", "--r", "600"], capsys)
    assert (code, out, err) == (3, "", f"out of memory: {ALLOCATION_FAILURE}\n")


def test_out_of_memory_keeps_the_finished_rows(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out.csv"
    specs = []

    def fail_on_third(spec, factors=None):
        specs.append(spec)
        if len(specs) == 3:
            raise MemoryError(ALLOCATION_FAILURE)
        return fake_result(spec)

    monkeypatch.setattr("refsat.cli.saturation_coefficient", fail_on_third)
    code, _, err = run_cli(
        ["reproduce", "--max-p", "4", "--output", str(target)], capsys)
    assert (code, err) == (3, f"out of memory: {ALLOCATION_FAILURE}\n")
    header, rows = parse_csv(target.read_text())
    assert ",".join(header) == EXPECTED_HEADER
    # each p = 4 cell is two rows, p+4 and 2p
    assert [tuple(row[1:5]) for row in rows] == [
        cell_key(spec) for spec in specs[:2] for _ in range(2)]
    assert [row[1] for row in rows] == ["E1", "E1", "E2", "E2"]


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
    # the budgets are read off the cost model, instead of constants that
    # sit a fraction of a millisecond from one of their estimates. The
    # sweep's is halfway between its costliest cell that runs and the one
    # that it skips, E1 (40, 80, 160)
    cells = {(name, p): _spec_for_problem(name, p, 2 * p, 4 * p)
             for name in ("E1", "C") for p in (2, 3, 40)}
    skipped = estimated_seconds(cells.pop(("E1", 40)))
    kept = max(estimated_seconds(spec) for spec in cells.values())
    assert kept < skipped
    for fmt, expected in (("csv", SWEEP_CSV), ("markdown", SWEEP_MARKDOWN)):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"problems": ["E1", "C"],
                                    "strategies": ["2p"],
                                    "p_values": [2, 3, 40], "format": fmt}))
        code, out, _ = run_cli(["sweep", "--config", str(path), "--budget",
                                repr((kept + skipped) / 2)], capsys)
        assert code == 0
        assert out == expected
    # the reproduce budget is halfway between the costliest r = 16 cell and
    # the cheapest r > 16 cell
    costs = {}
    for entry in load_published_table():
        if entry.p == 4:
            spec = _spec_for_problem(entry.problem, entry.p, entry.q, entry.r)
            costs.setdefault(entry.r == 16, []).append(estimated_seconds(spec))
    budget = (max(costs[True]) + min(costs[False])) / 2
    code, out, err = run_cli(
        ["reproduce", "--max-p", "4", "--budget", repr(budget)], capsys)
    assert code == 1
    lines = out.splitlines()
    assert lines[:7] == [
        EXPECTED_HEADER,
        "A,E1,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,fail",
        "A,E1,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,fail",
        "A,E2,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,fail",
        "A,E2,4,8,16,1.5714285714285714,1.5714,16,8,4,0.250,fail",
        "A,E3,4,8,16,---,---,---,---,---,---,skipped",
        "A,E3,4,8,16,---,---,---,---,---,---,skipped",
    ]
    statuses = [line.rsplit(",", 1)[1] for line in lines[1:]]
    assert statuses.count("fail") == 24 and statuses.count("skipped") == 8
    assert err.splitlines()[:2] == [
        "reproduce: 24 compared, 24 failed, 8 skipped (tol 0.0002)",
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


def test_patches_verify_output_is_pinned(capsys):
    assert run_cli(["patches", "verify"], capsys) == (
        0, PATCHES_VERIFY_OUTPUT, "")


def test_patches_verify_flags_corrupted_catalog(tmp_path, capsys):
    bad = tmp_path / "catalog.txt"
    bad.write_text(CORRUPTED_CATALOG)
    code, out, _ = run_cli(
        ["patches", "verify", "--catalog", str(bad)], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "    step 1 edge " in out


def test_patches_verify_corrupted_report_is_pinned(tmp_path, capsys):
    bad = tmp_path / "catalog.txt"
    bad.write_text(CORRUPTED_CATALOG)
    assert run_cli(["patches", "verify", "--catalog", str(bad)], capsys) == (
        1, CORRUPTED_REPORT, "")


def test_patches_verify_rejects_malformed_catalog(tmp_path, capsys):
    bad = tmp_path / "catalog.txt"
    bad.write_text("patch 1 boundary\ncells 2,1\ndirichlet H 0 0\n")
    code, _, err = run_cli(
        ["patches", "verify", "--catalog", str(bad)], capsys)
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("line", ["patch", "patch 1", "patch 1 boundary extra"])
def test_patches_verify_rejects_a_short_patch_line(tmp_path, capsys, line):
    bad = tmp_path / "catalog.txt"
    bad.write_text(f"{line}\ncells 2,1\n")
    code, out, err = run_cli(
        ["patches", "verify", "--catalog", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: malformed patch line")


@pytest.mark.parametrize("line", ["cells 1,1,1", "cells 1", "cells a,1",
                                  "patch x interior", "dirichlet V a 1"])
def test_patches_verify_names_a_line_that_does_not_parse(tmp_path, capsys, line):
    bad = tmp_path / "catalog.txt"
    head = "" if line.startswith("patch") else "patch 1 boundary\n"
    bad.write_text(f"{head}{line}\ncells 2,1\n")
    code, out, err = run_cli(
        ["patches", "verify", "--catalog", str(bad)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: malformed ") and line in err
    assert err.count("\n") == 1


def test_patches_verify_rejects_a_catalog_without_patches(tmp_path, capsys):
    empty = tmp_path / "catalog.txt"
    empty.write_text("# only a comment\n\n")
    code, out, err = run_cli(
        ["patches", "verify", "--catalog", str(empty)], capsys)
    assert (code, out) == (2, "")
    assert err == "invalid input: catalog has no patch line\n"


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


#: lists the heavy scipy and numpy modules loaded after each step; runs in a
#: fresh interpreter, as this one has them loaded already
IMPORT_PROBE = """\
import contextlib, io, json, sys

def step(name, action):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            action()
        except SystemExit:
            pass
    print(json.dumps([name] + [module for module in ("scipy.linalg",
          "scipy.sparse", "numpy.polynomial") if module in sys.modules]))

step("import refsat", lambda: __import__("refsat"))
step("import refsat.cli", lambda: __import__("refsat.cli"))
from refsat.cli import main
step("--help", lambda: main(["--help"]))
step("patches verify", lambda: main(["patches", "verify"]))
step("compute", lambda: main(["compute", "--family", "C", "--p", "3",
                              "--q", "6", "--r", "12"]))
"""


def test_help_and_patch_checks_load_no_scipy_linalg():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        cwd=Path(refsat.__file__).resolve().parents[1], timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    # the patch checks take their 1D spaces from the coefficients' chains,
    # so they load neither scipy.linalg nor numpy.polynomial
    assert steps[:4] == [["import refsat"], ["import refsat.cli"], ["--help"],
                         ["patches verify"]]
    # the probe sees the module once a coefficient needs it
    assert steps[4][:2] == ["compute", "scipy.linalg"]


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_the_reused_parser_parses_each_call_afresh(tmp_path, capsys):
    assert build_parser() is build_parser()
    compute = ["compute", "--family", "C", "--p", "3", "--q", "6", "--r", "12"]
    target = tmp_path / "out.csv"
    assert run_cli(compute + ["--output", str(target)], capsys)[:2] == (0, "")
    # the --output of the previous call does not carry over
    code, out, _ = run_cli(compute, capsys)
    assert code == 0
    assert mask_wall(out) == mask_wall(target.read_text())
    code, out, err = run_cli(["reproduce", "--max-p", "4", "--budget", "0"],
                             capsys)
    assert code == 0
    assert err == "reproduce: 0 compared, 0 failed, 32 skipped (tol 0.0002)\n"
    code, out, _ = run_cli(["patches", "verify"], capsys)
    assert code == 0 and out.endswith("catalog verified\n")
    bad = ["compute", "--family", "D", "--p", "3", "--q", "6", "--r", "12"]
    with pytest.raises(SystemExit) as reused:
        main(bad)
    reused_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh:
        build_parser.__wrapped__().parse_args(bad)
    assert reused.value.code == fresh.value.code == 2
    assert reused_err == capsys.readouterr().err
    assert "invalid choice: 'D'" in reused_err


def test_no_published_cell_exceeds_the_default_budget():
    for entry in load_published_table():
        spec = _spec_for_problem(entry.problem, entry.p, entry.q, entry.r)
        assert estimated_seconds(spec) <= DEFAULT_BUDGET_SECONDS, entry
