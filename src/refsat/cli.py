"""Command line interface.

Subcommands:

* ``compute``   one saturation coefficient for an explicit problem
* ``sweep``     a grid of problems described by a JSON config file
* ``reproduce`` recompute the packaged reference table and compare
* ``patches``   ``patches verify`` checks the refined-patch catalog

Tabular output uses a fixed CSV schema (see ``CSV_COLUMNS``); every value
is written in full repr precision next to a four-decimal display column.
Exit codes: 0 success, 1 comparison or verification failure, 2 invalid
input, 3 numerical failure or an array too large to allocate.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources

from .coefficients import (
    CANONICAL_PROBLEMS,
    FAMILIES,
    NumericalError,
    ProblemSpec,
    Q_STRATEGIES,
    SaturationResult,
    estimated_seconds,
    q_strategy,
    saturation_coefficient,
)
from .patches import (
    SITUATIONS,
    extension_norm,
    patch_catalog,
    verify_traversal_lemma,
)

__all__ = [
    "CSV_COLUMNS",
    "PublishedValue",
    "SweepConfig",
    "estimated_seconds",
    "load_published_table",
    "load_sweep_config",
    "main",
]

CSV_COLUMNS = (
    "family", "edge_class", "p", "q", "r", "mu", "mu_display",
    "dim_H", "dim_V", "dim_F", "wall_seconds", "status",
)

R_FACTORS = (2, 4, 8)
SKIP_MARK = "---"
DEFAULT_BUDGET_SECONDS = 300.0
DEFAULT_TOLERANCE = 2e-4


# ------------------------------------------------------------- row output


def _edge_class_label(spec: ProblemSpec) -> str:
    """The spec's canonical problem name, or its Dirichlet edges joined by
    '+' for a family-A edge set that is not canonical."""
    for name, problem in CANONICAL_PROBLEMS.items():
        if problem == (spec.family, spec.edges):
            return name
    return "+".join(str(e) for e in sorted(spec.edges))


def _row(spec: ProblemSpec, result: SaturationResult | None,
         status: str) -> list:
    """One table row's values in ``CSV_COLUMNS`` order; without a result
    the six result columns hold ``SKIP_MARK``."""
    if result is None:
        measured = [SKIP_MARK] * 6
    else:
        measured = [repr(result.mu), f"{result.mu:.4f}", result.dim_H,
                    result.dim_V, result.dim_F, f"{result.wall_seconds:.3f}"]
    return [spec.family, _edge_class_label(spec), spec.p, spec.q, spec.r,
            *measured, status]


def _format_row(values, fmt: str) -> str:
    """One line of a table in ``fmt``, 'csv' or 'markdown'."""
    if fmt == "markdown":
        return "| " + " | ".join(str(value) for value in values) + " |\n"
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(values)
    return buffer.getvalue()


def _format_header(fmt: str) -> str:
    """The column names, followed by the rule line of a markdown table."""
    header = _format_row(CSV_COLUMNS, fmt)
    if fmt == "markdown":
        header += "|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|\n"
    return header


def _open_output(output: str | None):
    if output is None or output == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(output, "w", encoding="utf-8")


# ----------------------------------------------------------- sweep config


@dataclass(frozen=True)
class SweepConfig:
    strategies: tuple[str, ...]
    p_values: tuple[int, ...]
    r_factors: tuple[int, ...]
    problems: tuple[str, ...]
    output: str | None
    format: str


_SWEEP_KEYS = {"strategies", "p_values", "r_factors", "problems", "output",
               "format"}


def _array(raw: dict, key: str, default: tuple) -> tuple:
    """The config's list under ``key``, or ``default`` where it is absent."""
    value = raw.get(key, list(default))
    if not isinstance(value, list) or not value:
        raise ValueError(f"{key} must be a non-empty JSON array")
    return tuple(value)


def load_sweep_config(path: str) -> SweepConfig:
    with open(path, encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _SWEEP_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    strategies = _array(raw, "strategies", Q_STRATEGIES)
    for name in strategies:
        if name not in Q_STRATEGIES:
            raise ValueError(f"unknown strategy {name!r}")
    p_values = _array(raw, "p_values", (4, 8, 16))
    if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in p_values):
        raise ValueError("p_values must be positive integers")
    r_factors = _array(raw, "r_factors", (2,))
    if any(type(f) is not int or f not in R_FACTORS for f in r_factors):
        raise ValueError(f"r_factors must be drawn from {R_FACTORS}")
    problems = _array(raw, "problems", tuple(CANONICAL_PROBLEMS))
    for name in problems:
        if not isinstance(name, str) or name not in CANONICAL_PROBLEMS:
            raise ValueError(f"unknown problem {name!r}")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "markdown"):
        raise ValueError("format must be 'csv' or 'markdown'")
    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        raise ValueError("output must be a string path")
    return SweepConfig(
        strategies=strategies, p_values=p_values, r_factors=r_factors,
        problems=problems, output=output, format=fmt,
    )


# -------------------------------------------------------- reference table


@dataclass(frozen=True)
class PublishedValue:
    problem: str
    strategy: str
    p: int
    q: int
    r: int
    value: float


def load_published_table() -> tuple[PublishedValue, ...]:
    text = (
        resources.files("refsat").joinpath("data/published_table.txt").read_text()
    )
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        problem, strategy, p, q, r, value = line.split()
        entry = PublishedValue(
            problem=problem, strategy=strategy, p=int(p), q=int(q), r=int(r),
            value=float(value),
        )
        if entry.problem not in CANONICAL_PROBLEMS:
            raise ValueError(f"unknown problem in reference table: {line!r}")
        if q_strategy(entry.strategy, entry.p) != entry.q:
            raise ValueError(f"inconsistent q in reference table: {line!r}")
        if entry.r not in tuple(factor * entry.q for factor in R_FACTORS):
            raise ValueError(f"inconsistent r in reference table: {line!r}")
        rows.append(entry)
    return tuple(rows)


def _spec_for_problem(name: str, p: int, q: int, r: int) -> ProblemSpec:
    family, edges = CANONICAL_PROBLEMS[name]
    return ProblemSpec(family=family, edges=edges, p=p, q=q, r=r)


# ------------------------------------------------------------ subcommands


def _cmd_compute(args: argparse.Namespace) -> int:
    edges = args.edges
    if edges is not None:
        try:
            edges = tuple(int(tok) for tok in edges.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse --edges {args.edges!r}") from exc
    spec = ProblemSpec(family=args.family, edges=edges, p=args.p, q=args.q,
                       r=args.r)
    # the destination is opened before the cell is computed, so an
    # unwritable one fails before any work
    with _open_output(args.output) as handle:
        row = _row(spec, saturation_coefficient(spec), "ok")
        handle.write(_format_header("csv") + _format_row(row, "csv"))
    return 0


def _sweep_cells(config: SweepConfig):
    for problem in config.problems:
        for factor in config.r_factors:
            for strategy in config.strategies:
                for p in config.p_values:
                    q = q_strategy(strategy, p)
                    yield problem, strategy, p, q, factor * q


def _write_cells(cells, output: str | None, fmt: str, budget: float,
                 tol: float = 0.0) -> tuple[int, int, list[str]]:
    """Compute each cell and write its row as soon as the cell is done.

    ``cells`` yields (spec, published) pairs. A published value gives the
    row the status pass or fail by ``tol``; None gives it ok. Cells whose
    cost estimate exceeds ``budget`` are written as skipped. The destination
    is opened and the header written before the first cell, so an
    unwritable destination fails before any work and a run stopped by an
    error keeps the rows already finished. All cells share one table of 1D
    factors, so each factor basis is diagonalized once per run, and each
    distinct spec is solved once per run: a row whose spec is already solved
    repeats that result, wall_seconds included, with its own status. Returns
    the number of compared and skipped cells and one line per failed
    comparison.
    """
    compared, skipped, failures = 0, 0, []
    factors, solved = {}, {}
    with _open_output(output) as handle:
        handle.write(_format_header(fmt))
        for spec, entry in cells:
            if estimated_seconds(spec) > budget:
                result, status = None, "skipped"
                skipped += 1
            else:
                if spec not in solved:
                    solved[spec] = saturation_coefficient(spec, factors=factors)
                result = solved[spec]
                status = "ok"
                if entry is not None:
                    compared += 1
                    diff = abs(result.mu - entry.value)
                    status = "pass" if diff <= tol else "fail"
                    if status == "fail":
                        failures.append(
                            f"{entry.problem} {entry.strategy} p={entry.p} "
                            f"q={entry.q} r={entry.r}: expected "
                            f"{entry.value:.4f}, got {result.mu:.6f} "
                            f"(diff {diff:.2e})"
                        )
            handle.write(_format_row(_row(spec, result, status), fmt))
            handle.flush()
    return compared, skipped, failures


def _check_budget(budget: float) -> None:
    if not 0.0 <= budget < math.inf:
        raise ValueError("--budget must be a finite number of seconds >= 0")


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_budget(args.budget)
    config = load_sweep_config(args.config)
    cells = (
        (_spec_for_problem(problem, p, q, r), None)
        for problem, _strategy, p, q, r in _sweep_cells(config)
    )
    _write_cells(cells, config.output, config.format, args.budget)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if not 0.0 < args.tol < math.inf:
        raise ValueError("--tol must be positive and finite")
    _check_budget(args.budget)
    table = load_published_table()
    smallest = min(entry.p for entry in table)
    if args.max_p < smallest:
        raise ValueError(f"--max-p {args.max_p} selects no published cell; "
                         f"the smallest published p is {smallest}")
    cells = (
        (_spec_for_problem(entry.problem, entry.p, entry.q, entry.r), entry)
        for entry in table if entry.p <= args.max_p
    )
    compared, skipped, failures = _write_cells(
        cells, args.output, "csv", args.budget, args.tol)
    print(
        f"reproduce: {compared} compared, {len(failures)} failed, "
        f"{skipped} skipped (tol {args.tol:g})",
        file=sys.stderr,
    )
    for line in failures:
        print("  " + line, file=sys.stderr)
    return 1 if failures else 0


def _cmd_patches_verify(args: argparse.Namespace) -> int:
    catalog = patch_catalog(args.catalog)
    all_passed = True
    for pid in sorted(catalog):
        patch = catalog[pid]
        report = verify_traversal_lemma(patch)
        counts = " ".join(f"{k}={v}" for k, v in report.situation_counts)
        status = "ok" if report.passed else "FAIL"
        if not report.passed:
            all_passed = False
        print(
            f"patch {pid:2d} {patch.vertex_kind:8s} "
            f"steps={patch.n_steps:2d} {status}"
            + (f"  situations: {counts}" if counts else "")
        )
        for violation in report.violations:
            print(f"    step {violation.step} edge {violation.edge}: "
                  f"{violation.reason}")
    print("extension operator norms in the H1 seminorm (degree 8, exact):")
    norms = {}
    for situation in SITUATIONS:
        # the e layout mirrors the d one across the anti-diagonal, an
        # isometry, so it has the same norm
        norms[situation] = (norms["d"] if situation == "e"
                            else extension_norm(situation, 8))
        print(f"    situation {situation}: norm {norms[situation]:.6f}")
    print("catalog " + ("verified" if all_passed else "FAILED"))
    return 0 if all_passed else 1


# ----------------------------------------------------------------- parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``refsat`` argument parser, built once per process: parsing
    leaves it unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="refsat",
        description="Saturation coefficients of polynomial trial spaces "
                    "on the reference square.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="one coefficient for an explicit problem")
    compute.add_argument("--family", required=True, choices=list(FAMILIES))
    compute.add_argument(
        "--edges", default=None,
        help="comma-separated Dirichlet edges, numbered 1..4 "
             "counterclockwise from the right edge, for families A and B; "
             "family B loads edge 1, which stays free, and takes 2, 3, '2,3' "
             "or '2,3,4'")
    compute.add_argument("--p", type=int, required=True,
                         help="functional family degree")
    compute.add_argument("--q", type=int, required=True,
                         help="coarse space degree")
    compute.add_argument("--r", type=int, required=True,
                         help="fine space degree")
    compute.add_argument("--output", default=None,
                         help="CSV destination ('-' or omitted for stdout)")
    compute.set_defaults(run=_cmd_compute)

    sweep = sub.add_parser("sweep", help="grid of problems from a JSON config")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--budget", type=float, default=DEFAULT_BUDGET_SECONDS,
                       help="skip cells whose cost estimate exceeds this "
                            "many seconds")
    sweep.set_defaults(run=_cmd_sweep)

    reproduce = sub.add_parser(
        "reproduce", help="recompute the packaged reference table")
    reproduce.add_argument("--max-p", type=int, default=12, dest="max_p",
                           help="only reference cells with p up to this")
    reproduce.add_argument("--tol", type=float, default=DEFAULT_TOLERANCE,
                           help="absolute tolerance against the reference")
    reproduce.add_argument("--budget", type=float,
                           default=DEFAULT_BUDGET_SECONDS)
    reproduce.add_argument("--output", default=None)
    reproduce.set_defaults(run=_cmd_reproduce)

    patches = sub.add_parser("patches", help="refined patch machinery")
    actions = patches.add_subparsers(dest="action", required=True)
    verify = actions.add_parser(
        "verify", help="check traversal and extensions for the whole catalog")
    verify.add_argument("--catalog", default=None,
                        help="alternative catalog data file")
    verify.set_defaults(run=_cmd_patches_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
