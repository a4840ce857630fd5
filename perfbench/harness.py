"""Workloads, output checks and environment record of the refsat benchmark.

Every workload is a fixed list of ``refsat`` command lines, run in-process
through ``refsat.cli.main(argv)`` one after another (a closed loop with one
client). ``perfbench/README.md`` says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import platform
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PUBLISHED = SRC / "refsat" / "data" / "published_table.txt"
SNAPSHOT = Path(__file__).resolve().parent / "snapshot.json"

#: absolute tolerance against the four-decimal published table
PUBLISHED_TOL = 2e-4
#: relative tolerance against the full-precision snapshot of this code
SNAPSHOT_RTOL = 1e-10

TABLE_MAX_P = 16
SMOKE_TABLE_MAX_P = 4

#: heaviest published family-A cells that cost about a second each; one per
#: Dirichlet class, so every dual-Gram input is distinct
VOLUME_CELLS = tuple((name, 28, 32, 64) for name in
                     ("E1", "E2", "E3", "E4", "E5"))
#: published family-B/C cells with the largest fine space (r = 256) and the
#: most load rows (p = 64), one per problem
EDGE_CELLS = tuple((name, 64, 128, 256) for name in
                   ("F1", "F2", "F3", "F4", "C"))

WORKLOADS = ("table_p16", "volume_heavy", "edge_fine", "patches_verify")

_FAMILY = {"E": "A", "F": "B", "C": "C"}
_EDGES = {"E1": "1", "E2": "1,2", "E3": "1,3", "E4": "1,2,3", "E5": "1,2,3,4",
          "F1": "2", "F2": "3", "F3": "2,3", "F4": "2,3,4"}


def cell_key(cell) -> str:
    return " ".join(str(part) for part in cell)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the cells its CSV output must hold, in order.

    A call with no cells is ``patches verify``.
    """

    argv: tuple[str, ...]
    cells: tuple[tuple, ...]


def published_cells() -> list[tuple[tuple, float]]:
    """(cell, value) rows of the packaged reference table, in file order.

    Parsed here rather than through ``refsat.cli.load_published_table`` so
    that the check does not trust the parser it checks.
    """
    rows = []
    for raw in PUBLISHED.read_text().splitlines():
        line = raw.split("#", 1)[0].split()
        if line:
            problem, _strategy, p, q, r, value = line
            rows.append(((problem, int(p), int(q), int(r)), float(value)))
    return rows


def compute_call(cell) -> Call:
    problem, p, q, r = cell
    argv = ["compute", "--family", _FAMILY[problem[0]],
            "--p", str(p), "--q", str(q), "--r", str(r)]
    if problem in _EDGES:
        argv += ["--edges", _EDGES[problem]]
    return Call(tuple(argv), (cell,))


def reproduce_call(max_p: int) -> Call:
    cells = tuple(cell for cell, _ in published_cells() if cell[1] <= max_p)
    return Call(("reproduce", "--max-p", str(max_p)), cells)


def workload_calls(name: str, seed: int, smoke: bool = False) -> list[Call]:
    """The calls of one pass. The seed permutes the order of compute calls.

    ``smoke`` keeps only the smallest slice of the workload.
    """
    if name == "table_p16":
        return [reproduce_call(SMOKE_TABLE_MAX_P if smoke else TABLE_MAX_P)]
    if name == "patches_verify":
        return [Call(("patches", "verify"), ())]
    if name not in ("volume_heavy", "edge_fine"):
        raise ValueError(f"unknown workload {name!r}")
    cells = list(VOLUME_CELLS if name == "volume_heavy" else EDGE_CELLS)
    random.Random(seed).shuffle(cells)
    return [compute_call(cell) for cell in cells[:1 if smoke else None]]


def all_cells() -> list[tuple]:
    """Every cell any workload computes, for the snapshot."""
    cells = [c for name in WORKLOADS
             for call in workload_calls(name, 0) for c in call.cells]
    return list(dict.fromkeys(cells))


# ----------------------------------------------------------------- checks


@dataclass(frozen=True)
class Expected:
    snapshot: dict[str, float]
    published: dict[str, float]

    @classmethod
    def load(cls) -> "Expected":
        snapshot = json.loads(SNAPSHOT.read_text())["mu"]
        published = {cell_key(c): v for c, v in published_cells()}
        return cls(snapshot=snapshot, published=published)


def check_mu(key: str, mu: float, expected: Expected) -> str | None:
    """Reason the value of one cell is wrong, or None when it is right."""
    published = expected.published.get(key)
    if published is not None and not abs(mu - published) <= PUBLISHED_TOL:
        return f"{key}: mu {mu!r} off published {published}"
    snap = expected.snapshot.get(key)
    if snap is None:
        return f"{key}: no snapshot value"
    if not abs(mu - snap) <= SNAPSHOT_RTOL * abs(snap):
        return f"{key}: mu {mu!r} off snapshot {snap!r}"
    return None


def check_output(call: Call, code: int, stdout: str,
                 expected: Expected) -> tuple[int, list[str]]:
    """(checks attempted, failure reasons) for one call's output."""
    if not call.cells:
        ok = code == 0 and "catalog verified" in stdout.splitlines()
        return 1, [] if ok else [f"patches verify: exit {code}"]
    if code != 0:
        return len(call.cells), [f"{' '.join(call.argv)}: exit {code}"] * len(
            call.cells)
    rows = list(csv.DictReader(io.StringIO(stdout)))
    failures = []
    for i, cell in enumerate(call.cells):
        key = cell_key(cell)
        row = rows[i] if i < len(rows) else None
        if row is None or cell_key((row["edge_class"], row["p"], row["q"],
                                    row["r"])) != key:
            failures.append(f"{key}: missing from output")
            continue
        reason = check_mu(key, float(row["mu"]), expected)
        if reason:
            failures.append(reason)
    if len(rows) > len(call.cells) and not failures:
        # extra rows fail the call once, so failures never exceed checks
        failures.append(f"{' '.join(call.argv)}: {len(rows)} rows, "
                        f"expected {len(call.cells)}")
    return len(call.cells), failures


def checker_catches_perturbations(call: Call, stdout: str,
                                  expected: Expected) -> bool:
    """True when perturbed expected values are reported as failures.

    Shifts the snapshot value of the call's first cell by 1e-9 relative and
    its published value by 3e-4, and hides the patches verdict; the checker
    must count each as a failure.
    """
    if not call.cells:
        doctored = stdout.replace("catalog verified", "catalog FAILED")
        return bool(check_output(call, 0, doctored, expected)[1])
    key = cell_key(call.cells[0])
    snapshot = dict(expected.snapshot)
    snapshot[key] *= 1 + 1e-9
    caught = bool(check_output(call, 0, stdout,
                               Expected(snapshot, expected.published))[1])
    if key in expected.published:
        published = dict(expected.published)
        published[key] += 1.5 * PUBLISHED_TOL
        caught = caught and bool(check_output(
            call, 0, stdout, Expected(expected.snapshot, published))[1])
    return caught


def run_call(main, call: Call) -> tuple[int, str, float]:
    """Run one CLI call in-process: (exit code, stdout, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(call.argv))
    return code, out.getvalue(), time.perf_counter() - start


# ------------------------------------------------------ machine speed


#: seconds ``reference_seconds`` took on the machine this benchmark was
#: written on (2-core Xeon VM) when the host was quiet; it only sets the
#: scale of speed-normalized times
REF_SECONDS = 0.1


def reference_seconds() -> float:
    """Time one run of a fixed kernel that gauges the machine's current speed.

    An arithmetic loop, a loop building small dicts, tuples and frozensets,
    and dense matrix products, a third each, like the mix of interpreter and
    BLAS work in the workloads. On a shared host the speed of the same code
    drifts by up to 2x for minutes at a time; timing the kernel next to each
    pass lets the benchmark report times at a fixed machine speed.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((256, 256))
    start = time.perf_counter()
    total = 0
    for i in range(450_000):
        total += i * i % 7
    for i in range(12_000):
        d = {(j, i): frozenset((j, j + 1)) for j in range(6)}
        total += len(sorted(d, key=lambda k: -k[0]))
    for _ in range(50):
        a @ a
    return time.perf_counter() - start


def normalized(seconds: float, refs: list[float]) -> float:
    """Seconds at the speed where the reference kernel takes REF_SECONDS."""
    return seconds * REF_SECONDS / statistics.median(refs)


# ------------------------------------------------------------ environment


def cap_blas_threads() -> None:
    """Pin OpenBLAS to one thread unless set, and never above the cores.

    Must run before numpy is imported; child processes inherit the value.
    On a shared two-core machine one thread was both faster and steadier
    than two (see README.md).
    """
    nproc = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("OPENBLAS_NUM_THREADS", 1))
    except ValueError:
        wanted = 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(wanted, nproc)))


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment() -> dict:
    """Versions, BLAS and machine facts that every result is recorded with."""
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gib": round(
            os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "git_commit": _git_commit(),
        "argv": sys.argv[1:],
    }
