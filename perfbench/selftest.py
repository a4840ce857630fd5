"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout; takes about a minute. It checks:

* the output checker counts wrong values as failures, on synthetic outputs;
* a smoke run of the smallest slice of every workload, untraced and traced,
  through the same harness, prints exactly the metric names and units that
  ``BENCHMARK.json`` declares and passes its output checks;
* the computed work counts of a traced run repeat exactly in a second run.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def checker_problems() -> list[str]:
    """Feed the checker right and wrong outputs without running refsat."""
    expected = harness.Expected.load()
    cell = ("E1", 4, 8, 16)
    key = harness.cell_key(cell)
    call = harness.compute_call(cell)

    def csv_with(mu: float) -> str:
        return ("family,edge_class,p,q,r,mu,mu_display,dim_H,dim_V,dim_F,"
                f"wall_seconds,status\nA,E1,4,8,16,{mu!r},,,,,,ok\n")

    good = csv_with(expected.snapshot[key])
    snap = dict(expected.snapshot)
    snap[key] *= 1 + 1e-9
    published = dict(expected.published)
    published[key] += 3e-4
    patches = harness.Call(("patches", "verify"), ())
    cases = {
        "correct value": (call, 0, good, expected, False),
        "snapshot off by 1e-9 relative": (
            call, 0, good, harness.Expected(snap, expected.published), True),
        "published off by 3e-4": (
            call, 0, good, harness.Expected(expected.snapshot, published),
            True),
        "nonzero exit": (call, 3, good, expected, True),
        "missing row": (call, 0, csv_with(0.0).splitlines()[0], expected,
                        True),
        "extra row": (call, 0, good + good.splitlines()[1] + "\n", expected,
                      True),
        "catalog verified": (patches, 0, "catalog verified\n", expected,
                             False),
        "catalog FAILED": (patches, 0, "catalog FAILED\n", expected, True),
    }
    problems = []
    for name, (c, code, stdout, exp, should_fail) in cases.items():
        failed = bool(harness.check_output(c, code, stdout, exp)[1])
        if failed != should_fail:
            problems.append(f"checker: {name}: failed={failed}")
    if not harness.checker_catches_perturbations(call, good, expected):
        problems.append("checker: perturbation self-check missed a change")
    return problems


def smoke_run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def metric_problems(label: str, result: dict, declared: list[dict]) -> list:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    units = {m["name"]: m["unit"] for m in declared}
    printed = result["metrics"]
    if set(printed) != set(units):
        problems.append(f"{label}: metric names differ from BENCHMARK.json: "
                        f"{sorted(set(printed) ^ set(units))}")
    for name, entry in printed.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != units.get(name):
            problems.append(f"{label}: {name} prints {entry}, "
                            f"unit should be {units.get(name)!r}")
        elif not isinstance(entry["value"], (int, float)):
            problems.append(f"{label}: {name} value is not a number")
    return problems


def main() -> int:
    spec = json.loads(BENCHMARK.read_text())
    problems = checker_problems()
    declared = [w["name"] for w in spec["workloads"]]
    if declared != list(harness.WORKLOADS):
        problems.append(f"workloads {declared} != {list(harness.WORKLOADS)}")
    for workload in harness.WORKLOADS:
        problems += metric_problems(f"{workload} trace 0",
                                    smoke_run(workload, 0), spec["end_to_end"])
        counts = []
        for _ in range(2):
            problems += metric_problems(f"{workload} trace 1",
                                        smoke_run(workload, 1),
                                        spec["per_layer"])
            trace = HERE / "out" / f"trace-{workload}-seed1-smoke.json"
            counts.append(json.loads(trace.read_text())["computed"])
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            problems.append(f"{workload}: computed counts differ: {diff}")
        print(f"{workload}: smoke runs done", flush=True)
    for line in problems:
        print("FAIL " + line)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
