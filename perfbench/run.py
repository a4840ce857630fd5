"""Benchmark of the refsat command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. A run does the set-up (import plus first load of the packaged
table and catalog), times it again in fresh processes, then repeats passes
over the workload's CLI calls in this process until ``--seconds`` have been
measured (at least ``MIN_PASSES``), checking every output. Times are
normalized to a fixed machine speed with a reference kernel (see
``harness.reference_seconds``). With ``--trace 1`` it alternates untraced
and traced passes and reports per-layer metrics in raw seconds instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs the four workloads one after another, each in its own process, and
prints a table of their metrics instead. The workloads and metrics are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
SRC = harness.SRC
OUT = HERE / "out"

#: end-to-end metrics of an untraced run, with their units
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "pass_ratio": "ratio",
}
SETUP_SAMPLES = 5
MIN_PASSES = 3

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import refsat.cli, refsat.patches
refsat.cli.load_published_table()
refsat.patches.patch_catalog()
print(time.perf_counter() - start)
"""


def setup_seconds() -> tuple[float, float]:
    """Median set-up time over fresh interpreter processes: (normalized, raw).

    Each sample is normalized by the reference kernel timed in this process
    right before and after the child.
    """
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = harness.reference_seconds()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        after = harness.reference_seconds()
        raw.append(float(proc.stdout.split()[-1]))
        samples.append(harness.normalized(raw[-1], [before, after]))
    return statistics.median(samples), statistics.median(raw)


class Tally:
    """Checks attempted and failed over a run, plus the checker self-test."""

    def __init__(self, expected) -> None:
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []
        self.checker_ok: bool | None = None

    def record(self, call, code: int, stdout: str) -> None:
        attempted, failures = harness.check_output(
            call, code, stdout, self.expected)
        self.attempted += attempted
        self.failures += failures
        if self.checker_ok is None and code == 0:
            self.checker_ok = harness.checker_catches_perturbations(
                call, stdout, self.expected)


def one_pass(cli, calls, tally: Tally) -> tuple[float, float]:
    """Run every call once: (normalized, raw) summed wall seconds of the calls.

    The reference kernel runs before the first call and after each call.
    """
    wall = 0.0
    refs = [harness.reference_seconds()]
    for call in calls:
        # looked up per call, so a traced pass reaches the wrapped main
        code, stdout, seconds = harness.run_call(cli.main, call)
        refs.append(harness.reference_seconds())
        wall += seconds
        tally.record(call, code, stdout)
    return harness.normalized(wall, refs), wall


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import refsat.cli as cli
    import refsat.patches
    cli.load_published_table()
    refsat.patches.patch_catalog()
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"refsat imported from {cli.__file__}, not {SRC}")
    import spans

    env = harness.environment()
    calls = harness.workload_calls(args.workload, args.seed, args.smoke)
    tally = Tally(harness.Expected.load())
    if not args.trace:
        setup, raw_setup = setup_seconds()
    start = time.perf_counter()

    def measuring() -> bool:
        return time.perf_counter() - start < args.seconds

    if not args.trace:
        walls, raw_walls = [], []
        while len(walls) < MIN_PASSES or measuring():
            wall, raw = one_pass(cli, calls, tally)
            walls.append(wall)
            raw_walls.append(raw)
        print(f"raw seconds: setup {raw_setup!r}, pass median "
              f"{statistics.median(raw_walls)!r} over {len(raw_walls)} passes")
        values = {
            "setup_s": setup,
            "wall_s": statistics.median(walls),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1 - len(tally.failures) / tally.attempted,
        }
        units = END_TO_END
    else:
        untraced, traced, layers = [], [], []
        while not traced or measuring():
            untraced.append(one_pass(cli, calls, tally)[1])
            with spans.Tracer() as tracer:
                traced.append(one_pass(cli, calls, tally)[1])
            layers.append(spans.layer_metrics(tracer.spans,
                                              cli.estimated_seconds))
        values = spans.combine(layers)
        values["trace.overhead_s"] = (statistics.median(traced)
                                      - statistics.median(untraced))
        units = spans.PER_LAYER
        OUT.mkdir(exist_ok=True)
        suffix = "-smoke" if args.smoke else ""
        path = OUT / f"trace-{args.workload}-seed{args.seed}{suffix}.json"
        path.write_text(json.dumps({
            "env": env,
            "workload": args.workload,
            "computed": {k: values[k] for k in spans.COMPUTED},
            "timed": {k: v for k, v in values.items()
                      if k not in spans.COMPUTED},
            "cost_model": spans.cost_model_rows(tracer.spans,
                                                cli.estimated_seconds),
            "span_columns": ["id", "parent", "call", "name", "start", "end",
                             "probed"],
            "spans": spans.span_records(tracer.spans),
        }))
        print(f"trace written to {path.relative_to(HERE.parent)}")

    print("env " + json.dumps(env))
    for reason in tally.failures[:20]:
        print("check failed: " + reason, file=sys.stderr)
    if not tally.checker_ok:
        print("checker self-test failed: a perturbed expected value passed",
              file=sys.stderr)
    failed = len(tally.failures)
    print(json.dumps({
        "correct": failed == 0 and bool(tally.checker_ok),
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints a table."""
    results = {}
    for name in harness.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    first = next(iter(results.values()))
    rows = [(metric, entry["unit"]) for metric, entry in first["metrics"].items()]
    rows.append(("fail_ratio", "ratio"))
    for result in results.values():
        result["metrics"]["fail_ratio"] = {
            "value": result["failed"] / result["attempted"]}
    width = max(len(metric) for metric, _ in rows)
    print(f"{'metric':{width}}  {'unit':6}" + "".join(
        f"  {name:>15}" for name in results))
    for metric, unit in rows:
        print(f"{metric:{width}}  {unit:6}" + "".join(
            f"  {result['metrics'][metric]['value']:15.6g}"
            for result in results.values()))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run only the smallest slice of the workload")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    if not (SRC / "refsat" / "__init__.py").is_file():
        print(f"no refsat sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    harness.cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
