"""Write perfbench/snapshot.json: full-precision mu of every workload cell.

    python3 perfbench/make_snapshot.py

Run from the root of a source checkout. The benchmark checks every value it
computes against this snapshot, so regenerate it only when a change is meant
to move mu, and say so in the change.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import harness


def main() -> int:
    harness.cap_blas_threads()
    sys.path.insert(0, str(harness.SRC))
    import refsat.cli

    mu = {}
    for cell in harness.all_cells():
        call = harness.compute_call(cell)
        code, stdout, _ = harness.run_call(refsat.cli.main, call)
        if code != 0:
            print(f"{harness.cell_key(cell)}: exit {code}", file=sys.stderr)
            return 1
        row = next(csv.DictReader(io.StringIO(stdout)))
        mu[harness.cell_key(cell)] = float(row["mu"])
    harness.SNAPSHOT.write_text(json.dumps(
        {"env": harness.environment(), "mu": mu}, indent=1) + "\n")
    print(f"{len(mu)} cells written to {harness.SNAPSHOT.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
