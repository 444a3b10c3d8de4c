#!/usr/bin/env python3
"""Write the golden normalized report of every (workload, chain).

    python3 bench/make_golden.py [workload ...]

Runs each chain once at offset 0 in the benchmark's child environment and
refuses to write a report that is not a PASS or whose Milnor number differs
from the closed form.  Only rerun it when a report is meant to change.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

from run import GOLDEN, OUT, WORKLOADS, golden_path, normalize, run_child, verdict_errors

# chains outside a workload whose golden reports the benchmark's tests use
SMOKE = {"invariants_big": ("3,3",)}


def main(names) -> int:
    OUT.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for chain in (*wl.chains, *SMOKE.get(name, ())):
            args = ["-m", "chainfact.cli", wl.command, "--chain", chain,
                    "--format", "json", *wl.flags]
            with tempfile.TemporaryDirectory(dir=OUT) as work:
                child = run_child(args, Path(work), time.monotonic() + 600)
            report = json.loads(child.stdout)
            errors = verdict_errors(name, chain, report)
            if child.returncode or errors:
                print(f"{name} {chain}: not written: exit {child.returncode} {errors}",
                      file=sys.stderr)
                return 1
            path = golden_path(name, chain)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(normalize(report), indent=1, sort_keys=True) + "\n")
            print(f"{name} {chain}: {child.wall_s:.2f} s -> {path.relative_to(GOLDEN)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
