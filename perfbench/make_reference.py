#!/usr/bin/env python3
"""Regenerate the seed-0 reference values in perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a checkout. Each workload's seed-0 sweeps run once in a
child process exactly as in a benchmark run (invariant checks only), and every
value of their CSVs is stored. Regenerate only when the expected physics
changes, and say why in the change that does it.
"""

import json
import shutil
import sys
import time
from pathlib import Path

import run


def main(names):
    root = Path.cwd()
    for workload in names or sorted(run.WORKLOADS):
        run_dir = root / ".bench_build" / "perfbench" / f"reference-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        cfgs = run.prepare(run.WORKLOADS[workload], 0, run_dir)
        runner = run.Runner(root, run_dir, cfgs, None, time.monotonic() + 3600)
        result = runner.child(sweep=True)
        if runner.failures:
            raise SystemExit(f"{workload}: invariant checks failed: {runner.failures[:5]}")
        tables = [
            run.checks.reference_values(Path(s["out"]) / f"{cfg['figure']}.csv")
            for cfg, s in zip(cfgs, result["sweeps"])
        ]
        out = run.HERE / "reference" / f"{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(tables, separators=(",", ":"), sort_keys=True) + "\n")
        shutil.rmtree(run_dir)
        print(f"{workload}: {sum(map(len, tables))} points -> {out}")


if __name__ == "__main__":
    main(sys.argv[1:])
