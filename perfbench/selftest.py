#!/usr/bin/env python3
"""Fast self-test of the benchmark harness on a tiny grid (about 30 s).

    python3 perfbench/selftest.py

Run from the root of a checkout. It runs the harness untraced and traced on
tiny echo and ground-state sweeps (seed 0 and a jittered seed) and checks
that the result line has the contract's keys, that every metric named in
BENCHMARK.json is emitted with its unit and a valid name, that the reference
check rejects a perturbed value, and that the benchmark refuses to run
without a source tree. Exits non-zero on the first failure.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import checks
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = {
    "tiny_echo.cfg": (
        "figure = custom\nlambda_grid = 0.5 0.9 1.1 1.3\neta_grid = 200.0\n"
        "time_grid = 0.0 5.0 10.0\nchi = 0.001\n"
        "methods = exact effective analytic variational\ncutoff_tol = 1e-08\n"
    ),
    "tiny_ground.cfg": (
        "figure = fig1\nlambda_grid = 0.9\neta_grid = 100.0 200.0\ntime_grid = 0.0\n"
        "chi = 0.0\nmethods = exact effective variational\ncutoff_tol = 1e-08\n"
    ),
}


def check_line(line, declared):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] is True and line["failed"] == 0, line
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    metrics = line["metrics"]
    assert set(metrics) == set(declared), set(metrics) ^ set(declared)
    for name, entry in metrics.items():
        assert NAME.fullmatch(name), name
        assert set(entry) == {"value", "unit"}, entry
        assert UNIT.fullmatch(entry["unit"]) and entry["unit"] == declared[name], (name, entry)
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)


def main():
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert set(per_layer) == set(run.tracing.METRICS), set(per_layer) ^ set(run.tracing.METRICS)
    scratch = root / ".bench_build" / "perfbench" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    names = []
    for name, text in TINY.items():
        (scratch / name).write_text(text)
        names.append(str(scratch / name))

    for seed in (0, 3):
        for trace, declared in ((False, end_to_end), (True, per_layer)):
            line, env = run.measure("selftest", seed, 0.0, trace, root,
                                    config_names=names, reference=None)
            check_line(line, declared)
            assert {"python", "numpy", "scipy", "numpy_blas", "threads", "nproc",
                    "cpu_model"} <= set(env), env
            print(f"seed {seed} trace {int(trace)}: {len(line['metrics'])} metrics ok")

    # the reference comparison must reject a value moved beyond its tolerance
    cfgs = run.prepare(names[:1], 0, scratch)
    runner = run.Runner(root, scratch, cfgs, None, time.monotonic() + 120)
    csv_path = Path(runner.child(sweep=True)["sweeps"][0]["out"]) / "custom.csv"
    reference = checks.reference_values(csv_path)
    assert not checks.check_sweep(cfgs[0], csv_path, reference)
    point = checks.point_id(("exact", 0.9, 200.0))
    reference[point][checks.value_id("loschmidt_echo", 10.0)] -= 0.01
    assert list(checks.check_sweep(cfgs[0], csv_path, reference)) == [("exact", 0.9, 200.0)]
    print("reference check rejects a perturbed value")

    # without a source tree the benchmark exits non-zero and prints no result
    bare = scratch / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                           "methods_fig5", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("bare checkout refused")
    shutil.rmtree(scratch)
    print("selftest passed")


if __name__ == "__main__":
    main()
