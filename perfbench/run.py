#!/usr/bin/env python3
"""rabicrit benchmark: wall time, set-up time, memory and correctness of
figure sweeps, with a traced run for the per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rabicrit checkout (the directory holding
`src/rabicrit`). Every sweep runs in a fresh child process (`child.py`) with
BLAS/OpenMP threads pinned to 1; the child imports `rabicrit.cli` and calls
`cli.main(["sweep", "--config", ...])`. Sweeps repeat until S seconds have
passed (at least once), then set-up-only children run until there are
MIN_SETUPS set-up samples. Each sweep's CSV is checked (`checks.py`); at seed
0 against the committed reference values in `reference/`, at other seeds by
the invariants only.

Workloads (sweep configs in `workloads/`, the paper's grids at seed 0):
- echo_exact: fig3 grid with the exact method. Dominated by dense
  diagonalisation and the echo time loop at one near-critical point (cutoff
  512); the heavy workload.
- methods_fig5: fig5 defaults, all four methods at t = 60. Many small points:
  per-call overhead and the Hamiltonian builders dominate; the echo time loop
  is a few percent, so an echo-kernel change should not move it.
- ground_scan: fig1 + fig2 defaults. No dynamics; goes through the separate
  ground-state records path with displaced-frame cutoffs up to 256.

Seeds other than 0 move each lambda away from lambda = 1 by a uniform random
fraction of half the gap to its outer grid neighbour (0.0025 for a lone
lambda), so every lambda stays in its own grid cell and order and |lambda - 1|
never drops below its seed-0 value (>= 0.005). Points with |lambda - 1| <=
0.01 stay fixed (see `jitter`), so the near-critical points that dominate the
cost are the same for every seed; ground_scan's two lambdas (0.99, 1.01) lie
in that band, so its seeds differ only in the checks (invariants only).

With --trace 0 the last stdout line holds the end-to-end metrics (medians over
the run's samples); with --trace 1, untraced and traced sweeps alternate and
it holds the per-layer metrics (medians over traced sweeps) from
`tracing.py`. The line before it is the environment block. The span dump of
the last traced sweep is kept in `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {
    "echo_exact": ["echo_exact.cfg"],
    "methods_fig5": ["methods_fig5.cfg"],
    "ground_scan": ["ground_fig1.cfg", "ground_fig2.cfg"],
}
MIN_SETUPS = 5
RUN_BUDGET_S = 170.0       # a run must end within 180 s
LONE_HALF_CELL = 0.0025    # half the fine lambda spacing of the paper grids
PINNED_DISTANCE = 0.01 + 1e-9   # near-critical band kept fixed by `jitter`
END_TO_END_UNITS = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a child crashed)."""


def parse_config(path) -> dict:
    """The flat `key = value` sweep config format of `rabicrit sweep`."""
    raw = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    floats = lambda key: [float(v) for v in raw.get(key, "").split()]
    return {
        "figure": raw["figure"],
        "lambda_grid": floats("lambda_grid"),
        "eta_grid": floats("eta_grid"),
        "time_grid": floats("time_grid"),
        "chi": float(raw.get("chi", "0")),
        "methods": raw["methods"].split(),
        "cutoff_tol": float(raw.get("cutoff_tol", "1e-8")),
    }


def write_config(cfg: dict, path):
    lines = [
        f"figure = {cfg['figure']}",
        "lambda_grid = " + " ".join(repr(v) for v in cfg["lambda_grid"]),
        "eta_grid = " + " ".join(repr(v) for v in cfg["eta_grid"]),
        "time_grid = " + " ".join(repr(v) for v in cfg["time_grid"]),
        f"chi = {cfg['chi']!r}",
        "methods = " + " ".join(cfg["methods"]),
        f"cutoff_tol = {cfg['cutoff_tol']!r}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def jitter(lams: list[float], rng: random.Random) -> list[float]:
    """Move each lambda away from 1 within the outer half of its grid cell.

    Points at |lambda - 1| <= PINNED_DISTANCE stay: there the cutoff needed
    changes by a factor of 2 to 4 within a fraction of the grid step (at eta =
    5000 lambda = 1.005 needs 512 and 1.0095 needs 128; at eta = 1000 lambda
    = 1.01 needs 128 and 1.011 needs 256), so moving them would change a
    run's cost by up to 8x with the seed.
    """
    out = []
    for i, lam in enumerate(lams):
        if abs(lam - 1.0) <= PINNED_DISTANCE:
            out.append(lam)
            continue
        outer = i - 1 if lam < 1.0 else i + 1
        inner = i + 1 if lam < 1.0 else i - 1
        if 0 <= outer < len(lams):
            half = abs(lams[outer] - lam) / 2
        elif 0 <= inner < len(lams):
            half = abs(lams[inner] - lam) / 2
        else:
            half = LONE_HALF_CELL
        step = rng.random() * half
        out.append(lam - step if lam < 1.0 else lam + step)
    return out


def prepare(config_names, seed: int, run_dir: Path) -> list[dict]:
    """Workload configs for this seed, written into run_dir."""
    rng = random.Random(seed)
    cfgs = []
    for name in config_names:
        cfg = parse_config(HERE / "workloads" / name)
        if seed != 0:
            cfg["lambda_grid"] = jitter(cfg["lambda_grid"], rng)
        cfg["path"] = str(run_dir / Path(name).name)
        write_config(cfg, cfg["path"])
        cfgs.append(cfg)
    return cfgs


def load_reference(workload: str):
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else None


class Runner:
    """Spawns child processes for one benchmark run and checks their output."""

    def __init__(self, root: Path, run_dir: Path, cfgs, reference, deadline: float):
        self.root, self.run_dir, self.cfgs = root, run_dir, cfgs
        self.reference = reference
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({k: "1" for k in THREAD_VARS})
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, sweep: bool, trace: bool = False) -> dict:
        """Run one child; return its result dict (plus its directory)."""
        self.count += 1
        cdir = self.run_dir / f"c{self.count}"
        cdir.mkdir()
        extra = ["--trace", str(cdir / "spans.json")] if trace else []
        if sweep:
            for i, cfg in enumerate(self.cfgs):
                extra += [cfg["path"], str(cdir / f"out{i}")]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        args = [sys.executable, str(HERE / "child.py"), str(cdir / "result.json"),
                repr(t_spawn), *extra]
        try:
            proc = subprocess.run(args, cwd=self.root, env=self.env, timeout=timeout,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child exceeded the run budget: {args}") from exc
        if proc.returncode != 0 or not (cdir / "result.json").exists():
            raise BenchError(f"child failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        result = json.loads((cdir / "result.json").read_text())
        result["dir"] = cdir
        if sweep:
            self._check(result)
        return result

    def _check(self, result):
        for i, (cfg, sweep) in enumerate(zip(self.cfgs, result["sweeps"])):
            expected = checks.expected_points(cfg)
            self.attempted += len(expected)
            if sweep["error"] is not None:
                self.failures += [f"{p}: sweep raised" for p in expected]
                print(f"sweep {cfg['path']} raised:\n{sweep['error']}", file=sys.stderr)
                continue
            ref = self.reference[i] if self.reference is not None else None
            csv_path = Path(sweep["out"]) / f"{cfg['figure']}.csv"
            for point, reason in checks.check_sweep(cfg, csv_path, ref).items():
                self.failures.append(f"{point}: {reason}")

    def output_size(self, result) -> tuple[int, int]:
        """(bytes written, records written) by one child's sweeps."""
        size = records = 0
        for sweep in result["sweeps"]:
            for f in Path(sweep["out"]).iterdir():
                size += f.stat().st_size
                if f.suffix == ".csv":
                    with open(f) as fh:
                        records += sum(1 for _ in fh) - 1
        return size, records


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            config_names=None, reference=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment block).

    `reference` is the list of per-config reference tables, or None to check
    the invariants only.
    """
    if not (root / "src" / "rabicrit" / "cli.py").is_file():
        raise BenchError(f"no rabicrit source tree under {root / 'src'}")
    t_start = time.monotonic()
    run_dir = root / ".bench_build" / "perfbench" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        cfgs = prepare(config_names or WORKLOADS[workload], seed, run_dir)
        runner = Runner(root, run_dir, cfgs, reference, t_start + RUN_BUDGET_S)
        if trace:
            metrics, env = _traced(runner, seconds, t_start,
                                   run_dir.parent / f"spans-{workload}.json")
        else:
            sweeps = [runner.child(sweep=True)]
            while time.monotonic() - t_start < seconds:
                sweeps.append(runner.child(sweep=True))
            setups = [r["setup_s"] for r in sweeps]
            while len(setups) < MIN_SETUPS:
                setups.append(runner.child(sweep=False)["setup_s"])
            ok = 1.0 - len(runner.failures) / runner.attempted
            metrics = {
                "sweep_s": statistics.median(r["sweep_s"] for r in sweeps),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in sweeps),
                "ok_frac": ok,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            env = sweeps[-1]["env"]
            env["samples"] = {"sweeps": len(sweeps), "setups": len(setups)}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    line = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return line, env


def _traced(runner: Runner, seconds: float, t_start: float, spans_keep: Path):
    plain, traced = [], []
    while not traced or time.monotonic() - t_start < seconds:
        plain.append(runner.child(sweep=True))
        traced.append(runner.child(sweep=True, trace=True))
    per_child = []
    for r in traced:
        m = tracing.layer_metrics(json.loads((r["dir"] / "spans.json").read_text()))
        m["experiments.output.bytes"], m["experiments.output.records"] = runner.output_size(r)
        per_child.append(m)
    shutil.copyfile(traced[-1]["dir"] / "spans.json", spans_keep)
    metrics = {k: statistics.median(m[k] for m in per_child) for k in per_child[0]}
    untraced = statistics.median(r["sweep_s"] for r in plain)
    metrics["trace.overhead_frac"] = metrics["trace.sweep_s"] / untraced - 1.0
    env = traced[-1]["env"]
    env["samples"] = {"untraced": len(plain), "traced": len(traced)}
    return {k: {"value": metrics[k], "unit": unit} for k, unit in tracing.METRICS.items()}, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        reference = load_reference(args.workload) if args.seed == 0 else None
        line, env = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                            Path.cwd(), reference=reference)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
