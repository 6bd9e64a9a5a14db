"""Command-line interface: figure reproduction, config-driven sweeps, and the
dispersive-approximation check (`dynamics.validate_dispersive`).

A sweep's settings all come from its config: a figure command's default one
(`experiments.default_config`) or the file `sweep` is given. Exit status is 1
when a sweep point is degraded (non-converged), or the dispersive check misses
its threshold or finds no converged ground state; 2 for a bad flag or config
file. Errors and the check's warning are one line on stderr each.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import validate_dispersive
from .errors import ConvergenceError
from .experiments import SweepConfig, default_config, run
from .hamiltonians import ProbeParams, RabiParams, phase


def _checked(cast, test, wanted: str):
    """An argparse type: `cast`, then reject a value that is not finite or
    fails `test`."""

    def parse(text: str):
        value = cast(text)
        if not (isfinite(value) and test(value)):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value

    parse.__name__ = cast.__name__  # argparse's "invalid float value" message
    return parse


_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_positive = _checked(float, lambda v: v > 0, "finite and positive")
_non_negative = _checked(float, lambda v: v >= 0, "finite and non-negative")
_nonzero = _checked(float, lambda v: v != 0, "finite and nonzero")

_OUT = {"default": ".", "help": "output directory"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (`main` may run many times in one)."""
    parser = argparse.ArgumentParser(
        prog="rabicrit",
        description="Quantum Rabi model criticality: ground states, photon "
                    "statistics, and the Loschmidt echo of a dispersive probe.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for fig in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        sp = sub.add_parser(fig, help=f"reproduce {fig} as CSV")
        sp.add_argument("--out", **_OUT)

    sp = sub.add_parser("sweep", help="run a sweep described by a config file")
    sp.add_argument("--config", required=True, help="flat key = value config file")
    sp.add_argument("--out", **_OUT)

    sp = sub.add_parser("validate-dispersive",
                        help="tripartite check of the dispersive approximation")
    sp.add_argument("--lam", type=_non_negative, default=0.5)
    sp.add_argument("--eta", type=_positive, default=200.0)
    sp.add_argument("--g-s", type=_positive, default=0.05)
    sp.add_argument("--detuning-ratio", type=_nonzero, default=100.0,
                    help="Delta_s / g_s")
    sp.add_argument("--t-max", type=_non_negative, default=20.0)
    sp.add_argument("--n-times", type=_positive_int, default=41)
    sp.add_argument("--threshold", type=_positive, default=0.05,
                    help="maximum tolerated relative deviation")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate-dispersive":
        try:
            p = RabiParams(args.lam, args.eta)
            phase(p)
            probe = ProbeParams(args.g_s, args.detuning_ratio * args.g_s)
        except ValueError as exc:  # a derived value, g, the phase record, delta_s or chi, overflowed
            build_parser().exit(2, f"rabicrit validate-dispersive: error: {exc}\n")
        times = np.linspace(0.0, args.t_max, args.n_times)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", UserWarning)
                report = validate_dispersive(p, probe, times)
        except ConvergenceError as exc:
            print(f"rabicrit validate-dispersive: error: {exc}", file=sys.stderr)
            return 1
        for w in caught:
            print(f"rabicrit validate-dispersive: warning: {w.message}", file=sys.stderr)
        summary = {
            "max_rel_deviation": report.max_rel_deviation,
            "dispersive_regime": bool(report.dispersive_regime),
            "threshold": args.threshold,
            "passed": bool(report.max_rel_deviation < args.threshold),
        }
        print(json.dumps(summary, indent=1))
        return 0 if summary["passed"] else 1

    if args.command == "sweep":
        try:
            config = SweepConfig.from_file(args.config)
        except (ValueError, OSError) as exc:
            build_parser().exit(2, f"rabicrit sweep: error: {exc}\n")
    else:
        config = default_config(args.command)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        build_parser().exit(2, f"rabicrit {args.command}: error: --out: {exc}\n")
    points = run(config, args.out)
    n_rows = sum(len(pt.value) for pt in points)
    n_bad = sum(len(pt.value) for pt in points if not pt.converged)
    print(f"{config.figure}: {n_rows} records written to {args.out} ({n_bad} degraded)")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
