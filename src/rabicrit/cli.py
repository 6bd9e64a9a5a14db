"""Command-line interface: figure reproduction, config-driven sweeps, and the
dispersive-approximation check.

Exit status is nonzero iff any sweep point is degraded (non-converged) or a
validation threshold is missed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import isfinite

import numpy as np

from . import __version__
from .experiments import SweepConfig, default_config, run, validate_dispersive
from .hamiltonians import ProbeParams, RabiParams
from .spectra import CUTOFF_TOL


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
_CUTOFF_TOL = {"type": _positive, "default": CUTOFF_TOL,
               "help": "ground-energy tolerance for cutoff doubling"}


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
        sp.add_argument("--cutoff-tol", **_CUTOFF_TOL)

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
    sp.add_argument("--cutoff-tol", **_CUTOFF_TOL)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "validate-dispersive":
        p = RabiParams.from_dimensionless(args.lam, args.eta)
        delta_s = args.detuning_ratio * args.g_s
        probe = ProbeParams(1.0 + delta_s, args.g_s, delta_s)
        times = np.linspace(0.0, args.t_max, args.n_times)
        report = validate_dispersive(p, probe, times, cutoff_tol=args.cutoff_tol)
        summary = {
            "max_rel_deviation": report.max_rel_deviation,
            "dispersive_regime": bool(report.dispersive_regime),
            "threshold": args.threshold,
            "passed": bool(report.max_rel_deviation < args.threshold),
        }
        print(json.dumps(summary, indent=1))
        return 0 if summary["passed"] else 1

    if args.command == "sweep":
        config = SweepConfig.from_file(args.config)
    else:
        config = default_config(args.command, args.cutoff_tol)
    points = run(config, args.out)
    n_rows = sum(len(pt.value) for pt in points)
    n_bad = sum(len(pt.value) for pt in points if not pt.converged)
    print(f"{config.figure}: {n_rows} records written to {args.out} ({n_bad} degraded)")
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
