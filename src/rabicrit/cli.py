"""Command-line interface: figure reproduction and config-driven sweeps.

A sweep's settings all come from its config: a figure command's default one
(`experiments.default_config`) or the file `sweep` is given. Exit status is 1
when a sweep point is degraded (non-converged); 2 for a bad flag or config
file, which is one line on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .experiments import SweepConfig, default_config, run

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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

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
