"""One benchmark child process: import rabicrit, run sweeps, write a result file.

    python3 child.py RESULT_JSON T_SPAWN [--trace SPANS_JSON] [CONFIG OUT_DIR]...

T_SPAWN is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start-up and the import of
`rabicrit.cli`. With no CONFIG/OUT_DIR pairs the child only measures set-up.
Each pair is one `rabicrit sweep --config CONFIG --out OUT_DIR` call through
`cli.main`; a sweep that raises is recorded, not propagated, so the parent can
count its points as failed.
"""

import sys
import time


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv):
    result_path, t_spawn = argv[0], float(argv[1])
    from rabicrit import cli

    setup_s = _now() - t_spawn

    import json
    import resource
    import traceback

    rest = argv[2:]
    spans_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    pairs = list(zip(rest[0::2], rest[1::2]))

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    sweeps = []
    for config, out_dir in pairs:
        argv_cli = ["sweep", "--config", config, "--out", out_dir]
        error = None
        t0 = _now()
        try:
            if tracer is None:
                rc = cli.main(argv_cli)
            else:
                rc = tracer.root("cli.main", cli.main, argv_cli)
        except Exception:  # recorded per sweep; the parent counts its points as failed
            rc, error = None, traceback.format_exc(limit=3)
        sweeps.append({"config": config, "out": out_dir, "rc": rc,
                       "error": error, "sweep_s": _now() - t0})

    result = {
        "setup_s": setup_s,
        "sweep_s": sum(s["sweep_s"] for s in sweeps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "sweeps": sweeps,
        "env": _environment(),
    }
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


def _environment():
    import os
    import platform

    import numpy
    import scipy

    def blas(show_config):
        try:
            deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return "unknown"
        return deps.get("openblas configuration") or deps.get("name", "unknown")

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
