"""Figure-reproduction sweeps, flat-file config parsing (every value checked
finite before the output directory is made; errors name file, line and
key), and CSV/JSON reports. A `SweepConfig` is the one source of every
sweep setting, the Fock-cutoff tolerance `cutoff_tol` included: the figure
commands run `default_config(figure)`, at `spectra.CUTOFF_TOL`.

A sweep point (`_point`) is the one place that picks a method's path: the
exact and effective methods solve a ground state from the method table of
`dynamics` (`GROUND_STATES`) and take its echo from
`dynamics.decoherence_factor`; the variational and analytic methods take
the Gaussian law (`analytic.short_time_le`) at their own photon-number
variance. Every echo is taken at the chi the config holds, and records, so
a sweep builds no probe. Every echo point records its ground state's mean
photon number and the smallest probe detuning, `delta_s_min`, at which the
dispersive step behind chi holds there. A point whose cutoff search reaches
the hard cap, whose variational photon mean or variance is negative or not
finite, or whose phase record is not finite, is degraded."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from functools import cache
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import CRITICAL_BAND, near_critical, short_time_le, variance
from .dynamics import GROUND_STATES, decoherence_factor
from .errors import ConvergenceError, PhaseDomainError
from .hamiltonians import RabiParams, phase
from .spectra import CUTOFF_TOL
from .variational import solve as variational_solve

# CPython's built-in SHA-256, as `random` takes its sha512: `hashlib` would
# map OpenSSL's libcrypto into the process for this one digest
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = 2
CSV_HEADER = "figure,method,lambda,eta,chi,omega_c_t,value_name,value,cutoff,converged"

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5", "custom")
GROUND_FIGURES = ("fig1", "fig2")  # the ground state itself, no echo
METHODS = ("exact", "effective", "variational", "analytic")
LAMBDA_STEP_FINE = 0.005     # steps of `critical_lambda_grid` on [0.9, 1.1]
LAMBDA_STEP_COARSE = 0.02    # and elsewhere
# The dispersive step holds for |Delta_s| >> g_s sqrt(<n> + 1) (Blais et al.,
# PRA 69, 062320 (2004)), taken as this factor; at g_s^2 = chi Delta_s it
# reads Delta_s >= DISPERSIVE_MARGIN^2 chi (<n> + 1), a point's `delta_s_min`
DISPERSIVE_MARGIN = 10.0


@dataclass
class SweepConfig:
    figure: str
    lambda_grid: list[float]
    eta_grid: list[float]
    time_grid: list[float]
    chi: float
    methods: list[str]
    cutoff_tol: float = CUTOFF_TOL

    def validate(self):
        if self.figure not in FIGURES:
            raise ValueError(f"figure must be one of {FIGURES}, got {self.figure!r}")
        for name, grid in (
            ("lambda_grid", self.lambda_grid),
            ("eta_grid", self.eta_grid),
            ("time_grid", self.time_grid),
        ):
            if not grid:
                raise ValueError(f"{name} must be non-empty")
            if not all(map(isfinite, grid)):
                raise ValueError(f"{name} values must be finite")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not all(v >= 0 for v in self.lambda_grid):
            raise ValueError("lambda_grid values must be non-negative")
        if not all(v > 0 for v in self.eta_grid):
            raise ValueError("eta_grid values must be positive")
        if not all(v >= 0 for v in self.time_grid):
            raise ValueError("time_grid values must be non-negative")
        for name in ("chi", "cutoff_tol"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # the echo's exponent holds chi^2; the largest coupling g = lam sqrt(eta) / 2
        # and the largest phase record sit at the grids' ends
        if not isfinite(self.chi * self.chi):
            raise ValueError(f"chi too large: chi^2 of {self.chi:g} is not finite")
        try:
            phase(RabiParams(self.lambda_grid[-1], self.eta_grid[-1]))
        except ValueError as exc:
            raise ValueError(f"lambda_grid and eta_grid out of range: {exc}") from None
        if not self.cutoff_tol > 0:
            raise ValueError("cutoff_tol must be positive")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must list one or more methods, each once: {self.methods}")
        if self.figure in GROUND_FIGURES:
            if "analytic" in self.methods:
                raise ValueError(f"figure {self.figure} has no 'analytic' method")
            # no echo: a time or a probe would change the hash, not the results
            if self.time_grid != [0.0]:
                raise ValueError(f"figure {self.figure} takes time_grid = 0 only")
            if self.chi != 0.0:
                raise ValueError(f"figure {self.figure} takes chi = 0 only")
        elif not self.chi > 0:
            raise ValueError("chi must be positive for echo figures")
        # the closed-form variance diverges at the critical point; the other methods solve it
        if "analytic" in self.methods and any(map(near_critical, self.lambda_grid)):
            raise ValueError(f"lambda_grid values within {CRITICAL_BAND:g} of 1 have no analytic value")

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        """Parse the flat one-key-per-line `key = value` config format."""
        keys = {f.name for f in fields(cls)}
        raw, lineno_of = {}, {}
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            raw[key], lineno_of[key] = value, lineno

        def number(key, text):
            try:
                return float(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno_of[key]}: {key}: not a number: {text!r}") from None

        def floats(key):
            return [number(key, v) for v in raw.get(key, "").replace(",", " ").split()]

        cfg = cls(
            figure=raw.get("figure", "custom"),
            lambda_grid=floats("lambda_grid"),
            eta_grid=floats("eta_grid"),
            time_grid=floats("time_grid"),
            chi=number("chi", raw.get("chi", "0")),
            methods=raw.get("methods", "analytic").replace(",", " ").split(),
            cutoff_tol=number("cutoff_tol", raw.get("cutoff_tol", CUTOFF_TOL)),
        )
        cfg.validate()
        return cfg

    def canonical_text(self) -> str:
        """One `key = value` line per field, as `from_file` reads it back:
        lists joined by spaces, strings as they are, numbers by `_fmt`."""

        def text(v) -> str:
            if isinstance(v, list):
                return " ".join(map(text, v))
            return v if isinstance(v, str) else _fmt(v)

        return "".join(f"{f.name} = {text(getattr(self, f.name))}\n" for f in fields(self))


@dataclass
class SweepPoint:
    """One sweep point, one (eta, method, lambda), and one record of
    `report.json`. Its rows share every field but the three per-row columns
    `omega_c_t`, `value_name` and `value`, which are lists.

    An echo point records the mean photon number `mean_n` of the ground
    state its method solves, and `delta_s_min`, the smallest detuning Delta_s
    of a probe of shift chi = g_s^2 / Delta_s whose dispersive step holds
    there: 100 chi (mean_n + 1). Neither is written to the CSV.

    A point whose cutoff search did not converge is degraded: `converged` is
    False, its values, `mean_n` and `delta_s_min` are NaN, and `cutoff` and
    `frame` are empty.
    """

    figure: str
    method: str
    lam: float
    eta: float
    chi: float | str              # "" on the fig1/fig2 rows, as are the next two
    mean_n: float | str
    delta_s_min: float | str
    cutoff: int | str             # "" where no cutoff was found
    converged: bool
    frame: str
    wall_time: float              # seconds spent on this point
    omega_c_t: list               # per row: the time, or "" on the fig1/fig2 rows
    value_name: list[str]
    value: list[float]


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    return f"{float(x):.17g}"


def critical_lambda_grid() -> list[float]:
    """Default lam/lam_c grid: fine sampling only near the critical point."""
    fine, coarse = LAMBDA_STEP_FINE, LAMBDA_STEP_COARSE
    lo = np.arange(coarse, 0.9, coarse)
    mid = np.arange(0.9, 1.1 + fine / 2, fine)
    hi = np.arange(1.1 + coarse, 1.5 + coarse / 2, coarse)
    grid = np.unique(np.round(np.concatenate([lo, mid, hi]), 10))
    return [float(v) for v in grid if not near_critical(v)]


def default_config(figure: str) -> SweepConfig:
    """Per-figure default grids at the default `cutoff_tol`; eta and chi follow
    the reference setups."""
    if figure == "fig1":
        return SweepConfig(
            "fig1", [0.99], [1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5], [0.0], 0.0,
            ["exact", "effective", "variational"],
        )
    if figure == "fig2":
        return SweepConfig(
            "fig2", [1.01], [1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5], [0.0], 0.0,
            ["exact", "effective", "variational"],
        )
    if figure == "fig3":
        return SweepConfig(
            "fig3", critical_lambda_grid(), [5000.0],
            [float(t) for t in np.arange(0.0, 101.0, 2.0)], 1e-3,
            ["analytic"],
        )
    if figure == "fig4":
        return SweepConfig(
            "fig4", critical_lambda_grid(), [2000.0, 4000.0, 6000.0, 8000.0, 10000.0],
            [60.0], 1e-3, ["analytic"],
        )
    if figure == "fig5":
        return SweepConfig(
            "fig5", critical_lambda_grid(), [1e5], [60.0], 1e-3,
            ["exact", "effective", "variational", "analytic"],
        )
    raise ValueError(f"no default config for figure {figure!r}")


def _point(cfg: SweepConfig, eta: float, method: str, lam: float) -> SweepPoint:
    """One sweep point: the echo L = |D|^2 at the config's chi at every time
    of `time_grid`, with the ground state's mean photon number and the
    point's `delta_s_min`, or, on fig1/fig2 (`GROUND_FIGURES`), the ground
    energy and mean photon number. `method` is one of `METHODS`, which
    `SweepConfig.validate` checks. A point whose cutoff search reaches the
    hard cap, whose variational photon mean or variance is negative or not
    finite, or whose phase record is not finite, is degraded; the sweep goes
    on."""
    t0 = time.perf_counter()
    p = RabiParams(lam, eta)
    ground = cfg.figure in GROUND_FIGURES
    if ground:
        chi, times, names = "", ["", ""], ["energy", "mean_n"]
    else:
        chi, times = cfg.chi, [float(t) for t in cfg.time_grid]
        names = ["loschmidt_echo"] * len(times)
    gs, converged = None, True
    try:
        if method in GROUND_STATES:
            gs = GROUND_STATES[method](p, cfg.cutoff_tol)
            mean_n = gs.mean_n
            values = ([gs.energy, gs.mean_n] if ground
                      else (np.abs(decoherence_factor(gs, chi, times)) ** 2).tolist())
        elif method == "variational":
            sol = variational_solve(p)
            mean_n = sol.mean_n
            values = ([sol.energy, sol.mean_n] if ground
                      else short_time_le(sol.gamma_prime, chi, times).tolist())
        else:
            mean_n, gamma = variance(p)
            values = short_time_le(gamma, chi, times).tolist()
    except (ConvergenceError, PhaseDomainError):
        converged, mean_n, values = False, np.nan, [np.nan] * len(names)
    if ground:
        mean_n = delta_s_min = ""
    else:
        delta_s_min = DISPERSIVE_MARGIN**2 * chi * (mean_n + 1.0)
    wall = time.perf_counter() - t0
    return SweepPoint(
        cfg.figure, method, lam, eta, chi, mean_n, delta_s_min, gs.n_max if gs else "",
        converged, gs.frame if gs else "", wall, times, names, values,
    )


def write_csv(points: list[SweepPoint], path: Path):
    """`<figure>.csv`, a row per record; floats as `_fmt` writes them. Every
    point shares the sweep's time column, so each time is formatted once."""
    time_text = cache(_fmt)
    lines = [CSV_HEADER]
    for pt in points:
        head = f"{pt.figure},{pt.method},{pt.lam:.17g},{pt.eta:.17g},{_fmt(pt.chi)},"
        tail = f",{pt.cutoff},{'true' if pt.converged else 'false'}"
        for t, name, value in zip(pt.omega_c_t, pt.value_name, pt.value):
            lines.append(f"{head}{time_text(t)},{name},{value:.17g}{tail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_report(points: list[SweepPoint], provenance: dict, path: Path):
    """`report.json`: {points, provenance, schema_version}, a record per
    point holding its per-row columns as lists."""
    records = []
    for pt in points:
        rec = dict(vars(pt))
        rec["lambda"] = rec.pop("lam")
        records.append(rec)
    payload = {"points": records, "provenance": provenance, "schema_version": SCHEMA_VERSION}
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def write_gnuplot_script(cfg: SweepConfig, csv_name: str, path: Path):
    """`<figure>.gp`: L against lambda and omega_c t when both are swept,
    else against lambda, or omega_c t, or eta, the first of them swept; on
    fig1/fig2 the energy and the mean photon number, each its own series on
    its own y axis."""
    head = "set datafile separator ','\n"
    if len(cfg.time_grid) > 1 and len(cfg.lambda_grid) > 1:
        body = (
            f"set xlabel 'lambda/lambda_c'\nset ylabel 'omega_c t'\n"
            f"splot '{csv_name}' every ::1 using 3:6:8 with points title 'L'\n"
        )
    else:
        xcol = 3 if len(cfg.lambda_grid) > 1 else 6 if len(cfg.time_grid) > 1 else 4
        if cfg.figure in GROUND_FIGURES:
            # a ground point writes an energy row, then a mean_n row
            series = ", ".join(
                f"'{csv_name}' every ::1 using {xcol}:(strcol(7) eq '{name}' ? $8 : NaN) "
                f"axes x1{axis} with points title '{name}'"
                for name, axis in (("energy", "y1"), ("mean_n", "y2"))
            )
            body = f"set y2tics\nplot {series}\n"
        else:
            body = f"plot '{csv_name}' every ::1 using {xcol}:8 with points title '{cfg.figure}'\n"
    path.write_text(head + body, encoding="utf-8")


def run(config: SweepConfig, out_dir) -> list[SweepPoint]:
    """Execute a sweep, writing `<figure>.csv`, `<figure>.gp`
    and `report.json` into `out_dir`; return its points."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = [_point(config, eta, method, lam)
              for eta in config.eta_grid
              for method in config.methods
              for lam in config.lambda_grid]
    csv_path = out / f"{config.figure}.csv"
    write_csv(points, csv_path)
    write_gnuplot_script(config, csv_path.name, out / f"{config.figure}.gp")
    provenance = {
        "config_hash": sha256(config.canonical_text().encode()).hexdigest(),
        "code_version": __version__,
    }
    write_report(points, provenance, out / "report.json")
    return points

