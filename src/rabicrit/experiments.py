"""Figure-reproduction sweeps, flat-file config parsing (every value checked
finite before the output directory is made; errors name file, line and
key), and CSV/JSON reports. A `SweepConfig` is the one source of every
sweep setting, the Fock-cutoff tolerance `cutoff_tol` included: the figure
commands run `FIGURE_DEFAULTS[figure]`, at `spectra.CUTOFF_TOL`. A config is
frozen and checked when built; `dataclasses.replace` checks a changed one.

A sweep point (`_point`) is the one place that picks a method's path: the
exact and effective methods solve a ground state from the method table of
`dynamics` (`GROUND_STATES`) and take its echo from
`dynamics.decoherence_factor`; the variational and analytic methods take
the Gaussian law (`analytic.short_time_le`) at their own photon-number
variance. Every echo is taken at the chi the config holds, and records, so
a sweep builds no probe. Every point records its ground state's mean
photon number and the smallest probe detuning, `delta_s_min`, at which the
dispersive step behind chi holds there. A point whose cutoff search reaches
the hard cap, whose variational photon mean or variance is negative or not
finite, whose phase record is not finite, or whose values are not all
finite, is degraded. A point holds only what varies by point: each row's
time and value name (`_rows`) are the sweep's, written once. `report.json`
is strict JSON: a number that is not finite is null there, `nan` in the CSV."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
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

SCHEMA_VERSION = 6
CSV_HEADER = "figure,method,lambda,eta,chi,omega_c_t,value_name,value,cutoff,converged"

METHODS = ("exact", "effective", "variational", "analytic")
# The dispersive step holds for |Delta_s| >> g_s sqrt(<n> + 1) (Blais et al.,
# PRA 69, 062320 (2004)), taken as this factor; at g_s^2 = chi Delta_s it
# reads Delta_s >= DISPERSIVE_MARGIN^2 chi (<n> + 1), a point's `delta_s_min`
DISPERSIVE_MARGIN = 10.0


@dataclass(frozen=True)
class SweepConfig:
    """One sweep's settings, checked when built; grids and methods as tuples."""

    figure: str
    lambda_grid: tuple[float, ...]
    eta_grid: tuple[float, ...]
    time_grid: tuple[float, ...]
    chi: float
    methods: tuple[str, ...]
    cutoff_tol: float = CUTOFF_TOL

    def __post_init__(self):
        for name in ("lambda_grid", "eta_grid", "time_grid", "methods"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
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
            raise ValueError(f"methods must list one or more methods, each once: {list(self.methods)}")
        if self.figure in GROUND_FIGURES:
            if "analytic" in self.methods:
                raise ValueError(f"figure {self.figure} has no 'analytic' method")
            # no echo: a time or a probe would change the recorded config, not the results
            if self.time_grid != (0.0,):
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

        return cls(
            figure=raw.get("figure", "custom"),
            lambda_grid=floats("lambda_grid"),
            eta_grid=floats("eta_grid"),
            time_grid=floats("time_grid"),
            chi=number("chi", raw.get("chi", "0")),
            methods=raw.get("methods", "analytic").replace(",", " ").split(),
            cutoff_tol=number("cutoff_tol", raw.get("cutoff_tol", CUTOFF_TOL)),
        )

    def canonical_text(self) -> str:
        """One `key = value` line per field, as `from_file` reads it back:
        tuples joined by spaces, strings as they are, numbers by `_fmt`."""

        def text(v) -> str:
            if isinstance(v, tuple):
                return " ".join(map(text, v))
            return v if isinstance(v, str) else _fmt(v)

        return "".join(f"{f.name} = {text(getattr(self, f.name))}\n" for f in fields(self))


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point, one (eta, method, lambda), and one record of
    `report.json`; its k-th `value` goes with the sweep's k-th row (`_rows`).

    A point records the mean photon number `mean_n` of the ground state its
    method solves, and `delta_s_min`, the smallest detuning Delta_s of a
    probe of shift chi = g_s^2 / Delta_s whose dispersive step holds there:
    100 chi (mean_n + 1), 0 where chi is 0 (fig1/fig2). Not in the CSV.

    A point whose cutoff search did not converge, or whose values are not
    all finite, is degraded: `converged` is False, and its values, `mean_n`
    and `delta_s_min` are NaN (null in `report.json`). A point with no ground
    state, closed-form or degraded, has no `cutoff` and no `frame`: None
    (null in `report.json`, an empty cutoff in the CSV).
    """

    method: str
    lam: float
    eta: float
    mean_n: float
    delta_s_min: float
    cutoff: int | None
    converged: bool
    frame: str | None
    wall_time: float              # seconds spent on this point
    value: list[float]


def _fmt(x) -> str:
    if x == "":
        return ""
    return f"{float(x):.17g}"


def critical_lambda_grid() -> list[float]:
    """Default lam/lam_c grid: fine sampling only near the critical point,
    steps of 0.02 to 0.88, of 0.005 on [0.9, 1.1] and of 0.02 from 1.12 to 1.5."""
    k = np.arange
    grid = np.round(np.r_[k(1, 45) * 0.02, k(180, 221) * 0.005, k(56, 76) * 0.02], 10)
    return [float(v) for v in grid if not near_critical(v)]


# Each figure command's default sweep (lambda_grid, eta_grid, time_grid, chi,
# methods), at the default `cutoff_tol`; eta and chi follow the reference setups.
# fig1/fig2 scan the ground state against eta on either side of the transition,
# fig3-fig5 the echo across it. Building `FIGURE_DEFAULTS` checks them.
_ETA_GROUND = [1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5]
_METHODS_GROUND = ["exact", "effective", "variational"]
_LAMBDA_CRITICAL = critical_lambda_grid()
_FIGURE_SETTINGS = {
    "fig1": ([0.99], _ETA_GROUND, [0.0], 0.0, _METHODS_GROUND),
    "fig2": ([1.01], _ETA_GROUND, [0.0], 0.0, _METHODS_GROUND),
    "fig3": (_LAMBDA_CRITICAL, [5000.0], [2.0 * k for k in range(51)], 1e-3, ["analytic"]),
    "fig4": (_LAMBDA_CRITICAL, [2000.0, 4000.0, 6000.0, 8000.0, 10000.0], [60.0], 1e-3,
             ["analytic"]),
    "fig5": (_LAMBDA_CRITICAL, [1e5], [60.0], 1e-3, METHODS),
}
FIGURES = (*_FIGURE_SETTINGS, "custom")
# the ground state itself: no probe, no echo
GROUND_FIGURES = tuple(fig for fig, (_, _, _, chi, _) in _FIGURE_SETTINGS.items() if chi == 0)
FIGURE_DEFAULTS = {figure: SweepConfig(figure, *settings)
                   for figure, settings in _FIGURE_SETTINGS.items()}


def _rows(cfg: SweepConfig) -> tuple[list, list[str]]:
    """Each row's time and value name, the same at every point: the echo at
    each time of `time_grid`, or on fig1/fig2 the energy and mean_n at ""."""
    if cfg.figure in GROUND_FIGURES:
        return ["", ""], ["energy", "mean_n"]
    return [float(t) for t in cfg.time_grid], ["loschmidt_echo"] * len(cfg.time_grid)


def _point(cfg: SweepConfig, eta: float, method: str, lam: float) -> SweepPoint:
    """One sweep point: the echo L = |D|^2 at the config's chi at every time
    of `time_grid`, or, on fig1/fig2 (`GROUND_FIGURES`), the ground energy
    and mean photon number; with the ground state's mean photon number and
    the point's `delta_s_min`. `method` is one of `METHODS`, as building
    `cfg` checked. A point whose cutoff search reaches the hard cap, whose
    variational photon mean or variance is negative or not finite, whose
    phase record is not finite, or whose values are not all finite (the
    echo's phases overflow at times near 1e306), is degraded; the sweep goes
    on."""
    t0 = time.perf_counter()
    p = RabiParams(lam, eta)
    ground = cfg.figure in GROUND_FIGURES
    chi, (times, names) = cfg.chi, _rows(cfg)
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
        if not all(map(isfinite, values)):
            raise ConvergenceError(f"{method} values at lam = {lam:g}, eta = {eta:g} not finite")
    except (ConvergenceError, PhaseDomainError):
        gs, converged, mean_n, values = None, False, np.nan, [np.nan] * len(names)
    delta_s_min = DISPERSIVE_MARGIN**2 * chi * (mean_n + 1.0)
    wall = time.perf_counter() - t0
    return SweepPoint(
        method, lam, eta, mean_n, delta_s_min, gs.n_max if gs else None,
        converged, gs.frame.name if gs else None, wall, values,
    )


def write_csv(config: SweepConfig, points: list[SweepPoint], path: Path):
    """`<figure>.csv`, a row per value; floats as `_fmt` writes them. The
    sweep's columns (chi empty on fig1/fig2) and rows (`_rows`) are formatted once."""
    chi = "" if config.figure in GROUND_FIGURES else _fmt(config.chi)
    rows = [f"{_fmt(t)},{name}," for t, name in zip(*_rows(config))]
    lines = [CSV_HEADER]
    for pt in points:
        head = f"{config.figure},{pt.method},{pt.lam:.17g},{pt.eta:.17g},{chi},"
        cutoff = "" if pt.cutoff is None else pt.cutoff
        tail = f",{cutoff},{'true' if pt.converged else 'false'}"
        for row, value in zip(rows, pt.value):
            lines.append(f"{head}{row}{value:.17g}{tail}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_value(v):
    """`v`, with null for a float that is not finite: JSON has no NaN."""
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return None if isinstance(v, float) and not isfinite(v) else v


def write_report(config: SweepConfig, points: list[SweepPoint], provenance: dict, path: Path):
    """`report.json`, strict JSON (`_json_value`): each row's time and value
    name (`_rows`) once, at the top level, and a record per point, whose k-th
    `value` goes with the k-th; then the provenance and `schema_version`."""
    times, names = _rows(config)
    records = []
    for pt in points:
        rec = {k: _json_value(v) for k, v in vars(pt).items()}
        rec["lambda"] = rec.pop("lam")
        records.append(rec)
    payload = {"omega_c_t": times, "value_name": names, "points": records,
               "provenance": provenance, "schema_version": SCHEMA_VERSION}
    path.write_text(json.dumps(payload, sort_keys=True, allow_nan=False), encoding="utf-8")


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = [_point(config, eta, method, lam)
              for eta in config.eta_grid
              for method in config.methods
              for lam in config.lambda_grid]
    csv_path = out / f"{config.figure}.csv"
    write_csv(config, points, csv_path)
    write_gnuplot_script(config, csv_path.name, out / f"{config.figure}.gp")
    provenance = {"config": config.canonical_text(), "code_version": __version__}
    write_report(config, points, provenance, out / "report.json")
    return points

