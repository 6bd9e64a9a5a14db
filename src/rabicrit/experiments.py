"""Figure-reproduction sweeps, flat-file config parsing (every value checked
finite before the output directory is made), CSV/JSON reports, and the
tripartite check of the dispersive approximation: the probe + Rabi band
(half-width 6), diagonalised once and evolved by `dynamics.evolved`, against
|D| of `dynamics.decoherence_factor` on the branches H -/+ chi N
(`dynamics.probe_branches`) of the exact method's bare-frame band, the even
parity chain (`dynamics.exact_sector`). A sweep point solves its ground state
by the method table of `dynamics` (`GROUND_STATES`) or a closed form."""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, fields
from functools import cache, partial
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import CRITICAL_BAND, near_critical
from .dynamics import (
    GROUND_STATES,
    decoherence_factor,
    echo_point,
    evolved,
    exact_sector,
    probe_branches,
)
from .errors import ConvergenceError
from .hamiltonians import ProbeParams, RabiParams, build_tripartite_band, photon_number_band
from .hilbert import FockCutoff
from .spectra import CUTOFF_TOL, band_ground_state, band_moments, band_spectrum, converge_cutoff
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
        # the closed forms diverge at the critical point; exact and effective solve it
        closed = [m for m in self.methods if m in ("analytic", "variational")]
        if closed and any(map(near_critical, self.lambda_grid)):
            raise ValueError(
                f"lambda_grid values within {CRITICAL_BAND:g} of 1 have no {' or '.join(closed)} value"
            )

    @classmethod
    def from_file(cls, path) -> "SweepConfig":
        """Parse the flat one-key-per-line `key = value` config format."""
        keys = {f.name for f in fields(cls)}
        raw = {}
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
            raw[key] = value

        def floats(s):
            return [float(v) for v in s.replace(",", " ").split()]

        cfg = cls(
            figure=raw.get("figure", "custom"),
            lambda_grid=floats(raw.get("lambda_grid", "")),
            eta_grid=floats(raw.get("eta_grid", "")),
            time_grid=floats(raw.get("time_grid", "")),
            chi=float(raw.get("chi", "0")),
            methods=raw.get("methods", "analytic").replace(",", " ").split(),
            cutoff_tol=float(raw.get("cutoff_tol", CUTOFF_TOL)),
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

    A point whose cutoff search did not converge is degraded: `converged` is
    False, its values are NaN, and `cutoff` and `frame` are empty.
    """

    figure: str
    method: str
    lam: float
    eta: float
    chi: float | str              # "" on the fig1/fig2 rows
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


def default_config(figure: str, cutoff_tol: float = CUTOFF_TOL) -> SweepConfig:
    """Per-figure default grids; eta and chi follow the reference setups."""
    if figure == "fig1":
        return SweepConfig(
            "fig1", [0.99], [1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5], [0.0], 0.0,
            ["exact", "effective", "variational"], cutoff_tol,
        )
    if figure == "fig2":
        return SweepConfig(
            "fig2", [1.01], [1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5], [0.0], 0.0,
            ["exact", "effective", "variational"], cutoff_tol,
        )
    if figure == "fig3":
        return SweepConfig(
            "fig3", critical_lambda_grid(), [5000.0],
            [float(t) for t in np.arange(0.0, 101.0, 2.0)], 1e-3,
            ["analytic"], cutoff_tol,
        )
    if figure == "fig4":
        return SweepConfig(
            "fig4", critical_lambda_grid(), [2000.0, 4000.0, 6000.0, 8000.0, 10000.0],
            [60.0], 1e-3, ["analytic"], cutoff_tol,
        )
    if figure == "fig5":
        return SweepConfig(
            "fig5", critical_lambda_grid(), [1e5], [60.0], 1e-3,
            ["exact", "effective", "variational", "analytic"], cutoff_tol,
        )
    raise ValueError(f"no default config for figure {figure!r}")


def _point(cfg: SweepConfig, probe: ProbeParams | None, eta: float, method: str,
           lam: float) -> SweepPoint:
    """One sweep point: the echo of `probe` at every time of `time_grid` or,
    on fig1/fig2 (`probe` None), the ground energy and mean photon number. A
    point whose cutoff search reaches the hard cap is degraded; the sweep
    goes on."""
    t0 = time.perf_counter()
    p = RabiParams.from_dimensionless(lam, eta)
    if probe is None:
        chi, times, names = "", ["", ""], ["energy", "mean_n"]
    else:
        chi, times = cfg.chi, [float(t) for t in cfg.time_grid]
        names = ["loschmidt_echo"] * len(times)
    gs, converged = None, True
    try:
        if probe is not None:
            echo = echo_point(p, probe, times, method, cfg.cutoff_tol)
            gs, values = echo.ground, echo.l_values.tolist()
        elif method == "variational":
            sol = variational_solve(p)
            values = [sol.energy, sol.mean_n]
        else:
            gs = GROUND_STATES[method](p, cfg.cutoff_tol)
            values = [gs.energy, gs.mean_n]
    except ConvergenceError:
        converged, values = False, [np.nan] * len(names)
    wall = time.perf_counter() - t0
    return SweepPoint(
        cfg.figure, method, lam, eta, chi, gs.cutoff.n_max if gs else "", converged,
        gs.frame if gs else "", wall, times, names, values,
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
    else against lambda, or omega_c t, or eta, the first of them swept."""
    if len(cfg.time_grid) > 1 and len(cfg.lambda_grid) > 1:
        body = (
            f"set datafile separator ','\n"
            f"set xlabel 'lambda/lambda_c'\nset ylabel 'omega_c t'\n"
            f"splot '{csv_name}' every ::1 using 3:6:8 with points title 'L'\n"
        )
    else:
        xcol = 3 if len(cfg.lambda_grid) > 1 else 6 if len(cfg.time_grid) > 1 else 4
        body = (
            f"set datafile separator ','\n"
            f"plot '{csv_name}' every ::1 using {xcol}:8 with points title '{cfg.figure}'\n"
        )
    path.write_text(body, encoding="utf-8")


def run(config: SweepConfig, out_dir) -> list[SweepPoint]:
    """Execute a sweep at omega_c = 1, writing `<figure>.csv`, `<figure>.gp`
    and `report.json` into `out_dir`; return its points."""
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = None if config.figure in GROUND_FIGURES else ProbeParams.from_chi(config.chi)
    points = [_point(config, probe, eta, method, lam)
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


@dataclass(frozen=True)
class DispersiveReport:
    times: np.ndarray
    coherence_exact: np.ndarray
    coherence_predicted: np.ndarray
    max_rel_deviation: float
    dispersive_regime: bool


def validate_dispersive(
    p: RabiParams,
    probe: ProbeParams,
    times,
    cutoff: FockCutoff | None = None,
    cutoff_tol: float = CUTOFF_TOL,
) -> DispersiveReport:
    """Compare the probe coherence from exact tripartite evolution against the
    branch-echo prediction |D(t)| |alpha* beta| * 2.

    Report-only: warns (never fails) when the dispersive condition
    |Delta_s| >> g_s sqrt(<n> + 1) is violated.
    """
    times = np.asarray(times, dtype=float)
    energy = None  # at a given cutoff, the solve bisects it
    if cutoff is None:
        found = converge_cutoff((partial(exact_sector, p, 0.0),), cutoff_tol)
        cutoff, energy = found.cutoff, found.energy
    # the Rabi ground state: row k of the even chain is |g,k> (k even) or |e,k>
    h, n = exact_sector(p, 0.0, cutoff), photon_number_band(0.0, cutoff, 1)
    _, even = band_ground_state(h, energy)
    mean_n, _ = band_moments(n, even)
    dispersive = abs(probe.delta_s) >= 10.0 * probe.g_s * np.sqrt(mean_n + 1.0)
    if not dispersive:
        warnings.warn(
            "dispersive condition |Delta_s| >> g_s sqrt(<n>+1) is violated; "
            "large deviations expected",
            stacklevel=2,
        )
    # exact tripartite evolution, probe initialized in alpha|g> + beta|e>, in
    # the band's order: photons, then probe spin, then Rabi spin (|e>, |g>)
    rabi = np.zeros((cutoff.dim, 2))
    rabi[1::2, 0], rabi[0::2, 1] = even[1::2], even[0::2]
    probe_vec = np.array([probe.beta, probe.alpha], dtype=complex)
    psi0 = (probe_vec[:, None] * rabi[:, None, :]).ravel()
    w, v = band_spectrum(build_tripartite_band(p, probe, cutoff))
    psi = evolved(w, v, psi0, times, w[0]).reshape(cutoff.dim, 2, 2, -1)
    # coherence magnitude convention: 2 |<sigma_->| = 2 |rho_eg|, with
    # sigma_- = |g><e| on the probe
    coherence_exact = 2.0 * np.abs(np.sum(psi[:, 1].conj() * psi[:, 0], axis=(0, 1)))
    # branch-echo prediction, on the even chain that holds the ground state
    h_g, h_e = probe_branches(h, n, probe)
    d = decoherence_factor(h_g, h_e, even, times)
    coherence_pred = 2.0 * abs(np.conj(probe.alpha) * probe.beta) * np.abs(d)
    denom = np.maximum(coherence_pred, 1e-15)
    max_rel = float(np.max(np.abs(coherence_exact - coherence_pred) / denom))
    return DispersiveReport(
        times=times,
        coherence_exact=coherence_exact,
        coherence_predicted=coherence_pred,
        max_rel_deviation=max_rel,
        dispersive_regime=dispersive,
    )
