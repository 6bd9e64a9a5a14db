"""Finite-eta variational ground states from a single-mode squeezing ansatz.

The stationarity condition in either phase is, with x = e^{2 s}, a real cubic
c3 x^3 + c2 x^2 - 1 = 0 with c3 > 0. Newton's method from a doubling bracket
is the primary path; the published Cardano-style closed form (principal
complex cube root, then the real part) is evaluated as an independent check.
The closed form cancels catastrophically at large eta, so it is evaluated in
extended precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sinh

import mpmath as mp

from .analytic import CRITICAL_BAND
from .errors import PhaseDomainError, RabicritError
from .hamiltonians import RabiParams, alpha_lambda, displaced_frame

DUAL_PATH_RTOL = 1e-10

NORMAL = "normal"
SUPERRADIANT = "superradiant"


@dataclass
class VariationalSolution:
    phase: str
    s: float
    residual: float
    second_derivative: float
    energy: float | None = None
    mean_n: float | None = None
    gamma_prime: float | None = None
    gamma_prime_negative: bool = False
    diagnostics: dict | None = None


def _cubic_coeffs(phase: str, p: RabiParams) -> tuple[float, float]:
    lam, eta = p.lam, p.eta
    if phase == NORMAL:
        return 3.0 * lam**4 / (2.0 * eta), 1.0 - lam**2
    if phase == SUPERRADIANT:
        if lam <= 1.0:
            raise PhaseDomainError(f"superradiant ansatz requires lam > 1, got {lam}")
        return 3.0 / (2.0 * eta * lam**10), 1.0 - lam**-4
    raise ValueError(f"unknown phase {phase!r}")


def _newton_root(c3: float, c2: float) -> float:
    """Unique positive root of c3 x^3 + c2 x^2 - 1 (value -1 at 0+, +inf at inf).

    Doubling from 1 finds hi >= root. The cubic is convex and increasing on
    [root, inf) (for c2 >= 0 on all x > 0; for c2 < 0 its minimum and
    inflection lie below the root), so Newton's method from hi decreases
    monotonically to the root; it stops when a step no longer decreases x.
    """
    f = lambda x: c3 * x**3 + c2 * x**2 - 1.0
    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > 1e30:
            raise RabicritError("cubic bracketing failed to find a sign change")
    x = hi
    while True:
        x_next = x - f(x) / (x * (3.0 * c3 * x + 2.0 * c2))
        if not x_next < x:
            return x
        x = x_next


def _closed_form_x(phase: str, lam: float, eta: float) -> float:
    """Published closed-form root, evaluated at 50 digits to tame cancellation."""
    with mp.workdps(50):
        l = mp.mpf(lam)
        e = mp.mpf(eta)
        if phase == NORMAL:
            cub = (l**2 - 1) ** 3
            disc = 243 * l**16 * e**2 + 16 * l**8 * cub * e**4
            big = (
                9 * mp.sqrt(3) * mp.sqrt(mp.mpc(disc))
                + 243 * l**8 * e
                + 8 * cub * e**3
            )
            cbrt = big ** mp.mpf("1/3")
            x = mp.re(
                cbrt / (9 * l**4)
                + 2 * (l**2 - 1) * e / (9 * l**4)
                + 4 * (l**2 - 1) ** 2 * e**2 / (9 * l**4 * cbrt)
            )
        else:
            cub = (1 - l**4) ** 3
            disc = 243 * l**20 * e**2 + 16 * l**28 * cub * e**4
            big = (
                9 * mp.sqrt(3) * mp.sqrt(mp.mpc(disc))
                + 243 * l**10 * e
                + 8 * l**18 * cub * e**3
            )
            cbrt = big ** mp.mpf("1/3")
            x = mp.re(
                cbrt / 9
                - 2 * (l**4 - 1) * l**6 * e / 9
                + 4 * (l**4 - 1) ** 2 * l**12 * e**2 / (9 * cbrt)
            )
        return float(x)


def _energy_at(phase: str, s: float, p: RabiParams) -> float:
    wc = p.omega_c
    lam = p.lam
    if phase == NORMAL:
        return (
            wc * sinh(s) ** 2
            - (wc * lam**2 / 4.0) * exp(2.0 * s)
            + (3.0 * lam**4 * wc**2 / (16.0 * p.omega_0)) * exp(4.0 * s)
            - 0.5 * p.omega_0
            + lam**2 * wc**2 / (4.0 * p.omega_0)
        )
    frame = displaced_frame(p, alpha_lambda(p))
    w0t = frame.omega0_tilde
    return (
        wc * sinh(s) ** 2
        - (wc / (4.0 * lam**4)) * exp(2.0 * s)
        + (3.0 * wc**2 / (16.0 * w0t * lam**8)) * exp(4.0 * s)
        - 0.5 * w0t
        + wc**2 / (4.0 * w0t * lam**4)
        + wc * frame.alpha_disp**2
    )


def solve_squeeze(phase: str, p: RabiParams) -> VariationalSolution:
    """Variational squeezing parameter from the cubic stationarity condition.

    The Newton root is primary; the closed form must agree to 1e-10 relative.
    """
    if abs(p.lam - 1.0) < CRITICAL_BAND:
        raise PhaseDomainError(f"lam={p.lam} is inside the critical guard band")
    c3, c2 = _cubic_coeffs(phase, p)
    x = _newton_root(c3, c2)
    if c3 == 0.0:
        # decoupled limit (lam = 0): the cubic degenerates to c2 x^2 = 1
        x_closed = c2**-0.5
    else:
        x_closed = _closed_form_x(phase, p.lam, p.eta)
    if abs(x_closed - x) > DUAL_PATH_RTOL * x:
        raise RabicritError(
            f"closed-form root {x_closed} disagrees with Newton root {x} "
            f"beyond {DUAL_PATH_RTOL} relative"
        )
    s = 0.5 * log(x)
    # residual of dE/ds at the root, and its curvature by central differences
    residual = abs(p.omega_c / (2.0 * x) * (c3 * x**3 + c2 * x**2 - 1.0))
    h = 1e-4
    d2 = (
        _energy_at(phase, s + h, p) - 2.0 * _energy_at(phase, s, p) + _energy_at(phase, s - h, p)
    ) / h**2
    return VariationalSolution(
        phase=phase,
        s=s,
        residual=residual,
        second_derivative=d2,
        diagnostics={"x": x, "x_closed": x_closed, "c3": c3, "c2": c2},
    )


def gs_energy(phase: str, sol: VariationalSolution, p: RabiParams) -> float:
    """Variational ground energy at the solved squeezing parameter."""
    if sol.phase != phase:
        raise ValueError(f"solution phase {sol.phase!r} does not match {phase!r}")
    sol.energy = _energy_at(phase, sol.s, p)
    return sol.energy


def photon_stats(phase: str, sol: VariationalSolution, p: RabiParams) -> tuple[float, float]:
    """(mean photon number, photon-number variance) at the solved parameter."""
    if sol.phase != phase:
        raise ValueError(f"solution phase {sol.phase!r} does not match {phase!r}")
    s = sol.s
    if phase == NORMAL:
        q2 = (p.g / p.omega_0) ** 2
        q4 = q2**2
        mean_n = sinh(s) ** 2 + q2 - 8.0 * q4 * exp(2.0 * s)
        gamma = 0.5 * sinh(2.0 * s) ** 2 + q2 * exp(-2.0 * s) - 8.0 * q4 * exp(4.0 * s)
    else:
        frame = displaced_frame(p, alpha_lambda(p))
        q2 = (frame.g_tilde / frame.omega0_tilde) ** 2
        q4 = q2**2
        a2 = frame.alpha_disp**2
        mean_n = sinh(s) ** 2 + q2 - (8.0 / 3.0) * q4 * exp(2.0 * s) + a2
        gamma = (
            0.5 * sinh(2.0 * s) ** 2
            + q2 * exp(-2.0 * s)
            + (a2 - (8.0 / 3.0) * q4 * exp(2.0 * s)) * exp(2.0 * s)
        )
    sol.mean_n = mean_n
    sol.gamma_prime = gamma
    sol.gamma_prime_negative = gamma < 0.0
    return mean_n, gamma


def solve(p: RabiParams) -> VariationalSolution:
    """Phase-dispatched full solution: squeeze parameter, energy, photon stats."""
    phase = NORMAL if p.lam < 1.0 else SUPERRADIANT
    sol = solve_squeeze(phase, p)
    gs_energy(phase, sol, p)
    photon_stats(phase, sol, p)
    return sol
