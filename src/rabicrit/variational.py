"""Finite-eta variational ground states from a single-mode squeezing ansatz.

`solve(p)` takes the phase from lam, solves its stationarity condition once
and returns a frozen `VariationalSolution`. With x = e^{2 s} that condition
is a real cubic c3 x^3 + c2 x^2 - 1 = 0 with c3 > 0, solved by Newton's
method from a doubling bracket. The tests check the root against the
published Cardano-style closed form, evaluated in extended precision."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sinh

from .analytic import CRITICAL_BAND
from .errors import PhaseDomainError, RabicritError
from .hamiltonians import RabiParams, alpha_lambda, displaced_frame

NORMAL = "normal"
SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class VariationalSolution:
    """Squeezing parameter, energy, and mean and variance of the photon
    number of the variational ground state of `phase`."""

    phase: str
    s: float
    energy: float
    mean_n: float
    gamma_prime: float


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


def _photon_moments(phase: str, s: float, p: RabiParams) -> tuple[float, float]:
    """(mean, variance) of the physical photon number at squeezing s."""
    if phase == NORMAL:
        q2 = (p.g / p.omega_0) ** 2
        q4 = q2**2
        mean_n = sinh(s) ** 2 + q2 - 8.0 * q4 * exp(2.0 * s)
        gamma = 0.5 * sinh(2.0 * s) ** 2 + q2 * exp(-2.0 * s) - 8.0 * q4 * exp(4.0 * s)
        return mean_n, gamma
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
    return mean_n, gamma


def solve(p: RabiParams) -> VariationalSolution:
    """Variational ground state in the phase lam selects: normal below 1,
    superradiant above; `PhaseDomainError` within CRITICAL_BAND of 1."""
    if abs(p.lam - 1.0) < CRITICAL_BAND:
        raise PhaseDomainError(f"lam={p.lam} is inside the critical guard band")
    phase = NORMAL if p.lam < 1.0 else SUPERRADIANT
    s = 0.5 * log(_newton_root(*_cubic_coeffs(phase, p)))
    mean_n, gamma = _photon_moments(phase, s, p)
    return VariationalSolution(phase, s, _energy_at(phase, s, p), mean_n, gamma)
