"""Finite-eta variational ground states from a single-mode squeezing ansatz.

`solve(p)` reads the `Phase` record of `p` and returns a frozen
`VariationalSolution`. The variational energy is the mean of the phase's
effective Hamiltonian omega_c n - c2 x^2 + c4 x^4 + const in the vacuum
squeezed by s,

    E(s) = omega_c sinh^2 s - c2 e^{2 s} + 3 c4 e^{4 s} + const,

and with x = e^{2 s} its stationarity condition is, in both phases, the real
cubic (24 c4 / omega_c) x^3 + (1 - mu) x^2 - 1 = 0, solved once by Newton's
method from a doubling bracket. The tests check the root against the
published Cardano-style closed form, evaluated in extended precision."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log, sinh

from .analytic import closed_form_phase
from .errors import RabicritError
from .hamiltonians import Phase, RabiParams


@dataclass(frozen=True)
class VariationalSolution:
    """Squeezing parameter, energy, and mean and variance of the photon
    number of the variational ground state of `phase` ('normal' or
    'superradiant')."""

    phase: str
    s: float
    energy: float
    mean_n: float
    gamma_prime: float


def _cubic_coeffs(ph: Phase) -> tuple[float, float]:
    """(c3, c2) of the stationarity cubic c3 x^3 + c2 x^2 - 1 = 0."""
    return 24.0 * ph.c4 / ph.omega_c, 1.0 - ph.mu


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


def _energy_at(ph: Phase, s: float) -> float:
    """E(s), the variational energy at squeezing s."""
    return (ph.omega_c * sinh(s) ** 2 - ph.c2 * exp(2.0 * s) + 3.0 * ph.c4 * exp(4.0 * s)
            + ph.const)


def _photon_moments(ph: Phase, s: float) -> tuple[float, float]:
    """(mean, variance) of the physical photon number at squeezing s."""
    q2 = ph.c2 / ph.omega_t
    q4 = q2**2
    if not ph.alpha:
        mean_n = sinh(s) ** 2 + q2 - 8.0 * q4 * exp(2.0 * s)
        gamma = 0.5 * sinh(2.0 * s) ** 2 + q2 * exp(-2.0 * s) - 8.0 * q4 * exp(4.0 * s)
        return mean_n, gamma
    a2 = ph.alpha**2
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
    ph = closed_form_phase(p)
    s = 0.5 * log(_newton_root(*_cubic_coeffs(ph)))
    mean_n, gamma = _photon_moments(ph, s)
    return VariationalSolution(ph.name, s, _energy_at(ph, s), mean_n, gamma)
