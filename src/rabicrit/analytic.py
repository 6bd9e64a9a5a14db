"""Closed-form infinite-frequency-ratio results: the photon-number moments
of the squeezed, displaced vacuum of a `Phase` record, which the
variational method shares, the closed-form photon mean and variance of the
ground state of either phase, and the short-time Gaussian law for the
Loschmidt echo."""

from __future__ import annotations

from math import exp, log, sinh

import numpy as np

from .errors import PhaseDomainError
from .hamiltonians import Phase, RabiParams, phase

# |lam - 1| below this is reported as critical rather than evaluated: the
# closed-form variance diverges and would silently overflow downstream plots.
CRITICAL_BAND = 1e-6


def near_critical(lam: float) -> bool:
    """Whether lam lies within CRITICAL_BAND of the transition."""
    return abs(lam - 1.0) < CRITICAL_BAND


def squeezed_moments(ph: Phase, s: float) -> tuple[float, float]:
    """(mean, variance) of the physical photon number in the vacuum squeezed
    by s and displaced by `ph.alpha`: sinh^2 s + q2 + alpha^2 and
    sinh^2(2 s)/2 + alpha^2 e^{2 s} + q2 e^{-2 s}, with q2 = c2/omega_t."""
    q2 = ph.c2 / ph.omega_t
    a2 = ph.alpha**2
    mean_n = sinh(s) ** 2 + q2 + a2
    return mean_n, 0.5 * sinh(2.0 * s) ** 2 + a2 * exp(2.0 * s) + q2 * exp(-2.0 * s)


def variance(p: RabiParams) -> tuple[float, float]:
    """(mean, variance) of the photon number in the ground state of the phase
    of `p`: the squeezed vacuum's (`squeezed_moments`) at r = -ln(1 - mu)/4;
    `PhaseDomainError` within CRITICAL_BAND of lam = 1, where r diverges."""
    if near_critical(p.lam):
        raise PhaseDomainError(f"lam={p.lam} is inside the critical guard band")
    ph = phase(p)
    return squeezed_moments(ph, -0.25 * log(1.0 - ph.mu))


def short_time_le(gamma, chi: float, t) -> np.ndarray | float:
    """Gaussian short-time law L(t) = exp(-4 gamma chi^2 t^2).

    `gamma` and `t` may be scalars or arrays that broadcast together. The law
    is the leading term of an expansion in epsilon * t (epsilon the
    ground-state excitation frequency) and is valid for epsilon * t << 1;
    it is evaluated at every requested t regardless.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise PhaseDomainError(f"the photon-number variance gamma = {gamma} is negative")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    out = np.exp(-4.0 * gamma * chi**2 * t**2)
    return out if out.ndim else float(out)
