"""Closed-form infinite-frequency-ratio results: the photon-number variance
of the ground state of either phase, read from its `Phase` record, and the
short-time Gaussian law for the Loschmidt echo."""

from __future__ import annotations

from math import exp, log, sinh

import numpy as np

from .errors import PhaseDomainError
from .hamiltonians import Phase, RabiParams, phase

# |lam - 1| below this is reported as critical rather than evaluated: the
# closed forms diverge and would silently overflow downstream plots.
CRITICAL_BAND = 1e-6


def near_critical(lam: float) -> bool:
    """Whether lam lies within CRITICAL_BAND of the transition."""
    return abs(lam - 1.0) < CRITICAL_BAND


def closed_form_phase(p: RabiParams) -> Phase:
    """`phase(p)` for the closed forms (here and the variational method);
    `PhaseDomainError` within CRITICAL_BAND of lam = 1."""
    if near_critical(p.lam):
        raise PhaseDomainError(f"lam={p.lam} is inside the critical guard band")
    return phase(p)


def variance(p: RabiParams) -> float:
    """Photon-number variance of the ground state of the phase of `p`:
    sinh^2(2 r)/2 + alpha^2 e^{2 r} + (c2/omega_t) e^{-2 r}, with the
    squeezing r = -ln(1 - mu)/4."""
    ph = closed_form_phase(p)
    r = -0.25 * log(1.0 - ph.mu)
    return (
        0.5 * sinh(2.0 * r) ** 2
        + ph.alpha**2 * exp(2.0 * r)
        + ph.c2 / ph.omega_t * exp(-2.0 * r)
    )


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
