"""Closed-form infinite-frequency-ratio results: squeezing parameters,
displacement, photon-number variances in both phases, and the short-time
Gaussian law for the Loschmidt echo."""

from __future__ import annotations

from math import exp, log, sinh

import numpy as np

from .errors import PhaseDomainError
from .hamiltonians import RabiParams, alpha_lambda, displaced_frame

# |lam - 1| below this is reported as critical rather than evaluated: the
# closed forms diverge and would silently overflow downstream plots.
CRITICAL_BAND = 1e-6


def _check_normal(lam: float):
    if lam < 0:
        raise PhaseDomainError(f"lam must be non-negative, got {lam}")
    if 1.0 - lam < CRITICAL_BAND:
        raise PhaseDomainError(
            f"lam={lam} is critical or superradiant; normal-phase closed forms "
            "require lam < 1"
        )


def _check_superradiant(lam: float):
    if lam - 1.0 < CRITICAL_BAND:
        raise PhaseDomainError(
            f"lam={lam} is critical or normal; superradiant closed forms "
            "require lam > 1"
        )


def squeezing_np(lam: float) -> float:
    """Normal-phase squeezing r = -ln(1 - lam^2)/4, for 0 <= lam < 1."""
    _check_normal(lam)
    return -0.25 * log(1.0 - lam**2)


def variance_np(p: RabiParams) -> float:
    """Photon-number variance of the normal-phase ground state:
    sinh^2(2 r)/2 + (g/omega_0)^2 e^{-2 r}."""
    r = squeezing_np(p.lam)
    return 0.5 * sinh(2.0 * r) ** 2 + (p.g / p.omega_0) ** 2 * exp(-2.0 * r)


def superradiant_frame(p: RabiParams) -> tuple[float, float]:
    """(alpha_lambda, r_sp) of the displaced superradiant description."""
    lam = p.lam
    _check_superradiant(lam)
    return alpha_lambda(p), -0.25 * log(1.0 - lam**-4)


def variance_sp(p: RabiParams) -> float:
    """Photon-number variance of the superradiant ground state:
    sinh^2(2 r)/2 + alpha^2 e^{2 r} + (g~/omega0~)^2 e^{-2 r}."""
    alpha, r = superradiant_frame(p)
    frame = displaced_frame(p, alpha)
    ratio2 = (frame.g_tilde / frame.omega0_tilde) ** 2
    return (
        0.5 * sinh(2.0 * r) ** 2
        + alpha**2 * exp(2.0 * r)
        + ratio2 * exp(-2.0 * r)
    )


def variance(p: RabiParams) -> float:
    """Phase-dispatched closed-form variance."""
    if p.lam < 1.0:
        return variance_np(p)
    return variance_sp(p)


def short_time_le(gamma, chi: float, t) -> np.ndarray | float:
    """Gaussian short-time law L(t) = exp(-4 gamma chi^2 t^2).

    `gamma` and `t` may be scalars or arrays that broadcast together. The law
    is the leading term of an expansion in epsilon * t (epsilon the
    ground-state excitation frequency) and is valid for epsilon * t << 1;
    it is evaluated at every requested t regardless.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0):
        raise ValueError("gamma must be non-negative")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    out = np.exp(-4.0 * gamma * chi**2 * t**2)
    return out if out.ndim else float(out)
