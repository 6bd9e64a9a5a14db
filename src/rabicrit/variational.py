"""Finite-eta variational ground states from a single-mode squeezing ansatz.

`solve(p)` reads the `Phase` record of `p` and returns a frozen
`VariationalSolution`. The variational energy is the mean of the phase's
effective Hamiltonian n - c2 x^2 + c4 x^4 + const in the vacuum squeezed
by s,

    E(s) = sinh^2 s - c2 e^{2 s} + 3 c4 e^{4 s} + const,

and with x = e^{2 s} its stationarity condition is, in both phases, the real
cubic 24 c4 x^3 + (1 - mu) x^2 - 1 = 0, solved once by Newton's
method in s from a closed-form upper bound of its root; the tests check it
against the published Cardano-style closed form in extended precision. The
photon moments are the squeezed vacuum's (`analytic.squeezed_moments`, the
closed forms' at c4 = 0) plus the ansatz's terms in q4 = (c2/omega_t)^2.
Where those terms outweigh the rest (eta of order 1 and below) the mean or
the variance comes out negative, or q4 overflows: the ansatz has no state
there, and `solve` raises `PhaseDomainError`.

No lam is guarded. At lam = 1 the cubic reads 24 c4 x^3 = 1: the
Gaussian ansatz in the quartic oscillator, whose `mean_n` is 4.3-4.9% low and
`gamma_prime` 7.5-8.1% high against the exact method at eta = 1e4-1e6, an
error that does not shrink with eta. At lam = 1.001 the state holds one well:
its `gamma_prime` is 113% above the exact value at eta = 1e4, 2.7% at 1e5."""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, expm1, inf, log, sinh

from .analytic import squeezed_moments
from .errors import PhaseDomainError
from .hamiltonians import Phase, RabiParams, phase


@dataclass(frozen=True)
class VariationalSolution:
    """Squeezing parameter, energy, and mean and variance of the photon
    number of the variational ground state in the phase lam selects."""

    s: float
    energy: float
    mean_n: float
    gamma_prime: float


def _squeezing(c3: float, mu: float) -> float:
    """The squeezing s at the unique positive root x = e^{2 s} of
    c3 x^3 + c2 x^2 - 1, with c2 = 1 - mu, for c3, c2 >= 0 not both 0.

    Newton's method runs on s itself, on c3 e^{6 s} + c2 expm1(4 s) - mu:
    its constant is mu, not c2 - 1, which loses the low bits of a small mu,
    and s is not log(x)/2 of an x near 1, so s keeps its full relative
    precision at small lam. At x = c2^{-1/2} and at x = c3^{-1/3} the cubic
    is the other, non-negative term, so each lies at or above the root;
    Newton's method starts from the smaller of those whose coefficient is
    nonzero. The function is convex and increasing in s, so Newton's method
    decreases monotonically to the root; it stops when a step no longer
    decreases s.
    """
    c2 = 1.0 - mu
    s = 0.5 * log(min(c ** (-1.0 / k) for c, k in ((c2, 2.0), (c3, 3.0)) if c > 0.0))
    while True:
        x = exp(2.0 * s)
        f = c3 * x**3 + c2 * expm1(4.0 * s) - mu
        s_next = s - f / (2.0 * x * x * (3.0 * c3 * x + 2.0 * c2))
        if not s_next < s:
            return s
        s = s_next


def _energy_at(ph: Phase, s: float) -> float:
    """E(s), the variational energy at squeezing s."""
    return sinh(s) ** 2 - ph.c2 * exp(2.0 * s) + 3.0 * ph.c4 * exp(4.0 * s) + ph.const


def solve(p: RabiParams) -> VariationalSolution:
    """Variational ground state in the phase lam selects: normal up to and
    at 1, superradiant above. `PhaseDomainError` where the ansatz's photon
    mean or variance is negative or not finite."""
    ph = phase(p)
    s = _squeezing(24.0 * ph.c4, ph.mu)
    mean_n, gamma = squeezed_moments(ph, s)
    # the ansatz's q4 terms: -k q4 e^{2 s} in the mean, -k q4 e^{4 s} in the variance
    try:
        k_q4 = (8.0 / 3.0 if ph.alpha else 8.0) * (ph.c2 / ph.omega_t) ** 2
    except OverflowError:  # c2/omega_t above about 1e154: eta below about 1e-154
        raise PhaseDomainError(f"the ansatz's q4 term overflows at lam = {p.lam:g}, "
                               f"eta = {p.eta:g}") from None
    mean_n, gamma = mean_n - k_q4 * exp(2.0 * s), gamma - k_q4 * exp(4.0 * s)
    if not (0.0 <= mean_n < inf and 0.0 <= gamma < inf):
        raise PhaseDomainError(f"the ansatz has no state at lam = {p.lam:g}, eta = {p.eta:g}: "
                               f"photon mean {mean_n:g}, variance {gamma:g}")
    return VariationalSolution(s, _energy_at(ph, s), mean_n, gamma)
