"""Parameters, the phase record, and the Hamiltonian builders for the Rabi
model, the displaced frame, and the low-spin effective (boson-only)
Hamiltonians.

`phase(p)` is the one place that decides the phase from lam. Its `Phase`
record holds the low-spin picture of that side of the transition (the
displacement `alpha`, the spin splitting `omega_t`, the coupling `mu`) and
derives from it the coefficients c2, c4 and const of the phase's
fourth-order effective Hamiltonian; `_quartic_band` builds that Hamiltonian
without its constant.

Every builder returns a real symmetric band matrix, a NumPy array in LAPACK
lower band storage (see `spectra`), in a basis ordered by photon number:
the Rabi Hamiltonian on its even parity chain, which holds the ground state
(`build_rabi_parity`), or spin-fastest in the displaced frame
(`build_displaced_rabi_band`), and the effective Hamiltonians in natural
Fock order. `photon_number_band` builds the physical photon number N in
each of these bases; a probe branch of any method is then H -/+ chi N
(`dynamics.probe_branches`). The probe atom enters only through its
dispersive shift chi = g_s^2 / Delta_s, a float, so no record here holds
it. Spin states are ordered (|e>, |g>). Energies are in units of the cavity
frequency omega_c, and times in units of 1/omega_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import PhaseDomainError


@dataclass(frozen=True)
class RabiParams:
    """The Rabi model at the dimensionless coupling `lam` and the ratio `eta`
    of the spin splitting omega_0 to the cavity frequency omega_c. In units
    of omega_c, omega_0 is eta and the coupling is g = lam sqrt(eta) / 2."""

    lam: float
    eta: float

    def __post_init__(self):
        if not (isfinite(self.lam) and isfinite(self.eta)):
            raise ValueError(f"lam and eta must be finite, got lam = {self.lam}, "
                             f"eta = {self.eta}")
        if not self.lam >= 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        if not self.eta > 0:
            raise ValueError(f"eta must be strictly positive, got {self.eta}")
        if not isfinite(self.g):
            raise ValueError(f"g = lam sqrt(eta) / 2 overflows at lam = {self.lam:g}, "
                             f"eta = {self.eta:g}")

    @property
    def g(self) -> float:
        return self.lam * sqrt(self.eta) / 2.0


@dataclass(frozen=True)
class Phase:
    """The low-spin picture of one side of the transition (Hwang, Puebla &
    Plenio, PRL 115, 180404 (2015)): the cavity, in the frame displaced by
    `alpha`, couples through `mu` to a two-level system of splitting
    `omega_t`. Normal phase: alpha = 0, omega_t = eta, mu = lam^2.
    Superradiant phase: alpha = sqrt(eta (lam^4 - 1) / (4 lam^2)), which
    removes the linear boson term, omega_t = lam^2 eta, mu = lam^-4.

    Its fourth-order effective Hamiltonian, in that frame, is
    n - c2 x^2 + c4 x^4 + const with x = a + a^dag.
    """

    alpha: float
    omega_t: float
    mu: float

    def __post_init__(self):
        if not all(map(isfinite, (self.alpha, self.omega_t, self.mu, self.c4, self.const))):
            raise PhaseDomainError(f"the phase record is not finite: {self}")

    @property
    def c2(self) -> float:
        return self.mu / 4.0

    @property
    def c4(self) -> float:
        return self.c2**2 / self.omega_t

    @property
    def const(self) -> float:
        return -0.5 * self.omega_t + self.c2 / self.omega_t + self.alpha**2


def phase(p: RabiParams) -> Phase:
    """The phase lam selects: superradiant above 1; normal up to and at 1,
    where mu = 1 and the effective Hamiltonian is a quartic oscillator.
    `PhaseDomainError` where the record or its coefficients are not finite."""
    lam = p.lam
    if lam > 1.0:
        try:
            alpha = sqrt(p.eta * (lam**4 - 1.0) / (4.0 * lam**2))
        except OverflowError:  # lam**4, for lam above about 1e77
            raise PhaseDomainError(f"the displacement alpha overflows at lam = {lam:g}") from None
        return Phase(alpha, lam**2 * p.eta, lam**-4)
    return Phase(0.0, p.eta, lam**2)


def build_rabi_parity(p: RabiParams, n_max: int) -> np.ndarray:
    """H = a^dag a + (eta/2) sigma_z - g sigma_x (a + a^dag) on
    its even parity chain |g,0>, |e,1>, |g,2>, ..., a real tridiagonal matrix
    whose row k has k photons.

    H conserves the parity exp(i pi (a^dag a + (1 + sigma_z)/2)), so the
    chain is an invariant block, and the model's ground state is even at
    every lam. Above lam = 1 the odd chain's lowest level joins it as a
    nearly degenerate doublet, split by the tunnelling between the two wells.
    """
    k = np.arange(n_max + 1, dtype=float)
    spin = 0.5 * p.eta * (-1.0) ** (k + 1)  # sigma_z on the even chain
    band = np.zeros((2, k.size))
    band[0] = k + spin
    band[1, :-1] = -p.g * np.sqrt(k[1:])
    return band


def build_displaced_rabi_band(p: RabiParams, alpha_disp: float, n_max: int) -> np.ndarray:
    """The Rabi Hamiltonian conjugated by D(alpha_disp) as a real band matrix
    of half-width 3:

    H~ = (a^dag + alpha)(a + alpha) - g (a + a^dag) sigma_x
         + (eta/2) sigma_z - 2 g alpha sigma_x,

    built term by term (not by conjugating with a truncated displacement), so
    it stays exactly symmetric for any alpha. Spin-fastest basis: row 2 k + s
    is spin s (0 for |e>, 1 for |g>) with k photons in the displaced frame.
    """
    k = np.arange(n_max + 1, dtype=float)
    root = np.sqrt(k[1:])
    boson = k + alpha_disp**2
    band = np.zeros((4, 2 * k.size))
    band[0, 0::2] = boson + 0.5 * p.eta
    band[0, 1::2] = boson - 0.5 * p.eta
    band[1, 0::2] = -2.0 * p.g * alpha_disp    # <g,k| H |e,k>
    band[1, 1:-1:2] = -p.g * root              # <e,k+1| H |g,k>
    band[2, :-2] = alpha_disp * np.repeat(root, 2)  # <s,k+1| H |s,k>
    band[3, 0:-3:2] = -p.g * root              # <g,k+1| H |e,k>
    return band


def _quartic_band(c2: float, c4: float, n_max: int) -> np.ndarray:
    """n - c2 x^2 + c4 x^4 in natural Fock order, half-width 4: an
    effective Hamiltonian without its constant. Its odd diagonals are zero
    (it conserves photon parity), so its even photon numbers,
    `band[0::2, 0::2]`, are an invariant block.

    x^2 and x^4 are the products of the truncated x = a + a^dag: the last
    diagonal entry of x^2 is n_max, not 2 n_max + 1.
    """
    k = np.arange(n_max + 1, dtype=float)
    x2_diag = 2.0 * k + 1.0
    x2_diag[-1] = n_max
    x2_off = np.sqrt(k[1:-1] * k[2:])            # <k+2| x^2 |k>
    x4_diag = x2_diag**2
    x4_diag[:-2] += x2_off**2
    x4_diag[2:] += x2_off**2
    x4_off2 = x2_off * (x2_diag[:-2] + x2_diag[2:])
    x4_off4 = x2_off[:-2] * x2_off[2:]
    band = np.zeros((5, k.size))
    band[0] = k - c2 * x2_diag + c4 * x4_diag
    band[2, :x2_off.size] = -c2 * x2_off + c4 * x4_off2
    band[4, :x4_off4.size] = c4 * x4_off4
    return band


def photon_number_band(alpha: float, n_max: int, spins: int) -> np.ndarray:
    """The physical photon number N = n + alpha x + alpha^2 of the frame
    displaced by alpha (alpha = 0: the bare frame), half-width `spins`, in a
    basis ordered by photon number with `spins` spin states fastest: 1 for
    natural Fock order and the even parity chain (row k has k photons), 2 for the
    spin-fastest band of `build_displaced_rabi_band`."""
    k = np.arange(n_max + 1, dtype=float)
    band = np.zeros((spins + 1, spins * k.size))
    band[0] = np.repeat(k + alpha**2, spins)
    band[spins, :-spins] = alpha * np.repeat(np.sqrt(k[1:]), spins)
    return band
