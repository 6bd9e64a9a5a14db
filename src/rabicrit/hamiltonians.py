"""Parameters, the phase record, and the Hamiltonian builders for the Rabi
model, the displaced frame, the probe + Rabi (tripartite) model, and the
low-spin effective (boson-only) Hamiltonians.

`phase(p)` is the one place that decides the phase from lam. Its `Phase`
record holds the low-spin picture of that side of the transition (the
displacement `alpha`, the spin splitting `omega_t`, the coupling `mu`) and
derives from it the coefficients c2, c4 and const of the phase's
fourth-order effective Hamiltonian; `_quartic_band` builds that Hamiltonian
without its constant.

Every builder returns a real symmetric `BandMatrix` in a basis ordered by
photon number: the Rabi Hamiltonian on its even parity chain, which holds
the ground state (`build_rabi_parity`), or spin-fastest in the displaced frame
(`build_displaced_rabi_band`), the tripartite model with both spins fastest
(`build_tripartite_band`) and the effective Hamiltonians in natural Fock
order. `photon_number_band` builds the physical photon number N in each of
these bases but the tripartite one; a probe branch of any method is then
H -/+ chi N (`dynamics.probe_branches`). Spin states are ordered (|e>, |g>).
Natural units: the constructors accept any positive and finite omega_c;
`from_dimensionless`, `from_chi` and the CLI fix omega_c = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .errors import PhaseDomainError
from .hilbert import BandMatrix, FockCutoff


@dataclass(frozen=True)
class RabiParams:
    """Rabi-model parameter set (omega_c, omega_0, g).

    The dimensionless coupling lam = 2 g / sqrt(omega_0 omega_c) and the
    frequency ratio eta = omega_0 / omega_c are derived, never stored.
    """

    omega_c: float
    omega_0: float
    g: float

    def __post_init__(self):
        if not all(map(isfinite, (self.omega_c, self.omega_0, self.g))):
            raise ValueError("omega_c, omega_0 and g must be finite")
        if not (self.omega_c > 0 and self.omega_0 > 0):
            raise ValueError("omega_c and omega_0 must be strictly positive")
        if not self.g >= 0:
            raise ValueError("g must be non-negative")

    @property
    def lam(self) -> float:
        return 2.0 * self.g / sqrt(self.omega_0 * self.omega_c)

    @property
    def eta(self) -> float:
        return self.omega_0 / self.omega_c

    @classmethod
    def from_dimensionless(cls, lam: float, eta: float) -> "RabiParams":
        """The parameters of (lam, eta) with omega_c = 1."""
        return cls(1.0, eta, lam * sqrt(eta) / 2.0)


@dataclass(frozen=True)
class ProbeParams:
    """Auxiliary-atom parameters and its initial superposition. The
    dispersive shift `chi` is derived, never stored."""

    omega_s: float
    g_s: float
    delta_s: float
    alpha: complex = 1.0 / sqrt(2.0)
    beta: complex = 1.0 / sqrt(2.0)

    def __post_init__(self):
        if not all(map(isfinite, (self.omega_s, self.g_s, self.delta_s))):
            raise ValueError("omega_s, g_s and delta_s must be finite")
        if not abs(self.delta_s) > 0:
            raise ValueError("delta_s must be nonzero (dispersive regime)")
        nrm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not abs(nrm - 1.0) <= 1e-12:  # a NaN amplitude fails it too
            raise ValueError(f"|alpha|^2 + |beta|^2 = {nrm}, must be 1")

    @property
    def chi(self) -> float:
        """Dispersive shift g_s^2 / delta_s."""
        return self.g_s**2 / self.delta_s

    @classmethod
    def from_chi(cls, chi: float) -> "ProbeParams":
        """The probe detuned by delta_s = omega_c = 1 whose dispersive shift
        is chi, in an equal superposition."""
        if not chi > 0:
            raise ValueError("chi must be positive")
        return cls(2.0, sqrt(chi), 1.0)


def alpha_lambda(p: RabiParams) -> float:
    """Displacement magnitude that removes the linear boson term, lam > 1 only."""
    lam = p.lam
    if lam <= 1.0:
        raise PhaseDomainError(f"alpha_lambda requires lam > 1, got lam={lam}")
    return sqrt(p.omega_0 * (lam**4 - 1.0) / (4.0 * lam**2 * p.omega_c))


@dataclass(frozen=True)
class Phase:
    """The low-spin picture of one side of the transition (Hwang, Puebla &
    Plenio, PRL 115, 180404 (2015)): the cavity, in the frame displaced by
    `alpha`, couples through `mu` to a two-level system of splitting
    `omega_t`. Normal phase: alpha = 0, omega_t = omega_0, mu = lam^2.
    Superradiant phase: alpha = alpha_lambda, omega_t = lam^2 omega_0,
    mu = lam^-4.

    Its fourth-order effective Hamiltonian, in that frame, is
    omega_c n - c2 x^2 + c4 x^4 + const with x = a + a^dag.
    """

    omega_c: float
    alpha: float
    omega_t: float
    mu: float

    @property
    def name(self) -> str:
        return "superradiant" if self.alpha else "normal"

    @property
    def c2(self) -> float:
        return self.omega_c * self.mu / 4.0

    @property
    def c4(self) -> float:
        return self.c2**2 / self.omega_t

    @property
    def const(self) -> float:
        return (-0.5 * self.omega_t + self.omega_c * self.c2 / self.omega_t
                + self.omega_c * self.alpha**2)


def phase(p: RabiParams) -> Phase:
    """The phase lam selects: superradiant above 1; normal up to and at 1,
    where mu = 1 and the effective Hamiltonian is a quartic oscillator."""
    lam = p.lam
    if lam > 1.0:
        return Phase(p.omega_c, alpha_lambda(p), lam**2 * p.omega_0, lam**-4)
    return Phase(p.omega_c, 0.0, p.omega_0, lam**2)


def build_rabi_parity(p: RabiParams, cutoff: FockCutoff) -> BandMatrix:
    """H = omega_c a^dag a + (omega_0/2) sigma_z - g sigma_x (a + a^dag) on
    its even parity chain |g,0>, |e,1>, |g,2>, ..., a real tridiagonal matrix
    whose row k has k photons.

    H conserves the parity exp(i pi (a^dag a + (1 + sigma_z)/2)), so the
    chain is an invariant block, and the model's ground state is even at
    every lam. Above lam = 1 the odd chain's lowest level joins it as a
    nearly degenerate doublet, split by the tunnelling between the two wells.
    """
    k = np.arange(cutoff.dim, dtype=float)
    spin = 0.5 * p.omega_0 * (-1.0) ** (k + 1)  # sigma_z on the even chain
    band = np.zeros((2, cutoff.dim))
    band[0] = p.omega_c * k + spin
    band[1, :-1] = -p.g * np.sqrt(k[1:])
    return BandMatrix(band)


def build_displaced_rabi_band(p: RabiParams, alpha_disp: float, cutoff: FockCutoff) -> BandMatrix:
    """The Rabi Hamiltonian conjugated by D(alpha_disp) as a real band matrix
    of half-width 3:

    H~ = omega_c (a^dag + alpha)(a + alpha) - g (a + a^dag) sigma_x
         + (omega_0/2) sigma_z - 2 g alpha sigma_x,

    built term by term (not by conjugating with a truncated displacement), so
    it stays exactly symmetric for any alpha. Spin-fastest basis: row 2 k + s
    is spin s (0 for |e>, 1 for |g>) with k photons in the displaced frame.
    """
    k = np.arange(cutoff.dim, dtype=float)
    root = np.sqrt(k[1:])
    boson = p.omega_c * (k + alpha_disp**2)
    band = np.zeros((4, 2 * cutoff.dim))
    band[0, 0::2] = boson + 0.5 * p.omega_0
    band[0, 1::2] = boson - 0.5 * p.omega_0
    band[1, 0::2] = -2.0 * p.g * alpha_disp    # <g,k| H |e,k>
    band[1, 1:-1:2] = -p.g * root              # <e,k+1| H |g,k>
    band[2, :-2] = p.omega_c * alpha_disp * np.repeat(root, 2)  # <s,k+1| H |s,k>
    band[3, 0:-3:2] = -p.g * root              # <g,k+1| H |e,k>
    return BandMatrix(band)


def build_tripartite_band(p: RabiParams, probe: ProbeParams, cutoff: FockCutoff) -> BandMatrix:
    """The Jaynes-Cummings probe plus the Rabi model, before the dispersive
    step, as a real band matrix of half-width 6:

    H = H_rabi + (omega_s/2) sigma_z^(s) - g_s (sigma_-^(s) a^dag + sigma_+^(s) a).

    Photons slowest, then the probe spin, then the Rabi spin: row
    4 k + 2 s_probe + s_rabi has k photons (s = 0 for |e>, 1 for |g>).
    """
    k = np.arange(cutoff.dim, dtype=float)
    spin = np.array([1.0, -1.0])
    hop = np.sqrt(k[1:])[:, None]              # <k+1| a^dag |k>
    band = np.zeros((7, 4 * cutoff.dim))
    band[0] = (p.omega_c * k[:, None, None] + 0.5 * p.omega_0 * spin
               + 0.5 * probe.omega_s * spin[:, None]).ravel()
    rows = band[:, :4 * cutoff.n_max].reshape(7, cutoff.n_max, 4)  # a view: rows[d, k, j] = band[d, 4 k + j]
    rows[5, :, 0::2] = -p.g * hop              # <k+1, s, g| H |k, s, e>
    rows[3, :, 1::2] = -p.g * hop              # <k+1, s, e| H |k, s, g>
    rows[6, :, :2] = -probe.g_s * hop          # <k+1, g, r| H |k, e, r>
    return BandMatrix(band)


def _quartic_band(omega_c: float, c2: float, c4: float, cutoff: FockCutoff) -> BandMatrix:
    """omega_c n - c2 x^2 + c4 x^4 in natural Fock order, half-width 4: an
    effective Hamiltonian without its constant. Its odd diagonals are zero
    (it conserves photon parity), so `even()` is an invariant block.

    x^2 and x^4 are the products of the truncated x = a + a^dag: the last
    diagonal entry of x^2 is n_max, not 2 n_max + 1.
    """
    k = np.arange(cutoff.dim, dtype=float)
    x2_diag = 2.0 * k + 1.0
    x2_diag[-1] = cutoff.n_max
    x2_off = np.sqrt(k[1:-1] * k[2:])            # <k+2| x^2 |k>
    x4_diag = x2_diag**2
    x4_diag[:-2] += x2_off**2
    x4_diag[2:] += x2_off**2
    x4_off2 = x2_off * (x2_diag[:-2] + x2_diag[2:])
    x4_off4 = x2_off[:-2] * x2_off[2:]
    band = np.zeros((5, cutoff.dim))
    band[0] = omega_c * k - c2 * x2_diag + c4 * x4_diag
    band[2, :x2_off.size] = -c2 * x2_off + c4 * x4_off2
    band[4, :x4_off4.size] = c4 * x4_off4
    return BandMatrix(band)


def photon_number_band(alpha: float, cutoff: FockCutoff, spins: int) -> BandMatrix:
    """The physical photon number N = n + alpha x + alpha^2 of the frame
    displaced by alpha (alpha = 0: the bare frame), half-width `spins`, in a
    basis ordered by photon number with `spins` spin states fastest: 1 for
    natural Fock order and the even parity chain (row k has k photons), 2 for the
    spin-fastest band of `build_displaced_rabi_band`."""
    k = np.arange(cutoff.dim, dtype=float)
    band = np.zeros((spins + 1, spins * cutoff.dim))
    band[0] = np.repeat(k + alpha**2, spins)
    band[spins, :-spins] = alpha * np.repeat(np.sqrt(k[1:]), spins)
    return BandMatrix(band)
