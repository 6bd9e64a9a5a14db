"""Branch time evolution, the decoherence factor, the exact and effective
ground states, and the Loschmidt echo at one coupling (`echo_point`).

Every Hamiltonian is a real symmetric `BandMatrix`. Time propagation reuses
one spectral decomposition per Hamiltonian (they are time independent) and
evolves a state to every requested time in one matrix product (`evolved`).
The exact and effective methods find their ground states through one path,
which bisects the ground energy once per cutoff the search tries and hands the
one at the chosen cutoff to the ground-vector solve: the exact method on the
bare-frame parity chains (`hamiltonians.build_rabi_parity`) or, above the
transition where its cutoff search converges there first, on the displaced
band (`hamiltonians.build_displaced_rabi_band`); the effective method, in both
phases, on the even photon numbers of its Hamiltonian without the constant
(`hamiltonians._quartic_band(...).even()`, from the coefficients of the
`hamiltonians.phase` record), which conserves photon parity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import short_time_le, variance
from .errors import DimensionMismatchError
from .hamiltonians import (
    ProbeParams,
    RabiParams,
    _quartic_band,
    build_displaced_rabi_band,
    build_rabi_parity,
    phase,
    photon_number_band,
)
from .hilbert import BandMatrix, FockCutoff
from .spectra import (
    band_ground_energy,
    band_ground_state,
    band_spectrum,
    converge_cutoff,
    displaced_photon_moments,
)
from .variational import solve as variational_solve


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and real orthonormal eigenvectors (columns) of
    a real symmetric matrix."""

    energies: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, h: BandMatrix) -> "SpectralDecomposition":
        return cls(*band_spectrum(h))


def _matmul(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for a real v and a complex (or real) z, as one real product on
    the interleaved real and imaginary parts of z, so v is never cast to
    complex."""
    z = np.ascontiguousarray(z, dtype=complex)
    out = v @ z.view(float).reshape(z.shape[0], -1)
    return out.view(complex).reshape(v.shape[0], *z.shape[1:])


def evolved(d: SpectralDecomposition, vec: np.ndarray, times: np.ndarray,
            e_ref: float) -> np.ndarray:
    """exp(-i (H - e_ref) t) vec at every t of `times`, a column per time,
    in one matrix product: V (exp(-i (E - e_ref) t) * V^T vec)."""
    coeff = _matmul(d.vectors.T, vec)
    phases = np.exp(-1j * np.outer(d.energies - e_ref, times))
    return _matmul(d.vectors, phases * coeff[:, None])


@dataclass(frozen=True)
class EchoSeries:
    times: np.ndarray
    d_values: np.ndarray
    l_values: np.ndarray


def decoherence_factor(h_g: BandMatrix, h_e: BandMatrix, ground: np.ndarray,
                       times) -> EchoSeries:
    """D(t) = <Phi_g(t)|Phi_e(t)> with |Phi_b(t)> = exp(-i H_b t)|G>, each
    branch evolved to every time in one matrix product (`branch_echo`)."""
    return branch_echo(SpectralDecomposition.of(h_g), SpectralDecomposition.of(h_e),
                       ground, times)


def branch_echo(dg: SpectralDecomposition, de: SpectralDecomposition, ground: np.ndarray,
                times) -> EchoSeries:
    """The decoherence factor of `decoherence_factor` from the spectra of
    the two branches."""
    if dg.vectors.shape != de.vectors.shape:
        raise DimensionMismatchError(
            f"branch dims differ: {dg.vectors.shape[0]} vs {de.vectors.shape[0]}"
        )
    times = np.asarray(times, dtype=float)
    # A common energy offset is a global phase that cancels in D; removing it
    # keeps the phases E t small (E is near -omega_0/2).
    e_ref = dg.energies[0]
    d_vals = np.sum(evolved(dg, ground, times, e_ref).conj()
                    * evolved(de, ground, times, e_ref), axis=0)
    return EchoSeries(times=times, d_values=d_vals, l_values=np.abs(d_vals) ** 2)


@dataclass(frozen=True)
class BandGround:
    """Ground state of the exact or effective method at its converged cutoff,
    in the band basis of its frame: the bare frame (`alpha` = 0) or the frame
    displaced by `alpha` = alpha_lambda. Below the transition both methods
    use the bare frame. Above it the effective method uses the displaced
    frame; the exact method uses whichever of the two its cutoff search
    converges in first (see `exact_ground_state`). The exact method's basis
    is the even parity chain in the bare frame and spin-fastest in the
    displaced one; the effective method's is natural Fock order. `mean_n` and
    `gamma` are the moments of the physical photon number.
    """

    alpha: float
    cutoff: FockCutoff
    energy: float
    vector: np.ndarray
    mean_n: float
    gamma: float

    @property
    def frame(self) -> str:
        return "displaced" if self.alpha else "bare"


def _band_ground(alphas, search, solve, cutoff_tol: float) -> BandGround:
    """One cutoff search over the frames displaced by each of `alphas`, in
    that order, on the ground energy `search(alpha, cutoff)`; then one ground
    vector, `solve(alpha, cutoff, energy)` -> (energy, amplitudes in Fock
    rows), in the first frame to converge, at its cutoff, given the ground
    energy the search found there; and its physical photon-number moments."""
    found = converge_cutoff(tuple(partial(search, a) for a in alphas), cutoff_tol)
    alpha, cutoff = alphas[found.frame], found.cutoff
    energy, vec = solve(alpha, cutoff, found.energy)
    mean_n, gamma = displaced_photon_moments(vec.reshape(cutoff.dim, -1), alpha)
    return BandGround(alpha, cutoff, energy, vec, mean_n, gamma)


def _exact_band(p: RabiParams, alpha: float, cutoff: FockCutoff) -> BandMatrix:
    """Both parity chains (alpha = 0) or the displaced frame (alpha > 0)."""
    if alpha == 0.0:
        return build_rabi_parity(p, cutoff)
    return build_displaced_rabi_band(p, alpha, cutoff)


def _ground_sector(p: RabiParams, alpha: float, cutoff: FockCutoff) -> BandMatrix:
    """The block of `_exact_band` that holds the ground state."""
    h = _exact_band(p, alpha, cutoff)
    return h.leading(cutoff.dim) if alpha == 0.0 else h


def exact_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Exact ground state. Below the transition it is solved in the bare
    frame. Above it, one doubling loop searches the bare frame and the frame
    displaced by alpha_lambda, the bare one first at each cutoff, and the
    state is solved in the first whose ground energy converges: the
    displaced frame where the two wells are far apart, the bare one where
    tunnelling between them still matters. The bare frame holds both wells
    only with about alpha_lambda^2 photons, the mean-field photon number, so
    it is not built below that cutoff. The search sees both parity chains,
    as a dense solve would; the state comes from one solve of the even chain.
    """
    alpha = phase(p).alpha
    alphas = (0.0, alpha) if alpha else (0.0,)
    n_bare = alpha**2

    def search(alpha: float, cutoff: FockCutoff) -> float | None:
        if alpha == 0.0 and cutoff.n_max < n_bare:
            return None
        return band_ground_energy(_exact_band(p, alpha, cutoff))

    def solve(alpha: float, cutoff: FockCutoff, energy: float):
        # the even chain (bare frame) is bisected anew by dstebz + dstein
        return band_ground_state(_ground_sector(p, alpha, cutoff), energy)

    return _band_ground(alphas, search, solve, cutoff_tol)


def effective_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Ground state of the fourth-order effective Hamiltonian of the phase of
    `p` (the superradiant one in the frame displaced by alpha_lambda). The
    Hamiltonian conserves photon parity in both phases, so the cutoff search
    and the ground vector both use its even photon numbers alone, a band of
    half the dimension and half-width 2, and the energy the search bisected
    is the one the vector is solved at. Both use the Hamiltonian without its
    constant (-omega_0/2 at leading order), which is added once, to the
    reported energy: kept in the band, the constant's roundoff, of order
    eps omega_0 / gap, would stay in the vector.
    """
    ph = phase(p)

    def even_band(cutoff: FockCutoff) -> BandMatrix:
        return _quartic_band(ph.omega_c, ph.c2, ph.c4, cutoff).even()

    def search(alpha: float, cutoff: FockCutoff) -> float:
        return band_ground_energy(even_band(cutoff))

    def solve(alpha: float, cutoff: FockCutoff, energy: float):
        energy, even = band_ground_state(even_band(cutoff), energy)
        vec = np.zeros(cutoff.dim)
        vec[0::2] = even
        return energy + ph.const, vec

    return _band_ground((ph.alpha,), search, solve, cutoff_tol)


def exact_branch_bands(p: RabiParams, probe: ProbeParams, alpha: float,
                       cutoff: FockCutoff) -> tuple[BandMatrix, BandMatrix]:
    """(h_g, h_e): the Rabi Hamiltonian conditioned on the probe in |g> or
    |e>, in the block of `_exact_band` that holds the ground state.

    Branch 'g': cavity frequency omega_c - chi, constant -omega_s/2.
    Branch 'e': cavity frequency omega_c + chi, constant omega_s/2 + chi.
    Bare frame (alpha = 0): the even parity chain, which the branches
    conserve. Displaced frame: one common displacement applied to the
    ground-state Hamiltonian and both branches (frame invariance of the echo
    makes this exact; per-branch displacements would not be).
    """
    chi = probe.chi

    def branch(omega_b: float, const: float) -> BandMatrix:
        shifted = RabiParams(omega_b, p.omega_0, p.g)
        return _ground_sector(shifted, alpha, cutoff).shifted(const)

    return (branch(p.omega_c - chi, -0.5 * probe.omega_s),
            branch(p.omega_c + chi, 0.5 * probe.omega_s + chi))


def _effective_branches(p: RabiParams, probe: ProbeParams, gs: BandGround):
    """(h_g, h_e, ground): boson-only effective Hamiltonians with the
    dispersive cavity shift, in the frame of the effective ground state `gs`.

    The probe couples through chi sigma_z^(s) n; in the displaced frame the
    physical photon number is n + alpha x + alpha^2, so the branch shift
    carries the displacement terms on the superradiant side. In the bare
    frame the branches conserve photon parity and the ground state is even,
    so they are restricted to the even photon numbers. The Hamiltonian's
    constant (-omega_0/2 at leading order) is left out of both branches: it
    is a global phase of D, and kept in, its roundoff eps omega_0 would grow
    into a phase error of L with t.
    """
    chi, ph = probe.chi, phase(p)
    h0 = _quartic_band(ph.omega_c, ph.c2, ph.c4, gs.cutoff).band
    n_phys = photon_number_band(gs.alpha, gs.cutoff).band
    h_g = BandMatrix(h0 - chi * n_phys).shifted(-0.5 * probe.omega_s)
    h_e = BandMatrix(h0 + chi * n_phys).shifted(0.5 * probe.omega_s + chi)
    if gs.alpha:
        return h_g, h_e, gs.vector
    return h_g.even(), h_e.even(), gs.vector[0::2]


@dataclass(frozen=True)
class EchoPoint:
    """The echo L(t) at one coupling, the photon-number variance `gamma` of
    the ground state it probes, and that ground state: the `BandGround` of
    the exact or effective method, which holds the point's cutoff and frame,
    or None for the closed forms and at lam = 0, where nothing is
    diagonalised."""

    l_values: np.ndarray
    gamma: float
    ground: BandGround | None


def echo_point(p: RabiParams, probe: ProbeParams, times, method: str,
               cutoff_tol: float) -> EchoPoint:
    """Echo L(t) at the coupling of `p`, at every t of `times`.

    Methods: 'exact' (bare-frame branches for lam <= 1; above, branches in
    the frame of `exact_ground_state`, bare or commonly displaced),
    'effective' (boson-only fourth-order Hamiltonians),
    'analytic' / 'variational' (Gaussian law with the respective variance,
    the variational one clamped at 0; valid for epsilon * t << 1, epsilon the
    ground-state excitation frequency, and evaluated at every requested t
    regardless; `PhaseDomainError` within CRITICAL_BAND of lam = 1). The
    exact and effective methods raise `ConvergenceError` when the cutoff
    search reaches the hard cap.
    """
    times = np.asarray(times, dtype=float)
    if p.lam == 0.0:
        return EchoPoint(np.ones_like(times), 0.0, None)
    if method in ("analytic", "variational"):
        if method == "analytic":
            gamma = variance(p)
        else:
            gamma = max(variational_solve(p).gamma_prime, 0.0)
        return EchoPoint(short_time_le(gamma, probe.chi, times), gamma, None)
    if method == "exact":
        gs = exact_ground_state(p, cutoff_tol)
        h_g, h_e = exact_branch_bands(p, probe, gs.alpha, gs.cutoff)
        ground = gs.vector
    elif method == "effective":
        gs = effective_ground_state(p, cutoff_tol)
        h_g, h_e, ground = _effective_branches(p, probe, gs)
    else:
        raise ValueError(f"unknown method {method!r}")
    return EchoPoint(decoherence_factor(h_g, h_e, ground, times).l_values, gs.gamma, gs)
