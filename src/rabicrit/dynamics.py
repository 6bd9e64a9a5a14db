"""Branch time evolution, the decoherence factor, the exact and effective
ground states, and the Loschmidt echo at one coupling (`echo_point`).

Every Hamiltonian is a real symmetric `BandMatrix`. The echo is one
function, `decoherence_factor`, which returns D(t): it evolves the ground
state to every time in one product per branch spectrum (`evolved`).
The exact and effective methods find their ground states through one path:
each hands its bands, one builder per frame, to the cutoff search
(`spectra.converge_cutoff`), which bisects the ground energy once per cutoff
it tries and hands the one at the chosen cutoff to the ground-vector solve.
The exact method solves on the bare frame's even parity chain
(`hamiltonians.build_rabi_parity`), which holds the ground state, or, above
the transition where its cutoff search converges there first, on the
displaced band (`hamiltonians.build_displaced_rabi_band`), each the same band
for the search and the solve (`exact_sector`); the effective method, in both
phases, on the even photon numbers of its Hamiltonian without the constant
(`hamiltonians._quartic_band(...).even()`, from the coefficients of the
`hamiltonians.phase` record), which conserves photon parity. Every ground
vector comes from one kernel, inverse iteration at the searched energy
(`spectra.band_ground_state`). Each ground state (`BandGround`) carries the
band H its vector lives in and the physical photon number N in that basis
(`hamiltonians.photon_number_band`), and both methods' probe branches are
H -/+ chi N, from one function (`probe_branches`).
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
from .spectra import band_ground_state, band_moments, band_spectrum, converge_cutoff
from .variational import solve as variational_solve


def _matmul(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for a real v and a complex (or real) z, as one real product on
    the interleaved real and imaginary parts of z, so v is never cast to
    complex."""
    z = np.ascontiguousarray(z, dtype=complex)
    out = v @ z.view(float).reshape(z.shape[0], -1)
    return out.view(complex).reshape(v.shape[0], *z.shape[1:])


def evolved(energies: np.ndarray, vectors: np.ndarray, vec: np.ndarray, times: np.ndarray,
            e_ref: float) -> np.ndarray:
    """exp(-i (H - e_ref) t) vec at every t of `times`, a column per time, from
    H's `band_spectrum` (E, V) in one product: V (exp(-i (E - e_ref) t) * V^T vec)."""
    coeff = _matmul(vectors.T, vec)
    phases = np.exp(-1j * np.outer(energies - e_ref, times))
    return _matmul(vectors, phases * coeff[:, None])


def decoherence_factor(h_g: BandMatrix, h_e: BandMatrix, ground: np.ndarray,
                       times) -> np.ndarray:
    """D(t) = <Phi_g(t)|Phi_e(t)> with |Phi_b(t)> = exp(-i H_b t)|G>, at
    every t of `times`, each branch evolved to every time in one matrix
    product (`evolved`). The echo is L(t) = |D(t)|^2."""
    if h_g.dim != h_e.dim:
        raise DimensionMismatchError(f"branch dims differ: {h_g.dim} vs {h_e.dim}")
    times = np.asarray(times, dtype=float)
    (w_g, v_g), (w_e, v_e) = band_spectrum(h_g), band_spectrum(h_e)
    # A common energy offset is a global phase that cancels in |D|; removing
    # it keeps the phases E t small (E is near -omega_0/2).
    e_ref = w_g[0]
    return np.sum(evolved(w_g, v_g, ground, times, e_ref).conj()
                  * evolved(w_e, v_e, ground, times, e_ref), axis=0)


@dataclass(frozen=True)
class BandGround:
    """Ground state of the exact or effective method at its converged cutoff:
    the band `h` its `vector` lives in, and the physical photon number `n` in
    that same basis, so that the probe branches are `probe_branches(h, n,
    probe)`. The frame is the bare one (`alpha` = 0) or the one displaced by
    `alpha` = alpha_lambda. Below the transition both methods use the bare
    frame. Above it the effective method uses the displaced frame; the exact
    method uses whichever of the two its cutoff search converges in first
    (see `exact_ground_state`). The exact method's `h` is the even parity
    chain in the bare frame and the spin-fastest band in the displaced one;
    the effective method's is its Hamiltonian without the constant, on the
    even photon numbers in the bare frame and in natural Fock order in the
    displaced one. `mean_n` and `gamma` are the moments of `n`; `energy`
    includes every constant.
    """

    alpha: float
    cutoff: FockCutoff
    h: BandMatrix
    n: BandMatrix
    energy: float
    vector: np.ndarray
    mean_n: float
    gamma: float

    @property
    def frame(self) -> str:
        return "displaced" if self.alpha else "bare"


def _band_ground(alphas, search, solve, cutoff_tol: float) -> BandGround:
    """One cutoff search over the frames displaced by each of `alphas`, in
    that order, on the band `search(alpha, cutoff)` (None where the frame is
    not built); then one ground vector, `solve(alpha, cutoff, energy)` ->
    (h, n, energy, vector), in the first frame to converge, at its cutoff,
    given the ground energy the search bisected there; and the moments of its
    physical photon number n."""
    found = converge_cutoff(tuple(partial(search, a) for a in alphas), cutoff_tol)
    alpha, cutoff = alphas[found.frame], found.cutoff
    h, n, energy, vec = solve(alpha, cutoff, found.energy)
    return BandGround(alpha, cutoff, h, n, energy, vec, *band_moments(n, vec))


def exact_sector(p: RabiParams, alpha: float, cutoff: FockCutoff) -> BandMatrix:
    """The band of the Rabi Hamiltonian that holds the ground state in the
    frame displaced by `alpha`, on which the exact method both searches its
    cutoff and solves its ground vector. Bare frame (alpha = 0): the even
    parity chain, whose row k has k photons and which every probe branch
    conserves. Displaced frame: the whole spin-fastest band, two rows per
    photon number."""
    if alpha == 0.0:
        return build_rabi_parity(p, cutoff)
    return build_displaced_rabi_band(p, alpha, cutoff)


def exact_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Exact ground state. Below the transition it is solved in the bare
    frame. Above it, one doubling loop searches the bare frame and the frame
    displaced by alpha_lambda, the bare one first at each cutoff, and the
    state is solved in the first whose ground energy converges: the
    displaced frame where the two wells are far apart, the bare one where
    tunnelling between them still matters. The bare frame holds both wells
    only with about alpha_lambda^2 photons, the mean-field photon number, so
    it is not built below that cutoff. Each frame is one band
    (`exact_sector`), the same for the search and the solve, and the vector
    is solved at the energy the search bisected.
    """
    alpha = phase(p).alpha
    alphas = (0.0, alpha) if alpha else (0.0,)
    n_bare = alpha**2

    def search(alpha: float, cutoff: FockCutoff) -> BandMatrix | None:
        if not alpha and cutoff.n_max < n_bare:
            return None
        return exact_sector(p, alpha, cutoff)

    def solve(alpha: float, cutoff: FockCutoff, energy: float):
        h = exact_sector(p, alpha, cutoff)
        n = photon_number_band(alpha, cutoff, h.dim // cutoff.dim)  # spins per photon number
        return (h, n, *band_ground_state(h, energy))

    return _band_ground(alphas, search, solve, cutoff_tol)


def effective_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Ground state of the fourth-order effective Hamiltonian of the phase of
    `p` (the superradiant one in the frame displaced by alpha_lambda). The
    Hamiltonian conserves photon parity in both phases, so the cutoff search
    and the ground vector both use its even photon numbers alone, a band of
    half the dimension and half-width 2, and the energy the search bisected
    is the one the vector is solved at. Below the transition the photon
    number conserves parity too, and the state stays on the even block;
    above it, its displacement term alpha x does not, and the state is
    embedded in the full band. Both use the Hamiltonian without its constant
    (-omega_0/2 at leading order), which is added once, to the reported
    energy: kept in the band, the constant's roundoff, of order
    eps omega_0 / gap, would stay in the vector and, in the branches, grow
    into a phase error of L with t.
    """
    ph = phase(p)

    def search(alpha: float, cutoff: FockCutoff) -> BandMatrix:
        return _quartic_band(ph.omega_c, ph.c2, ph.c4, cutoff).even()

    def solve(alpha: float, cutoff: FockCutoff, energy: float):
        h = _quartic_band(ph.omega_c, ph.c2, ph.c4, cutoff)
        n = photon_number_band(alpha, cutoff, 1)
        energy, even = band_ground_state(h.even(), energy)
        if not alpha:
            return h.even(), n.even(), energy + ph.const, even
        vec = np.zeros(cutoff.dim)
        vec[0::2] = even
        return h, n, energy + ph.const, vec

    return _band_ground((ph.alpha,), search, solve, cutoff_tol)


# the methods that diagonalise, by name
GROUND_STATES = {"exact": exact_ground_state, "effective": effective_ground_state}


def probe_branches(h: BandMatrix, n: BandMatrix, probe: ProbeParams) -> tuple[BandMatrix, BandMatrix]:
    """(h_g, h_e) = (h - chi n, h + chi n): the Hamiltonian `h` conditioned
    on the probe in |g> or |e>, with `n` the physical photon number in the
    basis of `h` (no wider a band). The probe shifts the cavity frequency by
    -/+ chi: in either frame, h -/+ chi n is the Rabi Hamiltonian rebuilt at
    omega_c -/+ chi, in which omega_c enters only as omega_c n. The probe's
    own energy is left out of both: it changes only the phase of D.
    """
    chi = probe.chi
    n_band = np.zeros_like(h.band)
    n_band[:n.band.shape[0]] = n.band
    return BandMatrix(h.band - chi * n_band), BandMatrix(h.band + chi * n_band)


@dataclass(frozen=True)
class EchoPoint:
    """The echo L(t) at one coupling, the photon-number variance `gamma` of
    the ground state it probes, and that ground state: the `BandGround` of
    the exact or effective method, which holds the point's cutoff and frame,
    or None for the closed forms, which diagonalise nothing."""

    l_values: np.ndarray
    gamma: float
    ground: BandGround | None


def echo_point(p: RabiParams, probe: ProbeParams, times, method: str,
               cutoff_tol: float) -> EchoPoint:
    """Echo L(t) at the coupling of `p`, at every t of `times`.

    Methods: 'exact' and 'effective' (`GROUND_STATES`; the branches are
    `probe_branches` of the ground state's band and photon number, in its
    frame), 'analytic' / 'variational' (Gaussian law with the respective
    variance, the variational one clamped at 0; valid for epsilon * t << 1,
    epsilon the ground-state excitation frequency, and evaluated at every
    requested t regardless; `PhaseDomainError` within CRITICAL_BAND of
    lam = 1). The
    exact and effective methods raise `ConvergenceError` when the cutoff
    search reaches the hard cap.
    """
    times = np.asarray(times, dtype=float)
    if method in ("analytic", "variational"):
        if method == "analytic":
            gamma = variance(p)
        else:
            gamma = max(variational_solve(p).gamma_prime, 0.0)
        return EchoPoint(short_time_le(gamma, probe.chi, times), gamma, None)
    if method not in GROUND_STATES:
        raise ValueError(f"unknown method {method!r}")
    gs = GROUND_STATES[method](p, cutoff_tol)
    h_g, h_e = probe_branches(gs.h, gs.n, probe)
    return EchoPoint(np.abs(decoherence_factor(h_g, h_e, gs.vector, times)) ** 2, gs.gamma, gs)
