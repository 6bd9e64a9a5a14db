"""Branch time evolution, the exact and effective ground states, and the
decoherence factor of a ground state.

Every Hamiltonian is a real symmetric band matrix, a NumPy array in LAPACK
lower band storage (see `spectra`). The echo is one function,
`decoherence_factor(gs, chi, times)`, which returns D(t), so that
L(t) = |D(t)|^2: it builds the ground state's probe branches at the probe's
dispersive shift chi (a float: the probe enters nowhere else) and evolves
the ground state to every time in one product per branch spectrum
(`evolved`).
The exact and effective methods find their ground states the same way, in
three calls: the cutoff search over their bands, one builder per frame
(`spectra.converge_cutoff`), which bisects the ground energy once per cutoff
it tries and returns the band and the energy at the one it chooses; the
ground vector on that band at that energy, by inverse iteration
(`spectra.band_ground_state`); and the moments of the physical photon number
(`spectra.band_moments`). So each band is built once. The exact method
solves on the bare frame's even parity chain
(`hamiltonians.build_rabi_parity`), which holds the ground state, or, above
the transition where its cutoff search converges there first, on the
displaced band (`hamiltonians.build_displaced_rabi_band`); the effective
method, in both phases, on the even photon numbers of its Hamiltonian
without the constant (`hamiltonians._quartic_band(...)[0::2, 0::2]`, from the
coefficients of the `hamiltonians.phase` record), which conserves photon
parity. Each ground state (`BandGround`) carries its Fock cutoff `n_max`
(an int), the band H its vector lives in and the physical photon number N in
that basis (`hamiltonians.photon_number_band`), and both methods' probe
branches are H -/+ chi N, from one function (`probe_branches`), which only
`decoherence_factor` calls. A sweep point (`experiments._point`) looks the
two methods up by name in `GROUND_STATES`; the tripartite check of the
dispersive approximation (`validate_dispersive`) runs the exact method's
path on its bare frame alone (`_exact_ground`), and evolves the probe + Rabi
model on its two parity blocks (`hamiltonians.build_tripartite_blocks`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ConvergenceError
from .hamiltonians import (
    ProbeParams,
    RabiParams,
    _quartic_band,
    build_displaced_rabi_band,
    build_rabi_parity,
    build_tripartite_blocks,
    phase,
    photon_number_band,
)
from .spectra import (
    CUTOFF_HARD_CAP, CUTOFF_TOL, band_ground_state, band_moments, band_spectrum, converge_cutoff,
)


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


@dataclass(frozen=True)
class BandGround:
    """Ground state of the exact or effective method at its converged cutoff:
    the band `h` its `vector` lives in, and the physical photon number `n` in
    that same basis, so that the probe branches are `probe_branches(h, n,
    chi)`. The frame is the bare one (`alpha` = 0) or the one displaced by
    the phase's `alpha` (`hamiltonians.phase`). Below the transition both
    methods use the bare frame. Above it the effective method uses the
    displaced frame; the exact method uses whichever of the two its cutoff
    search converges in first (see `exact_ground_state`). The exact
    method's `h` is the even parity chain in the bare frame and the
    spin-fastest band in the displaced one; the effective method's is its
    Hamiltonian without the constant, on the even photon numbers in the bare
    frame and in natural Fock order in the displaced one. `mean_n` and
    `gamma` are the moments of `n`; `energy` includes every constant.
    """

    alpha: float
    n_max: int
    h: np.ndarray
    n: np.ndarray
    energy: float
    vector: np.ndarray
    mean_n: float
    gamma: float

    @property
    def frame(self) -> str:
        return "displaced" if self.alpha else "bare"


def _exact_ground(p: RabiParams, alphas: tuple[float, ...], cutoff_tol: float) -> BandGround:
    """The exact ground state over the frames displaced by each of `alphas`,
    in that order: the cutoff search, the ground vector on the band it
    returns, and the physical photon number's moments. The bare frame
    (alpha = 0) is the even parity chain, whose row k has k photons; a
    displaced one the spin-fastest band, two rows per photon number. Above
    the transition the bare frame holds both wells only from about
    alpha^2 photons, so it is not built below that cutoff."""
    n_bare = phase(p).alpha ** 2

    def band(alpha: float, n_max: int) -> np.ndarray | None:
        if alpha:
            return build_displaced_rabi_band(p, alpha, n_max)
        return None if n_max < n_bare else build_rabi_parity(p, n_max)

    found = converge_cutoff(tuple(partial(band, a) for a in alphas), cutoff_tol)
    alpha = alphas[found.frame]
    vec = band_ground_state(found.band, found.energy)
    n = photon_number_band(alpha, found.n_max, 2 if alpha else 1)
    return BandGround(alpha, found.n_max, found.band, n, found.energy, vec,
                      *band_moments(n, vec))


def exact_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Exact ground state. Below the transition it is solved in the bare
    frame. Above it, one doubling loop searches the bare frame and the frame
    displaced by the phase's alpha, the bare one first at each cutoff, and
    the state is solved in the first whose ground energy converges: the
    displaced frame where the two wells are far apart, the bare one where
    tunnelling between them still matters (`_exact_ground`).
    """
    alpha = phase(p).alpha
    return _exact_ground(p, (0.0, alpha) if alpha else (0.0,), cutoff_tol)


def effective_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Ground state of the fourth-order effective Hamiltonian of the phase of
    `p` (the superradiant one in the frame displaced by its alpha). The
    Hamiltonian conserves photon parity in both phases, so the cutoff search
    and the ground vector both use its even photon numbers alone, a band of
    half the dimension and half-width 2, and the energy the search bisected
    is the one the vector is solved at. Below the transition the photon
    number conserves parity too, and the state stays on the even block;
    above it, its displacement term alpha x does not, and the state is
    embedded in the full band. Both use the Hamiltonian without its constant
    (-eta/2 at leading order), which is added once, to the reported
    energy: kept in the band, the constant's roundoff, of order
    eps eta / gap, would stay in the vector and, in the branches, grow
    into a phase error of L with t.
    """
    ph = phase(p)
    # one build per cutoff: above the transition the full band is the searched one
    band = cache(partial(_quartic_band, ph.c2, ph.c4))
    found = converge_cutoff((lambda c: band(c)[0::2, 0::2],), cutoff_tol)
    even = band_ground_state(found.band, found.energy)
    n = photon_number_band(ph.alpha, found.n_max, 1)
    if ph.alpha:
        h, vec = band(found.n_max), np.zeros(found.n_max + 1)
        vec[0::2] = even
    else:
        h, n, vec = found.band, n[0::2, 0::2], even
    return BandGround(ph.alpha, found.n_max, h, n, found.energy + ph.const, vec,
                      *band_moments(n, vec))


# the methods that diagonalise, by name
GROUND_STATES = {"exact": exact_ground_state, "effective": effective_ground_state}


def probe_branches(h: np.ndarray, n: np.ndarray, chi: float) -> tuple[np.ndarray, np.ndarray]:
    """(h_g, h_e) = (h - chi n, h + chi n): the Hamiltonian `h` conditioned
    on the probe in |g> or |e>, with `n` the physical photon number in the
    basis of `h` (no wider a band). A probe of dispersive shift
    chi = g_s^2 / Delta_s shifts the cavity frequency by -/+ chi: in either
    frame, h -/+ chi n is the Rabi Hamiltonian with the cavity frequency
    1 -/+ chi in place of 1, which enters only as the coefficient of n. The
    probe's own energy is left out of both: it changes only the phase of D.
    """
    n_band = np.zeros_like(h)
    n_band[:n.shape[0]] = n
    return h - chi * n_band, h + chi * n_band


def decoherence_factor(gs: BandGround, chi: float, times) -> np.ndarray:
    """D(t) = <Phi_g(t)|Phi_e(t)> with |Phi_b(t)> = exp(-i H_b t)|G>, at
    every t of `times`, for the ground state `gs` of the exact or effective
    method and its branches `probe_branches(gs.h, gs.n, chi)`, each branch
    evolved to every time in one matrix product (`evolved`). The echo is
    L(t) = |D(t)|^2."""
    times = np.asarray(times, dtype=float)
    (w_g, v_g), (w_e, v_e) = map(band_spectrum, probe_branches(gs.h, gs.n, chi))
    # A common energy offset is a global phase that cancels in |D|; removing
    # it keeps the phases E t small (E is near -eta/2).
    e_ref = w_g[0]
    return np.sum(evolved(w_g, v_g, gs.vector, times, e_ref).conj()
                  * evolved(w_e, v_e, gs.vector, times, e_ref), axis=0)


@dataclass(frozen=True)
class DispersiveReport:
    coherence_exact: np.ndarray
    coherence_predicted: np.ndarray
    max_rel_deviation: float
    dispersive_regime: bool


def validate_dispersive(p: RabiParams, probe: ProbeParams, times) -> DispersiveReport:
    """Compare the probe coherence from exact tripartite evolution, the probe
    prepared in (|g> + |e>)/sqrt(2), against the branch-echo prediction
    |D(t)|, at the cutoff the exact method's bare-frame search chooses at
    `CUTOFF_TOL`. A bare frame that holds both wells only beyond every cutoff
    the search tries raises `ConvergenceError` before any band is built.

    Report-only: `dispersive_regime` is the dispersive condition
    |Delta_s| >> |g_s| sqrt(<n> + 1) taken as |Delta_s| >= 10 |g_s| sqrt(<n> + 1),
    a conventional factor 10; below it the check warns, and never fails.
    """
    times = np.asarray(times, dtype=float)
    n_bare = phase(p).alpha ** 2
    if n_bare > CUTOFF_HARD_CAP // 2:
        raise ConvergenceError(
            f"bare frame needs a cutoff of alpha^2 = {n_bare:.6g} photons to hold "
            f"both wells, above the largest the search tries ({CUTOFF_HARD_CAP // 2})"
        )
    # the Rabi ground state on the exact method's bare frame, the even chain,
    # whose row k is |g,k> (k even) or |e,k>
    gs = _exact_ground(p, (0.0,), CUTOFF_TOL)
    dispersive = abs(probe.delta_s) >= 10.0 * abs(probe.g_s) * np.sqrt(gs.mean_n + 1.0)
    if not dispersive:
        warnings.warn("dispersive condition |Delta_s| >> g_s sqrt(<n>+1) is violated; "
                      "large deviations expected", stacklevel=2)
    # exact tripartite evolution from the probe's (|g> + |e>)/sqrt(2) times the
    # Rabi ground state: its |g> part in the first parity block, its |e> part
    # in the second, both evolved from one energy offset to keep their phase
    (w_g, v_g), (w_e, v_e) = map(band_spectrum, build_tripartite_blocks(p, probe, gs.n_max))
    psi_g, psi_e = np.zeros(w_g.size), np.zeros(w_e.size)
    psi_g[0::2] = psi_e[1::2] = gs.vector / np.sqrt(2.0)
    g, e = evolved(w_g, v_g, psi_g, times, w_g[0]), evolved(w_e, v_e, psi_e, times, w_g[0])
    # coherence magnitude convention: 2 |<sigma_->| = 2 |rho_eg|, with
    # sigma_- = |g><e| on the probe; a block's rows 0::2 hold the probe's |g>,
    # rows 1::2 its |e>, on the even chain in g[0::2] and e[1::2]
    overlap = g[0::2].conj() * e[1::2] + e[0::2].conj() * g[1::2]
    coherence_exact = 2.0 * np.abs(overlap.sum(axis=0))
    # the branch echo predicts 2 |rho_eg| = 2 (1/2) |D| = |D|
    coherence_pred = np.abs(decoherence_factor(gs, probe.chi, times))
    denom = np.maximum(coherence_pred, 1e-15)
    max_rel = float(np.max(np.abs(coherence_exact - coherence_pred) / denom))
    return DispersiveReport(coherence_exact, coherence_pred, max_rel, dispersive)
