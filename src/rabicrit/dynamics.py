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
two methods up by name in `GROUND_STATES`. Whether the dispersive step
behind chi holds at a point is the sweep's number `delta_s_min`
(`experiments`); the probe + Rabi evolution it bounds is a reference in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .hamiltonians import (
    RabiParams,
    _quartic_band,
    build_displaced_rabi_band,
    build_rabi_parity,
    phase,
    photon_number_band,
)
from .spectra import band_ground_state, band_moments, band_spectrum, converge_cutoff


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


def exact_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Exact ground state. Below the transition it is solved in the bare
    frame. Above it, one doubling loop searches the bare frame and the frame
    displaced by the phase's alpha, the bare one first at each cutoff, and
    the state is solved in the first whose ground energy converges: the
    displaced frame where the two wells are far apart, the bare one where
    tunnelling between them still matters. Then the ground vector is solved
    on the band the search returns, and the physical photon number's moments
    are taken. The bare frame is the even parity chain, whose row k has k
    photons; the displaced one the spin-fastest band, two rows per photon
    number. Above the transition the bare frame holds both wells only from
    about alpha^2 photons, so it is not built below that cutoff.
    """
    alpha = phase(p).alpha
    alphas, n_bare = ((0.0, alpha) if alpha else (0.0,)), alpha**2

    def band(a: float, n_max: int) -> np.ndarray | None:
        if a:
            return build_displaced_rabi_band(p, a, n_max)
        return None if n_max < n_bare else build_rabi_parity(p, n_max)

    found = converge_cutoff(tuple(partial(band, a) for a in alphas), cutoff_tol)
    alpha = alphas[found.frame]
    vec = band_ground_state(found.band, found.energy)
    n = photon_number_band(alpha, found.n_max, 2 if alpha else 1)
    return BandGround(alpha, found.n_max, found.band, n, found.energy, vec,
                      *band_moments(n, vec))


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
