"""Branch time evolution, the exact and effective ground states, and the
decoherence factor of a ground state.

Every Hamiltonian is a real symmetric band matrix, a NumPy array in LAPACK
lower band storage (see `spectra`). The echo is one function,
`decoherence_factor(gs, chi, times)`, which returns D(t), so that
L(t) = |D(t)|^2: it builds the ground state's probe branches at the probe's
dispersive shift chi (a float: the probe enters nowhere else) and evolves
the ground state to every time in one product per branch spectrum
(`evolved`).
A frame is one record, `Frame`: its displacement alpha, basis layout and
smallest cutoff, and the bands of the Hamiltonian and of the physical photon
number in one basis (`h`, `n`). The exact and effective methods differ only
in the frames they pass to one path: the cutoff search over them
(`spectra.converge_cutoff`), which bisects the ground energy once per cutoff
it tries and returns the frame, band and energy at the one it chooses; the
ground vector there, by inverse iteration (`spectra.band_ground_state`); and
the photon number's moments (`spectra.band_moments`). So each band is built
once. The exact method passes the bare even parity chain and, above the
transition, the displaced band; the effective method one frame of its
Hamiltonian without the constant, which conserves photon parity. Each ground
state (`BandGround`) carries its frame, its Fock cutoff `n_max` (an int) and
the frame's H and N there; both methods' probe branches are H -/+ chi N
(`probe_branches`), which only `decoherence_factor` builds. A sweep point
(`experiments._point`) looks the two methods up by name in `GROUND_STATES`;
whether the dispersive step behind chi holds there is its `delta_s_min`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

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
class Frame:
    """One frame of a method's Hamiltonian: the bare one (`alpha` = 0) or the
    one displaced by the phase's `alpha`, in a basis ordered by photon number
    with `spins` spin states fastest. `band` maps a cutoff to the band of the
    Hamiltonian without its constant `const`, which only the reported energy
    adds. The cutoff search skips the frame below `n_min` photons. An `even`
    Hamiltonian conserves photon parity: its search and ground vector use its
    even photon numbers (`block`, `vector`), which hold the state too where N
    conserves parity (alpha = 0). `h(n_max)` is the band the state and its
    probe branches live in, `n(n_max)` the physical photon number in that
    basis, and `name` the report's `frame`."""

    alpha: float
    spins: int
    n_min: float
    band: Callable[[int], np.ndarray]
    even: bool = False
    const: float = 0.0

    @property
    def name(self) -> str:
        return "displaced" if self.alpha else "bare"

    def _state(self, band: np.ndarray) -> np.ndarray:
        return band[0::2, 0::2] if self.even and not self.alpha else band

    def h(self, n_max: int) -> np.ndarray:
        return self._state(self.band(n_max))

    def n(self, n_max: int) -> np.ndarray:
        return self._state(photon_number_band(self.alpha, n_max, self.spins))

    def block(self, h: np.ndarray) -> np.ndarray:
        """The block of `h` = h(n_max) that holds the ground state."""
        return h[0::2, 0::2] if self.even and self.alpha else h

    def vector(self, h: np.ndarray, energy: float) -> np.ndarray:
        """The ground vector of h(n_max), solved on its `block` at `energy`."""
        vec = band_ground_state(self.block(h), energy)
        if not (self.even and self.alpha):
            return vec
        full = np.zeros(h.shape[1])
        full[0::2] = vec
        return full


@dataclass(frozen=True)
class BandGround:
    """Ground state of the exact or effective method in its `frame` at its
    converged cutoff: `h` and `n` are the frame's bands there, so that the
    probe branches are `probe_branches(h, n, chi)`; `mean_n` and `gamma` are
    the moments of `n`; `energy` includes every constant."""

    frame: Frame
    n_max: int
    h: np.ndarray
    n: np.ndarray
    energy: float
    vector: np.ndarray
    mean_n: float
    gamma: float


def _ground_state(frames: tuple[Frame, ...], cutoff_tol: float) -> BandGround:
    """The ground state in the first of `frames` whose energy converges."""
    found = converge_cutoff(frames, cutoff_tol)
    frame = found.frame
    vec = frame.vector(found.band, found.energy)
    n = frame.n(found.n_max)
    return BandGround(frame, found.n_max, found.band, n, found.energy + frame.const, vec,
                      *band_moments(n, vec))


def exact_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Exact ground state, in the bare frame below the transition. Above it,
    the bare frame and the one displaced by the phase's alpha are searched,
    the bare one first at each cutoff, and the state is solved in the first
    to converge: the displaced one where the wells are far apart, the bare
    one where tunnelling between them still matters, but from the cutoff
    alpha^2 on, where it holds both wells."""
    alpha = phase(p).alpha
    frames = (Frame(0.0, 1, alpha**2, partial(build_rabi_parity, p)),)
    if alpha:
        frames += (Frame(alpha, 2, 0.0, partial(build_displaced_rabi_band, p, alpha)),)
    return _ground_state(frames, cutoff_tol)


def effective_ground_state(p: RabiParams, cutoff_tol: float) -> BandGround:
    """Ground state of the fourth-order effective Hamiltonian of the phase of
    `p`, in its frame, searched and solved on the even photon numbers (a band
    of half-width 2). The band leaves out the constant (-eta/2 at leading
    order): kept in, its roundoff, of order eps eta / gap, would stay in the
    vector and, in the branches, grow into a phase error of L with t."""
    ph = phase(p)
    frame = Frame(ph.alpha, 1, 0.0, partial(_quartic_band, ph.c2, ph.c4), True, ph.const)
    return _ground_state((frame,), cutoff_tol)


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
