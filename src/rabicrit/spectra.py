"""Ground states and spectra of real symmetric band matrices, physical
photon-number moments, and automatic cutoff convergence.

`_band_eigh` is the one eigensolver kernel. It calls the LAPACK drivers that
`scipy.linalg.eigh_tridiagonal` and `eig_banded` pick, with the same
arguments, so its results are theirs bit for bit without their per-call
argument handling: dstebz + dstein for the lowest eigenpair of a tridiagonal
matrix, dstevd for its full spectrum, dsbevx for the lowest eigenvalue of a
wider band and dsbevd for its full spectrum. A band's ground vector comes
from inverse iteration (dgbtrf / dgbtrs) at its bisection eigenvalue.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import (
    dgbtrf,
    dgbtrs,
    dlamch,
    dsbevd,
    dsbevx,
    dstebz,
    dstein,
    dstevd,
)

from .errors import ConvergenceError
from .hilbert import BandMatrix, FockCutoff

# the cutoff search doubles from N_START up to CUTOFF_HARD_CAP, and stops
# where the ground energy shifts by less than a tolerance, by default CUTOFF_TOL
N_START = 8
CUTOFF_HARD_CAP = 4096
CUTOFF_TOL = 1e-8
# inverse iteration for a band ground vector: residual bound in units of
# eps ||H||, and the most solves it may take to meet it
RESIDUAL_EPS = 8.0
INVERSE_ITERATION_MAX = 8
# dsbevx's absolute tolerance, as eig_banded sets it: twice the safe minimum
SBEVX_ABSTOL = 2.0 * dlamch("S")


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude amplitude real-positive (global phase)."""
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec * phase.conjugate()


def _check(info: int, driver: str):
    if info != 0:
        raise LinAlgError(f"{driver} failed (LAPACK info={info})")


def _band_eigh(h: BandMatrix, lowest: bool, eigvals_only: bool = False):
    """The lowest eigenpair (`lowest`) or all eigenpairs, in ascending order,
    of a real symmetric band matrix: eigenvalues `w`, and unless
    `eigvals_only` the eigenvectors `v` as columns. Raises `ValueError` on a
    non-finite entry and `LinAlgError` when a driver reports failure."""
    band = h.band
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    vectors = not eigvals_only
    if h.dim == 1:
        # eigh_tridiagonal's shortcut, and what both band drivers return
        w, v = band[0, :1].copy(), np.ones((1, 1))
    elif band.shape[0] == 2:
        d, e = band[0], band[1, :-1]
        if lowest:
            # index range 1..1, abstol 0; block order when dstein follows
            m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0,
                                                "B" if vectors else "E")
            _check(info, "dstebz")
            w = w[:m]
            if vectors:
                v, info = dstein(d, e, w, iblock, isplit)
                _check(info, "dstein")
        else:
            w, v, info = dstevd(d, e, compute_v=vectors)
            _check(info, "dstevd")
    elif lowest:
        w, v, m, _, info = dsbevx(band, 0.0, 1.0, 1, 1, compute_v=vectors, range=2,
                                  lower=1, abstol=SBEVX_ABSTOL, mmax=1, overwrite_ab=0)
        _check(info, "dsbevx")
        w, v = w[:m], v[:, :m]
    else:
        w, v, info = dsbevd(band, compute_v=vectors, lower=1, overwrite_ab=0)
        _check(info, "dsbevd")
    return w if eigvals_only else (w, v)


def band_ground_energy(h: BandMatrix) -> float:
    """Lowest eigenvalue of a real symmetric band matrix (bisection only)."""
    return float(_band_eigh(h, lowest=True, eigvals_only=True)[0])


def band_ground_state(h: BandMatrix, energy: float | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric band matrix, phase-fixed.

    A tridiagonal matrix goes to dstebz + dstein, and `energy` is not used. A
    wider band takes its lowest eigenvalue E0, `energy` when given (as
    `band_ground_energy` returned it for this matrix) or else bisected here,
    and inverse iteration on the band itself (one LU factorisation, then a
    solve per step), which never forms the dense orthogonal factor of the
    band reduction; it stops once, after at least two solves,
    ||(H - E0) x|| <= RESIDUAL_EPS eps ||H||. The shift sits a few ulps below
    E0, so H - shift is never exactly singular (say, for a diagonal H).
    """
    if h.band.shape[0] == 2:
        w, v = _band_eigh(h, lowest=True)
        return float(w[0]), _fix_phase(v[:, 0])
    if energy is None:
        energy = band_ground_energy(h)
    n, width = h.dim, h.band.shape[0] - 1
    row_max = np.abs(h.band).max(axis=1)
    bound = np.finfo(float).eps * (row_max[0] + 2.0 * row_max[1:].sum())  # eps ||H||_inf
    # LAPACK general band storage of H - shift: `width` rows of fill-in,
    # the mirrored upper diagonals, then the lower band
    ab = np.zeros((3 * width + 1, n))
    ab[2 * width:] = h.shifted(-(energy - 4.0 * bound)).band
    for k in range(1, min(width + 1, n)):
        ab[2 * width - k, k:] = ab[2 * width + k, : n - k]
    # an exactly zero pivot would make x non-finite and fail the residual test
    lu, piv, _ = dgbtrf(ab, width, width, overwrite_ab=True)
    residual = h.shifted(-energy).band
    x = np.full((n, 1), 1.0 / np.sqrt(n))
    for solves in range(1, INVERSE_ITERATION_MAX + 1):
        x, _ = dgbtrs(lu, width, width, x, piv, overwrite_b=True)
        x /= np.linalg.norm(x)
        # one solve damps the start vector's excited components only to about
        # 4 eps ||H|| / gap, an error the residual bound still admits
        if solves > 1 and (np.linalg.norm(dsbmv(width, 1.0, residual, x[:, 0], lower=1))
                           <= RESIDUAL_EPS * bound):
            return energy, _fix_phase(x[:, 0])
    raise ConvergenceError(
        f"inverse iteration: no ground vector within {RESIDUAL_EPS} eps ||H|| "
        f"after {INVERSE_ITERATION_MAX} solves (dimension {n})"
    )


def band_spectrum(h: BandMatrix) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues (ascending) and eigenvectors of a real band matrix."""
    return _band_eigh(h, lowest=False)


def displaced_photon_moments(amp: np.ndarray, alpha: float) -> tuple[float, float]:
    """Mean and variance of the physical photon number n + alpha x + alpha^2,
    that is (a^dag + alpha)(a + alpha), in a displaced frame.

    Row k of `amp` holds the amplitudes with k photons in that frame (a
    column per spin state, or a single column); alpha = 0 is the bare frame.
    """
    k = np.arange(amp.shape[0], dtype=float)
    root = np.sqrt(k[1:])[:, None]
    n_amp = (k + alpha**2)[:, None] * amp
    n_amp[1:] += alpha * root * amp[:-1]
    n_amp[:-1] += alpha * root * amp[1:]
    mean = float(np.vdot(amp, n_amp).real)
    mean2 = float(np.vdot(n_amp, n_amp).real)
    return mean, max(mean2 - mean**2, 0.0)


class FrameCutoff(NamedTuple):
    """The cutoff a search over several frames chose, the index of the
    frame whose ground energy converged there first, and that frame's ground
    energy at the cutoff."""

    frame: int
    cutoff: FockCutoff
    energy: float

    @property
    def n_max(self) -> int:
        return self.cutoff.n_max


def converge_cutoff(
    frames: tuple[Callable[[FockCutoff], float | None], ...], tol: float
) -> FrameCutoff:
    """Smallest tested cutoff whose ground energy shifts by < tol on doubling.

    Doubling sequence N_START, 2 N_START, ...; hard cap CUTOFF_HARD_CAP.
    Each of `frames` maps a cutoff to the ground energy of one Hamiltonian in
    one frame, or to None at the cutoffs too small for that frame to converge,
    where it is not tried. The frames share the doubling loop: at each cutoff
    they are tested in order, and the first whose energy converges is
    returned with its index and its energy at that cutoff.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    known: dict[tuple[int, int], float | None] = {}

    def energy(frame: int, n: int) -> float | None:
        if (frame, n) not in known:
            known[frame, n] = frames[frame](FockCutoff(n))
        return known[frame, n]

    n = N_START
    while 2 * n <= CUTOFF_HARD_CAP:
        for frame in range(len(frames)):
            e_n = energy(frame, n)
            if e_n is not None and abs(energy(frame, 2 * n) - e_n) < tol:
                return FrameCutoff(frame, FockCutoff(n), e_n)
        n *= 2
    raise ConvergenceError(
        f"ground energy not converged to {tol} below cutoff {CUTOFF_HARD_CAP}"
    )
