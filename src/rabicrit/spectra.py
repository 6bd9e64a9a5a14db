"""Ground states and spectra of real symmetric band matrices, the mean and
variance of a band observable (`band_moments`, which reads the physical
photon number's in every basis), and automatic cutoff convergence
(`converge_cutoff`), which bisects the ground energy at each cutoff it tries
and compares it with the doubled cutoff's by two band Cholesky
factorisations (dpbtrf), not by a second eigenvalue solve.

`_band_eigh` is the one eigensolver kernel. It calls the LAPACK drivers that
`scipy.linalg.eigh_tridiagonal` and `eig_banded` pick, with the same
arguments, so its results are theirs bit for bit without their per-call
argument handling, in two modes: the lowest eigenvalue alone, by bisection
(dstebz for a tridiagonal matrix, dsbevx for a wider band), and the full
spectrum with eigenvectors (dstevd, dsbevd). Every ground vector, of a
tridiagonal matrix or a wider band, comes from one kernel, inverse iteration
(dgbtrf / dgbtrs) at its bisection eigenvalue (`band_ground_state`).

The drivers are scipy's own f2py functions, the very objects that
`scipy.linalg.lapack` and `scipy.linalg.blas` expose, taken from the two
compiled modules `scipy.linalg._flapack` and `scipy.linalg._fblas`. Those
are loaded by file, after `import scipy` alone, so the `scipy.linalg`
package init (about a quarter of a second: `array_api_compat`, `numpy.f2py`,
`numpy.testing`) never runs at start-up. `_scipy_linalg_extension` keeps one
instance of each module per process, whichever of this module and
`scipy.linalg` is imported first.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from math import isfinite
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np
import scipy
from numpy.linalg import LinAlgError  # the class scipy.linalg.LinAlgError names

from .errors import ConvergenceError
from .hilbert import BandMatrix, FockCutoff


def _scipy_linalg_extension(name: str) -> ModuleType:
    """The compiled module `scipy.linalg.<name>`, loaded from its file without
    the `scipy.linalg` package init, or the instance already in `sys.modules`.
    Raises `ImportError` naming the directory when no file has that name."""
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    directory = Path(scipy.__file__).parent / "linalg"
    for suffix in EXTENSION_SUFFIXES:
        path = directory / (name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"no extension module {name} ({', '.join(EXTENSION_SUFFIXES)}) "
                          f"in {directory}", name=qualname, path=str(directory))
    loader = ExtensionFileLoader(qualname, str(path))
    module = module_from_spec(spec_from_file_location(qualname, path, loader=loader))
    loader.exec_module(module)
    sys.modules[qualname] = module
    return module


_flapack = _scipy_linalg_extension("_flapack")
dgbtrf, dgbtrs, dlamch = _flapack.dgbtrf, _flapack.dgbtrs, _flapack.dlamch
dpbtrf, dsbevd, dsbevx = _flapack.dpbtrf, _flapack.dsbevd, _flapack.dsbevx
dstebz, dstevd = _flapack.dstebz, _flapack.dstevd
dsbmv = _scipy_linalg_extension("_fblas").dsbmv

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


def _band_eigh(h: BandMatrix, lowest: bool):
    """The lowest eigenvalue `w` (`lowest`, an array of one), or all
    eigenvalues `w` in ascending order and the eigenvectors `v` as columns,
    of a real symmetric band matrix. Raises `ValueError` on a non-finite
    entry and `LinAlgError` when a driver reports failure."""
    band = h.band
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    if h.dim == 1:
        # eigh_tridiagonal's shortcut, and what both band drivers return
        w = band[0, :1].copy()
        return w if lowest else (w, np.ones((1, 1)))
    if band.shape[0] == 2:
        d, e = band[0], band[1, :-1]
        if lowest:
            # index range 1..1, abstol 0
            m, w, _, _, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "E")
            _check(info, "dstebz")
            return w[:m]
        w, v, info = dstevd(d, e, compute_v=1)
        _check(info, "dstevd")
        return w, v
    if lowest:
        w, _, m, _, info = dsbevx(band, 0.0, 1.0, 1, 1, compute_v=0, range=2,
                                  lower=1, abstol=SBEVX_ABSTOL, mmax=1, overwrite_ab=0)
        _check(info, "dsbevx")
        return w[:m]
    w, v, info = dsbevd(band, compute_v=1, lower=1, overwrite_ab=0)
    _check(info, "dsbevd")
    return w, v


def band_ground_energy(h: BandMatrix) -> float:
    """Lowest eigenvalue of a real symmetric band matrix (bisection only)."""
    return float(_band_eigh(h, lowest=True)[0])


def band_ground_state(h: BandMatrix, energy: float | None = None) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a real symmetric band matrix, tridiagonal or
    wider, phase-fixed.

    The lowest eigenvalue E0 is `energy` when given (as `band_ground_energy`
    returned it for this matrix) or else bisected here. The vector comes from
    inverse iteration on the band itself (one LU factorisation, then a solve
    per step), which never forms the dense orthogonal factor of the band
    reduction; it stops once, after at least two solves,
    ||(H - E0) x|| <= RESIDUAL_EPS eps ||H||. The shift sits a few ulps below
    E0, so H - shift is never exactly singular (say, for a diagonal H).
    """
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


def band_moments(n: BandMatrix, vec: np.ndarray) -> tuple[float, float]:
    """Mean and variance of the observable `n`, a real symmetric band matrix,
    in the real unit vector `vec`, from one product n vec (dsbmv)."""
    n_vec = dsbmv(n.band.shape[0] - 1, 1.0, n.band, vec, lower=1)
    mean = float(vec @ n_vec)
    return mean, max(float(n_vec @ n_vec) - mean**2, 0.0)


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


def _definite(h: BandMatrix, shift: float) -> bool:
    """Whether h - shift is positive definite, that is whether every
    eigenvalue of h lies above `shift`: one band Cholesky factorisation,
    which stops at the first pivot that is not positive."""
    return dpbtrf(h.shifted(-shift).band, lower=1)[1] == 0


def _within(h: BandMatrix, energy: float, tol: float) -> bool:
    """Whether the lowest eigenvalue E of h lies within tol of `energy`,
    energy - tol < E <= energy + tol: h - (energy - tol) is positive definite
    and h - (energy + tol) is not. Both bounds are checked, because E may lie
    on either side of `energy`."""
    return _definite(h, energy - tol) and not _definite(h, energy + tol)


def converge_cutoff(
    frames: tuple[Callable[[FockCutoff], BandMatrix | None], ...], tol: float
) -> FrameCutoff:
    """Smallest tested cutoff whose ground energy shifts by < tol on doubling.

    Doubling sequence N_START, 2 N_START, ...; hard cap CUTOFF_HARD_CAP.
    Each of `frames` maps a cutoff to the band of one Hamiltonian in one
    frame, or to None at the cutoffs too small for that frame to converge,
    where it is not tried. The frames share the doubling loop: at each cutoff
    n they are tested in order, and the first whose energy converges is
    returned with its index and its ground energy E(n) at that cutoff.

    E(n) is bisected (`band_ground_energy`). Whether the doubled cutoff's
    lowest eigenvalue E(2n) lies within tol of E(n), on either side (doubling
    need not lower it: the effective band at n is not the leading block of
    its band at 2n), is decided by two Cholesky factorisations of H(2n)
    (`_within`), not by bisecting E(2n). E(2n) is bisected only when n fails,
    as the next cutoff's E(n), and the band H(2n) of a frame that fails is
    kept for it, so that each frame builds each cutoff once.
    """
    if not (isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    built: dict[int, BandMatrix] = {}  # each failed frame's H(2n), its next H(n)
    n = N_START
    while 2 * n <= CUTOFF_HARD_CAP:
        for frame, build in enumerate(frames):
            h = built.pop(frame) if frame in built else build(FockCutoff(n))
            if h is None:
                continue
            e_n = band_ground_energy(h)
            h_doubled = build(FockCutoff(2 * n))
            if _within(h_doubled, e_n, tol):
                return FrameCutoff(frame, FockCutoff(n), e_n)
            built[frame] = h_doubled
        n *= 2
    raise ConvergenceError(
        f"ground energy not converged to {tol} below cutoff {CUTOFF_HARD_CAP}"
    )
