"""Tests for ground-state selection, photon statistics, parity, and cutoff
convergence.

The library's cutoff search (`spectra.converge_cutoff`) decides whether the
ground energy moved by less than tol on doubling by two Cholesky
factorisations of the doubled band; the oracle's (`energy_search`, over dense
or band builders) bisects both energies and compares them. The tests below
hold the two decisions equal.
"""

import dataclasses
import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest

from oracle import (
    SpectralDecomposition,
    build_effective_np_band,
    build_rabi,
    build_rabi_parity_chains,
    dense_ground,
    displacement,
    energy_search,
    ground_state,
    number,
    operator_moments,
    squeeze,
)
from rabicrit import dynamics, spectra
from rabicrit.dynamics import Frame
from rabicrit.errors import ConvergenceError
from rabicrit.experiments import critical_lambda_grid
from rabicrit.hamiltonians import (
    RabiParams,
    _quartic_band,
    build_displaced_rabi_band,
    build_rabi_parity,
    phase,
    photon_number_band,
)


def test_ground_state_decoupled():
    p = RabiParams(0.0, 3.0)
    energy, vec = ground_state(build_rabi(p, 16))
    assert energy == pytest.approx(-1.5, abs=1e-12)
    expect = np.zeros(2 * 17)
    expect[17] = 1.0  # |g>|0>
    assert np.abs(vec - expect).max() < 1e-12


def test_ground_state_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a square array is dense: a band stored square (half-width 4 at n_max = 4)
    # fails the symmetry guard, in every dense entry point, instead of solving
    # as the wrong matrix
    band = build_effective_np_band(RabiParams(0.5, 100.0), 4)
    assert band.shape == (5, 5)
    for solve in (ground_state, SpectralDecomposition.of,
                  lambda h: energy_search((lambda c: h,), 1e-8)):
        with pytest.raises(ValueError, match="real symmetric"):
            solve(band)


def test_photon_moments_squeezed_vacuum():
    c = 60
    vac = np.zeros(c + 1)
    vac[0] = 1.0
    mean, gamma = operator_moments(squeeze(0.3, c) @ vac, number(c))
    assert mean == pytest.approx(math.sinh(0.3) ** 2, abs=1e-8)
    assert gamma == pytest.approx(0.5 * math.sinh(0.6) ** 2, abs=1e-8)


def test_oracle_unitaries_warn_below_their_cutoff():
    # each warns one level below its threshold and not at it, where any
    # warning is an error: alpha^2 + 6 |alpha| is 7 at alpha = 1, and
    # 10 sinh^2 r + 20 is exactly 30 at sinh r = 1
    r = math.asinh(1.0)
    assert 10.0 * math.sinh(r) ** 2 + 20.0 == 30.0
    for unitary, arg, level in ((displacement, 1.0, 7), (squeeze, r, 30)):
        with pytest.warns(UserWarning, match="too small"):
            unitary(arg, level - 1)
        unitary(arg, level)


def _moments_40_digits(n: np.ndarray, vec: np.ndarray):
    """Mean and variance of the band observable `n` in `vec` (normalised here),
    in 40-digit arithmetic from the float entries of both."""
    with mp.workdps(40):
        v = [mp.mpf(float(x)) for x in vec]
        nv = [mp.mpf(0)] * len(v)
        for k in range(n.shape[0]):
            for j in range(len(v) - k):
                entry = mp.mpf(float(n[k, j]))
                nv[j + k] += entry * v[j]
                if k:
                    nv[j] += entry * v[j + k]
        norm2 = mp.fsum(x * x for x in v)
        mean = mp.fsum(x * y for x, y in zip(v, nv)) / norm2
        return mean, mp.fsum((y - mean * x) ** 2 for x, y in zip(v, nv)) / norm2


@pytest.mark.parametrize("method, lam, eta", [
    ("effective", 3.0, 1e8),   # mean_n 2.2e8 at cutoff 8
    ("exact", 1.1, 1e8),       # mean_n 9.6e6 at cutoff 1024
])
def test_photon_number_variance_without_cancellation(method, lam, eta):
    # at large displacement <N>^2 dwarfs Var(N): <N v, N v> - <N>^2 lost up to
    # 8 digits here (6.1e-8 relative for the effective method, the variance
    # quantised to multiples of 16), the centred residual none
    gs = dynamics.GROUND_STATES[method](RabiParams(lam, eta), 1e-8)
    mean, var = _moments_40_digits(gs.n, gs.vector)
    assert abs(gs.gamma - var) <= 1e-12 * var, (gs.gamma, mp.nstr(var, 20))
    assert abs(gs.mean_n - mean) <= 1e-14 * mean


def test_dense_photon_number_variance_without_cancellation():
    # the oracle's moments, on the dense effective ground state at lam = 3,
    # eta = 1e8 (cutoff 8, the library's): <N v, N v> - <N>^2 gives
    # 223606776.0, 9.7e-8 off; the centred residual agrees with
    # `band_moments` on the same vector
    p = RabiParams(3.0, 1e8)
    gs = dense_ground(p, "effective", 1e-10)
    assert gs.n_max == 8
    vec = gs.vector
    n = photon_number_band(gs.alpha, gs.n_max, 1)
    mean, var = spectra.band_moments(n, vec)
    assert gs.gamma == pytest.approx(var, rel=1e-12, abs=0.0)
    assert gs.mean_n == pytest.approx(mean, rel=1e-14, abs=0.0)
    assert abs(gs.gamma - _moments_40_digits(n, vec)[1]) <= 1e-12 * var


def _shared_bands():
    """A tridiagonal band (the even parity chain), a wider one (the displaced
    band, half-width 3), and the effective method's even block, a strided
    view of its full band, with that full band."""
    p = RabiParams(1.2, 50.0)
    ph = phase(p)
    full = _quartic_band(ph.c2, ph.c4, 16)
    return {
        "tridiagonal": (build_rabi_parity(p, 16), photon_number_band(0.0, 16, 1)),
        "displaced": (build_displaced_rabi_band(p, ph.alpha, 16),
                      photon_number_band(ph.alpha, 16, 2)),
        "even_block": (full[0::2, 0::2], photon_number_band(0.0, 16, 1)[0::2, 0::2]),
    }, full


@pytest.mark.parametrize("which", ["tridiagonal", "displaced", "even_block"])
def test_no_entry_point_writes_into_its_band(which):
    # a band is a plain array, and some are shared: the effective method's
    # even block is a strided view of the band its branches use,
    # `converge_cutoff` keeps a failed frame's H(2n) as the next H(n), and
    # `band_ground_state` and `probe_branches` both read `FrameCutoff.band`.
    # Every entry point leaves the arrays it is given bit-identical
    bands, full = _shared_bands()
    h, n = bands[which]
    inputs = (h, n, full)
    before = [a.copy() for a in inputs]
    energy = spectra.band_ground_energy(h)
    vec = spectra.band_ground_state(h, energy)
    vec_before = vec.copy()
    calls = {
        "_band_eigh lowest": lambda: spectra._band_eigh(h, lowest=True),
        "_band_eigh all": lambda: spectra._band_eigh(h, lowest=False),
        "band_spectrum": lambda: spectra.band_spectrum(h),
        "band_ground_state": lambda: spectra.band_ground_state(h, energy),
        "_within": lambda: spectra._within(h, energy, 1e-8),
        "_within below": lambda: spectra._within(h, energy - 1.0, 1e-8),
        "band_moments": lambda: spectra.band_moments(n, vec),
        "converge_cutoff": lambda: spectra.converge_cutoff((Frame(0.0, 1, 0.0, lambda c: h),), 1e-8),
        # an even frame searches the even block of the full band it is given
        "converge_cutoff even": lambda: spectra.converge_cutoff(
            (Frame(1.0, 1, 0.0, lambda c: full, True),), 1e-8),
    }
    for name, call in calls.items():
        call()
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes(), name
        assert vec.tobytes() == vec_before.tobytes(), name


def _bare(build):
    """A bare frame (no displacement, one spin state per photon number, no
    smallest cutoff) of the band builder `build`."""
    return Frame(0.0, 1, 0.0, build)


def _searched(frame):
    """The band the cutoff search bisects in `frame` at each cutoff, as an
    oracle builder: None below the frame's smallest cutoff."""
    return lambda c: None if c < frame.n_min else frame.block(frame.h(c))


def test_converge_cutoff_decoupled():
    p = RabiParams(0.0, 3.0)
    found = spectra.converge_cutoff((_bare(partial(build_rabi_parity, p)),), 1e-12)
    assert found.n_max == 8
    assert found.energy == -1.5
    assert energy_search((partial(build_rabi, p),), 1e-12).n_max == found.n_max


def test_converge_cutoff_self_consistent():
    # the library's cutoff on the even parity chain, checked by dense energies
    p = RabiParams(0.99, 5000.0)
    c = spectra.converge_cutoff((_bare(partial(build_rabi_parity, p)),), 1e-9).n_max
    e1, _ = ground_state(build_rabi(p, c))
    e2, _ = ground_state(build_rabi(p, 2 * c))
    assert abs(e1 - e2) < 1e-9
    assert energy_search((partial(build_rabi, p),), 1e-9).n_max == c


def test_converge_cutoff_errors():
    p = RabiParams(0.0, 3.0)
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError):
            spectra.converge_cutoff((_bare(partial(build_rabi_parity, p)),), tol)
        with pytest.raises(ValueError):
            energy_search((partial(build_rabi, p),), tol)

    # synthetic never-converging family: ground energy drifts with the
    # cutoff, up to the cap, each cutoff built once
    built = []

    def drifting(n_max):
        built.append(n_max)
        return np.array([[-float(n_max), 1.0], [0.0, 0.0]])

    with pytest.raises(ConvergenceError):
        spectra.converge_cutoff((_bare(drifting),), 1e-12)
    assert built == [spectra.N_START << k for k in range(10)]
    assert built[-1] == spectra.CUTOFF_HARD_CAP

    def drifting_dense(n_max):
        return np.diag([-float(n_max), 1.0])

    with pytest.raises(ConvergenceError):
        energy_search((drifting_dense,), 1e-12)


def test_definiteness_decides_as_the_energy_comparison():
    # `_within`, H - (e - tol) positive definite and H - (e + tol) not,
    # against |E - e| < tol with E bisected, on random bands of any norm, for
    # an e within two tolerances of E. Away from the boundary |E - e| = tol
    # they must agree: Cholesky succeeds or fails within a few eps ||H|| of E
    # (at most 3.2 eps ||H||_inf on 3,000 random bands), the bisection is as
    # accurate, and forming e -/+ tol rounds by eps (|e| + tol)
    kept = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        width, dim = rng.integers(1, 5), rng.integers(2, 61)
        scale, offset, log_tol = rng.uniform((-3.0, -2.0, -10.0), (8.0, 2.0, 0.0))
        band = 10.0**scale * rng.standard_normal((width + 1, dim))
        energy = spectra.band_ground_energy(band)
        row_max = np.abs(band).max(axis=1)
        norm = row_max[0] + 2.0 * row_max[1:].sum()  # ||H||_inf
        tol = 10.0**log_tol * norm
        e = energy + offset * tol
        margin = 16.0 * np.finfo(float).eps * (norm + abs(e) + tol)
        if abs(abs(energy - e) - tol) > margin:
            kept += 1
            assert spectra._within(band, e, tol) == (abs(energy - e) < tol), seed
    assert kept >= 290  # 300 at these seeds


@pytest.mark.parametrize("method", ["exact", "effective"])
def test_cutoff_search_equals_the_energy_comparison(monkeypatch, method):
    # the method's own frames, searched by both decisions: the same frame
    # (by its position in the method's frames), cutoff, bisected energy and
    # searched band, bit for bit
    compared = []

    def both(frames, tol):
        found = spectra.converge_cutoff(frames, tol)
        reference = energy_search(tuple(map(_searched, frames)), tol)
        compared.append((frames.index(found.frame), found, reference))
        return found

    monkeypatch.setattr(dynamics, "converge_cutoff", both)
    for eta in (1e3, 1e5, 1e7):
        for lam in (0.5, 0.99, 0.9999, 1.0, 1.001, 1.01, 1.05, 1.3):
            compared.clear()
            dynamics.GROUND_STATES[method](RabiParams(lam, eta), 1e-8)
            ((position, found, reference),) = compared
            assert (position, found.n_max, found.energy) == reference[:3], (lam, eta)
            assert np.array_equal(found.frame.block(found.band), reference.matrix), (lam, eta)


@pytest.mark.parametrize("method, points", [
    ("exact", [(0.5, 1e3), (0.99, 1e5), (1.005, 5000.0), (1.05, 500.0), (1.05, 1e5)]),
    ("effective", [(0.5, 1e3), (0.99, 1e5), (1.05, 1e5)]),
])
def test_no_eigensolve_at_the_doubled_cutoff(monkeypatch, method, points):
    # the accepted cutoff's doubled band is only factorised: every eigensolve
    # of the ground-state path is smaller. At lam = 1.05, eta = 500 the
    # displaced frame is accepted at a cutoff where the bare chains, of the
    # same doubled dimension, are built too
    dims, searches = [], []
    eigh = spectra._band_eigh

    def counted(h, lowest):
        dims.append(h.shape[1])
        return eigh(h, lowest)

    def search(frames, tol):
        found = spectra.converge_cutoff(frames, tol)
        searches.append((frames, found))
        return found

    monkeypatch.setattr(spectra, "_band_eigh", counted)
    monkeypatch.setattr(dynamics, "converge_cutoff", search)
    for lam, eta in points:
        dims.clear()
        searches.clear()
        dynamics.GROUND_STATES[method](RabiParams(lam, eta), 1e-8)
        ((frames, found),) = searches
        doubled = found.frame.block(found.frame.h(2 * found.n_max)).shape[1]
        assert dims and max(dims) < doubled, (lam, eta, max(dims), doubled)


def test_even_chain_search_equals_the_two_chain_search(monkeypatch):
    # the bare frame is the even parity chain alone; searched over both
    # parity chains, as a dense solve sees the Rabi Hamiltonian, with the
    # same alpha^2 gate (`Frame.n_min`), it must pick the same frame and
    # cutoff (or reach the cap too), its energy equal to roundoff
    compared = []

    def capped(frames, tol):
        try:
            return spectra.converge_cutoff(frames, tol)
        except ConvergenceError:
            return None

    def both(frames, tol):
        chains = dataclasses.replace(frames[0], band=partial(build_rabi_parity_chains, p))
        compared.append((capped(frames, tol), capped((chains, *frames[1:]), tol)))
        return spectra.converge_cutoff(frames, tol)

    monkeypatch.setattr(dynamics, "converge_cutoff", both)
    lams = sorted(set(critical_lambda_grid()) | {0.3, 0.9999, 1.0, 1.0005, 1.001, 1.005, 2.0, 3.0})
    for eta in (1.0, 10.0, 50.0, 200.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 1e6, 1e7):
        for lam in lams:
            p = RabiParams(lam, eta)
            compared.clear()
            try:
                dynamics.exact_ground_state(p, 1e-8)
            except ConvergenceError:
                pass
            ((even, chains),) = compared
            assert (even is None) == (chains is None), (lam, eta)
            if even is not None:
                assert (even.frame.name, even.n_max) == (chains.frame.name, chains.n_max), (lam, eta)
                assert even.energy == pytest.approx(chains.energy, rel=1e-14, abs=0.0), (lam, eta)


@pytest.mark.parametrize("lam, eta", [(0.5, 1e3), (0.99, 1e5), (0.9999, 1e6)])
def test_bare_frame_bisects_once_per_tried_cutoff(monkeypatch, lam, eta):
    # the bare frame is one band, the even chain of dimension n + 1: the
    # search bisects it once at each cutoff n it tries, and the solve runs
    # inverse iteration at the last of those energies without bisecting again
    calls = []
    eigh = spectra._band_eigh

    def counted(h, lowest):
        calls.append((h.shape[1], lowest))
        return eigh(h, lowest)

    monkeypatch.setattr(spectra, "_band_eigh", counted)
    gs = dynamics.exact_ground_state(RabiParams(lam, eta), 1e-8)
    assert gs.frame.name == "bare"
    tried = [n for n in (spectra.N_START << k for k in range(10)) if n <= gs.n_max]
    assert tried[-1] == gs.n_max
    assert calls == [(n + 1, True) for n in tried]
