"""Tests for ground-state selection, photon statistics, parity, and cutoff
convergence.

The library's cutoff search (`spectra.converge_cutoff`) decides whether the
ground energy moved by less than tol on doubling by two Cholesky
factorisations of the doubled band; the oracle's (`energy_search`, and
`converge_cutoff` over dense builders) bisects both energies and compares
them. The tests below hold the two decisions equal.
"""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import (
    LayoutError,
    Operator,
    QuantumState,
    build_rabi,
    build_rabi_parity_chains,
    converge_cutoff,
    converged_ground_state,
    energy_search,
    ground_state,
    operator_moments,
    parity_operator,
    photon_moments,
    squeeze,
)
from rabicrit import dynamics, spectra
from rabicrit.errors import ConvergenceError
from rabicrit.experiments import critical_lambda_grid
from rabicrit.hamiltonians import RabiParams, build_rabi_parity
from rabicrit.hilbert import BandMatrix, FockCutoff


def test_ground_state_decoupled():
    p = RabiParams(1.0, 3.0, 0.0)
    gs = ground_state(build_rabi(p, FockCutoff(16)))
    assert gs.energy == pytest.approx(-1.5, abs=1e-12)
    expect = np.zeros(2 * 17)
    expect[17] = 1.0  # |g>|0>
    assert np.abs(gs.state.vec - expect).max() < 1e-12


def test_ground_state_small_diag():
    h = Operator(np.diag([3.0, 1.0, 2.0]), (3,))
    gs = ground_state(h)
    assert gs.energy == pytest.approx(1.0)
    assert np.abs(gs.state.vec - np.array([0, 1, 0])).max() < 1e-12


def test_ground_state_rejects_non_hermitian():
    with pytest.raises(ValueError):
        ground_state(Operator(np.array([[0, 1], [0, 0]]), (2,)))


def test_ground_state_phase_convention():
    # largest amplitude made real-positive regardless of eigensolver phase
    p = RabiParams.from_dimensionless(0.8, 20.0)
    gs = ground_state(build_rabi(p, FockCutoff(24)))
    k = np.argmax(np.abs(gs.state.vec))
    assert gs.state.vec[k].imag == pytest.approx(0.0, abs=1e-14)
    assert gs.state.vec[k].real > 0


def test_photon_moments_fock():
    vac = np.zeros(2 * 8)
    vac[8] = 1.0  # |g>|0>
    assert photon_moments(QuantumState(vac, (2, 8))) == (0.0, 0.0)
    f3 = np.zeros(8)
    f3[3] = 1.0
    assert photon_moments(QuantumState(f3, (8,))) == (3.0, 0.0)
    with pytest.raises(LayoutError):
        photon_moments(QuantumState(np.array([1.0, 0.0]), (2, 1)))


def test_photon_moments_squeezed_vacuum():
    c = FockCutoff(60)
    vac = np.zeros(c.dim)
    vac[0] = 1.0
    psi = QuantumState(squeeze(0.3, c).mat @ vac, (c.dim,))
    mean, gamma = photon_moments(psi)
    assert mean == pytest.approx(math.sinh(0.3) ** 2, abs=1e-8)
    assert gamma == pytest.approx(0.5 * math.sinh(0.6) ** 2, abs=1e-8)


def test_operator_moments_matches_photon_moments():
    p = RabiParams.from_dimensionless(0.9, 100.0)
    c = FockCutoff(40)
    gs = ground_state(build_rabi(p, c))
    from oracle import identity, number, tensor

    n_full = tensor(identity((2,)), number(c))
    m1, g1 = operator_moments(gs.state, n_full)
    m2, g2 = photon_moments(gs.state)
    assert m1 == pytest.approx(m2, abs=1e-10)
    assert g1 == pytest.approx(g2, abs=1e-10)


def test_parity_operator():
    c = FockCutoff(8)
    pi = parity_operator(c)
    assert np.allclose((pi @ pi).mat, np.eye(2 * c.dim))
    vac_g = np.zeros(2 * c.dim)
    vac_g[c.dim] = 1.0  # |g>|0>
    assert np.allclose(pi.mat @ vac_g, vac_g)  # +1 eigenstate
    vac_e = np.zeros(2 * c.dim)
    vac_e[0] = 1.0  # |e>|0>
    assert np.allclose(pi.mat @ vac_e, -vac_e)


def test_ground_state_definite_parity():
    pi = parity_operator(FockCutoff(48))
    for lam in (0.3, 0.8, 0.99):
        p = RabiParams.from_dimensionless(lam, 200.0)
        gs = ground_state(build_rabi(p, FockCutoff(48)))
        expect = np.vdot(gs.state.vec, pi.mat @ gs.state.vec)
        assert abs(expect) > 1.0 - 1e-8


def test_converge_cutoff_decoupled():
    p = RabiParams(1.0, 3.0, 0.0)
    found = spectra.converge_cutoff((partial(build_rabi_parity, p),), 1e-12)
    assert found.n_max == 8
    assert found.energy == -1.5
    assert converge_cutoff(lambda cc: build_rabi(p, cc), 1e-12) == found.cutoff


def test_converge_cutoff_self_consistent():
    # the library's cutoff on the even parity chain, checked by dense energies
    p = RabiParams.from_dimensionless(0.99, 5000.0)
    c = spectra.converge_cutoff((partial(build_rabi_parity, p),), 1e-9).cutoff
    e1 = ground_state(build_rabi(p, c)).energy
    e2 = ground_state(build_rabi(p, FockCutoff(2 * c.n_max))).energy
    assert abs(e1 - e2) < 1e-9
    assert converge_cutoff(lambda cc: build_rabi(p, cc), 1e-9) == c


def test_converge_cutoff_errors():
    p = RabiParams(1.0, 3.0, 0.0)
    for tol in (0.0, -1e-8, math.nan, math.inf):
        with pytest.raises(ValueError):
            spectra.converge_cutoff((partial(build_rabi_parity, p),), tol)
        with pytest.raises(ValueError):
            converge_cutoff(lambda cc: build_rabi(p, cc), tol)

    # synthetic never-converging family: ground energy drifts with the
    # cutoff, up to the cap, each cutoff built once
    built = []

    def drifting(cc):
        built.append(cc.n_max)
        return BandMatrix(np.array([[-float(cc.n_max), 1.0], [0.0, 0.0]]))

    with pytest.raises(ConvergenceError):
        spectra.converge_cutoff((drifting,), 1e-12)
    assert built == [spectra.N_START << k for k in range(10)]
    assert built[-1] == spectra.CUTOFF_HARD_CAP

    def drifting_dense(cc):
        return Operator(np.diag([-float(cc.n_max), 1.0]), (2,))

    with pytest.raises(ConvergenceError):
        converge_cutoff(drifting_dense, 1e-12)


@given(width=st.integers(1, 4), dim=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3.0, 8.0), offset=st.floats(-2.0, 2.0), tol=st.floats(-10.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_definiteness_decides_as_the_energy_comparison(width, dim, seed, scale, offset, tol):
    # `_within`, H - (e - tol) positive definite and H - (e + tol) not,
    # against |E - e| < tol with E bisected, on random bands of any norm, for
    # an e within two tolerances of E. Away from the boundary |E - e| = tol
    # they must agree: Cholesky succeeds or fails within a few eps ||H|| of E
    # (at most 3.2 eps ||H||_inf on 3,000 random bands), the bisection is as
    # accurate, and forming e -/+ tol rounds by eps (|e| + tol)
    rng = np.random.default_rng(seed)
    band = 10.0**scale * rng.standard_normal((width + 1, dim))
    h = BandMatrix(band)
    energy = spectra.band_ground_energy(h)
    row_max = np.abs(band).max(axis=1)
    norm = row_max[0] + 2.0 * row_max[1:].sum()  # ||H||_inf
    tol = 10.0**tol * norm
    e = energy + offset * tol
    margin = 16.0 * np.finfo(float).eps * (norm + abs(e) + tol)
    assume(abs(abs(energy - e) - tol) > margin)
    assert spectra._within(h, e, tol) == (abs(energy - e) < tol)


@pytest.mark.parametrize("method", ["exact", "effective"])
def test_cutoff_search_equals_the_energy_comparison(monkeypatch, method):
    # the method's own band builders, searched by both decisions: the same
    # frame, cutoff and bisected energy, bit for bit
    compared = []

    def both(frames, tol):
        found = spectra.converge_cutoff(frames, tol)
        compared.append((found, energy_search(frames, tol)))
        return found

    monkeypatch.setattr(dynamics, "converge_cutoff", both)
    for eta in (1e3, 1e5, 1e7):
        for lam in (0.5, 0.99, 0.9999, 1.0, 1.001, 1.01, 1.05, 1.3):
            compared.clear()
            dynamics.GROUND_STATES[method](RabiParams.from_dimensionless(lam, eta), 1e-8)
            ((found, reference),) = compared
            assert found == reference, (lam, eta)


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
        dims.append(h.dim)
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
        dynamics.GROUND_STATES[method](RabiParams.from_dimensionless(lam, eta), 1e-8)
        ((frames, found),) = searches
        doubled = frames[found.frame](FockCutoff(2 * found.n_max)).dim
        assert dims and max(dims) < doubled, (lam, eta, max(dims), doubled)


def test_even_chain_search_equals_the_two_chain_search(monkeypatch):
    # the bare frame is the even parity chain alone; searched over both
    # parity chains, as a dense solve sees the Rabi Hamiltonian, with the
    # same alpha_lambda^2 gate, it must pick the same frame and cutoff (or
    # reach the cap too), its energy equal to roundoff
    compared = []

    def capped(frames, tol):
        try:
            return spectra.converge_cutoff(frames, tol)
        except ConvergenceError:
            return None

    def both(frames, tol):
        chains = lambda c: None if frames[0](c) is None else build_rabi_parity_chains(p, c)
        compared.append((capped(frames, tol), capped((chains, *frames[1:]), tol)))
        return spectra.converge_cutoff(frames, tol)

    monkeypatch.setattr(dynamics, "converge_cutoff", both)
    lams = sorted(set(critical_lambda_grid()) | {0.3, 0.9999, 1.0, 1.0005, 1.001, 1.005, 2.0, 3.0})
    for eta in (1.0, 10.0, 50.0, 200.0, 1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 1e6, 1e7):
        for lam in lams:
            p = RabiParams.from_dimensionless(lam, eta)
            compared.clear()
            try:
                dynamics.exact_ground_state(p, 1e-8)
            except ConvergenceError:
                pass
            ((even, chains),) = compared
            assert (even is None) == (chains is None), (lam, eta)
            if even is not None:
                assert (even.frame, even.cutoff) == (chains.frame, chains.cutoff), (lam, eta)
                assert even.energy == pytest.approx(chains.energy, rel=1e-14, abs=0.0), (lam, eta)


@pytest.mark.parametrize("lam, eta", [(0.5, 1e3), (0.99, 1e5), (0.9999, 1e6)])
def test_bare_frame_bisects_once_per_tried_cutoff(monkeypatch, lam, eta):
    # the bare frame is one band, the even chain of dimension n + 1: the
    # search bisects it once at each cutoff n it tries, and the solve runs
    # inverse iteration at the last of those energies without bisecting again
    calls = []
    eigh = spectra._band_eigh

    def counted(h, lowest):
        calls.append((h.dim, lowest))
        return eigh(h, lowest)

    monkeypatch.setattr(spectra, "_band_eigh", counted)
    gs = dynamics.exact_ground_state(RabiParams.from_dimensionless(lam, eta), 1e-8)
    assert gs.frame == "bare"
    tried = [n for n in (spectra.N_START << k for k in range(10)) if n <= gs.cutoff.n_max]
    assert tried[-1] == gs.cutoff.n_max
    assert calls == [(n + 1, True) for n in tried]


def test_ground_energy_monotone_in_cutoff():
    # variational property of truncation: energy non-increasing as n_max grows
    p = RabiParams.from_dimensionless(0.95, 500.0)
    energies = [
        ground_state(build_rabi(p, FockCutoff(n))).energy for n in (8, 16, 32, 64)
    ]
    assert all(b <= a + 1e-13 for a, b in zip(energies, energies[1:]))


def test_converged_ground_state_records_drift():
    p = RabiParams.from_dimensionless(0.9, 100.0)
    res = converged_ground_state(lambda cc: build_rabi(p, cc), 1e-10)
    assert res.converged
    assert res.energy_drift < 1e-10
    assert res.state.norm() == pytest.approx(1.0, abs=1e-12)
