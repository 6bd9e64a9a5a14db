"""Tests for ground-state selection, photon statistics, parity, and cutoff
convergence."""

import math

import numpy as np
import pytest

from oracle import (
    LayoutError,
    Operator,
    QuantumState,
    build_rabi,
    converge_cutoff,
    converged_ground_state,
    ground_state,
    operator_moments,
    parity_operator,
    photon_moments,
    squeeze,
)
from rabicrit.errors import ConvergenceError
from rabicrit.hamiltonians import RabiParams
from rabicrit.hilbert import FockCutoff


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
    c = converge_cutoff(lambda cc: build_rabi(p, cc), 1e-12)
    assert c.n_max == 8


def test_converge_cutoff_self_consistent():
    p = RabiParams.from_dimensionless(0.99, 5000.0)
    c = converge_cutoff(lambda cc: build_rabi(p, cc), 1e-9)
    e1 = ground_state(build_rabi(p, c)).energy
    e2 = ground_state(build_rabi(p, FockCutoff(2 * c.n_max))).energy
    assert abs(e1 - e2) < 1e-9


def test_converge_cutoff_errors():
    p = RabiParams(1.0, 3.0, 0.0)
    with pytest.raises(ValueError):
        converge_cutoff(lambda cc: build_rabi(p, cc), 0.0)

    # synthetic never-converging family: ground energy drifts with the cutoff
    def drifting(cc):
        return Operator(np.diag([-float(cc.n_max), 1.0]), (2,))

    with pytest.raises(ConvergenceError):
        converge_cutoff(drifting, 1e-12)


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
