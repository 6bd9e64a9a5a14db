"""Tests for branch evolution, the decoherence factor, and echo sweeps."""

import numpy as np
import pytest
from scipy.linalg import expm

from oracle import (
    EchoSeries,
    Operator,
    QuantumState,
    SpectralDecomposition,
    build_branch,
    build_rabi,
    decoherence_factor,
    echo_sweep,
    evolve,
    ground_state,
    pauli,
    photon_moments,
    probe_reduced_state,
)
from rabicrit.analytic import short_time_le
from rabicrit import dynamics
from rabicrit.dynamics import echo_point
from rabicrit.errors import DimensionMismatchError, PhaseDomainError
from rabicrit.hamiltonians import ProbeParams, RabiParams, build_rabi_parity, photon_number_band
from rabicrit.hilbert import FockCutoff

C = FockCutoff(32)


def _rabi_ground(lam, eta, cutoff=C):
    p = RabiParams.from_dimensionless(lam, eta)
    return p, ground_state(build_rabi(p, cutoff))


def test_evolve_t0_and_eigenstate():
    p, gs = _rabi_ground(0.6, 50.0)
    d = SpectralDecomposition.of(build_rabi(p, C))
    psi = evolve(d, gs.state, 0.0)
    assert np.abs(psi.vec - gs.state.vec).max() < 1e-12
    psi = evolve(d, gs.state, 3.7)
    # ground state only picks up a phase
    overlap = np.vdot(gs.state.vec, psi.vec)
    assert abs(abs(overlap) - 1.0) < 1e-10
    assert abs(overlap - np.exp(-1j * gs.energy * 3.7)) < 1e-10


def test_evolve_rabi_flopping():
    d = SpectralDecomposition.of(pauli("x"))
    e = QuantumState(np.array([1.0, 0.0]))
    for t in (0.3, np.pi / 2, 1.9):
        psi = evolve(d, e, t)
        assert abs(np.vdot(e.vec, psi.vec)) == pytest.approx(abs(np.cos(t)), abs=1e-12)
        assert psi.norm() == pytest.approx(1.0, abs=1e-10)


def test_evolve_dimension_mismatch():
    d = SpectralDecomposition.of(pauli("x"))
    with pytest.raises(DimensionMismatchError):
        evolve(d, QuantumState(np.zeros(3) + [1, 0, 0]), 1.0)
    with pytest.raises(ValueError):
        SpectralDecomposition.of(Operator(np.array([[0, 1], [0, 0]]), (2,)))


def test_decoherence_factor_trivial_limits():
    times = np.linspace(0.0, 100.0, 26)
    # chi = 0: branches differ by a constant only
    p, gs = _rabi_ground(0.7, 50.0)
    probe0 = ProbeParams(2.0, 0.0, 1.0)
    series = decoherence_factor(
        build_branch(p, probe0, "g", C), build_branch(p, probe0, "e", C), gs.state, times
    )
    assert np.abs(series.l_values - 1.0).max() < 1e-12

    # g = 0: |0>|g> is an eigenstate of both branches
    p0, gs0 = _rabi_ground(0.0, 50.0)
    probe = ProbeParams.from_chi(1e-3)
    series = decoherence_factor(
        build_branch(p0, probe, "g", C), build_branch(p0, probe, "e", C), gs0.state, times
    )
    assert np.abs(series.l_values - 1.0).max() < 1e-12


def test_decoherence_factor_invariants():
    p, gs = _rabi_ground(0.8, 100.0)
    probe = ProbeParams.from_chi(1e-3)
    hg = build_branch(p, probe, "g", C)
    he = build_branch(p, probe, "e", C)
    times = np.linspace(0.0, 40.0, 21)
    series = decoherence_factor(hg, he, gs.state, times)
    assert isinstance(series, EchoSeries)
    assert series.l_values[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(series.l_values <= 1.0 + 1e-10)
    assert np.all(series.l_values >= 0.0)
    assert np.abs(series.l_values - np.abs(series.d_values) ** 2).max() < 1e-12

    # constant shifts change only the phase of D, never L
    shifted = decoherence_factor(
        hg + 0.37 * _identity_like(hg), he, gs.state, times
    )
    assert np.abs(shifted.l_values - series.l_values).max() < 1e-12


def _identity_like(op):
    return Operator(np.eye(op.dim), op.dims)


def test_decoherence_factor_against_expm():
    # brute-force matrix-exponential oracle on a small problem
    cutoff = FockCutoff(20)
    p = RabiParams.from_dimensionless(0.5, 30.0)
    gs = ground_state(build_rabi(p, cutoff))
    probe = ProbeParams.from_chi(5e-3)
    hg = build_branch(p, probe, "g", cutoff)
    he = build_branch(p, probe, "e", cutoff)
    times = np.array([0.0, 1.3, 7.7, 23.0])
    series = decoherence_factor(hg, he, gs.state, times)
    for t, d in zip(times, series.d_values):
        ug = expm(-1j * hg.mat * t)
        ue = expm(-1j * he.mat * t)
        brute = np.vdot(ug @ gs.state.vec, ue @ gs.state.vec)
        assert abs(d - brute) < 1e-10


def test_decoherence_factor_dim_mismatch():
    p, gs = _rabi_ground(0.5, 30.0)
    probe = ProbeParams.from_chi(1e-3)
    hg = build_branch(p, probe, "g", C)
    he = build_branch(p, probe, "e", FockCutoff(16))
    with pytest.raises(DimensionMismatchError):
        decoherence_factor(hg, he, gs.state, [0.0, 1.0])

    def branches(c):
        return dynamics.probe_branches(build_rabi_parity(p, c), photon_number_band(0.0, c, 1), probe)

    # the library's echo on band branches, the even parity chains
    (hg, _), (_, he) = branches(C), branches(FockCutoff(16))
    with pytest.raises(DimensionMismatchError):
        dynamics.decoherence_factor(hg, he, np.eye(C.dim)[0], [0.0, 1.0])


def test_short_time_law_in_domain():
    # quadratic-cumulant law holds while the echo is still in its initial decay
    p, gs = _rabi_ground(0.5, 5000.0)
    probe = ProbeParams.from_chi(1e-3)
    _, gamma = photon_moments(gs.state)
    times = np.linspace(0.0, 5.0, 11)
    series = decoherence_factor(
        build_branch(p, probe, "g", C), build_branch(p, probe, "e", C), gs.state, times
    )
    gauss = short_time_le(gamma, probe.chi, times)
    assert np.abs(series.l_values - gauss).max() / np.abs(gauss).min() < 1e-2


def test_short_time_law_taylor_order():
    # |L_exact - exp(-4 gamma chi^2 t^2)| vanishes faster than chi^2 t^2
    p, gs = _rabi_ground(0.5, 5000.0)
    probe = ProbeParams.from_chi(1e-3)
    _, gamma = photon_moments(gs.state)
    hg = build_branch(p, probe, "g", C)
    he = build_branch(p, probe, "e", C)
    ts = np.array([0.8, 0.4, 0.2, 0.1])
    series = decoherence_factor(hg, he, gs.state, ts)
    ratios = np.abs(series.l_values - short_time_le(gamma, probe.chi, ts)) / (
        probe.chi**2 * ts**2
    )
    # the ratio itself must shrink with t (error is o(chi^2 t^2))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_probe_reduced_state():
    probe = ProbeParams.from_chi(1e-3)
    rho = probe_reduced_state(probe, 1.0)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    rho = probe_reduced_state(probe, 0.0)
    assert np.trace(rho @ rho).real == pytest.approx(0.5, abs=1e-12)
    rho = probe_reduced_state(probe, 0.5)
    ev = np.linalg.eigvalsh(rho)
    assert np.allclose(sorted(ev), [0.25, 0.75])
    assert np.trace(rho @ rho).real == pytest.approx((1 + 0.25) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        probe_reduced_state(probe, 1.5)


def test_sweep_lambda_zero():
    # no shortcut: at g = 0 the ground state |0>|g> is an eigenstate of both
    # branches, and every method gives L = 1 exactly; the exact and effective
    # methods solve it at the first cutoff, in the bare frame
    probe = ProbeParams.from_chi(1e-3)
    times = np.linspace(0.0, 100.0, 26)
    for eta in (1.0, 100.0, 5000.0, 1e5):
        p = RabiParams.from_dimensionless(0.0, eta)
        for method in ("exact", "effective", "variational", "analytic"):
            point = echo_point(p, probe, times, method, 1e-8)
            assert np.all(point.l_values == 1.0), (eta, method)
            if method in ("exact", "effective"):
                assert (point.ground.cutoff.n_max, point.ground.frame) == (8, "bare")
                assert 0.0 <= point.gamma < 1e-40
            else:
                assert point.ground is None and point.gamma == 0.0


def test_sweep_guard_band_and_validation():
    probe = ProbeParams.from_chi(1e-3)
    with pytest.raises(PhaseDomainError):
        echo_point(RabiParams.from_dimensionless(1.0 + 1e-9, 100.0), probe, [0.0, 1.0],
                   "analytic", 1e-8)
    with pytest.raises(ValueError):
        echo_point(RabiParams.from_dimensionless(0.5, 100.0), probe, [0.0, 1.0], "bogus", 1e-8)


def test_sweep_exact_vs_effective_smoke():
    probe = ProbeParams.from_chi(1e-3)
    times = np.linspace(0.0, 30.0, 4)
    lams = [0.5, 1.2]
    ex = echo_sweep(2000.0, probe, lams, times, "exact", cutoff_tol=1e-9)
    ef = echo_sweep(2000.0, probe, lams, times, "effective", cutoff_tol=1e-9)
    assert np.abs(ex.l_matrix - ef.l_matrix).max() < 5e-3
    assert None not in ex.cutoffs + ef.cutoffs


def test_frame_invariance_random_displacement():
    from oracle import displacement, identity, tensor

    p, gs = _rabi_ground(0.7, 200.0, FockCutoff(80))
    probe = ProbeParams.from_chi(1e-3)
    cc = FockCutoff(80)
    hg = build_branch(p, probe, "g", cc)
    he = build_branch(p, probe, "e", cc)
    times = np.linspace(0.0, 25.0, 6)
    base = decoherence_factor(hg, he, gs.state, times).l_values
    d = tensor(identity((2,)), displacement(0.35, cc))
    hg2 = Operator(d.mat.conj().T @ hg.mat @ d.mat, hg.dims)
    he2 = Operator(d.mat.conj().T @ he.mat @ d.mat, he.dims)
    g2 = QuantumState(d.mat.conj().T @ gs.state.vec, gs.state.dims)
    moved = decoherence_factor(hg2, he2, g2, times).l_values
    assert np.abs(moved - base).max() < 1e-9
