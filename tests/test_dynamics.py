"""Tests for branch evolution, the decoherence factor, and echo sweeps."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracle import (
    FIGURE_PROBE,
    DimensionMismatchError,
    ProbeParams,
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
from rabicrit import variational
from rabicrit.analytic import short_time_le, variance
from rabicrit.dynamics import GROUND_STATES, decoherence_factor as band_decoherence_factor
from rabicrit.experiments import METHODS, SweepConfig, _point, run
from rabicrit.hamiltonians import RabiParams

C = 32


def _rabi_ground(lam, eta, cutoff=C):
    p = RabiParams(lam, eta)
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
    probe0 = ProbeParams(0.0, 1.0)
    series = decoherence_factor(
        build_branch(p, probe0, "g", C), build_branch(p, probe0, "e", C), gs.state, times
    )
    assert np.abs(series.l_values - 1.0).max() < 1e-12

    # g = 0: |0>|g> is an eigenstate of both branches
    p0, gs0 = _rabi_ground(0.0, 50.0)
    series = decoherence_factor(
        build_branch(p0, FIGURE_PROBE, "g", C), build_branch(p0, FIGURE_PROBE, "e", C),
        gs0.state, times,
    )
    assert np.abs(series.l_values - 1.0).max() < 1e-12


def test_decoherence_factor_invariants():
    p, gs = _rabi_ground(0.8, 100.0)
    hg = build_branch(p, FIGURE_PROBE, "g", C)
    he = build_branch(p, FIGURE_PROBE, "e", C)
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
    cutoff = 20
    p = RabiParams(0.5, 30.0)
    gs = ground_state(build_rabi(p, cutoff))
    probe = ProbeParams(math.sqrt(5e-3), 1.0)
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
    hg = build_branch(p, FIGURE_PROBE, "g", C)
    he = build_branch(p, FIGURE_PROBE, "e", 16)
    with pytest.raises(DimensionMismatchError):
        decoherence_factor(hg, he, gs.state, [0.0, 1.0])


def test_short_time_law_in_domain():
    # quadratic-cumulant law holds while the echo is still in its initial decay
    p, gs = _rabi_ground(0.5, 5000.0)
    _, gamma = photon_moments(gs.state)
    times = np.linspace(0.0, 5.0, 11)
    series = decoherence_factor(
        build_branch(p, FIGURE_PROBE, "g", C), build_branch(p, FIGURE_PROBE, "e", C),
        gs.state, times,
    )
    gauss = short_time_le(gamma, FIGURE_PROBE.chi, times)
    assert np.abs(series.l_values - gauss).max() / np.abs(gauss).min() < 1e-2


def test_short_time_law_taylor_order():
    # |L_exact - exp(-4 gamma chi^2 t^2)| vanishes faster than chi^2 t^2
    p, gs = _rabi_ground(0.5, 5000.0)
    _, gamma = photon_moments(gs.state)
    hg = build_branch(p, FIGURE_PROBE, "g", C)
    he = build_branch(p, FIGURE_PROBE, "e", C)
    ts = np.array([0.8, 0.4, 0.2, 0.1])
    series = decoherence_factor(hg, he, gs.state, ts)
    ratios = np.abs(series.l_values - short_time_le(gamma, FIGURE_PROBE.chi, ts)) / (
        FIGURE_PROBE.chi**2 * ts**2
    )
    # the ratio itself must shrink with t (error is o(chi^2 t^2))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_probe_reduced_state():
    rho = probe_reduced_state(1.0)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    rho = probe_reduced_state(0.0)
    assert np.trace(rho @ rho).real == pytest.approx(0.5, abs=1e-12)
    rho = probe_reduced_state(0.5)
    ev = np.linalg.eigvalsh(rho)
    assert np.allclose(sorted(ev), [0.25, 0.75])
    assert np.trace(rho @ rho).real == pytest.approx((1 + 0.25) / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        probe_reduced_state(1.5)


@pytest.mark.parametrize("method", METHODS)
def test_sweep_lambda_zero(tmp_path, method):
    # no shortcut: at g = 0 the ground state |0>|g> is an eigenstate of both
    # branches, and every method gives L = 1 exactly; the exact and effective
    # methods solve it at the first cutoff, in the bare frame
    etas = [1.0, 100.0, 5000.0, 1e5]
    times = [float(t) for t in np.linspace(0.0, 100.0, 26)]
    points = run(SweepConfig("custom", [0.0], etas, times, 1e-3, [method], 1e-8), tmp_path)
    assert [pt.eta for pt in points] == etas
    for pt in points:
        p = RabiParams(0.0, pt.eta)
        assert pt.converged and pt.value == [1.0] * len(times), pt.eta
        if method in GROUND_STATES:
            assert (pt.cutoff, pt.frame) == (8, "bare")
            assert 0.0 <= GROUND_STATES[method](p, 1e-8).gamma < 1e-40
        else:
            assert (pt.cutoff, pt.frame) == ("", "")
            assert (variance(p)[1] if method == "analytic" else variational.solve(p).gamma_prime) == 0.0


def test_sweep_echo_is_each_methods_own_path(tmp_path):
    # a sweep point adds nothing to a method's path, bit for bit: the exact and
    # effective echoes are |D|^2 of the ground state the method table solves,
    # the closed forms the Gaussian law at their own variance, and every echo
    # is taken at the chi the point records, the config's (not at a probe's
    # g_s^2 / delta_s: sqrt(chi)^2 is not chi in floating point)
    cfg = SweepConfig("custom", [0.5, 0.95, 1.2], [1000.0], [0.0, 10.0, 60.0], 1e-3,
                      list(METHODS), 1e-8)
    points = run(cfg, tmp_path)
    assert len(points) == 12
    for pt in points:
        assert pt.chi == cfg.chi
        p = RabiParams(pt.lam, pt.eta)
        if pt.method in GROUND_STATES:
            gs = GROUND_STATES[pt.method](p, cfg.cutoff_tol)
            expected = np.abs(band_decoherence_factor(gs, cfg.chi, cfg.time_grid)) ** 2
        else:
            gamma = variance(p)[1] if pt.method == "analytic" else variational.solve(p).gamma_prime
            expected = short_time_le(gamma, cfg.chi, cfg.time_grid)
        assert pt.value == expected.tolist(), (pt.method, pt.lam)


@pytest.mark.parametrize("method", METHODS)
def test_sweep_point_in_critical_band(method):
    # within CRITICAL_BAND of lam = 1 the closed-form variance has no value,
    # and an analytic point there is degraded (a config asking for one is
    # rejected before the sweep); the other methods solve it
    lam = 1.0 + 1e-9
    cfg = SweepConfig("custom", [lam], [100.0], [0.0, 1.0], 1e-3, [method], 1e-8)
    pt = _point(cfg, 100.0, method, lam)
    if method == "analytic":
        assert not pt.converged and (pt.cutoff, pt.frame) == ("", "")
        assert all(map(math.isnan, pt.value))
    else:
        assert pt.converged and pt.value[0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < pt.value[1] < 1.0
        assert bool(pt.frame) == (method in GROUND_STATES)


@pytest.mark.parametrize("method", METHODS)
def test_sweep_rejects_unknown_method(tmp_path, method):
    # before any point is solved or the output directory made
    cfg = SweepConfig("custom", [0.5], [100.0], [0.0, 1.0], 1e-3, [method, "bogus"], 1e-8)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        run(cfg, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_sweep_exact_vs_effective_smoke():
    times = np.linspace(0.0, 30.0, 4)
    lams = [0.5, 1.2]
    ex = echo_sweep(2000.0, 1e-3, lams, times, "exact", cutoff_tol=1e-9)
    ef = echo_sweep(2000.0, 1e-3, lams, times, "effective", cutoff_tol=1e-9)
    assert np.abs(ex.l_matrix - ef.l_matrix).max() < 5e-3
    assert None not in ex.cutoffs + ef.cutoffs


def test_frame_invariance_random_displacement():
    from oracle import displacement, identity, tensor

    p, gs = _rabi_ground(0.7, 200.0, 80)
    cc = 80
    hg = build_branch(p, FIGURE_PROBE, "g", cc)
    he = build_branch(p, FIGURE_PROBE, "e", cc)
    times = np.linspace(0.0, 25.0, 6)
    base = decoherence_factor(hg, he, gs.state, times).l_values
    d = tensor(identity((2,)), displacement(0.35, cc))
    hg2 = Operator(d.mat.conj().T @ hg.mat @ d.mat, hg.dims)
    he2 = Operator(d.mat.conj().T @ he.mat @ d.mat, he.dims)
    g2 = QuantumState(d.mat.conj().T @ gs.state.vec, gs.state.dims)
    moved = decoherence_factor(hg2, he2, g2, times).l_values
    assert np.abs(moved - base).max() < 1e-9
