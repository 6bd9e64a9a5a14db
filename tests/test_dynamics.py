"""Tests for branch evolution, the decoherence factor, and echo sweeps."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracle import (
    FIGURE_PROBE,
    ProbeParams,
    SpectralDecomposition,
    build_branch,
    build_rabi,
    decoherence_factor,
    echo_sweep,
    ground_state,
    number,
    operator_moments,
    pauli,
)
from rabicrit import variational
from rabicrit.analytic import short_time_le, variance
from rabicrit.dynamics import GROUND_STATES, decoherence_factor as band_decoherence_factor
from rabicrit.experiments import METHODS, SweepConfig, _point, run
from rabicrit.hamiltonians import RabiParams

C = 32


def _rabi_ground(lam, eta, cutoff=C):
    """The Rabi parameters and their dense ground vector at `cutoff`."""
    p = RabiParams(lam, eta)
    return p, ground_state(build_rabi(p, cutoff))[1]


def _photon_variance(vec, n_max):
    return operator_moments(vec, np.kron(np.eye(2), number(n_max)))[1]


def test_evolve_dimension_mismatch():
    d = SpectralDecomposition.of(pauli("x"))
    with pytest.raises(ValueError):
        d.evolved(np.array([1.0, 0.0, 0.0]), [1.0])
    with pytest.raises(ValueError):
        SpectralDecomposition.of(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):  # complex: the oracle evolves real matrices only
        SpectralDecomposition.of(pauli("y"))


def test_decoherence_factor_trivial_limits():
    times = np.linspace(0.0, 100.0, 26)
    # chi = 0: branches differ by a constant only
    p, vec = _rabi_ground(0.7, 50.0)
    probe0 = ProbeParams(0.0, 1.0)
    d = decoherence_factor(
        build_branch(p, probe0, "g", C), build_branch(p, probe0, "e", C), vec, times
    )
    assert np.abs(np.abs(d) ** 2 - 1.0).max() < 1e-12

    # g = 0: |0>|g> is an eigenstate of both branches
    p0, vec0 = _rabi_ground(0.0, 50.0)
    d = decoherence_factor(
        build_branch(p0, FIGURE_PROBE, "g", C), build_branch(p0, FIGURE_PROBE, "e", C),
        vec0, times,
    )
    assert np.abs(np.abs(d) ** 2 - 1.0).max() < 1e-12


def test_decoherence_factor_against_expm():
    # brute-force matrix-exponential oracle on a small problem
    cutoff = 20
    p = RabiParams(0.5, 30.0)
    _, vec = ground_state(build_rabi(p, cutoff))
    probe = ProbeParams(math.sqrt(5e-3), 1.0)
    hg = build_branch(p, probe, "g", cutoff)
    he = build_branch(p, probe, "e", cutoff)
    times = np.array([0.0, 1.3, 7.7, 23.0])
    for t, d in zip(times, decoherence_factor(hg, he, vec, times)):
        brute = np.vdot(expm(-1j * hg * t) @ vec, expm(-1j * he * t) @ vec)
        assert abs(d - brute) < 1e-10


def test_decoherence_factor_dim_mismatch():
    p, vec = _rabi_ground(0.5, 30.0)
    hg = build_branch(p, FIGURE_PROBE, "g", C)
    he = build_branch(p, FIGURE_PROBE, "e", 16)
    with pytest.raises(ValueError):
        decoherence_factor(hg, he, vec, [0.0, 1.0])


def test_short_time_law_in_domain():
    # quadratic-cumulant law holds while the echo is still in its initial decay
    p, vec = _rabi_ground(0.5, 5000.0)
    times = np.linspace(0.0, 5.0, 11)
    d = decoherence_factor(
        build_branch(p, FIGURE_PROBE, "g", C), build_branch(p, FIGURE_PROBE, "e", C),
        vec, times,
    )
    gauss = short_time_le(_photon_variance(vec, C), FIGURE_PROBE.chi, times)
    assert np.abs(np.abs(d) ** 2 - gauss).max() / np.abs(gauss).min() < 1e-2


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
