"""Tests for branch evolution, the decoherence factor, and echo sweeps."""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from oracle import (
    SpectralDecomposition,
    build_rabi,
    dense_echo,
    echo_sweep,
    ground_state,
    operator_moments,
    pauli,
    rabi_number,
)
from rabicrit import variational
from rabicrit.analytic import short_time_le, variance
from rabicrit.dynamics import GROUND_STATES, decoherence_factor as band_decoherence_factor
from rabicrit.experiments import METHODS, SweepConfig, _point, run
from rabicrit.hamiltonians import RabiParams

C = 32
CHI = 1e-3


def _rabi_ground(lam, eta, cutoff=C):
    """The Rabi parameters and their dense ground vector at `cutoff`."""
    p = RabiParams(lam, eta)
    return p, ground_state(build_rabi(p, cutoff))[1]


def test_evolve_dimension_mismatch():
    d = SpectralDecomposition.of(pauli("x"))
    with pytest.raises(ValueError):
        d.evolved(np.array([1.0, 0.0, 0.0]), [1.0])
    with pytest.raises(ValueError):
        SpectralDecomposition.of(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):  # complex: the oracle evolves real matrices only
        SpectralDecomposition.of(pauli("y"))


def test_decoherence_factor_trivial_limits():
    # chi = 0: both branches are H, and the echo stays 1
    times = np.linspace(0.0, 100.0, 26)
    p, vec = _rabi_ground(0.7, 50.0)
    d = dense_echo(build_rabi(p, C), rabi_number(C), vec, 0.0, times)
    assert np.abs(np.abs(d) ** 2 - 1.0).max() < 1e-12


def test_decoherence_factor_against_expm():
    # brute-force matrix-exponential oracle on a small problem: D itself, and
    # |D| with the probe's energy added at Delta_s = 1, -(1 + Delta_s)/2 on
    # the |g> branch and (1 + Delta_s)/2 + chi on the |e> one, which changes
    # only the phase of D (and so is left out of `dynamics.probe_branches`)
    cutoff = 20
    p = RabiParams(0.5, 30.0)
    h, n = build_rabi(p, cutoff), rabi_number(cutoff)
    _, vec = ground_state(h)
    chi, delta_s = 5e-3, 1.0
    h_g, h_e = h - chi * n, h + chi * n
    probe = 0.5 * (1.0 + delta_s) * np.eye(len(h))
    times = np.array([0.0, 1.3, 7.7, 23.0])
    for t, d in zip(times, dense_echo(h, n, vec, chi, times)):
        brute = np.vdot(expm(-1j * h_g * t) @ vec, expm(-1j * h_e * t) @ vec)
        assert abs(d - brute) < 1e-10
        brute = np.vdot(expm(-1j * (h_g - probe) * t) @ vec,
                        expm(-1j * (h_e + probe + chi * np.eye(len(h))) * t) @ vec)
        assert abs(abs(d) - abs(brute)) < 1e-10


def test_decoherence_factor_dim_mismatch():
    p, vec = _rabi_ground(0.5, 30.0)
    with pytest.raises(ValueError):  # a photon number at another cutoff
        dense_echo(build_rabi(p, C), rabi_number(16), vec, CHI, [0.0, 1.0])
    with pytest.raises(ValueError):  # a vector at another cutoff
        dense_echo(build_rabi(p, 16), rabi_number(16), vec, CHI, [0.0, 1.0])


def test_short_time_law_in_domain():
    # quadratic-cumulant law holds while the echo is still in its initial decay
    p, vec = _rabi_ground(0.5, 5000.0)
    times = np.linspace(0.0, 5.0, 11)
    d = dense_echo(build_rabi(p, C), rabi_number(C), vec, CHI, times)
    gauss = short_time_le(operator_moments(vec, rabi_number(C))[1], CHI, times)
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
            assert (pt.cutoff, pt.frame) == (None, None)
            assert (variance(p)[1] if method == "analytic" else variational.solve(p).gamma_prime) == 0.0


def test_sweep_echo_is_each_methods_own_path(tmp_path):
    # a sweep point adds nothing to a method's path, bit for bit: the exact and
    # effective echoes are |D|^2 of the ground state the method table solves,
    # the closed forms the Gaussian law at their own variance, and every echo
    # is taken at the chi the sweep records, the config's (not at a probe's
    # g_s^2 / delta_s: sqrt(chi)^2 is not chi in floating point)
    cfg = SweepConfig("custom", [0.5, 0.95, 1.2], [1000.0], [0.0, 10.0, 60.0], 1e-3,
                      list(METHODS), 1e-8)
    points = run(cfg, tmp_path)
    assert len(points) == 12
    recorded = tmp_path / "recorded.cfg"
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    recorded.write_text(report["provenance"]["config"], encoding="utf-8")
    assert SweepConfig.from_file(recorded).chi == cfg.chi
    for pt in points:
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
    # within CRITICAL_BAND of lam = 1 the closed-form variance has no value:
    # a config asking for an analytic point there is refused when it is
    # built; the other methods solve it
    lam = 1.0 + 1e-9
    settings = ("custom", [lam], [100.0], [0.0, 1.0], 1e-3, [method], 1e-8)
    if method == "analytic":
        with pytest.raises(ValueError, match="no analytic value"):
            SweepConfig(*settings)
    else:
        pt = _point(SweepConfig(*settings), 100.0, method, lam)
        assert pt.converged and pt.value[0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < pt.value[1] < 1.0
        assert bool(pt.frame) == (method in GROUND_STATES)


@pytest.mark.parametrize("method", METHODS)
def test_sweep_rejects_unknown_method(method):
    # when the config is built, so before any point is solved or the output
    # directory made
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        SweepConfig("custom", [0.5], [100.0], [0.0, 1.0], 1e-3, [method, "bogus"], 1e-8)


def test_sweep_exact_vs_effective_smoke():
    times = np.linspace(0.0, 30.0, 4)
    lams = [0.5, 1.2]
    ex = echo_sweep(2000.0, 1e-3, lams, times, "exact", cutoff_tol=1e-9)
    ef = echo_sweep(2000.0, 1e-3, lams, times, "effective", cutoff_tol=1e-9)
    assert np.abs(ex.l_matrix - ef.l_matrix).max() < 5e-3
    assert None not in ex.cutoffs + ef.cutoffs
