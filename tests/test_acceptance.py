"""Acceptance suite: thirteen numbered criteria, one test (and one pass/fail
line in `pytest -v`) per criterion.

Regression-locked values were computed once with the stated oracle
(`oracle.dense_ground`: cutoff-doubling exact diagonalization at tolerance
1e-10) and then frozen.

The Gaussian short-time law L ~ exp(-4 gamma chi^2 t^2) is an expansion in
epsilon * t, with epsilon the ground-state excitation frequency
(omega_c sqrt(1 - lam^2) below the transition). Two criteria depend on it:
  * criterion 3 compares the law with the exact echo only where it holds:
    4 gamma chi^2 t^2 <= 1e-2 and epsilon * t <= 0.1. The relative error of
    1 - L grows like (epsilon t)^2 / 3 (squeezed-pair excitations at
    2 epsilon) on top of a fixed ~1.2e-3 from the spin-excited admixture in
    gamma; it is 4.4e-3 at epsilon t = 0.1 and 0.41 at epsilon t = 1. Beyond
    epsilon t ~ 1 the exact echo oscillates instead of decaying.
  * criterion 10 compares the fig5 methods like with like. 'exact' and
    'effective' are full time evolution and are compared as echoes;
    'variational' is the Gaussian law with its own variance, so it is
    compared with the same law at the exact variance, and its variance with
    the exact one. At omega_c t = 60 the grid has epsilon * t >= 11.9, so the
    full exact echo is outside the law's domain at every lambda.
"""

import time

import numpy as np
import pytest

from oracle import (
    ProbeParams,
    QuarticOscillator,
    analytic_ground_state,
    build_rabi,
    closed_form_x,
    dense_echo,
    dense_ground,
    displacement,
    echo_sweep,
    ground_state,
    max_rel_deviation,
    parity_operator,
    phase_of,
    rabi_number,
    stationarity,
    validate_dispersive,
)
from rabicrit.analytic import short_time_le, variance
from rabicrit.dynamics import (
    decoherence_factor as band_decoherence_factor,
    effective_ground_state,
    exact_ground_state,
)
from rabicrit.hamiltonians import RabiParams, phase
from rabicrit.spectra import CUTOFF_TOL
from rabicrit.variational import solve as variational_solve

TOL = 1e-10
CHI = 1e-3  # the figures' dispersive shift


def test_criterion_01_parity_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    c = 60
    pi = parity_operator(c)
    for _ in range(20):
        p = RabiParams(rng.uniform(0.0, 3.0), rng.uniform(0.5, 400.0))
        h = build_rabi(p, c)
        comm = pi @ h - h @ pi
        assert np.abs(comm).max() < 1e-10 * np.abs(h).max()
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_decoupled_limit():
    t0 = time.perf_counter()
    p = RabiParams(0.0, 50.0)
    c = 24
    h = build_rabi(p, c)
    energy, vec = ground_state(h)
    assert abs(energy + 0.5 * p.eta) < 1e-12
    d = dense_echo(h, rabi_number(c), vec, CHI, np.linspace(0.0, 100.0, 41))
    assert np.abs(np.abs(d) ** 2 - 1.0).max() < 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_short_time_law():
    # The law is an expansion in epsilon * t, so the window ends at
    # epsilon t = 0.1 (omega_c t ~ 0.12 here), far inside the decay cap
    # 4 gamma chi^2 t^2 <= 1e-2 (omega_c t ~ 490). The grid starts at
    # epsilon t = 0.01: nearer t = 0, 1 - L is so small (~1e-13) that the
    # roundoff in L alone can be a percent of it.
    t0 = time.perf_counter()
    p = RabiParams(0.5, 5000.0)
    gs = dense_ground(p, "exact", TOL)
    eps = analytic_ground_state(p).epsilon
    t_max = min(np.sqrt(1e-2 / (4.0 * gs.gamma * CHI**2)), 0.1 / eps)
    times = np.linspace(0.01 / eps, t_max, 60)
    echo = np.abs(dense_echo(gs.h, gs.n, gs.vector, CHI, times)) ** 2
    gauss = short_time_le(gs.gamma, CHI, times)
    rel = np.abs(echo - gauss) / (1.0 - echo + 1e-15)
    assert time.perf_counter() - t0 < 30.0
    assert rel.max() <= 1e-2, (
        f"max relative (1-L) deviation {rel.max():.3g} at omega_c t = "
        f"{times[int(np.argmax(rel))]:.3g}"
    )


def test_criterion_04_infinite_eta_convergence():
    t0 = time.perf_counter()
    rels = []
    for eta in (1e3, 1e4, 1e5):
        p = RabiParams(0.9, eta)
        gamma = dense_ground(p, "exact", TOL).gamma
        rels.append(abs(gamma - variance(p)[1]) / variance(p)[1])
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 0.02
    assert time.perf_counter() - t0 < 60.0


def test_criterion_05_variational_stationarity():
    t0 = time.perf_counter()
    for lam in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
        for eta in (1e3, 1e4, 1e5):
            p = RabiParams(lam, eta)
            sol = variational_solve(p)
            x, residual, curvature = stationarity(sol, p)
            assert residual < 1e-10
            assert curvature > 0.0
            xc = closed_form_x(phase_of(lam), lam, eta)
            assert abs(x - xc) <= 1e-10 * x
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_fig1_normal_phase_ground_state():
    t0 = time.perf_counter()
    lam = 0.99
    for eta in (1e4, 1e5):
        p = RabiParams(lam, eta)
        ex, ef = dense_ground(p, "exact", TOL), dense_ground(p, "effective", TOL)
        sol = variational_solve(p)
        energies = [ex.energy, ef.energy, sol.energy]
        assert (max(energies) - min(energies)) / abs(ex.energy) < 0.005
        ns = [ex.mean_n, ef.mean_n, sol.mean_n]
        assert (max(ns) - min(ns)) / ex.mean_n < 0.05
    # at eta = 1e3 only variational vs effective must agree (within 1%)
    p = RabiParams(lam, 1e3)
    ef = dense_ground(p, "effective", TOL)
    sol = variational_solve(p)
    assert abs(ef.energy - sol.energy) / abs(ef.energy) < 0.01
    assert abs(ef.mean_n - sol.mean_n) / ef.mean_n < 0.01
    # regression locks (first oracle run, cutoff tolerance 1e-10)
    p4 = RabiParams(lam, 1e4)
    lock = dense_ground(p4, "exact", TOL)
    assert lock.energy / p4.eta == pytest.approx(-0.5000428564, abs=1e-9)
    assert lock.mean_n == pytest.approx(1.2660554, rel=1e-6)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_07_fig2_superradiant_ground_state():
    t0 = time.perf_counter()
    lam = 1.01
    for eta in (1e4, 1e5):
        p = RabiParams(lam, eta)
        ex, ef = dense_ground(p, "exact", TOL), dense_ground(p, "effective", TOL)
        sol = variational_solve(p)
        energies = [ex.energy, ef.energy, sol.energy]
        assert (max(energies) - min(energies)) / abs(ex.energy) < 0.005
        ns = [ex.mean_n, ef.mean_n, sol.mean_n]
        assert (max(ns) - min(ns)) / ex.mean_n < 0.05
    p = RabiParams(lam, 1e3)
    ef = dense_ground(p, "effective", TOL)
    sol = variational_solve(p)
    assert abs(ef.energy - sol.energy) / abs(ef.energy) < 0.01
    assert abs(ef.mean_n - sol.mean_n) / ef.mean_n < 0.01
    # mean photon number dominated by the displacement at eta = 1e5
    p5 = RabiParams(lam, 1e5)
    ex5 = dense_ground(p5, "exact", TOL)
    assert 0.9 <= ex5.mean_n / phase(p5).alpha ** 2 <= 1.1
    # regression locks
    assert ex5.energy / p5.eta == pytest.approx(-0.5001030259, abs=1e-9)
    assert ex5.mean_n == pytest.approx(992.25849, rel=1e-6)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_fig4_eta_independence_and_revival():
    t0 = time.perf_counter()
    chi = 1e-3
    times = np.array([60.0])
    # normal phase: analytic L at t = 60 coincides for eta = 2000 vs 10000
    lams_np = np.round(np.arange(0.1, 0.951, 0.05), 10)
    curves = {}
    for eta in (2000.0, 10000.0):
        curves[eta] = echo_sweep(eta, chi, lams_np, times, "analytic").l_matrix[:, 0]
    assert np.abs(curves[2000.0] - curves[10000.0]).max() < 1e-3
    # superradiant revival peak strictly decreasing with eta
    lams_sp = np.round(np.arange(1.005, 1.5001, 0.005), 10)
    peaks = []
    for eta in (2000.0, 4000.0, 6000.0, 8000.0, 10000.0):
        l_vals = echo_sweep(eta, chi, lams_sp, times, "analytic").l_matrix[:, 0]
        peaks.append(l_vals.max())
    assert all(b < a for a, b in zip(peaks, peaks[1:])), peaks
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_fig3_criticality_signature():
    t0 = time.perf_counter()
    chi = 1e-3
    times = np.array([60.0])
    # the dip sharpens toward the critical point, so sample progressively
    # finer; the first range overshoots to 0.9995, which the second starts
    # at, so the grid is their sorted unique values
    fine = np.unique(np.round(np.concatenate(
        [np.arange(0.98, 0.9995, 0.0005), np.arange(0.9995, 1.0, 0.0001)]
    ), 10))
    fine = fine[np.abs(fine - 1.0) >= 1e-6]
    l_fine = echo_sweep(5000.0, chi, fine, times, "analytic").l_matrix[:, 0]
    assert l_fine.min() < 0.05, f"min analytic L on [0.98, 1) is {l_fine.min():.3g}"
    l_half = echo_sweep(5000.0, chi, [0.5], times, "analytic").l_matrix[0, 0]
    assert l_half > 0.9
    assert time.perf_counter() - t0 < 10.0


def test_criterion_10_fig5_three_method_consistency():
    # 'exact' and 'effective' are full time evolution and are compared as
    # echoes. 'variational' is the Gaussian law with its own variance; at
    # t = 60 every lambda here has epsilon t >= 11.9, outside the law's
    # domain, so it is compared with the same law at the exact variance.
    # Above the transition that law underflows to 0 for both, so the
    # variances themselves are compared too (5%, as criteria 6 and 7 allow
    # for <n>).
    t0 = time.perf_counter()
    chi = 1e-3
    lams = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 1.05, 1.1, 1.2, 1.3, 1.4, 1.5]
    times = np.array([60.0])
    sweeps = {
        m: echo_sweep(1e5, chi, lams, times, m, cutoff_tol=1e-8)
        for m in ("exact", "effective", "variational")
    }
    assert time.perf_counter() - t0 < 600.0
    curves = {m: s.l_matrix[:, 0] for m, s in sweeps.items()}
    dev_ex_ef = np.abs(curves["exact"] - curves["effective"]).max()
    assert dev_ex_ef <= 0.05, f"exact vs effective deviate by {dev_ex_ef:.3g}"
    params = [RabiParams(lam, 1e5) for lam in lams]
    gamma_ex = np.array([exact_ground_state(p, 1e-8).gamma for p in params])
    law_ex = np.array([short_time_le(g, chi, times[0]) for g in gamma_ex])
    dev_var = np.abs(curves["variational"] - law_ex)
    assert dev_var.max() <= 0.05, (
        f"variational vs Gaussian law at the exact gamma deviate by "
        f"{dev_var.max():.3g} (worst at lam = {lams[int(np.argmax(dev_var))]})"
    )
    gamma_var = np.array([variational_solve(p).gamma_prime for p in params])
    rel_gamma = np.abs(gamma_var - gamma_ex) / gamma_ex
    assert rel_gamma.max() <= 0.05, (
        f"variational vs exact gamma deviate by {rel_gamma.max():.3g} relative "
        f"(worst at lam = {lams[int(np.argmax(rel_gamma))]})"
    )


def test_criterion_11_dispersive_validity():
    t0 = time.perf_counter()
    p = RabiParams(0.5, 200.0)
    g_s, ratio = 0.05, 100.0
    delta_s = ratio * g_s
    probe = ProbeParams(g_s, delta_s)
    times = np.linspace(0.0, 20.0, 41)
    # the probe coherence of the tripartite evolution (the oracle's, dense)
    # against the library's own echo |D| at the probe's chi
    report = validate_dispersive(p, probe, times)
    predicted = np.abs(band_decoherence_factor(exact_ground_state(p, CUTOFF_TOL), probe.chi, times))
    deviation = max_rel_deviation(report.coherence, predicted)
    assert report.dispersive_regime
    assert deviation < 0.05
    # regression lock from the tripartite oracle run (measured ~2e-4)
    assert deviation < 1e-3
    assert time.perf_counter() - t0 < 120.0


def test_criterion_12_frame_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 30.0, 7)
    cutoff = 100
    n = rabi_number(cutoff)
    points = [
        (float(rng.uniform(0.1, 0.95)), float(rng.uniform(50.0, 500.0)))
        for _ in range(8)
    ] + [(1.2, 40.0), (1.3, 60.0)]
    for lam, eta in points:
        p = RabiParams(lam, eta)
        h = build_rabi(p, cutoff)
        _, vec = ground_state(h)
        base = np.abs(dense_echo(h, n, vec, CHI, times)) ** 2
        d = np.kron(np.eye(2), displacement(float(rng.uniform(-0.5, 0.5)), cutoff))
        moved = np.abs(dense_echo(d.T @ h @ d, d.T @ n @ d, d.T @ vec, CHI, times)) ** 2
        assert np.abs(moved - base).max() < 1e-9
    assert time.perf_counter() - t0 < 30.0


def test_criterion_13_critical_point_quartic_oscillator():
    # At lam = 1 the effective Hamiltonian is exactly eta^(-1/3)
    # [P^2/2 + Y^4/4] - 1/2 (oracle.QuarticOscillator), so the effective
    # gamma is the oscillator's Var(n), n = (eta^(1/3) Y^2 + eta^(-1/3) P^2)/2
    # - 1/2, up to the grid and the cutoff (measured 2.0e-6 and 1.5e-5
    # relative). The exact gamma / eta^(2/3) tends to Var(Y^2)/4 (measured
    # 1.4e-4 and 4.5e-5 relative). The effective gamma / eta^(2/3) carries the
    # cross term of n, -2.28 eta^(-2/3) relative (1.06e-3 at eta = 1e5), so it
    # is compared with Var(n), not with Var(Y^2)/4. At eta = 1e7 the cutoff the
    # energy criterion picks leaves the effective gamma 7.3e-5 off Var(n), so
    # larger eta waits for a cutoff search that watches gamma.
    t0 = time.perf_counter()
    osc = QuarticOscillator.solve()
    # E0 of p^2 + x^4 is 1.0603620905; P^2/2 + Y^4/4 is 2^(-4/3) times it
    assert osc.energy == pytest.approx(1.0603620905 * 2.0 ** (-4.0 / 3.0), abs=1e-6)
    assert osc.var_y2 / 4.0 == pytest.approx(0.0882569, abs=1e-7)
    # the grid's own error, against twice the points
    assert abs(osc.var_y2 - QuarticOscillator.solve(16000).var_y2) / 4.0 <= 6e-7
    for eta in (1e5, 1e6):
        p = RabiParams(1.0, eta)
        exact = exact_ground_state(p, CUTOFF_TOL)
        assert exact.gamma / eta ** (2.0 / 3.0) == pytest.approx(osc.var_y2 / 4.0, rel=1e-3)
        var_n = osc.number_variance(eta)
        assert effective_ground_state(p, CUTOFF_TOL).gamma == pytest.approx(var_n, rel=1e-4)
    assert time.perf_counter() - t0 < 10.0
