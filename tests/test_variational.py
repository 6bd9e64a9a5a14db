"""Tests for the finite-frequency-ratio variational ground states."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from oracle import (
    DUAL_PATH_RTOL,
    NORMAL,
    SUPERRADIANT,
    closed_form_x,
    squeezing_np,
    stationarity,
    superradiant_frame,
)
from rabicrit.analytic import short_time_le, variance
from rabicrit.cli import main
from rabicrit.errors import PhaseDomainError
from rabicrit.experiments import SweepConfig, critical_lambda_grid, run
from rabicrit.hamiltonians import RabiParams, phase
from rabicrit.variational import _cubic_coeffs, _squeezing, solve


def test_decoupled_limit():
    p = RabiParams(0.0, 100.0)
    sol = solve(p)
    assert sol.phase == NORMAL
    assert sol.s == pytest.approx(0.0, abs=1e-12)
    assert sol.energy == pytest.approx(-0.5 * p.eta, abs=1e-10)
    assert sol.mean_n == pytest.approx(0.0, abs=1e-12)
    assert sol.gamma_prime == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
@pytest.mark.parametrize("eta", [1e3, 1e4, 1e5])
def test_stationarity_grid(lam, eta):
    p = RabiParams(lam, eta)
    sol = solve(p)
    x, residual, curvature = stationarity(sol, p)
    assert residual < 1e-10
    assert curvature > 0.0
    # dual-path agreement between Newton's and the closed-form root
    x_closed = closed_form_x(sol.phase, lam, eta)
    assert abs(x - x_closed) <= 1e-10 * x


def test_newton_root_matches_closed_form():
    # dual path: Newton's root of the stationarity cubic against the published
    # closed form, on the figures' lambda grid plus 2 and 3 and the decoupled
    # limit, at eta = 1, 10, ..., 1e8; the root alone, because at eta = 1 the
    # ansatz's moments are negative and `solve` raises
    lams = [0.0] + critical_lambda_grid() + [2.0, 3.0]
    for eta in 10.0 ** np.arange(9):
        for lam in lams:
            name = NORMAL if lam < 1.0 else SUPERRADIANT
            s = _squeezing(*_cubic_coeffs(phase(RabiParams(lam, eta))))
            x = math.exp(2.0 * s)
            x_closed = closed_form_x(name, lam, eta)
            assert abs(x_closed - x) <= DUAL_PATH_RTOL * x, (lam, eta, x, x_closed)


def test_normal_limit_to_closed_form():
    # s -> r_np as eta -> infinity, at ~1/eta rate
    lam = 0.99
    r_inf = squeezing_np(lam)
    gaps = []
    for eta in (1e3, 1e4, 1e5):
        sol = solve(RabiParams(lam, eta))
        gaps.append(abs(sol.s - r_inf))
    assert 5.0 < gaps[0] / gaps[1] < 20.0
    exponent = -np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(gaps), 1)[0]
    assert 0.8 <= exponent <= 1.2


def test_superradiant_limit_to_closed_form():
    lam = 1.2
    _, r_inf = superradiant_frame(RabiParams(lam, 1e3))
    gaps = [
        abs(solve(RabiParams(lam, eta)).s - r_inf)
        for eta in (1e3, 1e4, 1e5)
    ]
    exponent = -np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(gaps), 1)[0]
    assert 0.8 <= exponent <= 1.2


def test_gamma_prime_limit():
    # finite-eta variance approaches the closed form (correction ~ 1/eta^2)
    lam = 0.9
    p = RabiParams(lam, 1e5)
    sol = solve(p)
    assert sol.gamma_prime == pytest.approx(variance(p)[1], rel=1e-3)


def test_gamma_prime_negative_clamped_not_fatal(tmp_path):
    # at eta = 1 the finite-eta correction outweighs the leading terms: the
    # variance comes out negative (-0.077). Clamped at 0 it would give a flat
    # echo, L = 1, so `solve` raises instead, as the Gaussian law does on a
    # negative variance, and a sweep records the point as degraded
    # (converged=false, NaN values, exit status 1) and goes on
    with pytest.raises(PhaseDomainError, match="variance -0.077"):
        solve(RabiParams(0.9, 1.0))
    with pytest.raises(PhaseDomainError, match="variance"):
        short_time_le(-0.077, 1e-3, [0.0, 10.0, 60.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        solve(RabiParams(0.5, 1.0)).gamma_prime = 0.0

    cfg = SweepConfig("custom", [0.5, 0.9], [1.0], [0.0, 60.0], 1e-3, ["variational"])
    assert solve(RabiParams(0.5, 1.0)).gamma_prime > 0.0
    ok, bad = run(cfg, tmp_path / "run")
    assert ok.converged and all(map(math.isfinite, ok.value)) and ok.value[1] < 1.0
    assert not bad.converged and all(map(math.isnan, bad.value))
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1


@pytest.mark.parametrize("eta", [1e-200, 0.5])
def test_point_outside_the_ansatz_domain_is_degraded(tmp_path, eta):
    # eta = 1e-200: q4 = (c2/omega_t)^2 overflows; eta = 0.5: the mean photon
    # number comes out negative (-0.0035) while the ansatz's variance is
    # negative too. Either way the ansatz has no state there: `solve` raises,
    # the fig1 point is degraded and the CLI exits 1, without a traceback
    with pytest.raises(PhaseDomainError):
        solve(RabiParams(0.5, eta))
    cfg = SweepConfig("fig1", [0.5], [eta], [0.0], 0.0, ["variational"])
    (pt,) = run(cfg, tmp_path / "run")
    assert not pt.converged and all(map(math.isnan, pt.value))
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg.canonical_text())
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli")]) == 1


@pytest.mark.parametrize("lam", [0.02, 0.04])
def test_squeezing_to_full_precision_at_small_lam(lam):
    # at small lam the root x = e^{2 s} of the cubic lies near 1 (s ~ lam^2/4),
    # where log(x)/2 of a rounded x lost up to 7e-13 of s; against the root of
    # (3 lam^4 / (2 eta)) x^3 + (1 - lam^2) x^2 - 1 and the photon mean
    # sinh^2 s + q2 - 8 q2^2 x, q2 = lam^2 / (4 eta), in 50-digit arithmetic
    p = RabiParams(lam, 1e5)
    sol = solve(p)
    with mp.workdps(50):
        l2, eta = mp.mpf(p.lam) ** 2, mp.mpf(p.eta)
        x = mp.findroot(lambda x: 3 * l2**2 / (2 * eta) * x**3 + (1 - l2) * x**2 - 1, mp.mpf(1))
        s = mp.log(x) / 2
        q2 = l2 / (4 * eta)
        mean_n = mp.sinh(s) ** 2 + q2 - 8 * q2**2 * x
    assert abs(sol.s / s - 1) <= 1e-14
    assert abs(sol.mean_n / mean_n - 1) <= 1e-14


def test_energy_matches_mean_field_scale():
    # normal phase: E ~ -eta/2 + O(1)
    p = RabiParams(0.5, 1e4)
    sol = solve(p)
    assert sol.energy / p.eta == pytest.approx(-0.5, abs=1e-3)


def test_finite_across_the_critical_band():
    # the cubic keeps its c4 term at mu = 1, so no lam needs a guard
    for lam in (1.0 - 1e-8, 1.0 + 1e-8):
        sol = solve(RabiParams(lam, 1e3))
        assert all(map(math.isfinite, (sol.s, sol.energy, sol.mean_n, sol.gamma_prime)))
        assert sol.gamma_prime > 0.0


@pytest.mark.parametrize("eta", [1e4, 1e5, 1e6, 1e7, 1e8, 1e100])
def test_critical_point_is_the_gaussian_ansatz_in_the_quartic_oscillator(eta):
    # at lam = 1 (mu = 1, c2 = 1/4, c4 = 1 / (16 eta)) the
    # cubic reads (3 / (2 eta)) x^3 = 1, so x = e^{2 s} = (2 eta/3)^{1/3}. With
    # sinh^2(2 s)/2 = (x^2 - 2 + x^-2)/8, q2 = 1/(4 eta) and q4 = q2^2, the
    # variance over its leading term x^2/8 is 1 - 2 x^-2 + x^-4 - eta^-2, within
    # 2 x^-2 of 1 once x^4 < eta^2
    sol = solve(RabiParams(1.0, eta))
    x = (2.0 * eta / 3.0) ** (1.0 / 3.0)
    assert math.exp(2.0 * sol.s) == pytest.approx(x, rel=1e-14)
    if eta <= 1e8:
        lead = (2.0 / 3.0) ** (2.0 / 3.0) / 8.0
        assert abs(sol.gamma_prime * eta ** (-2.0 / 3.0) / lead - 1.0) <= 2.0 / x**2


# (lam, eta): (mean_n, gamma_prime), recorded from the code before the
# normal and superradiant moments shared one expression. These are locks,
# not derivations: at eta = 2 and 10 the q4 terms are up to a percent of
# mean_n, so they pin the factors 8 and 8/3 of those terms
LOCKED_MOMENTS = {
    (0.5, 2.0): (0.025562542473200413, 0.024341686943030336),
    (0.9, 10.0): (0.08323618191256543, 0.14919453441061772),
    (1.2, 2.0): (0.41926385892255047, 0.5047979438557486),
    (2.0, 10.0): (9.375649253428103, 9.682573322147967),
}


@pytest.mark.parametrize("lam, eta", list(LOCKED_MOMENTS))
def test_photon_moments_locked(lam, eta):
    sol = solve(RabiParams(lam, eta))
    assert sol.phase == (NORMAL if lam < 1.0 else SUPERRADIANT)
    assert (sol.mean_n, sol.gamma_prime) == pytest.approx(LOCKED_MOMENTS[lam, eta], rel=1e-12)


def test_superradiant_mean_n_dominated_by_displacement():
    p = RabiParams(1.1, 1e4)
    sol = solve(p)
    alpha2 = superradiant_frame(p)[0] ** 2
    assert sol.mean_n / alpha2 == pytest.approx(1.0, abs=0.05)
    assert sol.mean_n > math.sinh(sol.s) ** 2
