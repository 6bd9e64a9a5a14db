"""Tests for the finite-frequency-ratio variational ground states."""

import dataclasses
import math

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
from rabicrit.analytic import variance
from rabicrit.dynamics import echo_point
from rabicrit.errors import PhaseDomainError
from rabicrit.experiments import critical_lambda_grid
from rabicrit.hamiltonians import ProbeParams, RabiParams
from rabicrit.variational import solve


def test_decoupled_limit():
    p = RabiParams.from_dimensionless(0.0, 100.0)
    sol = solve(p)
    assert sol.phase == NORMAL
    assert sol.s == pytest.approx(0.0, abs=1e-12)
    assert sol.energy == pytest.approx(-0.5 * p.omega_0, abs=1e-10)
    assert sol.mean_n == pytest.approx(0.0, abs=1e-12)
    assert sol.gamma_prime == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.5, 0.9, 0.99, 1.01, 1.1, 2.0])
@pytest.mark.parametrize("eta", [1e3, 1e4, 1e5])
def test_stationarity_grid(lam, eta):
    p = RabiParams.from_dimensionless(lam, eta)
    sol = solve(p)
    x, residual, curvature = stationarity(sol, p)
    assert residual < 1e-10
    assert curvature > 0.0
    # dual-path agreement between bracketing and closed-form roots
    x_closed = closed_form_x(sol.phase, lam, eta)
    assert abs(x - x_closed) <= 1e-10 * x


def test_newton_root_matches_closed_form():
    # dual path: Newton's root of the stationarity cubic against the published
    # closed form, on the figures' lambda grid plus 2 and 3 and the decoupled
    # limit, at eta = 1, 10, ..., 1e8
    lams = [0.0] + critical_lambda_grid() + [2.0, 3.0]
    for eta in 10.0 ** np.arange(9):
        for lam in lams:
            phase = NORMAL if lam < 1.0 else SUPERRADIANT
            x = math.exp(2.0 * solve(RabiParams.from_dimensionless(lam, eta)).s)
            x_closed = closed_form_x(phase, lam, eta)
            assert abs(x_closed - x) <= DUAL_PATH_RTOL * x, (lam, eta, x, x_closed)


def test_normal_limit_to_closed_form():
    # s -> r_np as eta -> infinity, at ~1/eta rate
    lam = 0.99
    r_inf = squeezing_np(lam)
    gaps = []
    for eta in (1e3, 1e4, 1e5):
        sol = solve(RabiParams.from_dimensionless(lam, eta))
        gaps.append(abs(sol.s - r_inf))
    assert 5.0 < gaps[0] / gaps[1] < 20.0
    exponent = -np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(gaps), 1)[0]
    assert 0.8 <= exponent <= 1.2


def test_superradiant_limit_to_closed_form():
    lam = 1.2
    _, r_inf = superradiant_frame(RabiParams.from_dimensionless(lam, 1e3))
    gaps = [
        abs(solve(RabiParams.from_dimensionless(lam, eta)).s - r_inf)
        for eta in (1e3, 1e4, 1e5)
    ]
    exponent = -np.polyfit(np.log([1e3, 1e4, 1e5]), np.log(gaps), 1)[0]
    assert 0.8 <= exponent <= 1.2


def test_gamma_prime_limit():
    # finite-eta variance approaches the closed form (correction ~ 1/eta^2)
    lam = 0.9
    p = RabiParams.from_dimensionless(lam, 1e5)
    sol = solve(p)
    assert sol.gamma_prime == pytest.approx(variance(p), rel=1e-3)


def test_gamma_prime_negative_clamped_not_fatal():
    # at eta = 1 the finite-eta correction outweighs the leading terms: the
    # variance is returned negative, not raised, and the echo clamps it at 0
    p = RabiParams.from_dimensionless(0.9, 1.0)
    sol = solve(p)
    assert sol.gamma_prime < 0.0
    echo = echo_point(p, ProbeParams.from_chi(1e-3), [0.0, 10.0, 60.0], "variational", 1e-8)
    assert echo.gamma == 0.0
    assert np.all(echo.l_values == 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.gamma_prime = 0.0


def test_energy_matches_mean_field_scale():
    # normal phase: E ~ -omega_0/2 + O(omega_c)
    p = RabiParams.from_dimensionless(0.5, 1e4)
    sol = solve(p)
    assert sol.energy / p.omega_0 == pytest.approx(-0.5, abs=1e-3)


def test_guard_band_rejected():
    with pytest.raises(PhaseDomainError):
        solve(RabiParams.from_dimensionless(1.0 + 1e-8, 1e3))
    with pytest.raises(PhaseDomainError):
        solve(RabiParams.from_dimensionless(1.0 - 1e-8, 1e3))


def test_superradiant_mean_n_dominated_by_displacement():
    p = RabiParams.from_dimensionless(1.1, 1e4)
    sol = solve(p)
    alpha2 = superradiant_frame(p)[0] ** 2
    assert sol.mean_n / alpha2 == pytest.approx(1.0, abs=0.05)
    assert sol.mean_n > math.sinh(sol.s) ** 2
