"""Tests for the closed-form infinite-frequency-ratio results."""

import math

import numpy as np
import pytest

from rabicrit.analytic import CRITICAL_BAND, short_time_le, variance
from rabicrit.errors import PhaseDomainError
from oracle import (
    analytic_ground_state,
    build_rabi,
    ground_state,
    number,
    operator_moments,
    squeezing_np,
    superradiant_frame,
    variance_np,
    variance_sp,
)
from rabicrit.hamiltonians import RabiParams
from rabicrit.variational import solve


def test_squeezing_np_values():
    assert squeezing_np(0.0) == 0.0
    assert squeezing_np(0.6) == pytest.approx(0.25 * math.log(1.0 / 0.64))
    assert squeezing_np(0.6) == pytest.approx(0.111572, abs=1e-6)
    with pytest.raises(PhaseDomainError):
        squeezing_np(1.0)
    with pytest.raises(PhaseDomainError):
        squeezing_np(1.2)
    with pytest.raises(PhaseDomainError):
        squeezing_np(-0.1)


def test_variance_np_values():
    assert variance(RabiParams(0.0, 100.0))[1] == 0.0
    # lam = 0.6: e^{2r} = (1 - lam^2)^{-1/2} = 1.25 exactly
    p = RabiParams(0.6, 5000.0)
    r = squeezing_np(0.6)
    assert math.exp(2 * r) == pytest.approx(1.25)
    limit = 0.5 * 0.225**2  # sinh(2r) = (1.25 - 0.8)/2
    assert limit == pytest.approx(0.0253125)
    correction = (0.36 / (4 * 5000.0)) * 0.8  # (g/eta)^2 e^{-2r}
    assert variance(p)[1] == pytest.approx(limit + correction, rel=1e-12)
    assert correction == pytest.approx(1.44e-5, rel=1e-10)


def test_variance_np_monotone_and_divergent():
    grid = np.linspace(0.05, 0.95, 19)
    vals = [variance(RabiParams(l, 1e4))[1] for l in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    # edge of the guard band is still evaluable and already huge
    assert variance(RabiParams(1.0 - 1e-6, 1e4))[1] > 1e3
    with pytest.raises(PhaseDomainError):
        variance(RabiParams(1.0 - 1e-7, 1e4))


def test_superradiant_frame_values():
    p = RabiParams(1.1, 5000.0)
    alpha, r = superradiant_frame(p)
    assert alpha**2 == pytest.approx(479.44, abs=0.05)
    assert r == pytest.approx(-0.25 * math.log(1 - 1.1**-4))
    assert r == pytest.approx(0.28722, abs=1e-5)
    _, r2 = superradiant_frame(RabiParams(2.0, 5000.0))
    assert r2 == pytest.approx(-0.25 * math.log(15.0 / 16.0))
    assert r2 == pytest.approx(0.0161346, abs=1e-6)
    with pytest.raises(PhaseDomainError):
        superradiant_frame(RabiParams(0.9, 5000.0))
    with pytest.raises(PhaseDomainError):
        superradiant_frame(RabiParams(1.0 + 1e-7, 5000.0))


def test_variance_sp_value_and_scaling():
    p = RabiParams(1.1, 5000.0)
    alpha, r = superradiant_frame(p)
    expect = (
        0.5 * math.sinh(2 * r) ** 2
        + alpha**2 * math.exp(2 * r)
        + (1.0 / (4 * 1.1**6 * 5000.0)) * math.exp(-2 * r)
    )
    assert variance(p)[1] == pytest.approx(expect, rel=1e-12)
    assert variance(p)[1] == pytest.approx(851.7, abs=0.5)
    # doubling eta roughly doubles gamma (alpha^2 term dominates and is linear)
    p2 = RabiParams(1.1, 10000.0)
    assert variance(p2)[1] / variance(p)[1] == pytest.approx(2.0, rel=1e-2)


def test_variance_sp_large_lambda_dominated_by_displacement():
    p = RabiParams(50.0, 1e4)
    alpha, r = superradiant_frame(p)
    assert variance(p)[1] / (alpha**2 * math.exp(2 * r)) == pytest.approx(1.0, abs=1e-4)


def test_variance_dispatch():
    assert variance(RabiParams(0.5, 100.0))[1] == variance_np(
        RabiParams(0.5, 100.0)
    )
    assert variance(RabiParams(1.5, 100.0))[1] == variance_sp(
        RabiParams(1.5, 100.0)
    )


def test_short_time_le():
    assert short_time_le(0.5, 1e-3, 0.0) == 1.0
    assert np.allclose(short_time_le(0.0, 1e-3, np.linspace(0, 50, 5)), 1.0)
    assert short_time_le(0.0253125, 1e-3, 10.0) == pytest.approx(
        math.exp(-1.0125e-5), rel=1e-12
    )
    with pytest.raises(ValueError):
        short_time_le(-0.1, 1e-3, 1.0)
    with pytest.raises(ValueError):
        short_time_le(0.1, 1e-3, -1.0)


def test_short_time_le_array_gamma():
    gammas = np.array([0.0, 0.0253125, 3.0])
    out = short_time_le(gammas, 1e-3, 10.0)
    assert out.shape == (3,)
    for g, v in zip(gammas, out):
        assert v == short_time_le(float(g), 1e-3, 10.0)
    grid = short_time_le(gammas[:, None], 1e-3, np.array([0.0, 5.0, 10.0]))
    assert grid.shape == (3, 3)
    assert np.array_equal(grid[:, 2], out)
    with pytest.raises(ValueError):
        short_time_le(np.array([0.1, -0.1]), 1e-3, 1.0)


def test_infinite_eta_consistency():
    # |gamma_np - gamma_exact| / gamma_exact shrinks by >= 5x from eta=1e3 to 1e5
    rels = []
    for eta in (1e3, 1e5):
        p = RabiParams(0.9, eta)
        _, vec = ground_state(build_rabi(p, 64))
        _, gamma = operator_moments(vec, np.kron(np.eye(2), number(64)))
        rels.append(abs(variance(p)[1] - gamma) / gamma)
    assert rels[0] / rels[1] >= 5.0


def test_analytic_ground_state_summary():
    gs = analytic_ground_state(RabiParams(0.6, 1e5))
    assert gs.phase == "normal"
    assert gs.alpha_disp == 0.0
    assert gs.epsilon == pytest.approx(math.sqrt(1 - 0.36))
    # finite-eta variational energy approaches the closed form
    v = solve(RabiParams(0.6, 1e5))
    assert gs.energy == pytest.approx(v.energy, rel=1e-6)

    gsp = analytic_ground_state(RabiParams(1.3, 1e5))
    assert gsp.phase == "superradiant"
    assert gsp.epsilon == pytest.approx(math.sqrt(1 - 1.3**-4))
    # leading term of the superradiant energy: -eta (lam^2 + lam^-2)/4
    lead = -1e5 * (1.3**2 + 1.3**-2) / 4.0
    assert gsp.energy == pytest.approx(lead, rel=1e-5)
    vsp = solve(RabiParams(1.3, 1e5))
    assert gsp.energy == pytest.approx(vsp.energy, rel=1e-6)


def test_guard_band_width():
    assert CRITICAL_BAND == 1e-6
