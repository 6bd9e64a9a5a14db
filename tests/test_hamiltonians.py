"""Tests for the Hamiltonian builders and parameter records."""

import dataclasses
import math
import re

import numpy as np
import pytest

from oracle import (
    FIGURE_PROBE,
    NORMAL,
    ProbeParams,
    SUPERRADIANT,
    build_branch,
    build_effective_np,
    build_effective_sp,
    build_rabi,
    build_tripartite,
    cubic_coeffs,
    effective_np_coeffs,
    effective_sp_coeffs,
    energy_at,
    ground_state,
    number,
    sigma_minus,
    sigma_plus,
    spin_mixing_angle,
    variance_np,
    variance_sp,
)
from rabicrit.analytic import CRITICAL_BAND, variance
from rabicrit.errors import PhaseDomainError
from rabicrit.experiments import critical_lambda_grid, default_config
from rabicrit.hamiltonians import Phase, RabiParams, phase
from rabicrit.variational import _cubic_coeffs, _energy_at, _squeezing, solve

C32 = 32


def test_rabi_params_derived():
    # the record is (lam, eta) in units of omega_c; g = lam sqrt(eta) / 2 is derived
    assert [f.name for f in dataclasses.fields(RabiParams)] == ["lam", "eta"]
    p = RabiParams(0.4, 100.0)
    assert (p.lam, p.eta, p.g) == (0.4, 100.0, 2.0)
    assert RabiParams(0.0, 1.0).g == 0.0
    for lam, eta, message in ((-0.1, 1.0, "lam must be non-negative"),
                              (0.5, 0.0, "eta must be strictly positive"),
                              (0.5, -1.0, "eta must be strictly positive"),
                              # finite inputs whose g overflows
                              (1e300, 1e300, "g = lam sqrt(eta) / 2 overflows")):
        with pytest.raises(ValueError, match=re.escape(message)):
            RabiParams(lam, eta)


@pytest.mark.parametrize("args", [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
    (1.0, math.inf), (-math.inf, 1.0), (1.0, -math.inf),
])
def test_rabi_params_reject_nan(args):
    with pytest.raises(ValueError, match="lam and eta must be finite"):
        RabiParams(*args)


def test_probe_params():
    # the dense builders' probe is its coupling and its detuning; its
    # frequency is 1 + delta_s, and chi is derived
    assert [f.name for f in dataclasses.fields(ProbeParams)] == ["g_s", "delta_s"]
    pr = ProbeParams(0.1, 1.0)
    assert pr.chi == pytest.approx(0.01)
    with pytest.raises(TypeError):
        ProbeParams(0.1, 1.0, chi=0.5)
    with pytest.raises(ValueError):
        ProbeParams(0.1, 0.0)
    # finite g_s, chi = g_s^2 / delta_s not: once an OverflowError from `chi`
    with pytest.raises(ValueError, match="chi"):
        ProbeParams(1e160, 1.0)


@pytest.mark.parametrize("field", ["g_s", "delta_s"])
def test_probe_params_reject_nan(field):
    # each guard rejects NaN and infinity
    for value in (math.nan, math.inf):
        fields = {"g_s": 0.1, "delta_s": 1.0}
        fields[field] = value
        with pytest.raises(ValueError):
            ProbeParams(**fields)


def test_build_rabi_decoupled():
    p = RabiParams(0.0, 3.0)
    energy, vec = ground_state(build_rabi(p, C32))
    assert energy == pytest.approx(-1.5, abs=1e-12)
    # ground state |0>|g> -> index (spin g = 1) * dim + 0
    expect = np.zeros(2 * (C32 + 1))
    expect[C32 + 1] = 1.0
    assert np.abs(np.abs(vec) - expect).max() < 1e-12


def test_branch_difference():
    p = RabiParams(0.7, 50.0)
    he = build_branch(p, FIGURE_PROBE, "e", C32)
    hg = build_branch(p, FIGURE_PROBE, "g", C32)
    n_full = np.kron(np.eye(2), number(C32))
    diff = he - hg - 2.0 * FIGURE_PROBE.chi * n_full
    diff -= (1.0 + FIGURE_PROBE.delta_s + FIGURE_PROBE.chi) * np.eye(len(he))
    assert np.abs(diff).max() < 1e-12

    # chi = 0: branches identical up to the probe frequency 1 + delta_s
    probe0 = ProbeParams(0.0, 1.0)
    he0 = build_branch(p, probe0, "e", C32)
    hg0 = build_branch(p, probe0, "g", C32)
    assert np.abs(he0 - hg0 - 2.0 * np.eye(len(he0))).max() < 1e-12
    with pytest.raises(ValueError):
        build_branch(p, FIGURE_PROBE, "x", C32)


def test_branch_cavity_coefficient():
    # chi = 0.001 -> g branch cavity term reads 0.999
    p = RabiParams(0.0, 50.0)
    hg = build_branch(p, FIGURE_PROBE, "g", C32)
    # <e,1|H|e,1> - <e,0|H|e,0> = omega_g
    assert hg[1, 1] - hg[0, 0] == pytest.approx(0.999)


def test_tripartite_decoupled_probe():
    # at g_s = 0 the probe only adds +(1 + Delta_s)/2 on its |e> half and
    # -(1 + Delta_s)/2 on its |g> half
    p = RabiParams(0.6, 20.0)
    probe = ProbeParams(0.0, 1.0)  # at omega_s = 1 + 1 = 2
    h = build_rabi(p, 20)
    eye, zero = np.eye(len(h)), np.zeros_like(h)
    expect = np.block([[h + eye, zero], [zero, h - eye]])
    assert np.array_equal(build_tripartite(p, probe, 20), expect)


def test_tripartite_jc_excitation_conserved():
    # with g = 0 the JC excitation number n + sigma_+ sigma_- commutes with H
    p = RabiParams(0.0, 5.0)
    probe = ProbeParams(0.3, 1.0)
    c = 16
    h3 = build_tripartite(p, probe, c)
    n_exc = np.kron(np.eye(4), number(c)) + np.kron(sigma_plus() @ sigma_minus(),
                                                    np.eye(2 * (c + 1)))
    comm = h3 @ n_exc - n_exc @ h3
    assert np.abs(comm).max() < 1e-10


def test_alpha_lambda_value():
    alpha = phase(RabiParams(1.1, 5000.0)).alpha
    assert alpha**2 == pytest.approx(5000.0 * (1.1**4 - 1.0) / (4 * 1.1**2))
    assert alpha**2 == pytest.approx(479.44, abs=0.05)


def test_displaced_frame_record():
    p = RabiParams(1.1, 5000.0)
    frame = phase(p)
    al = frame.alpha
    theta = spin_mixing_angle(p, al)
    assert isinstance(frame, Phase)
    assert [f.name for f in dataclasses.fields(Phase)] == ["alpha", "omega_t", "mu"]
    assert -math.pi / 4 < theta <= math.pi / 4
    assert frame.omega_t == pytest.approx(1.1**2 * 5000.0)
    # g~ = sqrt(c2 omega_t), since c2 = g~^2 / omega_t
    assert math.sqrt(frame.c2 * frame.omega_t) == pytest.approx(math.sqrt(5000.0) / (2 * 1.1))
    # the displacement removes the linear boson term:
    # alpha + g sin(2 theta) = 0 at alpha = +alpha_lambda
    assert abs(al + p.g * math.sin(2 * theta)) < 1e-10


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def test_phase_record_matches_each_phase_in_lam():
    # the record's effective coefficients, the variational cubic and energy
    # read from it, and the closed-form variance, against each phase written
    # out in lam, on the figures' lambda grid plus 0, 1, 2 and 3
    lams = [0.0, 1.0] + critical_lambda_grid() + [2.0, 3.0]
    worst = 0.0
    for eta in 10.0 ** np.arange(9):
        for lam in lams:
            p = RabiParams(lam, eta)
            ph = phase(p)
            name = NORMAL if lam <= 1.0 else SUPERRADIANT
            assert ph.name == name
            if name == NORMAL:
                assert ph.alpha == 0.0
                coeffs = effective_np_coeffs(p)
            else:
                assert ph.alpha == math.sqrt(eta * (lam**4 - 1.0) / (4.0 * lam**2))
                coeffs = effective_sp_coeffs(p)
            pairs = list(zip((ph.c2, ph.c4, ph.const), coeffs))
            c3, mu = _cubic_coeffs(ph)
            pairs += zip((c3, 1.0 - mu), cubic_coeffs(name, p))
            pairs += [(_energy_at(ph, s), energy_at(name, s, p)) for s in (-0.1, 0.0, 0.1)]
            # the root alone: at eta = 1 the ansatz's moments are negative, and `solve` raises
            s = _squeezing(c3, mu)
            pairs.append((_energy_at(ph, s), energy_at(name, s, p)))
            if abs(lam - 1.0) >= CRITICAL_BAND:
                pairs.append((variance(p)[1], (variance_np if name == NORMAL else variance_sp)(p)))
            worst = max(worst, max(_rel(a, b) for a, b in pairs))
    assert worst <= 1e-12, worst


def test_default_points_are_solved_at_their_recorded_lam():
    # every (lam, eta) of the figures' default grids reaches the phase record
    # bit for bit, the numbers its rows record: built from (omega_c, omega_0, g)
    # and back, lam was once an ulp off at 65 of these 742 points
    points = [(lam, eta) for figure in ("fig1", "fig2", "fig3", "fig4", "fig5")
              for eta in default_config(figure).eta_grid
              for lam in default_config(figure).lambda_grid]
    assert len(points) == 742
    for lam, eta in points:
        ph = phase(RabiParams(lam, eta))
        if lam <= 1.0:
            assert (ph.mu, ph.omega_t) == (lam**2, eta), (lam, eta)
        else:
            assert (ph.mu, ph.omega_t) == (lam**-4, lam**2 * eta), (lam, eta)


def test_phase_record_at_the_critical_point():
    # lam = 1 is the normal phase with mu = 1: the effective Hamiltonian is
    # the quartic oscillator n - x^2/4 + x^4 / (16 eta)
    for eta in (1.0, 5000.0, 1e8):
        ph = phase(RabiParams(1.0, eta))
        assert (ph.name, ph.alpha, ph.omega_t, ph.mu) == (NORMAL, 0.0, eta, 1.0)
        assert ph.c2 == 0.25
        assert ph.c4 == pytest.approx(1.0 / (16.0 * eta), rel=1e-15)
    # inside the critical band the closed-form variance raises; the
    # variational method, whose cubic keeps its c4 term, has a value there
    for lam in (1.0 - 1e-7, 1.0, 1.0 + 1e-7):
        p = RabiParams(lam, 1e3)
        with pytest.raises(PhaseDomainError):
            variance(p)
        assert math.isfinite(solve(p).gamma_prime)


def test_effective_np_limits():
    p0 = RabiParams(0.0, 7.0)
    h = build_effective_np(p0, C32)
    w = np.linalg.eigvalsh(h)
    assert np.abs(w - (np.arange(C32 + 1) - 3.5)).max() < 1e-12

    # quartic coefficient lam^4 / (16 eta)
    assert effective_np_coeffs(RabiParams(1.0, 5000.0))[1] == pytest.approx(1.25e-5)


def test_effective_sp_domain_and_coeff():
    with pytest.raises(PhaseDomainError):
        build_effective_sp(RabiParams(0.9, 1000.0), C32)
    p = RabiParams(1.01, 10000.0)
    coeff = -phase(p).c2
    assert coeff == pytest.approx(-1.0 / (4 * 1.01**4))
    assert coeff == pytest.approx(-0.2402, abs=2e-4)
