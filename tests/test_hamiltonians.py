"""Tests for the Hamiltonian builders and parameter records."""

import math

import numpy as np
import pytest

from oracle import (
    NORMAL,
    SUPERRADIANT,
    build_branch,
    build_displaced_rabi,
    build_effective_np,
    build_effective_sp,
    build_rabi,
    build_tripartite,
    cubic_coeffs,
    effective_np_coeffs,
    effective_sp_coeffs,
    energy_at,
    ground_state,
    identity,
    number,
    parity_operator,
    pauli,
    sigma_minus,
    sigma_plus,
    spin_mixing_angle,
    tensor,
    variance_np,
    variance_sp,
)
from rabicrit.analytic import CRITICAL_BAND, variance
from rabicrit.errors import PhaseDomainError
from rabicrit.experiments import critical_lambda_grid
from rabicrit.hamiltonians import Phase, ProbeParams, RabiParams, alpha_lambda, phase
from rabicrit.hilbert import FockCutoff
from rabicrit.variational import _cubic_coeffs, _energy_at, solve

C32 = FockCutoff(32)


def test_rabi_params_derived():
    p = RabiParams(1.0, 100.0, 2.0)
    assert p.lam == pytest.approx(0.4)
    assert p.eta == pytest.approx(100.0)
    q = RabiParams.from_dimensionless(0.4, 100.0)
    assert q.g == pytest.approx(2.0)
    assert q.lam == pytest.approx(0.4)
    with pytest.raises(ValueError):
        RabiParams(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        RabiParams(1.0, 1.0, -0.1)


@pytest.mark.parametrize("args", [
    (math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan),
    (math.inf, 1.0, 1.0), (1.0, math.inf, 1.0), (1.0, 1.0, math.inf),
])
def test_rabi_params_reject_nan(args):
    with pytest.raises(ValueError):
        RabiParams(*args)


def test_probe_params():
    pr = ProbeParams(2.0, 0.1, 1.0)
    assert pr.chi == pytest.approx(0.01)
    with pytest.raises(TypeError):
        ProbeParams(2.0, 0.1, 1.0, chi=0.5)
    with pytest.raises(ValueError):
        ProbeParams(2.0, 0.1, 0.0)
    with pytest.raises(ValueError):
        ProbeParams(2.0, 0.1, 1.0, alpha=1.0, beta=1.0)
    pc = ProbeParams.from_chi(1e-3)
    assert pc.chi == pytest.approx(1e-3)
    assert pc.delta_s == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ProbeParams.from_chi(-1e-3)
    with pytest.raises(ValueError, match="chi must be positive"):
        ProbeParams.from_chi(math.nan)


@pytest.mark.parametrize("field", ["omega_s", "g_s", "delta_s", "alpha", "beta"])
def test_probe_params_reject_nan(field):
    # each guard rejects NaN and infinity; a NaN or infinite amplitude makes
    # the norm NaN or infinite, which the norm check must reject too
    for value in (math.nan, math.inf):
        fields = {"omega_s": 2.0, "g_s": 0.1, "delta_s": 1.0, "alpha": 0.6, "beta": 0.8}
        fields[field] = value
        with pytest.raises(ValueError):
            ProbeParams(**fields)


def test_build_rabi_decoupled():
    p = RabiParams(1.0, 3.0, 0.0)
    gs = ground_state(build_rabi(p, C32))
    assert gs.energy == pytest.approx(-1.5, abs=1e-12)
    # ground state |0>|g> -> index (spin g = 1) * dim + 0
    expect = np.zeros(2 * C32.dim)
    expect[C32.dim] = 1.0
    assert np.abs(np.abs(gs.state.vec) - expect).max() < 1e-12


def test_build_rabi_parity_commutes():
    rng = np.random.default_rng(3)
    pi = parity_operator(C32)
    for _ in range(5):
        p = RabiParams(1.0, rng.uniform(0.5, 50.0), rng.uniform(0.0, 3.0))
        h = build_rabi(p, C32)
        comm = pi.mat @ h.mat - h.mat @ pi.mat
        assert np.abs(comm).max() < 1e-10 * np.abs(h.mat).max()


def test_build_rabi_cutoff_stable():
    p = RabiParams(1.0, 100.0, 2.0)  # lam = 0.4
    e60 = ground_state(build_rabi(p, FockCutoff(60))).energy
    e80 = ground_state(build_rabi(p, FockCutoff(80))).energy
    assert abs(e60 - e80) < 1e-10


def test_branch_difference():
    p = RabiParams.from_dimensionless(0.7, 50.0)
    probe = ProbeParams.from_chi(1e-3)
    he = build_branch(p, probe, "e", C32)
    hg = build_branch(p, probe, "g", C32)
    n_full = tensor(identity((2,)), number(C32))
    diff = he.mat - hg.mat - 2.0 * probe.chi * n_full.mat
    diff -= (probe.omega_s + probe.chi) * np.eye(he.dim)
    assert np.abs(diff).max() < 1e-12

    # chi = 0: branches identical up to the omega_s constant
    probe0 = ProbeParams(2.0, 0.0, 1.0)
    he0 = build_branch(p, probe0, "e", C32)
    hg0 = build_branch(p, probe0, "g", C32)
    assert np.abs(he0.mat - hg0.mat - probe0.omega_s * np.eye(he0.dim)).max() < 1e-12
    with pytest.raises(ValueError):
        build_branch(p, probe, "x", C32)


def test_branch_cavity_coefficient():
    # chi = 0.001 omega_c -> g branch cavity term reads 0.999 omega_c
    p = RabiParams(1.0, 50.0, 0.0)
    probe = ProbeParams.from_chi(1e-3)
    hg = build_branch(p, probe, "g", C32)
    # <e,1|H|e,1> - <e,0|H|e,0> = omega_g
    assert hg.mat[1, 1].real - hg.mat[0, 0].real == pytest.approx(0.999)


def test_tripartite_decoupled_probe():
    p = RabiParams.from_dimensionless(0.6, 20.0)
    probe = ProbeParams(2.0, 0.0, 1.0)
    h3 = build_tripartite(p, probe, FockCutoff(20))
    assert h3.is_hermitian()
    w3 = np.linalg.eigvalsh(h3.mat)
    wr = np.linalg.eigvalsh(build_rabi(p, FockCutoff(20)).mat)
    expect = np.sort(np.concatenate([wr + 1.0, wr - 1.0]))
    assert np.abs(w3 - expect).max() < 1e-10


def test_tripartite_jc_excitation_conserved():
    # with g = 0 the JC excitation number n + sigma_+ sigma_- commutes with H
    p = RabiParams(1.0, 5.0, 0.0)
    probe = ProbeParams(2.0, 0.3, 1.0)
    c = FockCutoff(16)
    h3 = build_tripartite(p, probe, c)
    i2, ib = identity((2,)), identity((c.dim,))
    n_exc = tensor(i2, tensor(i2, number(c))) + tensor(
        sigma_plus() @ sigma_minus(), tensor(i2, ib)
    )
    comm = h3.mat @ n_exc.mat - n_exc.mat @ h3.mat
    assert np.abs(comm).max() < 1e-10


def test_displaced_rabi_zero_alpha():
    p = RabiParams.from_dimensionless(0.8, 30.0)
    h0 = build_rabi(p, C32)
    h, frame = build_displaced_rabi(p, 0.0, C32)
    assert np.array_equal(h.mat, h0.mat)
    assert frame.alpha_disp == 0.0


def test_displaced_rabi_spectrum_invariance():
    p = RabiParams.from_dimensionless(0.8, 30.0)
    # the low-lying spectrum is unitarily equivalent; the agreeing window
    # widens (tolerance tightens) as the cutoff grows
    for n_max, levels in ((80, 20), (120, 40)):
        c = FockCutoff(n_max)
        w0 = np.linalg.eigvalsh(build_rabi(p, c).mat)
        for alpha in (0.5, 2.0):
            w = np.linalg.eigvalsh(build_displaced_rabi(p, alpha, c)[0].mat)
            assert np.abs(w[:levels] - w0[:levels]).max() < 1e-8


def test_alpha_lambda_value():
    p = RabiParams.from_dimensionless(1.1, 5000.0)
    assert alpha_lambda(p) ** 2 == pytest.approx(5000.0 * (1.1**4 - 1.0) / (4 * 1.1**2))
    assert alpha_lambda(p) ** 2 == pytest.approx(479.44, abs=0.05)
    with pytest.raises(PhaseDomainError):
        alpha_lambda(RabiParams.from_dimensionless(0.9, 5000.0))


def test_displaced_frame_record():
    p = RabiParams.from_dimensionless(1.1, 5000.0)
    al = alpha_lambda(p)
    frame = phase(p)
    theta = spin_mixing_angle(p, al)
    assert isinstance(frame, Phase)
    assert frame.alpha == al
    assert -math.pi / 4 < theta <= math.pi / 4
    assert frame.omega_t == pytest.approx(1.1**2 * 5000.0)
    # g~ = sqrt(c2 omega_t), since c2 = g~^2 / omega_t
    assert math.sqrt(frame.c2 * frame.omega_t) == pytest.approx(math.sqrt(5000.0) / (2 * 1.1))
    # the displacement removes the linear boson term:
    # omega_c alpha + g sin(2 theta) = 0 at alpha = +alpha_lambda
    assert abs(p.omega_c * al + p.g * math.sin(2 * theta)) < 1e-10


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
            p = RabiParams.from_dimensionless(lam, eta)
            ph = phase(p)
            name = NORMAL if lam <= 1.0 else SUPERRADIANT
            assert ph.name == name
            if name == NORMAL:
                assert ph.alpha == 0.0
                coeffs = effective_np_coeffs(p)
            else:
                assert ph.alpha == alpha_lambda(p)
                coeffs = effective_sp_coeffs(p)
            pairs = list(zip((ph.c2, ph.c4, ph.const), coeffs))
            pairs += zip(_cubic_coeffs(ph), cubic_coeffs(name, p))
            pairs += [(_energy_at(ph, s), energy_at(name, s, p)) for s in (-0.1, 0.0, 0.1)]
            if abs(lam - 1.0) >= CRITICAL_BAND:
                s = solve(p).s
                pairs.append((_energy_at(ph, s), energy_at(name, s, p)))
                pairs.append((variance(p), (variance_np if name == NORMAL else variance_sp)(p)))
            worst = max(worst, max(_rel(a, b) for a, b in pairs))
    assert worst <= 1e-12, worst


def test_phase_record_at_the_critical_point():
    # lam = 1 is the normal phase with mu = 1: the effective Hamiltonian is
    # the quartic oscillator omega_c n - (omega_c/4) x^2 + omega_c^2 x^4 / (16 omega_0)
    for eta in (1.0, 5000.0, 1e8):
        p = RabiParams.from_dimensionless(1.0, eta)
        ph = phase(p)
        assert (ph.name, ph.alpha, ph.omega_t, ph.mu) == (NORMAL, 0.0, p.omega_0, 1.0)
        assert ph.c2 == pytest.approx(p.omega_c / 4.0, rel=1e-15)
        assert ph.c4 == pytest.approx(p.omega_c**2 / (16.0 * p.omega_0), rel=1e-15)
    # inside the critical band both closed forms raise
    for lam in (1.0 - 1e-7, 1.0, 1.0 + 1e-7):
        p = RabiParams.from_dimensionless(lam, 1e3)
        with pytest.raises(PhaseDomainError):
            variance(p)
        with pytest.raises(PhaseDomainError):
            solve(p)


def test_effective_np_limits():
    p0 = RabiParams(1.0, 7.0, 0.0)
    h = build_effective_np(p0, C32)
    w = np.linalg.eigvalsh(h.mat)
    assert np.abs(w - (np.arange(C32.dim) - 3.5)).max() < 1e-12

    p = RabiParams.from_dimensionless(1.0, 5000.0)
    # quartic coefficient lam^4 omega_c^2 / (16 omega_0)
    assert p.lam**4 * p.omega_c**2 / (16 * p.omega_0) == pytest.approx(1.25e-5)


def test_effective_sp_domain_and_coeff():
    with pytest.raises(PhaseDomainError):
        build_effective_sp(RabiParams.from_dimensionless(0.9, 1000.0), C32)
    p = RabiParams.from_dimensionless(1.01, 10000.0)
    coeff = -phase(p).c2
    assert coeff == pytest.approx(-1.0 / (4 * 1.01**4))
    assert coeff == pytest.approx(-0.2402, abs=2e-4)


def test_all_builders_hermitian():
    p = RabiParams.from_dimensionless(1.2, 100.0)
    probe = ProbeParams.from_chi(1e-3)
    ops = [
        build_rabi(p, C32),
        build_branch(p, probe, "e", C32),
        build_tripartite(p, probe, FockCutoff(16)),
        build_displaced_rabi(p, alpha_lambda(p), C32)[0],
        build_effective_np(RabiParams.from_dimensionless(0.5, 100.0), C32),
        build_effective_sp(p, C32),
    ]
    for op in ops:
        assert op.is_hermitian()
