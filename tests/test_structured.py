"""The exact and effective methods' structured real solvers against the
dense oracle.

The exact method solves the Rabi Hamiltonian as a real tridiagonal matrix
(the even parity chain of the bare frame) or as a real band matrix of
half-width 3 (the displaced frame). Below the transition it uses the bare
frame; above it, the first frame whose ground energy converges in one
doubling search (bare first at each cutoff, and not below the mean-field
photon number alpha^2). The effective method solves its fourth-order
Hamiltonians, without their constants, on the even photon numbers in both
phases: real band matrices of half-width 2. The dense path
(`oracle.dense_ground`: cutoff doubling over the same frames and a full
eigendecomposition; then `oracle.dense_echo` of its Hamiltonian, photon
number and vector) is the reference they must reproduce.
"""

import dataclasses
import inspect
import json
import warnings
from functools import partial

import numpy as np
import pytest

from scipy.linalg import eig_banded, eigh_tridiagonal

import rabicrit.dynamics as dynamics
import rabicrit.spectra as spectra
from oracle import (
    ProbeParams,
    build_displaced_rabi,
    build_effective_np,
    build_effective_np_band,
    build_effective_sp,
    build_effective_sp_band,
    build_rabi,
    build_rabi_parity_chains,
    dense_echo,
    dense_ground,
    echo_sweep,
    energy_search,
    fix_sign,
    ground_state,
    number,
    operator_moments,
    physical_number,
    rabi_number,
    rabi_dense,
    validate_dispersive,
)
from rabicrit.dynamics import GROUND_STATES, Frame, effective_ground_state, exact_ground_state
from rabicrit.errors import ConvergenceError
from rabicrit.experiments import FIGURE_DEFAULTS, SweepConfig, _point, run
from rabicrit.hamiltonians import (
    RabiParams,
    build_displaced_rabi_band,
    build_rabi_parity,
    phase,
    photon_number_band,
)
from rabicrit.spectra import (
    CUTOFF_HARD_CAP,
    band_ground_energy,
    band_ground_state,
    band_moments,
    band_spectrum,
)

TOL = 1e-8
DEFAULT_PROBE = ProbeParams(0.05, 5.0)  # g_s = 0.05, Delta_s / g_s = 100


def _dense(h: np.ndarray) -> np.ndarray:
    """The full symmetric matrix stored in the band `h`."""
    n = h.shape[1]
    mat = np.zeros((n, n))
    for k in range(min(h.shape[0], n)):
        i = np.arange(n - k)
        mat[i + k, i] = mat[i, i + k] = h[k, : n - k]
    return mat


def _parity_order(n_max):
    """Dense (spin-first) index of each row of `build_rabi_parity_chains`."""
    k = np.arange(n_max + 1)
    g, e = k.size + k, k
    return np.concatenate([np.where(k % 2 == 0, g, e), np.where(k % 2 == 0, e, g)])


def _spin_fastest_order(n_max):
    """Dense (spin-first) index of each row of `build_displaced_rabi_band`."""
    k = np.arange(n_max + 1)
    return np.column_stack([k, k.size + k]).ravel()


def test_band_builders_are_permuted_dense_builders():
    for n_max in (0, 9):  # 0: the vacuum alone
        p = RabiParams(0.8, 20.0)
        order = _parity_order(n_max)
        dense = build_rabi(p, n_max)
        chains = build_rabi_parity_chains(p, n_max)
        assert np.array_equal(dense[np.ix_(order, order)], _dense(chains))
        # the even chain is the leading block, split off by a zero entry
        assert chains[1, n_max] == 0.0
        assert np.array_equal(build_rabi_parity(p, n_max), chains[:, :n_max + 1])
        p = RabiParams(1.3, 20.0)
        alpha = phase(p).alpha
        order = _spin_fastest_order(n_max)
        dense = build_displaced_rabi(p, alpha, n_max)
        assert np.array_equal(dense[np.ix_(order, order)],
                              _dense(build_displaced_rabi_band(p, alpha, n_max)))
        # the physical photon number in the same spin-fastest basis
        n_band = photon_number_band(alpha, n_max, 2)
        assert n_band.shape == (3, 2 * (n_max + 1))
        dense = rabi_number(n_max, alpha)
        assert np.array_equal(dense[np.ix_(order, order)], _dense(n_band))


def test_probe_branches_equal_the_builders_at_shifted_cavity_frequency():
    # H -/+ chi N is the dense Rabi Hamiltonian at cavity frequency 1 -/+ chi,
    # on the even parity chain and in the displaced frame, with no constant:
    # the probe's energy changes only the phase of D (checked by
    # `test_decoherence_factor_against_expm`)
    eps = np.finfo(float).eps
    c = 40
    chi = 5e-4  # a probe of g_s = 0.05 at Delta_s = 5
    for lam, eta in ((0.8, 20.0), (1.3, 20.0), (1.05, 1e5)):
        p = RabiParams(lam, eta)
        even = _parity_order(c)[:c + 1]
        cases = [(build_rabi_parity(p, c), photon_number_band(0.0, c, 1), 0.0, even)]
        if lam > 1.0:
            alpha = phase(p).alpha
            cases.append((build_displaced_rabi_band(p, alpha, c), photon_number_band(alpha, c, 2),
                          alpha, _spin_fastest_order(c)))
        for h, n, alpha, order in cases:
            for branch, sign in zip(dynamics.probe_branches(h, n, chi), (-1, 1)):
                ref = rabi_dense(1.0 + sign * chi, eta, p.g, c, alpha)[np.ix_(order, order)]
                err = np.abs(_dense(branch) - ref).max()
                assert err <= 4.0 * eps * np.abs(ref).max(), (lam, eta, err)


def test_band_moments_match_dense_operator_moments():
    # the physical photon number's moments of the displaced band's ground
    # vector, spin-fastest, against the dense oracle in the spin-first basis
    c = 30
    for lam, eta in ((1.3, 20.0), (1.05, 200.0)):
        p = RabiParams(lam, eta)
        alpha = phase(p).alpha
        h = build_displaced_rabi_band(p, alpha, c)
        vec = band_ground_state(h, band_ground_energy(h))
        dense_vec = np.zeros(2 * (c + 1))
        dense_vec[_spin_fastest_order(c)] = vec
        mean_n, gamma = band_moments(photon_number_band(alpha, c, 2), vec)
        ref_mean, ref_gamma = operator_moments(dense_vec,
                                               rabi_number(c, alpha))
        assert mean_n == pytest.approx(ref_mean, rel=1e-13, abs=0.0)
        assert gamma == pytest.approx(ref_gamma, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("lam, eta, probe, bound", [
    (0.5, 200.0, DEFAULT_PROBE, 1e-12),
    (0.4, 40.0, DEFAULT_PROBE, 1e-12),
    # all but decoupled: an echo sweep takes chi > 0 only, here 1e-8
    (0.5, 40.0, ProbeParams(1e-4, 1.0), 1e-12),
    (0.9, 1000.0, DEFAULT_PROBE, 1e-12),
    (0.5, 40.0, ProbeParams(0.1, 0.2), 1e-12),        # outside the dispersive regime
    # above the transition the point solves the displaced frame at cutoff
    # 16 and the tripartite check the bare one at 128, each converged to
    # 1e-8 in energy: their echoes agree to 3.5e-11
    (1.2, 200.0, DEFAULT_PROBE, 1e-7),
])
def test_tripartite_check_matches_dense_oracle(lam, eta, probe, bound):
    # the library's half of the tripartite check against the dense one: a
    # sweep point at the probe's chi records the echo sqrt(L) = |D| of the
    # dense branches on the Rabi ground state the tripartite evolution starts
    # from, at the cutoff its search chose (8 at (0.5, 40), 128 at (1.2, 200)),
    # and its delta_s_min puts the probe on the side of the dispersive
    # condition that the check's flag does, and its warning
    times = np.linspace(0.0, 20.0, 41)
    pt = _point(SweepConfig("custom", [lam], [eta], times.tolist(), probe.chi, ["exact"]),
                eta, "exact", lam)
    p = RabiParams(lam, eta)
    found = energy_search((lambda c: build_rabi(p, c),), TOL)
    dense = dense_echo(found.matrix, rabi_number(found.n_max), ground_state(found.matrix)[1],
                       probe.chi, times)
    assert np.abs(np.sqrt(pt.value) - np.abs(dense)).max() <= bound
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = validate_dispersive(p, probe, times)
    assert report.dispersive_regime == (abs(probe.delta_s) >= pt.delta_s_min)
    warned = [w for w in caught if "dispersive condition" in str(w.message)]
    assert len(warned) == (not report.dispersive_regime)


def test_band_solvers_match_dense_eigh():
    c = 40
    p = RabiParams(0.9, 50.0)
    chain = build_rabi_parity(p, c)
    displaced = build_displaced_rabi_band(RabiParams(1.2, 50.0), 2.0, c)
    for h in (chain, displaced):
        w, v = np.linalg.eigh(_dense(h))
        energy = band_ground_energy(h)
        assert energy == pytest.approx(w[0], abs=1e-11)
        vec = band_ground_state(h, energy)
        assert abs(abs(vec @ v[:, 0]) - 1.0) < 1e-12
        w_all, v_all = band_spectrum(h)
        assert np.abs(w_all - w).max() < 1e-11
        assert np.abs(_dense(h) @ v_all - v_all * w_all).max() < 1e-10
    # the even parity chain holds the ground state of both chains
    assert band_ground_energy(chain) == pytest.approx(
        band_ground_energy(build_rabi_parity_chains(p, c)), abs=1e-11
    )


def test_exact_path_matches_dense_oracle():
    # both sides of the transition; the relative bound on 1 - L sees a wrong
    # probe shift even where L stays close to 1
    eta = 1000.0
    times = np.linspace(0.0, 100.0, 21)
    lams = [0.3, 0.7, 0.95, 0.99, 1.01, 1.05, 1.2, 1.4]
    sweep = echo_sweep(eta, 1e-3, lams, times, "exact", cutoff_tol=TOL)
    for i, lam in enumerate(lams):
        p = RabiParams(lam, eta)
        dense = dense_ground(p, "exact", TOL)
        l_dense = np.abs(dense_echo(dense.h, dense.n, dense.vector, 1e-3, times)) ** 2
        gs = exact_ground_state(p, TOL)
        assert sweep.cutoffs[i] == gs.n_max == dense.n_max, lam
        assert gs.frame.alpha == dense.alpha, lam
        assert gs.energy == pytest.approx(dense.energy, rel=1e-13, abs=0.0)
        assert gs.mean_n == pytest.approx(dense.mean_n, rel=1e-9, abs=0.0)
        assert gs.gamma == pytest.approx(dense.gamma, rel=1e-9, abs=0.0)
        l_band = sweep.l_matrix[i]
        assert np.abs(l_band - l_dense).max() <= 1e-9, lam
        # relative to 1 - L, above a roundoff floor of ~500 eps on L itself
        decay = 1.0 - l_dense
        excess = np.abs((1.0 - l_band) - decay) - (1e-6 * decay + 1e-13)
        assert excess.max() <= 0.0, f"lam = {lam}: 1 - L off by {excess.max():.3g} beyond bound"


def test_exact_frame_is_the_first_to_converge():
    # above the transition the bare even chain wins where tunnelling
    # between the wells matters, the displaced band where the wells are far
    # apart (alpha^2 = 25 and 511)
    gs = exact_ground_state(RabiParams(1.005, 5000.0), TOL)
    assert (gs.frame.name, gs.frame.alpha, gs.n_max) == ("bare", 0.0, 128)
    p = RabiParams(1.05, 1e5)
    gs = exact_ground_state(p, TOL)
    assert (gs.frame.name, gs.frame.alpha, gs.n_max) == ("displaced", phase(p).alpha, 32)
    displaced = Frame(gs.frame.alpha, 2, 0.0, partial(build_displaced_rabi_band, p, gs.frame.alpha))
    assert spectra.converge_cutoff((displaced,), TOL).n_max == gs.n_max


def test_bare_chains_not_built_below_mean_field_photon_number(monkeypatch):
    # at eta = 1e5 every superradiant point converges in the displaced frame
    # below the cutoff alpha^2 >= 499, so no bare chain is built
    built = []

    def counted(p, n_max):
        built.append(n_max)
        return build_rabi_parity(p, n_max)

    monkeypatch.setattr(dynamics, "build_rabi_parity", counted)
    lams = [lam for lam in FIGURE_DEFAULTS["fig5"].lambda_grid if lam > 1.0]
    for lam in lams:
        assert exact_ground_state(RabiParams(lam, 1e5), TOL).frame.name == "displaced"
    assert built == []
    exact_ground_state(RabiParams(1.005, 5000.0), TOL)
    assert min(built) >= 32 and 128 in built  # alpha^2 = 25


@pytest.mark.parametrize("method, lam, eta, frame", [
    ("exact", 0.5, 5000.0, "bare"),
    ("exact", 1.005, 5000.0, "bare"),        # the even chain, at cutoff 128
    ("exact", 1.3, 1e5, "displaced"),        # the displaced band, at cutoff 8
    ("effective", 0.5, 5000.0, "bare"),
    ("effective", 1.3, 1e5, "displaced"),    # the full band, at cutoff 8
    ("effective", 1.01, 1e5, "displaced"),   # the full band, at cutoff 64
])
def test_each_band_is_built_once(monkeypatch, method, lam, eta, frame):
    # the cutoff search returns the band it converged on, and the ground
    # vector is solved on that band: no builder runs twice at one cutoff
    built = []
    for name in ("build_rabi_parity", "build_displaced_rabi_band", "_quartic_band",
                 "photon_number_band"):

        def counted(*args, name=name, build=getattr(dynamics, name)):
            built.append((name, inspect.signature(build).bind(*args).arguments["n_max"]))
            return build(*args)

        monkeypatch.setattr(dynamics, name, counted)
    gs = dynamics.GROUND_STATES[method](RabiParams(lam, eta), TOL)
    assert gs.frame.name == frame
    assert ("photon_number_band", gs.n_max) in built
    assert sorted(built) == sorted(set(built)), built


@pytest.mark.parametrize("method, lam, eta, names, chosen", [
    ("exact", 0.5, 1e5, ["bare"], "bare"),
    ("exact", 1.3, 1e5, ["bare", "displaced"], "displaced"),
    ("exact", 1.005, 5000.0, ["bare", "displaced"], "bare"),  # above the transition
    ("effective", 0.5, 1e5, ["bare"], "bare"),
    ("effective", 1.3, 1e5, ["displaced"], "displaced"),
    ("effective", 1.005, 5000.0, ["displaced"], "displaced"),
])
def test_every_frame_has_its_photon_number_in_its_basis(monkeypatch, method, lam, eta, names,
                                                        chosen):
    # every frame a method searches, not only the one it accepts, offers the
    # band its state would live in and the physical photon number in the same
    # basis at every cutoff, so that its probe branches can be built there
    searched = []

    def search(frames, tol):
        searched.extend(frames)
        return spectra.converge_cutoff(frames, tol)

    monkeypatch.setattr(dynamics, "converge_cutoff", search)
    gs = GROUND_STATES[method](RabiParams(lam, eta), TOL)
    assert [frame.name for frame in searched] == names
    assert gs.frame in searched and gs.frame.name == chosen
    for frame in searched:
        for n_max in (8, 16, 32, 64):
            h, n = frame.h(n_max), frame.n(n_max)
            assert h.shape[1] == n.shape[1], (frame.name, n_max)
            for branch in dynamics.probe_branches(h, n, 1e-3):
                assert branch.shape == h.shape, (frame.name, n_max)


def _even_ground(p, n_max):
    """The exact ground state on the even parity chain at a fixed cutoff."""
    frame = Frame(0.0, 1, 0.0, partial(build_rabi_parity, p))
    h, n = frame.h(n_max), frame.n(n_max)
    energy = band_ground_energy(h)
    vec = band_ground_state(h, energy)
    return dynamics.BandGround(frame, n_max, h, n, energy, vec, *band_moments(n, vec))


def test_normal_phase_point_at_cutoff_cap():
    # a near-critical point solved at the largest cutoff the search reaches
    # agrees with the same point at half that cutoff; there the library's
    # echo, on its own branches, agrees with the oracle's, D itself
    p = RabiParams(0.9999, 1e6)
    chi = 1e-3
    times = np.linspace(0.0, 100.0, 6)
    gs = _even_ground(p, CUTOFF_HARD_CAP)
    l_cap = np.abs(dense_echo(gs.h, gs.n, gs.vector, chi, times)) ** 2
    gs_half = _even_ground(p, CUTOFF_HARD_CAP // 2)
    d_half = dense_echo(gs_half.h, gs_half.n, gs_half.vector, chi, times)
    l_half = np.abs(d_half) ** 2
    assert np.abs(dynamics.decoherence_factor(gs_half, chi, times) - d_half).max() <= 1e-9
    assert l_cap[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all((l_cap >= 0.0) & (l_cap <= 1.0 + 1e-12))
    assert gs.gamma == pytest.approx(gs_half.gamma, rel=1e-9)
    assert np.abs(l_cap - l_half).max() < 1e-6
    assert gs.gamma == pytest.approx(exact_ground_state(p, TOL).gamma, rel=1e-6)


def test_effective_band_builders_equal_dense_builders():
    # entry by entry up to roundoff of the dense products, including the
    # truncation edge: row n_max of the truncated x^2 is n_max, not 2 n_max + 1
    eps = np.finfo(float).eps
    for n_max in (0, 1, 2, 3, 5, 8, 33):
        cases = []
        for lam, eta in ((0.5, 20.0), (0.99, 1e5), (1.01, 1e5), (1.3, 20.0)):
            p = RabiParams(lam, eta)
            cases.append((build_effective_np(p, n_max), build_effective_np_band(p, n_max), 5))
            if lam > 1.0:
                cases.append((build_effective_sp(p, n_max), build_effective_sp_band(p, n_max), 5))
                alpha = phase(p).alpha
                cases.append((physical_number(alpha, n_max), photon_number_band(alpha, n_max, 1), 2))
        cases.append((number(n_max), photon_number_band(0.0, n_max, 1), 2))
        for dense, band, rows in cases:
            assert band.shape == (rows, n_max + 1)
            err = np.abs(dense - _dense(band)).max()
            assert err <= 4.0 * eps * np.abs(dense).max(), (n_max, err)


def test_effective_path_matches_dense_oracle():
    # both sides of the transition at the fig5 eta; the relative bound on
    # 1 - L sees a wrong probe shift even where L stays close to 1. The dense
    # echo is taken without the Hamiltonian's constant (-eta/2 at leading
    # order), a global phase of D, which `dense_ground` leaves out of `h`:
    # kept in, its roundoff eps eta t is noise of up to 1.2e-9 on the dense L
    # at t = 100 (lam = 1.4, over chi within four ulp of 1e-3), above the bound
    eta, chi = 1e5, 1e-3
    times = np.linspace(0.0, 100.0, 21)
    lams = [0.3, 0.7, 0.95, 0.99, 1.01, 1.05, 1.2, 1.4]
    sweep = echo_sweep(eta, chi, lams, times, "effective", cutoff_tol=TOL)
    for i, lam in enumerate(lams):
        p = RabiParams(lam, eta)
        gs = dense_ground(p, "effective", TOL)
        l_dense = np.abs(dense_echo(gs.h, gs.n, gs.vector, chi, times)) ** 2
        assert sweep.cutoffs[i] == gs.n_max, lam
        assert effective_ground_state(p, TOL).gamma == pytest.approx(gs.gamma, rel=1e-9, abs=0.0)
        l_band = sweep.l_matrix[i]
        assert np.abs(l_band - l_dense).max() <= 1e-9, lam
        decay = 1.0 - l_dense
        excess = np.abs((1.0 - l_band) - decay) - (1e-6 * decay + 1e-13)
        assert excess.max() <= 0.0, f"lam = {lam}: 1 - L off by {excess.max():.3g} beyond bound"


def test_effective_branches_carry_no_constant():
    # the effective Hamiltonian's constant (-eta/2 at leading order) is
    # common to both branches, a global phase of D; left in the branch bands,
    # its roundoff eps eta grows into a phase error of L with t (up to
    # 7e-9 at eta = 1e6, t = 100). Oracle: the dense path, whose `h` leaves
    # the constant out, at the sweep's cutoff. The ground vector is solved
    # without the constant too: kept in, its roundoff, of order eps eta / gap,
    # left 2.2e-11 at lam = 1.01, eta = 1e6.
    chi = 1e-3
    times = np.linspace(0.0, 100.0, 21)
    lams = [0.3, 0.7, 0.95, 0.99, 1.01, 1.2, 1.4]
    for eta, bound in ((1e5, 1e-11), (1e6, 1e-11)):
        sweep = echo_sweep(eta, chi, lams, times, "effective", cutoff_tol=TOL)
        for i, lam in enumerate(lams):
            gs = dense_ground(RabiParams(lam, eta), "effective", TOL)
            assert gs.n_max == sweep.cutoffs[i], (eta, lam)
            l_dense = np.abs(dense_echo(gs.h, gs.n, gs.vector, chi, times)) ** 2
            err = np.abs(sweep.l_matrix[i] - l_dense).max()
            assert err <= bound, (eta, lam, err)


def test_effective_ground_records_match_dense(tmp_path):
    # the fig1 (lam = 0.99) and fig2 (lam = 1.01) effective rows
    for figure in ("fig1", "fig2"):
        cfg = dataclasses.replace(FIGURE_DEFAULTS[figure], methods=["effective"])
        points = run(cfg, tmp_path / figure)
        assert len(points) == len(cfg.eta_grid)
        report = json.loads((tmp_path / figure / "report.json").read_text(encoding="utf-8"))
        assert report["value_name"] == ["energy", "mean_n"]
        for pt in points:
            p = RabiParams(pt.lam, pt.eta)
            gs = dense_ground(p, "effective", TOL)
            assert pt.cutoff == gs.n_max
            energy, n = pt.value
            assert energy == pytest.approx(gs.energy, rel=1e-13, abs=0.0), (figure, pt)
            assert n == pytest.approx(gs.mean_n, rel=1e-9, abs=0.0), (figure, pt)


def test_inverse_iteration_vector_matches_eig_banded():
    # near the transition, where the gap is small and eta scales ||H||: the
    # displaced and effective bands against eig_banded, the even parity chain
    # against eigh_tridiagonal
    cases = []
    for lam, eta, n_max in ((1.005, 5000.0, 512), (1.005, 1e5, 512), (0.995, 1e5, 256)):
        p = RabiParams(lam, eta)
        cases += [build_effective_np_band(p, n_max)] if lam < 1.0 else [
            build_displaced_rabi_band(p, phase(p).alpha, n_max), build_effective_sp_band(p, n_max)]
    for lam, eta, n_max in ((0.995, 1e5, 256), (1.005, 5000.0, 128), (0.9999, 1e6, 2048)):
        cases.append(build_rabi_parity(RabiParams(lam, eta), n_max))
    for h in cases:
        energy = band_ground_energy(h)
        vec = band_ground_state(h, energy)
        if h.shape[0] == 2:
            w, v = eigh_tridiagonal(h[0], h[1, :-1], select="i", select_range=(0, 0))
        else:
            w, v = eig_banded(h, lower=True, select="i", select_range=(0, 0))
        vec, ref = fix_sign(vec), fix_sign(v[:, 0])
        assert energy == w[0]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(vec - ref).max() < 1e-9, (h.shape, np.abs(vec - ref).max())
        resid = _dense(h) @ vec - energy * vec
        assert np.linalg.norm(resid) <= 8.0 * np.finfo(float).eps * np.abs(_dense(h)).sum(axis=1).max()


def test_effective_even_search_matches_full_band_with_constant():
    # the effective method searches its cutoff on the constant-free even
    # block; the full band with the constant must pick the same cutoff, and
    # its ground energy there agree, on the fig1/fig2 and fig5 grids
    fig5 = FIGURE_DEFAULTS["fig5"]
    cases = [(lam, eta) for figure in ("fig1", "fig2")
             for lam in FIGURE_DEFAULTS[figure].lambda_grid
             for eta in FIGURE_DEFAULTS[figure].eta_grid]
    cases += [(lam, eta) for lam in fig5.lambda_grid for eta in fig5.eta_grid]
    for lam, eta in cases:
        p = RabiParams(lam, eta)
        build = build_effective_sp_band if lam > 1.0 else build_effective_np_band
        cutoff = spectra.converge_cutoff((Frame(0.0, 1, 0.0, partial(build, p)),), TOL).n_max
        gs = dynamics.effective_ground_state(p, TOL)
        assert gs.n_max == cutoff, (lam, eta)
        energy = band_ground_energy(build(p, cutoff))
        assert gs.energy == pytest.approx(energy, rel=1e-12, abs=0.0), (lam, eta)


def test_ground_vector_from_the_search_energy_is_bitwise_the_bisected_one():
    # the ground vector is solved at the energy its cutoff search bisected,
    # not at a second bisection of the same band, in either frame
    for lam, eta, frame in ((1.005, 1e5, "displaced"), (1.05, 1e5, "displaced"),
                            (1.3, 200.0, "displaced"), (1.005, 5000.0, "bare"),
                            (0.99, 1e5, "bare"), (0.9999, 1e6, "bare")):
        p = RabiParams(lam, eta)
        gs = exact_ground_state(p, TOL)
        assert gs.frame.name == frame, (lam, eta)
        if gs.frame.alpha:
            h = build_displaced_rabi_band(p, gs.frame.alpha, gs.n_max)
        else:
            h = build_rabi_parity(p, gs.n_max)
        energy = band_ground_energy(h)
        vec = band_ground_state(h, energy)
        assert np.array_equal(gs.h, h)
        assert gs.energy == energy
        assert np.array_equal(gs.vector, vec)


def test_cutoff_search_returns_the_energy_at_its_cutoff():
    # `converge_cutoff` hands over the ground energy it bisected at the chosen
    # cutoff, in the frame that converged there, and the solve reports it
    p = RabiParams(1.05, 1e5)
    alpha = phase(p).alpha
    frames = (Frame(0.0, 1, 0.0, partial(build_rabi_parity, p)),
              Frame(alpha, 2, 0.0, partial(build_displaced_rabi_band, p, alpha)))
    found = spectra.converge_cutoff(frames, TOL)
    assert (found.frame, found.n_max) == (frames[1], 32)
    assert found.energy == band_ground_energy(build_displaced_rabi_band(p, alpha, found.n_max))
    assert exact_ground_state(p, TOL).energy == found.energy


def _eps_norm(h: np.ndarray) -> float:
    """eps ||H||_inf of the band `h`."""
    return np.finfo(float).eps * np.abs(_dense(h)).sum(axis=1).max()


def test_inverse_iteration_raises_when_residual_not_met(monkeypatch):
    h = build_effective_np_band(RabiParams(0.9, 1e3), 16)
    # 1e3 eps ||H|| below E0 the shift still lies below the spectrum and the
    # vector converges to the ground vector, but its residual at that energy,
    # about 1e3 eps ||H||, exceeds the bound
    with pytest.raises(ConvergenceError, match="no ground vector"):
        band_ground_state(h, band_ground_energy(h) - 1e3 * _eps_norm(h))
    # with no residual admitted, every one of the INVERSE_ITERATION_MAX solves runs
    monkeypatch.setattr(spectra, "RESIDUAL_EPS", 0.0)
    solves, solve = [], spectra.dpbtrs
    monkeypatch.setattr(spectra, "dpbtrs", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    with pytest.raises(ConvergenceError):
        band_ground_state(h, band_ground_energy(h))
    assert len(solves) == spectra.INVERSE_ITERATION_MAX


@pytest.mark.parametrize("frame", ["bare", "displaced"])
def test_inverse_iteration_raises_above_the_lowest_eigenvalue(frame):
    # on the even parity chain and the displaced band (half-width 3): 100
    # eps ||H|| above E0 the shift lies above E0 too, so H - shift is not
    # positive definite, and the band Cholesky factorisation reports it
    p = RabiParams(1.2, 200.0)
    h = build_rabi_parity(p, 32) if frame == "bare" else (
        build_displaced_rabi_band(p, phase(p).alpha, 32))
    with pytest.raises(ConvergenceError, match="dpbtrf"):
        band_ground_state(h, band_ground_energy(h) + 100.0 * _eps_norm(h))


def test_inverse_iteration_takes_a_third_solve_when_the_second_misses(monkeypatch):
    # a 2 x 2 block with eigenvalues 0 and 16 eps ||H||, four times the shift's
    # distance below E0 = 0, so each solve damps the excited component 5x, and
    # a diagonal 1 that sets ||H||; the uniform start vector overlaps the
    # block's eigenvectors 1 : 30. The residuals after one, two and three
    # solves are about 21, 12 and 4 eps ||H||, so only the third meets the bound
    eps = np.finfo(float).eps
    excited = np.array([14.5, 15.5]) / np.hypot(14.5, 15.5)
    gap = 16.0 * eps
    h = np.array([[gap * excited[0] ** 2, gap * excited[1] ** 2, 1.0],
                  [gap * excited[0] * excited[1], 0.0, 0.0]])
    solves, solve = [], spectra.dpbtrs
    monkeypatch.setattr(spectra, "dpbtrs", lambda *a, **kw: solves.append(1) or solve(*a, **kw))
    energy = band_ground_energy(h)
    vec = band_ground_state(h, energy)
    assert abs(energy) < 1e-3 * eps
    assert len(solves) == 3
    assert np.linalg.norm(_dense(h) @ vec - energy * vec) <= spectra.RESIDUAL_EPS * _eps_norm(h)


def test_inverse_iteration_shift_bound_counts_the_off_diagonals():
    # the displaced band at lam = 3, eta = 1e4, whose off-diagonals dominate
    # ||H||_inf: its diagonal is 22% of b = eps (max |diagonal| + 2 sum of
    # each off-diagonal's max |entry|). Given E0 + 2 b, the shift 4 b below it
    # lies 2 b below E0, and the vector is the ground vector; a bound without
    # the off-diagonals would put the shift about 1.1 b above E0
    p = RabiParams(3.0, 1e4)
    h = build_displaced_rabi_band(p, phase(p).alpha, 100)
    row_max, eps = np.abs(h).max(axis=1), np.finfo(float).eps
    b = eps * (row_max[0] + 2.0 * row_max[1:].sum())
    assert eps * row_max[0] < 0.25 * b
    energy = band_ground_energy(h)
    vec = band_ground_state(h, energy + 2.0 * b)
    ref = eig_banded(h, lower=True, select="i", select_range=(0, 0))[1][:, 0]
    assert np.abs(fix_sign(vec) - fix_sign(ref)).max() < 1e-9
    assert np.linalg.norm(_dense(h) @ vec - energy * vec) <= spectra.RESIDUAL_EPS * b


@pytest.mark.parametrize("method", ["exact", "effective"])
@pytest.mark.parametrize("lam", [0.9, 1.2])
def test_ground_state_observables_ignore_the_vectors_sign(method, lam):
    # the ground vector's global sign is not fixed: the photon moments and the
    # echo |D|^2 of the negated vector equal the vector's bit for bit
    gs = GROUND_STATES[method](RabiParams(lam, 200.0), TOL)
    flipped = dataclasses.replace(gs, vector=-gs.vector)
    times = np.linspace(0.0, 20.0, 11)
    assert band_moments(gs.n, flipped.vector) == band_moments(gs.n, gs.vector)
    echo = np.abs(dynamics.decoherence_factor(gs, 1e-3, times)) ** 2
    assert np.array_equal(np.abs(dynamics.decoherence_factor(flipped, 1e-3, times)) ** 2, echo)
