"""The exact and effective methods' structured real solvers against the
dense oracle.

The exact method solves the Rabi Hamiltonian as a real tridiagonal matrix
(the even parity chain of the bare frame) or as a real band matrix of
half-width 3 (the displaced frame). Below the transition it uses the bare
frame; above it, the first frame whose ground energy converges in one
doubling search (bare first at each cutoff, and not below the mean-field
photon number alpha_lambda^2). The effective method solves its fourth-order
Hamiltonians, without their constants, on the even photon numbers in both
phases: real band matrices of half-width 2. The dense complex `Operator` path below (cutoff
doubling over the same frames, `ground_state`, dense branches and
`decoherence_factor`) is the reference they must reproduce.
"""

import warnings

import numpy as np
import pytest

from scipy.linalg import eig_banded, eigh_tridiagonal

import rabicrit.dynamics as dynamics
import rabicrit.spectra as spectra
from oracle import (
    QuantumState,
    _quartic_dense,
    build_branch,
    build_displaced_rabi,
    build_effective_np,
    build_effective_np_band,
    build_effective_sp,
    build_effective_sp_band,
    build_rabi,
    build_rabi_parity_chains,
    build_tripartite,
    converge_cutoff,
    decoherence_factor,
    echo_sweep,
    effective_np_coeffs,
    effective_sp_coeffs,
    ground_state,
    identity,
    number,
    operator_moments,
    photon_moments,
    quadrature_x,
    tensor,
)
from oracle import validate_dispersive as dense_validate_dispersive
from rabicrit.dynamics import exact_ground_state
from rabicrit.errors import ConvergenceError
from rabicrit.experiments import default_config, run, validate_dispersive
from rabicrit.hamiltonians import (
    ProbeParams,
    RabiParams,
    alpha_lambda,
    build_displaced_rabi_band,
    build_rabi_parity,
    build_tripartite_band,
    photon_number_band,
)
from rabicrit.hilbert import BandMatrix, FockCutoff
from rabicrit.spectra import (
    CUTOFF_HARD_CAP,
    band_ground_energy,
    band_ground_state,
    band_moments,
    band_spectrum,
)

TOL = 1e-8


def _dense(h: BandMatrix) -> np.ndarray:
    """The full symmetric matrix stored in `h`."""
    n = h.dim
    mat = np.zeros((n, n))
    for k in range(min(h.band.shape[0], n)):
        i = np.arange(n - k)
        mat[i + k, i] = mat[i, i + k] = h.band[k, : n - k]
    return mat


def _parity_order(cutoff):
    """Dense (spin-first) index of each row of `build_rabi_parity_chains`."""
    k = np.arange(cutoff.dim)
    g, e = cutoff.dim + k, k
    return np.concatenate([np.where(k % 2 == 0, g, e), np.where(k % 2 == 0, e, g)])


def _spin_fastest_order(cutoff):
    """Dense (spin-first) index of each row of `build_displaced_rabi_band`."""
    k = np.arange(cutoff.dim)
    return np.column_stack([k, cutoff.dim + k]).ravel()


def _dense_exact(p, probe, times, tol=TOL):
    """(cutoff, energy, mean_n, gamma, L) by the dense complex path, in the
    frame that converges first: the bare frame below the transition; above
    it, one doubling search over the bare frame and then the displaced one
    at each cutoff."""
    bare = lambda c: build_rabi(p, c)
    if p.lam <= 1.0:
        alpha, cutoff = 0.0, converge_cutoff(bare, tol)
    else:
        alpha = alpha_lambda(p)
        found = converge_cutoff((bare, lambda c: build_displaced_rabi(p, alpha, c)[0]), tol)
        alpha, cutoff = (0.0, alpha)[found.frame], found.cutoff
    if alpha == 0.0:
        gs = ground_state(bare(cutoff))
        h_g = build_branch(p, probe, "g", cutoff)
        h_e = build_branch(p, probe, "e", cutoff)
        mean_n, gamma = photon_moments(gs.state)
    else:
        gs = ground_state(build_displaced_rabi(p, alpha, cutoff)[0])

        def branch(omega_b, const):
            h, _ = build_displaced_rabi(RabiParams(omega_b, p.omega_0, p.g), alpha, cutoff)
            return h + const * identity(h.dims)

        h_g = branch(p.omega_c - probe.chi, -0.5 * probe.omega_s)
        h_e = branch(p.omega_c + probe.chi, 0.5 * probe.omega_s + probe.chi)
        n_phys = _dense_photon_number(alpha, cutoff)
        mean_n, gamma = operator_moments(gs.state, n_phys)
    series = decoherence_factor(h_g, h_e, gs.state, times)
    return cutoff, gs.energy, mean_n, gamma, series.l_values


def _dense_photon_number(alpha, cutoff):
    """I_2 (x) (n + alpha x + alpha^2), spin first, by the dense oracle."""
    n_dense = number(cutoff) + alpha * quadrature_x(cutoff) + alpha**2 * identity((cutoff.dim,))
    return tensor(identity((2,)), n_dense)


def test_band_builders_are_permuted_dense_builders():
    c = FockCutoff(9)
    p = RabiParams.from_dimensionless(0.8, 20.0)
    order = _parity_order(c)
    dense = build_rabi(p, c).mat
    assert np.abs(dense.imag).max() == 0.0
    chains = build_rabi_parity_chains(p, c)
    assert np.array_equal(dense.real[np.ix_(order, order)], _dense(chains))
    # the even chain is the leading block, split off by a zero entry
    assert chains.band[1, c.n_max] == 0.0
    assert np.array_equal(build_rabi_parity(p, c).band, chains.band[:, :c.dim])
    p = RabiParams.from_dimensionless(1.3, 20.0)
    alpha = alpha_lambda(p)
    order = _spin_fastest_order(c)
    dense = build_displaced_rabi(p, alpha, c)[0].mat.real
    assert np.array_equal(dense[np.ix_(order, order)], _dense(build_displaced_rabi_band(p, alpha, c)))
    # the physical photon number in the same spin-fastest basis
    n_band = photon_number_band(alpha, c, 2)
    assert n_band.band.shape == (3, 2 * c.dim)
    dense = _dense_photon_number(alpha, c).mat
    assert np.abs(dense.imag).max() == 0.0
    assert np.array_equal(dense.real[np.ix_(order, order)], _dense(n_band))


def test_probe_branches_equal_the_builders_at_shifted_cavity_frequency():
    # H -/+ chi N is the Hamiltonian rebuilt at omega_c -/+ chi, on the even
    # parity chain and in the displaced frame, with no constant: the probe's
    # energy (-omega_s/2 and omega_s/2 + chi) changes only the phase of D,
    # so a probe of the same chi at another omega_s gives the same branches
    eps = np.finfo(float).eps
    c = FockCutoff(40)
    probe = ProbeParams(6.0, 0.05, 5.0)
    same_chi = ProbeParams(2.0, 0.05, 5.0)
    for lam, eta in ((0.8, 20.0), (1.3, 20.0), (1.05, 1e5)):
        p = RabiParams.from_dimensionless(lam, eta)
        shifted = [RabiParams(p.omega_c + sign * probe.chi, p.omega_0, p.g) for sign in (-1, 1)]
        cases = [(lambda q: build_rabi_parity(q, c), photon_number_band(0.0, c, 1))]
        if lam > 1.0:
            alpha = alpha_lambda(p)
            cases.append((lambda q: build_displaced_rabi_band(q, alpha, c),
                          photon_number_band(alpha, c, 2)))
        for build, n in cases:
            h = build(p)
            branches = dynamics.probe_branches(h, n, probe)
            for branch, q in zip(branches, shifted):
                ref = build(q)
                assert branch.band.shape == ref.band.shape
                err = np.abs(branch.band - ref.band).max()
                assert err <= 4.0 * eps * np.abs(ref.band).max(), (lam, eta, err)
            for branch, other in zip(branches, dynamics.probe_branches(h, n, same_chi)):
                assert np.array_equal(branch.band, other.band)


def test_band_moments_match_dense_operator_moments():
    # the physical photon number's moments of the displaced band's ground
    # vector, spin-fastest, against the dense oracle in the spin-first basis
    c = FockCutoff(30)
    for lam, eta in ((1.3, 20.0), (1.05, 200.0)):
        p = RabiParams.from_dimensionless(lam, eta)
        alpha = alpha_lambda(p)
        _, vec = band_ground_state(build_displaced_rabi_band(p, alpha, c))
        dense_vec = np.zeros(2 * c.dim)
        dense_vec[_spin_fastest_order(c)] = vec
        mean_n, gamma = band_moments(photon_number_band(alpha, c, 2), vec)
        ref_mean, ref_gamma = operator_moments(QuantumState(dense_vec, (2, c.dim)),
                                               _dense_photon_number(alpha, c))
        assert mean_n == pytest.approx(ref_mean, rel=1e-13, abs=0.0)
        assert gamma == pytest.approx(ref_gamma, rel=1e-11, abs=0.0)


def test_tripartite_band_is_permuted_dense_tripartite():
    # band row 4 k + 2 s_probe + s_rabi is dense row
    # (s_probe, s_rabi, k) of the probe (x) Rabi spin (x) Fock product
    c = FockCutoff(9)
    k, s_probe, s_rabi = np.meshgrid(np.arange(c.dim), [0, 1], [0, 1], indexing="ij")
    order = (2 * c.dim * s_probe + c.dim * s_rabi + k).ravel()
    for lam, probe in ((0.8, ProbeParams(6.0, 0.05, 5.0)), (1.3, ProbeParams(1.2, 0.1, 0.2))):
        p = RabiParams.from_dimensionless(lam, 20.0)
        dense = build_tripartite(p, probe, c).mat
        band = build_tripartite_band(p, probe, c)
        assert band.band.shape == (7, 4 * c.dim)
        assert np.abs(dense.imag).max() == 0.0
        assert np.array_equal(dense.real[np.ix_(order, order)], _dense(band))


DEFAULT_PROBE = ProbeParams(6.0, 0.05, 5.0)  # the CLI's g_s = 0.05, Delta_s / g_s = 100


@pytest.mark.parametrize("lam, eta, probe, n_max, bound", [
    (0.5, 200.0, DEFAULT_PROBE, None, 1e-12),
    (0.4, 40.0, DEFAULT_PROBE, None, 1e-12),
    (0.5, 40.0, ProbeParams(2.0, 0.0, 1.0), 24, 1e-12),   # decoupled probe
    (0.9, 1000.0, DEFAULT_PROBE, None, 1e-12),
    (0.5, 40.0, ProbeParams(1.2, 0.1, 0.2), 24, 1e-12),   # outside the dispersive regime
    # above the transition the ground doublet is nearly degenerate, so the
    # tripartite eigenvectors carry more roundoff
    (1.2, 200.0, DEFAULT_PROBE, 128, 1e-7),
])
def test_tripartite_check_matches_dense_oracle(lam, eta, probe, n_max, bound):
    p = RabiParams.from_dimensionless(lam, eta)
    cutoff = FockCutoff(n_max) if n_max else None
    times = np.linspace(0.0, 20.0, 41)
    reports = []
    for check in (validate_dispersive, dense_validate_dispersive):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = check(p, probe, times, cutoff=cutoff)
        reports.append((report, [str(w.message) for w in caught]))
    (band, band_warnings), (dense, dense_warnings) = reports
    assert np.abs(band.coherence_exact - dense.coherence_exact).max() <= bound
    assert np.abs(band.coherence_predicted - dense.coherence_predicted).max() <= bound
    assert band.dispersive_regime == dense.dispersive_regime
    assert band_warnings == dense_warnings


def test_band_solvers_match_dense_eigh():
    c = FockCutoff(40)
    p = RabiParams.from_dimensionless(0.9, 50.0)
    chain = build_rabi_parity(p, c)
    displaced = build_displaced_rabi_band(RabiParams.from_dimensionless(1.2, 50.0), 2.0, c)
    for h in (chain, displaced):
        w, v = np.linalg.eigh(_dense(h))
        assert band_ground_energy(h) == pytest.approx(w[0], abs=1e-11)
        energy, vec = band_ground_state(h)
        assert energy == pytest.approx(w[0], abs=1e-11)
        assert abs(abs(vec @ v[:, 0]) - 1.0) < 1e-12
        assert vec[np.argmax(np.abs(vec))] > 0.0
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
    probe = ProbeParams.from_chi(1e-3)
    times = np.linspace(0.0, 100.0, 21)
    lams = [0.3, 0.7, 0.95, 0.99, 1.01, 1.05, 1.2, 1.4]
    sweep = echo_sweep(eta, probe, lams, times, "exact", cutoff_tol=TOL)
    for i, lam in enumerate(lams):
        p = RabiParams.from_dimensionless(lam, eta)
        cutoff, energy, mean_n, gamma, l_dense = _dense_exact(p, probe, times)
        gs = exact_ground_state(p, TOL)
        assert sweep.cutoffs[i] == gs.cutoff.n_max == cutoff.n_max, lam
        assert gs.energy == pytest.approx(energy, rel=1e-13, abs=0.0)
        assert gs.mean_n == pytest.approx(mean_n, rel=1e-9, abs=0.0)
        assert gs.gamma == pytest.approx(gamma, rel=1e-9, abs=0.0)
        assert sweep.gammas[i] == pytest.approx(gamma, rel=1e-9, abs=0.0)
        l_band = sweep.l_matrix[i]
        assert np.abs(l_band - l_dense).max() <= 1e-9, lam
        # relative to 1 - L, above a roundoff floor of ~500 eps on L itself
        decay = 1.0 - l_dense
        excess = np.abs((1.0 - l_band) - decay) - (1e-6 * decay + 1e-13)
        assert excess.max() <= 0.0, f"lam = {lam}: 1 - L off by {excess.max():.3g} beyond bound"


def test_exact_frame_is_the_first_to_converge():
    # above the transition the bare even chain wins where tunnelling
    # between the wells matters, the displaced band where the wells are far
    # apart (alpha_lambda^2 = 25 and 511)
    gs = exact_ground_state(RabiParams.from_dimensionless(1.005, 5000.0), TOL)
    assert (gs.frame, gs.alpha, gs.cutoff.n_max) == ("bare", 0.0, 128)
    p = RabiParams.from_dimensionless(1.05, 1e5)
    gs = exact_ground_state(p, TOL)
    assert (gs.frame, gs.alpha, gs.cutoff.n_max) == ("displaced", alpha_lambda(p), 32)
    displaced = lambda c: build_displaced_rabi_band(p, gs.alpha, c)
    assert spectra.converge_cutoff((displaced,), TOL).cutoff == gs.cutoff


def test_bare_chains_not_built_below_mean_field_photon_number(monkeypatch):
    # at eta = 1e5 every superradiant point converges in the displaced frame
    # below the cutoff alpha_lambda^2 >= 499, so no bare chain is built
    built = []

    def counted(p, cutoff):
        built.append(cutoff.n_max)
        return build_rabi_parity(p, cutoff)

    monkeypatch.setattr(dynamics, "build_rabi_parity", counted)
    lams = [lam for lam in default_config("fig5").lambda_grid if lam > 1.0]
    for lam in lams:
        assert exact_ground_state(RabiParams.from_dimensionless(lam, 1e5), TOL).frame == "displaced"
    assert built == []
    exact_ground_state(RabiParams.from_dimensionless(1.005, 5000.0), TOL)
    assert min(built) >= 32 and 128 in built  # alpha_lambda^2 = 25


def _even_chain(p, probe, cutoff):
    """(gamma, (h_g, h_e), ground vector) on the even parity chain at a fixed
    cutoff, the branches rebuilt at omega_c -/+ chi."""

    def chain(omega_c):
        return build_rabi_parity(RabiParams(omega_c, p.omega_0, p.g), cutoff)

    _, vec = band_ground_state(chain(p.omega_c))
    _, gamma = band_moments(photon_number_band(0.0, cutoff, 1), vec)
    return gamma, (chain(p.omega_c - probe.chi), chain(p.omega_c + probe.chi)), vec


def test_normal_phase_point_at_cutoff_cap():
    # a near-critical point solved at the largest cutoff the search reaches
    # agrees with the same point at half that cutoff; there the library's
    # echo, on the same branches, agrees with the oracle's, D itself
    p = RabiParams.from_dimensionless(0.9999, 1e6)
    probe = ProbeParams.from_chi(1e-3)
    times = np.linspace(0.0, 100.0, 6)
    gamma, branches, vec = _even_chain(p, probe, FockCutoff(CUTOFF_HARD_CAP))
    l_cap = decoherence_factor(*branches, QuantumState(vec), times).l_values
    gamma_half, branches, vec = _even_chain(p, probe, FockCutoff(CUTOFF_HARD_CAP // 2))
    half = decoherence_factor(*branches, QuantumState(vec), times)
    l_half = half.l_values
    assert np.abs(dynamics.decoherence_factor(*branches, vec, times) - half.d_values).max() <= 1e-9
    assert l_cap[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all((l_cap >= 0.0) & (l_cap <= 1.0 + 1e-12))
    assert gamma == pytest.approx(gamma_half, rel=1e-9)
    assert np.abs(l_cap - l_half).max() < 1e-6
    sweep = echo_sweep(p.eta, probe, [p.lam], times, "exact", cutoff_tol=TOL)
    assert gamma == pytest.approx(sweep.gammas[0], rel=1e-6)


def _dense_effective(p, tol=TOL):
    """(cutoff, ground, dense h0, dense physical photon number) of the effective
    method by the dense complex path."""
    if p.lam <= 1.0:
        builder = lambda c: build_effective_np(p, c)
        n_phys = number
    else:
        alpha = alpha_lambda(p)
        builder = lambda c: build_effective_sp(p, c)
        n_phys = lambda c: number(c) + alpha * quadrature_x(c) + alpha**2 * identity((c.dim,))
    cutoff = converge_cutoff(builder, tol)
    h0 = builder(cutoff)
    return cutoff, ground_state(h0), h0, n_phys(cutoff)


def test_effective_band_builders_equal_dense_builders():
    # entry by entry up to roundoff of the dense products, including the
    # truncation edge: row n_max of the truncated x^2 is n_max, not 2 n_max + 1
    eps = np.finfo(float).eps
    for n_max in (1, 2, 3, 5, 8, 33):
        c = FockCutoff(n_max)
        cases = []
        for lam, eta in ((0.5, 20.0), (0.99, 1e5), (1.01, 1e5), (1.3, 20.0)):
            p = RabiParams.from_dimensionless(lam, eta)
            cases.append((build_effective_np(p, c), build_effective_np_band(p, c), 5))
            if lam > 1.0:
                cases.append((build_effective_sp(p, c), build_effective_sp_band(p, c), 5))
                alpha = alpha_lambda(p)
                n_dense = number(c) + alpha * quadrature_x(c) + alpha**2 * identity((c.dim,))
                cases.append((n_dense, photon_number_band(alpha, c, 1), 2))
        cases.append((number(c), photon_number_band(0.0, c, 1), 2))
        for dense, band, rows in cases:
            assert band.band.shape == (rows, c.dim)
            assert np.abs(dense.mat.imag).max() == 0.0
            err = np.abs(dense.mat.real - _dense(band)).max()
            assert err <= 4.0 * eps * np.abs(dense.mat).max(), (n_max, err)


def test_effective_path_matches_dense_oracle():
    # both sides of the transition at the fig5 eta; the relative bound on
    # 1 - L sees a wrong probe shift even where L stays close to 1
    eta = 1e5
    probe = ProbeParams.from_chi(1e-3)
    times = np.linspace(0.0, 100.0, 21)
    lams = [0.3, 0.7, 0.95, 0.99, 1.01, 1.05, 1.2, 1.4]
    sweep = echo_sweep(eta, probe, lams, times, "effective", cutoff_tol=TOL)
    for i, lam in enumerate(lams):
        p = RabiParams.from_dimensionless(lam, eta)
        cutoff, gs, h0, n_phys = _dense_effective(p)
        ident = identity(h0.dims)
        h_g = h0 - probe.chi * n_phys + (-0.5 * probe.omega_s) * ident
        h_e = h0 + probe.chi * n_phys + (0.5 * probe.omega_s + probe.chi) * ident
        _, gamma = operator_moments(gs.state, n_phys)
        l_dense = decoherence_factor(h_g, h_e, gs.state, times).l_values
        assert sweep.cutoffs[i] == cutoff.n_max, lam
        assert sweep.gammas[i] == pytest.approx(gamma, rel=1e-9, abs=0.0)
        l_band = sweep.l_matrix[i]
        assert np.abs(l_band - l_dense).max() <= 1e-9, lam
        decay = 1.0 - l_dense
        excess = np.abs((1.0 - l_band) - decay) - (1e-6 * decay + 1e-13)
        assert excess.max() <= 0.0, f"lam = {lam}: 1 - L off by {excess.max():.3g} beyond bound"


def test_effective_branches_carry_no_constant():
    # the effective Hamiltonian's constant (-omega_0/2 at leading order) is
    # common to both branches, a global phase of D; left in the branch bands,
    # its roundoff eps omega_0 grows into a phase error of L with t (up to
    # 7e-9 at eta = 1e6, t = 100). Oracle: the dense path with the constant
    # left out, at the sweep's cutoff. The ground vector is solved without the
    # constant too: kept in, its roundoff, of order eps omega_0 / gap, left
    # 2.2e-11 at lam = 1.01, eta = 1e6.
    probe = ProbeParams.from_chi(1e-3)
    times = np.linspace(0.0, 100.0, 21)
    lams = [0.3, 0.7, 0.95, 0.99, 1.01, 1.2, 1.4]
    for eta, bound in ((1e5, 1e-11), (1e6, 1e-11)):
        sweep = echo_sweep(eta, probe, lams, times, "effective", cutoff_tol=TOL)
        for i, lam in enumerate(lams):
            p = RabiParams.from_dimensionless(lam, eta)
            cutoff = FockCutoff(sweep.cutoffs[i])
            if lam <= 1.0:
                (c2, c4, _), alpha = effective_np_coeffs(p), 0.0
            else:
                (c2, c4, _), alpha = effective_sp_coeffs(p), alpha_lambda(p)
            h0 = _quartic_dense(p.omega_c, c2, c4, 0.0, cutoff)
            ident = identity(h0.dims)
            n_phys = number(cutoff) + alpha * quadrature_x(cutoff) + alpha**2 * ident
            h_g = h0 - probe.chi * n_phys + (-0.5 * probe.omega_s) * ident
            h_e = h0 + probe.chi * n_phys + (0.5 * probe.omega_s + probe.chi) * ident
            l_dense = decoherence_factor(h_g, h_e, ground_state(h0).state, times).l_values
            err = np.abs(sweep.l_matrix[i] - l_dense).max()
            assert err <= bound, (eta, lam, err)


def test_effective_ground_records_match_dense(tmp_path):
    # the fig1 (lam = 0.99) and fig2 (lam = 1.01) effective rows
    for figure in ("fig1", "fig2"):
        cfg = default_config(figure)
        cfg.methods = ["effective"]
        points = run(cfg, tmp_path / figure)
        assert len(points) == len(cfg.eta_grid)
        for pt in points:
            p = RabiParams.from_dimensionless(pt.lam, pt.eta)
            cutoff, gs, _, n_phys = _dense_effective(p)
            mean_n, _ = operator_moments(gs.state, n_phys)
            assert pt.cutoff == cutoff.n_max
            assert pt.value_name == ["energy", "mean_n"]
            energy, n = pt.value
            assert energy == pytest.approx(gs.energy, rel=1e-13, abs=0.0), (figure, pt)
            assert n == pytest.approx(mean_n, rel=1e-9, abs=0.0), (figure, pt)


def test_inverse_iteration_vector_matches_eig_banded():
    # near the transition, where the gap is small and eta scales ||H||: the
    # displaced and effective bands against eig_banded, the even parity chain
    # against eigh_tridiagonal
    cases = []
    for lam, eta, n_max in ((1.005, 5000.0, 512), (1.005, 1e5, 512), (0.995, 1e5, 256)):
        p, c = RabiParams.from_dimensionless(lam, eta), FockCutoff(n_max)
        cases += [build_effective_np_band(p, c)] if lam < 1.0 else [
            build_displaced_rabi_band(p, alpha_lambda(p), c), build_effective_sp_band(p, c)]
    for lam, eta, n_max in ((0.995, 1e5, 256), (1.005, 5000.0, 128), (0.9999, 1e6, 2048)):
        cases.append(build_rabi_parity(RabiParams.from_dimensionless(lam, eta), FockCutoff(n_max)))
    for h in cases:
        energy, vec = band_ground_state(h)
        if h.band.shape[0] == 2:
            w, v = eigh_tridiagonal(h.band[0], h.band[1, :-1], select="i", select_range=(0, 0))
        else:
            w, v = eig_banded(h.band, lower=True, select="i", select_range=(0, 0))
        ref = v[:, 0] * np.sign(v[np.argmax(np.abs(v[:, 0])), 0])
        assert energy == w[0]
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
        assert np.abs(vec - ref).max() < 1e-9, (h.band.shape, np.abs(vec - ref).max())
        resid = _dense(h) @ vec - energy * vec
        assert np.linalg.norm(resid) <= 8.0 * np.finfo(float).eps * np.abs(_dense(h)).sum(axis=1).max()


def test_effective_even_search_matches_full_band_with_constant():
    # the effective method searches its cutoff on the constant-free even
    # block; the full band with the constant must pick the same cutoff, and
    # its ground energy there agree, on the fig1/fig2 and fig5 grids
    fig5 = default_config("fig5")
    cases = [(lam, eta) for figure in ("fig1", "fig2")
             for lam in default_config(figure).lambda_grid
             for eta in default_config(figure).eta_grid]
    cases += [(lam, eta) for lam in fig5.lambda_grid for eta in fig5.eta_grid]
    for lam, eta in cases:
        p = RabiParams.from_dimensionless(lam, eta)
        build = build_effective_sp_band if lam > 1.0 else build_effective_np_band
        cutoff = spectra.converge_cutoff((lambda c: build(p, c),), TOL).cutoff
        gs = dynamics.effective_ground_state(p, TOL)
        assert gs.cutoff == cutoff, (lam, eta)
        energy = band_ground_energy(build(p, cutoff))
        assert gs.energy == pytest.approx(energy, rel=1e-12, abs=0.0), (lam, eta)


def test_ground_vector_from_the_search_energy_is_bitwise_the_bisected_one():
    # the ground vector is solved at the energy its cutoff search bisected,
    # not at a second bisection of the same band, in either frame
    for lam, eta, frame in ((1.005, 1e5, "displaced"), (1.05, 1e5, "displaced"),
                            (1.3, 200.0, "displaced"), (1.005, 5000.0, "bare"),
                            (0.99, 1e5, "bare"), (0.9999, 1e6, "bare")):
        p = RabiParams.from_dimensionless(lam, eta)
        gs = exact_ground_state(p, TOL)
        assert gs.frame == frame, (lam, eta)
        h = dynamics.exact_sector(p, gs.alpha, gs.cutoff)
        energy, vec = band_ground_state(h)
        given, vec_given = band_ground_state(h, band_ground_energy(h))
        assert given == energy
        assert np.array_equal(vec_given, vec)
        assert gs.energy == energy
        assert np.array_equal(gs.vector, vec)


def test_cutoff_search_returns_the_energy_at_its_cutoff():
    # `converge_cutoff` hands over the ground energy it bisected at the chosen
    # cutoff, in the frame that converged there, and the solve reports it
    p = RabiParams.from_dimensionless(1.05, 1e5)
    bare = lambda c: build_rabi_parity(p, c)
    displaced = lambda c: build_displaced_rabi_band(p, alpha_lambda(p), c)
    found = spectra.converge_cutoff((bare, displaced), TOL)
    assert (found.frame, found.n_max) == (1, 32)
    assert found.energy == band_ground_energy(displaced(found.cutoff))
    assert exact_ground_state(p, TOL).energy == found.energy


def test_inverse_iteration_raises_when_residual_not_met(monkeypatch):
    h = build_effective_np_band(RabiParams.from_dimensionless(0.9, 1e3), FockCutoff(16))
    monkeypatch.setattr(spectra, "RESIDUAL_EPS", 0.0)
    with pytest.raises(ConvergenceError):
        band_ground_state(h)
