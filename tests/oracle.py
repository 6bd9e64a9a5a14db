"""Dense reference implementations that the library is tested against.

The library solves every Hamiltonian as a real symmetric band matrix, a
NumPy array in LAPACK lower band storage (see `rabicrit.spectra`). This
module keeps the dense path as the tests' oracle, every operator a plain
NumPy array and every Hamiltonian a real float64 one, built by `np.kron`,
`np.eye` and `@`:
  * ladder, number and Pauli matrices on the truncated spin (x) Fock space
    (basis ordering: spin factor first with basis (|e>, |g>), Fock factor
    last with levels 0..n_max, a cutoff that every builder takes as the int
    n_max), the physical photon number of a displaced frame
    (`physical_number`), and displacement and squeezing by `expm`;
  * each phase written out in lam and eta, in units of the cavity frequency:
    the superradiant displacement (`alpha_lambda`), the displaced frame's
    omega0~ = lam^2 eta and g~ = sqrt(eta) / (2 lam), the effective
    coefficients (`effective_np_coeffs`, `effective_sp_coeffs`), the
    variational cubic and energy (`cubic_coeffs`, `energy_at`), and the
    closed-form squeezing and variances (`squeezing_np`, `variance_np`,
    `superradiant_frame`, `variance_sp`). The library reads all of them from
    one record, `hamiltonians.phase(p)`, which is tested against these
    references;
  * the dense builders of the Rabi, tripartite, displaced-frame and
    effective Hamiltonians (the tripartite one reads the probe record
    `ProbeParams(g_s, delta_s)`, which the library does not have), the Rabi
    Hamiltonian at an explicit cavity frequency, spin splitting and coupling
    (`rabi_dense`, the probe branches' cavity at 1 -/+ chi) and as both its
    parity chains (`build_rabi_parity_chains`), the physical photon number
    on spin (x) Fock (`rabi_number`), and the effective Hamiltonians as full
    real bands with their constants (`build_effective_np_band`,
    `build_effective_sp_band`);
  * ground states by full eigendecomposition at a given cutoff
    (`ground_state`, which, like the spectral decomposition, refuses a matrix
    that is not real symmetric), operator moments and the parity operator;
  * the probe + Rabi (tripartite) evolution before the dispersive step, the
    only one (`validate_dispersive`): the library's echo and each sweep
    point's `delta_s_min` are tested against its probe coherence;
  * the finite-difference ground state of the quartic oscillator
    P^2/2 + Y^4/4, the critical point's universal limit
    (`QuarticOscillator`);
  * the infinite-eta ground-state summary of either phase
    (`analytic_ground_state`) and the spin mixing angle of the displaced
    frame (`spin_mixing_angle`);
  * the published closed-form root of the variational cubic, evaluated in
    50-digit arithmetic, which Newton's root must match to DUAL_PATH_RTOL,
    and the stationarity residual and curvature of the variational energy,
    recomputed in lam (`cubic_coeffs`, `energy_at`) from the squeezing
    parameter `variational.solve` returns.

The cutoff search by energy comparison (`energy_search`): at each doubled
cutoff it bisects the ground energy again and compares the two, the decision
`spectra.converge_cutoff` makes by two Cholesky factorisations instead; it
takes frames of its own, dense or band builders, not the library's
`dynamics.Frame` records, and returns a record of its own (`EnergyCutoff`,
the chosen frame by its position). A square array is dense and any other a
band array of shape (half_width + 1, dim). `dense_ground(p, method, tol)` is the
one dense reference ground path of the exact and effective methods, the
mirror of `dynamics.BandGround`: it picks the phase's frames, searches their
cutoff by `energy_search`, solves the ground state by full eigendecomposition
and takes the physical photon number's moments. The echo is one path too,
`dense_echo(h, n, vector, chi, times)`, which returns D as the library's
`dynamics.decoherence_factor(gs, chi, times)` does and sees the probe only
through chi: the branches h -/+ chi n of a state's Hamiltonian and photon
number, each solved from its full spectrum by dense `eigh` (or scipy's band
solvers for band arrays), both evolved to every time in one product, so it
shares no code with `dynamics`, which it checks. `echo_sweep` stacks the
sweep's own points (`experiments._point`) and does not pick a method's path
itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from math import atan, exp, isfinite, log, sinh, sqrt
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal, expm

from rabicrit import spectra
from rabicrit.analytic import CRITICAL_BAND
from rabicrit.errors import ConvergenceError, PhaseDomainError, RabicritError
from rabicrit.experiments import SweepConfig, _point
from rabicrit.hamiltonians import RabiParams, _quartic_band
from rabicrit.spectra import band_ground_energy
from rabicrit.variational import VariationalSolution

SYMMETRY_RTOL = 1e-12
DUAL_PATH_RTOL = 1e-10


@dataclass(frozen=True)
class ProbeParams:
    """The probe atom of the tripartite evolution (`build_tripartite`,
    `validate_dispersive`): coupled by `g_s` and detuned by `delta_s` from
    the cavity, so that its frequency is 1 + delta_s. The echo takes only its
    dispersive shift `chi`, which is derived here, never stored."""

    g_s: float
    delta_s: float

    def __post_init__(self):
        if not all(map(isfinite, (self.g_s, self.delta_s))):
            raise ValueError("g_s and delta_s must be finite")
        if not abs(self.delta_s) > 0:
            raise ValueError("delta_s must be nonzero (dispersive regime)")
        if not isfinite(self.g_s * self.g_s / self.delta_s):
            raise ValueError("chi = g_s^2 / delta_s must be finite")

    @property
    def chi(self) -> float:
        """Dispersive shift g_s^2 / delta_s."""
        return self.g_s**2 / self.delta_s


# --- dense operators ----------------------------------------------------------
#
# A dense operator is a real float64 NumPy array (only `pauli("y")` is
# complex), a state a vector. On spin (x) Fock the spin factor comes first,
# with basis (|e>, |g>), and the Fock factor last, with levels 0..n_max.


def _symmetric(h: np.ndarray) -> np.ndarray:
    """`h`, if it is a square real matrix equal to its transpose to
    SYMMETRY_RTOL of its largest entry."""
    if not (h.ndim == 2 and h.shape[0] == h.shape[1] and not np.iscomplexobj(h)
            and np.abs(h - h.T).max() <= SYMMETRY_RTOL * np.abs(h).max()):
        raise ValueError("the dense oracle solves real symmetric matrices only")
    return h


def _is_band(h: np.ndarray) -> bool:
    """A band array is (half_width + 1, dim) and a dense matrix square, so a
    square band is read as dense, and its lower band storage fails the
    symmetry guard instead of solving as a wrong matrix."""
    return h.shape[0] != h.shape[1]


def annihilation(n_max: int) -> np.ndarray:
    """Truncated boson annihilation operator: <n|a|n+1> = sqrt(n+1)."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1, dtype=float)), k=1)


def number(n_max: int) -> np.ndarray:
    return np.diag(np.arange(n_max + 1, dtype=float))


def quadrature_x(n_max: int) -> np.ndarray:
    """The field quadrature a + a^dagger (unscaled)."""
    a = annihilation(n_max)
    return a + a.T


_PAULI = {
    # basis order (|e>, |g>)
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0, -1j], [1j, 0]]),
    "z": np.diag([1.0, -1.0]),
}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix in the (|e>, |g>) basis, so sigma_z = diag(+1, -1)."""
    return _PAULI[axis].copy()


def sigma_plus() -> np.ndarray:
    """|e><g| in the (|e>, |g>) basis."""
    return np.array([[0.0, 1.0], [0.0, 0.0]])


def sigma_minus() -> np.ndarray:
    """|g><e| in the (|e>, |g>) basis."""
    return sigma_plus().T


def displacement(alpha: float, n_max: int) -> np.ndarray:
    """D(alpha) = exp[alpha (a^dag - a)] on the truncated space.

    Warns (does not fail) when the cutoff leaves the displaced vacuum with a
    non-negligible tail above n_max.
    """
    if n_max < alpha**2 + 6.0 * abs(alpha):
        warnings.warn(
            f"cutoff n_max={n_max} may be too small for displacement "
            f"alpha={alpha}; unitarity degrades",
            stacklevel=2,
        )
    a = annihilation(n_max)
    return expm(alpha * (a.T - a))


def squeeze(r: float, n_max: int) -> np.ndarray:
    """S(r) = exp[r (a^dag^2 - a^2) / 2] on the truncated space."""
    if n_max < 10.0 * sinh(r) ** 2 + 20.0:
        warnings.warn(
            f"cutoff n_max={n_max} may be too small for squeezing r={r}; "
            "unitarity degrades",
            stacklevel=2,
        )
    a = annihilation(n_max)
    return expm(0.5 * r * (a.T @ a.T - a @ a))


# --- per-phase references in lam ---------------------------------------------
#
# The library reads every phase-dependent coefficient from one record,
# `hamiltonians.phase(p)`. These are the same quantities written out for each
# phase in lam, eta and the displaced frame's g~ = sqrt(eta) / (2 lam) and
# omega0~ = lam^2 eta, as they were derived, in units of the cavity
# frequency; the record is tested against them.

NORMAL = "normal"
SUPERRADIANT = "superradiant"


def phase_of(lam: float) -> str:
    """The phase lam selects, as `hamiltonians.phase` decides it:
    superradiant above 1, normal up to and at 1."""
    return SUPERRADIANT if lam > 1.0 else NORMAL


def alpha_lambda(p: RabiParams) -> float:
    """The superradiant displacement sqrt(eta (lam^4 - 1) / (4 lam^2)), which
    removes the linear boson term; lam > 1."""
    lam = p.lam
    return sqrt(p.eta * (lam**4 - 1.0) / (4.0 * lam**2))


def effective_np_coeffs(p: RabiParams) -> tuple[float, float, float]:
    """(c2, c4, const) of the fourth-order low-spin effective Hamiltonian of
    the normal phase, n - c2 x^2 + c4 x^4 + const with x = a + a^dag:
    c2 = lam^2 / 4, c4 = lam^4 / (16 eta) and const = -eta/2 + lam^2 / (4 eta)."""
    lam = p.lam
    c2 = lam**2 / 4.0
    c4 = lam**4 / (16.0 * p.eta)
    const = -0.5 * p.eta + lam**2 / (4.0 * p.eta)
    return c2, c4, const


def effective_sp_coeffs(p: RabiParams) -> tuple[float, float, float]:
    """(c2, c4, const) of the effective Hamiltonian of the superradiant phase,
    of the same form in the frame displaced by alpha_lambda: c2 = g~^2 /
    omega0~, c4 = g~^4 / omega0~^3 and const = -omega0~/2 + g~^2 / omega0~^2
    + alpha_lambda^2; requires lam > 1."""
    lam = p.lam
    if lam <= 1.0:
        raise PhaseDomainError(
            f"superradiant effective Hamiltonian requires lam > 1, got lam={lam}"
        )
    gt, w0t = sqrt(p.eta) / (2.0 * lam), lam**2 * p.eta
    # constant terms kept explicit so ground energies match the bare-frame
    # curves; the g~^2 / omega0~^2 form is the one consistent with the
    # variational energy constant 1 / (4 omega0~ lam^4).
    const = -0.5 * w0t + gt**2 / w0t**2 + alpha_lambda(p) ** 2
    return gt**2 / w0t, gt**4 / w0t**3, const


def squeezing_np(lam: float) -> float:
    """Normal-phase squeezing r = -ln(1 - lam^2)/4, for 0 <= lam < 1 outside
    the critical band."""
    if lam < 0:
        raise PhaseDomainError(f"lam must be non-negative, got {lam}")
    if 1.0 - lam < CRITICAL_BAND:
        raise PhaseDomainError(f"lam={lam}: normal-phase closed forms require lam < 1")
    return -0.25 * log(1.0 - lam**2)


def variance_np(p: RabiParams) -> float:
    """Photon-number variance of the normal-phase ground state:
    sinh^2(2 r)/2 + (g/eta)^2 e^{-2 r}."""
    r = squeezing_np(p.lam)
    return 0.5 * sinh(2.0 * r) ** 2 + (p.g / p.eta) ** 2 * exp(-2.0 * r)


def superradiant_frame(p: RabiParams) -> tuple[float, float]:
    """(alpha_lambda, r_sp) of the displaced superradiant description, with
    r_sp = -ln(1 - lam^-4)/4, for lam > 1 outside the critical band."""
    lam = p.lam
    if lam - 1.0 < CRITICAL_BAND:
        raise PhaseDomainError(f"lam={lam}: superradiant closed forms require lam > 1")
    return alpha_lambda(p), -0.25 * log(1.0 - lam**-4)


def variance_sp(p: RabiParams) -> float:
    """Photon-number variance of the superradiant ground state:
    sinh^2(2 r)/2 + alpha^2 e^{2 r} + (g~/omega0~)^2 e^{-2 r}."""
    alpha, r = superradiant_frame(p)
    ratio2 = ((sqrt(p.eta) / (2.0 * p.lam)) / (p.lam**2 * p.eta)) ** 2
    return 0.5 * sinh(2.0 * r) ** 2 + alpha**2 * exp(2.0 * r) + ratio2 * exp(-2.0 * r)


def cubic_coeffs(phase: str, p: RabiParams) -> tuple[float, float]:
    """(c3, c2) of the variational stationarity cubic c3 x^3 + c2 x^2 - 1
    of `phase`: (3 lam^4 / (2 eta), 1 - lam^2) or (3 / (2 eta lam^10),
    1 - lam^-4)."""
    lam, eta = p.lam, p.eta
    if phase == NORMAL:
        return 3.0 * lam**4 / (2.0 * eta), 1.0 - lam**2
    return 3.0 / (2.0 * eta * lam**10), 1.0 - lam**-4


def energy_at(phase: str, s: float, p: RabiParams) -> float:
    """The variational energy of `phase` at squeezing s."""
    lam, eta = p.lam, p.eta
    if phase == NORMAL:
        return (
            sinh(s) ** 2
            - (lam**2 / 4.0) * exp(2.0 * s)
            + (3.0 * lam**4 / (16.0 * eta)) * exp(4.0 * s)
            - 0.5 * eta
            + lam**2 / (4.0 * eta)
        )
    w0t = lam**2 * eta
    return (
        sinh(s) ** 2
        - (1.0 / (4.0 * lam**4)) * exp(2.0 * s)
        + (3.0 / (16.0 * w0t * lam**8)) * exp(4.0 * s)
        - 0.5 * w0t
        + 1.0 / (4.0 * w0t * lam**4)
        + alpha_lambda(p) ** 2
    )


# --- dense Hamiltonians ----------------------------------------------------


def rabi_dense(omega_c: float, omega_0: float, g: float, n_max: int,
               alpha_disp: float = 0.0) -> np.ndarray:
    """The Rabi Hamiltonian at cavity frequency omega_c, spin splitting
    omega_0 and coupling g, conjugated by D(alpha_disp) (0: the bare frame)
    and expanded term by term:

    H~ = omega_c (a^dag + alpha)(a + alpha) - g (a + a^dag) sigma_x
         + (omega_0/2) sigma_z - 2 g alpha sigma_x.

    Built analytically (not by numerical conjugation with the truncated
    displacement unitary), so it stays exactly symmetric for any alpha. A
    `RabiParams` is this at omega_c = 1, omega_0 = eta (`build_rabi`); the
    probe branches H -/+ chi N are this at omega_c = 1 -/+ chi.
    """
    ib = np.eye(n_max + 1)
    return (
        omega_c * rabi_number(n_max, alpha_disp)
        + (0.5 * omega_0) * np.kron(pauli("z"), ib)
        - g * np.kron(pauli("x"), quadrature_x(n_max))
        - (2.0 * g * alpha_disp) * np.kron(pauli("x"), ib)
    )


def build_rabi(p: RabiParams, n_max: int) -> np.ndarray:
    """H = a^dag a + (eta/2) sigma_z - g sigma_x (a + a^dag)."""
    return rabi_dense(1.0, p.eta, p.g, n_max)


def build_tripartite(p: RabiParams, probe: ProbeParams, n_max: int) -> np.ndarray:
    """Full Jaynes-Cummings probe plus Rabi model, before the dispersive step,
    the probe at frequency 1 + delta_s.

    Space: probe-spin (x) Rabi-spin (x) Fock, dimension 4 (n_max + 1).
    """
    i2 = np.eye(2)
    a = annihilation(n_max)
    rabi = np.kron(i2, build_rabi(p, n_max))
    h_probe = (0.5 * (1.0 + probe.delta_s)) * np.kron(pauli("z"), np.eye(2 * (n_max + 1)))
    h_jc = (-probe.g_s) * (
        np.kron(sigma_minus(), np.kron(i2, a.T))
        + np.kron(sigma_plus(), np.kron(i2, a))
    )
    return rabi + h_probe + h_jc


def physical_number(alpha: float, n_max: int) -> np.ndarray:
    """The physical photon number N = n + alpha x + alpha^2 of the frame
    displaced by alpha (alpha = 0: the bare frame), on the Fock space."""
    return number(n_max) + alpha * quadrature_x(n_max) + alpha**2 * np.eye(n_max + 1)


def rabi_number(n_max: int, alpha: float = 0.0) -> np.ndarray:
    """`physical_number` on spin (x) Fock, the basis of `rabi_dense`."""
    return np.kron(np.eye(2), physical_number(alpha, n_max))


def build_displaced_rabi(p: RabiParams, alpha_disp: float, n_max: int) -> np.ndarray:
    """The Rabi Hamiltonian of `p` conjugated by D(alpha_disp) (`rabi_dense`)."""
    return rabi_dense(1.0, p.eta, p.g, n_max, alpha_disp)


def spin_mixing_angle(p: RabiParams, alpha_disp: float) -> float:
    """Spin mixing angle theta of the frame displaced by alpha_disp,
    tan(2 theta) = -4 g alpha_disp / eta, in (-pi/4, pi/4)."""
    return 0.5 * atan(-4.0 * p.g * alpha_disp / p.eta)


def _quartic_dense(c2: float, c4: float, const: float, n_max: int) -> np.ndarray:
    x = quadrature_x(n_max)
    x2 = x @ x
    return number(n_max) - c2 * x2 + c4 * (x2 @ x2) + const * np.eye(n_max + 1)


def build_effective_np(p: RabiParams, n_max: int) -> np.ndarray:
    """Fourth-order low-spin effective Hamiltonian of the normal phase.

    Boson-only: n - (lam^2/4) x^2 + (lam^4 / (16 eta)) x^4 - eta/2
    + lam^2 / (4 eta), with x = a + a^dag.
    """
    return _quartic_dense(*effective_np_coeffs(p), n_max)


def build_effective_sp(p: RabiParams, n_max: int) -> np.ndarray:
    """Fourth-order low-spin effective Hamiltonian of the superradiant phase.

    Boson-only, in the frame displaced by alpha_lambda; requires lam > 1.
    """
    return _quartic_dense(*effective_sp_coeffs(p), n_max)


def build_effective_np_band(p: RabiParams, n_max: int) -> np.ndarray:
    """`build_effective_np` as a real band of half-width 4 in natural Fock
    order, its constant on the diagonal."""
    c2, c4, const = effective_np_coeffs(p)
    band = _quartic_band(c2, c4, n_max)
    band[0] += const
    return band


def build_effective_sp_band(p: RabiParams, n_max: int) -> np.ndarray:
    """`build_effective_sp` as a real band of half-width 4 in natural Fock
    order of the frame displaced by alpha_lambda; requires lam > 1."""
    c2, c4, const = effective_sp_coeffs(p)
    band = _quartic_band(c2, c4, n_max)
    band[0] += const
    return band


def build_rabi_parity_chains(p: RabiParams, n_max: int) -> np.ndarray:
    """`build_rabi` as a real tridiagonal matrix in parity order, both parity
    chains: rows 0..n_max are the even chain |g,0>, |e,1>, |g,2>, ... (the
    library's `build_rabi_parity`), rows n_max+1.. the odd chain |e,0>,
    |g,1>, .... Row k of either chain has k photons; the sub-diagonal entry
    joining the chains is zero."""
    k = np.arange(n_max + 1, dtype=float)
    spin = 0.5 * p.eta * (-1.0) ** (k + 1)  # sigma_z on the even chain
    hop = -p.g * np.sqrt(k + 1.0)
    hop[-1] = 0.0
    return np.array([np.concatenate([k + spin, k - spin]), np.concatenate([hop, hop])])


# --- ground states and moments ----------------------------------------------


def fix_sign(vec: np.ndarray) -> np.ndarray:
    """The real vector of the global sign that makes its largest-magnitude
    amplitude positive, so that two solvers' vectors compare entry by entry."""
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def ground_state(h: np.ndarray) -> tuple[float, np.ndarray]:
    """The lowest energy and eigenvector of a real symmetric matrix, at the
    cutoff it was built at, of the sign `fix_sign` picks; `dense_ground`
    searches the cutoff."""
    w, v = np.linalg.eigh(_symmetric(h))
    return float(w[0]), fix_sign(v[:, 0])


def operator_moments(vec: np.ndarray, op: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a symmetric operator in the unit vector `vec`. The
    variance is the squared norm of the centred residual (O - mean) v, not
    <O v, O v> - mean^2, whose two terms cancel where the mean dwarfs the
    spread."""
    ov = op @ vec
    mean = float(np.real(np.vdot(vec, ov)))
    residual = ov - mean * vec
    return mean, float(np.real(np.vdot(residual, residual)))


def parity_operator(n_max: int) -> np.ndarray:
    """Pi = exp{i pi [a^dag a + (1 + sigma_z)/2]} on spin (x) Fock.

    Diagonal with entries (-1)^(n + 1) on the |e> block and (-1)^n on |g>.
    """
    fock_sign = (-1.0) ** np.arange(n_max + 1)
    return np.diag(np.concatenate([-fock_sign, fock_sign]))


class EnergyCutoff(NamedTuple):
    """What `energy_search` chose: the index `frame` of the first frame whose
    ground energy converged, the cutoff `n_max` it converged at, and there
    its ground `energy` and its `matrix`."""

    frame: int
    n_max: int
    energy: float
    matrix: np.ndarray


def energy_search(frames, tol: float) -> EnergyCutoff:
    """The reference of `spectra.converge_cutoff`, by energy comparison: over
    the same doubling sequence and frames (each a builder, cutoff -> dense
    matrix or band array, or None where that frame is not built), the
    first frame at the first cutoff n whose ground energy moves by less than
    tol, |E(2n) - E(n)| < tol, with E(2n) bisected (or diagonalised) too,
    and its matrix at n."""
    if not (isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    known: dict[tuple[int, int], float | None] = {}

    def energy(frame: int, n: int) -> float | None:
        if (frame, n) not in known:
            h = frames[frame](n)
            if h is not None:
                h = band_ground_energy(h) if _is_band(h) else ground_state(h)[0]
            known[frame, n] = h
        return known[frame, n]

    n = spectra.N_START
    while 2 * n <= spectra.CUTOFF_HARD_CAP:
        for frame in range(len(frames)):
            e_n = energy(frame, n)
            if e_n is not None and abs(energy(frame, 2 * n) - e_n) < tol:
                return EnergyCutoff(frame, n, e_n, frames[frame](n))
        n *= 2
    raise ConvergenceError(
        f"ground energy not converged to {tol} below cutoff {spectra.CUTOFF_HARD_CAP}"
    )


@dataclass(frozen=True)
class DenseGround:
    """The dense reference of `dynamics.BandGround`: the ground state of the
    exact or effective method at the cutoff `n_max` its `energy_search`
    chose, in the frame displaced by `alpha` (0: the bare frame), with the
    dense Hamiltonian `h` it was solved in, without the effective method's
    constant, as the library's band is, and the physical photon number `n`
    in the same basis, whose moments `mean_n` and `gamma` are; `energy`
    includes every constant."""

    n_max: int
    alpha: float
    h: np.ndarray
    n: np.ndarray
    energy: float
    vector: np.ndarray
    mean_n: float
    gamma: float


def dense_ground(p: RabiParams, method: str, tol: float) -> DenseGround:
    """The ground state of `method` ('exact' or 'effective') by the dense
    path, searched over the frames the library searches. The exact method:
    the bare frame (`build_rabi`) below the transition; above it, the bare
    frame and the one displaced by alpha_lambda (`build_displaced_rabi`),
    the bare one first at each cutoff, and the state solved in the first to
    converge. The effective method: the Hamiltonian of `build_effective_np`
    below the transition, of `build_effective_sp` (displaced by
    alpha_lambda) above it, each without its constant, which is added to the
    energy alone."""
    alpha = alpha_lambda(p) if p.lam > 1.0 else 0.0
    if method == "exact":
        frames = (partial(build_rabi, p),)
        if alpha:
            frames += (partial(build_displaced_rabi, p, alpha),)
        found, const = energy_search(frames, tol), 0.0
        alpha = (0.0, alpha)[found.frame]
        n = rabi_number(found.n_max, alpha)
    elif method == "effective":
        c2, c4, const = (effective_sp_coeffs if alpha else effective_np_coeffs)(p)
        found = energy_search((partial(_quartic_dense, c2, c4, 0.0),), tol)
        n = physical_number(alpha, found.n_max)
    else:
        raise ValueError(f"method must be 'exact' or 'effective', got {method!r}")
    energy, vec = ground_state(found.matrix)
    return DenseGround(found.n_max, alpha, found.matrix, n, energy + const, vec,
                       *operator_moments(vec, n))


# --- dynamics -----------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and real orthonormal eigenvectors (columns) of
    a dense real symmetric matrix, by `numpy.linalg.eigh`, or of a band
    array, by scipy's `eigh_tridiagonal` or `eig_banded`."""

    energies: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray) -> "SpectralDecomposition":
        if not _is_band(h):
            return cls(*np.linalg.eigh(_symmetric(h)))
        if h.shape[0] == 2:
            return cls(*eigh_tridiagonal(h[0], h[1, :-1]))
        return cls(*eig_banded(h, lower=True))

    def evolved(self, vec: np.ndarray, times, e_ref: float = 0.0) -> np.ndarray:
        """exp(-i (H - e_ref) t) vec of a real `vec` at every t of `times`, a
        column per time. The real eigenvectors multiply the real and
        imaginary parts apart, so they are never copied to complex."""
        v = self.vectors
        z = np.exp(-1j * np.outer(self.energies - e_ref, times)) * (v.T @ vec)[:, None]
        return v @ z.real + 1j * (v @ z.imag)


@dataclass(frozen=True)
class EchoSweep:
    """The sweep's own points (`experiments._point`) at each lambda of a
    grid, stacked."""

    l_matrix: np.ndarray          # shape (len(lams), len(times))
    cutoffs: list                 # None where nothing is diagonalised


def echo_sweep(eta: float, chi: float, lams, times, method: str,
               cutoff_tol: float = spectra.CUTOFF_TOL) -> EchoSweep:
    """The echo at dispersive shift `chi` at each lambda of `lams` (eta
    fixed), as a sweep computes it; a config the sweep would refuse (a
    repeated lambda, say) raises `ValueError`, a degraded point
    `RabicritError`."""
    cfg = SweepConfig("custom", lams, [eta], times, chi, [method], cutoff_tol)
    points = [_point(cfg, eta, method, lam) for lam in cfg.lambda_grid]
    for pt in points:
        if not pt.converged:
            raise RabicritError(f"{method} point at lam = {pt.lam}, eta = {eta} is degraded")
    return EchoSweep(
        l_matrix=np.array([pt.value for pt in points]),
        cutoffs=[pt.cutoff for pt in points],
    )


def dense_echo(h: np.ndarray, n: np.ndarray, vector: np.ndarray, chi: float,
               times) -> np.ndarray:
    """D(t) = <G| exp(i H_g t) exp(-i H_e t) |G> of G = `vector` at every t
    of `times`, for the branches H_g = h - chi n and H_e = h + chi n of a
    probe of dispersive shift chi, with `n` the physical photon number in
    the basis of `h`: dense matrices or band arrays of one shape. Each branch
    is solved from its full spectrum (`SpectralDecomposition`), and both are
    evolved to every time in one product; the echo is L = |D|^2. Energies
    are measured from H_g's lowest, a common phase of both branches that |D|
    does not see, so that the phases E t stay small."""
    if h.shape != n.shape:
        raise ValueError(f"h {h.shape} and n {n.shape} must have one shape")
    times = np.asarray(times, dtype=float)
    dg, de = SpectralDecomposition.of(h - chi * n), SpectralDecomposition.of(h + chi * n)
    e_ref = dg.energies[0]
    return np.sum(dg.evolved(vector, times, e_ref).conj()
                  * de.evolved(vector, times, e_ref), axis=0)


# --- the tripartite evolution -------------------------------------------------


@dataclass(frozen=True)
class DispersiveReport:
    coherence: np.ndarray     # 2 |rho_eg(t)| of the tripartite evolution
    dispersive_regime: bool


def validate_dispersive(p: RabiParams, probe: ProbeParams, times,
                        cutoff_tol: float = 1e-8) -> DispersiveReport:
    """The probe + Rabi evolution before the dispersive step: at the cutoff
    its own search over the dense Rabi Hamiltonian (both parity sectors)
    chooses, the tripartite state from the probe's (|g> + |e>)/sqrt(2) times
    the Rabi ground state, evolved by dense eigendecomposition, every time in
    one product. Its probe coherence 2 |rho_eg| is what the dispersive
    prediction |D(t)| approximates (`max_rel_deviation`).

    `dispersive_regime` is the dispersive condition
    |Delta_s| >> |g_s| sqrt(<n> + 1) taken as |Delta_s| >= 10 |g_s| sqrt(<n> + 1);
    outside it the check warns, and never fails.
    """
    times = np.asarray(times, dtype=float)
    found = energy_search((partial(build_rabi, p),), cutoff_tol)
    _, vec = ground_state(found.matrix)
    mean_n, _ = operator_moments(vec, rabi_number(found.n_max))
    dispersive = abs(probe.delta_s) >= 10.0 * abs(probe.g_s) * np.sqrt(mean_n + 1.0)
    if not dispersive:
        warnings.warn(
            "dispersive condition |Delta_s| >> g_s sqrt(<n>+1) is violated; "
            "large deviations expected",
            stacklevel=2,
        )
    decomp = SpectralDecomposition.of(build_tripartite(p, probe, found.n_max))
    probe_vec = np.full(2, 1.0 / sqrt(2.0))  # (|e>, |g>)
    psi = decomp.evolved(np.kron(probe_vec, vec), times)
    # coherence magnitude convention: 2 |<sigma_->| = 2 |rho_eg|
    coherence = 2.0 * np.abs(np.sum(psi.conj() * (np.kron(sigma_minus(), np.eye(vec.size)) @ psi),
                                    axis=0))
    return DispersiveReport(coherence, dispersive)


def max_rel_deviation(coherence: np.ndarray, predicted: np.ndarray) -> float:
    """max over t of |coherence - predicted| / predicted: the tripartite
    coherence against the dispersive prediction |D(t)| (floored at 1e-15)."""
    return float(np.max(np.abs(coherence - predicted) / np.maximum(predicted, 1e-15)))


# --- the quartic oscillator at the critical point ----------------------------


@dataclass(frozen=True)
class QuarticOscillator:
    """Ground state of the dimensionless oscillator P^2/2 + Y^4/4
    (P = -i d/dY) by finite differences: `points` grid points on
    [-half_width, half_width], P^2 the three-point second difference with
    psi = 0 beyond the grid.

    At lam = 1 the normal-phase effective Hamiltonian
    n - x^2/4 + x^4 / (16 eta) equals eta^(-1/3) [P^2/2 + Y^4/4] - 1/2 with
    x = sqrt(2) eta^(1/6) Y
    (Hwang, Puebla & Plenio, PRL 115, 180404 (2015)). There the photon number
    is n = (eta^(1/3) Y^2 + eta^(-1/3) P^2)/2 - 1/2, and its variance tends
    to eta^(2/3) Var(Y^2)/4 as eta -> infinity.
    """

    y: np.ndarray
    psi: np.ndarray      # real, unit norm as a vector on the grid
    energy: float

    @classmethod
    def solve(cls, points: int = 8000, half_width: float = 8.0) -> "QuarticOscillator":
        y = np.linspace(-half_width, half_width, points)
        step = y[1] - y[0]
        w, v = eigh_tridiagonal(1.0 / step**2 + y**4 / 4.0, np.full(points - 1, -0.5 / step**2),
                                select="i", select_range=(0, 0))
        return cls(y, v[:, 0], float(w[0]))

    @property
    def var_y2(self) -> float:
        """Var(Y^2)."""
        prob = self.psi**2
        return float(prob @ self.y**4 - (prob @ self.y**2) ** 2)

    def number_variance(self, eta: float) -> float:
        """Variance of n = (eta^(1/3) Y^2 + eta^(-1/3) P^2)/2 - 1/2, which the
        constant -1/2 leaves unchanged."""
        scale = eta ** (1.0 / 3.0)
        padded = np.concatenate([[0.0], self.psi, [0.0]])
        p2_psi = -(padded[2:] - 2.0 * self.psi + padded[:-2]) / (self.y[1] - self.y[0]) ** 2
        n_psi = 0.5 * (scale * self.y**2 * self.psi + p2_psi / scale)
        return float(n_psi @ n_psi) - float(self.psi @ n_psi) ** 2


# --- the closed forms ---------------------------------------------------------


@dataclass(frozen=True)
class AnalyticGroundState:
    phase: str               # "normal" | "superradiant"
    alpha_disp: float        # displacement (0 in the normal phase)
    epsilon: float           # excitation frequency of the diagonalized form
    energy: float            # ground energy on the low spin branch


def analytic_ground_state(p: RabiParams) -> AnalyticGroundState:
    """Infinite-eta ground-state summary in whichever phase lam selects.

    The superradiant branch energy uses the tilded spin splitting
    omega0~ = lam^2 eta (the rotated two-level spacing), which is the
    form consistent with the known ground energy -eta (lam^2 + lam^-2)/4
    for lam > 1.
    """
    lam = p.lam
    if lam < 1.0:
        eps = sqrt(1.0 - lam**2)
        return AnalyticGroundState("normal", 0.0, eps, 0.5 * (eps - 1.0 - p.eta))
    alpha = alpha_lambda(p)
    eps = sqrt(1.0 - lam**-4)
    return AnalyticGroundState("superradiant", alpha, eps,
                               0.5 * (eps - 1.0 - lam**2 * p.eta) + alpha**2)


def stationarity(sol: VariationalSolution, p: RabiParams) -> tuple[float, float, float]:
    """(x, residual, curvature) of the variational energy, in the phase lam
    selects, at the solution's squeezing parameter s: the root x = e^{2 s}
    of the stationarity cubic, the residual |dE/ds| = |c3 x^3 + c2 x^2 - 1|
    / (2 x) there, and d^2E/ds^2 by central differences with step 1e-4."""
    x, phase = exp(2.0 * sol.s), phase_of(p.lam)
    c3, c2 = cubic_coeffs(phase, p)
    residual = abs(1.0 / (2.0 * x) * (c3 * x**3 + c2 * x**2 - 1.0))
    h = 1e-4
    curvature = (
        energy_at(phase, sol.s + h, p) - 2.0 * energy_at(phase, sol.s, p)
        + energy_at(phase, sol.s - h, p)
    ) / h**2
    return x, residual, curvature


def _closed_form_x(phase: str, lam: float, eta: float) -> float:
    """Published closed-form root, evaluated at 50 digits to tame cancellation."""
    with mp.workdps(50):
        l = mp.mpf(lam)
        e = mp.mpf(eta)
        if phase == NORMAL:
            cub = (l**2 - 1) ** 3
            disc = 243 * l**16 * e**2 + 16 * l**8 * cub * e**4
            big = (
                9 * mp.sqrt(3) * mp.sqrt(mp.mpc(disc))
                + 243 * l**8 * e
                + 8 * cub * e**3
            )
            cbrt = big ** mp.mpf("1/3")
            x = mp.re(
                cbrt / (9 * l**4)
                + 2 * (l**2 - 1) * e / (9 * l**4)
                + 4 * (l**2 - 1) ** 2 * e**2 / (9 * l**4 * cbrt)
            )
        else:
            cub = (1 - l**4) ** 3
            disc = 243 * l**20 * e**2 + 16 * l**28 * cub * e**4
            big = (
                9 * mp.sqrt(3) * mp.sqrt(mp.mpc(disc))
                + 243 * l**10 * e
                + 8 * l**18 * cub * e**3
            )
            cbrt = big ** mp.mpf("1/3")
            x = mp.re(
                cbrt / 9
                - 2 * (l**4 - 1) * l**6 * e / 9
                + 4 * (l**4 - 1) ** 2 * l**12 * e**2 / (9 * cbrt)
            )
        return float(x)


def closed_form_x(phase: str, lam: float, eta: float) -> float:
    """The closed-form root x = e^{2 s} of the variational cubic; in the
    decoupled limit (lam = 0) the cubic degenerates to c2 x^2 = 1."""
    c3, c2 = cubic_coeffs(phase, RabiParams(lam, eta))
    if c3 == 0.0:
        return c2**-0.5
    return _closed_form_x(phase, lam, eta)
