"""Dense reference implementations that the library is tested against.

The library solves every Hamiltonian as a real symmetric band matrix
(`rabicrit.hilbert.BandMatrix`). This module keeps the dense complex path as
the tests' oracle:
  * `Operator` and `QuantumState` on the truncated spin (x) Fock space
    (basis ordering: spin factor first with basis (|e>, |g>), boson factor
    second with Fock levels 0..n_max), ladder operators, Pauli matrices,
    tensor products, displacement and squeezing by `expm`;
  * each phase written out in lam: the displaced frame's `DisplacedFrame`
    (alpha, omega0~ = lam^2 omega_0, g~), the effective coefficients
    (`effective_np_coeffs`, `effective_sp_coeffs`), the variational cubic and
    energy (`cubic_coeffs`, `energy_at`), and the closed-form squeezing and
    variances (`squeezing_np`, `variance_np`, `superradiant_frame`,
    `variance_sp`). The library reads all of them from one record,
    `hamiltonians.phase(p)`, which is tested against these references;
  * the dense builders of the Rabi, branch, tripartite, displaced-frame and
    effective Hamiltonians, the Rabi Hamiltonian as both its parity chains
    (`build_rabi_parity_chains`), which the library's bare frame once
    searched, and the effective Hamiltonians as full real bands
    with their constants (`build_effective_np_band`,
    `build_effective_sp_band`), which the library's effective method once
    searched and solved; it now uses the constant-free even block;
  * ground states by full eigendecomposition, photon-number and operator
    moments, the parity operator, single-time evolution;
  * the dense tripartite check of the dispersive approximation, and the
    probe's reduced state for a given decoherence factor;
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
takes dense or band builders. The echo (`decoherence_factor`) is the
oracle's own: the full spectrum of each branch by dense `eigh` (or scipy's
band solvers for a `BandMatrix`, accepted wherever a Hamiltonian is), both
branches evolved to every time in one product, so it shares no code with
`dynamics.decoherence_factor`, which it checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import atan, exp, isfinite, log, pi, sinh, sqrt
from typing import Callable

import mpmath as mp
import numpy as np
from scipy.linalg import eig_banded, eigh_tridiagonal, expm

from rabicrit import dynamics, spectra
from rabicrit.analytic import CRITICAL_BAND
from rabicrit.errors import (
    ConvergenceError,
    DimensionMismatchError,
    PhaseDomainError,
    RabicritError,
)
from rabicrit.experiments import DispersiveReport
from rabicrit.hamiltonians import ProbeParams, RabiParams, _quartic_band, alpha_lambda
from rabicrit.hilbert import BandMatrix, FockCutoff
from rabicrit.spectra import FrameCutoff, _fix_phase, band_ground_energy
from rabicrit.variational import VariationalSolution

HERMITICITY_RTOL = 1e-12
DUAL_PATH_RTOL = 1e-10


class LayoutError(RabicritError, ValueError):
    """A state/operator subsystem layout does not match the request."""


# --- dense operators and states ----------------------------------------------


@dataclass(frozen=True)
class Operator:
    """Dense complex square matrix with subsystem-dimension metadata."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.ascontiguousarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError(f"operator matrix must be square, got {mat.shape}")
        if int(np.prod(self.dims)) != mat.shape[0]:
            raise DimensionMismatchError(
                f"dims {self.dims} inconsistent with matrix of size {mat.shape[0]}"
            )
        mat.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T, self.dims)

    def is_hermitian(self, rtol: float = HERMITICITY_RTOL) -> bool:
        scale = np.abs(self.mat).max()
        if scale == 0.0:
            return True
        return np.abs(self.mat - self.mat.conj().T).max() <= rtol * scale

    def __add__(self, other: "Operator") -> "Operator":
        self._check_compatible(other)
        return Operator(self.mat + other.mat, self.dims)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check_compatible(other)
        return Operator(self.mat - other.mat, self.dims)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check_compatible(other)
        return Operator(self.mat @ other.mat, self.dims)

    def __rmul__(self, scalar: complex) -> "Operator":
        return Operator(scalar * self.mat, self.dims)

    def _check_compatible(self, other: "Operator"):
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if self.dims != other.dims:
            raise DimensionMismatchError(f"dims mismatch: {self.dims} vs {other.dims}")


@dataclass(frozen=True)
class QuantumState:
    """Normalized state vector with subsystem-dimension metadata."""

    vec: np.ndarray
    dims: tuple[int, ...] = field(default=())

    def __post_init__(self):
        vec = np.ascontiguousarray(self.vec, dtype=complex).ravel()
        object.__setattr__(self, "vec", vec)
        dims = self.dims if self.dims else (vec.size,)
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        if int(np.prod(self.dims)) != vec.size:
            raise DimensionMismatchError(
                f"dims {self.dims} inconsistent with vector of size {vec.size}"
            )
        vec.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vec.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


def identity(dims) -> Operator:
    dims = tuple(dims) if np.iterable(dims) else (int(dims),)
    d = int(np.prod(dims))
    return Operator(np.eye(d, dtype=complex), dims)


def annihilation(cutoff: FockCutoff) -> Operator:
    """Truncated boson annihilation operator: <n|a|n+1> = sqrt(n+1)."""
    n = cutoff.n_max
    mat = np.diag(np.sqrt(np.arange(1, n + 1, dtype=float)), k=1).astype(complex)
    return Operator(mat, (cutoff.dim,))


def creation(cutoff: FockCutoff) -> Operator:
    return annihilation(cutoff).dag()


def number(cutoff: FockCutoff) -> Operator:
    return Operator(np.diag(np.arange(cutoff.dim, dtype=complex)), (cutoff.dim,))


def quadrature_x(cutoff: FockCutoff) -> Operator:
    """The field quadrature a + a^dagger (unscaled)."""
    a = annihilation(cutoff)
    return a + a.dag()


_PAULI = {
    # basis order (|e>, |g>)
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> Operator:
    """Pauli matrix in the (|e>, |g>) basis, so sigma_z = diag(+1, -1)."""
    try:
        mat = _PAULI[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return Operator(mat.copy(), (2,))


def sigma_plus() -> Operator:
    """|e><g| in the (|e>, |g>) basis."""
    return Operator(np.array([[0, 1], [0, 0]], dtype=complex), (2,))


def sigma_minus() -> Operator:
    """|g><e| in the (|e>, |g>) basis."""
    return Operator(np.array([[0, 0], [1, 0]], dtype=complex), (2,))


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with subsystem labels concatenated."""
    return Operator(np.kron(a.mat, b.mat), a.dims + b.dims)


def displacement(alpha: float, cutoff: FockCutoff) -> Operator:
    """D(alpha) = exp[alpha (a^dag - a)] on the truncated space.

    Warns (does not fail) when the cutoff leaves the displaced vacuum with a
    non-negligible tail above n_max.
    """
    if cutoff.n_max < alpha**2 + 6.0 * abs(alpha):
        warnings.warn(
            f"cutoff n_max={cutoff.n_max} may be too small for displacement "
            f"alpha={alpha}; unitarity degrades",
            stacklevel=2,
        )
    a = annihilation(cutoff)
    gen = alpha * (a.dag().mat - a.mat)
    return Operator(expm(gen), (cutoff.dim,))


def squeeze(r: float, cutoff: FockCutoff) -> Operator:
    """S(r) = exp[r (a^dag^2 - a^2) / 2] on the truncated space."""
    if cutoff.n_max < 10.0 * sinh(r) ** 2 + 20.0:
        warnings.warn(
            f"cutoff n_max={cutoff.n_max} may be too small for squeezing r={r}; "
            "unitarity degrades",
            stacklevel=2,
        )
    a = annihilation(cutoff).mat
    ad = a.conj().T
    gen = 0.5 * r * (ad @ ad - a @ a)
    return Operator(expm(gen), (cutoff.dim,))


# --- per-phase references in lam ---------------------------------------------
#
# The library reads every phase-dependent coefficient from one record,
# `hamiltonians.phase(p)`. These are the same quantities written out for each
# phase in lam, eta and the displaced frame's g~ = sqrt(omega_c omega_0) /
# (2 lam) and omega0~ = lam^2 omega_0, as they were derived; the record is
# tested against them.

NORMAL = "normal"
SUPERRADIANT = "superradiant"


@dataclass(frozen=True)
class DisplacedFrame:
    """Parameters of the displaced frame D(alpha_disp)."""

    alpha_disp: float
    omega0_tilde: float   # lam^2 omega_0
    g_tilde: float        # sqrt(omega_c omega_0) / (2 lam)


def displaced_frame(p: RabiParams, alpha_disp: float) -> DisplacedFrame:
    lam = p.lam
    return DisplacedFrame(alpha_disp, lam**2 * p.omega_0, sqrt(p.omega_c * p.omega_0) / (2.0 * lam))


def effective_np_coeffs(p: RabiParams) -> tuple[float, float, float]:
    """(c2, c4, const) of the fourth-order low-spin effective Hamiltonian of
    the normal phase, omega_c n - c2 x^2 + c4 x^4 + const with x = a + a^dag:
    c2 = omega_c lam^2 / 4, c4 = lam^4 omega_c^2 / (16 omega_0) and
    const = -omega_0/2 + lam^2 omega_c^2 / (4 omega_0)."""
    lam = p.lam
    c2 = p.omega_c * lam**2 / 4.0
    c4 = lam**4 * p.omega_c**2 / (16.0 * p.omega_0)
    const = -0.5 * p.omega_0 + lam**2 * p.omega_c**2 / (4.0 * p.omega_0)
    return c2, c4, const


def effective_sp_coeffs(p: RabiParams) -> tuple[float, float, float]:
    """(c2, c4, const) of the effective Hamiltonian of the superradiant phase,
    of the same form in the frame displaced by alpha_lambda: c2 = g~^2 /
    omega0~, c4 = g~^4 / omega0~^3 and const = -omega0~/2 + g~^2 omega_c /
    omega0~^2 + omega_c alpha_lambda^2; requires lam > 1."""
    lam = p.lam
    if lam <= 1.0:
        raise PhaseDomainError(
            f"superradiant effective Hamiltonian requires lam > 1, got lam={lam}"
        )
    frame = displaced_frame(p, alpha_lambda(p))
    gt, w0t = frame.g_tilde, frame.omega0_tilde
    # constant terms kept explicit so ground energies match the bare-frame
    # curves; the g~^2 omega_c / omega0~^2 form is the one consistent with the
    # variational energy constant omega_c^2 / (4 omega0~ lam^4).
    const = (
        -0.5 * w0t
        + gt**2 * p.omega_c / w0t**2
        + p.omega_c * frame.alpha_disp**2
    )
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
    sinh^2(2 r)/2 + (g/omega_0)^2 e^{-2 r}."""
    r = squeezing_np(p.lam)
    return 0.5 * sinh(2.0 * r) ** 2 + (p.g / p.omega_0) ** 2 * exp(-2.0 * r)


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
    frame = displaced_frame(p, alpha)
    ratio2 = (frame.g_tilde / frame.omega0_tilde) ** 2
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
    wc = p.omega_c
    lam = p.lam
    if phase == NORMAL:
        return (
            wc * sinh(s) ** 2
            - (wc * lam**2 / 4.0) * exp(2.0 * s)
            + (3.0 * lam**4 * wc**2 / (16.0 * p.omega_0)) * exp(4.0 * s)
            - 0.5 * p.omega_0
            + lam**2 * wc**2 / (4.0 * p.omega_0)
        )
    frame = displaced_frame(p, alpha_lambda(p))
    w0t = frame.omega0_tilde
    return (
        wc * sinh(s) ** 2
        - (wc / (4.0 * lam**4)) * exp(2.0 * s)
        + (3.0 * wc**2 / (16.0 * w0t * lam**8)) * exp(4.0 * s)
        - 0.5 * w0t
        + wc**2 / (4.0 * w0t * lam**4)
        + wc * frame.alpha_disp**2
    )


# --- dense Hamiltonians ----------------------------------------------------


def build_rabi(p: RabiParams, cutoff: FockCutoff) -> Operator:
    """H = omega_c a^dag a + (omega_0/2) sigma_z - g sigma_x (a + a^dag)."""
    nb = cutoff.dim
    i2 = identity((2,))
    ib = identity((nb,))
    h = (
        p.omega_c * tensor(i2, number(cutoff))
        + (0.5 * p.omega_0) * tensor(pauli("z"), ib)
        - p.g * tensor(pauli("x"), quadrature_x(cutoff))
    )
    return h


def build_branch(p: RabiParams, probe: ProbeParams, branch: str, cutoff: FockCutoff) -> Operator:
    """Conditional Rabi Hamiltonian given the probe in |e> or |g>.

    branch 'e': cavity frequency omega_c + chi, constant +(omega_s/2 + chi).
    branch 'g': cavity frequency omega_c - chi, constant -omega_s/2.
    """
    if branch not in ("e", "g"):
        raise ValueError(f"branch must be 'e' or 'g', got {branch!r}")
    chi = probe.chi
    if branch == "e":
        omega_b = p.omega_c + chi
        const = 0.5 * probe.omega_s + chi
    else:
        omega_b = p.omega_c - chi
        const = -0.5 * probe.omega_s
    shifted = RabiParams(omega_b, p.omega_0, p.g)
    h = build_rabi(shifted, cutoff)
    return h + const * identity(h.dims)


def build_tripartite(p: RabiParams, probe: ProbeParams, cutoff: FockCutoff) -> Operator:
    """Full Jaynes-Cummings probe plus Rabi model, before the dispersive step.

    Space: probe-spin (x) Rabi-spin (x) Fock, dimension 4 (n_max + 1).
    """
    nb = cutoff.dim
    i2 = identity((2,))
    ib = identity((nb,))
    a = annihilation(cutoff)
    rabi = tensor(i2, build_rabi(p, cutoff))
    h_probe = (0.5 * probe.omega_s) * tensor(pauli("z"), tensor(i2, ib))
    h_jc = (-probe.g_s) * (
        tensor(sigma_minus(), tensor(i2, a.dag()))
        + tensor(sigma_plus(), tensor(i2, a))
    )
    return rabi + h_probe + h_jc


def build_displaced_rabi(
    p: RabiParams, alpha_disp: float, cutoff: FockCutoff
) -> tuple[Operator, DisplacedFrame]:
    """Rabi Hamiltonian conjugated by D(alpha_disp), expanded term-by-term.

    H~ = omega_c (a^dag + alpha)(a + alpha) - g (a + a^dag) sigma_x
         + (omega_0/2) sigma_z - 2 g alpha sigma_x.

    Built analytically (not by numerical conjugation with the truncated
    displacement unitary), so it stays exactly Hermitian for any alpha.
    """
    nb = cutoff.dim
    i2 = identity((2,))
    ib = identity((nb,))
    x = quadrature_x(cutoff)
    boson = p.omega_c * (number(cutoff) + alpha_disp * x + alpha_disp**2 * ib)
    h = (
        tensor(i2, boson)
        + (0.5 * p.omega_0) * tensor(pauli("z"), ib)
        - p.g * tensor(pauli("x"), x)
        - (2.0 * p.g * alpha_disp) * tensor(pauli("x"), ib)
    )
    return h, displaced_frame(p, alpha_disp)


def spin_mixing_angle(p: RabiParams, alpha_disp: float) -> float:
    """Spin mixing angle theta of the frame displaced by alpha_disp,
    tan(2 theta) = -4 g alpha_disp / omega_0, in (-pi/4, pi/4]."""
    theta = 0.5 * atan(-4.0 * p.g * alpha_disp / p.omega_0)
    if theta <= -pi / 4.0:
        theta += pi / 2.0
    return theta


def _quartic_dense(omega_c: float, c2: float, c4: float, const: float,
                     cutoff: FockCutoff) -> Operator:
    x = quadrature_x(cutoff)
    x2 = x @ x
    return (
        omega_c * number(cutoff)
        - c2 * x2
        + c4 * (x2 @ x2)
        + const * identity(x.dims)
    )


def build_effective_np(p: RabiParams, cutoff: FockCutoff) -> Operator:
    """Fourth-order low-spin effective Hamiltonian of the normal phase.

    Boson-only: omega_c n - (omega_c lam^2/4) x^2 + (lam^4 omega_c^2 /
    (16 omega_0)) x^4 - omega_0/2 + lam^2 omega_c^2 / (4 omega_0),
    with x = a + a^dag.
    """
    return _quartic_dense(p.omega_c, *effective_np_coeffs(p), cutoff)


def build_effective_sp(p: RabiParams, cutoff: FockCutoff) -> Operator:
    """Fourth-order low-spin effective Hamiltonian of the superradiant phase.

    Boson-only, in the frame displaced by alpha_lambda; requires lam > 1.
    """
    return _quartic_dense(p.omega_c, *effective_sp_coeffs(p), cutoff)


def build_effective_np_band(p: RabiParams, cutoff: FockCutoff) -> BandMatrix:
    """`build_effective_np` as a real band of half-width 4 in natural Fock
    order, its constant on the diagonal."""
    c2, c4, const = effective_np_coeffs(p)
    return _quartic_band(p.omega_c, c2, c4, cutoff).shifted(const)


def build_effective_sp_band(p: RabiParams, cutoff: FockCutoff) -> BandMatrix:
    """`build_effective_sp` as a real band of half-width 4 in natural Fock
    order of the frame displaced by alpha_lambda; requires lam > 1."""
    c2, c4, const = effective_sp_coeffs(p)
    return _quartic_band(p.omega_c, c2, c4, cutoff).shifted(const)


def build_rabi_parity_chains(p: RabiParams, cutoff: FockCutoff) -> BandMatrix:
    """`build_rabi` as a real tridiagonal matrix in parity order, both parity
    chains: rows 0..n_max are the even chain |g,0>, |e,1>, |g,2>, ... (the
    library's `build_rabi_parity`), rows n_max+1.. the odd chain |e,0>,
    |g,1>, .... Row k of either chain has k photons; the sub-diagonal entry
    joining the chains is zero."""
    k = np.arange(cutoff.dim, dtype=float)
    spin = 0.5 * p.omega_0 * (-1.0) ** (k + 1)  # sigma_z on the even chain
    hop = -p.g * np.sqrt(k + 1.0)
    hop[-1] = 0.0
    return BandMatrix(np.array([
        np.concatenate([p.omega_c * k + spin, p.omega_c * k - spin]),
        np.concatenate([hop, hop]),
    ]))


# --- ground states and moments ----------------------------------------------


@dataclass(frozen=True)
class GroundStateResult:
    energy: float
    state: QuantumState
    cutoff_used: FockCutoff
    converged: bool
    energy_drift: float


def ground_state(h: Operator) -> GroundStateResult:
    """Lowest eigenpair of a Hermitian operator.

    The cutoff recorded is inferred from the last (boson) subsystem label.
    Convergence against cutoff doubling is the caller's concern; see
    `converge_cutoff` / `converged_ground_state`.
    """
    if not h.is_hermitian():
        raise ValueError("ground_state requires a Hermitian operator")
    w, v = np.linalg.eigh(h.mat)
    vec = _fix_phase(v[:, 0])
    state = QuantumState(vec / np.linalg.norm(vec), h.dims)
    return GroundStateResult(
        energy=float(w[0]),
        state=state,
        cutoff_used=FockCutoff(h.dims[-1] - 1),
        converged=True,
        energy_drift=0.0,
    )


def photon_moments(psi: QuantumState, boson_axis: int = -1) -> tuple[float, float]:
    """Mean and variance of the photon number in `psi`.

    `boson_axis` indexes the entry of `psi.dims` that is the Fock factor.
    """
    ndims = len(psi.dims)
    axis = boson_axis % ndims
    nb = psi.dims[axis]
    if nb < 2:
        raise LayoutError(f"axis {boson_axis} of dims {psi.dims} is not a boson factor")
    amp = psi.vec.reshape(psi.dims)
    amp = np.moveaxis(amp, axis, -1).reshape(-1, nb)
    prob = (np.abs(amp) ** 2).sum(axis=0)
    n = np.arange(nb, dtype=float)
    mean = float(prob @ n)
    mean2 = float(prob @ n**2)
    return mean, max(mean2 - mean**2, 0.0)


def operator_moments(psi: QuantumState, op: Operator) -> tuple[float, float]:
    """Mean and variance of a Hermitian operator in `psi`."""
    v = psi.vec
    ov = op.mat @ v
    mean = float(np.real(np.vdot(v, ov)))
    mean2 = float(np.real(np.vdot(ov, ov)))
    return mean, max(mean2 - mean**2, 0.0)


def parity_operator(cutoff: FockCutoff) -> Operator:
    """Pi = exp{i pi [a^dag a + (1 + sigma_z)/2]} on spin (x) Fock.

    Diagonal with entries (-1)^(n + 1) on the |e> block and (-1)^n on |g>.
    """
    n = np.arange(cutoff.dim)
    fock_sign = (-1.0) ** n
    diag = np.concatenate([-fock_sign, fock_sign]).astype(complex)
    return Operator(np.diag(diag), (2, cutoff.dim))


def energy_search(frames, tol: float) -> FrameCutoff:
    """The reference of `spectra.converge_cutoff`, by energy comparison: over
    the same doubling sequence and frames (each a builder, cutoff -> dense
    `Operator` or `BandMatrix`, or None where that frame is not built), the
    first frame at the first cutoff n whose ground energy moves by less than
    tol, |E(2n) - E(n)| < tol, with E(2n) bisected (or diagonalised) too."""
    if not (isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    known: dict[tuple[int, int], float | None] = {}

    def energy(frame: int, n: int) -> float | None:
        if (frame, n) not in known:
            h = frames[frame](FockCutoff(n))
            if h is not None:
                h = band_ground_energy(h) if isinstance(h, BandMatrix) else ground_state(h).energy
            known[frame, n] = h
        return known[frame, n]

    n = spectra.N_START
    while 2 * n <= spectra.CUTOFF_HARD_CAP:
        for frame in range(len(frames)):
            e_n = energy(frame, n)
            if e_n is not None and abs(energy(frame, 2 * n) - e_n) < tol:
                return FrameCutoff(frame, FockCutoff(n), e_n)
        n *= 2
    raise ConvergenceError(
        f"ground energy not converged to {tol} below cutoff {spectra.CUTOFF_HARD_CAP}"
    )


def converge_cutoff(builder, tol: float) -> FockCutoff | FrameCutoff:
    """`energy_search` over dense (or band) builders: one builder gives its
    `FockCutoff`, a tuple of builders of one Hamiltonian in several frames
    the `FrameCutoff` of the first frame to converge."""
    if isinstance(builder, tuple):
        return energy_search(builder, tol)
    return energy_search((builder,), tol).cutoff


def converged_ground_state(
    builder: Callable[[FockCutoff], Operator], tol: float
) -> GroundStateResult:
    """Ground state at the converged cutoff, with the doubling drift recorded."""
    cutoff = converge_cutoff(builder, tol)
    res = ground_state(builder(cutoff))
    e_double = ground_state(builder(FockCutoff(2 * cutoff.n_max))).energy
    drift = abs(res.energy - e_double)
    return GroundStateResult(
        energy=res.energy,
        state=res.state,
        cutoff_used=cutoff,
        converged=drift < tol,
        energy_drift=drift,
    )


# --- dynamics -----------------------------------------------------------------


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and real orthonormal eigenvectors (columns) of
    a dense real symmetric `Operator`, by `numpy.linalg.eigh`, or of a
    `BandMatrix`, by scipy's `eigh_tridiagonal` or `eig_banded` (every
    Hamiltonian here is real)."""

    energies: np.ndarray
    vectors: np.ndarray

    @classmethod
    def of(cls, h: Operator | BandMatrix) -> "SpectralDecomposition":
        if isinstance(h, BandMatrix):
            if h.band.shape[0] == 2:
                return cls(*eigh_tridiagonal(h.band[0], h.band[1, :-1]))
            return cls(*eig_banded(h.band, lower=True))
        if not h.is_hermitian():
            raise ValueError("spectral decomposition requires a Hermitian operator")
        if np.abs(h.mat.imag).max() > 0.0:
            raise ValueError("the dense oracle evolves real symmetric operators only")
        return cls(*np.linalg.eigh(h.mat.real))

    def evolved(self, vec: np.ndarray, times, e_ref: float = 0.0) -> np.ndarray:
        """exp(-i (H - e_ref) t) vec at every t of `times`, a column per
        time. The real eigenvectors multiply the real and imaginary parts
        apart, so they are never copied to complex."""
        v = self.vectors
        if vec.shape[0] != v.shape[0]:
            raise DimensionMismatchError(
                f"state dim {vec.shape[0]} vs decomposition dim {v.shape[0]}"
            )
        coeff = v.T @ vec.real + 1j * (v.T @ vec.imag)
        z = np.exp(-1j * np.outer(self.energies - e_ref, times)) * coeff[:, None]
        return v @ z.real + 1j * (v @ z.imag)


def evolve(decomp: SpectralDecomposition, psi0: QuantumState, t: float) -> QuantumState:
    """psi(t) = V exp(-i Lambda t) V^T psi0 at one time t."""
    return QuantumState(decomp.evolved(psi0.vec, [t])[:, 0], psi0.dims)


@dataclass(frozen=True)
class EchoSweep:
    """`dynamics.echo_point` at each lambda of a grid, stacked."""

    l_matrix: np.ndarray          # shape (len(lams), len(times))
    gammas: np.ndarray
    cutoffs: list                 # None where nothing is diagonalised


def echo_sweep(eta: float, probe: ProbeParams, lams, times, method: str,
               cutoff_tol: float = spectra.CUTOFF_TOL) -> EchoSweep:
    """The echo at each lambda of `lams` (eta fixed, omega_c = 1)."""
    points = [dynamics.echo_point(RabiParams.from_dimensionless(lam, eta), probe, times,
                                  method, cutoff_tol)
              for lam in lams]
    return EchoSweep(
        l_matrix=np.array([pt.l_values for pt in points]),
        gammas=np.array([pt.gamma for pt in points]),
        cutoffs=[pt.ground.cutoff.n_max if pt.ground else None for pt in points],
    )


@dataclass(frozen=True)
class EchoSeries:
    times: np.ndarray
    d_values: np.ndarray
    l_values: np.ndarray


def decoherence_factor(
    h_g: Operator | BandMatrix,
    h_e: Operator | BandMatrix,
    ground: QuantumState,
    times,
) -> EchoSeries:
    """D(t) = <G| exp(i H_g t) exp(-i H_e t) |G> and L = |D|^2 at every t of
    `times`, from the full spectrum of each branch (`SpectralDecomposition`),
    both branches evolved to every time in one product. Energies are
    measured from H_g's lowest, a common phase of both branches that |D|
    does not see, so that the phases E t stay small."""
    if h_g.dim != h_e.dim:
        raise DimensionMismatchError(f"branch dims differ: {h_g.dim} vs {h_e.dim}")
    times = np.asarray(times, dtype=float)
    dg, de = SpectralDecomposition.of(h_g), SpectralDecomposition.of(h_e)
    e_ref = dg.energies[0]
    d = np.sum(dg.evolved(ground.vec, times, e_ref).conj()
               * de.evolved(ground.vec, times, e_ref), axis=0)
    return EchoSeries(times=times, d_values=d, l_values=np.abs(d) ** 2)


def probe_reduced_state(probe: ProbeParams, d: complex) -> np.ndarray:
    """2x2 probe density matrix in the (|e>, |g>) basis for a given D(t)."""
    if abs(d) > 1.0 + 1e-10:
        raise ValueError(f"|D| = {abs(d)} exceeds 1 beyond tolerance")
    a, b = probe.alpha, probe.beta
    return np.array(
        [
            [abs(b) ** 2, d * np.conj(a) * b],
            [np.conj(d) * a * np.conj(b), abs(a) ** 2],
        ],
        dtype=complex,
    )


# --- the tripartite check -----------------------------------------------------


def validate_dispersive(
    p: RabiParams,
    probe: ProbeParams,
    times,
    cutoff: FockCutoff | None = None,
    cutoff_tol: float = 1e-8,
) -> DispersiveReport:
    """Dense reference of `experiments.validate_dispersive`: the tripartite
    evolution by dense eigendecomposition, every time in one product, against
    the branch-echo prediction |D(t)| |alpha* beta| * 2 on both parity sectors.

    Report-only: warns (never fails) when the dispersive condition
    |Delta_s| >> g_s sqrt(<n> + 1) is violated.
    """
    times = np.asarray(times, dtype=float)
    if cutoff is None:
        cutoff = converge_cutoff(lambda c: build_rabi(p, c), cutoff_tol)
    gs = ground_state(build_rabi(p, cutoff))
    mean_n, _ = photon_moments(gs.state)
    if abs(probe.delta_s) < 10.0 * probe.g_s * np.sqrt(mean_n + 1.0):
        warnings.warn(
            "dispersive condition |Delta_s| >> g_s sqrt(<n>+1) is violated; "
            "large deviations expected",
            stacklevel=2,
        )
    # exact tripartite evolution, probe initialized in alpha|g> + beta|e>
    h3 = build_tripartite(p, probe, cutoff)
    decomp = SpectralDecomposition.of(h3)
    probe_vec = np.array([probe.beta, probe.alpha], dtype=complex)  # (|e>, |g>)
    psi0 = QuantumState(np.kron(probe_vec, gs.state.vec), (2,) + gs.state.dims)
    rabi_dim = gs.state.dim
    sm = np.zeros((2, 2))
    sm[1, 0] = 1.0  # |g><e| on the probe
    sm_full = np.kron(sm, np.eye(rabi_dim))
    # coherence magnitude convention: 2 |<sigma_->| = 2 |rho_eg|
    psi = decomp.evolved(psi0.vec, times)
    coherence_exact = 2.0 * np.abs(np.sum(psi.conj() * (sm_full @ psi), axis=0))
    # branch-echo prediction
    h_g = build_branch(p, probe, "g", cutoff)
    h_e = build_branch(p, probe, "e", cutoff)
    series = decoherence_factor(h_g, h_e, gs.state, times)
    coherence_pred = 2.0 * abs(np.conj(probe.alpha) * probe.beta) * np.abs(series.d_values)
    denom = np.maximum(coherence_pred, 1e-15)
    max_rel = float(np.max(np.abs(coherence_exact - coherence_pred) / denom))
    return DispersiveReport(
        times=times,
        coherence_exact=coherence_exact,
        coherence_predicted=coherence_pred,
        max_rel_deviation=max_rel,
        dispersive_regime=abs(probe.delta_s) >= 10.0 * probe.g_s * np.sqrt(mean_n + 1.0),
    )


# --- the quartic oscillator at the critical point ----------------------------


@dataclass(frozen=True)
class QuarticOscillator:
    """Ground state of the dimensionless oscillator P^2/2 + Y^4/4
    (P = -i d/dY) by finite differences: `points` grid points on
    [-half_width, half_width], P^2 the three-point second difference with
    psi = 0 beyond the grid.

    At lam = 1 the normal-phase effective Hamiltonian
    omega_c n - (omega_c/4) x^2 + omega_c x^4 / (16 eta) equals
    omega_c eta^(-1/3) [P^2/2 + Y^4/4] - omega_c/2 with x = sqrt(2) eta^(1/6) Y
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

    def photon_moments(self, eta: float) -> tuple[float, float]:
        """Mean and variance of n = (eta^(1/3) Y^2 + eta^(-1/3) P^2)/2 - 1/2."""
        scale = eta ** (1.0 / 3.0)
        padded = np.concatenate([[0.0], self.psi, [0.0]])
        p2_psi = -(padded[2:] - 2.0 * self.psi + padded[:-2]) / (self.y[1] - self.y[0]) ** 2
        n_psi = 0.5 * (scale * self.y**2 * self.psi + p2_psi / scale) - 0.5 * self.psi
        mean = float(self.psi @ n_psi)
        return mean, float(n_psi @ n_psi) - mean**2


# --- the closed forms ---------------------------------------------------------


@dataclass(frozen=True)
class AnalyticGroundState:
    phase: str               # "normal" | "superradiant"
    r: float                 # squeezing parameter
    alpha_disp: float        # displacement (0 in the normal phase)
    epsilon: float           # excitation frequency of the diagonalized form
    energy: float            # ground energy on the low spin branch
    gamma: float             # photon-number variance
    mean_n: float            # average photon number


def analytic_ground_state(p: RabiParams) -> AnalyticGroundState:
    """Infinite-eta ground-state summary in whichever phase lam selects.

    The superradiant branch energy uses the tilded spin splitting
    omega0~ = lam^2 omega_0 (the rotated two-level spacing), which is the
    form consistent with the known ground energy -omega_0 (lam^2 +
    lam^-2)/4 for lam > 1.
    """
    lam = p.lam
    if lam < 1.0:
        r = squeezing_np(lam)
        eps = p.omega_c * sqrt(1.0 - lam**2)
        energy = 0.5 * (eps - p.omega_c - p.omega_0)
        return AnalyticGroundState(
            phase="normal",
            r=r,
            alpha_disp=0.0,
            epsilon=eps,
            energy=energy,
            gamma=variance_np(p),
            mean_n=sinh(r) ** 2,
        )
    alpha, r = superradiant_frame(p)
    frame = displaced_frame(p, alpha)
    eps = p.omega_c * sqrt(1.0 - lam**-4)
    energy = 0.5 * (eps - p.omega_c - frame.omega0_tilde) + p.omega_c * alpha**2
    return AnalyticGroundState(
        phase="superradiant",
        r=r,
        alpha_disp=alpha,
        epsilon=eps,
        energy=energy,
        gamma=variance_sp(p),
        mean_n=sinh(r) ** 2 + alpha**2,
    )


def stationarity(sol: VariationalSolution, p: RabiParams) -> tuple[float, float, float]:
    """(x, residual, curvature) of the variational energy at the solution's
    squeezing parameter s: the root x = e^{2 s} of the stationarity cubic,
    the residual |dE/ds| = omega_c / (2 x) |c3 x^3 + c2 x^2 - 1| there, and
    d^2E/ds^2 by central differences with step 1e-4."""
    x = exp(2.0 * sol.s)
    c3, c2 = cubic_coeffs(sol.phase, p)
    residual = abs(p.omega_c / (2.0 * x) * (c3 * x**3 + c2 * x**2 - 1.0))
    h = 1e-4
    curvature = (
        energy_at(sol.phase, sol.s + h, p) - 2.0 * energy_at(sol.phase, sol.s, p)
        + energy_at(sol.phase, sol.s - h, p)
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
    c3, c2 = cubic_coeffs(phase, RabiParams.from_dimensionless(lam, eta))
    if c3 == 0.0:
        return c2**-0.5
    return _closed_form_x(phase, lam, eta)
