"""Dense reference implementations that the library is tested against.

The library solves every Hamiltonian as a real symmetric band matrix
(`rabicrit.hilbert.BandMatrix`). This module keeps the dense complex path as
the tests' oracle:
  * `Operator` and `QuantumState` on the truncated spin (x) Fock space
    (basis ordering: spin factor first with basis (|e>, |g>), boson factor
    second with Fock levels 0..n_max), ladder operators, Pauli matrices,
    tensor products, displacement and squeezing by `expm`;
  * the dense builders of the Rabi, branch, tripartite, displaced-frame and
    effective Hamiltonians;
  * ground states by full eigendecomposition, photon-number and operator
    moments, the parity operator, single-time evolution;
  * the dense tripartite check of the dispersive approximation;
  * the published closed-form root of the variational cubic, evaluated in
    50-digit arithmetic, which Newton's root must match to DUAL_PATH_RTOL.

Cutoff doubling and the echo's evolution kernel are the library's own
(`spectra.converge_cutoff`, `dynamics.branch_echo`), fed here from dense
Hamiltonians; a `BandMatrix` is accepted wherever a Hamiltonian is.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import sinh
from typing import Callable

import mpmath as mp
import numpy as np
from scipy.linalg import expm

from rabicrit import dynamics, spectra
from rabicrit.errors import DimensionMismatchError, RabicritError
from rabicrit.experiments import DispersiveReport
from rabicrit.hamiltonians import (
    DisplacedFrame,
    ProbeParams,
    RabiParams,
    _effective_np_coeffs,
    _effective_sp_coeffs,
    displaced_frame,
)
from rabicrit.hilbert import BandMatrix, FockCutoff
from rabicrit.spectra import FrameCutoff, _fix_phase, band_ground_energy
from rabicrit.variational import NORMAL, _cubic_coeffs

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
    return _quartic_dense(p.omega_c, *_effective_np_coeffs(p), cutoff)


def build_effective_sp(p: RabiParams, cutoff: FockCutoff) -> Operator:
    """Fourth-order low-spin effective Hamiltonian of the superradiant phase.

    Boson-only, in the frame displaced by alpha_lambda; requires lam > 1.
    """
    return _quartic_dense(p.omega_c, *_effective_sp_coeffs(p), cutoff)


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


def _ground_energy(builder):
    """`builder` as a frame of `spectra.converge_cutoff`: cutoff -> ground
    energy, or None where it builds nothing."""

    def energy(cutoff: FockCutoff) -> float | None:
        h = builder(cutoff)
        if h is None:
            return None
        return band_ground_energy(h) if isinstance(h, BandMatrix) else ground_state(h).energy

    return energy


def converge_cutoff(builder, tol: float) -> FockCutoff | FrameCutoff:
    """`spectra.converge_cutoff` over dense (or band) builders: one builder
    gives its `FockCutoff`, a tuple of builders of one Hamiltonian in several
    frames the `FrameCutoff` of the first frame to converge."""
    if isinstance(builder, tuple):
        return spectra.converge_cutoff(tuple(map(_ground_energy, builder)), tol)
    return spectra.converge_cutoff((_ground_energy(builder),), tol).cutoff


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


class SpectralDecomposition(dynamics.SpectralDecomposition):
    """`dynamics.SpectralDecomposition` of a `BandMatrix` or of a dense real
    symmetric `Operator` (every Hamiltonian here is real), so that the
    library's evolution kernel, which takes real eigenvectors, applies."""

    @classmethod
    def of(cls, h: Operator | BandMatrix) -> "SpectralDecomposition":
        if isinstance(h, BandMatrix):
            return super().of(h)
        if not h.is_hermitian():
            raise ValueError("spectral decomposition requires a Hermitian operator")
        if np.abs(h.mat.imag).max() > 0.0:
            raise ValueError("the dense oracle evolves real symmetric operators only")
        return cls(*np.linalg.eigh(h.mat.real))


def evolve(decomp: SpectralDecomposition, psi0: QuantumState, t: float) -> QuantumState:
    """psi(t) = V exp(-i Lambda t) V^dag psi0 at one time t."""
    if psi0.dim != decomp.vectors.shape[0]:
        raise DimensionMismatchError(
            f"state dim {psi0.dim} vs decomposition dim {decomp.vectors.shape[0]}"
        )
    coeff = decomp.vectors.conj().T @ psi0.vec
    vec = decomp.vectors @ (np.exp(-1j * decomp.energies * t) * coeff)
    return QuantumState(vec, psi0.dims)


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


def decoherence_factor(
    h_g: Operator | BandMatrix,
    h_e: Operator | BandMatrix,
    ground: QuantumState,
    times,
) -> dynamics.EchoSeries:
    """`dynamics.decoherence_factor` on dense (or band) branches."""
    return dynamics.branch_echo(SpectralDecomposition.of(h_g), SpectralDecomposition.of(h_e),
                                ground.vec, times)


# --- the tripartite check -----------------------------------------------------


def validate_dispersive(
    p: RabiParams,
    probe: ProbeParams,
    times,
    cutoff: FockCutoff | None = None,
    cutoff_tol: float = 1e-8,
) -> DispersiveReport:
    """Dense reference of `experiments.validate_dispersive`: the tripartite
    evolution by dense eigendecomposition, one time at a time, against the
    branch-echo prediction |D(t)| |alpha* beta| * 2 on both parity sectors.

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
    coherence_exact = np.empty_like(times)
    for k, t in enumerate(times):
        psi_t = evolve(decomp, psi0, t)
        coherence_exact[k] = 2.0 * abs(np.vdot(psi_t.vec, sm_full @ psi_t.vec))
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


# --- the variational closed form ---------------------------------------------


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
    c3, c2 = _cubic_coeffs(phase, RabiParams.from_dimensionless(lam, eta))
    if c3 == 0.0:
        return c2**-0.5
    return _closed_form_x(phase, lam, eta)
