"""Operator algebra on the truncated boson (x) spin Hilbert space.

`Operator` holds a dense complex matrix; the builders here and in
`hamiltonians` use it, and it is the reference the structured solvers are
tested against. Basis ordering convention: spin factor first with basis
(|e>, |g>), boson factor second with Fock levels 0..n_max. `BandMatrix` holds
a real symmetric band matrix, the form in which the exact and effective
methods solve their Hamiltonians (see `hamiltonians.build_rabi_parity` and
`hamiltonians.build_effective_np_band`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import sinh

import numpy as np
from scipy.linalg import expm

from .errors import DimensionMismatchError, TruncationError

HERMITICITY_RTOL = 1e-12
NORM_ATOL = 1e-10


@dataclass(frozen=True)
class FockCutoff:
    """Truncation of the boson space at Fock level ``n_max`` (dimension n_max+1)."""

    n_max: int

    def __post_init__(self):
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 1:
            raise TruncationError(
                f"n_max must be an integer >= 1, got {self.n_max!r}"
            )

    @property
    def dim(self) -> int:
        return self.n_max + 1


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
class BandMatrix:
    """Real symmetric band matrix in LAPACK lower band storage.

    ``band[i - j, j] = H[i, j]`` for ``0 <= i - j < band.shape[0]``; entries
    past the last row of H are ignored. Two rows make it tridiagonal.
    """

    band: np.ndarray

    @property
    def dim(self) -> int:
        return self.band.shape[1]

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.dim,)

    def shifted(self, const: float) -> "BandMatrix":
        """H + const * identity."""
        band = self.band.copy()
        band[0] += const
        return BandMatrix(band)

    def leading(self, m: int) -> "BandMatrix":
        """The leading m x m principal block."""
        return BandMatrix(self.band[:, :m])

    def even(self) -> "BandMatrix":
        """Rows and columns 0, 2, 4, ..., with half the half-width: an
        invariant block of H when its odd diagonals are zero."""
        return BandMatrix(self.band[0::2, 0::2])


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
