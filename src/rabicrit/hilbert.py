"""The truncated boson space and the matrix form every Hamiltonian here is
solved in.

`FockCutoff` truncates the boson space at a Fock level. `BandMatrix` holds a
real symmetric band matrix: each Hamiltonian of the exact and effective
methods and of the tripartite check is real symmetric and banded in a basis
ordered by photon number (see the `*_band` / `*_parity` builders in
`hamiltonians`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationError


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
class BandMatrix:
    """Real symmetric band matrix in LAPACK lower band storage.

    ``band[i - j, j] = H[i, j]`` for ``0 <= i - j < band.shape[0]``; entries
    past the last row of H are ignored. Two rows make it tridiagonal.
    """

    band: np.ndarray

    @property
    def dim(self) -> int:
        return self.band.shape[1]

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
