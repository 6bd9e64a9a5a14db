"""The matrix form every Hamiltonian here is solved in.

`BandMatrix` holds a real symmetric band matrix: each Hamiltonian of the
exact and effective methods and of the tripartite check is real symmetric and
banded in a basis ordered by photon number (see the `*_band` / `*_parity`
builders in `hamiltonians`, which truncate the boson space at a Fock level
`n_max`, an int: levels 0..n_max). Each is built as the block it is solved
on; the one block taken from a built band is `even()`, the effective
Hamiltonian's even photon numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def even(self) -> "BandMatrix":
        """Rows and columns 0, 2, 4, ..., with half the half-width: an
        invariant block of H when its odd diagonals are zero."""
        return BandMatrix(self.band[0::2, 0::2])
