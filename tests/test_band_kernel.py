"""The eigensolver kernel `spectra._band_eigh` against scipy.

The kernel calls the LAPACK drivers that `scipy.linalg.eigh_tridiagonal` and
`eig_banded` pick, with the same arguments, so in both its modes (the lowest
eigenvalue alone, the full spectrum with eigenvectors) it must return their
results bit for bit, and keep their checks: a non-finite entry raises
`ValueError`, a driver that reports failure raises `LinAlgError`.
"""

from itertools import product

import numpy as np
import pytest
from scipy.linalg import LinAlgError, eig_banded, eigh_tridiagonal

import rabicrit.spectra as spectra
from oracle import build_rabi_parity_chains
from rabicrit.hamiltonians import RabiParams, build_rabi_parity


def _scipy_eigh(h: np.ndarray, lowest: bool):
    select, select_range = ("i", (0, 0)) if lowest else ("a", None)
    if h.shape[0] == 2:
        return eigh_tridiagonal(h[0], h[1, :-1], lowest, select, select_range)
    return eig_banded(h, lower=True, eigvals_only=lowest,
                      select=select, select_range=select_range)


def _assert_bitwise(h: np.ndarray):
    for lowest in (True, False):
        got = spectra._band_eigh(h, lowest)
        ref = _scipy_eigh(h, lowest)
        if lowest:
            got, ref = (got,), (ref,)
        for a, b in zip(got, ref):
            assert a.shape == b.shape, lowest
            assert np.array_equal(a, b), lowest


@pytest.mark.parametrize("width, dim", product((1, 2, 3, 4), (1, 2, 9, 130)))
def test_band_eigh_equals_scipy_bit_for_bit(width, dim):
    rng = np.random.default_rng(1000 * width + dim)
    _assert_bitwise(rng.standard_normal((width + 1, dim)))


def test_band_eigh_equals_scipy_across_a_zero_off_diagonal():
    # a tridiagonal matrix that splits into two blocks, as the two parity
    # chains of the Rabi Hamiltonian do at their join
    rng = np.random.default_rng(7)
    band = rng.standard_normal((2, 20))
    band[1, 9] = 0.0
    _assert_bitwise(band)
    for lam in (0.5, 1.2):
        p = RabiParams(lam, 50.0)
        _assert_bitwise(build_rabi_parity_chains(1.0, p.eta, p.g, 24))
        _assert_bitwise(build_rabi_parity(p, 24))


@pytest.mark.parametrize("width", (1, 3))
def test_band_eigh_rejects_non_finite_entries(width):
    band = np.random.default_rng(3).standard_normal((width + 1, 9))
    band[0, 4] = np.nan
    for lowest in (True, False):
        with pytest.raises(ValueError):
            spectra._band_eigh(band, lowest)


@pytest.mark.parametrize("driver, width, lowest", [
    ("dstebz", 1, True), ("dstevd", 1, False),
    ("dsbevx", 2, True), ("dsbevd", 2, False),
])
def test_band_eigh_raises_when_a_driver_fails(monkeypatch, driver, width, lowest):
    # a positive info, as LAPACK returns when it does not converge
    real = getattr(spectra, driver)

    def failing(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 1)

    monkeypatch.setattr(spectra, driver, failing)
    h = np.random.default_rng(5).standard_normal((width + 1, 9))
    with pytest.raises(LinAlgError, match=driver):
        spectra._band_eigh(h, lowest)
