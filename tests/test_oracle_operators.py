"""Tests for the oracle's dense operators on the truncated spin (x) Fock
space (the ladder, number, Pauli, displacement and squeezing matrices of
`tests/oracle.py`), which the band solvers' references are built from; the
library holds no dense operator."""

import math

import numpy as np
import pytest

from oracle import (
    annihilation,
    displacement,
    number,
    pauli,
    quadrature_x,
    sigma_minus,
    sigma_plus,
    squeeze,
)


def test_annihilation_nmax1():
    assert np.array_equal(annihilation(1), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_number_operator_diagonal():
    c = 4
    a = annihilation(c)
    assert np.allclose(a.T @ a, np.diag([0, 1, 2, 3, 4]))
    assert np.array_equal(number(c), np.diag(np.arange(5.0)))


def test_pauli_conventions():
    assert np.array_equal(pauli("z"), np.diag([1.0, -1.0]))
    assert np.allclose(pauli("x") @ pauli("x"), np.eye(2))
    assert np.allclose(pauli("x") @ pauli("y"), 1j * pauli("z"))
    with pytest.raises(ValueError):
        pauli("w")


def test_sigma_ladder():
    assert np.allclose(sigma_plus() + sigma_minus(), pauli("x"))
    # sigma_+ |g> = |e> in the (|e>, |g>) ordering
    assert np.allclose(sigma_plus() @ np.array([0, 1]), np.array([1, 0]))


def test_displacement_zero_identity():
    assert np.allclose(displacement(0.0, 10), np.eye(11))


def test_displacement_coherent_mean():
    c = 40
    vac = np.zeros(c + 1)
    vac[0] = 1.0
    psi = displacement(2.0, c) @ vac
    assert abs(psi @ number(c) @ psi - 4.0) < 1e-6


def test_displacement_unitary():
    c = 60
    d = displacement(3.0, c)
    assert np.abs(d.T @ d - np.eye(c + 1)).max() < 1e-8
    assert np.abs(displacement(-3.0, c) @ d - np.eye(c + 1)).max() < 1e-8


def test_displacement_warns_on_small_cutoff():
    with pytest.warns(UserWarning):
        displacement(5.0, 10)


def test_squeeze_zero_identity():
    assert np.allclose(squeeze(0.0, 25), np.eye(26))


def test_squeeze_vacuum_moments():
    c = 40
    vac = np.zeros(c + 1)
    vac[0] = 1.0
    psi = squeeze(0.5, c) @ vac
    assert abs(psi @ number(c) @ psi - math.sinh(0.5) ** 2) < 1e-6

    psi = squeeze(0.3, c) @ vac
    x = quadrature_x(c) / math.sqrt(2.0)
    mx = psi @ x @ psi
    mx2 = psi @ x @ x @ psi
    assert abs((mx2 - mx**2) - math.exp(2 * 0.3) / 2.0) < 1e-6
