"""Tests for the oracle's dense operators on the truncated spin (x) Fock
space (`oracle.Operator`, `QuantumState`, the ladder, Pauli, displacement
and squeezing operators and the tensor product), which the band solvers'
references are built from; the library holds no dense operator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    DimensionMismatchError,
    Operator,
    QuantumState,
    annihilation,
    creation,
    displacement,
    identity,
    number,
    pauli,
    quadrature_x,
    sigma_minus,
    sigma_plus,
    squeeze,
    tensor,
)


def test_annihilation_nmax1():
    a = annihilation(1)
    assert np.array_equal(a.mat, np.array([[0, 1], [0, 0]], dtype=complex))


def test_number_operator_diagonal():
    c = 4
    n = creation(c) @ annihilation(c)
    assert np.allclose(n.mat, np.diag([0, 1, 2, 3, 4]))
    assert np.array_equal(number(c).mat, np.diag(np.arange(5).astype(complex)))


def test_commutator_truncation_artifact():
    # [a, a^dag] = I except at the highest retained level
    c = 4
    a = annihilation(c)
    comm = (a @ a.dag() - a.dag() @ a).mat
    expect = np.eye(5)
    expect[4, 4] = -4.0  # truncation artifact at level n_max
    assert np.allclose(comm, expect, atol=1e-14)
    assert np.abs(comm[:4, :4] - np.eye(4)).max() < 1e-15


def test_pauli_conventions():
    assert np.array_equal(pauli("z").mat, np.diag([1.0, -1.0]))
    assert np.allclose((pauli("x") @ pauli("x")).mat, np.eye(2))
    assert np.allclose((pauli("x") @ pauli("y")).mat, 1j * pauli("z").mat)
    with pytest.raises(ValueError):
        pauli("w")


def test_sigma_ladder():
    assert np.allclose((sigma_plus() + sigma_minus()).mat, pauli("x").mat)
    # sigma_+ |g> = |e> in the (|e>, |g>) ordering
    assert np.allclose(sigma_plus().mat @ np.array([0, 1]), np.array([1, 0]))


def test_tensor_identity():
    assert np.array_equal(tensor(identity((2,)), identity((3,))).mat, np.eye(6))
    assert tensor(identity((2,)), identity((3,))).dims == (2, 3)


def test_tensor_mixed_product_fixed():
    c = 3
    lhs = tensor(pauli("z"), identity((c + 1,))) @ tensor(identity((2,)), number(c))
    rhs = tensor(pauli("z"), number(c))
    assert np.allclose(lhs.mat, rhs.mat)


@st.composite
def small_matrix(draw, n):
    vals = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
    arr = np.array(vals[: n * n]) + 1j * np.array(vals[n * n :])
    return arr.reshape(n, n)


@given(small_matrix(2), small_matrix(2), small_matrix(3), small_matrix(3))
@settings(max_examples=25, deadline=None)
def test_tensor_mixed_product_property(a, c, b, d):
    A, C = Operator(a, (2,)), Operator(c, (2,))
    B, D = Operator(b, (3,)), Operator(d, (3,))
    lhs = tensor(A, B) @ tensor(C, D)
    rhs = tensor(A @ C, B @ D)
    assert np.allclose(lhs.mat, rhs.mat, atol=1e-12)


@given(small_matrix(2), small_matrix(3))
@settings(max_examples=25, deadline=None)
def test_tensor_trace_multiplicative(a, b):
    A, B = Operator(a, (2,)), Operator(b, (3,))
    assert np.isclose(np.trace(tensor(A, B).mat), np.trace(a) * np.trace(b))


def test_tensor_associative():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for d in (2, 3, 4)]
    A, B, C = (Operator(m, (m.shape[0],)) for m in mats)
    left = tensor(tensor(A, B), C)
    right = tensor(A, tensor(B, C))
    assert np.allclose(left.mat, right.mat, atol=1e-15)
    assert left.dims == right.dims == (2, 3, 4)


def test_displacement_zero_identity():
    assert np.allclose(displacement(0.0, 10).mat, np.eye(11))


def test_displacement_coherent_mean():
    c = 40
    d = displacement(2.0, c)
    vac = np.zeros(c + 1)
    vac[0] = 1.0
    psi = d.mat @ vac
    mean = np.real(psi.conj() @ number(c).mat @ psi)
    assert abs(mean - 4.0) < 1e-6


def test_displacement_unitary():
    c = 60
    d = displacement(3.0, c)
    assert np.abs(d.dag().mat @ d.mat - np.eye(c + 1)).max() < 1e-8
    inv = displacement(-3.0, c)
    assert np.abs((inv @ d).mat - np.eye(c + 1)).max() < 1e-8


def test_displacement_warns_on_small_cutoff():
    with pytest.warns(UserWarning):
        displacement(5.0, 10)


def test_squeeze_zero_identity():
    assert np.allclose(squeeze(0.0, 25).mat, np.eye(26))


def test_squeeze_vacuum_moments():
    c = 40
    vac = np.zeros(c + 1)
    vac[0] = 1.0
    psi = squeeze(0.5, c).mat @ vac
    mean = np.real(psi.conj() @ number(c).mat @ psi)
    assert abs(mean - math.sinh(0.5) ** 2) < 1e-6

    psi = squeeze(0.3, c).mat @ vac
    x = quadrature_x(c).mat / math.sqrt(2.0)
    mx = np.real(psi.conj() @ x @ psi)
    mx2 = np.real(psi.conj() @ x @ x @ psi)
    assert abs((mx2 - mx**2) - math.exp(2 * 0.3) / 2.0) < 1e-6


def test_operator_invariants():
    with pytest.raises(DimensionMismatchError):
        Operator(np.zeros((2, 3)), (2,))
    with pytest.raises(DimensionMismatchError):
        Operator(np.zeros((4, 4)), (2, 3))
    op = identity((2, 2))
    with pytest.raises(ValueError):
        op.mat[0, 0] = 5.0  # write-protected
    assert op.is_hermitian()
    assert not Operator(np.array([[0, 1], [0, 0]]), (2,)).is_hermitian()
    with pytest.raises(DimensionMismatchError):
        identity((2,)) + identity((3,))


def test_quantum_state():
    psi = QuantumState(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    assert psi.norm() == 1.0
    with pytest.raises(DimensionMismatchError):
        QuantumState(np.zeros(3), (2, 2))
    # default dims: single factor
    assert QuantumState(np.array([1.0, 0.0])).dims == (2,)
