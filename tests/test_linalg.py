"""Linear algebra primitives: eigendecomposition, vectorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo.errors import DimensionMismatchError, InvariantViolationError
from qthermo.linalg import (
    devectorize,
    eigh,
    hermitize,
    trace_distance,
    vectorize,
)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(m)


class TestEigh:
    def test_identity(self):
        dec = eigh(np.eye(2))
        assert np.allclose(dec.energies, [1.0, 1.0])
        assert np.allclose(dec.states.conj().T @ dec.states, np.eye(2))

    def test_already_diagonal(self):
        dec = eigh(np.diag([0.0, 0.7]))
        assert np.allclose(dec.energies, [0.0, 0.7])
        assert np.allclose(np.abs(dec.states), np.eye(2))

    def test_symmetric_two_level_closed_form(self):
        # closed-form 2x2: [[h, g], [g, h]] has energies h -+ g and the
        # (anti)symmetric combinations as eigenvectors
        h, g = 1.0, 0.1
        dec = eigh(np.array([[h, g], [g, h]]))
        assert np.allclose(dec.energies, [h - g, h + g], atol=1e-14)
        minus, plus = dec.states[:, 0], dec.states[:, 1]
        target = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(minus), [target, target], atol=1e-12)
        assert np.isclose(abs(np.vdot(minus, np.array([1.0, -1.0]) * target)), 1.0)
        assert np.isclose(abs(np.vdot(plus, np.array([1.0, 1.0]) * target)), 1.0)

    def test_non_hermitian_rejected_naming_defect(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvariantViolationError, match="asymmetry"):
            eigh(bad)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 30), seed=st.integers(0, 2**31 - 1))
    def test_reconstruction_property(self, dim, seed):
        m = random_hermitian(np.random.default_rng(seed), dim)
        dec = eigh(m)
        assert np.all(np.diff(dec.energies) >= 0)
        ortho = dec.states.conj().T @ dec.states
        assert np.max(np.abs(ortho - np.eye(dim))) < 1e-10
        rebuilt = (dec.states * dec.energies) @ dec.states.conj().T
        scale = max(np.max(np.abs(dec.energies)), 1e-30)
        assert np.max(np.abs(rebuilt - m)) / scale < 1e-10


class TestVectorization:
    def test_column_stacking_convention(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(vectorize(m), np.array([1.0, 3.0, 2.0, 4.0], dtype=complex))

    def test_identity_vector(self):
        assert np.array_equal(vectorize(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0], dtype=complex))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert np.array_equal(devectorize(vectorize(m)), m)

    def test_bad_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            devectorize(np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
    def test_bijection_property(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert np.array_equal(devectorize(vectorize(m)), m)


def test_trace_distance_of_orthogonal_pure_states():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, b) == pytest.approx(1.0)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
