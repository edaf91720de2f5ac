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
    vectorize,
)


# tunnelings at which numpy's eigh of a whole chain Hamiltonian returns the
# uncoupled ground levels with spurious entries or rotated among themselves,
# for every N from 10 to 40
LAPACK_MIXING_TUNNELINGS = (0.09, 0.41, 0.47, 0.73, 0.79, 0.87, 0.91, 0.95, 1.27, 1.29)


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

    def test_empty_matrix(self):
        dec = eigh(np.zeros((0, 0)))
        assert dec.energies.shape == (0,) and dec.states.shape == (0, 0)

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

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 2**31 - 1), density=st.floats(0.0, 0.5))
    def test_reconstruction_of_sparse_matrices(self, dim, seed, density):
        # several components: each eigenvector is exactly zero off its own
        rng = np.random.default_rng(seed)
        m = random_hermitian(rng, dim) * hermitize(rng.random((dim, dim)) < density)
        m[np.diag_indices(dim)] = rng.integers(0, 3, size=dim)  # degenerate levels across components
        dec = eigh(m)
        assert np.all(np.diff(dec.energies) >= 0)
        assert np.max(np.abs(dec.states.conj().T @ dec.states - np.eye(dim))) < 1e-12
        rebuilt = (dec.states * dec.energies) @ dec.states.conj().T
        assert np.max(np.abs(rebuilt - m)) < 1e-12
        assert np.max(np.abs(dec.energies - np.linalg.eigvalsh(m))) < 1e-12
        coupled = m != 0
        support = dec.states != 0
        # no eigenvector reaches beyond what the pattern of m connects
        reach = np.linalg.matrix_power(coupled | np.eye(dim, dtype=bool), dim).astype(bool)
        assert not np.any(support & ~reach[:, support.argmax(axis=0)])

    @pytest.mark.parametrize("n_sites", [10, 30])
    @pytest.mark.parametrize("tunneling", LAPACK_MIXING_TUNNELINGS)
    def test_uncoupled_levels_are_exact_unit_vectors(self, n_sites, tunneling):
        # a chain's ground levels couple to nothing; on the whole matrix,
        # LAPACK returns them with spurious entries or rotated among
        # themselves at these tunnelings
        dim = 2 * n_sites
        h = np.zeros((dim, dim))
        h[1::2, 1::2] = np.diag(np.ones(n_sites)) + tunneling * (np.eye(n_sites, k=1) + np.eye(n_sites, k=-1))
        dec = eigh(h)
        ground = dec.states[0::2]
        assert np.count_nonzero(ground) == n_sites
        assert np.all(np.abs(ground[ground != 0]) == 1.0)
        assert np.count_nonzero(dec.states[1::2]) == n_sites * n_sites
        assert np.max(np.abs((dec.states * dec.energies) @ dec.states.conj().T - h)) < 1e-13


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
