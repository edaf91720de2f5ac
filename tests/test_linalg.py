"""Linear algebra primitives: eigendecomposition, vectorization, the checks
of Hermitian operators and density matrices and their record."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import linalg
from qthermo.errors import DimensionMismatchError, InvariantViolationError
from qthermo.linalg import (
    eigh,
    require_density_matrix,
    require_hermitian,
    vectorize,
)


# tunnelings at which numpy's eigh of a whole chain Hamiltonian returns the
# uncoupled ground levels with spurious entries or rotated among themselves,
# for every N from 10 to 40
LAPACK_MIXING_TUNNELINGS = (0.09, 0.41, 0.47, 0.73, 0.79, 0.87, 0.91, 0.95, 1.27, 1.29)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dagger)/2."""
    return 0.5 * (m + m.conj().T)


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

    def test_column_stacks_a_hand_built_matrix(self):
        m = np.array([[1 + 1j, 2, 3j], [4, 5 - 2j, 6], [7, 8, 9 + 9j]])
        expected = np.array([1 + 1j, 4, 7, 2, 5 - 2j, 8, 3j, 6, 9 + 9j])
        assert np.array_equal(vectorize(m), expected)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            vectorize(np.zeros((2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
    def test_entry_i_j_lands_at_i_plus_dim_j(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        v = vectorize(m)
        assert v.shape == (dim * dim,)
        for i in range(dim):
            for j in range(dim):
                assert v[i + dim * j] == m[i, j]


def error_of(check, *args, **kwargs) -> str | None:
    """The message a check raises, or None when it passes."""
    try:
        check(*args, **kwargs)
    except (InvariantViolationError, DimensionMismatchError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def held(record) -> int:
    """The bytes the record counts for what it keeps."""
    return sum(len(data) + linalg.CHECK_ENTRY_BYTES for data in record.kept.values())


def recorded(record, a) -> bool:
    """Whether any check of these exact bytes is in the record."""
    return np.asarray(a, dtype=complex).tobytes() in record.kept.values()


@pytest.fixture
def record(monkeypatch):
    """A fresh record of passed checks in place of the module's."""
    fresh = linalg._CheckRecord(linalg.CHECK_RECORD_BYTES)
    monkeypatch.setattr(linalg, "_PASSED", fresh)
    return fresh


class TestCheckRecord:
    def test_a_state_changed_in_place_is_checked_again(self, record):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert require_density_matrix(rho) is not None
        assert recorded(record, rho)
        rho[0, 0] = 0.7
        assert error_of(require_density_matrix, rho) == (
            "InvariantViolationError: density matrix trace 1.2+0j differs from 1 beyond 1e-09"
        )
        rho[0, 0], rho[0, 1], rho[1, 0] = 0.5, 0.6, 0.6
        assert error_of(require_density_matrix, rho) == (
            "InvariantViolationError: density matrix has eigenvalue -1.000e-01 below -1e-09"
        )

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([[0.0, 1.0], [0.0, 0.0]], "state is not Hermitian: max asymmetry 1.000e+00 exceeds 1e-12"),
            ([[np.nan, 0.0], [0.0, 1.0]], "state contains non-finite entries"),
            ([[0.5, 0.0], [0.0, 0.4]], "state trace 0.9+0j differs from 1 beyond 1e-09"),
            ([[1.5, 0.0], [0.0, -0.5]], "state has eigenvalue -5.000e-01 below -1e-09"),
            ([[1.0, 0.0, 0.0]], "state must be square, got shape (1, 3)"),
        ],
    )
    def test_a_failing_input_fails_alike_every_time_and_is_never_recorded(self, record, bad, message):
        for _ in range(3):
            assert error_of(require_density_matrix, bad, name="state").endswith(message)
        assert len(record.kept) == 0 and record.nbytes == 0

    def test_matrices_that_share_a_slot_are_told_apart(self, record):
        # the slot samples the real parts alone
        identity = np.eye(2, dtype=complex)
        skewed = identity.copy()
        skewed[0, 1] = 1e-3j
        hermitian = skewed.copy()
        hermitian[1, 0] = -1e-3j
        check = ("hermitian", linalg.HERMITICITY_ATOL)
        slots = {record.key(m, check)[0] for m in (identity, skewed, hermitian)}
        assert len(slots) == 1
        require_hermitian(identity)
        assert error_of(require_hermitian, skewed) == (
            "InvariantViolationError: operator is not Hermitian: max asymmetry 1.000e-03 exceeds 1e-12"
        )
        assert recorded(record, identity)
        require_hermitian(hermitian)
        assert recorded(record, hermitian) and not recorded(record, identity)
        assert record.nbytes == held(record)

    def test_a_loose_pass_does_not_pass_a_stricter_check(self, record):
        rho = np.diag([0.5, 0.5 + 1e-6])
        assert error_of(require_density_matrix, rho, trace_atol=1e-5) is None
        assert error_of(require_density_matrix, rho) == (
            "InvariantViolationError: density matrix trace 1.000001+0j differs from 1 beyond 1e-09"
        )
        skewed = np.array([[1.0, 1e-10], [0.0, 1.0]])
        assert error_of(require_hermitian, skewed, atol=1e-9) is None
        assert error_of(require_hermitian, skewed) == (
            "InvariantViolationError: operator is not Hermitian: max asymmetry 1.000e-10 exceeds 1e-12"
        )
        # the stricter pass is its own entry, the looser one stays
        assert error_of(require_density_matrix, rho, trace_atol=1e-5) is None
        assert len(record.kept) == 2

    @pytest.mark.parametrize("check", [require_hermitian, require_density_matrix])
    def test_lists_and_real_arrays_give_the_results_of_a_full_check(self, record, check):
        as_list = [[0.25, 0.125], [0.125, 0.75]]
        expected = np.array(as_list, dtype=complex)
        for m in (as_list, np.array(as_list), expected, as_list, np.array(as_list)):
            result = check(m)
            assert result.dtype == complex and np.array_equal(result, expected)
        # the coerced bytes are the key: one entry for all five
        assert len(record.kept) == 1
        assert error_of(check, [[0.25, 0.5], [0.125, 0.75]]) == error_of(
            check, np.array([[0.25, 0.5], [0.125, 0.75]], dtype=complex)
        )

    def test_the_record_stays_within_its_bound(self, monkeypatch):
        # a 4 x 4 matrix, 256 bytes, is the largest this record keeps
        limit = 32 * 256
        record = linalg._CheckRecord(limit)
        monkeypatch.setattr(linalg, "_PASSED", record)
        rng = np.random.default_rng(5)
        kept = []
        for _ in range(60):
            m = random_hermitian(rng, 4)
            require_hermitian(m)
            kept.append(m)
            assert record.nbytes == held(record) <= limit
            # the least recently used go first: the first matrix, checked
            # again after every other, stays
            assert recorded(record, kept[0]) and recorded(record, m)
            require_hermitian(kept[0])
        entry = 256 + linalg.CHECK_ENTRY_BYTES
        assert limit - entry < record.nbytes <= limit and not recorded(record, kept[1])
        for dim in (5, 100):  # above a 32nd of the bound, and above the bound
            large = random_hermitian(rng, dim)
            for _ in range(2):
                require_hermitian(large)
                assert not recorded(record, large)
            large[0, 1] += 1.0
            assert "not Hermitian" in error_of(require_hermitian, large)
        assert record.nbytes == held(record) <= limit

    def test_the_bound_covers_what_the_record_holds(self, monkeypatch):
        # thousands of 2 x 2 matrices, whose own bytes are a fifth of what
        # keeping one costs
        limit = 2**16
        record = linalg._CheckRecord(limit)
        monkeypatch.setattr(linalg, "_PASSED", record)
        matrices = [np.array([[1.0, x], [x, 1.0]]) for x in np.linspace(0.0, 1.0, 4000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in matrices:
                require_hermitian(m)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(record.kept) < len(matrices)
        assert grown <= record.nbytes <= limit

    def test_the_module_record_has_the_module_bound(self):
        assert linalg._PASSED.limit == linalg.CHECK_RECORD_BYTES

    def test_a_stack_gets_the_error_of_each_matrix_alone(self):
        rng = np.random.default_rng(5)
        states = []
        for n in range(12):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            if n % 4 == 1:
                rho[0, 2] = np.nan
            elif n % 4 == 2:
                rho[1, 1] -= 2.0  # trace off 1 and a negative eigenvalue
            elif n % 4 == 3:
                rho = np.diag([1.5, 0.0, -0.5]).astype(complex)  # unit trace, not positive
            states.append(rho)
        expected = [error_of(linalg._check_density_matrix, s, 1e-12, 1e-9, -1e-9, "state") for s in states]
        assert expected.count(None) == 3 and len(set(expected)) > 4
        errors = linalg._density_errors(np.stack(states), 1e-12, 1e-9, -1e-9, "state")
        assert [None if e is None else f"{type(e).__name__}: {e}" for e in errors] == expected

    def test_checks_from_several_threads_agree(self, monkeypatch):
        # a record of ten states' worth makes the threads evict one another
        record = linalg._CheckRecord(32 * 16 * 16)
        monkeypatch.setattr(linalg, "_PASSED", record)
        rng = np.random.default_rng(11)
        states = []
        for n in range(120):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            if n % 3 == 1:
                rho[0, 0] += 0.1  # trace off 1
            elif n % 3 == 2:
                rho[0, 1] += 1e-6  # not Hermitian
            states.append(rho)
        expected = [error_of(linalg._check_density_matrix, s, 1e-12, 1e-9, -1e-9, "density matrix")
                    for s in states]
        assert expected.count(None) == 40
        results = {}

        def work(worker):
            order = np.random.default_rng(worker).permutation(len(states)).tolist() * 5
            results[worker] = [(i, error_of(require_density_matrix, states[i])) for i in order]

        threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(results) == 4
        for outcomes in results.values():
            assert all(message == expected[i] for i, message in outcomes)
        assert record.nbytes == held(record) <= record.limit
