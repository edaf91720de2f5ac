"""Generator construction, thermal rates, time evolution, steady states, currents."""

import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
import scipy.sparse.csgraph
from scipy.linalg import expm

from qthermo import davies
from qthermo.davies import (
    DEFAULT_FREQ_TOL,
    BathSpec,
    FlatDensity,
    Liouvillian,
    OhmicDensity,
    OpenSystem,
    _coupling_nonzeros,
    _eigen_model,
    _frequency_groups,
    _joined_coupling_entries,
    _thermal_rates,
    bose_occupation,
    evolve,
    heat_currents,
    liouvillian,
    steady_state,
)
from qthermo.errors import (
    AccuracyError,
    AmbiguousGroupingError,
    InvariantViolationError,
    NonUniqueSteadyStateError,
    SolverFailureError,
    UnsupportedModelError,
)
from qthermo.chain import DEFAULT_TUNNELING_SWEEP, ChainSpec, LinearProfile, chain_system, site_populations
from qthermo.linalg import eigh, vectorize
from qthermo.three_level import ThreeLevelParams, lambda_system, three_level_system
from test_linalg import LAPACK_MIXING_TUNNELINGS, hermitize


def devectorize(v) -> np.ndarray:
    """Inverse of :func:`qthermo.linalg.vectorize`: the square matrix whose
    columns are stacked in ``v``."""
    vec = np.asarray(v, dtype=complex).reshape(-1)
    dim = int(round(np.sqrt(vec.size)))
    assert dim * dim == vec.size
    return vec.reshape((dim, dim), order="F")


def thermal_rate(spectral, omega: float, temperature: float) -> float:
    """Rate attached to a nonzero-frequency component, one frequency at a
    time: emission for omega > 0, absorption for omega < 0.  The scalar
    oracle of the package's array rates."""
    if omega > 0:
        return spectral.value(omega) * (1.0 + bose_occupation(omega, temperature))
    if omega < 0:
        return spectral.value(-omega) * bose_occupation(-omega, temperature)
    raise ValueError("thermal_rate is undefined at omega = 0; handled by the grouping code")


def lambda_params(n_1: float, n_2: float, gamma: float = 1.0) -> ThreeLevelParams:
    return ThreeLevelParams.from_occupations("lambda", n_1, n_2, gamma=gamma)


def random_open_system(seed: int, dim: int, n_baths: int = 2, t_min: float = 0.0) -> OpenSystem:
    """Random Hamiltonian with ohmic baths (ohmic so a nonzero zero-frequency
    coupling component stays integrable), temperatures drawn from [t_min, 2)."""
    rng = np.random.default_rng(seed)
    h = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    baths = []
    for _ in range(n_baths):
        coupling = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        baths.append(BathSpec(coupling, OhmicDensity(rng.uniform(0.1, 1.0)), rng.uniform(t_min, 2.0)))
    return OpenSystem(h, tuple(baths))


def degenerate_open_system(seed: int, dim: int, n_baths: int = 2) -> OpenSystem:
    """Random system whose levels sit on the integers 0, 1, 2 in a random
    eigenbasis, so levels and transition frequencies are degenerate."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    levels = rng.integers(0, 3, size=dim).astype(float)
    h = hermitize(basis @ np.diag(levels) @ basis.conj().T)
    baths = []
    for _ in range(n_baths):
        coupling = hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        baths.append(BathSpec(coupling, OhmicDensity(rng.uniform(0.1, 1.0)), rng.uniform(0.2, 2.0)))
    return OpenSystem(h, tuple(baths))


def random_state(seed: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def lab_jump_operators(system: OpenSystem, freq_tol: float = DEFAULT_FREQ_TOL):
    """Per bath, the pairs (rate, A_w) of every transition frequency w, built
    here apart from the package's eigenbasis model: scipy's eigh, the loop
    grouping below, the scalar thermal_rate and the lab-basis projectors,
    A_w = sum over E_j - E_i in the group of w of P_i V P_j.  A zero-frequency
    component above 1e-10 gets slope * T (ohmic) or raises
    UnsupportedModelError (flat), as the model's rule says."""
    energies, states = scipy.linalg.eigh(system.hamiltonian)
    frequencies, labels = loop_frequency_groups(energies, freq_tol)
    projectors = np.einsum("ai,bi->iab", states, states.conj())
    all_terms = []
    for bath in system.baths:
        # pieces[i, j] = P_i V P_j
        pieces = np.einsum("iab,bc,jcd->ijad", projectors, bath.coupling, projectors, optimize=True)
        terms = []
        for n, frequency in enumerate(frequencies.tolist()):
            a = pieces[labels == n].sum(axis=0)
            if frequency != 0.0:
                rate = thermal_rate(bath.spectral, frequency, bath.temperature)
            elif np.max(np.abs(a)) > 1e-10:
                if not isinstance(bath.spectral, OhmicDensity):
                    raise UnsupportedModelError("zero-frequency component with a flat density")
                rate = bath.spectral.slope * bath.temperature
            else:
                rate = 0.0
            terms.append((rate, a))
        all_terms.append(terms)
    return all_terms


def reference_generator(system: OpenSystem) -> np.ndarray:
    """Dense column-stacking generator summed term by term from np.kron:
    the commutator plus rate * (A* kron A - (1 kron A^dagger A + (A^dagger A)^T
    kron 1) / 2) for every jump component above 1e-10 of
    :func:`lab_jump_operators`."""
    h = system.hamiltonian
    identity = np.eye(system.dim, dtype=complex)
    matrix = -1j * (np.kron(identity, h) - np.kron(h.T, identity))
    for bath_terms in lab_jump_operators(system):
        for rate, a in bath_terms:
            if rate == 0.0 or np.max(np.abs(a)) <= 1e-10:
                continue
            norm_op = a.conj().T @ a
            matrix = matrix + rate * (
                np.kron(a.conj(), a) - 0.5 * (np.kron(identity, norm_op) + np.kron(norm_op.T, identity))
            )
    return matrix


def dissipator_currents(system: OpenSystem, rho: np.ndarray) -> np.ndarray:
    """J_k = -Tr[D_k(rho) H], with D_k summed over :func:`lab_jump_operators`."""
    currents = []
    for bath_terms in lab_jump_operators(system):
        action = np.zeros((system.dim, system.dim), dtype=complex)
        for rate, a in bath_terms:
            norm_op = a.conj().T @ a
            action += rate * (a @ rho @ a.conj().T - 0.5 * (norm_op @ rho + rho @ norm_op))
        currents.append(-np.trace(action @ system.hamiltonian).real)
    return np.array(currents)


def gradient_chain(n_sites: int, tunneling: float, t_left: float, t_right: float) -> OpenSystem:
    return chain_system(ChainSpec(n_sites, 1.0, tunneling, 0.02, LinearProfile(t_left, t_right)))


def rotated_chain(n_sites: int, tunneling: float, t_left: float, t_right: float, seed: int,
                  ground_only: bool) -> OpenSystem:
    """Gradient chain seen through a random unitary W: H and every coupling
    become W X W^dagger.  With ``ground_only`` W mixes the ground levels alone,
    which leaves H unchanged (its ground block is zero) and couples each bath
    to a random mixture of ground levels; the exact zeros between two ground
    levels or two band levels remain.  A unitary over the whole space leaves
    no exact zero in the eigenbasis couplings, only rounding."""
    system = gradient_chain(n_sites, tunneling, t_left, t_right)
    rng = np.random.default_rng(seed)
    dim = system.dim
    rotation = np.eye(dim, dtype=complex)
    mixed = np.arange(0, dim, 2) if ground_only else np.arange(dim)
    unitary, _ = np.linalg.qr(rng.normal(size=(mixed.size,) * 2) + 1j * rng.normal(size=(mixed.size,) * 2))
    rotation[np.ix_(mixed, mixed)] = unitary
    def turn(x):
        return hermitize(rotation @ x @ rotation.conj().T)
    baths = tuple(BathSpec(turn(b.coupling), b.spectral, b.temperature) for b in system.baths)
    return OpenSystem(turn(system.hamiltonian), baths)


def block_labels(liouv) -> np.ndarray:
    """The block of every column-stacked index, checking that no index lies
    in two blocks or in none."""
    label = np.full(liouv.dim**2, -1)
    count = 0
    for index in liouv.indices:
        for members in index:
            assert np.all(label[members] == -1)
            label[members] = count
            count += 1
    assert np.all(label >= 0)
    return label


def dense_liouvillian(matrix) -> Liouvillian:
    """A generator given as one dense matrix: one block in the identity
    basis, which :func:`lab_matrix` gives back exactly."""
    matrix = np.asarray(matrix, dtype=complex)
    dim = math.isqrt(matrix.shape[0])
    return Liouvillian(dim=dim, basis=np.eye(dim, dtype=complex),
                       indices=(np.arange(dim * dim)[None, :],), blocks=(matrix[None],))


def lab_matrix(liouv: Liouvillian) -> np.ndarray:
    """The generator as one d^2 x d^2 matrix on column-stacked lab-basis
    states: the blocks scattered at their indices, then the change of basis
    vec(U X U^dagger) = (conj(U) kron U) vec(X)."""
    size = liouv.dim * liouv.dim
    in_basis = np.zeros((size, size), dtype=complex)
    for index, stack in zip(liouv.indices, liouv.blocks):
        in_basis[index[:, :, None], index[:, None, :]] = stack
    change = np.kron(liouv.basis.conj(), liouv.basis)
    return change @ in_basis @ change.conj().T


def thermal_state(hamiltonian, temperature: float) -> np.ndarray:
    """Gibbs state exp(-H / T) / Z by a matrix exponential, sharing no code
    with the package."""
    gibbs = expm(-np.asarray(hamiltonian, dtype=complex) / temperature)
    return gibbs / np.trace(gibbs)


def trace_distance(a, b) -> float:
    """Half the sum of the absolute eigenvalues of the Hermitian part of a - b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))).sum())


def entropy_production(system: OpenSystem, currents: np.ndarray) -> float:
    """sum_k J_k / T_k: the entropy the baths gain per unit time."""
    return float(sum(j / bath.temperature for j, bath in zip(currents, system.baths)))


chain_cases = dict(
    n_sites=st.integers(3, 6),
    tunneling=st.sampled_from(DEFAULT_TUNNELING_SWEEP),
    t_left=st.floats(0.3, 1.2),
    t_right=st.floats(0.3, 1.2),
)

open_systems = st.one_of(
    st.builds(random_open_system, st.integers(0, 2**31 - 1), st.integers(2, 8), st.integers(1, 3)),
    st.builds(degenerate_open_system, st.integers(0, 2**31 - 1), st.integers(2, 8), st.integers(1, 3)),
    st.builds(gradient_chain, **chain_cases),
)


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert bose_occupation(1.0, 0.0) == 0.0

    def test_unit_occupation(self):
        assert bose_occupation(1.0, 1.0 / math.log(2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_frozen_high_precision_value(self):
        # independent oracle: 40-digit evaluation of 1/(e^{2.5} - 1)
        assert bose_occupation(1.0, 0.4) == pytest.approx(0.08942548983385201, abs=1e-16)

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.nan, math.inf])
    def test_domain_error(self, omega):
        with pytest.raises(ValueError):
            bose_occupation(omega, 1.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf])
    def test_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            bose_occupation(1.0, temperature)


class TestVectorRates:
    """The array form of the rates against thermal_rate and bose_occupation.
    np.expm1 and math.expm1 may differ in the last bit, so the comparison is
    to 1e-15 relative, not bit for bit; an exact zero must stay exact."""

    @pytest.mark.parametrize("spectral", [FlatDensity(0.3), OhmicDensity(0.7)])
    @pytest.mark.parametrize("temperature", [0.0, 1e-3, 0.4, 2.0, 1e3])
    def test_matches_the_scalar_rates(self, spectral, temperature):
        # at T = 1e-3 the frequencies from 1 up have x = omega / T > 700
        omega = np.array([1e-6, 0.01, 0.3, 1.0, 2.5, 7.0, 40.0])
        emission, absorption = _thermal_rates(spectral.value(omega), omega, temperature)
        for w, up, down in zip(omega.tolist(), emission.tolist(), absorption.tolist()):
            assert up == pytest.approx(thermal_rate(spectral, w, temperature), rel=1e-15, abs=0.0)
            assert down == pytest.approx(thermal_rate(spectral, -w, temperature), rel=1e-15, abs=0.0)
            occupation = bose_occupation(w, temperature)
            assert down == pytest.approx(spectral.value(w) * occupation, rel=1e-15, abs=0.0)

    def test_beyond_the_overflow_cut_the_occupation_is_zero(self):
        emission, absorption = _thermal_rates(0.5, np.array([0.71, 0.8, 5.0]), 1e-3)
        assert absorption.tolist() == [0.0, 0.0, 0.0]
        assert emission.tolist() == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize(
        "system",
        [
            random_open_system(5, 6, n_baths=3),  # ohmic, zero-frequency components present
            gradient_chain(5, 1.3, 0.8, 0.0),  # flat, one bath at T = 0
        ],
        ids=["ohmic", "flat-chain"],
    )
    def test_group_rates_of_the_model(self, system):
        # every coupling entry gets thermal_rate at the frequency of its group;
        # an entry of the zero group gets slope * T where an ohmic bath has a
        # zero-frequency component, else 0
        model = _eigen_model(system, DEFAULT_FREQ_TOL)
        structure = model.structure
        zero = structure.frequencies.size // 2
        assert structure.frequencies[zero] == 0.0
        coupling = structure.coupling
        assert model.rates.shape == coupling.values.shape
        for k, bath in enumerate(system.baths):
            dense = structure.states.conj().T @ bath.coupling @ structure.states
            has_zero = np.max(np.abs(dense[structure.labels == zero])) > 1e-10
            mine = coupling.bath == k
            for label, rate in zip(structure.entry_labels[mine].tolist(), model.rates[mine].tolist()):
                frequency = float(structure.frequencies[label])
                if frequency != 0.0:
                    expected = thermal_rate(bath.spectral, frequency, bath.temperature)
                elif has_zero:
                    expected = bath.spectral.slope * bath.temperature
                else:
                    expected = 0.0
                assert rate == pytest.approx(expected, rel=1e-15, abs=0.0)


def loop_frequency_groups(energies: np.ndarray, freq_tol: float):
    """Group representatives and labels by a loop over the sorted differences:
    a new group after every gap above freq_tol, each represented by its mean,
    then made antisymmetric with its mirror group."""
    diffs = energies[None, :] - energies[:, None]
    ranked = np.sort(diffs.reshape(-1))
    groups = [[ranked[0]]]
    for previous, value in zip(ranked[:-1], ranked[1:]):
        if value - previous > freq_tol:
            groups.append([])
        groups[-1].append(value)
    means = [float(np.mean(g)) for g in groups]
    frequencies = np.array([0.5 * (m - p) for m, p in zip(means, reversed(means))])
    labels = np.searchsorted([g[0] for g in groups], diffs, side="right") - 1
    return frequencies, labels


class TestFrequencyGroups:
    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 10), seed=st.integers(0, 2**31 - 1), degenerate=st.booleans())
    def test_matches_the_loop(self, dim, seed, degenerate):
        # the group means may differ in the last bits: np.add.reduceat and
        # np.mean sum in different orders
        system = (degenerate_open_system if degenerate else random_open_system)(seed, dim, 1)
        energies = eigh(system.hamiltonian).energies
        frequencies, labels = _frequency_groups(energies, DEFAULT_FREQ_TOL)
        expected, expected_labels = loop_frequency_groups(energies, DEFAULT_FREQ_TOL)
        assert np.array_equal(labels, expected_labels)
        assert np.max(np.abs(frequencies - expected)) <= 1e-15 * max(1.0, np.max(np.abs(expected)))
        assert np.array_equal(frequencies, -frequencies[::-1])
        assert frequencies[frequencies.size // 2] == 0.0

    def test_chained_cluster_wider_than_the_tolerance(self):
        # level spacings of about 1 pass the spacing check, but the
        # differences 1, 1 + 0.8e-8 and 1 + 1.6e-8 form one cluster of spread
        # 1.6e-8, wider than the 1e-8 tolerance
        energies = np.array([0.0, 1.0, 2.0 + 0.8e-8, 3.0 + 2.4e-8])
        with pytest.raises(AmbiguousGroupingError, match="spread"):
            _frequency_groups(energies, 1e-8)

    def test_chain_levels(self):
        n_sites, h, g = 10, 1.0, 0.1
        energies = eigh(gradient_chain(n_sites, g, 0.8, 0.4).hamiltonian).energies
        frequencies, labels = _frequency_groups(energies, DEFAULT_FREQ_TOL)
        expected, expected_labels = loop_frequency_groups(energies, DEFAULT_FREQ_TOL)
        assert np.array_equal(labels, expected_labels)
        assert np.max(np.abs(frequencies - expected)) <= 1e-15
        # the open-chain band h + 2 g cos(m pi / (N + 1)) over the degenerate
        # ground levels: every band difference and every +-E_m is a group
        band = h + 2 * g * np.cos(np.arange(1, n_sites + 1) * np.pi / (n_sites + 1))
        closed_form = np.concatenate((band, -band, (band[:, None] - band[None, :]).reshape(-1)))
        assert np.max(np.min(np.abs(frequencies[:, None] - closed_form[None, :]), axis=0)) < 1e-9

    def test_grouping_tolerance_too_large(self):
        # the levels 0 and 3e-8 are distinct at a tolerance of 1e-8, which is
        # not below a quarter of their spacing
        system = OpenSystem(np.diag([0.0, 3e-8, 1.0]), ())
        with pytest.raises(AmbiguousGroupingError, match="quarter of the minimum"):
            liouvillian(system, 1e-8)

    @pytest.mark.parametrize("freq_tol", [0.0, -1.0, math.nan])
    def test_nonpositive_tolerance_rejected(self, freq_tol):
        system = OpenSystem(np.diag([0.0, 1.0]), ())
        with pytest.raises(ValueError, match="must be > 0"):
            liouvillian(system, freq_tol)


class TestJumpOperators:
    """Each bath coupling split by transition frequency: the rates the
    eigenbasis model attaches to its groups, and the lab-basis components
    :func:`lab_jump_operators` builds the reference generator from."""

    def test_lambda_structure_and_rates(self):
        # per bath exactly one lowering component |k><e| at +omega with rate
        # Gamma (n_k + 1) and its adjoint at -omega with rate Gamma n_k
        gamma = 0.7
        system = lambda_system(lambda_params(2.0, 1.0, gamma=gamma))
        frequencies, _ = loop_frequency_groups(scipy.linalg.eigh(system.hamiltonian)[0], DEFAULT_FREQ_TOL)
        assert frequencies.tolist() == pytest.approx([-1.0, 0.0, 1.0])
        for k, (n_k, bath_terms) in enumerate(zip((2.0, 1.0), lab_jump_operators(system))):
            (up_rate, up), (zero_rate, zero), (down_rate, down) = bath_terms
            lower = np.zeros((3, 3))
            lower[k, 2] = 1.0
            assert np.allclose(down, lower, atol=1e-12)
            assert np.allclose(up, lower.T, atol=1e-12)
            assert np.max(np.abs(zero)) <= 1e-12 and zero_rate == 0.0
            assert down_rate == pytest.approx(gamma * (n_k + 1.0))
            assert up_rate == pytest.approx(gamma * n_k)

    def test_zero_temperature_kills_upward_rates(self):
        system = lambda_system(ThreeLevelParams("lambda", temp_1=0.0, temp_2=0.0))
        model = _eigen_model(system, DEFAULT_FREQ_TOL)
        frequency = model.structure.frequencies[model.structure.entry_labels]
        upward = frequency < 0
        assert upward.any()
        assert not model.rates[upward].any()
        downward = frequency > 0
        for bath, omega, rate in zip(model.structure.coupling.bath[downward].tolist(),
                                     frequency[downward].tolist(), model.rates[downward].tolist()):
            spec = system.baths[bath]
            assert rate == pytest.approx(thermal_rate(spec.spectral, omega, spec.temperature), rel=1e-15, abs=0.0)
            assert rate > 0

    def test_chain_zero_frequency_component_vanishes(self):
        # a chain bath joins a ground level to a band mode, never two levels
        # of equal energy: the zero-frequency component has no entry above
        # 1e-10 and its rate is zero, as the flat density requires
        model = _eigen_model(gradient_chain(10, 0.1, 0.8, 0.4), DEFAULT_FREQ_TOL)
        zero = model.structure.frequencies.size // 2
        coupling = model.structure.coupling
        at_zero = model.structure.labels[coupling.rows, coupling.cols] == zero
        assert np.max(np.abs(coupling.values[at_zero]), initial=0.0) <= 1e-10
        assert not model.rates[at_zero].any()

    def test_flat_density_with_zero_frequency_component_fails(self):
        h = np.diag([0.0, 1.0])
        dephasing = np.diag([1.0, -1.0])
        system = OpenSystem(h, (BathSpec(dephasing, FlatDensity(0.5), 1.0),))
        with pytest.raises(UnsupportedModelError, match="zero-frequency"):
            liouvillian(system)

    def test_ohmic_zero_frequency_rate(self):
        h = np.diag([0.0, 1.0])
        dephasing = np.diag([1.0, -1.0])
        slope, temp = 0.5, 2.0
        system = OpenSystem(h, (BathSpec(dephasing, OhmicDensity(slope), temp),))
        model = _eigen_model(system, DEFAULT_FREQ_TOL)
        assert model.structure.frequencies[1] == 0.0
        at_zero = model.structure.entry_labels == 1
        assert at_zero.any()
        for rate in model.rates[at_zero].tolist():
            assert rate == pytest.approx(slope * temp, rel=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
    def test_completeness_and_adjoint_symmetry(self, dim, seed):
        # the oracle's components sum back to the coupling, and the component
        # of group n, at -w, is the adjoint of that of its mirror group, at w
        system = random_open_system(seed, dim)
        for bath, bath_terms in zip(system.baths, lab_jump_operators(system)):
            total = sum(a for _, a in bath_terms)
            assert np.max(np.abs(total - bath.coupling)) < 1e-10
            for (rate, a), (_, partner) in zip(bath_terms, reversed(bath_terms)):
                assert np.max(np.abs(partner - a.conj().T)) < 1e-10
                assert rate >= 0.0


class TestLiouvillian:
    def test_zero_coupling_reduces_to_commutator(self):
        h = np.diag([0.0, 1.0])
        system = OpenSystem(h, (BathSpec(np.zeros((2, 2)), FlatDensity(1.0), 1.0),))
        liouv = liouvillian(system)
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.max(np.abs(devectorize(lab_matrix(liouv) @ vectorize(rho)))) < 1e-14

    def test_lambda_action_matches_rate_equations(self):
        # inline oracle: dP_k = gamma (n_k + 1) P_e - gamma n_k P_k
        gamma = 0.8
        params = lambda_params(2.0, 1.0, gamma=gamma)
        liouv = liouvillian(lambda_system(params))
        pops = np.array([0.5, 0.3, 0.2])
        derivative = devectorize(lab_matrix(liouv) @ vectorize(np.diag(pops).astype(complex)))
        n_values = (2.0, 1.0)
        for k in (0, 1):
            expected = gamma * (n_values[k] + 1.0) * pops[2] - gamma * n_values[k] * pops[k]
            assert derivative[k, k].real == pytest.approx(expected, abs=1e-12)
        assert derivative[2, 2].real == pytest.approx(
            -(derivative[0, 0].real + derivative[1, 1].real), abs=1e-12
        )
        off_diagonal = derivative - np.diag(derivative.diagonal())
        assert np.max(np.abs(off_diagonal)) < 1e-12

    def test_uniform_temperature_gibbs_in_null_space(self):
        from qthermo.chain import ChainSpec, LinearProfile, chain_system

        spec = ChainSpec(3, 1.0, 0.4, 0.05, LinearProfile(0.7, 0.7))
        system = chain_system(spec)
        liouv = liouvillian(system)
        thermal = thermal_state(system.hamiltonian, 0.7)
        matrix = lab_matrix(liouv)
        norm = np.linalg.norm(matrix, 2)
        assert np.linalg.norm(matrix @ vectorize(thermal)) <= 1e-9 * norm

    def test_ohmic_bath_also_thermalizes(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        system = OpenSystem(np.diag([0.0, 1.0]), (BathSpec(flip, OhmicDensity(0.5), 0.7),))
        rho = steady_state(liouvillian(system))
        assert trace_distance(rho, thermal_state(np.diag([0.0, 1.0]), 0.7)) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**31 - 1))
    def test_trace_and_hermiticity_preservation(self, dim, seed):
        rng = np.random.default_rng(seed)
        system = random_open_system(seed, dim)
        liouv = liouvillian(system)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        matrix = lab_matrix(liouv)
        image = devectorize(matrix @ vectorize(m))
        assert abs(np.trace(image)) < 1e-10
        assert np.max(np.abs(devectorize(matrix @ vectorize(m.conj().T)) - image.conj().T)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(system=open_systems)
    def test_decay_lies_in_the_zero_group(self, system):
        # liouvillian adds K = -i diag(E) - M / 2 as a Kronecker sum with no
        # secular check, which is exact only when every term of M lies in the
        # zero group
        model = _eigen_model(system, DEFAULT_FREQ_TOL)
        decay = model.decay
        assert decay.values.size
        assert np.all(model.structure.labels[decay.rows, decay.cols] == model.structure.frequencies.size // 2)


class TestDenseReference:
    """The block generator, scattered into the lab basis by
    :func:`lab_matrix`, against the dense Kronecker-sum generator built
    above."""

    @staticmethod
    def check(system: OpenSystem) -> None:
        reference = reference_generator(system)
        liouv = liouvillian(system)
        assert np.max(np.abs(lab_matrix(liouv) - reference)) <= 1e-12
        _, singulars, vh = np.linalg.svd(reference)
        null_dim = int(np.count_nonzero(singulars <= 1e-10 * singulars[0]))
        if null_dim > 1:
            with pytest.raises(NonUniqueSteadyStateError) as excinfo:
                steady_state(liouv)
            assert excinfo.value.dimension == null_dim
            return
        null_state = hermitize(devectorize(vh[-1].conj()))
        null_state /= np.trace(null_state).real
        state = steady_state(liouv)
        # the SVD fixes its null vector only to about eps * s_0 / s_{n-2},
        # the gap to the second-smallest singular value; the residual of
        # the state itself needs no such allowance
        bound = max(1e-12, 16 * np.finfo(float).eps * singulars[0] / singulars[-2])
        assert np.max(np.abs(state - null_state)) <= bound
        assert np.linalg.norm(reference @ vectorize(state)) <= 1e-13 * singulars[0]

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 8), n_baths=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_random_ohmic_systems(self, dim, n_baths, seed):
        self.check(random_open_system(seed, dim, n_baths))

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 8), n_baths=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_degenerate_random_systems(self, dim, n_baths, seed):
        self.check(degenerate_open_system(seed, dim, n_baths))

    @settings(max_examples=10, deadline=None)
    @given(**chain_cases)
    def test_chains(self, n_sites, tunneling, t_left, t_right):
        self.check(gradient_chain(n_sites, tunneling, t_left, t_right))

    @settings(max_examples=10, deadline=None)
    @given(n_sites=st.integers(3, 6), tunneling=st.sampled_from(DEFAULT_TUNNELING_SWEEP),
           t_left=st.floats(0.02, 0.3), t_right=st.floats(0.02, 0.3))
    def test_cold_chains(self, n_sites, tunneling, t_left, t_right):
        # below T = 0.3 the rates span more decades than the null rule of
        # :meth:`check` resolves; the generator still matches the reference
        # entry by entry, and the state matches the analytic band's
        system = gradient_chain(n_sites, tunneling, t_left, t_right)
        liouv = liouvillian(system)
        assert np.max(np.abs(lab_matrix(liouv) - reference_generator(system))) <= 1e-12
        temperatures = LinearProfile(t_left, t_right).temperatures(n_sites)
        expected, _ = analytic_chain(n_sites, 1.0, tunneling, 0.02, temperatures)
        assert np.max(np.abs(steady_state(liouv) - expected)) <= 1e-12

    def test_blocks_cover_every_entry_once(self):
        # every index lies in one block, and no entry of the dense reference,
        # carried into the generator's eigenbasis, links two blocks
        system = gradient_chain(4, 1.3, 0.8, 0.4)
        liouv = liouvillian(system)
        label = block_labels(liouv)
        change = np.kron(liouv.basis.conj(), liouv.basis)
        in_basis = change.conj().T @ reference_generator(system) @ change
        rows, cols = np.nonzero(np.abs(in_basis) > 1e-12)
        assert np.array_equal(label[rows], label[cols])
        # the largest block is the 2N = 8 populations (i, i); the other pairs
        # of the zero sector, coherences between ground levels, only decay
        largest_stack = max(range(len(liouv.blocks)), key=lambda n: liouv.blocks[n].shape[-1])
        assert liouv.blocks[largest_stack].shape == (1, 8, 8)
        largest = liouv.indices[largest_stack][0]
        assert sorted(largest.tolist()) == [i * (liouv.dim + 1) for i in range(liouv.dim)]

    @pytest.mark.parametrize(
        "system",
        [gradient_chain(4, 1.3, 0.8, 0.4), gradient_chain(5, 1.3, 0.8, 0.0),
         gradient_chain(4, 0.1, 0.0, 0.6), rotated_chain(4, 0.5, 0.8, 0.4, seed=1, ground_only=False),
         *(three_level_system(ThreeLevelParams(c, 1.0, omega_2, 1.0, 1.0, 0.8, temp_2))
           for c in ("lambda", "vee") for omega_2, temp_2 in ((1.0, 0.4), (1.7, 0.0)))],
        ids=["warm", "cold-right", "cold-left", "rotated-chain",
             "lambda-equal", "lambda-cold", "vee-equal", "vee-cold"],
    )
    def test_blocks_are_the_components_of_the_reference(self, system):
        # the blocks are exactly the connected components of the dense
        # reference's pattern in the eigenbasis: no exact zero of the
        # couplings or of a rate (a bath at T = 0 absorbs nothing) is kept
        # as an entry that would merge two of them, nor is a coupling that
        # only the rounding of U makes (a chain seen through a unitary over
        # the whole space)
        liouv = liouvillian(system)
        label = block_labels(liouv)
        change = np.kron(liouv.basis.conj(), liouv.basis)
        in_basis = change.conj().T @ reference_generator(system) @ change
        count, components = scipy.sparse.csgraph.connected_components(np.abs(in_basis) > 1e-12)
        # the same partition: as many blocks as components, and as many
        # distinct (block, component) pairs
        assert np.unique(label).size == count
        assert np.unique(np.stack((label, components)), axis=1).shape[1] == count

    @pytest.mark.parametrize("ground_only", [True, False], ids=["ground", "whole-space"])
    @pytest.mark.parametrize("n_sites", [3, 5])
    def test_rotated_chains(self, n_sites, ground_only):
        self.check(rotated_chain(n_sites, 1.3, 0.8, 0.4, seed=n_sites, ground_only=ground_only))

    @pytest.mark.parametrize(
        "system",
        [random_open_system(7, 6), degenerate_open_system(8, 6)],
        ids=["random", "degenerate"],
    )
    def test_without_exact_zeros_the_blocks_are_the_sectors(self, system):
        # a sector: the pairs (i, i') whose E_i' - E_i share a group
        liouv = liouvillian(system)
        label = block_labels(liouv)
        sector = _eigen_model(system, DEFAULT_FREQ_TOL).structure.labels.reshape(-1, order="F")
        for s in np.unique(sector):
            assert np.unique(label[sector == s]).size == 1
        assert np.unique(label).size == np.unique(sector).size

    def test_zero_temperature_at_one_end(self):
        # the absorption rates of the T = 0 bath vanish, which adds exact zeros
        self.check(gradient_chain(5, 1.3, 0.8, 0.0))
        self.check(gradient_chain(4, 0.1, 0.0, 0.6))

    def test_zero_temperature_everywhere(self):
        # with no absorption and the band above the ground levels (g = 0.1),
        # every ground population and every coherence between ground levels
        # is stationary: N^2 = 100 at N = 10.  At g = 1.3 part of the band
        # lies below the ground levels and holds the stationary states.
        self.check(gradient_chain(4, 0.1, 0.0, 0.0))
        self.check(gradient_chain(4, 1.3, 0.0, 0.0))
        with pytest.raises(NonUniqueSteadyStateError) as excinfo:
            steady_state(liouvillian(gradient_chain(10, 0.1, 0.0, 0.0)))
        assert excinfo.value.dimension == 100


def dense_coupling_entries(system: OpenSystem):
    """The nonzeros of the dense products U^dagger V_k U, with the model's U."""
    states = _eigen_model(system, DEFAULT_FREQ_TOL).structure.states
    stacked = np.array([b.coupling for b in system.baths], dtype=complex).reshape(-1, system.dim, system.dim)
    couplings = states.conj().T @ stacked @ states
    bath, rows, cols = np.nonzero(couplings)
    return states, (bath, rows, cols), couplings[bath, rows, cols]


class TestCouplingEntries:
    """The entry joins that form every C_k = U^dagger V_k U, against the dense
    product: the same exact-zero pattern, so the same blocks, and the same
    values to rounding."""

    @staticmethod
    def check(system: OpenSystem) -> None:
        states, pattern, values = dense_coupling_entries(system)
        joined = _joined_coupling_entries(states, _coupling_nonzeros(system.baths))
        assert np.array_equal(joined.bath, pattern[0])
        assert np.array_equal(joined.rows, pattern[1])
        assert np.array_equal(joined.cols, pattern[2])
        assert np.max(np.abs(joined.values - values), initial=0.0) <= 1e-14

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(1, 8), n_baths=st.integers(0, 3), seed=st.integers(0, 2**31 - 1),
           degenerate=st.booleans())
    def test_random_systems(self, dim, n_baths, seed, degenerate):
        self.check((degenerate_open_system if degenerate else random_open_system)(seed, dim, n_baths))

    @pytest.mark.parametrize("n_sites", [2, 5, 12])
    @pytest.mark.parametrize("tunneling", [0.1, 1.3])
    def test_chains(self, n_sites, tunneling):
        system = gradient_chain(n_sites, tunneling, 0.8, 0.4)
        self.check(system)
        # a chain bath has 2N couplings, one per ground-band pair, but for the
        # modes with a node at its site j (j m a multiple of N + 1), whose
        # entries are the rounding of U and count as absent
        counts = np.bincount(_eigen_model(system, DEFAULT_FREQ_TOL).structure.coupling.bath)
        modes = np.arange(1, n_sites + 1)
        assert counts.tolist() == [2 * int(np.count_nonzero(j * modes % (n_sites + 1))) for j in modes]

    @pytest.mark.parametrize("ground_only", [True, False], ids=["ground", "whole-space"])
    def test_rotated_chains(self, ground_only):
        self.check(rotated_chain(4, 1.3, 0.8, 0.4, seed=2, ground_only=ground_only))

    @pytest.mark.parametrize("omega_2", [1.0, 1.7], ids=["equal", "distinct"])
    @pytest.mark.parametrize("configuration", ["lambda", "vee"])
    def test_three_level_systems(self, configuration, omega_2):
        # the three-level experiments' systems, at equal and distinct transitions
        self.check(three_level_system(ThreeLevelParams(configuration, 1.0, omega_2, 1.0, 1.0, 0.8, 0.4)))

    def test_zero_and_sparse_couplings(self):
        # a bath that couples nothing has no entries; a lone diagonal entry
        h = np.diag([0.0, 1.0, 2.5])
        baths = (BathSpec(np.zeros((3, 3)), FlatDensity(1.0), 1.0),
                 BathSpec(np.diag([0.0, 0.0, 2.0]), OhmicDensity(1.0), 1.0))
        self.check(OpenSystem(h, baths))
        entries = _joined_coupling_entries(np.eye(3, dtype=complex), _coupling_nonzeros(baths))
        assert entries.bath.tolist() == [1] and entries.values.tolist() == [2.0]

    @pytest.mark.parametrize(
        "system",
        [gradient_chain(4, 1.3, 0.8, 0.4), gradient_chain(5, 0.1, 0.6, 0.0),
         rotated_chain(3, 1.3, 0.8, 0.4, seed=3, ground_only=True),
         rotated_chain(3, 0.5, 0.8, 0.4, seed=4, ground_only=False),
         random_open_system(11, 5, 3), degenerate_open_system(12, 6, 2),
         *(three_level_system(ThreeLevelParams.from_occupations(c, 2.0, 0.5)) for c in ("lambda", "vee"))],
        ids=["chain", "cold-end", "ground", "whole-space", "random", "degenerate", "lambda", "vee"],
    )
    def test_generator_and_currents_through_the_joins(self, system):
        # the generator, the state and the currents from the joined entries
        # match the oracles built in this file
        TestDenseReference.check(system)
        rho = random_state(5, system.dim)
        assert np.max(np.abs(heat_currents(system, rho) - dissipator_currents(system, rho))) <= 1e-12


class TestEvolve:
    def test_commuting_setup_is_constant(self):
        system = OpenSystem(np.diag([0.0, 1.0]), ())
        liouv = liouvillian(system)
        rho0 = np.diag([0.4, 0.6]).astype(complex)
        trajectory = evolve(liouv, rho0, np.linspace(0.0, 5.0, 6))
        for snapshot in trajectory:
            assert np.max(np.abs(snapshot - rho0)) < 1e-12

    def test_matches_rate_matrix_exponential(self):
        # oracle: matrix exponential of the inline 3x3 rate generator
        params = lambda_params(2.0, 1.0)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        times = np.linspace(0.0, 4.0, 21)
        trajectory = evolve(liouv, rho0, times)
        generator = np.array(
            [
                [-2.0, 0.0, 3.0],
                [0.0, -1.0, 2.0],
                [2.0, 1.0, -5.0],
            ]
        )
        start = np.array([1.0, 0.0, 0.0])
        for snapshot, t in zip(trajectory, times):
            oracle = expm(generator * t) @ start
            assert np.max(np.abs(snapshot.diagonal().real - oracle)) < 1e-8

    def test_long_time_limit_reaches_steady_unbalance(self):
        params = lambda_params(2.0, 1.0)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        final = evolve(liouv, rho0, np.array([0.0, 15.0]))[-1]
        assert (final[1, 1] - final[0, 0]).real == pytest.approx(1.0 / 9.0, abs=1e-7)

    def test_positivity_along_evolution(self):
        params = lambda_params(1.5, 0.5)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)  # coherent start
        trajectory = evolve(liouv, rho0, np.linspace(0.0, 6.0, 40))
        for snapshot in trajectory:
            assert np.linalg.eigvalsh(hermitize(snapshot)).min() >= -1e-7
            assert abs(np.trace(snapshot).real - 1.0) < 1e-7

    def test_never_forms_the_lab_basis_generator(self):
        liouv = four_site_chain()
        evolve(liouv, np.eye(8, dtype=complex) / 8.0, np.linspace(0.0, 30.0, 31))
        assert "matrix" not in vars(liouv)

    def test_thirty_site_chain_in_little_memory(self):
        # the lab-basis generator alone is 3600 x 3600 complex, 207 MB; the
        # block path holds the trajectory (0.6 MiB) and peaks near 2 MiB
        liouv = liouvillian(gradient_chain(30, 1.3, 0.8, 0.4))
        tracemalloc.start()
        try:
            trajectory = evolve(liouv, np.eye(60, dtype=complex) / 60.0, np.linspace(0.0, 1.0, 11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20
        assert trajectory.shape == (11, 60, 60)
        assert "matrix" not in vars(liouv)

    def test_exponentials_of_a_geometric_grid_in_little_memory(self):
        # every interval has its own length; the exponentials kept for them
        # are at most about the trajectory's size, beside the stacks' paths
        # and the lab-basis states
        liouv = liouvillian(gradient_chain(30, 1.3, 0.8, 0.4))
        times = np.concatenate(([0.0], np.geomspace(0.01, 30.0, 200)))
        tracemalloc.start()
        try:
            trajectory = evolve(liouv, np.eye(60, dtype=complex) / 60.0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * trajectory.nbytes

    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_exponentials_of_a_stack_match_expm(self, size):
        # blocks whose norms span six decades and lengths that span four, so
        # the pairs of one call take from none to 18 squarings; 40 blocks of
        # 5 x 5 keep eight lengths in a chunk, so the 15 lengths take two
        rng = np.random.default_rng(size)
        count = 40
        rates = rng.uniform(0.0, 1.0, (count, size, size))
        rates[:, np.arange(size), np.arange(size)] = 0.0
        stack = rates - np.eye(size) * rates.sum(axis=1)[:, None, :]
        stack = stack + 1j * np.eye(size) * rng.normal(size=(count, 1, size))
        stack *= np.logspace(-3.0, 3.0, count)[:, None, None]
        lengths = np.geomspace(1e-3, 10.0, 15)
        out = davies._exponentials(stack, lengths)
        assert out.shape == (lengths.size, count, size, size)
        for tau, exponentials in zip(lengths, out):
            for block, exponential in zip(stack, exponentials):
                expected = expm(tau * block)
                assert np.max(np.abs(exponential - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))

    def test_validate_is_keyword_only(self):
        # a step as the fourth argument, evolve(L, rho, t, 0.01), is refused
        # rather than read as validate=0.01
        liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(TypeError):
            evolve(liouv, rho0, [0.0, 1.0], 0.01)
        with pytest.raises(TypeError):
            evolve(liouv, rho0, [0.0, 1.0], dt=0.01)

    def test_single_time_returns_the_start(self):
        rho0 = random_state(7, 8)
        trajectory = evolve(four_site_chain(), rho0, [2.0])
        assert trajectory.shape == (1, 8, 8) and np.array_equal(trajectory[0], rho0)

    def test_bad_grid_rejected(self):
        params = lambda_params(2.0, 1.0)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            evolve(liouv, rho0, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            evolve(liouv, rho0, np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            evolve(liouv, rho0, np.array([0.0, np.inf]))


def expm_path(liouv, rho0, times) -> np.ndarray:
    """The states at the grid times from scipy's ``expm`` of the lab-basis
    generator, e^{tau L} for each distinct interval length tau applied to
    the column-stacked state interval by interval."""
    matrix = lab_matrix(liouv)
    propagators = {}
    vec = vectorize(rho0)
    states = [np.asarray(rho0, dtype=complex)]
    for span in np.diff(times).tolist():
        if span not in propagators:
            propagators[span] = expm(span * matrix)
        vec = propagators[span] @ vec
        states.append(devectorize(vec))
    return np.array(states)


def four_site_chain():
    return liouvillian(chain_system(ChainSpec(4, 1.0, 0.5, 0.05, LinearProfile(0.8, 0.4))))


class TestEvolveAgainstExpm:
    """The exponential of each block in the eigenbasis, by scaling and
    squaring, is the exponential of the lab-basis generator; only the
    rounding differs from scipy's."""

    def assert_agrees(self, liouv, rho0, times, tol=1e-13):
        expected = expm_path(liouv, rho0, times)
        trajectory = evolve(liouv, rho0, times, validate=False)
        assert trajectory.shape == expected.shape
        assert np.max(np.abs(trajectory - expected)) <= tol

    def test_lambda_oscillator_grid(self):
        liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        self.assert_agrees(liouv, rho0, np.arange(0.0, 4.0 + 5e-4, 1e-3))

    def test_four_site_chain(self):
        self.assert_agrees(four_site_chain(), np.eye(8, dtype=complex) / 8.0, np.linspace(0.0, 30.0, 31))

    def test_geometric_grid(self):
        # every interval has its own length, so every length gets its own
        # exponentials and number of squarings
        times = np.concatenate(([0.0], np.geomspace(1e-3, 30.0, 40)))
        self.assert_agrees(four_site_chain(), random_state(3, 8), times)
        liouv = liouvillian(lambda_system(lambda_params(1.5, 0.5)))
        self.assert_agrees(liouv, np.full((3, 3), 1.0 / 3.0, dtype=complex), times[:25])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_ohmic_systems(self, seed):
        dim = 2 + seed % 3
        system = random_open_system(seed, dim, n_baths=1 + seed % 2, t_min=0.2)
        times = np.array([0.0, 0.05, 0.3, 0.35, 1.0, 1.05, 2.5])
        self.assert_agrees(liouvillian(system), random_state(seed + 100, dim), times)

    def test_twelve_site_chain(self):
        # a short grid keeps the lab-basis exponentials (576 x 576) cheap
        liouv = liouvillian(gradient_chain(12, 0.5, 0.8, 0.4))
        self.assert_agrees(liouv, random_state(12, 24), np.array([0.0, 0.1, 0.2, 0.3, 0.37, 0.47]), tol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        dim=st.integers(2, 5),
        n_baths=st.integers(1, 2),
        repeated=st.sampled_from([1 / 64, 1 / 32, 1 / 8]),
        uses=st.integers(8, 12),
        one_off=st.lists(st.sampled_from([1 / 512, 1 / 128, 3 / 128, 3 / 64, 1 / 4]), min_size=1,
                         max_size=3, unique=True),
        order=st.randoms(use_true_random=False),
    )
    def test_random_systems_and_mixed_grids(self, seed, dim, n_baths, repeated, uses, one_off, order):
        # a grid of one length used many times and lengths used once,
        # shuffled; binary fractions keep every repeated length exactly equal
        spans = [repeated] * uses + one_off
        order.shuffle(spans)
        system = random_open_system(seed, dim, n_baths=n_baths, t_min=0.2)
        self.assert_agrees(liouvillian(system), random_state(seed + 1, dim), np.cumsum([0.0, *spans]))

    @pytest.mark.parametrize("tiny", [1e-12, 1e-300, 5e-324])
    def test_tiny_intervals_beside_a_long_one(self, tiny):
        # lengths down to the least subnormal take no squaring and keep the
        # state to rounding, while the unit interval of the same grid is
        # squared; 5e-324 times a rate underflows to zero
        times = np.array([0.0, tiny, 2 * tiny, 1.0 + 2 * tiny])
        self.assert_agrees(four_site_chain(), random_state(4, 8), times)
        liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        trajectory = evolve(liouv, rho0, times)
        assert np.max(np.abs(trajectory[1:3] - rho0)) <= 1e-11
        self.assert_agrees(liouv, rho0, times)

    @pytest.mark.parametrize("name", ["lambda", "chain"])
    def test_long_horizon_reaches_the_steady_state(self, name):
        # [0, 1e5] is 1e5 / Gamma for lambda and 5e3 / Gamma for the chain;
        # its exponential takes about 20 squarings
        if name == "lambda":
            liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
            rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        else:
            liouv = four_site_chain()
            rho0 = random_state(9, 8)
        late = evolve(liouv, rho0, [0.0, 1.0, 1e5])[-1]
        assert np.max(np.abs(late - steady_state(liouv))) <= 1e-10

    @pytest.mark.parametrize("end", [1e300, 1.7e308])
    @pytest.mark.parametrize("name", ["lambda", "chain"])
    def test_absurd_interval_ends_in_bounded_work(self, name, end):
        # about 2^s eps of rounding after s squarings, s near 1000 here:
        # the state is either the steady state or refused at that time, and
        # no warning escapes (tier-1 turns a RuntimeWarning into an error)
        if name == "lambda":
            liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
            rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        else:
            liouv = four_site_chain()
            rho0 = np.full((8, 8), 1.0 / 8.0, dtype=complex)
        start = time.perf_counter()
        try:
            late = evolve(liouv, rho0, [0.0, end], validate=False)[-1]
        except AccuracyError as exc:
            assert f"at t = {end:g}; interval [0, {end:g}]" in str(exc)
        else:
            assert np.max(np.abs(late - steady_state(liouv))) <= 1e-10
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize(
        "diagonal, times, message",
        [
            # the population leaks away: the trace drifts over the interval
            (-1e-3, [1.0, 1.5, 2.0], r"trace drift 4\.999e-04 above 1e-07 at t = 1\.5; interval \[1, 1\.5\]"),
            # the population grows by 1e-9 over the first interval, then
            # past every float, e^1000
            (1e-9, [0.0, 1.0, 1e12], r"non-finite state at t = 1e\+12; interval \[1, 1e\+12\]"),
            # population flows at unit rate from the excited to the ground
            # level, p(t) = (t, 1 - t), past 1 after t = 1
            (None, [0.0, 1.0, 1.5], r"entry of magnitude 1\.500e\+00 above 1 at t = 1\.5; interval \[1, 1\.5\]"),
        ],
        ids=["trace-drift", "non-finite", "magnitude"],
    )
    def test_accuracy_error_names_the_interval(self, diagonal, times, message):
        matrix = np.zeros((4, 4), dtype=complex)
        if diagonal is None:
            matrix[0, 0] = matrix[0, 3] = 1.0
            matrix[3, 0] = matrix[3, 3] = -1.0
            rho0 = np.diag([0.0, 1.0]).astype(complex)
        else:
            matrix[0, 0] = diagonal
            rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(AccuracyError, match=message):
            evolve(dense_liouvillian(matrix), rho0, times, validate=False)

    def test_validate_names_the_first_bad_state(self):
        # a trace-preserving but not positive generator: populations move at
        # a constant rate, p(t) = (1 - t, t), so p_0 < 0 after t = 1
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 0] = matrix[0, 3] = -1.0
        matrix[3, 0] = matrix[3, 3] = 1.0
        liouv = dense_liouvillian(matrix)
        assert np.array_equal(lab_matrix(liouv), matrix)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        times = np.linspace(0.0, 2.0, 5)
        # validate=True names the negative eigenvalue; without it the entry
        # 1.5, which no density matrix has, still stops the trajectory
        with pytest.raises(InvariantViolationError, match=r"state at t = 1.5 has eigenvalue"):
            evolve(liouv, rho0, times)
        with pytest.raises(AccuracyError, match=r"entry of magnitude 1.500e\+00 above 1 at t = 1.5;"):
            evolve(liouv, rho0, times, validate=False)

    def test_non_hermitian_state_named(self):
        # a generator that feeds a coherence from the ground population only
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[1, 0] = 7e-10
        liouv = dense_liouvillian(matrix)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InvariantViolationError, match=r"state at t = 0.2 is not Hermitian"):
            evolve(liouv, rho0, times)


def gth_stationary(rates: np.ndarray) -> np.ndarray:
    """Stationary distribution of the rate matrix ``rates[i, j]`` (rate of
    j -> i, diagonal ignored) by the Grassmann-Taksar-Heyman elimination,
    which subtracts nothing and so keeps every probability to a few ulps
    of relative accuracy however many decades the rates span."""
    a = np.array(rates, dtype=float).T  # a[i, j]: rate of i -> j
    n = a.shape[0]
    for k in range(n - 1, 0, -1):
        a[:k, k] /= a[k, :k].sum()
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    p = np.zeros(n)
    p[0] = 1.0
    for k in range(1, n):
        p[k] = p[:k] @ a[:k, k]
    return p / p.sum()


class TestSteadyState:
    @pytest.mark.parametrize("case", [(8, 0.1, 0.3, 0.1), (10, 0.1, 0.2, 0.05), (12, 0.1, 0.2, 0.05)])
    def test_cold_chain_populations_to_a_few_ulps(self, case):
        # the eigenbasis populations of a chain follow the Pauli rates
        # sum_k R_k |C_k|^2 (its ground coherences only decay); with rates
        # spanning many decades the null vector of an ungraded block was off
        # by up to 1e-10
        system = gradient_chain(*case)
        model = _eigen_model(system, DEFAULT_FREQ_TOL)
        labels, states = model.structure.labels, model.structure.states
        # a chain bath's zero-frequency component vanishes, so its rate is 0
        rates = sum(
            np.array([thermal_rate(bath.spectral, w, bath.temperature) if w != 0.0 else 0.0
                      for w in model.structure.frequencies.tolist()])[labels]
            * np.abs(states.conj().T @ bath.coupling @ states) ** 2
            for bath in system.baths
        )
        rho = steady_state(liouvillian(system))
        populations = np.diagonal(states.conj().T @ rho @ states).real
        assert np.max(np.abs(populations - gth_stationary(rates))) <= 1e-13


    def test_lambda_unbalance_against_null_space_oracle(self):
        # oracle: null space of the inline rate matrix, normalized to total one
        n_1, n_2 = 2.0, 1.0
        generator = np.array(
            [
                [-n_1, 0.0, n_1 + 1.0],
                [0.0, -n_2, n_2 + 1.0],
                [n_1, n_2, -(n_1 + 1.0) - (n_2 + 1.0)],
            ]
        )
        constrained = np.vstack([generator[:2], np.ones(3)])
        oracle = np.linalg.solve(constrained, np.array([0.0, 0.0, 1.0]))
        assert oracle[1] - oracle[0] == pytest.approx(1.0 / 9.0, abs=1e-14)

        params = lambda_params(n_1, n_2)
        rho = steady_state(liouvillian(lambda_system(params)))
        assert np.allclose(rho.diagonal().real, oracle, atol=1e-10)

    def test_cold_trap_limit(self):
        params = ThreeLevelParams("lambda", temp_1=1.0, temp_2=0.0)
        rho = steady_state(liouvillian(lambda_system(params)))
        assert rho[1, 1].real == pytest.approx(1.0, abs=1e-6)

    def test_uniform_chain_reaches_gibbs(self):
        from qthermo.chain import ChainSpec, LinearProfile, chain_system

        spec = ChainSpec(4, 1.0, 0.3, 0.01, LinearProfile(0.6, 0.6))
        system = chain_system(spec)
        rho = steady_state(liouvillian(system))
        assert trace_distance(rho, thermal_state(system.hamiltonian, 0.6)) <= 1e-6

    def test_degenerate_generator_reports_dimension(self):
        system = OpenSystem(np.diag([0.0, 1.0]), (BathSpec(np.zeros((2, 2)), FlatDensity(1.0), 1.0),))
        with pytest.raises(NonUniqueSteadyStateError) as excinfo:
            steady_state(liouvillian(system))
        assert excinfo.value.dimension == 2

    @pytest.mark.parametrize("n_levels", [3, 5, 7])
    def test_mirror_symmetric_sectors_are_not_unique(self, n_levels):
        # H and a bath at the middle level are symmetric under i -> n - 1 - i,
        # so the bath cannot reach the (n - 1) / 2 antisymmetric levels, each
        # of which is stationary, nor move weight between them and the
        # symmetric sector; the rounding of U puts 1e-17 to 1e-32 where their
        # couplings are zero, which must not join the sectors
        h = np.diag(np.ones(n_levels - 1), 1) * 0.3
        h[n_levels // 2, n_levels // 2] = 1.0
        coupling = np.zeros((n_levels, n_levels))
        coupling[n_levels // 2, n_levels // 2] = 1.0
        system = OpenSystem(h + h.T, (BathSpec(coupling, OhmicDensity(0.1), 0.5),))
        with pytest.raises(NonUniqueSteadyStateError) as excinfo:
            steady_state(liouvillian(system))
        assert excinfo.value.dimension == (n_levels + 1) // 2

    def test_empty_null_space_is_a_solver_failure(self):
        invertible = dense_liouvillian(np.eye(4))
        with pytest.raises(SolverFailureError):
            steady_state(invertible)

    def test_non_hermitian_null_vector_fails_the_residual_check(self):
        # the null vector of 1 - v v^dagger is v = vec([[1, 1], [0, 0]]) / sqrt(2);
        # its Hermitian part, normalized, is far from stationary
        v = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2.0)
        generator = np.eye(4, dtype=complex) - np.outer(v, v)
        with pytest.raises(SolverFailureError, match="stationary residual"):
            steady_state(dense_liouvillian(generator))

    def test_residual_check_does_not_overflow_at_huge_rates(self):
        # rates of 1e300 leave a residual of order 1e284, whose square
        # overflowed; the state does not depend on the scale of the rates
        def chain(rate):
            return chain_system(ChainSpec(10, 1.0, 1.3, rate, LinearProfile(0.8, 0.4)))

        huge = steady_state(liouvillian(chain(1e300)))
        assert np.max(np.abs(huge - steady_state(liouvillian(chain(0.01))))) <= 1e-12
        assert np.all(np.isfinite(heat_currents(chain(1e300), huge)))

    def test_rate_scaling_invariance(self):
        base = steady_state(liouvillian(lambda_system(lambda_params(2.0, 1.0, gamma=0.5))))
        scaled = steady_state(liouvillian(lambda_system(lambda_params(2.0, 1.0, gamma=5.0))))
        assert np.max(np.abs(base - scaled)) < 1e-9

    def test_evolve_consistency(self):
        params = lambda_params(2.0, 1.0)
        liouv = liouvillian(lambda_system(params))
        stationary = steady_state(liouv)
        rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        late = evolve(liouv, rho0, np.array([0.0, 20.0]))[-1]
        assert trace_distance(late, stationary) <= 1e-6


# The paper's quantum regime, T << h, where every Boltzmann-suppressed rate
# is tiny but not zero: (N, T_L, T_R) at g = 0.1, Gamma = 0.01.
COLD_CHAINS = [(10, 0.1, 0.03), (30, 0.15, 0.04), (6, 0.1, 0.03), (4, 0.08, 0.02)]


class TestColdChains:
    """Cold chains have a unique steady state: no rate vanishes, however
    small.  The coherences between ground levels only decay, at rates down to
    1e-13 of the largest, and the smallest singular values of the population
    block are smaller still; neither may count as null."""

    @pytest.mark.parametrize("n_sites, t_left, t_right", COLD_CHAINS)
    def test_against_the_analytic_band(self, n_sites, t_left, t_right):
        spec = ChainSpec(n_sites, 1.0, 0.1, 0.01, LinearProfile(t_left, t_right))
        system = chain_system(spec)
        rho = steady_state(liouvillian(system))
        expected_rho, expected_currents = analytic_chain(n_sites, 1.0, 0.1, 0.01, spec.site_temperatures())
        populations = site_populations(rho, spec)
        expected = site_populations(expected_rho, spec)
        # the smallest site population is 1e-14 (N = 4) to 8e-8 (N = 30)
        assert np.max(np.abs(populations - expected) / expected) <= 1e-13
        assert np.max(np.abs(rho - expected_rho)) <= 1e-14
        assert np.max(np.abs(heat_currents(system, rho) - expected_currents)) <= 1e-20


def exact_stationary(rates) -> list[Fraction]:
    """The stationary distribution of the rate matrix ``rates[i][j]`` (the
    rate of j -> i, floats, diagonal ignored), exactly: every float is a
    rational, the diagonal is minus its column sum, the first equation is
    replaced by the normalization, and Gauss-Jordan elimination runs in
    Fractions."""
    m = len(rates)
    q = [[Fraction(rates[i][j]) if i != j else Fraction(0) for j in range(m)] for i in range(m)]
    for j in range(m):
        q[j][j] = -sum(q[i][j] for i in range(m))
    q[0] = [Fraction(1)] * m
    b = [Fraction(1)] + [Fraction(0)] * (m - 1)
    for c in range(m):
        pivot = next(i for i in range(c, m) if q[i][c] != 0)
        q[c], q[pivot], b[c], b[pivot] = q[pivot], q[c], b[pivot], b[c]
        for i in range(m):
            if i != c and q[i][c] != 0:
                factor = q[i][c] / q[c][c]
                q[i] = [x - factor * y for x, y in zip(q[i], q[c])]
                b[i] -= factor * b[c]
    return [b[i] / q[i][i] for i in range(m)]


def population_block(liouv: Liouvillian) -> tuple[np.ndarray, np.ndarray]:
    """The levels and the entries of the generator's one block of
    populations (i, i)."""
    (levels, block), = [(index[c] // (liouv.dim + 1), stack[c])
                        for index, stack in zip(liouv.indices, liouv.blocks) if stack.shape[-1] > 1
                        for c in range(len(stack)) if np.all(index[c] % (liouv.dim + 1) == 0)]
    return levels, block


class TestExactRationalOracle:
    """The populations the solve finds in the eigenbasis against the exact
    rational stationary distribution of the same float rates: every
    probability to 1e-15 relative, however many decades they span."""

    CHAINS = [(3, 0.1, 0.8, 0.4), (4, 1.3, 0.6, 0.6), (6, 0.5, 0.3, 0.1), (10, 1.3, 0.8, 0.4),
              (10, 0.5, 0.3, 0.1), (10, 0.7, 0.15, 0.04), (8, 0.9, 0.2, 0.05),
              *((n, 0.1, t_left, t_right) for n, t_left, t_right in COLD_CHAINS if n <= 10)]
    THREE_LEVEL = [(kind, occupations) for kind in ("lambda", "vee")
                   for occupations in ((2.0, 1.0), (1.7, 0.4), (0.01, 0.001))]

    @pytest.mark.parametrize(
        "system",
        [*(gradient_chain(*case) for case in CHAINS),
         *(three_level_system(ThreeLevelParams.from_occupations(kind, *occupations))
           for kind, occupations in THREE_LEVEL)],
        ids=[*("chain-{}-g{}-T{}-{}".format(*case) for case in CHAINS),
             *(f"{kind}-n{occupations[0]}-{occupations[1]}" for kind, occupations in THREE_LEVEL)],
    )
    def test_eigenbasis_populations(self, system):
        liouv = liouvillian(system)
        levels, block = population_block(liouv)
        rates = [[float(x) for x in row] for row in block.real]
        exact = np.array([float(x) for x in exact_stationary(rates)])
        p, solved, _, _ = davies._stationary_rates(block[None])
        assert solved.tolist() == [True]
        assert np.max(np.abs(p[0] - exact) / exact) <= 1e-15
        # the state the public solve returns holds these populations, to the
        # rounding of its two changes of basis
        rho = steady_state(liouv)
        in_basis = np.diagonal(liouv.basis.conj().T @ rho @ liouv.basis).real[levels]
        assert np.max(np.abs(in_basis - exact)) <= 1e-14


class TestHeatCurrents:
    def test_equilibrium_currents_vanish(self):
        from qthermo.chain import ChainSpec, LinearProfile, chain_system

        spec = ChainSpec(3, 1.0, 0.4, 0.05, LinearProfile(0.7, 0.7))
        system = chain_system(spec)
        currents = heat_currents(system, thermal_state(system.hamiltonian, 0.7))
        assert np.max(np.abs(currents)) <= 1e-9

    def test_lambda_steady_state_balances_each_bath(self):
        # each bath couples to its own transition only, so the stationary state
        # balances every bath separately and both currents vanish; the closed
        # form omega gamma [(n_k + 1) P_e - n_k P_k] agrees
        params = lambda_params(2.0, 1.0)
        system = lambda_system(params)
        rho = steady_state(liouvillian(system))
        currents = heat_currents(system, rho)
        assert np.max(np.abs(currents)) < 1e-12
        pops = rho.diagonal().real
        for k, n_k in ((0, 2.0), (1, 1.0)):
            closed = 1.0 * 1.0 * ((n_k + 1.0) * pops[2] - n_k * pops[k])
            assert currents[k] == pytest.approx(closed, abs=1e-12)
        assert currents.sum() == pytest.approx(0.0, abs=1e-9)

    def test_clamped_state_matches_closed_form(self):
        # dual route: the trace-based current against the explicit rate form
        params = lambda_params(1.0, 1.0)
        system = lambda_system(params)
        clamped = np.diag([0.2, 0.3, 0.5]).astype(complex)
        currents = heat_currents(system, clamped)
        assert currents[0] == pytest.approx(2.0 * 0.5 - 1.0 * 0.2, abs=1e-12)  # 0.8
        assert currents[1] == pytest.approx(2.0 * 0.5 - 1.0 * 0.3, abs=1e-12)  # 0.7
        assert currents[0] > currents[1] > 0.0

    def test_energy_balance_on_gradient_chain(self):
        from qthermo.chain import ChainSpec, LinearProfile, chain_system

        spec = ChainSpec(6, 1.0, 0.5, 0.01, LinearProfile(0.8, 0.4))
        system = chain_system(spec)
        currents = heat_currents(system, steady_state(liouvillian(system)))
        assert np.max(np.abs(currents)) > 1e-6  # genuinely out of equilibrium
        assert abs(currents.sum()) <= 1e-9

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 8), n_baths=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_any_state_matches_the_dissipator_trace(self, dim, n_baths, seed):
        # J_k = -Tr[D_k(rho) H] with D_k summed over the lab-basis jump
        # operators built in this file, at a state with coherences between
        # all levels
        system = degenerate_open_system(seed, dim, n_baths)
        rho = random_state(seed + 1, dim)
        assert np.max(np.abs(heat_currents(system, rho) - dissipator_currents(system, rho))) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 4])
    def test_state_of_the_wrong_dimension(self, dim):
        # the lambda system has dimension 3; the currents read the state by
        # index, so a larger state must not be read silently
        system = lambda_system(lambda_params(2.0, 1.0))
        with pytest.raises(InvariantViolationError, match=f"state dimension {dim} differs from system 3"):
            heat_currents(system, np.eye(dim, dtype=complex) / dim)

    @settings(max_examples=25, deadline=None)
    @given(dim=st.integers(2, 8), n_baths=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
    def test_second_law_on_random_ohmic_systems(self, dim, n_baths, seed):
        # Spohn: at the steady state the baths gain entropy and no energy is lost
        system = random_open_system(seed, dim, n_baths, t_min=0.2)
        currents = heat_currents(system, steady_state(liouvillian(system)))
        assert entropy_production(system, currents) >= -1e-12
        assert abs(currents.sum()) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(**chain_cases)
    def test_second_law_on_gradient_chains(self, n_sites, tunneling, t_left, t_right):
        system = gradient_chain(n_sites, tunneling, t_left, t_right)
        currents = heat_currents(system, steady_state(liouvillian(system)))
        assert entropy_production(system, currents) >= -1e-12
        assert abs(currents.sum()) <= 1e-9


def analytic_chain(n_sites: int, h: float, g: float, rate: float,
                   temperatures) -> tuple[np.ndarray, np.ndarray]:
    """Stationary state and heat currents of a chain with flat baths, from its
    analytic band and the Pauli rates, apart from the package's model.

    The modes E_m = h + 2 g cos(m pi / (N + 1)) have the site amplitudes
    sqrt(2 / (N + 1)) sin(j m pi / (N + 1)).  Bath k moves the system between
    the ground level of site k and mode m at thermal_rate(J, +-E_m, T_k)
    times the squared amplitude at site k; ground coherences only decay, so
    the populations solve these rates (by GTH) and the state is diagonal in
    the modes.  J_k sums E_m times the net downward flow through bath k.
    """
    spectral = FlatDensity(rate)
    modes = np.arange(1, n_sites + 1)
    energies = h + 2.0 * g * np.cos(modes * np.pi / (n_sites + 1))
    amplitudes = math.sqrt(2.0 / (n_sites + 1)) * np.sin(np.outer(modes, modes) * np.pi / (n_sites + 1))
    # states 0..N-1 are the ground levels, N..2N-1 the modes; rates[i, j] is j -> i
    rates = np.zeros((2 * n_sites, 2 * n_sites))
    for k, temperature in enumerate(temperatures):
        for m, energy in enumerate(energies.tolist()):
            weight = amplitudes[k, m] ** 2
            rates[k, n_sites + m] = thermal_rate(spectral, energy, temperature) * weight
            rates[n_sites + m, k] = thermal_rate(spectral, -energy, temperature) * weight
    p = gth_stationary(rates)
    ground, band = p[:n_sites], p[n_sites:]
    currents = np.array([
        np.sum(energies * (rates[k, n_sites:] * band - rates[n_sites:, k] * ground[k]))
        for k in range(n_sites)
    ])
    rho = np.zeros((2 * n_sites, 2 * n_sites))
    rho[0::2, 0::2] = np.diag(ground)
    rho[1::2, 1::2] = (amplitudes * band) @ amplitudes.T
    return rho, currents


class TestLargeChains:
    """Chains of up to 50 sites, against the analytic band."""

    def test_fifty_sites_against_the_analytic_band(self):
        spec = ChainSpec(50, 1.0, 1.3, 0.02, LinearProfile(0.8, 0.4))
        system = chain_system(spec)
        rho = steady_state(liouvillian(system))
        currents = heat_currents(system, rho)
        expected_rho, expected_currents = analytic_chain(50, 1.0, 1.3, 0.02, spec.site_temperatures())
        assert np.max(np.abs(rho - expected_rho)) <= 1e-12
        assert np.max(np.abs(currents - expected_currents)) <= 1e-12
        assert np.max(np.abs(currents)) > 1e-5  # out of equilibrium

    @pytest.mark.parametrize("n_sites", [10, 30])
    @pytest.mark.parametrize("tunneling", LAPACK_MIXING_TUNNELINGS)
    def test_where_a_whole_matrix_eigh_mixes_the_ground_levels(self, n_sites, tunneling):
        spec = ChainSpec(n_sites, 1.0, tunneling, 0.02, LinearProfile(0.8, 0.4))
        system = chain_system(spec)
        liouv = liouvillian(system)
        assert max(index.shape[1] for index in liouv.indices) == 2 * n_sites
        rho = steady_state(liouv)
        expected_rho, expected_currents = analytic_chain(n_sites, 1.0, tunneling, 0.02,
                                                         spec.site_temperatures())
        assert np.max(np.abs(rho - expected_rho)) <= 1e-12
        assert np.max(np.abs(heat_currents(system, rho) - expected_currents)) <= 1e-12
        if n_sites == 10:
            TestDenseReference.check(system)

    def test_hundred_sites_conserve_energy_and_produce_entropy(self):
        system = gradient_chain(100, 1.3, 0.8, 0.4)
        currents = heat_currents(system, steady_state(liouvillian(system)))
        assert abs(currents.sum()) <= 1e-9
        assert entropy_production(system, currents) >= -1e-12
        assert np.max(np.abs(currents)) > 1e-6

    def test_model_and_generator_hold_no_dense_stack(self):
        # three complex (K, d, d) arrays, as the model once held, take 41 MiB
        # at N = 60 and one of them 13.2 MiB; the model and the generator
        # built from entry lists peak at about 7.5 MiB
        system = gradient_chain(60, 1.3, 0.8, 0.4)
        tracemalloc.start()
        try:
            _eigen_model(system, DEFAULT_FREQ_TOL)
            liouvillian(system)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


def crossed_system(t_1: float, t_2: float) -> OpenSystem:
    """A ground level and two degenerate excited ones, with baths coupling
    the ground to |1> + |2> and to |1> - |2>: M[1, 2] is r_1 - r_2, which
    vanishes exactly at equal temperatures, so the pattern of K changes
    with the temperatures while every rate stays nonzero."""
    h = np.diag([0.0, 1.0, 1.0])
    plus = np.zeros((3, 3))
    plus[0, 1] = plus[1, 0] = plus[0, 2] = plus[2, 0] = 1.0
    minus = plus.copy()
    minus[0, 2] = minus[2, 0] = -1.0
    return OpenSystem(h, (BathSpec(plus, FlatDensity(1.0), t_1), BathSpec(minus, FlatDensity(1.0), t_2)))


def generator_bytes(system: OpenSystem, freq_tol: float = DEFAULT_FREQ_TOL) -> list[bytes]:
    """The bytes of the blocks, indices, steady state and heat currents of a
    system."""
    liouv = liouvillian(system, freq_tol)
    rho = steady_state(liouv)
    arrays = (*liouv.blocks, *liouv.indices, rho, heat_currents(system, rho, freq_tol))
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def kept_array_bytes(structure) -> int:
    """The bytes a kept structure holds, counted from its arrays."""
    _, h, couplings = structure.key
    total = len(h) + sum(map(len, couplings))
    arrays = [structure.energies, structure.states, structure.frequencies, structure.labels,
              *structure.coupling, structure.entry_labels, structure.zero_magnitude, *structure.pairs]
    for mask, plan in structure.plans.items():
        total += len(mask)
        arrays += [plan.w, *plan.jumps, plan.population, *plan.decay[:3], plan.damping_at, *plan.currents]
        for pattern, layout in plan.layouts.items():
            total += len(pattern)
            arrays += [layout.target, layout.stacks[0][1].base, layout.scalar_jumps]
    return total + sum(a.nbytes for a in arrays)


class TestReuse:
    """The structure fixed by H, the couplings and the grouping tolerance is
    built once and kept; a new temperature only refills the rates, and gives
    the bytes a cold build gives."""

    @pytest.fixture(autouse=True)
    def cold(self):
        davies._STRUCTURES.clear()
        yield
        davies._STRUCTURES.clear()

    @pytest.mark.parametrize(
        "make",
        [
            *(lambda t, n=n, g=g: gradient_chain(n, g, *t) for n, g in ((3, 0.1), (10, 0.1), (12, 1.3))),
            *(lambda t, c=c: three_level_system(ThreeLevelParams(c, 1.0, 1.0, 1.0, 1.0, *t))
              for c in ("lambda", "vee")),
            *(lambda t, d=d: rotated_chain(3, 1.3, *t, seed=d, ground_only=False) for d in (1, 2)),
            lambda t: crossed_system(*t),
        ],
        ids=["chain-3", "chain-10", "chain-12", "lambda", "vee", "rotated-1", "rotated-2", "crossed"],
    )
    def test_warm_and_cold_give_the_same_bytes(self, make):
        temperatures = [(0.8, 0.4), (0.3, 0.3), (0.6, 0.2)]
        cold = []
        for t in temperatures:
            davies._STRUCTURES.clear()
            cold.append(generator_bytes(make(t)))
        davies._STRUCTURES.clear()
        for _ in range(2):
            assert [generator_bytes(make(t)) for t in temperatures] == cold
        assert len(davies._STRUCTURES.kept) == 1

    @pytest.mark.parametrize("dim, n_baths", [(3, 2), (4, 2), (6, 2), (8, 3)])
    def test_random_systems_warm_and_cold(self, dim, n_baths):
        # the same H and couplings at new temperatures: a warm structure
        for seed in (1, 2):
            system = degenerate_open_system(seed, dim, n_baths)
            davies._STRUCTURES.clear()
            cold = generator_bytes(system)
            baths = tuple(BathSpec(b.coupling, b.spectral, 2.0 * b.temperature) for b in system.baths)
            generator_bytes(OpenSystem(system.hamiltonian, baths))
            assert generator_bytes(OpenSystem(system.hamiltonian, system.baths)) == cold

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 6), n_baths=st.integers(1, 3), seed=st.integers(0, 2**31 - 1),
           degenerate=st.booleans(), scale=st.sampled_from([0.0, 0.5, 3.0]))
    def test_random_systems_at_other_temperatures(self, dim, n_baths, seed, degenerate, scale):
        # a structure built at scaled temperatures (0: every bath at T = 0)
        # gives the cold bytes at the drawn ones
        system = (degenerate_open_system if degenerate else random_open_system)(seed, dim, n_baths)

        def at(factor):
            return OpenSystem(system.hamiltonian, tuple(
                BathSpec(b.coupling, b.spectral, factor * b.temperature) for b in system.baths))

        davies._STRUCTURES.clear()
        try:
            cold = generator_bytes(at(1.0))
        except NonUniqueSteadyStateError:
            return
        davies._STRUCTURES.clear()
        liouvillian(at(scale))
        assert generator_bytes(at(1.0)) == cold

    def test_a_cold_end_switching_on_and_off(self):
        # a bath at T = 0 drops its absorption entries: another plan
        ends = [(0.8, 0.0), (0.8, 0.4)]
        cold = []
        for t in ends:
            davies._STRUCTURES.clear()
            cold.append(generator_bytes(gradient_chain(6, 0.5, *t)))
        davies._STRUCTURES.clear()
        for t in ends * 2 + ends[::-1]:
            assert generator_bytes(gradient_chain(6, 0.5, *t)) == cold[ends.index(t)]
        (structure,) = davies._STRUCTURES.kept.values()
        assert len(structure.plans) == 2

    def test_two_grouping_tolerances(self):
        system = gradient_chain(4, 0.3, 0.8, 0.4)
        cold = {}
        for tolerance in (1e-8, 1e-4):
            davies._STRUCTURES.clear()
            cold[tolerance] = generator_bytes(system, tolerance)
        davies._STRUCTURES.clear()
        for tolerance in (1e-8, 1e-4, 1e-8):
            assert generator_bytes(gradient_chain(4, 0.3, 0.8, 0.4), tolerance) == cold[tolerance]
        # too wide a tolerance for this spectrum fails on every call
        for _ in range(2):
            with pytest.raises(AmbiguousGroupingError):
                liouvillian(gradient_chain(4, 0.3, 0.8, 0.4), 0.2)
        assert len(davies._STRUCTURES.kept) == 2

    def test_coupling_values_are_in_the_key(self):
        # the same pattern of nonzero couplings with other values
        def doubled():
            system = gradient_chain(4, 0.5, 0.8, 0.4)
            return OpenSystem(system.hamiltonian, tuple(
                BathSpec(2.0 * b.coupling, b.spectral, b.temperature) for b in system.baths))

        cold = generator_bytes(doubled())
        davies._STRUCTURES.clear()
        generator_bytes(gradient_chain(4, 0.5, 0.8, 0.4))
        assert generator_bytes(doubled()) == cold

    def test_the_pattern_of_k_selects_the_layout(self):
        # one plan, two patterns of K: M[1, 2] vanishes at equal temperatures
        davies._STRUCTURES.clear()
        cold = [generator_bytes(crossed_system(0.5, t)) for t in (0.5, 0.3)]
        davies._STRUCTURES.clear()
        for t in (0.3, 0.5, 0.3):
            assert generator_bytes(crossed_system(0.5, t)) == cold[(0.5, 0.3).index(t)]
        (structure,) = davies._STRUCTURES.kept.values()
        (plan,) = structure.plans.values()
        assert len(plan.layouts) == 2

    def test_zero_frequency_rule_on_every_call(self):
        # the same structure under a flat and an ohmic density
        system = random_open_system(3, 4)
        flat = OpenSystem(system.hamiltonian, tuple(
            BathSpec(b.coupling, FlatDensity(1.0), b.temperature) for b in system.baths))
        liouvillian(system)
        for _ in range(2):
            with pytest.raises(UnsupportedModelError, match="bath 0: zero-frequency"):
                liouvillian(OpenSystem(flat.hamiltonian, flat.baths))
        assert len(davies._STRUCTURES.kept) == 1

    def test_a_warm_call_builds_nothing(self, monkeypatch):
        # no eigendecomposition, grouping, join, components or sort on a hit
        generator_bytes(gradient_chain(5, 0.7, 0.8, 0.4))
        for name in ("eigh", "_frequency_groups", "_joined_coupling_entries", "_equal_key_pairs", "components"):
            monkeypatch.setattr(davies, name, None)
        monkeypatch.setattr(davies.np, "lexsort", None)
        generator_bytes(gradient_chain(5, 0.7, 0.6, 0.1))

    def test_kept_arrays_are_read_only(self):
        system = gradient_chain(4, 0.5, 0.8, 0.4)
        liouv = liouvillian(system)
        with pytest.raises(ValueError):
            liouv.basis[0, 0] = 1.0
        (structure,) = davies._STRUCTURES.kept.values()
        with pytest.raises(ValueError):
            structure.coupling.values[0] = 0.0
        with pytest.raises(ValueError):
            next(iter(structure.plans.values())).jumps.rows[0] = 0

    def test_kept_bytes_stay_within_the_bound(self):
        # an N = 30 structure holds about 0.6 MiB, so 100 of them exceed the bound
        for g in np.linspace(0.3, 1.5, 100):
            steady_state(liouvillian(gradient_chain(30, float(g), 0.8, 0.4)))
            cache = davies._STRUCTURES
            assert cache.nbytes <= davies.STRUCTURE_CACHE_BYTES
            assert cache.nbytes == sum(kept_array_bytes(s) for s in cache.kept.values())
        assert 10 < len(davies._STRUCTURES.kept) < 100

    def test_threads_share_the_cache(self, monkeypatch):
        # more threads than cores race on structures, plans and layouts
        # under a bound that evicts; every result is the cold one and the
        # count of kept bytes stays exact
        cases = [(n, g, t) for n in (4, 6) for g in (0.3, 0.9) for t in ((0.8, 0.4), (0.8, 0.0))]
        cold, sizes = {}, []
        for n, g, t in cases:
            davies._STRUCTURES.clear()
            cold[n, g, t] = generator_bytes(gradient_chain(n, g, *t))
            sizes.append(davies._STRUCTURES.nbytes)
        davies._STRUCTURES.clear()
        monkeypatch.setattr(davies._STRUCTURES, "limit", 3 * max(sizes) // 2)
        errors, results = [], []

        def work(seed):
            try:
                for case in np.random.default_rng(seed).permutation(len(cases) * 20) % len(cases):
                    n, g, t = cases[case]
                    results.append(generator_bytes(gradient_chain(n, g, *t)) == cold[n, g, t])
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 4 * 20 * len(cases) and all(results)
        cache = davies._STRUCTURES
        assert cache.nbytes == sum(kept_array_bytes(s) for s in cache.kept.values()) <= cache.limit

    def test_a_structure_above_the_bound_is_not_kept(self, monkeypatch):
        liouvillian(gradient_chain(3, 0.5, 0.8, 0.4))
        monkeypatch.setattr(davies._STRUCTURES, "limit", davies._STRUCTURES.nbytes + 1000)
        liouvillian(gradient_chain(20, 0.5, 0.8, 0.4))
        assert len(davies._STRUCTURES.kept) == 1


def error_text(solve, *args) -> str | None:
    """``type: message`` of the error a call raises, or None if it returns."""
    try:
        solve(*args)
    except Exception as exc:  # noqa: BLE001 - every error is compared as text
        return f"{type(exc).__name__}: {exc}"
    return None


class TestWithTemperatures:
    """A system at new temperatures shares its parent's checked Hamiltonian,
    couplings and eigenbasis structure, and gives the bytes of a system built
    afresh at those temperatures."""

    @pytest.mark.parametrize(
        "make, temperatures",
        [
            *((lambda t, n=n, g=g: chain_system(ChainSpec(n, 1.0, g, 0.01, LinearProfile(*t))), pair)
              for n, g, pair in ((3, 0.1, (0.3, 0.1)), (10, 0.1, (0.5, 0.1)), (10, 1.3, (0.3, 0.3)),
                                 (12, 1.3, (0.8, 0.0)))),
            *((lambda t, c=c: three_level_system(ThreeLevelParams(c, 1.0, 1.3, 1.0, 1.0, *t)), (0.7, 2.1))
              for c in ("lambda", "vee")),
        ],
        ids=["chain-3", "chain-10", "chain-10-uniform", "chain-12-cold-end", "lambda", "vee"],
    )
    def test_bytes_of_a_fresh_system(self, make, temperatures):
        parent = make((0.8, 0.4))
        parent_bytes = generator_bytes(parent)
        fresh = make(temperatures)
        derived = parent.with_temperatures([bath.temperature for bath in fresh.baths])
        assert derived.hamiltonian is parent.hamiltonian
        assert all(d.coupling is p.coupling for d, p in zip(derived.baths, parent.baths))
        assert [bath.temperature for bath in derived.baths] == [bath.temperature for bath in fresh.baths]
        davies._STRUCTURES.clear()
        assert generator_bytes(derived) == generator_bytes(fresh)
        # the parent keeps its own temperatures and model
        assert generator_bytes(parent) == parent_bytes

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf, -math.inf])
    def test_a_bad_temperature_raises_the_bath_error(self, bad):
        parent = three_level_system(lambda_params(2.0, 1.0))
        bath = parent.baths[1]
        expected = error_text(BathSpec, bath.coupling, bath.spectral, bad)
        assert expected is not None and expected.startswith("InvariantViolationError: ")
        assert error_text(parent.with_temperatures, (0.5, bad)) == expected

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_a_wrong_count_raises(self, count):
        parent = three_level_system(lambda_params(2.0, 1.0))
        with pytest.raises(InvariantViolationError, match=f"^{count} temperatures for 2 baths$"):
            parent.with_temperatures([0.5] * count)

    def test_a_derived_system_never_decomposes_the_hamiltonian(self, monkeypatch):
        parent = gradient_chain(10, 1.3, 0.8, 0.4)
        liouvillian(parent)
        # the structure is shared by reference, not found again in the cache
        davies._STRUCTURES.clear()
        calls = []
        original = davies.eigh
        monkeypatch.setattr(davies, "eigh", lambda m: calls.append(m) or original(m))
        for pair in ((0.3, 0.1), (0.5, 0.5), (0.0, 0.4)):
            system = parent.with_temperatures(np.linspace(*pair, 10))
            heat_currents(system, steady_state(liouvillian(system)))
        # a structure at another tolerance is built once and shared from then on
        liouvillian(system, 1e-9)
        liouvillian(parent.with_temperatures(np.linspace(0.8, 0.4, 10)), 1e-9)
        liouvillian(parent, 1e-9)
        assert len(calls) == 1

    def test_a_structure_that_fails_is_not_shared(self):
        parent = gradient_chain(3, 0.1, 0.8, 0.4)
        derived = parent.with_temperatures((0.5, 0.4, 0.3))
        for system in (parent, derived, parent):
            with pytest.raises(AmbiguousGroupingError):
                liouvillian(system, 0.5)
        assert parent._structures == {}


def chain_profiles(n_sites: int) -> np.ndarray:
    """Rows of site temperatures that mix warm gradients, one end at T = 0,
    both ends at 0 and a uniform profile."""
    pairs = ((0.8, 0.4), (0.0, 0.5), (0.3, 0.1), (0.8, 0.0), (0.0, 0.0), (0.6, 0.6), (0.5, 0.1))
    return np.array([np.linspace(*pair, n_sites) for pair in pairs])


class TestBatchedBuilder:
    """The builder of many points' generators of one system gives each
    point's generator as a system at the point's temperatures alone does,
    bit for bit: blocks and indices, whatever plans and patterns of K the
    points need."""

    def check(self, system: OpenSystem, temperatures: np.ndarray) -> None:
        davies._STRUCTURES.clear()
        bound = davies._generator_bytes_bound(system)
        batch = davies._liouvillians(system, np.asarray(temperatures, dtype=float), DEFAULT_FREQ_TOL)
        assert len(batch) == len(temperatures)
        for row, liouv in zip(temperatures, batch):
            alone = liouvillian(system.with_temperatures(list(row)))
            assert liouv.dim == alone.dim and liouv.basis is alone.basis
            assert len(liouv.blocks) == len(alone.blocks) and len(liouv.indices) == len(alone.indices)
            for mine, theirs in zip(liouv.blocks + liouv.indices, alone.blocks + alone.indices):
                assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
            assert sum(a.nbytes for a in liouv.blocks + liouv.indices) <= bound

    @pytest.mark.parametrize("n_sites", [4, 10, 12])
    @pytest.mark.parametrize("tunneling", [0.0, 0.1, 1.3])
    def test_chains(self, n_sites, tunneling):
        self.check(gradient_chain(n_sites, tunneling, 0.8, 0.4), chain_profiles(n_sites))

    @pytest.mark.parametrize("kind", ["lambda", "vee"])
    def test_three_level_systems_with_a_bath_at_zero(self, kind):
        system = three_level_system(ThreeLevelParams(kind, 1.0, 1.3, 1.0, 1.0, 0.7, 2.1))
        self.check(system, [(0.0, 0.7), (0.7, 2.1), (2.1, 0.0), (0.0, 2.1), (0.7, 0.0)])

    def test_one_plan_two_patterns_of_k(self):
        # M[1, 2] vanishes at equal temperatures
        self.check(crossed_system(0.5, 0.5), [(0.5, 0.3), (0.5, 0.5), (0.2, 0.2), (0.5, 0.3)])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 8), n_baths=st.integers(1, 3),
           degenerate=st.booleans(), points=st.integers(1, 4))
    def test_random_systems(self, seed, dim, n_baths, degenerate, points):
        system = (degenerate_open_system if degenerate else random_open_system)(seed, dim, n_baths)
        rng = np.random.default_rng(seed)
        temperatures = rng.uniform(0.0, 2.0, size=(points, n_baths))
        temperatures[rng.random(temperatures.shape) < 0.3] = 0.0
        self.check(system, temperatures)

    def test_a_flat_density_with_a_zero_frequency_component_raises(self):
        system = random_open_system(3, 4)
        flat = OpenSystem(system.hamiltonian, tuple(
            BathSpec(b.coupling, FlatDensity(1.0), b.temperature) for b in system.baths))
        with pytest.raises(UnsupportedModelError, match="bath 0: zero-frequency"):
            davies._liouvillians(flat, np.array([[0.5, 0.5], [0.0, 1.0]]), DEFAULT_FREQ_TOL)


class TestBatchedSolve:
    """The solve of a sequence of generators gives each generator's state or
    error as a solve of that generator alone does, bit for bit."""

    def check(self, liouvs):
        batched = davies._steady_states(liouvs)
        assert len(batched) == len(liouvs)
        for liouv, result in zip(liouvs, batched):
            expected = error_text(steady_state, liouv)
            if expected is None:
                assert np.array_equal(result, steady_state(liouv))
            else:
                assert f"{type(result).__name__}: {result}" == expected

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=6),
           dims=st.lists(st.integers(2, 6), min_size=6, max_size=6),
           degenerate=st.booleans())
    def test_random_systems(self, seeds, dims, degenerate):
        make = degenerate_open_system if degenerate else random_open_system
        self.check([liouvillian(make(seed, dim)) for seed, dim in zip(seeds, dims)])

    def test_chains_with_failures_among_them(self):
        # T = 0 everywhere leaves a null space of dimension 100 at N = 10; the
        # dense generators of invertible and zero matrices fail in the solve
        liouvs = [
            liouvillian(gradient_chain(10, 0.1, 0.8, 0.4)),
            liouvillian(gradient_chain(10, 0.1, 0.0, 0.0)),
            dense_liouvillian(np.eye(4)),
            liouvillian(gradient_chain(10, 1.3, 0.3, 0.1)),
            dense_liouvillian(np.zeros((4, 4))),
            liouvillian(gradient_chain(4, 0.5, 0.6, 0.6)),
            liouvillian(three_level_system(lambda_params(2.0, 1.0))),
        ]
        self.check(liouvs)
        results = davies._steady_states(liouvs)
        assert [type(r).__name__ for r in results] == [
            "ndarray", "NonUniqueSteadyStateError", "SolverFailureError", "ndarray",
            "SolverFailureError", "ndarray", "ndarray"]

    def test_an_svd_that_does_not_converge_fails_its_own_generator(self):
        good = liouvillian(gradient_chain(4, 0.5, 0.8, 0.4))
        broken = dense_liouvillian(np.full((4, 4), np.nan))
        results = davies._steady_states([good, broken, good])
        assert np.array_equal(results[0], steady_state(good)) and np.array_equal(results[2], results[0])
        assert isinstance(results[1], np.linalg.LinAlgError)
        assert f"{type(results[1]).__name__}: {results[1]}" == error_text(steady_state, broken)

    @pytest.mark.parametrize("where", ["coherence", "population-rate", "population-diagonal"])
    def test_a_non_finite_entry_fails_its_own_generator(self, where):
        good = liouvillian(gradient_chain(5, 0.5, 0.8, 0.4))
        blocks = [stack.copy() for stack in good.blocks]
        # the 1 x 1 blocks come first, the 10 x 10 block of populations last
        blocks[{"coherence": 0, "population-rate": -1, "population-diagonal": -1}[where]][
            {"coherence": (2, 0, 0), "population-rate": (0, 1, 2), "population-diagonal": (0, 3, 3)}[where]] = np.nan
        broken = Liouvillian(good.dim, good.basis, good.indices, tuple(blocks))
        results = davies._steady_states([good, broken, good])
        assert np.array_equal(results[0], steady_state(good)) and np.array_equal(results[2], results[0])
        expected = ("SolverFailureError: no singular value below 1e-10 of the largest; smallest ratio nan"
                    if where == "coherence" else "LinAlgError: SVD did not converge")
        assert f"{type(results[1]).__name__}: {results[1]}" == error_text(steady_state, broken) == expected

    def test_one_eigvalsh_checks_every_state(self, monkeypatch):
        liouvs = [liouvillian(gradient_chain(5, g, 0.8, 0.4)) for g in (0.1, 0.5, 1.3)]
        calls = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or original(a))
        davies._steady_states(liouvs)
        assert calls == [(3, 10, 10)]


class TestEdgeCases:
    """Inputs at the edge of what the model accepts give a correct state or a
    typed error, never a silently wrong number."""

    @staticmethod
    def quarter_spacing(system: OpenSystem) -> float:
        spacings = np.diff(eigh(system.hamiltonian).energies)
        return float(spacings[spacings > DEFAULT_FREQ_TOL].min()) / 4.0

    def test_grouping_tolerance_just_below_a_quarter_spacing(self):
        # N = 3, g = 0.1: the distinct frequencies lie 0.14 apart, so a
        # tolerance just below 0.14 / 4 groups them as the default one does
        system = gradient_chain(3, 0.1, 0.8, 0.4)
        tolerance = self.quarter_spacing(system) * (1.0 - 1e-9)
        rho = steady_state(liouvillian(system, tolerance))
        assert np.max(np.abs(rho - steady_state(liouvillian(system)))) <= 1e-12
        expected = heat_currents(system, rho)
        assert np.max(np.abs(heat_currents(system, rho, tolerance) - expected)) <= 1e-15
        TestDenseReference.check(system)

    def test_grouping_tolerance_just_above_a_quarter_spacing(self):
        system = gradient_chain(3, 0.1, 0.8, 0.4)
        tolerance = self.quarter_spacing(system) * (1.0 + 1e-9)
        with pytest.raises(AmbiguousGroupingError, match="quarter of the minimum"):
            liouvillian(system, tolerance)
        with pytest.raises(AmbiguousGroupingError, match="quarter of the minimum"):
            heat_currents(system, np.eye(6, dtype=complex) / 6.0, tolerance)

    @pytest.mark.parametrize("freq_tol", [0.1, 0.15 * (1.0 - 1e-6)])
    def test_distinct_frequencies_within_the_tolerance(self, freq_tol):
        # N = 2, g = 0.3: the levels 0, 0, 0.7, 1.3 have the smallest spacing
        # 0.6, so these tolerances pass the quarter-spacing check, yet they
        # put the distinct frequencies 0.6 and 0.7 in one group of spread 0.1
        system = gradient_chain(2, 0.3, 0.8, 0.4)
        with pytest.raises(AmbiguousGroupingError, match="quarter of the grouping tolerance"):
            liouvillian(system, freq_tol)
        with pytest.raises(AmbiguousGroupingError, match="quarter of the grouping tolerance"):
            heat_currents(system, np.eye(4, dtype=complex) / 4.0, freq_tol)

    @pytest.mark.parametrize("freq_tol", [0.05, DEFAULT_FREQ_TOL])
    def test_distinct_frequencies_beyond_the_tolerance(self, freq_tol):
        spec = ChainSpec(2, 1.0, 0.3, 0.02, LinearProfile(0.8, 0.4))
        system = chain_system(spec)
        rho = steady_state(liouvillian(system, freq_tol))
        expected_rho, expected_currents = analytic_chain(2, 1.0, 0.3, 0.02, spec.site_temperatures())
        assert np.max(np.abs(rho - expected_rho)) <= 1e-12
        assert np.max(np.abs(heat_currents(system, rho, freq_tol) - expected_currents)) <= 1e-12

    @pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 5e-8])
    def test_two_sites_just_below_the_level_crossing(self, gap):
        # g = h - gap puts the lower mode at gap above the ground levels; its
        # rates grow as T / gap, and the state stays within 1e-10 of the
        # analytic one (5e-11 at gap 5e-8)
        spec = ChainSpec(2, 1.0, 1.0 - gap, 0.02, LinearProfile(0.8, 0.4))
        system = chain_system(spec)
        rho = steady_state(liouvillian(system))
        expected_rho, expected_currents = analytic_chain(2, 1.0, 1.0 - gap, 0.02, spec.site_temperatures())
        assert np.max(np.abs(rho - expected_rho)) <= 1e-10
        assert np.max(np.abs(heat_currents(system, rho) - expected_currents)) <= 1e-11

    @pytest.mark.parametrize(
        "gap, error",
        [(3e-8, AmbiguousGroupingError), (1e-8, AmbiguousGroupingError), (5e-9, AmbiguousGroupingError),
         (1e-9, UnsupportedModelError), (1e-12, UnsupportedModelError), (0.0, UnsupportedModelError)],
    )
    def test_two_sites_at_the_level_crossing(self, gap, error):
        # a gap under four times the tolerance cannot be grouped, and neither
        # can a zero group of spread 2 gap above a quarter of the tolerance;
        # under that the lower mode joins the ground levels, and the flat
        # density's zero-frequency rate diverges
        system = chain_system(ChainSpec(2, 1.0, 1.0 - gap, 0.02, LinearProfile(0.8, 0.4)))
        with pytest.raises(error):
            liouvillian(system)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_spectra_and_baths_rejected(self, value):
        with pytest.raises(InvariantViolationError, match="finite"):
            FlatDensity(value)
        with pytest.raises(InvariantViolationError, match="finite"):
            OhmicDensity(value)
        with pytest.raises(InvariantViolationError, match="finite"):
            BathSpec(np.eye(2), FlatDensity(1.0), value)
