"""Generator construction, thermal rates, time evolution, steady states, currents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qthermo.davies import (
    BathSpec,
    FlatDensity,
    Liouvillian,
    OhmicDensity,
    OpenSystem,
    _propagator_pays,
    bohr_frequencies,
    bose_occupation,
    evolve,
    gibbs_state,
    heat_currents,
    jump_operators,
    liouvillian,
    steady_state,
)
from qthermo.errors import (
    AccuracyError,
    AmbiguousGroupingError,
    InvariantViolationError,
    NonUniqueSteadyStateError,
    UnsupportedModelError,
)
from qthermo.chain import DEFAULT_TUNNELING_SWEEP, ChainSpec, LinearProfile, chain_system
from qthermo.linalg import devectorize, eigh, hermitize, trace_distance, vectorize
from qthermo.three_level import ThreeLevelParams, lambda_system


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


def reference_generator(system: OpenSystem) -> np.ndarray:
    """Dense column-stacking generator summed term by term from np.kron:
    the commutator plus rate * (A* kron A - (1 kron A^dagger A + (A^dagger A)^T
    kron 1) / 2) for every jump component above the zero-component threshold."""
    h = system.hamiltonian
    identity = np.eye(system.dim, dtype=complex)
    matrix = -1j * (np.kron(identity, h) - np.kron(h.T, identity))
    for bath_terms in jump_operators(system).terms:
        for term in bath_terms:
            a = term.operator
            if term.rate == 0.0 or np.max(np.abs(a)) <= 1e-10:
                continue
            norm_op = a.conj().T @ a
            matrix = matrix + term.rate * (
                np.kron(a.conj(), a) - 0.5 * (np.kron(identity, norm_op) + np.kron(norm_op.T, identity))
            )
    return matrix


def gradient_chain(n_sites: int, tunneling: float, t_left: float, t_right: float) -> OpenSystem:
    return chain_system(ChainSpec(n_sites, 1.0, tunneling, 0.02, LinearProfile(t_left, t_right)))


def entropy_production(system: OpenSystem, currents: np.ndarray) -> float:
    """sum_k J_k / T_k: the entropy the baths gain per unit time."""
    return float(sum(j / bath.temperature for j, bath in zip(currents, system.baths)))


chain_cases = dict(
    n_sites=st.integers(3, 6),
    tunneling=st.sampled_from(DEFAULT_TUNNELING_SWEEP),
    t_left=st.floats(0.3, 1.2),
    t_right=st.floats(0.3, 1.2),
)


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert bose_occupation(1.0, 0.0) == 0.0

    def test_unit_occupation(self):
        assert bose_occupation(1.0, 1.0 / math.log(2.0)) == pytest.approx(1.0, abs=1e-14)

    def test_frozen_high_precision_value(self):
        # independent oracle: 40-digit evaluation of 1/(e^{2.5} - 1)
        assert bose_occupation(1.0, 0.4) == pytest.approx(0.08942548983385201, abs=1e-16)

    @pytest.mark.parametrize("omega", [0.0, -1.0])
    def test_domain_error(self, omega):
        with pytest.raises(ValueError):
            bose_occupation(omega, 1.0)


class TestBohrFrequencies:
    def test_degenerate_three_level(self):
        freqs = bohr_frequencies(eigh(np.diag([0.0, 0.0, 1.0])))
        assert np.allclose(freqs, [-1.0, 0.0, 1.0])

    def test_distinct_three_level_excludes_zero(self):
        freqs = bohr_frequencies(eigh(np.diag([0.0, 0.4, 1.0])))
        assert np.allclose(freqs, [-1.0, -0.6, -0.4, 0.4, 0.6, 1.0])

    def test_chain_band_closed_form(self):
        # open-chain eigenvalues: excited band h + 2 g cos(m pi / (N+1)) over a
        # degenerate ground manifold
        n_sites, h, g = 10, 1.0, 0.1
        dim = 2 * n_sites
        ham = np.zeros((dim, dim))
        for i in range(n_sites):
            ham[2 * i + 1, 2 * i + 1] = h
        for i in range(n_sites - 1):
            ham[2 * i + 1, 2 * i + 3] = g
            ham[2 * i + 3, 2 * i + 1] = g
        band = h + 2 * g * np.cos(np.arange(1, n_sites + 1) * np.pi / (n_sites + 1))
        expected = set()
        expected.add(0.0)  # ground manifold is degenerate
        for e in band:
            expected.update((e, -e))
        for a in band:
            for b in band:
                if abs(a - b) > 1e-12:
                    expected.add(a - b)
        freqs = bohr_frequencies(eigh(ham))
        for value in expected:
            assert np.min(np.abs(freqs - value)) < 1e-9

    def test_grouping_tolerance_too_large(self):
        with pytest.raises(AmbiguousGroupingError):
            bohr_frequencies(eigh(np.diag([0.0, 3e-8, 1.0])), freq_tol=1e-8)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            bohr_frequencies(eigh(np.diag([0.0, 1.0])), freq_tol=0.0)


class TestJumpOperators:
    def test_lambda_structure_and_rates(self):
        # per bath exactly one lowering component |k><e| at +omega with rate
        # Gamma (n_k + 1) and its adjoint at -omega with rate Gamma n_k
        gamma = 0.7
        params = lambda_params(2.0, 1.0, gamma=gamma)
        jumps = jump_operators(lambda_system(params))
        for k, n_k in ((0, 2.0), (1, 1.0)):
            active = [t for t in jumps.terms[k] if np.max(np.abs(t.operator)) > 1e-12]
            assert sorted(t.frequency for t in active) == pytest.approx([-1.0, 1.0])
            by_freq = {round(t.frequency): t for t in active}
            lower = np.zeros((3, 3))
            lower[k, 2] = 1.0
            assert np.allclose(by_freq[1].operator, lower, atol=1e-12)
            assert np.allclose(by_freq[-1].operator, lower.T, atol=1e-12)
            assert by_freq[1].rate == pytest.approx(gamma * (n_k + 1.0))
            assert by_freq[-1].rate == pytest.approx(gamma * n_k)

    def test_zero_temperature_kills_upward_rates(self):
        params = ThreeLevelParams("lambda", temp_1=0.0, temp_2=0.0)
        jumps = jump_operators(lambda_system(params))
        for bath_terms in jumps.terms:
            for term in bath_terms:
                if term.frequency < 0:
                    assert term.rate == 0.0

    def test_chain_zero_frequency_component_vanishes(self):
        from qthermo.chain import ChainSpec, LinearProfile, chain_system

        spec = ChainSpec(10, 1.0, 0.1, 0.01, LinearProfile(0.8, 0.4))
        jumps = jump_operators(chain_system(spec))
        for bath_terms in jumps.terms:
            zero = [t for t in bath_terms if t.frequency == 0.0]
            assert len(zero) == 1
            assert np.max(np.abs(zero[0].operator)) <= 1e-10
            assert zero[0].rate == 0.0

    def test_flat_density_with_zero_frequency_component_fails(self):
        h = np.diag([0.0, 1.0])
        dephasing = np.diag([1.0, -1.0])
        system = OpenSystem(h, (BathSpec(dephasing, FlatDensity(0.5), 1.0),))
        with pytest.raises(UnsupportedModelError, match="zero-frequency"):
            jump_operators(system)

    def test_ohmic_zero_frequency_rate(self):
        h = np.diag([0.0, 1.0])
        dephasing = np.diag([1.0, -1.0])
        slope, temp = 0.5, 2.0
        system = OpenSystem(h, (BathSpec(dephasing, OhmicDensity(slope), temp),))
        jumps = jump_operators(system)
        zero = [t for t in jumps.terms[0] if t.frequency == 0.0]
        assert zero[0].rate == pytest.approx(slope * temp)

    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(2, 12), seed=st.integers(0, 2**31 - 1))
    def test_completeness_and_adjoint_symmetry(self, dim, seed):
        system = random_open_system(seed, dim)
        jumps = jump_operators(system)
        for bath, bath_terms in zip(system.baths, jumps.terms):
            total = sum(t.operator for t in bath_terms)
            assert np.max(np.abs(total - bath.coupling)) < 1e-10
            for term in bath_terms:
                partner = min(bath_terms, key=lambda t: abs(t.frequency + term.frequency))
                assert abs(partner.frequency + term.frequency) < 1e-9
                assert np.max(np.abs(partner.operator - term.operator.conj().T)) < 1e-10
                assert term.rate >= 0.0


class TestLiouvillian:
    def test_zero_coupling_reduces_to_commutator(self):
        h = np.diag([0.0, 1.0])
        system = OpenSystem(h, (BathSpec(np.zeros((2, 2)), FlatDensity(1.0), 1.0),))
        liouv = liouvillian(system)
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.max(np.abs(liouv.apply(rho))) < 1e-14

    def test_lambda_action_matches_rate_equations(self):
        # inline oracle: dP_k = gamma (n_k + 1) P_e - gamma n_k P_k
        gamma = 0.8
        params = lambda_params(2.0, 1.0, gamma=gamma)
        liouv = liouvillian(lambda_system(params))
        pops = np.array([0.5, 0.3, 0.2])
        derivative = liouv.apply(np.diag(pops).astype(complex))
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
        thermal = gibbs_state(system.hamiltonian, 0.7)
        norm = np.linalg.norm(liouv.matrix, 2)
        assert np.linalg.norm(liouv.matrix @ vectorize(thermal)) <= 1e-9 * norm

    def test_default_step_scales_with_rates_and_spectrum(self):
        # dt = 0.01 / (largest rate + spectral norm): rates peak at
        # gamma (n_1 + 1) = 3 and the spectrum tops out at the gap
        liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
        assert liouv.default_dt == pytest.approx(0.01 / 4.0)

    def test_ohmic_bath_also_thermalizes(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        system = OpenSystem(np.diag([0.0, 1.0]), (BathSpec(flip, OhmicDensity(0.5), 0.7),))
        rho = steady_state(liouvillian(system))
        assert trace_distance(rho, gibbs_state(np.diag([0.0, 1.0]), 0.7)) < 1e-9

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**31 - 1))
    def test_trace_and_hermiticity_preservation(self, dim, seed):
        rng = np.random.default_rng(seed)
        system = random_open_system(seed, dim)
        liouv = liouvillian(system)
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        image = liouv.apply(m)
        assert abs(np.trace(image)) < 1e-10
        assert np.max(np.abs(liouv.apply(m.conj().T) - image.conj().T)) < 1e-10


class TestDenseReference:
    """The sector-block generator against the dense Kronecker-sum generator
    built above; evolve and apply read the same matrix."""

    @staticmethod
    def check(system: OpenSystem) -> None:
        reference = reference_generator(system)
        liouv = liouvillian(system)
        assert np.max(np.abs(liouv.matrix - reference)) <= 1e-12
        _, singulars, vh = np.linalg.svd(reference)
        null_dim = int(np.count_nonzero(singulars <= 1e-10 * singulars[0]))
        if null_dim > 1:
            with pytest.raises(NonUniqueSteadyStateError) as excinfo:
                steady_state(liouv)
            assert excinfo.value.dimension == null_dim
            return
        null_state = hermitize(devectorize(vh[-1].conj()))
        null_state /= np.trace(null_state).real
        assert np.max(np.abs(steady_state(liouv) - null_state)) <= 1e-12

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

    def test_blocks_cover_every_entry_once(self):
        liouv = liouvillian(gradient_chain(4, 1.3, 0.8, 0.4))
        covered = np.sort(np.concatenate(liouv.sectors))
        assert np.array_equal(covered, np.arange(liouv.dim**2))
        assert max(block.shape[0] for block in liouv.blocks) == 4 * 4 + 4  # zero sector


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

    def test_unstable_step_raises_accuracy_error(self):
        params = lambda_params(2.0, 1.0)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(AccuracyError):
            evolve(liouv, rho0, np.linspace(0.0, 400.0, 11), dt=1.0)

    def test_bad_grid_rejected(self):
        params = lambda_params(2.0, 1.0)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            evolve(liouv, rho0, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            evolve(liouv, rho0, np.array([-1.0, 1.0]))


def rk4_loop(liouv, rho0, times, dt=None):
    """Classic RK4 stepped one substep at a time on the lab-basis generator,
    each interval cut into ceil(span / dt) equal steps.  Returns the states up
    to the first grid time whose state has a non-finite entry, a trace drift
    above 1e-7 or an entry of magnitude above 1 + 1e-7, and the index of that
    time (None if every state passes)."""
    matrix = liouv.matrix
    step = liouv.default_dt if dt is None else dt
    vec = vectorize(rho0)
    states = [np.asarray(rho0, dtype=complex)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, len(times)):
            span = times[i] - times[i - 1]
            n_sub = max(1, math.ceil(span / step))
            h = span / n_sub
            for _ in range(n_sub):
                k1 = matrix @ vec
                k2 = matrix @ (vec + 0.5 * h * k1)
                k3 = matrix @ (vec + 0.5 * h * k2)
                k4 = matrix @ (vec + h * k3)
                vec = vec + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            state = devectorize(vec)
            if (
                not np.all(np.isfinite(state))
                or abs(np.trace(state) - 1.0) > 1e-7
                or np.max(np.abs(state)) > 1.0 + 1e-7
            ):
                return np.array(states), i
            states.append(state)
    return np.array(states), None


def four_site_chain():
    return liouvillian(chain_system(ChainSpec(4, 1.0, 0.5, 0.05, LinearProfile(0.8, 0.4))))


class TestEvolveAgainstStepLoop:
    """The propagator per interval length is the same integrator as stepping
    RK4 substep by substep; only the rounding order differs."""

    def assert_agrees(self, liouv, rho0, times, dt=None):
        expected, failed = rk4_loop(liouv, rho0, times, dt)
        assert failed is None
        trajectory = evolve(liouv, rho0, times, dt=dt, validate=False)
        assert trajectory.shape == expected.shape
        assert np.max(np.abs(trajectory - expected)) <= 1e-12

    def test_lambda_oscillator_grid(self):
        liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        self.assert_agrees(liouv, rho0, np.arange(0.0, 4.0 + 5e-4, 1e-3))

    def test_four_site_chain(self):
        self.assert_agrees(four_site_chain(), np.eye(8, dtype=complex) / 8.0, np.linspace(0.0, 30.0, 31))

    def test_geometric_grid(self):
        # every interval has its own length, used once, so every interval is
        # stepped on the vector
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

    @pytest.mark.parametrize(
        "case",
        [
            ("lambda", np.linspace(0.0, 400.0, 11), 1.0),
            # R(hL) has spectral radius 48.8 but preserves the trace to
            # rounding, so only the entry bound sees the blow-up early
            ("lambda", np.linspace(0.0, 40.0, 41), 1.0),
            ("lambda", np.array([0.0, 0.1, 0.2, 0.3, 40.0, 41.0]), 1.0),
            ("chain", np.linspace(0.0, 300.0, 31), 10.0),
        ],
    )
    def test_unstable_step_names_the_same_time(self, case):
        name, times, dt = case
        if name == "lambda":
            liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
            rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        else:
            liouv = four_site_chain()
            rho0 = np.full((8, 8), 1.0 / 8.0, dtype=complex)
        _, failed = rk4_loop(liouv, rho0, times, dt)
        assert failed is not None
        with pytest.raises(AccuracyError, match=f"at t = {times[failed]:g};"):
            evolve(liouv, rho0, times, dt=dt, validate=False)

    def test_propagator_only_where_it_pays(self):
        # the 4-site chain (64 x 64) over linspace(0, 30, 31): 30 uses of 205 steps
        assert _propagator_pays(205, 30, 64)
        # a length used once on the 12-site chain (576 x 576) is stepped
        assert not _propagator_pays(50, 1, 576)
        # single steps on the lambda system (9 x 9): 4 * 9 + 12 <= 4 * 12
        assert _propagator_pays(1, 12, 9) and not _propagator_pays(1, 11, 9)

    def test_unstable_step_caught_before_its_trace_drifts(self):
        # the step-by-step loop keeps the trace to rounding until t = 6, with
        # populations near 1e9 by then; the entry bound stops it at t = 1
        liouv = liouvillian(lambda_system(lambda_params(2.0, 1.0)))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(AccuracyError, match=r"entry of magnitude .* above 1 at t = 1;"):
            evolve(liouv, rho0, np.linspace(0.0, 40.0, 41), dt=1.0, validate=False)

    def test_validate_names_the_first_bad_state(self):
        # a trace-preserving but not positive generator: populations move at
        # a constant rate, p(t) = (1 - t, t), so p_0 < 0 after t = 1
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 0] = matrix[0, 3] = -1.0
        matrix[3, 0] = matrix[3, 3] = 1.0
        liouv = Liouvillian(matrix, dim=2, default_dt=0.01)
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
        liouv = Liouvillian(matrix, dim=2, default_dt=0.01)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        times = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InvariantViolationError, match=r"state at t = 0.2 is not Hermitian"):
            evolve(liouv, rho0, times)


class TestSteadyState:
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
        assert trace_distance(rho, gibbs_state(system.hamiltonian, 0.6)) <= 1e-6

    def test_degenerate_generator_reports_dimension(self):
        system = OpenSystem(np.diag([0.0, 1.0]), (BathSpec(np.zeros((2, 2)), FlatDensity(1.0), 1.0),))
        with pytest.raises(NonUniqueSteadyStateError) as excinfo:
            steady_state(liouvillian(system))
        assert excinfo.value.dimension == 2

    def test_empty_null_space_is_a_solver_failure(self):
        from qthermo.davies import Liouvillian
        from qthermo.errors import SolverFailureError

        invertible = Liouvillian(matrix=np.eye(4, dtype=complex), dim=2, default_dt=0.1)
        with pytest.raises(SolverFailureError):
            steady_state(invertible)

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


class TestHeatCurrents:
    def test_equilibrium_currents_vanish(self):
        from qthermo.chain import ChainSpec, LinearProfile, chain_system

        spec = ChainSpec(3, 1.0, 0.4, 0.05, LinearProfile(0.7, 0.7))
        system = chain_system(spec)
        currents = heat_currents(system, gibbs_state(system.hamiltonian, 0.7))
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
        # operators, at a state with coherences between all levels
        system = degenerate_open_system(seed, dim, n_baths)
        rho = random_state(seed + 1, dim)
        expected = []
        for bath_terms in jump_operators(system).terms:
            action = np.zeros((dim, dim), dtype=complex)
            for term in bath_terms:
                a = term.operator
                norm_op = a.conj().T @ a
                action += term.rate * (a @ rho @ a.conj().T - 0.5 * (norm_op @ rho + rho @ norm_op))
            expected.append(-np.trace(action @ system.hamiltonian).real)
        assert np.max(np.abs(heat_currents(system, rho) - np.array(expected))) <= 1e-10

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


class TestGibbsState:
    def test_high_temperature_is_maximally_mixed(self):
        rho = gibbs_state(np.diag([0.0, 1.0]), 1e12)
        assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-10)

    def test_two_level_boltzmann_weights(self):
        h = 0.8
        rho = gibbs_state(np.diag([0.0, h]), h)
        z = 1.0 + math.exp(-1.0)
        assert rho[0, 0].real == pytest.approx(1.0 / z)
        assert rho[1, 1].real == pytest.approx(math.exp(-1.0) / z)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ValueError):
            gibbs_state(np.diag([0.0, 1.0]), 0.0)
