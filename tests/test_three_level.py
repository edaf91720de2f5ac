"""Closed forms of the three-level models against rate-matrix and full-generator oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import three_level
from qthermo.davies import evolve, liouvillian, steady_state
from qthermo.errors import DegenerateInputError, InvariantViolationError
from qthermo.three_level import (
    LevelPopulations,
    ThreeLevelParams,
    dufour_currents,
    finite_capacity_heating,
    high_temperature_force,
    lambda_system,
    mean_position_trajectory,
    occupations,
    overdamped_ratio,
    populations_from_state,
    rate_matrix,
    thermo_diagnostics,
    vee_system,
)

occupation_values = st.floats(0.05, 5.0, allow_nan=False, allow_infinity=False)


def occ_params(config: str, n_1: float, n_2: float, gamma: float = 1.0, d: float = 1.0):
    return ThreeLevelParams.from_occupations(config, n_1, n_2, gamma=gamma, d=d)


def stationary_populations_oracle(matrix: np.ndarray) -> np.ndarray:
    """Null space of a 3x3 rate matrix, normalized on the simplex."""
    constrained = np.vstack([matrix[:2], np.ones(3)])
    return np.linalg.solve(constrained, np.array([0.0, 0.0, 1.0]))


def coupling_between(i: int, j: int) -> np.ndarray:
    c = np.zeros((3, 3))
    c[i, j] = c[j, i] = 1.0
    return c


def assert_baths(system, pairs, rates, temperatures):
    for bath, pair, rate, temperature in zip(system.baths, pairs, rates, temperatures, strict=True):
        assert np.array_equal(bath.coupling, coupling_between(*pair))
        assert bath.spectral.rate == rate
        assert bath.temperature == temperature


class TestSystemBuilders:
    def test_lambda_hamiltonian_and_couplings(self):
        params = ThreeLevelParams(
            "lambda", omega_1=1.2, omega_2=0.9, gamma_1=0.4, gamma_2=1.7, temp_1=1.0, temp_2=0.5
        )
        system = lambda_system(params)
        assert np.allclose(system.hamiltonian, np.diag([0.0, 0.3, 1.2]))
        assert_baths(system, [(0, 2), (1, 2)], [0.4, 1.7], [1.0, 0.5])

    def test_degenerate_low_levels(self):
        params = occ_params("lambda", 2.0, 1.0)
        system = lambda_system(params)
        assert np.allclose(system.hamiltonian, np.diag([0.0, 0.0, 1.0]))

    def test_vee_hamiltonian_and_couplings(self):
        params = ThreeLevelParams(
            "vee", omega_1=1.0, omega_2=1.1, gamma_1=2.5, gamma_2=0.3, temp_1=0.7, temp_2=0.2
        )
        system = vee_system(params)
        assert np.allclose(system.hamiltonian, np.diag([0.0, 1.0, 1.1]))
        assert_baths(system, [(0, 1), (0, 2)], [2.5, 0.3], [0.7, 0.2])

    def test_configuration_mismatch_rejected(self):
        with pytest.raises(InvariantViolationError):
            lambda_system(ThreeLevelParams("vee"))
        with pytest.raises(InvariantViolationError):
            vee_system(ThreeLevelParams("lambda"))
        with pytest.raises(InvariantViolationError):
            ThreeLevelParams("ladder")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["omega_1", "omega_2", "gamma_1", "gamma_2", "temp_1", "temp_2", "d"])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(InvariantViolationError, match=f"{name} must be finite"):
            ThreeLevelParams("lambda", **{name: value})


class TestSteadyUnbalance:
    def test_equal_occupations_give_zero(self):
        assert thermo_diagnostics(occ_params("lambda", 1.3, 1.3)).unbalance == pytest.approx(0.0, abs=1e-15)

    def test_cold_trap_concentrates_fully(self):
        params = ThreeLevelParams("lambda", temp_1=0.9, temp_2=0.0)
        assert thermo_diagnostics(params).unbalance == pytest.approx(1.0, abs=1e-10)

    def test_against_rate_null_space_oracle(self):
        params = occ_params("lambda", 2.0, 1.0)
        oracle = stationary_populations_oracle(rate_matrix(params))
        assert thermo_diagnostics(params).unbalance == pytest.approx(oracle[1] - oracle[0], abs=1e-14)
        assert thermo_diagnostics(params).unbalance == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_both_baths_frozen_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            thermo_diagnostics(ThreeLevelParams("lambda", temp_1=0.0, temp_2=0.0))

    def test_unequal_rates_rejected(self):
        with pytest.raises(InvariantViolationError):
            thermo_diagnostics(ThreeLevelParams("lambda", gamma_1=1.0, gamma_2=2.0))

    @settings(max_examples=40, deadline=None)
    @given(n_1=occupation_values, n_2=occupation_values)
    def test_bounded_and_antitone_in_gradient(self, n_1, n_2):
        value = thermo_diagnostics(occ_params("lambda", n_1, n_2)).unbalance
        assert abs(value) <= 1.0
        delta_n = n_2 - n_1
        if abs(delta_n) > 1e-9:
            assert np.sign(value) == -np.sign(delta_n)


class TestForce:
    def test_zero_gradient_means_zero_force(self):
        assert thermo_diagnostics(occ_params("lambda", 2.0, 2.0)).force == pytest.approx(0.0, abs=1e-15)

    def test_reference_point(self):
        assert thermo_diagnostics(occ_params("lambda", 2.0, 1.0)).force == pytest.approx(0.0625, abs=1e-15)
        assert thermo_diagnostics(occ_params("vee", 2.0, 1.0)).force == pytest.approx(-0.0625, abs=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(n_1=occupation_values, n_2=occupation_values, gamma=st.floats(0.1, 3.0), d=st.floats(0.1, 3.0))
    def test_exact_antisymmetry(self, n_1, n_2, gamma, d):
        forward = thermo_diagnostics(occ_params("lambda", n_1, n_2, gamma=gamma, d=d)).force
        mirrored = thermo_diagnostics(occ_params("vee", n_1, n_2, gamma=gamma, d=d)).force
        assert forward == pytest.approx(-mirrored, abs=1e-12)


class TestOscillatorCoefficients:
    def test_zero_occupation_mass(self):
        coeff = thermo_diagnostics(ThreeLevelParams("vee", temp_1=0.0, temp_2=0.0))
        assert coeff.mass == pytest.approx(0.5)

    def test_reference_frequencies(self):
        assert thermo_diagnostics(occ_params("lambda", 2.0, 1.0)).omega_sq == pytest.approx(9.0)
        assert thermo_diagnostics(occ_params("vee", 2.0, 1.0)).omega_sq == pytest.approx(13.0)

    @pytest.mark.parametrize("config,expected", [("lambda", 9.0), ("vee", 13.0)])
    def test_frequency_against_rate_matrix_eigenvalues(self, config, expected):
        # the two decaying modes of the rate matrix multiply to the squared
        # frequency and add up to -damping/mass
        params = occ_params(config, 2.0, 1.0)
        eigenvalues = np.sort(np.linalg.eigvals(rate_matrix(params)).real)
        decaying = eigenvalues[np.abs(eigenvalues) > 1e-10]
        coeff = thermo_diagnostics(params)
        assert np.prod(decaying) == pytest.approx(coeff.omega_sq, rel=1e-12)
        assert np.sum(decaying) == pytest.approx(-params.gamma_1 / coeff.mass, rel=1e-12)

    def test_saturated_gradient_keeps_frequency_nonnegative(self):
        # delta_n = -2 n_mean (one bath frozen) leaves omega_sq = 2 Gamma^2 n_mean
        params = occ_params("lambda", 1.0, 0.0)
        coeff = thermo_diagnostics(params)
        assert coeff.omega_sq == pytest.approx(2.0 * 0.5, abs=1e-12)
        assert coeff.omega_sq >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        config=st.sampled_from(["lambda", "vee"]),
        n_1=occupation_values,
        n_2=occupation_values,
    )
    def test_squared_frequency_nonnegative(self, config, n_1, n_2):
        assert thermo_diagnostics(occ_params(config, n_1, n_2)).omega_sq >= 0.0


def two_branch_rate_matrix(params: ThreeLevelParams, spontaneous: bool) -> np.ndarray:
    """The rate matrix written out separately for each configuration."""
    n_1, n_2 = occupations(params)
    s = 1.0 if spontaneous else 0.0
    g1, g2 = params.gamma_1, params.gamma_2
    down_1, down_2 = g1 * (n_1 + s), g2 * (n_2 + s)
    up_1, up_2 = g1 * n_1, g2 * n_2
    if params.configuration == "lambda":
        return np.array(
            [[-up_1, 0.0, down_1], [0.0, -up_2, down_2], [up_1, up_2, -(down_1 + down_2)]]
        )
    return np.array(
        [[-down_1, 0.0, up_1], [0.0, -down_2, up_2], [down_1, down_2, -(up_1 + up_2)]]
    )


class TestRateEquations:
    @pytest.mark.parametrize("config", ["lambda", "vee"])
    @pytest.mark.parametrize("spontaneous", [True, False])
    @settings(max_examples=15, deadline=None)
    @given(
        t_1=st.floats(0.0, 5.0),
        t_2=st.floats(0.0, 5.0),
        gamma_1=st.floats(0.1, 3.0),
        gamma_2=st.floats(0.1, 3.0),
    )
    def test_bit_identical_to_the_two_branch_form(self, config, spontaneous, t_1, t_2, gamma_1, gamma_2):
        params = ThreeLevelParams(
            config, gamma_1=gamma_1, gamma_2=gamma_2, temp_1=t_1, temp_2=t_2
        )
        expected = two_branch_rate_matrix(params, spontaneous)
        assert rate_matrix(params, spontaneous).tobytes() == expected.tobytes()

    def test_stationary_input_has_zero_derivative(self):
        params = occ_params("lambda", 2.0, 1.0)
        stationary = stationary_populations_oracle(rate_matrix(params))
        pops = LevelPopulations(*stationary)
        d1, d2, _ = rate_matrix(params) @ [pops.p_1, pops.p_2, pops.p_shared]
        assert abs(d2 - d1) < 1e-14  # unbalance is stationary
        assert abs(d1) < 1e-14 and abs(d2) < 1e-14

    def test_symmetric_setup_keeps_symmetry(self):
        params = occ_params("lambda", 1.0, 1.0)
        d1, d2, _ = rate_matrix(params) @ [0.3, 0.3, 0.4]
        assert d1 == pytest.approx(d2, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(t_1=st.floats(0.05, 5.0), t_2=st.floats(0.05, 5.0))
    def test_no_spontaneous_emission_kills_unbalance(self, t_1, t_2):
        params = ThreeLevelParams("lambda", temp_1=t_1, temp_2=t_2)
        stationary = stationary_populations_oracle(rate_matrix(params, spontaneous=False))
        assert abs(stationary[1] - stationary[0]) < 1e-12

    def test_vee_rates_against_davies(self):
        # the vee stationary populations from the full generator match the
        # inline vee rate-matrix null space
        n_1, n_2 = 2.0, 1.0
        params = occ_params("vee", n_1, n_2)
        rho = steady_state(liouvillian(vee_system(params)))
        pops = populations_from_state(rho, params)
        generator = np.array(
            [
                [-(n_1 + 1.0), 0.0, n_1],
                [0.0, -(n_2 + 1.0), n_2],
                [n_1 + 1.0, n_2 + 1.0, -(n_1 + n_2)],
            ]
        )
        oracle = stationary_populations_oracle(generator)
        assert pops.p_1 == pytest.approx(oracle[0], abs=1e-10)
        assert pops.p_2 == pytest.approx(oracle[1], abs=1e-10)
        assert pops.unbalance == pytest.approx(-1.0 / 13.0, abs=1e-10)

    def test_vee_cold_baths_empty_the_excited_levels(self):
        params = ThreeLevelParams("vee", temp_1=0.0, temp_2=0.0)
        rho = steady_state(liouvillian(vee_system(params)))
        pops = populations_from_state(rho, params)
        assert pops.p_1 == pytest.approx(0.0, abs=1e-12)
        assert pops.p_2 == pytest.approx(0.0, abs=1e-12)
        assert thermo_diagnostics(params).force == 0.0


class TestLevelPopulations:
    def test_closing_completes_the_triple(self):
        pops = LevelPopulations.closing(0.2, 0.3)
        assert pops.p_shared == pytest.approx(0.5)
        assert pops.unbalance == pytest.approx(0.1)
        assert pops.mean == pytest.approx(0.25)

    def test_normalization_enforced(self):
        with pytest.raises(InvariantViolationError):
            LevelPopulations(0.5, 0.5, 0.5)
        with pytest.raises(InvariantViolationError):
            LevelPopulations(1.2, -0.1, -0.1)

    def test_reading_order_per_configuration(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        lam = populations_from_state(rho, occ_params("lambda", 1.0, 1.0))
        assert (lam.p_1, lam.p_2, lam.p_shared) == pytest.approx((0.5, 0.3, 0.2))
        vee = populations_from_state(rho, occ_params("vee", 1.0, 1.0))
        assert (vee.p_1, vee.p_2, vee.p_shared) == pytest.approx((0.3, 0.2, 0.5))


class TestMeanPositionTrajectory:
    def setup_method(self):
        self.params = occ_params("lambda", 2.0, 1.0)
        self.liouv = liouvillian(lambda_system(self.params))

    def _trajectory(self, dt: float, horizon: float = 4.0):
        grid = np.arange(0.0, horizon + dt / 2, dt)
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        return grid, evolve(self.liouv, rho0, grid, validate=False)

    def test_stationary_trajectory_has_zero_residual(self):
        stationary = steady_state(self.liouv)
        grid = np.linspace(0.0, 1.0, 11)
        check = mean_position_trajectory(self.params, [stationary] * grid.size, grid)
        assert np.max(np.abs(check.residual)) < 1e-12
        assert check.position[0] == pytest.approx(0.5 * (1.0 / 9.0), abs=1e-10)

    def test_residual_small_and_quadratic_in_step(self):
        grid, trajectory = self._trajectory(1e-3)
        check = mean_position_trajectory(self.params, trajectory, grid)
        assert check.rel_residual_max <= 1e-4
        grid_half, trajectory_half = self._trajectory(5e-4)
        check_half = mean_position_trajectory(self.params, trajectory_half, grid_half)
        assert check.rel_residual_max / check_half.rel_residual_max >= 3.5

    def test_balanced_baths_relax_to_the_midpoint(self):
        params = occ_params("lambda", 1.5, 1.5)
        liouv = liouvillian(lambda_system(params))
        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        final = evolve(liouv, rho0, np.array([0.0, 20.0]))[-1]
        assert 0.5 * params.d * populations_from_state(final, params).unbalance == pytest.approx(
            0.0, abs=1e-9
        )

    def test_coarse_grid_warns(self):
        grid, trajectory = self._trajectory(0.2, horizon=3.0)
        with pytest.warns(UserWarning, match="refine"):
            mean_position_trajectory(self.params, trajectory, grid)


def corrupt(state: np.ndarray, kind: str) -> np.ndarray:
    bad = state.copy()
    if kind == "negative":
        bad[0, 0] += 0.5
        bad[1, 1] -= 0.5
    elif kind == "asymmetric":
        bad[0, 1] += 1e-6
    elif kind == "non-finite":
        bad[2, 2] = np.nan
    elif kind == "trace":
        bad[2, 2] += 1e-3
    elif kind == "unnormalized":
        bad[2, 2] += 1e-11  # inside the density-matrix trace check, outside LevelPopulations
    return bad


class TestTrajectoryReaders:
    """Both readers check every state as populations_from_state does and
    name the grid time of the first state that fails."""

    @pytest.mark.parametrize("kind", ["negative", "asymmetric", "non-finite", "trace", "unnormalized"])
    @pytest.mark.parametrize("reader", [mean_position_trajectory, overdamped_ratio])
    def test_bad_state_mid_trajectory(self, reader, kind):
        params = occ_params("lambda", 2.0, 1.0)
        grid = np.linspace(0.0, 1.0, 201)
        trajectory = evolve(liouvillian(lambda_system(params)), np.diag([1.0, 0.0, 0.0]).astype(complex), grid)
        trajectory[120] = corrupt(trajectory[120], kind)
        trajectory[150] = corrupt(trajectory[150], "negative")
        with pytest.raises(InvariantViolationError) as single:
            populations_from_state(trajectory[120], params)
        with pytest.raises(InvariantViolationError) as batched:
            reader(params, trajectory, grid)
        assert type(batched.value) is type(single.value)
        assert str(batched.value) == f"state at t = 0.6: {single.value}"

    def test_positions_match_the_per_state_reading(self):
        for config in ("lambda", "vee"):
            params = occ_params(config, 2.0, 1.0)
            system = lambda_system(params) if config == "lambda" else vee_system(params)
            grid = np.linspace(0.0, 2.0, 2001)
            trajectory = evolve(liouvillian(system), np.full((3, 3), 1.0 / 3.0, dtype=complex), grid)
            check = mean_position_trajectory(params, trajectory, grid)
            expected = [0.5 * params.d * populations_from_state(rho, params).unbalance for rho in trajectory]
            assert check.position.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("grid", [[0.0, 0.1, 0.2], [0.0, 0.1, 0.2, 0.35]], ids=["short", "uneven"])
    @pytest.mark.parametrize("reader", [mean_position_trajectory, overdamped_ratio])
    def test_grid_must_be_uniform_with_four_points(self, reader, grid):
        params = occ_params("lambda", 2.0, 1.0)
        stationary = steady_state(liouvillian(lambda_system(params)))
        message = f"{reader.__name__} needs a uniform time grid of >= 4 points"
        with pytest.raises(ValueError, match=message):
            reader(params, [stationary] * len(grid), grid)

    def test_trajectory_and_grid_lengths_must_match(self):
        params = occ_params("lambda", 2.0, 1.0)
        grid = np.linspace(0.0, 1.0, 11)
        stationary = steady_state(liouvillian(lambda_system(params)))
        with pytest.raises(ValueError):
            mean_position_trajectory(params, [stationary] * 10, grid)


class TestOverdampedRatio:
    def test_high_occupation_regime(self):
        params = occ_params("lambda", 100.5, 99.5)
        liouv = liouvillian(lambda_system(params))
        grid = np.linspace(0.0, 0.1, 2001)
        trajectory = evolve(liouv, np.diag([1.0, 0.0, 0.0]).astype(complex), grid, validate=False)
        result = overdamped_ratio(params, trajectory, grid)
        assert result.applicable
        assert 0.9 <= result.ratio <= 1.1
        # eigen-oracle: the surviving slow mode fixes the ratio at
        # -lambda_slow / (Gamma n_mean)
        decaying = np.sort(np.linalg.eigvals(rate_matrix(params)).real)
        slow = decaying[np.abs(decaying) > 1e-10][-1]
        assert result.ratio == pytest.approx(-slow / result.n_mean, abs=1e-4)

    def test_low_occupation_regime_departs(self):
        params = occ_params("lambda", 0.2, 1e-9)
        liouv = liouvillian(lambda_system(params))
        grid = np.linspace(0.0, 120.0, 4001)
        trajectory = evolve(liouv, np.diag([1.0, 0.0, 0.0]).astype(complex), grid, validate=False)
        result = overdamped_ratio(params, trajectory, grid)
        assert result.applicable
        assert not 0.9 <= result.ratio <= 1.1
        decaying = np.sort(np.linalg.eigvals(rate_matrix(params)).real)
        slow = decaying[np.abs(decaying) > 1e-10][-1]
        assert result.ratio == pytest.approx(-slow / result.n_mean, abs=1e-3)

    def test_stationary_trajectory_not_applicable(self):
        params = occ_params("lambda", 2.0, 1.0)
        stationary = steady_state(liouvillian(lambda_system(params)))
        grid = np.linspace(0.0, 50.0, 101)
        result = overdamped_ratio(params, [stationary] * grid.size, grid)
        assert not result.applicable

    def test_transient_window_is_noisier_than_late_window(self):
        params = occ_params("lambda", 100.5, 99.5)
        liouv = liouvillian(lambda_system(params))
        grid = np.linspace(0.0, 0.1, 2001)
        trajectory = evolve(liouv, np.diag([1.0, 0.0, 0.0]).astype(complex), grid, validate=False)
        result = overdamped_ratio(params, trajectory, grid)
        # recompute the ratio over the full trajectory, transient included
        dt = grid[1] - grid[0]
        position = np.array(
            [0.5 * params.d * populations_from_state(r, params).unbalance for r in trajectory]
        )
        velocity = (position[2:] - position[:-2]) / (2 * dt)
        acceleration = (position[2:] - 2 * position[1:-1] + position[:-2]) / dt**2
        full = acceleration / (-1.0 * result.n_mean * velocity)
        assert float(np.max(full) - np.min(full)) > result.spread


class TestHighTemperatureForce:
    def test_frozen_reference_values(self):
        # independent 40-digit oracle for omega = Gamma = d = 1, T = (100, 99)
        params = ThreeLevelParams("lambda", temp_1=100.0, temp_2=99.0)
        result = high_temperature_force(params)
        assert result.high_t == pytest.approx(1.675041876046901e-3, rel=1e-12)
        assert result.exact_overdamped == pytest.approx(1.683473270488e-3, rel=1e-9)
        assert result.deviation == pytest.approx(5.008333e-3, rel=1e-4)
        assert result.deviation < 0.01

    def test_equal_temperatures_give_zero(self):
        result = high_temperature_force(ThreeLevelParams("lambda", temp_1=3.0, temp_2=3.0))
        assert result.high_t == 0.0
        assert result.exact_overdamped == 0.0

    def test_deviation_shrinks_with_scale(self):
        deviations = [
            high_temperature_force(
                ThreeLevelParams("lambda", temp_1=100.0 * s, temp_2=99.0 * s)
            ).deviation
            for s in (1.0, 10.0, 100.0)
        ]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_degenerate_and_mismatched_inputs(self):
        with pytest.raises(DegenerateInputError):
            high_temperature_force(ThreeLevelParams("lambda", temp_1=0.0, temp_2=0.0))
        with pytest.raises(InvariantViolationError):
            high_temperature_force(
                ThreeLevelParams("lambda", omega_1=1.0, omega_2=1.2, temp_1=10.0, temp_2=9.0)
            )


class TestDufour:
    def test_inversion_orders_the_currents(self):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        j_1, j_2, ordered = dufour_currents(pops, 1.0, 1.0, omega=1.0, gamma=1.0)
        assert j_1 == pytest.approx(0.8)
        assert j_2 == pytest.approx(0.7)
        assert ordered

    def test_symmetric_populations_balance(self):
        pops = LevelPopulations(0.25, 0.25, 0.5)
        j_1, j_2, ordered = dufour_currents(pops, 1.0, 1.0, omega=1.0, gamma=1.0)
        assert j_1 == pytest.approx(j_2)
        assert not ordered

    def test_thermal_populations_carry_no_current(self):
        # Boltzmann ratio P_e / P_k = n / (n + 1) zeroes both currents
        n = 1.0
        weight = n / (n + 1.0)
        total = 2.0 + weight
        pops = LevelPopulations(1.0 / total, 1.0 / total, weight / total)
        j_1, j_2, _ = dufour_currents(pops, n, n, omega=1.0, gamma=1.0)
        assert j_1 == pytest.approx(0.0, abs=1e-15)
        assert j_2 == pytest.approx(0.0, abs=1e-15)

    def test_non_finite_inputs_rejected(self):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        for bad in (math.nan, math.inf):
            for args in ((bad, 1.0, 1.0, 1.0), (1.0, bad, 1.0, 1.0), (1.0, 1.0, bad, 1.0), (1.0, 1.0, 1.0, bad)):
                with pytest.raises(InvariantViolationError, match="finite"):
                    dufour_currents(pops, *args)
            with pytest.raises(InvariantViolationError, match="finite"):
                finite_capacity_heating(pops, 1.0, 1.0, temp_start=1.0, capacity=bad, horizon=3.0)
            with pytest.raises(InvariantViolationError, match="finite"):
                finite_capacity_heating(pops, 1.0, 1.0, temp_start=bad, capacity=5.0, horizon=3.0)
        with pytest.raises(ValueError, match="horizon"):
            finite_capacity_heating(pops, 1.0, 1.0, temp_start=1.0, capacity=5.0, horizon=math.inf)

    def test_step_budget_is_checked_before_any_step(self, monkeypatch):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        steps = []
        monkeypatch.setattr(three_level, "MAX_DUFOUR_STEPS", 10)
        monkeypatch.setattr(three_level, "dufour_currents", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="^samples = 12 asks for 11 RK4 steps, above the limit 10$"):
            finite_capacity_heating(pops, 1.0, 1.0, temp_start=1.0, capacity=5.0, horizon=3.0, samples=12)
        assert steps == []

    @pytest.mark.parametrize("capacity,start", [(1e-300, "0"), (1e-50, "0.025"), (1e-20, "0.1")])
    def test_overflow_names_the_heat_capacity_and_the_time(self, capacity, start):
        # dT/dt = J / C leaves the float range, at once or after a few steps
        # of exponential growth; no RuntimeWarning escapes
        pops = LevelPopulations(0.2, 0.3, 0.5)
        message = rf"from t = {start} \(dT/dt = J / C with heat capacity C = {capacity!r}\)$"
        with pytest.raises(InvariantViolationError, match=message):
            finite_capacity_heating(pops, 1.0, 1.0, temp_start=1.0, capacity=capacity, horizon=5.0)

    def test_symmetric_clamp_heats_evenly(self):
        pops = LevelPopulations(0.25, 0.25, 0.5)
        history = finite_capacity_heating(pops, 1.0, 1.0, temp_start=1.0, capacity=5.0, horizon=3.0)
        assert np.allclose(history.temp_1, history.temp_2, atol=1e-14)
        assert not history.truncated

    def test_inverted_clamp_builds_a_gradient(self):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        temp_start = 1.0 / math.log(2.0)  # occupation one at omega = 1
        history = finite_capacity_heating(pops, 1.0, 1.0, temp_start=temp_start, capacity=10.0, horizon=5.0)
        assert not history.truncated
        assert np.all(history.temp_1[1:] > history.temp_2[1:])
        assert np.all(np.diff(history.temp_1) > 0)  # positive currents keep heating

    def test_huge_capacity_freezes_the_temperatures(self):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        history = finite_capacity_heating(pops, 1.0, 1.0, temp_start=1.0, capacity=1e12, horizon=5.0)
        assert np.max(np.abs(history.temp_1 - 1.0)) < 1e-10
        assert np.max(np.abs(history.temp_2 - 1.0)) < 1e-10

    def test_cooling_clamp_halts_at_zero(self):
        # no excited population: both currents are negative and drain the baths;
        # a coarse step overshoots the T = 0 floor and must halt early
        pops = LevelPopulations(0.5, 0.5, 0.0)
        history = finite_capacity_heating(
            pops, 1.0, 1.0, temp_start=0.5, capacity=0.05, horizon=50.0, samples=6
        )
        assert history.truncated
        assert history.times.size < 6
        assert np.all(history.temp_1 > 0.0)


def numpy_loop_heating(pops, omega, gamma, temp_start, capacity, horizon, samples=201):
    """The Dufour heating as a step-by-step RK4 loop on a numpy state vector,
    the form the library once had, with its checks and messages; the
    library's float loop must give its bytes and its errors."""

    def currents(t1, t2):
        n_1 = three_level.bose_occupation(omega, max(t1, 0.0))
        n_2 = three_level.bose_occupation(omega, max(t2, 0.0))
        j_1, j_2, _ = dufour_currents(pops, n_1, n_2, omega, gamma)
        return j_1, j_2

    def overflow(t):
        return InvariantViolationError(
            f"the bath temperatures leave the finite range in the step from t = {t:g} "
            f"(dT/dt = J / C with heat capacity C = {capacity!r})"
        )

    def rhs(s, t):
        if not (math.isfinite(s[0]) and math.isfinite(s[1])):
            raise overflow(t)
        j_1, j_2 = currents(s[0], s[1])
        rate = (j_1 / capacity, j_2 / capacity)
        if not (math.isfinite(rate[0]) and math.isfinite(rate[1])):
            raise overflow(t)
        return np.array(rate)

    dt = horizon / (samples - 1)
    times, t1_hist, t2_hist = [0.0], [temp_start], [temp_start]
    j0 = currents(temp_start, temp_start)
    j1_hist, j2_hist = [j0[0]], [j0[1]]
    truncated = False
    state = np.array([temp_start, temp_start])
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, samples):
            start = (i - 1) * dt
            k1 = rhs(state, start)
            k2 = rhs(state + 0.5 * dt * k1, start)
            k3 = rhs(state + 0.5 * dt * k2, start)
            k4 = rhs(state + dt * k3, start)
            state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (math.isfinite(state[0]) and math.isfinite(state[1])):
                raise overflow(start)
            if state.min() <= 0.0:
                truncated = True
                break
            j = currents(state[0], state[1])
            times.append(i * dt)
            t1_hist.append(float(state[0]))
            t2_hist.append(float(state[1]))
            j1_hist.append(j[0])
            j2_hist.append(j[1])
    return [np.array(a) for a in (times, t1_hist, t2_hist, j1_hist, j2_hist)], truncated


def heating_outcome(heat, *args):
    """The bytes of every history array and the truncation flag, or the
    error text."""
    try:
        result = heat(*args)
    except InvariantViolationError as exc:
        return f"InvariantViolationError: {exc}"
    if isinstance(result, tuple):
        arrays, truncated = result
    else:
        arrays = (result.times, result.temp_1, result.temp_2, result.current_1, result.current_2)
        truncated = result.truncated
    return [(a.dtype.str, a.tobytes()) for a in arrays], truncated


class TestDufourFloatLoop:
    """The RK4 loop in Python floats gives the bytes of the numpy loop."""

    @settings(max_examples=60, deadline=None)
    @given(p=st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5)), omega=st.floats(0.05, 5.0),
           gamma=st.floats(0.05, 5.0), temp_start=st.floats(0.0, 5.0), capacity=st.floats(0.02, 50.0),
           horizon=st.floats(0.01, 40.0), samples=st.integers(2, 300))
    def test_bytes_of_the_numpy_loop(self, p, omega, gamma, temp_start, capacity, horizon, samples):
        # the draws include runs that overflow or reach T = 0
        args = (LevelPopulations.closing(*p), omega, gamma, temp_start, capacity, horizon, samples)
        assert heating_outcome(finite_capacity_heating, *args) == heating_outcome(numpy_loop_heating, *args)

    @pytest.mark.parametrize("case", [
        dict(pops=(0.2, 0.3, 0.5), temp_start=1.0 / math.log(2.0), capacity=10.0, horizon=5.0, samples=201),
        dict(pops=(0.5, 0.5, 0.0), temp_start=0.5, capacity=0.05, horizon=50.0, samples=6),
        dict(pops=(0.2, 0.3, 0.5), temp_start=0.0, capacity=1.0, horizon=2.0, samples=50),
        dict(pops=(0.0, 0.0, 1.0), omega=2.0, gamma=5.0, temp_start=0.0, capacity=0.02, horizon=30.0, samples=41),
        dict(pops=(0.2, 0.3, 0.5), temp_start=1.0, capacity=1e-20, horizon=5.0, samples=201),
    ], ids=["benchmark", "truncated", "cold-start", "current-overflow", "capacity-overflow"])
    def test_bytes_at_chosen_points(self, case):
        case = {"omega": 1.0, "gamma": 1.0, **case}
        args = (LevelPopulations(*case.pop("pops")), case.pop("omega"), case.pop("gamma"), *case.values())
        assert heating_outcome(finite_capacity_heating, *args) == heating_outcome(numpy_loop_heating, *args)

    @pytest.mark.parametrize("omega,gamma", [(1.0, 1e300), (1e200, 1e200)])
    def test_an_overflowing_current_is_named(self, omega, gamma):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        with pytest.raises(InvariantViolationError, match=r"^the heat currents J_k = omega gamma .* overflow at "
                                                          + re.escape(f"omega = {omega!r}, gamma = {gamma!r} and")):
            finite_capacity_heating(pops, omega, gamma, temp_start=1.0 / math.log(2.0), capacity=10.0, horizon=5.0)

    def test_dufour_currents_checks_its_result(self):
        pops = LevelPopulations(0.2, 0.3, 0.5)
        with pytest.raises(InvariantViolationError, match=r"overflow at omega = 1e\+200, gamma = 1e\+200 and "
                                                          r"occupations n = 1, 2$"):
            dufour_currents(pops, 1.0, 2.0, omega=1e200, gamma=1e200)
        assert dufour_currents(pops, 1.0, 2.0, omega=1e150, gamma=1e150)[0] == pytest.approx(8e299)


class TestAnalyticNumericAgreement:
    @pytest.mark.parametrize("n_1", [0.5, 2.0, 5.0])
    @pytest.mark.parametrize("n_2", [0.5, 1.0, 3.0])
    def test_unbalance_matches_full_generator(self, n_1, n_2):
        params = occ_params("lambda", n_1, n_2)
        rho = steady_state(liouvillian(lambda_system(params)))
        numeric = populations_from_state(rho, params).unbalance
        assert numeric == pytest.approx(thermo_diagnostics(params).unbalance, abs=1e-8)

    def test_occupations_round_trip(self):
        params = occ_params("lambda", 2.0, 1.0)
        n_1, n_2 = occupations(params)
        assert n_1 == pytest.approx(2.0, rel=1e-12)
        assert n_2 == pytest.approx(1.0, rel=1e-12)

    def test_zero_occupation_edge(self):
        # one frozen bath concentrates everything on its own side
        params = occ_params("lambda", 0.0, 3.0)
        assert thermo_diagnostics(params).unbalance == pytest.approx(-1.0, abs=1e-12)
        rho = steady_state(liouvillian(lambda_system(params)))
        assert populations_from_state(rho, params).unbalance == pytest.approx(-1.0, abs=1e-8)

    def test_unbalance_strictly_decreases_with_the_gradient(self):
        n_mean = 1.0
        gradients = np.linspace(-1.9, 1.9, 13)
        values = [
            thermo_diagnostics(occ_params("lambda", n_mean - dn / 2.0, n_mean + dn / 2.0)).unbalance
            for dn in gradients
        ]
        assert np.all(np.diff(values) < 0.0)
