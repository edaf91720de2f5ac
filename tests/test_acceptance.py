"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``criterion NN PASS`` line on success (run pytest with
``-s`` to see them); a failing criterion shows up as an ordinary pytest
failure.  Heavy steady-state solves are shared through module fixtures.
"""

import math
import time

import numpy as np
import pytest

from qthermo.chain import (
    DELOCALIZED,
    MIXED,
    NEGATIVE,
    ChainSpec,
    LinearProfile,
    chain_system,
    classify,
    site_populations,
)
from qthermo.davies import evolve, gibbs_state, heat_currents, liouvillian, steady_state
from qthermo.linalg import hermitize, trace_distance
from qthermo.three_level import (
    LevelPopulations,
    ThreeLevelParams,
    dufour_currents,
    finite_capacity_heating,
    high_temperature_force,
    lambda_system,
    mean_position_trajectory,
    populations_from_state,
    rate_matrix,
    thermo_diagnostics,
    vee_system,
)

OCCUPATION_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)


def occ_params(config: str, n_1: float, n_2: float) -> ThreeLevelParams:
    return ThreeLevelParams.from_occupations(config, n_1, n_2)


def chain_solution(g: float, t_left: float, t_right: float, rate: float = 0.01):
    spec = ChainSpec(10, 1.0, g, rate, LinearProfile(t_left, t_right))
    system = chain_system(spec)
    rho = steady_state(liouvillian(system))
    return spec, system, rho, site_populations(rho, spec)


@pytest.fixture(scope="module")
def warm_chain_strong():
    """g = 1.3 h at the hotter profile: the negative-migration showcase."""
    return chain_solution(1.3, 0.8, 0.4)


@pytest.fixture(scope="module")
def cold_chain_strong():
    """g = 1.3 h at the colder profile: the delocalized showcase."""
    return chain_solution(1.3, 0.3, 0.1)


def hot_half_peak_depth(populations: np.ndarray, hot_left: bool) -> float:
    """Displacement of the population peak into the hot half, in sites."""
    p = populations if hot_left else populations[::-1]
    center = (p.size + 1) / 2.0
    return center - (int(np.argmax(p)) + 1)


def test_criterion_01_analytic_vs_numeric_unbalance():
    start = time.perf_counter()
    worst = 0.0
    for n_1 in OCCUPATION_GRID:
        for n_2 in OCCUPATION_GRID:
            params = occ_params("lambda", n_1, n_2)
            rho = steady_state(liouvillian(lambda_system(params)))
            numeric = populations_from_state(rho, params).unbalance
            worst = max(worst, abs(numeric - thermo_diagnostics(params).unbalance))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 5.0
    print(f"criterion  1 PASS: 25-point analytic vs numeric unbalance, worst {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_cold_trap_limit():
    params = ThreeLevelParams("lambda", temp_1=1.0, temp_2=0.0)
    analytic = thermo_diagnostics(params).unbalance
    assert abs(analytic - 1.0) <= 1e-10
    rho = steady_state(liouvillian(lambda_system(params)))
    numeric = populations_from_state(rho, params).unbalance
    assert abs(numeric - 1.0) <= 1e-6
    print(f"criterion  2 PASS: cold trap unbalance 1 (analytic {analytic:.12f}, numeric {numeric:.8f})")


def test_criterion_03_no_spontaneous_emission_toggle():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10):
        t_1, t_2 = rng.uniform(0.05, 5.0, size=2)
        params = ThreeLevelParams("lambda", temp_1=float(t_1), temp_2=float(t_2))
        generator = rate_matrix(params, spontaneous=False)
        constrained = np.vstack([generator[:2], np.ones(3)])
        stationary = np.linalg.solve(constrained, np.array([0.0, 0.0, 1.0]))
        worst = max(worst, abs(stationary[1] - stationary[0]))
    assert worst <= 1e-12
    print(f"criterion  3 PASS: classical-bath steady unbalance zero, worst {worst:.2e}")


def test_criterion_04_exact_force_antisymmetry():
    worst = 0.0
    for n_1 in OCCUPATION_GRID:
        for n_2 in OCCUPATION_GRID:
            forward = thermo_diagnostics(occ_params("lambda", n_1, n_2)).force
            mirrored = thermo_diagnostics(occ_params("vee", n_1, n_2)).force
            worst = max(worst, abs(forward + mirrored))
    assert worst <= 1e-12
    print(f"criterion  4 PASS: force antisymmetry over the 25-point grid, worst {worst:.2e}")


def test_criterion_05_high_temperature_consistency():
    deviations = []
    for scale in (1.0, 10.0, 100.0):
        params = ThreeLevelParams("lambda", temp_1=100.0 * scale, temp_2=99.0 * scale)
        deviations.append(high_temperature_force(params).deviation)
    assert deviations[0] <= 0.01
    assert deviations[0] > deviations[1] > deviations[2]
    print(
        "criterion  5 PASS: semiclassical force within "
        f"{deviations[0]:.2%}, monotone under scaling ({deviations[1]:.2e}, {deviations[2]:.2e})"
    )


def test_criterion_06_oscillator_residual_scaling():
    params = occ_params("lambda", 2.0, 1.0)
    liouv = liouvillian(lambda_system(params))
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)

    def residual(dt: float) -> float:
        grid = np.arange(0.0, 4.0 + dt / 2.0, dt)
        trajectory = evolve(liouv, rho0, grid, validate=False)
        return mean_position_trajectory(params, trajectory, grid).rel_residual_max

    coarse = residual(1e-3)  # dt = 1e-3 / Gamma with Gamma = 1
    fine = residual(5e-4)
    assert coarse <= 1e-4
    assert coarse / fine >= 3.5
    print(f"criterion  6 PASS: residual {coarse:.2e} at dt=1e-3, shrink factor {coarse / fine:.2f}")


def test_criterion_07_chain_positive_migration():
    spec, _, _, populations = chain_solution(0.1, 0.8, 0.4)
    differences = np.diff(populations)
    assert np.all(differences > 1e-9)
    verdict = classify(populations, spec.profile)
    assert verdict.kind == "positive"
    print(f"criterion  7 PASS: populations strictly increase toward the cold end (min step {differences.min():.2e})")


def test_criterion_08_chain_negative_migration(warm_chain_strong):
    spec, _, _, populations = warm_chain_strong
    assert int(np.argmax(populations)) + 1 == 3
    tail = np.diff(populations[3:])
    assert np.all(tail < 0.0)
    verdict = classify(populations, spec.profile)
    assert verdict.kind == NEGATIVE
    print("criterion  8 PASS: strong-tunneling peak at site 3, decaying from site 4 to 10")


def test_criterion_09_chain_delocalization(cold_chain_strong):
    spec, _, _, populations = cold_chain_strong
    verdict = classify(populations, spec.profile)
    assert verdict.argmax_site in (5, 6)
    assert verdict.symmetry >= 0.95
    assert verdict.kind == DELOCALIZED
    print(f"criterion  9 PASS: cold strong-tunneling peak at site {verdict.argmax_site}, symmetry {verdict.symmetry:.4f}")


def test_criterion_10_weak_negative_signal(warm_chain_strong):
    # effect size: how deep into the hot half the population peak sits
    _, _, _, reference = warm_chain_strong
    reference_depth = hot_half_peak_depth(reference, hot_left=True)
    for g in (0.7, 0.9):
        spec, _, _, populations = chain_solution(g, 0.3, 0.1)
        verdict = classify(populations, spec.profile)
        assert verdict.kind in (NEGATIVE, MIXED)
        assert verdict.argmax_site <= 5  # hotter half with the hot bath on the left
        depth = hot_half_peak_depth(populations, hot_left=True)
        assert depth > 0.0
        assert depth < reference_depth
    print(f"criterion 10 PASS: weak negative signal, peak depth < {reference_depth:.1f} sites of the strong case")


def test_criterion_11_detailed_balance():
    spec, system, rho, _ = chain_solution(0.5, 0.6, 0.6)
    distance = trace_distance(rho, gibbs_state(system.hamiltonian, 0.6))
    assert distance <= 1e-6
    print(f"criterion 11 PASS: uniform-temperature chain within {distance:.2e} of the Gibbs state")


def test_criterion_12_dufour_effect():
    pops = LevelPopulations(0.2, 0.3, 0.5)
    j_1, j_2, ordered = dufour_currents(pops, 1.0, 1.0, omega=1.0, gamma=1.0)
    assert ordered and j_1 > j_2 > 0.0
    history = finite_capacity_heating(
        pops, omega=1.0, gamma=1.0, temp_start=1.0 / math.log(2.0), capacity=10.0, horizon=5.0
    )
    assert not history.truncated
    assert np.all(history.temp_1[1:] > history.temp_2[1:])
    print(f"criterion 12 PASS: currents ({j_1:.3f} > {j_2:.3f} > 0) and a persistent thermal gradient")


def test_criterion_13_conservation_suite(warm_chain_strong, cold_chain_strong):
    worst_sum = 0.0
    worst_production = math.inf
    lam = occ_params("lambda", 2.0, 1.0)
    vee = occ_params("vee", 2.0, 1.0)
    for system, rho in (
        (lambda_system(lam), steady_state(liouvillian(lambda_system(lam)))),
        (vee_system(vee), steady_state(liouvillian(vee_system(vee)))),
        (warm_chain_strong[1], warm_chain_strong[2]),
        (cold_chain_strong[1], cold_chain_strong[2]),
    ):
        currents = heat_currents(system, rho)
        worst_sum = max(worst_sum, abs(float(currents.sum())))
        # second law: the baths gain entropy sum_k J_k / T_k >= 0
        production = float(sum(j / bath.temperature for j, bath in zip(currents, system.baths)))
        worst_production = min(worst_production, production)
    assert worst_sum <= 1e-9
    assert worst_production >= -1e-12

    worst_trace = 0.0
    worst_eig = 0.0
    liouv = liouvillian(lambda_system(lam))
    coherent = np.full((3, 3), 1.0 / 3.0, dtype=complex)
    snapshots = [evolve(liouv, coherent, np.linspace(0.0, 6.0, 31), validate=False)]
    spec = ChainSpec(4, 1.0, 0.5, 0.05, LinearProfile(0.8, 0.4))
    mixed = np.eye(8, dtype=complex) / 8.0
    snapshots.append(evolve(liouvillian(chain_system(spec)), mixed, np.linspace(0.0, 30.0, 31), validate=False))
    for trajectory in snapshots:
        for snapshot in trajectory:
            worst_trace = max(worst_trace, abs(float(np.trace(snapshot).real) - 1.0))
            worst_eig = min(worst_eig, float(np.linalg.eigvalsh(hermitize(snapshot)).min()))
    assert worst_trace <= 1e-7
    assert worst_eig >= -1e-7
    print(
        "criterion 13 PASS: current sums within "
        f"{worst_sum:.2e}, entropy production at least {worst_production:.2e}, "
        f"trace drift {worst_trace:.2e}, lowest eigenvalue {worst_eig:.2e}"
    )


def test_criterion_14_rate_invariance(warm_chain_strong):
    spec, _, _, populations = warm_chain_strong
    stronger_spec, _, _, stronger = chain_solution(1.3, 0.8, 0.4, rate=0.1)
    assert np.max(np.abs(populations - stronger)) <= 1e-9
    assert classify(populations, spec.profile).kind == classify(stronger, stronger_spec.profile).kind
    print(f"criterion 14 PASS: populations shift by {np.max(np.abs(populations - stronger)):.2e} under a tenfold rate")
