"""Chain construction, site populations, profile classification, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qthermo.chain import (
    DELOCALIZED,
    MIXED,
    NEGATIVE,
    NOT_APPLICABLE,
    POSITIVE,
    ChainSpec,
    ExplicitProfile,
    LinearProfile,
    chain_system,
    classify,
    population_sweep,
    site_populations,
)
from qthermo.davies import gibbs_state, liouvillian, steady_state
from qthermo.errors import InvariantViolationError, UnsupportedModelError
from qthermo.linalg import eigh, trace_distance


def spec_for(n_sites=4, g=0.3, rate=0.01, t_left=0.8, t_right=0.4, h=1.0) -> ChainSpec:
    return ChainSpec(n_sites, h, g, rate, LinearProfile(t_left, t_right))


def solve_populations(spec: ChainSpec) -> np.ndarray:
    rho = steady_state(liouvillian(chain_system(spec)))
    return site_populations(rho, spec)


class TestChainSystem:
    def test_two_site_spectrum(self):
        h, g = 1.0, 0.4
        system = chain_system(spec_for(n_sites=2, g=g, h=h))
        energies = eigh(system.hamiltonian).energies
        assert np.allclose(energies, [0.0, 0.0, h - g, h + g], atol=1e-12)

    def test_ten_site_band_closed_form(self):
        n, h, g = 10, 1.0, 0.1
        system = chain_system(spec_for(n_sites=n, g=g, h=h))
        energies = eigh(system.hamiltonian).energies
        band = np.sort(h + 2 * g * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        assert np.allclose(energies[:n], 0.0, atol=1e-12)
        assert np.allclose(energies[n:], band, atol=1e-12)

    def test_level_crossing_at_matched_tunneling(self):
        # the lowest excited eigenvalue h - g reaches the ground manifold at
        # g = h; right there the zero-frequency coupling component is finite
        # and the flat-density model must refuse to build
        for g in (0.5, 0.99):
            energies = eigh(chain_system(spec_for(n_sites=2, g=g)).hamiltonian).energies
            assert energies[2] == pytest.approx(1.0 - g)
        with pytest.raises(UnsupportedModelError, match="zero-frequency"):
            liouvillian(chain_system(spec_for(n_sites=2, g=1.0)))

    def test_bath_count_and_locality(self):
        spec = spec_for(n_sites=3)
        system = chain_system(spec)
        assert len(system.baths) == 3
        for i, bath in enumerate(system.baths):
            expected = np.zeros((6, 6))
            expected[2 * i, 2 * i + 1] = expected[2 * i + 1, 2 * i] = 1.0
            assert np.allclose(bath.coupling, expected)
        assert np.allclose([b.temperature for b in system.baths], [0.8, 0.6, 0.4])

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvariantViolationError):
            ChainSpec(1, 1.0, 0.1, 0.01, LinearProfile(0.5, 0.5))
        with pytest.raises(InvariantViolationError):
            ChainSpec(4, -1.0, 0.1, 0.01, LinearProfile(0.5, 0.5))
        with pytest.raises(InvariantViolationError):
            ChainSpec(4, 1.0, 0.1, 0.0, LinearProfile(0.5, 0.5))
        with pytest.raises(InvariantViolationError):
            LinearProfile(-0.1, 0.5)
        for bad in (math.inf, math.nan):
            for kwargs in ({"site_energy": bad}, {"tunneling": bad}, {"bath_rate": bad}):
                with pytest.raises(InvariantViolationError, match="finite"):
                    replace(spec_for(n_sites=4), **kwargs)
            with pytest.raises(InvariantViolationError, match="finite"):
                LinearProfile(bad, 0.4)
            with pytest.raises(InvariantViolationError, match="finite"):
                LinearProfile(0.8, bad)


class TestSitePopulations:
    def test_localized_ground_state(self):
        spec = spec_for(n_sites=4)
        rho = np.zeros((8, 8), dtype=complex)
        rho[4, 4] = 1.0  # ground level of site 3
        populations = site_populations(rho, spec)
        assert np.allclose(populations, [0.0, 0.0, 1.0, 0.0])

    def test_maximally_mixed_state(self):
        spec = spec_for(n_sites=4)
        populations = site_populations(np.eye(8, dtype=complex) / 8.0, spec)
        assert np.allclose(populations, 0.25)

    def test_uniform_temperature_matches_gibbs_populations(self):
        spec = spec_for(n_sites=4, t_left=0.6, t_right=0.6)
        system = chain_system(spec)
        populations = solve_populations(spec)
        oracle = site_populations(gibbs_state(system.hamiltonian, 0.6), spec)
        assert np.allclose(populations, oracle, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolationError):
            site_populations(np.eye(6) / 6.0, spec_for(n_sites=4))


class TestProfiles:
    def test_linear_interpolation(self):
        profile = LinearProfile(0.8, 0.4)
        assert np.allclose(profile.temperatures(5), [0.8, 0.7, 0.6, 0.5, 0.4])

    def test_explicit_length_check(self):
        profile = ExplicitProfile((0.5, 0.4, 0.3))
        assert np.allclose(profile.temperatures(3), [0.5, 0.4, 0.3])
        with pytest.raises(InvariantViolationError):
            profile.temperatures(4)
        with pytest.raises(InvariantViolationError):
            ExplicitProfile((0.5, -0.1))
        for bad in (math.nan, math.inf):
            with pytest.raises(InvariantViolationError, match="finite"):
                ExplicitProfile((0.5, bad, 0.3))


class TestClassify:
    def test_strictly_increasing_toward_cold(self):
        populations = np.linspace(0.05, 0.3, 5)
        populations /= populations.sum()
        verdict = classify(populations, LinearProfile(0.8, 0.4))
        assert verdict.kind == POSITIVE
        assert verdict.argmax_site == 5

    def test_orientation_flips_with_the_gradient(self):
        populations = np.linspace(0.3, 0.05, 5)
        populations /= populations.sum()
        verdict = classify(populations, LinearProfile(0.4, 0.8))
        assert verdict.kind == POSITIVE
        assert verdict.argmax_site == 1

    def test_peak_in_hot_half_decaying_to_cold(self):
        populations = np.array([0.1, 0.3, 0.2, 0.15, 0.13, 0.12])
        verdict = classify(populations, LinearProfile(0.8, 0.4))
        assert verdict.kind == NEGATIVE
        assert verdict.argmax_site == 2

    def test_symmetric_dome_is_delocalized(self):
        populations = np.array([0.05, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0.05])
        populations /= populations.sum()
        verdict = classify(populations, LinearProfile(0.3, 0.1))
        assert verdict.kind == DELOCALIZED
        assert verdict.symmetry == pytest.approx(1.0)
        assert verdict.argmax_site in (4, 5)

    @pytest.mark.parametrize("nudge", (1e-16, -1e-16))
    def test_argmax_of_a_mirror_tie_is_the_lower_site(self, nudge):
        populations = np.array([0.05, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0.05])
        populations /= populations.sum()
        populations[4] += nudge
        for profile in (LinearProfile(0.6, 0.6), LinearProfile(0.3, 0.1), LinearProfile(0.1, 0.3)):
            assert classify(populations, profile).argmax_site == 4

    def test_uniform_chain_argmax_site(self):
        # mirror pairs of the uniform-temperature chain agree to rounding
        spec = spec_for(n_sites=12, g=0.5, t_left=0.6, t_right=0.6)
        populations = solve_populations(spec)
        assert abs(populations[5] - populations[6]) <= 1e-12
        verdict = classify(populations, spec.profile)
        assert (verdict.kind, verdict.argmax_site) == (NOT_APPLICABLE, 6)

    def test_non_finite_populations_rejected(self):
        with pytest.raises(InvariantViolationError):
            classify(np.array([0.2, np.nan, 0.3, 0.5]), LinearProfile(0.8, 0.4))

    def test_irregular_profile_is_mixed(self):
        populations = np.array([0.2, 0.1, 0.3, 0.1, 0.2, 0.1])
        verdict = classify(populations, LinearProfile(0.8, 0.4))
        assert verdict.kind == MIXED

    def test_flat_profile_not_applicable(self):
        populations = np.linspace(0.1, 0.3, 5)
        populations /= populations.sum()
        verdict = classify(populations, LinearProfile(0.5, 0.5))
        assert verdict.kind == NOT_APPLICABLE

    def test_too_few_sites_rejected(self):
        with pytest.raises(InvariantViolationError):
            classify(np.array([0.5, 0.5]), LinearProfile(0.8, 0.4))

    def test_run_statistics(self):
        populations = np.array([0.1, 0.2, 0.3, 0.25, 0.1, 0.05])
        verdict = classify(populations, LinearProfile(0.8, 0.4))
        assert verdict.run_up == 2
        assert verdict.run_down == 3


class TestInvariants:
    def test_equilibrium_chain(self):
        spec = spec_for(n_sites=4, t_left=0.6, t_right=0.6)
        system = chain_system(spec)
        rho = steady_state(liouvillian(system))
        assert trace_distance(rho, gibbs_state(system.hamiltonian, 0.6)) <= 1e-6
        verdict = classify(site_populations(rho, spec), spec.profile)
        assert verdict.kind == NOT_APPLICABLE

    def test_rate_invariance(self):
        weak = solve_populations(spec_for(n_sites=4, g=1.3, rate=0.01))
        strong = solve_populations(spec_for(n_sites=4, g=1.3, rate=0.1))
        assert np.max(np.abs(weak - strong)) < 1e-9

    def test_mirror_symmetry(self):
        forward = solve_populations(spec_for(n_sites=5, g=0.5, t_left=0.8, t_right=0.4))
        backward = solve_populations(spec_for(n_sites=5, g=0.5, t_left=0.4, t_right=0.8))
        assert np.max(np.abs(forward - backward[::-1])) < 1e-9

    def test_normalization(self):
        populations = solve_populations(spec_for(n_sites=5, g=0.7))
        assert populations.sum() == pytest.approx(1.0, abs=1e-9)


class TestMigrationStrength:
    @staticmethod
    def contrast(t_left: float, t_right: float) -> float:
        """Cold-end minus hot-end population at weak tunneling."""
        populations = solve_populations(spec_for(n_sites=10, g=0.1, t_left=t_left, t_right=t_right))
        return float(populations[-1] - populations[0])

    def test_stronger_at_lower_mean_temperature(self):
        # fixed gradient, decreasing mean temperature (qualitative only)
        contrasts = [self.contrast(*pair) for pair in ((1.1, 0.7), (0.8, 0.4), (0.5, 0.1))]
        assert contrasts[0] < contrasts[1] < contrasts[2]

    def test_stronger_at_larger_gradient(self):
        # fixed mean temperature, increasing gradient (qualitative only)
        contrasts = [self.contrast(*pair) for pair in ((0.7, 0.5), (0.8, 0.4), (0.9, 0.3))]
        assert contrasts[0] < contrasts[1] < contrasts[2]


class TestPopulationSweep:
    def test_row_order_and_verdicts(self):
        base = spec_for(n_sites=4)
        points = population_sweep(base, (0.1, 1.3), ((0.8, 0.4), (0.3, 0.1)))
        assert [(p.tunneling, p.t_left) for p in points] == [
            (0.1, 0.8),
            (1.3, 0.8),
            (0.1, 0.3),
            (1.3, 0.3),
        ]
        assert all(p.error is None for p in points)

    def test_failures_annotated_without_aborting(self):
        base = spec_for(n_sites=4)
        points = population_sweep(base, (0.3,), ((0.8, 0.4), (0.5, -1.0)))
        assert points[0].error is None
        assert points[1].error is not None
        assert points[1].populations is None
        assert "InvariantViolationError" in points[1].error
