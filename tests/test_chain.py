"""Chain construction, site populations, profile classification, sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qthermo import chain, linalg
from qthermo.chain import (
    ARGMAX_TIE_ATOL,
    DELOCALIZED,
    MIXED,
    NEGATIVE,
    NOT_APPLICABLE,
    POPULATION_TOL,
    POSITIVE,
    SYMMETRY_THRESHOLD,
    ChainSpec,
    ExplicitProfile,
    LinearProfile,
    SweepPoint,
    chain_system,
    classify,
    population_sweep,
    site_populations,
)
from qthermo.davies import liouvillian, steady_state
from qthermo.errors import InvariantViolationError, QThermoError, UnsupportedModelError
from qthermo.linalg import eigh
from test_davies import thermal_state, trace_distance


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
        oracle = site_populations(thermal_state(system.hamiltonian, 0.6), spec)
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


def array_classify(p: np.ndarray, temps: np.ndarray) -> tuple:
    """The verdict's fields by numpy array operations, the reference for
    :func:`classify`'s loops over Python floats."""
    n = p.size
    argmax_site = int(np.flatnonzero(p >= p.max() - ARGMAX_TIE_ATOL)[0]) + 1
    symmetry = 1.0 - 0.5 * float(np.abs(p - p[::-1]).sum())
    if temps[0] == temps[-1]:
        return NOT_APPLICABLE, argmax_site, 0, 0, symmetry
    oriented = p if temps[0] > temps[-1] else p[::-1]
    diffs = np.diff(oriented)

    def longest(flags):
        padded = np.concatenate(([0], flags.astype(int), [0]))
        edges = np.flatnonzero(np.diff(padded))
        return int((edges[1::2] - edges[::2]).max(initial=0))

    peak = int(np.argmax(oriented))
    lo, hi = (2 * n) // 5, (3 * n + 4) // 5
    if np.all(diffs > POPULATION_TOL):
        kind = POSITIVE
    elif lo <= peak < hi and symmetry >= SYMMETRY_THRESHOLD:
        kind = DELOCALIZED
    elif peak < n / 2 and np.all(diffs[peak:] < -POPULATION_TOL):
        kind = NEGATIVE
    else:
        kind = MIXED
    return kind, argmax_site, longest(diffs > POPULATION_TOL), longest(diffs < -POPULATION_TOL), symmetry


class TestClassify:
    @settings(max_examples=300, deadline=None)
    @given(
        # few distinct values, so ties, runs and mirror pairs are common
        values=st.lists(st.sampled_from([0.0, 1e-7, 0.05, 0.1, 0.1 + 1e-13, 0.2, 0.3]), min_size=3, max_size=14),
        ends=st.sampled_from([(0.8, 0.4), (0.4, 0.8), (0.6, 0.6)]),
    )
    def test_matches_the_array_reference(self, values, ends):
        p = np.array(values)
        profile = LinearProfile(*ends)
        verdict = classify(p, profile)
        fields = (verdict.kind, verdict.argmax_site, verdict.run_up, verdict.run_down, verdict.symmetry)
        assert fields == array_classify(p, profile.temperatures(p.size))

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1e-7, 0.05, 0.1, 0.2, 0.3]), min_size=3, max_size=8),
        temperatures=st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.4, 0.8]), min_size=9, max_size=9),
    )
    def test_an_explicit_profile_is_read_at_its_ends(self, values, temperatures):
        # classify reads a profile's two end temperatures, and an explicit
        # profile still checks its length
        p = np.array(values)
        profile = ExplicitProfile(temperatures[:p.size])
        verdict = classify(p, profile)
        fields = (verdict.kind, verdict.argmax_site, verdict.run_up, verdict.run_down, verdict.symmetry)
        assert fields == array_classify(p, profile.temperatures(p.size))
        for wrong in (p.size - 1, p.size + 1):
            with pytest.raises(InvariantViolationError, match=f"^profile lists {wrong} temperatures for {p.size} sites$"):
                classify(p, ExplicitProfile(temperatures[:wrong]))

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
        assert trace_distance(rho, thermal_state(system.hamiltonian, 0.6)) <= 1e-6
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


def point_alone(base: ChainSpec, g: float, pair: tuple[float, float]) -> SweepPoint:
    """The sweep row of one point, from a system built for it alone and a
    solve of its generator alone."""
    try:
        spec = replace(base, tunneling=g, profile=LinearProfile(*pair))
        populations = site_populations(steady_state(liouvillian(chain_system(spec))), spec)
        verdict = classify(populations, spec.profile)
    except (QThermoError, ValueError) as exc:
        return SweepPoint(g, *pair, None, None, f"{type(exc).__name__}: {exc}")
    return SweepPoint(g, *pair, populations, verdict, None)


def same_rows(points, expected) -> bool:
    return len(points) == len(expected) and all(
        (p.tunneling, p.t_left, p.t_right, p.verdict, p.error) == (e.tunneling, e.t_left, e.t_right, e.verdict, e.error)
        and (p.populations is None if e.populations is None else np.array_equal(p.populations, e.populations))
        for p, e in zip(points, expected)
    )


class TestBatchedSweep:
    """A sweep builds one system per tunneling and solves its generators in
    batches; every row is the row of its point solved alone, in order."""

    def test_good_points_around_failing_ones(self):
        base = spec_for(n_sites=10)
        # T = (0, 0) leaves a null space at both tunnelings (of dimension 100
        # at g = 0.1); a negative temperature and a negative tunneling fail
        # before the solve
        grid = population_sweep(base, (0.1, 1.3), ((0.8, 0.4), (0.0, 0.0), (0.3, 0.1), (0.5, -1.0)))
        listed = population_sweep(base, (), (), points=[(-0.5, (0.8, 0.4)), (0.1, (0.0, 0.0)), (0.7, (0.3, 0.1))])
        expected = [point_alone(base, g, pair)
                    for pair in ((0.8, 0.4), (0.0, 0.0), (0.3, 0.1), (0.5, -1.0)) for g in (0.1, 1.3)]
        assert same_rows(grid, expected)
        assert grid[2].error == "NonUniqueSteadyStateError: steady state is not unique: null space has dimension 100"
        assert [p.error is None for p in grid] == [True, True, False, False, True, True, False, False]
        assert same_rows(listed, [point_alone(base, g, pair)
                                  for g, pair in ((-0.5, (0.8, 0.4)), (0.1, (0.0, 0.0)), (0.7, (0.3, 0.1)))])
        assert "tunneling must be >= 0" in listed[0].error

    def test_one_system_per_tunneling(self, monkeypatch):
        # one set of baths per sweep, with the first Hamiltonian's system, and
        # one Hamiltonian per distinct tunneling
        systems, hamiltonians, baths = [], [], []
        for name, notes in (("chain_system", systems), ("_chain_hamiltonian", hamiltonians)):
            original = getattr(chain, name)
            monkeypatch.setattr(chain, name,
                                lambda spec, f=original, notes=notes: notes.append(spec.tunneling) or f(spec))
        original_baths = chain._baths_from_nonzeros
        monkeypatch.setattr(chain, "_baths_from_nonzeros",
                            lambda *args: baths.append(original_baths(*args)) or baths[-1])
        base = spec_for(n_sites=5)
        rows = population_sweep(base, (0.1, 0.5, 0.1), ((0.8, 0.4), (0.3, 0.1)),
                                points=[(0.5, (0.6, 0.6)), (0.9, (0.6, 0.6))])
        assert systems == [0.1] and hamiltonians == [0.1, 0.5, 0.9] and [len(b) for b in baths] == [5]
        monkeypatch.undo()
        expected = [point_alone(base, g, pair) for pair in ((0.8, 0.4), (0.3, 0.1)) for g in (0.1, 0.5, 0.1)]
        expected += [point_alone(base, 0.5, (0.6, 0.6)), point_alone(base, 0.9, (0.6, 0.6))]
        assert same_rows(rows, expected)

    def test_a_cold_end_next_to_a_warm_profile(self):
        # the points of one Hamiltonian need two plans: the bath at T = 0 has
        # no absorption entries
        base = spec_for(n_sites=10)
        pairs = ((0.0, 0.5), (0.8, 0.4))
        rows = population_sweep(base, (0.1, 1.3), pairs)
        assert same_rows(rows, [point_alone(base, g, pair) for pair in pairs for g in (0.1, 1.3)])
        assert all(row.error is None for row in rows)

    def test_a_hamiltonian_whose_build_fails(self):
        # at g = 1 / sqrt(2) a 3-site chain has a mode at zero energy, whose
        # zero-frequency coupling a flat density cannot rate: every point of
        # that tunneling fails on its own row, and no other point does
        base = spec_for(n_sites=3)
        tunnelings = (0.3, 1 / math.sqrt(2), 2.0)
        pairs = ((0.8, 0.4), (0.0, 0.5))
        rows = population_sweep(base, tunnelings, pairs)
        assert same_rows(rows, [point_alone(base, g, pair) for pair in pairs for g in tunnelings])
        assert [row.error is None for row in rows] == [True, False, True] * 2
        assert rows[1].error.startswith("UnsupportedModelError: bath 0: zero-frequency")

    def test_batches_are_bounded_by_bytes(self, monkeypatch):
        base = spec_for(n_sites=6)
        points = [(g, pair) for pair in ((0.8, 0.4), (0.3, 0.1), (0.6, 0.6)) for g in (0.1, 0.5, 1.3)]
        whole = population_sweep(base, (), (), points=points)
        batches = []
        original = chain._steady_states
        monkeypatch.setattr(chain, "_steady_states", lambda liouvs: batches.append(len(liouvs)) or original(liouvs))
        one = sum(chain._generator_bytes(liouvillian(chain_system(replace(base, tunneling=0.5)))) for _ in (1, 2))
        monkeypatch.setattr(chain, "SWEEP_BATCH_BYTES", one)
        assert same_rows(population_sweep(base, (), (), points=points), whole)
        # every batch holds two generators' bytes at most, and the last the rest
        assert sum(batches) == len(points) and max(batches) <= 2 and len(batches) >= 5
        monkeypatch.setattr(chain, "SWEEP_BATCH_BYTES", 1)
        batches.clear()
        assert same_rows(population_sweep(base, (), (), points=points), whole)
        assert batches == [1] * len(points)

    def test_points_are_read_without_a_second_check(self, monkeypatch):
        # the batched solve checks every state in full, so the sweep reads
        # the populations at once; the public reader still checks its input
        checks = []
        original = chain.require_density_matrix
        monkeypatch.setattr(chain, "require_density_matrix", lambda rho: checks.append(rho) or original(rho))
        base = spec_for(n_sites=5)
        rows = population_sweep(base, (0.1, 1.3), ((0.8, 0.4), (0.3, 0.1)))
        assert checks == [] and all(row.error is None for row in rows)
        assert same_rows(rows, [point_alone(base, g, pair) for pair in ((0.8, 0.4), (0.3, 0.1)) for g in (0.1, 1.3)])
        assert len(checks) == 4
        with pytest.raises(InvariantViolationError, match="trace"):
            site_populations(np.eye(10) / 5.0, base)

    # flat rows among sloped ones, T = 0 and -0.0 ends, a step that underflows
    MIXED_ENDS = ((0.8, 0.4), (0.6, 0.6), (0.0, 0.5), (0.3, 0.0), (-0.0, -0.0), (-0.0, 0.4), (0.5, -0.0),
                  (0.0, 0.0), (1.1, 0.7), (5e-324, 0.0), (1e-310, 2e-310), (1e300, 0.0), (0.1, 0.1))

    @pytest.mark.parametrize("n_sites", [2, 3, 5, 10, 31])
    def test_chunk_temperatures_are_each_points_own(self, n_sites):
        # one array for a chunk of points, bit for bit each point's
        # site_temperatures, whichever rows of the chunk are flat
        for lo in range(len(self.MIXED_ENDS)):
            ends = self.MIXED_ENDS[lo:] + self.MIXED_ENDS[:lo]
            for count in (1, 2, 5, len(ends)):
                chunk = chain._linear_temperatures(np.array(ends[:count]), n_sites)
                own = np.array([spec_for(n_sites=n_sites, t_left=a, t_right=b).site_temperatures() for a, b in ends[:count]])
                assert chunk.tobytes() == own.tobytes()

    def test_a_sweep_builds_each_point_at_its_own_temperatures(self, monkeypatch):
        built = []
        original = chain._liouvillians
        monkeypatch.setattr(chain, "_liouvillians",
                            lambda system, temperatures, tol: built.extend(temperatures) or original(system, temperatures, tol))
        points = [(g, pair) for pair in self.MIXED_ENDS[:9] for g in (0.1, 0.7)]
        base = spec_for(n_sites=5)
        population_sweep(base, (), (), points=points)
        # the points of one tunneling are built together, in the order listed
        order = [(g, pair) for g in (0.1, 0.7) for pair in self.MIXED_ENDS[:9]]
        assert len(built) == len(order)
        for row, (g, pair) in zip(built, order):
            assert row.tobytes() == spec_for(n_sites=5, t_left=pair[0], t_right=pair[1]).site_temperatures().tobytes()

    def test_sweep_states_are_not_recorded(self, monkeypatch):
        # a sweep checks its states in full and reads them once, so it keeps
        # no record of them; steady_state records the state it returns, for
        # the observables that read it
        monkeypatch.setattr(linalg, "_PASSED", linalg._CheckRecord(linalg.CHECK_RECORD_BYTES))
        states = []
        original = chain._steady_states
        monkeypatch.setattr(chain, "_steady_states", lambda liouvs: states.extend(original(liouvs)) or states[-len(liouvs):])
        base = spec_for(n_sites=5)
        rows = population_sweep(base, (0.1, 1.3), ((0.8, 0.4), (0.3, 0.1)))
        assert len(states) == 4 and all(row.error is None for row in rows)
        check = ("density", linalg.HERMITICITY_ATOL, linalg.TRACE_ATOL, linalg.POSITIVITY_FLOOR)
        assert not any(linalg._PASSED.holds(linalg._PASSED.key(state, check)) for state in states)
        state = steady_state(liouvillian(chain_system(replace(base, tunneling=1.3, profile=LinearProfile(0.3, 0.1)))))
        assert state.tobytes() == states[3].tobytes()
        assert linalg._PASSED.holds(linalg._PASSED.key(state, check))

    def test_the_paper_survey_fits_one_batch(self, monkeypatch):
        batches = []
        original = chain._steady_states
        monkeypatch.setattr(chain, "_steady_states", lambda liouvs: batches.append(len(liouvs)) or original(liouvs))
        panels = chain.default_survey_panels()
        points = list(dict.fromkeys((g, pair) for gs, pairs in panels.values() for pair in pairs for g in gs))
        population_sweep(spec_for(n_sites=10), (), (), points=points)
        assert batches == [18]
