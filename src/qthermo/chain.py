"""One-dimensional chain of two-level sites with one local bath per site.

Each site carries its own ground and excited level; only the excited levels
tunnel to their neighbors, so the Hilbert space has dimension 2N with basis
(|g_1>, |e_1>, |g_2>, |e_2>, ...).  Site i couples to its bath through the
local flip operator |e_i><g_i| + h.c. and the bath temperatures follow a
linear (or explicit) profile across the chain.

The steady-state population of a site is the sum of its local ground and
excited populations.  Depending on the tunneling strength and the
temperatures, the stationary profile is classified as positive migration
(monotone accumulation toward the cold end), negative migration (a peak in the
hotter half decaying toward the cold end), delocalized (a symmetric peak in
the middle of the chain) or mixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .davies import (
    DEFAULT_FREQ_TOL,
    BathSpec,
    FlatDensity,
    OpenSystem,
    liouvillian,
    steady_state,
)
from .errors import InvariantViolationError, QThermoError
from .linalg import require_density_matrix

POPULATION_TOL = 1e-6
SYMMETRY_THRESHOLD = 0.95
ARGMAX_TIE_ATOL = 1e-12

POSITIVE = "positive"
NEGATIVE = "negative"
DELOCALIZED = "delocalized"
MIXED = "mixed"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class LinearProfile:
    """Temperatures interpolated linearly from the left end to the right end."""

    t_left: float
    t_right: float

    def __post_init__(self):
        if not (math.isfinite(self.t_left) and math.isfinite(self.t_right)):
            raise InvariantViolationError(f"temperatures must be finite, got {self.t_left}, {self.t_right}")
        if self.t_left < 0 or self.t_right < 0:
            raise InvariantViolationError("temperatures must be >= 0")

    def temperatures(self, n_sites: int) -> np.ndarray:
        return np.linspace(self.t_left, self.t_right, n_sites)


@dataclass(frozen=True)
class ExplicitProfile:
    """One temperature per site, given directly."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not all(map(math.isfinite, self.values)):
            raise InvariantViolationError(f"temperatures must be finite, got {self.values}")
        if any(v < 0 for v in self.values):
            raise InvariantViolationError("temperatures must be >= 0")

    def temperatures(self, n_sites: int) -> np.ndarray:
        if len(self.values) != n_sites:
            raise InvariantViolationError(
                f"profile lists {len(self.values)} temperatures for {n_sites} sites"
            )
        return np.array(self.values)


TemperatureProfile = Union[LinearProfile, ExplicitProfile]


@dataclass(frozen=True)
class ChainSpec:
    """Chain geometry and couplings: ``site_energy`` is the on-site gap,
    ``tunneling`` the neighbor hopping of the excited levels, ``bath_rate``
    the flat spectral density shared by all local baths."""

    n_sites: int
    site_energy: float
    tunneling: float
    bath_rate: float
    profile: TemperatureProfile

    def __post_init__(self):
        if self.n_sites < 2:
            raise InvariantViolationError(f"need at least 2 sites, got {self.n_sites}")
        for name in ("site_energy", "tunneling", "bath_rate"):
            if not math.isfinite(getattr(self, name)):
                raise InvariantViolationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.site_energy > 0:
            raise InvariantViolationError(f"site energy must be > 0, got {self.site_energy}")
        if self.tunneling < 0:
            raise InvariantViolationError(f"tunneling must be >= 0, got {self.tunneling}")
        if not self.bath_rate > 0:
            raise InvariantViolationError(f"bath rate must be > 0, got {self.bath_rate}")

    @property
    def dim(self) -> int:
        return 2 * self.n_sites

    def site_temperatures(self) -> np.ndarray:
        return self.profile.temperatures(self.n_sites)


def _ground_index(site: int) -> int:
    return 2 * site


def _excited_index(site: int) -> int:
    return 2 * site + 1


def chain_system(spec: ChainSpec) -> OpenSystem:
    """Open system of the chain: excited levels at the site energy, hopping
    between neighboring excited levels, one local bath per site."""
    dim = spec.dim
    h = np.zeros((dim, dim), dtype=complex)
    for site in range(spec.n_sites):
        h[_excited_index(site), _excited_index(site)] = spec.site_energy
    for site in range(spec.n_sites - 1):
        h[_excited_index(site), _excited_index(site + 1)] = spec.tunneling
        h[_excited_index(site + 1), _excited_index(site)] = spec.tunneling
    temperatures = spec.site_temperatures()
    baths = []
    for site in range(spec.n_sites):
        coupling = np.zeros((dim, dim), dtype=complex)
        coupling[_ground_index(site), _excited_index(site)] = 1.0
        coupling[_excited_index(site), _ground_index(site)] = 1.0
        baths.append(BathSpec(coupling, FlatDensity(spec.bath_rate), float(temperatures[site])))
    return OpenSystem(hamiltonian=h, baths=tuple(baths))


def chain_system_bytes(n_sites: int) -> int:
    """Bytes of the dense complex arrays :func:`chain_system` builds for
    ``n_sites`` sites: the Hamiltonian and one coupling per site, each
    2N x 2N."""
    return 16 * (n_sites + 1) * (2 * n_sites) ** 2


def site_populations(rho, spec: ChainSpec) -> np.ndarray:
    """Per-site population: local ground plus local excited occupation.
    The vector sums to one within 1e-9."""
    state = require_density_matrix(rho)
    if state.shape[0] != spec.dim:
        raise InvariantViolationError(
            f"state dimension {state.shape[0]} does not match the chain dimension {spec.dim}"
        )
    diag = state.diagonal().real
    populations = np.array(
        [diag[_ground_index(i)] + diag[_excited_index(i)] for i in range(spec.n_sites)]
    )
    total = float(populations.sum())
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolationError(f"site populations sum to {total}, not 1")
    return populations


@dataclass(frozen=True)
class ThermophoresisVerdict:
    """Reading of a stationary population profile against the temperature
    profile.  ``argmax_site`` is 1-based; the runs count consecutive strictly
    monotone steps in the hot-to-cold direction; ``symmetry`` compares the
    profile with its mirror image (1 = perfectly symmetric)."""

    kind: str
    argmax_site: int
    run_up: int
    run_down: int
    symmetry: float


def _longest_run(flags: np.ndarray) -> int:
    best = count = 0
    for f in flags:
        count = count + 1 if f else 0
        best = max(best, count)
    return best


def classify(
    populations: np.ndarray,
    profile: TemperatureProfile,
) -> ThermophoresisVerdict:
    """Classify a stationary site-population vector.

    positive     populations strictly increase toward the colder end;
    negative     the maximum sits strictly in the hotter half and populations
                 decay strictly from there to the cold end;
    delocalized  the maximum sits in the middle fifth of the chain and the
                 profile is mirror-symmetric above the 0.95 score;
    mixed        anything else;
    a flat temperature profile yields the not-applicable verdict.
    """
    p = np.asarray(populations, dtype=float)
    n = p.size
    if n < 3:
        raise InvariantViolationError("classification needs at least 3 sites")
    if not np.all(np.isfinite(p)):
        raise InvariantViolationError("site populations must be finite")
    temps = profile.temperatures(n)
    # the lowest site within ARGMAX_TIE_ATOL of the maximum, so mirror-symmetric
    # profiles do not pick a site by rounding
    argmax_site = int(np.flatnonzero(p >= p.max() - ARGMAX_TIE_ATOL)[0]) + 1
    symmetry = 1.0 - 0.5 * float(np.abs(p - p[::-1]).sum())

    if abs(float(temps[0]) - float(temps[-1])) == 0.0:
        return ThermophoresisVerdict(NOT_APPLICABLE, argmax_site, 0, 0, symmetry)

    # orient hot -> cold so one code path covers both gradient directions
    hot_left = temps[0] > temps[-1]
    oriented = p if hot_left else p[::-1]
    diffs = np.diff(oriented)
    run_up = _longest_run(diffs > POPULATION_TOL)
    run_down = _longest_run(diffs < -POPULATION_TOL)
    peak = int(np.argmax(oriented))

    if bool(np.all(diffs > POPULATION_TOL)):
        kind = POSITIVE
    elif peak in _middle_fifth(n) and symmetry >= SYMMETRY_THRESHOLD:
        kind = DELOCALIZED
    elif peak < n / 2 and bool(np.all(diffs[peak:] < -POPULATION_TOL)):
        kind = NEGATIVE
    else:
        kind = MIXED
    return ThermophoresisVerdict(kind, argmax_site, run_up, run_down, symmetry)


def _middle_fifth(n: int) -> range:
    # 0-based indices of the central fifth of the chain (sites 5 and 6 of 10)
    lo = (2 * n) // 5
    hi = (3 * n + 4) // 5
    return range(lo, hi)


@dataclass(frozen=True)
class SweepPoint:
    """One grid point of a population sweep; ``error`` carries the failure
    message when the solve did not complete and the data fields stay None."""

    tunneling: float
    t_left: float
    t_right: float
    populations: np.ndarray | None
    verdict: ThermophoresisVerdict | None
    error: str | None


def _solve_point(
    base: ChainSpec, tunneling: float, pair: tuple[float, float], freq_tol: float
) -> SweepPoint:
    t_left, t_right = pair
    try:
        spec = replace(base, tunneling=tunneling, profile=LinearProfile(t_left, t_right))
        rho = steady_state(liouvillian(chain_system(spec), freq_tol))
        populations = site_populations(rho, spec)
        verdict = classify(populations, spec.profile)
    except (QThermoError, ValueError) as exc:
        return SweepPoint(tunneling, t_left, t_right, None, None, f"{type(exc).__name__}: {exc}")
    return SweepPoint(tunneling, t_left, t_right, populations, verdict, None)


def population_sweep(
    base: ChainSpec,
    tunneling_values,
    temperature_pairs,
    freq_tol: float = DEFAULT_FREQ_TOL,
) -> list[SweepPoint]:
    """Steady-state solve over a (temperature pair) x (tunneling) grid.

    Each point is ``base`` with its tunneling and temperature profile
    replaced by the point's values.  Rows come back in deterministic order:
    temperature pairs outermost, then tunneling values.  Failing grid points
    are annotated and do not abort the sweep.
    """
    return [
        _solve_point(base, float(g), (float(pair[0]), float(pair[1])), freq_tol)
        for pair in temperature_pairs
        for g in tunneling_values
    ]


DEFAULT_TUNNELING_SWEEP = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3)


def default_survey_panels(site_energy: float = 1.0) -> dict[str, tuple[tuple[float, ...], tuple[tuple[float, float], ...]]]:
    """The four default survey grids, keyed by panel name.

    Panels b and c keep weak tunneling and vary the temperature profile
    (fixed gradient with varying mean, then fixed mean with varying
    gradient); panels d and e sweep the tunneling strength at a hot and at a
    cold profile respectively.  All values scale with the site energy.
    """
    h = site_energy
    g_weak = (0.1 * h,)
    g_sweep = tuple(g * h for g in DEFAULT_TUNNELING_SWEEP)
    return {
        "b": (g_weak, ((0.5 * h, 0.1 * h), (0.8 * h, 0.4 * h), (1.1 * h, 0.7 * h))),
        "c": (g_weak, ((0.7 * h, 0.5 * h), (0.8 * h, 0.4 * h), (0.9 * h, 0.3 * h))),
        "d": (g_sweep, ((0.8 * h, 0.4 * h),)),
        "e": (g_sweep, ((0.3 * h, 0.1 * h),)),
    }
