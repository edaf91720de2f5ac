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
    FlatDensity,
    OpenSystem,
    _baths_from_nonzeros,
    _Entries,
    _generator_bytes_bound,
    _liouvillians,
    _steady_states,
)
from .errors import InvariantViolationError, QThermoError
from .linalg import require_density_matrix

POPULATION_TOL = 1e-6
# Bytes of generator blocks and indices a sweep holds before it solves them as
# one batch.  A 10-site chain's generator holds 15 KiB, so figure2's 18
# points are one batch; a 30-site one 140 KiB, so seven points share one; from
# about 90 sites every point is a batch of its own, whose elimination of the
# 2N x 2N population block outweighs the per-call costs a batch saves.  The
# points of one Hamiltonian are built in chunks of as many as may fill the
# batch, counted at the most bytes a generator of that Hamiltonian can hold
# (``davies._generator_bytes_bound``), so the generators built and not yet
# solved stay within this bound plus one point's.
SWEEP_BATCH_BYTES = 2**20
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

    def _ends(self, n_sites: int) -> tuple[float, float]:
        """The temperatures of the first and the last site: those of
        :meth:`temperatures`, up to the sign of a zero."""
        return self.t_left, self.t_right


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
        self._check_length(n_sites)
        return np.array(self.values)

    def _ends(self, n_sites: int) -> tuple[float, float]:
        """The temperatures of the first and the last site."""
        self._check_length(n_sites)
        return self.values[0], self.values[-1]

    def _check_length(self, n_sites: int) -> None:
        if len(self.values) != n_sites:
            raise InvariantViolationError(
                f"profile lists {len(self.values)} temperatures for {n_sites} sites"
            )


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


def chain_system(spec: ChainSpec) -> OpenSystem:
    """Open system of the chain: excited levels at the site energy, hopping
    between neighboring excited levels, one local bath per site.  Each
    bath's coupling |e_i><g_i| + h.c. is given by its two nonzeros, so the
    system holds no dense coupling (``BathSpec.coupling`` is formed only
    when read)."""
    # the basis runs (g_1, e_1, g_2, e_2, ...): row by row, bath i's entries
    # are (g_i, e_i) and (e_i, g_i), rows 2i and 2i + 1, whose columns
    # ``levels ^ 1`` swaps
    levels = np.arange(spec.dim)
    entries = _Entries(levels // 2, levels, levels ^ 1, np.ones(spec.dim, dtype=complex))
    baths = _baths_from_nonzeros(spec.dim, entries, FlatDensity(spec.bath_rate), spec.site_temperatures().tolist())
    return OpenSystem(hamiltonian=_chain_hamiltonian(spec), baths=baths)


def _chain_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """The chain's Hamiltonian, which alone depends on the tunneling."""
    dim = spec.dim
    h = np.zeros((dim, dim), dtype=complex)
    excited = np.arange(1, dim, 2)
    h[excited, excited] = spec.site_energy
    h[excited[:-1], excited[1:]] = spec.tunneling
    h[excited[1:], excited[:-1]] = spec.tunneling
    return h


def site_populations(rho, spec: ChainSpec) -> np.ndarray:
    """Per-site population: local ground plus local excited occupation.
    The vector sums to one within 1e-9."""
    state = require_density_matrix(rho)
    if state.shape[0] != spec.dim:
        raise InvariantViolationError(
            f"state dimension {state.shape[0]} does not match the chain dimension {spec.dim}"
        )
    return _site_populations(state)


def _site_populations(state: np.ndarray) -> np.ndarray:
    """:func:`site_populations` of a density matrix of the chain's
    dimension, checked already."""
    diag = state.diagonal().real
    # the basis runs (g_1, e_1, g_2, e_2, ...)
    populations = diag[0::2] + diag[1::2]
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


def _longest_run(flags: list[bool]) -> int:
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
    first, last = profile._ends(n)
    values = p.tolist()
    # the lowest site within ARGMAX_TIE_ATOL of the maximum, so mirror-symmetric
    # profiles do not pick a site by rounding
    top = max(values) - ARGMAX_TIE_ATOL
    argmax_site = next(i for i, value in enumerate(values) if value >= top) + 1
    symmetry = 1.0 - 0.5 * float(np.abs(p - p[::-1]).sum())

    if first == last:
        return ThermophoresisVerdict(NOT_APPLICABLE, argmax_site, 0, 0, symmetry)

    # orient hot -> cold so one code path covers both gradient directions
    oriented = values if first > last else values[::-1]
    diffs = [b - a for a, b in zip(oriented, oriented[1:])]
    run_up = _longest_run([d > POPULATION_TOL for d in diffs])
    run_down = _longest_run([d < -POPULATION_TOL for d in diffs])
    peak = oriented.index(max(oriented))

    if run_up == n - 1:  # every step rises
        kind = POSITIVE
    elif peak in _middle_fifth(n) and symmetry >= SYMMETRY_THRESHOLD:
        kind = DELOCALIZED
    elif peak < n / 2 and all(d < -POPULATION_TOL for d in diffs[peak:]):
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


def _generator_bytes(liouv) -> int:
    return sum(block.nbytes for block in liouv.blocks) + sum(index.nbytes for index in liouv.indices)


def _read_point(tunneling: float, profile: LinearProfile, state) -> SweepPoint:
    """The sweep point of a solved chain, or of the error its solve raised.
    The solve has just checked the state in full, so its populations are
    read without a second check."""
    t_left, t_right = profile.t_left, profile.t_right
    try:
        if isinstance(state, Exception):
            raise state
        populations = _site_populations(state)
        verdict = classify(populations, profile)
    except (QThermoError, ValueError) as exc:
        return SweepPoint(tunneling, t_left, t_right, None, None, f"{type(exc).__name__}: {exc}")
    return SweepPoint(tunneling, t_left, t_right, populations, verdict, None)


def _linear_temperatures(ends: np.ndarray, n_sites: int) -> np.ndarray:
    """The site temperatures of a linear profile for every (t_left, t_right)
    row of ``ends``, each row bit for bit that of
    ``np.linspace(t_left, t_right, n_sites)``, as one array expression.

    This is numpy's linspace arithmetic for n_sites >= 2, row by row:
    i * step + t_left with step = (t_right - t_left) / (n_sites - 1), except
    that a row whose step is zero (a flat profile, or a step that underflows)
    takes (i / (n_sites - 1)) * (t_right - t_left) + t_left, and the last
    site is t_right.  numpy's own array linspace takes the second form for
    every row once one row needs it, which changes the other rows' last bits.
    """
    left, right = ends[:, :1], ends[:, 1:]
    div = n_sites - 1
    delta = right - left
    step = delta / div
    index = np.arange(n_sites, dtype=float)
    temperatures = index * step
    flat = step[:, 0] == 0
    if flat.any():
        temperatures[flat] = index / div * delta[flat]
    temperatures += left
    temperatures[:, -1] = right[:, 0]
    return temperatures


def population_sweep(
    base: ChainSpec,
    tunneling_values,
    temperature_pairs,
    freq_tol: float = DEFAULT_FREQ_TOL,
    points=(),
) -> list[SweepPoint]:
    """Steady-state solve over a (temperature pair) x (tunneling) grid,
    followed by the listed ``points``, each a (tunneling, (t_left, t_right))
    pair.

    Each point is ``base`` with its tunneling and temperature profile
    replaced by the point's values.  Rows come back in deterministic order:
    the grid first, temperature pairs outermost, then tunneling values, and
    then ``points`` as listed.  Failing points are annotated and do not
    abort the sweep.

    Each point's profile is checked, and the site temperatures of the
    points that pass are formed as one array (:func:`_linear_temperatures`).
    The baths are built and checked once per sweep, with the first
    Hamiltonian's system (:func:`chain_system`); every further distinct
    tunneling checks only its Hamiltonian and shares them.  The points are
    worked through tunneling by tunneling, so a system is dropped after the
    last of its points.  A Hamiltonian's points go to the generator builder
    (``davies._liouvillians``) in chunks, each one array expression for the
    rates and one scatter per plan and pattern of K, and a chunk holds no
    more points than fill ``SWEEP_BATCH_BYTES``, counted by the most bytes a
    generator of that Hamiltonian can take.  The generators are solved as
    one batch (``davies._steady_states``) once they hold
    ``SWEEP_BATCH_BYTES``, and at the end.  Each point's state, error and row
    are those of a build and a solve of the point alone.
    """
    swept = [(float(g), (float(pair[0]), float(pair[1]))) for pair in temperature_pairs for g in tunneling_values]
    swept += [(float(g), (float(pair[0]), float(pair[1]))) for g, pair in points]
    rows: list[SweepPoint | None] = [None] * len(swept)

    def fail(row: int, exc: Exception) -> None:
        tunneling, (t_left, t_right) = swept[row]
        rows[row] = SweepPoint(tunneling, t_left, t_right, None, None, f"{type(exc).__name__}: {exc}")

    profiles: dict[int, LinearProfile] = {}
    for row, (_, pair) in enumerate(swept):
        try:
            profiles[row] = LinearProfile(*pair)
        except (QThermoError, ValueError) as exc:
            fail(row, exc)
    # the row of each point's temperatures, in the order of ``profiles``
    at = {row: k for k, row in enumerate(profiles)}
    temperatures = _linear_temperatures(np.array([swept[row][1] for row in profiles]).reshape(-1, 2), base.n_sites)
    # the points of one tunneling share one system, built at the first of them
    # and dropped after the last; keyed on the exact bits, since -0.0 and 0.0
    # give Hamiltonians of other bytes
    by_tunneling: dict[str, list[int]] = {}
    for row in profiles:
        by_tunneling.setdefault(swept[row][0].hex(), []).append(row)
    batch: list[tuple[int, object]] = []
    held = 0
    first = None  # the first Hamiltonian's system, whose baths every other shares

    def solve_batch() -> None:
        for (row, _), state in zip(batch, _steady_states([liouv for _, liouv in batch])):
            rows[row] = _read_point(swept[row][0], profiles[row], state)
        batch.clear()

    for group in by_tunneling.values():
        try:
            spec = replace(base, tunneling=swept[group[0]][0], profile=profiles[group[0]])
            if first is None:
                system = first = chain_system(spec)
            else:
                system = first._with_hamiltonian(_chain_hamiltonian(spec))
            bound = _generator_bytes_bound(system, freq_tol)
        except (QThermoError, ValueError) as exc:
            for row in group:
                fail(row, exc)
            continue
        while group:
            # the fewest points that may fill the batch
            chunk = group[:max(1, -(-(SWEEP_BATCH_BYTES - held) // bound))]
            del group[:len(chunk)]
            try:
                liouvs = _liouvillians(system, temperatures[[at[row] for row in chunk]], freq_tol)
            except (QThermoError, ValueError) as exc:
                # beyond the structure, a build checks only the zero-frequency
                # rule, which H and the baths fix: each point fails alone so
                for row in chunk:
                    fail(row, exc)
                continue
            for row, liouv in zip(chunk, liouvs):
                batch.append((row, liouv))
                held += _generator_bytes(liouv)
            if held >= SWEEP_BATCH_BYTES:
                solve_batch()
                held = 0
    if batch:
        solve_batch()
    return rows


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
