"""Global (secular) thermal master equation for a discrete system with several baths.

The generator is built in the eigenbasis of the system Hamiltonian: every
bath coupling operator is decomposed into components oscillating at a single
transition frequency, and each component gets a thermal rate set by the
bath's spectral density and temperature.  At a uniform temperature this
construction relaxes any system to its Gibbs state, which the test suite uses
as an independent equilibrium oracle.

Block construction.  One eigendecomposition H = U diag(E) U^dagger gives
every bath coupling in the eigenbasis, C_k = U^dagger V_k U, the frequency
group G[i, j] of every difference E_j - E_i, and the rate R_k[i, j] of bath k
at that group.  Acting on the column-stacked eigenbasis state U^dagger rho U,
the generator has the entries

    L[(i, i'), (j, j')] = sum_k R_k[i, j] C_k[i, j] conj(C_k[i', j']) [G[i, j] = G[i', j']]
                          - (M[i, j] delta(i', j') + delta(i, j) M[j', i']) / 2
                          - i (E_i - E_i') delta(i, j) delta(i', j'),

with M = sum_k sum_w rate A_w^dagger A_w.  The secular generator commutes with
[H, .], so no entry couples two Bohr-frequency sectors, a sector being the
pairs (i, i') with one group label G[i, i'] (Davies, Commun. Math. Phys. 39,
91 (1974); Breuer & Petruccione, The Theory of Open Quantum Systems, section
3.3).  Most entries inside a sector are zero as well: in a chain each bath
couples one site, so C_k has 2N nonzero entries out of 4N^2.  The eigenbasis
model therefore holds C_k and the generator's jump entries as lists of
nonzero entries (bath, i, j, value), never as (K, d, d) arrays.  C_k is formed
from the nonzeros of V_k and the exact-zero supports of the rows of U (small
systems take the nonzeros of the dense product, which costs fewer numpy
calls).  The jump entries W_k[i, j] conj(C_k[i', j']), W_k = R_k C_k, come
from one join of the nonzeros of W_k and C_k on (bath, group), and the terms
of M_k are their population rows (i = i').  A term of M pairs two entries of
one row and one group, so K = -i diag(E) - M / 2 lies in the zero group and
rho -> K rho + rho K^dagger enters whole, as the Kronecker sum
1 kron K + conj(K) kron 1.  The blocks are the connected components of the
pattern these entries fill; no stored entry links two blocks, so the
singular values of L are those of the blocks together.  The blocks are
stacked by size: the steady state, the null vector of one block, comes from
one batched SVD per block size, and the lab-basis superoperator is formed
only when a caller reads it; nothing in the package does.  A system with no
exact zeros gets its sectors as blocks.

Heat currents.  J_k = -Tr[H D_k(rho)] reads the same population rows,
E_i W_k[i, j] conj(C_k[i, j']) times rho at (j, j'), and M_k, the loss
(E_a + E_b) M_k[a, b] / 2 times rho at (b, a).  The model keeps these
coefficients, so the currents are one gather from U^dagger rho U and one
sum per bath.

Reuse.  The eigendecomposition, the frequency groups, the entries of C_k and
their join on (bath, group) depend on H, the couplings and the grouping
tolerance alone, and a study runs one Hamiltonian at many bath temperatures.
They form a read-only structure, kept in one module-level cache keyed on the
exact bytes of the tolerance, H and the couplings (on the joined path, the
nonzeros of the couplings) and bounded by the bytes it holds
(``STRUCTURE_CACHE_BYTES``, least recently used out first).  A structure
keeps a plan per set of nonzero W_k entries, which changes only where a rate
vanishes (T = 0, or an occupation below the overflow cut): the pairs the join
selects and the places of the jump, decay and current entries.  A plan keeps
a layout per nonzero pattern of K: the components, where each entry lands in
the blocks and the stacks.  A new temperature then costs the rates, one
gather and multiply, and one scatter into the blocks, graded per call since
the grading reads the values.  Errors are unchanged: a structure whose
grouping checks fail is not kept, and the zero-frequency rule is decided on
every call from the kept magnitudes and the bath's density.

Time stepping.  One classic RK4 step of length h of the linear equation
d vec(rho)/dt = L vec(rho) is the matrix R(hL) = 1 + hL + (hL)^2/2 + (hL)^3/6
+ (hL)^4/24, the stability function of the method (Hairer & Wanner, Solving
Ordinary Differential Equations II, section IV.2).  R is a polynomial in L,
so in the eigenbasis it is block-diagonal with the blocks R(hB), and ``evolve``
runs the same integrator block by block, never forming the lab-basis
generator; only the rounding differs from a step-by-step loop on it.  The
start state is mapped once to U^dagger rho U, and every stack of blocks is
advanced on its own entries.  A grid interval is cut into n equal steps,
exactly as a step-by-step loop would.  For an interval length used often
enough that it pays, counted per stack (a uniform grid), the stack's
propagators R(hB)^n are built once and each interval costs one batched
product; other lengths are stepped on the state.  A 1 x 1 block (most
coherences between two levels are one) is a scalar: its entry at every grid
time is one cumulative product of the factors of the intervals before it.
The states are mapped back to the lab basis a chunk of times at a time, two
matrix products per chunk, and checked in one batched pass
(:func:`qthermo.linalg.screen_states`).

Sign and rate conventions:

* frequencies are energy differences E_j - E_i between eigenlevels;
* a component at frequency w > 0 removes the energy w from the system and
  carries rate J(w) (1 + n(w, T)); its adjoint partner at -w carries
  J(w) n(w, T);
* heat currents are positive when energy flows from the system into a bath.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .errors import (
    AccuracyError,
    AmbiguousGroupingError,
    InvariantViolationError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    SolverFailureError,
    UnsupportedModelError,
)
from .linalg import (
    components,
    stacked_order,
    devectorize,
    eigh,
    hermitize,
    require_density_matrix,
    require_hermitian,
    screen_states,
    vectorize,
)

DEFAULT_FREQ_TOL = 1e-8
# Grouping is unambiguous with a margin of this factor on both sides: the
# tolerance stays below a quarter of the smallest level spacing, and a group
# spreads over at most a quarter of the tolerance.  A wider group holds
# differences that only rounding would put together, or distinct frequencies
# that the tolerance merged.
GROUPING_MARGIN = 4.0
# Couplings are order-one matrices; below this the zero-frequency component
# counts as absent and no rate is needed for it.
ZERO_COMPONENT_ATOL = 1e-10
# Up to this many entries in the stacked (K, d, d) couplings, C_k is formed by
# dense products, where a few numpy calls beat the entry joins (17 against
# 93 us for two baths at d = 4).  The two are even near K d^2 = 7000, a
# 12-site chain, and the joins win beyond: 1.2 against 3.0 ms for the whole
# model at 20 sites.
DENSE_PRODUCT_ENTRIES = 4096
NULL_SPACE_RTOL = 1e-10
STEADY_RESIDUAL_RTOL = 1e-9
TRACE_DRIFT_TOL = 1e-7
EVOLUTION_HERMITICITY_ATOL = 1e-10
EVOLUTION_POSITIVITY_FLOOR = -1e-7
# Entries of the lab-basis states mapped back from the eigenbasis per chunk
# of a trajectory.  Mapping the 4001-state lambda trajectory of the
# small_systems benchmark in one piece wakes OpenBLAS's second thread on its
# 12003 x 3 product (op_cpu_ms 283-300 against 171-211 ms chunked, 2 vCPUs)
# and adds 1.6 MiB to the peak RSS (39.6 against 38.0 MiB); the wall time is
# the same.
LAB_MAP_CHUNK_ENTRIES = 8192
# RK4 steps per grid interval.  The rounding of R(hB)^n grows about linearly
# with n: over one unit of time on the lambda system the trace drifts by 3e-9
# at 1e8 steps and by 2e-7, beyond TRACE_DRIFT_TOL, at 1e10, and a step of
# 1e-300 would ask for 1e300.
MAX_EVOLVE_SUBSTEPS = 10**8
# Bytes of the arrays, keys included, that the eigenbasis structures kept
# across systems may hold together ("Reuse" in the module docstring).  A chain
# structure with its plan and layout holds 0.13 MiB at 10 sites, 0.6 MiB at
# 30, 6.8 MiB at 100 and 15.3 MiB at 150, so one chain of up to about 200
# sites is kept, and hundreds of the paper's 10-site chains.
STRUCTURE_CACHE_BYTES = 32 * 2**20


@dataclass(frozen=True)
class FlatDensity:
    """Frequency-independent spectral density J(w) = rate."""

    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise InvariantViolationError(
                f"flat spectral density needs a finite rate > 0, got {self.rate}"
            )

    def value(self, omega: float) -> float:
        return self.rate


@dataclass(frozen=True)
class OhmicDensity:
    """Linear spectral density J(w) = slope * w for w > 0."""

    slope: float

    def __post_init__(self):
        if not 0 < self.slope < math.inf:
            raise InvariantViolationError(
                f"ohmic spectral density needs a finite slope > 0, got {self.slope}"
            )

    def value(self, omega: float) -> float:
        return self.slope * omega


SpectralDensity = Union[FlatDensity, OhmicDensity]


def _frozen(a: np.ndarray) -> np.ndarray:
    copy = a.copy()
    copy.flags.writeable = False
    return copy


@dataclass(frozen=True)
class BathSpec:
    """One thermal reservoir: coupling operator, spectral density, temperature."""

    coupling: np.ndarray
    spectral: SpectralDensity
    temperature: float

    def __post_init__(self):
        coupling = _frozen(require_hermitian(self.coupling, name="bath coupling"))
        object.__setattr__(self, "coupling", coupling)
        if not 0 <= self.temperature < math.inf:
            raise InvariantViolationError(
                f"bath temperature must be finite and >= 0, got {self.temperature}"
            )


@dataclass(frozen=True)
class OpenSystem:
    """System Hamiltonian plus an ordered list of baths.

    The arrays are read-only copies, so the eigenbasis models kept in
    ``_models`` (one per grouping tolerance, built on first use) cannot go
    stale.
    """

    hamiltonian: np.ndarray
    baths: tuple[BathSpec, ...]
    _models: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        h = _frozen(require_hermitian(self.hamiltonian, name="hamiltonian"))
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "baths", tuple(self.baths))
        for k, bath in enumerate(self.baths):
            if bath.coupling.shape != h.shape:
                raise InvariantViolationError(
                    f"bath {k} coupling shape {bath.coupling.shape} differs from hamiltonian {h.shape}"
                )

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def bose_occupation(omega: float, temperature: float) -> float:
    """Mean excitation number 1/(exp(omega/T) - 1); zero at T = 0."""
    if not 0 < omega < math.inf:
        raise ValueError(f"bose_occupation needs omega > 0, got {omega}")
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")
    if temperature == 0:
        return 0.0
    x = omega / temperature
    if x > 700:  # exp would overflow; the occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def thermal_rate(spectral: SpectralDensity, omega: float, temperature: float) -> float:
    """Rate attached to a nonzero-frequency component: emission for omega > 0,
    absorption for omega < 0."""
    if omega > 0:
        return spectral.value(omega) * (1.0 + bose_occupation(omega, temperature))
    if omega < 0:
        return spectral.value(-omega) * bose_occupation(-omega, temperature)
    raise ValueError("thermal_rate is undefined at omega = 0; handled by the grouping code")


def _check_grouping_tolerance(energies: np.ndarray, freq_tol: float) -> None:
    if not freq_tol > 0:
        raise ValueError(f"frequency grouping tolerance must be > 0, got {freq_tol}")
    spacings = np.diff(np.sort(energies))
    nonzero = spacings[spacings > freq_tol]
    if nonzero.size and freq_tol >= nonzero.min() / GROUPING_MARGIN:
        raise AmbiguousGroupingError(
            f"grouping tolerance {freq_tol:.3e} is not below a quarter of the minimum "
            f"nonzero level spacing {nonzero.min():.3e}"
        )


def _frequency_groups(energies: np.ndarray, freq_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster all pairwise energy differences (diagonal included) into groups
    separated by more than ``freq_tol``; a group that spreads over more than
    ``freq_tol / GROUPING_MARGIN`` raises AmbiguousGroupingError.

    Returns the group representatives, ascending (the group means, made
    exactly symmetric under negation, with the group containing zero pinned
    to exactly zero), and ``labels[i, j]``, the group of E_j - E_i.
    """
    diffs = (energies[None, :] - energies[:, None]).reshape(-1)
    order = diffs.argsort(kind="stable")
    ranked = diffs[order]
    # a group opens at the first difference and after every gap above
    # freq_tol; the closing flag at the end marks the last group's end
    opens = np.ones(ranked.size + 1, dtype=bool)
    np.greater(ranked[1:] - ranked[:-1], freq_tol, out=opens[1:-1])
    bounds = opens.nonzero()[0]
    starts, ends = bounds[:-1], bounds[1:]
    means = np.add.reduceat(ranked, starts) / (ends - starts)
    spreads = ranked[ends - 1] - ranked[starts]
    wide = (spreads > freq_tol / GROUPING_MARGIN).nonzero()[0]
    if wide.size:
        raise AmbiguousGroupingError(
            f"frequency cluster around {means[wide[0]]:.6g} has spread {spreads[wide[0]]:.3e} "
            f"beyond a quarter of the grouping tolerance {freq_tol:.3e}"
        )
    # Float subtraction is antisymmetric, so the sorted differences and their
    # clusters mirror exactly under negation: group n pairs with group
    # len - 1 - n.  Force representatives to be exactly closed under negation;
    # the zero group, its own partner at the middle, becomes exactly zero.
    frequencies = 0.5 * (means - means[::-1])
    labels = np.empty(diffs.size, dtype=np.intp)
    labels[order] = opens[:-1].cumsum() - 1
    return frequencies, labels.reshape(energies.size, energies.size)


def _thermal_rates(
    spectral: SpectralDensity, omega: np.ndarray, temperature: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`thermal_rate` at every frequency w > 0 of an array and at its
    negative, emission and absorption, in one array expression each."""
    if temperature == 0:
        occupation = np.zeros_like(omega)
    else:
        # the occupation is 0 above x = omega / T = 700, where exp overflows
        cap = 700.0 * temperature
        occupation = np.where(omega > cap, 0.0, 1.0 / np.expm1(np.minimum(omega, cap) / temperature))
    density = spectral.value(omega)
    return density * (1.0 + occupation), density * occupation


class _Entries(NamedTuple):
    """Entries of one matrix per bath, as parallel arrays: ``values[e]`` sits
    at (``rows[e]``, ``cols[e]``) of the matrix of bath ``bath[e]``.  Entries
    with one key add."""

    bath: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The index of the first of every run of equal keys."""
    opens = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=opens[1:])
    return opens.nonzero()[0]


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the values of each."""
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    starts = _run_starts(ranked)
    return ranked[starts], np.add.reduceat(values[order], starts)


def _dense_coupling_entries(states: np.ndarray, stacked: np.ndarray) -> _Entries:
    """The nonzero entries of every C_k = U^dagger V_k U, from the dense
    products with the stacked (K, d, d) couplings, where numpy's per-call
    cost rules (``DENSE_PRODUCT_ENTRIES``)."""
    couplings = states.conj().T @ stacked @ states
    bath, rows, cols = np.nonzero(couplings)
    return _Entries(bath, rows, cols, couplings[bath, rows, cols])


def _coupling_nonzeros(baths: tuple[BathSpec, ...]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzeros of every V_k as (rows, cols, values), row by row."""
    nonzeros = []
    for bath in baths:
        rows, cols = np.nonzero(bath.coupling)
        nonzeros.append((rows, cols, bath.coupling[rows, cols]))
    return nonzeros


def _joined_coupling_entries(states: np.ndarray, nonzeros) -> _Entries:
    """The nonzero entries of every C_k = U^dagger V_k U, from the nonzeros of
    the V_k (:func:`_coupling_nonzeros`) and of U.

    First T_k = V_k U, one dense row per nonzero row of V_k, then
    C_k = U^dagger T_k from the nonzeros of the T_k joined with those of U on
    the inner index, the terms of one entry summed.  An entry (i, j) of C_k
    is formed only where the supports of the rows of U, the exact zeros of
    the eigenvectors, allow one, and entries that come out exactly zero are
    dropped, as the zeros of the dense product would be.  A chain bath (two
    nonzeros in V_k) gives 2N entries; a system without exact zeros gets full
    supports, at K d^3 work and memory.
    """
    dim = states.shape[0]
    empty = [np.empty(0, dtype=np.intp)]
    v_row = np.concatenate([rows for rows, _, _ in nonzeros] or empty)
    v_col = np.concatenate([cols for _, cols, _ in nonzeros] or empty)
    v_val = np.concatenate([values for _, _, values in nonzeros] or empty)
    # np.nonzero runs row by row, so the entries of one row of one V_k are a run
    v_key = np.repeat(np.arange(len(nonzeros)), [rows.size for rows, _, _ in nonzeros]) * dim + v_row
    starts = _run_starts(v_key)
    t_dense = np.add.reduceat(v_val[:, None] * states[v_col], starts, axis=0)
    t_run, t_col = np.nonzero(t_dense)
    t_bath, t_row = np.divmod(v_key[starts][t_run], dim)
    # C[k, i, j] = sum_a conj(U[a, i]) T[k, a, j]
    u_row, u_col = np.nonzero(states)
    t, u = _equal_key_pairs(t_row, u_row)
    c_key, c_val = _summed(
        (t_bath[t] * dim + u_col[u]) * dim + t_col[t],
        states[u_row[u], u_col[u]].conj() * t_dense[t_run[t], t_col[t]],
    )
    kept = c_val != 0
    return _Entries(*np.unravel_index(c_key[kept], (len(nonzeros), dim, dim)), c_val[kept])


def _seal(*arrays: np.ndarray) -> int:
    """Make arrays read-only in place; returns the bytes they hold."""
    for a in arrays:
        a.setflags(write=False)
    return sum(a.nbytes for a in arrays)


class _Key(tuple):
    """A structure's cache key (tolerance, H bytes, coupling bytes): equal
    only to a key with the same bytes, but hashed on the tolerance and H
    alone.  Hashing the 64 KB of a 10-site chain's stacked couplings takes
    27 us on every call, about a quarter of a warm model build."""

    def __hash__(self):
        return hash(self[:2])


class _StructureCache:
    """The eigenbasis structures built so far, least recently used first.

    The bytes of the arrays they hold, keys, plans and layouts included, stay
    within ``limit``: a structure that would exceed it alone is not kept, and
    the least recently used ones make room for the rest.  Builds run outside
    the lock; the first of two racing builds is kept and counted.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.kept: OrderedDict = OrderedDict()
        self.nbytes = 0
        self.lock = threading.Lock()

    def structure(self, key: _Key, build) -> _Structure:
        """The structure kept under ``key``, or ``build()`` kept there."""
        with self.lock:
            structure = self.kept.get(key)
            if structure is not None:
                self.kept.move_to_end(key)
                return structure
        built = build()
        with self.lock:
            structure = self.kept.get(key)
            if structure is not None:
                return structure
            if built.nbytes <= self.limit:
                self.kept[key] = built
                self.nbytes += built.nbytes
                self._trim()
        return built

    def part(self, structure: _Structure, table: dict, key: bytes, build):
        """``table[key]``, a plan of the structure or a layout of one of its
        plans, or ``build()`` put there and counted on the structure."""
        part = table.get(key)
        if part is not None:
            return part
        built = build()
        with self.lock:
            part = table.setdefault(key, built)
            if part is not built:
                return part
            nbytes = len(key) + built.nbytes
            structure.nbytes += nbytes
            if self.kept.get(structure.key) is structure:
                self.nbytes += nbytes
                if structure.nbytes > self.limit:
                    del self.kept[structure.key]
                    self.nbytes -= structure.nbytes
                self._trim()
        return built

    def _trim(self) -> None:
        while self.nbytes > self.limit:
            _, structure = self.kept.popitem(last=False)
            self.nbytes -= structure.nbytes

    def clear(self) -> None:
        with self.lock:
            self.kept.clear()
            self.nbytes = 0


_STRUCTURES = _StructureCache(STRUCTURE_CACHE_BYTES)


@dataclass(eq=False)
class _Structure:
    """What the Hamiltonian, the couplings and the grouping tolerance fix of
    the eigenbasis model, whatever the temperatures and spectral densities.

    ``labels[i, j]`` indexes ``frequencies`` with the group of E_j - E_i;
    ``coupling`` holds the nonzeros of C_k = U^dagger V_k U and
    ``entry_labels`` the group of each.  ``zero_magnitude[k]`` is the largest
    |C_k| entry in the zero group, and ``above_atol`` flags the entries above
    ``ZERO_COMPONENT_ATOL``.  ``pairs`` joins every entry with every entry of
    its bath and group, ordered by the first and then the second.  ``plans``
    holds a :class:`_Plan` per set of nonzero W_k entries.  Every array is
    read-only; ``nbytes`` counts them, the key and the plans.
    """

    key: tuple
    energies: np.ndarray
    states: np.ndarray
    frequencies: np.ndarray
    labels: np.ndarray
    coupling: _Entries
    entry_labels: np.ndarray
    zero_magnitude: np.ndarray
    above_atol: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]
    nbytes: int = 0
    plans: dict = field(default_factory=dict)


class _Plan(NamedTuple):
    """Where the generator's jump, decay and current entries come from, for
    one set of nonzero W_k = R_k C_k entries; every value is a product of a
    per-call W entry and a kept factor.

    ``jumps`` holds the jump entries' places and the factor conj(C) of each,
    whose W entry is ``w``; the decay terms are the jumps at ``population``,
    conjugated, at ``decay``'s places, and ``damping_at`` is their flat index
    in M.  ``currents`` holds the current entries' places and energy factors,
    for the population jumps and then the decay terms.  ``layouts`` holds a
    :class:`_Layout` per nonzero pattern of K = -i diag(E) - M / 2.
    """

    w: np.ndarray
    jumps: _Entries
    population: np.ndarray
    decay: _Entries
    damping_at: np.ndarray
    currents: _Entries
    nbytes: int
    layouts: dict


class _Layout(NamedTuple):
    """The generator's blocks for one plan and one pattern of K: entry e
    lands at ``target[e]`` of the row-major blocks laid end to end, ``total``
    entries long, and each stack is (``first``, ``index``), its first entry
    there and its (count, m) generator indices, ungraded."""

    target: np.ndarray
    total: int
    stacks: tuple[tuple[int, np.ndarray], ...]
    nbytes: int


@dataclass(frozen=True)
class _EigenModel:
    """An open system in the eigenbasis of its Hamiltonian, at one grouping
    tolerance; the generator and the heat currents read it.  It holds no
    (K, d, d) array.

    The temperature-free part is the shared :class:`_Structure`, and the
    entries' places are the shared :class:`_Plan`'s.  ``group_rates[k, n]``
    is the rate of bath k at group n.  The per-bath matrices are entry lists
    (:class:`_Entries`): ``jumps`` the entries of the map
    rho -> sum_w rate A_w rho A_w^dagger at the column-stacked generator
    indices (row, col), and ``decay`` the terms of
    M_k = sum_w rate A_w^dagger A_w.  ``currents`` holds the coefficients of
    the heat currents: J_k is the sum over the entries of bath k of the value
    times the eigenbasis state U^dagger rho U at (row, col).  ``max_rate`` is
    the largest rate of a component above ``ZERO_COMPONENT_ATOL``.
    """

    structure: _Structure
    plan: _Plan
    group_rates: np.ndarray
    jumps: _Entries
    decay: _Entries
    currents: _Entries
    max_rate: float


def _eigen_model(system: OpenSystem, freq_tol: float) -> _EigenModel:
    """The system's eigenbasis model, built on first use and kept on the system."""
    model = system._models.get(freq_tol)
    if model is None:
        model = system._models[freq_tol] = _build_eigen_model(system, freq_tol)
    return model


def _structure(system: OpenSystem, freq_tol: float) -> _Structure:
    """The system's structure, from the cache or built and kept there.

    The key is exact: the tolerance, the bytes of H, and the bytes of the
    stacked couplings or, on the joined path, of the (rows, cols, values) of
    their nonzeros, which the join reads anyway.  A structure whose build
    fails is not kept.
    """
    dim = system.dim
    if len(system.baths) * dim * dim > DENSE_PRODUCT_ENTRIES:
        couplings = _coupling_nonzeros(system.baths)
        coupling_key = tuple(a.tobytes() for triple in couplings for a in triple)
    else:
        couplings = np.array([bath.coupling for bath in system.baths], dtype=complex).reshape(-1, dim, dim)
        coupling_key = couplings.tobytes()
    key = _Key((freq_tol, system.hamiltonian.tobytes(), coupling_key))
    return _STRUCTURES.structure(key, lambda: _build_structure(system, freq_tol, key, couplings))


def _build_structure(system: OpenSystem, freq_tol: float, key: _Key, couplings) -> _Structure:
    """Decompose H, group its transition frequencies, form the coupling
    entries, from the stacked couplings or their nonzeros, and join those of
    one bath and one group."""
    eig = eigh(system.hamiltonian)
    energies, states = eig.energies, eig.states
    _check_grouping_tolerance(energies, freq_tol)
    frequencies, labels = _frequency_groups(energies, freq_tol)
    n_groups = frequencies.size
    coupling = (_dense_coupling_entries(states, couplings) if isinstance(couplings, np.ndarray)
                else _joined_coupling_entries(states, couplings))
    entry_labels = labels[coupling.rows, coupling.cols]
    magnitude = np.abs(coupling.values)
    # the groups mirror under negation about the zero group, at the middle
    at_zero = entry_labels == n_groups // 2
    zero_magnitude = np.zeros(len(system.baths))
    np.maximum.at(zero_magnitude, coupling.bath[at_zero], magnitude[at_zero])
    above_atol = magnitude > ZERO_COMPONENT_ATOL
    group_key = coupling.bath * n_groups + entry_labels
    pairs = _equal_key_pairs(group_key, group_key)
    nbytes = _seal(energies, states, frequencies, labels, *coupling, entry_labels, zero_magnitude,
                   above_atol, *pairs)
    coupling_key = key[2]
    key_bytes = len(key[1]) + (len(coupling_key) if isinstance(coupling_key, bytes)
                               else sum(map(len, coupling_key)))
    return _Structure(
        key=key,
        energies=energies,
        states=states,
        frequencies=frequencies,
        labels=labels,
        coupling=coupling,
        entry_labels=entry_labels,
        zero_magnitude=zero_magnitude,
        above_atol=above_atol,
        pairs=pairs,
        nbytes=nbytes + key_bytes,
    )


def _build_plan(structure: _Structure, rated: np.ndarray) -> _Plan:
    """Pairs of one bath and one group, the secular condition: a W entry
    (i, j) and a C entry (i', j') give W[i, j] conj(C[i', j']), the
    generator's entry at ((i, i'), (j, j')).  In a population row (r, r) the
    pair (r, a), (r, b) gives p = W[r, a] conj(C[r, b]) at the column (a, b),
    and the conjugates of these sum to M_k[a, b], since (A_w^dagger A_w)[a, b]
    pairs (r, a) and (r, b) of the group of w."""
    coupling = structure.coupling
    energies = structure.energies
    dim = energies.size
    w, c = structure.pairs
    if not rated.all():
        kept = rated[w]
        w, c = w[kept], c[kept]
    bath, i, j = coupling.bath[w], coupling.rows[w], coupling.cols[w]
    i2, j2 = coupling.rows[c], coupling.cols[c]
    jumps = _Entries(bath, i + dim * i2, j + dim * j2, coupling.values[c].conj())
    population = np.flatnonzero(i == i2)
    bath, row, a, b = bath[population], i[population], j[population], j2[population]
    # J_k = -Tr[H D_k(rho)]: the gain -E_r p rho[a, b] of the population rows,
    # and the loss (E_a + E_b) / 2 M_k[a, b] rho[b, a] of (M_k rho + rho M_k) / 2
    currents = _Entries(
        np.concatenate((bath, bath)),
        np.concatenate((a, b)),
        np.concatenate((b, a)),
        np.concatenate((-energies[row], 0.5 * (energies[a] + energies[b]))),
    )
    damping_at = a * dim + b
    nbytes = _seal(w, *jumps, population, bath, a, b, damping_at, *currents)
    return _Plan(w, jumps, population, _Entries(bath, a, b, None), damping_at, currents, nbytes, {})


def _build_eigen_model(system: OpenSystem, freq_tol: float) -> _EigenModel:
    """Attach the baths' rates to the system's structure.

    The zero-frequency component is always examined: if it vanishes its rate
    is zero, if not the rate is slope * T for an ohmic density while a flat
    density makes the zero-frequency rate diverge and raises
    UnsupportedModelError.
    """
    structure = _structure(system, freq_tol)
    n_groups = structure.frequencies.size
    zero_label = n_groups // 2
    positive = structure.frequencies[zero_label + 1:]
    group_rates = np.zeros((len(system.baths), n_groups))
    for k, bath in enumerate(system.baths):
        emission, absorption = _thermal_rates(bath.spectral, positive, bath.temperature)
        group_rates[k, zero_label + 1:] = emission
        group_rates[k, :zero_label] = absorption[::-1]
        magnitude = structure.zero_magnitude[k]
        if magnitude > ZERO_COMPONENT_ATOL:
            if not isinstance(bath.spectral, OhmicDensity):
                raise UnsupportedModelError(
                    f"bath {k}: zero-frequency coupling component of magnitude "
                    f"{magnitude:.3e} with a flat spectral density has a diverging rate; "
                    "use an ohmic density or a model whose zero-frequency component vanishes"
                )
            group_rates[k, zero_label] = bath.spectral.slope * bath.temperature
    coupling = structure.coupling
    rates = group_rates[coupling.bath, structure.entry_labels]
    max_rate = float(rates[structure.above_atol].max(initial=0.0))
    w_val = rates * coupling.values
    rated = w_val != 0
    plan = _STRUCTURES.part(structure, structure.plans, rated.tobytes(),
                            lambda: _build_plan(structure, rated))
    values = w_val[plan.w] * plan.jumps.values
    p = values[plan.population]
    decay = p.conj()
    return _EigenModel(
        structure=structure,
        plan=plan,
        group_rates=group_rates,
        jumps=plan.jumps._replace(values=values),
        decay=plan.decay._replace(values=decay),
        currents=plan.currents._replace(values=plan.currents.values * np.concatenate((p, decay))),
        max_rate=max_rate,
    )


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Generator of the master equation, held as dense blocks stacked by size.

    ``blocks[n]`` has shape (count, m, m): ``count`` blocks of one size m,
    block c acting on the column-stacked entries ``indices[n][c]`` of the
    matrices it maps, written in the orthonormal ``basis`` (column i is basis
    vector i).  No entry of the generator links two blocks, every index lies
    in exactly one block, and within a block the indices run by decreasing
    magnitude of their diagonal entry.  ``basis`` is read-only: generators of
    one Hamiltonian and set of couplings share it (see "Reuse" in the module
    docstring).  ``matrix`` is the column-stacking superoperator in the lab
    basis, d^2 x d^2, formed from the blocks only when a caller reads it;
    :func:`evolve` and :func:`steady_state` work on the blocks.
    """

    dim: int
    default_dt: float
    basis: np.ndarray
    indices: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        size = self.dim * self.dim
        in_basis = np.zeros((size, size), dtype=complex)
        for index, stack in zip(self.indices, self.blocks):
            in_basis[index[:, :, None], index[:, None, :]] = stack
        # vec(U X U^dagger) = (conj(U) kron U) vec(X)
        change = np.kron(self.basis.conj(), self.basis)
        return change @ in_basis @ change.conj().T

    def apply(self, m) -> np.ndarray:
        """Action on a matrix: devectorize(matrix @ vectorize(m))."""
        return devectorize(self.matrix @ vectorize(m))


def _equal_key_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) with left[a] == right[b], as two index arrays,
    ordered by a and then by b, so sums over the pairs add in an order that
    does not depend on the sorting algorithm."""
    order = right.argsort(kind="stable")
    ranked = right[order]
    lo = ranked.searchsorted(left, side="left")
    count = ranked.searchsorted(left, side="right") - lo
    starts = np.cumsum(count) - count
    a = np.repeat(np.arange(left.size), count)
    b = order[np.repeat(lo - starts, count) + np.arange(a.size)]
    return a, b


def liouvillian(system: OpenSystem, freq_tol: float = DEFAULT_FREQ_TOL) -> Liouvillian:
    """Build the generator, coherent commutator plus one dissipator per bath
    and transition frequency, from its nonzero entries in the eigenbasis and
    split into the connected components of their pattern (see the module
    docstring).  The jump entries are the model's; the coherent and damping
    part is added as a Kronecker sum."""
    model = _eigen_model(system, freq_tol)
    dim = system.dim
    size = dim * dim
    energies = model.structure.energies

    # rho -> K rho + rho K^dagger, K = -i diag(E) - M / 2, is 1 kron K + conj(K) kron 1
    # in column stacking: K[i, j] at ((i, l), (j, l)) and conj(K[i, j]) at
    # ((l, i), (l, j)) for every level l; K lies in the zero group (module docstring)
    plan = model.plan
    at = plan.damping_at
    decay = model.decay
    damping = -0.5 * (np.bincount(at, weights=decay.values.real, minlength=size)
                      + 1j * np.bincount(at, weights=decay.values.imag, minlength=size))
    damping[::dim + 1] -= 1j * energies
    k_at = np.flatnonzero(damping)
    layout = _STRUCTURES.part(model.structure, plan.layouts, k_at.tobytes(),
                              lambda: _build_layout(plan.jumps, k_at, dim))
    k_val = damping[k_at]
    values = np.concatenate((model.jumps.values, np.repeat(k_val, dim), np.repeat(k_val.conj(), dim)))
    flat = np.bincount(layout.target, weights=values.real, minlength=layout.total) + 1j * np.bincount(
        layout.target, weights=values.imag, minlength=layout.total
    )
    indices, blocks = [], []
    for first, index in layout.stacks:
        count, m = index.shape
        stack = flat[first:first + count * m * m].reshape(-1, m, m)
        if m > 1:
            # Grade every block, largest diagonal entries first.  A symmetric
            # permutation keeps the singular values, and the SVD's null
            # vector of a rate matrix whose rates span many decades is far
            # more accurate in this order (1e-15 against 1e-10 for a cold
            # chain at weak tunneling).
            grade = (-abs(stack.diagonal(axis1=1, axis2=2))).argsort(axis=1, kind="stable")
            block = np.arange(count)[:, None]
            index = index[block, grade]
            stack = stack[block[:, :, None], grade[:, :, None], grade[:, None, :]]
        indices.append(index)
        blocks.append(stack)

    # the energies ascend, so the spectral norm of H sits at an end
    spectral_norm_h = float(max(-energies[0], energies[-1])) if dim else 0.0
    scale = model.max_rate + spectral_norm_h
    default_dt = 0.01 / scale if scale > 0 else math.inf
    return Liouvillian(
        dim=dim,
        default_dt=default_dt,
        basis=model.structure.states,
        indices=tuple(indices),
        blocks=tuple(blocks),
    )


def _build_layout(jumps: _Entries, k_at: np.ndarray, dim: int) -> _Layout:
    """Where the jump entries and the Kronecker sum of K land in the blocks:
    the components of their pattern, stacked by size."""
    size = dim * dim
    k_row, k_col = np.divmod(k_at, dim)
    levels = np.arange(dim)
    rows = np.concatenate((jumps.rows, (k_row[:, None] + dim * levels).ravel(),
                           (dim * k_row[:, None] + levels).ravel()))
    cols = np.concatenate((jumps.cols, (k_col[:, None] + dim * levels).ravel(),
                           (dim * k_col[:, None] + levels).ravel()))

    # indices ordered by (component size, component, index): every stack, and
    # every block within it, is a contiguous run that starts at the block's
    # smallest index, its root; the blocks are laid out row-major one after
    # another
    root = components(size, rows, cols)
    order, sorted_extent, edges = stacked_order(root)
    place = np.empty(size, dtype=np.intp)
    place[order] = np.arange(size)
    within = place - place[root]
    # flat offset of each index's row in the concatenated row-major blocks
    row_start = (np.cumsum(sorted_extent) - sorted_extent)[place - within] + within * sorted_extent[place]
    target = row_start[rows] + within[cols]
    stacks = tuple(
        (int(row_start[order[lo]]), order[lo:hi].reshape(-1, int(sorted_extent[lo])))
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    nbytes = _seal(target, order)
    return _Layout(target, int(sorted_extent.sum()), stacks, nbytes)


def _rk4_step(matrix: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """R(hL) x for one classic RK4 step of length h, by Horner's rule:
    x + hL (x + hL/2 (x + hL/3 (x + hL/4 x))).  With x a state vector this is
    one step; with x the identity it is the matrix R(hL).  ``matrix`` may be
    a stack of blocks."""
    stage = x + (h / 4.0) * (matrix @ x)
    for divisor in (3.0, 2.0, 1.0):
        stage = x + (h / divisor) * (matrix @ stage)
    return stage


def _propagator_pays(n_sub: int, uses: int, size: int) -> bool:
    """Whether R(hB)^n_sub for an interval length takes fewer multiply-adds to
    build and apply than stepping, for a stack of size x size blocks B.  The
    power costs 4 products of size x size matrices for R(hB), floor(log2 n)
    squarings and popcount(n) - 1 further products, then one matrix-vector
    product per use; stepping costs four matrix-vector products per substep
    per use.  All of these count once per block of the stack, so the rule
    reads only the size."""
    products = 4 + (n_sub.bit_length() - 1) + (n_sub.bit_count() - 1)
    return products * size + uses <= 4 * n_sub * uses


def _stack_path(stack: np.ndarray, start: np.ndarray, lengths: list[float], substeps: list[int],
                uses: list[int], interval_length: np.ndarray) -> np.ndarray:
    """The entries of one stack of generator blocks at every grid time, shape
    (count, m, times), from their values ``start`` (count, m) at the first.

    Interval i has the length ``lengths[interval_length[i]]``, cut into that
    length's ``substeps``.  A length gets the propagator R(hB)^n of every
    block where :func:`_propagator_pays`, and is stepped on the state
    elsewhere.  A 1 x 1 block is a scalar: its propagator is one number,
    built for every length (its step and its propagator are the same
    polynomial), and the entry at each time is the product of the start and
    the factors of the intervals before it, one cumulative product.
    """
    count, size = start.shape
    identity = np.eye(size, dtype=complex)
    propagators = [
        np.linalg.matrix_power(_rk4_step(stack, span / n_sub, identity), n_sub)
        if size == 1 or _propagator_pays(n_sub, used, size) else None
        for span, n_sub, used in zip(lengths, substeps, uses)
    ]
    if size == 1:
        factors = np.array(propagators, dtype=complex).reshape(len(lengths), count)
        path = np.empty((interval_length.size + 1, count), dtype=complex)
        path[0] = start[:, 0]
        # mode="clip" writes straight into ``path`` (the indices are in range)
        np.take(factors, interval_length, axis=0, out=path[1:], mode="clip")
        return np.cumprod(path, axis=0, out=path).T[:, None, :]
    path = np.empty((interval_length.size + 1, count, size, 1), dtype=complex)
    path[0] = start[:, :, None]
    for i, k in enumerate(interval_length.tolist(), start=1):
        propagator = propagators[k]
        if propagator is None:
            state = path[i - 1]
            h = lengths[k] / substeps[k]
            for _ in range(substeps[k]):
                state = _rk4_step(stack, h, state)
            path[i] = state
        else:
            np.matmul(propagator, path[i - 1], out=path[i])
    return path[:, :, :, 0].transpose(1, 2, 0)


def _lab_states(basis: np.ndarray, indices: tuple[np.ndarray, ...], paths: list[np.ndarray]) -> np.ndarray:
    """The lab-basis states U X U^dagger of a trajectory whose eigenbasis
    states X are given stack by stack (:func:`_stack_path`) at the
    column-stacked ``indices``.  Each chunk of states is laid out side by
    side, X[i, t, i'], and mapped by two matrix products, so a chunk costs a
    few numpy calls whatever its number of states, and the temporaries and
    the BLAS products stay near ``LAB_MAP_CHUNK_ENTRIES`` entries."""
    dim = basis.shape[0]
    times = paths[0].shape[-1]
    places = [np.divmod(index, dim) for index in indices]
    adjoint = basis.conj().T
    out = np.empty((times, dim, dim), dtype=complex)
    chunk = max(1, LAB_MAP_CHUNK_ENTRIES // (dim * dim))
    for lo in range(0, times, chunk):
        hi = min(lo + chunk, times)
        states = np.empty((dim, hi - lo, dim), dtype=complex)
        for (cols, rows), path in zip(places, paths):
            states[rows, :, cols] = path[:, :, lo:hi]
        # U X[t] at [b, t, i'], then (U X[t]) U^dagger at [b, t, c]
        left = basis @ states.reshape(dim, -1)
        out[lo:hi] = (left.reshape(-1, dim) @ adjoint).reshape(dim, hi - lo, dim).swapaxes(0, 1)
    return out


def evolve(
    liouv: Liouvillian,
    rho0,
    t_grid,
    dt: float | None = None,
    validate: bool = True,
) -> np.ndarray:
    """Integrate the master equation with classic fixed-step fourth-order
    Runge-Kutta, returning one state per grid time.

    ``rho0`` is the state at ``t_grid[0]``.  Each interval is subdivided so no
    step exceeds ``dt`` (default chosen at generator build time from the
    largest rate and the Hamiltonian norm).  One RK4 step of length h maps the
    state through R(hL) = 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so an
    interval of n equal steps is the propagator R(hL)^n.  R is a polynomial,
    so it acts block by block in the eigenbasis: the state is mapped once to
    U^dagger rho0 U and every stack of generator blocks is advanced on its
    own entries (see the module docstring).  Within a stack, an interval
    length whose uses cost more step by step than building R(hB)^n does
    (counted in multiply-adds) gets the propagator, built once and applied
    with one batched product per interval; any other length is stepped on
    the state, four batched products per step.  The lab-basis generator is
    never formed.  Trace drift beyond 1e-7, an entry of magnitude above
    1 + 1e-7 (which no density matrix has, so an unstable step shows before
    its trace drifts) or non-finite entries raise AccuracyError suggesting a
    smaller step, naming the first grid time that fails.  A step that asks
    for more than ``MAX_EVOLVE_SUBSTEPS`` steps in one interval raises
    ValueError before any work, as a step <= 0 does.
    """
    rho = require_density_matrix(rho0)
    if rho.shape[0] != liouv.dim:
        raise InvariantViolationError(f"state dimension {rho.shape[0]} differs from generator {liouv.dim}")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("t_grid must be a one-dimensional sequence of times")
    if not np.all(np.isfinite(times)) or times[0] < 0 or not np.all(np.diff(times) > 0):
        raise ValueError("t_grid must be finite, strictly increasing and start at a time >= 0")
    step = dt if dt is not None else liouv.default_dt
    if not step > 0:
        raise ValueError(f"dt must be > 0, got {step}")
    # compared as a float first: the quotient may be inf, or too large for ceil to be cheap
    longest = float(np.max(np.diff(times), initial=0.0))
    steps = longest / float(step)
    if not steps <= MAX_EVOLVE_SUBSTEPS:
        raise ValueError(
            f"dt = {step!r} asks for {steps:.3g} RK4 steps over an interval of {longest!r}, "
            f"above the limit {MAX_EVOLVE_SUBSTEPS}"
        )

    lengths, interval_length, uses = np.unique(np.diff(times), return_inverse=True, return_counts=True)
    lengths, uses = lengths.tolist(), uses.tolist()
    substeps = [max(1, math.ceil(span / step)) if math.isfinite(step) else 1 for span in lengths]
    basis = liouv.basis
    start = vectorize(basis.conj().T @ rho @ basis)
    # an unstable step overflows; the screen below reports it as AccuracyError
    with np.errstate(over="ignore", invalid="ignore"):
        paths = [
            _stack_path(stack, start[index], lengths, substeps, uses, interval_length)
            for index, stack in zip(liouv.indices, liouv.blocks)
        ]
        out = _lab_states(basis, liouv.indices, paths)
    out[0] = rho

    # rho0 passed stricter checks than these, so out[0] never fails
    failed = screen_states(
        out,
        trace_atol=TRACE_DRIFT_TOL,
        herm_atol=EVOLUTION_HERMITICITY_ATOL,
        eig_floor=EVOLUTION_POSITIVITY_FLOOR,
        spectrum=validate,
    )
    for i in np.flatnonzero(failed):
        t = float(times[i])
        snapshot = out[i]
        if not np.all(np.isfinite(snapshot)):
            raise AccuracyError(f"non-finite state at t = {t:g}; use a smaller dt")
        drift = abs(complex(np.trace(snapshot)) - 1.0)
        if drift > TRACE_DRIFT_TOL:
            raise AccuracyError(
                f"trace drift {drift:.3e} above {TRACE_DRIFT_TOL:.0e} at t = {t:g}; use a smaller dt"
            )
        if validate:
            require_density_matrix(
                snapshot,
                herm_atol=EVOLUTION_HERMITICITY_ATOL,
                trace_atol=TRACE_DRIFT_TOL,
                eig_floor=EVOLUTION_POSITIVITY_FLOOR,
                name=f"state at t = {t:g}",
            )
        peak = float(np.max(np.abs(snapshot)))
        if peak > 1.0 + TRACE_DRIFT_TOL:
            raise AccuracyError(
                f"entry of magnitude {peak:.3e} above 1 at t = {t:g}; use a smaller dt"
            )
    return out


def _singular_values_and_vectors(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (rows of V^dagger) of every
    block of a stack, by one batched SVD; a 1 x 1 block [a] has |a| and 1."""
    if stack.shape[-1] == 1:
        return np.abs(stack[:, 0]), np.ones_like(stack)
    _, singulars, right = np.linalg.svd(stack)
    return singulars, right


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Stationary state from the singular-value null space of the generator.

    The singular values of the generator are those of its blocks taken
    together, found with one batched SVD per stack.  Exactly one may sit
    below ``NULL_SPACE_RTOL`` times the largest; zero raises
    SolverFailureError and more than one raises NonUniqueSteadyStateError
    reporting the dimension found.  The state is the null vector of the block
    that holds it, mapped back to the lab basis.
    """
    decompositions = [_singular_values_and_vectors(stack) for stack in liouv.blocks]
    singulars = [s for s, _ in decompositions]
    top = max((float(s.max()) for s in singulars if s.size), default=0.0)
    if top == 0.0:
        raise SolverFailureError("generator is identically zero; every state is stationary")
    null = [s <= NULL_SPACE_RTOL * top for s in singulars]
    null_dim = sum(int(np.count_nonzero(mask)) for mask in null)
    if null_dim == 0:
        smallest = min(float(s.min()) for s in singulars if s.size)
        raise SolverFailureError(
            f"no singular value below {NULL_SPACE_RTOL:.0e} of the largest; smallest ratio "
            f"{smallest / top:.3e}"
        )
    if null_dim > 1:
        raise NonUniqueSteadyStateError(
            f"steady state is not unique: null space has dimension {null_dim}", null_dim
        )
    holder = next(n for n, mask in enumerate(null) if mask.any())
    block = int(np.flatnonzero(null[holder].any(axis=1))[0])
    null_vector = np.zeros(liouv.dim * liouv.dim, dtype=complex)
    null_vector[liouv.indices[holder][block]] = decompositions[holder][1][block, -1].conj()
    candidate = hermitize(devectorize(null_vector))
    trace = complex(np.trace(candidate)).real
    if abs(trace) < 1e-12:
        raise SolverFailureError("null vector is traceless; no normalizable stationary state")
    rho_in_basis = candidate / trace
    stacked = vectorize(rho_in_basis)
    residual = math.sqrt(sum(
        float(np.sum(np.abs(stack @ stacked[index][:, :, None]) ** 2))
        for index, stack in zip(liouv.indices, liouv.blocks)
    ))
    if residual > STEADY_RESIDUAL_RTOL * top:
        raise SolverFailureError(
            f"stationary residual {residual:.3e} above {STEADY_RESIDUAL_RTOL:.0e} * ||L|| = "
            f"{STEADY_RESIDUAL_RTOL * top:.3e}"
        )
    basis = liouv.basis
    rho = hermitize(basis @ rho_in_basis @ basis.conj().T)
    return require_density_matrix(rho, name="steady state")


def heat_currents(system: OpenSystem, rho, freq_tol: float = DEFAULT_FREQ_TOL) -> np.ndarray:
    """Per-bath heat currents, positive when energy flows from the system into
    the bath.  At any stationary state the currents sum to zero.

    The current of bath k is -Tr[D_k(rho) H]: the sum over the model's
    current coefficients of bath k, each times the eigenbasis state
    U^dagger rho U at its index (see the module docstring).  A state of
    another dimension than the system's raises InvariantViolationError, and
    an imaginary part above 1e-10 NumericalConsistencyError.
    """
    state = require_density_matrix(rho)
    if state.shape[0] != system.dim:
        raise InvariantViolationError(f"state dimension {state.shape[0]} differs from system {system.dim}")
    model = _eigen_model(system, freq_tol)
    states = model.structure.states
    state_eig = states.conj().T @ state @ states
    terms = model.currents
    values = terms.values * state_eig[terms.rows, terms.cols]
    n_baths = len(system.baths)
    residues = np.bincount(terms.bath, weights=values.imag, minlength=n_baths)
    large = np.flatnonzero(np.abs(residues) > 1e-10)
    if large.size:
        raise NumericalConsistencyError(
            f"heat current has imaginary residue {residues[large[0]]:.3e} above 1e-10"
        )
    return np.bincount(terms.bath, weights=values.real, minlength=n_baths)


def gibbs_state(hamiltonian, temperature: float) -> np.ndarray:
    """Thermal equilibrium state exp(-H/T)/Z, built from the eigendecomposition
    with the spectrum shifted for overflow safety."""
    if not temperature > 0:
        raise ValueError(f"gibbs_state needs temperature > 0, got {temperature}")
    eig = eigh(hamiltonian)
    weights = np.exp(-(eig.energies - eig.energies.min()) / temperature)
    weights /= weights.sum()
    rho = (eig.states * weights) @ eig.states.conj().T
    return hermitize(rho)
