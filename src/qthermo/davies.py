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
couples one site, so C_k has at most 2N nonzero entries out of 4N^2.  An
entry of C_k at or below ``COUPLING_RTOL`` of the Frobenius norm of V_k
counts as absent: it is the rounding of U where the coupling is zero (a
symmetry of H and V_k, or a chain mode with a node at the bath's site), and
kept, at rate |C|^2 of 1e-34, it would join states that no rate links, so
that rounding would pick which of several steady states comes out.  The eigenbasis
model therefore holds C_k and the generator's jump entries as lists of
nonzero entries (bath, i, j, value), never as (K, d, d) arrays.  C_k is formed
from the nonzeros of V_k and the exact-zero supports of the rows of U.  The
jump entries W_k[i, j] conj(C_k[i', j']), W_k = R_k C_k, come from one join
of the nonzeros of W_k and C_k on (bath, group), and the terms of M_k are
their population rows (i = i').  A term of M pairs two entries of one row
and one group, so K = -i diag(E) - M / 2 lies in the zero group and
rho -> K rho + rho K^dagger enters whole, as the Kronecker sum
1 kron K + conj(K) kron 1.  The blocks are the connected components of the
pattern these entries fill; no stored entry links two blocks, so the
null space and the singular values of L are those of the blocks together.
The blocks are stacked by size.  A system with no exact zeros gets its
sectors as blocks.

Steady state.  The steady state is the null vector of one block, found by
the block's own rule (:func:`steady_state` states them).  For a batch of
generators (a sweep) the elimination below runs once per block size across
all of them, and every other step generator by generator.  A block of
populations (i, i) alone is a classical rate matrix with entries
rate |C|^2: Grassmann-Taksar-Heyman elimination finds its stationary
distribution with no subtraction, however many decades the rates span, and
its null space has dimension one when every pivot is positive.  The layout
puts a maximal set of its states that share no rate last (in a chain, the
modes), and the elimination takes that set in one step.  A 1 x 1 block is
null when its entry is zero.  Every other block, and a block of populations
with a zero pivot (a reducible one), gets an SVD, graded by its diagonal,
and counts its singular values against the largest of the whole generator.
In a chain the other blocks are 1 x 1, and at the paper's rates the
Frobenius norm of the population block stays below the largest of their
entries, so its largest singular value is not needed and a chain sweep runs
no SVD.

Heat currents.  J_k = -Tr[H D_k(rho)] reads the same population rows,
E_i W_k[i, j] conj(C_k[i, j']) times rho at (j, j'), and M_k, the loss
(E_a + E_b) M_k[a, b] / 2 times rho at (b, a).  The model keeps these
coefficients, so the currents are one gather from U^dagger rho U and one
sum per bath.

Reuse.  The eigendecomposition, the frequency groups, the entries of C_k and
their join on (bath, group) depend on H, the couplings and the grouping
tolerance alone, and a study runs one Hamiltonian at many bath temperatures.
They form a read-only structure.  ``OpenSystem.with_temperatures`` states
the reuse explicitly: the system it gives shares the checked read-only H and
couplings, and the structures, by reference, so no key is built, nothing is
looked up and nothing is checked again but the temperatures.  A system built
afresh finds its structure in one module-level cache keyed on the exact
bytes of the tolerance, H and the nonzeros of the couplings and bounded by
the bytes it holds (``STRUCTURE_CACHE_BYTES``, least recently used out
first), and shares it from then on; each bath keeps its coupling's nonzeros
once they are found, so no key scans a coupling twice.  A structure keeps a
plan per set of nonzero W_k entries, which changes only where a rate
vanishes (T = 0, or an occupation below the overflow cut): the pairs the
join selects and the places of the jump, decay and current entries.  A plan
keeps a layout per nonzero pattern of K: the components, the order of the
states of each block of populations, where each entry lands in the blocks
and the stacks.  A new temperature then costs the rates, one gather and
multiply, and one scatter into the blocks.  Errors are unchanged: a
structure whose grouping checks fail is not kept, and the zero-frequency
rule is decided on every call from the kept magnitudes and the bath's
density.

A sweep does per Hamiltonian only what the Hamiltonian changes.  Its baths
are built and checked once, and every further Hamiltonian gets a system that
checks only its H and shares them (``OpenSystem._with_hamiltonian``).  The
points of one Hamiltonian are built as one batch (:func:`_liouvillians`):
the rates of all of them are one array expression over a leading axis of
points, the points are grouped by plan and by pattern of K, and each group
is scattered into its blocks by one ``bincount`` whose targets are offset
point by point, so that every block entry sums the terms of one point in
the order a point alone sums them.  :func:`liouvillian` is the batch of one,
and each generator of a batch is, bit for bit, the one its point gives
alone.

Time evolution.  The master equation d vec(rho)/dt = L vec(rho) is linear,
so a grid interval of length tau maps the state through e^{tau L}, which in
the eigenbasis is block-diagonal with the blocks e^{tau B}; ``evolve`` applies
these exactly, block by block, and never forms the lab-basis generator.  The
start state is mapped once to U^dagger rho U, and every stack of blocks is
advanced on its own entries.  The exponentials of a stack are built once per
distinct interval length, for every length and block of the stack in one
array expression, by scaling and squaring (Moler & Van Loan, SIAM Rev. 45, 3
(2003); Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): each pair of a
length and a block is scaled by 2^-s so that its 1-norm is at most 1/2, its
exponential is its Taylor polynomial of degree 13, whose remainder there is
below 2^-14 / 14! < 1e-15, and s squarings give it back.  s comes from the
binary exponents of tau and of the norm apart, so tau |B| is never formed.
Each interval then costs one batched product.  A 1 x 1 block (most
coherences between two levels are one) is a scalar: its entry at every grid
time is one cumulative product of the factors e^{tau b} of the intervals
before it.  The states are mapped back to the lab basis a chunk of times at
a time, two matrix products per chunk, and checked in one batched pass
(:func:`qthermo.linalg.screen_states`).

Sign and rate conventions:

* frequencies are energy differences E_j - E_i between eigenlevels;
* a component at frequency w > 0 removes the energy w from the system and
  carries rate J(w) (1 + n(w, T)); its adjoint partner at -w carries
  J(w) n(w, T);
* heat currents are positive when energy flows from the system into a bath.
"""

from __future__ import annotations

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
    QThermoError,
    SolverFailureError,
    UnsupportedModelError,
)
from .linalg import (
    _record_density_matrices,
    components,
    stacked_order,
    eigh,
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
# An entry of C_k = U^dagger V_k U at or below this fraction of the Frobenius
# norm of V_k counts as absent: it is the rounding of U, not a coupling.  A
# coupling that a symmetry of H and V_k forbids comes out at 1e-17 to 1e-32 of
# the norm (a mirror-symmetric chain with a bath at its middle site), and its
# rate at rounding squared would make two sectors one block; the smallest
# coupling of a 150-site chain's end site is 6e-7 of the norm.
COUPLING_RTOL = 1e-10
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
# the same.  The block exponentials of a trajectory are built in chunks of
# about as many entries, so their temporaries stay as small.
LAB_MAP_CHUNK_ENTRIES = 8192
# Bytes of the arrays, keys included, that the eigenbasis structures kept
# across systems may hold together ("Reuse" in the module docstring).  A chain
# structure with its plan and layout holds 0.07 MiB at 10 sites, 0.6 MiB at
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
        _check_temperature(self.temperature)

    def _at_temperature(self, temperature: float) -> BathSpec:
        """This bath at another temperature, sharing the checked read-only
        coupling, and its nonzeros once found (:func:`_coupling_nonzeros`);
        only the temperature is checked."""
        _check_temperature(temperature)
        bath = object.__new__(BathSpec)
        bath.__dict__.update(self.__dict__, temperature=temperature)
        return bath


def _check_temperature(temperature: float) -> None:
    if not 0 <= temperature < math.inf:
        raise InvariantViolationError(f"bath temperature must be finite and >= 0, got {temperature}")


@dataclass(frozen=True)
class OpenSystem:
    """System Hamiltonian plus an ordered list of baths.

    The arrays are read-only copies, so the eigenbasis models kept in
    ``_models`` (one per grouping tolerance, built on first use) cannot go
    stale, and neither can the temperature-free structures kept in
    ``_structures``, which the systems of :meth:`with_temperatures` share.
    The checked read-only baths are shared the other way as well: a sweep
    over Hamiltonians builds its baths once, and each further Hamiltonian
    gets a system that checks only that Hamiltonian and shares them
    (``_with_hamiltonian``).
    """

    hamiltonian: np.ndarray
    baths: tuple[BathSpec, ...]
    _models: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _structures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        baths = tuple(self.baths)
        object.__setattr__(self, "hamiltonian", _checked_hamiltonian(self.hamiltonian, baths))
        object.__setattr__(self, "baths", baths)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def with_temperatures(self, temperatures) -> OpenSystem:
        """The same system with bath k at ``temperatures[k]``.

        The new system shares this one's checked read-only Hamiltonian and
        couplings, and its eigenbasis structures by reference (see "Reuse" in
        the module docstring), so its generator costs the rates alone.  Only
        the temperatures are checked, with :class:`BathSpec`'s errors; a
        count other than one per bath raises InvariantViolationError.
        """
        temperatures = tuple(temperatures)
        if len(temperatures) != len(self.baths):
            raise InvariantViolationError(
                f"{len(temperatures)} temperatures for {len(self.baths)} baths"
            )
        baths = tuple(bath._at_temperature(temperature) for bath, temperature in zip(self.baths, temperatures))
        system = object.__new__(OpenSystem)
        system.__dict__.update(self.__dict__, baths=baths, _models={})
        return system

    def _with_hamiltonian(self, hamiltonian) -> OpenSystem:
        """This system with another Hamiltonian, which is checked as the
        constructor checks it; the checked read-only baths are shared, and
        the eigenbasis models and structures are the new system's own."""
        system = object.__new__(OpenSystem)
        system.__dict__.update(self.__dict__, hamiltonian=_checked_hamiltonian(hamiltonian, self.baths),
                               _models={}, _structures={})
        return system


def _checked_hamiltonian(hamiltonian, baths: tuple[BathSpec, ...]) -> np.ndarray:
    """A read-only copy of a Hermitian Hamiltonian of the couplings' shape."""
    h = _frozen(require_hermitian(hamiltonian, name="hamiltonian"))
    for k, bath in enumerate(baths):
        if bath.coupling.shape != h.shape:
            raise InvariantViolationError(
                f"bath {k} coupling shape {bath.coupling.shape} differs from hamiltonian {h.shape}"
            )
    return h


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
    density: np.ndarray, omega: np.ndarray, temperature: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The rates at every frequency w > 0 of an array and at its negative,
    emission J(w) (1 + n(w)) and absorption J(w) n(w), n(w) the
    :func:`bose_occupation`, in one array expression each, given the
    spectral density J(w) and the temperature of each frequency (arrays
    that broadcast with ``omega``, or scalars; a batch of points stacks its
    temperatures on a leading axis).  A frequency w = 0 gets a zero
    occupation."""
    # the occupation 1 / expm1(x) is 0 above x = omega / T = 700, where exp
    # overflows, and at T = 0: there x stays inf and expm1(inf) = inf
    live = (omega > 0) & (omega <= 700.0 * temperature)
    x = np.full(live.shape, np.inf)
    np.divide(omega, temperature, out=x, where=live)
    occupation = 1.0 / np.expm1(x)
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


def _coupling_nonzeros(baths: tuple[BathSpec, ...]) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The nonzeros of every V_k as (rows, cols, values), row by row.  A
    bath keeps its own from the first use on, and so do the baths that share
    its coupling (``BathSpec._at_temperature``), so that a structure key
    never scans a coupling twice; they are read, never written."""
    nonzeros = []
    for bath in baths:
        kept = bath.__dict__.get("_nonzeros")
        if kept is None:
            rows, cols = bath.coupling.nonzero()
            kept = bath.__dict__["_nonzeros"] = (rows, cols, bath.coupling[rows, cols])
        nonzeros.append(kept)
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

    def structure(self, key: tuple, build) -> _Structure:
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
    ``coupling`` holds the entries of C_k = U^dagger V_k U above
    ``COUPLING_RTOL`` of the norm of V_k and
    ``entry_labels`` the group of each.  ``zero_magnitude[k]`` is the largest
    |C_k| entry in the zero group.  ``pairs`` joins every entry with every
    entry of its bath and group, ordered by the first and then the second.
    ``plans`` holds a :class:`_Plan` per set of nonzero W_k entries.  Every
    array is read-only; ``nbytes`` counts them, the key and the plans.
    """

    key: tuple
    energies: np.ndarray
    states: np.ndarray
    frequencies: np.ndarray
    labels: np.ndarray
    coupling: _Entries
    entry_labels: np.ndarray
    zero_magnitude: np.ndarray
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
    there and its (count, m) generator indices, those of a block of
    populations in the order of :func:`_unlinked_last`.  The jump entries
    ``scalar_jumps`` land in 1 x 1 blocks, which come first, so ``target``
    is the number of their block."""

    target: np.ndarray
    total: int
    stacks: tuple[tuple[int, np.ndarray], ...]
    scalar_jumps: np.ndarray
    nbytes: int


@dataclass(frozen=True)
class _EigenModel:
    """An open system in the eigenbasis of its Hamiltonian, at one grouping
    tolerance; the generator and the heat currents read it.  It holds no
    (K, d, d) array.

    The temperature-free part is the shared :class:`_Structure`, and the
    entries' places are the shared :class:`_Plan`'s.  ``rates[e]`` is the
    rate of coupling entry e (``structure.coupling``), that of its bath at
    its frequency group.  The per-bath matrices are entry lists
    (:class:`_Entries`): ``jumps`` the entries of the map
    rho -> sum_w rate A_w rho A_w^dagger at the column-stacked generator
    indices (row, col), and ``decay`` the terms of
    M_k = sum_w rate A_w^dagger A_w.  ``currents`` holds the coefficients of
    the heat currents: J_k is the sum over the entries of bath k of the value
    times the eigenbasis state U^dagger rho U at (row, col).
    """

    structure: _Structure
    plan: _Plan
    rates: np.ndarray
    jumps: _Entries
    decay: _Entries
    currents: _Entries


def _eigen_model(system: OpenSystem, freq_tol: float) -> _EigenModel:
    """The system's eigenbasis model, built on first use and kept on the system."""
    model = system._models.get(freq_tol)
    if model is None:
        model = system._models[freq_tol] = _build_eigen_model(system, freq_tol)
    return model


def _structure(system: OpenSystem, freq_tol: float) -> _Structure:
    """The system's structure: the one it shares with the systems it was
    derived from or gave (:meth:`OpenSystem.with_temperatures`), or one from
    the cache or built and kept there, then shared.

    The cache key is exact: the tolerance, the bytes of H, and the bytes of
    the (rows, cols, values) of the couplings' nonzeros, which the join
    reads anyway.  A structure whose build fails is not kept.
    """
    structure = system._structures.get(freq_tol)
    if structure is None:
        structure = system._structures.setdefault(freq_tol, _cached_structure(system, freq_tol))
    return structure


def _cached_structure(system: OpenSystem, freq_tol: float) -> _Structure:
    nonzeros = _coupling_nonzeros(system.baths)
    key = (freq_tol, system.hamiltonian.tobytes(), tuple(a.tobytes() for triple in nonzeros for a in triple))
    return _STRUCTURES.structure(key, lambda: _build_structure(system, freq_tol, key, nonzeros))


def _build_structure(system: OpenSystem, freq_tol: float, key: tuple, nonzeros) -> _Structure:
    """Decompose H, group its transition frequencies, form the coupling
    entries from the couplings' nonzeros, drop those at rounding level
    (``COUPLING_RTOL``), and join those of one bath and one group."""
    eig = eigh(system.hamiltonian)
    energies, states = eig.energies, eig.states
    _check_grouping_tolerance(energies, freq_tol)
    frequencies, labels = _frequency_groups(energies, freq_tol)
    n_groups = frequencies.size
    coupling = _joined_coupling_entries(states, nonzeros)
    magnitude = np.abs(coupling.values)
    norms = np.sqrt(np.bincount(coupling.bath, weights=np.square(magnitude), minlength=len(system.baths)))
    coupled = magnitude > COUPLING_RTOL * norms[coupling.bath]
    if not coupled.all():
        coupling = _Entries(*(a[coupled] for a in coupling))
        magnitude = magnitude[coupled]
    entry_labels = labels[coupling.rows, coupling.cols]
    # the groups mirror under negation about the zero group, at the middle
    at_zero = entry_labels == n_groups // 2
    zero_magnitude = np.zeros(len(system.baths))
    np.maximum.at(zero_magnitude, coupling.bath[at_zero], magnitude[at_zero])
    group_key = coupling.bath * n_groups + entry_labels
    pairs = _equal_key_pairs(group_key, group_key)
    nbytes = _seal(energies, states, frequencies, labels, *coupling, entry_labels, zero_magnitude,
                   *pairs)
    return _Structure(
        key=key,
        energies=energies,
        states=states,
        frequencies=frequencies,
        labels=labels,
        coupling=coupling,
        entry_labels=entry_labels,
        zero_magnitude=zero_magnitude,
        pairs=pairs,
        nbytes=nbytes + len(key[1]) + sum(map(len, key[2])),
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
    """Attach the baths' rates to the system's structure (:func:`_rates`),
    and the rates' jump, decay and current entries to its plan."""
    structure = _structure(system, freq_tol)
    rates = _rates(system, structure, np.array([bath.temperature for bath in system.baths]))
    plan, values, p = _jump_values(structure, rates * structure.coupling.values)
    decay = p.conj()
    return _EigenModel(
        structure=structure,
        plan=plan,
        rates=rates,
        jumps=_Entries(*plan.jumps[:3], values),
        decay=_Entries(*plan.decay[:3], decay),
        currents=_Entries(*plan.currents[:3], plan.currents.values * np.concatenate((p, decay))),
    )


def _rates(system: OpenSystem, structure: _Structure, temperature: np.ndarray) -> np.ndarray:
    """The rate of every coupling entry of the structure, that of its bath
    at its frequency group, in one array expression.  ``temperature`` holds
    one temperature per bath, the baths' own or checked as theirs are, for
    one point or, on a leading axis, for many; the rates follow that axis.

    The zero-frequency component is always examined: if it vanishes its rate
    is zero, if not the rate is slope * T for an ohmic density while a flat
    density makes the zero-frequency rate diverge and raises
    UnsupportedModelError.
    """
    baths = system.baths
    ohmic = np.array([isinstance(bath.spectral, OhmicDensity) for bath in baths], dtype=bool)
    # J(w) is the coefficient times w for an ohmic density, the coefficient for a flat one
    coefficient = np.array([bath.spectral.slope if is_ohmic else bath.spectral.rate
                            for bath, is_ohmic in zip(baths, ohmic.tolist())])
    present = structure.zero_magnitude > ZERO_COMPONENT_ATOL
    if (present & ~ohmic).any():
        k = int(np.flatnonzero(present & ~ohmic)[0])
        raise UnsupportedModelError(
            f"bath {k}: zero-frequency coupling component of magnitude "
            f"{structure.zero_magnitude[k]:.3e} with a flat spectral density has a diverging rate; "
            "use an ohmic density or a model whose zero-frequency component vanishes"
        )
    bath = structure.coupling.bath
    # the groups mirror under negation about the zero group, at the middle
    zero_label = structure.frequencies.size // 2
    omega = np.abs(structure.frequencies)[structure.entry_labels]
    emission, absorption = _thermal_rates(
        coefficient[bath] * np.where(ohmic[bath], omega, 1.0), omega, temperature.take(bath, axis=-1)
    )
    rates = np.where(structure.entry_labels > zero_label, emission, absorption)
    at_zero = structure.entry_labels == zero_label
    if at_zero.any():
        rates[..., at_zero] = np.where(present, coefficient * temperature, 0.0)[..., bath[at_zero]]
    return rates


def _jump_values(structure: _Structure, w_val: np.ndarray) -> tuple[_Plan, np.ndarray, np.ndarray]:
    """The plan of W_k = R_k C_k given at the coupling entries, for one point
    or, a row each, for points of one nonzero pattern, and the values of the
    jump entries and of those at the population rows, in the same layout."""
    rated = (w_val if w_val.ndim == 1 else w_val[0]) != 0
    plan = _STRUCTURES.part(structure, structure.plans, rated.tobytes(), lambda: _build_plan(structure, rated))
    # rows times a row: a (1, 1) by (1,) product runs numpy's scalar complex
    # loop, which rounds otherwise than the vector loop that a point alone's
    # (J,) by (J,) and every (n, J) by (1, J) product run
    factor = plan.jumps.values if w_val.ndim == 1 else plan.jumps.values[None]
    values = w_val.take(plan.w, axis=-1) * factor
    return plan, values, values.take(plan.population, axis=-1)


def _alike(a: np.ndarray) -> list[list[int]]:
    """The rows of an array grouped by their nonzero patterns: the indices
    of each group, ascending, the groups in the order of their first rows."""
    if len(a) == 1:
        return [[0]]
    groups: dict[bytes, list[int]] = {}
    for row, pattern in enumerate(a != 0):
        groups.setdefault(pattern.tobytes(), []).append(row)
    return list(groups.values())


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """Generator of the master equation, held as dense blocks stacked by size.

    ``blocks[n]`` has shape (count, m, m): ``count`` blocks of one size m,
    block c acting on the column-stacked entries ``indices[n][c]`` of the
    matrices it maps, written in the orthonormal ``basis`` (column i is basis
    vector i).  No entry of the generator links two blocks, and every index
    lies in exactly one block.  ``basis`` is read-only: generators of one
    Hamiltonian and set of couplings share it (see "Reuse" in the module
    docstring).  :func:`evolve` and :func:`steady_state` work on the blocks.
    """

    dim: int
    basis: np.ndarray
    indices: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]


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
    docstring).  The jump entries are the model's, kept on the system for
    :func:`heat_currents`; the generator is the batch of one of
    :func:`_assembled`, which a sweep runs on many points at once
    (:func:`_liouvillians`)."""
    model = _eigen_model(system, freq_tol)
    (liouv,) = _assembled(model.structure, model.plan, model.jumps.values, model.decay.values)
    return liouv


def _liouvillians(system: OpenSystem, temperatures: np.ndarray, freq_tol: float) -> list[Liouvillian]:
    """The generator of the system with bath k at ``temperatures[p, k]``, for
    every point p: each that of :func:`liouvillian` on
    ``system.with_temperatures(temperatures[p])``, bit for bit.  The
    temperatures are checked already (finite and >= 0).  The rates of every
    point are one array expression, and the points of one plan (one nonzero
    pattern of W_k) and one pattern of K are assembled by one scatter."""
    structure = _structure(system, freq_tol)
    rates = _rates(system, structure, temperatures)
    w_val = rates * structure.coupling.values
    liouvs = [None] * len(temperatures)
    for points in _alike(w_val):
        plan, values, p = _jump_values(structure, w_val if len(points) == len(w_val) else w_val.take(points, axis=0))
        for point, liouv in zip(points, _assembled(structure, plan, values, p.conj())):
            liouvs[point] = liouv
    return liouvs


def _assembled(structure: _Structure, plan: _Plan, jumps: np.ndarray, decay: np.ndarray) -> list[Liouvillian]:
    """The generators of points of one plan, from the values of their jump
    entries and decay terms, those of one point or a row per point.

    The points are grouped by the nonzero pattern of K, whose layout places
    their entries; a group's entries go into its blocks by one ``bincount``
    over the points' entries laid end to end, each point's targets offset by
    the length of a point's blocks, so that every block entry sums the terms
    of one point, in the order a point alone sums them.  The entry of a
    1 x 1 block on which a jump lands is cleared where its terms cancel
    (:func:`steady_state`)."""
    energies = structure.energies
    dim = energies.size
    size = dim * dim
    count = len(jumps) if jumps.ndim > 1 else 1

    # rho -> K rho + rho K^dagger, K = -i diag(E) - M / 2, is 1 kron K + conj(K) kron 1
    # in column stacking: K[i, j] at ((i, l), (j, l)) and conj(K[i, j]) at
    # ((l, i), (l, j)) for every level l; K lies in the zero group (module docstring)
    at = _offset(plan.damping_at, size, count)
    decay = decay.ravel()
    damping = -0.5 * (np.bincount(at, weights=decay.real, minlength=count * size)
                      + 1j * np.bincount(at, weights=decay.imag, minlength=count * size))
    if jumps.ndim > 1:
        damping = damping.reshape(count, size)
    damping[..., ::dim + 1] -= 1j * energies
    liouvs = [None] * count
    for members in _alike(damping) if damping.ndim > 1 else [[0]]:
        n = len(members)
        # the rows of the group's points; the arrays as they are when the
        # group holds every point, and for one point, which has no rows
        own, own_jumps = ((damping, jumps) if n == count
                          else (damping.take(members, axis=0), jumps.take(members, axis=0)))
        k_at = np.flatnonzero(own if own.ndim == 1 else own[0])
        layout = _STRUCTURES.part(structure, plan.layouts, k_at.tobytes(),
                                  lambda: _build_layout(plan.jumps, k_at, dim))
        k_val = own.take(k_at, axis=-1)
        values = np.concatenate((own_jumps, np.repeat(k_val, dim, axis=-1), np.repeat(k_val.conj(), dim, axis=-1)),
                                axis=-1)
        target = _offset(layout.target, layout.total, n)
        laid = values.ravel()
        flat = np.bincount(target, weights=laid.real, minlength=n * layout.total) + 1j * np.bincount(
            target, weights=laid.imag, minlength=n * layout.total
        )
        # the terms of a 1 x 1 block (i, i'), -i (E_i - E_i') and decay terms
        # whose real parts are <= 0, can cancel only where a jump lands on it;
        # such an entry within NULL_SPACE_RTOL of their magnitudes is zero
        at = layout.scalar_jumps
        if at.size:
            landed, block = np.unique(layout.target[at], return_inverse=True)
            cols, rows = np.divmod(layout.stacks[0][1][landed, 0], dim)
            diagonal = abs(own.real[..., ::dim + 1])
            terms = (abs(energies[rows] - energies[cols]) + diagonal.take(rows, axis=-1)
                     + diagonal.take(cols, axis=-1)
                     + np.bincount(_offset(block, landed.size, n), weights=abs(values.take(at, axis=-1)).ravel(),
                                   minlength=n * landed.size).reshape(diagonal.shape[:-1] + (-1,)))
            landed = _offset(landed, layout.total, n)
            flat[landed[abs(flat[landed]) <= NULL_SPACE_RTOL * terms.ravel()]] = 0.0
        for i, point in enumerate(members):
            indices, blocks = [], []
            for first, index in layout.stacks:
                stacked, m = index.shape
                first += i * layout.total
                indices.append(index)
                blocks.append(flat[first:first + stacked * m * m].reshape(-1, m, m))
            liouvs[point] = Liouvillian(
                dim=dim,
                basis=structure.states,
                indices=tuple(indices),
                blocks=tuple(blocks),
            )
    return liouvs


def _offset(places: np.ndarray, length: int, count: int) -> np.ndarray:
    """``places`` once for each of ``count`` points laid end to end, point
    p's shifted by p times ``length``."""
    if count == 1:
        return places
    return (places + length * np.arange(count)[:, None]).ravel()


def _generator_bytes_bound(system: OpenSystem, freq_tol: float = DEFAULT_FREQ_TOL) -> int:
    """The bytes of the blocks and indices of the system's generator at any
    temperatures, at most: those of the generator whose every coupling entry
    has a rate and whose K has an entry wherever M or the energies can put
    one.  Any other generator's entries lie within that pattern, so each of
    its blocks lies within one of these blocks, and its blocks hold fewer
    entries.  Where no rate vanishes, this is the generator's own pattern."""
    structure = _structure(system, freq_tol)
    dim = structure.energies.size
    rated = np.ones(structure.coupling.values.size, dtype=bool)
    plan = _STRUCTURES.part(structure, structure.plans, rated.tobytes(), lambda: _build_plan(structure, rated))
    filled = np.zeros(dim * dim, dtype=bool)
    filled[plan.damping_at] = True
    filled[::dim + 1] = True
    k_at = np.flatnonzero(filled)
    layout = _STRUCTURES.part(structure, plan.layouts, k_at.tobytes(), lambda: _build_layout(plan.jumps, k_at, dim))
    return 16 * layout.total + np.dtype(np.intp).itemsize * dim * dim


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

    # indices ordered by (component size, component, index), the states of a
    # block of populations then reordered for the elimination: every stack,
    # and every block within it, is a contiguous run; the blocks are laid out
    # row-major one after another
    root = components(size, rows, cols)
    order, sorted_extent, edges = stacked_order(root)
    _unlinked_last(order, sorted_extent, edges, jumps, dim)
    place = np.empty(size, dtype=np.intp)
    place[order] = np.arange(size)
    within = np.empty(size, dtype=np.intp)
    within[order] = (np.arange(size) - np.repeat(edges[:-1], np.diff(edges))) % sorted_extent
    # flat offset of each index's row in the concatenated row-major blocks
    row_start = (np.cumsum(sorted_extent) - sorted_extent)[place - within] + within * sorted_extent[place]
    target = row_start[rows] + within[cols]
    stacks = tuple(
        (int(row_start[order[lo]]), order[lo:hi].reshape(-1, int(sorted_extent[lo])))
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    # the 1 x 1 blocks, if any, are the first stack, one entry each
    scalars = edges[1] if size and sorted_extent[0] == 1 else 0
    scalar_jumps = np.flatnonzero(target[:jumps.rows.size] < scalars)
    nbytes = _seal(target, order, scalar_jumps)
    return _Layout(target, int(sorted_extent.sum()), stacks, scalar_jumps, nbytes)


def _unlinked_last(order: np.ndarray, sorted_extent: np.ndarray, edges: list[int], jumps: _Entries,
                   dim: int) -> None:
    """Reorder, in place in ``order``, the states of every block of
    populations (i, i) so that a maximal set of states with no rate between
    them comes last, each part ascending, which :func:`_stationary_rates`
    eliminates in one step: in a chain the modes, half the block, and in a
    three-level system the levels of one side of its transitions.  The set
    is picked greedily, visiting the states with the fewest links first and,
    of equal links, the highest first, so the lowest states, which hold the
    population when the baths are cold, tend to stay in front (state 0 is
    eliminated last, and every state must reach it)."""
    population = dim + 1
    between = (jumps.rows != jumps.cols) & (jumps.rows % population == 0) & (jumps.cols % population == 0)
    ends = jumps.rows[between] // population, jumps.cols[between] // population
    place = np.empty(dim, dtype=np.intp)
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = int(sorted_extent[lo])
        if m == 1:
            continue
        for block in order[lo:hi].reshape(-1, m):  # views: writes go to ``order``
            if np.any(block % population):
                continue
            place.fill(-1)
            place[block // population] = np.arange(m)
            inside = place[ends[0]] >= 0  # a link with one end in the block has both
            adjacent = np.zeros((m, m), dtype=bool)
            adjacent[place[ends[0][inside]], place[ends[1][inside]]] = True
            adjacent |= adjacent.T
            chosen = np.zeros(m, dtype=bool)
            blocked = np.zeros(m, dtype=bool)
            for i in (adjacent.sum(axis=1) * m - np.arange(m)).argsort().tolist():
                if not blocked[i]:
                    chosen[i] = True
                    blocked |= adjacent[i]
            block[:] = block[chosen.argsort(kind="stable")]


def _exponentials(stack: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """e^{tau B} for every length tau of ``lengths`` and block B of a stack
    (count, m, m), shape (lengths, count, m, m), by scaling and squaring.

    Each pair of a length and a block gets its own number s of squarings:
    with tau = f 2^a and the 1-norm |B| = g 2^b, f and g in [1/2, 1),
    s = max(0, a + b + 1) puts 2^-s tau |B| below 1/2 without forming
    tau |B|, and s stays below 2100 for finite tau and B.  The Taylor
    polynomial of degree 13 of 2^-s tau B, by Horner's rule, is squared s
    times, the pairs that need fewer squarings left out.  The lengths are
    taken a chunk at a time, so the temporaries stay near
    ``LAB_MAP_CHUNK_ENTRIES`` entries."""
    count, size, _ = stack.shape
    _, norm_exponent = np.frexp(np.abs(stack).sum(axis=1).max(axis=1))
    _, length_exponent = np.frexp(lengths)
    identity = np.eye(size)
    out = np.empty((lengths.size, count, size, size), dtype=complex)
    chunk = max(1, LAB_MAP_CHUNK_ENTRIES // (count * size * size))
    for lo in range(0, lengths.size, chunk):
        squarings = np.maximum(length_exponent[lo:lo + chunk, None] + norm_exponent + 1, 0)
        scaled = np.ldexp(lengths[lo:lo + chunk, None], -squarings)[:, :, None, None] * stack
        power = identity + scaled / 13.0
        for divisor in range(12, 0, -1):
            power = identity + (scaled @ power) / divisor
        for k in range(squarings.max()):
            more = squarings > k
            square = power[more]
            power[more] = square @ square
        out[lo:lo + chunk] = power
    return out


def _stack_path(stack: np.ndarray, start: np.ndarray, lengths: np.ndarray,
                interval_length: np.ndarray) -> np.ndarray:
    """The entries of one stack of generator blocks at every grid time, shape
    (count, m, times), from their values ``start`` (count, m) at the first.

    Interval i has the length ``lengths[interval_length[i]]``, over which
    every block's entries are mapped by its exponential
    (:func:`_exponentials`), one batched product per interval.  A 1 x 1
    block is a scalar b: the entry at each time is the product of the start
    and the factors e^{tau b} of the intervals before it, one cumulative
    product.
    """
    count, size = start.shape
    if size == 1:
        factors = np.exp(np.multiply.outer(lengths, stack[:, 0, 0]))
        path = np.empty((interval_length.size + 1, count), dtype=complex)
        path[0] = start[:, 0]
        # mode="clip" writes straight into ``path`` (the indices are in range)
        np.take(factors, interval_length, axis=0, out=path[1:], mode="clip")
        return np.cumprod(path, axis=0, out=path).T[:, None, :]
    propagators = _exponentials(stack, lengths)
    path = np.empty((interval_length.size + 1, count, size, 1), dtype=complex)
    path[0] = start[:, :, None]
    # a list of views is indexed faster than the array
    steps = list(propagators)
    for k, before, after in zip(interval_length.tolist(), path, path[1:]):
        np.matmul(steps[k], before, out=after)
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
    *,
    validate: bool = True,
) -> np.ndarray:
    """Evolve the state ``rho0`` at ``t_grid[0]`` under the master equation,
    returning one state per grid time.

    An interval of length tau maps the state through e^{tau L}, applied
    exactly block by block in the eigenbasis: the state is mapped once to
    U^dagger rho0 U, and every stack of generator blocks is advanced on its
    own entries by the exponentials of its blocks, built once per distinct
    interval length (see the module docstring).  The lab-basis generator is
    never formed.  The exponentials are exact up to rounding, which grows
    with the squarings, about 2^s eps over an interval 2^s times the
    generator's scale.  Trace drift beyond 1e-7, an entry of magnitude above
    1 + 1e-7 (which no density matrix has) or non-finite entries raise
    AccuracyError, naming the first grid time that fails and its interval;
    with ``validate``, an asymmetry or a negative eigenvalue raises
    InvariantViolationError.
    """
    rho = require_density_matrix(rho0)
    if rho.shape[0] != liouv.dim:
        raise InvariantViolationError(f"state dimension {rho.shape[0]} differs from generator {liouv.dim}")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("t_grid must be a one-dimensional sequence of times")
    if not np.all(np.isfinite(times)) or times[0] < 0 or not np.all(np.diff(times) > 0):
        raise ValueError("t_grid must be finite, strictly increasing and start at a time >= 0")

    lengths, interval_length = np.unique(np.diff(times), return_inverse=True)
    basis = liouv.basis
    start = vectorize(basis.conj().T @ rho @ basis)
    # rounding grown over a long interval can overflow; the screen below
    # reports it as AccuracyError
    with np.errstate(over="ignore", invalid="ignore"):
        paths = [
            _stack_path(stack, start[index], lengths, interval_length)
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
        where = f"at t = {t:g}; interval [{float(times[i - 1]):g}, {t:g}]"
        snapshot = out[i]
        if not np.all(np.isfinite(snapshot)):
            raise AccuracyError(f"non-finite state {where}")
        drift = abs(complex(np.trace(snapshot)) - 1.0)
        if drift > TRACE_DRIFT_TOL:
            raise AccuracyError(f"trace drift {drift:.3e} above {TRACE_DRIFT_TOL:.0e} {where}")
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
            raise AccuracyError(f"entry of magnitude {peak:.3e} above 1 {where}")
    return out


def _stationary_rates(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stationary distribution p of every rate-matrix block B of a
    stack, by Grassmann-Taksar-Heyman elimination; whether each block has
    one and only one; the Frobenius norm |B| of each block, a bound on its
    largest singular value; and the residual |B p| / |B|.

    Off the diagonal, the real part of block entry [i, j] is the rate of
    j -> i; the diagonal is not read.  States are eliminated from the last:
    the rates of a state to the states below it sum to its pivot, the rates
    into it are divided by the pivot, and the rates through it are added to
    those of the states below.  A pivot is a sum of rates, never a
    difference, so every probability comes out to a few ulps, relative,
    however many decades the rates span (Grassmann, Taksar & Heyman, Oper.
    Res. 33, 1107 (1985)).  The last states of a block that share no rate
    (the layout puts a maximal set of them last, :func:`_unlinked_last`) go
    in one step, since none changes the rates of another; blocks are worked
    in groups of one such count, so that each block's p is what it gives
    alone.  Then p[0] = 1 and p[k] is the sum of p[j] U[j, k] over j < k, U
    the divided rates: p = e_0 (1 - U)^-1, which is
    e_0 (1 + U)(1 + U^2)(1 + U^4)..., a few products of nonnegative
    matrices.  p is normalized to sum to one.

    A block is solved when its entries and p are finite, which they are only
    if every pivot is positive: then every state reaches state 0, one closed
    class holds them all, and the null space has dimension one.  A zero
    pivot (a reducible block) or a non-finite entry only marks its block,
    and so does an entry above 1e154, whose square overflows.
    """
    # a[c, i, j]: the rate of i -> j, so the rates out of a state are a row
    a = stack.real.transpose(0, 2, 1)
    count, m, _ = a.shape
    states = np.arange(m)
    with np.errstate(all="ignore"):
        # one past the last state that shares a rate with a later one
        linked = (a != 0.0) | (a.transpose(0, 2, 1) != 0.0)
        kept = m - (linked & (states[:, None] < states)).any(axis=2)[:, ::-1].argmax(axis=1)
        kinds = set(kept.tolist())
        if len(kinds) == 1:
            p = _eliminated(a, kinds.pop())
        else:
            p = np.empty((count, m))
            for kind in kinds:
                group = kept == kind
                p[group] = _eliminated(a[group], kind)
        # A zero pivot divides the rates into its state by zero, which makes
        # that state's p infinite or NaN, since p[0] = 1 reaches it; p and
        # the squared entries are nonnegative, so their sums are finite only
        # if every one is (an entry above 1e154 counts as not finite).
        total = p.sum(axis=1)
        square = np.square(abs(stack)).reshape(count, -1).sum(axis=1)
        solved = np.isfinite(total + square)
        p /= total[:, None]
        frobenius = np.sqrt(square)
        # divided by the Frobenius norm, so that squaring cannot overflow
        scaled = abs((stack @ p[:, :, None])[:, :, 0] / frobenius[:, None])
        residual = np.sqrt(np.square(scaled).sum(axis=1))
    return p, solved, frobenius, residual


def _eliminated(a: np.ndarray, kept: int) -> np.ndarray:
    """GTH on the transposed rates ``a`` of blocks whose states from
    ``kept`` on share no rate (:func:`_stationary_rates`): the unnormalized
    p of each block.  ``a`` is only read."""
    # the unlinked states at once: the rates of each go only to the kept states
    out = a[:, kept:, :kept]
    into = a[:, :kept, kept:] / out.sum(axis=2)[:, None, :]
    if kept == 1:  # a star, as in a three-level system: p is (1, into)
        return np.concatenate((np.ones((len(a), 1)), into[:, 0]), axis=1)
    a = a[:, :kept, :kept] + into @ out
    for k in range(kept - 1, 0, -1):
        row = a[:, k, :k]
        column = a[:, :k, k]
        column /= row.sum(axis=1, keepdims=True)
        a[:, :k, :k] += column[:, :, None] * row[:, None, :]
    p = np.zeros((len(a), 1, kept))
    p[:, 0, 0] = 1.0
    states = np.arange(kept)
    upper = np.where(states[:, None] < states, a, 0.0)
    span = 1
    while span < kept:
        p += p @ upper
        span *= 2
        if span < kept:
            upper = upper @ upper
    return np.concatenate((p, p @ into), axis=2)[:, 0]


def _split(joined: tuple, lengths: list[int]) -> list[tuple]:
    """A tuple of arrays over blocks cut into runs of these lengths."""
    if len(lengths) == 1:
        return [joined]
    bounds = np.cumsum(lengths).tolist()
    return [tuple(x[lo:hi] for x in joined) for lo, hi in zip([0, *bounds], bounds)]


def _graded(blocks: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every block of a stack and its indices, largest diagonal entries first.
    A symmetric permutation keeps the singular values, and the SVD's null
    vector of a rate matrix whose rates span many decades is far more
    accurate in this order (1e-15 against 1e-10 for a cold chain at weak
    tunneling)."""
    grade = (-abs(blocks.diagonal(axis1=1, axis2=2))).argsort(axis=1, kind="stable")
    block = np.arange(len(blocks))[:, None]
    return blocks[block[:, :, None], grade[:, :, None], grade[:, None, :]], index[block, grade]


def _picked(array: np.ndarray, at: np.ndarray | None) -> np.ndarray:
    return array if at is None else array[at]


def _rate_blocks(liouvs) -> list[tuple[list, list]]:
    """The rate-matrix blocks above 1 x 1 of every generator, all of whose
    indices are populations (i, i), solved by one GTH elimination per block
    size over all generators (:func:`_stationary_rates`), whose results are
    those of each block alone.  Per generator: the solved blocks, as (index,
    p, blocks, Frobenius norms, residuals) per stack, and the blocks left
    for the SVD, as (stack, blocks or None for all) in the order of the
    stacks: the other blocks above 1 x 1, and after them the rate-matrix
    blocks of the same stack that GTH cannot solve."""
    solved = [[] for _ in liouvs]
    left = [[] for _ in liouvs]  # per generator, a list per stack
    by_size: dict[int, list] = {}  # (generator, stack, rate-matrix blocks or None, its list in left)
    for g, liouv in enumerate(liouvs):
        population = liouv.dim + 1
        for n, (index, stack) in enumerate(zip(liouv.indices, liouv.blocks)):
            if stack.shape[-1] == 1:
                continue
            mask = (index % population == 0).all(axis=1)
            flags = mask.tolist()
            parts = [] if all(flags) else [(n, np.flatnonzero(~mask) if any(flags) else None)]
            left[g].append(parts)
            if any(flags):
                by_size.setdefault(stack.shape[-1], []).append(
                    (g, n, None if all(flags) else np.flatnonzero(mask), parts))
    for members in by_size.values():
        stacks = [_picked(liouvs[g].blocks[n], at) for g, n, at, _ in members]
        joined = _stationary_rates(stacks[0] if len(stacks) == 1 else np.concatenate(stacks))
        for (g, n, at, parts), stack, (p, ok, norms, residuals) in zip(
                members, stacks, _split(joined, [len(x) for x in stacks])):
            index = _picked(liouvs[g].indices[n], at)
            if ok.all():
                solved[g].append((index, p, stack, norms, residuals))
                continue
            if ok.any():
                solved[g].append((index[ok], p[ok], stack[ok], norms[ok], residuals[ok]))
            where = np.flatnonzero(~ok)
            parts.append((n, where if at is None else at[where]))
    return [(rates, [part for parts in per_stack for part in parts]) for rates, per_stack in zip(solved, left)]


def steady_state(liouv: Liouvillian) -> np.ndarray:
    """Stationary state from the null space of the generator, block by block.

    The null space of the generator is that of its blocks together, each
    counted by its own rule.  A 1 x 1 block (i, i') is null when its entry
    is zero, not when it is small against the rest of the generator: in a
    cold chain the decay of a coherence between ground levels is 1e-13 of
    the largest rate and is no null vector.  Its terms, -i (E_i - E_i') and
    decay terms whose real parts are <= 0, cannot cancel unless a jump lands
    on it, so for the null count :func:`liouvillian` clears, where a jump
    lands, an entry within ``NULL_SPACE_RTOL`` of the summed magnitudes of
    |E_i - E_i'|, its decay terms and its jumps; :func:`evolve` steps the
    same generator, whose cleared entries are rounding.  A rate-matrix
    block, all of whose indices are populations (i, i), has one null vector
    when Grassmann-Taksar-Heyman elimination finds its pivots positive
    (every state reaches one closed class), and its largest singular value
    is computed, values alone, only where its Frobenius norm exceeds the
    largest of the other blocks.  Any other block, and a rate-matrix block
    with a zero or non-finite pivot or entry, counts its singular values
    below ``NULL_SPACE_RTOL`` times the largest singular value of the whole
    generator, from an SVD of the block graded by its diagonal.
    Exactly one null vector must be found: none raises SolverFailureError
    and more than one raises NonUniqueSteadyStateError reporting the
    dimension found.  The state is that null vector, mapped back to the lab
    basis, checked to be stationary to ``STEADY_RESIDUAL_RTOL`` of the
    largest singular value and checked as a density matrix in full.  A
    block whose entries are not finite fails its generator with the SVD's
    error.  This is the batch of one of the solve a sweep runs over many
    generators (:func:`_steady_states`).
    """
    (state,) = _steady_states((liouv,))
    if isinstance(state, Exception):
        raise state
    return state


def _steady_states(liouvs) -> list[np.ndarray | Exception]:
    """The steady state of every generator of a sequence, or the error its
    own solve raises (a QThermoError or a ValueError, which LinAlgError
    is), as :func:`steady_state` solves one.

    The rate-matrix blocks of one size from all generators go through one
    batched GTH elimination (:func:`_rate_blocks`); every other block is
    solved with its own generator (:func:`_null_vector`).  The residual of a
    state held by a rate-matrix block is that block's alone, computed for
    all such blocks of one size at once.  The null vectors of the
    generators of one dimension are made Hermitian, normalized, mapped back
    to the lab basis and checked as density matrices as one stack (one
    ``eigvalsh``), each state exactly as it would be alone, and then
    recorded.
    """
    results: list = [None] * len(liouvs)
    nulls: dict[int, list] = {}  # by dimension: (generator, top, null vector entries, residual)
    for g, (liouv, (rates, left)) in enumerate(zip(liouvs, _rate_blocks(liouvs))):
        try:
            top, entries, residual = _null_vector(liouv, rates, left)
        except (QThermoError, ValueError) as exc:
            results[g] = exc
        else:
            nulls.setdefault(liouv.dim, []).append((g, top, entries, residual))
    for dim, group in nulls.items():
        _stationary_states(liouvs, dim, group, results)
    return results


def _null_vector(liouv: Liouvillian, rates: list, left: list) -> tuple[float, tuple, float | None]:
    """The null rule of one generator, given its GTH-solved blocks and the
    blocks left for the SVD (:func:`_rate_blocks`): its largest singular
    value, the (rows, cols, values) of its null vector as a matrix in the
    eigenbasis, and its residual relative to the largest singular value
    when a rate-matrix block holds it.  A state held by a rate-matrix block
    sees zeros in every other block, so that block's residual is the
    generator's."""
    scalars = np.zeros(0)  # the entries of the 1 x 1 blocks, each null when it is zero
    if liouv.blocks and liouv.blocks[0].shape[-1] == 1:
        scalars = abs(liouv.blocks[0][:, 0, 0])
    decomposed = []  # (index, singular values, right singular vectors), graded
    for n, at in left:
        blocks, index = _graded(_picked(liouv.blocks[n], at), _picked(liouv.indices[n], at))
        _, singulars, right = np.linalg.svd(blocks)
        decomposed.append((index, singulars, right))
    singulars = [s for _, s, _ in decomposed]
    top = others = max((float(s.max()) for s in [scalars, *singulars] if s.size), default=0.0)
    for _, _, blocks, frobenius, _ in rates:
        above = frobenius > others
        if above.any():
            values = np.linalg.svd(blocks if above.all() else blocks[above], compute_uv=False)
            top = max(top, float(values.max()))
    if top == 0.0:
        raise SolverFailureError("generator is identically zero; every state is stationary")
    limit = NULL_SPACE_RTOL * top
    null = [s <= limit for s in singulars]
    null_dim = sum(int(np.count_nonzero(mask)) for mask in null)
    if math.isfinite(limit):
        null_dim += sum(len(p) for _, p, _, _, _ in rates) + scalars.size - int(np.count_nonzero(scalars))
    else:
        # a non-finite 1 x 1 entry: every singular value is compared with
        # the limit, which counts all of them (inf) or none (NaN)
        null_dim += sum(p.size for _, p, _, _, _ in rates) if limit > 0 else 0
        null_dim += int(np.count_nonzero(scalars <= limit))
    if null_dim == 0:
        smallest = min(float(s.min()) for s in [*singulars, scalars] if s.size)
        raise SolverFailureError(
            f"no singular value below {NULL_SPACE_RTOL:.0e} of the largest; smallest ratio "
            f"{smallest / top:.3e}"
        )
    if null_dim > 1:
        raise NonUniqueSteadyStateError(
            f"steady state is not unique: null space has dimension {null_dim}", null_dim
        )
    if rates:
        index, p, _, frobenius, residual = rates[0]
        # the population (i, i) sits at the column-stacked index i * (dim + 1)
        levels = index[0] // (liouv.dim + 1)
        return top, (levels, levels, p[0]), float(residual[0]) * (float(frobenius[0]) / top)
    # the column-stacked index i + dim * j of the block holds entry (i, j)
    if not scalars.all():
        cols, rows = np.divmod(liouv.indices[0][scalars == 0.0, 0], liouv.dim)
        return top, (rows, cols, np.ones(1, dtype=complex)), None
    holder = next(n for n, mask in enumerate(null) if mask.any())
    index, _, right = decomposed[holder]
    block = int(np.flatnonzero(null[holder].any(axis=1))[0])
    cols, rows = np.divmod(index[block], liouv.dim)
    return top, (rows, cols, right[block, -1].conj()), None


def _stationary_states(liouvs, dim: int, group: list, results: list) -> None:
    """Finish the solves of the generators of one dimension from their null
    vectors (:func:`_null_vector`): each state, or its error, goes into
    ``results``.  A state held by a rate-matrix block is diagonal in the
    eigenbasis, normalized and its residual known; any other is the
    normalized Hermitian part of its null vector, whose residual is taken
    over every block.  Every step acts on the stack of states entry by entry
    or matrix by matrix, so each state is the one its generator gives
    alone."""
    kept, stacks = [], []
    held = []
    for g, top, (levels, _, p), relative in group:
        if relative is None:
            continue
        if relative > STEADY_RESIDUAL_RTOL:
            results[g] = _residual_error(relative, top)
        else:
            held.append((g, levels, p))
    if held:
        diagonals = np.zeros((len(held), 1, dim))
        for diagonal, (_, levels, p) in zip(diagonals, held):
            diagonal[0, levels] = p
        bases = _bases(liouvs, [g for g, _, _ in held])
        stacks.append(bases * diagonals @ bases.conj().swapaxes(1, 2))
        kept += [g for g, _, _ in held]
    others = [member for member in group if member[3] is None]
    if others:
        # the Hermitian parts (M + M^dagger) / 2 and their normalization, in place
        candidates = np.zeros((len(others), dim, dim), dtype=complex)
        for candidate, (_, _, (rows, cols, values), _) in zip(candidates, others):
            candidate[rows, cols] = values
        candidates += candidates.conj().swapaxes(1, 2)
        candidates *= 0.5
        traces = candidates.trace(axis1=1, axis2=2).real.tolist()
        normal = []
        for k, (rho_in_basis, (g, top, _, _), trace) in enumerate(zip(candidates, others, traces)):
            if abs(trace) < 1e-12:
                results[g] = SolverFailureError("null vector is traceless; no normalizable stationary state")
                continue
            rho_in_basis /= trace
            liouv = liouvs[g]
            stacked = rho_in_basis.ravel(order="F")
            # relative to top, so that squaring cannot overflow on a finite generator
            square = 0.0
            for index, stack in zip(liouv.indices, liouv.blocks):
                scaled = stack @ stacked[index][:, :, None] / top
                square += np.vdot(scaled, scaled).real
            relative = math.sqrt(square)
            if relative > STEADY_RESIDUAL_RTOL:
                results[g] = _residual_error(relative, top)
                continue
            normal.append((k, g))
        if normal:
            if len(normal) < len(others):
                candidates = candidates[[k for k, _ in normal]]
            bases = _bases(liouvs, [g for _, g in normal])
            stacks.append(bases @ candidates @ bases.conj().swapaxes(1, 2))
            kept += [g for _, g in normal]
    if not kept:
        return
    states = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    del stacks  # before the check allocates its own stacks
    states += states.conj().swapaxes(1, 2)
    states *= 0.5
    for g, state, error in zip(kept, states, _record_density_matrices(states, name="steady state")):
        results[g] = state if error is None else error


def _bases(liouvs, generators: list[int]) -> np.ndarray:
    """The eigenbases of these generators as one stack."""
    if len(generators) == 1:
        return liouvs[generators[0]].basis[None]
    return np.stack([liouvs[g].basis for g in generators])


def _residual_error(relative: float, top: float) -> SolverFailureError:
    return SolverFailureError(
        f"stationary residual {relative * top:.3e} above {STEADY_RESIDUAL_RTOL:.0e} * ||L|| = "
        f"{STEADY_RESIDUAL_RTOL * top:.3e}"
    )


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
