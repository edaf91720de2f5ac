"""Global (secular) thermal master equation for a discrete system with several baths.

The generator is built in the eigenbasis of the system Hamiltonian: every
bath coupling operator is decomposed into components oscillating at a single
transition frequency, and each component gets a thermal rate set by the
bath's spectral density and temperature.  At a uniform temperature this
construction relaxes any system to its Gibbs state, which the test suite uses
as an independent equilibrium oracle.

Sector construction.  One eigendecomposition H = U diag(E) U^dagger gives
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
3.3).  The generator is therefore held as one dense block per sector: the
steady state is the null vector of the zero sector, found from an SVD of
every block at a cost of sum n_w^3 instead of (d^2)^3, and the lab-basis
superoperator is formed only when time stepping or a caller reads it.

Time stepping.  One classic RK4 step of length h of the linear equation
d vec(rho)/dt = L vec(rho) is the matrix R(hL) = 1 + hL + (hL)^2/2 + (hL)^3/6
+ (hL)^4/24, the stability function of the method (Hairer & Wanner, Solving
Ordinary Differential Equations II, section IV.2).  ``evolve`` cuts a
grid interval into n equal steps, exactly as a step-by-step loop would.  For
an interval length used often enough that it pays (a uniform grid) it builds
the propagator R(hL)^n once, and each interval then costs one matrix-vector
product; other lengths are stepped on the vector.  The states are then
checked in one batched pass (:func:`qthermo.linalg.screen_states`).

Sign and rate conventions:

* frequencies are energy differences E_j - E_i between eigenlevels;
* a component at frequency w > 0 removes the energy w from the system and
  carries rate J(w) (1 + n(w, T)); its adjoint partner at -w carries
  J(w) n(w, T);
* heat currents are positive when energy flows from the system into a bath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    AccuracyError,
    AmbiguousGroupingError,
    DimensionMismatchError,
    InvariantViolationError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    SolverFailureError,
    UnsupportedModelError,
)
from .linalg import (
    EigenDecomposition,
    devectorize,
    eigh,
    hermitize,
    require_density_matrix,
    require_hermitian,
    screen_states,
    vectorize,
)

DEFAULT_FREQ_TOL = 1e-8
# Couplings are order-one matrices; below this the zero-frequency component
# counts as absent and no rate is needed for it.
ZERO_COMPONENT_ATOL = 1e-10
NULL_SPACE_RTOL = 1e-10
STEADY_RESIDUAL_RTOL = 1e-9
TRACE_DRIFT_TOL = 1e-7
EVOLUTION_HERMITICITY_ATOL = 1e-10
EVOLUTION_POSITIVITY_FLOOR = -1e-7


@dataclass(frozen=True)
class FlatDensity:
    """Frequency-independent spectral density J(w) = rate."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise InvariantViolationError(f"flat spectral density needs rate > 0, got {self.rate}")

    def value(self, omega: float) -> float:
        return self.rate

    def scaled(self, factor: float) -> "FlatDensity":
        return FlatDensity(self.rate * factor)


@dataclass(frozen=True)
class OhmicDensity:
    """Linear spectral density J(w) = slope * w for w > 0."""

    slope: float

    def __post_init__(self):
        if not self.slope > 0:
            raise InvariantViolationError(f"ohmic spectral density needs slope > 0, got {self.slope}")

    def value(self, omega: float) -> float:
        return self.slope * omega

    def scaled(self, factor: float) -> "OhmicDensity":
        return OhmicDensity(self.slope * factor)


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
        if self.temperature < 0:
            raise InvariantViolationError(f"bath temperature must be >= 0, got {self.temperature}")


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
    if omega <= 0:
        raise ValueError(f"bose_occupation needs omega > 0, got {omega}")
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0, got {temperature}")
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
    if nonzero.size and freq_tol >= nonzero.min() / 4.0:
        raise AmbiguousGroupingError(
            f"grouping tolerance {freq_tol:.3e} is not below a quarter of the minimum "
            f"nonzero level spacing {nonzero.min():.3e}"
        )


@dataclass(frozen=True)
class _FrequencyGroup:
    frequency: float  # representative (group mean, exact 0 for the zero group)
    lo: float
    hi: float


def _frequency_groups(energies: np.ndarray, freq_tol: float) -> list[_FrequencyGroup]:
    """Cluster all pairwise energy differences (diagonal included) into groups
    separated by more than ``freq_tol``.  Group representatives are symmetric
    under negation by construction, and the group containing zero is pinned
    to exactly zero."""
    diffs = (energies[None, :] - energies[:, None]).reshape(-1)
    order = np.sort(diffs)
    boundaries = np.flatnonzero(np.diff(order) > freq_tol)
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [order.size]))
    groups: list[_FrequencyGroup] = []
    for s, e in zip(starts, ends):
        chunk = order[s:e]
        spread = float(chunk[-1] - chunk[0])
        if spread > freq_tol:
            raise AmbiguousGroupingError(
                f"frequency cluster around {float(chunk.mean()):.6g} has spread {spread:.3e} "
                f"beyond the grouping tolerance {freq_tol:.3e}"
            )
        groups.append(_FrequencyGroup(float(chunk.mean()), float(chunk[0]), float(chunk[-1])))
    # Float subtraction is antisymmetric, so the sorted differences and their
    # clusters mirror exactly under negation: group n pairs with group
    # len - 1 - n.  Force representatives to be exactly closed under negation.
    symmetrized: list[_FrequencyGroup] = []
    for grp, partner in zip(groups, reversed(groups)):
        if abs(grp.frequency) <= freq_tol:
            frequency = 0.0
        else:
            frequency = 0.5 * (grp.frequency - partner.frequency)
        symmetrized.append(_FrequencyGroup(frequency, grp.lo, grp.hi))
    return symmetrized


def bohr_frequencies(eig: EigenDecomposition, freq_tol: float = DEFAULT_FREQ_TOL) -> np.ndarray:
    """Distinct transition frequencies E_j - E_i, grouped within ``freq_tol``,
    sorted ascending and closed under negation.

    Zero appears only when distinct levels are degenerate; the trivial i = j
    differences are not reported here (the jump-operator construction still
    processes the zero-frequency component for completeness).
    """
    _check_grouping_tolerance(eig.energies, freq_tol)
    groups = _frequency_groups(eig.energies, freq_tol)
    out = []
    dim = eig.dim
    for grp in groups:
        if grp.frequency == 0.0:
            # the zero group always holds the dim trivial i = j pairs; more
            # members means a degenerate pair exists
            diffs = (eig.energies[None, :] - eig.energies[:, None]).reshape(-1)
            members = np.count_nonzero((diffs >= grp.lo) & (diffs <= grp.hi))
            if members > dim:
                out.append(0.0)
        else:
            out.append(grp.frequency)
    return np.array(sorted(out))


@dataclass(frozen=True)
class _EigenModel:
    """An open system in the eigenbasis of its Hamiltonian, at one grouping
    tolerance; the generator, the jump operators and the heat currents all
    read it.

    ``labels[i, j]`` indexes ``groups`` with the group of E_j - E_i and
    ``zero`` marks the pairs of the zero group.  Per bath k: ``couplings[k]``
    is C_k = U^dagger V_k U, ``group_rates[k][n]`` the rate of group n,
    ``weighted[k]`` is R_k * C_k with R_k = group_rates[k][labels], and
    ``decay[k]`` is sum_w rate A_w^dagger A_w in the eigenbasis.
    """

    energies: np.ndarray
    states: np.ndarray
    groups: list[_FrequencyGroup]
    labels: np.ndarray
    zero: np.ndarray
    couplings: tuple[np.ndarray, ...]
    group_rates: tuple[np.ndarray, ...]
    weighted: tuple[np.ndarray, ...]
    decay: tuple[np.ndarray, ...]


def _eigen_model(system: OpenSystem, freq_tol: float) -> _EigenModel:
    """The system's eigenbasis model, built on first use and kept on the system."""
    model = system._models.get(freq_tol)
    if model is None:
        model = system._models[freq_tol] = _build_eigen_model(system, freq_tol)
    return model


def _build_eigen_model(system: OpenSystem, freq_tol: float) -> _EigenModel:
    """Decompose every bath coupling by transition frequency and attach rates.

    The zero-frequency component is always examined: if it vanishes its rate
    is zero, if not the rate is slope * T for an ohmic density while a flat
    density makes the zero-frequency rate diverge and raises
    UnsupportedModelError.
    """
    eig = eigh(system.hamiltonian)
    energies, states = eig.energies, eig.states
    _check_grouping_tolerance(energies, freq_tol)
    groups = _frequency_groups(energies, freq_tol)
    # every difference is one of the clustered values, so it lies in
    # [lo, hi] of exactly one group
    diffs = energies[None, :] - energies[:, None]
    labels = np.searchsorted([grp.lo for grp in groups], diffs, side="right") - 1
    zero_label = next(n for n, grp in enumerate(groups) if grp.frequency == 0.0)
    zero = labels == zero_label

    couplings, group_rates, weighted, decay = [], [], [], []
    for k, bath in enumerate(system.baths):
        coupling = states.conj().T @ bath.coupling @ states
        rates = np.zeros(len(groups))
        for n, grp in enumerate(groups):
            if n != zero_label:
                rates[n] = thermal_rate(bath.spectral, grp.frequency, bath.temperature)
        magnitude = float(np.max(np.abs(coupling[zero]))) if coupling.size else 0.0
        if magnitude > ZERO_COMPONENT_ATOL:
            if not isinstance(bath.spectral, OhmicDensity):
                raise UnsupportedModelError(
                    f"bath {k}: zero-frequency coupling component of magnitude "
                    f"{magnitude:.3e} with a flat spectral density has a diverging rate; "
                    "use an ohmic density or a model whose zero-frequency component vanishes"
                )
            rates[zero_label] = bath.spectral.slope * bath.temperature
        weight = rates[labels] * coupling
        couplings.append(coupling)
        group_rates.append(rates)
        weighted.append(weight)
        # (A_w^dagger A_w)[i, i'] pairs (j, i) and (j, i') of one group, which
        # happens exactly when (i, i') lies in the zero group
        decay.append(np.where(zero, weight.conj().T @ coupling, 0.0))
    return _EigenModel(
        energies=energies,
        states=states,
        groups=groups,
        labels=labels,
        zero=zero,
        couplings=tuple(couplings),
        group_rates=tuple(group_rates),
        weighted=tuple(weighted),
        decay=tuple(decay),
    )


@dataclass(frozen=True)
class JumpTerm:
    """One single-frequency component of a bath coupling, with its thermal rate."""

    frequency: float
    operator: np.ndarray
    rate: float


@dataclass(frozen=True)
class JumpOperatorSet:
    """Per-bath single-frequency components; ``terms[k]`` belongs to bath k.

    Within each bath the operators sum back to the coupling operator, and the
    component at -w is the adjoint of the one at +w.
    """

    terms: tuple[tuple[JumpTerm, ...], ...]
    freq_tol: float


def jump_operators(system: OpenSystem, freq_tol: float = DEFAULT_FREQ_TOL) -> JumpOperatorSet:
    """Every bath coupling split into lab-basis components per transition
    frequency, with thermal rates: a view of the eigenbasis model the
    generator is built from.

    The zero-frequency component is always present: with rate zero if it
    vanishes, slope * T for an ohmic density otherwise, while a flat density
    with a nonvanishing zero-frequency component raises UnsupportedModelError.
    """
    model = _eigen_model(system, freq_tol)
    states = model.states
    all_terms = []
    for coupling, rates in zip(model.couplings, model.group_rates):
        all_terms.append(tuple(
            JumpTerm(
                grp.frequency,
                states @ np.where(model.labels == n, coupling, 0.0) @ states.conj().T,
                float(rates[n]),
            )
            for n, grp in enumerate(model.groups)
        ))
    return JumpOperatorSet(terms=tuple(all_terms), freq_tol=freq_tol)


class Liouvillian:
    """Generator of the master equation, held as one dense block per sector.

    ``blocks[s]`` is the generator restricted to ``sectors[s]``, the
    column-stacked indices of the matrix entries it couples, with matrices
    written in the orthonormal ``basis`` (column i is basis vector i); no
    entry couples two sectors.  ``matrix`` is the column-stacking
    superoperator in the lab basis, formed from the blocks when first read.
    A bare ``matrix`` is held as a single sector in the identity basis.
    """

    def __init__(
        self,
        matrix=None,
        *,
        dim: int,
        default_dt: float,
        basis: np.ndarray | None = None,
        sectors: tuple[np.ndarray, ...] = (),
        blocks: tuple[np.ndarray, ...] = (),
    ):
        if matrix is not None:
            matrix = np.asarray(matrix, dtype=complex)
            if matrix.shape != (dim * dim, dim * dim):
                raise DimensionMismatchError(
                    f"generator of shape {matrix.shape} does not act on dimension {dim}"
                )
            basis = np.eye(dim, dtype=complex)
            sectors = (np.arange(dim * dim),)
            blocks = (matrix,)
        elif basis is None:
            raise TypeError("Liouvillian needs a matrix, or a basis with sectors and blocks")
        self.dim = dim
        self.default_dt = default_dt
        self.basis = basis
        self.sectors = tuple(sectors)
        self.blocks = tuple(blocks)
        self._matrix = matrix

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            size = self.dim * self.dim
            in_basis = np.zeros((size, size), dtype=complex)
            for pairs, block in zip(self.sectors, self.blocks):
                in_basis[np.ix_(pairs, pairs)] = block
            # vec(U X U^dagger) = (conj(U) kron U) vec(X)
            change = np.kron(self.basis.conj(), self.basis)
            self._matrix = change @ in_basis @ change.conj().T
        return self._matrix

    def apply(self, m) -> np.ndarray:
        """Action on a matrix: devectorize(matrix @ vectorize(m))."""
        return devectorize(self.matrix @ vectorize(m))


def liouvillian(system: OpenSystem, freq_tol: float = DEFAULT_FREQ_TOL) -> Liouvillian:
    """Build the generator, coherent commutator plus one dissipator per bath
    and transition frequency, block by Bohr-frequency sector in the
    eigenbasis (see the module docstring)."""
    model = _eigen_model(system, freq_tol)
    dim = system.dim
    energies = model.energies
    decay = sum(model.decay, np.zeros((dim, dim), dtype=complex)).reshape(-1)

    # sector of the pair (i, i'), stored at the column-stacked index i + dim i':
    # the group of E_i' - E_i
    sector_of = model.labels.reshape(-1, order="F")
    order = np.argsort(sector_of, kind="stable")
    sectors = np.split(order, np.flatnonzero(np.diff(sector_of[order])) + 1)
    # every entry ((i, i'), (j, j')) of every block, row-major within each block
    rows = np.concatenate([np.repeat(pairs, pairs.size) for pairs in sectors])
    cols = np.concatenate([np.tile(pairs, pairs.size) for pairs in sectors])
    i, i_ = rows % dim, rows // dim
    j, j_ = cols % dim, cols // dim
    left, right = i * dim + j, i_ * dim + j_  # flat indices of [i, j] and [i', j']
    # within one sector G[i, j] = G[i', j'] always holds: the two differences
    # lie within freq_tol of each other, so they share a group
    entries = np.zeros(rows.size, dtype=complex)
    for weight, coupling in zip(model.weighted, model.couplings):
        entries += weight.reshape(-1)[left] * coupling.conj().reshape(-1)[right]
    entries -= 0.5 * (decay[left] * (i_ == j_) + decay[j_ * dim + i_] * (i == j))
    entries -= 1j * (energies[i] - energies[i_]) * (rows == cols)
    sizes = [pairs.size for pairs in sectors]
    blocks = [
        part.reshape(n, n)
        for part, n in zip(np.split(entries, np.cumsum([n * n for n in sizes])[:-1]), sizes)
    ]

    # the largest rate of a component above the zero-component threshold
    max_rate = 0.0
    for coupling, rates in zip(model.couplings, model.group_rates):
        present = np.abs(coupling) > ZERO_COMPONENT_ATOL
        max_rate = max(max_rate, float(np.max(rates[model.labels][present], initial=0.0)))
    spectral_norm_h = float(np.max(np.abs(energies))) if dim else 0.0
    scale = max_rate + spectral_norm_h
    default_dt = 0.01 / scale if scale > 0 else math.inf
    return Liouvillian(
        dim=dim,
        default_dt=default_dt,
        basis=model.states,
        sectors=tuple(sectors),
        blocks=tuple(blocks),
    )


def _rk4_step(matrix: np.ndarray, h: float, x: np.ndarray) -> np.ndarray:
    """R(hL) x for one classic RK4 step of length h, by Horner's rule:
    x + hL (x + hL/2 (x + hL/3 (x + hL/4 x))).  With x a state vector this is
    one step; with x the identity it is the matrix R(hL)."""
    stage = x + (h / 4.0) * (matrix @ x)
    for divisor in (3.0, 2.0, 1.0):
        stage = x + (h / divisor) * (matrix @ stage)
    return stage


def _propagator_pays(n_sub: int, uses: int, size: int) -> bool:
    """Whether R(hL)^n_sub takes fewer multiply-adds to build and apply than
    stepping the vector.  The power costs 4 products of size x size matrices
    for R(hL), floor(log2 n) squarings and popcount(n) - 1 further products,
    then one matrix-vector product per use; stepping costs four
    matrix-vector products per substep per use."""
    products = 4 + (n_sub.bit_length() - 1) + (n_sub.bit_count() - 1)
    return products * size + uses <= 4 * n_sub * uses


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
    interval of n equal steps is the propagator R(hL)^n.  An interval length
    whose uses cost more step by step than building R(hL)^n does (counted in
    multiply-adds: uniform grids, small systems) gets the propagator, built
    once and applied with one matrix-vector product per interval; any other
    length is stepped on the vector, four matrix-vector products per step.
    Trace drift beyond 1e-7, an entry of magnitude above 1 + 1e-7 (which no
    density matrix has, so an unstable step shows before its trace drifts) or
    non-finite entries raise AccuracyError suggesting a smaller step, naming
    the first grid time that fails.
    """
    rho = require_density_matrix(rho0)
    if rho.shape[0] != liouv.dim:
        raise InvariantViolationError(f"state dimension {rho.shape[0]} differs from generator {liouv.dim}")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ValueError("t_grid must be a one-dimensional sequence of times")
    if times[0] < 0 or (times.size > 1 and not np.all(np.diff(times) > 0)):
        raise ValueError("t_grid must be strictly increasing and start at a time >= 0")
    step = dt if dt is not None else liouv.default_dt
    if not step > 0:
        raise ValueError(f"dt must be > 0, got {step}")

    matrix = liouv.matrix
    dim = liouv.dim
    spans = np.diff(times)
    lengths, uses = np.unique(spans, return_counts=True)
    use_count = dict(zip(lengths.tolist(), uses.tolist()))
    propagators: dict[float, np.ndarray | None] = {}
    vec = vectorize(rho)
    out = np.empty((times.size, dim, dim), dtype=complex)
    out[0] = rho
    # an unstable step overflows; the screen below reports it as AccuracyError
    with np.errstate(over="ignore", invalid="ignore"):
        for i, span in enumerate(spans.tolist(), start=1):
            n_sub = max(1, math.ceil(span / step)) if math.isfinite(step) else 1
            h = span / n_sub
            if span not in propagators:
                propagators[span] = None
                if _propagator_pays(n_sub, use_count[span], dim * dim):
                    one_step = _rk4_step(matrix, h, np.eye(dim * dim, dtype=complex))
                    propagators[span] = np.linalg.matrix_power(one_step, n_sub)
            propagator = propagators[span]
            if propagator is None:
                for _ in range(n_sub):
                    vec = _rk4_step(matrix, h, vec)
            else:
                vec = propagator @ vec
            out[i] = vec.reshape((dim, dim), order="F")

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


def steady_state(liouv: Liouvillian, null_rtol: float = NULL_SPACE_RTOL) -> np.ndarray:
    """Stationary state from the singular-value null space of the generator.

    The singular values of the generator are those of its sector blocks
    taken together.  Exactly one may sit below ``null_rtol`` times the
    largest; zero raises SolverFailureError and more than one raises
    NonUniqueSteadyStateError reporting the dimension found.  The state is
    the null vector of the block that holds it, mapped back to the lab basis.
    """
    decompositions = [np.linalg.svd(block) for block in liouv.blocks]
    singulars = [s for _, s, _ in decompositions]
    top = max((float(s[0]) for s in singulars if s.size), default=0.0)
    if top == 0.0:
        raise SolverFailureError("generator is identically zero; every state is stationary")
    null_counts = [int(np.count_nonzero(s <= null_rtol * top)) for s in singulars]
    null_dim = sum(null_counts)
    if null_dim == 0:
        smallest = min(float(s[-1]) for s in singulars if s.size)
        raise SolverFailureError(
            f"no singular value below {null_rtol:.0e} of the largest; smallest ratio "
            f"{smallest / top:.3e}"
        )
    if null_dim > 1:
        raise NonUniqueSteadyStateError(
            f"steady state is not unique: null space has dimension {null_dim}", null_dim
        )
    sector = null_counts.index(1)
    null_vector = np.zeros(liouv.dim * liouv.dim, dtype=complex)
    null_vector[liouv.sectors[sector]] = decompositions[sector][2][-1].conj()
    candidate = hermitize(devectorize(null_vector))
    trace = complex(np.trace(candidate)).real
    if abs(trace) < 1e-12:
        raise SolverFailureError("null vector is traceless; no normalizable stationary state")
    rho_in_basis = candidate / trace
    stacked = vectorize(rho_in_basis)
    residual = math.sqrt(sum(
        float(np.linalg.norm(block @ stacked[pairs])) ** 2
        for pairs, block in zip(liouv.sectors, liouv.blocks)
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

    The current of bath k is -Tr[D_k(rho) H], evaluated in the eigenbasis
    model the generator is built from.
    """
    state = require_density_matrix(rho)
    model = _eigen_model(system, freq_tol)
    states = model.states
    state_eig = states.conj().T @ state @ states
    # the diagonal of A_w rho A_w^dagger pairs rho[j, j'] with (i, j) and
    # (i, j') in one group, which happens exactly when (j, j') is in the zero group
    zero_part = np.where(model.zero, state_eig, 0.0)
    currents = []
    for weight, coupling, decay in zip(model.weighted, model.couplings, model.decay):
        gained = np.einsum("ij,jl,il->i", weight, zero_part, coupling.conj())
        lost = 0.5 * ((decay @ state_eig).diagonal() + (state_eig @ decay).diagonal())
        value = -complex(model.energies @ (gained - lost))
        if abs(value.imag) > 1e-10:
            raise NumericalConsistencyError(
                f"heat current has imaginary residue {value.imag:.3e} above 1e-10"
            )
        currents.append(value.real)
    return np.array(currents)


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
