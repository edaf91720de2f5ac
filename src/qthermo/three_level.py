"""Closed-form physics of a three-level particle between two thermal baths.

Two configurations are covered:

* ``lambda``: two low levels, each coupled through its own bath to one shared
  excited level.  The population accumulates on the side of the colder bath,
  and the mean position obeys a driven damped oscillator equation whose drive
  is the thermophoretic force.
* ``vee``: one shared ground level coupled to two excited levels.  The force
  is the exact negative of the lambda one, so the particle drifts toward the
  hotter bath.

Every closed form here is cross-checked in the test suite against the full
eigenbasis master equation built by :mod:`qthermo.davies`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .davies import BathSpec, FlatDensity, OpenSystem, bose_occupation
from .errors import DegenerateInputError, InvariantViolationError
from .linalg import require_density_matrix, screen_states

LAMBDA = "lambda"
VEE = "vee"
# slack of the range [0, 1] and of the unit sum of LevelPopulations
POPULATION_ATOL = 1e-12


@dataclass(frozen=True)
class ThreeLevelParams:
    """Model parameters; frequencies and rates in energy units, temperatures
    likewise, ``d`` the separation of the two localized positions."""

    configuration: str
    omega_1: float = 1.0
    omega_2: float = 1.0
    gamma_1: float = 1.0
    gamma_2: float = 1.0
    temp_1: float = 1.0
    temp_2: float = 1.0
    d: float = 1.0

    def __post_init__(self):
        if self.configuration not in (LAMBDA, VEE):
            raise InvariantViolationError(
                f"configuration must be {LAMBDA!r} or {VEE!r}, got {self.configuration!r}"
            )
        for name in ("omega_1", "omega_2", "gamma_1", "gamma_2", "d"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InvariantViolationError(f"{name} must be finite and > 0, got {value}")
        for name in ("temp_1", "temp_2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise InvariantViolationError(f"{name} must be finite and >= 0, got {value}")

    @classmethod
    def from_occupations(
        cls,
        configuration: str,
        n_1: float,
        n_2: float,
        omega: float = 1.0,
        gamma: float = 1.0,
        d: float = 1.0,
    ) -> "ThreeLevelParams":
        """Build parameters from target bath occupations at a common transition
        frequency (see :func:`occupation_temperature`)."""
        return cls(
            configuration=configuration,
            omega_1=omega,
            omega_2=omega,
            gamma_1=gamma,
            gamma_2=gamma,
            temp_1=occupation_temperature(n_1, omega),
            temp_2=occupation_temperature(n_2, omega),
            d=d,
        )


def occupation_temperature(n: float, omega: float) -> float:
    """Bath temperature at which the mode ``omega`` holds the mean occupation
    ``n``: T = omega / ln(1 + 1/n), and T = 0 for n = 0."""
    if n < 0:
        raise InvariantViolationError(f"occupation must be >= 0, got {n}")
    return 0.0 if n == 0 else omega / math.log1p(1.0 / n)


def occupations(params: ThreeLevelParams) -> tuple[float, float]:
    """Bath occupations, each evaluated at its own transition frequency."""
    return (
        bose_occupation(params.omega_1, params.temp_1),
        bose_occupation(params.omega_2, params.temp_2),
    )


def _require_equal_rates(params: ThreeLevelParams) -> float:
    if params.gamma_1 != params.gamma_2:
        raise InvariantViolationError(
            "the closed forms assume equal bath rates; got "
            f"gamma_1 = {params.gamma_1}, gamma_2 = {params.gamma_2}"
        )
    return params.gamma_1


@dataclass(frozen=True)
class LevelPopulations:
    """Populations of the two position-carrying levels and of the shared third
    level (excited for lambda, ground for vee)."""

    p_1: float
    p_2: float
    p_shared: float

    def __post_init__(self):
        for name in ("p_1", "p_2", "p_shared"):
            value = getattr(self, name)
            if not -POPULATION_ATOL <= value <= 1.0 + POPULATION_ATOL:
                raise InvariantViolationError(f"{name} = {value} outside [0, 1]")
        total = self.p_1 + self.p_2 + self.p_shared
        if abs(total - 1.0) > POPULATION_ATOL:
            raise InvariantViolationError(f"populations sum to {total}, not 1")

    @classmethod
    def closing(cls, p_1: float, p_2: float) -> "LevelPopulations":
        """Complete the triple using probability conservation."""
        return cls(p_1, p_2, 1.0 - p_1 - p_2)

    @property
    def unbalance(self) -> float:
        return self.p_2 - self.p_1

    @property
    def mean(self) -> float:
        return 0.5 * (self.p_1 + self.p_2)


@dataclass(frozen=True)
class ThermoDiagnostics:
    """Occupation-level summary of the closed forms for one parameter set.

    With equal bath rates Gamma the mean position x obeys the driven damped
    oscillator equation mass x'' + Gamma x' + mass omega_sq x = force.
    """

    n_1: float
    n_2: float
    delta_n: float
    n_mean: float
    mass: float          # effective oscillator mass 1/(4 n_mean + 2)
    omega_sq: float      # squared oscillator frequency, in rate^2 units
    unbalance: float     # stationary population unbalance, in [-1, 1]
    force: float         # thermophoretic drive of the oscillator equation


def thermo_diagnostics(params: ThreeLevelParams) -> ThermoDiagnostics:
    """Closed-form diagnostics for either configuration (requires equal rates).

    For the lambda configuration the stationary unbalance diverges from zero
    toward the cold side; the vee force is its exact negative.  Both squared
    frequencies are nonnegative for all admissible occupations.
    """
    gamma = _require_equal_rates(params)
    n_1, n_2 = occupations(params)
    delta_n = n_2 - n_1
    n_mean = 0.5 * (n_1 + n_2)
    mass = 1.0 / (4.0 * n_mean + 2.0)
    if params.configuration == LAMBDA:
        if n_mean == 0.0:
            raise DegenerateInputError(
                "both baths at T = 0 leave the lambda system without dynamics"
            )
        reduced = n_mean * (3.0 * n_mean + 2.0) - 0.75 * delta_n**2
        unbalance = -delta_n / reduced
        force = -(delta_n / 2.0) * mass * gamma**2 * params.d
    else:
        reduced = (3.0 * n_mean + 1.0) * (n_mean + 1.0) - 0.75 * delta_n**2
        unbalance = delta_n / reduced
        force = +(delta_n / 2.0) * mass * gamma**2 * params.d
    return ThermoDiagnostics(
        n_1=n_1,
        n_2=n_2,
        delta_n=delta_n,
        n_mean=n_mean,
        mass=mass,
        omega_sq=gamma**2 * reduced,
        unbalance=unbalance,
        force=force,
    )


def _level_indices(params: ThreeLevelParams) -> tuple[int, int, int]:
    """Basis indices of (position 1, position 2, shared level): the lambda
    basis is (|1>, |2>, |e>), the vee basis (|g>, |1>, |2>)."""
    return (0, 1, 2) if params.configuration == LAMBDA else (1, 2, 0)


def three_level_system(params: ThreeLevelParams) -> OpenSystem:
    """Open system for either configuration, in the basis order of
    :func:`_level_indices`.

    Bath k couples position level k to the shared level with a flat spectral
    density, at transition frequency omega_k.  The energy zero sits at level
    |1> for lambda, so the Hamiltonian is diag(0, omega_1 - omega_2, omega_1),
    and at the ground level for vee, diag(0, omega_1, omega_2).
    """
    levels = _level_indices(params)
    shared = levels[2]
    is_lambda = params.configuration == LAMBDA
    energies = np.empty(3)
    energies[shared] = params.omega_1 if is_lambda else 0.0
    per_bath = (
        (params.omega_1, params.gamma_1, params.temp_1),
        (params.omega_2, params.gamma_2, params.temp_2),
    )
    baths = []
    for k, (omega, gamma, temperature) in enumerate(per_bath):
        # the position levels lie below the shared one for lambda, above for vee
        energies[levels[k]] = energies[shared] - omega if is_lambda else omega
        c = np.zeros((3, 3), dtype=complex)
        c[levels[k], shared] = c[shared, levels[k]] = 1.0
        baths.append(BathSpec(c, FlatDensity(gamma), temperature))
    return OpenSystem(hamiltonian=np.diag(energies).astype(complex), baths=tuple(baths))


def lambda_system(params: ThreeLevelParams) -> OpenSystem:
    """Open system for the lambda configuration: two low levels, each coupled
    through its own bath to the shared excited one (see :func:`three_level_system`)."""
    if params.configuration != LAMBDA:
        raise InvariantViolationError("lambda_system needs configuration = 'lambda'")
    return three_level_system(params)


def vee_system(params: ThreeLevelParams) -> OpenSystem:
    """Open system for the vee configuration: bath k drives the |g> <-> |k>
    transition (see :func:`three_level_system`)."""
    if params.configuration != VEE:
        raise InvariantViolationError("vee_system needs configuration = 'vee'")
    return three_level_system(params)


def rate_matrix(params: ThreeLevelParams, spontaneous: bool = True) -> np.ndarray:
    """Population rate matrix on (P_1, P_2, P_shared); columns sum to zero.

    ``spontaneous=False`` drops the +1 of the downward rates, which models a
    purely classical environment and kills the stationary unbalance.
    """
    n_1, n_2 = occupations(params)
    s = 1.0 if spontaneous else 0.0
    g1, g2 = params.gamma_1, params.gamma_2
    # rates out of the position levels (1, 2) into the shared level and back:
    # absorption out and emission back for lambda, the reverse for vee
    leave_1, leave_2 = g1 * n_1, g2 * n_2
    enter_1, enter_2 = g1 * (n_1 + s), g2 * (n_2 + s)
    if params.configuration == VEE:
        leave_1, leave_2, enter_1, enter_2 = enter_1, enter_2, leave_1, leave_2
    return np.array(
        [
            [-leave_1, 0.0, enter_1],
            [0.0, -leave_2, enter_2],
            [leave_1, leave_2, -(enter_1 + enter_2)],
        ]
    )


def populations_from_state(rho, params: ThreeLevelParams) -> LevelPopulations:
    """Read (P_1, P_2, P_shared) off a three-level density matrix in the basis
    order used by :func:`lambda_system` / :func:`vee_system`."""
    state = require_density_matrix(rho)
    if state.shape != (3, 3):
        raise InvariantViolationError(f"expected a 3x3 state, got {state.shape}")
    diag = state.diagonal().real
    return LevelPopulations(*(float(diag[i]) for i in _level_indices(params)))


def _trajectory_positions(params: ThreeLevelParams, trajectory, times: np.ndarray) -> np.ndarray:
    """Mean position of every state of a trajectory.  Each state is checked as
    :func:`populations_from_state` checks it, in one batched pass, and the
    first state that fails raises that check's error naming its grid time."""
    states = np.asarray(trajectory, dtype=complex)
    if states.ndim != 3 or states.shape[1:] != (3, 3):
        raise InvariantViolationError(f"expected a stack of 3x3 states, got shape {states.shape}")
    if states.shape[0] != times.size:
        raise ValueError(f"trajectory has {states.shape[0]} states for {times.size} grid times")
    diag = states.diagonal(axis1=1, axis2=2).real
    p_1, p_2, p_shared = (diag[:, i] for i in _level_indices(params))
    # the range and normalization checks of LevelPopulations
    outside = np.zeros(times.size, dtype=bool)
    for p in (p_1, p_2, p_shared):
        outside |= ~((p >= -POPULATION_ATOL) & (p <= 1.0 + POPULATION_ATOL))
    outside |= ~(np.abs(p_1 + p_2 + p_shared - 1.0) <= POPULATION_ATOL)

    for i in np.flatnonzero(screen_states(states) | outside):
        try:
            populations_from_state(states[i], params)
        except InvariantViolationError as exc:
            raise InvariantViolationError(f"state at t = {times[i]:g}: {exc}") from exc
    return 0.5 * params.d * (p_2 - p_1)


@dataclass(frozen=True)
class TrajectoryCheck:
    """Mean position along a trajectory and the residual of its oscillator
    equation, computed with second-order finite differences."""

    times: np.ndarray
    position: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    residual: np.ndarray
    rel_residual_max: float


def _uniform_step(times: np.ndarray, caller: str) -> float:
    """The step of a uniform grid of at least four times; ``caller`` names
    the function in the ValueError a shorter or uneven grid raises."""
    steps = np.diff(times)
    if steps.size < 3 or np.max(np.abs(steps - steps[0])) > 1e-12 * max(steps[0], 1.0):
        raise ValueError(f"{caller} needs a uniform time grid of >= 4 points")
    return float(steps[0])


def _derivatives(values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    n = values.size
    if n < 4:
        raise ValueError("need at least four samples for the finite-difference stencils")
    vel = np.empty(n)
    acc = np.empty(n)
    vel[1:-1] = (values[2:] - values[:-2]) / (2.0 * dt)
    vel[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * dt)
    vel[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * dt)
    acc[1:-1] = (values[2:] - 2.0 * values[1:-1] + values[:-2]) / dt**2
    acc[0] = (2.0 * values[0] - 5.0 * values[1] + 4.0 * values[2] - values[3]) / dt**2
    acc[-1] = (2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]) / dt**2
    return vel, acc


def mean_position_trajectory(
    params: ThreeLevelParams, trajectory: np.ndarray, t_grid
) -> TrajectoryCheck:
    """Mean position along a uniformly sampled trajectory and the pointwise
    residual of the driven-damped oscillator equation it must satisfy.

    The residual of the exact dynamics is pure discretization error and
    shrinks quadratically with the sampling step; a warning is issued when it
    stays above 1e-3 relative to the equation's own scale.
    """
    times = np.asarray(t_grid, dtype=float)
    dt = _uniform_step(times, "mean_position_trajectory")
    diag = thermo_diagnostics(params)
    mass, omega_sq, drive = diag.mass, diag.omega_sq, diag.force
    damping = params.gamma_1  # equal to gamma_2, which thermo_diagnostics requires
    position = _trajectory_positions(params, trajectory, times)
    velocity, acceleration = _derivatives(position, dt)
    residual = mass * acceleration + damping * velocity + mass * omega_sq * position - drive
    scale = float(
        np.max(
            np.abs(mass * acceleration)
            + np.abs(damping * velocity)
            + np.abs(mass * omega_sq * position)
            + abs(drive)
        )
    )
    rel = float(np.max(np.abs(residual)) / scale) if scale > 0 else 0.0
    if rel > 1e-3:
        warnings.warn(
            f"oscillator residual {rel:.2e} is dominated by the sampling step; refine the grid",
            stacklevel=2,
        )
    return TrajectoryCheck(
        times=times,
        position=position,
        velocity=velocity,
        acceleration=acceleration,
        residual=residual,
        rel_residual_max=rel,
    )


@dataclass(frozen=True)
class HighTemperatureForce:
    """Semiclassical force, its exact-occupation counterpart, and their
    relative deviation."""

    high_t: float
    exact_overdamped: float
    deviation: float


def high_temperature_force(params: ThreeLevelParams) -> HighTemperatureForce:
    """Semiclassical limit of the force, -(T'/T) Gamma^2 d^2 / 6 with T' the
    temperature slope across the separation, against the exact-occupation
    overdamped force -(dn / 3 n_mean) Gamma^2 d / 2.

    Requires equal transition frequencies so the thermal-equilibrium bias
    cannot masquerade as a gradient effect.
    """
    gamma = _require_equal_rates(params)
    if params.omega_1 != params.omega_2:
        raise InvariantViolationError(
            "the high-temperature comparison requires omega_1 = omega_2"
        )
    if params.temp_1 + params.temp_2 == 0:
        raise DegenerateInputError("both temperatures vanish; the mean temperature divides")
    t_slope = (params.temp_2 - params.temp_1) / params.d
    t_mean = 0.5 * (params.temp_1 + params.temp_2)
    high_t = -(t_slope / t_mean) * gamma**2 * params.d**2 / 6.0
    n_1, n_2 = occupations(params)
    delta_n = n_2 - n_1
    n_mean = 0.5 * (n_1 + n_2)
    if n_mean == 0:
        raise DegenerateInputError("zero mean occupation; no overdamped comparison")
    exact = -(delta_n / (3.0 * n_mean)) * gamma**2 * params.d / 2.0
    deviation = abs(high_t / exact - 1.0) if exact != 0 else (0.0 if high_t == 0 else math.inf)
    return HighTemperatureForce(high_t=high_t, exact_overdamped=exact, deviation=deviation)


@dataclass(frozen=True)
class OverdampedResult:
    """Late-time ratio acc / (-damping * n_mean * vel) with its spread across
    the analysis window; ``applicable`` is False for stationary input."""

    ratio: float
    spread: float
    applicable: bool
    n_mean: float


def overdamped_ratio(
    params: ThreeLevelParams, trajectory: np.ndarray, t_grid
) -> OverdampedResult:
    """Check that the mean-position acceleration tracks -Gamma n_mean times the
    velocity, the overdamped reduction valid at high occupations.

    The ratio is evaluated on the late part of the trajectory: after at least
    five time constants of the slowest population mode and within the final
    half of the samples, so the fast transient cannot contaminate it.
    """
    times = np.asarray(t_grid, dtype=float)
    dt = _uniform_step(times, "overdamped_ratio")
    gamma = _require_equal_rates(params)
    n_1, n_2 = occupations(params)
    n_mean = 0.5 * (n_1 + n_2)
    if n_mean == 0:
        return OverdampedResult(ratio=math.nan, spread=math.nan, applicable=False, n_mean=0.0)

    position = _trajectory_positions(params, trajectory, times)
    velocity, acceleration = _derivatives(position, dt)

    eigenvalues = np.linalg.eigvals(rate_matrix(params))
    decay = np.sort(np.abs(eigenvalues.real))
    slow = decay[decay > 1e-12 * max(decay.max(), 1.0)]
    if slow.size == 0:
        return OverdampedResult(ratio=math.nan, spread=math.nan, applicable=False, n_mean=n_mean)
    t_start = max(5.0 / slow[0], times[0] + 0.5 * (times[-1] - times[0]))
    window = times >= t_start
    window[[0, -1]] = False  # one-sided stencils are less accurate
    floor = 1e-12 * gamma * max(float(np.max(np.abs(position))), params.d)
    if not np.any(window) or float(np.max(np.abs(velocity[window]))) < floor:
        return OverdampedResult(ratio=math.nan, spread=math.nan, applicable=False, n_mean=n_mean)

    ratios = acceleration[window] / (-gamma * n_mean * velocity[window])
    ratio = float(np.median(ratios))
    spread = float(np.max(ratios) - np.min(ratios))
    return OverdampedResult(ratio=ratio, spread=spread, applicable=True, n_mean=n_mean)


def dufour_currents(
    pops: LevelPopulations, n_1: float, n_2: float, omega: float, gamma: float
) -> tuple[float, float, bool]:
    """Heat currents of the lambda system at clamped populations,
    J_k = omega gamma [(n_k + 1) P_shared - n_k P_k], and whether they are
    ordered J_1 > J_2 > 0.

    A clamped concentration unbalance P_2 > P_1 with population inversion
    makes bath 1 heat up faster: the reciprocal of thermophoresis.
    """
    if not all(map(math.isfinite, (n_1, n_2, omega, gamma))):
        raise InvariantViolationError(
            f"occupations, omega and gamma must be finite, got {n_1}, {n_2}, {omega}, {gamma}"
        )
    if n_1 < 0 or n_2 < 0:
        raise InvariantViolationError("occupations must be >= 0")
    j_1 = omega * gamma * ((n_1 + 1.0) * pops.p_shared - n_1 * pops.p_1)
    j_2 = omega * gamma * ((n_2 + 1.0) * pops.p_shared - n_2 * pops.p_2)
    return j_1, j_2, bool(j_1 > j_2 > 0.0)


@dataclass(frozen=True)
class BathHeatingHistory:
    """Temperature and current histories of two finite-capacity baths heated by
    a clamped population distribution.  ``truncated`` marks an early halt when
    a temperature reached zero."""

    times: np.ndarray
    temp_1: np.ndarray
    temp_2: np.ndarray
    current_1: np.ndarray
    current_2: np.ndarray
    truncated: bool


def finite_capacity_heating(
    pops: LevelPopulations,
    omega: float,
    gamma: float,
    temp_start: float,
    capacity: float,
    horizon: float,
    samples: int = 201,
) -> BathHeatingHistory:
    """Integrate dT_k/dt = J_k / C for two baths that start at the same
    temperature, with the occupations recomputed from the instantaneous
    temperatures at every stage.

    The populations stay clamped for the whole horizon.  Integration halts
    with the partial history if a temperature reaches zero.
    """
    if not (math.isfinite(capacity) and math.isfinite(temp_start)):
        raise InvariantViolationError(
            f"heat capacity and starting temperature must be finite, got {capacity}, {temp_start}"
        )
    if capacity <= 0:
        raise InvariantViolationError(f"heat capacity must be > 0, got {capacity}")
    if temp_start < 0:
        raise InvariantViolationError(f"starting temperature must be >= 0, got {temp_start}")
    if samples < 2 or not 0 < horizon < math.inf:
        raise ValueError("need horizon > 0 and at least two samples")

    def currents(t1: float, t2: float) -> tuple[float, float]:
        n_1 = bose_occupation(omega, max(t1, 0.0))
        n_2 = bose_occupation(omega, max(t2, 0.0))
        j_1, j_2, _ = dufour_currents(pops, n_1, n_2, omega, gamma)
        return j_1, j_2

    def rhs(s: np.ndarray) -> np.ndarray:
        return np.array(currents(s[0], s[1])) / capacity

    dt = horizon / (samples - 1)
    times = [0.0]
    t1_hist = [temp_start]
    t2_hist = [temp_start]
    j0 = currents(temp_start, temp_start)
    j1_hist = [j0[0]]
    j2_hist = [j0[1]]
    truncated = False
    state = np.array([temp_start, temp_start])
    for i in range(1, samples):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if state.min() <= 0.0:
            truncated = True
            break
        j = currents(state[0], state[1])
        times.append(i * dt)
        t1_hist.append(float(state[0]))
        t2_hist.append(float(state[1]))
        j1_hist.append(j[0])
        j2_hist.append(j[1])
    return BathHeatingHistory(
        times=np.array(times),
        temp_1=np.array(t1_hist),
        temp_2=np.array(t2_hist),
        current_1=np.array(j1_hist),
        current_2=np.array(j2_hist),
        truncated=truncated,
    )
