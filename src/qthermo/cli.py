"""Command-line front end: config parsing, experiment orchestration, CSV output.

Config files use a flat ``key = value`` format with optional ``[section]``
headers; sections are purely organizational and do not change key names.
Lines starting with ``#`` are comments.  The same keys can be overridden on
the command line with ``--set key=value`` (applied after the file).

Every run is deterministic for a fixed configuration: the CSV payload is
byte-identical across runs, and the leading ``#`` metadata block carries the
fully resolved configuration so a result file can be reproduced from itself.
"""

from __future__ import annotations

import argparse
import difflib
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

from . import __version__
from .chain import (
    DEFAULT_TUNNELING_SWEEP,
    ChainSpec,
    ExplicitProfile,
    LinearProfile,
    _site_populations,
    chain_system,
    classify,
    default_survey_panels,
    population_sweep,
)
from .davies import DEFAULT_FREQ_TOL, _heat_currents, heat_currents, liouvillian, steady_state
from .errors import (
    AccuracyError,
    AmbiguousGroupingError,
    ConfigError,
    DegenerateInputError,
    DimensionMismatchError,
    InvariantViolationError,
    NonUniqueSteadyStateError,
    NumericalConsistencyError,
    SolverFailureError,
    UnsupportedModelError,
)
from .three_level import (
    MAX_DUFOUR_STEPS,
    LevelPopulations,
    ThreeLevelParams,
    dufour_currents,
    finite_capacity_heating,
    occupation_temperature,
    populations_from_state,
    thermo_diagnostics,
    three_level_system,
)

# The longest chain a run accepts, a bound on its time and memory, which grow
# faster than N^2: one run at N = 300 and g = 1.3 takes 0.46 s and peaks at
# 171 MiB RSS on 2 vCPUs.  The bound was set when every bath coupling was a
# dense 2N x 2N matrix and 322 sites filled 2 GiB; it stays at 322, so that
# no N changes its exit code.
MAX_CHAIN_SITES = 322

# Bound on h, Gamma, h * Gamma and Gamma * T in a chain, T the hottest bath.  A
# heat-current coefficient is an energy times a rate, of order h * Gamma (at
# the default Gamma = 0.01 h it overflows from h = 1e200), a rate grows as
# Gamma * T / omega, and the rates and the frequency grouping overflow as
# Gamma or h near the float range; the bound leaves a factor 1e8 for the band
# width, the occupations and the sums.
MAX_CHAIN_SCALE = 1e300

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

VALIDATION_ERRORS = (
    ConfigError,
    InvariantViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    ValueError,
)
SOLVER_ERRORS = (
    AmbiguousGroupingError,
    UnsupportedModelError,
    AccuracyError,
    NonUniqueSteadyStateError,
    SolverFailureError,
    NumericalConsistencyError,
)

GLOBAL_KEYS = {
    "experiment": "str",
    "out": "str",
    "format": "str",
    "eps_omega": "float",
}

_THREE_LEVEL_KEYS = {
    "omega_1": "float",
    "omega_2": "float",
    "gamma_1": "float",
    "gamma_2": "float",
    "T_1": "float",
    "T_2": "float",
    "n_1": "float",
    "n_2": "float",
    "d": "float",
}

_CHAIN_KEYS = {
    "N": "int",
    "h": "float",
    "g": "float",
    "Gamma": "float",
    "T_L": "float",
    "T_R": "float",
    "temperatures": "floats",
}


def _fmt_float(value: float) -> str:
    return f"{value + 0.0:.17g}"  # the addition folds negative zero into "0"


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def _parse_typed(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
        elif kind == "floats":
            value = tuple(float(part) for part in raw.split(",") if part.strip() != "")
        else:
            return raw
    except ValueError as exc:
        raise ConfigError(f"invalid value for key {key!r}: {raw!r} ({kind} expected)") from exc
    if not all(math.isfinite(x) for x in (value if kind == "floats" else (value,))):
        raise ConfigError(f"invalid value for key {key!r}: {raw!r} is not finite")
    return value


@dataclass
class RunConfig:
    """Fully resolved run description: experiment, typed values, provenance of
    every key (default, config file, or command-line override)."""

    experiment: str
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def out(self) -> str | None:
        return self.values.get("out")

    @property
    def fmt(self) -> str:
        return self.values["format"]

    @property
    def eps_omega(self) -> float:
        return self.values["eps_omega"]

    def resolved_items(self) -> list[tuple[str, str]]:
        # the output destination does not influence the payload and is kept
        # out of the metadata so results are byte-identical wherever written
        return [(key, _fmt_value(self.values[key])) for key in sorted(self.values) if key != "out"]


def _valid_keys(experiment: str) -> dict[str, str]:
    return {**GLOBAL_KEYS, **_EXPERIMENTS[experiment].keys}


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value pairs; [section] headers are allowed and ignored for
    key naming.  Unknown syntax raises ConfigError naming the line."""
    pairs: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        positions = [(stripped.index(sep), sep) for sep in ("=", ":") if sep in stripped]
        if not positions:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        _, sep = min(positions)
        key, _, raw = stripped.partition(sep)
        pairs[key.strip()] = raw.strip()
    return pairs


def build_config(
    experiment: str,
    file_pairs: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
) -> RunConfig:
    """Merge file pairs and overrides, apply defaults, and type-check values.

    The provenance of every key records where its value came from.
    """
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {', '.join(_EXPERIMENTS)}")
    file_pairs = dict(file_pairs or {})
    overrides = dict(overrides or {})

    config = RunConfig(experiment=experiment)
    config.values["experiment"] = experiment
    config.provenance["experiment"] = (
        "config" if "experiment" in file_pairs and "experiment" not in overrides else "override"
    )
    for source, pairs in (("config", file_pairs), ("override", overrides)):
        declared = pairs.pop("experiment", experiment)
        if declared != experiment:
            raise ConfigError(f"{source} declares experiment {declared!r} but {experiment!r} was requested")

    merged = {key: (raw, "config") for key, raw in file_pairs.items()}
    merged.update((key, (raw, "override")) for key, raw in overrides.items())
    valid = _valid_keys(experiment)
    for key in merged:
        if key not in valid:
            close = difflib.get_close_matches(key, sorted(valid), n=1)
            hint = f"; nearest valid key: {close[0]!r}" if close else ""
            raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}{hint}")
    for key, (raw, source) in merged.items():
        config.values[key] = _parse_typed(key, raw, valid[key])
        config.provenance[key] = source

    _resolve(config)
    return config


def _resolve(config: RunConfig) -> None:
    """Fill in every default and reject inconsistent key combinations."""
    values = config.values

    def default(**pairs) -> None:
        for key, value in pairs.items():
            if key not in values:
                values[key] = value
                config.provenance[key] = "default"

    default(format="csv", eps_omega=DEFAULT_FREQ_TOL)
    if values["format"] not in ("csv", "text"):
        raise ConfigError(f"format must be 'csv' or 'text', got {values['format']!r}")
    experiment = config.experiment
    if experiment in ("lambda", "vee"):
        has_temp = "T_1" in values or "T_2" in values
        has_occ = "n_1" in values or "n_2" in values
        if has_temp and has_occ:
            raise ConfigError("give either bath temperatures (T_1, T_2) or occupations (n_1, n_2), not both")
        if has_temp and ("T_1" not in values or "T_2" not in values):
            raise ConfigError("both T_1 and T_2 are required when specifying temperatures")
        if has_occ and ("n_1" not in values or "n_2" not in values):
            raise ConfigError("both n_1 and n_2 are required when specifying occupations")
        default(omega_1=1.0, omega_2=1.0, gamma_1=1.0, gamma_2=1.0, d=1.0)
        if not has_temp and not has_occ:
            default(n_1=2.0, n_2=1.0)
    elif experiment in ("chain", "sweep", "figure2"):
        if "temperatures" in values and ("T_L" in values or "T_R" in values):
            raise ConfigError("give either an explicit temperature list or T_L/T_R endpoints, not both")
        default(N=10, h=1.0)
        h = values["h"]
        default(Gamma=0.01 * h)
        if experiment == "chain":
            default(g=0.1 * h)
        if experiment != "figure2" and "temperatures" not in values:
            default(T_L=0.8 * h, T_R=0.4 * h)
        if experiment == "sweep":
            default(g_list=tuple(g * h for g in DEFAULT_TUNNELING_SWEEP))
            if not values["g_list"]:
                raise ConfigError("g_list is empty; a sweep needs at least one tunneling value")
        # decided before any solve: every point would fail to classify, or
        # the system build would exhaust memory
        n_sites = values["N"]
        if n_sites < 3:
            raise ConfigError(f"N = {n_sites}: classification needs at least 3 sites")
        if n_sites > MAX_CHAIN_SITES:
            raise ConfigError(
                f"N = {n_sites} is above {MAX_CHAIN_SITES}, the longest chain a run accepts, "
                f"which bounds its time and memory"
            )
        gamma = values["Gamma"]
        overflow = "the heat currents (of order h * Gamma) and the rates would overflow"
        bounded = [("h", h, f"{h:.3g}", overflow), ("Gamma", gamma, f"{gamma:.3g}", overflow),
                   ("h * Gamma", h * gamma, f"{h:.3g} * {gamma:.3g}", overflow)]
        if experiment != "figure2":  # figure2's temperatures are at most 1.1 h
            if "temperatures" in values:
                key, hottest = "temperatures", max(values["temperatures"], default=0.0)
            else:
                key = max(("T_L", "T_R"), key=values.get)
                hottest = values[key]
            bounded.append((f"Gamma * {key}", gamma * hottest, f"{gamma:.3g} * {hottest:.3g}",
                            "the rates (of order Gamma * T / omega) would overflow"))
        for key, scale, shown, reason in bounded:
            if scale > MAX_CHAIN_SCALE:
                raise ConfigError(f"{key} = {shown} is above {MAX_CHAIN_SCALE:.0e}: {reason}")
    else:
        default(n=1.0, P_1=0.2, P_2=0.3, omega=1.0, Gamma=1.0, capacity=10.0, horizon=5.0, samples=201)


def config_from_metadata(metadata: dict[str, str]) -> RunConfig:
    """Rebuild a RunConfig from the ``config ...`` entries of a metadata block
    (the reproducibility round trip)."""
    experiment = None
    pairs = {}
    for key, value in metadata.items():
        if key.startswith("config "):
            name = key[len("config "):]
            if name == "experiment":
                experiment = value
            else:
                pairs[name] = value
    if experiment is None:
        raise ConfigError("metadata block lacks the experiment entry")
    return build_config(experiment, file_pairs=pairs)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str  # int | float | str


# per column kind: how a cell is coerced on entry and how it is written; any
# other kind is a string
_COERCERS = {"int": int, "float": float}
_FORMATTERS = {"int": str, "float": _fmt_float}


@dataclass
class ResultTable:
    """Schema-checked rows plus a metadata block (resolved config, version)."""

    columns: tuple[Column, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    _coercers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._coercers = tuple(_COERCERS.get(column.kind, str) for column in self.columns)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise DimensionMismatchError(
                f"row with {len(values)} fields does not match {len(self.columns)} columns"
            )
        self.rows.append(tuple([coerce(value) for coerce, value in zip(self._coercers, values)]))

    def _add_columns(self, *cells) -> None:
        """Add one row per entry of the given columns, each the sequence of
        one column's cells, in one pass: the rows ``add_row`` adds one by
        one."""
        if len(cells) != len(self.columns):
            raise DimensionMismatchError(
                f"{len(cells)} columns of cells do not match {len(self.columns)} columns"
            )
        if len({len(column) for column in cells}) > 1:
            raise DimensionMismatchError("columns of cells differ in length")
        self.rows.extend(zip(*[map(coerce, column) for coerce, column in zip(self._coercers, cells)]))


def _csv_escape(text: str) -> str:
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _written(write, cells) -> list[str]:
    """One column's cells written, a run of one cell object once: a sweep
    table repeats a point's g, T_L and T_R, one object each, on every row
    of the point."""
    written = []
    last, text = object(), ""
    for cell in cells:
        if cell is not last:
            last, text = cell, write(cell)
        written.append(text)
    return written


def render(table: ResultTable, fmt: str = "csv") -> str:
    """Serialize a table; CSV uses comma separators, 17-significant-digit
    floats, '#'-prefixed metadata lines and LF endings.  The cells are
    written column by column and the rows joined in one pass."""
    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    names = [column.name for column in table.columns]
    columns = [
        _written(_FORMATTERS.get(column.kind, _csv_escape), cells)
        for column, cells in zip(table.columns, zip(*table.rows))
    ]
    if fmt == "csv":
        lines.append(",".join(names))
        lines.extend(map(",".join, zip(*columns)))
    elif fmt == "text":
        widths = [max(len(name), *map(len, cells)) for name, cells in zip(names, columns)] or list(map(len, names))
        lines.append("  ".join(name.ljust(w) for name, w in zip(names, widths)))
        row = "  ".join(f"%{w}s" for w in widths)
        lines.extend(row % cells for cells in zip(*columns))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    # the written cells are dropped before the lines are joined, and the
    # final line feed joins with them, so a long table is not held twice
    del columns
    lines.append("")
    return "\n".join(lines)


def emit(table: ResultTable, fmt: str = "csv", path: str | None = None) -> str:
    """Render and optionally write a table; returns the rendered text."""
    text = render(table, fmt)
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc
    return text


def parse_metadata(text: str) -> dict[str, str]:
    """Read the '#'-prefixed metadata block back into a dict."""
    metadata: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        key, sep, value = body.partition(" = ")
        if sep:
            metadata[key] = value
    return metadata


def _base_metadata(config: RunConfig) -> dict:
    metadata: dict = {"qthermo": __version__}
    for key, value in config.resolved_items():
        metadata[f"config {key}"] = value
    for key in sorted(config.provenance):
        metadata[f"provenance {key}"] = config.provenance[key]
    return metadata


def _three_level_params(config: RunConfig) -> ThreeLevelParams:
    values = config.values
    omega_1 = values["omega_1"]
    omega_2 = values["omega_2"]
    if "n_1" in values:
        temp_1 = occupation_temperature(values["n_1"], omega_1)
        temp_2 = occupation_temperature(values["n_2"], omega_2)
    else:
        temp_1 = values["T_1"]
        temp_2 = values["T_2"]
    return ThreeLevelParams(
        configuration=config.experiment,
        omega_1=omega_1,
        omega_2=omega_2,
        gamma_1=values["gamma_1"],
        gamma_2=values["gamma_2"],
        temp_1=temp_1,
        temp_2=temp_2,
        d=values["d"],
    )


def _chain_spec(config: RunConfig, tunneling: float | None = None) -> ChainSpec:
    values = config.values
    if "temperatures" in values:
        profile = ExplicitProfile(values["temperatures"])
    else:
        profile = LinearProfile(values["T_L"], values["T_R"])
    return ChainSpec(
        n_sites=values["N"],
        site_energy=values["h"],
        tunneling=values["g"] if tunneling is None else tunneling,
        bath_rate=values["Gamma"],
        profile=profile,
    )


def _run_three_level(config: RunConfig) -> list[tuple[str, ResultTable]]:
    params = _three_level_params(config)
    diag = thermo_diagnostics(params)
    system = three_level_system(params)
    rho = steady_state(liouvillian(system, config.eps_omega))
    currents = heat_currents(system, rho, config.eps_omega)
    row = {
        "n_1": diag.n_1,
        "n_2": diag.n_2,
        "delta_n": diag.delta_n,
        "n_mean": diag.n_mean,
        "mass": diag.mass,
        "omega_sq": diag.omega_sq,
        "unbalance": diag.unbalance,
        "unbalance_numeric": populations_from_state(rho, params).unbalance,
        "force": diag.force,
        "current_1": currents[0],
        "current_2": currents[1],
    }
    table = ResultTable(
        columns=tuple(Column(name, "float") for name in row), metadata=_base_metadata(config)
    )
    table.add_row(*row.values())
    return [("", table)]


def _run_chain(config: RunConfig) -> list[tuple[str, ResultTable]]:
    spec = _chain_spec(config)
    system = chain_system(spec)
    # steady_state has checked the state in full, so it is read unchecked
    rho = steady_state(liouvillian(system, config.eps_omega))
    populations = _site_populations(rho)
    verdict = classify(populations, spec.profile)
    currents = _heat_currents(system, rho, config.eps_omega)
    table = ResultTable(
        columns=(
            Column("site", "int"),
            Column("population", "float"),
            Column("current", "float"),
            Column("verdict", "str"),
        ),
        metadata=_base_metadata(config),
    )
    table.metadata["verdict"] = verdict.kind
    table.metadata["argmax_site"] = str(verdict.argmax_site)
    table.metadata["symmetry"] = _fmt_float(verdict.symmetry)
    n_sites = spec.n_sites
    table._add_columns(range(1, n_sites + 1), populations.tolist(), currents.tolist(), [verdict.kind] * n_sites)
    return [("", table)]


def _run_dufour(config: RunConfig) -> list[tuple[str, ResultTable]]:
    values = config.values
    pops = LevelPopulations.closing(values["P_1"], values["P_2"])
    n = values["n"]
    omega = values["omega"]
    gamma = values["Gamma"]
    j_1, j_2, verdict = dufour_currents(pops, n, n, omega, gamma)
    temp_start = occupation_temperature(n, omega)
    samples = values["samples"]
    if "dt" in values:  # step override wins over the sample count
        if not values["dt"] > 0:
            raise ConfigError(f"dt must be > 0, got {values['dt']}")
        # compared as a float first: the quotient may be inf, or too large for ceil to be cheap
        steps = values["horizon"] / values["dt"]
        if not steps <= MAX_DUFOUR_STEPS:
            raise ConfigError(
                f"dt = {values['dt']!r} asks for {steps:.3g} RK4 steps over horizon "
                f"{values['horizon']!r}, above the limit {MAX_DUFOUR_STEPS}"
            )
        samples = max(2, math.ceil(steps) + 1)
    history = finite_capacity_heating(
        pops,
        omega=omega,
        gamma=gamma,
        temp_start=temp_start,
        capacity=values["capacity"],
        horizon=values["horizon"],
        samples=samples,
    )
    table = ResultTable(
        columns=(
            Column("t", "float"),
            Column("temp_1", "float"),
            Column("temp_2", "float"),
            Column("current_1", "float"),
            Column("current_2", "float"),
        ),
        metadata=_base_metadata(config),
    )
    table.metadata["dufour_ordered"] = "true" if verdict else "false"
    table.metadata["initial_current_1"] = _fmt_float(j_1)
    table.metadata["initial_current_2"] = _fmt_float(j_2)
    table.metadata["truncated"] = "true" if history.truncated else "false"
    table._add_columns(*(series.tolist() for series in (history.times, history.temp_1, history.temp_2,
                                                        history.current_1, history.current_2)))
    return [("", table)]


def _sweep_table(config: RunConfig, points) -> ResultTable:
    table = ResultTable(
        columns=(
            Column("g", "float"),
            Column("T_L", "float"),
            Column("T_R", "float"),
            Column("site", "int"),
            Column("population", "float"),
            Column("verdict", "str"),
            Column("error", "str"),
        ),
        metadata=_base_metadata(config),
    )
    cells = g, t_left, t_right, site, population, verdict, error = [[] for _ in table.columns]
    warnings = 0
    for point in points:
        if point.error is None:
            count = point.populations.size
            site += range(1, count + 1)
            population += point.populations.tolist()
            verdict += [point.verdict.kind] * count
            error += [""] * count
        else:
            warnings += 1
            count = 1
            site.append(0)
            population.append(math.nan)
            verdict.append("")
            error.append(point.error)
        # a point's g, T_L and T_R are one object on each of its rows
        g += [point.tunneling] * count
        t_left += [point.t_left] * count
        t_right += [point.t_right] * count
    table._add_columns(*cells)
    table.metadata["warnings"] = str(warnings)
    return table


def _run_sweep(config: RunConfig) -> list[tuple[str, ResultTable]]:
    values = config.values
    base = _chain_spec(config, tunneling=values["h"])  # tunneling replaced per point
    points = population_sweep(
        base,
        values["g_list"],
        [(values["T_L"], values["T_R"])],
        freq_tol=config.eps_omega,
    )
    return [("", _sweep_table(config, points))]


def _run_figure2(config: RunConfig) -> list[tuple[str, ResultTable]]:
    values = config.values
    base = ChainSpec(
        n_sites=values["N"],
        site_energy=values["h"],
        tunneling=0.1 * values["h"],
        bath_rate=values["Gamma"],
        profile=LinearProfile(0.8 * values["h"], 0.4 * values["h"]),
    )
    # the panels share points, (0.1 h, 0.8 h, 0.4 h) is in b, c and d: the
    # distinct points, in the order a sweep of each panel lists them, are
    # solved once, by one sweep
    panels = default_survey_panels(values["h"])
    distinct = list(dict.fromkeys(
        (g, pair) for g_values, pairs in panels.values() for pair in pairs for g in g_values
    ))
    solved = dict(zip(distinct, population_sweep(base, (), (), freq_tol=config.eps_omega, points=distinct)))
    outputs = []
    for panel, (g_values, pairs) in panels.items():
        table = _sweep_table(config, [solved[g, pair] for pair in pairs for g in g_values])
        table.metadata["panel"] = panel
        outputs.append((f"panel_{panel}", table))
    return outputs


@dataclass
class RunOutcome:
    tables: list[tuple[str, ResultTable]]
    exit_code: int


@dataclass(frozen=True)
class _Experiment:
    summary: str  # the subcommand's --help line
    keys: dict[str, str]  # key name -> type, on top of GLOBAL_KEYS
    runner: Callable[[RunConfig], list[tuple[str, ResultTable]]]


# the one list of experiments; --help and the unknown-experiment message keep
# this order
_EXPERIMENTS = {
    "lambda": _Experiment(
        "three-level system with two low levels sharing one excited level",
        _THREE_LEVEL_KEYS,
        _run_three_level,
    ),
    "vee": _Experiment(
        "three-level system with one ground level and two excited levels",
        _THREE_LEVEL_KEYS,
        _run_three_level,
    ),
    "chain": _Experiment("N-site chain with one local bath per site", _CHAIN_KEYS, _run_chain),
    "dufour": _Experiment(
        "clamped-population heat currents and finite-capacity bath heating",
        {
            "n": "float",
            "P_1": "float",
            "P_2": "float",
            "omega": "float",
            "Gamma": "float",
            "capacity": "float",
            "horizon": "float",
            "samples": "int",
            "dt": "float",
        },
        _run_dufour,
    ),
    # sweeps take the tunneling from g_list over a linear endpoint profile,
    # so g and the explicit per-site temperature list are chain-only keys
    "sweep": _Experiment(
        "chain steady states over a tunneling sweep",
        {k: v for k, v in _CHAIN_KEYS.items() if k not in ("g", "temperatures")} | {"g_list": "floats"},
        _run_sweep,
    ),
    "figure2": _Experiment(
        "the four-panel default chain survey, one CSV per panel",
        {"N": "int", "h": "float", "Gamma": "float"},
        _run_figure2,
    ),
}


def run(config: RunConfig) -> RunOutcome:
    """Execute the configured experiment and return its tables plus exit code.

    Errors propagate; ``main`` maps validation failures to exit code 2 and
    solver failures to 3.  Partial sweep failures are annotated per row and
    leave the exit code at 0 with a warning count in the metadata.
    """
    return RunOutcome(tables=_EXPERIMENTS[config.experiment].runner(config), exit_code=EXIT_OK)


def _parse_set_items(items) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key.strip()] = value.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qthermo",
        description="Thermal master equations for discrete quantum systems: "
        "steady states, heat currents, thermophoretic diagnostics.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, experiment in _EXPERIMENTS.items():
        p = sub.add_parser(name, help=experiment.summary)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output file (directory for figure2)")
        p.add_argument("--format", choices=("csv", "text"), help="output format (default csv)")
        p.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (applied after the file; repeatable)",
        )
    return parser


def _summarize(outcome: RunOutcome) -> str:
    parts = []
    for name, table in outcome.tables:
        label = name or "result"
        extras = [
            f"{key}={table.metadata[key]}"
            for key in ("verdict", "dufour_ordered", "warnings", "panel")
            if key in table.metadata
        ]
        suffix = f" ({', '.join(extras)})" if extras else ""
        parts.append(f"{label}: {len(table.rows)} rows{suffix}")
    return "; ".join(parts)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_pairs = read_config_file(args.config) if args.config else {}
        overrides = _parse_set_items(args.set)
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        config = build_config(args.experiment, file_pairs=file_pairs, overrides=overrides)
        # the output place is checked before the solve, which it cannot change
        if config.experiment == "figure2":
            out_dir = config.out or "figure2_out"
            try:
                os.makedirs(out_dir, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot write output directory {out_dir!r}: {exc}") from exc
        elif config.out is not None:
            parent = os.path.dirname(config.out) or os.curdir
            if not os.path.isdir(parent):
                raise ConfigError(f"cannot write output file {config.out!r}: no directory {parent!r}")
        outcome = run(config)
        if config.experiment == "figure2":
            extension = "csv" if config.fmt == "csv" else "txt"
            for name, table in outcome.tables:
                emit(table, config.fmt, os.path.join(out_dir, f"{name}.{extension}"))
            if not args.quiet:
                print(f"wrote {len(outcome.tables)} panels to {out_dir}/")
        else:
            _, table = outcome.tables[0]
            text = emit(table, config.fmt, config.out)
            if config.out is None:
                sys.stdout.write(text)
            elif not args.quiet:
                print(f"wrote {config.out}")
        if not args.quiet:
            print(_summarize(outcome))
    except SOLVER_ERRORS as exc:
        # grouping is decided in a solve, after the config is built
        hint = (f" (eps_omega = {_fmt_float(config.eps_omega)}; a smaller eps_omega may separate the cluster)"
                if isinstance(exc, AmbiguousGroupingError) else "")
        print(f"solver failure: {exc}{hint}", file=sys.stderr)
        return EXIT_SOLVER
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
