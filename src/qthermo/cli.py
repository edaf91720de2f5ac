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
import time
from dataclasses import dataclass, field

from . import __version__
from .chain import (
    DEFAULT_TUNNELING_SWEEP,
    ChainSpec,
    ExplicitProfile,
    LinearProfile,
    chain_system,
    classify,
    default_survey_panels,
    population_sweep,
    site_populations,
)
from .davies import DEFAULT_FREQ_TOL, heat_currents, liouvillian, steady_state
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
    LevelPopulations,
    ThreeLevelParams,
    dufour_currents,
    finite_capacity_heating,
    occupation_temperature,
    populations_from_state,
    thermo_diagnostics,
    three_level_system,
)

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

EXPERIMENTS = ("lambda", "vee", "chain", "dufour", "sweep", "figure2")

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

EXPERIMENT_KEYS: dict[str, dict[str, str]] = {
    "lambda": _THREE_LEVEL_KEYS,
    "vee": _THREE_LEVEL_KEYS,
    "chain": _CHAIN_KEYS,
    # sweeps vary the tunneling over a linear endpoint profile, so the
    # explicit per-site temperature list is a chain-only key
    "sweep": {k: v for k, v in _CHAIN_KEYS.items() if k != "temperatures"} | {"g_list": "floats"},
    "figure2": {"N": "int", "h": "float", "Gamma": "float"},
    "dufour": {
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
}

VOLATILE_METADATA = ("wall_clock_s",)  # kept on the table, never serialized


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
    quiet: bool = False

    @property
    def out(self) -> str | None:
        return self.values.get("out")

    @property
    def fmt(self) -> str:
        return self.values.get("format", "csv")

    @property
    def eps_omega(self) -> float:
        return self.values.get("eps_omega", DEFAULT_FREQ_TOL)

    def resolved_items(self) -> list[tuple[str, str]]:
        # the output destination does not influence the payload and is kept
        # out of the metadata so results are byte-identical wherever written
        return [(key, _fmt_value(self.values[key])) for key in sorted(self.values) if key != "out"]


def _valid_keys(experiment: str) -> dict[str, str]:
    return {**GLOBAL_KEYS, **EXPERIMENT_KEYS[experiment]}


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


def _reject_unknown(mapping: dict[str, str], experiment: str) -> None:
    valid = _valid_keys(experiment)
    for key in mapping:
        if key not in valid:
            close = difflib.get_close_matches(key, sorted(valid), n=1)
            hint = f"; nearest valid key: {close[0]!r}" if close else ""
            raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}{hint}")


def _occupation_to_temperature(n: float, omega: float) -> float:
    try:
        return occupation_temperature(n, omega)
    except InvariantViolationError as exc:
        raise ConfigError(str(exc)) from exc


def build_config(
    experiment: str,
    file_pairs: dict[str, str] | None = None,
    overrides: dict[str, str] | None = None,
    quiet: bool = False,
) -> RunConfig:
    """Merge file pairs and overrides, apply defaults, and type-check values.

    The provenance of every key records where its value came from.
    """
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {', '.join(EXPERIMENTS)}")
    file_pairs = dict(file_pairs or {})
    overrides = dict(overrides or {})

    experiment_source = "override"
    for source, pairs in (("config", file_pairs), ("override", overrides)):
        declared = pairs.pop("experiment", None)
        if declared is not None:
            if declared != experiment:
                raise ConfigError(
                    f"{source} declares experiment {declared!r} but {experiment!r} was requested"
                )
            if source == "config" and not overrides.get("experiment"):
                experiment_source = "config"

    _reject_unknown(file_pairs, experiment)
    _reject_unknown(overrides, experiment)

    valid = _valid_keys(experiment)
    config = RunConfig(experiment=experiment, quiet=quiet)
    config.values["experiment"] = experiment
    config.provenance["experiment"] = experiment_source

    merged: dict[str, tuple[str, str]] = {}
    for key, raw in file_pairs.items():
        merged[key] = (raw, "config")
    for key, raw in overrides.items():
        merged[key] = (raw, "override")
    for key, (raw, source) in merged.items():
        config.values[key] = _parse_typed(key, raw, valid[key])
        config.provenance[key] = source

    _apply_defaults(config)
    _cross_validate(config)
    return config


def _default(config: RunConfig, key: str, value) -> None:
    if key not in config.values:
        config.values[key] = value
        config.provenance[key] = "default"


def _apply_defaults(config: RunConfig) -> None:
    _default(config, "format", "csv")
    _default(config, "eps_omega", DEFAULT_FREQ_TOL)
    experiment = config.experiment
    values = config.values
    if experiment in ("lambda", "vee"):
        _default(config, "omega_1", 1.0)
        _default(config, "omega_2", 1.0)
        _default(config, "gamma_1", 1.0)
        _default(config, "gamma_2", 1.0)
        _default(config, "d", 1.0)
        has_temp = "T_1" in values or "T_2" in values
        has_occ = "n_1" in values or "n_2" in values
        if not has_temp and not has_occ:
            _default(config, "n_1", 2.0)
            _default(config, "n_2", 1.0)
    elif experiment in ("chain", "sweep", "figure2"):
        _default(config, "N", 10)
        _default(config, "h", 1.0)
        h = values["h"]
        _default(config, "Gamma", 0.01 * h)
        if experiment != "figure2":
            _default(config, "g", 0.1 * h)
            if "temperatures" not in values:
                _default(config, "T_L", 0.8 * h)
                _default(config, "T_R", 0.4 * h)
        if experiment == "sweep":
            _default(config, "g_list", tuple(g * h for g in DEFAULT_TUNNELING_SWEEP))
    elif experiment == "dufour":
        _default(config, "n", 1.0)
        _default(config, "P_1", 0.2)
        _default(config, "P_2", 0.3)
        _default(config, "omega", 1.0)
        _default(config, "Gamma", 1.0)
        _default(config, "capacity", 10.0)
        _default(config, "horizon", 5.0)
        _default(config, "samples", 201)


def _cross_validate(config: RunConfig) -> None:
    values = config.values
    if values.get("format") not in ("csv", "text"):
        raise ConfigError(f"format must be 'csv' or 'text', got {values.get('format')!r}")
    if config.experiment in ("lambda", "vee"):
        has_temp = "T_1" in values or "T_2" in values
        has_occ = "n_1" in values or "n_2" in values
        if has_temp and has_occ:
            raise ConfigError("give either bath temperatures (T_1, T_2) or occupations (n_1, n_2), not both")
        if has_temp and ("T_1" not in values or "T_2" not in values):
            raise ConfigError("both T_1 and T_2 are required when specifying temperatures")
        if has_occ and ("n_1" not in values or "n_2" not in values):
            raise ConfigError("both n_1 and n_2 are required when specifying occupations")
    if config.experiment == "chain":
        if "temperatures" in values and ("T_L" in values or "T_R" in values):
            raise ConfigError("give either an explicit temperature list or T_L/T_R endpoints, not both")


def parse_config(path: str, experiment: str | None = None) -> RunConfig:
    """Load a config file into a fully resolved RunConfig.

    The experiment is taken from the file's ``experiment`` key unless given
    explicitly (the CLI passes its subcommand here).
    """
    pairs = read_config_file(path)
    chosen = experiment or pairs.get("experiment")
    if chosen is None:
        raise ConfigError(f"{path}: missing 'experiment' key and no experiment given")
    return build_config(chosen, file_pairs=pairs)


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


@dataclass
class ResultTable:
    """Schema-checked rows plus a metadata block (resolved config, version,
    wall clock)."""

    columns: tuple[Column, ...]
    rows: list[tuple] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise DimensionMismatchError(
                f"row with {len(values)} fields does not match {len(self.columns)} columns"
            )
        coerced = []
        for column, value in zip(self.columns, values):
            if column.kind == "int":
                coerced.append(int(value))
            elif column.kind == "float":
                coerced.append(float(value))
            else:
                coerced.append(str(value))
        self.rows.append(tuple(coerced))


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in (",", '"', "\n")):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_cell(column: Column, value) -> str:
    if column.kind == "float":
        return _fmt_float(value)
    if column.kind == "int":
        return str(value)
    return _csv_escape(str(value))


def render(table: ResultTable, fmt: str = "csv") -> str:
    """Serialize a table; CSV uses comma separators, 17-significant-digit
    floats, '#'-prefixed metadata lines and LF endings.  The volatile wall
    clock entry never reaches the output, keeping files byte-identical for a
    fixed configuration."""
    lines = []
    for key, value in table.metadata.items():
        if key in VOLATILE_METADATA:
            continue
        lines.append(f"# {key} = {value}")
    if fmt == "csv":
        lines.append(",".join(column.name for column in table.columns))
        for row in table.rows:
            lines.append(",".join(_render_cell(c, v) for c, v in zip(table.columns, row)))
    elif fmt == "text":
        rendered = [[_render_cell(c, v) for c, v in zip(table.columns, row)] for row in table.rows]
        widths = [
            max(len(column.name), *(len(r[i]) for r in rendered)) if rendered else len(column.name)
            for i, column in enumerate(table.columns)
        ]
        lines.append("  ".join(column.name.ljust(w) for column, w in zip(table.columns, widths)))
        for r in rendered:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return "\n".join(lines) + "\n"


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
        temp_1 = _occupation_to_temperature(values["n_1"], omega_1)
        temp_2 = _occupation_to_temperature(values["n_2"], omega_2)
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


def _run_three_level(config: RunConfig) -> ResultTable:
    params = _three_level_params(config)
    diag = thermo_diagnostics(params)
    system = three_level_system(params)
    rho = steady_state(liouvillian(system, config.eps_omega))
    pops = populations_from_state(rho, params)
    currents = heat_currents(system, rho, config.eps_omega)
    table = ResultTable(
        columns=tuple(
            Column(name, "float")
            for name in (
                "n_1",
                "n_2",
                "delta_n",
                "n_mean",
                "mass",
                "omega_sq",
                "unbalance",
                "unbalance_numeric",
                "force",
                "current_1",
                "current_2",
            )
        ),
        metadata=_base_metadata(config),
    )
    table.add_row(
        diag.n_1,
        diag.n_2,
        diag.delta_n,
        diag.n_mean,
        diag.mass,
        diag.omega_sq,
        diag.unbalance,
        pops.unbalance,
        diag.force,
        currents[0],
        currents[1],
    )
    return table


def _run_chain(config: RunConfig) -> ResultTable:
    spec = _chain_spec(config)
    system = chain_system(spec)
    rho = steady_state(liouvillian(system, config.eps_omega))
    populations = site_populations(rho, spec)
    verdict = classify(populations, spec.profile)
    currents = heat_currents(system, rho, config.eps_omega)
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
    for i in range(spec.n_sites):
        table.add_row(i + 1, populations[i], currents[i], verdict.kind)
    return table


def _run_dufour(config: RunConfig) -> ResultTable:
    values = config.values
    pops = LevelPopulations.closing(values["P_1"], values["P_2"])
    n = values["n"]
    omega = values["omega"]
    gamma = values["Gamma"]
    j_1, j_2, verdict = dufour_currents(pops, n, n, omega, gamma)
    temp_start = _occupation_to_temperature(n, omega)
    samples = values["samples"]
    if "dt" in values:  # step override wins over the sample count
        if not values["dt"] > 0:
            raise ConfigError(f"dt must be > 0, got {values['dt']}")
        samples = max(2, math.ceil(values["horizon"] / values["dt"]) + 1)
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
    for i in range(history.times.size):
        table.add_row(
            history.times[i],
            history.temp_1[i],
            history.temp_2[i],
            history.current_1[i],
            history.current_2[i],
        )
    return table


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
    warnings = 0
    for point in points:
        if point.error is not None:
            warnings += 1
            table.add_row(point.tunneling, point.t_left, point.t_right, 0, math.nan, "", point.error)
            continue
        for i, population in enumerate(point.populations):
            table.add_row(
                point.tunneling,
                point.t_left,
                point.t_right,
                i + 1,
                population,
                point.verdict.kind,
                "",
            )
    table.metadata["warnings"] = str(warnings)
    return table


def _run_sweep(config: RunConfig) -> ResultTable:
    values = config.values
    base = _chain_spec(config, tunneling=values["h"])  # tunneling replaced per point
    points = population_sweep(
        base,
        values["g_list"],
        [(values["T_L"], values["T_R"])],
        freq_tol=config.eps_omega,
    )
    return _sweep_table(config, points)


def _run_figure2(config: RunConfig) -> list[tuple[str, ResultTable]]:
    values = config.values
    base = ChainSpec(
        n_sites=values["N"],
        site_energy=values["h"],
        tunneling=0.1 * values["h"],
        bath_rate=values["Gamma"],
        profile=LinearProfile(0.8 * values["h"], 0.4 * values["h"]),
    )
    outputs = []
    for panel, (g_values, pairs) in default_survey_panels(values["h"]).items():
        points = population_sweep(base, g_values, pairs, freq_tol=config.eps_omega)
        table = _sweep_table(config, points)
        table.metadata["panel"] = panel
        outputs.append((f"panel_{panel}", table))
    return outputs


@dataclass
class RunOutcome:
    tables: list[tuple[str, ResultTable]]
    exit_code: int


def run(config: RunConfig) -> RunOutcome:
    """Execute the configured experiment and return its tables plus exit code.

    Validation failures map to exit code 2, solver failures to 3.  Partial
    sweep failures are annotated per row and leave the exit code at 0 with a
    warning count in the metadata.
    """
    start = time.perf_counter()
    if config.experiment in ("lambda", "vee"):
        tables = [("", _run_three_level(config))]
    elif config.experiment == "chain":
        tables = [("", _run_chain(config))]
    elif config.experiment == "dufour":
        tables = [("", _run_dufour(config))]
    elif config.experiment == "sweep":
        tables = [("", _run_sweep(config))]
    else:
        tables = _run_figure2(config)
    wall = time.perf_counter() - start
    for _, table in tables:
        table.metadata["wall_clock_s"] = f"{wall:.6f}"
    return RunOutcome(tables=tables, exit_code=EXIT_OK)


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
    for name, summary in (
        ("lambda", "three-level system with two low levels sharing one excited level"),
        ("vee", "three-level system with one ground level and two excited levels"),
        ("chain", "N-site chain with one local bath per site"),
        ("dufour", "clamped-population heat currents and finite-capacity bath heating"),
        ("sweep", "chain steady states over a tunneling sweep"),
        ("figure2", "the four-panel default chain survey, one CSV per panel"),
    ):
        p = sub.add_parser(name, help=summary)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_pairs = read_config_file(args.config) if args.config else {}
        overrides = _parse_set_items(args.set)
        if args.out is not None:
            overrides["out"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        config = build_config(
            args.experiment, file_pairs=file_pairs, overrides=overrides, quiet=args.quiet
        )
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        outcome = run(config)
    except SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        if config.experiment == "figure2":
            out_dir = config.out or "figure2_out"
            os.makedirs(out_dir, exist_ok=True)
            extension = "csv" if config.fmt == "csv" else "txt"
            for name, table in outcome.tables:
                emit(table, config.fmt, os.path.join(out_dir, f"{name}.{extension}"))
            if not config.quiet:
                print(f"wrote {len(outcome.tables)} panels to {out_dir}/")
        else:
            _, table = outcome.tables[0]
            text = emit(table, config.fmt, config.out)
            if config.out is None:
                sys.stdout.write(text)
            elif not config.quiet:
                print(f"wrote {config.out}")
        if not config.quiet:
            print(_summarize(outcome))
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
