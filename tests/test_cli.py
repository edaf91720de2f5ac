"""Config parsing, experiment orchestration, CSV/text emission, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qthermo
import qthermo.chain
import qthermo.cli
from qthermo.cli import (
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    Column,
    ResultTable,
    build_config,
    config_from_metadata,
    emit,
    main,
    parse_metadata,
    read_config_file,
    render,
    run,
)
from qthermo.errors import ConfigError, DegenerateInputError, DimensionMismatchError


def package_env() -> dict[str, str]:
    # a fresh interpreter that imports this checkout's package first
    source = os.path.dirname(os.path.dirname(os.path.abspath(qthermo.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}


def body_of(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


class TestConfigFile:
    def test_flat_and_sectioned_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# a comment\n"
            "N = 10\n"
            "h: 1.0\n"
            "[solver]\n"
            "eps_omega = 1e-9  # inline comment\n"
        )
        pairs = read_config_file(str(path))
        assert pairs == {"N": "10", "h": "1.0", "eps_omega": "1e-9"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            read_config_file("/nonexistent/qthermo.cfg")

    def test_parse_config_minimal_chain(self, tmp_path):
        path = tmp_path / "chain.cfg"
        path.write_text("experiment = chain\nN = 10\nh = 1\ng = 0.1\nT_L = 0.8\nT_R = 0.4\n")
        config = build_config("chain", file_pairs=read_config_file(str(path)))
        assert config.experiment == "chain"
        assert config.values["Gamma"] == pytest.approx(0.01)
        assert config.provenance["Gamma"] == "default"
        assert config.provenance["N"] == "config"

    def test_parse_config_needs_experiment(self, tmp_path):
        # a file without an experiment key runs as the requested experiment
        path = tmp_path / "bare.cfg"
        path.write_text("N = 10\n")
        config = build_config("chain", file_pairs=read_config_file(str(path)))
        assert config.values["N"] == 10


class TestBuildConfig:
    def test_unknown_key_names_nearest(self):
        with pytest.raises(ConfigError, match="unknown key 'T_l'.*nearest valid key: 'T_[LR]'"):
            build_config("chain", file_pairs={"T_l": "0.8"})

    def test_experiment_mismatch(self):
        with pytest.raises(ConfigError, match="declares experiment"):
            build_config("chain", file_pairs={"experiment": "lambda"})

    def test_override_wins_and_is_recorded(self):
        config = build_config("chain", file_pairs={"g": "0.1"}, overrides={"g": "1.3"})
        assert config.values["g"] == pytest.approx(1.3)
        assert config.provenance["g"] == "override"

    def test_grouping_tolerance_override_reaches_the_metadata(self):
        config = build_config("chain", overrides={"eps_omega": "1e-9", "N": "4"})
        assert config.eps_omega == pytest.approx(1e-9)
        (_, table), = run(config).tables
        assert table.metadata["config eps_omega"] == "1.0000000000000001e-09"
        assert table.metadata["provenance eps_omega"] == "override"

    def test_mixed_temperature_specification_rejected(self):
        with pytest.raises(ConfigError, match="not both"):
            build_config("lambda", file_pairs={"n_1": "2", "n_2": "1", "T_1": "1.0"})
        with pytest.raises(ConfigError, match="both"):
            build_config("lambda", file_pairs={"T_1": "1.0"})

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="int expected"):
            build_config("chain", file_pairs={"N": "ten"})

    @pytest.mark.parametrize(
        "in_file,in_overrides,source",
        [(True, False, "config"), (False, True, "override"), (True, True, "override"), (False, False, "override")],
        ids=["file", "override", "both", "neither"],
    )
    def test_experiment_provenance(self, in_file, in_overrides, source):
        file_pairs = {"experiment": "chain"} if in_file else {}
        overrides = {"experiment": "chain"} if in_overrides else {}
        config = build_config("chain", file_pairs=file_pairs, overrides=overrides)
        assert config.provenance["experiment"] == source
        assert config.values["experiment"] == "chain"

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            build_config("chain", overrides={"format": "json"})

    def test_sweep_takes_no_single_tunneling(self, capsys):
        # a sweep reads its tunneling from g_list alone
        assert main(["sweep", "--set", "N=4", "--set", "g=5", "--quiet"]) == EXIT_VALIDATION
        assert "unknown key 'g'" in capsys.readouterr().err
        config = build_config("sweep", overrides={"N": "4"})
        assert "g" not in config.values
        (_, table), = run(config).tables
        assert not any(key.endswith(" g") for key in table.metadata)


class TestRun:
    def test_lambda_reference_row(self):
        outcome = run(build_config("lambda"))  # defaults are n = (2, 1)
        assert outcome.exit_code == EXIT_OK
        (_, table), = outcome.tables
        row = dict(zip((c.name for c in table.columns), table.rows[0]))
        assert row["unbalance"] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert row["unbalance_numeric"] == pytest.approx(1.0 / 9.0, abs=1e-8)
        assert row["force"] == pytest.approx(0.0625, abs=1e-12)
        assert row["omega_sq"] == pytest.approx(9.0, abs=1e-12)

    def test_vee_reference_row(self):
        (_, table), = run(build_config("vee")).tables
        row = dict(zip((c.name for c in table.columns), table.rows[0]))
        assert row["force"] == pytest.approx(-0.0625, abs=1e-12)
        assert row["omega_sq"] == pytest.approx(13.0, abs=1e-12)

    def test_chain_strong_tunneling_goes_negative(self):
        config = build_config("chain", overrides={"g": "1.3"})
        (_, table), = run(config).tables
        assert table.metadata["verdict"] == "negative"
        assert table.metadata["argmax_site"] == "3"
        populations = [row[1] for row in table.rows]
        assert len(populations) == 10
        assert sum(populations) == pytest.approx(1.0, abs=1e-9)

    def test_dufour_orders_currents_and_temperatures(self):
        config = build_config("dufour", overrides={"horizon": "2", "samples": "41"})
        (_, table), = run(config).tables
        assert table.metadata["dufour_ordered"] == "true"
        assert float(table.metadata["initial_current_1"]) == pytest.approx(0.8)
        assert float(table.metadata["initial_current_2"]) == pytest.approx(0.7)
        t1 = np.array([row[1] for row in table.rows])
        t2 = np.array([row[2] for row in table.rows])
        assert np.all(t1[1:] > t2[1:])

    def test_dufour_step_override_beats_sample_count(self):
        config = build_config("dufour", overrides={"horizon": "2", "dt": "0.5"})
        (_, table), = run(config).tables
        assert len(table.rows) == 5  # ceil(2 / 0.5) + 1 samples
        with pytest.raises(ConfigError, match="dt"):
            run(build_config("dufour", overrides={"dt": "-1"}))

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"dt": "1e-300"}, "dt"),
            ({"dt": "1e-320"}, "dt"),  # horizon / dt overflows to inf
            ({"horizon": "1e300", "dt": "1"}, "dt"),
            ({"samples": str(10**18)}, "samples"),
            ({"samples": str(qthermo.three_level.MAX_DUFOUR_STEPS + 2)}, "samples"),
        ],
    )
    def test_dufour_step_count_is_bounded(self, overrides, key, monkeypatch):
        # refused from the estimate, before the integration takes a step: the
        # CLI checks horizon / dt, finite_capacity_heating the sample count
        steps = []
        monkeypatch.setattr(qthermo.three_level, "dufour_currents", lambda *args: steps.append(args))
        limit = qthermo.three_level.MAX_DUFOUR_STEPS
        with pytest.raises((ConfigError, ValueError), match=f"^{key} = .* above the limit {limit}$"):
            run(build_config("dufour", overrides=overrides))
        assert steps == []

    @pytest.mark.parametrize(
        "overrides",
        [{"samples": str(qthermo.three_level.MAX_DUFOUR_STEPS + 1)},
         {"horizon": "5", "dt": repr(5.0 / qthermo.three_level.MAX_DUFOUR_STEPS)}],
        ids=["samples", "dt"],
    )
    def test_dufour_step_count_at_the_limit_runs(self, overrides, monkeypatch):
        def stub(pops, **kwargs):
            samples.append(kwargs["samples"])
            raise DegenerateInputError("stub")

        samples = []
        monkeypatch.setattr(qthermo.cli, "finite_capacity_heating", stub)
        with pytest.raises(DegenerateInputError, match="stub"):
            run(build_config("dufour", overrides=overrides))
        assert samples == [qthermo.three_level.MAX_DUFOUR_STEPS + 1]

    def test_sweep_annotates_failures(self):
        # 1/(2 cos(pi/5)) puts the bottom of the four-site excited band exactly
        # on the ground manifold, which the flat-density model must refuse
        crossing = 0.6180339887498949
        config = build_config("sweep", overrides={"N": "4", "g_list": f"0.1,{crossing}"})
        (_, table), = run(config).tables
        assert table.metadata["warnings"] == "1"
        errors = [row[6] for row in table.rows if row[6]]
        assert len(errors) == 1
        assert "UnsupportedModelError" in errors[0]

    def test_figure2_produces_four_panels(self):
        config = build_config("figure2", overrides={"N": "4"})
        outcome = run(config)
        names = [name for name, _ in outcome.tables]
        assert names == ["panel_b", "panel_c", "panel_d", "panel_e"]
        for _, table in outcome.tables:
            assert table.metadata["warnings"] == "0"

    def test_figure2_solves_each_point_once(self, monkeypatch):
        # (0.1 h, 0.8 h, 0.4 h) is in panels b, c and d; every panel still
        # lists it, with the bytes of a sweep of that panel alone
        config = build_config("figure2", overrides={"N": "5", "h": "1.5"})
        h = config.values["h"]
        # the tunneling and the profile are replaced at every point
        base = qthermo.chain.ChainSpec(5, h, h, config.values["Gamma"], qthermo.chain.LinearProfile(h, h))
        expected = []
        for panel, (g_values, pairs) in qthermo.chain.default_survey_panels(h).items():
            table = qthermo.cli._sweep_table(config, qthermo.chain.population_sweep(base, g_values, pairs))
            table.metadata["panel"] = panel
            expected.append((f"panel_{panel}", render(table)))
        solves = counting(monkeypatch, qthermo.chain, "_steady_states")
        outcome = run(config)
        assert [(name, render(table)) for name, table in outcome.tables] == expected
        assert sum(len(liouvs) for (liouvs,) in solves) == 18


    def test_figure2_bytes_of_points_solved_alone(self):
        # every point from a chain system built for it and a solve of its
        # generator alone, panel by panel, shared points solved again
        config = build_config("figure2")
        h = config.values["h"]
        expected = []
        for panel, (g_values, pairs) in qthermo.chain.default_survey_panels(h).items():
            points = []
            for t_left, t_right in pairs:
                for g in g_values:
                    spec = qthermo.chain.ChainSpec(10, h, g, config.values["Gamma"],
                                                   qthermo.chain.LinearProfile(t_left, t_right))
                    rho = qthermo.steady_state(qthermo.liouvillian(qthermo.chain_system(spec)))
                    populations = qthermo.site_populations(rho, spec)
                    verdict = qthermo.classify(populations, spec.profile)
                    points.append(qthermo.SweepPoint(g, t_left, t_right, populations, verdict, None))
            table = qthermo.cli._sweep_table(config, points)
            table.metadata["panel"] = panel
            expected.append((f"panel_{panel}", render(table)))
        assert [(name, render(table)) for name, table in run(config).tables] == expected


def counting(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that notes the positional
    arguments of each call; returns the list of notes."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def counting_svds(monkeypatch) -> list:
    """Replace ``np.linalg.svd`` by a wrapper that notes the shape of each
    call and whether it asked for vectors; returns the list of notes."""
    calls = []
    original = np.linalg.svd

    def wrapper(a, *args, **kwargs):
        calls.append((np.shape(a), kwargs.get("compute_uv", True)))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", wrapper)
    return calls


class TestSolveCosts:
    """Calls counted, not timed: a steady state is checked in full once, by
    the solve that computes it, and its readers find it in the record of
    passed checks; figure2 solves each of its distinct points once, all in
    one batch.  A chain's population block is solved by elimination, and
    its largest singular value is never needed, since its Frobenius norm
    stays below the coherences' entries; a three-level block needs its
    largest singular value, values alone."""

    def test_warm_figure2(self, monkeypatch):
        config = build_config("figure2")
        run(config)
        solves = counting(monkeypatch, qthermo.chain, "_steady_states")
        spectra = counting(monkeypatch, np.linalg, "eigvalsh")
        baths = counting(monkeypatch, qthermo.chain, "_baths_from_nonzeros")
        rates = counting(monkeypatch, qthermo.davies, "_thermal_rates")
        run(config)
        assert [len(liouvs) for (liouvs,) in solves] == [18]
        # one batched eigvalsh checks the 18 states
        assert [a.shape[0] for (a,) in spectra] == [18]
        # the 10 baths are built once, and the rates of the points of each of
        # the 7 Hamiltonians are one array expression
        assert [len(temperatures) for _, _, _, temperatures in baths] == [10]
        assert [temperature.shape for _, _, temperature in rates] == [(6, 200)] + [(2, 200)] * 6

    def test_chain_run(self, monkeypatch):
        spectra = counting(monkeypatch, np.linalg, "eigvalsh")
        run(build_config("chain", overrides={"N": "12"}))
        assert len(spectra) == 1

    def test_a_long_chain_run_checks_its_state_once(self, monkeypatch):
        # from 23 sites the record of passed checks keeps no state, so the
        # run reads populations and currents from the state the solve checked
        spectra = counting(monkeypatch, np.linalg, "eigvalsh")
        run(build_config("chain", overrides={"N": "30"}))
        assert len(spectra) == 1

    def test_a_cold_long_chain_checks_its_hamiltonian_once(self, monkeypatch):
        # from 23 sites the record of passed checks keeps no Hamiltonian, so
        # the structure decomposes the one the system has checked
        qthermo.davies._STRUCTURES.clear()
        defects = counting(monkeypatch, qthermo.linalg, "hermiticity_defect")
        run(build_config("chain", overrides={"N": "30"}))
        assert [a.shape for (a,) in defects] == [(60, 60)]

    def test_lambda_point(self, monkeypatch):
        params = qthermo.ThreeLevelParams.from_occupations("lambda", 1.7, 0.4)
        spectra = counting(monkeypatch, np.linalg, "eigvalsh")
        system = qthermo.three_level_system(params)
        rho = qthermo.steady_state(qthermo.liouvillian(system))
        qthermo.populations_from_state(rho, params)
        qthermo.heat_currents(system, rho)
        assert len(spectra) == 1

    def test_a_repeated_chain_is_checked_at_every_solve(self, monkeypatch):
        spec = qthermo.chain.ChainSpec(6, 1.0, 0.3, 0.01, qthermo.chain.LinearProfile(0.8, 0.4))
        spectra = counting(monkeypatch, np.linalg, "eigvalsh")
        states = []
        for solve in (1, 2):
            states.append(qthermo.steady_state(qthermo.liouvillian(qthermo.chain_system(spec))))
            assert len(spectra) == solve
        assert np.array_equal(*states)

    # the four chain runs of the scaling benchmark: (g, T_L, T_R) at N = 12
    SCALING_RUNS = ((0.1, 0.8, 0.4), (1.3, 0.8, 0.4), (1.3, 0.3, 0.1), (0.5, 0.6, 0.6))

    def test_chain_sweeps_make_no_svd(self, monkeypatch):
        svds = counting_svds(monkeypatch)
        run(build_config("figure2"))
        for g, t_left, t_right in self.SCALING_RUNS:
            run(build_config("chain", overrides={"N": "12", "g": repr(g), "T_L": repr(t_left),
                                                 "T_R": repr(t_right)}))
        assert svds == []

    @pytest.mark.parametrize("kind", ["lambda", "vee"])
    @pytest.mark.parametrize("occupations", [(2.0, 1.0), (1.7, 0.4), (0.01, 3.0)])
    def test_a_three_level_solve_makes_at_most_one_values_only_svd(self, kind, occupations, monkeypatch):
        system = qthermo.three_level_system(qthermo.ThreeLevelParams.from_occupations(kind, *occupations))
        liouv = qthermo.liouvillian(system)
        svds = counting_svds(monkeypatch)
        qthermo.steady_state(liouv)
        assert len(svds) <= 1 and all(not vectors for _, vectors in svds)


class TestEmit:
    def make_table(self) -> ResultTable:
        table = ResultTable(
            columns=(Column("site", "int"), Column("population", "float"), Column("note", "str")),
            metadata={"qthermo": "0.1.0", "config experiment = chain": "x"},
        )
        table.metadata = {"qthermo": "0.1.0", "config experiment": "chain"}
        table.add_row(1, 1.0 / 3.0, "ok")
        table.add_row(2, 2.0 / 3.0, "with, comma")
        return table

    def test_csv_layout_and_float_precision(self):
        text = render(self.make_table(), "csv")
        lines = text.split("\n")
        assert lines[0] == "# qthermo = 0.1.0"
        assert lines[2] == "site,population,note"
        assert lines[3] == "1,0.33333333333333331,ok"
        assert lines[4] == '2,0.66666666666666663,"with, comma"'
        assert text.endswith("\n") and "\r" not in text

    def test_text_format_is_aligned(self):
        text = render(self.make_table(), "text")
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert len({len(row) for row in rows}) == 1  # fixed width

    def test_empty_table_has_header_only(self):
        table = ResultTable(columns=(Column("a", "int"),), metadata={"qthermo": "0.1.0"})
        text = render(table, "csv")
        assert text == "# qthermo = 0.1.0\na\n"

    def test_emit_writes_lf_file(self, tmp_path):
        path = tmp_path / "out.csv"
        emit(self.make_table(), "csv", str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode().startswith("# qthermo")

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot write"):
            emit(self.make_table(), "csv", str(tmp_path / "no" / "such" / "dir.csv"))


def cell_by_cell_render(table: ResultTable, fmt: str = "csv") -> str:
    """``render`` as it was when it wrote every cell with a call of its own,
    row by row: the reference for the writer by columns."""

    def fmt_float(value: float) -> str:
        return f"{value + 0.0:.17g}"

    def csv_escape(text: str) -> str:
        if "," in text or '"' in text or "\n" in text:
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [f"# {key} = {value}" for key, value in table.metadata.items()]
    formatters = [{"int": str, "float": fmt_float}.get(column.kind, csv_escape) for column in table.columns]
    rendered = [[write(value) for write, value in zip(formatters, row)] for row in table.rows]
    if fmt == "csv":
        lines.append(",".join(column.name for column in table.columns))
        lines.extend(",".join(r) for r in rendered)
    else:
        widths = [
            max(len(column.name), *(len(r[i]) for r in rendered)) if rendered else len(column.name)
            for i, column in enumerate(table.columns)
        ]
        lines.append("  ".join(column.name.ljust(w) for column, w in zip(table.columns, widths)))
        for r in rendered:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


KINDS = ("int", "float", "str")


def table_by_rows(kinds, rows) -> ResultTable:
    table = ResultTable(columns=tuple(Column(f"c{i}", kind) for i, kind in enumerate(kinds)),
                        metadata={"qthermo": "0.1.0", "note": "a, b"})
    for row in rows:
        table.add_row(*row)
    return table


def table_by_columns(kinds, rows) -> ResultTable:
    table = ResultTable(columns=tuple(Column(f"c{i}", kind) for i, kind in enumerate(kinds)),
                        metadata={"qthermo": "0.1.0", "note": "a, b"})
    table._add_columns(*([row[i] for row in rows] for i in range(len(kinds))))
    return table


cell_values = {
    "int": st.integers(min_value=-10**20, max_value=10**20),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "str": st.text(alphabet=st.sampled_from('ab ,"%\n-é0.'), max_size=6),
}


@st.composite
def random_tables(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    # rows drawn from a few cells per column, so cells repeat as in a sweep
    pools = [draw(st.lists(cell_values[kind], min_size=1, max_size=4)) for kind in kinds]
    count = draw(st.integers(min_value=0, max_value=12))
    rows = [tuple(draw(st.sampled_from(pool)) for pool in pools) for _ in range(count)]
    return kinds, rows


class TestRenderByColumns:
    """``render`` writes each column's cells in one pass and the rows in one
    join, with the bytes of the writer that took one call per cell."""

    EDGE_KINDS = ("float", "int", "str", "float")
    EDGE_ROWS = [
        (-0.0, 0, "", 0.0),
        (math.nan, -7, "with, comma", float("nan")),
        (math.inf, 10**30, 'a "quoted" cell', -math.inf),
        (5e-324, True, "100% sure", -5e-324),
        (1.0 / 3.0, np.int64(3), "two\nlines", np.float64(-0.0)),
        (1e300, 2, "%s %d %%", 2.5e-308),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_edge_cells(self, fmt):
        for build in (table_by_rows, table_by_columns):
            table = build(self.EDGE_KINDS, self.EDGE_ROWS)
            assert render(table, fmt) == cell_by_cell_render(table, fmt)
        text = render(table_by_columns(self.EDGE_KINDS, self.EDGE_ROWS), "csv")
        assert text.split("\n")[3:5] == ["0,0,,0", "nan,-7,\"with, comma\",nan"]

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_an_empty_table(self, fmt):
        for build in (table_by_rows, table_by_columns):
            table = build(self.EDGE_KINDS, [])
            assert render(table, fmt) == cell_by_cell_render(table, fmt)

    @settings(max_examples=200, deadline=None)
    @given(drawn=random_tables())
    def test_random_tables(self, drawn):
        kinds, rows = drawn
        by_rows, by_columns = table_by_rows(kinds, rows), table_by_columns(kinds, rows)
        for fmt in ("csv", "text"):
            expected = cell_by_cell_render(by_rows, fmt)
            assert render(by_rows, fmt) == expected
            assert render(by_columns, fmt) == expected

    def test_columns_must_match_the_schema(self):
        table = table_by_rows(("int", "float"), [])
        with pytest.raises(DimensionMismatchError, match="columns"):
            table._add_columns([1, 2])
        with pytest.raises(DimensionMismatchError, match="length"):
            table._add_columns([1, 2], [0.5])
        assert table.rows == []

    # the nine runs that earlier changes kept byte-identical, a long chain and
    # a Dufour history
    RUNS = [
        ("figure2", {}),
        ("chain", {}),
        ("chain", {"N": "30", "g": "1.3"}),
        ("chain", {"N": "6", "T_L": "0.1", "T_R": "0.03"}),
        ("lambda", {}),
        ("vee", {"n_1": "0", "n_2": "0.5"}),
        ("sweep", {}),
        ("sweep", {"T_L": "0"}),
        ("dufour", {}),
        ("chain", {"N": "100", "g": "0.5"}),
        ("dufour", {"samples": "1001"}),
    ]

    @pytest.mark.parametrize("experiment,overrides", RUNS, ids=["-".join([e, *(f"{k}={v}" for k, v in o.items())]) for e, o in RUNS])
    def test_cli_runs(self, experiment, overrides):
        for fmt in ("csv", "text"):
            outcome = run(build_config(experiment, overrides={**overrides, "format": fmt}))
            for _, table in outcome.tables:
                assert render(table, fmt) == cell_by_cell_render(table, fmt)


class TestDeterminismAndRoundTrip:
    def test_identical_bytes_for_identical_config(self):
        first = render(run(build_config("chain", overrides={"N": "4"})).tables[0][1])
        second = render(run(build_config("chain", overrides={"N": "4"})).tables[0][1])
        assert first == second

    def test_identical_bytes_at_one_and_two_blas_threads(self):
        # figure2 and an N = 60 chain, each thread count in a fresh
        # interpreter, since OpenBLAS reads the variable when it loads
        script = ("from qthermo import cli\n"
                  "for name, overrides in (('figure2', {}), ('chain', {'N': '60', 'g': '1.3'})):\n"
                  "    for _, table in cli.run(cli.build_config(name, overrides=overrides)).tables:\n"
                  "        print(cli.render(table, 'csv'))\n")
        outputs = [subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                                  env={**package_env(), "OPENBLAS_NUM_THREADS": threads}).stdout
                   for threads in ("1", "2")]
        # the 4 panels' 200 rows and the chain's 60, with their headers
        assert len(outputs[0].splitlines()) > 260 and outputs[0] == outputs[1]

    def test_metadata_reproduces_the_run(self):
        config = build_config("chain", overrides={"g": "0.7", "N": "4"})
        text = render(run(config).tables[0][1])
        rebuilt = config_from_metadata(parse_metadata(text))
        assert rebuilt.values["g"] == pytest.approx(0.7)
        text_again = render(run(rebuilt).tables[0][1])
        assert body_of(text_again) == body_of(text)

    def test_lambda_metadata_round_trip(self):
        config = build_config("lambda", overrides={"n_1": "3", "n_2": "0.5"})
        text = render(run(config).tables[0][1])
        rebuilt = config_from_metadata(parse_metadata(text))
        assert body_of(render(run(rebuilt).tables[0][1])) == body_of(text)


class TestMainExitCodes:
    def test_success_writes_file(self, tmp_path, capsys):
        out = tmp_path / "lambda.csv"
        code = main(["lambda", "--out", str(out), "--quiet"])
        assert code == EXIT_OK
        assert out.exists()
        assert capsys.readouterr().out == ""

    def test_stdout_when_no_out(self, capsys):
        code = main(["lambda", "--quiet"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "unbalance" in captured.out

    def test_unwritable_out_is_a_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "missing" / "lambda.csv"
        assert main(["lambda", "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert captured.out == ""

    def test_out_onto_a_file_is_a_validation_failure(self, tmp_path, capsys):
        # figure2 writes its panels into the --out directory
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["figure2", "--set", "N=4", "--out", str(out)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "cannot write" in captured.err
        assert captured.out == ""

    def test_figure2_out_onto_a_file_stops_before_solving(self, tmp_path, capsys, monkeypatch):
        sweeps = []
        monkeypatch.setattr(qthermo.cli, "population_sweep", lambda *args, **kwargs: sweeps.append(args) or [])
        out = tmp_path / "afile"
        out.write_text("")
        assert main(["figure2", "--out", str(out)]) == EXIT_VALIDATION
        assert "cannot write output directory" in capsys.readouterr().err
        assert sweeps == []

    def test_out_into_a_missing_directory_stops_before_solving(self, tmp_path, capsys, monkeypatch):
        solves = []
        monkeypatch.setattr(qthermo.cli, "liouvillian", lambda *args, **kwargs: solves.append(args))
        out = tmp_path / "missing" / "chain.csv"
        assert main(["chain", "--out", str(out)]) == EXIT_VALIDATION
        assert "cannot write output file" in capsys.readouterr().err
        assert solves == [] and not out.parent.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["sweep", "--set", "g_list="], "g_list"),
            (["sweep", "--set", "N=2"], "N"),
            (["figure2", "--set", "N=2"], "N"),
            (["chain", "--set", "N=2"], "N"),
            (["chain", "--set", "N=100000"], "N"),
            (["sweep", "--set", "N=100000"], "N"),
            (["figure2", "--set", "N=100000"], "N"),
            # an N whose cube overflows a float
            (["chain", "--set", f"N={10**106}"], "N"),
            (["sweep", "--set", f"N={10**106}"], "N"),
            (["figure2", "--set", f"N={10**106}"], "N"),
            # heat currents of order h * Gamma would overflow
            (["chain", "--set", "h=1e300"], "h"),
            (["sweep", "--set", "Gamma=1e301"], "Gamma"),
            (["figure2", "--set", "h=1e301"], "h"),
            # rates of order Gamma * T / omega would overflow
            (["chain", "--set", "Gamma=1e200", "--set", "T_R=1e101"], r"Gamma \* T_R ="),
            (["chain", "--set", "N=3", "--set", "Gamma=1e200", "--set", "temperatures=1,1e101,0"],
             r"Gamma \* temperatures ="),
            (["sweep", "--set", "Gamma=1e200", "--set", "T_L=1e101"], r"Gamma \* T_L ="),
        ],
    )
    def test_chains_that_cannot_run_stop_before_solving(self, argv, key, tmp_path, capsys, monkeypatch):
        # an empty sweep, points that cannot classify and a chain longer
        # than the site limit are validation errors, decided before any
        # system is built
        builds = []
        monkeypatch.setattr(qthermo.chain, "chain_system", lambda *args: builds.append(args))
        monkeypatch.setattr(qthermo.cli, "chain_system", lambda *args: builds.append(args))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert re.match(f"error: {key} ", capsys.readouterr().err)
        assert builds == [] and not out.exists()

    def test_the_chain_size_budget_admits_three_hundred_sites(self, capsys):
        # the limit predates the sparse chain couplings and stays at 322, so
        # that no N changes its exit code
        assert qthermo.cli.MAX_CHAIN_SITES == 322
        assert build_config("chain", overrides={"N": "322"}).values["N"] == 322
        with pytest.raises(ConfigError, match="^N = 323 is above 322, the longest chain a run accepts"):
            build_config("chain", overrides={"N": "323"})
        assert main(["chain", "--set", "N=323"]) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: N = 323 is above 322")

    @pytest.mark.parametrize(
        "args,code,named",
        [
            (["dufour", "--set", "capacity=1e-300"], EXIT_VALIDATION, "heat capacity C = 1e-300"),
            # the current J = omega Gamma n(T) overflows at the first stage
            # temperature, before the heat capacity divides it
            (["dufour", "--set", "Gamma=1e300"], EXIT_VALIDATION,
             "error: the heat currents J_k = omega gamma [(n_k + 1) P_shared - n_k P_k] overflow at "
             "omega = 1.0, gamma = 1e+300 and occupations n = 1e+297, 8.75e+296"),
            # omega Gamma itself overflows at the starting temperature
            (["dufour", "--set", "omega=1e200", "--set", "Gamma=1e200"], EXIT_VALIDATION,
             "error: the heat currents J_k = omega gamma [(n_k + 1) P_shared - n_k P_k] overflow at "
             "omega = 1e+200, gamma = 1e+200 and occupations n = 1, 1"),
            (["chain", "--set", "Gamma=1e300"], EXIT_OK, None),
            (["lambda", "--set", "T_1=1e306", "--set", "T_2=1e306"], EXIT_OK, None),
            (["chain", "--set", "h=1e300"], EXIT_VALIDATION, "error: h * Gamma = "),
            (["chain", "--set", "h=1e150", "--set", "Gamma=1e150", "--set", "T_L=1e300", "--set", "T_R=1e300"],
             EXIT_VALIDATION, "error: Gamma * T_L = 1e+150 * 1e+300 is above 1e+300"),
        ],
        ids=["dufour-capacity", "dufour-Gamma", "dufour-omega-Gamma", "chain-Gamma", "lambda-T", "chain-h",
             "chain-Gamma-T"],
    )
    def test_overflowing_scales_end_named_or_finite(self, args, code, named):
        # in a fresh interpreter, where a RuntimeWarning is printed, not raised
        result = subprocess.run([sys.executable, "-m", "qthermo.cli", *args, "--quiet"], env=package_env(),
                                capture_output=True, text=True)
        assert result.returncode == code, result.stderr
        assert "RuntimeWarning" not in result.stderr and "Traceback" not in result.stderr
        if named is None:
            assert result.stderr == ""
            rows = [line.split(",") for line in body_of(result.stdout).splitlines()[1:]]
            assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row[:3])
        else:
            assert named in result.stderr
            if "J_k" in named:
                assert "heat capacity" not in result.stderr

    def test_validation_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("g = -0.5\n")
        code = main(["chain", "--config", str(path), "--quiet"])
        assert code == EXIT_VALIDATION
        assert "tunneling" in capsys.readouterr().err

    def test_unknown_key_failure(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("gg = 0.5\n")
        assert main(["chain", "--config", str(path)]) == EXIT_VALIDATION
        assert "nearest valid key" in capsys.readouterr().err

    def test_solver_failure(self, capsys):
        # tolerance far above the level spacing cannot group frequencies
        code = main(["chain", "--set", "eps_omega=0.5", "--quiet"])
        assert code == EXIT_SOLVER
        assert "grouping" in capsys.readouterr().err

    def test_ambiguous_grouping_names_the_tolerance(self, capsys):
        # at N = 3 and g = 0.1 the ground levels lie 0.86 below the band, less than 4 eps_omega
        assert main(["chain", "--set", "N=3", "--set", "eps_omega=0.5", "--quiet"]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver failure: grouping tolerance 5.000e-01 is not below a quarter")
        assert err.endswith(" (eps_omega = 0.5; a smaller eps_omega may separate the cluster)\n")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_grouping_tolerance_is_a_validation_failure(self, value, capsys):
        assert main(["chain", "--set", f"eps_omega={value}", "--quiet"]) == EXIT_VALIDATION
        assert "grouping tolerance must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,key",
        [
            (["dufour", "--set", "n=nan"], "n"),
            (["vee", "--set", "d=inf"], "d"),
            (["lambda", "--set", "T_1=inf", "--set", "T_2=1"], "T_1"),
            (["chain", "--set", "N=4", "--set", "T_L=nan"], "T_L"),
            (["chain", "--set", "eps_omega=nan"], "eps_omega"),
            (["chain", "--set", "N=3", "--set", "temperatures=0.8,-inf,0.4"], "temperatures"),
        ],
        ids=["dufour-n", "vee-d", "lambda-T_1", "chain-T_L", "chain-eps_omega", "chain-temperatures"],
    )
    def test_non_finite_value_is_a_validation_failure(self, overrides, key, capsys):
        assert main(overrides + ["--quiet"]) == EXIT_VALIDATION
        assert f"invalid value for key {key!r}" in capsys.readouterr().err

    def test_grouping_tolerance_at_a_quarter_spacing(self, capsys):
        # N = 3, g = 0.1: the smallest level spacing is sqrt(2) g; a tolerance
        # just under a quarter of it runs, one just over is a solver failure,
        # the exit code every grouping error has
        quarter = math.sqrt(2.0) * 0.1 / 4.0
        base = ["chain", "--set", "N=3", "--set", "g=0.1", "--quiet"]
        assert main(base + ["--set", f"eps_omega={quarter * (1 - 1e-9)!r}"]) == EXIT_OK
        below = capsys.readouterr().out
        assert main(base) == EXIT_OK
        assert body_of(below) == body_of(capsys.readouterr().out)
        assert main(base + ["--set", f"eps_omega={quarter * (1 + 1e-9)!r}"]) == EXIT_SOLVER
        assert "quarter of the minimum" in capsys.readouterr().err

    def test_zero_temperature_chain_is_a_solver_failure(self, capsys):
        # no bath absorbs, so the 10 ground populations and the coherences
        # between them are all stationary
        code = main(["chain", "--set", "T_L=0", "--set", "T_R=0", "--quiet"])
        assert code == EXIT_SOLVER
        assert "null space has dimension 100" in capsys.readouterr().err

    @pytest.mark.parametrize("n_sites, t_left, t_right", [(10, 0.1, 0.03), (30, 0.15, 0.04), (6, 0.1, 0.03),
                                                          (4, 0.08, 0.02)])
    def test_cold_chains_solve(self, n_sites, t_left, t_right, capsys):
        # Boltzmann-suppressed rates are tiny, not zero: the steady state is unique
        code = main(["chain", "--set", f"N={n_sites}", "--set", f"T_L={t_left}", "--set", f"T_R={t_right}",
                     "--quiet"])
        captured = capsys.readouterr()
        assert code == EXIT_OK and captured.err == ""
        rows = body_of(captured.out).splitlines()[1:]
        assert len(rows) == n_sites
        assert abs(sum(float(row.split(",")[1]) for row in rows) - 1.0) <= 1e-12

    def test_bad_set_syntax(self, capsys):
        assert main(["chain", "--set", "oops"]) == EXIT_VALIDATION
        assert "key=value" in capsys.readouterr().err

    def test_figure2_writes_panel_files(self, tmp_path):
        for fmt, extension in (("csv", "csv"), ("text", "txt")):
            out_dir = tmp_path / fmt
            code = main(["figure2", "--set", "N=4", "--format", fmt, "--out", str(out_dir), "--quiet"])
            assert code == EXIT_OK
            names = sorted(p.name for p in out_dir.iterdir())
            assert names == [f"panel_{panel}.{extension}" for panel in "bcde"]


class TestRuntime:
    def test_benchmark_names_resolve(self):
        # perfbench/workloads.py reaches the package only through the module
        # object it is handed (`q`, and `cli = self.q.cli`), so a name deleted
        # from the package would break it only when the benchmark runs
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        text = path.read_text()
        chains = set(re.findall(r"\bq\.(\w+(?:\.\w+)?)", text))
        chains |= {f"cli.{name}" for name in re.findall(r"\bcli\.(\w+)", text)}
        assert {"three_level_system", "lambda_system", "cli.run"} <= chains
        for chain in sorted(chains):
            target = qthermo
            for part in chain.split("."):
                assert hasattr(target, part), f"perfbench/workloads.py uses q.{chain}"
                target = getattr(target, part)

    @pytest.mark.parametrize(
        "args,code,stream",
        [
            (["lambda", "--quiet"], EXIT_OK, "unbalance"),
            (["chain", "--set", "gg=1"], EXIT_VALIDATION, "error: unknown key 'gg'"),
            (["chain", "--set", "eps_omega=0.5", "--quiet"], EXIT_SOLVER, "solver failure: grouping"),
        ],
        ids=["ok", "validation", "solver"],
    )
    def test_module_entry_point(self, args, code, stream):
        # `python -m qthermo.cli` goes through `raise SystemExit(main())`
        result = subprocess.run([sys.executable, "-m", "qthermo.cli", *args], env=package_env(),
                                capture_output=True, text=True)
        assert result.returncode == code
        assert stream in (result.stdout if code == EXIT_OK else result.stderr)

    @pytest.mark.parametrize("workload", ["survey", "scaling", "small_systems"])
    def test_benchmark_checks_pass(self, workload):
        # one untimed operation of each benchmark workload with its own
        # correctness checks (survey verdicts, Gibbs and second-law checks)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
        result = subprocess.run(
            [sys.executable, str(path), "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "0"],
            env=package_env(), capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outcome = json.loads(result.stdout.splitlines()[-1])
        assert (outcome["correct"], outcome["failed"]) == (True, 0), result.stderr

    def test_tiny_dufour_step_exits_at_once(self):
        # the unbounded run this guards against took over a minute; the check
        # needs none of the integration
        result = subprocess.run([sys.executable, "-m", "qthermo.cli", "dufour", "--set", "dt=1e-300"],
                                env=package_env(), capture_output=True, text=True, timeout=30)
        assert result.returncode == EXIT_VALIDATION
        assert "error: dt = 1e-300 asks for 5e+300 RK4 steps" in result.stderr

    def test_public_api(self):
        # a name added to or dropped from the package namespace is a deliberate diff here
        assert sorted(qthermo.__all__) == [
            "AccuracyError", "AmbiguousGroupingError", "BathSpec", "ChainSpec", "ConfigError",
            "DEFAULT_FREQ_TOL", "DegenerateInputError", "DimensionMismatchError", "EigenDecomposition",
            "ExplicitProfile", "FlatDensity", "InvariantViolationError", "LevelPopulations",
            "LinearProfile", "Liouvillian", "NonUniqueSteadyStateError", "NumericalConsistencyError",
            "OhmicDensity", "OpenSystem", "QThermoError", "SolverFailureError", "SweepPoint",
            "ThermoDiagnostics", "ThermophoresisVerdict", "ThreeLevelParams", "UnsupportedModelError",
            "bose_occupation", "chain", "chain_system", "classify", "davies", "default_survey_panels",
            "dufour_currents", "eigh", "errors", "evolve", "finite_capacity_heating", "heat_currents",
            "high_temperature_force", "lambda_system", "linalg", "liouvillian",
            "mean_position_trajectory", "occupations", "overdamped_ratio", "population_sweep",
            "populations_from_state", "rate_matrix", "site_populations", "steady_state",
            "thermo_diagnostics", "three_level", "three_level_system", "vee_system",
        ]

    def test_readme_examples_run(self, capsys):
        # every python block of the README, in order and in one namespace;
        # the printed values are the ones its comments state
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)
        assert len(blocks) == 2
        namespace = {}
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == 5
        assert abs(float(printed[0]) - 1.0 / 9.0) <= 1e-12
        assert abs(float(printed[1]) - 1.0 / 9.0) <= 1e-12
        assert float(printed[2]) == 0.0625
        assert printed[3].startswith("ThermophoresisVerdict(kind='negative', argmax_site=3, ")
        assert printed[4].startswith("ThermophoresisVerdict(kind='delocalized', argmax_site=5, ")

    def test_imports_only_numpy(self):
        # numpy is the one runtime dependency; the tests import scipy,
        # hypothesis and pytest themselves, so only a fresh interpreter shows
        # a stray import from the package
        script = "import sys, qthermo, qthermo.cli; print(qthermo.__file__); print(*sorted(sys.modules))"
        result = subprocess.run([sys.executable, "-c", script], env=package_env(),
                                capture_output=True, text=True, check=True)
        where, modules = result.stdout.splitlines()
        assert os.path.abspath(where) == os.path.abspath(qthermo.__file__)
        roots = {name.split(".")[0] for name in modules.split()}
        assert "numpy" in roots
        assert roots.isdisjoint({"scipy", "hypothesis", "pytest"})
