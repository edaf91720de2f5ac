"""Config parsing, experiment orchestration, CSV/text emission, exit codes."""

import numpy as np
import pytest

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
    parse_config,
    parse_metadata,
    read_config_file,
    render,
    run,
)
from qthermo.errors import ConfigError


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
        config = parse_config(str(path))
        assert config.experiment == "chain"
        assert config.values["Gamma"] == pytest.approx(0.01)
        assert config.provenance["Gamma"] == "default"
        assert config.provenance["N"] == "config"

    def test_parse_config_needs_experiment(self, tmp_path):
        path = tmp_path / "bare.cfg"
        path.write_text("N = 10\n")
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(str(path))
        config = parse_config(str(path), experiment="chain")
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

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError, match="format"):
            build_config("chain", overrides={"format": "json"})


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


class TestEmit:
    def make_table(self) -> ResultTable:
        table = ResultTable(
            columns=(Column("site", "int"), Column("population", "float"), Column("note", "str")),
            metadata={"qthermo": "0.1.0", "config experiment = chain": "x"},
        )
        table.metadata = {"qthermo": "0.1.0", "config experiment": "chain", "wall_clock_s": "1.0"}
        table.add_row(1, 1.0 / 3.0, "ok")
        table.add_row(2, 2.0 / 3.0, "with, comma")
        return table

    def test_csv_layout_and_float_precision(self):
        text = render(self.make_table(), "csv")
        lines = text.split("\n")
        assert lines[0] == "# qthermo = 0.1.0"
        assert "wall_clock_s" not in text
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


class TestDeterminismAndRoundTrip:
    def test_identical_bytes_for_identical_config(self):
        first = render(run(build_config("chain", overrides={"N": "4"})).tables[0][1])
        second = render(run(build_config("chain", overrides={"N": "4"})).tables[0][1])
        assert first == second

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

    def test_bad_set_syntax(self, capsys):
        assert main(["chain", "--set", "oops"]) == EXIT_VALIDATION
        assert "key=value" in capsys.readouterr().err

    def test_figure2_writes_panel_files(self, tmp_path):
        out_dir = tmp_path / "panels"
        code = main(["figure2", "--set", "N=4", "--out", str(out_dir), "--quiet"])
        assert code == EXIT_OK
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["panel_b.csv", "panel_c.csv", "panel_d.csv", "panel_e.csv"]

