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
from qthermo.errors import ConfigError, DegenerateInputError


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
            ({"samples": str(qthermo.cli.MAX_DUFOUR_STEPS + 2)}, "samples"),
        ],
    )
    def test_dufour_step_count_is_bounded(self, overrides, key, monkeypatch):
        # refused from the estimate, before the integration loop runs
        heatings = []
        monkeypatch.setattr(qthermo.cli, "finite_capacity_heating", lambda *args, **kwargs: heatings.append(kwargs))
        with pytest.raises(ConfigError, match=f"^{key} = .* above the limit {qthermo.cli.MAX_DUFOUR_STEPS}$"):
            run(build_config("dufour", overrides=overrides))
        assert heatings == []

    @pytest.mark.parametrize(
        "overrides",
        [{"samples": str(qthermo.cli.MAX_DUFOUR_STEPS + 1)},
         {"horizon": "5", "dt": repr(5.0 / qthermo.cli.MAX_DUFOUR_STEPS)}],
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
        assert samples == [qthermo.cli.MAX_DUFOUR_STEPS + 1]

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
            # an estimate of the bytes of this N overflows a float
            (["chain", "--set", f"N={10**106}"], "N"),
            (["sweep", "--set", f"N={10**106}"], "N"),
            (["figure2", "--set", f"N={10**106}"], "N"),
        ],
    )
    def test_chains_that_cannot_run_stop_before_solving(self, argv, key, tmp_path, capsys, monkeypatch):
        # an empty sweep, points that cannot classify and a chain whose
        # dense arrays would exhaust memory are validation errors, decided
        # before any system is built
        builds = []
        monkeypatch.setattr(qthermo.chain, "chain_system", lambda *args: builds.append(args))
        monkeypatch.setattr(qthermo.cli, "chain_system", lambda *args: builds.append(args))
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_VALIDATION
        assert re.match(f"error: {key} ", capsys.readouterr().err)
        assert builds == [] and not out.exists()

    def test_the_chain_size_budget_admits_three_hundred_sites(self):
        # checked on the estimate, which counts the arrays chain_system builds
        spec = qthermo.chain.ChainSpec(5, 1.0, 0.5, 0.02, qthermo.chain.LinearProfile(0.8, 0.4))
        system = qthermo.chain.chain_system(spec)
        built = system.hamiltonian.nbytes + sum(bath.coupling.nbytes for bath in system.baths)
        estimate = qthermo.chain.chain_system_bytes
        assert estimate(5) == built
        longest = qthermo.cli.MAX_CHAIN_SITES
        assert estimate(longest) <= qthermo.cli.MAX_CHAIN_BYTES < estimate(longest + 1)
        assert longest >= 300
        assert build_config("chain", overrides={"N": str(longest)}).values["N"] == longest
        with pytest.raises(ConfigError, match=f"N = {longest + 1} "):
            build_config("chain", overrides={"N": str(longest + 1)})

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
