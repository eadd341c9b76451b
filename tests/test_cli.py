import subprocess
import sys

import pytest

from evotropy import __version__, cli
from evotropy.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_RUNTIME, main

GOOD_CONFIG = """\
rng_seed = 17
generations = 3
population_floor = 16
pool_size = 4
snapshot_every = 2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return path


class TestRunCommand:
    def test_successful_run_writes_artifacts(self, tmp_path, capsys):
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        out_dir = tmp_path / "results"
        code = main(["run", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "stats.csv").exists()
        assert (out_dir / "snap_0.ppm").exists()
        printed = capsys.readouterr().out
        assert "final_max_fitness:" in printed
        assert "final_efficiency:" in printed

    def test_missing_config_file_is_an_io_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys):
        config = write(tmp_path, "bad.cfg", "rng_seed = 1\nmode = magic\n")
        code = main(["run", "--config", str(config)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parsimony_is_a_config_error(self, tmp_path, capsys, value):
        text = GOOD_CONFIG + f"parsimony_coefficient = {value}\n"
        config = write(tmp_path, "bad.cfg", text)
        out_dir = tmp_path / "results"
        code = main(["run", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "parsimony_coefficient" in err
        assert not out_dir.exists()

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"rng_seed = 1\n# caf\xe9\n")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        config = write(tmp_path, "bad.cfg", "rng_seed = 1\nspeed = 11\n")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_output_dir_flag_overrides_config(self, tmp_path, capsys):
        text = GOOD_CONFIG + f"output_dir = {tmp_path / 'from_config'}\n"
        config = write(tmp_path, "run.cfg", text)
        override = tmp_path / "from_flag"
        code = main(["run", "--config", str(config), "--output-dir", str(override)])
        assert code == EXIT_OK
        assert (override / "stats.csv").exists()
        assert not (tmp_path / "from_config").exists()


class TestAnalyzeCommand:
    def test_measurable_population_prints_report(self, tmp_path, capsys):
        rows = "\n".join(["0 1"] * 4)
        population = write(tmp_path, "pop.txt", f"alphabet_size=2\n{rows}\n")
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "members: 4" in printed
        assert "alphabet_size: 2" in printed
        assert "calculable_length: 2" in printed
        assert "complexity: 2.000000000" in printed
        assert "efficiency: 1.000000000" in printed

    def test_unmeasurable_population_exits_with_runtime_code(self, tmp_path, capsys):
        population = write(tmp_path, "pop.txt", "alphabet_size=3\n0 1\n1 2\n")
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "unmeasurable" in err
        assert "site 1: sample size 2" in err

    def test_missing_population_file_is_an_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--population", str(tmp_path / "absent.txt")])
        assert code == EXIT_IO

    def test_malformed_population_file_is_a_config_error(self, tmp_path, capsys):
        population = write(tmp_path, "pop.txt", "0 1\n")
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_CONFIG

    def test_non_ascii_population_file_is_a_config_error(self, tmp_path, capsys):
        population = tmp_path / "pop.txt"
        population.write_bytes("alphabet_size=2\n0 1 \u00e9\n".encode("utf-8"))
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


class TestUsageErrors:
    def test_no_subcommand_exits_with_config_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == EXIT_CONFIG

    def test_unknown_subcommand_exits_with_config_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explode"])
        assert excinfo.value.code == EXIT_CONFIG

    def test_run_without_config_flag_exits_with_config_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run"])
        assert excinfo.value.code == EXIT_CONFIG

    def test_version_flag_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


def _raise(error):
    def broken(*args, **kwargs):
        raise error

    return broken


class TestInternalErrors:
    def test_run_defect_is_one_line_and_runtime_code(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "run_experiment", _raise(RuntimeError("boom")))
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        assert main(["run", "--config", str(config)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_analyze_defect_is_one_line_and_runtime_code(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            cli, "physical_complexity_variable", _raise(RuntimeError("boom"))
        )
        population = write(tmp_path, "pop.txt", "alphabet_size=2\n0 1\n0 1\n")
        assert main(["analyze", "--population", str(population)]) == EXIT_RUNTIME
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_interrupt_is_not_swallowed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _raise(KeyboardInterrupt()))
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(config)])


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "evotropy.cli",
                "run",
                "--config",
                str(config),
                "--output-dir",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert "final_max_fitness:" in result.stdout
        assert (tmp_path / "out" / "stats.csv").exists()
