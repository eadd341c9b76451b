import contextlib
import importlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIGIT_LIMIT, needs_digit_limit
from evotropy import __version__, cli, evolution, harness
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


def unmeasurable_line(members, alphabet_size):
    """The whole stderr of `analyze` on a population too small to measure."""
    return (
        f"unmeasurable population: member count {members} is below "
        f"alphabet_size {alphabet_size}; population is too small to measure\n"
    )


TOO_LONG = "9" * (DIGIT_LIMIT + 1)


def assert_one_short_line(captured, start):
    """One config error line that names the digit limit and quotes the
    long value by a short prefix only."""
    assert captured.out == ""
    limit = f" of at most {DIGIT_LIMIT} digits, got "
    assert captured.err.startswith(f"config error: {start}{limit}")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


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

    def test_final_lines_are_the_last_stats_row(self, tmp_path, capsys):
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        last = (out_dir / "stats.csv").read_text(encoding="ascii").splitlines()[-1]
        cells = last.split(",")
        assert capsys.readouterr() == (
            f"final_max_fitness: {cells[1]}\nfinal_efficiency: {cells[7]}\n",
            "",
        )

    @pytest.mark.parametrize("seed", [42, 23])
    def test_snapshots_read_back_to_their_stats_rows(self, tmp_path, capsys, seed):
        # a snapshot has no header, so the pool size's goes in front of it
        text = f"rng_seed = {seed}\ngenerations = 3\nsnapshot_every = 1\n"
        config = write(tmp_path, "run.cfg", text)
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(config), "--output-dir", str(out_dir)]) == 0
        stats = (out_dir / "stats.csv").read_text(encoding="ascii").splitlines()
        columns = stats[0].split(",")
        for generation in (0, 3):
            row = dict(zip(columns, stats[1 + generation].split(",")))
            snapshot = (out_dir / f"snap_{generation}.txt").read_text(encoding="ascii")
            header = f"alphabet_size={harness.RunConfig.pool_size}\n"
            population = write(tmp_path, "pop.txt", header + snapshot)
            capsys.readouterr()
            assert main(["analyze", "--population", str(population)]) == EXIT_OK
            printed = capsys.readouterr().out.splitlines()
            report = dict(line.split(": ") for line in printed)
            for key in ("calculable_length", "complexity", "efficiency"):
                assert report[key] == row[key]

    def test_missing_config_file_is_an_io_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_bad_config_value_is_a_config_error(self, tmp_path, capsys):
        config = write(tmp_path, "bad.cfg", "rng_seed = 1\nmode = magic\n")
        code = main(["run", "--config", str(config)])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("config error: mode ")

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
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

    @pytest.mark.parametrize(
        "settings,key",
        [
            (
                f"parsimony_coefficient = 1e305\nattribute_max = {10**20}",
                "parsimony_coefficient",
            ),
            (f"attribute_max = {10**400}", "attribute_max"),
            (f"attribute_max = {10**308}", "attribute_max"),
        ],
        ids=["weight-underflow", "range-beyond-float", "gap-sum-overflow"],
    )
    def test_numeric_limits_are_config_errors(self, tmp_path, capsys, settings, key):
        text = f"rng_seed = 7\ngenerations = 2\n{settings}\n"
        config = write(tmp_path, "bad.cfg", text)
        out_dir = tmp_path / "results"
        code = main(["run", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert key in err
        assert not out_dir.exists()

    def test_large_finite_parsimony_runs(self, tmp_path, capsys):
        text = "rng_seed = 7\ngenerations = 2\nparsimony_coefficient = 1e300\n"
        config = write(tmp_path, "large.cfg", text)
        out_dir = tmp_path / "results"
        code = main(["run", "--config", str(config), "--output-dir", str(out_dir)])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""
        assert (out_dir / "stats.csv").exists()

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"rng_seed = 1\n# caf\xe9\n")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_a_byte_order_mark_is_read_past(self, tmp_path, capsys):
        outputs = []
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(prefix + GOOD_CONFIG.encode("utf-8"))
            out_dir = tmp_path / name
            code = main(["run", "--config", str(config), "--output-dir", str(out_dir)])
            printed = capsys.readouterr()
            assert (code, printed.err) == (EXIT_OK, "")
            outputs.append(((out_dir / "stats.csv").read_bytes(), printed.out))
        assert outputs[0] == outputs[1]

    def test_nul_in_output_dir_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"rng_seed = 1\ngenerations = 1\noutput_dir = \x00x\n")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "output_dir" in err

    def test_nul_in_the_output_dir_flag_is_a_config_error(self, tmp_path, capsys):
        # the flag builds the config anew, so it meets the key's check
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        code = main(["run", "--config", str(config), "--output-dir", "a\0b"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "output_dir" in err

    def test_an_empty_output_dir_flag_is_a_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        # an empty path is the working directory, whose artifacts a run clears
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "snap_5.txt").write_text("kept\n")
        code = main(["run", "--config", str(config), "--output-dir", ""])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: output_dir must not be empty\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "run.cfg",
            "snap_5.txt",
        ]
        assert (tmp_path / "snap_5.txt").read_text() == "kept\n"

    @needs_digit_limit
    def test_a_seed_beyond_the_digit_limit_is_one_short_line(self, tmp_path, capsys):
        config = write(tmp_path, "run.cfg", f"rng_seed = {TOO_LONG}\n")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG
        assert_one_short_line(
            capsys.readouterr(), "line 1: rng_seed expects an integer"
        )

    def test_unknown_key_is_a_config_error(self, tmp_path, capsys):
        config = write(tmp_path, "bad.cfg", "rng_seed = 1\nspeed = 11\n")
        assert main(["run", "--config", str(config)]) == EXIT_CONFIG

    def test_failed_write_keeps_existing_artifacts(
        self, tmp_path, capsys, monkeypatch
    ):
        out_dir = tmp_path / "results"
        first = write(tmp_path, "first.cfg", GOOD_CONFIG)
        assert main(["run", "--config", str(first), "--output-dir", str(out_dir)]) == 0
        before = (out_dir / "stats.csv").read_bytes()
        capsys.readouterr()

        def refuse(source, target):
            raise OSError(f"cannot replace {target}")

        monkeypatch.setattr(os, "replace", refuse)
        second = write(tmp_path, "second.cfg", GOOD_CONFIG.replace("17", "18"))
        code = main(["run", "--config", str(second), "--output-dir", str(out_dir)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and err.count("\n") == 1
        assert (out_dir / "stats.csv").read_bytes() == before
        assert not list(out_dir.glob("*.tmp"))

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
        assert "complexity_potential: 2.000000000" in printed
        assert "efficiency: 1.000000000" in printed

    def test_unmeasurable_population_exits_with_runtime_code(self, tmp_path, capsys):
        population = write(tmp_path, "pop.txt", "alphabet_size=3\n0 1\n1 2\n")
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr() == ("", unmeasurable_line(2, 3))

    def test_header_beyond_the_rows_is_reported_without_building_the_alphabet(
        self, tmp_path, capsys
    ):
        text = "alphabet_size=2000000\n0 1\n1999999\n5 6 7\n"
        population = write(tmp_path, "pop.txt", text)
        tracemalloc.start()
        try:
            code = main(["analyze", "--population", str(population)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_RUNTIME
        assert capsys.readouterr() == ("", unmeasurable_line(3, 2_000_000))
        assert peak < 5_000_000

    def test_header_beyond_the_symbols_is_reported_by_the_measure(
        self, tmp_path, capsys
    ):
        population = write(tmp_path, "pop.txt", "alphabet_size=9\n0 1\n8\n")
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr() == ("", unmeasurable_line(2, 9))

    def test_unmeasurable_report_of_a_long_member_is_one_line(self, tmp_path, capsys):
        # one member of 50 sites: every site has one sample, below 2 * site
        population = write(tmp_path, "pop.txt", "alphabet_size=2\n" + "0 " * 50)
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_RUNTIME
        assert capsys.readouterr() == ("", unmeasurable_line(1, 2))

    def test_unmeasurable_report_peaks_like_a_small_file(self, tmp_path):
        # the peak RSS of one `analyze` child, read by a fresh parent
        measure = (
            "import resource, subprocess, sys; "
            "subprocess.run([sys.executable, '-m', 'evotropy.cli', 'analyze', "
            "'--population', sys.argv[1]], capture_output=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )

        def peak(text):
            population = write(tmp_path, "pop.txt", text)
            result = subprocess.run(
                [sys.executable, "-c", measure, str(population)],
                capture_output=True,
                text=True,
                check=True,
            )
            return int(result.stdout)

        small = peak("alphabet_size=2\n0 1\n1 0\n")
        long_row = peak("alphabet_size=2\n" + "0 " * 200_000 + "\n")
        assert long_row <= 1.5 * small

    def test_missing_population_file_is_an_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--population", str(tmp_path / "absent.txt")])
        assert code == EXIT_IO
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert err.startswith("i/o error: ")

    def test_malformed_population_file_is_a_config_error(self, tmp_path, capsys):
        population = write(tmp_path, "pop.txt", "0 1\n")
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_CONFIG

    @needs_digit_limit
    def test_a_header_beyond_the_digit_limit_is_one_short_line(self, tmp_path, capsys):
        population = write(tmp_path, "pop.txt", f"alphabet_size={TOO_LONG}\n0 1\n")
        assert main(["analyze", "--population", str(population)]) == EXIT_CONFIG
        assert_one_short_line(
            capsys.readouterr(), "line 1: alphabet_size expects an integer"
        )

    @needs_digit_limit
    def test_a_symbol_beyond_the_digit_limit_is_one_short_line(
        self, tmp_path, capsys
    ):
        population = write(tmp_path, "pop.txt", f"alphabet_size=2\n0 1\n1 {TOO_LONG}\n")
        assert main(["analyze", "--population", str(population)]) == EXIT_CONFIG
        assert_one_short_line(
            capsys.readouterr(), "line 3: member rows must be space-separated integers"
        )

    def test_a_long_bad_row_is_quoted_by_a_short_prefix(self, tmp_path, capsys):
        text = "alphabet_size=2\n" + "0 " * 5000 + "x\n"
        population = write(tmp_path, "pop.txt", text)
        assert main(["analyze", "--population", str(population)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: line 2: member rows must be space-separated integers, "
            f"got {'0 ' * 20!r}... (10001 characters)\n"
        )

    def test_non_ascii_population_file_is_a_config_error(self, tmp_path, capsys):
        population = tmp_path / "pop.txt"
        population.write_bytes("alphabet_size=2\n0 1 \u00e9\n".encode("utf-8"))
        code = main(["analyze", "--population", str(population)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


def analyze_child(population, stdin=None):
    """`python -m evotropy.cli analyze` in a fresh interpreter, given
    `stdin` through a pipe."""
    return subprocess.run(
        [sys.executable, "-m", "evotropy.cli", "analyze", "--population", population],
        input=stdin,
        capture_output=True,
    )


class TestPipedPopulation:
    """A population piped to --population /dev/stdin reads as the same
    bytes in a file do, past the reader's first block."""

    # 2000 rows of 60 characters: several of the reader's blocks
    ROWS = "".join(
        " ".join(str((row + site) % 4) for site in range(30)) + "\n"
        for row in range(2000)
    )

    def same_as_the_path(self, tmp_path, data):
        population = tmp_path / "pop.txt"
        population.write_bytes(data)
        by_path = analyze_child(str(population))
        piped = analyze_child("/dev/stdin", data)
        assert (piped.returncode, piped.stdout, piped.stderr) == (
            by_path.returncode,
            by_path.stdout,
            by_path.stderr,
        )
        return piped

    def test_a_valid_file(self, tmp_path):
        data = ("alphabet_size=4\n" + self.ROWS).encode("ascii")
        piped = self.same_as_the_path(tmp_path, data)
        assert piped.returncode == EXIT_OK
        assert piped.stdout.startswith(b"members: 2000\n")

    def test_a_bad_row_after_the_first_block(self, tmp_path):
        lines = ("alphabet_size=4\n" + self.ROWS).splitlines()
        lines[1500] += " x"
        data = ("\n".join(lines) + "\n").encode("ascii")
        assert data.index(b" x") > harness._BLOCK
        piped = self.same_as_the_path(tmp_path, data)
        assert piped.returncode == EXIT_CONFIG
        assert piped.stderr.startswith(
            b"config error: line 1501: member rows must be space-separated integers"
        )
        assert piped.stderr.count(b"\n") == 1

    def test_a_byte_after_the_first_block_that_is_not_ascii(self, tmp_path):
        data = bytearray(("alphabet_size=4\n" + self.ROWS).encode("ascii"))
        data[100_000] = 0x80
        assert 100_000 > harness._BLOCK
        piped = self.same_as_the_path(tmp_path, bytes(data))
        assert piped.returncode == EXIT_CONFIG
        assert piped.stderr == (
            b"config error: 'ascii' codec can't decode byte 0x80 in position "
            b"100000: ordinal not in range(128)\n"
        )


_FRACTIONS = st.floats(-0.5, 1.5) | st.sampled_from([math.nan, math.inf])
# the huge magnitudes reach the float limits of the attribute range
_ATTRIBUTES = st.integers(-20, 20) | st.sampled_from(
    [-(10**400), -(10**20), 10**20, 10**400]
)
# size keys have no upper bound, so the fuzz keeps them small
_VALUES = {
    "rng_seed": st.integers(-1, 2**64),
    "mode": st.sampled_from(["discriminating", "nondiscriminating", "magic"]),
    "generations": st.integers(-1, 3),
    "crossover_fraction": _FRACTIONS,
    "mutation_fraction": _FRACTIONS,
    "parsimony_coefficient": st.floats(),
    "population_floor": st.integers(-1, 64),
    "pool_size": st.integers(-1, 8),
    "attributes_per_agent": st.integers(-1, 3),
    "request_length": st.integers(-1, 4),
    "attribute_min": _ATTRIBUTES,
    "attribute_max": _ATTRIBUTES,
    "snapshot_every": st.integers(-1, 3),
}
# no '#', '=' or line breaks: junk never turns into a (large) valid setting
_JUNK = st.text(
    st.characters(
        blacklist_categories=("Cc", "Cs", "Zl", "Zp"), blacklist_characters="#="
    ),
    max_size=12,
)
_CONFIG_LINES = st.one_of(
    st.sampled_from(sorted(_VALUES)).flatmap(
        lambda key: _VALUES[key].map(lambda value: f"{key} = {value}")
    ),
    st.sampled_from(sorted(_VALUES)).flatmap(
        lambda key: _JUNK.map(lambda junk: f"{key} = {junk}x")
    ),
    _JUNK,
    _JUNK.map(lambda junk: f"# {junk}"),
)
_POPULATION_FILES = st.binary(max_size=64) | st.builds(
    lambda size, rows, tail: (
        f"alphabet_size={size}\n"
        + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    ).encode("ascii")
    + tail,
    st.integers(-1, 8),
    st.lists(st.lists(st.integers(-1, 8), max_size=6), max_size=40),
    st.just(b"") | st.binary(max_size=8),
)


def _fuzz_main(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME, EXIT_IO)
    assert "Traceback" not in err
    assert (err == "") == (code == EXIT_OK)
    return code, err


class TestFuzz:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_CONFIG_LINES, max_size=10), st.booleans())
    def test_any_config_text_gives_a_documented_outcome(self, lines, seeded):
        text = "\n".join((["rng_seed = 7"] if seeded else []) + lines)
        with tempfile.TemporaryDirectory() as directory:
            config = Path(directory) / "run.cfg"
            config.write_text(text, encoding="utf-8")
            out_dir = Path(directory) / "out"
            code, err = _fuzz_main(
                ["run", "--config", str(config), "--output-dir", str(out_dir)]
            )
        # population_floor >= pool_size keeps every generation measurable,
        # so a run has no legitimate runtime failure
        assert code != EXIT_RUNTIME
        assert err.count("\n") == (0 if code == EXIT_OK else 1)

    @settings(max_examples=60, deadline=None)
    @given(_POPULATION_FILES)
    def test_any_population_bytes_give_a_documented_outcome(self, data):
        with tempfile.TemporaryDirectory() as directory:
            population = Path(directory) / "pop.txt"
            population.write_bytes(data)
            code, err = _fuzz_main(["analyze", "--population", str(population)])
        assert err.count("\n") == (0 if code == EXIT_OK else 1)


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


def _unknown_key(tmp_path, monkeypatch):
    config = write(tmp_path, "bad.cfg", "rng_seed = 1\nspeed = 11\n")
    return ["run", "--config", str(config)]


def _undecodable_config(tmp_path, monkeypatch):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"rng_seed = 1\n# caf\xe9\n")
    return ["run", "--config", str(config)]


def _missing_population(tmp_path, monkeypatch):
    return ["analyze", "--population", str(tmp_path / "absent.txt")]


def _unmeasurable_population(tmp_path, monkeypatch):
    population = write(tmp_path, "pop.txt", "alphabet_size=4\n0 1 2\n3\n")
    return ["analyze", "--population", str(population)]


def _internal_error(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", _raise(RuntimeError("boom")))
    return ["run", "--config", str(write(tmp_path, "run.cfg", GOOD_CONFIG))]


@pytest.mark.parametrize(
    "arrange,expected",
    [
        (_unknown_key, EXIT_CONFIG),
        (_undecodable_config, EXIT_CONFIG),
        (_missing_population, EXIT_IO),
        (_unmeasurable_population, EXIT_RUNTIME),
        (_internal_error, EXIT_RUNTIME),
    ],
    ids=["unknown-key", "undecodable", "missing-file", "unmeasurable", "internal"],
)
def test_every_documented_failure_prints_one_stderr_line(
    arrange, expected, tmp_path, capsys, monkeypatch
):
    code = main(arrange(tmp_path, monkeypatch))
    captured = capsys.readouterr()
    assert code == expected
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    assert captured.err.endswith("\n")


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

    def test_failure_mid_run_keeps_the_snapshots_already_written(
        self, tmp_path, capsys, monkeypatch
    ):
        text = (
            "rng_seed = 17\ngenerations = 6\npopulation_floor = 16\n"
            "pool_size = 4\nmutation_fraction = 0.5\nsnapshot_every = 1\n"
        )
        config = write(tmp_path, "run.cfg", text)
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert main(["run", "--config", str(config), "--output-dir", str(full)]) == 0
        capsys.readouterr()

        mutate, calls = evolution.mutate, []

        def failing_mutate(*args):
            calls.append(None)
            if len(calls) > 20:
                raise RuntimeError("mutate gave up")
            return mutate(*args)

        monkeypatch.setattr(evolution, "mutate", failing_mutate)
        code = main(["run", "--config", str(config), "--output-dir", str(cut)])
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: mutate gave up\n"
        written = sorted(path.name for path in cut.iterdir())
        assert {"snap_0.txt", "snap_0.ppm", "snap_1.txt", "snap_1.ppm"} <= set(written)
        assert "snap_6.txt" not in written and "stats.csv" not in written
        assert not list(cut.glob("*.tmp"))
        for name in written:
            assert (cut / name).read_bytes() == (full / name).read_bytes()

    def test_interrupt_is_not_swallowed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _raise(KeyboardInterrupt()))
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        with pytest.raises(KeyboardInterrupt):
            main(["run", "--config", str(config)])


class TestColdStart:
    def test_cli_import_leaves_statistics_unloaded(self):
        # statistics pulls in decimal and fractions at every launch
        code = (
            "import sys, evotropy.cli; "
            "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout == "[]\n"


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path, capsys, monkeypatch):
        # the target pip installs as `evotropy`; 3.10 has no tomllib
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        declared = re.search(
            r'^\[project\.scripts\]\nevotropy = "([\w.]+):(\w+)"$',
            pyproject.read_text(encoding="utf-8"),
            re.MULTILINE,
        )
        assert declared, "pyproject.toml declares no evotropy console script"
        module, function = declared.groups()
        script = getattr(importlib.import_module(module), function)
        config = write(tmp_path, "run.cfg", GOOD_CONFIG)
        out_dir = tmp_path / "out"
        # the generated script calls it with no arguments, as sys.exit(main())
        monkeypatch.setattr(
            sys,
            "argv",
            ["evotropy", "run", "--config", str(config), "--output-dir", str(out_dir)],
        )
        assert script() == EXIT_OK
        assert "final_max_fitness:" in capsys.readouterr().out
        assert (out_dir / "stats.csv").exists()
