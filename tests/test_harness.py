import inspect
import math
import random
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DIGIT_LIMIT, analyze_like_rows, needs_digit_limit
from evotropy import (
    MODES,
    STATS_HEADER,
    ConfigError,
    EvolutionConfig,
    GenerationStats,
    RunConfig,
    UnmeasurablePopulationError,
    build_evolution_config,
    evolution,
    evolve,
    format_snapshot,
    format_stats_csv,
    generate_alphabet,
    generate_request,
    harness,
    palette_color,
    parse_config,
    physical_complexity_variable,
    read_population_file,
    render_snapshot,
    run_experiment,
    write_stats_csv,
)
from evotropy.core import Population, _shown

MINIMAL = "rng_seed = 42\n"


class TestParseConfig:
    def test_minimal_config_uses_defaults(self):
        config = parse_config(MINIMAL)
        assert config.rng_seed == 42
        assert config.mode == "discriminating"
        assert config.generations == 300
        assert config.crossover_fraction == 0.10
        assert config.mutation_fraction == 0.10
        assert config.parsimony_coefficient == 0.1
        assert config.population_floor == 160
        assert config.pool_size == 16
        assert config.attributes_per_agent == 2
        assert config.request_length == 4
        assert config.attribute_min == 0
        assert config.attribute_max == 9
        assert config.snapshot_every == 0
        assert config.output_dir == "out"

    def test_every_key_is_settable(self):
        text = "\n".join(
            [
                "rng_seed = 7",
                "mode = nondiscriminating",
                "generations = 12",
                "crossover_fraction = 0.25",
                "mutation_fraction = 0.5",
                "parsimony_coefficient = 0.2",
                "population_floor = 30",
                "pool_size = 8",
                "attributes_per_agent = 3",
                "request_length = 2",
                "attribute_min = 1",
                "attribute_max = 6",
                "snapshot_every = 4",
                "output_dir = results/run1",
            ]
        )
        config = parse_config(text)
        assert config == RunConfig(
            rng_seed=7,
            mode="nondiscriminating",
            generations=12,
            crossover_fraction=0.25,
            mutation_fraction=0.5,
            parsimony_coefficient=0.2,
            population_floor=30,
            pool_size=8,
            attributes_per_agent=3,
            request_length=2,
            attribute_min=1,
            attribute_max=6,
            snapshot_every=4,
            output_dir="results/run1",
        )

    def test_comments_and_blank_lines_are_skipped(self):
        text = "# experiment one\n\nrng_seed = 5  # the seed\n\n# done\n"
        assert parse_config(text).rng_seed == 5

    def test_whitespace_around_key_and_value_is_tolerated(self):
        assert parse_config("   rng_seed   =   99   \n").rng_seed == 99

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*mystery"):
            parse_config("rng_seed = 1\nmystery = 3\n")

    def test_duplicate_key_names_the_line(self):
        with pytest.raises(ConfigError, match=r"line 3.*duplicate.*rng_seed"):
            parse_config("rng_seed = 1\n\nrng_seed = 2\n")

    def test_missing_equals_sign_is_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("rng_seed 42\n")

    def test_empty_value_is_rejected(self):
        with pytest.raises(ConfigError, match=r"line 1.*rng_seed"):
            parse_config("rng_seed =\n")

    def test_non_integer_value_names_line_and_key(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rng_seed = 1\ngenerations = soon\n")
        assert str(excinfo.value) == (
            "line 2: generations expects an integer, got 'soon'"
        )

    def test_non_number_fraction_is_rejected(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config("rng_seed = 1\ncrossover_fraction = lots\n")
        assert str(excinfo.value) == (
            "line 2: crossover_fraction expects a real number, got 'lots'"
        )

    def test_missing_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="rng_seed"):
            parse_config("generations = 5\n")

    def test_float_syntax_for_integer_key_is_rejected(self):
        with pytest.raises(ConfigError, match="generations"):
            parse_config("rng_seed = 1\ngenerations = 2.5\n")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_table():
    """{key: default cell} of the README's config file table."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | meaning |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        assert key not in table, f"{key} is listed twice"
        table[key] = default
    return table


def test_readme_config_table_lists_every_field_with_its_default():
    table = readme_config_table()
    names = list(inspect.signature(RunConfig).parameters)
    assert sorted(table) == sorted(names)
    assert table.pop("rng_seed") == "*(required)*"
    # the documented defaults, parsed as a config file, are the defaults
    lines = [f"{key} = {value}\n" for key, value in table.items()]
    text = "rng_seed = 1\n" + "".join(lines)
    assert parse_config(text) == RunConfig(rng_seed=1)


class TestValidation:
    def base(self, **overrides):
        values = dict(rng_seed=1)
        values.update(overrides)
        return RunConfig(**values)

    def test_valid_config_passes(self):
        assert self.base().rng_seed == 1

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            (dict(rng_seed=-1), "rng_seed"),
            (dict(rng_seed=2**64), "rng_seed"),
            (dict(mode="fancy"), "mode"),
            (dict(generations=-1), "generations"),
            (dict(crossover_fraction=1.01), "crossover_fraction"),
            (dict(mutation_fraction=-0.5), "mutation_fraction"),
            (dict(parsimony_coefficient=-0.1), "parsimony_coefficient"),
            (dict(pool_size=1, population_floor=1), "pool_size"),
            (dict(attributes_per_agent=0), "attributes_per_agent"),
            (dict(request_length=0), "request_length"),
            (dict(attribute_min=5, attribute_max=4), "attribute_min"),
            (dict(population_floor=5), "population_floor"),
            (dict(snapshot_every=-2), "snapshot_every"),
            (dict(parsimony_coefficient=float("nan")), "parsimony_coefficient"),
            (dict(parsimony_coefficient=float("inf")), "parsimony_coefficient"),
            (dict(attribute_max=10**400), "attribute_max"),
            (dict(attribute_min=-(10**400)), "attribute_max"),
            (dict(output_dir="out\0"), "output_dir"),
            (dict(rng_seed=42.0), "^rng_seed expects an integer"),
            (dict(generations=2.5), "^generations expects an integer"),
            (dict(population_floor=160.5), "^population_floor expects an integer"),
            (dict(pool_size=16.0), "^pool_size expects an integer"),
            (dict(crossover_fraction="0.1"), "^crossover_fraction expects a real"),
            (dict(parsimony_coefficient=10**400), "^parsimony_coefficient expects"),
            (dict(generations=10**400), "^generations must convert to a finite float"),
            (
                dict(mode="nondiscriminating", generations=10**400),
                "^generations must convert to a finite float",
            ),
            (dict(output_dir=Path("x")), "^output_dir expects text"),
            (dict(output_dir=""), "^output_dir must not be empty"),
        ],
    )
    def test_each_rule_names_its_key(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            self.base(**overrides)

    @needs_digit_limit
    @pytest.mark.parametrize(
        "overrides,key",
        [
            (dict(generations=-(10**DIGIT_LIMIT)), "generations"),
            (dict(attribute_min=10**DIGIT_LIMIT), "attribute_min"),
        ],
    )
    def test_an_integer_past_the_digit_limit_is_named_by_it(self, overrides, key):
        with pytest.raises(ConfigError, match=f"^{key} ") as excinfo:
            self.base(**overrides)
        assert f"an integer of more than {DIGIT_LIMIT} digits" in str(excinfo.value)

    def test_both_records_refuse_a_mode_by_one_rule(self):
        with pytest.raises(ConfigError) as run_error:
            self.base(mode="magic")
        with pytest.raises(ConfigError) as world_error:
            EvolutionConfig(
                request=(3,), alphabet=((3,), (5,)), rng_seed=1, mode="magic"
            )
        assert str(run_error.value) == str(world_error.value) == (
            "mode must be one of discriminating, nondiscriminating; got 'magic'"
        )

    def test_the_weight_floor_binds_only_under_selection(self):
        # the nondiscriminating baseline weighs every member 1.0, so the
        # coefficient changes nothing a run yields
        def rows(coefficient):
            run_config = self.base(
                mode="nondiscriminating",
                parsimony_coefficient=coefficient,
                generations=20,
            )
            return [stats for _, stats in evolve(build_evolution_config(run_config))]

        assert rows(1e308) == rows(0.1)
        with pytest.raises(ConfigError, match="^parsimony_coefficient "):
            self.base(parsimony_coefficient=1e308, generations=20)

    def test_equal_settings_are_stored_alike(self):
        config = self.base(rng_seed=True, generations=True, crossover_fraction=0)
        alike = self.base(rng_seed=1, generations=1, crossover_fraction=0.0)
        assert repr(config) == repr(alike)
        assert type(config.rng_seed) is int
        assert type(config.crossover_fraction) is float

    def test_a_true_seed_builds_the_world_of_seed_1(self):
        world = build_evolution_config(self.base(rng_seed=True))
        assert world == build_evolution_config(self.base(rng_seed=1))


class TestGeneration:
    def test_alphabet_shape_and_ranges(self):
        alphabet = generate_alphabet(random.Random(0), 10, 3, 2, 5)
        assert len(alphabet) == 10
        for attributes in alphabet:
            assert len(attributes) == 3
            assert all(2 <= value <= 5 for value in attributes)

    def test_request_shape_and_range(self):
        request = generate_request(random.Random(0), 6, 1, 3)
        assert len(request) == 6
        assert all(1 <= value <= 3 for value in request)

    def test_generation_is_deterministic(self):
        first = generate_alphabet(random.Random(42), 5, 2, 0, 9)
        second = generate_alphabet(random.Random(42), 5, 2, 0, 9)
        assert first == second

    def test_an_agent_is_drawn_as_a_request_is(self):
        rng = random.Random(9)
        agents = tuple(generate_request(rng, 3, 0, 9) for _ in range(5))
        assert generate_alphabet(random.Random(9), 5, 3, 0, 9) == agents

    def test_attribute_values_cover_the_range(self):
        alphabet = generate_alphabet(random.Random(1), 100, 2, 0, 4)
        values = {v for agent in alphabet for v in agent}
        assert values == {0, 1, 2, 3, 4}


class TestBuildEvolutionConfig:
    def test_scalar_settings_carry_over(self):
        run_config = RunConfig(
            rng_seed=3,
            mode="nondiscriminating",
            crossover_fraction=0.2,
            mutation_fraction=0.3,
            parsimony_coefficient=0.05,
            population_floor=40,
            generations=17,
        )
        config = build_evolution_config(run_config)
        parameters = inspect.signature(RunConfig).parameters
        shared = set(inspect.signature(EvolutionConfig).parameters) & set(parameters)
        defaults = {name: parameter.default for name, parameter in parameters.items()}
        for name in shared:
            # a default value would hide a setting the builder dropped
            assert getattr(run_config, name) != defaults[name], name
            assert getattr(config, name) == getattr(run_config, name), name

    def test_modes_share_alphabet_and_request_for_a_seed(self):
        base = build_evolution_config(RunConfig(rng_seed=11))
        flat = build_evolution_config(RunConfig(rng_seed=11, mode="nondiscriminating"))
        assert base.alphabet == flat.alphabet
        assert base.request == flat.request

    def test_different_seeds_give_different_worlds(self):
        first = build_evolution_config(RunConfig(rng_seed=1))
        second = build_evolution_config(RunConfig(rng_seed=2))
        assert (
            first.alphabet != second.alphabet or first.request != second.request
        )

    def test_alphabet_size_matches_pool_size(self):
        config = build_evolution_config(RunConfig(rng_seed=5, pool_size=7))
        assert len(config.alphabet) == 7
        assert len(config.request) == 4

    # the settings of test_cli's numeric-limit cases, on seed 7 over 2 generations
    @pytest.mark.parametrize(
        "overrides,key",
        [
            (
                {"parsimony_coefficient": 1e305, "attribute_max": 10**20},
                "parsimony_coefficient",
            ),
            ({"attribute_max": 10**308}, "attribute_max"),
        ],
        ids=["weight-underflow", "gap-sum-overflow"],
    )
    def test_world_limits_pass_run_config_and_fail_here(self, overrides, key):
        # RunConfig cannot check them: they depend on the drawn attributes
        run_config = RunConfig(rng_seed=7, generations=2, **overrides)
        with pytest.raises(ConfigError, match=key):
            build_evolution_config(run_config)

    def test_an_attribute_range_beyond_a_float_is_rejected_by_run_config(self):
        with pytest.raises(ConfigError, match="attribute_max"):
            RunConfig(rng_seed=7, generations=2, attribute_max=10**400)

    @pytest.mark.parametrize("coefficient", [1e305, 2e305, 1e306, 1e307, 1e308])
    @pytest.mark.parametrize("generations", [0, 2, 300])
    def test_run_config_refuses_what_the_most_lenient_world_refuses(
        self, generations, coefficient
    ):
        settings = dict(
            rng_seed=1,
            generations=generations,
            parsimony_coefficient=coefficient,
            population_floor=2,
        )

        def refused(make, **world):
            try:
                make(**settings, **world)
            except ConfigError as error:
                assert "parsimony_coefficient" in str(error)
                return True
            return False

        # every agent carries every requested value, so every raw score is 1
        lenient = refused(EvolutionConfig, request=(3, 5), alphabet=((3, 5), (3, 5)))
        assert refused(RunConfig, pool_size=2) == lenient


def example_rows():
    return [
        GenerationStats(
            generation=0,
            max_fitness=1.0,
            mean_fitness=0.5,
            mean_length=3.0,
            population_size=48,
            calculable_length=2,
            complexity=1.5,
            efficiency=0.75,
        ),
    ]


class TestStatsCsv:
    def test_header_is_exact(self):
        assert (
            STATS_HEADER
            == "generation,max_fitness,mean_fitness,mean_length,"
            "population_size,calculable_length,complexity,efficiency"
        )
        assert format_stats_csv(example_rows()).splitlines()[0] == STATS_HEADER

    def test_reals_carry_nine_decimal_places(self):
        line = format_stats_csv(example_rows()).splitlines()[1]
        assert line == "0,1.000000000,0.500000000,3.000000000,48,2,1.500000000,0.750000000"

    def test_text_ends_with_a_newline(self):
        assert format_stats_csv(example_rows()).endswith("\n")

    def test_round_trip_recovers_values_to_nine_places(self):
        rows = [
            GenerationStats(
                generation=2,
                max_fitness=1.0 / 3.0,
                mean_fitness=1.0 / 7.0,
                mean_length=10.0 / 3.0,
                population_size=21,
                calculable_length=3,
                complexity=2.0 / 3.0,
                efficiency=2.0 / 9.0,
            )
        ]
        fields = format_stats_csv(rows).splitlines()[1].split(",")
        assert abs(float(fields[1]) - 1.0 / 3.0) < 1e-9
        assert abs(float(fields[2]) - 1.0 / 7.0) < 1e-9
        assert abs(float(fields[3]) - 10.0 / 3.0) < 1e-9
        assert abs(float(fields[6]) - 2.0 / 3.0) < 1e-9
        assert abs(float(fields[7]) - 2.0 / 9.0) < 1e-9

    def test_ablation_reals_sit_far_from_a_rounding_boundary(self):
        # the measure calls the platform's math.log; a margin of 64 ULP
        # from every 9-decimal rounding boundary keeps a last-bit libm
        # difference from changing a digit of these runs' stats.csv
        reals = [
            name
            for name, kind in GenerationStats.__annotations__.items()
            if kind == "float"
        ]
        for seed in (42, 23, 57, 4711, 424242):
            for mode in MODES:
                config = build_evolution_config(RunConfig(rng_seed=seed, mode=mode))
                for _, row in evolve(config):
                    for name in reals:
                        value = getattr(row, name)
                        scaled = Fraction(value) * 10**9
                        off = abs(scaled - math.floor(scaled) - Fraction(1, 2))
                        margin = 64 * Fraction(math.ulp(value)) * 10**9
                        assert off >= margin, (seed, mode, row.generation, name)

    def test_write_creates_the_file(self, tmp_path):
        path = tmp_path / "stats.csv"
        write_stats_csv(example_rows(), path)
        assert path.read_text(encoding="ascii") == format_stats_csv(example_rows())

    def test_write_rejects_empty_stats(self, tmp_path):
        with pytest.raises(ValueError):
            write_stats_csv([], tmp_path / "stats.csv")


class TestSnapshotText:
    def test_one_member_per_line(self):
        assert format_snapshot(Population(((0, 1, 2), (2,)), 3)) == "0 1 2\n2\n"

    def test_empty_snapshot_is_rejected(self):
        # a snapshot takes a population, and a population is never empty
        with pytest.raises(ValueError, match="at least one member"):
            format_snapshot(Population((), 2))


class TestPalette:
    def test_colors_are_deterministic(self):
        assert palette_color(3, 8) == palette_color(3, 8)

    def test_no_symbol_maps_to_white(self):
        for alphabet_size in range(2, 65):
            for symbol in range(alphabet_size):
                assert palette_color(symbol, alphabet_size) != (255, 255, 255)

    def test_colors_within_an_alphabet_are_distinct(self):
        for alphabet_size in (2, 3, 8, 16, 32):
            colors = {
                palette_color(symbol, alphabet_size)
                for symbol in range(alphabet_size)
            }
            assert len(colors) == alphabet_size

    def test_channels_are_bytes(self):
        for symbol in range(16):
            assert all(0 <= channel <= 255 for channel in palette_color(symbol, 16))

    def test_out_of_range_symbol_is_rejected(self):
        with pytest.raises(ValueError):
            palette_color(5, 5)
        with pytest.raises(ValueError):
            palette_color(-1, 5)


class TestRenderSnapshot:
    def test_ragged_rows_are_padded_with_white(self):
        lines = render_snapshot(Population(((0,), (0, 1)), 2)).splitlines()
        assert lines[0] == "P3"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        color0 = "%d %d %d" % palette_color(0, 2)
        color1 = "%d %d %d" % palette_color(1, 2)
        assert lines[3] == f"{color0} 255 255 255"
        assert lines[4] == f"{color0} {color1}"

    def test_dimensions_match_the_widest_member(self):
        population = Population(((0, 1, 0, 1, 1), (1,), (0, 0)), 2)
        lines = render_snapshot(population).splitlines()
        assert lines[1] == "5 3"
        for line in lines[3:]:
            assert len(line.split()) == 15  # 5 pixels * 3 channels

    def test_empty_snapshot_is_rejected(self):
        # a snapshot takes a population, and a population is never empty
        with pytest.raises(ValueError, match="at least one member"):
            render_snapshot(Population((), 2))

    @pytest.mark.parametrize("symbol", [-1, 3])
    def test_symbol_outside_the_alphabet_is_rejected(self, symbol):
        # the population checks every symbol, so no color lookup wraps -1
        with pytest.raises(ValueError, match=f"symbol {symbol} is not a valid"):
            render_snapshot(Population(((0, 1), (2, symbol, 0)), 3))


def pixel_loop_render(rows, alphabet_size):
    """The P3 render calling palette_color once per pixel."""
    width = max(len(row) for row in rows)
    lines = ["P3", f"{width} {len(rows)}", "255"]
    for row in rows:
        pixels = [palette_color(symbol, alphabet_size) for symbol in row]
        pixels.extend([(255, 255, 255)] * (width - len(row)))
        lines.append(" ".join(f"{r} {g} {b}" for r, g, b in pixels))
    return "\n".join(lines) + "\n"


@st.composite
def snapshots(draw):
    alphabet_size = draw(st.integers(min_value=2, max_value=300))
    symbols = st.integers(min_value=0, max_value=alphabet_size - 1)
    rows = draw(
        st.lists(st.lists(symbols, min_size=1, max_size=12), min_size=1, max_size=12)
    )
    return rows, alphabet_size


class TestRenderMatchesPixelLoop:
    @given(snapshots())
    def test_equal_bytes_for_ragged_rows(self, snapshot):
        rows, alphabet_size = snapshot
        population = Population(rows, alphabet_size)
        assert render_snapshot(population).encode("ascii") == (
            pixel_loop_render(rows, alphabet_size).encode("ascii")
        )


class TestReadPopulationFile:
    def write(self, tmp_path, text):
        path = tmp_path / "population.txt"
        path.write_text(text, encoding="ascii")
        return path

    def test_reads_header_and_rows(self, tmp_path):
        path = self.write(tmp_path, "alphabet_size=3\n0 1 2\n2 2\n")
        population = read_population_file(path)
        assert population.alphabet_size == 3
        assert population.members == ((0, 1, 2), (2, 2))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = self.write(tmp_path, "\nalphabet_size = 2\n\n0 1\n\n")
        assert len(read_population_file(path)) == 1

    def test_missing_header_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "0 1 2\n")
        with pytest.raises(ConfigError, match="alphabet_size"):
            read_population_file(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "\n")
        with pytest.raises(ConfigError, match="header"):
            read_population_file(path)

    def test_header_below_two_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "alphabet_size=1\n0\n")
        with pytest.raises(ConfigError, match="at least 2"):
            read_population_file(path)

    def test_non_integer_row_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "alphabet_size=2\n0 x\n")
        with pytest.raises(ConfigError, match="line 2"):
            read_population_file(path)

    def test_out_of_range_symbol_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "alphabet_size=2\n0 5\n")
        with pytest.raises(ConfigError) as excinfo:
            read_population_file(path)
        assert str(excinfo.value) == (
            "symbol 5 is not a valid agent id for an alphabet of size 2"
        )

    @pytest.mark.parametrize("rows", ["0 9\n-3\n", "0 9\n-3\n12\n"])
    def test_the_first_bad_symbol_in_member_order_is_named(self, tmp_path, rows):
        # 9 is not the smallest symbol read; on the second file, not the largest
        path = self.write(tmp_path, "alphabet_size=4\n" + rows)
        with pytest.raises(ConfigError) as excinfo:
            read_population_file(path)
        assert str(excinfo.value) == (
            "symbol 9 is not a valid agent id for an alphabet of size 4"
        )

    def test_memory_does_not_grow_with_the_header(self, tmp_path):
        # one row of n zeros costs as much to read under a header of n as
        # under a header of 2: the population records the size, not n agents
        n = 50_000
        row = " ".join(["0"] * n) + "\n"
        peaks = []
        for header in (n, 2):
            path = self.write(tmp_path, f"alphabet_size={header}\n" + row)
            tracemalloc.start()
            try:
                population = read_population_file(path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert population.alphabet_size == header
            peaks.append(peak)
        assert peaks[0] < 1.5 * peaks[1]

    def test_out_of_range_symbol_under_a_large_header_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "alphabet_size=1000000\n0 1\n-1\n")
        with pytest.raises(ConfigError, match="symbol -1 is not a valid agent id"):
            read_population_file(path)

    def test_file_without_rows_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "alphabet_size=2\n")
        with pytest.raises(ConfigError, match="no member rows"):
            read_population_file(path)

    def test_a_byte_past_the_first_block_that_is_not_ascii_is_named(self, tmp_path):
        rows = "".join(f"{index % 2} 1 0\n" for index in range(20_000))
        data = bytearray(("alphabet_size=2\n" + rows).encode("ascii"))
        data[70_000] = 0xE9
        assert 70_000 > harness._BLOCK
        path = tmp_path / "population.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as expected:
            bytes(data).decode("ascii")
        with pytest.raises(ConfigError) as excinfo:
            read_population_file(path)
        assert str(excinfo.value) == str(expected.value)
        assert "position 70000" in str(excinfo.value)

    @pytest.mark.parametrize("start", ["alphabet_size 2\n", "alphabet_size=2\n0 x\n"])
    def test_a_byte_that_is_not_ascii_is_named_before_an_earlier_fault(
        self, tmp_path, start
    ):
        data = (start + "0 1\n" * 20_000).encode("ascii") + b"\x80\n"
        path = tmp_path / "population.txt"
        path.write_bytes(data)
        with pytest.raises(ConfigError) as excinfo:
            read_population_file(path)
        assert str(excinfo.value).startswith("'ascii' codec can't decode byte 0x80")
        assert f"position {len(data) - 2}:" in str(excinfo.value)

    @pytest.mark.parametrize("shape", ["analyze-like", "uniform"])
    def test_the_read_holds_its_members_and_little_more(self, tmp_path, shape):
        # the file is read a block at a time: beside the members it builds,
        # the read holds neither the file's text nor a list of its lines
        if shape == "analyze-like":
            rows = analyze_like_rows(20_000, seed=11)
        else:
            rng = random.Random(5)
            rows = tuple(
                tuple(rng.choices(range(16), k=rng.randint(1, 40)))
                for _ in range(25_000)
            )
        lines = ["alphabet_size=16"] + [" ".join(map(str, row)) for row in rows]
        path = self.write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            population = read_population_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert population.members == rows
        members = sum(map(sys.getsizeof, population.members))
        members += sys.getsizeof(population.members)
        assert peak - members < path.stat().st_size / 2


def per_token_read(path) -> Population:
    """The reader without its token table: int() per token, and the symbol
    range checked by the constructor over every member."""
    text = Path(path).read_text(encoding="ascii")
    header = None
    rows = []
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            continue
        if header is None:
            key, _, value = line.partition("=")
            if key.strip() != "alphabet_size" or not value.strip():
                raise ConfigError(
                    f"line {line_number}: expected 'alphabet_size=<n>' header, "
                    f"got {_shown(line)}"
                )
            try:
                header = int(value.strip())
            except ValueError:
                raise ConfigError(
                    f"line {line_number}: alphabet_size expects an integer, "
                    f"got {_shown(value.strip())}"
                ) from None
            if header < 2:
                raise ConfigError("alphabet_size must be at least 2")
            continue
        try:
            rows.append(tuple(map(int, line.split())))
        except ValueError:
            raise ConfigError(
                f"line {line_number}: member rows must be space-separated "
                f"integers, got {_shown(line)}"
            ) from None
    if header is None:
        raise ConfigError("population file is missing the alphabet_size header")
    if not rows:
        raise ConfigError("population file has no member rows")
    try:
        return Population.from_rows(header, rows)
    except ValueError as error:
        raise ConfigError(str(error)) from None


BAD_TOKENS = ("x", "1.0", "1__0", "_1", "1_", "--1", "+-2", "0x1", "1e2", "+")


@st.composite
def tokens(draw, high, signs, bad):
    """One row token: an integer up to `high` as int() may spell it, with
    one of `signs`, or, when `bad`, now and then a token int() rejects."""
    if bad and draw(st.integers(min_value=0, max_value=9)) == 0:
        return draw(st.sampled_from(BAD_TOKENS))
    digits = "0" * draw(st.sampled_from((0, 0, 0, 1, 2)))
    digits += str(draw(st.integers(min_value=0, max_value=high)))
    if len(digits) > 1 and draw(st.booleans()):
        cut = draw(st.integers(min_value=1, max_value=len(digits) - 1))
        digits = digits[:cut] + "_" + digits[cut:]
    return draw(st.sampled_from(signs)) + digits


# every line end str.splitlines() breaks at; read_text's universal
# newlines turn "\r\n" and "\r" into "\n" before it sees them
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


@st.composite
def population_files(draw):
    """Files over alphabets of 2 to 40.  Ids too large, negative ids and
    bad tokens are each let in on about half the files, independently.
    Every line ends in any of LINE_BREAKS, and blank lines may come
    before the header as well as between rows."""
    header = draw(st.sampled_from((2, 3, 4, 7, 12, 40)))
    high = header + 2 if draw(st.booleans()) else header - 1
    signs = ("", "", "+", "-") if draw(st.booleans()) else ("", "", "+")
    row = st.lists(tokens(high, signs, draw(st.booleans())), min_size=1, max_size=8)
    rows = draw(st.lists(row, min_size=1, max_size=12))
    blank = st.sampled_from(("", " ", "\t"))
    lines = draw(st.lists(blank, max_size=2)) + [f"alphabet_size={header}"]
    for row in rows:
        separator = draw(st.sampled_from((" ", "  ", "\t")))
        lines.append(separator.join(row))
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            lines.append(draw(blank))
    return "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in lines)


def read_outcome(reader, path):
    """The rows and alphabet size read and what the measure makes of them,
    or the error's type and text."""
    try:
        population = reader(path)
        # the public constructor's symbol check passes on what was read
        Population(population.members, population.alphabet_size)
        rows = list(population.members)
        return rows, population.alphabet_size, physical_complexity_variable(population)
    except (ConfigError, UnmeasurablePopulationError) as error:
        return type(error), str(error)


def same_outcome(text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "population.txt"
        path.write_bytes(text.encode("ascii"))
        expected = read_outcome(per_token_read, path)
        assert read_outcome(read_population_file, path) == expected


class TestReaderMatchesPerTokenReference:
    @given(population_files())
    def test_same_population_or_same_error(self, text):
        same_outcome(text)

    @given(population_files(), st.integers(min_value=1, max_value=24))
    def test_same_at_any_block_size(self, text, block):
        with mock.patch.object(harness, "_BLOCK", block):
            same_outcome(text)


# a row spread over 128 characters, so a block holds few lines
FILLER = " ".join("0123").ljust(127) + "\n"
# lines put where a block ends: blank, whitespace-only, good and bad rows
PROBES = {
    "rows": ["", " \t ", "1 2", "3"],
    "bad-token-first": ["1 x", "2"],
    "bad-token-second": ["", "2 +-1", "3"],
}


def across_a_block_end(end, shift, probe):
    """A file of three blocks whose `probe` lines, each ended by `end`,
    follow a "\n" `shift` characters past harness._BLOCK, the first place
    a block may end.

    From shift 0 on, the probe lines open the second block; below it, a
    line end among them closes the first one when it is a newline.
    """
    text = "alphabet_size=4\n" + FILLER * ((harness._BLOCK - 200) // len(FILLER))
    text += "0" + " " * (harness._BLOCK + shift - len(text) - 1)
    text += "\n" + "".join(line + end for line in probe)
    return text + FILLER * ((harness._BLOCK + 1000) // len(FILLER))


class TestReaderAcrossBlocks:
    @pytest.mark.parametrize("probe", PROBES)
    @pytest.mark.parametrize("end", LINE_BREAKS)
    def test_same_as_per_token_read(self, end, probe):
        for shift in range(-6, 2):
            text = across_a_block_end(end, shift, PROBES[probe])
            assert text[harness._BLOCK + shift] == "\n"
            assert len(text) > 2 * harness._BLOCK
            same_outcome(text)

    # a bad row right after the header is named by the line the header's
    # block counts from
    @pytest.mark.parametrize(
        "header, row",
        [
            ("alphabet_size=4", "0 1"),
            ("alphabet_size 4", "0 1"),
            ("alphabet_size=x", "0 1"),
            ("alphabet_size=4", "0 x"),
        ],
    )
    @pytest.mark.parametrize("end", LINE_BREAKS)
    def test_a_header_in_a_later_block(self, end, header, row):
        blank = (" " * 60 + "\n") * (harness._BLOCK // 61 + 1)
        same_outcome(blank + blank + header + end + row + end + "2 3\n")


def small_config(**overrides):
    values = dict(
        rng_seed=31,
        generations=4,
        population_floor=16,
        pool_size=4,
        snapshot_every=2,
    )
    values.update(overrides)
    return RunConfig(**values)


def test_every_member_is_a_plain_symbol_tuple(tmp_path):
    # crossover and mutation touch half the members each generation
    config = build_evolution_config(
        small_config(crossover_fraction=0.5, mutation_fraction=0.5)
    )
    members = [
        member
        for state, _ in evolution.evolve(config)
        for member in state.population.members
    ]
    path = tmp_path / "population.txt"
    path.write_text("alphabet_size=3\n0 1 2\n2\n 1  1 \n", encoding="ascii")
    members.extend(read_population_file(path).members)
    assert all(type(member) is tuple for member in members)


class TestRunExperiment:
    def test_writes_stats_and_snapshots(self, tmp_path, capsys):
        stats = run_experiment(small_config(output_dir=str(tmp_path)))
        assert (tmp_path / "stats.csv").exists()
        for generation in (0, 2, 4):
            assert (tmp_path / f"snap_{generation}.txt").exists()
            assert (tmp_path / f"snap_{generation}.ppm").exists()
        assert not (tmp_path / "snap_1.txt").exists()
        assert len(stats) == 5
        written = (tmp_path / "stats.csv").read_text(encoding="ascii")
        assert written == format_stats_csv(stats)
        # a run is silent: the CLI prints the final lines from these rows
        assert capsys.readouterr() == ("", "")

    def test_snapshots_disabled_by_default_cadence(self, tmp_path, capsys):
        run_experiment(small_config(snapshot_every=0, output_dir=str(tmp_path)))
        assert (tmp_path / "stats.csv").exists()
        assert list(tmp_path.glob("snap_*")) == []

    def test_output_dir_from_config_is_used(self, tmp_path, capsys):
        config = small_config(output_dir=str(tmp_path / "nested" / "deep"))
        run_experiment(config)
        assert (tmp_path / "nested" / "deep" / "stats.csv").exists()

    def test_rewriting_is_byte_identical(self, tmp_path, capsys):
        run_experiment(small_config(output_dir=str(tmp_path / "a")))
        run_experiment(small_config(output_dir=str(tmp_path / "b")))
        for name in ("stats.csv", "snap_0.txt", "snap_0.ppm", "snap_4.ppm"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second

    def test_modes_write_different_histories(self, tmp_path, capsys):
        run_experiment(small_config(generations=30, output_dir=str(tmp_path / "d")))
        run_experiment(
            small_config(
                generations=30,
                mode="nondiscriminating",
                output_dir=str(tmp_path / "n"),
            )
        )
        disc = (tmp_path / "d" / "stats.csv").read_text(encoding="ascii")
        flat = (tmp_path / "n" / "stats.csv").read_text(encoding="ascii")
        assert disc != flat

    def test_a_failed_run_leaves_only_its_own_snapshots(
        self, tmp_path, capsys, monkeypatch
    ):
        clean = tmp_path / "clean"
        shared = tmp_path / "shared"
        config = dict(generations=6, snapshot_every=1)
        run_experiment(small_config(rng_seed=18, output_dir=str(clean), **config))
        run_experiment(small_config(rng_seed=17, output_dir=str(shared), **config))
        for name in ("notes.txt", "snap_x.txt"):
            (shared / name).write_text("kept\n", encoding="ascii")

        step, mutate = evolution.step_generation, evolution.mutate
        making = []

        def recording_step(*args):
            # a seeded run's nth step makes generation n
            making.append(len(making) + 1)
            return step(*args)

        def failing_mutate(individual, alphabet, rng):
            if making[-1] == 3:
                raise RuntimeError("mutation failed in generation 3")
            return mutate(individual, alphabet, rng)

        monkeypatch.setattr(evolution, "step_generation", recording_step)
        monkeypatch.setattr(evolution, "mutate", failing_mutate)
        with pytest.raises(RuntimeError, match="generation 3"):
            run_experiment(
                small_config(rng_seed=18, output_dir=str(shared), **config)
            )

        snapshots = [f"snap_{n}.{kind}" for n in range(3) for kind in ("txt", "ppm")]
        assert sorted(path.name for path in shared.iterdir()) == sorted(
            snapshots + ["notes.txt", "snap_x.txt"]
        )
        for name in snapshots:
            assert (shared / name).read_bytes() == (clean / name).read_bytes()
        assert (shared / "snap_x.txt").read_text(encoding="ascii") == "kept\n"

    def test_a_killed_write_s_temporary_files_go_with_the_earlier_run(
        self, tmp_path, capsys
    ):
        # a write killed between its .tmp file and the rename leaves the .tmp
        left = ["snap_3.txt", "snap_3.txt.tmp", "stats.csv.tmp", "snap_0.ppm.tmp"]
        kept = ["notes.tmp", "snap_x.txt.tmp"]
        for name in left + kept:
            (tmp_path / name).write_text("earlier\n", encoding="ascii")
        run_experiment(
            small_config(generations=2, snapshot_every=1, output_dir=str(tmp_path))
        )
        snapshots = [f"snap_{n}.{kind}" for n in range(3) for kind in ("txt", "ppm")]
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            snapshots + ["stats.csv"] + kept
        )

    def test_a_rerun_replaces_the_earlier_run_s_artifacts(self, tmp_path, capsys):
        run_experiment(small_config(generations=6, output_dir=str(tmp_path / "a")))
        run_experiment(small_config(generations=2, output_dir=str(tmp_path / "a")))
        run_experiment(small_config(generations=2, output_dir=str(tmp_path / "b")))
        assert sorted(path.name for path in (tmp_path / "a").iterdir()) == [
            "snap_0.ppm",
            "snap_0.txt",
            "snap_2.ppm",
            "snap_2.txt",
            "stats.csv",
        ]
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()

    def test_invalid_config_is_rejected_before_any_output(self, tmp_path):
        with pytest.raises(ConfigError):
            # population_floor below pool_size
            bad = small_config(population_floor=2, output_dir=str(tmp_path / "x"))
            run_experiment(bad)
        assert not (tmp_path / "x").exists()
