"""Experiment orchestration: config files, runs, CSV metrics, snapshots.

A run is described by a flat `key = value` text file.  The agent pool
and the request are generated from the seed (on a stream separate from
the evolution stream), so a config file plus seed pins down the whole
experiment: two executions produce byte-identical output files.  A
population file, read for `analyze`, holds an alphabet size and member
rows only.
"""

from __future__ import annotations

import colorsys
import os
import random
import re
from itertools import repeat
from pathlib import Path

from .core import _KINDS, ConfigError, Population, _Record, _digit_limit, _shown
from .evolution import (
    EvolutionConfig,
    GenerationStats,
    check_settings,
    evolve,
    rand_int,
)

__all__ = [
    "STATS_HEADER",
    "RunConfig",
    "parse_config",
    "generate_alphabet",
    "generate_request",
    "build_evolution_config",
    "format_stats_csv",
    "write_stats_csv",
    "format_snapshot",
    "palette_color",
    "render_snapshot",
    "read_population_file",
    "run_experiment",
]

STATS_HEADER = ",".join(GenerationStats.__annotations__)

# the padding pixel, as P3 text
WHITE = "255 255 255"

_ARTIFACT = re.compile(r"(stats\.csv|snap_[0-9]+\.(txt|ppm))(\.tmp)?")


class RunConfig(_Record):
    """Scalar experiment settings.

    The alphabet and request are not stored here: they are derived from
    rng_seed together with the pool/request shape keys, so the config
    file stays a flat list of scalars.  Defaults below are the documented
    defaults of the config format, those of the settings it shares with
    EvolutionConfig, mode among them, taken from there and checked by its
    rules; rng_seed is the one required key.
    Construction raises ConfigError on every limit the scalars decide
    alone, the weight floor of the most lenient world included; the gap-sum
    limit and the floor of the drawn world wait for build_evolution_config.
    """

    rng_seed: int
    mode: str = EvolutionConfig.mode
    generations: int = EvolutionConfig.generations
    crossover_fraction: float = EvolutionConfig.crossover_fraction
    mutation_fraction: float = EvolutionConfig.mutation_fraction
    parsimony_coefficient: float = EvolutionConfig.parsimony_coefficient
    population_floor: int = EvolutionConfig.population_floor
    pool_size: int = 16
    attributes_per_agent: int = 2
    request_length: int = 4
    attribute_min: int = 0
    attribute_max: int = 9
    snapshot_every: int = 0
    output_dir: str = "out"

    def _post_init(self) -> None:
        if self.pool_size < 2:
            raise ConfigError(
                "pool_size must be at least 2: site entropies need an alphabet of two"
            )
        if self.attributes_per_agent < 1:
            raise ConfigError("attributes_per_agent must be >= 1")
        if self.request_length < 1:
            raise ConfigError("request_length must be >= 1")
        if self.attribute_min > self.attribute_max:
            raise ConfigError(
                "attribute_min must not exceed attribute_max "
                f"({_shown(self.attribute_min, str)} > "
                f"{_shown(self.attribute_max, str)})"
            )
        try:
            # the integer draws scale a float by the range
            float(self.attribute_max - self.attribute_min)
        except OverflowError:
            raise ConfigError(
                "attribute_max - attribute_min must convert to a finite float"
            ) from None
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if not self.output_dir:
            # Path("") is the working directory, whose artifacts a run clears
            raise ConfigError("output_dir must not be empty")
        if "\0" in self.output_dir:
            # no file system takes it, and os calls raise a bare ValueError
            raise ConfigError("output_dir must not contain a NUL character")
        check_settings(self, self.pool_size)


def _convert(key: str, kind: str, text: str, line_number: int):
    _, parse, expected = _KINDS[kind]
    try:
        return parse(text)
    except ValueError:
        limit = _digit_limit(text) if parse is int else ""
        raise ConfigError(
            f"line {line_number}: {key} expects {expected}{limit}, got {_shown(text)}"
        ) from None


def parse_config(text: str) -> RunConfig:
    """Parse a flat `key = value` document into a RunConfig.

    Blank lines are skipped and `#` starts a comment.  Unknown and
    duplicated keys are rejected with their line number; rng_seed is
    required; every other key falls back to its RunConfig default.
    """
    values: dict = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {line_number}: expected 'key = value', "
                f"got {_shown(raw_line.strip())}"
            )
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in RunConfig._fields:
            raise ConfigError(f"line {line_number}: unknown key {_shown(key)}")
        if key in values:
            raise ConfigError(f"line {line_number}: duplicate key {key!r}")
        if not value_text:
            raise ConfigError(f"line {line_number}: {key} has no value")
        values[key] = _convert(
            key, RunConfig.__annotations__[key], value_text, line_number
        )
    if "rng_seed" not in values:
        raise ConfigError("missing required key 'rng_seed'")
    return RunConfig(**values)


def generate_request(
    rng: random.Random, length: int, low: int, high: int
) -> tuple[int, ...]:
    """Request of `length` uniformly random attribute values in [low, high]."""
    return tuple(rand_int(rng, low, high) for _ in range(length))


def generate_alphabet(
    rng: random.Random,
    pool_size: int,
    attributes_per_agent: int,
    low: int,
    high: int,
) -> tuple[tuple[int, ...], ...]:
    """Agent pool with uniformly random attribute values in [low, high],
    each agent drawn as a request of attributes_per_agent values is."""
    return tuple(
        generate_request(rng, attributes_per_agent, low, high)
        for _ in range(pool_size)
    )


# the settings a run passes on to EvolutionConfig under their own names
_SHARED = [name for name in RunConfig._fields if name in EvolutionConfig._fields]


def build_evolution_config(config: RunConfig) -> EvolutionConfig:
    """Derive the agent pool and request from the seed, then assemble the run.

    Setup draws come from a stream seeded with "setup:<seed>" so they
    never overlap the evolution stream seeded with the bare integer.
    """
    setup_rng = random.Random(f"setup:{config.rng_seed}")
    alphabet = generate_alphabet(
        setup_rng,
        config.pool_size,
        config.attributes_per_agent,
        config.attribute_min,
        config.attribute_max,
    )
    request = generate_request(
        setup_rng, config.request_length, config.attribute_min, config.attribute_max
    )
    return EvolutionConfig(
        request=request,
        alphabet=alphabet,
        **{name: getattr(config, name) for name in _SHARED},
    )


def _real(value: float) -> str:
    # fixed 9 decimal places: round-trips within 1e-9 and keeps files byte-stable
    return f"{value:.9f}"


# each stats.csv column's name and formatter, read off its GenerationStats
# annotation: reals through _real, integers through str
_STATS_COLUMNS = [
    (name, _real if kind == "float" else str)
    for name, kind in GenerationStats.__annotations__.items()
]


def format_stats_csv(stats: list[GenerationStats]) -> str:
    """Render stats rows as CSV text.

    Column order matches STATS_HEADER; reals carry 9 decimal places.
    """
    lines = [STATS_HEADER]
    for row in stats:
        cells = (cell(getattr(row, name)) for name, cell in _STATS_COLUMNS)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _write_atomic(path: Path, text: str) -> None:
    """Write through `<name>.tmp` and os.replace, so no file is half-written."""
    temp = path.with_name(path.name + ".tmp")
    try:
        temp.write_text(text, encoding="ascii", newline="\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_stats_csv(stats: list[GenerationStats], path) -> None:
    if not stats:
        raise ValueError("stats must contain at least one row")
    _write_atomic(Path(path), format_stats_csv(stats))


def format_snapshot(population: Population) -> str:
    """Plain-text snapshot: one member per line, space-separated agent ids."""
    return "\n".join(" ".join(map(str, row)) for row in population.members) + "\n"


def palette_color(symbol: int, alphabet_size: int) -> tuple[int, int, int]:
    """Deterministic color for an agent id.

    Evenly spaced hues at fixed saturation and value, so the mapping
    depends only on (symbol, alphabet_size) and no symbol ever maps to
    the white reserved for padding.
    """
    if not 0 <= symbol < alphabet_size:
        raise ValueError(f"symbol {symbol} outside alphabet of size {alphabet_size}")
    red, green, blue = colorsys.hsv_to_rgb(symbol / alphabet_size, 0.85, 0.82)
    return round(red * 255), round(green * 255), round(blue * 255)


def render_snapshot(population: Population) -> str:
    """Render one snapshot as a plain-text (P3) portable pixmap.

    One pixel row per member, one pixel per site, left aligned; rows
    shorter than the longest member are padded with white pixels.
    """
    rows = population.members
    alphabet_size = population.alphabet_size
    colors = [
        " ".join(map(str, palette_color(symbol, alphabet_size)))
        for symbol in range(alphabet_size)
    ]
    width = max(len(row) for row in rows)
    lines = ["P3", f"{width} {len(rows)}", "255"]
    for row in rows:
        pixels = list(map(colors.__getitem__, row))
        pixels.extend([WHITE] * (width - len(row)))
        lines.append(" ".join(pixels))
    return "\n".join(lines) + "\n"


# bytes of a population file read, decoded and split into lines at a time;
# a block's bytes, text and lines are held beside the rows read so far,
# so the block is kept small
_BLOCK = 1 << 14


def _line_blocks(stream):
    """Yield (number, lines) for each block of _BLOCK bytes of a binary
    stream read: the lines str.splitlines(keepends=True) cuts the whole
    ASCII text into, and the number of the first of them.

    A block's last line, with its line end, is carried into the next block
    and split again there, so a line cut by the block's end, "\r\n" too,
    joins up.  A line longer than a block is read on in blocks as long as
    itself, so that splitting it stays linear.  Raises ConfigError on the
    first byte that is not ASCII, named by its offset in the input, in
    UnicodeDecodeError's text.
    """
    offset = 0
    number = 1
    carried = ""
    while block := stream.read(max(_BLOCK, len(carried))):
        try:
            text = carried + block.decode("ascii")
        except UnicodeDecodeError as error:
            raise ConfigError(
                f"'ascii' codec can't decode byte 0x{block[error.start]:02x} "
                f"in position {offset + error.start}: {error.reason}"
            ) from None
        offset += len(block)
        *lines, carried = text.splitlines(keepends=True)
        yield number, lines
        number += len(lines)
    yield number, [carried]


class _Symbols(dict):
    """{token: int(token)} for one file: each distinct token converted once."""

    def __missing__(self, token: str) -> int:
        symbol = self[token] = int(token)
        return symbol


def _header(line: str, line_number: int) -> int:
    """The alphabet size the header line gives."""
    key, _, value = line.partition("=")
    if key.strip() != "alphabet_size" or not value.strip():
        raise ConfigError(
            f"line {line_number}: expected 'alphabet_size=<n>' header, "
            f"got {_shown(line)}"
        )
    header = _convert("alphabet_size", "int", value.strip(), line_number)
    if header < 2:
        raise ConfigError("alphabet_size must be at least 2")
    return header


def _member_rows(blocks, symbols: _Symbols) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The header the first non-blank line gives and every member row after it."""
    header = 0
    convert = repeat(symbols.__getitem__)
    rows: list[tuple[int, ...]] = []
    for number, lines in blocks:
        if not header:
            for index, raw_line in enumerate(lines):
                if line := raw_line.strip():
                    header = _header(line, number + index)
                    number += index + 1
                    lines = lines[index + 1 :]
                    break
        try:
            # one C-level pass converts every token through the table; a
            # blank line gives an empty tuple, which the filter drops
            rows += filter(None, map(tuple, map(map, convert, map(str.split, lines))))
        except ValueError:
            # only now walk the block's lines again, to name the first one
            # int() rejects
            for line_number, raw_line in enumerate(lines, start=number):
                for token in raw_line.split():
                    try:
                        int(token)
                    except ValueError:
                        raise ConfigError(
                            f"line {line_number}: member rows must be "
                            f"space-separated integers{_digit_limit(token)}, "
                            f"got {_shown(raw_line.strip())}"
                        ) from None
            raise
    if not header:
        raise ConfigError("population file is missing the alphabet_size header")
    return header, tuple(rows)


def read_population_file(path) -> Population:
    """Read a population from text: an alphabet_size header plus member rows.

    The first non-blank line must be `alphabet_size=<n>`; every following
    non-blank line is one member as space-separated agent ids, each token
    read as int() reads it.  The file records no agent attributes, and the
    population records only the alphabet size, which is all the
    complexity measures need; whether the rows can be measured under it
    is the measure's to say.  The input is read once, a block at a time,
    so a pipe reads as a file does.  Raises ConfigError on a malformed
    file, one that is not ASCII first, or an agent id outside
    range(alphabet_size).
    """
    symbols = _Symbols()
    with open(path, "rb") as stream:
        blocks = _line_blocks(stream)
        try:
            header, rows = _member_rows(blocks, symbols)
        except ConfigError:
            # a byte that is not ASCII is named before any other fault, so
            # the rest of the input is decoded first
            for _ in blocks:
                pass
            raise
    if not rows:
        raise ConfigError("population file has no member rows")
    # the table holds each distinct symbol once; only a symbol out of range
    # goes on to the public constructor, which names the first bad one in
    # member order
    if min(symbols.values()) < 0 or max(symbols.values()) >= header:
        try:
            Population(rows, header)
        except ValueError as error:
            raise ConfigError(str(error)) from None
    return Population._trusted(rows, header)


def _drop_stale(stale: list[Path], written: str) -> None:
    """Delete an earlier run's artifacts but the one just replaced."""
    for path in stale:
        if path.name != written:
            path.unlink(missing_ok=True)
    stale.clear()


def run_experiment(config: RunConfig) -> list[GenerationStats]:
    """Run one experiment and write its artifacts under config.output_dir.

    Writes snap_<generation>.txt and .ppm every snapshot_every
    generations (0: never) and at the last, as each generation is made,
    then stats.csv, each file replaced whole.  Its first file in place,
    it deletes an earlier run's stats.csv and snap_<digits>.txt and .ppm
    files, and their .tmp files, and no other file.  Writes nothing to
    stdout; returns the stats rows.
    """
    evolution_config = build_evolution_config(config)
    directory = Path(config.output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    stale = [path for path in directory.iterdir() if _ARTIFACT.fullmatch(path.name)]
    every = config.snapshot_every
    stats = []
    for state, row in evolve(evolution_config):
        stats.append(row)
        generation = state.generation
        if every and (generation % every == 0 or generation == config.generations):
            _write_atomic(
                directory / f"snap_{generation}.txt", format_snapshot(state.population)
            )
            _drop_stale(stale, f"snap_{generation}.txt")
            _write_atomic(
                directory / f"snap_{generation}.ppm", render_snapshot(state.population)
            )
    write_stats_csv(stats, directory / "stats.csv")
    _drop_stale(stale, "stats.csv")
    return stats
