"""Run the evotropy CLI in this process with its layers wrapped in spans.

    PYTHONPATH=src python3 benchmarks/tracer.py SPANS RUN_ID -- run --config c.cfg

Each wrapped function is replaced by the module attribute its caller looks
up (`evolution.fitness`, `cli.read_population_file`, ...), so the program
runs unmodified and its outputs stay byte-identical.  A span records the
layer name, start, end, the index of the enclosing span (-1 at top level)
and a work count.  Spans stay in memory until the CLI returns; then they
are written once: SPANS.bin holds the five span columns as native arrays,
SPANS.json the header that describes them.  `post_s` in the header is the
time spent after the CLI returned, which the benchmark takes off the
traced run time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

clock = time.monotonic
_started = clock()

import evotropy.cli as cli  # noqa: E402  (the import itself is measured)

import_s = clock() - _started

from evotropy import core, evolution, harness  # noqa: E402

# span columns, in the order they are written to SPANS.bin
TYPECODES = ("B", "d", "d", "q", "q")
names: list[str] = []
columns = tuple(array(code) for code in TYPECODES)
span_name, span_start, span_end, span_parent, span_count = columns
open_spans: list[int] = []
fitness_keys: list[tuple] = []


def traced(name, func, count=None):
    """Wrap `func` so each call records one span under `name`.

    `count(args, result)` gives the span's work count; without it each
    call counts 1.
    """
    if name not in names:
        names.append(name)
    code = names.index(name)

    def wrapper(*args, **kwargs):
        index = len(span_name)
        span_name.append(code)
        span_parent.append(open_spans[-1] if open_spans else -1)
        span_start.append(0.0)
        span_end.append(0.0)
        span_count.append(0)
        open_spans.append(index)
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            end = clock()
            open_spans.pop()
            span_start[index] = start
            span_end[index] = end
        span_count[index] = count(args, result) if count else 1
        return result

    return wrapper


def _fitness_count(args, result):
    fitness_keys.append(args[0].symbols)
    return 1


def _draws(args, result):
    return args[2]


def _member_sites(args, result):
    return len(args[0]) * result.calculable_length


def _members(args, result):
    return len(args[0].members)


def _members_built(args, result):
    return len(result.members)


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def install() -> None:
    """Replace every traced attribute where its caller looks it up."""
    for module, attribute, name, count in (
        (evolution, "fitness", "evolution.fitness", _fitness_count),
        (evolution, "parsimony_adjusted_fitness", "evolution.parsimony", None),
        (evolution, "select", "evolution.select", _draws),
        (evolution, "crossover_pair", "evolution.crossover", None),
        (evolution, "mutate", "evolution.mutate", None),
        (evolution, "sample_indices", "evolution.sample_indices", None),
        (evolution, "step_generation", "evolution.step", None),
        (evolution, "physical_complexity_variable", "complexity.measure", _member_sites),
        (cli, "physical_complexity_variable", "complexity.measure", _member_sites),
        (harness, "write_stats_csv", "harness.stats_csv", None),
        (harness, "format_snapshot", "harness.snapshot_txt", None),
        (harness, "render_snapshot", "harness.snapshot_ppm", None),
        (cli, "read_population_file", "harness.read_population", _file_bytes),
        (cli, "parse_config", "harness.setup", None),
        (harness, "build_evolution_config", "harness.setup", None),
    ):
        setattr(module, attribute, traced(name, getattr(module, attribute), count))
    # Population is built by its constructor and by from_rows, which calls it;
    # the benchmark counts only the outermost span of a name
    population = core.Population
    population.__init__ = traced("core.population", population.__init__, _members)
    population.from_rows = classmethod(
        traced("core.population", population.__dict__["from_rows"].__func__, _members_built)
    )


def write_spans(prefix: str, run_id: str, main_end: float) -> None:
    with open(prefix + ".bin", "wb") as handle:
        for column in columns:
            column.tofile(handle)
    header = {
        "run_id": run_id,
        "names": names,
        "typecodes": TYPECODES,
        "spans": len(span_name),
        "import_s": import_s,
        "distinct_sets": len({frozenset(key) for key in fitness_keys}),
        "post_s": clock() - main_end,
    }
    with open(prefix + ".json", "w", encoding="ascii") as handle:
        json.dump(header, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS RUN_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    prefix, run_id, cli_args = argv[0], argv[1], argv[3:]
    install()
    try:
        exit_code = cli.main(cli_args)
    finally:
        main_end = clock()
        sys.stdout.flush()
        write_spans(prefix, run_id, main_end)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
