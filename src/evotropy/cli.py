"""Command-line interface.

Two subcommands: `run` executes an experiment described by a config
file, `analyze` measures a population file.  Exit codes: 0 success,
1 configuration problem, 2 runtime failure such as an unmeasurable
population or an unexpected internal error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .complexity import UnmeasurablePopulationError, physical_complexity_variable
from .harness import ConfigError, parse_config, read_population_file, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; fold those into the config code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="evotropy",
        description=(
            "Run deterministic evolutionary experiments over agent populations "
            "and measure their self-organisation."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subcommands = parser.add_subparsers(dest="command", required=True)

    run_parser = subcommands.add_parser(
        "run", help="run the experiment described by a config file"
    )
    run_parser.add_argument(
        "--config", required=True, help="path to a key = value config file"
    )
    run_parser.add_argument(
        "--output-dir",
        default=None,
        help="where to write stats.csv and snapshots (default: config output_dir)",
    )

    analyze_parser = subcommands.add_parser(
        "analyze", help="measure the complexity of a stored population"
    )
    analyze_parser.add_argument(
        "--population",
        required=True,
        help="path to a population file (alphabet_size=<n> header plus "
        "one member per line)",
    )
    return parser


def _cmd_run(args) -> int:
    with open(args.config, encoding="utf-8-sig") as handle:
        config = parse_config(handle.read())
    run_experiment(config, out_dir=args.output_dir)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    population = read_population_file(args.population)
    report = physical_complexity_variable(population)
    print(f"members: {len(population)}")
    print(f"alphabet_size: {population.alphabet_size}")
    print(f"max_length: {report.max_length}")
    print(f"calculable_length: {report.calculable_length}")
    print(f"complexity: {report.complexity:.9f}")
    print(f"complexity_potential: {report.complexity_potential:.9f}")
    print(f"efficiency: {report.efficiency:.9f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = _cmd_run if args.command == "run" else _cmd_analyze
    try:
        return command(args)
    except OSError as error:
        print(f"i/o error: {error}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, UnicodeDecodeError) as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except UnmeasurablePopulationError as error:
        print(f"unmeasurable population: {error}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as error:
        # a defect, not bad input: one line instead of a traceback
        print(f"internal error: {type(error).__name__}: {error}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
