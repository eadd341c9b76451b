"""Named benchmark workloads and the deterministic generator of their inputs.

Every input a workload feeds the program is generated here from the
benchmark seed: config files for the two evolution workloads and the
population file for `analyze-large`.  The same seed always gives the same
files.  Each workload draws its inputs from a fixed set of five cases, the
paper's ablation seeds, so that every output it can produce has a pinned
digest in `digests.json`.

Run on its own to write the inputs for inspection:

    python3 benchmarks/workloads.py --seed 7 --out .bench_out/inputs
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

# the reproducibility seeds of the selection ablation in the README
ABLATION_SEEDS = (42, 23, 57, 4711, 424242)

SIZES = ("full", "toy")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "run" executes `evotropy run`, "analyze" executes `evotropy analyze`


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "paper-default",
            "the paper's headline experiment: README default config on the five "
            "ablation seeds with snapshots every 10 generations; selection "
            "collapses diversity to a few distinct agent sets",
            "run",
        ),
        Workload(
            "control-wide",
            "nondiscriminating control with a 64-agent pool and 4096-member "
            "floor: agent sets stay diverse, no snapshots, so fitness and "
            "population work dominate",
            "run",
        ),
        Workload(
            "analyze-large",
            "evotropy analyze on 30k mixed-length members with planted "
            "consensus: no evolution, only the file reader, population checks "
            "and the complexity measure",
            "analyze",
        ),
    )
}

# Keys are written out in full, defaults included, so that a later change
# of a default cannot silently change the workload.
_RUN_CONFIGS = {
    ("paper-default", "full"): {
        "mode": "discriminating",
        "generations": 300,
        "pool_size": 16,
        "population_floor": 160,
        "request_length": 4,
        "snapshot_every": 10,
    },
    ("paper-default", "toy"): {
        "mode": "discriminating",
        "generations": 20,
        "pool_size": 16,
        "population_floor": 160,
        "request_length": 4,
        "snapshot_every": 10,
    },
    ("control-wide", "full"): {
        "mode": "nondiscriminating",
        "generations": 10,
        "pool_size": 64,
        "population_floor": 4096,
        "request_length": 8,
        "snapshot_every": 0,
    },
    ("control-wide", "toy"): {
        "mode": "nondiscriminating",
        "generations": 3,
        "pool_size": 64,
        "population_floor": 256,
        "request_length": 8,
        "snapshot_every": 0,
    },
}

# analyze-large: members in the file and the alphabet size D
_ANALYZE_MEMBERS = {"full": 30_000, "toy": 2_000}
ANALYZE_ALPHABET = 16
# 99 in 100 members have lengths 1..40 and the rest 41..80; with D = 16 the
# calculable length (40 at full size) stops well short of the longest member
_BODY_LENGTHS = 40
_TAIL_SHARE = 100
# planted consensus: sites before 10 carry the consensus symbol with
# chance 0.9, sites before 30 with chance 0.5, later sites never
_CONSENSUS_STRENGTH = ((10, 0.9), (30, 0.5))


@dataclass(frozen=True)
class Case:
    """One input the workload executes: a config file or a population file."""

    workload: str
    key: int  # the ablation seed the case is generated from
    path: Path


def config_text(workload: str, key: int, size: str) -> str:
    lines = [f"# {workload} ({size}), ablation seed {key}", f"rng_seed = {key}"]
    for name, value in _RUN_CONFIGS[(workload, size)].items():
        lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def analyze_lengths(members: int) -> list[int]:
    """The member lengths of the analyze file, the same for every case."""
    tail = members // _TAIL_SHARE
    body = members - tail
    return [1 + i % _BODY_LENGTHS for i in range(body)] + [
        _BODY_LENGTHS + 1 + i % _BODY_LENGTHS for i in range(tail)
    ]


def population_text(key: int, size: str) -> str:
    """A population file with planted consensus, generated from `key`.

    The length multiset is fixed, so every case does the same amount of
    work; the key only decides member order and symbols.
    """
    rng = random.Random(f"analyze-large:{key}")
    lengths = analyze_lengths(_ANALYZE_MEMBERS[size])
    rng.shuffle(lengths)
    longest = max(lengths)
    consensus = [rng.randrange(ANALYZE_ALPHABET) for _ in range(longest)]
    strength = [
        next((share for last_site, share in _CONSENSUS_STRENGTH if site < last_site), 0.0)
        for site in range(longest)
    ]
    lines = [f"alphabet_size={ANALYZE_ALPHABET}"]
    draw = rng.random
    for length in lengths:
        lines.append(
            " ".join(
                str(
                    consensus[site]
                    if draw() < strength[site]
                    else int(draw() * ANALYZE_ALPHABET)
                )
                for site in range(length)
            )
        )
    return "\n".join(lines) + "\n"


def case_keys(workload: str, seed: int) -> list[int]:
    """The cases a run of `workload` executes, generated from the seed.

    The evolution workloads use all five ablation seeds in each round, so
    every run does the same work; analyze-large reads one file per run.
    """
    if WORKLOADS[workload].kind == "run":
        return list(ABLATION_SEEDS)
    return [ABLATION_SEEDS[seed % len(ABLATION_SEEDS)]]


def write_case(workload: str, key: int, size: str, directory: Path) -> Case:
    directory.mkdir(parents=True, exist_ok=True)
    if WORKLOADS[workload].kind == "run":
        path = directory / f"{workload}-{key}.cfg"
        text = config_text(workload, key, size)
    else:
        path = directory / f"{workload}-{key}.pop"
        text = population_text(key, size)
    path.write_text(text, encoding="ascii", newline="\n")
    return Case(workload, key, path)


def generate(workload: str, seed: int, size: str, directory: Path) -> list[Case]:
    """Write every input of one run of `workload` into `directory`."""
    return [write_case(workload, key, size, directory) for key in case_keys(workload, seed)]


def schedule(cases: list[Case], seed: int, workload: str):
    """Yield cases without end, round after round, each round in a seeded order."""
    rng = random.Random(f"order:{workload}:{seed}")
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield from order


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write inputs into")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        for case in generate(name, args.seed, "full", Path(args.out)):
            print(case.path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
