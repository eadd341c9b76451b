"""Every benchmark output stays byte-identical to its pinned digest.

The benchmark pins the SHA-256 of stdout and of every artifact for each
of its cases (`benchmarks/digests.json`).  These tests generate the same
inputs with `benchmarks/workloads.py` and run them through `cli.main` in
this process: the five full-size `paper-default` runs (the ablation
seeds, whose `stats.csv` must never move), the five `analyze-large`
files at full and at toy size, and the toy `control-wide` cases.
Neither benchmark file is modified.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from evotropy.cli import EXIT_OK, main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", BENCHMARKS / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
DIGESTS = json.loads((BENCHMARKS / "digests.json").read_text(encoding="ascii"))

CASES = [
    (name, size, key)
    for name, size in (
        ("paper-default", "full"),
        ("control-wide", "toy"),
        ("analyze-large", "full"),
        ("analyze-large", "toy"),
    )
    for key in workloads.ABLATION_SEEDS
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(("name", "size", "key"), CASES)
def test_outputs_match_pinned_digests(name, size, key, tmp_path, capsys):
    case = workloads.write_case(name, key, size, tmp_path / "inputs")
    out_dir = tmp_path / "out"
    if workloads.WORKLOADS[name].kind == "run":
        argv = ["run", "--config", str(case.path), "--output-dir", str(out_dir)]
    else:
        argv = ["analyze", "--population", str(case.path)]
    assert main(argv) == EXIT_OK
    actual = {"stdout": _sha256(capsys.readouterr().out.encode("ascii"))}
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            actual[path.name] = _sha256(path.read_bytes())
    assert actual == DIGESTS[size][name][str(key)]
