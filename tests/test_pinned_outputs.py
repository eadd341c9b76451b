"""Every benchmark output stays byte-identical to its pinned digest.

The benchmark pins the SHA-256 of stdout and of every artifact for each
of its cases (`benchmarks/digests.json`).  These tests generate the same
inputs with `benchmarks/workloads.py` and run them through `cli.main` in
this process: the five runs of each evolution workload, `paper-default`
(the ablation seeds, whose `stats.csv` must never move) and
`control-wide`, at full size, the toy `control-wide` cases, and the five
`analyze-large` files at full and at toy size.  Neither benchmark file
is modified.

The module needs only the standard library, so it also runs as a plain
script on an interpreter without pytest:

    PYTHONPATH=src python tests/test_pinned_outputs.py

runs every case in turn, names each one whose outputs differ from the
pinned digests, and exits 1 if there is one.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

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
        ("control-wide", "full"),
        ("control-wide", "toy"),
        ("analyze-large", "full"),
        ("analyze-large", "toy"),
    )
    for key in workloads.ABLATION_SEEDS
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name, size, key, directory: Path) -> tuple[int, dict[str, str]]:
    """The exit code of one case, run under `directory`, and the SHA-256
    of its stdout and of every artifact it wrote."""
    case = workloads.write_case(name, key, size, directory / "inputs")
    out_dir = directory / "out"
    if workloads.WORKLOADS[name].kind == "run":
        argv = ["run", "--config", str(case.path), "--output-dir", str(out_dir)]
    else:
        argv = ["analyze", "--population", str(case.path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    actual = {"stdout": _sha256(stdout.getvalue().encode("ascii"))}
    if out_dir.is_dir():
        for path in out_dir.iterdir():
            actual[path.name] = _sha256(path.read_bytes())
    return code, actual


def pytest_generate_tests(metafunc):
    # parametrized by hook, so that the module imports no pytest
    metafunc.parametrize(("name", "size", "key"), CASES)


def test_outputs_match_pinned_digests(name, size, key, tmp_path):
    code, actual = run_case(name, size, key, tmp_path)
    assert code == EXIT_OK
    assert actual == DIGESTS[size][name][str(key)]


def _script() -> int:
    mismatched = 0
    with tempfile.TemporaryDirectory() as scratch:
        for number, (name, size, key) in enumerate(CASES):
            code, actual = run_case(name, size, key, Path(scratch, str(number)))
            if code != EXIT_OK or actual != DIGESTS[size][name][str(key)]:
                print(f"mismatch: {name} {size} {key}")
                mismatched += 1
    print(f"{len(CASES) - mismatched} of {len(CASES)} cases match")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(_script())
