"""The benchmark tracer still sees every layer it wraps.

`benchmarks/tracer.py` times a layer by replacing the module attribute
its caller looks up, so a layer that is called through a local alias or
a captured reference silently drops out of the per-layer metrics.  These
tests read the tracer's wrap table with `ast` (calling `install()` would
patch the modules for the rest of the session), check that every
wrapped attribute exists, and run the CLI with counting wrappers put in
the same places.  The tracer itself runs in a subprocess, so a wrapper
that no longer fits what it wraps fails here too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from evotropy import cli, core, evolution, harness
from evotropy.cli import EXIT_OK, main

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"
MODULES = {"cli": cli, "core": core, "evolution": evolution, "harness": harness}

RUN_PATH = {
    ("evolution", "step_generation"),
    ("evolution", "select"),
    ("evolution", "parsimony_adjusted_fitness"),
    ("evolution", "crossover_pair"),
    ("evolution", "mutate"),
    ("evolution", "sample_indices"),
    ("evolution", "physical_complexity_variable"),
    ("harness", "write_stats_csv"),
    ("harness", "format_snapshot"),
    ("harness", "render_snapshot"),
    ("harness", "build_evolution_config"),
    ("cli", "parse_config"),
}
ANALYZE_PATH = {
    ("cli", "read_population_file"),
    ("cli", "physical_complexity_variable"),
}
# the generation loop scores through evolution._rescore, so nothing calls
# evolution.fitness; pointing the tracer at the scorer is ROADMAP item 1
OFF_PATH = {("evolution", "fitness")}

RUN_CONFIG = """\
rng_seed = 5
generations = 2
population_floor = 16
pool_size = 4
crossover_fraction = 0.5
mutation_fraction = 0.5
snapshot_every = 1
"""


def traced_attributes():
    """(module, attribute) pairs of the wrap table in tracer.install()."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    install = next(
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    loop = next(node for node in ast.walk(install) if isinstance(node, ast.For))
    return [(row.elts[0].id, row.elts[1].value) for row in loop.iter.elts]


def install_counters(monkeypatch):
    calls = dict.fromkeys(traced_attributes(), 0)

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        return wrapper

    for module, attribute in calls:
        original = getattr(MODULES[module], attribute)
        monkeypatch.setattr(
            MODULES[module], attribute, counting((module, attribute), original)
        )
    return calls


def test_every_traced_attribute_exists():
    pairs = traced_attributes()
    assert set(pairs) == RUN_PATH | ANALYZE_PATH | OFF_PATH
    for module, attribute in pairs:
        assert callable(getattr(MODULES[module], attribute)), (module, attribute)


def test_a_run_reaches_every_layer_through_its_module_global(
    tmp_path, capsys, monkeypatch
):
    calls = install_counters(monkeypatch)
    config = tmp_path / "run.cfg"
    config.write_text(RUN_CONFIG, encoding="ascii")
    argv = ["run", "--config", str(config), "--output-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    assert {key for key in RUN_PATH if calls[key] == 0} == set()
    assert calls[("evolution", "step_generation")] == 2


def test_an_analysis_reaches_every_layer_through_its_module_global(
    tmp_path, capsys, monkeypatch
):
    calls = install_counters(monkeypatch)
    population = tmp_path / "pop.txt"
    population.write_text("alphabet_size=2\n" + "0 1\n" * 4, encoding="ascii")
    assert main(["analyze", "--population", str(population)]) == EXIT_OK
    assert {key for key in ANALYZE_PATH if calls[key] == 0} == set()


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_the_tracer_runs_the_cli_and_writes_its_spans(tmp_path, command):
    if command == "run":
        config = tmp_path / "run.cfg"
        config.write_text(RUN_CONFIG, encoding="ascii")
        argv = ["run", "--config", str(config), "--output-dir", str(tmp_path / "out")]
        layer = "evolution.step"
    else:
        population = tmp_path / "pop.txt"
        population.write_text("alphabet_size=2\n" + "0 1\n" * 4, encoding="ascii")
        argv = ["analyze", "--population", str(population)]
        layer = "complexity.measure"
    # the child imports the same evotropy as this test
    source = str(Path(cli.__file__).resolve().parent.parent)
    paths = [source, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    spans = tmp_path / "spans"
    result = subprocess.run(
        [sys.executable, str(TRACER), str(spans), "toy", "--", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == EXIT_OK, result.stderr
    header = json.loads(spans.with_suffix(".json").read_text(encoding="ascii"))
    assert header["run_id"] == "toy" and header["spans"] > 0
    assert layer in header["names"]
    assert spans.with_suffix(".bin").stat().st_size > 0
