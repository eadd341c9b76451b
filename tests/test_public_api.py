"""The package exports exactly the union of its modules' public lists,
uses every function it exports, reads every private module-level name
it defines, imports nothing outside the standard
library nor any slow-to-import part of it, keeps its value types
immutable, comparable and copyable, and runs the README's quick start
as written."""

import ast
import copy
import inspect
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

import evotropy
from evotropy import complexity, core, evolution, harness

MODULES = (core, complexity, evolution, harness)

REMOVED = (
    "Agent",
    "AgentSequence",
    "Alphabet",
    "SiteDistribution",
    "SnapshotFile",
    "calculable_length",
    "efficiency",
    "genotype_space_size",
    "min_population_size",
    "per_site_entropy",
    "physical_complexity_fixed",
    "run",
    "sample_size",
    "site_distribution",
    "step_generation",
    "target_population_size",
    "UserRequest",
    "validate_run_config",
)

# exported functions that nothing in the package calls: evolution.fitness
# is the one-member fitness that the benchmark tracer wraps and counts,
# and stays public until the tracer stops wrapping it (ROADMAP items 1, 3)
UNCALLED = {"fitness"}


def test_no_name_is_exported_twice():
    assert len(evotropy.__all__) == len(set(evotropy.__all__))
    module_names = [name for module in MODULES for name in module.__all__]
    assert len(module_names) == len(set(module_names))


def test_package_list_is_the_union_of_module_lists():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert sorted(evotropy.__all__) == sorted(expected)


def test_every_exported_name_resolves():
    for name in evotropy.__all__:
        assert hasattr(evotropy, name), name


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in evotropy.__all__
        assert not hasattr(evotropy, name)
    assert not hasattr(evotropy.Population, "max_length")


def loads(tree, bound):
    """Each read of a name in `bound` under `tree`, as the name it stands for."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bound:
                yield bound[node.id]


def test_every_exported_function_is_used_in_the_package():
    uses = Counter()
    for path in sorted(Path(evotropy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the names a module binds to functions: its own and those it imports
        defined = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        bound = {node.name: node.name for node in defined}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                bound.update((a.asname or a.name, a.name) for a in node.names)
        uses.update(loads(tree, bound))
        for node in defined:
            # a function's own body, recursion included, does not use it
            uses.subtract(name for name in loads(node, bound) if name == node.name)
    unused = {
        name
        for module in MODULES
        for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and uses[name] < 1
    }
    assert unused <= UNCALLED


def private_definitions(tree):
    """The module-level functions, classes and constants of `tree` whose
    names start with one underscore, as {name: defining node}."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        found.update(
            (name, node)
            for name in names
            if name.startswith("_") and not name.startswith("__")
        )
    return found


def test_every_private_module_name_is_read_in_the_package():
    uses = Counter()
    private = set()
    for path in sorted(Path(evotropy.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the private names a module binds: its own and those it imports
        defined = private_definitions(tree)
        private.update(defined)
        bound = {name: name for name in defined}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                bound.update((a.asname or a.name, a.name) for a in node.names)
        uses.update(loads(tree, bound))
        for name, node in defined.items():
            # a definition's own body, recursion included, does not use it
            uses.subtract(read for read in loads(node, bound) if read == name)
    assert {name for name in private if uses[name] < 1} == set()


def test_runtime_imports_only_the_standard_library():
    for path in sorted(Path(evotropy.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                assert root in sys.stdlib_module_names, f"{path.name} imports {name}"


# modules that cost start-up time every run pays and that nothing needs
SLOW_IMPORTS = (
    "dataclasses",
    "inspect",
    "typing",
    "statistics",
    "decimal",
    "fractions",
)


def test_the_cli_imports_no_slow_module():
    # -I -S: no site hooks or environment variables load modules beforehand
    package_parent = str(Path(evotropy.__file__).resolve().parent.parent)
    script = (
        f"import sys; sys.path.insert(0, {package_parent!r}); "
        "import evotropy.cli; print(*sys.modules, sep='\\n')"
    )
    loaded = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    assert "evotropy.cli" in loaded
    assert [name for name in SLOW_IMPORTS if name in loaded] == []


def test_a_pth_file_in_a_fresh_venv_imports_the_checkout(tmp_path):
    # the README's install route that needs neither a download nor a build
    source = Path(evotropy.__file__).resolve().parent.parent
    venv = tmp_path / "venv"
    subprocess.run(
        [sys.executable, "-m", "venv", "--without-pip", str(venv)],
        check=True,
        timeout=120,
    )
    python = str(venv / ("Scripts" if sys.platform == "win32" else "bin") / "python")
    # without PYTHONPATH, only the .pth file can name src
    environment = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    site = subprocess.run(
        [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.strip()
    Path(site, "evotropy.pth").write_text(f"{source}\n", encoding="utf-8")
    version = subprocess.run(
        [python, "-m", "evotropy.cli", "--version"],
        env=environment,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert version.stdout == f"evotropy {evotropy.__version__}\n"


def seed_42_values():
    """One value of each public value type, from the first generation of
    the default seed-42 run."""
    run_config = harness.RunConfig(rng_seed=42)
    config = harness.build_evolution_config(run_config)
    state, stats = next(islice(evolution.evolve(config), 1, None))
    return {
        "RunConfig": run_config,
        "EvolutionConfig": config,
        "Population": state.population,
        "EvolutionState": state,
        "GenerationStats": stats,
        "ComplexityReport": complexity.physical_complexity_variable(state.population),
    }


VALUES = seed_42_values()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_copy_compare_and_stay_frozen(name):
    value = VALUES[name]
    assert type(value).__name__ == name
    # a record holds its fields and nothing else
    assert set(vars(value)) == set(type(value)._fields)
    copies = [
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ]
    for twin in copies:
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
    fields = list(inspect.signature(type(value)).parameters)
    # a record equals only a record of its own type, not even its field values
    assert value != tuple(getattr(value, name) for name in fields)
    field = fields[0]
    kept = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, kept)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is kept


def test_every_record_type_has_a_value():
    records = [
        cls.__name__
        for cls in core._Record.__subclasses__()
        if cls.__module__.startswith("evotropy.")
    ]
    assert sorted(records) == sorted(VALUES)


# a value of another kind for each field kind a record settles
WRONG_KIND = {"int": 2.5, "float": "0.5", "str": b"text"}

SETTLED = [
    (name, field, kind)
    for name, value in sorted(VALUES.items())
    for field, kind in type(value).__annotations__.items()
    if kind in core._KINDS
]


@pytest.mark.parametrize(("name", "field", "kind"), SETTLED)
def test_a_field_value_of_another_kind_names_the_field(name, field, kind):
    value = VALUES[name]
    fields = {each: getattr(value, each) for each in value._fields}
    fields[field] = WRONG_KIND[kind]
    expected = re.escape(f"{field} expects {core._KINDS[kind][2]}, got ")
    with pytest.raises(core.ConfigError, match=f"^{expected}"):
        type(value)(**fields)


def test_every_config_key_has_a_text_parser():
    for kind in harness.RunConfig.__annotations__.values():
        assert core._KINDS[kind][1] is not None, kind


def test_the_package_version_is_the_project_version():
    # a regex, since tomllib is not in the standard library before 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert version is not None
    assert version.group(1) == evotropy.__version__


def readme_quick_start():
    """The Python block fenced under the README's `Library quick start` heading."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    before, block = section.split("```python\n", 1)
    assert not before.strip(), "the quick start section must open with its code block"
    return block.split("```\n", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_quick_start(), "README.md", "exec"), {})
    assert capsys.readouterr().out
