"""The package exports exactly the union of its modules' public lists,
and imports nothing outside the standard library."""

import ast
import re
import sys
from pathlib import Path

import evotropy
from evotropy import complexity, core, evolution, harness

MODULES = (core, complexity, evolution, harness)

REMOVED = (
    "AgentSequence",
    "SiteDistribution",
    "SnapshotFile",
    "genotype_space_size",
    "min_population_size",
    "physical_complexity_fixed",
    "sample_size",
    "site_distribution",
    "validate_run_config",
)


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


def test_the_package_version_is_the_project_version():
    # a regex, since tomllib is not in the standard library before 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert version is not None
    assert version.group(1) == evotropy.__version__
