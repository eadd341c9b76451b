"""The package exports exactly the union of its modules' public lists."""

import evotropy
from evotropy import complexity, core, evolution, harness

MODULES = (core, complexity, evolution, harness)

REMOVED = (
    "SnapshotFile",
    "genotype_space_size",
    "min_population_size",
    "physical_complexity_fixed",
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
