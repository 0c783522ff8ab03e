"""The public surface: every exported name resolves and has a user.

A name earns its place in a model module's ``__all__`` when the command
line reaches it, directly or through other library code, or when the
tests use it as an independent reference for a faster route.  A field
of an exported record (a NamedTuple) earns its place when the package
reads it, and a public method of ``Scenario`` when ``cli.py`` calls it.
"""

import ast
import importlib
from pathlib import Path

import pytest

import pdckit

PACKAGE = Path(pdckit.__file__).parent

# the modules whose public functions the benchmark tracer wraps by name
TRACED = ("scenario", "cli", "jsa", "hom_reference", "photon_stats", "twin_hom")

MODEL_MODULES = ("jsa", "hom_reference", "twin_hom", "photon_stats")

# the records each model module exports, all of them NamedTuple classes
RECORDS = {
    "jsa": {"PdcModelParams", "FilteredSource"},
    "hom_reference": {"SignalState", "HomScan", "OverlapFit"},
    "twin_hom": set(),
    "photon_stats": {"InversionResult"},
}

# reached by no command, kept as references the tests check against
TEST_REFERENCES = {
    "coincidence_full",  # the exact coincidence model behind the simplified one
    "forward_click_dist",  # the forward model the inversion undoes
}


def _references(node) -> set[str]:
    """Identifiers that a piece of code reads, as names or attributes."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


def _reachable() -> set[str]:
    """Top-level names reached from cli.py and the test references.

    Each module-level function or class contributes what its body reads
    once its own name is reached; other module-level statements always
    count.  Names are matched by identifier across the package, which
    over-approximates but never misses a use.
    """
    bodies: dict[str, set[str]] = {}
    reached = set(TEST_REFERENCES)
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.stem == "cli":
            reached |= _references(tree)
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(_references(node))
            else:
                reached |= _references(node)
    frontier = set(reached)
    while frontier:
        name = frontier.pop()
        new = bodies.get(name, set()) - reached
        reached |= new
        frontier |= new
    return reached


@pytest.mark.parametrize("module_name", TRACED)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(f"pdckit.{module_name}")
    missing = [
        name
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


@pytest.mark.parametrize("module_name", MODEL_MODULES)
def test_every_exported_name_is_used(module_name):
    module = importlib.import_module(f"pdckit.{module_name}")
    reached = _reachable()
    unused = [name for name in module.__all__ if name not in reached]
    assert unused == []


def test_every_test_reference_is_exported():
    """A stale entry would make the reachability guard above reach the
    bodies of whatever the package still names so."""
    exported = set()
    for module_name in MODEL_MODULES:
        module = importlib.import_module(f"pdckit.{module_name}")
        exported.update(module.__all__)
    assert sorted(TEST_REFERENCES - exported) == []


def _attributes_read() -> set[str]:
    """Attribute names that the package's code reads, as in `x.name`."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                names.add(node.attr)
    return names


@pytest.mark.parametrize("module_name", MODEL_MODULES)
def test_every_record_field_is_read(module_name):
    module = importlib.import_module(f"pdckit.{module_name}")
    exported = [getattr(module, name) for name in module.__all__]
    records = [
        obj
        for obj in exported
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and hasattr(obj, "_fields")
    ]
    # the exact set, so that the guard cannot pass by checking nothing
    assert {record.__name__ for record in records} == RECORDS[module_name]
    read = _attributes_read()
    unread = [
        f"{record.__name__}.{field}"
        for record in records
        for field in record._fields
        if field not in read
    ]
    assert unread == []


def test_no_module_imports_a_private_name():
    """A name with a leading underscore stays inside its own module."""
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # local names bound to sibling modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    if alias.name.startswith("_"):
                        private.append(f"{path.stem}: {alias.name}")
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr.startswith("_")
            ):
                private.append(f"{path.stem}: {node.value.id}.{node.attr}")
    assert private == []


def test_every_scenario_method_is_called_by_the_cli():
    """A public method of Scenario earns its place when cli.py calls it,
    as `sc.<method>` or `Scenario.<method>`."""
    tree = ast.parse((PACKAGE / "scenario.py").read_text())
    (scenario,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Scenario"
    ]
    methods = [
        node.name
        for node in scenario.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    called = {
        node.attr
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Attribute)
    }
    assert methods
    assert [name for name in methods if name not in called] == []
