"""Design rules of the package, checked on the syntax trees of its modules.

* One atomic writer: ``os.replace`` appears only inside `bench._atomic_write`.
* One seeding module: numpy's ``default_rng`` and ``SeedSequence`` appear
  only in ``rng.py``, so every Generator comes from its helpers.
* Two hashes: ``sha256`` is called only in `bench.ExperimentConfig.key`
  (manifest reuse keys) and `rng.seed_for` (stage seeds).
* One owner of the output directory's layout: its names (``models``,
  ``cells``, ``manifest.json`` and the four aggregate CSVs) are string
  constants only in ``bench.py``.
* One forest representation: a `forest.Tree` is made only in
  `forest._number_nodes`, the grower's output; everything else builds the
  forest's `NodeTable`.
* No stored value that only tests read: every dataclass field is read as an
  attribute somewhere in the package. ``RandomForestModel.inbag`` is allowed:
  the OOB test in ``tests/test_forest.py`` reads it, and two oracle tests
  there read the same bootstrap counts from ``_fit_trees``. The rule matches
  by attribute name, so a field whose name some other object also has (a
  ``GowerColumns.values`` beside ``Counterfactual.values``) passes unread.
"""

import ast
from pathlib import Path

import cfbench

PACKAGE = Path(cfbench.__file__).parent


def references(match) -> list[tuple[str, str]]:
    """(module, enclosing function or class path) of every node ``match`` accepts."""
    found = []

    def visit(node, scope, module):
        if match(node):
            found.append((module, scope))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope, module)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), "", path.stem)
    return found


def is_os_replace(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name == "replace" for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "replace"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def is_generator_maker(node) -> bool:
    names = {"default_rng", "SeedSequence"}
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1] in names
    return ((isinstance(node, ast.Attribute) and node.attr in names)
            or (isinstance(node, ast.Name) and node.id in names))


def is_sha256(node) -> bool:
    if isinstance(node, ast.alias):
        return node.name == "sha256"
    return ((isinstance(node, ast.Attribute) and node.attr == "sha256")
            or (isinstance(node, ast.Name) and node.id == "sha256"))


OUTPUT_NAMES = {"models", "cells", "manifest.json", "performance.csv", "counts.csv",
                "quality_records.csv", "cell_summaries.csv"}


def is_tree_call(node) -> bool:
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "Tree")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "Tree"))


def is_output_name(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in OUTPUT_NAMES


def package_nodes():
    for path in sorted(PACKAGE.glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), filename=str(path)))


def is_dataclass(node) -> bool:
    if not isinstance(node, ast.ClassDef):
        return False
    for decorator in node.decorator_list:
        name = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
    return False


def dataclass_fields() -> list[tuple[str, str]]:
    """(class, field) of every field of a ``@dataclass`` class in the package."""
    return [(node.name, stmt.target.id) for node in package_nodes() if is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


UNREAD_ALLOWED = {("RandomForestModel", "inbag")}


def test_os_replace_only_in_the_atomic_writer():
    assert references(is_os_replace) == [("bench", "_atomic_write")]


def test_generators_made_only_in_rng():
    found = references(is_generator_maker)
    assert found, "the rule matched nothing; the checker is broken"
    assert {module for module, _ in found} == {"rng"}, found


def test_sha256_only_in_reuse_keys_and_stage_seeds():
    assert references(is_sha256) == [("bench", "ExperimentConfig.key"), ("rng", "seed_for")]


def test_trees_made_only_by_the_grower():
    assert references(is_tree_call) == [("forest", "_number_nodes")]


def test_output_names_only_in_bench():
    found = references(is_output_name)
    assert found, "the rule matched nothing; the checker is broken"
    assert {module for module, _ in found} == {"bench"}, found


def test_every_dataclass_field_is_read():
    fields = dataclass_fields()
    assert ("SplitResult", "train") in fields, "the rule matched nothing; the checker is broken"
    read = {node.attr for node in package_nodes()
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f for f in fields if f[1] not in read and f not in UNREAD_ALLOWED]
    assert not unread, unread
