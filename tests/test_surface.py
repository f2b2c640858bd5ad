"""Guards on the package surface: unread public names, private imports,
tuple word maps, start-up imports.

Every public top-level name in skewdna's modules is read somewhere in the
package, or it is listed in UNREAD as a tracer pin that the benchmark
wraps by name.  An oracle that the tests compare the package against, or a
helper only the tests read, lives in tests/conftest.py.  A read is
a Name in Load context, an attribute or an import alias; docstrings and
__all__ strings do not count.  A new name that nothing reads fails this
test until it is used, deleted or listed.

No module reaches for a private function or class of another module: what
one module lends another is public.  Private data tables (algebra's _THETA
and _R_MUL) may be shared.

Words are packed integers (codes.pack) everywhere below the polynomial
boundary.  A public function annotated with the tuple type codes.Word is
one of a listed few: the boundary itself or a tracer pin.  A new tuple
twin of a packed map fails this test; its oracle belongs in
tests/conftest.py.

Every module parses under the oldest Python that pyproject.toml declares.

Importing the CLI loads neither dataclasses nor inspect, which would add
about 4 ms to every command's start-up: the result records are named
tuples and one slotted class, and no module imports dataclasses.  Nor does
it load verify: only verify-paper imports the suite, when it runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import skewdna

PACKAGE = Path(skewdna.__file__).parent

UNREAD = {
    "analysis.gray_image_report": "tracer",
    "dna.is_reverse_complement_closed": "tracer",
    "dna.reversible_by_remainder": "tracer",
}


TUPLE_WORD_FUNCTIONS = {
    "codes.pack": "boundary",
    "codes.unpack": "boundary",
    "codes.skew_shift": "tracer",
    "codes.remainder_membership": "tracer",
}


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if not n.startswith("_")}


def _read(tree: ast.Module) -> set[str]:
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.alias):
            reads.add(node.name)
    return reads


def test_every_public_name_is_read_or_listed():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    reads = set().union(*map(_read, trees.values()))
    unread = {f"{mod}.{name}" for mod, tree in trees.items()
              for name in _defined(tree) - reads}
    assert unread == set(UNREAD)
    assert set(UNREAD.values()) == {"tracer"}


def _private_callables_used(tree: ast.Module) -> set[str]:
    """module.name for each private callable of another skewdna module that
    tree imports by name or reads as an attribute of an imported module."""
    modules, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:  # from . import codes as cd
                    modules[alias.asname or alias.name] = alias.name
                else:
                    used.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return {f"{mod}.{name}" for mod, name in used if name.startswith("_")
            and callable(getattr(importlib.import_module(f"skewdna.{mod}"), name, None))}


def test_no_module_uses_a_private_callable_of_another():
    used = {f"{path.stem}: {name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in _private_callables_used(ast.parse(path.read_text()))}
    assert used == set()


def _tuple_word_functions(tree: ast.Module) -> set[str]:
    """Public functions with Word in an argument or return annotation."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            args = node.args
            notes = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
            if any(isinstance(n, ast.Name) and n.id == "Word"
                   for note in notes + [node.returns] if note is not None
                   for n in ast.walk(note)):
                found.add(node.name)
    return found


def test_only_listed_functions_take_or_return_tuple_words():
    found = {f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _tuple_word_functions(ast.parse(path.read_text()))}
    assert found == set(TUPLE_WORD_FUNCTIONS)


def test_every_module_parses_as_the_oldest_declared_python():
    # pyproject.toml declares requires-python >= 3.10; the suite runs on a later one
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_no_module_imports_dataclasses():
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {(path.stem, a.name.partition(".")[0]) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.stem, node.module.partition(".")[0]))
    assert {mod for mod, name in imported if name == "dataclasses"} == set()
    assert ("verify", "functools") in imported  # the walk sees imports


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # modules that site hooks load before the import do not count
    code = ("import sys; before = set(sys.modules); import skewdna.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "skewdna.cli" in loaded
    assert "skewdna.verify" not in loaded  # only verify-paper imports the suite
    assert loaded & {"dataclasses", "inspect"} == set()
