"""Guards on the package surface: unread public names, private imports,
tuple word maps.

Every public top-level name in skewdna's modules is read somewhere in the
package, or it is listed in UNREAD with a one-word reason: an oracle that
the tests compare the package against, or a tracer pin that the benchmark
wraps by name.  A read is a Name in Load context, an attribute or an import
alias; docstrings and __all__ strings do not count.  A new name that nothing
reads fails this test until it is used, deleted or listed.

No module reaches for a private function or class of another module: what
one module lends another is public.  Private data tables (algebra's _THETA
and _R_MUL) may be shared.

Words are packed integers (codes.pack) everywhere below the polynomial
boundary.  A public function annotated with the tuple type codes.Word is
one of a listed few: the boundary itself, a tracer pin, or an oracle.  A
new tuple twin of a packed map fails this test; its oracle belongs in
tests/conftest.py.
"""

import ast
import importlib
from pathlib import Path

import skewdna

PACKAGE = Path(skewdna.__file__).parent

UNREAD = {
    "algebra.theta": "oracle",
    "algebra.gray_inverse": "oracle",
    "codes.membership": "oracle",
    "dna.encode_word": "oracle",
    "dna.dna_reverse": "oracle",
    "dna.dna_complement": "oracle",
    "dna.dna_reverse_complement": "oracle",
    "analysis.gray_image_report": "tracer",
    "dna.is_reverse_complement_closed": "tracer",
}


TUPLE_WORD_FUNCTIONS = {
    "codes.pack": "boundary",
    "codes.unpack": "boundary",
    "codes.skew_shift": "tracer",
    "codes.remainder_membership": "tracer",
    "codes.membership": "oracle",
    "dna.encode_word": "oracle",
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
    assert set(UNREAD.values()) == {"oracle", "tracer"}


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
