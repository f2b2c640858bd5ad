"""README.md's Python examples run as written.

Every fenced python block runs, in order and in one namespace, a statement
at a time.  Where a statement's trailing comment is a whole Python literal,
the statement's value (an expression's, or the name an assignment binds)
must equal it; a literal list that ends in ... gives the value's first
items.  Other comments are prose and are not checked.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def _trailing_literals(source):
    """{line number: literal} for each comment after code whose text is a
    whole Python literal."""
    found = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and tok.line[:tok.start[1]].strip():
            try:
                found[tok.start[0]] = ast.literal_eval(tok.string[1:].strip())
            except (ValueError, SyntaxError):
                pass
    return found


def _matches(value, literal):
    if isinstance(literal, list) and literal and literal[-1] is Ellipsis:
        return list(value[:len(literal) - 1]) == literal[:-1]
    return value == literal


def test_readme_python_blocks_run_and_state_their_values():
    blocks = _python_blocks(README.read_text())
    assert blocks
    namespace, checked = {}, 0
    for source in blocks:
        literals = _trailing_literals(source)
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if stmt.end_lineno in literals:
                if not isinstance(stmt, ast.Expr):
                    (target,) = stmt.targets
                    value = namespace[target.id]
                assert _matches(value, literals[stmt.end_lineno]), ast.unparse(stmt)
                checked += 1
    assert checked >= 6
