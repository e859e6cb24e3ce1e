"""No function in ``src/debruijn`` calls itself by name, except the
recursions over bounded structures listed in ``BOUNDED``.

A term can be 100 000 binders deep, so a walk over terms keeps its own
stack.  This check reads the source with ``ast``: it misses mutual
recursion and the methods a decorator generates, which the deep sweeps
of the other test files cover."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "debruijn"

# module.function, or module.Class.method and module.outer.inner; a type
# that the parser reads nests at most surface.MAX_TYPE_NESTING (200) deep
BOUNDED = {
    # the generator's max_depth, or the size of the sample it shrinks
    "gen._random_term",
    "gen.random_typed_term",
    "gen.shrink_term",
    # the size of a type expression
    "gen._match_type",
    "signature._subst_type",
    "signature.TypeGrammar.wellformed",
    "surface._Parser.type_expr",
    # the size of a binding-type derivation
    "typed.bt_conclusion",
    "typed.bt_context",
    "typed._subexprs",
    "typed.bt_enumerate.exact",
}


def _calls(func: ast.expr, name: str) -> bool:
    """Whether a call of ``func`` names ``name``: ``name(...)`` or
    ``x.name(...)``, but not ``super().name(...)``, the base class's."""
    if isinstance(func, ast.Name):
        return func.id == name
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name) and base.func.id == "super":
            return False
        return func.attr == name
    return False


def self_calling_functions() -> set[str]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        todo = [(ast.parse(path.read_text()), path.stem)]
        while todo:
            node, prefix = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}"
                    if any(
                        isinstance(n, ast.Call) and _calls(n.func, child.name)
                        for n in ast.walk(child)
                    ):
                        found.add(qual)
                    todo.append((child, qual))
                elif isinstance(child, ast.ClassDef):
                    todo.append((child, f"{prefix}.{child.name}"))
                else:
                    todo.append((child, prefix))
    return found


def test_no_function_calls_itself_but_the_bounded_ones():
    found = self_calling_functions()
    assert sorted(found - BOUNDED) == []
    assert sorted(BOUNDED - found) == []  # a stale entry goes


def test_the_guard_sees_plain_method_and_nested_self_calls(tmp_path, monkeypatch):
    (tmp_path / "m.py").write_text(
        "def f(x):\n    return f(x - 1) if x else 0\n"
        "class C:\n"
        "    def __init__(self):\n        super().__init__()\n"
        "    def g(self, t):\n        return [self.g(a) for a in t]\n"
        "def outer():\n    def inner(n):\n        return inner(n)\n    return inner\n"
        "def h(t):\n    stack = [t]\n    while stack:\n        stack.pop()\n"
    )
    monkeypatch.setitem(globals(), "SRC", tmp_path)
    assert self_calling_functions() == {"m.f", "m.C.g", "m.outer.inner"}
