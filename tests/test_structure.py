"""Structure guard: each shared kernel has exactly one implementation.

The search loop, the union-find and the oracle's tree growth are each
written once in ``src/priority_steiner``; these checks fail when a second
copy appears, so a change to one of them has one place to go.  The package
also holds no ``assert`` statement, so its checks survive ``python -O``.
"""

import ast
from pathlib import Path

import priority_steiner

PACKAGE = Path(priority_steiner.__file__).parent


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _calls(fn, name):
    """True when fn's own body, not a nested function's, calls ``name``."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            callee = node.func
            called = callee.id if isinstance(callee, ast.Name) else getattr(
                callee, "attr", None
            )
            if called == name:
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_one_search_loop():
    users = [
        f"{name}:{fn.name}"
        for name, tree in _modules().items()
        for fn in _functions(tree)
        if _calls(fn, "heappop")
    ]
    assert len(users) == 1, users


def test_one_union_find():
    finds = [
        name
        for name, tree in _modules().items()
        for fn in _functions(tree)
        if fn.name == "find"
    ]
    assert len(finds) == 1, finds


def test_one_recursive_oracle_search():
    tree = _modules()["oracle.py"]
    nested = {
        inner
        for outer in _functions(tree)
        for inner in _functions(outer)
        if inner is not outer
    }
    recursive = sorted(fn.name for fn in nested if _calls(fn, fn.name))
    assert len(recursive) == 1, recursive


def test_no_assert_statements():
    # python -O strips asserts, so an invariant or input check written as
    # one would silently stop holding.
    asserts = [
        f"{name}:{node.lineno}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert asserts == [], asserts
