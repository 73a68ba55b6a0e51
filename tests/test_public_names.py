"""Every public name is used by the package itself: a function or class
that only tests call belongs in tests/oracles.py, not in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dysonlab"


def _trees() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _public_defs(tree: ast.Module) -> set[str]:
    """Top-level functions and classes whose names do not start with _."""
    return {n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")}


def _uses(tree: ast.AST, name: str) -> bool:
    """Whether tree refers to name outside the def or class that defines it."""
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name == name):
            continue
        if ((isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or _uses(node, name)):
            return True
    return False


def test_the_scan_sees_a_name_used_only_by_its_own_def():
    tree = ast.parse("def f():\n    return f()\n\ndef g():\n    return 1\n\n"
                     "class C:\n    pass\n\nh = g\n")
    assert _public_defs(tree) == {"f", "g", "C"}
    assert [_uses(tree, n) for n in ("f", "g", "C")] == [False, True, False]


def test_every_public_name_has_a_caller_in_src():
    trees = _trees()
    unused = {f"{module}:{name}" for module, tree in trees.items()
              for name in _public_defs(tree)
              if not any(_uses(t, name) for t in trees.values())}
    assert unused == set()
