"""Every public name is used by the package itself: a function that only
tests call belongs in tests/oracles.py, not in src/."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dysonlab"

# exported names with no caller in src/ yet; this list may only shrink
TEST_ONLY = {"bessel_gap_hit_fraction", "distorted_pair_dimension",
             "dyson_pair_dimension", "fit_gap_exponent"}


def _exports() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom)
            for a in n.names}


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


def test_every_export_has_a_caller_in_src():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    unused = {name for name in _exports()
              if not any(_uses(t, name) for t in trees)}
    assert unused == TEST_ONLY

