"""Every file the package writes goes through the one writer in cli: no
other module opens a file for writing or renames one into place."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dysonlab"


def _writes(tree: ast.AST) -> list[str]:
    """Lines of calls that write a file: open in a write, append, create or
    update mode, write_text or write_bytes, and os.replace."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
        # the mode: open(path, mode), path.open(mode) or io.open(path, mode)
        given = node.args[1:2] if isinstance(fn, ast.Name) else node.args[:2]
        modes = [a.value for a in [*given, *(k.value for k in node.keywords if k.arg == "mode")]
                 if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        if ((name == "open" and any(set(m) & set("wax+") for m in modes))
                or name in ("write_text", "write_bytes")
                or (name == "replace" and isinstance(fn.value, ast.Name)
                    and fn.value.id == "os")):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_the_check_sees_each_kind_of_write():
    tree = ast.parse('open(p, "w"); open(p, mode="ab"); q.open("x"); io.open(p, "r+")\n'
                     'p.write_text(s); p.write_bytes(b); os.replace(a, b)\n'
                     'open("w.csv"); open(p, "rb"); s.replace("&", "")')
    assert len(_writes(tree)) == 7


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "cli.py"))
def test_only_cli_writes_files(module):
    assert _writes(ast.parse((SRC / module).read_text())) == []
