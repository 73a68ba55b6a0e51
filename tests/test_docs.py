"""The README matches the code: the library quick start runs as written, and
the CLI params lists match the tables in `cli` and `kernels`."""

import json
import re
from pathlib import Path

from dysonlab import Box, cli, kernels, rules

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def documented(default):
    """A table default as read_default reads it from the README."""
    if default is rules.REQUIRED:
        return "required"
    if default is None:
        return "none"
    if callable(default):
        return "`DYSON_LAB_THREADS`, else `1`"
    return json.loads(json.dumps(default.bounds.tolist() if isinstance(default, Box)
                                 else default))


def read_default(text):
    """A README default: JSON in backticks, else the words before any note."""
    if re.fullmatch(r"`[^`]*`", text):
        return json.loads(text[1:-1])
    return text.split(" (")[0]


def test_readme_params_lists_match_the_tables():
    section = README.read_text().split("### Params", 1)[1].split("\n## ", 1)[0]
    listed, rows = {}, None
    for line in section.splitlines():
        if m := re.fullmatch(r"\*\*([\w -]+)\*\*.*", line):
            rows = listed.setdefault(m.group(1), {})
        elif m := re.fullmatch(r"- `(\w+)`: (.+); default (.+)", line):
            rows[m.group(1)] = (m.group(2), read_default(m.group(3)))
    tables = {"top level": cli._TOP,
              **{name: spec.params for name, spec in cli._EXPERIMENTS.items()},
              **{f"{name} kernel": row.params for name, row in kernels._FAMILIES.items()}}
    assert listed.keys() == tables.keys()
    for name, table in tables.items():
        assert listed[name].keys() == table.keys(), name
        for key, (rule, default) in table.items():
            assert listed[name][key] == (rule.desc, documented(default)), (name, key)
