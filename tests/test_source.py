"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "spinr"


def _nodes():
    """(file name, AST node) for every node of every package module."""
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            yield path.name, node


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements, so no check may rest on one;
    # doctests live in docstrings and are not statements
    found = [
        f"{n}:{node.lineno}" for n, node in _nodes() if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dataclasses_in_the_package():
    # a dataclass generates and execs its methods when its module is
    # imported, which each CLI process pays for; records are named tuples
    # or slotted classes instead
    def imports_dataclasses(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").split(".")[0] == "dataclasses"
        return False

    found = [f"{n}:{node.lineno}" for n, node in _nodes() if imports_dataclasses(node)]
    assert found == []


def test_importing_the_cli_leaves_out_dataclasses_and_json():
    # json is imported where JSON is read or written, so the markdown
    # commands never load it; and every module the import adds is spinr's
    # own or the standard library's, so no dependency creeps back into
    # each CLI process
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import spinr.cli\n"
        "new = set(sys.modules) - before\n"
        "print(sorted({'dataclasses', 'json'} & new))\n"
        "print(sorted(m for m in new if m != 'spinr' and not m.startswith('spinr.')\n"
        "             and m.split('.')[0] not in sys.stdlib_module_names))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.split("\n") == ["[]", "[]", ""]
