"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from spinr.liecat import so_group
from spinr.repcat import hom_rule_trace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinr"


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


def test_value_errors_are_caught_only_at_the_named_boundaries():
    # a CatalogParseError is a ValueError, so a builder that catches
    # ValueError around its own typed reads reports their located error
    # again at the block's line, naming two locations.  Block.build is the
    # one boundary for constructors; _assemble locates a family's check
    # against its domain, and _validate_group words its own messages.
    allowed = {
        ("catalogfile.py", "Block.build"),
        ("catalog.py", "_assemble"),
        ("liecat.py", "_validate_group"),
    }
    broad = {"ValueError", "Exception", "BaseException"}

    def catches_value_error(handler):
        if handler.type is None:
            return True
        types = handler.type
        types = types.elts if isinstance(types, ast.Tuple) else [types]
        return any(isinstance(t, ast.Name) and t.id in broad for t in types)

    def handlers(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from handlers(child, (*scope, child.name))
                continue
            if isinstance(child, ast.ExceptHandler) and catches_value_error(child):
                yield ".".join(scope), child.lineno
            yield from handlers(child, scope)

    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for scope, line in handlers(ast.parse(path.read_text("utf-8")), ()):
            found.setdefault((path.name, scope), line)
    stray = [f"{n}:{line} in {scope}" for (n, scope), line in found.items()
             if (n, scope) not in allowed]
    assert stray == []
    assert set(found) == allowed  # the list names only handlers that exist


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
    assert _child(code) == ["[]", "[]", ""]
    # -S runs no site, so no .pth file has imported anything first, as in
    # a plain venv; there the CLI and the bundled load must not pull in
    # importlib.resources (which brings pathlib, tempfile, shutil, ...)
    # or typing.  fractions stays: perfbench/checks.py reads AffineInt's
    # coefficients as rationals.
    code = (
        "import sys\n"
        "import spinr.cli\n"
        "spinr.cli.load_default()\n"
        "print(sorted({'importlib.resources', 'typing', 'pathlib'}\n"
        "             & set(sys.modules)))\n"
    )
    assert _child(code, "-S") == ["[]", ""]


def _child(code: str, *flags: str) -> list[str]:
    """The stdout lines of a fresh interpreter running code on the bundled
    catalog."""
    env = dict(os.environ)
    env.pop("SPINR_CATALOG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return out.stdout.split("\n")


def test_every_site_the_benchmark_tracer_wraps_exists():
    # perfbench/tracer.py wraps spinr's functions by (module, attribute)
    # name and reads `.lines` off each rule trace; after a rename a traced
    # cli child dies, and the run still reports "correct": true
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_spinr_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("spinr.cli")
    missing = [
        f"{module}.{attr}"
        for table in (tracer.SPANNED, tracer.COUNTED)
        for sites in table.values()
        for module, attr in sites
        if not hasattr(sys.modules.get(module), attr)
    ]
    assert missing == []
    result = hom_rule_trace(so_group(4).algebra, 3)
    t = tracer.Tracer()
    t._count_result("repcat.hom_rule_trace", (), result)
    assert t.extra["repcat.hom_rule_trace.lines"] == len(result.lines) > 1


_PARSER = getattr(re, "_parser", None) or importlib.import_module("sre_parse")


def _patterns():
    """(file name, line, parsed pattern, flags) for every ``re.<function>``
    call on a literal pattern in the package."""
    for n, node in _nodes():
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "re"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            continue
        flags = 0
        for arg in [*node.args[1:], *(k.value for k in node.keywords)]:
            if isinstance(arg, ast.Attribute) and arg.attr in re.RegexFlag.__members__:
                flags |= re.RegexFlag[arg.attr]
        yield n, node.lineno, _PARSER.parse(node.args[0].value, flags), flags


def _opcodes(tree):
    """The name of every opcode, category and flag in a parsed pattern."""
    if isinstance(tree, _PARSER.SubPattern):
        tree = list(tree)
    if isinstance(tree, (list, tuple)):
        for item in tree:
            yield from _opcodes(item)
    elif isinstance(tree, int) and hasattr(tree, "name"):
        yield str(tree)


def test_patterns_compile_on_python_3_10():
    # pyproject.toml accepts Python 3.10, whose re module refuses the
    # possessive quantifiers and atomic groups that came in 3.11
    found = []
    for n, line, tree, _ in _patterns():
        found.append(n)
        newer = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"} & set(_opcodes(tree))
        assert not newer, f"{n}:{line} uses {sorted(newer)}"
    assert "catalogfile.py" in found


def _unicode_digits(tree, flags) -> bool:
    return not flags & re.ASCII and bool(
        {"CATEGORY_DIGIT", "CATEGORY_NOT_DIGIT"} & set(_opcodes(tree))
    )


def test_no_pattern_reads_unicode_digits():
    # without re.ASCII, \d matches every Unicode decimal digit and int()
    # reads them all, so '١' would load as the integer 1; catalog values
    # are read strictly, in ASCII digits only
    found = [f"{n}:{line}" for n, line, tree, flags in _patterns()
             if _unicode_digits(tree, flags)]
    assert found == []
    assert _unicode_digits(_PARSER.parse(r"x[\d,]"), 0)
    assert _unicode_digits(_PARSER.parse(r"(?:\D)+"), 0)
    assert not _unicode_digits(_PARSER.parse(r"\d", re.ASCII), re.ASCII)
    assert not _unicode_digits(_PARSER.parse(r"[0-9]\\d"), 0)
    assert {"catalogfile.py", "repcat.py"} <= {n for n, *_ in _patterns()}


def test_every_python_file_parses_with_the_python_3_10_grammar():
    # pyproject.toml accepts 3.10; this checks its grammar only, not its
    # standard library API
    paths = [p for d in ("src", "tests", "perfbench", "tools")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=(3, 10))
