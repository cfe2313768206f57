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
    # imported, which each CLI process pays for; records are abelian.Record
    # tuples or slotted classes instead
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
    # one boundary for constructors and for a family's check against its
    # domain; _validate_group words its own messages.
    # catalogfile.parse_int and cli._ascii_int catch int() refusing a text
    # longer than Python's int-string limit, and catalogfile._int locates
    # parse_int's error.
    allowed = {
        ("catalogfile.py", "Block.build"),
        ("catalogfile.py", "_int"),
        ("catalogfile.py", "parse_int"),
        ("cli.py", "_ascii_int"),
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


def _scoped(tree, scope=()):
    """(dotted scope, node) for every node below tree, each node scoped by
    the functions and classes that enclose it."""
    for child in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = (*scope, child.name)
        yield ".".join(scope), child
        yield from _scoped(child, inner)


def test_int_is_called_only_by_the_strict_readers():
    # int() reads every Unicode digit, '_' and surrounding spaces, so text
    # reaches it only through a reader that catalogfile.is_int has accepted
    # (or an equally strict pattern); the other calls take integers
    allowed = {
        ("abelian.py", "FgAbGroup.__init__"),
        ("abelian.py", "FgAbGroup.reduce"),
        ("abelian.py", "smith_diagonalize"),
        ("catalogfile.py", "parse_int"),
        ("cli.py", "_ascii_int"),
        ("liecat.py", "_so_index"),
    }
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text("utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "int"
            ):
                found.setdefault((path.name, scope), node.lineno)
    stray = [f"{n}:{line} in {scope}" for (n, scope), line in found.items()
             if (n, scope) not in allowed]
    assert stray == []
    assert set(found) == allowed  # the list names only call sites that exist


def _calls_outside(name, allowed):
    """Every read of `name` in the package outside the allowed (file
    name, scope) pairs, checking that each allowed pair reads it.  A read
    of the name counts as a call, so an alias cannot hide one; an import
    is not a read."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text("utf-8"))):
            read = getattr(node, "id", None) or getattr(node, "attr", None)
            if read == name and isinstance(node.ctx, ast.Load):
                found.setdefault((path.name, scope), node.lineno)
    assert set(found) >= allowed  # the list names only call sites that exist
    return [f"{n}:{line} in {scope}" for (n, scope), line in found.items()
            if (n, scope) not in allowed]


def test_only_a_printed_rule_proof_writes_the_rule_trace():
    # enumerate_homs returns a RuleProof at an unlisted rank, and its text
    # is written when an answer is printed; a call to hom_rule_trace
    # anywhere else would write it on the decision path again, where only
    # no_nontrivial_hom decides
    assert _calls_outside("hom_rule_trace", {("repcat.py", "RuleProof.__str__")}) == []


def test_only_lift_subgroup_reads_a_parity_through_the_mod2_map():
    # the parameter solve and the spin-type scan read each isotropy parity
    # off its coordinate (lifting.image_parities); a call of
    # lifting.parity anywhere else would build a mod2 map on that path
    # again.  spaces still imports parity: perfbench/tracer.py counts
    # calls at that site
    assert _calls_outside("parity", {("lifting.py", "lift_subgroup")}) == []


def test_abelian_records_skip_their_checks_only_at_the_listed_builders():
    # tuple.__new__ (or abelian._new, its alias) builds an AbElem or an AbHom
    # without the reduction and well-definedness checks of its __new__; the
    # builders below make their input reduced and well defined themselves,
    # and tests/test_abelian.py holds each equal to the checked constructor
    allowed = {
        ("abelian.py", "AbElem.__new__"),
        ("abelian.py", "AbHom.__new__"),
        ("abelian.py", "AbHom.from_coords"),
        ("abelian.py", "FgAbGroup.elem"),
        ("abelian.py", "mod2"),
    }
    guarded = {"AbElem", "AbHom"}

    def built(node, scope):
        """The class that a call builds unchecked, or None."""
        func = getattr(node, "func", None)
        if not (
            isinstance(node, ast.Call)
            and (_is_call(node, "_new") or ast.unparse(func) == "tuple.__new__")
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            return None
        name = node.args[0].id
        # cls is the enclosing class, the first part of the scope
        return scope.split(".")[0] if name == "cls" else name

    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text("utf-8"))):
            if built(node, scope) in guarded:
                found.setdefault((path.name, scope), node.lineno)
    stray = [f"{n}:{line} in {scope}" for (n, scope), line in found.items()
             if (n, scope) not in allowed]
    assert stray == []
    assert set(found) == allowed  # the list names only call sites that exist


# Definitions that stay even if nothing in the package calls them, each
# with the reason.
ENTRY_POINTS = {
    "cyclic": "public constructor of Z and Z/n; the abelian doctests use it",
    "main": "the in-process entry: tests/clirunner.py and perfbench/cli_child.py "
            "call cli.main, which cli.entry runs for a process",
}


def _references(nodes) -> set[str]:
    """Every name and attribute that the code of nodes reads; a docstring is
    a string constant, so a name it mentions is not read."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(name -> where and what its code reads for every top-level function,
    class and non-dunder method; what module-level code reads).  A class's
    own code is its bases, decorators, class body and dunder methods."""
    defs, module_level = {}, set()

    def define(name, where, nodes):
        defs.setdefault(name, []).append((where, _references(nodes)))

    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                define(node.name, path.name, [node])
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name[:2] != "__":
                        define(item.name, f"{path.name} {node.name}", [item])
                    else:
                        own.append(item)
                define(node.name, path.name, own)
            else:
                module_level |= _references([node])
    return defs, module_level


def test_every_library_function_has_a_caller():
    # a definition is live when module-level code, an entry point or a live
    # definition reads its name; a helper called only by another dead one
    # is dead too.  Names are matched without their module or class, so a
    # method counts as live when any attribute of its name is read.
    defs, module_level = _definitions()
    live, todo = set(), [n for n in module_level | set(ENTRY_POINTS) if n in defs]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo += [n for _, reads in defs[name] for n in reads if n in defs]
    dead = [f"{where} {name}" for name in sorted(defs.keys() - live)
            for where, _ in defs[name]]
    assert dead == []
    assert set(ENTRY_POINTS) <= set(defs)  # the list names only definitions


# Fields and properties that no package code reads, each with the reason
# it stays.
UNREAD_FIELDS = {
    "distinct_classes": "the catalog file format requires it; no answer prints it",
    "coeff": "perfbench/checks.affine_table reads it",
    "offset": "perfbench/checks.affine_table reads it",
}


def _is_call(node, name) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _record_fields():
    """name -> where, for every record field (a parameter after cls of the
    __new__ of a class based on Record) and every class attribute set to
    property(...) in the package."""
    fields = {}
    for n, node in _nodes():
        if not isinstance(node, ast.ClassDef):
            continue
        record = any(getattr(b, "id", None) == "Record" for b in node.bases)
        for item in node.body:
            if record and isinstance(item, ast.FunctionDef) and item.name == "__new__":
                for arg in item.args.args[1:]:
                    fields.setdefault(arg.arg, f"{n}:{item.lineno} {node.name}")
            if isinstance(item, ast.Assign) and _is_call(item.value, "property"):
                for target in item.targets:
                    fields.setdefault(target.id, f"{n}:{item.lineno} {node.name}")
    return fields


def test_every_record_field_is_read():
    # a field is live when package code reads an attribute of its name.
    # Names are matched without their class, so this cannot see a member
    # whose name another class also reads: AbHom.is_zero went unread for
    # as long as AbElem.is_zero was read
    fields = _record_fields()
    reads = {node.attr for _, node in _nodes()
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{where}.{name}" for name, where in fields.items()
                    if name not in reads and name not in UNREAD_FIELDS)
    assert unread == []
    assert set(UNREAD_FIELDS) <= fields.keys() - reads  # the list names only unread ones


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
    # a plain venv; there the CLI and the bundled build (spinr.bundled)
    # must not pull in importlib or importlib.resources (which brings
    # pathlib, tempfile, shutil, ...), typing, dataclasses or json, and
    # must compile none of the catalog file's patterns.  Answering, on
    # parameterised families too, must not pull in fractions (nor the
    # decimal and numbers it brings): AffineInt computes on integers.
    code = (
        "import sys\n"
        "import spinr.cli\n"
        "from spinr import catalogfile, repcat\n"
        "spinr.cli.load_default()\n"
        "print('spinr.bundled' in sys.modules)\n"
        "print(sorted({'importlib', 'importlib.resources', 'typing', 'pathlib',\n"
        "              'dataclasses', 'json'} & set(sys.modules)))\n"
        "print([f.cache_info().currsize for f in\n"
        "       (catalogfile._line_re, repcat._cong_re, repcat._term_re)])\n"
        "for argv in (['table1'], ['classify', 'S2:SO(3)', '--r', '2'],\n"
        "             ['classify', 'S3:Sp(1)\u00b7U(1)', '--r', '2'],\n"
        "             ['spin-type', 'S5:U(3)'],\n"
        "             ['holonomy', 'U(2)', '--m', '4', '--r', '2']):\n"
        "    spinr.cli.main(argv)\n"
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
        "print(sorted({'argparse', 'gettext', 'locale', 'shutil'} & set(sys.modules)))\n"
    )
    out = _child(code, "-S")
    assert out[:3] == ["True", "[]", "[0, 0, 0]"]
    assert "| sp0u1-circle-powers | - | s ≡ 2 mod 4 |" in out  # the s/2 family
    # the command line is read without argparse, which imported gettext,
    # locale and shutil for its help formatter and messages
    assert out[-3:] == ["[]", "[]", ""]


def test_importing_spinr_runs_no_eval():
    # collections.namedtuple compiles each class's __new__ from source with
    # eval at every import, code that no .pyc holds; spinr's records name
    # their fields in a written __new__ instead (abelian.Record).  functools
    # makes a named tuple of its own under -S, so it and collections come
    # first.  Only eval is counted: importlib calls exec on every import,
    # and compile wherever no .pyc exists
    code = (
        "import builtins, collections, functools\n"
        "calls = []\n"
        "real_eval = builtins.eval\n"
        "def counted(*args):\n"
        "    calls.append(args)\n"
        "    return real_eval(*args)\n"
        "builtins.eval = counted\n"
        "import spinr.cli\n"
        "spinr.cli.load_default()\n"
        "print(len(calls))\n"
    )
    assert _child(code, "-S") == ["0", ""]


def test_a_markdown_answer_loads_neither_re_nor_enum():
    # under -S, re and the enum it imports were about a third of importing
    # the CLI; catalogfile.is_int reads --r and --m, and only the patterns
    # of catalog files import re, on first use
    code = (
        "import sys\n"
        "import spinr.cli\n"
        "spinr.cli.main(['classify', 'S4:SO(5)', '--r', '3'])\n"
        "spinr.cli.main(['holonomy', 'U(2)', '--m', '4', '--r', '2'])\n"
        "print(sorted({'re', 'enum'} & set(sys.modules)))\n"
    )
    out = _child(code, "-S")
    assert out[0] == "# Invariant structures on S4:SO(5) at twist rank 3"
    assert out[-2:] == ["[]", ""]


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
    paths = [p for d in ("src", "tests", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=(3, 10))
