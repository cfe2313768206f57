"""Command-line front end.

Four subcommands, each available as markdown (default) or JSON:

* ``table1``   -- recompute the homogeneous-sphere table and compare it
  against the bundled regression fixture (nonzero exit on any drift);
* ``classify`` -- invariant structures on one space at one twist rank;
* ``spin-type`` -- minimal twist rank of a space;
* ``holonomy`` -- tri-state holonomy lifting verdict.

Exit codes: 0 success; 1 verdict mismatch (a table regression, or
``--strict`` on a bounded result); 2 unknown name; 3 theorem-hypothesis
violation (a disconnected stabiliser or holonomy group); 4 catalog error
(a file that cannot be read or parsed, or whose data contradicts the
existence theorem); 5 invalid argument (``--r`` or ``--m`` below 1);
6 usage error (a missing or unknown subcommand or option, or an option
value of the wrong type or outside its choices); 141 standard output
closed before the answer was written (128 + SIGPIPE, as a shell reports
for ``cat`` in the same pipe).  Codes 2 to 5 come from ``EXIT_CODES``,
keyed by the ``SpinrError`` subclass a command raised.
"""

from __future__ import annotations

import codecs
import gc
import os
import sys

from .catalog import Catalog, CatalogReadError, load_default, read_data
from .catalogfile import CatalogParseError, SpinrError, is_int
from .liecat import NotInCatalogError
from .spaces import (
    Classification,
    HolonomyVerdict,
    HypothesisError,
    InconsistentCatalogError,
    InvalidArgumentError,
    classify as classify_op,
    holonomy_lift,
    invariant_spin_type,
)

EXIT_MISMATCH = 1
EXIT_USAGE = 6
EXIT_CLOSED_STDOUT = 141

# Every SpinrError subclass -> its exit code and the prefix of its one
# stderr line.
EXIT_CODES = {
    NotInCatalogError: (2, ""),
    HypothesisError: (3, "hypothesis violation: "),
    CatalogParseError: (4, "catalog error: "),
    CatalogReadError: (4, "catalog error: "),
    InconsistentCatalogError: (4, "catalog error: "),
    InvalidArgumentError: (5, "invalid argument: "),
}


def _ascii_int(text: str):
    """An integer as the catalog reads one (is_int), not as int() does;
    None for any other text."""
    if is_int(text):
        try:
            return int(text)
        except ValueError:  # longer than Python's int-string limit
            pass
    return None


def _require_positive(option: str, value: int):
    if value < 1:
        raise InvalidArgumentError(f"{option} must be >= 1, got {value}")


def _emit(record: dict, fmt: str, render_md):
    if fmt == "json":
        import json  # only JSON output pays for the import

        text = json.dumps(record, ensure_ascii=False, sort_keys=True)
    else:
        text = render_md(record)
    print(text, flush=True)  # ahead of any stderr line that follows


# --- record builders -----------------------------------------------------------

def _class_dict(c) -> dict:
    return {
        "family": c.family,
        "label": c.label,
        "constraint": str(c.constraint) if c.constraint is not None else None,
        "extends_to": c.extends_to,
    }


def _rejected_dict(rej) -> list[dict]:
    return [
        {
            "family": r.family,
            "witnesses": [
                {"generator": g, "image": list(img)} for g, img in r.witnesses
            ],
        }
        for r in rej
    ]


def _classification_dict(c: Classification) -> dict:
    return {
        "classes": [_class_dict(x) for x in c.classes],
        "count": "infinite" if c.count is None else c.count,
        "complete": c.complete,
        "certificate": c.certificate,
        "rejected": _rejected_dict(c.rejected),
    }


def _citations(catalog: Catalog, space, families) -> list[str]:
    cites = [f"{space.name}: {space.provenance}"]
    seen = set()
    for fam_name in families:
        for fam in catalog.families:
            if fam.name == fam_name and fam.name not in seen:
                seen.add(fam.name)
                cites.append(f"{fam.name}: {fam.certificate}")
    return cites


# --- markdown renderers -----------------------------------------------------------

def _md_classification(record: dict) -> str:
    q = record["query"]
    res = record["result"]
    lines = [
        f"# Invariant structures on {q['space']} at twist rank {q['r']}",
        "",
        f"- stabiliser: {record['space']['H']} (inside {record['space']['G']}, "
        f"dimension {record['space']['n']})",
        f"- classes: {res['count']}",
        f"- complete: {res['complete']}",
    ]
    if res["classes"]:
        lines.append("")
        lines.append("| family | class | parameter |")
        lines.append("|---|---|---|")
        for c in res["classes"]:
            lines.append(
                f"| {c['family']} | {c['label'] or '-'} | {c['constraint'] or '-'} |"
            )
    if res["rejected"]:
        lines.append("")
        lines.append("Rejected families (generator, image outside the covering image):")
        for r in res["rejected"]:
            ws = ", ".join(
                f"{w['generator']} -> {tuple(w['image'])}" for w in r["witnesses"]
            )
            lines.append(f"- {r['family']}: {ws}")
    lines.append("")
    lines.append(f"Certificate: {res['certificate']}")
    if record["citations"]:
        lines.append("")
        lines.append("Citations:")
        lines.extend(f"- {c}" for c in record["citations"])
    return "\n".join(lines)


def _md_spin_type(record: dict) -> str:
    res = record["result"]
    if res["status"] == "exact":
        head = f"invariant spin type of {record['query']['space']} = {res['value']}"
    else:
        head = (
            f"invariant spin type of {record['query']['space']} in "
            f"[{res['lo']}, {res['hi']}] (bounded: enumeration incomplete)"
        )
    lines = [head, f"status: {res['status']}"]
    if res["witnesses"]:
        lines.append("witnesses at the upper end:")
        for c in res["witnesses"]:
            tag = c["label"] or c["constraint"] or ""
            lines.append(f"- {c['family']}" + (f" [{tag}]" if tag else ""))
    for cite in record["citations"]:
        lines.append(f"citation: {cite}")
    return "\n".join(lines)


def _md_holonomy(record: dict) -> str:
    q = record["query"]
    res = record["result"]
    lines = [
        f"holonomy {q['group']} on R^{q['m']} lifts at twist rank {q['r']}: "
        f"{res['verdict']}"
    ]
    if res["via"]:
        lines.append("via:")
        for c in res["via"]:
            tag = c["label"] or c["constraint"] or ""
            lines.append(f"- {c['family']}" + (f" [{tag}]" if tag else ""))
    lines.append(f"complete enumeration: {res['complete']}")
    return "\n".join(lines)


def _md_table1(record: dict) -> str:
    lines = [
        f"# {record['title']}",
        "",
        "| Space | Group | Invariant spin type | Checked instances |",
        "|---|---|---|---|",
    ]
    for row in record["rows"]:
        inst = ", ".join(
            f"{i['space']} -> {i['computed']}" for i in row["instances"]
        )
        lines.append(
            f"| {row['space']} | {row['group']} | {row['spin_type']} | {inst} |"
        )
    lines.append("")
    lines.append(f"regression match: {record['match']}")
    return "\n".join(lines)


# --- commands ------------------------------------------------------------------------

def table1(catalog_path, fmt):
    """Recompute the homogeneous-sphere table and diff it against the
    bundled regression fixture."""
    import json

    catalog = load_default(catalog_path)
    fixture = json.loads(read_data("table1_expected.json"))
    rows = []
    mismatches = []
    for row in fixture["rows"]:
        out_row = {
            "space": row["space"],
            "group": row["group"],
            "spin_type": row["spin_type"],
            "instances": [],
        }
        for name, expected in row["instances"]:
            res = invariant_spin_type(catalog, catalog.space(name))
            computed = res.value
            out_row["instances"].append(
                {
                    "space": name,
                    "computed": computed,
                    "expected": expected,
                    "status": res.status,
                }
            )
            if computed != expected:
                mismatches.append(
                    f"{name}: computed {computed} ({res.status}), "
                    f"expected {expected}"
                )
        rows.append(out_row)
    record = {
        "command": "table1",
        "title": fixture["title"],
        "rows": rows,
        "match": not mismatches,
    }
    _emit(record, fmt, _md_table1)
    if mismatches:
        print(file=sys.stderr)
        print("table regression FAILED:", file=sys.stderr)
        for m in mismatches:
            print(f"  {m}", file=sys.stderr)
        sys.exit(EXIT_MISMATCH)


def classify(catalog_path, space, r, fmt):
    """Classify invariant structures on SPACE (e.g. 'S4:SO(5)') at
    twist rank r."""
    _require_positive("--r", r)
    catalog = load_default(catalog_path)
    rec = catalog.space(space)
    result = classify_op(catalog, rec, r)
    record = {
        "command": "classify",
        "query": {"space": rec.name, "r": r},
        "space": {"name": rec.name, "G": rec.G, "H": rec.H, "n": rec.n},
        "result": _classification_dict(result),
        "citations": _citations(
            catalog, rec, [c.family for c in result.classes]
        ),
    }
    _emit(record, fmt, _md_classification)


def spin_type(catalog_path, space, strict, fmt):
    """Minimal twist rank of SPACE admitting an invariant structure."""
    catalog = load_default(catalog_path)
    rec = catalog.space(space)
    res = invariant_spin_type(catalog, rec)
    record = {
        "command": "spin-type",
        "query": {"space": rec.name},
        "result": {
            "status": res.status,
            "value": res.value,
            "lo": res.lo,
            "hi": res.hi,
            "witnesses": [_class_dict(c) for c in res.witnesses],
        },
        "citations": _citations(catalog, rec, [c.family for c in res.witnesses]),
    }
    _emit(record, fmt, _md_spin_type)
    if strict and res.status != "exact":
        sys.exit(EXIT_MISMATCH)


def holonomy(catalog_path, group, m, r, fmt):
    """Does the holonomy representation of GROUP on R^m lift at twist
    rank r?  Prints yes/no/unknown."""
    _require_positive("--m", m)
    _require_positive("--r", r)
    catalog = load_default(catalog_path)
    verdict: HolonomyVerdict = holonomy_lift(catalog, group, m, r)
    hol = catalog.holonomy(group, m)
    record = {
        "command": "holonomy",
        "query": {"group": hol.group, "m": m, "r": r},
        "result": {
            "verdict": verdict.verdict,
            "via": [_class_dict(c) for c in verdict.via],
            "complete": verdict.complete,
            "certificate": verdict.certificate,
            "rejected": _rejected_dict(verdict.rejected),
        },
        "citations": [f"{hol.group} (m={hol.m}): {hol.provenance}"],
    }
    _emit(record, fmt, _md_holonomy)


# --- reading the command line --------------------------------------------------
#
# The reader keeps every rule of the argparse parser it replaced, which
# tests/oracles.argparse_cli still builds to check it against: no option
# is abbreviated, "--opt=value" gives a value, the last of a repeated
# option wins, -h or --help prints help where it is read, --catalog comes
# before the command, every token after "--" is an argument, and a usage
# error prints argparse's usage and error lines.  Help is argparse's
# rendering at 80 columns, whatever the terminal.

# An option: (flag, keyword, metavar, read, default, help).  A flag with
# no metavar takes no value and stores True; read is None for any text,
# int for an integer read by _ascii_int, or the tuple of allowed values;
# a default of ... makes the option required.
_FORMAT = ("--format", "fmt", "{md,json}", ("md", "json"), "md", "Output format.")
_R = ("--r", "r", "R", int, ..., "Twist rank r >= 1.")
_HELP = ("-h", None, None, None, None, "show this help message and exit")

# the program, and each command: (function, positional, options).  A
# command's help is its function's docstring; its positional is read
# into the keyword of its lower-cased name
_PROGRAM = (None, "COMMAND", (
    ("--catalog", "catalog_path", "PATH", None, None,
     "Path to a catalog file (default: bundled; also $SPINR_CATALOG)."),
))
_COMMANDS = {
    "table1": (table1, None, (_FORMAT,)),
    "classify": (classify, "SPACE", (_R, _FORMAT)),
    "spin-type": (spin_type, "SPACE", (
        ("--strict", "strict", None, None, False,
         "Treat a bounded (non-exact) result as failure (exit 1)."),
        _FORMAT,
    )),
    "holonomy": (holonomy, "GROUP", (
        ("--m", "m", "M", int, ..., "Manifold dimension m >= 1."), _R, _FORMAT,
    )),
}
_DESCRIPTION = (
    "Exact decisions about invariant spin^r structures on homogeneous spaces."
)


def _doc(fn) -> str:
    return " ".join(fn.__doc__.split())


def _usage(prog, run, positional, options) -> str:
    parts = [f"usage: {prog} [-h]"]
    for flag, _, metavar, _, default, _ in options:
        part = f"{flag} {metavar}" if metavar else flag
        parts.append(part if default is ... else f"[{part}]")
    if positional:
        parts.append(positional if run else "COMMAND ...")
    return " ".join(parts)


def _help(prog, run, positional, options) -> str:
    """The help screen of the program (run None) or of one command."""
    import textwrap  # only help pays for it

    rows = [(2, "-h, --help", _HELP[-1])]
    rows += [(2, f"{flag} {metavar}" if metavar else flag, text)
             for flag, _, metavar, _, _, text in options]
    sections = [("options", rows)]
    if run is None:
        commands = [(4, name, _doc(fn)) for name, (fn, *_) in _COMMANDS.items()]
        sections.append(("commands", [(2, positional, None), *commands]))
    elif positional:
        sections.insert(0, ("positional arguments", [(2, positional, None)]))
    column = min(max(i + len(name) for _, rs in sections for i, name, _ in rs) + 2, 24)
    blocks = [_usage(prog, run, positional, options),
              textwrap.fill(_doc(run) if run else _DESCRIPTION, 78)]
    for title, rs in sections:
        lines = [f"{title}:"]
        for indent, name, text in rs:
            head = " " * indent + name
            if text is None:
                lines.append(head)
                continue
            first, *more = textwrap.wrap(text, 78 - column)
            lines.append(head.ljust(column) + first)
            lines += [" " * column + line for line in more]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _negative_number(token: str) -> bool:
    # argparse's ^-\d+$|^-\d*\.\d+$, whose $ also matches before a final
    # newline; a token that looks like one is an argument
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and fraction.isdecimal()
    return whole.isdecimal()


def _flags(options) -> dict:
    return {"-h": _HELP, "--help": _HELP, **{o[0]: o for o in options}}


def _kind(token: str, flags: dict):
    """How a parser with these flags reads a token before any "--": None
    for an argument, else (option, or None for a flag the parser does not
    know; the value given with "=" or glued to -h, or None)."""
    if token in flags:
        return flags[token], None
    if len(token) < 2 or token[0] != "-":
        return None
    flag, eq, value = token.partition("=")
    if not (eq and flag in flags):
        if token[1] != "h":
            return None if _negative_number(token) or " " in token else (None, None)
        flag, value = "-h", token[2:]
    if flag == "-h" and value:  # argparse reads -hh as -h -h
        value = value.lstrip("h") or None
    return flags[flag], value


def _read_argv(argv: list, prog: str):
    """(command function, keyword arguments) read from argv.  Help prints
    and exits 0; a usage error prints the usage line and exits
    EXIT_USAGE."""
    if argv[-1:] == ["--"]:
        argv = argv[:-1]  # ends the options and adds nothing
    top = parser = (prog, *_PROGRAM)
    _, run, pending, options = parser  # pending: the positional not yet read
    flags = _flags(options)
    kwargs, extras = {"catalog_path": None}, []

    def fail(message, at=None):
        at = at or parser
        sys.stderr.write(f"{_usage(*at)}\n{at[0]}: error: {message}\n")
        sys.exit(EXIT_USAGE)

    def enter(name):
        """Read the rest of argv with the parser of command name."""
        nonlocal parser, run, pending, options, flags
        if name not in _COMMANDS:
            choices = ", ".join(map(repr, _COMMANDS))
            fail(f"argument COMMAND: invalid choice: {name!r} (choose from {choices})")
        parser = (f"{prog} {name}", *_COMMANDS[name])
        _, run, pending, options = parser
        flags = _flags(options)
        kwargs.update((o[1], o[4]) for o in options if o[4] is not ...)

    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--":  # every later token is an argument
            rest = argv[i:]
            if run is None and rest:
                enter(token)  # argparse takes the "--" itself for the command
            if pending and rest:
                kwargs[pending.lower()] = rest.pop(0)
                pending = None
            else:
                extras.append(token)
            extras += rest
            break
        kind = _kind(token, flags)
        if kind is None:  # an argument
            if run is None:
                enter(token)
            elif not pending:
                extras.append(token)
            else:
                kwargs[pending.lower()] = token
                pending = None
                if argv[i:i + 1] == ["--"]:
                    extras += argv[i + 1:]  # argparse's positional takes the "--" too
                    break
            continue
        option, value = kind
        if option is None:
            extras.append(token)
            continue
        flag, key, metavar, read, _, _ = option
        if metavar is None:
            if value is not None:
                name = "-h/--help" if option is _HELP else flag
                fail(f"argument {name}: ignored explicit argument {value!r}")
            if option is _HELP:
                try:
                    sys.stdout.write(_help(*parser))
                except OSError:  # help into a closed pipe exits 0, as argparse's did
                    pass
                sys.exit(0)
            kwargs[key] = True
            continue
        if value is None:
            if i == len(argv) or argv[i] == "--" or _kind(argv[i], flags):
                fail(f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        if read is int:
            number = _ascii_int(value)
            if number is None:
                fail(f"argument {flag}: invalid int value: {value!r}")
            value = number
        elif read and value not in read:
            choices = ", ".join(map(repr, read))
            fail(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        kwargs[key] = value
    missing = [pending] if pending else []
    missing += [o[0] for o in options if o[4] is ... and o[1] not in kwargs]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}", top)
    return run, kwargs


def _utf8_if_ascii(stream):
    """Write UTF-8 where the locale says ASCII (LC_ALL=C with UTF-8 mode
    off), instead of failing on the middle dot of a group name or the
    table's "≠"."""
    if stream.encoding and codecs.lookup(stream.encoding).name == "ascii":
        stream.reconfigure(encoding="utf-8", errors=stream.errors)


def main(args=None, prog_name="spinr"):
    """Parse args (default: sys.argv[1:]) and run one command.  A
    SpinrError prints one line and exits with its code in EXIT_CODES;
    this is the only place that maps errors to exit codes."""
    _utf8_if_ascii(sys.stdout)
    _utf8_if_ascii(sys.stderr)
    argv = sys.argv[1:] if args is None else list(args)
    try:
        run, kwargs = _read_argv(argv, prog_name)
        run(**kwargs)
    except SpinrError as err:
        code, prefix = EXIT_CODES[type(err)]
        print(f"{prefix}{err}", file=sys.stderr)
        sys.exit(code)
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the
        # interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_CLOSED_STDOUT)


# perfbench/cli_child.py still calls main.main(args=..., prog_name=...);
# remove this alias once it calls main(argv)
main.main = main


def entry():
    """The process entry (``python -m spinr.cli`` and the spinr script):
    main, then gc.freeze(), so that the interpreter's shutdown collections
    skip every object the process made.  The normal exit still flushes
    the streams, runs atexit and exits with main's code.  Callers in
    process run main, which leaves the collector as it found it."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    entry()
