"""Command-line front end.

Four subcommands, each available as markdown (default) or JSON:

* ``table1``   -- recompute the homogeneous-sphere table and compare it
  against the bundled regression fixture (nonzero exit on any drift);
* ``classify`` -- invariant structures on one space at one twist rank;
* ``spin-type`` -- minimal twist rank of a space;
* ``holonomy`` -- tri-state holonomy lifting verdict.

The usual command line, ``[--catalog PATH] COMMAND`` and then the
command's positional and options, is read without argparse; help, usage
errors and every other spelling go to an argparse parser built from the
same table (see "reading the command line" below).

Exit codes: 0 success; 1 verdict mismatch (a table regression, or
``--strict`` on a bounded result); 2 unknown name; 3 theorem-hypothesis
violation (a disconnected stabiliser or holonomy group); 4 catalog error
(a file that cannot be read or parsed, holds more than 64 MiB, or whose
data contradicts the existence theorem); 5 invalid argument (``--r`` or
``--m`` below 1); 6 usage error (a missing or unknown subcommand or
option, or an option value of the wrong type or outside its choices);
141 standard output closed before the answer was written, closed at
start, or open for reading only (128 + SIGPIPE, as a shell reports for
``cat`` in the same pipe).  A closed stderr loses the message, not the
code.  Codes 2 to 5 come from ``EXIT_CODES``, keyed by the
``SpinrError`` subclass a command raised.
"""

from __future__ import annotations

import codecs
import errno
import gc
import os
import sys

from .abelian import DomainMismatchError
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
    DomainMismatchError: (4, "catalog error: "),
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
    if sys.stdout is None:  # the process started with stdout closed (>&-)
        raise BrokenPipeError
    try:
        print(text, flush=True)  # ahead of any stderr line that follows
    except OSError as err:  # EBADF: open for reading only (1</dev/null)
        raise BrokenPipeError if err.errno == errno.EBADF else err


def _warn(*lines: str):
    """Print lines on stderr.  A closed stderr (2>&-, or 2</dev/null,
    which leaves it open for reading only) loses them, not the exit code
    that follows."""
    try:
        sys.stderr.write("".join(f"{line}\n" for line in lines))
    except (AttributeError, OSError):  # stderr is None, or cannot be written
        pass


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
        "certificate": str(c.certificate),
        "rejected": _rejected_dict(c.rejected),
    }


def _citations(catalog: Catalog, space, classes) -> list[str]:
    """The space's provenance, then the certificate of each catalog family
    that the classes come from, in file order (the classes' own order)."""
    names = {c.family for c in classes}
    return [f"{space.name}: {space.provenance}"] + [
        f"{fam.name}: {fam.certificate}" for fam in catalog.families if fam.name in names
    ]


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


def _md_class_lines(classes: list[dict]) -> list[str]:
    """A "- family [label or constraint]" line for each class."""
    return [
        f"- {c['family']}" + (f" [{tag}]" if (tag := c["label"] or c["constraint"]) else "")
        for c in classes
    ]


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
        lines += _md_class_lines(res["witnesses"])
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
        lines += _md_class_lines(res["via"])
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
        _warn("", "table regression FAILED:", *(f"  {m}" for m in mismatches))
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
        "citations": _citations(catalog, rec, result.classes),
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
        "citations": _citations(catalog, rec, res.witnesses),
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
            "certificate": str(verdict.certificate),
            "rejected": _rejected_dict(verdict.rejected),
        },
        "citations": [f"{hol.group} (m={hol.m}): {hol.provenance}"],
    }
    _emit(record, fmt, _md_holonomy)


# --- reading the command line --------------------------------------------------
#
# _read_argv reads the usual form itself: [--catalog PATH] COMMAND, then
# the command's positional and options in any order, each option as
# "--opt VALUE", "--opt=VALUE" or "--flag", the last of a repeated option
# winning, and no bare value starting with "-".  Every other argv (help,
# any usage error, any value refused, any other spelling) goes to an
# argparse parser built from the same table, so only those pay for the
# import.  tests/oracles.argparse_cli builds the parser independently and
# checks both paths against it.

# An option: (flag, keyword, metavar, read, default, help).  A flag with
# no metavar takes no value and stores True; read is None for any text,
# int for an integer read by _ascii_int, or the tuple of allowed values;
# a default of ... makes the option required.
_CATALOG = ("--catalog", "catalog_path", "PATH", None, None,
            "Path to a catalog file (default: bundled; also $SPINR_CATALOG).")
_FORMAT = ("--format", "fmt", "{md,json}", ("md", "json"), "md", "Output format.")
_R = ("--r", "r", "R", int, ..., "Twist rank r >= 1.")

# each command: (function, positional, options).  A command's help is its
# function's docstring; its positional is read into the keyword of its
# lower-cased name
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


def _read_argv(argv: list, prog: str):
    """(command function, keyword arguments) read from argv: the usual
    form here, any other argv by _read_with_argparse."""
    run, positional, options = None, None, {"--catalog": _CATALOG}
    kwargs = {"catalog_path": None}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if run is None and token in _COMMANDS:
                run, positional, listed = _COMMANDS[token]
                options = {o[0]: o for o in listed}
                kwargs.update((o[1], o[4]) for o in listed if o[4] is not ...)
            elif positional:
                kwargs[positional.lower()] = token
                positional = None
            else:  # an unknown command, or a second positional
                break
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            break
        _, key, metavar, read, _, _ = options[flag]
        if metavar is None:  # a flag
            if eq:
                break
            kwargs[key] = True
            continue
        if not eq:
            value = next(tokens, "-")  # "-" stands for a missing value
            if value.startswith("-"):
                break
        if read is int:
            value = _ascii_int(value)
            if value is None:
                break
        elif read and value not in read:
            break
        kwargs[key] = value
    else:  # every token read
        if run and not positional and all(o[1] in kwargs for o in options.values()):
            return run, kwargs
    return _read_with_argparse(argv, prog)


def _read_with_argparse(argv: list, prog: str):
    """(command function, keyword arguments) read by an argparse parser
    built from _COMMANDS.  Help prints at 80 columns, whatever $COLUMNS
    says, and exits 0; a usage error prints the usage line and exits
    EXIT_USAGE."""
    import argparse  # only help, usage errors and odd spellings pay for it

    class Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse's lines, and EXIT_USAGE for its 2
            self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")

    def integer(text):
        value = _ascii_int(text)
        if value is None:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        return value

    def add(parser, options):
        for flag, key, metavar, read, default, text in options:
            if metavar is None:
                parser.add_argument(flag, dest=key, action="store_true", help=text)
                continue
            parser.add_argument(
                flag, dest=key, metavar=metavar, help=text,
                type=integer if read is int else None,
                choices=read if isinstance(read, tuple) else None,
                required=default is ..., default=None if default is ... else default,
            )

    common = {"allow_abbrev": False,
              "formatter_class": lambda prog: argparse.HelpFormatter(prog, width=78)}
    parser = Parser(prog=prog, description=_DESCRIPTION, **common)
    add(parser, (_CATALOG,))
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, (run, positional, options) in _COMMANDS.items():
        sub = commands.add_parser(name, help=_doc(run), description=_doc(run), **common)
        sub.set_defaults(run=run)
        if positional:
            sub.add_argument(positional.lower(), metavar=positional)
        add(sub, options)
    if argv[-1:] == ["--"]:
        argv = argv[:-1]  # ends the options and adds nothing
    kwargs = vars(parser.parse_args(argv))
    return kwargs.pop("run"), kwargs


def _utf8_if_ascii(stream):
    """Write UTF-8 where the locale says ASCII (LC_ALL=C with UTF-8 mode
    off), instead of failing on the middle dot of a group name or the
    table's "≠"; a stream that is None (closed at start) is left so."""
    if stream is None or not stream.encoding:
        return
    if codecs.lookup(stream.encoding).name == "ascii":
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
        _warn(f"{prefix}{err}")
        sys.exit(code)
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the
        # interpreter's final flush does not fail again
        if sys.stdout is not None:
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
