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

import argparse
import codecs
import os
import sys

from .catalog import Catalog, CatalogReadError, load_default, read_data
from .catalogfile import INT_RE, CatalogParseError, SpinrError
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


def _ascii_int(text: str) -> int:
    """An integer as the catalog reads one (INT_RE), not as int() does."""
    if INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # longer than Python's int-string limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


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


def _citations(catalog: Catalog, space=None, families=()) -> list[str]:
    cites = []
    if space is not None:
        cites.append(f"{space.name}: {space.provenance}")
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
            computed = res.lo if res.status == "exact" else None
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


# --- argument parsing ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_USAGE instead of argparse's 2, which
    this CLI uses for an unknown name."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parser(prog: str) -> _Parser:
    # allow_abbrev=False everywhere: `--form json` is a usage error, not
    # `--format json`
    parser = _Parser(
        prog=prog,
        allow_abbrev=False,
        description="Exact decisions about invariant spin^r structures on "
        "homogeneous spaces.",
    )
    parser.add_argument(
        "--catalog",
        dest="catalog_path",
        metavar="PATH",
        help="Path to a catalog file (default: bundled; also $SPINR_CATALOG).",
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(fn):
        """A subcommand running fn, named after it, with its docstring
        as help."""
        doc = " ".join(fn.__doc__.split())
        sub = commands.add_parser(
            fn.__name__.replace("_", "-"), help=doc, description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=fn)
        return sub

    r_help = "Twist rank r >= 1."
    command(table1)
    sub = command(classify)
    sub.add_argument("space", metavar="SPACE")
    sub.add_argument("--r", type=_ascii_int, required=True, help=r_help)
    sub = command(spin_type)
    sub.add_argument("space", metavar="SPACE")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="Treat a bounded (non-exact) result as failure (exit 1).",
    )
    sub = command(holonomy)
    sub.add_argument("group", metavar="GROUP")
    sub.add_argument(
        "--m", type=_ascii_int, required=True, help="Manifold dimension m >= 1."
    )
    sub.add_argument("--r", type=_ascii_int, required=True, help=r_help)
    for sub in commands.choices.values():
        sub.add_argument(
            "--format", dest="fmt", choices=["md", "json"], default="md",
            help="Output format.",
        )
    return parser


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
    if argv[-1:] == ["--"]:
        del argv[-1]  # ends the options and adds nothing; argparse would refuse it
    try:
        kwargs = vars(_parser(prog_name).parse_args(argv))
        kwargs.pop("run")(**kwargs)
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


if __name__ == "__main__":
    main()
