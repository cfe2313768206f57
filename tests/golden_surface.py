"""The golden decision surface: a hash of every answer spinr gives.

The CLI half runs each command in process and keeps the sha256 of its
stdout, of its stderr and of its exit code:

* ``table1`` in markdown and JSON;
* ``classify`` on every bundled space at every r from 0 to n + 1, and
  ``holonomy`` on every bundled record at every r from 0 to m + 1, both
  in markdown and JSON, and ``holonomy`` again under the ASCII spelling
  ``.`` of a middle-dot name;
* ``spin-type`` on every bundled space: plain, JSON and ``--strict``;
* unknown names, and every case of ``test_cli.FAILURE_MODES``, with its
  malformed or special catalog written to a file under the case's fixed
  name, which the manifest key holds.

The library half hashes the ``repr`` of ``invariant_spin_type`` on every
space, and of ``holonomy_lift`` on every holonomy record, of the
benchmark's ``scale`` and ``load`` catalogs.

``tests/test_golden.py`` compares both with ``golden/manifest.json``.  A
change that alters an answer on purpose rewrites the manifest with::

    PYTHONPATH=src python tests/golden_surface.py

and names the commands whose entries changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden" / "manifest.json"
FORMATS = ("md", "json")
# no $SPINR_CATALOG, so the bundled catalog answers; help is laid out at
# 80 columns whatever $COLUMNS says
ENV = {"SPINR_CATALOG": None}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bundled_commands(catalog):
    """Every command on the bundled catalog, as argument tuples."""
    yield ("table1",)
    yield ("table1", "--format", "json")
    for space in catalog.spaces.values():
        for r in range(space.n + 2):
            for fmt in FORMATS:
                yield ("classify", space.name, "--r", str(r), "--format", fmt)
        yield ("spin-type", space.name)
        yield ("spin-type", space.name, "--format", "json")
        yield ("spin-type", space.name, "--strict")
    for group, m in catalog.holonomies:
        for name in dict.fromkeys((group, group.replace("·", "."))):
            for r in range(m + 2):
                for fmt in FORMATS:
                    yield ("holonomy", name, "--m", str(m), "--r", str(r),
                           "--format", fmt)
    yield ("classify", "S42:E8", "--r", "1")
    yield ("spin-type", "S42:E8")
    yield ("holonomy", "E8", "--m", "248", "--r", "1")
    yield ("holonomy", "SO(5)", "--m", "99", "--r", "2")


def cli_manifest() -> dict[str, list[str]]:
    """' '.join(args) -> sha256 of stdout, stderr and exit code."""
    from clirunner import run
    from spinr.catalog import load_default
    from test_cli import FAILURE_MODES, catalog_args

    out = {}
    with tempfile.TemporaryDirectory() as tmp:

        def record(args):
            res = run(*args, env=ENV)
            if res.exception is not None:
                raise res.exception
            texts = (res.stdout, res.stderr, str(res.exit_code))
            key = " ".join(args).replace(tmp, "<dir>")
            out[key] = [_sha(t.replace(tmp, "<dir>")) for t in texts]

        for args in bundled_commands(load_default()):
            record(args)
        for catalog, args, _ in FAILURE_MODES:
            record(catalog_args(catalog, args, Path(tmp)))
    return out


def _holonomy_outcome(catalog, group: str, m: int, r: int) -> str:
    from spinr.catalogfile import SpinrError
    from spinr.spaces import holonomy_lift

    try:
        return repr(holonomy_lift(catalog, group, m, r))
    except SpinrError as err:
        return f"{type(err).__name__}: {err}"


def library_manifest() -> dict[str, str]:
    """'<function> <catalog>' -> sha256 of the answers' reprs, one a line.

    holonomy_lift is asked at r = 1, 2, m, m + 1 and at every rank where
    the group has a listed family: every rank at which a family, the
    diagonal witness or the rule engine's threshold can change the
    verdict, without a call at each of the load catalog's 6,000 ranks.
    """
    sys.path.append(str(HERE.parent / "perfbench"))
    from gencat import load_catalog, scale_catalog
    from spinr.catalog import loads
    from spinr.spaces import invariant_spin_type

    out = {}
    for name, generated in (("scale", scale_catalog(200, 1)),
                            ("load", load_catalog(36, 1))):
        cat = loads(generated.text)
        spin = [repr(invariant_spin_type(cat, s)) for s in cat.spaces.values()]
        lifts = [
            _holonomy_outcome(cat, group, m, r)
            for group, m in cat.holonomies
            for r in sorted({1, 2, m, m + 1, *cat.listed_ranks(group)})
        ]
        out[f"invariant_spin_type {name}"] = _sha("\n".join(spin))
        if lifts:  # the scale catalog has no holonomy records
            out[f"holonomy_lift {name}"] = _sha("\n".join(lifts))
    return out


def manifest() -> dict[str, dict]:
    return {"cli": cli_manifest(), "library": library_manifest()}


def _dump(data: dict[str, dict]) -> str:
    """JSON with one entry a line, so a diff names the changed commands."""
    sections = []
    for section, entries in data.items():
        lines = ",\n".join(
            f"  {json.dumps(k, ensure_ascii=False)}: {json.dumps(v)}"
            for k, v in sorted(entries.items())
        )
        sections.append(f"{json.dumps(section)}: {{\n{lines}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(_dump(manifest()), encoding="utf-8")
    print(f"wrote {MANIFEST}")
