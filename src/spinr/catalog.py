"""Catalog assembly: load a catalog file into typed records and run the
cross-record consistency checks.

One file carries four record types: ``group``, ``repfamily``, ``space``
and ``holonomy``.  Groups must parse before anything that refers to
them; the loader therefore builds in two passes regardless of record
order in the file.  The bundled catalog is built in code by
:mod:`spinr.bundled`, and can be overridden per call, by flag, or with
the SPINR_CATALOG environment variable.
"""

from __future__ import annotations

import gc
import os

from . import catalogfile
from .catalogfile import CatalogParseError, SpinrError
from .liecat import CompactGroupRec, NotInCatalogError, build_group
from .repcat import OrthRepFamily, build_family
from .spaces import HolonomyRec, HomSpaceRec, build_holonomy, build_space
from .spaces import build_scan_table

ENV_CATALOG = "SPINR_CATALOG"
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_KNOWN_RECORDS = ("group", "repfamily", "space", "holonomy")


class CatalogReadError(SpinrError, OSError):
    """A catalog file that cannot be opened or read."""


def normalize_name(name: str) -> str:
    """Group names use the middle dot; accept '.' from ASCII keyboards."""
    return name.strip().replace(".", "·")


class Catalog:
    """The loaded records, a family index and scan tables built from them.

    Read-only, so neither can fall out of step with the records; build
    a new Catalog to change a record.  Scan tables fill from the records
    alone, as queries first bring a stabiliser or a parity vector.
    """

    _FIELDS = ("version", "groups", "families", "spaces", "holonomies", "path")
    __slots__ = _FIELDS + ("_families_by_target", "_ranks_by_domain", "_scan_tables")

    def __init__(
        self,
        version: int,
        groups: dict[str, CompactGroupRec],
        families: tuple[OrthRepFamily, ...],
        spaces: dict[str, HomSpaceRec],
        holonomies: dict[tuple[str, int], HolonomyRec],
        path: str = "<catalog>",
    ):
        # (domain, target_r) -> the families listed there, in file order
        index: dict[tuple[str, int], list[OrthRepFamily]] = {}
        for fam in families:
            index.setdefault((fam.domain, fam.target_r), []).append(fam)
        # domain -> the ranks with a listed family, ascending
        ranks: dict[str, list[int]] = {}
        for domain, r in index:
            ranks.setdefault(domain, []).append(r)
        values = (version, groups, families, spaces, holonomies, path)
        for name, value in zip(self._FIELDS, values):
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "_families_by_target", {k: tuple(v) for k, v in index.items()}
        )
        object.__setattr__(
            self, "_ranks_by_domain", {d: tuple(sorted(v)) for d, v in ranks.items()}
        )
        object.__setattr__(self, "_scan_tables", {})

    def __setattr__(self, *args):
        raise AttributeError("Catalog is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not Catalog:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # the record dicts are mutable

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._FIELDS, self._values()))
        return f"Catalog({body})"

    def lookup(self, name: str) -> CompactGroupRec:
        key = normalize_name(name)
        if key not in self.groups:
            raise NotInCatalogError("group", name, self.groups)
        return self.groups[key]

    def space(self, name: str) -> HomSpaceRec:
        key = normalize_name(name)
        if key not in self.spaces:
            raise NotInCatalogError("space", name, self.spaces)
        return self.spaces[key]

    def holonomy(self, group: str, m: int) -> HolonomyRec:
        key = (normalize_name(group), m)
        if key not in self.holonomies:
            available = [f"{g} (m={mm})" for g, mm in sorted(self.holonomies)]
            raise NotInCatalogError("holonomy record", f"{group} (m={m})", available)
        return self.holonomies[key]

    def families_at(self, domain: str, r: int) -> tuple[OrthRepFamily, ...]:
        """The families listed at (domain, r), in file order."""
        return self._families_by_target.get((domain, r), ())

    def listed_ranks(self, domain: str) -> tuple[int, ...]:
        """The ranks r at which (domain, r) lists a family, ascending."""
        return self._ranks_by_domain.get(domain, ())

    def scan_table(self, name: str) -> tuple:
        """spaces.build_scan_table(self, name), built once; == and repr skip it."""
        tables = self._scan_tables
        return tables.get(name) or tables.setdefault(name, build_scan_table(self, name))


def loads(text: str, path: str = "<catalog>") -> Catalog:
    # Everything built here is an acyclic tuple, list or dict, freed by
    # reference counting, so cyclic collections during a load find nothing.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _assemble(catalogfile.parse(text, path), path)
    except CatalogParseError as err:
        if err.path == path:
            raise
        # the record builders see entries only; name the file they came from
        raise CatalogParseError(err.message, err.line, path) from err
    finally:
        if enabled:
            gc.enable()


def _assemble(entries: list[tuple], path: str) -> Catalog:
    # The builders make every check that a record and the groups it names
    # allow; here are the rules that span records.  Each builder is read as
    # a module global at its call, so that perfbench/tracer.py can wrap it.
    version = None
    records = {key: {} for key in _KNOWN_RECORDS}
    groups = records["group"]
    deferred = []
    for entry in entries:
        key, line, _, children = entry
        if key == "catalog_version":
            if version is not None:
                raise CatalogParseError("duplicate key 'catalog_version'", line, path)
            version = catalogfile.entry_value(entry, int)
            continue
        if key not in _KNOWN_RECORDS:
            raise CatalogParseError(f"unknown record type '{key}'", line, path)
        if children is None:
            raise CatalogParseError(f"record '{key}' must be a block", line, path)
        if key == "group":
            _add(records, key, build_group(entry), line, path)
        else:
            deferred.append(entry)
    if version is None:
        raise CatalogParseError("missing or non-integer catalog_version", 1, path)

    for entry in deferred:
        key, line, _, _ = entry
        if key == "repfamily":
            rec = build_family(entry, groups)
        elif key == "space":
            rec = build_space(entry, groups)
        else:
            rec = build_holonomy(entry, groups)
        _add(records, key, rec, line, path)

    return Catalog(
        version=version,
        groups=groups,
        families=tuple(records["repfamily"].values()),
        spaces=records["space"],
        holonomies=records["holonomy"],
        path=path,
    )


def _add(records: dict, kind: str, rec, line: int, path: str):
    """File rec under its key, refusing a duplicate key, and a group or
    space name that no lookup can reach: every lookup reads its argument
    through normalize_name, so the stored name must be normal."""
    key = (rec.group, rec.m) if kind == "holonomy" else rec.name
    if kind in ("group", "space") and normalize_name(key) != key:
        raise CatalogParseError(
            f"{kind} name {key!r} cannot be looked up: lookups read it as "
            f"{normalize_name(key)!r}",
            line,
            path,
        )
    if key in records[kind]:
        if kind == "holonomy":
            what = f"holonomy record {key}"
        else:
            what = f"{'family' if kind == 'repfamily' else kind} '{key}'"
        raise CatalogParseError(f"duplicate {what}", line, path)
    records[kind][key] = rec


# the most bytes a catalog or data file may hold; the largest catalog
# perfbench/gencat.py writes holds about 148 KB
MAX_FILE_BYTES = 64 * 2**20


def _read(path: str) -> bytes:
    """The file's bytes; an OSError, or more than MAX_FILE_BYTES bytes
    (say /dev/zero), becomes a CatalogReadError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_FILE_BYTES + 1)
    except OSError as err:
        raise CatalogReadError(err.errno, err.strerror, err.filename) from err
    if len(data) > MAX_FILE_BYTES:
        raise CatalogReadError(f"{path}: more than {MAX_FILE_BYTES} bytes")
    return data


def read_data(name: str) -> str:
    """The text of the package data file ``name``, e.g. "table1_expected.json"."""
    return _read(os.path.join(DATA_DIR, name)).decode("utf-8")


def load(path: str) -> Catalog:
    data = _read(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise CatalogParseError(
            f"not UTF-8 text: byte {data[err.start]:#04x} ({err.reason})",
            # number lines as the parser does, by str.splitlines; the "x"
            # stands for the bad byte, so a break just before it counts
            len((data[: err.start].decode("utf-8") + "x").splitlines()),
            path,
        ) from err
    return loads(text, path)


_default: Catalog | None = None


def load_default(path: str | None = None) -> Catalog:
    """Resolve the catalog: explicit path, else $SPINR_CATALOG, else the
    bundled catalog that :mod:`spinr.bundled` builds (cached).  An empty
    path or an empty $SPINR_CATALOG counts as unset.  This is the only
    place that reads $SPINR_CATALOG."""
    global _default
    if path:
        return load(path)
    env = os.environ.get(ENV_CATALOG)
    if env:
        return load(env)
    if _default is None:
        from .bundled import build_catalog  # a catalog file never needs it

        _default = build_catalog()
    return _default
