"""Catalog assembly: load the shared data file into typed records and
run the cross-record consistency checks.

One file carries four record types: ``group``, ``repfamily``, ``space``
and ``holonomy``.  Groups must parse before anything that refers to
them; the loader therefore builds in two passes regardless of record
order in the file.  The bundled catalog ships as package data, read
from the installed files beside this module, and can be overridden per
call, by flag, or with the SPINR_CATALOG environment variable.
"""

from __future__ import annotations

import gc
import os

from . import catalogfile
from .catalogfile import CatalogParseError, SpinrError
from .liecat import CompactGroupRec, NotInCatalogError, build_group
from .repcat import OrthRepFamily, build_family, no_nontrivial_hom
from .spaces import HolonomyRec, HomSpaceRec, build_holonomy, build_space

ENV_CATALOG = "SPINR_CATALOG"
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_KNOWN_RECORDS = ("group", "repfamily", "space", "holonomy")


class CatalogReadError(SpinrError, OSError):
    """A catalog file that cannot be opened or read."""


def normalize_name(name: str) -> str:
    """Group names use the middle dot; accept '.' from ASCII keyboards."""
    return name.strip().replace(".", "·")


class Catalog:
    """The loaded records plus a family index built from them.

    Read-only, so the index cannot fall out of step with ``families``;
    build a new Catalog to change a record.
    """

    _FIELDS = ("version", "groups", "families", "spaces", "holonomies", "path")
    __slots__ = _FIELDS + ("_families_by_target", "_ranks_by_domain")

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
    version = None
    groups: dict[str, CompactGroupRec] = {}
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
            rec = build_group(entry)
            if rec.name in groups:
                raise CatalogParseError(f"duplicate group '{rec.name}'", line, path)
            groups[rec.name] = rec
        else:
            deferred.append(entry)
    if version is None:
        raise CatalogParseError("missing or non-integer catalog_version", 1, path)

    families: list[OrthRepFamily] = []
    family_names: set[str] = set()
    spaces: dict[str, HomSpaceRec] = {}
    holonomies: dict[tuple[str, int], HolonomyRec] = {}
    for entry in deferred:
        key, line, _, _ = entry
        if key == "repfamily":
            fam = build_family(entry)
            if fam.name in family_names:
                raise CatalogParseError(f"duplicate family '{fam.name}'", line, path)
            family_names.add(fam.name)
            domain = groups.get(fam.domain)
            if domain is None:
                raise CatalogParseError(
                    f"family {fam.name}: unknown domain {fam.domain}", line, path
                )
            try:
                fam.validate_against(domain)
            except ValueError as err:
                raise CatalogParseError(str(err), line, path) from err
            if no_nontrivial_hom(domain.algebra, fam.target_r):
                raise CatalogParseError(
                    f"family {fam.name} at ({fam.domain}, {fam.target_r}) "
                    f"contradicts the rule engine's non-existence proof",
                    line,
                    path,
                )
            families.append(fam)
        elif key == "space":
            rec = build_space(entry, groups)
            if rec.name in spaces:
                raise CatalogParseError(
                    f"duplicate space '{rec.name}'", line, path
                )
            spaces[rec.name] = rec
        elif key == "holonomy":
            rec = build_holonomy(entry, groups)
            pair = (rec.group, rec.m)
            if pair in holonomies:
                raise CatalogParseError(
                    f"duplicate holonomy record {pair}", line, path
                )
            holonomies[pair] = rec

    return Catalog(
        version=version,
        groups=groups,
        families=tuple(families),
        spaces=spaces,
        holonomies=holonomies,
        path=path,
    )


def _read(path: str) -> bytes:
    """The file's bytes; an OSError becomes a CatalogReadError naming it."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as err:
        raise CatalogReadError(err.errno, err.strerror, err.filename) from err


def read_data(name: str) -> str:
    """The text of the package data file ``name``, e.g. "catalog.txt"."""
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


def bundled_catalog_text() -> str:
    return read_data("catalog.txt")


def load_default(path: str | None = None) -> Catalog:
    """Resolve the catalog: explicit path, else $SPINR_CATALOG, else the
    bundled data file (cached).  An empty path or an empty
    $SPINR_CATALOG counts as unset.  This is the only place that reads
    $SPINR_CATALOG."""
    global _default
    if path:
        return load(path)
    env = os.environ.get(ENV_CATALOG)
    if env:
        return load(env)
    if _default is None:
        _default = loads(bundled_catalog_text(), "<bundled>")
    return _default
