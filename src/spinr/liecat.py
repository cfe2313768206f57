"""Compact connected Lie group records: fundamental groups with chosen
generators, plus the ideal structure of the Lie algebra.

One table gives every classical simple ideal so(k), su(k) and sp(k)
(:func:`simple_ideal`, :func:`ideals`): each series states its dimension
and vector representation once, and one map names the exceptional
isomorphisms onto so(k).  The rule engine needs, for each simple ideal,
its dimension and the least dimension of a nontrivial real orthogonal
representation.  :mod:`spinr.bundled` builds the bundled catalog from
the table, :data:`G2_IDEAL` and the SO(k) records (:func:`so_group`);
the loader checks a file's SO(k) groups and so(k) ideals against them.
Every group record carries a provenance citation.
"""

from __future__ import annotations

from .abelian import AbHom, FgAbGroup, Record, _new
from .catalogfile import Block, CatalogParseError, SpinrError, is_int


class NotInCatalogError(SpinrError, KeyError):
    def __init__(self, kind: str, name: str, available):
        self.name = name
        names = ", ".join(sorted(available)) or "(none)"
        super().__init__(f"{kind} '{name}' not in catalog; available: {names}")

    def __str__(self):
        return self.args[0]


class SimpleIdeal(Record):
    """A simple ideal of a compact Lie algebra."""

    __slots__ = ()

    def __new__(cls, kind: str, dim: int, min_orth_rep_dim: int):
        if dim < 3:
            raise ValueError(f"simple ideal {kind} with dim {dim} < 3")
        if min_orth_rep_dim < 2:
            raise ValueError(
                f"simple ideal {kind}: min_orth_rep_dim {min_orth_rep_dim} < 2"
            )
        return tuple.__new__(cls, (kind, dim, min_orth_rep_dim))


class AlgebraProfile(Record):
    """Centre dimension plus the tuple of simple ideals."""

    __slots__ = ()

    def __new__(cls, center_rank, ideals=()):
        return _new(cls, (center_rank, ideals))

    @property
    def dim(self) -> int:
        return self.center_rank + sum(i.dim for i in self.ideals)


class CompactGroupRec(Record):
    __slots__ = ()

    def __new__(cls, name, pi1, algebra, connected, provenance):
        return _new(cls, (name, pi1, algebra, connected, provenance))


# --- the simple ideals, one table for the classical series -------------------

# series: (the least k at which it is simple, its dimension, the real
# dimension per unit of k of its vector rep R^k, C^k or H^k).  The vector
# rep is the least nontrivial orthogonal rep (Onishchik-Vinberg tables)
# except at the isomorphisms onto so(k) below, A1 = B1 = C1, B2 = C2 and
# A3 = D3, which take so(k)'s k.  so(4) = D2 = A1 + A1 is not simple.
_SERIES = {
    "so": (3, lambda k: k * (k - 1) // 2, 1),
    "su": (2, lambda k: k * k - 1, 2),
    "sp": (1, lambda k: k * (2 * k + 1), 4),
}
_ISOMORPHIC_TO_SO = {("su", 2): 3, ("sp", 1): 3, ("sp", 2): 5, ("su", 4): 6}

# the 7-dimensional rep G2 < SO(7) is the least nontrivial rep of g2
G2_IDEAL = SimpleIdeal("g2", 14, 7)


def simple_ideal(series: str, k: int) -> SimpleIdeal:
    """so(k), su(k) or sp(k) (``series`` "so", "su" or "sp") as a simple
    ideal; only defined where the algebra is simple."""
    least, dim, vector = _SERIES[series]
    if k < least or (series, k) == ("so", 4):
        raise ValueError(f"{series}({k}) is not simple")
    return SimpleIdeal(
        f"{series}({k})", dim(k), _ISOMORPHIC_TO_SO.get((series, k), vector * k)
    )


def ideals(series: str, k: int) -> tuple[SimpleIdeal, ...]:
    """The simple ideals of so(k), su(k) or sp(k), for k >= 0: none when the
    algebra is abelian (so(0..2), su(0..1), sp(0)), two so(3) for so(4)."""
    if (series, k) == ("so", 4):
        return (simple_ideal("so", 3),) * 2
    if k < _SERIES[series][0]:
        return ()
    return (simple_ideal(series, k),)


# --- the SO(k) family, by formula --------------------------------------------

SO_GENERATOR = "alpha"  # the plane-rotation loop generating pi1(SO(k))

_SO_PI1_CITATION = (
    "pi1(SO(1)) = 1, pi1(SO(2)) = Z, pi1(SO(k)) = Z/2 for k >= 3; "
    "Hatcher, Algebraic Topology, Sec. 3.D / standard"
)


# pi1(SO(1)), pi1(SO(2)) and pi1(SO(k)) for every k >= 3
_SO_PI1 = (
    FgAbGroup(),
    FgAbGroup((0,), (SO_GENERATOR,)),
    FgAbGroup((2,), (SO_GENERATOR,)),
)


def so_pi1(k: int) -> FgAbGroup:
    """Fundamental group of SO(k) with its rotation-loop generator."""
    if k < 1:
        raise ValueError(f"SO(k) needs k >= 1, got {k}")
    return _SO_PI1[min(k, 3) - 1]


def so_pi1_target(r: int, values) -> FgAbGroup:
    """pi1(SO(r)), refusing nonzero ``values`` when it is trivial (r = 1)."""
    cod = so_pi1(r)
    if not cod.orders and any(values):
        raise ValueError(f"nonzero image in the trivial pi1(SO({r}))")
    return cod


def so_pi1_map(domain: FgAbGroup, r: int, values) -> AbHom:
    """The map pi1(H) -> pi1(SO(r)) sending domain generator i to
    ``values[i]`` times the rotation loop."""
    return AbHom.from_coords(domain, so_pi1_target(r, values), values)


def so_algebra(k: int) -> AlgebraProfile:
    return AlgebraProfile(1 if k == 2 else 0, ideals("so", k))


def so_group(k: int) -> CompactGroupRec:
    """Catalog record for SO(k), valid for every k >= 1."""
    return CompactGroupRec(
        name=f"SO({k})",
        pi1=so_pi1(k),
        algebra=so_algebra(k),
        connected=True,
        provenance=_SO_PI1_CITATION,
    )


# --- record construction from parsed catalog entries -------------------------

_GROUP_KEYS = frozenset({"name", "pi1", "algebra", "connected", "provenance"})
_PI1_KEYS = frozenset({"free_rank", "torsion", "generators"})
_ALGEBRA_KEYS = frozenset({"center_rank", "ideal"})
# an ideal's provenance is kept in the file for its reader; no record holds it
_IDEAL_KEYS = frozenset({"kind", "dim", "min_orth_rep", "provenance"})


def _build_pi1(entry: tuple) -> FgAbGroup:
    node = Block(entry, _PI1_KEYS)
    free_rank = node.value("free_rank", int)
    if free_rank < 0:
        raise CatalogParseError(
            f"free_rank must be >= 0, got {free_rank}", node.child("free_rank")[1]
        )
    torsion = node.value("torsion", list)
    for d in torsion:
        if isinstance(d, bool) or not isinstance(d, int):
            raise CatalogParseError(
                f"torsion entries must be integers: {d!r}", node.child("torsion")[1]
            )
        if d < 2:
            raise CatalogParseError(
                f"torsion entries must be >= 2, got {d}", node.child("torsion")[1]
            )
    labels = tuple(node.list_of("generators", str))
    n = free_rank + len(torsion)  # checked before a tuple is sized by free_rank
    if len(labels) != n:
        raise CatalogParseError(f"{len(labels)} labels for {n} generators", node.line)
    return node.build(FgAbGroup, (0,) * free_rank + tuple(torsion), labels)


def _build_ideal(entry: tuple) -> SimpleIdeal:
    node = Block(entry, _IDEAL_KEYS)
    return node.build(
        SimpleIdeal,
        node.value("kind", str),
        node.value("dim", int),
        node.value("min_orth_rep", int),
    )


def _build_algebra(entry: tuple) -> AlgebraProfile:
    node = Block(entry, _ALGEBRA_KEYS)
    center_rank = node.value("center_rank", int)
    if center_rank < 0:
        raise CatalogParseError(
            f"center_rank must be >= 0, got {center_rank}",
            node.child("center_rank")[1],
        )
    return AlgebraProfile(
        center_rank=center_rank,
        ideals=tuple(_build_ideal(c) for c in node.items("ideal")),
    )


def build_group(entry: tuple) -> CompactGroupRec:
    node = Block(entry, _GROUP_KEYS)
    rec = CompactGroupRec(
        name=node.value("name", str),
        pi1=_build_pi1(node.child("pi1")),
        algebra=_build_algebra(node.child("algebra")),
        connected=node.value("connected", bool, True),
        provenance=node.value("provenance", str),
    )
    if not rec.provenance.strip():
        raise CatalogParseError("empty provenance", node.line)
    _validate_group(rec, node.line)
    return rec


def _validate_group(rec: CompactGroupRec, line: int):
    """Cross-checks applied at load time.

    SO entries must match the formulaic family exactly, and every so(k)
    ideal the table's so(k).  su(k), sp(k) and g2 ideals are not checked
    yet: perfbench/gencat.py writes su(4) with the vector representation's
    8 in place of so(6)'s 6, and its catalog would be refused.
    """
    name = rec.name
    if name.startswith("SO(") and name.endswith(")"):
        try:
            k = _so_index(name)
            pi1 = so_pi1(k)
        except ValueError as err:
            raise CatalogParseError(
                f"group {name}: SO(k) needs an integer k >= 1 in canonical "
                f"ASCII decimal",
                line,
            ) from err
        if rec.pi1 != pi1:
            raise CatalogParseError(
                f"pi1 of {name} must match the standard value "
                f"{pi1.describe()} with generator labels {pi1.labels}",
                line,
            )
        algebra = so_algebra(k)
        if rec.algebra != algebra:
            raise CatalogParseError(
                f"algebra profile of {name} must be {algebra}", line
            )
    for ideal in rec.algebra.ideals:
        if ideal.kind.startswith("so(") and ideal.kind.endswith(")"):
            try:
                ref = simple_ideal("so", _so_index(ideal.kind))
            except ValueError as err:
                raise CatalogParseError(
                    f"ideal {ideal.kind}: so(k) is simple only for an integer "
                    f"k = 3 or k >= 5, in canonical ASCII decimal",
                    line,
                ) from err
            if ideal != ref:
                raise CatalogParseError(
                    f"ideal {ideal.kind}: expected dim {ref.dim}, "
                    f"min_orth_rep {ref.min_orth_rep_dim}",
                    line,
                )


def _so_index(name: str) -> int:
    """The k of 'SO(k)' or 'so(k)', written as str(k) writes it."""
    text = name[3:-1]
    if not is_int(text) or text != str(int(text)):
        raise ValueError(f"{name}: k is not in canonical ASCII decimal")
    return int(text)
