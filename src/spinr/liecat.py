"""Compact connected Lie group records: fundamental groups with chosen
generators, plus the ideal structure of the Lie algebra.

The formulas here are the groups SO(k) (:func:`so_group`) and the
simple ideals so(k), su(k) and sp(k).  :mod:`spinr.bundled` builds the
bundled catalog from them, and the loader checks a file's SO(k) groups
against :func:`so_group`; every group record carries a provenance
citation.  The ideal profiles feed the non-existence rule engine, which
needs, for each simple ideal, its dimension and the smallest dimension
of a nontrivial real orthogonal representation.
"""

from __future__ import annotations

from collections import namedtuple

from .abelian import AbHom, FgAbGroup
from .catalogfile import Block, CatalogParseError, SpinrError, is_int


class NotInCatalogError(SpinrError, KeyError):
    def __init__(self, kind: str, name: str, available):
        self.name = name
        names = ", ".join(sorted(available)) or "(none)"
        super().__init__(f"{kind} '{name}' not in catalog; available: {names}")

    def __str__(self):
        return self.args[0]


class SimpleIdeal(namedtuple("SimpleIdeal", "kind dim min_orth_rep_dim")):
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


class AlgebraProfile(
    namedtuple("AlgebraProfile", "center_rank ideals", defaults=((),))
):
    """Centre dimension plus the tuple of simple ideals."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.center_rank + sum(i.dim for i in self.ideals)


class CompactGroupRec(
    namedtuple("CompactGroupRec", "name pi1 algebra connected provenance")
):
    __slots__ = ()


# --- the SO(k) family, by formula --------------------------------------------

SO_GENERATOR = "alpha"  # the plane-rotation loop generating pi1(SO(k))

_SO_PI1_CITATION = (
    "pi1(SO(1)) = 1, pi1(SO(2)) = Z, pi1(SO(k)) = Z/2 for k >= 3; "
    "Hatcher, Algebraic Topology, Sec. 3.D / standard"
)


# pi1(SO(1)), pi1(SO(2)) and pi1(SO(k)) for every k >= 3
_SO_PI1 = (
    FgAbGroup(0, (), ()),
    FgAbGroup(1, (), (SO_GENERATOR,)),
    FgAbGroup(0, (2,), (SO_GENERATOR,)),
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


def so_ideal(k: int) -> SimpleIdeal:
    """so(k) as a simple ideal; only defined for k = 3 and k >= 5."""
    # so(3): the adjoint (= vector) rep in dim 3 is the smallest nontrivial
    # orthogonal rep; the targets so(1), so(2) are abelian.  k >= 5: the
    # vector rep in dim k is minimal, and the spinor reps have real
    # dimension >= k (Onishchik-Vinberg tables).
    if k == 3:
        return SimpleIdeal("so(3)", 3, 3)
    if k >= 5:
        return SimpleIdeal(f"so({k})", k * (k - 1) // 2, k)
    raise ValueError(f"so({k}) is not simple")


def su_ideal(k: int) -> SimpleIdeal:
    """su(k) as a simple ideal, for k >= 2."""
    # su(2) = so(3).  k >= 3: the realified vector rep C^k = R^2k is the
    # smallest orthogonal rep; the complex irreps below dim k^2 - 1 are the
    # vector rep and its dual, both of complex type.
    if k == 2:
        return SimpleIdeal("su(2)", 3, 3)
    if k >= 3:
        return SimpleIdeal(f"su({k})", k * k - 1, 2 * k)
    raise ValueError(f"su({k}) is not simple")


def sp_ideal(k: int) -> SimpleIdeal:
    """sp(k) as a simple ideal, for k >= 1."""
    # sp(1) = so(3) and sp(2) = so(5), whose vector rep in dim 5 is minimal.
    # k >= 3: the realified vector rep H^k = R^4k is the smallest
    # orthogonal rep (the quaternionic vector irrep doubles; the other
    # fundamental reps are larger).
    if k == 1:
        return SimpleIdeal("sp(1)", 3, 3)
    if k == 2:
        return SimpleIdeal("sp(2)", 10, 5)
    if k >= 3:
        return SimpleIdeal(f"sp({k})", k * (2 * k + 1), 4 * k)
    raise ValueError(f"sp({k}) is not simple")


def so_algebra(k: int) -> AlgebraProfile:
    if k <= 1:
        return AlgebraProfile(0)
    if k == 2:
        return AlgebraProfile(1)
    if k == 4:
        return AlgebraProfile(0, (so_ideal(3), so_ideal(3)))
    return AlgebraProfile(0, (so_ideal(k),))


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
    n = free_rank + len(torsion)  # checked before FgAbGroup sizes anything by free_rank
    if len(labels) != n:
        raise CatalogParseError(f"{len(labels)} labels for {n} generators", node.line)
    return node.build(FgAbGroup, free_rank, tuple(torsion), labels)


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

    SO entries must match the formulaic family exactly, which also
    pins min_orth_rep_dim(so(k)) = k for k >= 5 and 3 for so(3).
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
                ref = so_ideal(_so_index(ideal.kind))
            except ValueError as err:
                raise CatalogParseError(
                    f"ideal {ideal.kind}: so(k) is simple only for an integer "
                    f"k = 3 or k >= 5, in canonical ASCII decimal",
                    line,
                ) from err
            if (ideal.dim, ideal.min_orth_rep_dim) != (ref.dim, ref.min_orth_rep_dim):
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
