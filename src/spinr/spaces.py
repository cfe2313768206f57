"""Homogeneous-space decisions: classification of invariant structures,
minimal twist rank, the canonical structure, and holonomy lifts.

A space record holds the group pair (G, H), the dimension, and the map
induced by the isotropy representation on fundamental groups.  For a
connected stabiliser, invariant rank-r structures modulo equivariant
equivalence correspond to conjugacy classes of homomorphisms
H -> SO(r) whose product with the isotropy passes the parity lifting
criterion, so everything below reduces to (a) enumerating families and
(b) running the lift test, exactly or symbolically in the family
parameter.  The spin-type scan decides every family by the parity rule
alone (`_solve_parameter`, on the isotropy parities read once per query
by `image_parities`) and builds no lift verdicts; `classify` and
`holonomy_lift` lift-test constant families and report their witnesses.

Results never overstate completeness: a classification built from an
uncertified enumeration is marked incomplete, and the minimal-rank scan
degrades to an honest interval instead of returning a wrong number.
"""

from __future__ import annotations

from .abelian import AbHom, FgAbGroup, Record, _new
from .catalogfile import Block, CatalogParseError, SpinrError
# parity stays importable here: perfbench/tracer.py counts calls at this site
from .lifting import LiftQuery, check_isotropy, image_parities, lifts, parity
from .liecat import so_pi1, so_pi1_map
from .repcat import (
    DIAGONAL_FAMILY_NAME,
    HOLONOMY_DIAGONAL_NAME,
    UNCONSTRAINED,
    Congruence,
    OrthRepFamily,
    enumerate_homs,
    first_possible_rank,
    trivial_family,
)


class HypothesisError(SpinrError, ValueError):
    """A theorem hypothesis is violated (disconnected stabiliser, small n)."""


class InvalidArgumentError(SpinrError, ValueError):
    """An argument outside its range, such as a twist rank below 1."""


class InconsistentCatalogError(SpinrError, RuntimeError):
    """The catalog's data contradicts the existence theorem."""


class HomSpaceRec(Record):
    """One homogeneous realisation, e.g. S7:Sp(2) for the 7-sphere."""

    __slots__ = ()

    def __new__(cls, name, G, H, n, sigma_pi1, provenance):
        return _new(cls, (name, G, H, n, sigma_pi1, provenance))


class HolonomyRec(Record):
    """A holonomy group from the irreducible non-symmetric list, acting
    on an m-dimensional tangent space."""

    __slots__ = ()

    def __new__(cls, group, m, h_pi1, provenance):
        return _new(cls, (group, m, h_pi1, provenance))


class ClassRecord(Record):
    """One equivalence class (or constrained family of classes) of
    invariant structures: a family reference plus, for parameterised
    families, the exact congruence the parameter must satisfy."""

    __slots__ = ()

    def __new__(cls, family, label=None, constraint=None, extends_to=None):
        return _new(cls, (family, label, constraint, extends_to))


class RejectedFamily(Record):
    """A family that fails the lift test, with per-generator witnesses
    (generator label, image pair that escapes the covering subgroup)."""

    __slots__ = ()

    def __new__(cls, family, witnesses):
        return _new(cls, (family, witnesses))


class Classification(Record):
    """The classes at one rank; ``count`` is None for an infinite family.

    ``certificate`` is a string (the listed families' citations,
    "incomplete", or a note on a distinguished witness) or, at a rank
    with no listed family, a :class:`~spinr.repcat.RuleProof`, which
    renders its text with ``str()``.
    """

    __slots__ = ()

    def __new__(cls, space, r, classes, count, complete, certificate, rejected=()):
        return _new(cls, (space, r, classes, count, complete, certificate, rejected))


class SpinTypeResult(Record):
    """Least twist rank admitting an invariant structure.

    status "exact" needs complete (and empty) classifications at every
    smaller rank plus a witness at the reported rank; otherwise it is
    "bounded" and the honest interval [lo, hi] is reported.
    """

    __slots__ = ()

    def __new__(cls, space, status, lo, hi, witnesses):
        return _new(cls, (space, status, lo, hi, witnesses))

    @property
    def value(self) -> int | None:
        return self.lo if self.status == "exact" else None


# --- record construction -------------------------------------------------------

_SPACE_KEYS = frozenset({"name", "G", "H", "n", "sigma_pi1_images", "provenance"})
_HOLONOMY_KEYS = frozenset({"group", "m", "h_pi1_images", "provenance"})


def build_space(entry: tuple, groups) -> HomSpaceRec:
    node = Block(entry, _SPACE_KEYS)
    name = node.value("name", str)
    h_name = node.value("H", str)
    if h_name not in groups:
        raise CatalogParseError(f"space {name}: unknown stabiliser {h_name}", node.line)
    g_name = node.value("G", str)
    if g_name not in groups:
        raise CatalogParseError(f"space {name}: unknown group {g_name}", node.line)
    h = groups[h_name]
    n = node.value("n", int)
    if n < 1:
        raise CatalogParseError(f"space {name}: dimension must be >= 1", node.line)
    # A disconnected stabiliser is loadable data but refused by
    # classify(), which needs the connectedness hypothesis.
    sigma = node.build(so_pi1_map, h.pi1, n, node.list_of("sigma_pi1_images", int))
    return HomSpaceRec(name, g_name, h_name, n, sigma, node.value("provenance", str))


def build_holonomy(entry: tuple, groups) -> HolonomyRec:
    node = Block(entry, _HOLONOMY_KEYS)
    g_name = node.value("group", str)
    if g_name not in groups:
        raise CatalogParseError(f"holonomy record: unknown group {g_name}", node.line)
    m = node.value("m", int)
    if m < 1:
        raise CatalogParseError("holonomy record: dimension must be >= 1", node.line)
    h = node.build(so_pi1_map, groups[g_name].pi1, m, node.list_of("h_pi1_images", int))
    return HolonomyRec(g_name, m, h, node.value("provenance", str))


# --- the lift test against one family -------------------------------------------

def _solve_parameter(parities, family: OrthRepFamily) -> Congruence | None:
    """Exact set of parameter values passing the lift test, or None.

    ``parities`` holds the isotropy parity of each domain generator
    (:func:`~spinr.lifting.image_parities` of sigma).  With s = rho + mu*t
    running over the family's admissible values, each generator imposes
    a parity condition on the affine image, which in t is either vacuous,
    unsatisfiable, or a single class mod 2.  The classes must agree, and
    the one they fix (if any) converts back to a congruence on s.  A
    constant family, read at s = 0, has only even steps: it passes with
    all of Z or not at all.  Into the trivial pi1(SO(1)) it passes
    exactly when every parity is 0.
    """
    base = family.param_constraint
    if not so_pi1(family.target_r).rank:
        return None if any(parities) else base or UNCONSTRAINED
    mu, rho = base or (0, 0)
    t_parity = None  # the class of t mod 2, once a generator fixes it
    for eps, expr in zip(parities, family.pi1_images, strict=True):
        step, rest = divmod(expr.num * mu, expr.den)
        if rest:
            raise ValueError(
                f"family {family.name}: image {expr} is not integral on "
                f"the parameter's admissible values"
            )
        v0 = expr.eval(rho)
        if step % 2 == 0:
            if v0 % 2 != eps:
                return None
        else:
            want = (eps - v0) % 2
            if t_parity not in (None, want):
                return None
            t_parity = want
    if t_parity is None:
        return base or UNCONSTRAINED
    return Congruence(2 * mu, rho + mu * t_parity)


def _classes(family: OrthRepFamily, solved: Congruence) -> tuple[ClassRecord, ...]:
    """The classes of a family that passes with the solved congruence:
    one per label for a constant family, one with the congruence for a
    parameterised one."""
    to = family.extends_to
    if family.parameterized:
        return (ClassRecord(family.name, constraint=solved, extends_to=to),)
    return tuple(ClassRecord(family.name, label, extends_to=to)
                 for label in family.labels)


def _parity_classes(parities, families) -> tuple[ClassRecord, ...]:
    """The passing classes of the families, each decided by the parity
    rule alone: no lift query, verdict or witness is built."""
    return tuple(rec for family in families
                 if (solved := _solve_parameter(parities, family)) is not None
                 for rec in _classes(family, solved))


def _lift_families(
    space_n: int, sigma: AbHom, families, domain_pi1: FgAbGroup
) -> tuple[list[ClassRecord], list[RejectedFamily]]:
    """The lift test on each family: the passing classes, and the
    failing families with their per-generator witnesses."""
    passed, rejected = [], []
    parities = image_parities(sigma)
    for family in families:
        s = None
        if family.parameterized:
            solved = _solve_parameter(parities, family)
            if solved is not None:
                passed += _classes(family, solved)
                continue
            # no admissible value passes, so any one of them gives the witnesses
            s = family.param_constraint.sample(1)[0]
        phi = family.pi1_map(domain_pi1, s)
        verdict = lifts(LiftQuery(space_n, family.target_r, sigma, phi))
        if family.parameterized or not verdict.lifts:
            witnesses = tuple((g, e.coords) for g, e in verdict.witness_failures)
            rejected.append(RejectedFamily(family.name, witnesses))
        else:
            passed += _classes(family, UNCONSTRAINED)
    return passed, rejected


# --- public operations -----------------------------------------------------------

def _connected_group(catalog, name: str, role: str, theorem: str):
    """The group record, refused when it is disconnected."""
    group = catalog.lookup(name)
    if not group.connected:
        raise HypothesisError(
            f"{role} {group.name} is not connected; the {theorem} "
            f"requires a connected {role}"
        )
    return group


def _require_rank(r: int):
    if r < 1:
        raise InvalidArgumentError(f"twist rank must be >= 1, got {r}")


def _stabiliser(catalog, space: HomSpaceRec):
    return _connected_group(
        catalog, space.H, "stabiliser", "classification correspondence"
    )


def classify(catalog, space: HomSpaceRec, r: int) -> Classification:
    """All invariant rank-r structures on the space, as lift-passing
    conjugacy classes with exactly solved parameter constraints."""
    _require_rank(r)
    h = _stabiliser(catalog, space)
    enum = enumerate_homs(catalog, space.H, r)
    classes, rejected = _lift_families(
        space.n, space.sigma_pi1, enum.families, h.pi1
    )
    infinite = any(rec.constraint is not None for rec in classes)
    return Classification(
        space=space.name,
        r=r,
        classes=tuple(classes),
        count=None if infinite else len(classes),
        complete=enum.complete,
        certificate=enum.certificate,
        rejected=tuple(rejected),
    )


def invariant_spin_type(catalog, space: HomSpaceRec) -> SpinTypeResult:
    """The least rank r <= n admitting an invariant structure.

    An even isotropy class lifts untwisted: the answer is r = 1, with the
    trivial twist and any family listed there as witnesses.  For an
    odd class the trivial twist (parity 0) fails at every rank, so a
    structure can only come from a listed family: the scan tests the
    listed ranks r <= n of H in ascending order, and the first one with
    a passing family is the witness.  Each family is decided by the
    parity rule (`_solve_parameter`), so no lift query, verdict or
    rejection witness is built.  Every other rank is empty;
    it is certainly empty below r0 = first_possible_rank(H), where the
    rule engine excludes every nonzero map.

    The uncertain ranks are the listed ranks with an incomplete family
    and the unlisted ranks in [r0, n].  The result is "exact" when no
    uncertain rank lies below the witness, and otherwise the interval
    from the first uncertain rank to the witness.  With no witness up to
    n it is [first uncertain rank, n], witnessed for n >= 3 by the
    canonical rank-n structure, which always exists; with no uncertain
    rank either, the catalog contradicts that structure and the scan
    raises InconsistentCatalogError.  The work grows with the number of
    listed ranks of H, never with n.  An isotropy map that is not a map
    pi1(H) -> pi1(SO(n)) raises DomainMismatchError.
    """
    h = _stabiliser(catalog, space)
    sigma = space.sigma_pi1
    check_isotropy(space.n, sigma, h.pi1)
    parities = image_parities(sigma)
    if not any(parities):
        trivial = trivial_family(h.name, 1, h.pi1.rank)
        classes = _parity_classes(parities, (trivial, *catalog.families_at(h.name, 1)))
        return SpinTypeResult(space.name, "exact", 1, 1, classes)
    listed = catalog.listed_ranks(h.name)
    # the least unlisted rank >= r0: uncertain, as are all after it
    unlisted = first_possible_rank(h.algebra)
    for r in listed:
        if unlisted is not None and r == unlisted:
            unlisted += 1
    listed_uncertain: int | None = None
    for r in listed:
        if r > space.n:
            break
        families = catalog.families_at(h.name, r)
        classes = _parity_classes(parities, families)
        if classes:
            lo = _least(listed_uncertain, unlisted, r)
            status = "exact" if lo is None else "bounded"
            return SpinTypeResult(
                space.name, status, r if lo is None else lo, r, classes
            )
        if listed_uncertain is None and any(f.incomplete for f in families):
            listed_uncertain = r
    lo = _least(listed_uncertain, unlisted, space.n + 1)
    if lo is None:
        # A complete, empty classification at every rank up to n
        # contradicts the canonical rank-n witness.
        raise InconsistentCatalogError(
            f"{catalog.path}: no invariant structure found for {space.name} "
            f"up to r = {space.n} despite complete enumerations; catalog "
            f"data is inconsistent with the existence theorem"
        )
    witnesses: tuple[ClassRecord, ...] = ()
    if space.n >= 3:
        witnesses = canonical_structure(catalog, space).classes
    return SpinTypeResult(space.name, "bounded", lo, space.n, witnesses)


def _least(listed_uncertain: int | None, unlisted: int | None, below: int):
    """The first uncertain rank below `below`, or None."""
    ranks = [r for r in (listed_uncertain, unlisted) if r is not None and r < below]
    return min(ranks, default=None)


def parity_nonzero(sigma: AbHom) -> bool:
    return any(image_parities(sigma))


def canonical_structure(catalog, space: HomSpaceRec) -> Classification:
    """The preferred structure: untwisted when the isotropy class
    vanishes, otherwise the rank-n diagonal twist by the isotropy
    itself, which the parity rule accepts unconditionally.

    The diagonal branch returns a single distinguished witness, not an
    enumeration, so it is marked incomplete.
    """
    if space.n < 3:
        raise HypothesisError(
            f"canonical structure needs dimension >= 3, got n = {space.n}"
        )
    if not parity_nonzero(space.sigma_pi1):
        return classify(catalog, space, 1)
    return Classification(
        space=space.name,
        r=space.n,
        classes=(ClassRecord(family=DIAGONAL_FAMILY_NAME, label="diagonal"),),
        count=1,
        complete=False,
        certificate=(
            "distinguished witness built from the isotropy representation; "
            "not an enumeration of rank-n structures"
        ),
    )


class HolonomyVerdict(Record):
    """A holonomy lift answer; ``verdict`` is "yes", "no" or "unknown".

    ``certificate`` is a string (the listed families' citations, or
    "incomplete") or, at a rank with no listed family, a
    :class:`~spinr.repcat.RuleProof`, which renders its text with
    ``str()``.
    """

    __slots__ = ()

    def __new__(cls, group, m, r, verdict, via, complete, certificate, rejected):
        return _new(cls, (group, m, r, verdict, via, complete, certificate, rejected))


def holonomy_lift(catalog, group: str, m: int, r: int) -> HolonomyVerdict:
    """Can the holonomy representation be lifted to the rank-r twisted
    spin group of its own dimension?

    Tri-state: "yes" on any passing twist (including, at r = m, the
    diagonal twist by the holonomy representation itself, which always
    passes), "no" only under a complete enumeration, "unknown"
    otherwise.  A rank below 1 raises InvalidArgumentError before any
    lookup; a disconnected group raises HypothesisError.
    """
    _require_rank(r)
    rec = catalog.holonomy(group, m)
    g = _connected_group(catalog, group, "holonomy group", "lifting criterion")
    enum = enumerate_homs(catalog, group, r)
    via, rejected = _lift_families(m, rec.h_pi1, enum.families, g.pi1)
    if r == m:
        via.append(ClassRecord(family=HOLONOMY_DIAGONAL_NAME, label="diagonal"))
    verdict = "yes" if via else "no" if enum.complete else "unknown"
    return HolonomyVerdict(
        group, m, r, verdict, tuple(via), enum.complete, enum.certificate,
        tuple(rejected),
    )
