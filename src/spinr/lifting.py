"""The lifting criterion for twisted spin groups.

The two-sheeted covering of SO(n) x SO(r) by the rank-r twisted spin
group has, at the fundamental-group level, an image subgroup cut out by
one parity rule: a pair of loop classes is in the image exactly when
the two classes have equal reduction mod 2.  A product homomorphism
into SO(n) x SO(r) then lifts exactly when the image of its induced map
lands in that subgroup; for connected Lie groups the lift is again a
homomorphism, so the whole existence question is decided here.

The parity rule is stated uniformly for all n, r >= 1.  The cases with
both factors >= 2 are the published images of the covering; n = 1 or
r = 1 degenerate to the classical spin condition (the other factor's
class must be even) and are derived, not quoted.

The parameter solve and the spin-type scan read each parity off a
coordinate (:func:`image_parities`); :func:`lift_subgroup` reads it through
the mod-2 map (:func:`parity`), and the tests hold the two readings equal.

Because the rule reads parities only, a twist that lifts at rank r
lifts at every higher rank.  If phi: H -> SO(r) passes with sigma, so
does phi + 1: H -> SO(r + 1), phi with a trivial summand added, that
is, phi followed by the inclusion SO(r) -> SO(r + 1).  On fundamental
groups that inclusion is 0 -> Z at r = 1, the reduction Z -> Z2 at
r = 2 and an isomorphism Z2 -> Z2 for r >= 3; each keeps the parity of
every image, so each generator's pair keeps equal parities.  Existence
is therefore monotone in r, and the least rank admitting a structure,
the spin type, is a threshold: every rank above it admits one too.
"""

from __future__ import annotations

from .abelian import (
    AbElem,
    AbHom,
    DomainMismatchError,
    FgAbGroup,
    Record,
    Subgroup,
    contains,
    direct_product,
    mod2,
)
from .liecat import so_pi1


def parity(x: AbElem) -> int:
    """Total mod-2 class of an element (sum of its mod2 coordinates)."""
    return sum(mod2(x.group).apply(x).coords) % 2


def image_parities(f: AbHom) -> tuple[int, ...]:
    """:func:`parity` of each domain generator's image, read off its
    coordinates at the codomain's free and even-order generators."""
    even = [i for i, d in enumerate(f.codomain.orders) if d % 2 == 0]
    return tuple([sum([img.coords[i] for i in even]) % 2 for img in f.images])


def frame_product_pi1(n: int, r: int) -> FgAbGroup:
    """pi1(SO(n) x SO(r)) with factor-prefixed generator labels."""
    return direct_product(so_pi1(n), so_pi1(r), ("so_n", "so_r"))


def lift_subgroup(n: int, r: int) -> Subgroup:
    """Image of the fundamental group of the rank-r twisted spin group
    inside pi1(SO(n)) x pi1(SO(r)).

    Uniform parity rule: the preimage of the diagonal under mod2 x mod2,
    i.e. all pairs (x, y) with parity(x) = parity(y).  Generators: every
    even ambient generator, the doubles of odd free generators, and the
    pairwise sums of odd generators.

    >>> lift_subgroup(2, 2).describe()
    '<(1, 1), (2, 0), (0, 2)> in Z x Z'
    >>> lift_subgroup(5, 2).describe()
    '<(1, 1), (0, 2)> in Z2 x Z'
    >>> lift_subgroup(3, 3).describe()
    '<(1, 1)> in Z2 x Z2'
    >>> lift_subgroup(3, 1).describe()
    '<> in Z2'
    """
    if n < 1 or r < 1:
        raise ValueError(f"need n, r >= 1, got ({n}, {r})")
    ambient = frame_product_pi1(n, r)
    gens = ambient.generators()
    odd = [g for g in gens if parity(g) == 1]
    even = [g for g in gens if parity(g) == 0]
    out = [odd[i] + odd[j] for i in range(len(odd)) for j in range(i + 1, len(odd))]
    out += [g.scale(2) for g in odd]
    out += even
    out = [g for g in out if not g.is_zero()]
    return Subgroup(ambient, tuple(out))


def check_isotropy(n: int, sigma_pi1: AbHom, domain: FgAbGroup):
    """Refuse an isotropy map that is not a map domain -> pi1(SO(n))."""
    if sigma_pi1.domain is not domain and sigma_pi1.domain != domain:  # identity first
        raise DomainMismatchError(
            "isotropy and twist maps must share their domain generators"
        )
    target, cod = so_pi1(n), sigma_pi1.codomain
    if cod is not target and not cod.same_presentation(target):
        raise DomainMismatchError(f"isotropy map must land in pi1(SO({n}))")


class LiftQuery(Record):
    """A product homomorphism to test: isotropy side and twist side.

    Both induced maps must share a domain (same presentation, same
    generator labels) and land in pi1(SO(n)) resp. pi1(SO(r)).
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int, sigma_pi1: AbHom, phi_pi1: AbHom):
        check_isotropy(n, sigma_pi1, phi_pi1.domain)
        if not phi_pi1.codomain.same_presentation(so_pi1(r)):
            raise DomainMismatchError(f"twist map must land in pi1(SO({r}))")
        return tuple.__new__(cls, (n, r, sigma_pi1, phi_pi1))


class LiftVerdict(Record):
    __slots__ = ()

    def __new__(cls, lifts: bool, witness_failures: tuple[tuple[str, AbElem], ...]):
        if lifts != (not witness_failures):
            raise ValueError("a verdict lifts exactly when it has no witness failures")
        return tuple.__new__(cls, (lifts, witness_failures))


def lifts(q: LiftQuery) -> LiftVerdict:
    """Does the product homomorphism lift through the covering?

    True exactly when each domain generator's pair (sigma(g), phi(g)),
    an element of :func:`frame_product_pi1`, lies in
    :func:`lift_subgroup`; failures are reported per domain generator so
    that a verdict can be read off generator by generator.
    """
    target = lift_subgroup(q.n, q.r)
    failures = []
    for label, s, p in zip(q.sigma_pi1.domain.labels, q.sigma_pi1.images,
                           q.phi_pi1.images, strict=True):
        pair = target.ambient.elem(s.coords + p.coords)
        if not contains(target, pair):
            failures.append((label, pair))
    return LiftVerdict(lifts=not failures, witness_failures=tuple(failures))

