"""The bundled catalog, built in code.

The paper's worked example is every homogeneous realisation of the
spheres.  Its groups come in series in k (SO(k), U(k), SU(k), Sp(k),
Sp(k)·U(1) and Sp(k)·Sp(1)), plus three cited exceptional groups; this
module builds their records, families, spheres and holonomy records with
the constructors the loader uses, so no data file is parsed.  Nothing
here re-checks them at run time: the tests write these records in the
file format and load them back, so every loader check, the rule-engine
check of each family among them, runs on them in the test suite.
"""

from __future__ import annotations

from .abelian import FgAbGroup
from .catalog import Catalog
from .liecat import (
    G2_IDEAL, AlgebraProfile, CompactGroupRec, ideals, simple_ideal, so_algebra,
    so_group, so_pi1_map,
)
from .repcat import UNCONSTRAINED, AffineInt, Congruence, OrthRepFamily
from .spaces import HolonomyRec, HomSpaceRec

DOT = "·"  # the middle dot in group names like Sp(2)·Sp(1)

# pi1 images as parse_affine returns them
ONE = AffineInt(0, 1)
S = AffineInt(1, 0)
HALF_S = AffineInt(1, 0, 2)

_SIMPLY_CONNECTED = FgAbGroup()
_HALF_DIAG_CITE = (
    "pi1 of (K x A)/{+-(1,1)} with K simply connected is generated by the"
    " class of a path from (1,1) to (-1,-1); its square is the A-loop"
    " (for A = U(1)) or trivial (for A = Sp(1))"
)


def build_catalog() -> Catalog:
    """The bundled catalog, named ``<bundled>`` in its messages."""
    groups = {g.name: g for g in _groups()}
    spaces = {
        name: HomSpaceRec(
            name, G, H, n, so_pi1_map(groups[H].pi1, n, images), provenance
        )
        for name, G, H, n, images, provenance in _spaces()
    }
    holonomies = {
        (g, m): HolonomyRec(g, m, so_pi1_map(groups[g].pi1, m, images), provenance)
        for g, m, images, provenance in _holonomies()
    }
    return Catalog(1, groups, _families(), spaces, holonomies, "<bundled>")


def _groups() -> list[CompactGroupRec]:
    groups = [so_group(k) for k in range(1, 13)]
    centre = FgAbGroup((0,), ("center_loop",))
    for k in range(1, 7):
        groups.append(CompactGroupRec(
            f"U({k})", centre, AlgebraProfile(1, ideals("su", k)), True,
            "det: U(k) -> U(1) induces an isomorphism on pi1;"
            " generator: the loop diag(exp(2 pi i t), 1, ..., 1)",
        ))
    for k in range(1, 7):
        groups.append(CompactGroupRec(
            f"SU({k})", _SIMPLY_CONNECTED, AlgebraProfile(0, ideals("su", k)),
            True, "SU(k) is simply connected (SU(1) is the trivial group)",
        ))
    for k in range(0, 5):
        groups.append(CompactGroupRec(
            f"Sp({k})", _SIMPLY_CONNECTED, AlgebraProfile(0, ideals("sp", k)),
            True, "Sp(k) is simply connected (Sp(0) is the trivial group)",
        ))
    half_diag_z = FgAbGroup((0,), ("half_diag",))
    for k in range(0, 4):
        groups.append(CompactGroupRec(
            f"Sp({k}){DOT}U(1)", half_diag_z,
            AlgebraProfile(1, ideals("sp", k)), True, _HALF_DIAG_CITE,
        ))
    half_diag_z2 = FgAbGroup((2,), ("half_diag",))
    for k in range(0, 4):
        groups.append(CompactGroupRec(
            f"Sp({k}){DOT}Sp(1)", half_diag_z2,
            AlgebraProfile(0, (*ideals("sp", k), simple_ideal("sp", 1))), True,
            _HALF_DIAG_CITE,
        ))
    groups.append(CompactGroupRec(
        "G2", _SIMPLY_CONNECTED, AlgebraProfile(0, (G2_IDEAL,)),
        True, "the compact exceptional group G2 is simply connected",
    ))
    for k in (7, 9):
        groups.append(CompactGroupRec(
            f"Spin({k})", _SIMPLY_CONNECTED, so_algebra(k), True,
            f"Spin({k}) is simply connected; its algebra is so({k})",
        ))
    return groups


def _families() -> tuple[OrthRepFamily, ...]:
    families = [OrthRepFamily(
        "so2-circle-powers", "SO(2)", 2, (S,),
        param_constraint=UNCONSTRAINED,
        distinct_classes="SO(2) is abelian, so conjugation is trivial and"
        " distinct exponents give non-conjugate homomorphisms",
        certificate="every Lie group endomorphism of SO(2) = U(1) is a power"
        " map z -> z^s",
    )]
    for k in (3, 5, 6, 7, 8, 9):
        if k % 2:
            families.append(OrthRepFamily(
                f"so{k}-identity", f"SO({k})", k, (ONE,),
                labels=("identity",),
                distinct_classes="single nontrivial class",
                certificate="a nontrivial endomorphism of SO(k) is injective on"
                " the simple algebra so(k), hence an automorphism; for odd k all"
                " automorphisms are inner (conjugation by -1 in O(k) is trivial),"
                " so the identity is the only class",
            ))
        else:
            families.append(OrthRepFamily(
                f"so{k}-identity", f"SO({k})", k, (ONE,),
                labels=("identity", "conjugate-by-reflection"),
                distinct_classes="conjugation by a reflection in O(k) is an outer"
                " automorphism for even k, not SO(k)-conjugate to the identity",
                certificate="a nontrivial endomorphism of SO(k) is an"
                " automorphism; Aut(SO(k)) is conjugation by O(k) for even k >= 6,"
                " so there are exactly two classes modulo inner",
            ))
    families.append(OrthRepFamily(
        "so4-factor-projections", "SO(4)", 3, (ONE,),
        labels=("factor1", "factor2"),
        distinct_classes="the two projections have the two distinct so(3)"
        " ideals as kernels, so no conjugation identifies them",
        certificate="the kernel of a nontrivial map so(3)+so(3) -> so(3) must"
        " be one of the two ideals (kernel 0 is excluded by dimension), leaving"
        " the two quotient projections SO(4) -> SO(4)/Z2 = SO(3) x SO(3) ->"
        " SO(3); each sends the pi1 generator to the generator",
    ))
    families.append(OrthRepFamily(
        "so4-identity", "SO(4)", 4, (ONE,),
        labels=("identity",),
        distinct_classes="identity class only; further classes not catalogued",
    ))
    for k in range(3, 9):
        families.append(OrthRepFamily(
            f"so{k}-block-inclusion", f"SO({k})", k + 1, (ONE,),
            labels=("block",),
            distinct_classes="top-left block inclusion",
            extends_to=f"SO({k + 1})",
        ))
    for k in range(1, 6):
        families.append(OrthRepFamily(
            f"u{k}-det-powers", f"U({k})", 2, (S,),
            param_constraint=UNCONSTRAINED,
            distinct_classes="the target U(1) is abelian, so distinct exponents"
            " give non-conjugate homomorphisms",
            extends_to=f"U({k + 1})",
            certificate="hom(U(k), U(1)) factors through the abelianisation,"
            " which is det: U(k) -> U(1); the powers det^s are all of them",
        ))
    for k in range(0, 4):
        families.append(OrthRepFamily(
            f"sp{k}u1-circle-powers", f"Sp({k}){DOT}U(1)", 2, (HALF_S,),
            param_constraint=Congruence(2, 0),
            distinct_classes="abelian target: distinct exponents give"
            " non-conjugate homomorphisms",
            extends_to=f"Sp({k + 1}){DOT}U(1)",
            certificate="a hom to U(1) kills the semisimple factor, so it is"
            " [A, z] -> z^s; well-defined on the Z2 quotient iff s is even; the"
            " half-diagonal generator maps to winding s/2",
        ))
    families.append(OrthRepFamily(
        "sp0sp1-adjoint", f"Sp(0){DOT}Sp(1)", 3, (ONE,),
        labels=("sp1-adjoint",),
        distinct_classes="single nontrivial class",
        extends_to=f"Sp(1){DOT}Sp(1)",
        certificate="Sp(0).Sp(1) = SO(3); up to SO(3)-conjugation the only"
        " nontrivial 3-dimensional orthogonal rep of sp(1) is the adjoint, i.e."
        " the identity of SO(3)",
    ))
    families.append(OrthRepFamily(
        "sp1sp1-adjoints", f"Sp(1){DOT}Sp(1)", 3, (ONE,),
        labels=("factor1-adjoint", "factor2-adjoint"),
        distinct_classes="the two factor kernels are distinct ideals, so the"
        " classes are non-conjugate",
        extends_to=f"Sp(2){DOT}Sp(1)",
        certificate="the kernel of a nontrivial map sp(1)+sp(1) -> so(3) is one"
        " ideal (kernel 0 excluded by dimension); each factor then maps by the"
        " unique nontrivial 3-dimensional class, the adjoint",
    ))
    for k in (2, 3):
        families.append(OrthRepFamily(
            f"sp{k}sp1-adjoint", f"Sp({k}){DOT}Sp(1)", 3, (ONE,),
            labels=("sp1-adjoint",),
            distinct_classes="single nontrivial class",
            extends_to=f"Sp({k + 1}){DOT}Sp(1)",
            certificate=f"sp({k}) has no nontrivial orthogonal rep below"
            f" dimension {simple_ideal('sp', k).min_orth_rep_dim} > 3, so an"
            " so(3)-valued map kills it; the sp(1) factor contributes its unique"
            " nontrivial 3-dimensional class, the adjoint, whose half-diagonal"
            " image is the pi1 generator",
        ))
    return tuple(families)


def _spaces():
    """(name, G, H, n, isotropy images, provenance) of each sphere."""
    round_cite = (
        "round sphere: the stabiliser acts on the tangent space by its standard"
        " vector representation, so the isotropy map on pi1 is the identity"
        " (Montgomery-Samelson list; Besse, Einstein Manifolds 7.13)"
    )
    for n in range(1, 9):
        yield (f"S{n}:SO({n + 1})", f"SO({n + 1})", f"SO({n})", n,
               [] if n == 1 else [1], round_cite)
    for k in (1, 2, 3, 5):
        n = 2 * k + 1
        yield (f"S{n}:U({k + 1})", f"U({k + 1})", f"U({k})", n, [1],
               "S^(2k+1) in C^(k+1): the stabiliser U(k) acts on C^k + R by the"
               " vector rep plus a trivial line; the center loop rotates one"
               " complex plane, hence maps to the pi1 generator of SO(2k+1)")
    for k in (1, 2, 3):
        n = 2 * k + 1
        yield (f"S{n}:SU({k + 1})", f"SU({k + 1})", f"SU({k})", n, [],
               "stabiliser SU(k) is simply connected, so the isotropy pi1 map is"
               " zero")
    for k in (0, 1, 2):
        n = 4 * k + 3
        yield (f"S{n}:Sp({k + 1})", f"Sp({k + 1})", f"Sp({k})", n, [],
               "stabiliser Sp(k) is simply connected, so the isotropy pi1 map is"
               " zero")
    for k in (0, 1, 2):
        n = 4 * k + 3
        yield (f"S{n}:Sp({k + 1}){DOT}U(1)", f"Sp({k + 1}){DOT}U(1)",
               f"Sp({k}){DOT}U(1)", n, [(k + 1) % 2],
               "S^(4k+3) in H^(k+1): the stabiliser Sp(k).U(1) acts on H^k by"
               " [A,z] v = A v z-bar, on C by z^2 and trivially on R; along the"
               " half-diagonal path the H^k part winds once per quaternionic"
               " coordinate and the z^2 block winds once, so the isotropy class"
               " is (k+1) mod 2 (computation; cf. the spin verdicts in the"
               " Montgomery-Samelson realisation literature)")
    for k in (0, 1, 2):
        n = 4 * k + 3
        yield (f"S{n}:Sp({k + 1}){DOT}Sp(1)", f"Sp({k + 1}){DOT}Sp(1)",
               f"Sp({k}){DOT}Sp(1)", n, [(k + 1) % 2],
               "S^(4k+3) in H^(k+1): the stabiliser Sp(k).Sp(1) acts on H^k by"
               " [A,q] v = A v q-bar and on Im H = R^3 by the adjoint of q; along"
               " the half-diagonal path each quaternionic coordinate winds once"
               " and the adjoint block winds once, so the isotropy class is"
               " (k+1) mod 2")
    yield ("S6:G2", "G2", "SU(3)", 6, [],
           "the 6-sphere in Im O: stabiliser SU(3) is simply connected")
    yield ("S7:Spin(7)", "Spin(7)", "G2", 7, [],
           "the 7-sphere via the spin rep of Spin(7): stabiliser G2 is simply"
           " connected")
    yield ("S15:Spin(9)", "Spin(9)", "Spin(7)", 15, [],
           "the 15-sphere via the spin rep of Spin(9): stabiliser Spin(7) is"
           " simply connected")


def _holonomies():
    """(group, m, holonomy images, provenance) of the irreducible
    non-symmetric holonomy list."""
    for m in range(2, 11):
        yield (f"SO({m})", m, [1],
               "generic Riemannian holonomy: the holonomy rep is the identity of"
               " SO(m)")
    for k in range(1, 5):
        yield (f"U({k})", 2 * k, [1],
               "Kaehler holonomy: the standard rep U(k) < SO(2k); the center loop"
               " rotates one complex plane")
    for k in range(2, 5):
        yield (f"SU({k})", 2 * k, [], "Calabi-Yau holonomy: SU(k) is simply connected")
    for k in range(1, 4):
        yield (f"Sp({k})", 4 * k, [], "hyperkaehler holonomy: Sp(k) is simply connected")
    for k in range(1, 4):
        yield (f"Sp({k}){DOT}Sp(1)", 4 * k, [k % 2],
               "quaternion-Kaehler holonomy on H^k = R^4k: along the half-diagonal"
               " path each quaternionic coordinate winds once, so the class is"
               " k mod 2")
    yield ("G2", 7, [], "exceptional G2 holonomy: G2 is simply connected")
    yield ("Spin(7)", 8, [],
           "exceptional Spin(7) holonomy: Spin(7) is simply connected")
