#!/usr/bin/env python3
"""Regenerate src/spinr/data/catalog.txt.

The bundled catalog is ordinary data: this script only exists so the
formulaic families (SO(k), U(k), ...) need not be typed by hand.  Run
from the repository root:

    python3 tools/make_catalog.py

The output is deterministic; commit the regenerated file.
"""

from __future__ import annotations

import os

OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "src", "spinr", "data", "catalog.txt",
)

DOT = "·"  # middle dot in group names like Sp(2)·Sp(1)

lines: list[str] = []


def emit(text: str = ""):
    lines.append(text)


def q(s: str) -> str:
    return f'"{s}"'


def emit_block(kind: str, pairs, indent: int = 0):
    pad = "  " * indent
    emit(f"{pad}{kind} {{")
    for key, value in pairs:
        if isinstance(value, tuple) and value and value[0] == "__block__":
            emit_block(key, value[1], indent + 1)
        elif isinstance(value, list):
            emit(f"{pad}  {key}: [{', '.join(value)}]")
        else:
            emit(f"{pad}  {key}: {value}")
    emit(f"{pad}}}")
    emit()


def block(pairs):
    return ("__block__", pairs)


def ideal(kind: str, dim: int, min_orth: int, provenance: str):
    return (
        "ideal",
        block(
            [
                ("kind", q(kind)),
                ("dim", dim),
                ("min_orth_rep", min_orth),
                ("provenance", q(provenance)),
            ]
        ),
    )


def so_ideal_entry(k: int):
    if k == 3:
        return ideal(
            "so(3)", 3, 3,
            "smallest nontrivial orthogonal rep of so(3) is the adjoint/vector"
            " rep in dim 3; targets so(1), so(2) are abelian",
        )
    return ideal(
        f"so({k})", k * (k - 1) // 2, k,
        f"vector rep of so({k}) in dim {k} is minimal; spinor reps have real"
        f" dimension >= {k} for k >= 5 (Onishchik-Vinberg tables)",
    )


def su_ideal_entry(k: int):
    if k == 2:
        return ideal(
            "su(2)", 3, 3,
            "su(2) = so(3): adjoint rep in dim 3 is the smallest nontrivial"
            " orthogonal rep",
        )
    return ideal(
        f"su({k})", k * k - 1, 2 * k,
        f"realified vector rep C^{k} = R^{2*k} is the smallest orthogonal rep"
        f" of su({k}) (complex irreps below dim {k*k-1} are the vector and its"
        " dual; both complex type)",
    )


def sp_ideal_entry(k: int):
    if k == 1:
        return ideal(
            "sp(1)", 3, 3,
            "sp(1) = so(3): adjoint rep in dim 3 is the smallest nontrivial"
            " orthogonal rep",
        )
    if k == 2:
        return ideal(
            "sp(2)", 10, 5,
            "sp(2) = so(5): the so(5)-vector rep in dim 5 is minimal",
        )
    return ideal(
        f"sp({k})", k * (2 * k + 1), 4 * k,
        f"realified vector rep H^{k} = R^{4*k} is the smallest orthogonal rep"
        f" of sp({k}) for k >= 3 (quaternionic vector irrep doubles; other"
        " fundamentals are larger)",
    )


def pi1_block(free: int, torsion: list[int], generators: list[str]):
    return (
        "pi1",
        block(
            [
                ("free_rank", free),
                ("torsion", [str(d) for d in torsion]),
                ("generators", [q(g) for g in generators]),
            ]
        ),
    )


def algebra_block(center: int, ideals):
    return ("algebra", block([("center_rank", center)] + list(ideals)))


def group(name, pi1, algebra, provenance):
    emit_block(
        "group",
        [
            ("name", q(name)),
            pi1,
            algebra,
            ("connected", "true"),
            ("provenance", q(provenance)),
        ],
    )


def repfamily(name, domain, r, pi1_images, *, labels=None, param=None,
              distinct, extends_to=None, certificate):
    pairs = [
        ("name", q(name)),
        ("domain", q(domain)),
        ("target_r", r),
    ]
    if labels is not None:
        pairs.append(("labels", [q(s) for s in labels]))
    if param is not None:
        pairs.append(("param", block([("name", q("s")), ("constraint", q(param))])))
    pairs += [
        ("pi1_images", [q(s) for s in pi1_images]),
        ("distinct_classes", q(distinct)),
    ]
    if extends_to:
        pairs.append(("extends_to", q(extends_to)))
    pairs.append(("certificate", q(certificate)))
    emit_block("repfamily", pairs)


def space(name, G, H, n, sigma_images, provenance):
    emit_block(
        "space",
        [
            ("name", q(name)),
            ("G", q(G)),
            ("H", q(H)),
            ("n", n),
            ("sigma_pi1_images", [str(v) for v in sigma_images]),
            ("provenance", q(provenance)),
        ],
    )


def holonomy(group_name, m, images, provenance):
    emit_block(
        "holonomy",
        [
            ("group", q(group_name)),
            ("m", m),
            ("h_pi1_images", [str(v) for v in images]),
            ("provenance", q(provenance)),
        ],
    )


SO_PI1_CITE = (
    "pi1(SO(1)) = 1, pi1(SO(2)) = Z, pi1(SO(k)) = Z/2 for k >= 3;"
    " Hatcher, Algebraic Topology, Sec. 3.D / standard"
)
HALF_DIAG_CITE = (
    "pi1 of (K x A)/{+-(1,1)} with K simply connected is generated by the"
    " class of a path from (1,1) to (-1,-1); its square is the A-loop"
    " (for A = U(1)) or trivial (for A = Sp(1))"
)


def render() -> str:
    """The full catalog text."""
    lines.clear()
    emit("# Catalog of compact connected Lie groups, orthogonal representation")
    emit("# families, homogeneous sphere realisations and holonomy records.")
    emit("# Regenerate with tools/make_catalog.py; edits here are data edits.")
    emit()
    emit("catalog_version: 1")
    emit()

    # ----- groups: special orthogonal family ------------------------------
    emit("# --- special orthogonal groups ---")
    emit()
    for k in range(1, 13):
        if k == 1:
            pi1 = pi1_block(0, [], [])
        elif k == 2:
            pi1 = pi1_block(1, [], ["alpha"])
        else:
            pi1 = pi1_block(0, [2], ["alpha"])
        if k <= 1:
            alg = algebra_block(0, [])
        elif k == 2:
            alg = algebra_block(1, [])
        elif k == 4:
            alg = algebra_block(0, [so_ideal_entry(3), so_ideal_entry(3)])
        else:
            alg = algebra_block(0, [so_ideal_entry(k)])
        group(f"SO({k})", pi1, alg, SO_PI1_CITE)

    # ----- unitary and special unitary families ---------------------------
    emit("# --- unitary groups ---")
    emit()
    for k in range(1, 7):
        pi1 = pi1_block(1, [], ["center_loop"])
        ideals = [] if k == 1 else [su_ideal_entry(k)]
        group(
            f"U({k})", pi1, algebra_block(1, ideals),
            "det: U(k) -> U(1) induces an isomorphism on pi1;"
            " generator: the loop diag(exp(2 pi i t), 1, ..., 1)",
        )
    for k in range(1, 7):
        pi1 = pi1_block(0, [], [])
        ideals = [] if k == 1 else [su_ideal_entry(k)]
        group(
            f"SU({k})", pi1, algebra_block(0, ideals),
            "SU(k) is simply connected (SU(1) is the trivial group)",
        )

    # ----- symplectic family ----------------------------------------------
    emit("# --- symplectic groups and their circle/sphere extensions ---")
    emit()
    for k in range(0, 5):
        ideals = [] if k == 0 else [sp_ideal_entry(k)]
        group(
            f"Sp({k})", pi1_block(0, [], []), algebra_block(0, ideals),
            "Sp(k) is simply connected (Sp(0) is the trivial group)",
        )
    for k in range(0, 4):
        ideals = [] if k == 0 else [sp_ideal_entry(k)]
        group(
            f"Sp({k}){DOT}U(1)", pi1_block(1, [], ["half_diag"]),
            algebra_block(1, ideals), HALF_DIAG_CITE,
        )
    for k in range(0, 4):
        ideals = [sp_ideal_entry(1)] if k == 0 else [sp_ideal_entry(k), sp_ideal_entry(1)]
        group(
            f"Sp({k}){DOT}Sp(1)", pi1_block(0, [2], ["half_diag"]),
            algebra_block(0, ideals), HALF_DIAG_CITE,
        )

    # ----- exceptional / spin ----------------------------------------------
    emit("# --- exceptional and spin groups ---")
    emit()
    group(
        "G2", pi1_block(0, [], []),
        algebra_block(0, [ideal(
            "g2", 14, 7,
            "the fundamental 7-dimensional rep G2 < SO(7) is the smallest"
            " nontrivial rep of g2",
        )]),
        "the compact exceptional group G2 is simply connected",
    )
    group(
        "Spin(7)", pi1_block(0, [], []),
        algebra_block(0, [so_ideal_entry(7)]),
        "Spin(7) is simply connected; its algebra is so(7)",
    )
    group(
        "Spin(9)", pi1_block(0, [], []),
        algebra_block(0, [so_ideal_entry(9)]),
        "Spin(9) is simply connected; its algebra is so(9)",
    )

    # ----- representation families ------------------------------------------
    emit("# --- orthogonal representation families ---")
    emit()
    repfamily(
        "so2-circle-powers", "SO(2)", 2, ["s"],
        param="s in Z",
        distinct="SO(2) is abelian, so conjugation is trivial and distinct"
                 " exponents give non-conjugate homomorphisms",
        certificate="every Lie group endomorphism of SO(2) = U(1) is a power"
                    " map z -> z^s",
    )
    for k in range(3, 10):
        if k == 4:
            continue
        if k % 2 == 1:
            repfamily(
                f"so{k}-identity", f"SO({k})", k, ["1"],
                labels=["identity"],
                distinct="single nontrivial class",
                certificate=(
                    "a nontrivial endomorphism of SO(k) is injective on the"
                    " simple algebra so(k), hence an automorphism; for odd k"
                    " all automorphisms are inner (conjugation by -1 in O(k)"
                    " is trivial), so the identity is the only class"
                ),
            )
        else:
            repfamily(
                f"so{k}-identity", f"SO({k})", k, ["1"],
                labels=["identity", "conjugate-by-reflection"],
                distinct="conjugation by a reflection in O(k) is an outer"
                         " automorphism for even k, not SO(k)-conjugate to"
                         " the identity",
                certificate=(
                    "a nontrivial endomorphism of SO(k) is an automorphism;"
                    " Aut(SO(k)) is conjugation by O(k) for even k >= 6, so"
                    " there are exactly two classes modulo inner"
                ),
            )
    repfamily(
        "so4-factor-projections", "SO(4)", 3, ["1"],
        labels=["factor1", "factor2"],
        distinct="the two projections have the two distinct so(3) ideals as"
                 " kernels, so no conjugation identifies them",
        certificate=(
            "the kernel of a nontrivial map so(3)+so(3) -> so(3) must be one"
            " of the two ideals (kernel 0 is excluded by dimension), leaving"
            " the two quotient projections SO(4) -> SO(4)/Z2 = SO(3) x SO(3)"
            " -> SO(3); each sends the pi1 generator to the generator"
        ),
    )
    repfamily(
        "so4-identity", "SO(4)", 4, ["1"],
        labels=["identity"],
        distinct="identity class only; further classes not catalogued",
        certificate="incomplete",
    )
    for k in range(3, 9):
        repfamily(
            f"so{k}-block-inclusion", f"SO({k})", k + 1, ["1"],
            labels=["block"],
            distinct="top-left block inclusion",
            extends_to=f"SO({k + 1})",
            certificate="incomplete",
        )
    for k in range(1, 6):
        repfamily(
            f"u{k}-det-powers", f"U({k})", 2, ["s"],
            param="s in Z",
            distinct="the target U(1) is abelian, so distinct exponents give"
                     " non-conjugate homomorphisms",
            extends_to=f"U({k + 1})",
            certificate=(
                "hom(U(k), U(1)) factors through the abelianisation, which"
                " is det: U(k) -> U(1); the powers det^s are all of them"
            ),
        )
    for k in range(0, 4):
        repfamily(
            f"sp{k}u1-circle-powers", f"Sp({k}){DOT}U(1)", 2, ["s/2"],
            param="s even",
            distinct="abelian target: distinct exponents give non-conjugate"
                     " homomorphisms",
            extends_to=f"Sp({k + 1}){DOT}U(1)",
            certificate=(
                "a hom to U(1) kills the semisimple factor, so it is"
                " [A, z] -> z^s; well-defined on the Z2 quotient iff s is"
                " even; the half-diagonal generator maps to winding s/2"
            ),
        )
    repfamily(
        "sp0sp1-adjoint", f"Sp(0){DOT}Sp(1)", 3, ["1"],
        labels=["sp1-adjoint"],
        distinct="single nontrivial class",
        extends_to=f"Sp(1){DOT}Sp(1)",
        certificate=(
            "Sp(0).Sp(1) = SO(3); up to SO(3)-conjugation the only"
            " nontrivial 3-dimensional orthogonal rep of sp(1) is the"
            " adjoint, i.e. the identity of SO(3)"
        ),
    )
    repfamily(
        "sp1sp1-adjoints", f"Sp(1){DOT}Sp(1)", 3, ["1"],
        labels=["factor1-adjoint", "factor2-adjoint"],
        distinct="the two factor kernels are distinct ideals, so the classes"
                 " are non-conjugate",
        extends_to=f"Sp(2){DOT}Sp(1)",
        certificate=(
            "the kernel of a nontrivial map sp(1)+sp(1) -> so(3) is one"
            " ideal (kernel 0 excluded by dimension); each factor then maps"
            " by the unique nontrivial 3-dimensional class, the adjoint"
        ),
    )
    for k in range(2, 4):
        repfamily(
            f"sp{k}sp1-adjoint", f"Sp({k}){DOT}Sp(1)", 3, ["1"],
            labels=["sp1-adjoint"],
            distinct="single nontrivial class",
            extends_to=f"Sp({k + 1}){DOT}Sp(1)",
            certificate=(
                f"sp({k}) has no nontrivial orthogonal rep below dimension"
                f" {5 if k == 2 else 4 * k} > 3, so an so(3)-valued map kills"
                " it; the sp(1) factor contributes its unique nontrivial"
                " 3-dimensional class, the adjoint, whose half-diagonal"
                " image is the pi1 generator"
            ),
        )

    # ----- homogeneous sphere realisations -----------------------------------
    emit("# --- homogeneous sphere realisations ---")
    emit()
    ROUND = (
        "round sphere: the stabiliser acts on the tangent space by its"
        " standard vector representation, so the isotropy map on pi1 is the"
        " identity (Montgomery-Samelson list; Besse, Einstein Manifolds 7.13)"
    )
    for n in range(1, 9):
        space(f"S{n}:SO({n + 1})", f"SO({n + 1})", f"SO({n})", n,
              [] if n == 1 else [1], ROUND)
    U_CITE = (
        "S^(2k+1) in C^(k+1): the stabiliser U(k) acts on C^k + R by the"
        " vector rep plus a trivial line; the center loop rotates one"
        " complex plane, hence maps to the pi1 generator of SO(2k+1)"
    )
    for k, n in [(1, 3), (2, 5), (3, 7), (5, 11)]:
        space(f"S{n}:U({k + 1})", f"U({k + 1})", f"U({k})", n, [1], U_CITE)
    SU_CITE = "stabiliser SU(k) is simply connected, so the isotropy pi1 map is zero"
    for k, n in [(1, 3), (2, 5), (3, 7)]:
        space(f"S{n}:SU({k + 1})", f"SU({k + 1})", f"SU({k})", n, [], SU_CITE)
    SP_CITE = "stabiliser Sp(k) is simply connected, so the isotropy pi1 map is zero"
    for k, n in [(0, 3), (1, 7), (2, 11)]:
        space(f"S{n}:Sp({k + 1})", f"Sp({k + 1})", f"Sp({k})", n, [], SP_CITE)
    SPU_CITE = (
        "S^(4k+3) in H^(k+1): the stabiliser Sp(k).U(1) acts on H^k by"
        " [A,z] v = A v z-bar, on C by z^2 and trivially on R; along the"
        " half-diagonal path the H^k part winds once per quaternionic"
        " coordinate and the z^2 block winds once, so the isotropy class is"
        " (k+1) mod 2 (computation; cf. the spin verdicts in the"
        " Montgomery-Samelson realisation literature)"
    )
    for k, n in [(0, 3), (1, 7), (2, 11)]:
        space(
            f"S{n}:Sp({k + 1}){DOT}U(1)", f"Sp({k + 1}){DOT}U(1)",
            f"Sp({k}){DOT}U(1)", n, [(k + 1) % 2], SPU_CITE,
        )
    SPSP_CITE = (
        "S^(4k+3) in H^(k+1): the stabiliser Sp(k).Sp(1) acts on H^k by"
        " [A,q] v = A v q-bar and on Im H = R^3 by the adjoint of q; along"
        " the half-diagonal path each quaternionic coordinate winds once and"
        " the adjoint block winds once, so the isotropy class is (k+1) mod 2"
    )
    for k, n in [(0, 3), (1, 7), (2, 11)]:
        space(
            f"S{n}:Sp({k + 1}){DOT}Sp(1)", f"Sp({k + 1}){DOT}Sp(1)",
            f"Sp({k}){DOT}Sp(1)", n, [(k + 1) % 2], SPSP_CITE,
        )
    space(
        "S6:G2", "G2", "SU(3)", 6, [],
        "the 6-sphere in Im O: stabiliser SU(3) is simply connected",
    )
    space(
        "S7:Spin(7)", "Spin(7)", "G2", 7, [],
        "the 7-sphere via the spin rep of Spin(7): stabiliser G2 is simply"
        " connected",
    )
    space(
        "S15:Spin(9)", "Spin(9)", "Spin(7)", 15, [],
        "the 15-sphere via the spin rep of Spin(9): stabiliser Spin(7) is"
        " simply connected",
    )

    # ----- holonomy records ----------------------------------------------------
    emit("# --- holonomy representations (irreducible non-symmetric list) ---")
    emit()
    for m in range(2, 11):
        holonomy(
            f"SO({m})", m, [1],
            "generic Riemannian holonomy: the holonomy rep is the identity"
            " of SO(m)",
        )
    for k in range(1, 5):
        holonomy(
            f"U({k})", 2 * k, [1],
            "Kaehler holonomy: the standard rep U(k) < SO(2k); the center"
            " loop rotates one complex plane",
        )
    for k in range(2, 5):
        holonomy(
            f"SU({k})", 2 * k, [],
            "Calabi-Yau holonomy: SU(k) is simply connected",
        )
    for k in range(1, 4):
        holonomy(
            f"Sp({k})", 4 * k, [],
            "hyperkaehler holonomy: Sp(k) is simply connected",
        )
    for k in range(1, 4):
        holonomy(
            f"Sp({k}){DOT}Sp(1)", 4 * k, [k % 2],
            "quaternion-Kaehler holonomy on H^k = R^4k: along the"
            " half-diagonal path each quaternionic coordinate winds once,"
            " so the class is k mod 2",
        )
    holonomy("G2", 7, [], "exceptional G2 holonomy: G2 is simply connected")
    holonomy(
        "Spin(7)", 8, [],
        "exceptional Spin(7) holonomy: Spin(7) is simply connected",
    )

    return "\n".join(lines).rstrip() + "\n"


def main():
    text = render()
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {OUT} ({len(text.splitlines())} lines)")


if __name__ == "__main__":
    main()
