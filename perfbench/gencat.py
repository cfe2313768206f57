"""Catalog generators for the `scale` and `load` workloads.

Both write catalog text from closed formulas for the classical series
and keep what they wrote: the record counts, the isotropy images of
every space and the images of every family.  The checks compare the
program's answers against that knowledge, never against a stored copy
of earlier output.  The seed only shuffles record order, so every seed
gives the program the same amount of work.

Centre ranks stay at 0 or 1: the rule engine's trace grows with the
centre rank, and the benchmark measures the loader, not that growth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

SO_CITE = "pi1(SO(1)) = 1, pi1(SO(2)) = Z, pi1(SO(k)) = Z/2 for k >= 3"
ROUND_CITE = "round sphere: the stabiliser acts by its vector representation"


@dataclass
class Generated:
    """Catalog text plus everything the generator knows about it."""

    text: str
    groups: int
    families: dict[str, tuple[tuple[Fraction, Fraction], ...]] = field(
        default_factory=dict
    )  # family name -> (coeff, offset) of each pi1 image
    spaces: dict[str, tuple[str, int, tuple[int, ...]]] = field(
        default_factory=dict
    )  # space name -> (G, n, sigma images)
    holonomies: dict[tuple[str, int], tuple[int, ...]] = field(default_factory=dict)

    @property
    def lines(self) -> int:
        return self.text.count("\n")


class _Writer:
    def __init__(self):
        self.blocks: list[str] = []
        self.gen = Generated(text="", groups=0)

    def group(self, name, free, torsion, gens, center, ideals, cite):
        out = [
            "group {",
            f'  name: "{name}"',
            "  pi1 {",
            f"    free_rank: {free}",
            f"    torsion: [{', '.join(str(d) for d in torsion)}]",
            f"    generators: [{', '.join(repr_str(g) for g in gens)}]",
            "  }",
            "  algebra {",
            f"    center_rank: {center}",
        ]
        for kind, dim, rep in ideals:
            out += [
                "    ideal {",
                f'      kind: "{kind}"',
                f"      dim: {dim}",
                f"      min_orth_rep: {rep}",
                f'      provenance: "smallest orthogonal rep of {kind}"',
                "    }",
            ]
        out += ["  }", "  connected: true", f'  provenance: "{cite}"', "}"]
        self.blocks.append("\n".join(out))
        self.gen.groups += 1

    def family(self, name, domain, r, images, labels=None, param=None,
               certificate="cited for the benchmark"):
        out = ["repfamily {", f'  name: "{name}"', f'  domain: "{domain}"',
               f"  target_r: {r}"]
        if labels is not None:
            out.append(f"  labels: [{', '.join(repr_str(s) for s in labels)}]")
        if param is not None:
            out += ["  param {", '    name: "s"', f'    constraint: "{param}"', "  }"]
        out += [
            f"  pi1_images: [{', '.join(repr_str(t) for t in images)}]",
            '  distinct_classes: "generated"',
            f'  certificate: "{certificate}"',
            "}",
        ]
        self.blocks.append("\n".join(out))
        self.gen.families[name] = tuple(AFFINE[t] for t in images)

    def space(self, name, G, H, n, sigma, cite):
        self.blocks.append("\n".join([
            "space {", f'  name: "{name}"', f'  G: "{G}"', f'  H: "{H}"',
            f"  n: {n}", f"  sigma_pi1_images: [{', '.join(map(str, sigma))}]",
            f'  provenance: "{cite}"', "}",
        ]))
        self.gen.spaces[name] = (G, n, tuple(sigma))

    def holonomy(self, group, m, images, cite):
        self.blocks.append("\n".join([
            "holonomy {", f'  group: "{group}"', f"  m: {m}",
            f"  h_pi1_images: [{', '.join(map(str, images))}]",
            f'  provenance: "{cite}"', "}",
        ]))
        self.gen.holonomies[(group, m)] = tuple(images)

    def finish(self, seed: int) -> Generated:
        random.Random(seed).shuffle(self.blocks)
        self.gen.text = "catalog_version: 1\n\n" + "\n\n".join(self.blocks) + "\n"
        return self.gen


def repr_str(s: str) -> str:
    return f'"{s}"'


# The two image expressions the generators write, as (coeff, offset).
AFFINE = {"1": (Fraction(0), Fraction(1)), "s": (Fraction(1), Fraction(0))}
ONE = ("1",)
S_ITSELF = ("s",)


def _so_group(w: _Writer, k: int):
    if k == 1:
        pi1 = (0, (), ())
    elif k == 2:
        pi1 = (1, (), ("alpha",))
    else:
        pi1 = (0, (2,), ("alpha",))
    if k <= 2:
        center, ideals = (1 if k == 2 else 0), []
    elif k == 4:
        center, ideals = 0, [("so(3)", 3, 3), ("so(3)", 3, 3)]
    else:
        center, ideals = 0, [(f"so({k})", k * (k - 1) // 2, k)]
    w.group(f"SO({k})", *pi1, center, ideals, SO_CITE)


def _so_families(w: _Writer, top: int):
    """Every family an SO(n+1) sphere scan needs up to n = top - 1."""
    w.family("so2-circle-powers", "SO(2)", 2, S_ITSELF, param="s in Z")
    w.family("so4-factor-projections", "SO(4)", 3, ONE,
             labels=["factor1", "factor2"])
    for k in range(3, top + 1):
        labels = ["identity"] if k % 2 or k == 4 else [
            "identity", "conjugate-by-reflection"]
        w.family(f"so{k}-identity", f"SO({k})", k, ONE, labels=labels,
                 certificate="incomplete" if k == 4 else "cited for the benchmark")


def _so_spheres(w: _Writer, top: int):
    for n in range(1, top):
        w.space(f"S{n}:SO({n + 1})", f"SO({n + 1})", f"SO({n})", n,
                [] if n == 1 else [1], ROUND_CITE)


def scale_catalog(max_k: int, seed: int) -> Generated:
    """SO(k) for k <= max_k, the identity family at every (SO(k), k) and
    the spheres S^n:SO(n+1) for n < max_k."""
    w = _Writer()
    for k in range(1, max_k + 1):
        _so_group(w, k)
    _so_families(w, max_k)
    _so_spheres(w, max_k)
    return w.finish(seed)


def _su_ideal(k):
    return ("su(2)", 3, 3) if k == 2 else (f"su({k})", k * k - 1, 2 * k)


def _sp_ideal(k):
    if k == 1:
        return ("sp(1)", 3, 3)
    if k == 2:
        return ("sp(2)", 10, 5)
    return (f"sp({k})", k * (2 * k + 1), 4 * k)


def load_catalog(size: int, seed: int) -> Generated:
    """The series SO(k), U(k), SU(k) and Sp(k) for k up to `size`, their
    sphere spaces, finite identity families, parameterised determinant
    families and holonomy records."""
    w = _Writer()
    for k in range(1, size + 1):
        _so_group(w, k)
        w.group(f"U({k})", 1, (), ("center_loop",), 1,
                [] if k == 1 else [_su_ideal(k)], "det induces an isomorphism on pi1")
        w.group(f"SU({k})", 0, (), (), 0, [] if k == 1 else [_su_ideal(k)],
                "SU(k) is simply connected")
    for k in range(0, size + 1):
        w.group(f"Sp({k})", 0, (), (), 0, [] if k == 0 else [_sp_ideal(k)],
                "Sp(k) is simply connected")
    _so_families(w, size)
    for k in range(1, size + 1):
        w.family(f"u{k}-det-powers", f"U({k})", 2, S_ITSELF, param="s in Z")
    _so_spheres(w, size)
    for k in range(1, size):
        n = 2 * k + 1
        w.space(f"S{n}:U({k + 1})", f"U({k + 1})", f"U({k})", n, [1],
                "the centre loop rotates one complex plane")
        w.space(f"S{n}:SU({k + 1})", f"SU({k + 1})", f"SU({k})", n, [],
                "simply connected stabiliser")
    for k in range(0, size):
        w.space(f"S{4 * k + 3}:Sp({k + 1})", f"Sp({k + 1})", f"Sp({k})",
                4 * k + 3, [], "simply connected stabiliser")
    for m in range(2, size + 1):
        w.holonomy(f"SO({m})", m, [1], "generic holonomy")
    for k in range(1, size + 1):
        w.holonomy(f"U({k})", 2 * k, [1], "Kaehler holonomy")
        if k >= 2:
            w.holonomy(f"SU({k})", 2 * k, [], "Calabi-Yau holonomy")
        w.holonomy(f"Sp({k})", 4 * k, [], "hyperkaehler holonomy")
    return w.finish(seed)
