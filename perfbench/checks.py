"""Checks made apart from the program.

Nothing here calls `spinr.lifting` or `spinr.abelian`, and nothing
compares against stored output:

* `sphere_spin_type` is the paper's table of invariant spin types of
  homogeneous spheres as a closed form in n;
* `check_classes` and `check_witnesses` apply the parity rule to plain
  integer coordinates: a twist lifts exactly when, for every generator g
  of pi1(H), sigma(g) and phi(g) have the same parity;
* `check_schema` validates CLI JSON against the bundled output schema.

A check raises `Wrong` when the program answered, but wrongly.
"""

from __future__ import annotations

import re
from fractions import Fraction


class Wrong(Exception):
    """The program answered, and the answer is wrong."""


def require(cond: bool, message: str):
    if not cond:
        raise Wrong(message)


# --- the sphere table ----------------------------------------------------------

_SPACE_RE = re.compile(r"^S(\d+):(.+)$")
_SERIES_RE = re.compile(r"^(SO|U|SU|Sp)\((\d+)\)$")
_SP_TIMES_RE = re.compile(r"^Sp\((\d+)\)[·.](U|Sp)\(1\)$")


def sphere_spin_type(G: str, n: int) -> int:
    """Invariant spin type of S^n = G/H, from the paper's table."""
    m = _SERIES_RE.match(G)
    if m:
        series, k = m.group(1), int(m.group(2))
        if series == "SO":
            require(k == n + 1, f"SO({k}) does not act transitively on S^{n}")
            return 3 if n == 4 else n
        return 2 if series == "U" else 1
    m = _SP_TIMES_RE.match(G)
    if m:
        index = int(m.group(1)) - 1  # S^(4 index + 3) = Sp(index+1)·A / ...
        odd = index % 2 == 1
        if m.group(2) == "U":
            return 1 if odd else 2
        return 1 if odd else 3
    if G in ("G2", "Spin(7)", "Spin(9)"):
        return 1
    raise ValueError(f"no closed form for the group {G!r}")


def split_space_name(name: str) -> tuple[int, str]:
    m = _SPACE_RE.match(name)
    if not m:
        raise ValueError(f"not a sphere name: {name!r}")
    return int(m.group(1)), m.group(2)


def expected_spin_type(space_name: str) -> int:
    n, G = split_space_name(space_name)
    return sphere_spin_type(G, n)


# --- the parity rule on plain coordinates --------------------------------------

def parity(value: int, k: int) -> int:
    """Parity of an element of pi1(SO(k)) given by its one coordinate
    (pi1(SO(1)) is trivial, pi1(SO(2)) = Z, pi1(SO(k)) = Z/2 after)."""
    return 0 if k == 1 else value % 2


_CONG_RE = re.compile(r"^s ≡ (-?\d+) mod (\d+)$")


def constraint_samples(text: str) -> list[int]:
    """A few parameter values satisfying a rendered congruence."""
    if text == "s ∈ Z":
        modulus, residue = 1, 0
    elif text in ("s even", "s odd"):
        modulus, residue = 2, int(text == "s odd")
    else:
        m = _CONG_RE.match(text)
        require(m is not None, f"unreadable parameter constraint {text!r}")
        modulus, residue = int(m.group(2)), int(m.group(1))
    return [residue + t * modulus for t in (-1, 0, 1, 2)]


def _eval(images, s: int) -> list[int]:
    out = []
    for coeff, offset in images:
        v = Fraction(coeff) * s + Fraction(offset)
        require(v.denominator == 1, f"image {coeff}*s+{offset} not integral at s={s}")
        out.append(int(v))
    return out


def twist_images(family: str, constraint, sigma, families) -> list[list[int]]:
    """Images phi(g) of the twist a returned class stands for: one list
    per parameter value sampled from its congruence."""
    if family == "trivial":
        return [[0] * len(sigma)]
    if family.startswith("diagonal("):
        return [list(sigma)]
    require(family in families, f"class names an unknown family {family!r}")
    images = families[family]
    require(len(images) == len(sigma), f"{family}: image count != generator count")
    if constraint is None:
        return [_eval(images, 0)]
    return [_eval(images, s) for s in constraint_samples(str(constraint))]


def lifts(sigma, n: int, phi, r: int) -> bool:
    return all(parity(a, n) == parity(b, r) for a, b in zip(sigma, phi))


def check_classes(classes, sigma, n: int, r: int, families, where: str):
    """Every returned class passes the parity rule.  `classes` holds
    (family, label, constraint) triples."""
    for family, label, constraint in classes:
        for phi in twist_images(family, constraint, sigma, families):
            require(
                lifts(sigma, n, phi, r),
                f"{where}: class {family}:{label} at r={r} breaks the parity "
                f"rule (sigma={list(sigma)}, phi={phi})",
            )


def _rank(k: int) -> int:
    return 0 if k == 1 else 1


def check_witnesses(rejected, n: int, r: int, where: str):
    """Every rejection witness breaks the parity rule.  `rejected`
    holds (family, [(generator, image coordinates), ...]) pairs; the
    coordinates list pi1(SO(n)) first, then pi1(SO(r))."""
    for family, witnesses in rejected:
        require(witnesses, f"{where}: family {family} rejected without a witness")
        for generator, image in witnesses:
            image = list(image)
            require(
                len(image) == _rank(n) + _rank(r),
                f"{where}: witness {image} is not in pi1(SO({n})) x pi1(SO({r}))",
            )
            a = image[0] if _rank(n) else 0
            b = image[-1] if _rank(r) else 0
            require(
                parity(a, n) != parity(b, r),
                f"{where}: witness {generator} -> {image} of {family} at r={r} "
                f"satisfies the parity rule",
            )


def check_holonomy(where, m: int, r: int, verdict: str, via, complete: bool,
                   rejected, images, families):
    """A tri-state holonomy verdict agrees with its evidence: "yes" iff
    some twist lifts, "no" only on a complete enumeration, "yes" at
    r = m (the diagonal twist), and the parity rule holds throughout."""
    require(verdict in ("yes", "no", "unknown"), f"{where}: verdict {verdict!r}")
    require((verdict == "yes") == bool(via), f"{where}: verdict {verdict} vs via")
    require(verdict != "no" or complete, f"{where}: 'no' on an incomplete list")
    if r == m:
        require(verdict == "yes", f"{where}: the diagonal twist always lifts")
    check_classes(via, images, m, r, families, where)
    check_witnesses(rejected, m, r, where)


# --- helpers for the in-process result objects --------------------------------

def class_triples(classes):
    return [(c.family, c.label, c.constraint) for c in classes]


def rejected_pairs(rejected):
    return [(rej.family, rej.witnesses) for rej in rejected]


def affine_table(catalog_families) -> dict:
    """Family name -> ((coeff, offset), ...) read off loaded records."""
    return {
        f.name: tuple((e.coeff, e.offset) for e in f.pi1_images)
        for f in catalog_families
    }


# --- CLI JSON output ------------------------------------------------------------

def check_schema(validator, record: dict, where: str):
    for error in validator.iter_errors(record):
        raise Wrong(f"{where}: schema violation at {list(error.path)}: {error.message}")


def json_classes(items):
    return [(c["family"], c["label"], c["constraint"]) for c in items]


def json_rejected(items):
    return [
        (r["family"], [(w["generator"], w["image"]) for w in r["witnesses"]])
        for r in items
    ]
