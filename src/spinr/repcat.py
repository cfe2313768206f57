"""Conjugacy families of orthogonal representations and the rule engine
that certifies when none but the trivial one can exist.

A family records homomorphisms from a catalog group into some SO(r) up
to SO(r)-conjugation, either as a finite list of class labels or as one
integer parameter subject to a congruence (e.g. the even powers of a
circle coordinate).  What the decision procedures actually consume is
the induced map on fundamental groups, stored per domain generator as
an affine expression in the parameter.

Completeness is never assumed.  A family list at (domain, r) counts as
exhaustive only when it carries a citation, or when the rule engine
proves outright that every Lie algebra homomorphism into so(r) is zero.
The engine's rules are necessary conditions on the kernel, which must
be a sum of simple ideals plus a central subspace; the engine can
therefore prove that only the zero map exists, or say "cannot rule
out", but it never asserts existence.  The verdict is decided once, in
closed form, by :func:`first_possible_rank`; :func:`hom_rule_trace`
writes the proof text behind it, which a :class:`RuleProof` renders
only when an answer is printed.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt

from .abelian import AbHom, FgAbGroup, Record, _new, cyclic_images
from .catalogfile import Block, CatalogParseError, parse_int
from .liecat import (
    AlgebraProfile, CompactGroupRec, SimpleIdeal, so_pi1_map, so_pi1_target,
)


# --- congruence constraints ---------------------------------------------------

class Congruence(Record):
    """The set of integers s with s = residue (mod modulus).

    modulus 1 is the unconstrained set.  The residue is stored reduced
    into [0, modulus).
    """

    __slots__ = ()

    def __new__(cls, modulus: int, residue: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        return tuple.__new__(cls, (modulus, residue % modulus))

    def contains(self, s: int) -> bool:
        return s % self.modulus == self.residue

    def sample(self, count: int) -> list[int]:
        """A few admissible values, straddling zero."""
        return [self.residue + k * self.modulus for k in range(-(count // 2), count - count // 2)]

    def __str__(self):
        if self.modulus == 1:
            return "s ∈ Z"
        if self.modulus == 2:
            return "s even" if self.residue == 0 else "s odd"
        return f"s ≡ {self.residue} mod {self.modulus}"


UNCONSTRAINED = Congruence(1, 0)

# compiled, and re imported, on first use, like _term_re and
# catalogfile._line_re: only files need them
@cache
def _cong_re():
    import re

    return re.compile(r"^s\s*(?:=|≡)\s*(-?[0-9]+)\s*mod\s*([0-9]+)$")


def parse_congruence(text: str) -> Congruence:
    """Parse 's in Z' / 's even' / 's odd' / 's = 2 mod 4' forms."""
    t = text.strip()
    if t in ("s in Z", "s ∈ Z"):
        return UNCONSTRAINED
    if t == "s even":
        return Congruence(2, 0)
    if t == "s odd":
        return Congruence(2, 1)
    m = _cong_re().match(t)
    if m:
        return Congruence(parse_int(m.group(2)), parse_int(m.group(1)))
    raise ValueError(f"cannot parse congruence constraint {text!r}")


# --- affine expressions in the family parameter -------------------------------

class AffineInt(Record):
    """(num * s + off) / den, integral on admissible s; lowest terms, den >= 1.
    ``coeff`` and ``offset`` read its coefficients as Fractions."""

    __slots__ = ()
    coeff = property(lambda self: _fraction(self.num, self.den))
    offset = property(lambda self: _fraction(self.off, self.den))

    def __new__(cls, num: int, off: int, den: int = 1):
        if den < 1:
            raise ValueError(f"affine denominator {den} < 1")
        g = gcd(num, off, den)
        return tuple.__new__(cls, (num // g, off // g, den // g))

    def eval(self, s: int) -> int:
        value, rest = divmod(self.num * s + self.off, self.den)
        if rest:
            raise ValueError(f"{self} is not integral at s={s}")
        return value

    def __str__(self):
        num, off, den = self
        g, h = gcd(num, den), gcd(off, den)
        offset = str(off // h) if h == den else f"{off // h}/{den // h}"
        if num == 0:
            return offset
        term = "s" if num == g else f"{num // g}*s"
        term += "" if g == den else f"/{den // g}"
        return term + ("+" + offset if off > 0 else offset if off else "")


def _fraction(n: int, d: int):
    from fractions import Fraction  # imported only where rationals are read
    return Fraction(n, d)


@cache
def _term_re():  # a term: [sign] [num*] s [/den], or [sign] const
    import re

    return re.compile(r"([+-]?)(?:(?:([0-9]+)\*)?s(?:/([0-9]+))?|([0-9]+))")


def parse_affine(text: str) -> AffineInt:
    """Parse '1', 's', '-s', '2*s', 's/2', '3*s/2+1', 's+4' etc.: terms
    joined by signs, each sign followed by a term."""
    src = text.replace(" ", "")
    if not src:
        raise ValueError("empty affine expression")
    num, offset, den, pos = 0, 0, 1, 0  # the coefficient of s is num/den
    while pos < len(src):
        m = _term_re().match(src, pos)
        if m is None or not (pos == 0 or m[1]):
            raise ValueError(f"cannot parse affine term {src[pos:]!r} in {text!r}")
        sign, n, d, const = m.groups()
        sign = -1 if sign == "-" else 1
        if const is not None:
            offset += sign * parse_int(const)
        else:
            n, d = parse_int(n or "1"), parse_int(d or "1")
            if d == 0:
                raise ValueError(f"zero denominator in {text!r}")
            num, den = num * d + sign * n * den, den * d
        pos = m.end()
    return AffineInt(num, offset * den, den)


# --- representation families ---------------------------------------------------

class OrthRepFamily(Record):
    """One conjugacy family of homomorphisms domain -> SO(target_r).

    ``labels`` is set for a finite family (one label per conjugacy
    class, all sharing the same induced fundamental-group map) and
    ``param_constraint`` for an integer-parameterised one.  The
    ``certificate`` cites why the family list at (domain, target_r) is
    exhaustive, or carries the literal flag "incomplete".
    """

    __slots__ = ()

    def __new__(
        cls,
        name: str,
        domain: str,
        target_r: int,
        pi1_images: tuple[AffineInt, ...],
        labels: tuple[str, ...] | None = None,
        param_constraint: Congruence | None = None,
        distinct_classes: str = "",
        extends_to: str | None = None,
        certificate: str = "incomplete",
    ):
        if (labels is None) == (param_constraint is None):
            raise ValueError(f"family {name}: exactly one of labels/param required")
        return tuple.__new__(
            cls,
            (name, domain, target_r, pi1_images, labels, param_constraint,
             distinct_classes, extends_to, certificate),
        )

    @property
    def parameterized(self) -> bool:
        return self.param_constraint is not None

    @property
    def incomplete(self) -> bool:
        return self.certificate.strip().lower() == "incomplete"

    def pi1_map(self, domain_pi1: FgAbGroup, s: int | None = None) -> AbHom:
        """Concrete induced map for one parameter value (or none)."""
        if self.parameterized:
            if s is None:
                raise ValueError(f"family {self.name} needs a parameter value")
            if not self.param_constraint.contains(s):
                raise ValueError(
                    f"family {self.name}: parameter {s} violates "
                    f"'{self.param_constraint}'"
                )
        else:
            s = 0
        values = [e.eval(s) for e in self.pi1_images]
        return so_pi1_map(domain_pi1, self.target_r, values)


# --- the non-existence rule engine ---------------------------------------------

class RuleTrace(Record):
    """The kernel-candidate scan: a tuple of lines, printed as a proof sketch."""

    __slots__ = ()

    def __new__(cls, lines):
        return _new(cls, (lines,))

    def __str__(self):
        return "; ".join(self.lines)


def no_nontrivial_hom(a: AlgebraProfile, r: int) -> bool:
    """The rule engine's verdict: True when only the zero map a -> so(r)
    exists."""
    r0 = first_possible_rank(a)
    return r0 is None or r < r0


def first_possible_rank(a: AlgebraProfile) -> int | None:
    """The least r at which the rule engine cannot rule out a nonzero
    map a -> so(r); None for the zero algebra, which has none.

    The surviving quotients of :func:`hom_rule_trace` are closed under
    dropping a summand, so one survives exactly when R^1 or a single
    simple ideal does.  R^1 fits from r = 2 on; a simple ideal from the
    least r >= 3 with r >= min_orth_rep_dim and r(r-1)/2 >= dim.  Both
    conditions only get easier as r grows, so the engine excludes a map
    exactly for r < first_possible_rank(a).
    """
    if a.center_rank >= 1:
        return 2
    return min((_ideal_rank(i) for i in a.ideals), default=None)


def _ideal_rank(ideal: SimpleIdeal) -> int:
    r = (1 + isqrt(8 * ideal.dim + 1)) // 2
    while r * (r - 1) // 2 < ideal.dim:
        r += 1
    return max(3, ideal.min_orth_rep_dim, r)


# above this many simple ideals, hom_rule_trace summarises the 2^k sets
TRACE_ALL_IDEAL_SETS_UP_TO = 12


def hom_rule_trace(a: AlgebraProfile, r: int) -> RuleTrace:
    """The proof text behind :func:`no_nontrivial_hom`: every candidate
    kernel of a Lie algebra map a -> so(r) and why it dies.

    A kernel is a sum of simple ideals plus a central subspace, so the
    candidate quotients are: any sub-multiset of ideals plus any centre
    dimension.  A *nontrivial* homomorphism needs a nonzero quotient
    that embeds into so(r), hence:

    * dim(quotient) <= dim so(r) = r(r-1)/2;
    * if r <= 2, so(r) is abelian, so no simple ideal may survive;
    * each surviving simple ideal needs a nontrivial orthogonal
      representation of dimension <= r.

    The trace records the outcome of each candidate in kernel-scan
    order, and closes with the non-existence line when the verdict
    holds.  For one set of ideals only the dimension test depends on the
    centre dimension d, so the centre dimensions d >= 1 fall into at
    most two runs, those that fit and those that exceed; a run of
    several candidates is one line.

    The sets of ideals number 2^k for k ideals.  Above
    TRACE_ALL_IDEAL_SETS_UP_TO ideals the trace lists only the empty set
    and each single ideal, then one line with the closure argument of
    :func:`first_possible_rank` that covers the larger sets.
    """
    so_r_dim = r * (r - 1) // 2
    algebra = _describe_sum(a.ideals, a.center_rank)
    lines = [f"maps {algebra} -> so({r}) (dim {so_r_dim})"]
    ideals = list(a.ideals)
    k = len(ideals)
    summary = k > TRACE_ALL_IDEAL_SETS_UP_TO
    masks = (0, *(1 << i for i in range(k))) if summary else range(1 << k)
    for mask in masks:
        kept = [ideals[i] for i in range(len(ideals)) if mask & (1 << i)]
        ideal_dim = sum(i.dim for i in kept)
        fit = so_r_dim - ideal_dim  # the largest centre dimension that fits
        runs = (
            (0, 0 if kept else -1),  # the zero quotient is the trivial map
            (1, min(a.center_rank, fit)),
            (max(1, fit + 1), a.center_rank),
        )
        for lo, hi in runs:
            if lo <= hi:
                lines.append(_quotient_outcome(kept, ideal_dim, lo, hi, r, so_r_dim))
    if summary:
        lines.append(
            f"the other {(1 << k) - k - 1} sets of two or more ideals are not "
            "listed: surviving quotients are closed under dropping a summand, "
            "so one survives exactly when R^1 or a single ideal does"
        )
    if no_nontrivial_hom(a, r):
        lines.append("every nonzero quotient is excluded: only the zero map exists")
    return RuleTrace(tuple(lines))


def _quotient_outcome(kept, ideal_dim, lo, hi, r, so_r_dim) -> str:
    """The trace line for the quotients kept + R^d, lo <= d <= hi, which
    share one outcome."""
    if lo == hi:
        quotient = _describe_sum(kept, lo)
        qdim = f"dim {ideal_dim + lo}"
    else:
        quotient = f"{_describe_sum(kept, 'd')} for {lo} ≤ d ≤ {hi}"
        qdim = f"dim {ideal_dim + lo} to {ideal_dim + hi}"
    if ideal_dim + lo > so_r_dim:
        return f"quotient {quotient} ({qdim}) exceeds dim so({r})"
    if r <= 2 and kept:
        return f"quotient {quotient} is non-abelian but so({r}) is abelian"
    bad = [i for i in kept if i.min_orth_rep_dim > r]
    if bad:
        return (
            f"quotient {quotient}: ideal {bad[0].kind} has no "
            f"nontrivial orthogonal representation below dim "
            f"{bad[0].min_orth_rep_dim} > {r}"
        )
    return f"quotient {quotient} ({qdim}) cannot be ruled out"


def _describe_sum(ideals, center_dim) -> str:
    """The ideal kinds plus R^center_dim, joined by ' + '; '0' when empty."""
    parts = [i.kind for i in ideals]
    if center_dim:
        parts.append(f"R^{center_dim}")
    return " + ".join(parts) or "0"


# --- enumeration ----------------------------------------------------------------

TRIVIAL_FAMILY_NAME = "trivial"
DIAGONAL_FAMILY_NAME = "diagonal(isotropy)"  # the canonical rank-n twist
HOLONOMY_DIAGONAL_NAME = "diagonal(holonomy)"  # a holonomy's own twist, r = m
# the answers give their own classes these names, so no family may take one
RESERVED_FAMILY_NAMES = frozenset(
    {TRIVIAL_FAMILY_NAME, DIAGONAL_FAMILY_NAME, HOLONOMY_DIAGONAL_NAME}
)
ZERO = AffineInt(0, 0)  # every image of the trivial family


def trivial_family(domain: str, r: int, domain_rank: int) -> OrthRepFamily:
    return OrthRepFamily(
        name=TRIVIAL_FAMILY_NAME,
        domain=domain,
        target_r=r,
        pi1_images=(ZERO,) * domain_rank,
        labels=("trivial",),
        distinct_classes="the constant homomorphism",
        extends_to="(any)",
        certificate="the zero map always exists",
    )


class RuleProof(Record):
    """The rule engine's proof at an unlisted rank, rendered on demand.

    It prints as ``rule engine: `` and the :func:`hom_rule_trace` text,
    and its repr is that text's repr; the text is written each time it
    is asked for, so an answer that is only decided never writes it.
    Two proofs are equal when their algebra and rank are.
    """

    __slots__ = ()

    def __new__(cls, algebra, r):
        return _new(cls, (algebra, r))

    def __str__(self):
        return f"rule engine: {hom_rule_trace(self.algebra, self.r)}"

    def __repr__(self):
        return repr(str(self))


class EnumResult(Record):
    """All known families at (domain, r), with a completeness verdict.

    ``certificate`` is the listed families' citations joined by ``; ``
    (or "incomplete") when a family is listed at (domain, r), and a
    :class:`RuleProof` when none is.
    """

    __slots__ = ()

    def __new__(cls, domain, r, families, complete, certificate):
        return _new(cls, (domain, r, families, complete, certificate))


_FAMILY_KEYS = frozenset({
    "name", "domain", "target_r", "labels", "param", "pi1_images",
    "distinct_classes", "extends_to", "certificate",
})
_PARAM_KEYS = frozenset({"name", "constraint"})


def build_family(entry: tuple, groups) -> OrthRepFamily:
    node = Block(entry, _FAMILY_KEYS)
    labels = tuple(node.list_of("labels", str)) if node.items("labels") else None
    constraint = None
    if node.items("param"):
        param = Block(node.child("param"), _PARAM_KEYS)
        if param.value("name", str) != "s":
            raise CatalogParseError("parameter must be named 's'", param.line)
        constraint = param.build(parse_congruence, param.value("constraint", str))
    extends_to = node.value("extends_to", str, None)
    images = node.build(tuple, map(parse_affine, node.list_of("pi1_images", str)))
    fam = node.build(
        OrthRepFamily,
        node.value("name", str),
        node.value("domain", str),
        node.value("target_r", int),
        images,
        labels,
        constraint,
        node.value("distinct_classes", str),
        extends_to,
        node.value("certificate", str),
    )
    if fam.name in RESERVED_FAMILY_NAMES:
        raise CatalogParseError(f"family name '{fam.name}' is reserved", node.line)
    if fam.parameterized and fam.pi1_images and all(
        e.num == 0 for e in fam.pi1_images
    ):
        raise CatalogParseError(
            f"parameterised family {fam.name} with constant pi1 images",
            node.line,
        )
    group = groups.get(fam.domain)
    if group is None:
        raise CatalogParseError(
            f"family {fam.name}: unknown domain {fam.domain}", node.line
        )
    node.build(_check_family, fam, group)
    return fam


def _check_family(fam: OrthRepFamily, group: CompactGroupRec):
    """Refuse a family whose induced map is ill defined on the domain
    group's pi1 at some admissible parameter value, or which sits at a
    rank where the rule engine proves only the zero map exists."""
    if len(fam.pi1_images) != group.pi1.rank:
        raise ValueError(
            f"family {fam.name}: {len(fam.pi1_images)} images for "
            f"{group.pi1.rank} generators of {fam.domain}"
        )
    # an affine image that is integral and well defined at two
    # consecutive admissible values is so at every admissible value;
    # the check is pi1_map's, made without building the map
    samples = fam.param_constraint.sample(2) if fam.parameterized else [0]
    for s in samples:
        values = [e.eval(s) for e in fam.pi1_images]
        cyclic_images(group.pi1, so_pi1_target(fam.target_r, values), values)
    if no_nontrivial_hom(group.algebra, fam.target_r):
        raise ValueError(
            f"family {fam.name} at ({fam.domain}, {fam.target_r}) "
            f"contradicts the rule engine's non-existence proof"
        )


def enumerate_homs(catalog, H: str, r: int) -> EnumResult:
    """Every known conjugacy family H -> SO(r), always including the
    trivial homomorphism.

    Complete when the listed families all carry completeness
    certificates, or when the rule engine proves only the zero map
    exists; otherwise callers must propagate the uncertainty.
    """
    group = catalog.lookup(H)
    H = group.name  # the catalog's spelling, e.g. '·' for an ASCII '.'
    listed = catalog.families_at(H, r)
    families = (trivial_family(H, r, group.pi1.rank), *listed)
    if listed:
        if any(f.incomplete for f in listed):
            return EnumResult(H, r, families, False, "incomplete")
        cert = "; ".join(f.certificate for f in listed)
        return EnumResult(H, r, families, True, cert)
    return EnumResult(
        H, r, families, no_nontrivial_hom(group.algebra, r),
        RuleProof(group.algebra, r),
    )
