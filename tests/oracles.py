"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: membership is decided by
enumerating integer coefficient vectors over a box, with no shared code
with the Smith-reduction path under test; a lift is decided by comparing
two coordinate parities; the catalog text is parsed one character at a
time; the rule engine's kernel scan visits every centre dimension; the
spin-type scan runs the full classification at every rank; a simple
ideal's dimension and least orthogonal representation come from its
root data, every dominant weight up to the adjoint's dimension typed in
turn.  The subgroup
relations and the index run the library's Smith reduction: they check the
published covering images and their index, which no answer computes.
The command line is read by an argparse parser written out here call by
call, not built from ``spinr.cli``'s option table as the CLI's own
parser is.  A loop's lift to Spin(n) is computed in the Clifford algebra
Cl(n), not read off any parity.
"""

from __future__ import annotations

import argparse
import itertools
import math
import re
import sys
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from spinr.abelian import (
    AbElem,
    AbHom,
    FgAbGroup,
    Subgroup,
    _relation_columns,
    contains,
    smith_diagonalize,
)
from spinr import cli
from spinr.catalogfile import CatalogParseError
from spinr.liecat import so_pi1_map
from spinr.repcat import AffineInt, RuleTrace
from spinr.spaces import (
    InconsistentCatalogError,
    SpinTypeResult,
    canonical_structure,
    classify,
)

COEFF_BOX = 8  # coefficients searched over [-COEFF_BOX, COEFF_BOX]


def brute_force_contains(s: Subgroup, x: AbElem, box: int = COEFF_BOX) -> bool:
    """Search coefficient vectors c in [-box, box]^k with sum c_i g_i = x.

    Exact for pure-torsion ambients when box covers every order; for
    free ambients it only certifies membership witnessed inside the box.
    """
    amb = s.ambient
    k = len(s.generators)
    if k == 0:
        return x.is_zero()
    gens = np.array([g.coords for g in s.generators], dtype=np.int64)
    coeffs = np.array(
        list(itertools.product(range(-box, box + 1), repeat=k)), dtype=np.int64
    )
    combos = coeffs @ gens
    for j in range(amb.rank):
        d = amb.orders[j]
        if d:
            combos[:, j] %= d
    return bool((combos == np.array(x.coords, dtype=np.int64)).all(axis=1).any())


def agreement_instances(rng, count: int):
    """Yield (Subgroup, AbElem) pairs on which the box search is exact.

    Three instance families, all with free rank <= 2 and torsion
    orders <= 8:

    * pure-torsion ambients whose torsion orders have lcm <= box:
      witness coefficients can be normalised into [0, lcm), so the box
      search is exhaustive and both verdicts are exact;
    * free/mixed ambients with the target *constructed* as a box
      combination of the generators, so a witness lies in the box;
    * free/mixed ambients whose generators are scaled coordinate
      vectors: coefficients act on disjoint coordinates, so any member
      has witness coefficients bounded by the box.

    Unconstrained random targets are deliberately not generated
    elsewhere: a member's witnesses can then all fall outside the box
    (a torsion congruence can force arbitrarily large coefficients,
    e.g. CRT conditions mod lcm(7, 4) = 28) and the naive search would
    report a false negative.
    """
    from math import lcm

    from spinr.abelian import FgAbGroup

    torsion_menu = [(d,) for d in range(2, COEFF_BOX + 1)]
    torsion_menu += [
        (d1, d2)
        for d1 in range(2, COEFF_BOX + 1)
        for d2 in range(2, COEFF_BOX + 1)
        if lcm(d1, d2) <= COEFF_BOX
    ]

    produced = 0
    while produced < count:
        kind = produced % 3
        if kind == 0:
            orders = rng.choice(torsion_menu)
            g = FgAbGroup(orders)
            gens = tuple(
                g.elem([rng.randint(0, 7) for _ in range(g.rank)])
                for _ in range(rng.randint(0, 3))
            )
            x = g.elem([rng.randint(0, 7) for _ in range(g.rank)])
        elif kind == 1:
            free = rng.randint(1, 2)
            torsion = tuple(rng.choices([2, 3, 4, 5, 6, 7, 8], k=rng.randint(0, 1)))
            g = FgAbGroup((0,) * free + torsion)
            gens = tuple(
                g.elem([rng.randint(-2, 2) for _ in range(g.rank)])
                for _ in range(rng.randint(1, 3))
            )
            x = g.zero()
            for gen in gens:
                x = x + gen.scale(rng.randint(-COEFF_BOX, COEFF_BOX))
        else:
            free = rng.randint(1, 2)
            torsion = tuple(rng.choices([2, 3, 4, 5, 6, 7, 8], k=rng.randint(0, 1)))
            g = FgAbGroup((0,) * free + torsion)
            gens = []
            for i in range(g.rank):
                if rng.random() < 0.7:
                    coords = [0] * g.rank
                    coords[i] = rng.randint(1, 3)
                    gens.append(g.elem(coords))
            x = g.elem(
                [rng.randint(-COEFF_BOX, COEFF_BOX) for _ in range(g.rank)]
            )
        yield Subgroup(g, tuple(gens)), x
        produced += 1


def enumerate_torsion_subgroup(s: Subgroup) -> set[tuple[int, ...]]:
    """All elements of a subgroup of a finite ambient group, by closure."""
    amb = s.ambient
    assert 0 not in amb.orders
    seen = {amb.zero().coords}
    frontier = [amb.zero()]
    while frontier:
        cur = frontier.pop()
        for g in s.generators:
            for step in (g, -g):
                nxt = cur + step
                if nxt.coords not in seen:
                    seen.add(nxt.coords)
                    frontier.append(nxt)
    return seen


def elements(g: FgAbGroup):
    """Iterate all elements; only allowed for finite groups."""
    if 0 in g.orders:
        raise ValueError("cannot enumerate an infinite group")
    for coords in itertools.product(*(range(d) for d in g.orders)):
        yield g.elem(coords)


# --- subgroup relations by Smith reduction -------------------------------------

def subgroup_leq(a: Subgroup, b: Subgroup) -> bool:
    """a <= b as subgroups of a common ambient group."""
    return all(contains(b, g) for g in a.generators)


def subgroup_eq(a: Subgroup, b: Subgroup) -> bool:
    return subgroup_leq(a, b) and subgroup_leq(b, a)


def subgroup_index(s: Subgroup) -> int | None:
    """Index of s in its ambient group; None when infinite.

    The quotient is presented by the ambient generators subject to the
    subgroup generators and the ambient torsion relations; its order is
    the product of the nonzero diagonal entries of the Smith form when
    the rank is full, and infinite otherwise.
    """
    g = s.ambient
    columns = [list(x.coords) for x in s.generators] + _relation_columns(g)
    m = g.rank
    if m == 0:
        return 1
    if not columns:
        return None
    rows = [[col[i] for col in columns] for i in range(m)]
    _, D = smith_diagonalize(rows)
    order = 1
    for i in range(m):
        d = D[i][i] if i < len(columns) else 0
        if d == 0:
            return None
        order *= abs(d)
    return order


# --- the lift test by the paper's parity rule ----------------------------------

def parity_lifts(q) -> tuple[bool, tuple[tuple[str, tuple[int, ...]], ...]]:
    """The verdict and witnesses of ``lifting.lifts(q)`` by the rule itself.

    Domain generator g fails exactly when sigma(g) and phi(g) differ in
    parity; its witness is (label, sigma coords + phi coords).  Each
    pi1(SO(k)) has at most one coordinate, an integer for k = 2 and a
    class mod 2 for k >= 3, so a coordinate sum is the parity.  No
    subgroup, no Smith form and no mod-2 map is built.
    """
    sigma, phi = q.sigma_pi1, q.phi_pi1
    failures = tuple(
        (label, s.coords + f.coords)
        for label, s, f in zip(sigma.domain.labels, sigma.images, phi.images)
        if sum(s.coords) % 2 != sum(f.coords) % 2
    )
    return not failures, failures



def pushed_twist(phi: AbHom, s: int) -> AbHom:
    """The twist phi: pi1(H) -> pi1(SO(r)) pushed forward along the block
    inclusion SO(r) -> SO(s), s > r.  The rotation loop goes to the rotation
    loop, so each generator keeps its integer, which ``so_pi1_map`` reduces
    into pi1(SO(s)): mod 2 for s >= 3, and nothing out of pi1(SO(1))."""
    return so_pi1_map(phi.domain, s, [sum(img.coords) for img in phi.images])

# --- Spin(n) in the Clifford algebra Cl(n) --------------------------------------
#
# Lawson-Michelsohn, Spin Geometry, ch. I: Cl(n) is generated by e_1 ... e_n
# with e_i e_j = -e_j e_i for i != j and e_i^2 = -1; Spin(n) lies in its
# even part and covers SO(n) twice by g -> (v -> g v g^-1).  A multivector
# is a dict from blade bitmasks (bit i - 1 for e_i) to floats.

@cache
def _blade_sign(a: int, b: int) -> int:
    """The sign of the product of blades a and b, written as blade a ^ b:
    one factor -1 per transposition that sorts it, and per e_i^2."""
    swaps, x = 0, a >> 1
    while x:
        swaps += (x & b).bit_count()
        x >>= 1
    return -1 if (swaps + (a & b).bit_count()) % 2 else 1


def cl_mul(x: dict, y: dict) -> dict:
    out = {}
    for a, u in x.items():
        for b, v in y.items():
            out[a ^ b] = out.get(a ^ b, 0.0) + _blade_sign(a, b) * u * v
    return out


def cl_reverse(x: dict) -> dict:
    """The reversion of x: the inverse of an element of Spin(n)."""
    return {a: -u if a.bit_count() % 4 > 1 else u for a, u in x.items()}


def torus_lift(k, t: float) -> dict:
    """g(t) = prod_i (cos(pi k_i t) + sin(pi k_i t) e_{2i-1} e_{2i}) in
    Spin(n), n >= 2 len(k): the lift started at 1 of the torus loop that
    turns plane (e_{2i-1}, e_{2i}) by 2 pi k_i t; k = () gives g = 1."""
    g = {0: 1.0}
    for i, ki in enumerate(k):
        angle = math.pi * ki * t
        g = cl_mul(g, {0: math.cos(angle), 0b11 << 2 * i: math.sin(angle)})
    return g


def torus_rotation(k, t: float, v: dict) -> dict:
    """The torus loop k at time t applied to the vector v."""
    out = dict(v)
    for i, ki in enumerate(k):
        a, b = 1 << 2 * i, 1 << 2 * i + 1
        c, s = math.cos(2 * math.pi * ki * t), math.sin(2 * math.pi * ki * t)
        x, y = v.get(a, 0.0), v.get(b, 0.0)
        out[a], out[b] = c * x - s * y, s * x + c * y
    return out


def spin_sign(g: dict) -> int:
    """g as the scalar +1 or -1, the kernel of Spin(n) -> SO(n)."""
    sign = 1 if g.get(0, 0.0) > 0 else -1
    if abs(g.get(0, 0.0) - sign) > 1e-9 or any(abs(u) > 1e-9 for a, u in g.items() if a):
        raise ValueError(f"{g} is not +-1")
    return sign


# --- reference affine expressions ---------------------------------------------
#
# The Fraction arithmetic that ``spinr.repcat.AffineInt`` ran on before it
# stored integers in lowest terms.

class FractionAffine(NamedTuple):
    """coeff * s + offset with rational coefficients."""

    coeff: Fraction
    offset: Fraction

    def eval(self, s: int) -> int:
        v = self.coeff * s + self.offset
        if v.denominator != 1:
            raise ValueError(f"{self} is not integral at s={s}")
        return int(v)

    def __str__(self):
        if self.coeff == 0:
            return str(self.offset)
        parts = []
        if self.coeff == 1:
            parts.append("s")
        elif self.coeff.denominator == 1:
            parts.append(f"{self.coeff}*s")
        elif self.coeff.numerator == 1:
            parts.append(f"s/{self.coeff.denominator}")
        else:
            parts.append(f"{self.coeff.numerator}*s/{self.coeff.denominator}")
        if self.offset:
            parts.append(f"+{self.offset}" if self.offset > 0 else str(self.offset))
        return "".join(parts)

    def to_affine_int(self) -> AffineInt:
        """The equal record, written over the product of the denominators."""
        c, o = Fraction(self.coeff), Fraction(self.offset)
        return AffineInt(
            c.numerator * o.denominator, o.numerator * c.denominator,
            c.denominator * o.denominator,
        )


# --- reference catalog parser ------------------------------------------------
#
# The character-loop parser that ``spinr.catalogfile.parse`` replaced.  The
# quoting rule it defines: every '"' toggles quoting, a '#' or ',' inside
# quotes is data, and an unterminated quote runs to the end of the line.

_REF_OPEN_RE = re.compile(r"^([A-Za-z_][\w-]*)\s*\{$")
_REF_PAIR_RE = re.compile(r"^([A-Za-z_][\w-]*)\s*:\s*(.+)$")
_REF_INT_RE = re.compile(r"^-?\d+$")


def _ref_strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


def _ref_parse_scalar(text: str, line: int):
    text = text.strip()
    if not text:
        raise CatalogParseError("empty value", line)
    if text.startswith('"'):
        if not text.endswith('"') or len(text) < 2:
            raise CatalogParseError(f"unterminated string {text!r}", line)
        return text[1:-1]
    if _REF_INT_RE.match(text):
        return int(text)
    if text == "true":
        return True
    if text == "false":
        return False
    if '"' in text or "[" in text or "]" in text:
        raise CatalogParseError(f"malformed value {text!r}", line)
    return text


def _ref_split_list_items(body: str, line: int) -> list[str]:
    items, cur, quoted = [], [], False
    for ch in body:
        if ch == '"':
            quoted = not quoted
            cur.append(ch)
        elif ch == "," and not quoted:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if quoted:
        raise CatalogParseError("unterminated string in list", line)
    items.append("".join(cur))
    items = [s.strip() for s in items]
    if items == [""]:
        return []
    return items


def _ref_parse_value(text: str, line: int):
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise CatalogParseError(f"unterminated list {text!r}", line)
        return [
            _ref_parse_scalar(item, line)
            for item in _ref_split_list_items(text[1:-1], line)
        ]
    return _ref_parse_scalar(text, line)


def reference_parse(text: str, path: str = "<catalog>") -> list[tuple]:
    """Parse catalog text one character at a time into the entries
    ``(key, line, value, children)`` that ``parse`` returns."""
    root = ("<root>", 0, None, [])
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _ref_strip_comment(raw)
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise CatalogParseError("unmatched '}'", lineno, path)
            stack.pop()
            continue
        m = _REF_OPEN_RE.match(line)
        if m:
            node = (m.group(1), lineno, None, [])
            stack[-1][3].append(node)
            stack.append(node)
            continue
        m = _REF_PAIR_RE.match(line)
        if m:
            try:
                value = _ref_parse_value(m.group(2), lineno)
            except CatalogParseError as err:
                raise CatalogParseError(str(err).split(": ", 1)[1], lineno, path)
            stack[-1][3].append((m.group(1), lineno, value, None))
            continue
        raise CatalogParseError(f"cannot parse line {raw.strip()!r}", lineno, path)
    if len(stack) > 1:
        raise CatalogParseError("unclosed block", stack[-1][1], path)
    return root[3]


# --- simple ideals from their root data ------------------------------------------
#
# Bröcker-tom Dieck, Representations of Compact Lie Groups, ch. VI: the
# irreps of a simple compact algebra are the dominant weights, their
# dimensions are Weyl's formula, and a self-dual irrep (one with
# -w0 lambda = lambda) is of real type when <lambda, 2 rho-check> is even
# and of quaternionic type when it is odd; the others are of complex type.
# A nontrivial orthogonal rep holds a nontrivial real irrep: V itself for
# an irrep of real type, V realified (dimension 2 dim V) otherwise.


def _simple_roots(kind: str) -> list[tuple[int, ...]]:
    """Bourbaki's simple roots of so(k), su(k), sp(k) or g2, in an
    orthonormal basis: A_(k-1), B_n or D_n, C_k and G2."""
    if kind == "g2":
        return [(1, -1, 0), (-2, 1, 1)]
    series, k = re.fullmatch(r"(so|su|sp)\((\d+)\)", kind).groups()
    k = int(k)
    n = {"su": k - 1, "so": k // 2, "sp": k}[series]
    size = k if series == "su" else n

    def e(*terms):  # the vector sum of c e_i over the (i, c) terms
        v = [0] * size
        for i, c in terms:
            v[i] += c
        return tuple(v)

    if series == "su":
        return [e((i, 1), (i + 1, -1)) for i in range(n)]
    chain = [e((i, 1), (i + 1, -1)) for i in range(n - 1)]
    if series == "sp":
        return chain + [e((n - 1, 2))]
    if k % 2:
        return chain + [e((n - 1, 1))]
    return chain + [e((n - 2, 1), (n - 1, 1))]


def ideal_from_roots(kind: str) -> tuple[int, int]:
    """(dim, least dimension of a nontrivial real orthogonal rep) of the
    simple compact algebra ``kind``, from its simple roots alone."""
    simple = _simple_roots(kind)
    rank = len(simple)
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simple] for a in simple]
    # cartan[i][j] = <alpha_i, alpha_j-check>, and row i is alpha_i in
    # fundamental-weight coordinates
    cartan = [[2 * gram[i][j] // gram[j][j] for j in range(rank)] for i in range(rank)]
    length = [gram[i][i] for i in range(rank)]

    # positive roots in simple-root coordinates, by height: for a root
    # beta, beta - p alpha_i, ..., beta + q alpha_i is its alpha_i-string
    # with p - q = <beta, alpha_i-check>
    unit = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    positive = list(unit)
    known = set(positive)
    for beta in positive:  # grows while it is walked, one height at a time
        for i in range(rank):
            if beta == unit[i]:
                continue
            p = 0
            while tuple(c - (p + 1) * (j == i) for j, c in enumerate(beta)) in known:
                p += 1
            pairing = sum(beta[j] * cartan[j][i] for j in range(rank))
            up = tuple(c + (j == i) for j, c in enumerate(beta))
            if p - pairing > 0 and up not in known:
                known.add(up)
                positive.append(up)
    norm = [sum(c[i] * c[j] * gram[i][j] for i in range(rank) for j in range(rank))
            for c in positive]

    def weyl_dim(lam):
        num = den = 1
        for c in positive:
            num *= sum(c[i] * (lam[i] + 1) * length[i] for i in range(rank))
            den *= sum(c[i] * length[i] for i in range(rank))
        return num // den

    # a reduced word of w0: reflect rho while a label stays positive
    word, mu = [], [1] * rank
    while any(m > 0 for m in mu):
        i = next(i for i, m in enumerate(mu) if m > 0)
        mu = [m - mu[i] * a for m, a in zip(mu, cartan[i])]
        word.append(i)

    def real_dim(lam):
        mu = list(lam)
        for i in word:
            mu = [m - mu[i] * a for m, a in zip(mu, cartan[i])]
        d = weyl_dim(lam)
        if [-m for m in mu] != list(lam):
            return 2 * d  # complex type
        # <lambda, 2 rho-check> sums <lambda, alpha-check> over alpha > 0
        height = sum(Fraction(sum(c[i] * lam[i] * length[i] for i in range(rank)), n)
                     for c, n in zip(positive, norm))
        assert height.denominator == 1
        return d if height % 2 == 0 else 2 * d

    dim = rank + 2 * len(positive)

    # every nonzero dominant weight with Weyl dimension <= dim, the adjoint
    # rep's (real) dimension; a label can grow while the weight with the
    # labels after it at zero, the least completion, stays within the bound
    def dominant(prefix):
        if len(prefix) == rank:
            if any(prefix):
                yield prefix
            return
        v = 0
        while weyl_dim(prefix + (v,) + (0,) * (rank - len(prefix) - 1)) <= dim:
            yield from dominant(prefix + (v,))
            v += 1

    return dim, min(real_dim(lam) for lam in dominant(()))


# --- reference kernel scan -----------------------------------------------------

class ScanVerdict(NamedTuple):
    """The scan's own verdict and the trace it wrote."""

    impossible: bool
    trace: RuleTrace


def _sum_text(kinds, center_dim) -> str:
    return " + ".join(list(kinds) + ([f"R^{center_dim}"] if center_dim else [])) or "0"


def scan_hom_rule_trace(a, r: int) -> ScanVerdict:
    """The rule engine's kernel scan with one trace line per candidate
    quotient, every centre dimension visited in turn.  A map is ruled out
    when no nonzero quotient survives, decided here by the scan itself."""
    so_r_dim = r * (r - 1) // 2
    header = _sum_text((i.kind for i in a.ideals), a.center_rank)
    lines = [f"maps {header} -> so({r}) (dim {so_r_dim})"]
    ideals = list(a.ideals)
    survivor_found = False
    for mask in range(1 << len(ideals)):
        kept = [ideals[i] for i in range(len(ideals)) if mask & (1 << i)]
        for center_dim in range(a.center_rank + 1):
            if not kept and center_dim == 0:
                continue  # the zero quotient is the trivial homomorphism
            qdim = center_dim + sum(i.dim for i in kept)
            quotient = _sum_text((i.kind for i in kept), center_dim)
            if qdim > so_r_dim:
                lines.append(
                    f"quotient {quotient} (dim {qdim}) exceeds dim so({r})"
                )
                continue
            if r <= 2 and kept:
                lines.append(
                    f"quotient {quotient} is non-abelian but so({r}) is abelian"
                )
                continue
            bad = [i for i in kept if i.min_orth_rep_dim > r]
            if bad:
                lines.append(
                    f"quotient {quotient}: ideal {bad[0].kind} has no "
                    f"nontrivial orthogonal representation below dim "
                    f"{bad[0].min_orth_rep_dim} > {r}"
                )
                continue
            lines.append(f"quotient {quotient} (dim {qdim}) cannot be ruled out")
            survivor_found = True
    if not survivor_found:
        lines.append("every nonzero quotient is excluded: only the zero map exists")
    return ScanVerdict(not survivor_found, RuleTrace(tuple(lines)))


_CENTRE_RUN_RE = re.compile(r"R\^d for ([0-9]+) ≤ d ≤ ([0-9]+)")
_RUN_DIMS_RE = re.compile(r"\(dim ([0-9]+) to ([0-9]+)\)")


def expand_centre_runs(lines) -> RuleTrace:
    """Rule-trace lines with each merged run ('... R^d for lo ≤ d ≤ hi
    (dim a to b) ...') written out as one line per centre dimension d, in
    the words of scan_hom_rule_trace."""
    out = []
    for line in lines:
        run = _CENTRE_RUN_RE.search(line)
        if run is None:
            out.append(line)
            continue
        lo, hi = int(run[1]), int(run[2])
        dims = _RUN_DIMS_RE.search(line)
        if dims is not None and int(dims[2]) - int(dims[1]) != hi - lo:
            raise ValueError(f"dimensions do not match the run in {line!r}")
        for d in range(lo, hi + 1):
            one = f"{line[:run.start()]}R^{d}{line[run.end():]}"
            if dims is not None:
                one = _RUN_DIMS_RE.sub(f"(dim {int(dims[1]) + d - lo})", one)
            out.append(one)
    return RuleTrace(tuple(out))


def scan_invariant_spin_type(catalog, space) -> SpinTypeResult:
    """The least twist rank from a full `classify` (lift test of every
    family, the trivial one included) at every rank r <= n."""
    first_uncertain = None
    for r in range(1, space.n + 1):
        c = classify(catalog, space, r)
        if c.classes:
            status = "exact" if first_uncertain is None else "bounded"
            lo = r if first_uncertain is None else first_uncertain
            return SpinTypeResult(space.name, status, lo, r, c.classes)
        if not c.complete and first_uncertain is None:
            first_uncertain = r
    if first_uncertain is None:
        raise InconsistentCatalogError(
            f"{catalog.path}: no invariant structure found for {space.name} "
            f"up to r = {space.n} despite complete enumerations; catalog "
            f"data is inconsistent with the existence theorem"
        )
    witnesses = canonical_structure(catalog, space).classes if space.n >= 3 else ()
    return SpinTypeResult(space.name, "bounded", first_uncertain, space.n, witnesses)


# --- the argparse command line -------------------------------------------------
#
# The parser that spinr.cli built before it read its command line itself,
# kept as the reference for both of its readers: _read_argv, which takes
# the usual form, and the parser that _read_with_argparse builds from the
# same table for every other argv.

# the reference for catalogfile.is_int: an optional '-' and ASCII digits
ASCII_INT_RE = re.compile(r"^-?[0-9]+$")


def _ascii_int(text: str) -> int:
    """An integer as the catalog reads one (ASCII_INT_RE), not as int() does."""
    if ASCII_INT_RE.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # longer than Python's int-string limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_USAGE instead of argparse's 2, which
    this CLI uses for an unknown name."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(cli.EXIT_USAGE, f"{self.prog}: error: {message}\n")


def argparse_cli(prog: str) -> _Parser:
    """The parser; ``vars(parse_args(argv))`` holds the command function
    under ``run`` and its keyword arguments."""
    # allow_abbrev=False everywhere: `--form json` is a usage error, not
    # `--format json`
    parser = _Parser(
        prog=prog,
        allow_abbrev=False,
        description="Exact decisions about invariant spin^r structures on "
        "homogeneous spaces.",
    )
    parser.add_argument(
        "--catalog",
        dest="catalog_path",
        metavar="PATH",
        help="Path to a catalog file (default: bundled; also $SPINR_CATALOG).",
    )
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)

    def command(fn):
        """A subcommand running fn, named after it, with its docstring
        as help."""
        doc = " ".join(fn.__doc__.split())
        sub = commands.add_parser(
            fn.__name__.replace("_", "-"), help=doc, description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=fn)
        return sub

    r_help = "Twist rank r >= 1."
    command(cli.table1)
    sub = command(cli.classify)
    sub.add_argument("space", metavar="SPACE")
    sub.add_argument("--r", type=_ascii_int, required=True, help=r_help)
    sub = command(cli.spin_type)
    sub.add_argument("space", metavar="SPACE")
    sub.add_argument(
        "--strict",
        action="store_true",
        help="Treat a bounded (non-exact) result as failure (exit 1).",
    )
    sub = command(cli.holonomy)
    sub.add_argument("group", metavar="GROUP")
    sub.add_argument(
        "--m", type=_ascii_int, required=True, help="Manifold dimension m >= 1."
    )
    sub.add_argument("--r", type=_ascii_int, required=True, help=r_help)
    for sub in commands.choices.values():
        sub.add_argument(
            "--format", dest="fmt", choices=["md", "json"], default="md",
            help="Output format.",
        )
    return parser
