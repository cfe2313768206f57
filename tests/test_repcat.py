import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import FractionAffine, expand_centre_runs, scan_hom_rule_trace

from spinr.catalog import loads
from spinr.catalogfile import CatalogParseError
from spinr.abelian import FgAbGroup
from spinr.liecat import (
    G2_IDEAL, AlgebraProfile, CompactGroupRec, SimpleIdeal, simple_ideal, so_group,
)
from spinr.repcat import (
    TRACE_ALL_IDEAL_SETS_UP_TO,
    TRIVIAL_FAMILY_NAME,
    AffineInt,
    Congruence,
    OrthRepFamily,
    enumerate_homs,
    first_possible_rank,
    hom_rule_trace,
    no_nontrivial_hom,
    parse_affine,
    parse_congruence,
    _check_family,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from gencat import load_catalog, scale_catalog  # noqa: E402  (the benchmark's generators)


CLOSING_LINE = "every nonzero quotient is excluded: only the zero map exists"


def nontrivial(res):
    """The listed families of an enumeration: all but the synthetic zero map."""
    return tuple(f for f in res.families if f.name != TRIVIAL_FAMILY_NAME)


# --- congruences -----------------------------------------------------------------

def test_congruence_parse_and_render():
    assert str(parse_congruence("s in Z")) == "s ∈ Z"
    assert str(parse_congruence("s even")) == "s even"
    assert str(parse_congruence("s odd")) == "s odd"
    assert str(parse_congruence("s = 2 mod 4")) == "s ≡ 2 mod 4"
    assert str(parse_congruence("s ≡ 2 mod 4")) == "s ≡ 2 mod 4"
    with pytest.raises(ValueError):
        parse_congruence("whenever s feels like it")


_ORDERS = st.sampled_from([0, 2, 3, 4])
_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))


def _affine(coeff, offset) -> AffineInt:
    return FractionAffine(coeff, offset).to_affine_int()


def _contradiction(fam, group):
    """The rule engine's objection to the family, checked after its maps,
    or None."""
    if no_nontrivial_hom(group.algebra, fam.target_r):
        return (
            f"family {fam.name} at ({fam.domain}, {fam.target_r}) "
            f"contradicts the rule engine's non-existence proof"
        )
    return None


def _first_error_on_window(fam, group, width=8):
    """The first error of the family's map over 2 * width admissible
    values, its two samples first, else the rule engine's objection, or
    None."""
    c = fam.param_constraint
    ks = [-1, 0] + [k for j in range(1, width) for k in (j, -1 - j)]
    for k in ks:
        try:
            fam.pi1_map(group.pi1, c.residue + k * c.modulus)
        except ValueError as err:
            return str(err)
    return _contradiction(fam, group)


@settings(max_examples=300)
@given(
    st.lists(_ORDERS, min_size=1, max_size=2),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 3),
    st.data(),
)
def test_the_family_check_agrees_with_a_window_of_admissible_values(
    orders, r, modulus, residue, data
):
    # an affine image integral and well defined at two consecutive
    # admissible values is so at all of them: the two samples decide
    group = CompactGroupRec(
        "D", FgAbGroup(orders), AlgebraProfile(1), True, "generated"
    )
    images = tuple(
        data.draw(st.builds(_affine, _RATIONALS, _RATIONALS)) for _ in orders
    )
    fam = OrthRepFamily(
        "f", "D", r, images, param_constraint=Congruence(modulus, residue)
    )
    try:
        _check_family(fam, group)
        outcome = None
    except ValueError as err:
        outcome = str(err)
    assert outcome == _first_error_on_window(fam, group)


@settings(max_examples=200)
@given(st.lists(_ORDERS, max_size=3), st.integers(1, 4), st.data())
def test_the_family_check_of_a_finite_family_agrees_with_its_map(orders, r, data):
    group = CompactGroupRec(
        "D", FgAbGroup(orders), AlgebraProfile(1), True, "generated"
    )
    images = tuple(
        _affine(Fraction(0), data.draw(_RATIONALS)) for _ in orders
    )
    fam = OrthRepFamily("f", "D", r, images, labels=("a",))
    outcomes = []
    checks = (lambda: _check_family(fam, group), lambda: fam.pi1_map(group.pi1))
    for check in checks:
        try:
            check()
            outcomes.append(None)
        except ValueError as err:
            outcomes.append(str(err))
    assert outcomes[0] == (outcomes[1] or _contradiction(fam, group))


def test_congruence_samples_are_admissible():
    c = Congruence(4, 2)
    for s in c.sample(5):
        assert c.contains(s)


# --- affine expressions -------------------------------------------------------------

@pytest.mark.parametrize(
    "text,coeff,offset",
    [
        ("s", 1, 0),
        ("-s", -1, 0),
        ("1", 0, 1),
        ("-4", 0, -4),
        ("s/2", Fraction(1, 2), 0),
        ("2*s", 2, 0),
        ("2*s+1", 2, 1),
        ("s+4", 1, 4),
        ("3*s/2", Fraction(3, 2), 0),
        ("s/2-1", Fraction(1, 2), -1),
        ("+s", 1, 0),
        ("+3*s/2-4", Fraction(3, 2), -4),
    ],
)
def test_parse_affine(text, coeff, offset):
    got = parse_affine(text)
    assert (got.coeff, got.offset) == (Fraction(coeff), Fraction(offset))
    assert got == _affine(Fraction(coeff), Fraction(offset))


@pytest.mark.parametrize(
    "text",
    [
        # a sign must be followed by a term, and a term after the first
        # must follow a sign
        "s+", "s+-1", "s++1", "1-", "-", "+", "--s", "+-s", "s-+1", "s+ ", "2s",
        "s2", "s/", "s/2/3", "1*2", "s*s",
        # digits are ASCII digits only
        "٣", "٣*s", "s/٢", "s+١", "-３", "²*s",
    ],
)
def test_parse_affine_refuses_malformed_expressions(text):
    with pytest.raises(ValueError, match="cannot parse affine term"):
        parse_affine(text)


@pytest.mark.parametrize("text", ["s = ١ mod ٤", "s ≡ 1 mod ４", "s = ² mod 4"])
def test_parse_congruence_reads_ascii_digits_only(text):
    with pytest.raises(ValueError, match="cannot parse congruence constraint"):
        parse_congruence(text)


@settings(max_examples=300)
@given(st.lists(st.tuples(st.sampled_from("+-"), st.integers(0, 20),
                          st.sampled_from(["", "s", "*s", "s/"]), st.integers(1, 5)),
                min_size=1, max_size=4),
       st.booleans())
def test_parse_affine_sums_its_signed_terms(terms, lead):
    # every expression written as sign, term, sign, term, ... is the sum of
    # its terms, and the first sign may be left out when it is '+'
    text, coeff, offset = "", Fraction(0), Fraction(0)
    for sign, n, form, d in terms:
        k = -1 if sign == "-" else 1
        if form == "":
            text, offset = text + f"{sign}{n}", offset + k * n
        elif form == "s":
            text, coeff = text + f"{sign}s", coeff + k
        elif form == "*s":
            text, coeff = text + f"{sign}{n}*s", coeff + k * n
        else:
            text, coeff = text + f"{sign}s/{d}", coeff + Fraction(k, d)
    if lead and text[0] == "+":
        text = text[1:]
    got = parse_affine(text)
    assert (got.coeff, got.offset) == (coeff, offset)
    assert got == _affine(coeff, offset)


def test_affine_eval_requires_integrality():
    half = parse_affine("s/2")
    assert half.eval(6) == 3
    with pytest.raises(ValueError):
        half.eval(3)


def test_affine_render_round_trip():
    for text in ["s", "-s", "s/2", "2*s+1", "7", "3*s/2"]:
        expr = parse_affine(text)
        assert parse_affine(str(expr)) == expr


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as err:
        return f"ValueError: {err}"


@settings(max_examples=500)
@given(st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 6),
       st.integers(1, 4), st.integers(-8, 8))
@example(1, 1, 1, 2, 0)  # AffineInt(2, 2, 2) is AffineInt(1, 1)
def test_integer_affine_agrees_with_the_fraction_reference(num, off, den, k, s):
    x = AffineInt(num, off, den)
    ref = FractionAffine(Fraction(num, den), Fraction(off, den))
    assert (x.coeff, x.offset) == ref
    assert _outcome(x.eval, s) == _outcome(ref.eval, s)
    assert str(x) == str(ref)
    # the text parses back unless the offset is a fraction, which the
    # grammar has no term for
    parsed = _outcome(parse_affine, str(x))
    assert parsed == x if ref.offset.denominator == 1 else parsed.startswith(
        "ValueError: cannot parse affine term"
    )
    # stored in lowest terms, so the same value written at another scale
    # is the same record
    assert gcd(*x) == 1
    y = AffineInt(num * k, off * k, den * k)
    assert y == x and hash(y) == hash(x)
    assert ref.to_affine_int() == x


# --- rule engine ----------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 5, 6, 7, 8, 9])
def test_simple_so_algebra_has_no_small_targets(n):
    a = so_group(n).algebra
    for r in range(1, n):
        assert no_nontrivial_hom(a, r), (n, r)
    assert not no_nontrivial_hom(a, n)


def test_so4_no_maps_to_so2():
    assert no_nontrivial_hom(so_group(4).algebra, 2)


def test_so4_cannot_rule_out_so3():
    assert not no_nontrivial_hom(so_group(4).algebra, 3)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sp_sp1_no_maps_to_so2(k):
    a = AlgebraProfile(0, (simple_ideal("sp", k), simple_ideal("sp", 1)))
    assert no_nontrivial_hom(a, 2)
    assert not no_nontrivial_hom(a, 3)


def test_abelian_algebra_small_targets():
    circle = AlgebraProfile(1)
    assert no_nontrivial_hom(circle, 1)  # so(1) = 0
    assert not no_nontrivial_hom(circle, 2)


def test_rule_trace_mentions_reasons():
    algebra = so_group(4).algebra
    assert no_nontrivial_hom(algebra, 2)
    assert scan_hom_rule_trace(algebra, 2).impossible
    trace = hom_rule_trace(algebra, 2)
    assert trace.lines[-1] == CLOSING_LINE
    text = str(trace)
    assert "so(3)" in text
    assert "exceeds" in text or "abelian" in text


def test_min_orth_rule_fires():
    # so(5) fits dimensionally into so(4) (10 = 4*3/2 is false: 6)...
    # use g2 -> so(7+) vs so(6): dim g2 = 14 <= dim so(6) = 15, but g2
    # has no nontrivial orthogonal rep below dim 7
    g2 = AlgebraProfile(0, (G2_IDEAL,))
    assert no_nontrivial_hom(g2, 6)
    assert not no_nontrivial_hom(g2, 7)
    trace = hom_rule_trace(g2, 6)
    assert "no nontrivial orthogonal representation" in str(trace)


_IDEALS = st.builds(
    SimpleIdeal,
    kind=st.sampled_from(["so(3)", "su(3)", "sp(2)", "g2"]),
    dim=st.integers(3, 14),
    min_orth_rep_dim=st.integers(2, 8),
)


@settings(max_examples=200)
@given(
    st.builds(
        AlgebraProfile,
        center_rank=st.integers(0, 12),
        ideals=st.lists(_IDEALS, max_size=3).map(tuple),
    ),
    st.integers(1, 9),
)
def test_rule_trace_verdict_matches_full_scan(algebra, r):
    trace, scan = hom_rule_trace(algebra, r), scan_hom_rule_trace(algebra, r)
    assert no_nontrivial_hom(algebra, r) == scan.impossible
    assert (trace.lines[-1] == CLOSING_LINE) == scan.impossible
    if algebra.center_rank <= 1:
        assert trace == scan.trace  # every run is one candidate: same wording
    assert len(trace.lines) <= 3 * 2 ** len(algebra.ideals) + 2


# --- the closed-form threshold against the kernel scan --------------------------------

def _threshold_agrees(algebra, below: int):
    r0 = first_possible_rank(algebra)
    for r in range(1, below):
        verdict = r0 is None or r < r0
        assert scan_hom_rule_trace(algebra, r).impossible == verdict, r
        assert no_nontrivial_hom(algebra, r) == verdict, r


def test_threshold_matches_rule_engine_on_every_catalog_group(catalog):
    generated = (
        loads(scale_catalog(200, 1).text, "scale.txt"),
        loads(load_catalog(36, 1).text, "load.txt"),
    )
    algebras = {g.algebra for cat in (catalog, *generated) for g in cat.groups.values()}
    assert len(algebras) > 50
    for algebra in algebras:
        _threshold_agrees(algebra, 80)


@pytest.mark.parametrize(
    "algebra, r0",
    [
        (AlgebraProfile(0), None),
        (AlgebraProfile(1), 2),
        (AlgebraProfile(3, (G2_IDEAL,)), 2),
        (so_group(3).algebra, 3),
        (so_group(4).algebra, 3),
        (AlgebraProfile(0, (simple_ideal("sp", 2),)), 5),  # dim 10 = dim so(5)
        (AlgebraProfile(0, (G2_IDEAL,)), 7),  # min rep decides
        (AlgebraProfile(0, (simple_ideal("su", 3),)), 6),
        (AlgebraProfile(0, (SimpleIdeal("x", 16, 2),)), 7),  # dim decides: 15 < 16
        (AlgebraProfile(0, (simple_ideal("sp", 3), G2_IDEAL)), 7),
        (AlgebraProfile(0, (simple_ideal("so", 3),) * 40), 3),
    ],
)
def test_first_possible_rank(algebra, r0):
    assert first_possible_rank(algebra) == r0
    if len(algebra.ideals) <= 8:
        _threshold_agrees(algebra, 30)


_PROFILES = st.builds(
    AlgebraProfile,
    center_rank=st.integers(0, 3),
    ideals=st.lists(
        st.builds(
            SimpleIdeal,
            kind=st.sampled_from(["so(3)", "su(3)", "sp(2)", "g2", "e8"]),
            dim=st.integers(3, 250),
            min_orth_rep_dim=st.integers(2, 30),
        ),
        max_size=3,
    ).map(tuple),
)


@settings(max_examples=200)
@given(_PROFILES)
def test_threshold_is_the_rule_engine_verdict_and_upward_closed(algebra):
    r0 = first_possible_rank(algebra)
    impossible = [scan_hom_rule_trace(algebra, r).impossible for r in range(1, 40)]
    # upward closed: once a map cannot be ruled out, it never can again
    assert impossible == sorted(impossible, reverse=True)
    assert impossible == [r0 is None or r < r0 for r in range(1, 40)]


def test_rule_trace_identical_to_scan_on_bundled_groups(catalog):
    for group in catalog.groups.values():
        for r in range(1, 20):
            trace = hom_rule_trace(group.algebra, r)
            assert trace == scan_hom_rule_trace(group.algebra, r).trace


def test_rule_trace_bounded_in_centre_rank():
    trace = hom_rule_trace(AlgebraProfile(100000), 3)
    assert not no_nontrivial_hom(AlgebraProfile(100000), 3)
    assert trace.lines == (
        "maps R^100000 -> so(3) (dim 3)",
        "quotient R^d for 1 ≤ d ≤ 3 (dim 1 to 3) cannot be ruled out",
        "quotient R^d for 4 ≤ d ≤ 100000 (dim 4 to 100000) exceeds dim so(3)",
    )


def _candidate_lines(algebra, r):
    """A trace's candidate lines: neither the header nor the closing line."""
    lines = hom_rule_trace(algebra, r).lines[1:]
    return lines[:-1] if lines and lines[-1] == CLOSING_LINE else lines


_MIXED_IDEALS = (
    simple_ideal("so", 3),
    G2_IDEAL,
    simple_ideal("su", 3),
    SimpleIdeal("x", 16, 2),
)


@pytest.mark.parametrize("center_rank", [0, 1, 5])
@pytest.mark.parametrize("k", [TRACE_ALL_IDEAL_SETS_UP_TO + 1, 30])
def test_rule_trace_above_the_threshold_lists_single_ideals_and_the_closure(
    k, center_rank
):
    # 2^k sets of ideals: above the threshold the trace is the empty set's
    # lines, then each single ideal's lines as its own one-ideal trace
    # writes them, then the closure line; the verdict is unchanged
    ideals = (_MIXED_IDEALS * k)[:k]
    algebra = AlgebraProfile(center_rank, ideals)
    for r in range(1, 10):
        centre = _candidate_lines(AlgebraProfile(center_rank), r)
        singles = [
            _candidate_lines(AlgebraProfile(center_rank, (i,)), r)[len(centre):]
            for i in ideals
        ]
        closure = (
            f"the other {2 ** k - k - 1} sets of two or more ideals are not listed: "
            "surviving quotients are closed under dropping a summand, so one "
            "survives exactly when R^1 or a single ideal does"
        )
        verdict = no_nontrivial_hom(algebra, r)
        header = hom_rule_trace(algebra, r).lines[0]
        assert hom_rule_trace(algebra, r).lines == (
            header, *centre, *(line for s in singles for line in s), closure,
            *([CLOSING_LINE] if verdict else []),
        )
        assert verdict == all(
            "cannot be ruled out" not in line for s in (centre, *singles) for line in s
        )


def test_rule_trace_at_the_threshold_lists_every_set_of_ideals():
    ideals = (_MIXED_IDEALS * 3)[:TRACE_ALL_IDEAL_SETS_UP_TO]
    algebra = AlgebraProfile(1, ideals)
    for r in (2, 3, 7):
        trace = hom_rule_trace(algebra, r)
        assert trace == scan_hom_rule_trace(algebra, r).trace
        assert len(trace.lines) > 2 ** TRACE_ALL_IDEAL_SETS_UP_TO


# --- enumeration -------------------------------------------------------------------------

def test_enumerate_u_groups_at_rank_two(catalog):
    res = enumerate_homs(catalog, "U(3)", 2)
    assert res.complete
    fams = nontrivial(res)
    assert len(fams) == 1
    assert fams[0].parameterized
    assert str(fams[0].param_constraint) == "s ∈ Z"


def test_enumerate_odd_so_at_own_rank(catalog):
    res = enumerate_homs(catalog, "SO(5)", 5)
    assert res.complete
    (fam,) = nontrivial(res)
    assert fam.labels == ("identity",)


@pytest.mark.parametrize("n", [6, 8])
def test_enumerate_even_so_at_own_rank(catalog, n):
    res = enumerate_homs(catalog, f"SO({n})", n)
    assert res.complete
    (fam,) = nontrivial(res)
    assert fam.labels == ("identity", "conjugate-by-reflection")


def test_enumerate_sp_sp1_at_rank_three(catalog):
    res = enumerate_homs(catalog, "Sp(2)·Sp(1)", 3)
    assert res.complete
    (fam,) = nontrivial(res)
    assert fam.labels == ("sp1-adjoint",)


def test_enumerate_so4_at_rank_four_incomplete(catalog):
    res = enumerate_homs(catalog, "SO(4)", 4)
    assert not res.complete
    assert any(f.labels == ("identity",) for f in nontrivial(res))


def test_enumerate_rank_one_always_complete(catalog):
    for name in ["SO(5)", "U(3)", "Sp(2)·Sp(1)", "G2"]:
        res = enumerate_homs(catalog, name, 1)
        assert res.complete
        assert not nontrivial(res)
        assert len(res.families) == 1


def test_enumerate_unknown_group(catalog):
    from spinr.liecat import NotInCatalogError

    with pytest.raises(NotInCatalogError):
        enumerate_homs(catalog, "F4", 2)


# --- parameterised pi1 maps against hand computation ----------------------------------

def test_det_power_pi1_values(catalog):
    (fam,) = nontrivial(enumerate_homs(catalog, "U(2)", 2))
    u2 = catalog.lookup("U(2)").pi1
    # winding of det^s on the center loop is s
    for s in (-3, 0, 5):
        assert fam.pi1_map(u2, s).images[0].coords == (s,)


def test_circle_power_pi1_values_on_quotient(catalog):
    (fam,) = nontrivial(enumerate_homs(catalog, "Sp(1)·U(1)", 2))
    dom = catalog.lookup("Sp(1)·U(1)").pi1
    # the half-diagonal generator maps to winding s/2, s even
    for s, expect in ((-2, -1), (0, 0), (6, 3)):
        assert fam.pi1_map(dom, s).images[0].coords == (expect,)
    with pytest.raises(ValueError):
        fam.pi1_map(dom, 3)


def test_adjoint_twist_pi1_value(catalog):
    (fam,) = nontrivial(enumerate_homs(catalog, "Sp(2)·Sp(1)", 3))
    dom = catalog.lookup("Sp(2)·Sp(1)").pi1
    assert fam.pi1_map(dom).images[0].coords == (1,)


# --- soundness cross-check ----------------------------------------------------------------

def test_unlisted_ranks_are_decided_by_the_closed_form(catalog):
    # at a rank with no listed family, enumerate_homs is complete exactly
    # when first_possible_rank excludes a map, and cites the kernel scan
    catalogs = (
        catalog,
        loads(load_catalog(36, 1).text, "load.txt"),
        loads(scale_catalog(200, 1).text, "scale.txt"),
    )
    checked = 0
    for cat in catalogs:
        for name, group in cat.groups.items():
            a = group.algebra
            r0 = first_possible_rank(a)
            for r in range(1, (2 if r0 is None else r0) + 2):
                if cat.families_at(name, r):
                    continue
                res = enumerate_homs(cat, name, r)
                scan = scan_hom_rule_trace(a, r)
                assert res.complete == no_nontrivial_hom(a, r) == scan.impossible
                if a.center_rank <= 1:  # no run of centre dimensions merges
                    assert str(res.certificate) == f"rule engine: {scan.trace}"
                checked += 1
    assert checked > 300


# a centre of rank 2 and one of rank 3 with two ideals: no bundled or
# generated group has a centre rank above 1, where the rule trace merges
# runs of centre dimensions into one line
CENTRE_CATALOG = """catalog_version: 1
group {
  name: "T2"
  pi1 {
    free_rank: 2
    torsion: []
    generators: ["a", "b"]
  }
  algebra {
    center_rank: 2
  }
  provenance: "test data"
}
group {
  name: "T3×Sp(2)×SU(3)"
  pi1 {
    free_rank: 3
    torsion: []
    generators: ["a", "b", "c"]
  }
  algebra {
    center_rank: 3
    ideal {
      kind: "sp(2)"
      dim: 10
      min_orth_rep: 5
    }
    ideal {
      kind: "su(3)"
      dim: 8
      min_orth_rep: 6
    }
  }
  provenance: "test data"
}
repfamily {
  name: "t3-first-circle"
  domain: "T3×Sp(2)×SU(3)"
  target_r: 2
  param {
    name: "s"
    constraint: "s in Z"
  }
  pi1_images: ["s", "0", "0"]
  distinct_classes: "test data"
  certificate: "incomplete"
}
"""


def test_merged_centre_runs_match_the_scan_on_a_catalog():
    # every unlisted rank up to r0 + 1 = 3, and on to where each ideal fits
    cat = loads(CENTRE_CATALOG)
    merged = checked = 0
    for name, group in cat.groups.items():
        a = group.algebra
        assert a.center_rank >= 2 and first_possible_rank(a) == 2
        for r in range(1, 9):
            if cat.families_at(name, r):
                continue
            res = enumerate_homs(cat, name, r)
            scan = scan_hom_rule_trace(a, r)
            assert res.complete == no_nontrivial_hom(a, r) == scan.impossible
            prefix, lines = str(res.certificate).split(": ", 1)
            assert prefix == "rule engine"
            lines = lines.split("; ")
            assert expand_centre_runs(lines) == scan.trace
            merged += sum("R^d for" in line for line in lines)
            checked += 1
    assert checked == 15
    assert merged > checked


def test_no_family_contradicts_the_rule_engine(catalog):
    for fam in catalog.families:
        algebra = catalog.lookup(fam.domain).algebra
        assert not no_nontrivial_hom(algebra, fam.target_r), fam.name


def test_loader_rejects_family_contradicting_engine():
    bad = """
catalog_version: 1

group {
  name: "SO(5)"
  pi1 {
    free_rank: 0
    torsion: [2]
    generators: ["alpha"]
  }
  algebra {
    center_rank: 0
    ideal {
      kind: "so(5)"
      dim: 10
      min_orth_rep: 5
      provenance: "vector"
    }
  }
  connected: true
  provenance: "standard"
}

repfamily {
  name: "impossible"
  domain: "SO(5)"
  target_r: 2
  labels: ["ghost"]
  pi1_images: ["0"]
  distinct_classes: "n/a"
  certificate: "made up"
}
"""
    with pytest.raises(CatalogParseError) as err:
        loads(bad)
    assert "contradicts" in str(err.value)


def test_family_well_definedness_validated():
    # a Z2-domain generator cannot map to an odd class of Z
    bad = """
catalog_version: 1

group {
  name: "Sp(1)·Sp(1)"
  pi1 {
    free_rank: 0
    torsion: [2]
    generators: ["half_diag"]
  }
  algebra {
    center_rank: 0
    ideal {
      kind: "sp(1)"
      dim: 3
      min_orth_rep: 3
      provenance: "adjoint"
    }
    ideal {
      kind: "sp(1)"
      dim: 3
      min_orth_rep: 3
      provenance: "adjoint"
    }
  }
  connected: true
  provenance: "standard"
}

repfamily {
  name: "ill-defined"
  domain: "Sp(1)·Sp(1)"
  target_r: 2
  labels: ["bad"]
  pi1_images: ["1"]
  distinct_classes: "n/a"
  certificate: "n/a"
}
"""
    with pytest.raises(CatalogParseError):
        loads(bad)
