import collections
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinr.lifting as lifting
import spinr.repcat as repcat
import spinr.spaces as spaces
from oracles import pushed_twist, scan_hom_rule_trace, scan_invariant_spin_type
from spinr.abelian import AbHom, DomainMismatchError, FgAbGroup
from spinr.bundled import build_catalog
from spinr.catalog import Catalog, loads
from spinr.catalogfile import SpinrError
from spinr.liecat import (
    AlgebraProfile,
    CompactGroupRec,
    NotInCatalogError,
    SimpleIdeal,
    so_group,
    so_pi1,
)
from spinr.lifting import LiftQuery, image_parities, lifts
from spinr.repcat import (
    Congruence,
    OrthRepFamily,
    enumerate_homs,
    parse_affine,
    parse_congruence,
)
from spinr.spaces import (
    DIAGONAL_FAMILY_NAME,
    HomSpaceRec,
    HypothesisError,
    InconsistentCatalogError,
    InvalidArgumentError,
    _parity_terms,
    _solve_parameter,
    canonical_structure,
    classify,
    holonomy_lift,
    invariant_spin_type,
    parity_nonzero,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from gencat import load_catalog, scale_catalog  # noqa: E402  (the benchmark's generators)


# --- classify -------------------------------------------------------------------

def test_classify_four_sphere_quaternionic(catalog):
    c = classify(catalog, catalog.space("S4:SO(5)"), 3)
    assert len(c.classes) == 2
    assert c.count == 2
    assert c.complete
    labels = {cl.label for cl in c.classes}
    assert labels == {"factor1", "factor2"}


def test_classify_sp_sp_sphere_unique(catalog):
    c = classify(catalog, catalog.space("S11:Sp(3)·Sp(1)"), 3)
    assert c.count == 1
    assert c.complete


def test_classify_two_sphere_infinite_odd_family(catalog):
    c = classify(catalog, catalog.space("S2:SO(3)"), 2)
    assert c.count is None
    (cl,) = c.classes
    assert str(cl.constraint) == "s odd"
    assert c.complete


def test_classify_su_sphere_unique_untwisted(catalog):
    c = classify(catalog, catalog.space("S5:SU(3)"), 1)
    assert c.count == 1
    (cl,) = c.classes
    assert cl.family == "trivial"


def test_classify_u_sphere_spin_obstruction(catalog):
    c = classify(catalog, catalog.space("S11:U(6)"), 1)
    assert not c.classes and c.complete
    (rej,) = c.rejected
    assert rej.family == "trivial"
    ((gen, image),) = rej.witnesses
    assert gen == "center_loop"


def test_classify_sp_u1_congruence(catalog):
    for name in ("S3:Sp(1)·U(1)", "S11:Sp(3)·U(1)"):
        c = classify(catalog, catalog.space(name), 2)
        (cl,) = c.classes
        assert str(cl.constraint) == "s ≡ 2 mod 4"


def test_classify_negative_verdicts_with_proofs(catalog):
    c = classify(catalog, catalog.space("S4:SO(5)"), 2)
    assert not c.classes and c.complete
    assert "so(3) + so(3)" in str(c.certificate)
    for n in (5, 6, 7):
        for r in range(2, n):
            c = classify(catalog, catalog.space(f"S{n}:SO({n + 1})"), r)
            assert not c.classes and c.complete, (n, r)
            assert c.rejected, (n, r)


DISCONNECTED_CATALOG = """
catalog_version: 1

group {
  name: "O(2)-like"
  pi1 {
    free_rank: 1
    torsion: []
    generators: ["loop"]
  }
  algebra {
    center_rank: 1
  }
  connected: false
  provenance: "two components"
}

group {
  name: "Ambient"
  pi1 {
    free_rank: 0
    torsion: []
    generators: []
  }
  algebra {
    center_rank: 3
  }
  connected: true
  provenance: "test"
}

space {
  name: "X2:Ambient"
  G: "Ambient"
  H: "O(2)-like"
  n: 2
  sigma_pi1_images: [1]
  provenance: "test"
}
"""


def test_classify_refuses_disconnected_stabiliser():
    cat = loads(DISCONNECTED_CATALOG)
    with pytest.raises(HypothesisError):
        classify(cat, cat.space("X2:Ambient"), 1)


def test_classify_rejects_bad_rank(catalog):
    with pytest.raises(ValueError):
        classify(catalog, catalog.space("S2:SO(3)"), 0)


# --- invariant spin type -----------------------------------------------------------

TABLE = [
    ("S1:SO(2)", 1), ("S2:SO(3)", 2), ("S3:SO(4)", 3), ("S4:SO(5)", 3),
    ("S5:SO(6)", 5), ("S6:SO(7)", 6), ("S7:SO(8)", 7), ("S8:SO(9)", 8),
    ("S3:U(2)", 2), ("S5:U(3)", 2), ("S7:U(4)", 2), ("S11:U(6)", 2),
    ("S3:SU(2)", 1), ("S5:SU(3)", 1), ("S7:SU(4)", 1),
    ("S3:Sp(1)", 1), ("S7:Sp(2)", 1), ("S11:Sp(3)", 1),
    ("S3:Sp(1)·U(1)", 2), ("S7:Sp(2)·U(1)", 1), ("S11:Sp(3)·U(1)", 2),
    ("S3:Sp(1)·Sp(1)", 3), ("S7:Sp(2)·Sp(1)", 1), ("S11:Sp(3)·Sp(1)", 3),
    ("S6:G2", 1), ("S7:Spin(7)", 1), ("S15:Spin(9)", 1),
]


@pytest.mark.parametrize("name,expected", TABLE)
def test_invariant_spin_type_catalog(catalog, name, expected):
    res = invariant_spin_type(catalog, catalog.space(name))
    assert res.status == "exact"
    assert res.value == expected
    assert res.witnesses


def test_spin_type_bound_within_dimension(catalog):
    for space in catalog.spaces.values():
        res = invariant_spin_type(catalog, space)
        assert 1 <= res.lo <= res.hi <= space.n


# --- the spin-type scan against a full classification at every rank ----------------

def test_spin_type_scan_matches_oracle_on_bundled_catalog(catalog):
    for space in catalog.spaces.values():
        assert invariant_spin_type(catalog, space) == scan_invariant_spin_type(
            catalog, space
        ), space.name


def test_spin_type_scan_matches_oracle_on_generated_spheres():
    # the benchmark's catalogs: S^1 ... S^199 over SO(n + 1), and the
    # spheres of the SO, U, SU and Sp series up to S^143
    scale = loads(scale_catalog(200, 1).text, "scale.txt")
    series = loads(load_catalog(36, 1).text, "load.txt")
    assert len(scale.spaces) == 199 and len(series.spaces) == 141
    for cat in (scale, series):
        for space in cat.spaces.values():
            assert invariant_spin_type(cat, space) == scan_invariant_spin_type(
                cat, space
            ), space.name


def _odd_space(catalog, group: str, n: int, G: str = "G") -> HomSpaceRec:
    """A space over a bundled group with pi1 = Z2, isotropy class odd,
    dimension n."""
    h, cod = catalog.lookup(group), so_pi1(n)
    return HomSpaceRec(
        f"X:{group}", G, group, n, AbHom(h.pi1, cod, (cod.elem([1]),)), "test"
    )


def _so12_space(catalog, n: int) -> HomSpaceRec:
    return _odd_space(catalog, "SO(12)", n, "SO(13)")


def _counting(calls, name, original):
    def wrapper(*args):
        calls[name] += 1
        return original(*args)
    return wrapper


def test_spin_type_work_is_independent_of_the_dimension(catalog, monkeypatch):
    # nothing is listed at SO(12); so(12) first fits at r = 12, so every
    # rank from 12 on is uncertain and the canonical witness closes at n.
    # Over SO(8), listed at 8 and 9, the witness is at 8.  Beside the wall
    # clock, count the table rows each query walks (one _parity_classes
    # call per row): none at any n, once each (group, parity vector)
    # entry is filled
    for space in (_so12_space(catalog, 13), _odd_space(catalog, "SO(8)", 13)):
        invariant_spin_type(catalog, space)
    walked = collections.Counter()
    monkeypatch.setattr(spaces, "_parity_classes",
                        _counting(walked, "rows", spaces._parity_classes))
    for n in (13, 10**4, 10**9):
        space = _so12_space(catalog, n)
        start = time.perf_counter()
        res = invariant_spin_type(catalog, space)
        elapsed = time.perf_counter() - start
        assert (res.status, res.lo, res.hi) == ("bounded", 12, n)
        (witness,) = res.witnesses
        assert witness.family == DIAGONAL_FAMILY_NAME
        assert elapsed < 0.05, (n, elapsed)
        res = invariant_spin_type(catalog, _odd_space(catalog, "SO(8)", n))
        assert (res.status, res.lo, res.hi) == ("exact", 8, 8)
        assert walked["rows"] == 0, n
    assert invariant_spin_type(catalog, _so12_space(catalog, 13)) == (
        scan_invariant_spin_type(catalog, _so12_space(catalog, 13))
    )


def test_the_scan_table_is_built_once_per_catalog_and_group(monkeypatch):
    # what the scan reads of (catalog, H) alone is computed at the first
    # query of H in that catalog: r0 and the trivial twist, once each,
    # however often H is queried; a second equal catalog builds its own
    calls = collections.Counter()
    for name in ("first_possible_rank", "trivial_family"):
        monkeypatch.setattr(spaces, name, _counting(calls, name, getattr(spaces, name)))
    scale_text = scale_catalog(200, 1).text
    for make in (build_catalog, lambda: loads(scale_text, "scale.txt")):
        fresh, scanned = make(), make()
        stabilisers = {space.H for space in scanned.spaces.values()}
        for _ in range(3):
            answers = [invariant_spin_type(scanned, s) for s in scanned.spaces.values()]
            assert calls == dict.fromkeys(calls, len(stabilisers))
        assert set(calls) == {"first_possible_rank", "trivial_family"}
        # the tables are no field: a scanned catalog equals, and prints as,
        # one never queried
        assert scanned == fresh and repr(scanned) == repr(fresh)
        assert [invariant_spin_type(fresh, s) for s in fresh.spaces.values()] == answers
        assert calls == dict.fromkeys(calls, 2 * len(stabilisers))
        calls.clear()


def test_a_scan_table_is_built_from_the_catalogs_own_group():
    # scan_table takes a stabiliser name, never a record, and reads the
    # group through the catalog's lookup: a record that borrowed SO(8)'s
    # name with so(3)'s algebra once made S8:SO(9) read bounded [3, 8]
    c = build_catalog()
    so8 = c.lookup("SO(8)")
    impostor = CompactGroupRec("SO(8)", so8.pi1, so_group(3).algebra, True, "x")
    with pytest.raises((AttributeError, TypeError)):
        c.scan_table(impostor)
    assert not c._scan_tables
    for name in ("SO(8)", " SO(8)"):
        assert c.scan_table(name)[0] is so8
    res = invariant_spin_type(c, c.space("S8:SO(9)"))
    assert (res.status, res.lo, res.hi) == ("exact", 8, 8)
    with pytest.raises(NotInCatalogError):
        c.scan_table("NoSuch")
    assert set(c._scan_tables) == {"SO(8)"}


def test_the_scan_accepts_an_isotropy_map_on_equal_groups_not_the_same(catalog):
    # check_isotropy compares each group by identity first: a domain equal
    # to pi1(H) and a codomain equal to pi1(SO(n)), each a different
    # object, still pass, as does a codomain of the same orders under
    # other labels
    for name in ("S8:SO(9)", "S7:Sp(2)·U(1)", "S3:U(2)"):
        space = catalog.space(name)
        sigma = space.sigma_pi1
        pi1, target = sigma.domain, so_pi1(space.n)
        assert pi1 is catalog.lookup(space.H).pi1 and sigma.codomain is target
        domain = FgAbGroup(pi1.orders, pi1.labels)
        cod = FgAbGroup(target.orders, target.labels)
        relabelled = FgAbGroup(target.orders, ("other",))
        assert domain == pi1 and domain is not pi1 and cod == target and cod is not target
        expected = invariant_spin_type(catalog, space)
        for d, c in ((domain, target), (pi1, cod), (domain, cod), (pi1, relabelled)):
            images = tuple(c.elem(img.coords) for img in sigma.images)
            copy = HomSpaceRec(name, space.G, space.H, space.n, AbHom(d, c, images), "test")
            assert invariant_spin_type(catalog, copy) == expected


@pytest.mark.parametrize("domain_is_z,cod,message", [
    (True, 4, "isotropy and twist maps must share their domain generators"),
    (False, 2, r"isotropy map must land in pi1\(SO\(4\)\)"),
])
def test_the_scan_refuses_an_isotropy_map_off_its_stabiliser(
    catalog, domain_is_z, cod, message
):
    # an even isotropy class over SO(4), whose pi1 is Z2, at n = 4: a map
    # from Z, or one landing in pi1(SO(2)), is not an isotropy map of H
    h = catalog.lookup("SO(4)")
    domain = FgAbGroup((0,), ("loop",)) if domain_is_z else h.pi1
    target = so_pi1(cod)
    sigma = AbHom(domain, target, (target.elem([0]),))
    space = HomSpaceRec("X:SO(4)", "SO(5)", "SO(4)", 4, sigma, "test")
    with pytest.raises(DomainMismatchError, match=message):
        invariant_spin_type(catalog, space)


def test_a_catalog_without_the_canonical_witness_is_inconsistent(catalog):
    # n = 3 is below r0 = 12 and nothing is listed at SO(12), so every
    # rank up to n is certainly empty: the data contradicts the theorem
    space = _so12_space(catalog, 3)
    with pytest.raises(InconsistentCatalogError) as err:
        invariant_spin_type(catalog, space)
    assert isinstance(err.value, SpinrError)
    assert isinstance(err.value, RuntimeError)
    assert str(err.value).startswith(
        "<bundled>: no invariant structure found for X:SO(12) up to r = 3 "
    )
    assert _outcome(invariant_spin_type, catalog, space) == _outcome(
        scan_invariant_spin_type, catalog, space
    )


def test_spin_type_scan_runs_no_enumeration_or_rule_trace(catalog, monkeypatch):
    # the scan decides every family by the parity rule alone: no lift
    # query, verdict or rejection witness is built
    def refuse(*args):
        raise AssertionError("called by the spin-type scan")

    scale = loads(scale_catalog(200, 1).text, "scale.txt")
    for name in ("enumerate_homs", "lifts", "LiftQuery", "_lift_families"):
        monkeypatch.setattr(spaces, name, refuse)
    monkeypatch.setattr(repcat, "hom_rule_trace", refuse)
    odd = [s for s in catalog.spaces.values() if parity_nonzero(s.sigma_pi1)]
    assert 10 < len(odd) < len(catalog.spaces)
    for cat in (catalog, scale):
        for space in cat.spaces.values():
            invariant_spin_type(cat, space)
    invariant_spin_type(catalog, _so12_space(catalog, 10**9))
    assert len(scale.spaces) == 199


def test_the_rule_proof_is_written_only_when_printed(catalog, monkeypatch):
    # at a rank with no listed family an answer carries the rule engine's
    # proof as a value: deciding and comparing answers writes no trace,
    # and printing the certificate writes it once
    original = repcat.hom_rule_trace
    calls = []

    def counting(a, r):
        calls.append((a, r))
        return original(a, r)

    monkeypatch.setattr(repcat, "hom_rule_trace", counting)
    space = catalog.space("S4:SO(5)")

    def answers():
        return [(classify(catalog, space, 2), space.H, 2),
                (holonomy_lift(catalog, "U(2)", 4, 1), "U(2)", 1)]

    first = answers()
    assert [res for res, _, _ in first] == [res for res, _, _ in answers()]
    assert calls == []
    for res, group, r in first:
        assert not catalog.families_at(group, r)
        algebra = catalog.lookup(group).algebra
        text = str(res.certificate)
        assert calls == [(algebra, r)]
        assert text == f"rule engine: {scan_hom_rule_trace(algebra, r).trace}"
        assert repr(res.certificate) == repr(text)
        calls.clear()


def test_the_spin_type_scan_builds_no_mod2_map(catalog, monkeypatch):
    # the scan reads each isotropy parity off its coordinate, once per
    # query (lifting.image_parities): neither lifting.parity nor the mod2
    # map it builds is called
    calls = collections.Counter()

    def counting(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for module, name in ((spaces, "parity"), (lifting, "parity"), (lifting, "mod2")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, counting(f"{module.__name__}.{name}", original))
    scale = loads(scale_catalog(200, 1).text, "scale.txt")
    for cat in (catalog, scale):
        for space in cat.spaces.values():
            invariant_spin_type(cat, space)
    assert calls == {}
    # the counters are live: the lift test of a constant family reads
    # parity through the mod2 map
    classify(catalog, catalog.space("S4:SO(5)"), 3)
    assert calls["spinr.lifting.parity"] > 0 and calls["spinr.lifting.mod2"] > 0


def test_answers_never_lose_a_structure_at_a_higher_rank(catalog):
    # a twist that lifts at rank r lifts, pushed forward, at every higher
    # rank, so no complete answer may deny a structure above a rank that
    # has one: holonomy_lift never says "no" above a "yes", and classify is
    # never complete and empty above a rank with a class.  Holonomy ranks
    # run to m + 1; classify ranks to min(n, 40) + 1, to bound the time
    answers = verdicts = 0
    wrong = []
    for cat in (catalog, loads(load_catalog(36, 1).text, "load.txt")):
        for group, m in cat.holonomies:
            said = [holonomy_lift(cat, group, m, r).verdict for r in range(1, m + 2)]
            verdicts += len(said)
            if "yes" in said and "no" in said[said.index("yes"):]:
                wrong.append((group, m, said))
        for space in cat.spaces.values():
            found = False
            for r in range(1, min(space.n, 40) + 2):
                c = classify(cat, space, r)
                answers += 1
                if found and c.complete and not c.classes:
                    wrong.append((space.name, r))
                found = found or bool(c.classes)
    assert wrong == []
    assert (verdicts, answers) == (179 + 6133, 195 + 4099)


def test_solve_parameter_refuses_a_non_integral_image():
    h = FgAbGroup((0,), ("loop",))
    family = OrthRepFamily(
        name="half", domain="H", target_r=2, pi1_images=(parse_affine("s/2"),),
        param_constraint=Congruence(1, 0),
    )
    cod = so_pi1(3)
    with pytest.raises(ValueError, match="not integral"):
        _solve_parameter(
            image_parities(AbHom(h, cod, (cod.elem([1]),))), _parity_terms(family)
        )


def _pi1_image(draw, order: int, r: int) -> int:
    """An image of a generator of the given order (0: free) in
    pi1(SO(r)) that keeps the induced map well defined."""
    if r == 1 or (order and (r == 2 or order % 2)):
        return 0
    return draw(st.integers(-3, 3) if r == 2 else st.integers(0, 1))


def _may_be_odd(order: int, r: int) -> bool:
    """Whether a generator of the given order (0: free) may map to an
    odd class of pi1(SO(r))."""
    return r >= 2 and (order == 0 or (r >= 3 and order % 2 == 0))


def _quoted(items) -> str:
    return ", ".join(f'"{item}"' for item in items)


# simple ideals (kind, dim, min_orth_rep) whose own first possible rank
# runs from 3 to 8: dim so(r) decides so(5), the least orthogonal
# representation decides su(3), g2 and so(8)
IDEALS = [("so(3)", 3, 3), ("so(5)", 10, 5), ("su(3)", 8, 6), ("g2", 14, 7),
          ("so(8)", 28, 8)]


def _group_block(name, orders, center, ideals, connected):
    free = sum(1 for d in orders if d == 0)
    torsion = ", ".join(str(d) for d in orders if d)
    gens = _quoted(f"g{i}" for i in range(len(orders)))
    ideal_blocks = "".join(
        f'    ideal {{\n      kind: "{kind}"\n      dim: {dim}\n'
        f'      min_orth_rep: {least}\n      provenance: "generated"\n    }}\n'
        for kind, dim, least in ideals
    )
    return (
        f'group {{\n  name: "{name}"\n  pi1 {{\n    free_rank: {free}\n'
        f"    torsion: [{torsion}]\n    generators: [{gens}]\n  }}\n"
        f"  algebra {{\n    center_rank: {center}\n{ideal_blocks}  }}\n"
        f'  connected: {"true" if connected else "false"}\n'
        f'  provenance: "generated"\n}}\n'
    )


def _space_block(name, n, sigma):
    return (
        f'space {{\n  name: "{name}"\n  G: "Ambient"\n  H: "H"\n  n: {n}\n'
        f'  sigma_pi1_images: [{sigma}]\n  provenance: "generated"\n}}\n'
    )


@st.composite
def small_catalogs(draw, parameterized: bool = False, space_count: int = 1):
    """One space X over a generated stabiliser H and a few families
    listed at random ranks: finite or parameterised, some incomplete.
    With `parameterized`, every family (at least one) has an integer
    parameter.  With `space_count` above 1, spaces X1, X2, ... over H follow,
    each with its own dimension and isotropy parity per generator.

    H has a centre (the rule engine then cannot rule out a map at any
    rank r >= 2) or none, and up to two simple ideals whose first
    possible rank r0 runs from 3 to 8, so listed ranks fall below r0
    (r = 1 included, for finite families), at it, above it and above n.  A family below r0 contradicts the
    rule engine and the loader refuses it; such families are added to
    the loaded catalog, so that the scans are compared on them too."""
    orders = [0] * draw(st.integers(int(parameterized), 2)) + draw(
        st.lists(st.sampled_from([2, 3, 4]), max_size=2)
    )
    n = draw(st.integers(1, 9))
    center = draw(st.sampled_from([0, 0, 1, 2]))
    ideals = (
        draw(st.lists(st.sampled_from(IDEALS), min_size=1, max_size=2))
        if draw(st.integers(0, 4))
        else []
    )
    algebra = AlgebraProfile(center, tuple(SimpleIdeal(*i) for i in ideals))
    blocks = [
        "catalog_version: 1\n",
        _group_block(
            "H", orders, center, ideals,
            draw(st.sampled_from([True] * 9 + [False])),
        ),
        _group_block("Ambient", [], 3, [], True),
    ]
    refused = []
    # the rule engine's first possible rank, from the oracle's kernel scan
    r0 = next(
        (r for r in range(2, 12) if not scan_hom_rule_trace(algebra, r).impossible),
        None,
    )
    rank = st.integers(2 if parameterized else 1, n + 2)
    if r0 is not None:
        rank |= st.integers(r0, r0 + 1)
    ranks = draw(st.lists(rank, min_size=int(parameterized), max_size=4))
    for k, r in enumerate(ranks):
        name = f"fam{k}"
        labels = constraint = None
        if parameterized or (0 in orders and r > 1 and draw(st.booleans())):
            images = [
                draw(st.sampled_from(["s", "2*s", "s+1", "3*s"]))
                if d == 0
                else str(_pi1_image(draw, d, r))
                for d in orders
            ]
            constraint = draw(st.sampled_from(["s in Z", "s even", "s odd", "s = 2 mod 4"]))
            kind = f'  param {{\n    name: "s"\n    constraint: "{constraint}"\n  }}\n'
        else:
            images = [str(_pi1_image(draw, d, r)) for d in orders]
            labels = ["a", "b"][: draw(st.integers(1, 2))]
            kind = f"  labels: [{_quoted(labels)}]\n"
        certificate = draw(st.sampled_from(["incomplete", "cited"]))
        block = (
            f'repfamily {{\n  name: "{name}"\n  domain: "H"\n  target_r: {r}\n{kind}'
            f"  pi1_images: [{_quoted(images)}]\n"
            f'  distinct_classes: "generated"\n  certificate: "{certificate}"\n}}\n'
        )
        if not scan_hom_rule_trace(algebra, r).impossible:
            blocks.append(block)
            continue
        # the record that the loader refuses to build
        refused.append(OrthRepFamily(
            name, "H", r, tuple(map(parse_affine, images)),
            labels and tuple(labels), constraint and parse_congruence(constraint),
            "generated", None, certificate,
        ))
    # half the time an odd isotropy class, where the scan reads the listed ranks
    odd = draw(st.booleans())
    sigma = ", ".join(
        "1" if odd and _may_be_odd(d, n) else str(_pi1_image(draw, d, n))
        for d in orders
    )
    blocks.append(_space_block("X", n, sigma))
    for k in range(1, space_count):
        # each generator odd or even on its own: mixed parity vectors
        n = draw(st.integers(1, 9))
        sigma = ", ".join(
            "1" if draw(st.booleans()) and _may_be_odd(d, n)
            else str(_pi1_image(draw, d, n))
            for d in orders
        )
        blocks.append(_space_block(f"X{k}", n, sigma))
    cat = loads("\n".join(blocks))
    if not refused:
        return cat
    families = cat.families + tuple(refused)
    return Catalog(cat.version, cat.groups, families, cat.spaces, cat.holonomies)


def _outcome(scan, catalog, space):
    try:
        return scan(catalog, space)
    except (HypothesisError, RuntimeError) as err:
        return type(err), str(err)


@settings(max_examples=500)
@given(small_catalogs())
def test_spin_type_scan_matches_oracle_on_generated_catalogs(cat):
    space = cat.space("X")
    assert _outcome(invariant_spin_type, cat, space) == _outcome(
        scan_invariant_spin_type, cat, space
    )


@settings(max_examples=200)
@given(small_catalogs(space_count=6).filter(lambda cat: cat.lookup("H").pi1.rank <= 3),
       st.data())
def test_each_parity_vector_walks_the_rows_once(cat, data):
    # several spaces over one H share its table's entries: queried in a
    # drawn order and then again, every answer is the oracle's, and the
    # rows are walked once per distinct parity vector, at most 2^k of them
    unscanned = Catalog(cat.version, cat.groups, cat.families, cat.spaces, cat.holonomies)
    expected = {name: _outcome(scan_invariant_spin_type, unscanned, space)
                for name, space in cat.spaces.items()}
    order = data.draw(st.permutations(list(cat.spaces.values())))
    walks = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_least_passing",
                   _counting(walks, "walks", spaces._least_passing))
        for space in order + order:
            assert _outcome(invariant_spin_type, cat, space) == expected[space.name]
    h = cat.lookup("H")
    if not h.connected:
        assert not walks
        return
    entries = cat.scan_table("H")[3]
    assert set(entries) == {image_parities(space.sigma_pi1) for space in order}
    assert walks["walks"] == len(entries) <= 2 ** h.pi1.rank


@settings(max_examples=400)
@given(st.one_of(small_catalogs(parameterized=True), small_catalogs()))
def test_solved_congruences_are_exact(cat):
    """A parameterised family passes at exactly the parameter values of
    its solved congruence, the sampled ones included; a constant family
    is solved with all of Z exactly when it passes the lift test."""
    space = cat.space("X")
    h = cat.lookup(space.H)
    for fam in cat.families:
        if fam.parameterized:
            continue
        q = LiftQuery(space.n, fam.target_r, space.sigma_pi1, fam.pi1_map(h.pi1))
        solved = _solve_parameter(image_parities(space.sigma_pi1), _parity_terms(fam))
        assert solved in (None, Congruence(1, 0))
        assert (solved is not None) == lifts(q).lifts
    if not h.connected:
        return
    for fam in cat.families:
        if not fam.parameterized:
            continue
        c = classify(cat, space, fam.target_r)
        (solved,) = [
            cl.constraint
            for cl in c.classes
            if cl.family == fam.name and cl.constraint is not None
        ] or [None]
        admissible = [s for s in range(-8, 9) if fam.param_constraint.contains(s)]
        for s in admissible + (solved.sample(3) if solved else []):
            q = LiftQuery(
                space.n, fam.target_r, space.sigma_pi1,
                fam.pi1_map(h.pi1, s),
            )
            assert lifts(q).lifts == (solved is not None and solved.contains(s))


@settings(max_examples=100)
@given(small_catalogs())
def test_diagonal_twist_always_lifts(cat):
    space = cat.space("X")
    q = LiftQuery(space.n, space.n, space.sigma_pi1, space.sigma_pi1)
    assert lifts(q).lifts


BOUNDED_CATALOG = """
catalog_version: 1

group {
  name: "Circle"
  pi1 {
    free_rank: 1
    torsion: []
    generators: ["loop"]
  }
  algebra {
    center_rank: 1
  }
  connected: true
  provenance: "test"
}

group {
  name: "Ambient"
  pi1 {
    free_rank: 0
    torsion: []
    generators: []
  }
  algebra {
    center_rank: 3
  }
  connected: true
  provenance: "test"
}

repfamily {
  name: "circle-rank3"
  domain: "Circle"
  target_r: 3
  labels: ["odd"]
  pi1_images: ["1"]
  distinct_classes: "test"
  certificate: "cited"
}

space {
  name: "X3:Ambient"
  G: "Ambient"
  H: "Circle"
  n: 3
  sigma_pi1_images: [1]
  provenance: "test"
}
"""


def test_spin_type_bounded_below_first_witness():
    # r = 1 fails the odd class with a complete enumeration; at r = 2
    # the centre leaves the rule engine unable to rule out a map and
    # nothing is listed, so the witness at r = 3 gives [2, 3]
    cat = loads(BOUNDED_CATALOG)
    space = cat.space("X3:Ambient")
    res = invariant_spin_type(cat, space)
    assert (res.status, res.lo, res.hi, res.value) == ("bounded", 2, 3, None)
    (witness,) = res.witnesses
    assert (witness.family, witness.label) == ("circle-rank3", "odd")
    assert res == scan_invariant_spin_type(cat, space)


# --- canonical structure --------------------------------------------------------------

def _u2_space_into_so2(catalog):
    # pi1(U(2)) = Z into pi1(SO(2)) = Z at n = 5: the wrong codomain
    h, cod = catalog.lookup("U(2)"), so_pi1(2)
    return HomSpaceRec("X", "U(3)", "U(2)", 5, AbHom(h.pi1, cod, (cod.elem([1]),)), "t")


def _space_from_z(H):
    # a map from Z into pi1(SO(5)), over a stabiliser named H
    domain, cod = FgAbGroup((0,), ("loop",)), so_pi1(5)
    return HomSpaceRec("X", "G", H, 5, AbHom(domain, cod, (cod.elem([1]),)), "t")


@pytest.mark.parametrize("case,error", [
    ("unknown H", NotInCatalogError), ("disconnected H", HypothesisError),
    ("wrong domain", DomainMismatchError), ("wrong codomain", DomainMismatchError),
])
def test_canonical_structure_refuses_what_the_spin_type_refuses(catalog, case, error):
    # both functions read H through the scan table and run check_isotropy
    # before either branch, so they fail alike; each error is a SpinrError,
    # which a library caller catches for every input error
    if case == "disconnected H":
        catalog = loads(DISCONNECTED_CATALOG)
        space = _space_from_z("O(2)-like")
    elif case == "wrong codomain":
        space = _u2_space_into_so2(catalog)
    else:
        # SO(4)'s pi1 is Z2, not Z: the wrong domain
        space = _space_from_z("NoSuch" if case == "unknown H" else "SO(4)")
    outcomes = []
    for decide in (invariant_spin_type, canonical_structure):
        with pytest.raises(SpinrError) as err:
            decide(catalog, space)
        outcomes.append((type(err.value), str(err.value)))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] is error


def test_canonical_untwisted_for_spin_spaces(catalog):
    c = canonical_structure(catalog, catalog.space("S7:Spin(7)"))
    assert c.r == 1
    assert c.complete
    (cl,) = c.classes
    assert cl.family == "trivial"


def test_canonical_diagonal_for_round_spheres(catalog):
    for n in (3, 4, 5, 8):
        c = canonical_structure(catalog, catalog.space(f"S{n}:SO({n + 1})"))
        assert c.r == n
        (cl,) = c.classes
        assert cl.family == DIAGONAL_FAMILY_NAME
        assert not c.complete


def test_canonical_not_minimal(catalog):
    space = catalog.space("S11:Sp(3)·Sp(1)")
    c = canonical_structure(catalog, space)
    assert c.r == 11
    assert invariant_spin_type(catalog, space).value == 3
    q = LiftQuery(11, 11, space.sigma_pi1, space.sigma_pi1)
    assert lifts(q).lifts


def test_canonical_refused_below_dimension_three(catalog):
    for name in ("S1:SO(2)", "S2:SO(3)"):
        with pytest.raises(HypothesisError):
            canonical_structure(catalog, catalog.space(name))


def test_canonical_passes_lift_for_all_catalog_spaces(catalog):
    for space in catalog.spaces.values():
        if space.n < 3:
            continue
        c = canonical_structure(catalog, space)
        if parity_nonzero(space.sigma_pi1):
            assert c.r == space.n
            q = LiftQuery(space.n, space.n, space.sigma_pi1, space.sigma_pi1)
            assert lifts(q).lifts
        else:
            assert c.r == 1 and c.count == 1


def test_diagonal_holonomy_twist_lifts_for_all_records(catalog):
    for (group, m), rec in catalog.holonomies.items():
        assert lifts(LiftQuery(m, m, rec.h_pi1, rec.h_pi1)).lifts, group
        v = holonomy_lift(catalog, group, m, m)
        assert v.verdict == "yes"
        assert v.via[-1].family == "diagonal(holonomy)"


# --- holonomy -------------------------------------------------------------------------

def test_holonomy_generic_always_lifts_at_own_rank(catalog):
    for m in range(3, 10):
        v = holonomy_lift(catalog, f"SO({m})", m, m)
        assert v.verdict == "yes"


def test_holonomy_quaternion_kaehler_no_rank_two(catalog):
    for k, m in ((0, 4), (1, 12)):
        group = f"Sp({2 * k + 1})·Sp(1)"
        v = holonomy_lift(catalog, group, m, 2)
        assert v.verdict == "no"
        assert v.complete


def test_holonomy_calabi_yau_spin(catalog):
    for k in (2, 3, 4):
        v = holonomy_lift(catalog, f"SU({k})", 2 * k, 1)
        assert v.verdict == "yes"


def test_holonomy_kaehler_complex_twist(catalog):
    for k in (2, 3, 4):
        v = holonomy_lift(catalog, f"U({k})", 2 * k, 2)
        assert v.verdict == "yes"
        constraint_classes = [c for c in v.via if c.constraint is not None]
        assert constraint_classes
        assert str(constraint_classes[0].constraint) == "s odd"


def test_holonomy_unknown_when_enumeration_incomplete(catalog):
    v = holonomy_lift(catalog, "U(2)", 4, 3)
    assert v.verdict == "unknown"
    assert not v.complete


def test_holonomy_unknown_record_rejected(catalog):
    from spinr.liecat import NotInCatalogError

    with pytest.raises(NotInCatalogError):
        holonomy_lift(catalog, "SO(5)", 17, 2)


@pytest.mark.parametrize("r", [0, -3])
def test_holonomy_lift_refuses_a_rank_below_one_as_classify_does(catalog, r):
    with pytest.raises(InvalidArgumentError) as by_classify:
        classify(catalog, catalog.space("S4:SO(5)"), r)
    # the rank is checked first, so a missing record makes no difference
    for m in (5, 17):
        with pytest.raises(InvalidArgumentError) as by_holonomy:
            holonomy_lift(catalog, "SO(5)", m, r)
        assert str(by_holonomy.value) == str(by_classify.value)
    assert str(by_classify.value) == f"twist rank must be >= 1, got {r}"


# --- cross-construction consistency ----------------------------------------------------

def test_unique_untwisted_structures(catalog):
    for space in catalog.spaces.values():
        c = classify(catalog, space, 1)
        assert len(c.classes) in (0, 1), space.name


def test_extending_twist_gives_holonomy_lift(catalog):
    # a classification class whose family extends to the transitive
    # group yields a holonomy lift of that group at the same rank
    for k in (1, 2, 3):
        sphere = catalog.space(f"S{2 * k + 1}:U({k + 1})")
        c = classify(catalog, sphere, 2)
        (cl,) = c.classes
        assert cl.extends_to == f"U({k + 1})"
        v = holonomy_lift(catalog, f"U({k + 1})", 2 * k + 2, 2)
        assert v.verdict == "yes"


def test_holonomy_lift_implies_sphere_classes(catalog):
    # whenever the generic holonomy lifts, the corresponding sphere has
    # invariant structures at the same rank
    for n in range(3, 9):
        for r in range(1, n + 2):
            v = holonomy_lift(catalog, f"SO({n + 1})", n + 1, r)
            if v.verdict == "yes":
                c = classify(catalog, catalog.space(f"S{n}:SO({n + 1})"), r)
                assert c.classes, (n, r)


def test_monotone_in_rank_via_induced_twists(catalog):
    # a passing class at rank r keeps passing after pushing the twist
    # into any larger rank
    for name in ("S2:SO(3)", "S4:SO(5)", "S11:Sp(3)·U(1)", "S7:U(4)"):
        space = catalog.space(name)
        h = catalog.lookup(space.H)
        for r in range(1, min(space.n, 6) + 1):
            c = classify(catalog, space, r)
            for cl, fam in _concrete_classes(catalog, c):
                for s_val in ([None] if not fam.parameterized else cl.constraint.sample(2)):
                    phi = fam.pi1_map(h.pi1, s_val)
                    for bigger in range(r + 1, 10):
                        q = LiftQuery(
                            space.n, bigger, space.sigma_pi1, pushed_twist(phi, bigger)
                        )
                        assert lifts(q).lifts, (name, r, bigger)


def _concrete_classes(catalog, classification):
    space = catalog.space(classification.space)
    enum = enumerate_homs(catalog, space.H, classification.r)
    by_name = {fam.name: fam for fam in enum.families}
    return [(cl, by_name[cl.family]) for cl in classification.classes]
