import doctest
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinr.lifting as lifting
import spinr.spaces as spaces
from spinr.abelian import (
    AbHom,
    DomainMismatchError,
    FgAbGroup,
    Subgroup,
    contains,
)
from spinr.liecat import so_pi1, so_pi1_map
from spinr.lifting import (
    LiftQuery,
    LiftVerdict,
    frame_product_pi1,
    lift_subgroup,
    lifts,
)
from oracles import (
    elements,
    parity_lifts,
    pushed_twist,
    subgroup_eq,
    subgroup_index,
)
from test_abelian import zero_hom


def test_doctests():
    failures, _ = doctest.testmod(lifting)
    assert failures == 0


def published_image(n, r, gens):
    amb = frame_product_pi1(n, r)
    return Subgroup(amb, tuple(amb.elem(c) for c in gens))


# --- the four published covering images --------------------------------------

def test_image_two_two():
    assert subgroup_eq(lift_subgroup(2, 2), published_image(2, 2, [(1, 1), (1, -1)]))


@pytest.mark.parametrize("n", [3, 5, 9])
def test_image_n_two(n):
    assert subgroup_eq(lift_subgroup(n, 2), published_image(n, 2, [(1, 1)]))


@pytest.mark.parametrize("n,r", [(3, 3), (4, 7), (9, 9), (5, 8)])
def test_image_both_large(n, r):
    assert subgroup_eq(lift_subgroup(n, r), published_image(n, r, [(1, 1)]))


def test_image_spin_case_is_trivial_subgroup():
    s = lift_subgroup(3, 1)
    assert not s.generators
    assert subgroup_index(s) == 2


def test_grid_image_is_parity_kernel():
    for n, r in itertools.product(range(1, 10), repeat=2):
        s = lift_subgroup(n, r)
        amb = s.ambient
        if amb.free_rank == 0:
            for x in elements(amb):
                balanced = _split_parities(x, n) == 0
                assert contains(s, x) == balanced, (n, r, x)


def _split_parities(x, n):
    na = so_pi1(n).rank
    left = sum(x.coords[:na]) % 2
    right = sum(x.coords[na:]) % 2
    return (left + right) % 2


def test_two_sheetedness_index_two():
    for n, r in itertools.product(range(2, 10), repeat=2):
        assert subgroup_index(lift_subgroup(n, r)) == 2, (n, r)


def test_symmetry_in_the_two_factors():
    for n, r in itertools.product(range(1, 10), repeat=2):
        a, b = lift_subgroup(n, r), lift_subgroup(r, n)
        swapped = Subgroup(
            a.ambient,
            tuple(
                a.ambient.elem(
                    g.coords[so_pi1(r).rank :] + g.coords[: so_pi1(r).rank]
                )
                for g in b.generators
            ),
        )
        assert subgroup_eq(a, swapped), (n, r)


# --- lifts --------------------------------------------------------------------

def hom_to_so(domain, n, images):
    cod = so_pi1(n)
    return AbHom(domain, cod, tuple(cod.elem([v]) for v in images))


def test_trivial_pi1_always_lifts():
    trivial = FgAbGroup(0, (), ())
    for r in (1, 2, 3, 5):
        q = LiftQuery(
            7, r, zero_hom(trivial, so_pi1(7)), zero_hom(trivial, so_pi1(r))
        )
        assert lifts(q).lifts


def test_odd_determinant_twist_lifts():
    # circle-generated fundamental group mapping onto the frame
    # generator, paired with a winding-3 twist
    dom = FgAbGroup(1, (), ("c",))
    q = LiftQuery(9, 2, hom_to_so(dom, 9, [1]), hom_to_so(dom, 2, [3]))
    assert lifts(q).lifts


def test_even_determinant_twist_fails_with_witness():
    dom = FgAbGroup(1, (), ("c",))
    q = LiftQuery(9, 2, hom_to_so(dom, 9, [1]), hom_to_so(dom, 2, [2]))
    verdict = lifts(q)
    assert not verdict.lifts
    (label, elem), = verdict.witness_failures
    assert label == "c"
    assert elem.coords == (1, 2)


def test_identity_isotropy_with_trivial_twist_fails():
    dom = so_pi1(5)
    q = LiftQuery(
        5, 2, AbHom(dom, dom, (dom.elem([1]),)), zero_hom(dom, so_pi1(2))
    )
    assert not lifts(q).lifts


def test_verdict_must_agree_with_its_witnesses():
    witness = (("c", so_pi1(2).elem([1])),)
    for verdict, failures in ((True, witness), (False, ())):
        with pytest.raises(ValueError):
            LiftVerdict(verdict, failures)
    assert LiftVerdict(False, witness).witness_failures == witness


def test_mismatched_domains_rejected():
    a = FgAbGroup(1, (), ("x",))
    b = FgAbGroup(0, (2,), ("x",))
    with pytest.raises(DomainMismatchError):
        LiftQuery(3, 2, zero_hom(a, so_pi1(3)), zero_hom(b, so_pi1(2)))


def spin_lift_query(sigma_pi1: AbHom, n: int) -> LiftQuery:
    """The classical (untwisted) case: r = 1, trivial twist."""
    return LiftQuery(n, 1, sigma_pi1, zero_hom(sigma_pi1.domain, so_pi1(1)))


def test_spin_criterion_iff_zero_isotropy_class():
    dom = FgAbGroup(0, (2,), ("d",))
    for image in (0, 1):
        sigma = hom_to_so(dom, 6, [image])
        assert lifts(spin_lift_query(sigma, 6)).lifts == (image == 0)


# --- lifts against the parity rule ----------------------------------------------

def _agrees_with_the_parity_rule(q: LiftQuery) -> bool:
    # each witness is an element of pi1(SO(n)) x pi1(SO(r)) with its
    # factor-prefixed labels, not only the right coordinates
    verdict = lifts(q)
    witnesses = tuple((label, w.coords) for label, w in verdict.witness_failures)
    ambient = frame_product_pi1(q.n, q.r)
    return (verdict.lifts, witnesses) == parity_lifts(q) and all(
        w.group.same_presentation(ambient, labels=True)
        for _, w in verdict.witness_failures
    )


def test_lifts_follows_the_parity_rule_on_every_bundled_query(catalog, monkeypatch):
    # every query that classify and holonomy_lift put to lifts, at every
    # rank from 1 to one past the dimension
    queries = []

    def recording(q):
        queries.append(q)
        return lifts(q)

    monkeypatch.setattr(spaces, "lifts", recording)
    for space in catalog.spaces.values():
        for r in range(1, space.n + 2):
            spaces.classify(catalog, space, r)
    for group, m in catalog.holonomies:
        for r in range(1, m + 2):
            spaces.holonomy_lift(catalog, group, m, r)
    assert {lifts(q).lifts for q in queries} == {True, False}
    assert {(q.n == 2, q.r == 2) for q in queries} == {
        (False, False), (False, True), (True, False), (True, True)}
    assert [q for q in queries if not _agrees_with_the_parity_rule(q)] == []


@st.composite
def _pi1_maps(draw, domain, k):
    """A well-defined map from domain to pi1(SO(k)), drawn image by image."""
    values = [
        0 if k == 1 or (d and (k == 2 or d % 2)) else draw(st.integers(-5, 5))
        for d in domain.orders
    ]
    return so_pi1_map(domain, k, values)


@st.composite
def _lift_queries(draw):
    orders = draw(st.lists(st.sampled_from([0, 2, 3, 4, 6]), max_size=3))
    domain = FgAbGroup(orders=orders)
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return LiftQuery(n, r, draw(_pi1_maps(domain, n)), draw(_pi1_maps(domain, r)))


@settings(max_examples=400)
@given(_lift_queries())
def test_lifts_follows_the_parity_rule_on_drawn_queries(q):
    assert _agrees_with_the_parity_rule(q)


# --- pushing a twist into a larger rank -------------------------------------

def test_monotonicity_of_passing_queries():
    dom = FgAbGroup(1, (), ("c",))
    base_queries = [
        LiftQuery(9, 2, hom_to_so(dom, 9, [1]), hom_to_so(dom, 2, [3])),
        LiftQuery(5, 3, hom_to_so(dom, 5, [1]), hom_to_so(dom, 3, [1])),
        LiftQuery(4, 1, hom_to_so(dom, 4, [0]), zero_hom(dom, so_pi1(1))),
    ]
    for q in base_queries:
        assert lifts(q).lifts
        for s in range(q.r + 1, 10):
            pushed = LiftQuery(q.n, s, q.sigma_pi1, pushed_twist(q.phi_pi1, s))
            assert lifts(pushed).lifts, (q.n, q.r, s)
