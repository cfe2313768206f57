import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinr.abelian as abelian
from spinr.abelian import (
    AbElem,
    AbHom,
    DomainMismatchError,
    FgAbGroup,
    Subgroup,
    contains,
    cyclic_images,
    direct_product,
    mod2,
    smith_diagonalize,
)

from oracles import (
    agreement_instances,
    brute_force_contains,
    elements,
    enumerate_torsion_subgroup,
    subgroup_eq,
    subgroup_index,
    subgroup_leq,
)

Z = FgAbGroup((0,), ("t",))
Z2 = FgAbGroup((2,), ("a",))
Z3 = FgAbGroup((3,), ("b",))
ZZ = FgAbGroup((0, 0), ("x", "y"))
Z2Z2 = FgAbGroup((2, 2), ("p", "q"))


def zero_hom(domain: FgAbGroup, codomain: FgAbGroup) -> AbHom:
    return AbHom(domain, codomain, tuple(codomain.zero() for _ in range(domain.rank)))


def test_doctests():
    failures, _ = doctest.testmod(abelian)
    assert failures == 0


# --- group construction -----------------------------------------------------

def test_torsion_orders_validated():
    with pytest.raises(ValueError):
        FgAbGroup((1,))


def test_label_count_checked():
    with pytest.raises(ValueError):
        FgAbGroup((0, 2), ("only-one",))


def test_trivial_group():
    t = FgAbGroup()
    assert t.rank == 0
    assert t.zero().coords == ()


def test_group_equality_by_orders_and_labels_in_order():
    # equal presentations, not isomorphism
    a = FgAbGroup((0, 2, 4))
    assert a == FgAbGroup((0, 2, 4), ("g0", "g1", "g2"))
    assert a != FgAbGroup((0, 4, 2))  # isomorphic, torsion reordered
    assert a != FgAbGroup((0, 8))
    assert FgAbGroup((6,)) != FgAbGroup((2, 3))  # isomorphic, two generators
    assert FgAbGroup((2,), ("alpha",)) != FgAbGroup((2,))  # another label
    assert a != a.orders and a != "Z x Z2 x Z4"
    # element arithmetic needs only the orders, in order
    assert FgAbGroup((2,), ("alpha",)).same_presentation(FgAbGroup((2,)))
    assert not a.same_presentation(FgAbGroup((0, 4, 2)))
    groups = [a, FgAbGroup((0, 4, 2)), FgAbGroup((2,)), FgAbGroup((2,), ("alpha",)),
              FgAbGroup((0,)), FgAbGroup(), FgAbGroup((2, 0)), FgAbGroup((0, 2))]
    twins = [FgAbGroup(g.orders, g.labels) for g in groups]
    for g, twin in zip(groups, twins):
        assert g == twin and hash(g) == hash(twin) and g is not twin
    assert len(set(groups + twins)) == len(groups)


def test_element_reduction():
    g = FgAbGroup((0, 2, 5))
    assert g.elem([7, 9, -1]).coords == (7, 1, 4)


# --- direct_product ----------------------------------------------------------

def test_product_z_z2():
    p = direct_product(Z, Z2)
    assert p.orders == (0, 2)


def test_product_z2_z2():
    p = direct_product(Z2, Z2)
    assert p.orders == (2, 2)


def test_product_with_trivial():
    p = direct_product(FgAbGroup(), Z)
    assert p.orders == (0,)


def test_product_labels_prefixed():
    p = direct_product(Z, Z2, ("n", "r"))
    assert p.labels == ("n.t", "r.a")


def test_product_associative_up_to_relabelling():
    a, b, c = Z, Z2, FgAbGroup((0, 3))
    left = direct_product(direct_product(a, b), c)
    right = direct_product(a, direct_product(b, c))
    assert sorted(left.orders) == sorted(right.orders)


# --- homomorphisms -----------------------------------------------------------

def test_hom_well_definedness_enforced():
    # Z2 -> Z must be zero: 1 would violate 2*image = 0
    with pytest.raises(ValueError):
        AbHom(Z2, Z, (Z.elem([1]),))
    AbHom(Z2, Z, (Z.elem([0]),))  # fine


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as err:
        return (err.__class__, str(err))


_orders = st.lists(st.sampled_from((0, 2, 3, 4, 6)), max_size=3)


@settings(max_examples=400)
@given(domain=_orders, codomain=st.lists(st.sampled_from((0, 2, 3, 4, 6)), max_size=1),
       data=st.data())
def test_hom_from_coords_agrees_with_the_checked_construction(domain, codomain, data):
    # from_coords takes one integer per generator into a group with at most
    # one generator, whose element [v] * rank it is; every such input
    domain, codomain = FgAbGroup(domain), FgAbGroup(codomain)
    # mostly one image per generator; else any count
    n = data.draw(st.one_of(st.just(domain.rank), st.integers(0, 4)))
    values = data.draw(st.lists(st.integers(-13, 13), min_size=n, max_size=n))
    fast = _outcome(AbHom.from_coords, domain, codomain, values)
    checked = _outcome(lambda: AbHom(
        domain, codomain, tuple(codomain.elem([v] * codomain.rank) for v in values)
    ))
    assert fast == checked
    if fast.__class__ is AbHom:
        assert fast.domain is domain and fast.codomain is codomain
        assert all(img.group is codomain for img in fast.images)
    # cyclic_images makes the same check and gives the same coordinates
    coords = _outcome(cyclic_images, domain, codomain, values)
    assert coords == (fast if fast.__class__ is tuple else
                      [img.coords for img in fast.images])


_small_orders = st.lists(st.sampled_from((0, 2, 3, 4, 6)), max_size=4)


@settings(max_examples=400)
@given(orders=_small_orders, data=st.data())
def test_unchecked_builders_agree_with_the_checked_constructors(orders, data):
    # FgAbGroup.elem and mod2 build their records with tuple.__new__,
    # skipping the checks that AbElem(...) and AbHom(...) make
    g = FgAbGroup(orders)
    coords = data.draw(st.lists(st.integers(-50, 50), min_size=g.rank,
                                max_size=g.rank))
    x = g.elem(coords)
    assert x == AbElem(g, g.reduce(coords))
    assert type(x) is AbElem and x.group is g
    assert all(0 <= c < d for c, d in zip(x.coords, orders) if d)
    # mod2 against the same map built through AbHom: each generator of
    # order 0 or of even order onto its own Z2 factor, the rest onto 0
    kept = [i for i, d in enumerate(orders) if d % 2 == 0]
    target = FgAbGroup((2,) * len(kept), [f"{g.labels[i]}_mod2" for i in kept])
    images = tuple(
        AbElem(target, tuple(int(i == j) for j in kept)) for i in range(g.rank)
    )
    f = mod2(g)
    assert f == AbHom(g, target, images)
    assert f.domain is g and f.codomain == target
    assert all(type(img) is AbElem and img.group is f.codomain for img in f.images)
    # a wrong number of coordinates is refused by reduce's strict zip
    wrong = data.draw(st.lists(st.integers(-50, 50), max_size=5).filter(
        lambda c: len(c) != g.rank))
    side = "shorter" if len(wrong) < g.rank else "longer"
    message = rf"^zip\(\) argument 2 is {side} than argument 1$"
    with pytest.raises(ValueError, match=message):
        g.elem(wrong)


# --- the image subgroup of a map --------------------------------------------

def test_image_single_generator():
    f = AbHom(Z, ZZ, (ZZ.elem([1, 1]),))
    s = Subgroup(f.codomain, f.images)
    assert s.generators == (ZZ.elem([1, 1]),)


def test_image_of_zero_map_is_trivial():
    f = zero_hom(Z, ZZ)
    s = Subgroup(f.codomain, f.images)
    assert all(g.is_zero() for g in s.generators)
    assert not contains(s, ZZ.elem([0, 1]))


def test_image_diagonal_of_order_two():
    f = AbHom(Z2, Z2Z2, (Z2Z2.elem([1, 1]),))
    s = Subgroup(f.codomain, f.images)
    assert contains(s, Z2Z2.elem([1, 1]))
    assert not contains(s, Z2Z2.elem([1, 0]))
    assert subgroup_index(s) == 2


# --- contains ----------------------------------------------------------------

def test_contains_frozen_examples():
    # Expected values below were computed with the brute-force box
    # search in oracles.py (coefficients in [-8, 8]^2).
    s = Subgroup(ZZ, (ZZ.elem([1, 1]), ZZ.elem([1, -1])))
    assert contains(s, ZZ.elem([3, 5])) is True
    assert contains(s, ZZ.elem([1, 0])) is False
    assert brute_force_contains(s, ZZ.elem([3, 5])) is True
    assert brute_force_contains(s, ZZ.elem([1, 0])) is False


def test_identity_always_contained():
    s = Subgroup(Z2Z2, (Z2Z2.elem([1, 1]),))
    assert contains(s, Z2Z2.elem([0, 0]))


def test_contains_rejects_foreign_element():
    s = Subgroup(ZZ, (ZZ.elem([1, 1]),))
    with pytest.raises(DomainMismatchError):
        contains(s, Z.elem([1]))


def test_contains_torsion_congruence():
    g = FgAbGroup((0, 4))
    s = Subgroup(g, (g.elem([2, 1]),))
    # 3*(2,1) = (6,3)
    assert contains(s, g.elem([6, 3]))
    assert not contains(s, g.elem([6, 2]))


# --- smith reduction ---------------------------------------------------------

def test_smith_diagonal_form():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D = smith_diagonalize(A)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert D[i][j] == 0


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    )
)
@settings(max_examples=150, deadline=None)
def test_smith_left_transform_unimodular(rows):
    U, D = smith_diagonalize([list(r) for r in rows])
    m = len(rows)
    # D = U A V: check U is unimodular via integer determinant +-1
    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        return sum(
            (-1) ** j * mat[0][j] * det([r[:j] + r[j + 1 :] for r in mat[1:]])
            for j in range(n)
        )

    assert det(U) in (1, -1)
    for i in range(m):
        for j in range(len(rows[0])):
            if i != j:
                assert D[i][j] == 0


# --- oracle agreement --------------------------------------------------------

small_torsion_group = st.builds(
    lambda orders: FgAbGroup(tuple(orders)),
    st.lists(st.integers(2, 8), min_size=1, max_size=2),
)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_contains_matches_exhaustive_enumeration_on_torsion_groups(data):
    g = data.draw(small_torsion_group)
    gens = tuple(
        g.elem([data.draw(st.integers(0, 7)) for _ in range(g.rank)])
        for _ in range(data.draw(st.integers(0, 3)))
    )
    s = Subgroup(g, gens)
    members = enumerate_torsion_subgroup(s)
    for x in elements(g):
        assert contains(s, x) == (x.coords in members)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_contains_finds_constructed_members_in_free_groups(data):
    free = data.draw(st.integers(1, 2))
    torsion = tuple(data.draw(st.lists(st.integers(2, 8), max_size=1)))
    g = FgAbGroup((0,) * free + torsion)
    gens = tuple(
        g.elem([data.draw(st.integers(-3, 3)) for _ in range(g.rank)])
        for _ in range(data.draw(st.integers(1, 3)))
    )
    s = Subgroup(g, gens)
    coeffs = [data.draw(st.integers(-8, 8)) for _ in gens]
    x = g.zero()
    for c, gen in zip(coeffs, gens):
        x = x + gen.scale(c)
    assert contains(s, x)
    assert brute_force_contains(s, x)


def test_randomized_agreement_with_brute_force():
    rng = random.Random(20240811)
    verdicts = set()
    for s, x in agreement_instances(rng, 150):
        got = contains(s, x)
        assert got == brute_force_contains(s, x), (s, x)
        verdicts.add(got)
    assert verdicts == {True, False}


# --- subgroup relations -------------------------------------------------------

@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_image_of_composition_inside_image(data):
    g = FgAbGroup((2, 4))
    mid = FgAbGroup((0, 2))
    target = FgAbGroup((4, 2))
    inner = AbHom(
        g,
        mid,
        (
            mid.elem([0, data.draw(st.integers(0, 1))]),
            mid.elem([0, data.draw(st.integers(0, 1))]),
        ),
    )
    outer = AbHom(
        mid,
        target,
        (
            target.elem([data.draw(st.integers(0, 3)), data.draw(st.integers(0, 1))]),
            target.elem([data.draw(st.integers(0, 2)) * 2, 0]),
        ),
    )
    composite = AbHom(g, target, tuple(outer.apply(img) for img in inner.images))
    inside = Subgroup(composite.codomain, composite.images)
    outside = Subgroup(outer.codomain, outer.images)
    assert subgroup_leq(inside, outside)


def test_subgroup_index():
    s = Subgroup(ZZ, (ZZ.elem([1, 1]), ZZ.elem([1, -1])))
    assert subgroup_index(s) == 2
    assert subgroup_index(Subgroup(ZZ, (ZZ.elem([1, 0]),))) is None
    assert subgroup_index(Subgroup(Z2Z2, ())) == 4


def test_subgroup_eq_different_generating_sets():
    a = Subgroup(ZZ, (ZZ.elem([1, 1]), ZZ.elem([1, -1])))
    b = Subgroup(ZZ, (ZZ.elem([1, 1]), ZZ.elem([0, 2])))
    assert subgroup_eq(a, b)
    assert not subgroup_eq(a, Subgroup(ZZ, (ZZ.elem([1, 1]),)))


# --- mod2 ---------------------------------------------------------------------

def test_mod2_on_z():
    f = mod2(Z)
    assert f.codomain.orders == (2,)
    assert f.apply(Z.elem([5])).coords == (1,)
    times3 = AbHom(Z, Z, (Z.elem([3]),))
    assert f.apply(times3.apply(Z.elem([1]))).coords == (1,)


def test_mod2_on_odd_torsion_is_trivial():
    f = mod2(Z3)
    assert f.codomain.rank == 0


def test_mod2_on_z2_is_identity():
    f = mod2(Z2)
    assert f.codomain.orders == (2,)
    assert f.images[0].coords == (1,)


def test_mod2_mixed():
    g = FgAbGroup((0, 3, 4), ("f", "t3", "t4"))
    f = mod2(g)
    assert f.codomain.orders == (2, 2)
    assert f.apply(g.elem([1, 2, 1])).coords == (1, 1)
    assert f.apply(g.elem([2, 1, 2])).coords == (0, 0)
