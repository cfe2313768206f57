import doctest
import itertools
import math
import sys
from pathlib import Path

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
from spinr.catalog import loads
from spinr.liecat import so_pi1, so_pi1_map
from spinr.lifting import (
    LiftQuery,
    LiftVerdict,
    frame_product_pi1,
    image_parities,
    lift_subgroup,
    lifts,
    parity,
)
from oracles import (
    cl_mul,
    cl_reverse,
    elements,
    parity_lifts,
    pushed_twist,
    spin_sign,
    subgroup_eq,
    subgroup_index,
    torus_lift,
    torus_rotation,
)
from test_abelian import zero_hom

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from gencat import load_catalog, scale_catalog  # noqa: E402  (the benchmark's generators)


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
        if 0 not in amb.orders:
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


# --- the parity rule against the definition of Spin^r(n) ------------------------
#
# Spin^r(n) = (Spin(n) x Spin(r)) / <(-1, -1)> (the source paper), and
# Spin(n) -> SO(n) is read off the Clifford algebra Cl(n)
# (Lawson-Michelsohn ch. I): neither starts from the parity statement that
# lift_subgroup, image_parities and every other oracle start from.

# a torus loop of SO(n) turns each of its n // 2 planes k_i times, |k_i| <= 3
K = range(-3, 4)


def _covering_loops(p):
    """Every loop turning one plane, and three turning all p planes."""
    yield ()
    for i, ki in itertools.product(range(p), K):
        yield (0,) * i + (ki,) + (0,) * (p - i - 1)
    for k in ((3, -3, 3, -3), (1, 2, 3, -1), (-2, -1, 1, 2)):
        yield k[:p]


@pytest.mark.parametrize("n", range(1, 9))
def test_the_torus_lift_covers_the_torus_loop(n):
    # v -> g(t) v g(t)^-1 is the loop's rotation at every t: on Spin(2),
    # the unit complex numbers cos + sin e1e2, that is z -> z^2, and on
    # Spin(1) = {+-1} the constant lift of the constant loop
    for k in set(_covering_loops(n // 2)):
        for t in (0.125, 0.3, 0.5, 0.9):
            g = torus_lift(k, t)
            assert spin_sign(cl_mul(g, cl_reverse(g))) == 1
            for j in range(n):
                v = {1 << j: 1.0}
                moved, rotated = cl_mul(cl_mul(g, v), cl_reverse(g)), torus_rotation(k, t, v)
                for blade in moved.keys() | rotated.keys():
                    assert moved.get(blade, 0.0) == pytest.approx(
                        rotated.get(blade, 0.0), abs=1e-9), (n, k, t, j)


def test_the_parity_rule_is_the_lifting_rule_of_spin_r():
    # A pair of loops in SO(n) x SO(r) lifts to a loop in Spin^r(n) exactly
    # when the lifts of its two loops to Spin(n) and Spin(r), started at 1,
    # end at the same point.  The torus loop k has the class sum(k) times
    # the rotation loop.  Both verdicts depend on a loop only through its
    # (class, end point), so each pair of those stands for every pair of
    # loops that has it: each end point is computed once, per plane count
    ends = {p: {k: spin_sign(torus_lift(k, 1.0)) for k in itertools.product(K, repeat=p)}
            for p in range(5)}
    keys, parities = {}, {}
    for n in range(1, 9):
        pi1 = so_pi1(n)
        keys[n] = list({(pi1.elem([sum(k)] * pi1.rank), end)
                        for k, end in ends[n // 2].items()})
        loops = FgAbGroup((0,) * len(keys[n]))
        parities[n] = image_parities(AbHom(loops, pi1, tuple(x for x, _ in keys[n])))
    # one end point per class: Z at n = 2, Z2 from n = 3 on
    assert [len(keys[n]) for n in range(1, 9)] == [1, 7] + [2] * 6
    for n, r in itertools.product(range(1, 9), repeat=2):
        target = lift_subgroup(n, r)
        for (i, (x, ex)), (j, (y, ey)) in itertools.product(
            enumerate(keys[n]), enumerate(keys[r])
        ):
            pair = target.ambient.elem(x.coords + y.coords)
            assert contains(target, pair) == (ex == ey), (n, r, x, y)
            assert (parities[n][i] == parities[r][j]) == (ex == ey), (n, r, x, y)


# --- lifts --------------------------------------------------------------------

def hom_to_so(domain, n, images):
    cod = so_pi1(n)
    return AbHom(domain, cod, tuple(cod.elem([v]) for v in images))


def test_trivial_pi1_always_lifts():
    trivial = FgAbGroup()
    for r in (1, 2, 3, 5):
        q = LiftQuery(
            7, r, zero_hom(trivial, so_pi1(7)), zero_hom(trivial, so_pi1(r))
        )
        assert lifts(q).lifts


def test_odd_determinant_twist_lifts():
    # circle-generated fundamental group mapping onto the frame
    # generator, paired with a winding-3 twist
    dom = FgAbGroup((0,), ("c",))
    q = LiftQuery(9, 2, hom_to_so(dom, 9, [1]), hom_to_so(dom, 2, [3]))
    assert lifts(q).lifts


def test_even_determinant_twist_fails_with_witness():
    dom = FgAbGroup((0,), ("c",))
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
    a = FgAbGroup((0,), ("x",))
    b = FgAbGroup((2,), ("x",))
    with pytest.raises(DomainMismatchError):
        LiftQuery(3, 2, zero_hom(a, so_pi1(3)), zero_hom(b, so_pi1(2)))


def spin_lift_query(sigma_pi1: AbHom, n: int) -> LiftQuery:
    """The classical (untwisted) case: r = 1, trivial twist."""
    return LiftQuery(n, 1, sigma_pi1, zero_hom(sigma_pi1.domain, so_pi1(1)))


def test_spin_criterion_iff_zero_isotropy_class():
    dom = FgAbGroup((2,), ("d",))
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
        w.group == ambient for _, w in verdict.witness_failures
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
    domain = FgAbGroup(orders)
    n, r = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return LiftQuery(n, r, draw(_pi1_maps(domain, n)), draw(_pi1_maps(domain, r)))


@settings(max_examples=400)
@given(_lift_queries())
def test_lifts_follows_the_parity_rule_on_drawn_queries(q):
    assert _agrees_with_the_parity_rule(q)


# --- parities read off coordinates against the mod-2 map ------------------------

def _mod2_parities(f: AbHom) -> tuple[int, ...]:
    return tuple(parity(img) for img in f.images)


def test_image_parities_equal_the_mod2_parities_on_every_catalog_map(catalog):
    # every isotropy and holonomy map of the bundled and the generated
    # catalogs; they land in pi1(SO(k)) for k = 1 (trivial), 2 (Z), >= 3 (Z2)
    maps = []
    for cat in (catalog, loads(load_catalog(36, 1).text, "load.txt"),
                loads(scale_catalog(200, 1).text, "scale.txt")):
        maps += [space.sigma_pi1 for space in cat.spaces.values()]
        maps += [rec.h_pi1 for rec in cat.holonomies.values()]
    assert [f for f in maps if image_parities(f) != _mod2_parities(f)] == []
    assert {p for f in maps for p in image_parities(f)} == {0, 1}
    assert {f.codomain.orders for f in maps} == {(), (0,), (2,)}


@st.composite
def _abelian_homs(draw):
    """A well-defined map into a codomain mixing free, even-order and
    odd-order generators; a free domain generator's free coordinates may
    be negative."""
    # free generators drawn twice as often, so free-to-free images are common
    orders = st.lists(st.sampled_from([0, 0, 2, 3, 4, 5, 6, 9]), min_size=1, max_size=4)
    domain = FgAbGroup(draw(orders))
    codomain = FgAbGroup(draw(orders))
    images = []
    for d in domain.orders:
        # a multiple of n / gcd(d, n) keeps d * image = 0 mod n; that is 0
        # for a torsion generator (d > 0) into a free one (n = 0)
        coords = [draw(st.integers(-9, 9)) * (n // math.gcd(d, n) if n or d else 1)
                  for n in codomain.orders]
        images.append(codomain.elem(coords))
    return AbHom(domain, codomain, tuple(images))


@settings(max_examples=400)
@given(_abelian_homs())
def test_image_parities_equal_the_mod2_parities_on_drawn_maps(f):
    assert image_parities(f) == _mod2_parities(f)


# --- pushing a twist into a larger rank -------------------------------------

def test_monotonicity_of_passing_queries():
    dom = FgAbGroup((0,), ("c",))
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
