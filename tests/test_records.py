"""Record semantics of every record type: read-only, equal and hashed by
value, printed as ``Type(field=value, ...)``, and checked at
construction with the messages the loader and callers rely on."""

import collections
import copy
import pickle
from fractions import Fraction

import pytest

from spinr.abelian import (
    AbElem,
    AbHom,
    DomainMismatchError,
    FgAbGroup,
    Subgroup,
    cyclic,
)
from spinr.catalog import Catalog, loads
from spinr.liecat import AlgebraProfile, CompactGroupRec, SimpleIdeal, so_group, so_pi1
from spinr.lifting import LiftQuery, LiftVerdict
from spinr.repcat import (
    AffineInt,
    Congruence,
    EnumResult,
    OrthRepFamily,
    RuleTrace,
)
from spinr.spaces import (
    Classification,
    ClassRecord,
    HolonomyRec,
    HolonomyVerdict,
    HomSpaceRec,
    RejectedFamily,
    SpinTypeResult,
)
from test_catalog import BASE

Z2 = cyclic(2)
Z = cyclic(0)


def _sigma():
    return AbHom(so_pi1(3), so_pi1(3), (so_pi1(3).elem([1]),))


def _family():
    return OrthRepFamily(
        "f", "SO(3)", 3, (AffineInt(1, 0),), labels=("id",)
    )


def _class():
    return ClassRecord("f", constraint=Congruence(2, 1))


def _rejected():
    return RejectedFamily("trivial", (("alpha", (1, 0)),))


# (type, its fields in order, a factory that builds a fresh instance)
RECORDS = [
    (AbElem, ("group", "coords"), lambda: Z2.elem([1])),
    (AbHom, ("domain", "codomain", "images"), _sigma),
    (Subgroup, ("ambient", "generators"), lambda: Subgroup(Z2, (Z2.elem([1]),))),
    (SimpleIdeal, ("kind", "dim", "min_orth_rep_dim"),
     lambda: SimpleIdeal("so(3)", 3, 3)),
    (AlgebraProfile, ("center_rank", "ideals"),
     lambda: AlgebraProfile(1, (SimpleIdeal("so(3)", 3, 3),))),
    (CompactGroupRec, ("name", "pi1", "algebra", "connected", "provenance"),
     lambda: so_group(4)),
    (Congruence, ("modulus", "residue"), lambda: Congruence(4, 6)),
    (AffineInt, ("num", "off", "den"), lambda: AffineInt(1, 6, 2)),
    (OrthRepFamily,
     ("name", "domain", "target_r", "pi1_images", "labels", "param_constraint",
      "distinct_classes", "extends_to", "certificate"),
     _family),
    (RuleTrace, ("lines",), lambda: RuleTrace(("a", "b"))),
    (EnumResult, ("domain", "r", "families", "complete", "certificate"),
     lambda: EnumResult("SO(3)", 3, (_family(),), True, "c")),
    (LiftQuery, ("n", "r", "sigma_pi1", "phi_pi1"),
     lambda: LiftQuery(3, 3, _sigma(), _sigma())),
    (LiftVerdict, ("lifts", "witness_failures"),
     lambda: LiftVerdict(False, (("alpha", Z2.elem([1])),))),
    (HomSpaceRec, ("name", "G", "H", "n", "sigma_pi1", "provenance"),
     lambda: HomSpaceRec("S3:SO(4)", "SO(4)", "SO(3)", 3, _sigma(), "p")),
    (HolonomyRec, ("group", "m", "h_pi1", "provenance"),
     lambda: HolonomyRec("SO(3)", 3, _sigma(), "p")),
    (ClassRecord, ("family", "label", "constraint", "extends_to"), _class),
    (RejectedFamily, ("family", "witnesses"), _rejected),
    (Classification,
     ("space", "r", "classes", "count", "complete", "certificate", "rejected"),
     lambda: Classification("X", 2, (_class(),), None, True, "c", (_rejected(),))),
    (SpinTypeResult, ("space", "status", "lo", "hi", "witnesses"),
     lambda: SpinTypeResult("X", "bounded", 2, 3, (_class(),))),
    (HolonomyVerdict,
     ("group", "m", "r", "verdict", "via", "complete", "certificate", "rejected"),
     lambda: HolonomyVerdict("SO(3)", 3, 3, "yes", (_class(),), True, "c", ())),
    (Catalog, ("version", "groups", "families", "spaces", "holonomies", "path"),
     lambda: loads(BASE, "base.txt")),
]

UNHASHABLE = {Catalog}  # it holds dicts


@pytest.fixture(params=RECORDS, ids=[t.__name__ for t, _, _ in RECORDS])
def record(request):
    return request.param


def test_fields_keep_their_names_and_order(record):
    cls, fields, make = record
    obj = make()
    assert type(obj) is cls
    for name in fields:
        getattr(obj, name)
    if hasattr(cls, "_fields"):
        assert cls._fields == fields


def test_setting_an_attribute_raises(record):
    cls, fields, make = record
    obj = make()
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    with pytest.raises(AttributeError):
        setattr(obj, fields[0], getattr(obj, fields[-1]))
    assert repr(obj) == repr(make())


def test_equal_fields_give_equal_objects_and_hashes(record):
    cls, _, make = record
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def test_repr_is_type_then_fields(record):
    cls, fields, make = record
    obj = make()
    body = ", ".join(f"{name}={getattr(obj, name)!r}" for name in fields)
    assert repr(obj) == f"{cls.__name__}({body})"


# Catalog is a slotted class; every other record is an abelian.Record
TUPLE_RECORDS = [r for r in RECORDS if r[0] is not Catalog]


@pytest.mark.parametrize("cls, fields, make", TUPLE_RECORDS,
                         ids=[t.__name__ for t, _, _ in TUPLE_RECORDS])
def test_a_record_behaves_as_the_named_tuple_of_its_fields(cls, fields, make):
    # collections.namedtuple, which the records were declared with before
    # abelian.Record, is the reference
    obj = make()
    reference = collections.namedtuple(cls.__name__, cls._fields)(*obj)
    assert repr(obj) == repr(reference)
    assert obj == reference
    assert hash(obj) == hash(reference)
    assert tuple(obj) == tuple(reference)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("cls, fields, make", TUPLE_RECORDS,
                         ids=[t.__name__ for t, _, _ in TUPLE_RECORDS])
def test_copy_and_pickle_give_an_equal_record(cls, fields, make, clone):
    obj = make()
    twin = clone(obj)
    assert type(twin) is cls
    assert twin == obj
    assert repr(twin) == repr(obj)


# The cases of the three tables below carry explicit ids, so that deleting
# one renames no other; each keeps the id it was first collected under.
@pytest.mark.parametrize(
    "make, defaults",
    [
        pytest.param(lambda: AlgebraProfile(0), {"ideals": ()},
                     id="<lambda>-defaults0"),
        pytest.param(lambda: AlgebraProfile(2), {"ideals": ()},
                     id="<lambda>-defaults1"),
        pytest.param(lambda: ClassRecord("f"),
                     {"label": None, "constraint": None, "extends_to": None},
                     id="<lambda>-defaults2"),
        pytest.param(lambda: OrthRepFamily("f", "D", 2, (),
                                           param_constraint=Congruence(1, 0)),
                     {"labels": None, "distinct_classes": "", "extends_to": None,
                      "certificate": "incomplete"},
                     id="<lambda>-defaults3"),
        pytest.param(lambda: Classification("X", 1, (), 0, True, "c"), {"rejected": ()},
                     id="<lambda>-defaults4"),
        pytest.param(lambda: loads(BASE), {"path": "<catalog>"}, id="<lambda>-defaults5"),
        pytest.param(lambda: AffineInt(1, 0), {"den": 1}, id="<lambda>-defaults6"),
    ],
)
def test_defaults(make, defaults):
    obj = make()
    assert {name: getattr(obj, name) for name in defaults} == defaults
    if isinstance(obj, tuple):
        # a record: keywords that leave the defaults out build the same one
        # as every field given by position
        given = {n: v for n, v in zip(obj._fields, obj) if n not in defaults}
        assert type(obj)(**given) == type(obj)(*obj) == obj


@pytest.mark.parametrize(
    "value, expected",
    [
        pytest.param(lambda: SpinTypeResult("X", "exact", 3, 3, ()).value, 3,
                     id="<lambda>-3"),
        pytest.param(lambda: SpinTypeResult("X", "bounded", 2, 3, (_class(),)).value,
                     None, id="<lambda>-None"),
        pytest.param(lambda: OrthRepFamily("f", "D", 2, (), ("a",),
                                           certificate=" Incomplete").incomplete,
                     True, id="<lambda>-True"),
        pytest.param(lambda: OrthRepFamily("f", "D", 2, (), ("a",),
                                           certificate="[1]").incomplete,
                     False, id="<lambda>-False"),
        pytest.param(lambda: str(RuleTrace(("a", "b"))), "a; b", id="<lambda>-a; b"),
        pytest.param(lambda: str(RuleTrace(())), "", id="<lambda>-"),
        pytest.param(lambda: AlgebraProfile(1, (SimpleIdeal("so(3)", 3, 3),)).dim, 4,
                     id="<lambda>-4"),
        pytest.param(lambda: str(AffineInt(3, -2, 2)), "3*s/2-1", id="<lambda>-3*s/2-1"),
        pytest.param(lambda: AffineInt(1, 0, 2).eval(4), 2, id="<lambda>-2"),
        pytest.param(lambda: AffineInt(1, 6, 2).coeff, Fraction(1, 2),
                     id="<lambda>-expected9"),
        pytest.param(lambda: AffineInt(1, 6, 2).offset, Fraction(3),
                     id="<lambda>-expected10"),
        pytest.param(lambda: tuple(AffineInt(4, -6, 8)), (2, -3, 4),
                     id="<lambda>-expected11"),
    ],
)
def test_derived_values(value, expected):
    assert value() == expected


def test_congruence_stores_its_residue_reduced():
    assert Congruence(4, 6).residue == 2
    assert Congruence(4, -1).residue == 3
    assert Congruence(4, 6) == Congruence(4, 2)
    assert str(Congruence(4, 6)) == "s ≡ 2 mod 4"


_Z2xZ2 = FgAbGroup(0, (2, 2), ("a", "b"))
_Z2_other = FgAbGroup(0, (2,), ("beta",))


def _check(build, error, message, suffix=""):
    return pytest.param(build, error, message,
                        id=f"<lambda>-{error.__name__}-{message}{suffix}")


@pytest.mark.parametrize(
    "build, error, message",
    [
        _check(lambda: AbElem(Z2, (0, 1)), ValueError, "2 coordinates in a rank-1 group"),
        _check(lambda: AbElem(Z2, (3,)), ValueError, "coordinates (3,) not reduced"),
        _check(lambda: AbElem(Z2, [1]), ValueError, "coordinates [1] not reduced"),
        _check(lambda: AbHom(Z2, Z, ()), ValueError, "0 images for 1 generators"),
        _check(lambda: AbHom(Z2, Z, (Z2.elem([1]),)), DomainMismatchError,
               "image outside the codomain"),
        _check(lambda: AbHom(Z2, Z, (Z.elem([1]),)), ValueError,
               "generator g has order 2 but 2 * (1,) != 0 in the codomain"),
        _check(lambda: Subgroup(Z, (Z2.elem([1]),)), ValueError,
               "subgroup generator outside the ambient group"),
        _check(lambda: SimpleIdeal("x", 2, 3), ValueError, "simple ideal x with dim 2 < 3"),
        _check(lambda: SimpleIdeal("x", 3, 1), ValueError,
               "simple ideal x: min_orth_rep_dim 1 < 2"),
        _check(lambda: Congruence(0, 1), ValueError, "modulus must be >= 1"),
        _check(lambda: OrthRepFamily("f", "D", 2, ()), ValueError,
               "family f: exactly one of labels/param required", "0"),
        _check(lambda: OrthRepFamily("f", "D", 2, (), ("a",), Congruence(2, 0)),
               ValueError, "family f: exactly one of labels/param required", "1"),
        _check(lambda: LiftQuery(3, 3, _sigma(), AbHom(_Z2_other, Z2, (Z2.elem([1]),))),
               DomainMismatchError,
               "isotropy and twist maps must share their domain generators"),
        _check(lambda: LiftQuery(2, 3, _sigma(), _sigma()), DomainMismatchError,
               "isotropy map must land in pi1(SO(2))"),
        _check(lambda: LiftQuery(3, 1, _sigma(), _sigma()), DomainMismatchError,
               "twist map must land in pi1(SO(1))"),
        _check(lambda: LiftVerdict(True, (("a", _Z2xZ2.elem([1, 0])),)), ValueError,
               "a verdict lifts exactly when it has no witness failures", "0"),
        _check(lambda: LiftVerdict(False, ()), ValueError,
               "a verdict lifts exactly when it has no witness failures", "1"),
        _check(lambda: AffineInt(1, 0, 0), ValueError, "affine denominator 0 < 1"),
        _check(lambda: AffineInt(1, 0, -2), ValueError, "affine denominator -2 < 1"),
    ],
)
def test_construction_checks_keep_their_messages(build, error, message):
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_keyword_construction_runs_the_checks():
    assert SimpleIdeal(kind="so(3)", dim=3, min_orth_rep_dim=3) == SimpleIdeal(
        "so(3)", 3, 3
    )
    with pytest.raises(ValueError, match="not reduced"):
        AbElem(group=Z2, coords=(2,))
    with pytest.raises(ValueError, match="exactly one of"):
        OrthRepFamily(name="f", domain="D", target_r=2, pi1_images=())
