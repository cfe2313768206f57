import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinr.abelian import AbElem, AbHom, FgAbGroup
from spinr.catalog import load, loads
from spinr.catalogfile import CatalogParseError
from spinr.liecat import (
    G2_IDEAL, NotInCatalogError, SimpleIdeal, ideals, simple_ideal, so_group, so_pi1,
    so_pi1_map,
)
from clirunner import run
from fixtures import BUNDLED_TEXT
from oracles import ideal_from_roots

MINIMAL = """
catalog_version: 1

group {
  name: "SO(4)"
  pi1 {
    free_rank: 0
    torsion: [2]
    generators: ["alpha"]
  }
  algebra {
    center_rank: 0
    ideal {
      kind: "so(3)"
      dim: 3
      min_orth_rep: 3
      provenance: "adjoint"
    }
    ideal {
      kind: "so(3)"
      dim: 3
      min_orth_rep: 3
      provenance: "adjoint"
    }
  }
  connected: true
  provenance: "standard"
}
"""


def test_so_pi1_formula():
    assert so_pi1(1).rank == 0
    assert so_pi1(2) == FgAbGroup((0,), ("alpha",))
    for k in range(3, 12):
        assert so_pi1(k) == FgAbGroup((2,), ("alpha",))
    with pytest.raises(ValueError):
        so_pi1(0)


def _checked_so_pi1_map(domain, r, values):
    """so_pi1_map through the checked constructors: AbElem reduces and
    checks each image, AbHom checks the length and well-definedness."""
    cod = so_pi1(r)
    if not cod.rank:
        if any(values):
            raise ValueError(f"nonzero image in the trivial pi1(SO({r}))")
        return AbHom(domain, cod, (cod.elem(()),) * len(values))
    return AbHom(domain, cod, tuple(cod.elem((v,)) for v in values))


def _outcome(build, *args):
    try:
        return build(*args)
    except ValueError as err:
        return ("ValueError", str(err))


@settings(max_examples=400)
@given(
    orders=st.lists(st.sampled_from((0, 2, 3, 4)), max_size=4),
    r=st.integers(1, 6),
    values=st.lists(st.integers(-9, 9), max_size=5),
    data=st.data(),
)
def test_so_pi1_map_agrees_with_the_checked_construction(orders, r, values, data):
    # half the time one value per generator, else the drawn, often wrong, length
    if data.draw(st.booleans()):
        values = data.draw(st.lists(st.integers(-9, 9), min_size=len(orders),
                                    max_size=len(orders)))
    domain = FgAbGroup(orders)
    fast = _outcome(so_pi1_map, domain, r, values)
    checked = _outcome(_checked_so_pi1_map, domain, r, values)
    assert fast == checked
    if fast.__class__ is AbHom:
        assert fast.domain is domain and fast.codomain is so_pi1(r)
        for img in fast.images:
            assert img.__class__ is AbElem and img.group is fast.codomain


def test_so_group_algebra_profiles():
    assert so_group(1).algebra.dim == 0
    assert so_group(2).algebra.center_rank == 1
    g4 = so_group(4)
    assert [i.kind for i in g4.algebra.ideals] == ["so(3)", "so(3)"]
    for k in range(1, 13):
        assert so_group(k).algebra.dim == k * (k - 1) // 2
        assert so_group(k).connected
        assert so_group(k).provenance


def test_so_ideal_min_orth_constraint():
    assert so_group(3).algebra.ideals[0].min_orth_rep_dim == 3
    for k in range(5, 13):
        assert so_group(k).algebra.ideals[0].min_orth_rep_dim == k


def test_simple_ideal_invariants():
    with pytest.raises(ValueError):
        SimpleIdeal("tiny", 2, 3)
    with pytest.raises(ValueError):
        SimpleIdeal("weird", 3, 1)


# every simple ideal a catalog names, up to ranks past the bundled ones
TABLE = [
    *(simple_ideal("so", k) for k in (3, *range(5, 17))),
    *(simple_ideal("su", k) for k in range(2, 11)),
    *(simple_ideal("sp", k) for k in range(1, 9)),
    G2_IDEAL,
]


@pytest.mark.parametrize("ideal", TABLE, ids=[i.kind for i in TABLE])
def test_the_ideal_table_matches_the_root_data(ideal):
    assert (ideal.dim, ideal.min_orth_rep_dim) == ideal_from_roots(ideal.kind)


@pytest.mark.parametrize("kinds", [("su(2)", "so(3)", "sp(1)"), ("so(5)", "sp(2)"),
                                   ("su(4)", "so(6)")])
def test_isomorphic_root_systems_give_one_profile(kinds):
    # A1 = B1 = C1, B2 = C2 and A3 = D3 from different simple roots: the
    # oracle's answer does not hang on how a type is written down
    assert len({ideal_from_roots(kind) for kind in kinds}) == 1


def test_ideals_of_the_abelian_and_split_algebras():
    so3 = simple_ideal("so", 3)
    assert [ideals("so", k) for k in range(5)] == [(), (), (), (so3,), (so3, so3)]
    assert ideals("su", 1) == ideals("sp", 0) == ()
    assert ideals("su", 5) == (simple_ideal("su", 5),)
    for series, k in (("so", 2), ("so", 4), ("su", 1), ("sp", 0)):
        with pytest.raises(ValueError, match=rf"^{series}\({k}\) is not simple$"):
            simple_ideal(series, k)


def test_minimal_catalog_loads():
    cat = loads(MINIMAL)
    rec = cat.lookup("SO(4)")
    assert rec.pi1 == FgAbGroup((2,), ("alpha",))
    assert rec.algebra.dim == 6


def test_lookup_unknown_group_lists_available():
    cat = loads(MINIMAL)
    with pytest.raises(NotInCatalogError) as err:
        cat.lookup("E8")
    assert "SO(4)" in str(err.value)
    with pytest.raises(NotInCatalogError) as err:
        loads("catalog_version: 1\n").lookup("E8")
    assert str(err.value) == "group 'E8' not in catalog; available: (none)"


def test_loader_rejects_wrong_so_pi1():
    bad = MINIMAL.replace("torsion: [2]", "torsion: [4]")
    with pytest.raises(CatalogParseError) as err:
        loads(bad)
    assert "pi1" in str(err.value)


def test_loader_rejects_wrong_so_ideal_data():
    bad = MINIMAL.replace("min_orth_rep: 3", "min_orth_rep: 2", 1)
    with pytest.raises(CatalogParseError):
        loads(bad)


def test_loader_rejects_missing_provenance():
    bad = MINIMAL.replace('provenance: "standard"', 'provenance: ""')
    with pytest.raises(CatalogParseError):
        loads(bad)


def test_loader_rejects_duplicate_group():
    bad = MINIMAL + MINIMAL.split("catalog_version: 1", 1)[1]
    with pytest.raises(CatalogParseError) as err:
        loads(bad)
    assert "duplicate" in str(err.value)


def test_loader_rejects_missing_version():
    with pytest.raises(CatalogParseError):
        loads("group {\n  name: \"X\"\n}\n".replace("group", "holonomy"))


def test_loader_rejects_unknown_record_type():
    with pytest.raises(CatalogParseError) as err:
        loads("catalog_version: 1\nwidget {\n  a: 1\n}\n")
    assert "widget" in str(err.value)


def _line_of(text: str, snippet: str) -> int:
    return text[: text.index(snippet)].count("\n") + 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("torsion: [2]", "torsion: [0]", "torsion entries must be >= 2, got 0"),
        ("torsion: [2]", "torsion: [2, -3]", "torsion entries must be >= 2, got -3"),
        ("free_rank: 0", "free_rank: -1", "free_rank must be >= 0, got -1"),
        ("center_rank: 0", "center_rank: -2", "center_rank must be >= 0, got -2"),
        ("connected: true", 'connected: "false"', "'connected' must be true or false"),
        ("connected: true", "connected: 0", "'connected' must be true or false"),
    ],
)
def test_group_record_field_checks(old, new, message):
    # renamed so that the SO(k) formula check does not fire first
    bad = MINIMAL.replace('"SO(4)"', '"X"').replace(old, new)
    with pytest.raises(CatalogParseError) as err:
        loads(bad)
    assert message in str(err.value)
    assert err.value.line == _line_of(bad, new)


def test_connected_flag_read_strictly():
    assert not loads(MINIMAL.replace("connected: true", "connected: false")).lookup(
        "SO(4)"
    ).connected
    assert loads(MINIMAL.replace("  connected: true\n", "")).lookup("SO(4)").connected


def test_quoted_false_in_bundled_catalog_is_rejected():
    from spinr.spaces import HypothesisError, classify

    text = BUNDLED_TEXT
    at = text.index("connected: true", text.index('name: "SO(4)"'))

    def with_flag(flag):
        return text[:at] + f"connected: {flag}" + text[at + len("connected: true"):]

    # a bare false loads, and classify refuses the disconnected stabiliser
    cat = loads(with_flag("false"))
    with pytest.raises(HypothesisError):
        classify(cat, cat.space("S4:SO(5)"), 3)
    # a quoted "false" is a string, not a flag: the record is rejected
    with pytest.raises(CatalogParseError) as err:
        loads(with_flag('"false"'))
    assert err.value.line == text[:at].count("\n") + 1


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('"SO(4)"', '"SO(x)"', "group SO(x): SO(k) needs an integer k >= 1"),
        ('"SO(4)"', '"SO(0)"', "group SO(0): SO(k) needs an integer k >= 1"),
        ('kind: "so(3)"', 'kind: "so(x)"', "ideal so(x): so(k) is simple only"),
        ('kind: "so(3)"', 'kind: "so(4)"', "ideal so(4): so(k) is simple only"),
        # int() reads each of these as 3; only str(k) itself names so(k)
        *(('kind: "so(3)"', f'kind: "{kind}"',
           f"ideal {kind}: so(k) is simple only for an integer k = 3 or k >= 5, "
           f"in canonical ASCII decimal")
          for kind in ("so(+3)", "so(٣)", "so( 3)", "so(03)", "so(0_3)")),
    ],
)
def test_malformed_so_names_raise_parse_errors(old, new, message):
    base = MINIMAL if "SO" in old else MINIMAL.replace('"SO(4)"', '"X"')
    bad = base.replace(old, new, 1)
    with pytest.raises(CatalogParseError) as err:
        loads(bad)
    assert message in str(err.value)


_GROUP_BLOCK = MINIMAL.split("\n\n", 1)[1]  # the SO(4) record, without the version


@pytest.mark.parametrize("name", ["SO(+٤)", "SO(٤)", "SO( 4)", "SO(04)", "SO(0_4)"])
def test_an_so_name_must_spell_k_in_ascii_decimal(tmp_path, name):
    # Python's int reads each of these k as 4, so the record passed the
    # SO(4) formula check and loaded as a second group beside SO(4)
    bundled = BUNDLED_TEXT
    path = tmp_path / "c.txt"
    path.write_text(bundled + _GROUP_BLOCK.replace('"SO(4)"', f'"{name}"'), "utf-8")
    line = bundled.count("\n") + 1
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    assert (err.value.path, err.value.line) == (str(path), line)
    message = f"group {name}: SO(k) needs an integer k >= 1 in canonical ASCII decimal"
    assert err.value.message == message
    res = run("--catalog", str(path), "table1")
    assert (res.exit_code, res.exception) == (4, None)
    assert res.stderr == f"catalog error: {path}:{line}: {message}\n"


# --- bundled catalog sanity ---------------------------------------------------

def test_bundled_groups_match_formulas(catalog):
    for k in range(1, 13):
        rec = catalog.lookup(f"SO({k})")
        ref = so_group(k)
        assert rec.pi1 == ref.pi1  # orders and labels
        assert rec.algebra == ref.algebra


def test_bundled_records_connected_with_provenance(catalog):
    for rec in catalog.groups.values():
        assert rec.connected
        assert rec.provenance.strip()


def test_bundled_pi1_values(catalog):
    assert catalog.lookup("SU(4)").pi1.rank == 0
    assert catalog.lookup("SO(2)").pi1.orders == (0,)
    assert catalog.lookup("U(3)").pi1.orders == (0,)
    assert catalog.lookup("Sp(2)·Sp(1)").pi1.orders == (2,)
    assert catalog.lookup("Sp(2)·U(1)").pi1.orders == (0,)
    assert catalog.lookup("G2").pi1.rank == 0
    assert catalog.lookup("Spin(7)").pi1.rank == 0


def test_name_normalisation_accepts_ascii_dot(catalog):
    assert catalog.lookup("Sp(2).Sp(1)").name == "Sp(2)·Sp(1)"


def test_algebra_dimensions(catalog):
    assert catalog.lookup("U(3)").algebra.dim == 9
    assert catalog.lookup("SU(3)").algebra.dim == 8
    assert catalog.lookup("Sp(2)").algebra.dim == 10
    assert catalog.lookup("G2").algebra.dim == 14
    assert catalog.lookup("Spin(9)").algebra.dim == 36
