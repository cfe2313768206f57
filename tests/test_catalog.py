"""The loader as a whole: where its errors point, what it does with
arbitrary edits of a valid catalog, and the bundled catalog that the
library builds, written in the file format and loaded back."""

import gc
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from clirunner import run
from fixtures import BUNDLED_TEXT, dumps
from hypothesis import given, settings
from hypothesis import strategies as st

from spinr.catalog import (
    Catalog,
    CatalogReadError,
    load,
    load_default,
    loads,
)
from spinr import bundled, liecat, repcat, spaces
from spinr import catalog as catalog_module
from spinr.abelian import FgAbGroup
from spinr.catalogfile import CatalogParseError, SpinrError, parse

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
from gencat import load_catalog, scale_catalog  # noqa: E402  (the benchmark's generators)

BASE = """catalog_version: 1
group {
  name: "SO(2)"
  pi1 {
    free_rank: 1
    torsion: []
    generators: ["alpha"]
  }
  algebra {
    center_rank: 1
  }
  connected: true
  provenance: "p"
}
group {
  name: "SO(3)"
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
      provenance: "p"
    }
  }
  connected: true
  provenance: "p"
}
group {
  name: "T"
  pi1 {
    free_rank: 1
    torsion: [3]
    generators: ["a", "b"]
  }
  algebra {
    center_rank: 2
  }
  provenance: "p"
}
repfamily {
  name: "so2-circle-powers"
  domain: "SO(2)"
  target_r: 2
  param {
    name: "s"
    constraint: "s in Z"
  }
  pi1_images: ["s"]
  distinct_classes: "d"
  certificate: "c"
}
repfamily {
  name: "so3-identity"
  domain: "SO(3)"
  target_r: 3
  labels: ["identity"]
  pi1_images: ["1"]
  extends_to: "O(3)"
  distinct_classes: "d"
  certificate: "c"
}
space {
  name: "S2:SO(3)"
  G: "SO(3)"
  H: "SO(2)"
  n: 2
  sigma_pi1_images: [1]
  provenance: "p"
}
holonomy {
  group: "SO(2)"
  m: 2
  h_pi1_images: [1]
  provenance: "p"
}
"""


def test_base_catalog_loads():
    cat = loads(BASE)
    assert sorted(cat.groups) == ["SO(2)", "SO(3)", "T"]
    assert len(cat.families) == 2


@settings(max_examples=60)
@given(
    enabled=st.booleans(),
    text=st.one_of(
        st.sampled_from([
            BASE,
            BASE.replace("n: 2", "n: 0"),  # refused while building records
            BASE.replace("}", "", 1),  # refused by the parser
            "catalog_version: true\n",
        ]),
        st.text(alphabet='catalog_version:1 {}"\n', max_size=30),
    ),
)
def test_loads_leaves_the_cyclic_collector_as_it_found_it(enabled, text):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            loads(text)
        except CatalogParseError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_a_load_leaves_no_cyclic_garbage():
    # so pausing the cyclic collector during loads defers no work
    was = gc.isenabled()
    gc.disable()
    try:
        for text in (BASE, BUNDLED_TEXT, load_catalog(36, 1).text):
            gc.collect()
            loads(text)
            assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_families_at_matches_a_scan_of_every_family(catalog):
    so3_family = BASE[BASE.index('repfamily {\n  name: "so3-identity"') : BASE.index("space {")]
    two_at_so3 = loads(BASE + so3_family.replace("so3-identity", "so3-again"))
    assert len(two_at_so3.families_at("SO(3)", 3)) == 2
    for cat in (catalog, two_at_so3):
        pairs = {(f.domain, f.target_r) for f in cat.families}
        for domain, r in pairs | {("SO(5)", 99), ("nowhere", 2)}:
            assert cat.families_at(domain, r) == tuple(
                f for f in cat.families if f.domain == domain and f.target_r == r
            )
            assert cat.listed_ranks(domain) == tuple(
                sorted({f.target_r for f in cat.families if f.domain == domain})
            )


# --- error locations -------------------------------------------------------------

def _line_of(snippet: str, after: str = "") -> int:
    return BASE[: BASE.index(snippet, BASE.index(after))].count("\n") + 1


@pytest.mark.parametrize(
    "old, new, after, reported_at, message",
    [
        # build_group: at the key
        ("free_rank: 1", 'free_rank: "x"', "", "free_rank: 1",
         "'free_rank' must be an integer, got 'x'"),
        # build_family, build_space, build_holonomy: at the record
        ('pi1_images: ["s"]', 'pi1_images: ["s/0"]', "", "repfamily {",
         "zero denominator"),
        # only ASCII digits are digits: anything else is a word, not a number
        ("n: 2", "n: ٢", "space {", "n: 2", "'n' must be an integer, got '٢'"),
        ("min_orth_rep: 3", "min_orth_rep: -３", "", "min_orth_rep: 3",
         "'min_orth_rep' must be an integer, got '-３'"),
        ('pi1_images: ["s"]', 'pi1_images: ["٣*s"]', "", "repfamily {",
         "cannot parse affine term '٣*s'"),
        ('constraint: "s in Z"', 'constraint: "s = ١ mod ٤"', "", "param {",
         "cannot parse congruence constraint 's = ١ mod ٤'"),
        ("n: 2", "n: 0", "space {", "space {", "dimension must be >= 1"),
        ("m: 2", "m: 0", "holonomy {", "holonomy {", "dimension must be >= 1"),
        # an odd image into the trivial pi1(SO(1)), one message for each record
        ("n: 2", "n: 1", "space {", "space {",
         "nonzero image in the trivial pi1(SO(1))"),
        ("m: 2", "m: 1", "holonomy {", "holonomy {",
         "nonzero image in the trivial pi1(SO(1))"),
        ("target_r: 2", "target_r: 1", "", "repfamily {",
         "nonzero image in the trivial pi1(SO(1))"),
        # the family check against its domain group
        ('pi1_images: ["1"]', 'pi1_images: ["1", "1"]', "so2-circle-powers",
         "repfamily {", "2 images for 1"),
        # one label per generator, checked before free_rank sizes anything
        ('generators: ["alpha"]', "generators: []", "", "pi1 {",
         "0 labels for 1 generators"),
        ('generators: ["a", "b"]', 'generators: ["a"]', 'name: "T"', "pi1 {",
         "1 labels for 2 generators"),
        # a torsion entry of the wrong type: at the key, as for one below 2
        ("torsion: [2]", "torsion: [2, true]", "", "torsion: [2]",
         "torsion entries must be integers: True"),
        # extends_to is an optional string
        ('extends_to: "O(3)"', "extends_to: 7", "", 'extends_to: "O(3)"',
         "'extends_to' must be a string, got 7"),
        ('extends_to: "O(3)"', "extends_to: [a, b]", "", 'extends_to: "O(3)"',
         "'extends_to' must be a string, got ['a', 'b']"),
        ('extends_to: "O(3)"', "extends_to {\n  }", "", 'extends_to: "O(3)"',
         "'extends_to' must carry a value"),
        # a plain value where a block is required
        ('pi1 {\n    free_rank: 1\n    torsion: []\n    generators: ["alpha"]\n  }',
         "pi1: 5", "", "pi1 {", "'pi1' must be a block"),
        ("algebra {\n    center_rank: 1\n  }", "algebra: 0", "", "algebra {",
         "'algebra' must be a block"),
        ('ideal {\n      kind: "so(3)"\n      dim: 3\n      min_orth_rep: 3\n'
         '      provenance: "p"\n    }', 'ideal: "so(3)"', "", "ideal {",
         "'ideal' must be a block"),
        ('param {\n    name: "s"\n    constraint: "s in Z"\n  }', "param: s", "",
         "param {", "'param' must be a block"),
        # a block where a list is required
        ("torsion: []", "torsion {\n    }", "", "torsion: []",
         "'torsion' must carry a value"),
        ('labels: ["identity"]', "labels {\n  }", "", 'labels: ["identity"]',
         "'labels' must carry a value"),
        ("sigma_pi1_images: [1]", "sigma_pi1_images {\n  }", "",
         "sigma_pi1_images: [1]", "'sigma_pi1_images' must carry a value"),
        # a group that no group record names: at the record that names it
        ('domain: "SO(3)"', 'domain: "SO(9)"', "so2-circle-powers", "repfamily {",
         "family so3-identity: unknown domain SO(9)"),
        ('H: "SO(2)"', 'H: "SO(9)"', "space {", "space {",
         "space S2:SO(3): unknown stabiliser SO(9)"),
        ('G: "SO(3)"', 'G: "SO(9)"', "space {", "space {",
         "space S2:SO(3): unknown group SO(9)"),
        ('group: "SO(2)"', 'group: "SO(9)"', "holonomy {", "holonomy {",
         "holonomy record: unknown group SO(9)"),
    ],
)
def test_loader_errors_name_the_file_and_line(
    tmp_path, old, new, after, reported_at, message
):
    at = BASE.index(old, BASE.index(after))
    path = tmp_path / "c.txt"
    path.write_text(BASE[:at] + new + BASE[at + len(old):], encoding="utf-8")
    line = _line_of(reported_at, after)
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    assert str(err.value).startswith(f"{path}:{line}: ")
    assert message in str(err.value)
    assert (err.value.path, err.value.line) == (str(path), line)


@pytest.mark.parametrize("image", ["s+", "s+-1", "s++1", "1-", "+-s", "s-+"])
def test_a_stray_sign_in_a_family_image_is_refused_at_the_family(tmp_path, image):
    path = tmp_path / "c.txt"
    path.write_text(
        BASE.replace('pi1_images: ["s"]', f'pi1_images: ["{image}"]'), encoding="utf-8"
    )
    line = _line_of("repfamily {")
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    assert (err.value.path, err.value.line) == (str(path), line)
    message = err.value.message
    assert message.startswith("cannot parse affine term ")
    assert message.endswith(f" in {image!r}")
    res = run("--catalog", str(path), "table1")
    assert (res.exit_code, res.exception) == (4, None)
    assert res.stderr.startswith(f"catalog error: {path}:{line}: {message}")


_AFTER_VERSION = BASE.split("\n", 1)[1]


@pytest.mark.parametrize(
    "head, line, message",
    [
        ("# header\ncatalog_version: true\n", 2,
         "'catalog_version' must be an integer, got True"),
        ('# header\ncatalog_version: "1"\n', 2,
         "'catalog_version' must be an integer, got '1'"),
        ("catalog_version: 1\ncatalog_version: 2\n", 2,
         "duplicate key 'catalog_version'"),
        ("\ncatalog_version {\n}\n", 2, "'catalog_version' must carry a value"),
        ("# no version\n", 1, "missing or non-integer catalog_version"),
        ("catalog_version: ١\n", 1, "'catalog_version' must be an integer, got '١'"),
    ],
    ids=["bool", "string", "repeated", "block", "missing", "arabic-indic-digit"],
)
def test_catalog_version_is_read_like_every_integer_key(tmp_path, head, line, message):
    path = tmp_path / "c.txt"
    path.write_text(head + _AFTER_VERSION, encoding="utf-8")
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    assert str(err.value) == f"{path}:{line}: {message}"


@pytest.mark.parametrize(
    "block, after, typo",
    [
        ("group", 'name: "SO(2)"', "conected: false"),
        ("pi1", "pi1 {", "torsions: [2]"),
        ("algebra", "algebra {", "centre_rank: 0"),
        ("ideal", "ideal {", "min_orth_rep_dim: 3"),
        ("repfamily", "repfamily {", 'extend_to: "O(2)"'),
        ("param", "param {", 'constraints: "s even"'),
        ("space", "space {", "dimension: 2"),
        ("holonomy", "holonomy {", 'provenence: "p"'),
    ],
)
def test_an_unknown_key_is_refused_at_its_line_in_every_block(
    tmp_path, block, after, typo
):
    at = BASE.index("\n", BASE.index(after)) + 1  # the start of the next line
    path = tmp_path / "c.txt"
    path.write_text(BASE[:at] + f"  {typo}\n" + BASE[at:], encoding="utf-8")
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    key, line = typo.split(":")[0], BASE[:at].count("\n") + 1
    assert str(err.value) == f"{path}:{line}: unknown key '{key}' in '{block}' block"


# every key a record builder reads with a typed accessor, by block: the
# builders' key tables less the nested blocks and the ideal's provenance,
# which no builder reads
_TYPED_KEYS = sorted(
    (block, key)
    for block, keys in {
        "group": liecat._GROUP_KEYS,
        "pi1": liecat._PI1_KEYS,
        "algebra": liecat._ALGEBRA_KEYS,
        "ideal": liecat._IDEAL_KEYS - {"provenance"},
        "repfamily": repcat._FAMILY_KEYS,
        "param": repcat._PARAM_KEYS,
        "space": spaces._SPACE_KEYS,
        "holonomy": spaces._HOLONOMY_KEYS,
    }.items()
    for key in keys - {"pi1", "algebra", "ideal", "param"}
)


def _first_values() -> dict[tuple[str, str], tuple[int, object]]:
    """(block, key) -> (line, value) of its first occurrence in the
    bundled catalog, which must hold every typed key."""
    first = {}

    def walk(block, entries):
        for key, line, value, children in entries:
            if children is None:
                first.setdefault((block, key), (line, value))
            else:
                walk(key, children)

    walk(None, parse(BUNDLED_TEXT))
    return first


@pytest.mark.parametrize(
    "old, new, reported_at",
    [("catalog_version: 1", "catalog_version: {}", "catalog_version: 1"),
     ("target_r: 3", "target_r: -{}", "target_r: 3"),
     ("torsion: [2]", "torsion: [{}]", "torsion: [2]"),
     # digits inside a quoted value: at the block, as every error of the value
     ('constraint: "s ∈ Z"', 'constraint: "s = 0 mod {}"', "param {"),
     ('pi1_images: ["s"]', 'pi1_images: ["{}*s"]', "repfamily {")],
    ids=["catalog_version", "key-value", "list-item", "quoted-constraint",
         "quoted-pi1_images"],
)
def test_an_integer_longer_than_pythons_limit_is_refused_at_its_line(
    tmp_path, old, new, reported_at
):
    # int() refused it with a ValueError, which escaped as a traceback, or
    # inside quotes reached the user with Python's advice to raise the limit
    digits = sys.get_int_max_str_digits() + 1
    path = tmp_path / "c.txt"
    path.write_text(BUNDLED_TEXT.replace(old, new.format("1" * digits), 1), "utf-8")
    res = run("--catalog", str(path), "table1")
    assert (res.exit_code, res.stdout, res.exception) == (4, "", None)
    at = BUNDLED_TEXT.index(old)
    at = BUNDLED_TEXT.rindex(reported_at, 0, at + len(old))
    line = BUNDLED_TEXT[:at].count("\n") + 1
    assert res.stderr == (
        f"catalog error: {path}:{line}: integer of {digits} digits is longer than "
        f"the {digits - 1} digits Python converts\n"
    )


@pytest.mark.parametrize("block, key", _TYPED_KEYS, ids=lambda v: v)
def test_a_mistyped_value_is_reported_at_its_key_and_nowhere_else(
    tmp_path, block, key
):
    line, value = _first_values()[block, key]
    wrong = "x" if value.__class__ is int else "5"
    lines = BUNDLED_TEXT.split("\n")
    old = lines[line - 1]
    lines[line - 1] = f"{old[: len(old) - len(old.lstrip())]}{key}: {wrong}"
    path = tmp_path / "c.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    prefix = f"{path}:{line}: "
    assert str(err.value).startswith(prefix)
    assert f"'{key}' must be" in err.value.message
    assert re.search(r":\d+:", str(err.value)[len(prefix):]) is None


@pytest.mark.parametrize(
    "data, line",
    [
        (b"catalog_version: 1\n\xff\n", 2),
        (b"\xc3(", 1),  # a lead byte without its continuation
        (BASE.encode() + "# café\n".encode("latin-1"), BASE.count("\n") + 1),
        # every line break of str.splitlines counts, as in the parser
        (b"catalog_version: 1\r\r\xff\r", 3),
        (b"catalog_version: 1\r\n\r\n\xff\r\n", 3),
        (b"catalog_version: 1\n\x0c\xff\n", 3),
        ("# \u2028\n".encode() + b"\xff", 3),
    ],
    ids=["second-line", "truncated-sequence", "latin-1-comment", "cr", "crlf",
         "form-feed", "line-separator"],
)
def test_a_file_that_is_not_utf8_names_the_line_of_the_first_bad_byte(
    tmp_path, monkeypatch, data, line
):
    path = tmp_path / "c.txt"
    path.write_bytes(data)
    for loader in (load, load_default):
        with pytest.raises(CatalogParseError) as err:
            loader(str(path))
        assert (err.value.path, err.value.line) == (str(path), line)
        assert err.value.message.startswith("not UTF-8 text: byte 0x")
    monkeypatch.setenv("SPINR_CATALOG", str(path))
    with pytest.raises(CatalogParseError):
        load_default()


def test_a_file_that_cannot_be_read_is_a_spinr_error_and_an_oserror(tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(CatalogReadError) as err:
        load(str(missing))
    assert isinstance(err.value, SpinrError)
    assert isinstance(err.value, OSError)
    assert str(err.value) == f"[Errno 2] No such file or directory: '{missing}'"
    with pytest.raises(CatalogReadError, match=r"^\[Errno 21\] Is a directory: "):
        load_default(str(tmp_path))


def test_a_file_longer_than_the_size_bound_is_a_read_error_naming_it(tmp_path, monkeypatch):
    # the bound stands at 20 bytes here; the CLI meets the real 64 MiB one
    # in tests/test_mutations.py
    monkeypatch.setattr(catalog_module, "MAX_FILE_BYTES", 20)
    path = tmp_path / "c.txt"
    path.write_bytes(b"catalog_version: 1\n\n")
    assert load(str(path)).version == 1
    path.write_bytes(b"catalog_version: 1\n\n\n")
    with pytest.raises(CatalogReadError) as err:
        load(str(path))
    assert str(err.value) == f"{path}: more than 20 bytes"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('name: "T"', 'name: "A.B"', "group name 'A.B' cannot be looked up: "
         "lookups read it as 'A·B'"),
        ('name: "T"', 'name: " T"', "group name ' T' cannot be looked up: "
         "lookups read it as 'T'"),
        ('name: "S2:SO(3)"', 'name: "S2:SO(3)\u2003"', "space name "
         "'S2:SO(3)\\u2003' cannot be looked up: lookups read it as 'S2:SO(3)'"),
        ('name: "S2:SO(3)"', 'name: "S2.SO(3)"', "space name 'S2.SO(3)' cannot "
         "be looked up: lookups read it as 'S2·SO(3)'"),
    ],
)
def test_a_name_that_no_lookup_can_reach_is_refused_at_its_record(
    tmp_path, old, new, message
):
    # every lookup reads a name through normalize_name ('.' as '·', no
    # surrounding spaces); stored verbatim, such a record loaded but no
    # query could reach it
    path = tmp_path / "c.txt"
    path.write_text(BASE.replace(old, new), encoding="utf-8")
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    line = _line_of(old) - 1  # the record's line, above its name
    assert (err.value.path, err.value.line, err.value.message) == (
        str(path), line, message
    )


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('domain: "SO(3)"', 'domain: "SO(9)"',
         "family so3-identity: unknown domain SO(9)"),
        ('pi1_images: ["1"]', 'pi1_images: ["1", "1"]',
         "family so3-identity: 2 images for 1 generators of SO(3)"),
    ],
)
def test_a_second_family_under_a_used_name_is_refused_by_its_own_check_first(
    old, new, message
):
    # build_family checks a family against its domain before the loader
    # looks for a duplicate name, so that family's own error wins
    family = BASE[BASE.index('repfamily {\n  name: "so3-identity"') : BASE.index("space {")]
    with pytest.raises(CatalogParseError) as err:
        loads(BASE + family.replace(old, new))
    assert (err.value.line, err.value.message) == (BASE.count("\n") + 1, message)
    with pytest.raises(CatalogParseError, match="duplicate family 'so3-identity'"):
        loads(BASE + family)


def test_cross_validation_error_names_the_file(tmp_path):
    # so(3) has no nonzero map into the abelian so(2), so a listed family
    # at (SO(3), 2) contradicts the rule engine
    text = BASE.replace("target_r: 3", "target_r: 2").replace(
        'pi1_images: ["1"]', 'pi1_images: ["0"]'
    )
    path = tmp_path / "c.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CatalogParseError) as err:
        load(str(path))
    line = _line_of('repfamily {\n  name: "so3-identity"')
    assert line > 1
    assert str(err.value).startswith(f"{path}:{line}: family so3-identity")


def test_cross_validation_refuses_any_family_of_the_zero_algebra():
    # only the zero map leaves the zero algebra, at every rank
    zero = BASE.replace('name: "T"', 'name: "Z"').replace(
        "center_rank: 2", "center_rank: 0"
    )
    family = (
        'repfamily {\n  name: "z-ghost"\n  domain: "Z"\n  target_r: 9\n'
        '  labels: ["a"]\n  pi1_images: ["0", "0"]\n  distinct_classes: "d"\n'
        '  certificate: "c"\n}\n'
    )
    assert len(loads(zero).groups["Z"].algebra.ideals) == 0
    with pytest.raises(CatalogParseError, match="family z-ghost .* contradicts"):
        loads(zero + family)


MANY_IDEALS = """catalog_version: 1
group {
  name: "Big"
  pi1 {
    free_rank: 0
    torsion: [2]
    generators: ["g"]
  }
  algebra {
    center_rank: 0
%s  }
  provenance: "p"
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
  provenance: "p"
}
repfamily {
  name: "big-rank3"
  domain: "Big"
  target_r: 3
  labels: ["a"]
  pi1_images: ["1"]
  distinct_classes: "d"
  certificate: "c"
}
space {
  name: "X5:Ambient"
  G: "Ambient"
  H: "Big"
  n: 5
  sigma_pi1_images: [1]
  provenance: "p"
}
space {
  name: "Y5:Ambient"
  G: "Ambient"
  H: "Big"
  n: 5
  sigma_pi1_images: [0]
  provenance: "p"
}
""" % (
    '    ideal {\n      kind: "so(3)"\n      dim: 3\n      min_orth_rep: 3\n'
    '      provenance: "p"\n    }\n' * 30
)


def test_thirty_ideal_blocks_load_and_get_a_spin_type(tmp_path):
    # the rule engine's kernel scan has 2^30 candidates here; loading and
    # the spin-type scan, for an odd and an even isotropy class, must not
    # run it.  A child process keeps a regression from hanging the suite.
    path = tmp_path / "big.txt"
    path.write_text(MANY_IDEALS, encoding="utf-8")
    code = (
        "import sys, time\n"
        "from spinr.catalog import load\n"
        "from spinr.spaces import invariant_spin_type\n"
        "start = time.perf_counter()\n"
        "cat = load(sys.argv[1])\n"
        "odd, even = (invariant_spin_type(cat, cat.space(f'{x}5:Ambient')) for x in 'XY')\n"
        "print(len(cat.groups['Big'].algebra.ideals), odd.status, odd.lo, "
        "even.status, even.lo, time.perf_counter() - start)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    ).stdout.split()
    assert out[:5] == ["30", "exact", "3", "exact", "1"]
    assert float(out[5]) < 1.0


def test_thirty_ideal_blocks_classify_at_an_unlisted_rank(tmp_path):
    # no family is listed at r = 4 >= r0 = 3, so classify certifies by the
    # rule engine, whose trace lists 2^30 sets of ideals in full; above
    # repcat.TRACE_ALL_IDEAL_SETS_UP_TO it lists only the single ones
    path = tmp_path / "big.txt"
    path.write_text(MANY_IDEALS, encoding="utf-8")
    code = (
        "import sys, time\n"
        "import spinr.cli\n"
        "from spinr.catalog import load\n"
        "from spinr.spaces import classify\n"
        "start = time.perf_counter()\n"
        "cat = load(sys.argv[1])\n"
        "c = classify(cat, cat.space('X5:Ambient'), 4)\n"
        "print(c.complete, c.count, str(c.certificate).count('; '))\n"
        "spinr.cli.main(['--catalog', sys.argv[1], 'classify', 'X5:Ambient',\n"
        "                '--r', '4'])\n"
        "print(time.perf_counter() - start)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    ).stdout.splitlines()
    # the header, 30 single ideals and the closure line: 32 lines
    assert out[0] == "False 0 31"
    assert "- complete: False" in out
    closure = "the other 1073741793 sets of two or more ideals are not listed"
    assert any(closure in line for line in out)
    assert float(out[-1]) < 1.0


# --- arbitrary edits of a valid catalog --------------------------------------------

_VALUES = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(
        ["x", '"x"', '""', "true", "false", '"false"', "[]", "[0]", "[1]", "[1, 2]",
         "[-2]", '["a"]', '["a", "b"]', '"SO(x)"', '"SO(0)"', '"so(4)"', '"s/0"',
         '"s/2"', '"0*s"', '"s"', '"T"', '"SO(2)"', '"SO(3)"', '"s = 1 mod 0"',
         '"s odd"', '["s/0"]', '["s", "1"]', "100000", "[true]", "[0, 0]"]
    ),
)


@st.composite
def edited_catalogs(draw):
    lines = BASE.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["value", "value", "value", "delete", "copy"]))
        if action == "value" and ":" in lines[i]:
            lines[i] = f"{lines[i].split(':')[0]}: {draw(_VALUES)}"
        elif action == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[draw(st.integers(0, len(lines) - 1))])
    return "\n".join(lines)


@settings(max_examples=200)
@given(edited_catalogs())
def test_loads_returns_a_catalog_or_raises_catalog_parse_error(text):
    try:
        cat = loads(text, "fuzz.txt")
    except CatalogParseError as err:
        assert str(err).startswith("fuzz.txt:")
    else:
        assert isinstance(cat, Catalog)


# --- the records themselves ------------------------------------------------------

# sha256 of repr(loads(text)) of the bundled catalog, taken from the
# loader before its one-pass rewrite, when the bundled catalog was a
# package data file.  The three digests were re-taken when AffineInt
# moved from (coeff, offset) Fractions to integers (num, off, den): the
# old reprs with each AffineInt rewritten to the new form hash to them,
# and again when SimpleIdeal lost its is_abelian field, which no record
# ever set: the old reprs with every ", is_abelian=False" removed hash to
# the present three.  The bundled digest was re-taken once more when
# su(4)'s min_orth_rep_dim became so(6)'s 6 (A3 = D3): the old repr with
# its two su(4) ideals so rewritten hashes to it.
BUNDLED_DIGEST = "16867a94be5fe8099e606c8e9b2f530ad6b689f9e64bb717aaa4523e07430f6e"


@pytest.mark.parametrize(
    "make",
    [bundled.build_catalog, lambda: loads(load_catalog(36, 1).text),
     lambda: loads(scale_catalog(200, 1).text)],
    ids=["bundled", "load-36", "scale-200"],
)
def test_the_writer_and_the_loader_round_trip_every_record(make):
    # every record, field by field and in order; loads names its catalog
    # "<catalog>", so compare under that path.  The loader's checks run on
    # the written text: for the bundled catalog, which build_catalog does
    # not check, this is where they run
    c = make()
    c = Catalog(c.version, c.groups, c.families, c.spaces, c.holonomies, "<catalog>")
    assert repr(loads(dumps(c))) == repr(c)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("provenance", 'say "x"', """cannot hold the string 'say "x"'"""),
        ("provenance", "one\ntwo", r"cannot hold the string 'one\ntwo'"),
        ("provenance", "one\u2028two", r"cannot hold the string 'one\u2028two'"),
        ("pi1", FgAbGroup((2, 0), ("t", "z")),
         "group SO(4): free generators must be listed first"),
    ],
    ids=["quote", "newline", "line-separator", "free-after-torsion"],
)
def test_the_writer_refuses_what_the_format_cannot_hold(field, value, message):
    c = bundled.build_catalog()
    so4 = c.groups["SO(4)"]
    altered = liecat.CompactGroupRec(**{**dict(zip(so4._fields, so4)), field: value})
    groups = {**c.groups, "SO(4)": altered}
    c = Catalog(c.version, groups, c.families, c.spaces, c.holonomies)
    with pytest.raises(ValueError) as err:
        dumps(c)
    assert str(err.value).endswith(message)


def test_load_default_builds_the_bundled_catalog_once(monkeypatch):
    monkeypatch.delenv("SPINR_CATALOG", raising=False)
    monkeypatch.setattr("spinr.catalog._default", None)
    first = load_default()
    assert (first.path, first.version) == ("<bundled>", 1)
    assert [len(first.groups), len(first.families), len(first.spaces),
            len(first.holonomies)] == [40, 28, 27, 24]
    assert repr(first) == repr(bundled.build_catalog())
    assert load_default() is first


def test_the_loader_reads_each_builder_off_its_module_at_every_call(monkeypatch):
    # perfbench/tracer.py times the record builders by replacing these
    # attributes of spinr.catalog; a builder bound anywhere else, such as
    # a dispatch table built at import, would read 0 in its metrics
    calls = {}

    def counting(name, builder):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return builder(*args)
        return wrapper

    for name in ("build_group", "build_family", "build_space", "build_holonomy"):
        builder = getattr(catalog_module, name)
        monkeypatch.setattr(catalog_module, name, counting(name, builder))
    loads(BUNDLED_TEXT)
    assert calls == {
        "build_group": 40, "build_family": 28, "build_space": 27, "build_holonomy": 24
    }


# the same text must still build the same records, field by field
@pytest.mark.parametrize(
    "make_text, digest",
    [
        (lambda: BUNDLED_TEXT, BUNDLED_DIGEST),
        (lambda: load_catalog(36, 1).text,
         "4bdabe44270b158e04ce1bfe77c614e46b013a8a925e683c80e3e2f61ea1179a"),
        (lambda: scale_catalog(200, 1).text,
         "8fc7d54fb28fa75f0ec64ee1287b082e0f420a8564b1596c7ded848a50cf0ac7"),
    ],
    ids=["bundled", "load-36", "scale-200"],
)
def test_golden_records(make_text, digest):
    assert hashlib.sha256(repr(loads(make_text())).encode()).hexdigest() == digest
