import contextlib
import gc
import importlib
import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinr.catalog
import spinr.cli
from spinr.catalog import loads
from spinr.catalogfile import SpinrError
from spinr.cli import EXIT_CLOSED_STDOUT, EXIT_CODES, _read_argv, entry, main
from spinr.spaces import HypothesisError, holonomy_lift
from clirunner import run
from fixtures import BUNDLED_TEXT
from oracles import argparse_cli
from test_spaces import BOUNDED_CATALOG


@pytest.fixture(scope="module")
def schema():
    text = (
        resources.files("spinr").joinpath("data/output.schema.json").read_text("utf-8")
    )
    return json.loads(text)


def run_json(*args, schema=None):
    res = run(*args)
    assert res.exit_code == 0, res.stdout + res.stderr
    record = json.loads(res.stdout)
    if schema is not None:
        jsonschema.validate(record, schema)
    # round trip: re-parsing the emitted JSON reproduces the record
    assert json.loads(json.dumps(record)) == record
    return record


# --- table1 ---------------------------------------------------------------------

def test_table1_passes_regression():
    res = run("table1")
    assert res.exit_code == 0
    assert "regression match: True" in res.stdout


def test_table1_markdown_deterministic():
    a, b = run("table1"), run("table1")
    assert a.stdout == b.stdout


def test_table1_rows_and_values():
    res = run("table1")
    assert "| S^n | SO(n+1) | n (n ≠ 4), 3 (n = 4) |" in res.stdout
    assert "| S^15 | Spin(9) | 1 |" in res.stdout
    assert "| S^{4n+3} | Sp(n+1)·Sp(1) | 1 (n odd), 3 (n even) |" in res.stdout


def test_table1_json(schema):
    record = run_json("table1", "--format", "json", schema=schema)
    assert record["match"] is True
    assert len(record["rows"]) == 9
    total_instances = sum(len(r["instances"]) for r in record["rows"])
    assert total_instances == 21
    for row in record["rows"]:
        for inst in row["instances"]:
            assert inst["computed"] == inst["expected"]
            assert inst["status"] == "exact"


# --- classify --------------------------------------------------------------------

def test_classify_two_sphere(schema):
    record = run_json(
        "classify", "S2:SO(3)", "--r", "2", "--format", "json", schema=schema
    )
    assert record["result"]["count"] == "infinite"
    (cl,) = record["result"]["classes"]
    assert cl["constraint"] == "s odd"


def test_classify_markdown_mentions_witnesses():
    res = run("classify", "S11:U(6)", "--r", "1")
    assert res.exit_code == 0
    assert "center_loop" in res.stdout
    assert "Rejected" in res.stdout


def test_classify_rule_engine_trace_rendered():
    res = run("classify", "S4:SO(5)", "--r", "2")
    assert res.exit_code == 0
    assert "so(3) + so(3)" in res.stdout


def test_classify_citations_present(schema):
    record = run_json(
        "classify", "S4:SO(5)", "--r", "3", "--format", "json", schema=schema
    )
    assert record["result"]["count"] == 2
    assert any("so4-factor-projections" in c for c in record["citations"])


def test_citations_name_each_family_once_in_the_order_of_the_classes(tmp_path):
    # a copy of SO(4)'s family, listed after it under a name that sorts
    # first: classes follow the file, and so do the citations
    text = BUNDLED_TEXT
    at = text.index('name: "so4-factor-projections"')
    start, end = text.rindex("repfamily {", 0, at), text.index("\n}\n", at) + 3
    copy = text[start:end].replace('"so4-factor-projections"', '"so4-a-copy"')
    path = tmp_path / "two-families.txt"
    path.write_text(text[:end] + copy + text[end:], encoding="utf-8")
    args = ("--catalog", str(path))
    for record, classes in [
        (run_json(*args, "classify", "S4:SO(5)", "--r", "3", "--format", "json"), "classes"),
        (run_json(*args, "spin-type", "S4:SO(5)", "--format", "json"), "witnesses"),
    ]:
        families = [c["family"] for c in record["result"][classes]]
        assert families == ["so4-factor-projections"] * 2 + ["so4-a-copy"] * 2
        cited = [c.partition(":")[0] for c in record["citations"]]
        assert cited == ["S4", "so4-factor-projections", "so4-a-copy"]


def test_classify_unknown_space_exit_two():
    res = run("classify", "S42:E8", "--r", "1")
    assert res.exit_code == 2
    assert "available" in res.stderr


def test_classify_ascii_dot_name(schema):
    record = run_json(
        "classify", "S11:Sp(3).Sp(1)", "--r", "3", "--format", "json", schema=schema
    )
    assert record["result"]["count"] == 1


DISCONNECTED_CATALOG = """
catalog_version: 1

group {
  name: "Twisty"
  pi1 {
    free_rank: 0
    torsion: [2]
    generators: ["d"]
  }
  algebra {
    center_rank: 0
    ideal {
      kind: "so(3)"
      dim: 3
      min_orth_rep: 3
      provenance: "adjoint"
    }
  }
  connected: false
  provenance: "test data"
}

group {
  name: "Big"
  pi1 {
    free_rank: 0
    torsion: []
    generators: []
  }
  algebra {
    center_rank: 6
  }
  connected: true
  provenance: "test data"
}

holonomy {
  group: "Twisty"
  m: 3
  h_pi1_images: [1]
  provenance: "test data"
}

space {
  name: "X3:Big"
  G: "Big"
  H: "Twisty"
  n: 3
  sigma_pi1_images: [1]
  provenance: "test data"
}
"""


def test_classify_disconnected_stabiliser_exit_three(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text(DISCONNECTED_CATALOG, encoding="utf-8")
    res = run("--catalog", str(path), "classify", "X3:Big", "--r", "1")
    assert res.exit_code == 3
    assert "connected" in res.stderr


def test_holonomy_disconnected_group_exit_three(tmp_path):
    cat = loads(DISCONNECTED_CATALOG)
    with pytest.raises(HypothesisError, match="Twisty is not connected"):
        holonomy_lift(cat, "Twisty", 3, 1)
    path = tmp_path / "cat.txt"
    path.write_text(DISCONNECTED_CATALOG, encoding="utf-8")
    res = run("--catalog", str(path), "holonomy", "Twisty", "--m", "3", "--r", "3")
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == (
        "hypothesis violation: holonomy group Twisty is not connected; the "
        "lifting criterion requires a connected holonomy group\n"
    )


# the bundled catalog plus a space with no structure at any rank up to n
INCONSISTENT_CATALOG = BUNDLED_TEXT + """
space {
  name: "X3:SO(12)"
  G: "SO(12)"
  H: "SO(12)"
  n: 3
  sigma_pi1_images: [1]
  provenance: "test data"
}
"""


def _bundled_with_so4_disconnected() -> str:
    """The bundled catalog with SO(4), the stabiliser of a table1 row,
    marked disconnected."""
    text = BUNDLED_TEXT
    at = text.index("connected: true", text.index('name: "SO(4)"'))
    return text[:at] + "connected: false" + text[at + len("connected: true"):]


def test_catalog_contradicting_the_existence_theorem_exit_four(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text(INCONSISTENT_CATALOG, encoding="utf-8")
    res = run("--catalog", str(path), "spin-type", "X3:SO(12)")
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == (
        f"catalog error: {path}: no invariant structure found for X3:SO(12) "
        f"up to r = 3 despite complete enumerations; catalog data is "
        f"inconsistent with the existence theorem\n"
    )


def test_catalog_parse_error_exit_four(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("catalog_version: 1\ngroup {\n  name oops\n}\n", encoding="utf-8")
    res = run("--catalog", str(path), "table1")
    assert res.exit_code == 4
    assert "catalog error" in res.stderr


def test_a_mistyped_family_name_exits_four_naming_its_line_alone(tmp_path):
    text = BUNDLED_TEXT
    old = 'name: "so3-identity"'
    at = text.index(old)
    path = tmp_path / "cat.txt"
    path.write_text(text[:at] + "name: 5" + text[at + len(old):], encoding="utf-8")
    res = run("--catalog", str(path), "table1")
    line = text[:at].count("\n") + 1
    assert res.exit_code == 4
    assert res.stderr == (
        f"catalog error: {path}:{line}: 'name' must be a string, got 5\n"
    )


def test_a_second_family_of_the_same_name_exits_four_at_its_line(tmp_path):
    # loaded, it would make classify cite the SO(3) family's certificate
    # for a U(2) class
    text = BUNDLED_TEXT.replace('"u2-det-powers"', '"so3-identity"')
    path = tmp_path / "dup.txt"
    path.write_text(text, encoding="utf-8")
    res = run("--catalog", str(path), "classify", "S5:U(3)", "--r", "2")
    second = text.index('name: "so3-identity"', text.index('name: "so3-identity"') + 1)
    line = text[: text.rindex("repfamily {", 0, second)].count("\n") + 1
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == (
        f"catalog error: {path}:{line}: duplicate family 'so3-identity'\n"
    )


@pytest.mark.parametrize(
    "name", ["trivial", "diagonal(isotropy)", "diagonal(holonomy)"]
)
def test_a_family_under_a_reserved_name_exits_four_at_its_line(tmp_path, name):
    # the answers give these names to the zero map and the diagonal
    # twists; loaded, a family named "trivial" was listed both as a class
    # and as a rejected family
    text = BUNDLED_TEXT.replace('"u2-det-powers"', f'"{name}"')
    path = tmp_path / "reserved.txt"
    path.write_text(text, encoding="utf-8")
    res = run("--catalog", str(path), "classify", "S5:U(3)", "--r", "2")
    at = text.index(f'name: "{name}"')
    line = text[: text.rindex("repfamily {", 0, at)].count("\n") + 1
    assert res.exit_code == 4
    assert res.stdout == ""
    assert res.stderr == (
        f"catalog error: {path}:{line}: family name '{name}' is reserved\n"
    )


def test_catalog_env_var_override(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("nonsense!\n", encoding="utf-8")
    res = run("table1", env={"SPINR_CATALOG": str(path)})
    assert res.exit_code == 4


@pytest.mark.parametrize("via", ["flag", "env"])
def test_catalog_that_is_not_utf8_exits_four_naming_file_and_line(tmp_path, via):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"catalog_version: 1\n\xff\n")
    if via == "flag":
        res = run("--catalog", str(path), "table1")
    else:
        res = run("table1", env={"SPINR_CATALOG": str(path)})
    assert res.exit_code == 4
    assert res.exception is None
    assert res.stderr == (
        f"catalog error: {path}:2: not UTF-8 text: byte 0xff (invalid start byte)\n"
    )


# --- which catalog: --catalog, else $SPINR_CATALOG, else the bundled one --------

X3 = ("spin-type", "X3:Ambient")  # a space only BOUNDED_CATALOG has


@pytest.fixture
def catalogs(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(BOUNDED_CATALOG, encoding="utf-8")
    broken = tmp_path / "broken.txt"
    broken.write_text("nonsense!\n", encoding="utf-8")
    return str(good), str(broken)


def test_catalog_flag_beats_the_environment(catalogs):
    good, broken = catalogs
    assert run("--catalog", good, *X3, env={"SPINR_CATALOG": broken}).exit_code == 0
    assert run("--catalog", broken, *X3, env={"SPINR_CATALOG": good}).exit_code == 4


def test_environment_beats_the_bundled_catalog(catalogs):
    good, _ = catalogs
    assert run(*X3, env={"SPINR_CATALOG": good}).exit_code == 0
    assert run(*X3, env={"SPINR_CATALOG": None}).exit_code == 2


@pytest.mark.parametrize("fmt", ["md", "json"])
@pytest.mark.parametrize(
    "args",
    [
        ("table1",),
        ("classify", "S7:Sp(2)·U(1)", "--r", "2"),
        ("classify", "S4:SO(5)", "--r", "4"),
        ("spin-type", "S8:SO(9)"),
        ("holonomy", "Sp(3)·Sp(1)", "--m", "12", "--r", "3"),
    ],
)
def test_the_fixture_answers_as_the_bundled_catalog_does(tmp_path, args, fmt):
    # the bundled catalog is built in code; the fixture writes it in the
    # file format, and a --catalog run of it gives the same bytes
    path = tmp_path / "bundled.txt"
    path.write_text(BUNDLED_TEXT, encoding="utf-8")
    bundled = run(*args, "--format", fmt, env={"SPINR_CATALOG": None})
    from_file = run("--catalog", str(path), *args, "--format", fmt)
    assert bundled.exit_code == 0
    assert from_file == bundled


def test_empty_environment_variable_means_the_bundled_catalog():
    bundled = run("table1", env={"SPINR_CATALOG": None})
    res = run("table1", env={"SPINR_CATALOG": ""})
    assert res.exit_code == bundled.exit_code == 0
    assert res.stdout == bundled.stdout


@pytest.mark.parametrize(
    "args, option, value",
    [
        (("classify", "S4:SO(5)", "--r", "0"), "--r", 0),
        (("classify", "S4:SO(5)", "--r", "-2", "--format", "json"), "--r", -2),
        (("holonomy", "Sp(3)·Sp(1)", "--m", "0", "--r", "2"), "--m", 0),
        (("holonomy", "Sp(3)·Sp(1)", "--m", "12", "--r", "0"), "--r", 0),
    ],
)
def test_rank_and_dimension_below_one_exit_five(args, option, value):
    res = run(*args)
    assert res.exit_code == 5
    assert res.stdout == ""
    assert res.stderr == f"invalid argument: {option} must be >= 1, got {value}\n"


LONG = "1" * (sys.get_int_max_str_digits() + 1)  # one digit more than int() reads


@pytest.mark.parametrize(
    "args, option, value",
    [
        (("classify", "S4:SO(5)", "--r", "٣"), "--r", "٣"),
        (("classify", "S4:SO(5)", "--r", "0_3"), "--r", "0_3"),
        (("classify", "S4:SO(5)", "--r", " 3"), "--r", " 3"),
        (("classify", "S4:SO(5)", "--r", "+3"), "--r", "+3"),
        (("classify", "S4:SO(5)", "--r", "-"), "--r", "-"),
        (("holonomy", "Sp(3)·Sp(1)", "--m", "١٢", "--r", "2"), "--m", "١٢"),
        (("holonomy", "Sp(3)·Sp(1)", "--m", "12", "--r", "٣"), "--r", "٣"),
        # int() refuses these with a ValueError, which argparse once
        # reported as an "invalid _ascii_int value"
        pytest.param(("classify", "S4:SO(5)", "--r", LONG), "--r", LONG, id="long-r"),
        pytest.param(("holonomy", "SO(5)", "--m", LONG, "--r", "2"), "--m", LONG,
                     id="long-m"),
    ],
)
def test_rank_and_dimension_read_ascii_digits_only(args, option, value):
    # Python's int reads every Unicode digit, '_' and surrounding spaces,
    # and refuses more digits than sys.get_int_max_str_digits(); the
    # options read integers as the catalog does
    res = run(*args)
    assert (res.exit_code, res.stdout, res.exception) == (6, "", None)
    message = f"error: argument {option}: invalid int value: {value!r}\n"
    assert res.stderr.endswith(message)


def test_a_missing_package_data_file_exits_four_naming_it(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    monkeypatch.setattr(spinr.catalog, "DATA_DIR", str(data))
    monkeypatch.setattr(spinr.catalog, "_default", None)  # not the cached build
    bundled = tmp_path / "bundled.txt"
    bundled.write_text(BUNDLED_TEXT, encoding="utf-8")
    for args in [("table1",), ("--catalog", str(bundled), "table1")]:
        res = run(*args, env={"SPINR_CATALOG": None})
        assert (res.exit_code, res.stdout, res.exception) == (4, "", None)
        path = os.path.join(str(data), "table1_expected.json")
        assert res.stderr == (
            f"catalog error: [Errno 2] No such file or directory: {path!r}\n"
        )
    # the bundled catalog is built in code, so classify reads no data file
    res = run("classify", "S4:SO(5)", "--r", "3", env={"SPINR_CATALOG": None})
    assert (res.exit_code, res.stderr, res.exception) == (0, "", None)


# --- spin-type --------------------------------------------------------------------

def test_spin_type_exact(schema):
    record = run_json("spin-type", "S4:SO(5)", "--format", "json", schema=schema)
    assert record["result"] == {
        "status": "exact",
        "value": 3,
        "lo": 3,
        "hi": 3,
        "witnesses": record["result"]["witnesses"],
    }
    assert len(record["result"]["witnesses"]) == 2


def test_spin_type_markdown():
    res = run("spin-type", "S8:SO(9)")
    assert res.exit_code == 0
    assert "= 8" in res.stdout
    assert "status: exact" in res.stdout


def test_spin_type_strict_passes_on_exact():
    res = run("spin-type", "S6:G2", "--strict")
    assert res.exit_code == 0


def test_spin_type_unknown_space():
    res = run("spin-type", "S0:Nothing")
    assert res.exit_code == 2


# --- holonomy ---------------------------------------------------------------------

def test_holonomy_yes(schema):
    record = run_json(
        "holonomy", "SO(7)", "--m", "7", "--r", "7", "--format", "json", schema=schema
    )
    assert record["result"]["verdict"] == "yes"


def test_holonomy_no(schema):
    record = run_json(
        "holonomy", "Sp(3).Sp(1)", "--m", "12", "--r", "2", "--format", "json",
        schema=schema,
    )
    assert record["result"]["verdict"] == "no"
    assert record["result"]["complete"] is True


def test_holonomy_unknown_verdict(schema):
    record = run_json(
        "holonomy", "U(2)", "--m", "4", "--r", "3", "--format", "json", schema=schema
    )
    assert record["result"]["verdict"] == "unknown"


def test_holonomy_markdown():
    res = run("holonomy", "G2", "--m", "7", "--r", "1")
    assert res.exit_code == 0
    assert "yes" in res.stdout


def test_holonomy_missing_record_exit_two():
    res = run("holonomy", "SO(5)", "--m", "99", "--r", "2")
    assert res.exit_code == 2


def test_holonomy_ascii_dot_name_finds_the_families():
    dotted = run_json("holonomy", "Sp(3).Sp(1)", "--m", "12", "--r", "3", "--format", "json")
    exact = run_json("holonomy", "Sp(3)·Sp(1)", "--m", "12", "--r", "3", "--format", "json")
    assert dotted == exact
    assert dotted["result"]["verdict"] == "yes"


# --- the exit-code contract ---------------------------------------------------------

MISSING = "a --catalog path with no file behind it"

# a group whose name every lookup reads as 'A·B', and a space over it
DOTTED_NAME_CATALOG = """catalog_version: 1
group {
  name: "A.B"
  pi1 {
    free_rank: 0
    torsion: []
    generators: []
  }
  algebra {
    center_rank: 0
  }
  provenance: "test data"
}
space {
  name: "S1:A.B"
  G: "A.B"
  H: "A.B"
  n: 1
  sigma_pi1_images: []
  provenance: "test data"
}
"""


def test_a_name_that_no_lookup_can_reach_exits_four_at_its_record(tmp_path):
    # loaded verbatim, the space was listed as available and yet not found:
    # "space 'S1:A.B' not in catalog; available: S1:A.B", exit 2
    path = tmp_path / "dotted.txt"
    path.write_text(DOTTED_NAME_CATALOG, encoding="utf-8")
    res = run("--catalog", str(path), "classify", "S1:A.B", "--r", "1")
    assert (res.exit_code, res.stdout, res.exception) == (4, "", None)
    assert res.stderr == (
        f"catalog error: {path}:2: group name 'A.B' cannot be looked up: "
        f"lookups read it as 'A·B'\n"
    )

@pytest.mark.parametrize(
    "args, missing",
    [
        (("classify", "x", "--r", "1"), "space 'x'"),
        (("spin-type", "x"), "space 'x'"),
        (("holonomy", "SO(3)", "--m", "3", "--r", "1"), "holonomy record 'SO(3) (m=3)'"),
    ],
)
def test_a_lookup_in_an_empty_catalog_says_that_nothing_is_available(tmp_path, args, missing):
    path = tmp_path / "empty.txt"
    path.write_text("catalog_version: 1\n", encoding="utf-8")
    res = run("--catalog", str(path), *args)
    assert (res.exit_code, res.stdout, res.exception) == (2, "", None)
    assert res.stderr.endswith(f"{missing} not in catalog; available: (none)\n")


# (catalog file, args, exit code).  The catalog file is None for the
# bundled catalog, else (name, text) with text MISSING for a path with no
# file behind it; the name names the file, the case and its golden
# manifest entry, so neither moves when a text changes.
FAILURE_MODES = [
    (("bounded", BOUNDED_CATALOG), ("spin-type", "X3:Ambient", "--strict"), 1),
    (None, ("classify", "S42:E8", "--r", "1"), 2),
    (None, ("holonomy", "SO(5)", "--m", "99", "--r", "2"), 2),
    (("disconnected", DISCONNECTED_CATALOG), ("classify", "X3:Big", "--r", "1"), 3),
    (("disconnected", DISCONNECTED_CATALOG), ("spin-type", "X3:Big"), 3),
    (("disconnected", DISCONNECTED_CATALOG),
     ("holonomy", "Twisty", "--m", "3", "--r", "1"), 3),
    (("no-colon", "catalog_version: 1\ngroup {\n  name oops\n}\n"), ("table1",), 4),
    (None, ("classify", "S4:SO(5)", "--r", "0"), 5),
    (None, ("holonomy", "SO(5)", "--m", "-1", "--r", "2"), 5),
    (None, ("classify", "S4:SO(5)"), 6),
    (None, ("holonomy", "SO(5)", "--m", "5"), 6),
    (None, ("classify", "S4:SO(5)", "--r", "x"), 6),
    (None, ("table1", "--format", "xml"), 6),
    (None, ("table1", "--bogus"), 6),
    (None, ("--bogus", "table1"), 6),
    (None, ("no-such-command",), 6),
    (None, (), 6),
    (("so4-disconnected", _bundled_with_so4_disconnected()), ("table1",), 3),
    (("inconsistent", INCONSISTENT_CATALOG), ("spin-type", "X3:SO(12)"), 4),
    (("missing", MISSING), ("table1",), 4),
    # checked before the catalog loads
    (("nonsense", "nonsense!\n"), ("classify", "S4:SO(5)", "--r", "0"), 5),
    (None, ("table1", "--form", "json"), 6),  # no abbreviated options
    (None, ("classify", "S4:SO(5)", "--r=3"), 0),
    (None, ("--help",), 0),
    (None, ("classify", "--help"), 0),
    # a misspelt key is refused, not ignored: Twisty would load connected
    (("misspelt-key", DISCONNECTED_CATALOG.replace("connected: false", "conected: false")),
     ("holonomy", "Twisty", "--m", "3", "--r", "1"), 4),
    (None, ("classify", "S4:SO(5)", "--r", "1", "--"), 0),
    # no lookup can reach a name that normalize_name changes
    (("dotted-name", DOTTED_NAME_CATALOG), ("classify", "S1:A.B", "--r", "1"), 4),
    (("spaced-name", DOTTED_NAME_CATALOG.replace('"A.B"', '" A"')),
     ("classify", "S1:A.B", "--r", "1"), 4),
]


def catalog_args(catalog, args: tuple, directory: Path) -> tuple:
    """args, after ``--catalog`` and the case's file written in directory."""
    if catalog is None:
        return args
    name, text = catalog
    path = directory / f"{name}.txt"
    if text is not MISSING:
        path.write_text(text, encoding="utf-8")
    return ("--catalog", str(path), *args)


@pytest.mark.parametrize(
    "catalog, args, code",
    FAILURE_MODES,
    ids=[" ".join((c[0] if c else "bundled", *a)) for c, a, _ in FAILURE_MODES],
)
def test_failure_modes_exit_with_their_documented_code(tmp_path, catalog, args, code):
    res = run(*catalog_args(catalog, args, tmp_path))
    assert res.exit_code == code
    assert res.exception is None  # no exception escaped
    assert "Traceback" not in res.stderr
    if code > 1:  # success and a bounded --strict result report on stdout only
        assert res.stderr.strip()
    else:
        assert res.stdout.strip()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_spinr_error_has_exactly_one_exit_code():
    errors = list(_subclasses(SpinrError))
    assert len(errors) == len(set(errors)) >= 6
    assert set(errors) == set(EXIT_CODES)
    for cls in errors:
        # library callers may still catch the builtin base
        assert issubclass(cls, (KeyError, OSError, RuntimeError, ValueError))
    assert {code for code, _ in EXIT_CODES.values()} == {2, 3, 4, 5}


# --- help, and the process around the commands --------------------------------------

@pytest.mark.parametrize(
    "args, names",
    [
        (("--help",), ("table1", "classify", "spin-type", "holonomy", "--catalog")),
        (("-h",), ("table1", "classify", "spin-type", "holonomy", "--catalog")),
        (("table1", "--help"), ("--format",)),
        (("classify", "--help"), ("SPACE", "--r", "--format")),
        (("spin-type", "-h"), ("SPACE", "--strict", "--format")),
        (("holonomy", "--help"), ("GROUP", "--m", "--r", "--format")),
    ],
)
def test_help_names_every_subcommand_and_option(args, names):
    res = run(*args)
    assert res.exit_code == 0
    assert res.stderr == ""
    assert res.stdout.startswith("usage: spinr")
    for name in names:
        assert name in res.stdout


ROOT = Path(__file__).resolve().parents[1]


def _spinr_process(*args, env=(), **kwargs):
    return _python("-m", "spinr.cli", *args, env=env, **kwargs)


def _python(*args, env=(), **kwargs):
    src = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src, **dict(env)},
        timeout=60,
        **kwargs,
    )


@pytest.mark.parametrize("args", [("table1", "--format", "json"), ("spin-type", "S8:SO(9)")])
def test_a_closed_stdout_exits_141_without_a_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before spinr writes
    try:
        proc = _spinr_process(*args, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_CLOSED_STDOUT == 141
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "args", [("spin-type", "S8:SO(9)"), ("spin-type", "S8:SO(9)", "--format", "json")]
)
def test_a_stdout_open_for_reading_only_exits_141_without_a_traceback(args):
    # as under 1</dev/null: the write fails with EBADF, not EPIPE
    with open(os.devnull, "rb") as read_only:
        proc = _spinr_process(*args, stdout=read_only, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (EXIT_CLOSED_STDOUT, b"")


def test_a_stdout_that_cannot_take_the_answer_is_not_taken_for_closed():
    # /dev/full refuses the write with ENOSPC: a fault to show, not exit 141
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = _spinr_process("spin-type", "S8:SO(9)", stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == 1
    assert b"No space left on device" in proc.stderr


@pytest.mark.parametrize("args", [("--help",), ("classify", "-h")])
def test_help_into_a_closed_stdout_exits_0_without_a_traceback(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _spinr_process(*args, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "args, redirect, code",
    [
        (("spin-type", "S8:SO(9)"), ">&-", EXIT_CLOSED_STDOUT),
        (("table1", "--format", "json"), ">&-", EXIT_CLOSED_STDOUT),
        (("--help",), ">&-", 0),
        (("classify", "S8:SO(7)", "--r", "1"), "2>&-", 2),
        (("classify", "S8:SO(7)", "--r", "1"), "2</dev/null", 2),  # writes fail: EBADF
        (("classify", "S4:SO(5)", "--r", "x"), "2>&-", 6),
    ],
)
def test_a_stream_closed_at_start_keeps_the_exit_code(args, redirect, code):
    # the shell starts spinr with the stream closed, so Python sets it to
    # None; an answer exits 141 as for a pipe closed later, and a message
    # that stderr cannot take is lost while its exit code is not
    script = f'exec "$0" -m spinr.cli "$@" {redirect}'
    proc = subprocess.run(
        ["sh", "-c", script, sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, timeout=60,
    )
    assert proc.returncode == code
    assert b"Traceback" not in proc.stderr
    if redirect != ">&-":
        assert proc.stdout == b""  # the message went nowhere, not to stdout
    elif code:
        assert proc.stderr == b""


def test_an_ascii_locale_still_gets_utf8_output():
    args = ("holonomy", "Sp(3)·Sp(1)", "--m", "12", "--r", "2")
    proc = _spinr_process(*args, env={"PYTHONIOENCODING": "ascii"}, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode("utf-8") == run(*args).stdout


def test_the_main_main_spelling_still_runs_a_command(capsys):
    # perfbench/cli_child.py runs its traced commands this way
    main.main(args=["holonomy", "G2", "--m", "7", "--r", "1"], prog_name="spinr")
    assert "lifts at twist rank 1: yes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, code",
    [
        pytest.param(("holonomy", "Sp(3)·Sp(1)", "--m", "12", "--r", "2"), 0, id="answer"),
        pytest.param(("classify", "S4:SO(6)", "--r", "3"), 2, id="unknown-name"),
        pytest.param(("--catalog", "{tmp}/missing.txt", "table1"), 4, id="missing-catalog"),
        pytest.param(("classify", "S4:SO(5)", "--r", "0"), 5, id="rank-zero"),
        pytest.param(("spin-type", "S8:SO(9)", "--r", "3"), 6, id="unknown-option"),
        pytest.param(("--help",), 0, id="help"),
    ],
)
def test_a_process_answers_as_main_does_in_process(tmp_path, args, code):
    # python -m spinr.cli runs cli.entry, which freezes the heap after
    # main; the bytes and the exit code are main's, and main run in
    # process freezes nothing
    args = [a.format(tmp=tmp_path) for a in args]
    proc = _spinr_process(*args, capture_output=True)
    res = run(*args)
    assert res.exception is None
    out, err = proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")
    assert (proc.returncode, out, err) == (res.exit_code, res.stdout, res.stderr)
    assert res.exit_code == code
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv",
    [pytest.param(["spin-type", "S8:SO(9)"], id="answer"),
     pytest.param(["classify", "S4:SO(5)", "--r", "0"], id="rank-zero")],
)
def test_the_module_run_as_a_program_freezes_the_heap_before_shutdown(argv):
    # runpy runs the __main__ block as python -m does; atexit runs after it
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        f"sys.argv = ['spinr', *{argv!r}]\n"
        "runpy.run_module('spinr.cli', run_name='__main__')\n"
    )
    proc = _python("-c", code, capture_output=True, text=True)
    res = run(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        res.exit_code, res.stdout, res.stderr + "True\n")


def test_the_spinr_script_is_the_process_entry():
    lines = (ROOT / "pyproject.toml").read_text("utf-8").splitlines()
    start = lines.index("[project.scripts]") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    scripts = [line for line in lines[start:end] if line.strip()]
    assert scripts == ['spinr = "spinr.cli:entry"']
    module, _, name = json.loads(scripts[0].partition(" = ")[2]).partition(":")
    assert getattr(importlib.import_module(module), name) is entry


# --- the reader against the argparse parser it replaced ---------------------------

TOKENS = [
    "table1", "classify", "spin-type", "holonomy", "no-such",  # commands
    "S4:SO(5)", "U(2)",  # positionals
    "--r", "--m", "--r=3", "--format", "--form", "--strict", "--catalog", "--bogus",
    "-x", "-h", "--help", "--",  # options
    "md", "json", "xml", "PATH", "3", "0", "-1", "٣", "0_3", LONG,  # values
]
# spellings that argparse reads in its own way: -h with a value glued on
# or given with "=" (-hh is -h -h), a flag given a value, and what its
# negative-number and space rules make an argument
ODD_TOKENS = [
    "-hh", "-hx", "-h=", "-h=h", "-h=hx", "-hh=x", "-h x", "--help=", "--help=x",
    "--strict=1", "--format=json", "--format=", "--catalog=P", "--catalog=", "--m=4",
    "--r=-1", "-1.5", "-.5", "-1.", "-٣", "-1\n", "- x", "", "-", "-=x", "---",
]


def _reading(read, argv: list) -> tuple:
    """(exit code, what was read or None, stdout, stderr) of one reading."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parsed, code = read(argv), 0
        except SystemExit as exit_:
            parsed, code = None, exit_.code or 0
    return code, parsed, out.getvalue(), err.getvalue()


def _read(argv: list) -> dict:
    fn, kwargs = _read_argv(argv, "spinr")
    return {"run": fn, **kwargs}


def _argparse_read(argv: list) -> dict:
    if argv[-1:] == ["--"]:
        argv = argv[:-1]  # as main dropped it before argparse read the rest
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):  # help at 80 columns
        return vars(argparse_cli("spinr").parse_args(argv))


@settings(max_examples=1500)
@given(st.lists(st.sampled_from(TOKENS), max_size=7))
@example(["--help"])
@example(["table1", "-h"])
@example(["classify", "--help"])
@example(["spin-type", "-h"])
@example(["holonomy", "--help"])
@example(["--catalog", "PATH", "holonomy", "U(2)", "--m=4", "--r", "3", "--format", "json"])
@example(["spin-type", "--strict", "U(2)", "--strict", "--"])
@example(["spin-type", "U(2)", "--", "-h"])  # the positional takes the "--" too
@example(["classify", "--", "--r", "3"])
@example(["--", "table1"])
def test_the_reader_reads_every_argv_as_argparse_did(argv):
    # the same exit code, the same command and values when accepted, and
    # the same help and usage-error bytes; no wording is excepted
    assert _reading(_read, argv) == _reading(_argparse_read, argv)


@pytest.mark.parametrize("token", ODD_TOKENS)
@pytest.mark.parametrize("at", [0, 1, 2, 3])
def test_the_reader_reads_odd_spellings_as_argparse_did(token, at):
    argv = ["spin-type", "S4:SO(5)", "--format", "md"]
    argv.insert(at, token)
    assert _reading(_read, argv) == _reading(_argparse_read, argv)


# the usual form: [--catalog PATH] COMMAND, then the command's positional
# and options in any order, "--opt VALUE", "--opt=VALUE" or "--flag", each
# option once or more.  Every value is drawn from VALUES
VALUES = ["0", "3", "-1", "٣", LONG, "md", "json", "xml", "", "S4:SO(5)"]


def _taken(read, value: str, bare: bool) -> bool:
    """Whether the usual form takes value for an option that reads it as
    read (None, int or a tuple of choices), given as its own token (bare)
    or after "="."""
    if bare and value.startswith("-"):
        return False
    if read is int:
        return value in ("0", "3", "-1")  # ٣ is not ASCII, and int() refuses LONG
    return read is None or value in read


@st.composite
def usual_argv(draw):
    """(an argv in the usual form, whether the usual form takes every
    value in it)."""
    taken = True

    def option(spec):
        nonlocal taken
        flag, _, metavar, read, _, _ = spec
        if metavar is None:
            return [flag]
        value = draw(st.sampled_from(VALUES))
        glued = draw(st.booleans())
        taken = taken and _taken(read, value, bare=not glued)
        return [f"{flag}={value}"] if glued else [flag, value]

    catalog = [option(spinr.cli._CATALOG) for _ in range(draw(st.integers(0, 2)))]
    name = draw(st.sampled_from(list(spinr.cli._COMMANDS)))
    _, positional, options = spinr.cli._COMMANDS[name]
    units = [option(spec) for spec in options
             for _ in range(draw(st.integers(1 if spec[4] is ... else 0, 2)))]
    if positional:
        value = draw(st.sampled_from(VALUES))
        taken = taken and _taken(None, value, bare=True)
        units.append([value])
    units = draw(st.permutations(units))  # the positional anywhere
    return [token for unit in (*catalog, [name], *units) for token in unit], taken


@settings(max_examples=600)
@given(usual_argv())
@example((["--catalog=", "holonomy", "--r=-1", "", "--m", "0", "--m=3"], True))
@example((["--catalog", "", "spin-type", "--strict", "S4:SO(5)", "--strict"], True))
@example((["classify", "--format=json", "md", "--r", "3", "--format", "md"], True))
@example((["table1", "--format", "xml"], False))
@example((["classify", "S4:SO(5)", "--r", "-1"], False))
def test_the_usual_form_is_read_without_argparse(case):
    # the same reading as argparse's; a draw whose values the usual form
    # takes never reaches argparse, and any other draw always does
    argv, taken = case
    slow = mock.patch.object(
        spinr.cli, "_read_with_argparse", wraps=spinr.cli._read_with_argparse)
    with slow as calls:
        assert _reading(_read, argv) == _reading(_argparse_read, argv)
    assert calls.call_count == (0 if taken else 1)


HELP_SCREENS = [(), ("table1",), ("classify",), ("spin-type",), ("holonomy",)]


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("command", HELP_SCREENS, ids=lambda c: c[0] if c else "spinr")
def test_help_is_laid_out_at_80_columns_whatever_columns_says(command, columns):
    argv = [*command, "--help"]
    res = run(*argv, env={"COLUMNS": columns})
    code, _, out, err = _reading(_argparse_read, argv)  # at 80 columns
    assert (res.exit_code, res.stdout, res.stderr) == (code, out, err) == (0, out, "")
