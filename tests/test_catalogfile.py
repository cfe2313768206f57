import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from fixtures import BUNDLED_TEXT
from oracles import ASCII_INT_RE, reference_parse

from spinr.catalogfile import Block, CatalogParseError, entry_value, is_int, parse

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "perfbench"))
from gencat import load_catalog, scale_catalog  # noqa: E402  (the benchmark's generators)

SAMPLE = """
# a comment
catalog_version: 1

group {
  name: "SO(4)"      # trailing comment
  pi1 {
    free_rank: 0
    torsion: [2]
    generators: ["alpha"]
  }
  connected: true
  tags: [a, b, "c d"]
  count: -3
}
"""


def _block(entry, *known):
    return Block(entry, frozenset(known))


def test_parse_structure():
    entries = parse(SAMPLE)
    assert [e[0] for e in entries] == ["catalog_version", "group"]
    assert entries[0] == ("catalog_version", 3, 1, None)
    group = _block(entries[1], "name", "pi1", "connected", "tags", "count")
    assert group.value("name", str) == "SO(4)"
    pi1 = _block(group.child("pi1"), "free_rank", "torsion", "generators")
    assert pi1.value("free_rank", int) == 0
    assert pi1.value("torsion", list) == [2]
    assert group.value("connected", bool) is True
    assert group.value("tags", list) == ["a", "b", "c d"]
    assert group.value("count", int) == -3


def test_line_numbers_attached():
    group = parse(SAMPLE)[1]
    assert group[1] == 5
    assert _block(group, "name", "pi1", "connected", "tags", "count").child("name")[1] == 6


def test_empty_list():
    assert parse("x: []") == [("x", 1, [], None)]


def test_unmatched_close_reports_line():
    with pytest.raises(CatalogParseError) as err:
        parse("a {\n}\n}\n")
    assert err.value.line == 3


def test_unclosed_block_reports_line():
    with pytest.raises(CatalogParseError) as err:
        parse("a {\n  b: 1\n")
    assert err.value.line == 1


def test_garbage_line_rejected():
    with pytest.raises(CatalogParseError) as err:
        parse("x: 1\nnot a thing\n")
    assert err.value.line == 2


def test_unterminated_string_rejected():
    with pytest.raises(CatalogParseError) as err:
        parse('x: "oops\n')
    assert err.value.line == 1


def test_unterminated_list_rejected():
    with pytest.raises(CatalogParseError):
        parse("x: [1, 2\n")


def test_duplicate_scalar_key_detected_via_child():
    (entry,) = parse("b {\n  k: 1\n  k: 2\n}\n")
    with pytest.raises(CatalogParseError) as err:
        _block(entry, "k").child("k")
    assert err.value.line == 3


def test_missing_key_points_at_block():
    (entry,) = parse("b {\n  k: 1\n}\n")
    with pytest.raises(CatalogParseError) as err:
        _block(entry, "k").value("nope", str)
    assert err.value.line == 1


def test_repeated_block_keys_collected():
    (entry,) = parse("a {\n  ideal {\n    x: 1\n  }\n  ideal {\n    x: 2\n  }\n}\n")
    assert [e[1] for e in _block(entry, "ideal").items("ideal")] == [2, 5]


def test_middle_dot_in_barewords():
    (entry,) = parse("g {\n  name: Sp(2)·Sp(1)\n}\n")
    assert _block(entry, "name").value("name", str) == "Sp(2)·Sp(1)"


def test_bool_values_reject_quoted_and_integer_flags():
    (entry,) = parse('b {\n  yes: true\n  no: false\n  quoted: "false"\n  one: 1\n}\n')
    node = _block(entry, "yes", "no", "quoted", "one")
    assert node.value("yes", bool) is True
    assert node.value("no", bool) is False
    for key, line in (("quoted", 4), ("one", 5)):
        with pytest.raises(CatalogParseError) as err:
            node.value(key, bool)
        assert err.value.line == line
        assert "must be true or false" in str(err.value)


@pytest.mark.parametrize("kind", [str, int, bool, list])
@pytest.mark.parametrize("key", ["s", "i", "b", "l", "blk", "dup", "nope"])
def test_value_reads_as_child_then_entry_value(key, kind):
    # one step does what the lookup, the duplicate check and the type
    # check do one after the other, with the same message and line
    text = 'b {\n s: "x"\n i: 4\n b: true\n l: [1]\n blk {\n }\n dup: 1\n dup: 2\n}\n'
    node = _block(parse(text)[0], "s", "i", "b", "l", "blk", "dup", "nope")

    def outcome(read):
        try:
            return read()
        except CatalogParseError as err:
            return str(err)

    expected = outcome(lambda: entry_value(node.child(key), kind))
    assert outcome(lambda: node.value(key, kind)) == expected
    if key == "nope":
        assert node.value(key, kind, None) is None
    else:
        assert outcome(lambda: node.value(key, kind, None)) == expected


def test_the_first_unknown_key_is_refused_when_the_block_is_read():
    (entry,) = parse("b {\n  k: 1\n  k: 2\n  x: 3\n  y: 4\n}\n")
    with pytest.raises(CatalogParseError) as err:
        _block(entry, "k")
    assert str(err.value) == "<catalog>:4: unknown key 'x' in 'b' block"


@pytest.mark.parametrize(
    "line, value",
    [
        ('x: "a # b"  # tail', "a # b"),
        ('x: ["a, b", c]  # "quoted" tail', ["a, b", "c"]),
        ('x: [",", "#", ""]', [",", "#", ""]),
        ("x:   7   # seven", 7),
    ],
)
def test_quotes_protect_hash_and_comma(line, value):
    ((_, _, parsed, _),) = parse(line)
    assert parsed == value
    assert type(parsed) is type(value)


def test_unterminated_quote_runs_to_end_of_line():
    with pytest.raises(CatalogParseError) as err:
        parse('x: "a # b')
    assert str(err.value) == "<catalog>:1: unterminated string '\"a # b'"


# --- the one-pass parser against the character-loop reference -------------------

# Unicode spaces, and the breaks str.splitlines ends a line at besides
# "\n": a parser that reads [ \t] where the reference reads \s, or splits
# lines differently, tells itself apart on these.
_SPACES = " \t\xa0\u2003\u3000\x0c\x1c\x85\u2028"
_GAP = st.text(alphabet=_SPACES, max_size=2)
_JUNK = st.text(alphabet='"#,[]{}: ax1-' + _SPACES, max_size=8)
_KEY = st.sampled_from(["k", "key_1", "a-b", "Z", "1k", ""])
_SCALAR = st.one_of(
    st.sampled_from(
        ["7", "-3", "true", "false", "word", "Sp(2)·Sp(1)", '"q"', '""',
         '"a # b"', '"a, b"', '"', 'a"b', "[", "]", ""]
    ),
    _JUNK,
)
_LIST = st.tuples(
    st.lists(_SCALAR, max_size=4).map(", ".join), st.sampled_from(["]", "", ",]"])
).map(lambda t: f"[{t[0]}{t[1]}")
_COMMENT = st.sampled_from(["", "  # note", ' # "q", [x]', "#"])
_LINE = st.one_of(
    st.tuples(_GAP, st.sampled_from(["", "}"]), _GAP).map("".join),
    st.tuples(_GAP, _KEY, _GAP, st.just("{"), _GAP, _COMMENT).map("".join),
    st.tuples(
        _GAP, _KEY, _GAP, st.just(":"), _GAP, st.one_of(_SCALAR, _LIST), _GAP, _COMMENT
    ).map("".join),
    _JUNK,
)
catalog_like_text = st.lists(_LINE, max_size=10).map("\n".join)


def _outcome(parser, text):
    try:
        return repr(parser(text, "fuzz.txt"))
    except CatalogParseError as err:
        return f"error: {err}"


@settings(max_examples=200)
@given(catalog_like_text)
def test_parse_matches_reference_parser(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


# A pool of a few lines, picked again and again: most lines of a real
# catalog repeat an earlier one, and parse matches each distinct line once.
repeating_text = st.lists(_LINE, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=30)
).map("\n".join)


@settings(max_examples=200)
@given(repeating_text)
@example("k: 1\n}\nk: 1\n}")  # a repeated bad line is reported where it first appears
@example("b {\n  k: [1]\n}\nb {\n  k: [1]\n}")
def test_repeated_lines_parse_as_the_reference_does(text):
    assert _outcome(parse, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    [BUNDLED_TEXT, load_catalog(36, 1).text, scale_catalog(200, 1).text],
    ids=["bundled", "load", "scale"],
)
def test_catalog_text_parses_as_the_reference_does(text):
    assert repr(parse(text)) == repr(reference_parse(text))


def test_each_appearance_of_a_list_line_gets_its_own_list():
    first, block, last = parse("x: [1, 2]\nb {\n  x: [1, 2]\n}\nx: [1, 2]\n")
    lists = [first[2], block[3][0][2], last[2]]
    first[2].append(3)
    assert lists == [[1, 2, 3], [1, 2], [1, 2]]
    last[2].clear()
    assert lists == [[1, 2, 3], [1, 2], []]


# --- texts that a quadratic reader takes far longer than a linear one --------------

def _run_within(code: str, seconds: float = 10) -> str:
    """The standard output of code run in a child process that must finish
    within the given seconds, so that a regression fails instead of
    hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    try:
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=seconds, env=env, check=True,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"took more than {seconds} s")
    return out.stdout


def test_a_key_repeated_in_one_block_costs_linear_time():
    # 120,000 names (1.4 MB); filing each repeat by copying the ones
    # before it took 3.2 s for 40,000 and grows with the square
    code = (
        "from spinr.catalog import loads\n"
        "text = 'catalog_version: 1\\ngroup {\\n' + '  name: \"x\"\\n' * 120_000 + '}\\n'\n"
        "try:\n"
        "    loads(text)\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    assert _run_within(code) == "<catalog>:4: duplicate key 'name'\n"


def test_a_list_of_adjacent_strings_costs_linear_time():
    # one item of 640,000 adjacent quoted chunks (1.9 MB); growing the item
    # by one chunk at a time took 5.5 s for 320,000 and grows with the square
    code = (
        "from spinr.catalogfile import parse\n"
        "((key, line, value, _),) = parse('x: [' + '\"a\"' * 640_000 + ']')\n"
        "print(key, line, len(value), len(value[0]), value[0][:5])\n"
    )
    assert _run_within(code) == 'x 1 1 1919998 a""a"\n'


# --- whitespace and line breaks beyond ASCII -------------------------------------

# Every line form, with one Unicode space at each {ws}: around ':' and '{',
# leading, trailing, inside a string, before a comment and alone.
_WS_LINES = [
    "k{ws}: 7",
    "k:{ws}7",
    "k{ws}:{ws}-3{ws}",
    'k:{ws}"a"',
    'k: {ws}"a"',
    'k: "a"{ws}',
    'k: "a{ws}b"',
    "k: {ws}x",
    "k:{ws}[1,{ws}2]{ws}",
    "k:{ws}true",
    "{ws}k: 1",
    "k{ws}{{\n}}",
    "k {{{ws}\n{ws}}}{ws}",
    "{ws}k{ws}{{\n  j:{ws}1{ws}# c{ws}\n}}",
    "{ws}",
    "k:{ws}",
    "k:{ws}#{ws}",
    "{ws}}}",
]


@pytest.mark.parametrize("ws", ["\xa0", "\u2003", "\u3000"])
@pytest.mark.parametrize("line", _WS_LINES)
def test_unicode_whitespace_parses_as_the_reference_does(line, ws):
    text = line.format(ws=ws)
    assert _outcome(parse, text) == _outcome(reference_parse, text)


# str.splitlines breaks lines at these too, so a line may end inside a
# string or between a key and its value.
@pytest.mark.parametrize("brk", ["\x0c", "\x1c", "\x85", "\u2028"])
@pytest.mark.parametrize(
    "text",
    [
        "b {{{brk}  k: 1{brk}  j: \"x\"{brk}}}{brk}",
        'k: "a{brk}b"',
        "k:{brk}1",
        "k{brk}{{\n}}",
        "k: [1,{brk}2]",
        "k: 1{brk}{brk}j: 2",
    ],
)
def test_unicode_line_breaks_parse_as_the_reference_does(text, brk):
    text = text.format(brk=brk)
    assert _outcome(parse, text) == _outcome(reference_parse, text)


@settings(max_examples=1000)
@given(st.one_of(st.text(), st.text("-+0123456789٣¹𝟘_ \n")))
@example("")
@example("-")
@example("--1")
@example("-0")
@example("007")
@example("3\n")
@example("¹")  # str.isdigit takes it; int() does not
def test_is_int_accepts_what_the_ascii_integer_pattern_matches(text):
    assert is_int(text) == bool(ASCII_INT_RE.fullmatch(text))
