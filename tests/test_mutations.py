"""Mutants of the bundled catalog text end in an answer or a SpinrError.

Every input ends in a verdict or a documented error, never in a traceback
or in work without bound.  Each mutant swaps one value for an edge value,
or deletes, duplicates or swaps lines; whatever loads is then asked every
decision the CLI offers.
"""

import os
import re
import subprocess
import sys
from datetime import timedelta
from pathlib import Path

from fixtures import BUNDLED_TEXT
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinr.catalog import loads
from spinr.catalogfile import SpinrError
from spinr.spaces import (
    canonical_structure,
    classify,
    holonomy_lift,
    invariant_spin_type,
)

SRC = Path(__file__).resolve().parents[1] / "src"
LINES = BUNDLED_TEXT.split("\n")
VALUE_LINES = [i for i, line in enumerate(LINES) if re.match(r"\s*[\w-]+:", line)]
LONG = "1" * (sys.get_int_max_str_digits() + 1)  # one digit more than int() reads
NUMBERS = ["0", "-1", "-2", "2", "3", "1000000000", "-1000000000", "9" * 40, LONG]
# a bare value, and the quoted forms that parse_affine and parse_congruence read
FORMS = ["{}", "[{}]", '"{}"', '["{}"]', '["{}*s/2"]', '"s = 1 mod {}"']


def _value_swaps():
    return st.tuples(
        st.just("value"), st.sampled_from(VALUE_LINES), st.sampled_from(FORMS),
        st.sampled_from(NUMBERS),
    )


def _line_edits():
    index = st.integers(0, len(LINES) - 1)
    return st.tuples(
        st.sampled_from(["delete", "duplicate", "swap"]), index, index, st.none()
    )


def _mutate(edit, i, a, b) -> str:
    """The bundled text with line i edited; a and b are the value's form and
    number, or the line to swap with."""
    lines = LINES[:]
    if edit == "value":
        key = lines[i].split(":", 1)[0]
        lines[i] = f"{key}: {a.format(b)}"
    elif edit == "delete":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[a] = lines[a], lines[i]
    return "\n".join(lines)


def _decide(catalog):
    """Every decision on every record; each ends in an answer or a SpinrError."""
    calls = []
    for space in catalog.spaces.values():
        calls += [(classify, space, r) for r in range(1, min(space.n, 40) + 2)]
        calls += [(invariant_spin_type, space), (canonical_structure, space)]
    for rec in catalog.holonomies.values():
        calls += [(holonomy_lift, rec.group, rec.m, r) for r in {1, 2, min(rec.m, 40)}]
    for decide, *args in calls:
        try:
            decide(catalog, *args)
        except SpinrError:
            pass


def _first(key: str) -> int:
    return next(i for i in VALUE_LINES if LINES[i].lstrip().startswith(key + ":"))


@settings(max_examples=100, deadline=timedelta(seconds=5))
@given(st.one_of(_value_swaps(), _line_edits()))
@example(("value", _first("free_rank"), "{}", LONG))
@example(("value", _first("constraint"), '"s = 1 mod {}"', LONG))
@example(("value", _first("pi1_images"), '["{}"]', LONG))
def test_a_mutant_catalog_answers_or_raises_a_spinr_error(mutation):
    try:
        catalog = loads(_mutate(*mutation))
    except SpinrError:
        return
    _decide(catalog)


def _limited_run(text: str, directory: Path, *args: str):
    """spinr --catalog <text written to a file> args..., as _limited runs
    it."""
    path = directory / "c.txt"
    path.write_text(text, "utf-8")
    return path, _limited("--catalog", str(path), *args)


def _limited(*args: str):
    """spinr args..., in a child process whose address space is limited to
    512 MB; the limit holds in the child only."""
    code = (
        "import resource, sys\n"
        "limit = 512 * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "from spinr.cli import main\n"
        "main(sys.argv[1:])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=15, env=env,
    )


def test_a_catalog_file_without_end_exits_four_under_a_memory_limit():
    # the whole file was read, so /dev/zero ended in a MemoryError
    # traceback; at most catalog.MAX_FILE_BYTES + 1 bytes are read now
    res = _limited("--catalog", "/dev/zero", "table1")
    assert (res.returncode, res.stdout) == (4, "")
    assert res.stderr == "catalog error: /dev/zero: more than 67108864 bytes\n"


def test_a_huge_free_rank_without_labels_exits_four_under_a_memory_limit(tmp_path):
    # the pi1 builder sized a tuple and a default label list by free_rank, so
    # this one line asked for gigabytes before any check refused it
    old = 'name: "SO(1)"\n  pi1 {\n    free_rank: 0'
    at = BUNDLED_TEXT.index(old) + len(old) - 1
    text = BUNDLED_TEXT[:at] + "1000000000" + BUNDLED_TEXT[at + 1:]
    path, res = _limited_run(text, tmp_path, "table1")
    line = BUNDLED_TEXT[: BUNDLED_TEXT.index(old)].count("\n") + 2  # the pi1 block
    assert (res.returncode, res.stdout) == (4, "")
    message = "0 labels for 1000000000 generators"
    assert res.stderr == f"catalog error: {path}:{line}: {message}\n"


HUGE = "1000000000"
SPIN_TYPE = ("spin-type", "S5:U(3)")  # its stabiliser is U(2)
# (record, key, value, args, exit code)
SIZE_FIELDS = [
    # an SO(k) record meets the SO(k) formulas, so the load refuses it
    *[('name: "SO(5)"', key, value, SPIN_TYPE, 4) for key, value in [
        ("torsion", f"[{HUGE}]"), ("center_rank", HUGE), ("dim", HUGE),
        ("min_orth_rep", HUGE)]],
    # a torsion entry needs a generator label; the rest only bound the rule
    # engine or name a rank, and the answer comes at once
    ('name: "U(2)"', "torsion", f"[{HUGE}]", SPIN_TYPE, 4),
    ('name: "U(2)"', "center_rank", HUGE, SPIN_TYPE, 0),
    ('name: "U(2)"', "dim", HUGE, SPIN_TYPE, 0),
    ('name: "U(2)"', "min_orth_rep", HUGE, SPIN_TYPE, 0),
    ('name: "u2-det-powers"', "target_r", HUGE, SPIN_TYPE, 0),
    ('name: "S5:U(3)"', "n", HUGE, SPIN_TYPE, 0),
    ('group: "U(2)"', "m", HUGE, ("holonomy", "U(2)", "--m", HUGE, "--r", "3"), 0),
]


@pytest.mark.parametrize(
    "record, key, value, args, code",
    SIZE_FIELDS,
    ids=[f"{record.split(chr(34))[1]} {key}" for record, key, *_ in SIZE_FIELDS],
)
def test_a_size_field_at_a_billion_answers_or_exits_four(tmp_path, record, key,
                                                          value, args, code):
    # no catalog number may size an allocation or a loop without bound
    # (README "Catalog file format"); this one runs within 512 MB and 15 s
    start = BUNDLED_TEXT.index(record)
    at = BUNDLED_TEXT.index(f" {key}: ", start) + len(key) + 3
    end = BUNDLED_TEXT.index("\n", at)
    text = BUNDLED_TEXT[:at] + value + BUNDLED_TEXT[end:]
    _, res = _limited_run(text, tmp_path, *args)
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert bool(res.stdout) == (code == 0)
