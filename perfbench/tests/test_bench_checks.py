"""The benchmark's own checks accept the program's answers and reject
deliberately wrong ones; the generated catalogs load."""

import copy
import dataclasses
import json
import os
import sys

import pytest

import checks
import gencat
import workloads
from checks import Wrong
from harness import Failed, run_child
from spinr import catalog as catalog_mod
from spinr import spaces

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="module")
def bundled():
    return catalog_mod.load_default()


@pytest.fixture(scope="module")
def cli_checks():
    return workloads.CliChecks(ROOT)


@pytest.fixture(scope="module")
def cli():
    return workloads.Cli(ROOT, ROOT)


# --- the closed-form sphere table ----------------------------------------------

@pytest.mark.parametrize("name, value", [
    ("S1:SO(2)", 1), ("S4:SO(5)", 3), ("S8:SO(9)", 8), ("S199:SO(200)", 199),
    ("S11:U(6)", 2), ("S7:SU(4)", 1), ("S11:Sp(3)", 1), ("S6:G2", 1),
    ("S3:Sp(1)·U(1)", 2), ("S7:Sp(2)·U(1)", 1), ("S3:Sp(1)·Sp(1)", 3),
    ("S7:Sp(2)·Sp(1)", 1), ("S11:Sp(3)·Sp(1)", 3), ("S15:Spin(9)", 1),
])
def test_closed_form(name, value):
    assert checks.expected_spin_type(name) == value


def test_every_bundled_spin_type_passes_and_a_wrong_one_is_rejected(bundled):
    fams = checks.affine_table(bundled.families)
    for name, sp in bundled.spaces.items():
        sigma = workloads._sigma(sp.sigma_pi1.images)
        res = spaces.invariant_spin_type(bundled, sp)
        workloads._check_spin_type(res, name, sigma, sp.n, fams,
                                   checks.expected_spin_type(name))
    sp = bundled.space("S4:SO(5)")
    res = spaces.invariant_spin_type(bundled, sp)
    wrong = dataclasses.replace(res, lo=4, hi=4)
    with pytest.raises(Wrong, match="closed form"):
        workloads._check_spin_type(wrong, "S4:SO(5)", [1], 4, fams, 3)


# --- the parity rule --------------------------------------------------------------

def test_parity_check_rejects_a_class_that_cannot_lift(bundled):
    fams = checks.affine_table(bundled.families)
    sp = bundled.space("S4:SO(5)")
    c = spaces.classify(bundled, sp, 3)
    workloads._check_classification(c, sp.name, [1], 4, 3, fams, 3)
    # the trivial twist against an odd isotropy class cannot lift
    with pytest.raises(Wrong, match="parity"):
        checks.check_classes([("trivial", "trivial", None)], [1], 4, 3, fams, "t")


def test_parity_check_samples_congruences(bundled):
    fams = checks.affine_table(bundled.families)
    checks.check_classes([("so2-circle-powers", None, "s odd")], [1], 2, 2, fams, "t")
    with pytest.raises(Wrong):
        checks.check_classes([("so2-circle-powers", None, "s ∈ Z")], [1], 2, 2, fams, "t")


def test_witness_check_rejects_a_witness_that_lifts(bundled):
    c = spaces.classify(bundled, bundled.space("S4:SO(5)"), 1)
    assert c.rejected
    checks.check_witnesses(checks.rejected_pairs(c.rejected), 4, 1, "t")
    with pytest.raises(Wrong, match="satisfies"):
        checks.check_witnesses([("trivial", [("alpha", (1, 1))])], 4, 3, "t")
    with pytest.raises(Wrong, match="without a witness"):
        checks.check_witnesses([("trivial", [])], 4, 3, "t")


def test_holonomy_at_r_equal_m_must_be_yes(bundled):
    fams = checks.affine_table(bundled.families)
    v = spaces.holonomy_lift(bundled, "SO(3)", 3, 3)
    workloads._check_holonomy(v, "SO(3)", 3, 3, [1], fams)
    no = dataclasses.replace(v, verdict="no", via=(), complete=True)
    with pytest.raises(Wrong, match="diagonal"):
        workloads._check_holonomy(no, "SO(3)", 3, 3, [1], fams)


def test_classification_below_the_spin_type_must_be_empty(bundled):
    fams = checks.affine_table(bundled.families)
    sp = bundled.space("S4:SO(5)")
    c = spaces.classify(bundled, sp, 3)
    with pytest.raises(Wrong, match="below the spin type"):
        workloads._check_classification(c, sp.name, [1], 4, 3, fams, 4)


# --- CLI outputs ----------------------------------------------------------------------

def test_cli_cycle_answers_pass_their_checks(cli, cli_checks):
    for argv, check in workloads.cli_cycle(cli_checks)[:-1]:
        check(cli.run(argv))


def test_schema_check_rejects_a_malformed_record(cli, cli_checks):
    run = cli.run(["classify", "S2:SO(3)", "--r", "2", "--format", "json"])
    record = json.loads(run.stdout)
    checks.check_schema(cli_checks.validator, record, "t")
    bad = copy.deepcopy(record)
    bad["result"]["count"] = "many"
    with pytest.raises(Wrong, match="schema"):
        checks.check_schema(cli_checks.validator, bad, "t")


def test_table1_check_rejects_a_wrong_row(cli):
    run = cli.run(["table1"])
    workloads._check_table1_md(run)
    wrong = dataclasses.replace(run, stdout=run.stdout.replace("S8:SO(9) -> 8", "S8:SO(9) -> 7"))
    with pytest.raises(Wrong, match="S8:SO"):
        workloads._check_table1_md(wrong)


def test_rank_zero_fails_until_it_gets_its_own_exit_code():
    with pytest.raises(Failed):
        workloads.check_rank_zero(workloads.CliRun(
            1, "", "Traceback (most recent call last):\nValueError: twist rank\n"))
    with pytest.raises(Failed):
        workloads.check_rank_zero(workloads.CliRun(0, "", ""))
    workloads.check_rank_zero(workloads.CliRun(5, "", "error: twist rank must be >= 1\n"))


def test_rss_probe_reports_each_child_apart(cli):
    """A child that touches 64 MB reads more than that; a bare one
    started after it reads less, so no peak carries over."""
    argvs = [[sys.executable, "-c", "x = b'.' * (64 << 20)"], [sys.executable, "-c", "pass"]]
    code, out, err = run_child([sys.executable, cli.rss_probe, json.dumps(argvs)],
                               cli.env, ROOT)
    assert code == 0, err
    big, bare = (kib / 1024.0 for kib in json.loads(out))
    assert big > 64 > bare


# --- generated catalogs -----------------------------------------------------------------

def test_generated_catalogs_load():
    gen = gencat.scale_catalog(workloads.SCALE_MAX_K, seed=3)
    workloads._check_counts(catalog_mod.loads(gen.text), gen)
    gen = gencat.load_catalog(workloads.LOAD_SIZE, seed=3)
    workloads.check_loaded(catalog_mod.loads(gen.text), gen)
    assert 5000 < gen.lines < 7000


def test_seed_changes_order_but_not_content():
    a = gencat.load_catalog(4, seed=1)
    b = gencat.load_catalog(4, seed=2)
    assert a.text != b.text
    assert sorted(a.text.splitlines()) == sorted(b.text.splitlines())


def test_loaded_check_rejects_a_changed_image():
    gen = gencat.load_catalog(4, seed=1)
    text = gen.text.replace(
        'name: "S5:U(3)"\n  G: "U(3)"\n  H: "U(2)"\n  n: 5\n  sigma_pi1_images: [1]',
        'name: "S5:U(3)"\n  G: "U(3)"\n  H: "U(2)"\n  n: 5\n  sigma_pi1_images: [0]')
    assert text != gen.text
    with pytest.raises(Wrong, match="sigma"):
        workloads.check_loaded(catalog_mod.loads(text), gen)


# --- tracing ----------------------------------------------------------------------------

def test_tracer_counts_repeat_and_originals_come_back(bundled):
    import spinr.lifting
    import tracer

    original = spinr.lifting.lifts
    runs = []
    for _ in range(2):
        tr = tracer.Tracer()
        tr.install()
        try:
            spaces.invariant_spin_type(bundled, bundled.space("S8:SO(9)"))
        finally:
            tr.uninstall()
        runs.append((dict(tr.calls), dict(tr.extra), tr.ranks_scanned))
    assert spinr.lifting.lifts is original
    assert runs[0] == runs[1]
    calls, _, ranks = runs[0]
    assert ranks == 8 and calls["spaces.classify"] == 8
    assert calls["lifting.lifts"] >= 8 and calls["lifting.parity"] > 0
