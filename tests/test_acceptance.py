"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import json
import random
import time

import spinr.catalog
from spinr.abelian import Subgroup, contains
from spinr.lifting import LiftQuery, frame_product_pi1, lift_subgroup, lifts
from spinr.repcat import enumerate_homs
from spinr.spaces import (
    canonical_structure,
    classify,
    holonomy_lift,
    parity_nonzero,
)

from clirunner import run
from oracles import (
    agreement_instances,
    brute_force_contains,
    pushed_twist,
    subgroup_eq,
    subgroup_index,
)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE PASS [{criterion}]: {detail}")


# --- criterion 1: Table 1 regression ------------------------------------------

def test_criterion_1_table_regression():
    spinr.catalog._default = None  # include a fresh catalog load in the timing
    start = time.perf_counter()
    res = run("table1", "--format", "json")
    elapsed = time.perf_counter() - start
    assert res.exit_code == 0, res.stderr
    record = json.loads(res.stdout)
    assert record["match"] is True
    checked = {
        inst["space"]: inst["computed"]
        for row in record["rows"]
        for inst in row["instances"]
    }
    expected = {
        "S3:SO(4)": 3, "S4:SO(5)": 3, "S8:SO(9)": 8,
        "S3:U(2)": 2, "S5:U(3)": 2, "S7:U(4)": 2,
        "S3:SU(2)": 1, "S5:SU(3)": 1, "S7:SU(4)": 1,
        "S3:Sp(1)": 1, "S7:Sp(2)": 1, "S11:Sp(3)": 1,
        "S3:Sp(1)·U(1)": 2, "S7:Sp(2)·U(1)": 1, "S11:Sp(3)·U(1)": 2,
        "S3:Sp(1)·Sp(1)": 3, "S7:Sp(2)·Sp(1)": 1, "S11:Sp(3)·Sp(1)": 3,
        "S6:G2": 1, "S7:Spin(7)": 1, "S15:Spin(9)": 1,
    }
    assert checked == expected
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    report("1 table regression", f"21 instances exact in {elapsed:.3f}s")


# --- criterion 2: the published covering images ---------------------------------

def test_criterion_2_covering_image_table():
    def image(n, r, gens):
        amb = frame_product_pi1(n, r)
        return Subgroup(amb, tuple(amb.elem(c) for c in gens))

    assert subgroup_eq(lift_subgroup(2, 2), image(2, 2, [(1, 1), (1, -1)]))
    for n in (3, 5, 9):
        assert subgroup_eq(lift_subgroup(n, 2), image(n, 2, [(1, 1)]))
    for n, r in itertools.product(range(3, 10), repeat=2):
        assert subgroup_eq(lift_subgroup(n, r), image(n, r, [(1, 1)]))
    cases = 0
    for n, r in itertools.product(range(2, 10), repeat=2):
        assert subgroup_index(lift_subgroup(n, r)) == 2
        cases += 1
    report("2 covering images", f"4 published images exact; index 2 in {cases} cases")


# --- criterion 3: classification counts ------------------------------------------

def test_criterion_3_classification_counts(catalog):
    checks = []

    c = classify(catalog, catalog.space("S2:SO(3)"), 2)
    assert c.count is None and len(c.classes) == 1
    assert str(c.classes[0].constraint) == "s odd"
    checks.append("S2@2: infinite, s odd")

    c = classify(catalog, catalog.space("S4:SO(5)"), 3)
    assert c.count == 2
    checks.append("S4@3: 2")

    for n in (3, 5, 7):
        c = classify(catalog, catalog.space(f"S{n}:SO({n + 1})"), n)
        assert c.count == 1, n
    checks.append("odd spheres@n: 1")

    for n in (6, 8):
        c = classify(catalog, catalog.space(f"S{n}:SO({n + 1})"), n)
        assert c.count == 2, n
    checks.append("even spheres@n: 2")

    for name in ("S3:Sp(1)·U(1)", "S11:Sp(3)·U(1)"):
        c = classify(catalog, catalog.space(name), 2)
        assert c.count is None and len(c.classes) == 1
        assert str(c.classes[0].constraint) == "s ≡ 2 mod 4", name
    checks.append("Sp*U(1)@2: s ≡ 2 mod 4")

    for name in ("S3:Sp(1)·Sp(1)", "S11:Sp(3)·Sp(1)"):
        c = classify(catalog, catalog.space(name), 3)
        assert c.count == 1, name
    checks.append("Sp*Sp(1)@3: 1")

    report("3 classification counts", "; ".join(checks))


# --- criterion 4: negative verdicts carry proofs -----------------------------------

def test_criterion_4_negative_verdicts(catalog):
    cases = [("S4:SO(5)", 2)]
    for n in (5, 6, 7):
        for r in range(2, n):
            cases.append((f"S{n}:SO({n + 1})", r))
    for name, r in cases:
        c = classify(catalog, catalog.space(name), r)
        assert not c.classes, (name, r)
        assert c.complete, (name, r)
        has_parity_witness = any(rej.witnesses for rej in c.rejected)
        has_trace = "rule engine" in str(c.certificate)
        assert has_parity_witness or has_trace, (name, r)
    report("4 negative verdicts", f"{len(cases)} empty complete classifications with proofs")


# --- criterion 5: oracle equivalence ------------------------------------------------

def test_criterion_5_membership_oracle_agreement():
    rng = random.Random(98231)
    start = time.perf_counter()
    total = 0
    trues = 0
    for s, x in agreement_instances(rng, 600):
        assert s.ambient.free_rank <= 2
        assert all(d <= 8 for d in s.ambient.torsion_orders)
        got = contains(s, x)
        assert got == brute_force_contains(s, x), (s, x)
        total += 1
        trues += got
    elapsed = time.perf_counter() - start
    assert total >= 500
    assert 0 < trues < total  # both verdicts genuinely exercised
    assert elapsed < 5.0, f"oracle run took {elapsed:.3f}s"
    report(
        "5 oracle equivalence",
        f"{total} instances, 100% agreement ({trues} members) in {elapsed:.2f}s",
    )


# --- criterion 6: property suites ----------------------------------------------------

def test_criterion_6a_monotonicity(catalog):
    checked = 0
    for space in catalog.spaces.values():
        h = catalog.lookup(space.H)
        for r in range(1, min(space.n, 9) + 1):
            c = classify(catalog, space, r)
            enum = enumerate_homs(catalog, space.H, r)
            by_name = {f.name: f for f in enum.families}
            for cl in c.classes:
                fam = by_name[cl.family]
                samples = [None] if not fam.parameterized else cl.constraint.sample(3)
                for s_val in samples:
                    phi = fam.pi1_map(h.pi1, s_val)
                    assert lifts(LiftQuery(space.n, r, space.sigma_pi1, phi)).lifts
                    for bigger in range(r + 1, 10):
                        q = LiftQuery(
                            space.n,
                            bigger,
                            space.sigma_pi1,
                            pushed_twist(phi, bigger),
                        )
                        assert lifts(q).lifts, (space.name, r, bigger)
                        checked += 1
    assert checked > 100
    report("6a monotonicity", f"{checked} induced queries all pass")


def test_criterion_6b_canonical_structure(catalog):
    checked = 0
    for space in catalog.spaces.values():
        if space.n < 3:
            continue
        c = canonical_structure(catalog, space)
        assert c.classes, space.name
        if c.r == 1:
            assert not parity_nonzero(space.sigma_pi1)
        else:
            assert c.r == space.n
            q = LiftQuery(space.n, space.n, space.sigma_pi1, space.sigma_pi1)
            assert lifts(q).lifts, space.name
        checked += 1
    report("6b canonical structure", f"passes lift test on {checked} spaces")


def test_criterion_6c_untwisted_uniqueness(catalog):
    for space in catalog.spaces.values():
        c = classify(catalog, space, 1)
        assert len(c.classes) in (0, 1), space.name
        assert c.complete
    report("6c untwisted uniqueness", f"{len(catalog.spaces)} spaces: 0 or 1 classes at r=1")


def test_criterion_6d_spin_criterion(catalog):
    # lift at r=1 iff the isotropy pi1 class vanishes; cross-checked
    # against the table rows of type 1
    type1 = {
        "S3:SU(2)", "S5:SU(3)", "S7:SU(4)",
        "S3:Sp(1)", "S7:Sp(2)", "S11:Sp(3)",
        "S7:Sp(2)·U(1)", "S7:Sp(2)·Sp(1)",
        "S6:G2", "S7:Spin(7)", "S15:Spin(9)", "S1:SO(2)",
    }
    for space in catalog.spaces.values():
        c = classify(catalog, space, 1)
        expected = not parity_nonzero(space.sigma_pi1)
        assert bool(c.classes) == expected, space.name
        assert bool(c.classes) == (space.name in type1), space.name
    report("6d spin criterion", "r=1 lift iff vanishing isotropy class; table types agree")


# --- criterion 7: holonomy application -------------------------------------------------

def test_criterion_7_holonomy(catalog):
    for m in range(3, 10):
        assert holonomy_lift(catalog, f"SO({m})", m, m).verdict == "yes"
    for k in (0, 1):
        group = f"Sp({2 * k + 1})·Sp(1)"
        assert holonomy_lift(catalog, group, 8 * k + 4, 2).verdict == "no"
    for m in (2, 3, 4):
        assert holonomy_lift(catalog, f"SU({m})", 2 * m, 1).verdict == "yes"
    report("7 holonomy", "SO yes (m=3..9); quaternion-Kaehler no (k=0,1); SU yes (m=2..4)")
