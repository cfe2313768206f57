"""The four workloads.  Each stresses a different layer of spinr:

* `cli`   -- sequential `python -m spinr.cli` processes: interpreter
             start, import, bundled catalog load and rendering;
* `sweep` -- every public decision on the bundled catalog, in process:
             the lift test (`lifting`, `abelian`) does most of the work;
* `scale` -- `invariant_spin_type` on generated spheres up to S^199,
             where per-rank costs (`enumerate_homs`, `lift_subgroup`)
             grow with n and with the catalog size;
* `load`  -- `spinr.catalog.loads` of a generated ~6,000-line catalog:
             parsing, record building and cross-validation only.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import checks
import gencat
from checks import require
from harness import (Failed, Op, Reference, peak_rss_mb, reference_interpreter,
                     reference_mix, run_child)

SCALE_MAX_K = 200
# Spheres S^n:SO(n+1) timed by `scale`: the two special cases n = 2
# (a parameterised family) and n = 4 (the exceptional value 3), then n
# spread up to the largest sphere of the catalog.  With 15 spheres
# (5 mod 10) the median and the 90th percentile fall inside the
# latencies of one sphere, not on the edge between two.
SCALE_NS = (2, 4, *range(13, SCALE_MAX_K, 15))
LOAD_SIZE = 36  # series index bound of the `load` catalog: ~6,000 lines

# Nominal reference times: typical values on the host the README's
# figures come from, so that scaled times read close to raw ones there.
NOMINAL_MIX_MS = 3.2
NOMINAL_INTERPRETER_MS = 65.0
SETUP_REPEATS = 5  # set-ups timed per run; `setup_s` is their median
PROBE_PAIRS = 6  # bare and importing interpreter starts per traced cli run


@dataclass
class Workload:
    name: str
    reference: Reference
    ref_every: int  # operations between two reference measurements
    gc_first: bool  # full collection before each operation
    setup: Callable[[], object]
    make_ops: Callable[[object, object], list[Op]]  # (set-up state, tracer)
    # Untimed, before the first set-up: imports and compiles to bytecode
    # everything the timed work loads.
    warm: Callable[[], object]
    # Traced cli runs only: pairs of bare and importing interpreter starts.
    probe: Callable[[], tuple[list[float], list[float]]] | None = None
    # Peak resident memory of the process doing the work, in MB.
    peak_rss_mb: Callable[[], float] = peak_rss_mb

    @property
    def in_process(self) -> bool:
        """False for `cli`, whose work runs in child processes."""
        return self.reference is MIX


def spinr_modules():
    import spinr.catalog
    import spinr.spaces

    return spinr.catalog, spinr.spaces


def _sigma(images) -> list[int]:
    """Integer coordinates of isotropy images in pi1(SO(n))."""
    return [img.coords[0] if img.coords else 0 for img in images]


MIX = Reference("mix", NOMINAL_MIX_MS, reference_mix)


# --- sweep ---------------------------------------------------------------------------

def _fresh_import_and_load():
    """Import spinr afresh and load the bundled catalog."""
    for name in [m for m in sys.modules if m == "spinr" or m.startswith("spinr.")]:
        del sys.modules[name]
    catalog_mod, _ = spinr_modules()
    return catalog_mod.load_default()


def _check_classification(c, name, sigma, n, r, fams, expected):
    where = f"classify {name} r={r}"
    require(c.space == name and c.r == r, f"{where}: answered for {c.space} r={c.r}")
    checks.check_classes(checks.class_triples(c.classes), sigma, n, r, fams, where)
    checks.check_witnesses(checks.rejected_pairs(c.rejected), n, r, where)
    infinite = any(x.constraint is not None for x in c.classes)
    require(c.count == (None if infinite else len(c.classes)), f"{where}: bad count")
    if expected is not None:
        # Below the spin type nothing lifts and the enumeration is
        # complete; at the spin type something does.
        if r < expected:
            require(not c.classes and c.complete, f"{where}: classes below the spin type")
        elif r == expected:
            require(bool(c.classes), f"{where}: no class at the spin type {expected}")


def _check_spin_type(res, name, sigma, n, fams, expected):
    where = f"spin-type {name}"
    require(res.status == "exact", f"{where}: status {res.status}, expected exact")
    require(res.value == expected, f"{where}: {res.value}, closed form gives {expected}")
    require(bool(res.witnesses), f"{where}: no witness")
    checks.check_classes(checks.class_triples(res.witnesses), sigma, n, res.value,
                         fams, where)


def _check_holonomy(v, group, m, r, images, fams):
    checks.check_holonomy(f"holonomy {group} m={m} r={r}", m, r, v.verdict,
                          checks.class_triples(v.via), v.complete,
                          checks.rejected_pairs(v.rejected), images, fams)


def sweep_ops(catalog, _tracer=None) -> list[Op]:
    _, spaces = spinr_modules()
    fams = checks.affine_table(catalog.families)
    ops = []
    for name, sp in sorted(catalog.spaces.items()):
        sigma, n = _sigma(sp.sigma_pi1.images), sp.n
        expected = checks.expected_spin_type(name)
        for r in range(1, n + 1):
            ops.append(Op(
                f"classify {name} r={r}",
                lambda sp=sp, r=r: spaces.classify(catalog, sp, r),
                lambda c, name=name, sigma=sigma, n=n, r=r, e=expected:
                    _check_classification(c, name, sigma, n, r, fams, e),
            ))
        ops.append(Op(
            f"spin-type {name}",
            lambda sp=sp: spaces.invariant_spin_type(catalog, sp),
            lambda res, name=name, sigma=sigma, n=n, e=expected:
                _check_spin_type(res, name, sigma, n, fams, e),
        ))
        if n >= 3:
            ops.append(Op(
                f"canonical {name}",
                lambda sp=sp: spaces.canonical_structure(catalog, sp),
                lambda c, name=name, sigma=sigma, n=n: checks.check_classes(
                    checks.class_triples(c.classes), sigma, n, c.r, fams,
                    f"canonical {name}"),
            ))
    for (group, m), rec in sorted(catalog.holonomies.items()):
        images = _sigma(rec.h_pi1.images)
        for r in range(1, m + 1):
            ops.append(Op(
                f"holonomy {group} m={m} r={r}",
                lambda group=group, m=m, r=r: spaces.holonomy_lift(catalog, group, m, r),
                lambda v, group=group, m=m, r=r, images=images:
                    _check_holonomy(v, group, m, r, images, fams),
            ))
    return ops


def sweep() -> Workload:
    return Workload("sweep", MIX, ref_every=375, gc_first=False,
                    setup=_fresh_import_and_load, make_ops=sweep_ops, warm=spinr_modules)


# --- scale ------------------------------------------------------------------------------

def scale(seed: int) -> Workload:
    def setup():
        catalog_mod, _ = spinr_modules()
        gen = gencat.scale_catalog(SCALE_MAX_K, seed)
        return gen, catalog_mod.loads(gen.text, "scale.txt")

    def make_ops(state, _tracer):
        gen, catalog = state
        _check_counts(catalog, gen)
        _, spaces = spinr_modules()
        ops = []
        for n in SCALE_NS:
            name = f"S{n}:SO({n + 1})"
            G, _, sigma = gen.spaces[name]
            sp = catalog.space(name)
            ops.append(Op(
                f"spin-type {name}",
                lambda sp=sp: spaces.invariant_spin_type(catalog, sp),
                lambda res, name=name, sigma=sigma, n=n, G=G: _check_spin_type(
                    res, name, sigma, n, gen.families, checks.sphere_spin_type(G, n)),
            ))
        return ops

    return Workload("scale", MIX, ref_every=1, gc_first=True,
                    setup=setup, make_ops=make_ops, warm=spinr_modules)


# --- load -----------------------------------------------------------------------------------

def _check_counts(catalog, gen: gencat.Generated):
    require(len(catalog.groups) == gen.groups,
            f"{len(catalog.groups)} groups loaded, {gen.groups} written")
    require(len(catalog.families) == len(gen.families),
            f"{len(catalog.families)} families loaded, {len(gen.families)} written")
    require(len(catalog.spaces) == len(gen.spaces),
            f"{len(catalog.spaces)} spaces loaded, {len(gen.spaces)} written")
    require(len(catalog.holonomies) == len(gen.holonomies),
            f"{len(catalog.holonomies)} holonomy records loaded, "
            f"{len(gen.holonomies)} written")


def _reduce(values, n: int) -> list[int]:
    """Coordinates of integers read into pi1(SO(n))."""
    if n == 1:
        return [0] * len(values)
    return [v % 2 if n >= 3 else v for v in values]


def check_loaded(catalog, gen: gencat.Generated):
    """A loaded catalog holds exactly what the generator wrote."""
    _check_counts(catalog, gen)
    for name, (G, n, sigma) in gen.spaces.items():
        sp = catalog.spaces.get(name)
        require(sp is not None, f"space {name} missing")
        require((sp.G, sp.n) == (G, n), f"{name}: G={sp.G} n={sp.n}")
        require(_sigma(sp.sigma_pi1.images) == _reduce(sigma, n),
                f"{name}: sigma images {_sigma(sp.sigma_pi1.images)}, wrote {sigma}")
    for (group, m), images in gen.holonomies.items():
        rec = catalog.holonomies.get((group, m))
        require(rec is not None, f"holonomy {group} m={m} missing")
        require(_sigma(rec.h_pi1.images) == _reduce(images, m),
                f"holonomy {group} m={m}: images differ")
    loaded = checks.affine_table(catalog.families)
    require(loaded == gen.families, "family images differ from the written ones")


def load(seed: int) -> Workload:
    def make_ops(gen, _tracer):
        catalog_mod, _ = spinr_modules()
        return [Op(
            "loads",
            lambda: catalog_mod.loads(gen.text, "load.txt"),
            lambda catalog: check_loaded(catalog, gen),
        )]

    return Workload("load", MIX, ref_every=1, gc_first=True,
                    setup=lambda: gencat.load_catalog(LOAD_SIZE, seed),
                    make_ops=make_ops, warm=spinr_modules)


# --- cli ------------------------------------------------------------------------------------

@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


class Cli:
    """Runs spinr commands as child processes of the benchmark."""

    def __init__(self, root: str, out_dir: str):
        self.root = root
        self.env = {k: v for k, v in os.environ.items() if k != "SPINR_CATALOG"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.spans_path = os.path.join(out_dir, f"child-{os.getpid()}.json")
        self.child = os.path.join(root, "perfbench", "cli_child.py")
        self.rss_probe = os.path.join(root, "perfbench", "rss_probe.py")

    def run(self, argv: list[str], module: bool = True) -> CliRun:
        head = [sys.executable, "-m", "spinr.cli"] if module else [sys.executable]
        return CliRun(*run_child([*head, *argv], self.env, self.root))

    def peak_rss_mb(self, commands: list[list[str]]) -> float:
        """The largest peak resident memory of one process per command.
        Linux counts the memory of the process that starts a child in
        the child's peak, so a small interpreter of its own starts them."""
        argvs = [[sys.executable, "-m", "spinr.cli", *argv] for argv in commands]
        code, out, err = run_child([sys.executable, self.rss_probe, json.dumps(argvs)],
                                   self.env, self.root)
        if code != 0:
            raise RuntimeError(f"rss_probe: exit {code}: {err.strip()[-300:]}")
        return max(json.loads(out)) / 1024.0  # KiB on Linux

    def run_traced(self, argv: list[str], tracer) -> CliRun:
        run = CliRun(*run_child([sys.executable, self.child, self.spans_path, *argv],
                                self.env, self.root))
        with open(self.spans_path, encoding="utf-8") as fh:
            tracer.merge(json.load(fh))
        os.remove(self.spans_path)
        return run



def _answered(run: CliRun, where: str):
    if "Traceback" in run.stderr or run.code != 0:
        raise Failed(f"{where}: exit {run.code}: {run.stderr.strip()[-300:]}")


_INSTANCE_RE = re.compile(r"(S\d+:[^\s,|]+) -> (\S+?)(?=,|\s*\|)")
_MD_CLASS_RE = re.compile(r"^\| (\S+) \| (\S+) \| (.+?) \|$")
_MD_WITNESS_RE = re.compile(r"(\w+) -> \(([-\d, ]*)\)")


def _check_table1_md(run: CliRun):
    _answered(run, "table1")
    found = _INSTANCE_RE.findall(run.stdout)
    require(bool(found), "table1: no instances in the markdown table")
    for name, value in found:
        expected = checks.expected_spin_type(name)
        require(value == str(expected), f"table1: {name} -> {value}, closed form {expected}")
    require("regression match: True" in run.stdout, "table1: regression match is not True")


def _check_table1_json(run: CliRun, validator):
    _answered(run, "table1 --format json")
    record = json.loads(run.stdout)
    checks.check_schema(validator, record, "table1")
    require(record["match"] is True, "table1: match is not true")
    count = 0
    for row in record["rows"]:
        for inst in row["instances"]:
            count += 1
            expected = checks.expected_spin_type(inst["space"])
            require(inst["computed"] == expected and inst["status"] == "exact",
                    f"table1: {inst['space']} -> {inst['computed']} ({inst['status']}),"
                    f" closed form {expected}")
    require(count > 0, "table1: no instances")


def _md_classes(lines) -> list[tuple]:
    out = []
    for line in lines:
        m = _MD_CLASS_RE.match(line)
        if m and m.group(1) not in ("family", "---"):
            label = None if m.group(2) == "-" else m.group(2)
            constraint = None if m.group(3) == "-" else m.group(3)
            out.append((m.group(1), label, constraint))
    return out


def _md_bullets(lines) -> list[tuple]:
    """`- family [tag]` lines: the tag is a label or a congruence."""
    out = []
    for line in lines:
        m = re.match(r"^- (\S+)(?: \[(.+)\])?$", line)
        if m:
            tag = m.group(2)
            is_constraint = tag is not None and tag.startswith("s ")
            out.append((m.group(1), None if is_constraint else tag,
                        tag if is_constraint else None))
    return out


class CliChecks:
    def __init__(self, root: str):
        import jsonschema

        catalog_mod, _ = spinr_modules()
        self.catalog = catalog_mod.load_default()
        self.fams = checks.affine_table(self.catalog.families)
        with open(os.path.join(root, "src", "spinr", "data", "output.schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        self.validator = jsonschema.validators.validator_for(schema)(schema)

    def space(self, name):
        sp = self.catalog.space(name)
        return _sigma(sp.sigma_pi1.images), sp.n

    def classify_md(self, name, r):
        def check(run: CliRun):
            where = f"classify {name} r={r}"
            _answered(run, where)
            sigma, n = self.space(name)
            lines = run.stdout.splitlines()
            m = re.search(r"^- classes: (\S+)$", run.stdout, re.M)
            require(m is not None, f"{where}: no class count")
            classes = _md_classes(lines)
            require(bool(classes), f"{where}: no class at the spin type")
            if m.group(1) != "infinite":
                require(int(m.group(1)) == len(classes), f"{where}: count vs rows")
            checks.check_classes(classes, sigma, n, r, self.fams, where)
            rejected = []
            for line in lines:
                if line.startswith("- ") and " -> (" in line:
                    fam, rest = line[2:].split(": ", 1)
                    ws = [(g, [int(x) for x in coords.split(",") if x.strip()])
                          for g, coords in _MD_WITNESS_RE.findall(rest)]
                    rejected.append((fam, ws))
            checks.check_witnesses(rejected, n, r, where)
        return check

    def classify_json(self, name, r):
        def check(run: CliRun):
            where = f"classify {name} r={r} json"
            _answered(run, where)
            record = json.loads(run.stdout)
            checks.check_schema(self.validator, record, where)
            sigma, n = self.space(name)
            res = record["result"]
            classes = checks.json_classes(res["classes"])
            require(bool(classes), f"{where}: no class at the spin type")
            checks.check_classes(classes, sigma, n, r, self.fams, where)
            checks.check_witnesses(checks.json_rejected(res["rejected"]), n, r, where)
        return check

    def spin_type_md(self, name):
        def check(run: CliRun):
            where = f"spin-type {name}"
            _answered(run, where)
            expected = checks.expected_spin_type(name)
            lines = run.stdout.splitlines()
            require(lines[0] == f"invariant spin type of {name} = {expected}",
                    f"{where}: {lines[0]!r}, closed form {expected}")
            require("status: exact" in lines, f"{where}: not exact")
            sigma, n = self.space(name)
            witnesses = _md_bullets(lines)
            require(bool(witnesses), f"{where}: no witness")
            checks.check_classes(witnesses, sigma, n, expected, self.fams, where)
        return check

    def _holonomy(self, group, m, r, verdict, via, complete, rejected, where):
        images = _sigma(self.catalog.holonomy(group, m).h_pi1.images)
        checks.check_holonomy(where, m, r, verdict, via, complete, rejected, images,
                              self.fams)

    def holonomy_md(self, group, m, r):
        def check(run: CliRun):
            where = f"holonomy {group} m={m} r={r}"
            _answered(run, where)
            lines = run.stdout.splitlines()
            head = f"holonomy {group} on R^{m} lifts at twist rank {r}: "
            require(lines[0].startswith(head), f"{where}: {lines[0]!r}")
            complete = "complete enumeration: True" in lines
            self._holonomy(group, m, r, lines[0][len(head):], _md_bullets(lines),
                           complete, [], where)
        return check

    def holonomy_json(self, group, m, r):
        def check(run: CliRun):
            where = f"holonomy {group} m={m} r={r} json"
            _answered(run, where)
            record = json.loads(run.stdout)
            checks.check_schema(self.validator, record, where)
            res = record["result"]
            self._holonomy(group, m, r, res["verdict"], checks.json_classes(res["via"]),
                           res["complete"], checks.json_rejected(res["rejected"]), where)
        return check

    def table1_json(self, run: CliRun):
        _check_table1_json(run, self.validator)


def check_rank_zero(run: CliRun):
    """`classify --r 0` must end in a one-line message with an exit code
    of its own: 0 is success and 1 means a regression mismatch."""
    message = run.stderr.strip()
    if run.code in (0, 1) or "Traceback" in run.stderr or "\n" in message or not message:
        last = message.splitlines()[-1] if message else ""
        raise Failed(f"classify --r 0: exit {run.code}, {last[:200]!r}")


HOLONOMY = "Sp(3)·Sp(1)"


def cli_cycle(chk: CliChecks) -> list[tuple[list[str], Callable[[CliRun], None]]]:
    return [
        (["table1"], _check_table1_md),
        (["table1", "--format", "json"], chk.table1_json),
        (["classify", "S4:SO(5)", "--r", "3"], chk.classify_md("S4:SO(5)", 3)),
        (["classify", "S2:SO(3)", "--r", "2", "--format", "json"],
         chk.classify_json("S2:SO(3)", 2)),
        (["spin-type", "S8:SO(9)"], chk.spin_type_md("S8:SO(9)")),
        (["spin-type", "S6:G2", "--strict"], chk.spin_type_md("S6:G2")),
        (["holonomy", HOLONOMY, "--m", "12", "--r", "2"], chk.holonomy_md(HOLONOMY, 12, 2)),
        (["holonomy", HOLONOMY, "--m", "12", "--r", "2", "--format", "json"],
         chk.holonomy_json(HOLONOMY, 12, 2)),
        (["classify", "S4:SO(5)", "--r", "0"], check_rank_zero),
    ]


def cli(root: str, out_dir: str) -> Workload:
    runner = Cli(root, out_dir)
    ref = Reference("python -c pass", NOMINAL_INTERPRETER_MS,
                    lambda: reference_interpreter(runner.env, root))
    cycle = cli_cycle(CliChecks(root))

    def setup():
        run = runner.run(["table1"])
        _check_table1_md(run)
        return run

    def make_ops(_state, tracer):
        return [
            Op(" ".join(argv), lambda argv=argv: runner.run(argv), check,
               traced_call=lambda argv=argv: runner.run_traced(argv, tracer))
            for argv, check in cycle
        ]

    def warm():
        """One untimed process per command of the cycle, so that every
        module the timed processes load is already compiled."""
        for argv, _ in cycle:
            runner.run(argv)

    def probe():
        floor, imported = [], []
        for _ in range(PROBE_PAIRS):
            floor.append(ref.run())
            t0 = perf_counter()
            run = runner.run(["-c", "import spinr.cli"], module=False)
            imported.append((perf_counter() - t0) * 1000.0)
            _answered(run, "import spinr.cli")
        return floor, imported

    return Workload("cli", ref, ref_every=3, gc_first=False, setup=setup,
                    make_ops=make_ops, warm=warm, probe=probe,
                    peak_rss_mb=lambda: runner.peak_rss_mb([argv for argv, _ in cycle]))
