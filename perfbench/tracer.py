"""Spans and counts around spinr's public functions, from outside.

`Tracer.install()` replaces each traced function under every name its
callers look it up by (modules that import a function by name hold
their own reference), and `uninstall()` puts the originals back.  A
span is (name, start, end, parent span); a layer's self time is its
span minus its direct children.  Spans are kept in memory, folded into
per-name totals as they end, and the first `keep` of them are written
out at the end of the run.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> every (module, attribute) a traced function is looked up
# by.  COUNTED entries record calls but no span: they are too small and
# too frequent for a span to be worth its cost.
SPANNED = {
    "catalogfile.parse": [("spinr.catalogfile", "parse")],
    "catalog.loads": [("spinr.catalog", "loads")],
    "catalog.load_default": [("spinr.catalog", "load_default"),
                             ("spinr.cli", "load_default")],
    "liecat.build_group": [("spinr.liecat", "build_group"),
                           ("spinr.catalog", "build_group")],
    "repcat.build_family": [("spinr.repcat", "build_family"),
                            ("spinr.catalog", "build_family")],
    "repcat.hom_rule_trace": [("spinr.repcat", "hom_rule_trace")],
    "repcat.enumerate_homs": [("spinr.repcat", "enumerate_homs"),
                              ("spinr.spaces", "enumerate_homs")],
    "spaces.build": [("spinr.spaces", "build_space"), ("spinr.catalog", "build_space"),
                     ("spinr.spaces", "build_holonomy"),
                     ("spinr.catalog", "build_holonomy")],
    "spaces.classify": [("spinr.spaces", "classify"), ("spinr.cli", "classify_op")],
    "spaces.invariant_spin_type": [("spinr.spaces", "invariant_spin_type"),
                                   ("spinr.cli", "invariant_spin_type")],
    "spaces.canonical_structure": [("spinr.spaces", "canonical_structure")],
    "spaces.holonomy_lift": [("spinr.spaces", "holonomy_lift"),
                             ("spinr.cli", "holonomy_lift")],
    "lifting.lifts": [("spinr.lifting", "lifts"), ("spinr.spaces", "lifts")],
    "lifting.lift_subgroup": [("spinr.lifting", "lift_subgroup")],
    "abelian.contains": [("spinr.abelian", "contains"), ("spinr.lifting", "contains")],
    "abelian.smith_diagonalize": [("spinr.abelian", "smith_diagonalize")],
}
COUNTED = {
    "lifting.parity": [("spinr.lifting", "parity"), ("spinr.spaces", "parity")],
    "abelian.mod2": [("spinr.abelian", "mod2"), ("spinr.lifting", "mod2")],
}


class Tracer:
    def __init__(self, keep: int = 20000):
        self.keep = keep
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)  # seconds
        self.self_time: dict[str, float] = defaultdict(float)
        self.extra: dict[str, int] = defaultdict(int)  # counts read off results
        self.ranks_scanned = 0  # classify calls made by invariant_spin_type
        self._stack: list[list] = []  # [name, span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self):
        wrapped = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, sites in table.items():
                for module_name, attr in sites:
                    module = sys.modules.get(module_name)
                    if module is None:  # spinr.cli is imported by cli runs only
                        continue
                    original = getattr(module, attr)
                    if original not in wrapped:
                        wrapped[original] = make(name, original)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapped[original])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, name, fn):
        def spanned(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self._count_result(name, args, result)
            return result

        return spanned

    @contextmanager
    def span(self, name: str):
        stack = self._stack
        parent = stack[-1] if stack else None
        if name == "spaces.classify" and parent and parent[0] == "spaces.invariant_spin_type":
            self.ranks_scanned += 1
        frame = [name, self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            if parent:
                parent[2] += duration
            if len(self.spans) < self.keep:
                self.spans.append((name, start, end, parent[1] if parent else -1))

    def _count_result(self, name, args, result):
        if name == "catalogfile.parse":
            self.extra["catalogfile.parse.records"] += len(result)
        elif name == "repcat.hom_rule_trace":
            self.extra["repcat.hom_rule_trace.lines"] += len(result.lines)
        elif name == "repcat.enumerate_homs":
            self.extra["repcat.enumerate_homs.families_scanned"] += len(args[0].families)
            self.extra["spaces.families_tested"] += len(result.families)

    # -- results -----------------------------------------------------------------

    def merge(self, data: dict):
        """Add the totals another process dumped with `dump_dict`."""
        for key in ("calls", "total", "self_time", "extra"):
            mine = getattr(self, key)
            for name, value in data[key].items():
                mine[name] += value
        self.ranks_scanned += data["ranks_scanned"]
        room = max(self.keep - len(self.spans), 0)
        self.spans.extend(tuple(s) for s in data["spans"][:room])

    def dump_dict(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "extra": dict(self.extra),
            "ranks_scanned": self.ranks_scanned,
            "spans": self.spans,
        }

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump_dict(), fh)


def layer_metrics(tr: Tracer, ops: int, scale: float) -> dict[str, float]:
    """Per-operation figures of the traced run; times in ms at the
    reference speed (`scale` is nominal ÷ measured reference)."""

    def per_op(x):
        return x / ops

    def ms(table, name):
        return table.get(name, 0.0) * 1000.0 * scale / ops

    calls = tr.calls
    tested = tr.extra.get("spaces.families_tested", 0)
    return {
        "catalogfile.parse.ms": ms(tr.total, "catalogfile.parse"),
        "catalogfile.parse.records": per_op(tr.extra.get("catalogfile.parse.records", 0)),
        "catalog.loads.self_ms": ms(tr.self_time, "catalog.loads"),
        "catalog.load_default.ms": ms(tr.total, "catalog.load_default"),
        "liecat.build_group.ms": ms(tr.total, "liecat.build_group"),
        "repcat.build_family.ms": ms(tr.total, "repcat.build_family"),
        "repcat.hom_rule_trace.calls": per_op(calls.get("repcat.hom_rule_trace", 0)),
        "repcat.hom_rule_trace.ms": ms(tr.total, "repcat.hom_rule_trace"),
        "repcat.hom_rule_trace.lines": per_op(tr.extra.get("repcat.hom_rule_trace.lines", 0)),
        "repcat.enumerate_homs.calls": per_op(calls.get("repcat.enumerate_homs", 0)),
        "repcat.enumerate_homs.self_ms": ms(tr.self_time, "repcat.enumerate_homs"),
        "repcat.enumerate_homs.families_scanned": per_op(
            tr.extra.get("repcat.enumerate_homs.families_scanned", 0)),
        "spaces.build.ms": ms(tr.total, "spaces.build"),
        "spaces.classify.calls": per_op(calls.get("spaces.classify", 0)),
        "spaces.classify.self_ms": ms(tr.self_time, "spaces.classify"),
        "spaces.families_tested": per_op(tested),
        "spaces.invariant_spin_type.ranks_scanned": per_op(tr.ranks_scanned),
        "spaces.holonomy_lift.self_ms": ms(tr.self_time, "spaces.holonomy_lift"),
        "lifting.lifts.calls": per_op(calls.get("lifting.lifts", 0)),
        "lifting.lifts.self_ms": ms(tr.self_time, "lifting.lifts"),
        "lifting.lift_subgroup.calls": per_op(calls.get("lifting.lift_subgroup", 0)),
        "lifting.lift_subgroup.ms": ms(tr.total, "lifting.lift_subgroup"),
        "lifting.parity.calls": per_op(calls.get("lifting.parity", 0)),
        "lifting.lifts.per_family": (
            calls.get("lifting.lifts", 0) / tested if tested else 0.0),
        "abelian.contains.calls": per_op(calls.get("abelian.contains", 0)),
        "abelian.contains.self_ms": ms(tr.self_time, "abelian.contains"),
        "abelian.smith_diagonalize.calls": per_op(calls.get("abelian.smith_diagonalize", 0)),
        "abelian.smith_diagonalize.ms": ms(tr.total, "abelian.smith_diagonalize"),
        "abelian.mod2.calls": per_op(calls.get("abelian.mod2", 0)),
    }
