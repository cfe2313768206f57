"""The timed loop shared by every workload.

Raw wall times on a shared host drift by more than a tenth between
seconds-long windows, so each run interleaves a fixed reference task
with its operations and reports every time multiplied by
(nominal reference time ÷ the mean of the reference measurements just
before and just after it).  Raw figures are kept beside the scaled ones.

A run attempts whole rounds only: every round is the same list of
operations in an order drawn from the seed, so the share of failed
operations is the same in every run.
"""

from __future__ import annotations

import gc
import random
import re
import resource
import statistics
import subprocess
import sys
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


class Failed(Exception):
    """The program did not answer: a crash, a traceback, a bad exit code."""


# --- reference tasks -------------------------------------------------------------

@dataclass(frozen=True)
class _Rec:
    key: str
    value: int
    residues: tuple


_REF_LINE = re.compile(r"^\s*(\w+)\s*:\s*(-?\d+)$")
_REF_TEXT = "\n".join(f"  k{i % 37}: {i * 7 % 101}" for i in range(600))


def reference_mix() -> float:
    """Fixed pure-Python work with the mix of spinr's in-process
    operations: regex parsing, frozen dataclass records, dict grouping
    and small integer row reductions.  It calls nothing in spinr, so no
    change to spinr moves it; returns ms."""
    t0 = perf_counter()
    groups: dict[str, list[_Rec]] = {}
    for line in _REF_TEXT.splitlines():
        m = _REF_LINE.match(line)
        v = int(m.group(2))
        groups.setdefault(m.group(1), []).append(
            _Rec(m.group(1), v, tuple(v % d for d in (2, 3, 5))))
    total = 0
    for recs in groups.values():
        rows = [list(r.residues) for r in recs[:3]]
        for i in range(1, len(rows)):
            q = rows[i][0] - rows[0][0]
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[0])]
        total += sum(map(sum, rows))
    return (perf_counter() - t0) * 1000.0


CHILD_TIMEOUT_S = 60.0


def run_child(argv: list[str], env: dict, cwd: str):
    """Run a process to its end; returns (exit code, stdout, stderr).

    `subprocess.run(timeout=...)` notices the exit by polling with
    growing sleeps, which rounds short runs up to the next poll.  A
    blocking wait is exact, so a timer thread enforces the timeout.
    """
    with subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
            timer.join()
    return proc.returncode, out.decode("utf-8"), err.decode("utf-8")


def reference_interpreter(env: dict, cwd: str) -> float:
    """A bare interpreter start, `python -c pass`; returns ms."""
    t0 = perf_counter()
    code, _, err = run_child([sys.executable, "-c", "pass"], env, cwd)
    if code != 0:
        raise RuntimeError(f"python -c pass: exit {code}: {err.strip()[-200:]}")
    return (perf_counter() - t0) * 1000.0


@dataclass
class Reference:
    name: str
    nominal_ms: float
    run: Callable[[], float]


# --- operations ------------------------------------------------------------------

@dataclass
class Op:
    """One operation: `call` does the work and returns its output,
    `check` raises `Failed` or `Wrong` on a bad output.  `traced_call`
    runs the same work with tracing on, when it differs from `call`."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    traced_call: Callable[[], object] | None = None


class Scaler:
    """Scales each raw time by nominal ÷ the mean of the two reference
    measurements around it, so that drift slower than one reference
    interval cancels.  Times wait in `pending` for the next reference."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.samples: list[float] = []
        self.pending: list[tuple[array, float]] = []

    def reference(self):
        gc.collect()
        ms = self.ref.run()
        gc.collect()
        if self.pending:
            factor = self.ref.nominal_ms * 2.0 / (self.samples[-1] + ms)
            for target, raw in self.pending:
                target.append(raw * factor)
            self.pending.clear()
        self.samples.append(ms)

    def add(self, target: array, raw_ms: float):
        """Queue a time measured after the latest reference."""
        self.pending.append((target, raw_ms))


@dataclass
class Outcome:
    raw_ms: array = field(default_factory=lambda: array("d"))
    scaled_ms: array = field(default_factory=lambda: array("d"))
    traced_ms: array = field(default_factory=lambda: array("d"))  # scaled, paired
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    messages: dict[str, int] = field(default_factory=dict)
    rounds: int = 0

    def note(self, label: str, err: Exception):
        key = f"{label}: {type(err).__name__}: {str(err)[:200]}"
        self.messages[key] = self.messages.get(key, 0) + 1


def _attempt(op: Op, call, out: Outcome, gc_first: bool) -> float:
    if gc_first:
        gc.collect()
    t0 = perf_counter()
    try:
        result = call()
    except Exception as err:  # the program raised: a failed operation
        dt = (perf_counter() - t0) * 1000.0
        out.failed += 1
        out.note(op.label, err)
        return dt
    dt = (perf_counter() - t0) * 1000.0
    try:
        op.check(result)
    except Failed as err:
        out.failed += 1
        out.note(op.label, err)
    except Exception as err:  # Wrong, or an output too malformed to check
        out.failed += 1
        out.wrong += 1
        out.note(op.label, err)
    return dt


MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile


def measure(ops: list[Op], scaler: Scaler, seconds: float, seed: int, *,
            ref_every: int, gc_first: bool, tracer=None) -> Outcome:
    """Run whole rounds of `ops` until the next round would pass
    `seconds` and, untraced, at least `MIN_OPS` operations are done.
    A reference measurement comes every `ref_every` operations and, if
    `gc_first`, a full collection before each operation; both lie
    outside the timed region.  With a tracer, every operation runs twice
    in a row, untraced then traced, so the difference is the tracing
    overhead."""
    rng = random.Random(seed)
    out = Outcome()
    deadline = perf_counter() + seconds
    count = 0
    last_round = 0.0
    while True:
        start = perf_counter()
        enough = tracer is not None or out.attempted >= MIN_OPS
        if out.rounds and enough and start + last_round > deadline:
            break
        order = ops[:]
        rng.shuffle(order)
        for op in order:
            if count % ref_every == 0:
                scaler.reference()
            count += 1
            out.attempted += 1
            dt = _attempt(op, op.call, out, gc_first)
            out.raw_ms.append(dt)
            scaler.add(out.scaled_ms, dt)
            if tracer is not None:
                if op.traced_call is not None:
                    dt = _traced(op, op.traced_call, out, gc_first, None)
                else:
                    dt = _traced(op, op.call, out, gc_first, tracer)
                scaler.add(out.traced_ms, dt)
        out.rounds += 1
        last_round = perf_counter() - start
    scaler.reference()
    return out


def _traced(op: Op, call, out: Outcome, gc_first: bool, tracer) -> float:
    """A traced repeat of an operation.  Its failures are not counted
    again, but a wrong answer still marks the run incorrect."""
    repeat = Outcome()
    if tracer is not None:
        tracer.install()
    try:
        dt = _attempt(op, call, repeat, gc_first)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out.wrong += repeat.wrong
    for key, n in repeat.messages.items():
        out.messages["traced " + key] = out.messages.get("traced " + key, 0) + n
    return dt


def time_setup(setup: Callable[[], object], scaler: Scaler, repeats: int):
    """Time `repeats` set-ups between reference measurements; returns
    raw and scaled seconds and the state the last set-up built."""
    raw, scaled, state = array("d"), array("d"), None
    for _ in range(repeats):
        scaler.reference()
        t0 = perf_counter()
        state = setup()
        raw.append(perf_counter() - t0)
        scaler.add(scaled, raw[-1])
    scaler.reference()
    return raw, scaled, state


# --- statistics ----------------------------------------------------------------------

def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
