"""spinr's benchmark: one workload, one run.

    python3 perfbench/run.py --workload {cli,sweep,scale,load} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  The lines before it give the raw figures beside the
scaled ones.  Results and spans also go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

import harness
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("cli", "sweep", "scale", "load")
UNITS = {"ops_per_s": "1/s", "op_ms.p50": "ms", "op_ms.p90": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def make_workload(name: str, seed: int):
    if name == "cli":
        return workloads.cli(ROOT, OUT_DIR)
    if name == "sweep":
        return workloads.sweep()
    if name == "scale":
        return workloads.scale(seed)
    return workloads.load(seed)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = make_workload(name, seed)
    baseline_rss = harness.peak_rss_mb()
    w.warm()
    scaler = harness.Scaler(w.reference)
    setup_raw, setup_scaled, state = harness.time_setup(w.setup, scaler,
                                                        workloads.SETUP_REPEATS)
    tr = tracing.Tracer() if trace else None
    ops = w.make_ops(state, tr)
    probe = w.probe() if trace and w.probe else None
    out = harness.measure(ops, scaler, seconds, seed, ref_every=w.ref_every,
                          gc_first=w.gc_first, tracer=tr)
    ref_median = statistics.median(scaler.samples)
    completed = out.attempted - out.failed
    factor = w.reference.nominal_ms / ref_median

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": out.rounds, "attempted": out.attempted, "failed": out.failed,
        "wrong": out.wrong, "failures": out.messages,
        "reference": {"task": w.reference.name, "nominal_ms": w.reference.nominal_ms,
                      "median_ms": ref_median, "samples": len(scaler.samples),
                      "run_factor": factor},
        "raw": _timings(out.raw_ms, setup_raw, completed),
        "setup_samples_s": list(setup_raw),
    }
    if not trace:
        scaled = _timings(out.scaled_ms, setup_scaled, completed)
        scaled["peak_rss_mb"] = w.peak_rss_mb()
        if w.in_process:
            # The interpreter and the benchmark's own modules, loaded
            # before the first spinr import, are most of the peak.
            report["peak_rss_above_baseline_mb"] = scaled["peak_rss_mb"] - baseline_rss
        metrics = {k: (v, UNITS[k]) for k, v in scaled.items()}
    else:
        # Span totals cannot be paired with single references, so the
        # per-layer times use the run's median reference.
        layers = tracing.layer_metrics(tr, out.attempted, factor)
        layers["trace.overhead_ms"] = (
            (sum(out.traced_ms) - sum(out.scaled_ms)) / len(out.traced_ms))
        floor_ms = import_ms = main_self = 0.0
        if probe:
            floor, imported = probe
            floor_ms = statistics.median(floor)
            import_ms = (statistics.median(imported) - floor_ms) * factor
            main_self = tr.self_time.get("cli.main", 0.0) * 1000.0 * factor / out.attempted
        layers["cli.interpreter_floor_ms"] = floor_ms  # raw: scaled, it is the nominal
        layers["cli.import_ms"] = import_ms
        layers["cli.main.self_ms"] = main_self
        metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
        tr.write(os.path.join(OUT_DIR, f"{name}-seed{seed}.spans.json"))
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return report


def _timings(op_ms, setup_s, completed: int) -> dict:
    """`ops_per_s` counts the operations that did not fail, over the
    time of all operations; references, collections and checks between
    them are the benchmark's own work and are left out."""
    return {
        "ops_per_s": completed / (sum(op_ms) / 1000.0),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": harness.p90(op_ms),
        "setup_s": statistics.median(setup_s),
    }


def _layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name == "lifting.lifts.per_family":
        return "ratio"
    return "count"


def print_report(rep: dict):
    ref = rep["reference"]
    print(f"workload {rep['workload']} seed {rep['seed']} trace {rep['trace']}: "
          f"{rep['rounds']} rounds, {rep['attempted']} attempted, {rep['failed']} failed")
    print(f"reference {ref['task']!r}: median {ref['median_ms']:.3f} ms over "
          f"{ref['samples']} samples, nominal {ref['nominal_ms']} ms, "
          f"run factor {ref['run_factor']:.4f}")
    for key, value in rep["raw"].items():
        print(f"  raw    {key:28s} {value:.6g}")
    for key, m in rep["metrics"].items():
        print(f"  scaled {key:28s} {m['value']:.6g} {m['unit']}")
    if "peak_rss_above_baseline_mb" in rep:
        print(f"  peak RSS above the baseline before importing spinr "
              f"{rep['peak_rss_above_baseline_mb']:.6g} MB")
    for message, count in rep["failures"].items():
        print(f"  failure x{count}: {message}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spinr", "__init__.py")):
        print(f"perfbench: no spinr sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("SPINR_CATALOG", None)
    os.makedirs(OUT_DIR, exist_ok=True)
    # Timed processes load spinr from bytecode, as an installed one does,
    # whatever bytecode the tree holds: a fresh cache that this run fills
    # while warming up, used by this process and its children alike.
    pycache = os.path.join(OUT_DIR, f"pycache-{os.getpid()}")
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = pycache
    sys.dont_write_bytecode = False
    sys.pycache_prefix = pycache
    try:
        rep = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1)
    print_report(rep)
    print(json.dumps({
        "correct": rep["wrong"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": rep["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
