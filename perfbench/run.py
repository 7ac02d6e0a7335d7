#!/usr/bin/env python3
"""csplade benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload {train,ingest,query} --seed N \
        --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's body once untraced and once traced and prints the per-layer
metrics and the tracing overhead. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it is the run record. Spans and the record are written under
``.perfbench_work/<workload>/``. The exit code is 0 only if every check
passed; it is 2, with no result, when the csplade sources are missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("autodiff", "encoder", "splade", "trainer", "corpus", "index", "evalkit",
           "quant", "cli", "_kernels")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p90": "ms",
    "index_bytes_per_posting": "B",
}


def run_for(seconds, once):
    """Repeat ``once`` while the next call is expected to end within
    ``seconds``; always at least once."""
    results = []
    t0 = perf_counter()
    while True:
        results.append(once())
        elapsed = perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(passes, setup_times, rss_mb):
    from workloads import pct
    op = [x for p in passes for x in p.op_ms]
    last = passes[-1].outputs
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "op_ms_p90": pct(op, 90),
        "index_bytes_per_posting": last["index_bytes"] / last["postings"],
    }


def traced_run(w, cs, base):
    """One traced set-up and body; per-layer metrics plus overhead."""
    import layers
    from tracing import Patches, Tracer
    tracer = Tracer()
    patches = Patches(getattr(cs, m) for m in MODULES)
    layers.install(tracer, patches, cs)
    w.tracer = tracer
    w.clock.pause = None
    try:
        _, same_inputs = w.timed_setup()
        p = w.body()
    finally:
        patches.restore()
        w.tracer = None
    w.verify(p)
    p.attempted += 1
    p.failed += int(not same_inputs)
    steps = [(tag, start, end) for _, tag, start, end in p.outputs.get("steps", ())]
    metrics = layers.summarize(tracer, p.unit_tags, p.units, steps)
    metrics["evalkit.mrr_at_10"] = float(p.detail.get("mrr_at_10", 0.0))
    metrics["trace.overhead_s"] = p.wall_s - base.wall_s
    metrics["trace.overhead_pct"] = 100.0 * (p.wall_s - base.wall_s) / base.wall_s
    tracer.save(w.dir / "spans.npz")
    return p, metrics


def fixture_in_child(args):
    """Run the workload's fixture in a child process and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--size", args.size, "--fixture"]
    t0 = perf_counter()
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"fixture failed ({out.returncode}):\n{out.stderr[-4000:]}")
    return perf_counter() - t0


def run(args, cs):
    import layers
    import record
    from tracing import Patches
    from workloads import WORKLOADS, pct

    workdir = ROOT / ".perfbench_work" / args.workload
    if not args.fixture:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
    probes = Patches(getattr(cs, m) for m in MODULES)
    try:
        w = WORKLOADS[args.workload](cs, workdir, args.seed, args.size == "tiny", probes)
        if args.fixture:
            w.fixture()
            return 0
        w.input_hashes = w.generate_inputs()
        fixture_s = fixture_in_child(args) if w.has_fixture() else 0.0
        # One set-up before the first pass, then inside the passes (see
        # Workload.clock), the rest at the end.
        setups = [w.timed_setup()]
        rss_mb = []  # peak RSS before the first check: the checks' memory is the benchmark's

        def sample_setup():
            if len(setups) < w.setup_reps:
                setups.append(w.timed_setup())

        w.clock.every, w.clock.pause = w.setup_every, sample_setup

        def checked_body():
            p = w.body()
            if not rss_mb:
                rss_mb.append(peak_rss_mb())
            w.verify(p)
            return p

        if args.trace:
            base = checked_body()
            traced, metrics = traced_run(w, cs, base)
            passes = [base, traced]
            units = layers.PER_LAYER_UNITS
        else:
            passes = run_for(args.seconds, checked_body)
            units = END_TO_END_UNITS
        while len(setups) < w.setup_reps:
            setups.append(w.timed_setup())
        if not args.trace:
            metrics = end_to_end(passes, [t for t, _ in setups], rss_mb[0])
    finally:
        probes.restore()

    attempted = len(setups) + sum(p.attempted for p in passes)
    failed = sum(not same for _, same in setups) + sum(p.failed for p in passes)
    rec = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "passes": len(passes),
        "setup_s": [t for t, _ in setups], "fixture_s": fixture_s,
        "work_s": statistics.mean(p.wall_s for p in passes),
        "op_ms_p95": pct([x for p in passes for x in p.op_ms], 95),
        "input_sha256": w.input_hashes, "detail": w.detail(passes),
        "environment": record.environment(ROOT),
    }
    (workdir / "record.json").write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
    samples = [{"wall_s": p.wall_s, "op_ms": p.op_ms, "aux_ms": p.aux_ms} for p in passes]
    (workdir / "samples.json").write_text(json.dumps(samples) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print("record: " + json.dumps(rec, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "ingest", "query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test inputs and step counts")
    parser.add_argument("--fixture", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "csplade" / "__init__.py").is_file():
        print(f"error: csplade sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import importlib
    cs = SimpleNamespace(**{m: importlib.import_module(f"csplade.{m}") for m in MODULES})
    try:
        return run(args, cs)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
