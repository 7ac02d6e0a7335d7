#!/usr/bin/env python3
"""Smoke test for the benchmark: each workload at a tiny size, untraced and traced.

Run from the repository root (takes about a minute):

    python3 perfbench/smoke.py

For every run it checks that the benchmark exits 0 and that its last line
is a result whose metrics are exactly the BENCHMARK.json metrics with their
units and finite values, and that its correctness checks ran and passed.
It also checks that a copy holding only BENCHMARK.json and perfbench/ (no
csplade sources) exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "ingest", "query")


def bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    out = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stderr[-3000:]}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] > 1, where
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert list(got) == list(wanted), f"{where}: metric names differ from BENCHMARK.json"
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        assert math.isfinite(got[name]["value"]), f"{where}: {name} is not finite"
        if not trace:
            assert got[name]["value"] > 0, f"{where}: end-to-end {name} is 0"
    record = json.loads(lines[-2].removeprefix("record: "))
    assert record["input_sha256"] and record["environment"]["numpy"], where
    print(f"ok  {where}: {result['attempted']} checked operations, {len(got)} metrics")


def check_without_sources():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(bare, "train", 0)
    shutil.rmtree(bare)
    assert out.returncode != 0, "benchmark without sources exited 0"
    assert '"correct"' not in out.stdout, "benchmark without sources printed a result"
    print("ok  no sources: exit", out.returncode, "and no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
