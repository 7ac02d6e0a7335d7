#!/usr/bin/env python3
"""Seed spread of MRR@10 on the ``train`` recipe.

Runs the ``train`` workload once per seed and writes the MRR@10 of each
(and the BM25 bar) to perfbench/mrr_seed_spread.json. Run from the
repository root; each seed takes about 40 s on 2 CPUs:

    python3 perfbench/mrr_sweep.py --seeds 0-7 --held-out 99

The held-out seed is not run: it is kept for confirming a quality claim
on a seed that was not looked at while the change was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-7"))
    parser.add_argument("--held-out", type=int, default=99)
    args = parser.parse_args(argv)
    if args.held_out in args.seeds:
        parser.error("the held-out seed must not be swept")
    runs = {}
    for seed in args.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "train",
                              "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                             cwd=HERE.parent, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        detail = json.loads(out.stdout.splitlines()[-2].removeprefix("record: "))["detail"]
        runs[seed] = {"mrr_at_10": detail["mrr_at_10"], "bm25_mrr_at_10": detail["bm25_mrr_at_10"]}
        print(seed, runs[seed], flush=True)
    mrr = [r["mrr_at_10"] for r in runs.values()]
    q1, _, q3 = statistics.quantiles(mrr, n=4)
    summary = {
        "recipe": "train workload: bi, adapt 200 steps (batch 16, seq-len 32, lr 1e-2), "
                  "train 50 epochs (650 steps, lr 3e-3), 8-bit index, MRR@10",
        "seeds": runs,
        "mean": statistics.mean(mrr), "min": min(mrr), "max": max(mrr),
        "median": statistics.median(mrr), "iqr_over_median": (q3 - q1) / statistics.median(mrr),
        "held_out_seed": args.held_out,
    }
    (HERE / "mrr_seed_spread.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
