#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json's bounds.

Runs ``run.py`` once per seed on each workload, untraced, and prints for
every end-to-end metric the median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread above a metric's bound fails the check; so do work
counts that differ between runs of one seed-independent workload.

    python3 perfbench/spread.py --seeds 10 [--workloads census_ref sweep_135]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    counts = next(line for line in lines if line.startswith("counts "))
    return json.loads(lines[-1]), counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            start = time.monotonic()
            result, counts = one_run(w, seed, bench["run_seconds"])
            runs.append((result, counts))
            took = time.monotonic() - start
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                + f" failed={result['failed']}/{result['attempted']} correct={result['correct']}"
                + f" ({took:.0f} s)",
                flush=True)
        ok &= all(r["correct"] for r, _ in runs)
        if w != "graph_queries" and len({c for _, c in runs}) != 1:
            ok = False
            print(f"{w}: work counts differ between runs")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, _ in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            within = spread <= m["bound"]
            ok &= within
            print(f"{w} {m['name']}: median {med:.5g} {m['unit']}, spread {spread:.3f} "
                  f"(bound {m['bound']}, a third {m['bound'] / 3:.3f})"
                  f"{'' if within else '  OVER BOUND'}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
