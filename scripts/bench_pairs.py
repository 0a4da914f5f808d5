#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on a parent commit and the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --workload census_ref --pairs 10 --seed 1
    python3 scripts/bench_pairs.py --parent HEAD --workload census_ref --workload sweep_135 \\
        --pairs 10 --seed 1 --out BENCH.json

Pair i uses seed ``--seed`` + i; even pairs run the parent first, odd pairs
the change first, and each pair runs every ``--workload`` back to back.
Each run gets a fresh copy of its side's files, with no ``__pycache__``:
the parent from ``git archive``, the change from the tracked and untracked,
not ignored files of the working tree.  The two copies sit at paths of the
same length, so path lengths cannot tell the sides apart.  Each run is
``python3 perfbench/run.py --workload W --seed S --trace 0`` in its copy, so
every run measures for the benchmark's own ``run_seconds``.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median, the parent's quartiles, the pairs the change won and the verdict:
a gain may be claimed when the change wins at least nine tenths of the
pairs, ties counting for neither, and the medians differ by more than the
parent's interquartile range, taken as ``perfbench/spread.py`` takes it
(``statistics.quantiles(values, n=4)``); the change is within bound when
its median is no worse than the parent's by more than the metric's bound.
``--out`` writes all of it, with every run's value, as JSON.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = [sys.executable, "perfbench/run.py"]
SIDES = ("parent", "change")  # names of equal length, for the copies' paths


def parent_files(root: Path, ref: str) -> bytes:
    """The tar archive of ``ref``'s files."""
    return subprocess.run(["git", "archive", "--format=tar", ref], cwd=root,
                          capture_output=True, check=True).stdout


def change_files(root: Path) -> list[str]:
    """The working tree's tracked and untracked, not ignored files."""
    out = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                         cwd=root, capture_output=True, check=True).stdout
    return [name for name in out.decode().split("\0") if name and (root / name).is_file()]


def fresh_copy(dest: Path, root: Path, archive: bytes | None, files: list[str]) -> None:
    """Empty ``dest`` and fill it from the archive, or else from ``files`` of ``root``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if archive is not None:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
        return
    for name in files:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(root / name, dest / name)


def run_once(command: list[str], cwd: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one benchmark run, as JSON."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, the parent's quartiles, wins and verdicts of one metric over
    paired runs (parent[i] with change[i])."""
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return {
        "parent_median": round(p_med, 4),
        "change_median": round(c_med, 4),
        "change_pct": round(100 * (c_med - p_med) / p_med, 2) if p_med else 0.0,
        "parent_q1": round(q1, 4),
        "parent_q3": round(q3, 4),
        "parent_iqr": round(q3 - q1, 4),
        "wins": wins,
        "bound": bound,
        "within_bound": sign * (c_med - p_med) <= bound * abs(p_med),
        "gain": 10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > q3 - q1,
        "parent": parent,
        "change": change,
    }


def main(argv: list[str] | None = None, command: list[str] = RUN, root: Path = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    ap.add_argument("--out", type=Path, default=None, help="write the results here as JSON")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2

    bench = json.loads((root / "BENCHMARK.json").read_text())
    archive, files = parent_files(root, args.parent), change_files(root)
    runs: dict[str, dict[str, list[dict]]] = {w: {s: [] for s in SIDES} for w in args.workload}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        for i in range(args.pairs):
            seed = args.seed + i
            for workload in args.workload:
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    copy = Path(work) / side
                    fresh_copy(copy, root, archive if side == "parent" else None, files)
                    runs[workload][side].append(run_once(command, copy, workload, seed))
                    shutil.rmtree(copy)
                print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr, flush=True)

    result = {
        "parent": args.parent,
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0, measuring for "
                   f"run_seconds = {bench['run_seconds']:g} of BENCHMARK.json",
        "pairs": args.pairs,
        "seeds": [args.seed, args.seed + args.pairs - 1],
        "order": "even pairs run the parent first, odd pairs the change first, each pair's "
                 "workloads back to back; each run from a fresh copy of its side's files at "
                 "a path of the same length, with no __pycache__ at the start",
        "quartiles": "statistics.quantiles(n=4), as perfbench/spread.py; iqr = q3 - q1 of the parent's runs",
        "win": "the change's value is better than the parent's in the same pair",
        "gain": "wins >= 9/10 of the pairs and the medians differ by more than the parent's iqr",
        "workloads": {},
    }
    for workload, sides in runs.items():
        metrics = {
            m["name"]: compare([r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                               [r["metrics"][m["name"]]["value"] for r in sides["change"]],
                               m["better"], m["bound"])
            for m in bench["end_to_end"]
        }
        result["workloads"][workload] = {
            "pairs": args.pairs,
            "all_correct": all(r["correct"] for s in SIDES for r in sides[s]),
            "failed_operations": {s: sum(r["failed"] for r in sides[s]) for s in SIDES},
            "attempted_operations": {s: sum(r["attempted"] for r in sides[s]) for s in SIDES},
            "metrics": metrics,
        }
        failed = result["workloads"][workload]["failed_operations"]
        print(f"== {workload}: {args.pairs} pairs, all correct "
              f"{result['workloads'][workload]['all_correct']}, failed operations "
              f"{failed['parent']} -> {failed['change']}")
        for name, m in metrics.items():
            print(f"{name:15} {m['parent_median']:>10.4f} -> {m['change_median']:>10.4f} "
                  f"({m['change_pct']:+.2f}%)  parent q1..q3 {m['parent_q1']:.4f}..{m['parent_q3']:.4f} "
                  f"(iqr {m['parent_iqr']:.4f})  wins {m['wins']}/{args.pairs}  "
                  f"{'within' if m['within_bound'] else 'WORSE than'} bound {m['bound']:g}"
                  f"{'  gain' if m['gain'] else ''}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
