#!/usr/bin/env python3
"""Census benchmark for metacirc: one workload, one seed, one run.

    python3 perfbench/run.py --workload census_ref --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, untraced and traced

A run starts a fresh interpreter (``worker.py``) for every pass over the
workload's operations, so each pass sees cold caches; it makes as many
passes as ``--seconds`` holds at the workload's nominal pass time (a traced
run alternates untraced and traced passes and has at least one of each).  It
checks every answer against ``golden/``, prints every metric by name and
unit, writes the run's record to ``perfbench/out/``, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import workloads  # noqa: E402

SETUP_PROBES = 8        # set-up-only interpreters per run, besides the passes
PASS_TIMEOUT = 150      # seconds; no pass of the seed commit comes near it
# the exact work counts every run prints
COUNTED = ("groups.candidates_raw", "groups.candidates_connected", "aut.orbits",
           "aut.perm_images", "classify.reps_analyzed", "permgroup.normalizer_elements",
           "autosearch.generators")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------- passes

def spawn(workload: str, seed: int, *, pass_index: int = 0, trace: bool = False,
          setup_only: bool = False, spans_file: Path | None = None,
          only: list[int] | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if spans_file is not None:
        cmd += ["--spans-file", str(spans_file)]
    if only is not None:
        cmd += ["--only", *map(str, only)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT} s") from exc
    end = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    result["pass_s"] = end - start
    result["traced"] = trace
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            only: list[int] | None = None) -> tuple[list[float], list[dict]]:
    """The run's passes, with the set-up probes spread before, between and
    after them, so that they sample the host at several times.  A traced
    run alternates untraced and traced passes and has at least one of each."""

    def probes(count):
        return [spawn(workload, seed, setup_only=True, only=only)["setup_s"]
                for _ in range(count)]

    count = max(2 if trace else 1, int(seconds // workloads.PASS_SECONDS[workload]))
    # SETUP_PROBES split as evenly as may be over the count + 1 gaps
    gaps = [SETUP_PROBES * (i + 1) // (count + 1) - SETUP_PROBES * i // (count + 1)
            for i in range(count + 1)]
    setups = probes(gaps[0])
    passes: list[dict] = []
    for i in range(count):
        traced = trace and i % 2 == 1
        spans_file = OUT / f"spans-{workload}-seed{seed}-pass{i}.jsonl" if traced else None
        passes.append(spawn(workload, seed, pass_index=i, trace=traced, spans_file=spans_file,
                            only=only))
        setups.append(passes[-1]["setup_s"])
        setups += probes(gaps[i + 1])
    return setups, passes


# ---------------------------------------------------------------- checks

def load_golden() -> dict:
    golden = HERE / "golden"
    return {"census": json.loads((golden / "census.json").read_text()),
            "queries": json.loads((golden / "queries.json").read_text())}


def expected(key: str, golden: dict) -> dict | None:
    """The golden answer of an operation key, or None if it has none."""
    kind, _, rest = key.partition(" ")
    classes = golden["queries"]["classes"]
    if kind == "census":
        entry = golden["census"].get(key)
        return None if entry is None else {"sha256": entry["sha256"]}
    if kind == "malformed":
        return {"exit": golden["queries"]["malformed_exit"]}
    if kind in ("aut", "aut-graph6") and rest in classes:
        want = {k: v for k, v in classes[rest].items() if k not in ("order", "set")}
        return {"exit": 0, **want}
    if kind == "iso-same" and rest in classes:
        return {"exit": 0, "verdict": "isomorphic"}
    if kind == "iso-diff" and all(k in classes for k in rest.split()):
        return {"exit": 0, "verdict": "not isomorphic"}
    return None


def check(passes: list[dict], golden: dict) -> dict:
    """Failed operations and wrong answers, and whether the counters repeat.

    An operation fails when it raised or differed from its golden answer
    (which holds the documented exit code, so an undocumented one differs).
    Every failure is a wrong answer, which makes the run incorrect, except
    that a malformed input (``workloads.MALFORMED``) may raise: that is the
    known defect of the seed commit, kept visible as a failed operation.
    """
    attempted = failed = wrong = 0
    problems: list[str] = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            want = expected(op["key"], golden)
            got = op["answer"]
            if op["status"] != "ok":
                failed += 1
                if op["key"] not in workloads.MALFORMED:
                    wrong += 1
                problems.append(f"failed: {op['key']}: {op['status']}")
            elif got != want:
                failed += 1
                wrong += 1
                problems.append(f"wrong answer: {op['key']}: got {got}, golden {want}")
    # passes made from the same inputs must count the same work
    by_inputs: dict[str, list[dict]] = {}
    for p in passes:
        by_inputs.setdefault(p["inputs"], []).append(p)
    for same in by_inputs.values():
        first = same[0]["counts"]
        for p in same[1:]:
            diff = {k for k in first.keys() & p["counts"].keys() if first[k] != p["counts"][k]}
            if diff:
                wrong += 1
                problems.append(f"work counts differ between passes: {sorted(diff)}")
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "problems": problems}


# --------------------------------------------------------------- metrics

def pass_totals(passes: list[dict], field: str) -> list[float]:
    """Each pass's sum of one latency field over its operations."""
    return [sum(op[field] for op in p["ops"]) for p in passes]


def request_latencies(workload: str, passes: list[dict], field: str = "ref") -> list[float]:
    """The latency samples of the percentiles, in reference units (or raw
    milliseconds with ``field="ms"``).  On graph_queries every query of
    every untraced pass is a sample.  A census workload's one request is
    the whole pass, the census job a user waits for: the median over the
    untraced passes of their totals."""
    plain = [p for p in passes if not p["traced"]]
    if workload in workloads.WHOLE_PASS_REQUEST:
        return [statistics.median(pass_totals(plain, field))]
    return sorted(op[field] for p in plain for op in p["ops"])


def percentiles(samples: list[float]) -> tuple[float, float]:
    p90 = (statistics.quantiles(samples, n=10, method="inclusive")[8]
           if len(samples) > 1 else samples[0])
    return statistics.median(samples), p90


def end_to_end(workload: str, setups: list[float],
               passes: list[dict]) -> dict[str, tuple[float, str]]:
    plain = [p for p in passes if not p["traced"]]
    p50, p90 = percentiles(request_latencies(workload, passes))
    return {
        "wall_ref": (statistics.median(pass_totals(plain, "ref")), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median([p["rss_mib"] for p in plain]), "MiB"),
        "query_p50_ref": (p50, "ref"),
        "query_p90_ref": (p90, "ref"),
    }


def raw_times(workload: str, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The same latencies in seconds and milliseconds as measured, host
    speed and all: printed and recorded, but not metrics of BENCHMARK.json,
    whose bounds they could not keep on a host of unsteady speed."""
    plain = [p for p in passes if not p["traced"]]
    p50, p90 = percentiles(request_latencies(workload, passes, "ms"))
    return {
        "raw.wall_s": (statistics.median(pass_totals(plain, "ms")) / 1000, "s"),
        "raw.query_p50_ms": (p50, "ms"),
        "raw.query_p90_ms": (p90, "ms"),
        "raw.reference_ms": (statistics.median([p["reference_ms"] for p in plain]), "ms"),
    }


def per_layer(passes: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p["traced"]]
    out = {name: (statistics.median([p["layers"][name] for p in traced]), "s")
           for name in traced[0]["layers"]}
    c = traced[0]["counts"]
    for name in COUNTED + ("aut.group_order", "autosearch.calls", "permgroup.base_length",
                           "cli.errors"):
        out[name] = (c.get(name, 0), "count")
    raw, reps = c.get("groups.candidates_raw", 0), c.get("classify.reps_analyzed", 0)
    out["groups.connected_ratio"] = (
        c.get("groups.candidates_connected", 0) / raw if raw else 0.0, "ratio")
    out["classify.edge_transitive_ratio"] = (
        c.get("classify.edge_transitive", 0) / reps if reps else 0.0, "ratio")

    # computed: spans in a pass times the tracer's measured cost of one span
    out["trace.overhead_s"] = (
        statistics.median([p["spans"] * p["span_cost_s"] for p in traced]), "s")
    out["trace.spans"] = (statistics.median([p["spans"] for p in traced]), "count")
    return out


# ------------------------------------------------------------------- run

def environment(seed: int) -> dict:
    commit = "unknown"  # a source tree without .git names no commit
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(),
            "git_commit": commit, "seed": seed}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict, only: list[int] | None = None) -> dict:
    env = environment(seed)
    setups, passes = measure(workload, seed, seconds, trace, only)
    env["loadavg_after"] = os.getloadavg()
    verdict = check(passes, golden)
    metrics = end_to_end(workload, setups, passes)
    metrics.update(raw_times(workload, passes))
    if trace:
        metrics.update(per_layer(passes))
    plain = [p for p in passes if not p["traced"]]
    record = {
        "workload": workload, "trace": trace, "env": env, "check": verdict,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": plain[0]["counts"],
        "samples": len(request_latencies(workload, passes)),
        "missing_targets": passes[0]["missing_targets"],
        "passes": [{k: p[k] for k in ("inputs", "traced", "setup_s", "pass_s", "rss_mib",
                                      "reference_ms", "counts", "ops")}
                   for p in passes],
    }
    if only is None:
        (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1) + "\n")
    return record


def report(record: dict) -> None:
    w = record["workload"]
    chk = record["check"]
    print(f"== {w} (trace {int(record['trace'])})")
    print(f"env {json.dumps(record['env'])}")
    print(f"passes {len(record['passes'])}, latency samples {record['samples']}, "
          f"attempted {chk['attempted']}, failed {chk['failed']} "
          f"(fail_ratio {chk['failed'] / chk['attempted']:.4f}), wrong answers {chk['wrong']}")
    for problem in chk["problems"][:20]:
        print(f"  {problem}")
    if record["missing_targets"]:
        print(f"  not in this version, so not traced: {record['missing_targets']}")
    print(f"counts {json.dumps({k: record['counts'].get(k, 0) for k in COUNTED})}")
    for name, m in record["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"metric {w} {name} = {value} {m['unit']}")


def select(record: dict, spec: list[dict]) -> dict:
    out = {}
    for m in spec:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} ({m['unit']}) not measured as listed")
        out[m["name"]] = got
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "metacirc").is_dir():
        print(f"error: no metacirc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    OUT.mkdir(exist_ok=True)
    try:
        golden = load_golden()
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, seconds, bool(args.trace), golden)
            report(record)
            metrics = select(record, bench["per_layer" if args.trace else "end_to_end"])
            records = [record]
        else:
            records, metrics = [], {}
            for w in workloads.WORKLOADS:
                for trace in (False, True):
                    record = run_workload(w, args.seed, seconds, trace, golden)
                    report(record)
                    sel = select(record, bench["per_layer" if trace else "end_to_end"])
                    metrics.update({f"{w}.{k}": v for k, v in sel.items()})
                    records.append(record)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["check"]["wrong"] == 0 for r in records),
        "attempted": sum(r["check"]["attempted"] for r in records),
        "failed": sum(r["check"]["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
