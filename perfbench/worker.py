"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so the ``lru_cache``s in
``metacirc.classify`` start cold, as they do for every command-line user.
It imports metacirc from the checkout's ``src/``, generates the workload's
inputs from the seed, runs every operation once with ``jobs=1``, and prints
one JSON object: the time set-up ended, each operation's latency, status and
answer, the work counters, the peak resident memory and, in a traced pass,
the per-layer self times.  Checking answers is left to ``run.py``.

    python3 perfbench/worker.py --workload census_ref --seed 1 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def import_package() -> None:
    if not (SRC / "metacirc").is_dir():
        raise SystemExit(f"no metacirc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import metacirc
    import metacirc.cli  # noqa: F401  loads every module the targets live in

    if Path(metacirc.__file__).resolve().parent != (SRC / "metacirc").resolve():
        raise SystemExit(f"imported metacirc from {metacirc.__file__}, not from {SRC}")


# ------------------------------------------------------------- operations
# an operation is (key, thunk, answer); the thunk is timed, answer(result)
# runs after the clock stops and returns what is compared to the golden one


def census_operations(workload: str) -> list[tuple]:
    from metacirc import classify
    from metacirc.groups import GroupSpec

    ops = []
    for spec_t, mode, bound in workloads.census_ops(workload):
        spec = GroupSpec(*spec_t)

        def thunk(spec=spec, mode=mode, bound=bound):
            # looked up at call time, so the benchmark's wrapper is used
            return classify.classify_spec(spec, mode=mode, bound=bound, jobs=1)

        def answer(report):
            payload = json.dumps(classify.report_to_json_dict(report), indent=2)
            return {"sha256": sha256(payload)}, {
                "groups.candidates_raw": report.raw_candidates,
                "groups.candidates_connected": report.connected_candidates,
            }

        ops.append((workloads.census_key(spec_t, mode), thunk, answer))
    return ops


def _cli(argv: list[str]):
    from metacirc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _aut_answer(result):
    rc, text = result
    if rc != 0:
        return {"exit": rc}, {}
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {
        "exit": rc,
        "n": int(fields["n"]),
        "aut_order": int(fields["aut_order"]),
        "transitive": fields["transitive"] == "True",
        "canonical_sha256": sha256(fields["canonical"]),
    }, {}


def _iso_answer(result):
    rc, text = result
    return ({"exit": rc, "verdict": text.strip()} if rc == 0 else {"exit": rc}), {}


def _exit_answer(result):
    return {"exit": result[0]}, {}


def query_operations(inputs: str, workdir: Path) -> list[tuple]:
    """The ``aut``/``iso`` queries on graph6 files of the census classes.
    Every graph a query reads is the class under a random relabeling of its
    own, seeded by ``inputs``, so that no relabeling's luck is shared between
    queries."""
    from metacirc.graphs import build_cayley, to_graph6
    from metacirc.groups import GroupSpec

    classes = json.loads((HERE / "golden" / "queries.json").read_text())["classes"]
    rng = random.Random(inputs)
    graphs = {}
    for key in sorted(classes):
        spec = GroupSpec(*map(int, key.split("#")[0].split(",")))
        graphs[key] = build_cayley([spec.element(*x) for x in classes[key]["set"]], spec)
    written = 0

    def relabeled(key: str) -> bytes:
        perm = list(range(graphs[key].n))
        rng.shuffle(perm)
        return to_graph6(graphs[key].relabel(perm))

    def relabeled_file(key: str) -> str:
        nonlocal written
        path = workdir / f"{written}.g6"
        written += 1
        path.write_bytes(relabeled(key) + b"\n")
        return str(path)

    ops = []
    for key in sorted(classes):
        f = relabeled_file(key)
        ops.append((f"aut {key}", lambda f=f: _cli(["aut", "--file", f]), _aut_answer))
    for key in sorted(classes):
        g6 = relabeled(key).decode()
        ops.append((f"aut-graph6 {key}", lambda g6=g6: _cli(["aut", "--graph6", g6]), _aut_answer))
    for key in sorted(classes):
        a, b = relabeled_file(key), relabeled_file(key)
        ops.append((f"iso-same {key}", lambda a=a, b=b: _cli(["iso", "--a", a, "--b", b]), _iso_answer))
    # non-isomorphic pairs: the classes of each order in a seeded cycle, each
    # paired with the next, so every class is in two pairs whatever the seed
    # and the seed moves no work between queries
    by_order: dict[int, list[str]] = {}
    for key in sorted(classes):
        by_order.setdefault(classes[key]["order"], []).append(key)
    for order in sorted(by_order):
        cycle = by_order[order]
        rng.shuffle(cycle)
        for key, other in zip(cycle, cycle[1:] + cycle[:1]):
            if key == other:
                continue
            a, b = relabeled_file(key), relabeled_file(other)
            ops.append((f"iso-diff {key} {other}",
                        lambda a=a, b=b: _cli(["iso", "--a", a, "--b", b]), _iso_answer))
    missing = str(workdir / "missing.g6")
    ops.append((workloads.MALFORMED[0], lambda: _cli(["aut", "--graph6", "zzz"]), _exit_answer))
    ops.append((workloads.MALFORMED[1],
                lambda b=relabeled_file(sorted(classes)[0]): _cli(["iso", "--a", missing, "--b", b]),
                _exit_answer))
    return ops


# ------------------------------------------------------------------- pass

def inputs_of(args) -> str:
    """What a pass's inputs are made from.  A graph_queries pass relabels
    the classes with a seed of its own, derived from the run's seed and the
    pass's index: how much work an unseeded search does depends on the
    labeling, so a run's percentiles, taken over the queries of several
    relabelings, depend less on the seed.  The census workloads have no
    random input."""
    return f"{args.seed}/{args.pass_index}" if args.workload == "graph_queries" else "fixed"


def run_pass(args, workdir: Path) -> dict:
    import_package()
    if args.workload == "graph_queries":
        ops = query_operations(inputs_of(args), workdir)
    else:
        ops = census_operations(args.workload)
    if args.only is not None:
        ops = [ops[i] for i in args.only]
    rec = spans.Recorder(trace=args.trace)
    missing = spans.install(rec)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    # an untraced pass samples the host's speed while it runs; a traced one
    # does not, so the sampler's handler adds nothing to the spans
    sampler = None if args.trace else hostspeed.Sampler()
    if sampler is not None:
        sampler.start()
    results = []
    intervals = []
    extra: dict[str, int] = {}
    cli_errors = 0
    for i, (key, thunk, answer) in enumerate(ops):
        rec.op = i
        start = time.perf_counter()
        try:
            result = thunk()
            status = "ok"
        except Exception as exc:  # a failed operation is a measurement, not a crash
            result, status = None, f"raised {type(exc).__name__}: {exc}"
        intervals.append((start, time.perf_counter()))
        got = None
        if result is not None:
            got, counts = answer(result)
            for k, v in counts.items():
                extra[k] = extra.get(k, 0) + v
        # every graph_queries operation is one command-line call
        if args.workload == "graph_queries" and (result is None or result[0] != 0):
            cli_errors += 1
        results.append({"key": key, "status": status, "answer": got})
    if sampler is not None:
        sampler.stop()
    for op, (start, end) in zip(results, intervals):
        seconds = end - start
        if sampler is None:
            op["ms"], op["ref"] = seconds * 1000, None
        else:
            op["ms"] = (seconds - sampler.inside(start, end)) * 1000
            op["ref"] = sampler.in_reference_units(start, end)

    counts = dict(rec.counts)
    counts.update(extra)
    counts["cli.errors"] = cli_errors
    out = {
        "ready": ready,
        "inputs": inputs_of(args),
        "ops": results,
        "counts": counts,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_ms": (None if sampler is None
                         else hostspeed.median(sampler.seconds) * 1000),
        "missing_targets": missing,
    }
    if args.trace:
        out["layers"] = rec.self_times(spans.metric_of_span())
        out["spans"] = len(rec.spans)
        out["span_cost_s"] = spans.span_cost_s()  # after the clock, so untimed
        if args.spans_file:
            rec.write_spans(Path(args.spans_file))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--spans-file", default=None, help="write the spans here (traced pass)")
    ap.add_argument("--pass-index", type=int, default=0,
                    help="the pass's index in its run; graph_queries relabels by it")
    ap.add_argument("--only", type=int, nargs="*", default=None,
                    help="run only these operation indexes (smoke test)")
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    hostspeed.pin_to_current_cpu()
    workdir = Path(tempfile.mkdtemp(prefix="pass-", dir=OUT))
    try:
        result = run_pass(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
