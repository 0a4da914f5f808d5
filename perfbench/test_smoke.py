"""Smoke test of the benchmark itself, through the code path runs take.

    python3 -m pytest perfbench/test_smoke.py -q     # about half a minute

One small operation per workload, untraced and traced, must give the golden
answers; a corrupted golden answer, or an operation that raises, must be
reported as a wrong answer; and without the package source the benchmark
must fail without a result.
"""

from __future__ import annotations

import argparse
import copy
import json
import shutil
import subprocess
import sys

import pytest

import run

SMALL = {
    "census_ref": ([0], ["census oracle 7,3,2,1"]),
    # non-Sylow-cyclic: the brute-force Aut(G) path
    "sweep_135": ([2], ["census oracle 9,3,4,1"]),
    "theorem_large": ([0], ["census theorem 43,7,4,1"]),
    "graph_queries": ([0, 27, 54, -2, -1], ["aut 11,5,3,1#0", "aut-graph6 11,5,3,1#0",
                                            "iso-same 11,5,3,1#0", "malformed aut-graph6",
                                            "malformed iso-missing"]),
}


@pytest.fixture(scope="module")
def golden():
    return run.load_golden()


@pytest.fixture(scope="module")
def records(golden):
    run.OUT.mkdir(exist_ok=True)
    saved, run.SETUP_PROBES = run.SETUP_PROBES, 1
    try:
        return {w: run.run_workload(w, 1, 0, True, golden, only=only)
                for w, (only, _) in SMALL.items()}
    finally:
        run.SETUP_PROBES = saved


@pytest.mark.parametrize("workload", list(SMALL))
def test_small_operation_matches_golden(records, workload):
    record = records[workload]
    keys = [op["key"] for op in record["passes"][0]["ops"]]
    assert keys == SMALL[workload][1]
    assert [p["traced"] for p in record["passes"]] == [False, True]
    chk = record["check"]
    assert chk["wrong"] == 0, chk["problems"]
    # the only operations allowed to fail are the malformed inputs
    assert all(p.startswith("failed: malformed") for p in chk["problems"]), chk["problems"]
    for name in ("wall_ref", "setup_s", "peak_rss_mib", "query_p50_ref", "query_p90_ref",
                 "raw.wall_s", "raw.reference_ms"):
        assert record["metrics"][name]["value"] > 0
    # untraced passes sample the host's speed, traced ones do not
    assert all(op["ref"] > 0 for op in record["passes"][0]["ops"])
    assert all(op["ref"] is None for op in record["passes"][1]["ops"])
    assert record["metrics"]["trace.overhead_s"]["value"] > 0


def test_traced_pass_reports_every_layer(records):
    layers = records["census_ref"]["metrics"]
    assert layers["autosearch.calls"]["value"] > 0
    assert layers["classify.self_s"]["value"] > 0
    assert records["graph_queries"]["metrics"]["cli.self_s"]["value"] > 0
    assert records["sweep_135"]["metrics"]["aut.maps_s"]["value"] > 0


def test_corrupted_golden_census_is_a_wrong_answer(records, golden):
    bad = copy.deepcopy(golden)
    entry = bad["census"]["census oracle 7,3,2,1"]
    entry["sha256"] = "0" * 64
    chk = run.check(records["census_ref"]["passes"], bad)
    assert chk["wrong"] == 2 and chk["failed"] == 2  # one untraced, one traced pass


def test_corrupted_golden_query_is_a_wrong_answer(records, golden):
    bad = copy.deepcopy(golden)
    bad["queries"]["classes"]["11,5,3,1#0"]["aut_order"] += 1
    chk = run.check(records["graph_queries"]["passes"], bad)
    assert chk["wrong"] == 4  # `aut --file` and `aut --graph6`, in two passes


def test_raising_census_operation_is_a_wrong_answer(golden, monkeypatch):
    import worker

    worker.import_package()
    from metacirc import classify

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(classify, "classify_spec", broken)
    args = argparse.Namespace(workload="census_ref", seed=1, trace=False, setup_only=False,
                              spans_file=None, only=[0])
    run.OUT.mkdir(exist_ok=True)
    result = worker.run_pass(args, run.OUT)  # census passes write no files
    assert result["ops"][0]["status"] == "raised RuntimeError: injected"
    chk = run.check([result], golden)
    assert chk["wrong"] == 1 and chk["failed"] == 1


def test_only_malformed_inputs_may_raise(records, golden):
    passes = copy.deepcopy(records["graph_queries"]["passes"])
    chk = run.check(passes, golden)
    assert chk["failed"] == 4 and chk["wrong"] == 0  # two malformed inputs, two passes
    op = passes[0]["ops"][0]
    op["status"], op["answer"] = "raised RuntimeError: injected", None
    chk = run.check(passes, golden)
    assert chk["failed"] == 5 and chk["wrong"] == 1


def test_work_counts_repeat_between_passes_of_the_same_inputs(records, golden):
    passes = copy.deepcopy(records["census_ref"]["passes"])
    passes[1]["counts"]["aut.orbits"] += 1
    assert run.check(passes, golden)["wrong"] == 1
    # graph_queries relabels each pass with its own seed: no comparison
    passes = copy.deepcopy(records["graph_queries"]["passes"])
    assert passes[0]["inputs"] != passes[1]["inputs"]
    passes[1]["counts"]["autosearch.generators"] += 1
    assert run.check(passes, golden)["wrong"] == 0


def test_sampler_accounting():
    import hostspeed

    s = hostspeed.Sampler()
    # samples of 1 ms every 10 ms, the host twice as slow from t = 1 s on
    for i in range(200):
        start, took = i * 0.01, 0.001 if i < 100 else 0.002
        s.starts.append(start)
        s.seconds.append(took)
        s.handler_ends.append(start + took)
    assert s.inside(0.2, 0.3) == pytest.approx(0.010)
    assert s.inside(0.2015, 0.2095) == 0.0
    # 9 ms of work in each 10 ms stretch, at 1 ms, then at 2 ms a reference
    assert s.in_reference_units(0.2, 0.3) == pytest.approx(90)
    assert s.in_reference_units(1.5, 1.6) == pytest.approx(40)
    assert s.in_reference_units(0.2015, 0.2095) == pytest.approx(8)


def test_fails_without_package_source():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    shutil.copytree(run.HERE / "golden", bare / "perfbench" / "golden")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "census_ref",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_metrics_are_measured(records):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.select(records["census_ref"], bench["end_to_end"])
    assert run.select(records["census_ref"], bench["per_layer"])
