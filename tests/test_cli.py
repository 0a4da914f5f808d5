from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import metacirc
from metacirc.cli import main
from metacirc.graphs import build_cayley, graph_from_edges, to_graph6
from metacirc.groups import GroupSpec
from metacirc.predictions import standard_connection_set


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- info

def test_info(capsys):
    code, out, _ = run_cli(capsys, "info", "--m", "7", "--n", "3", "--r", "2")
    assert code == 0
    lines = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert lines["n0"] == "3"
    assert lines["order"] == "21"
    assert lines["aut_order"] == "42"
    assert lines["hypothesis_star"] == "True"


def test_info_non_sylow_cyclic(capsys):
    code, out, _ = run_cli(capsys, "info", "--m", "9", "--n", "3", "--r", "4")
    assert code == 0
    assert "aut_order=54" in out


# ------------------------------------------------------------- classify

def test_classify_k5_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "5", "--n", "1", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 1
    c = payload["classes"][0]
    assert c["aut_order"] == 120 and c["stab_order"] == 24 and c["s"] == 2
    assert payload["agreement"]["table1"] is True


def test_enumerate_equals_oracle_classify(capsys):
    code1, out1, _ = run_cli(capsys, "classify", "--m", "7", "--n", "3", "--r", "2")
    code2, out2, _ = run_cli(capsys, "enumerate", "--m", "7", "--n", "3", "--r", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_theorem_mode(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--m", "13", "--n", "3", "--r", "3", "--mode", "theorem"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "theorem"
    assert len(payload["classes"]) == 1
    assert payload["classes"][0]["aut_order"] == 78


def test_classify_writes_report(capsys, tmp_path):
    out_file = tmp_path / "r.json"
    code, out, _ = run_cli(
        capsys, "classify", "--m", "5", "--n", "1", "--r", "1",
        "--out", str(out_file), "--graphs",
    )
    assert code == 0
    assert json.loads(out_file.read_text()) == json.loads(out)
    assert (tmp_path / "r.class0.g6").read_bytes().strip() == b"D~{"


def test_graphs_without_out_is_a_usage_error(capsys, tmp_path, monkeypatch):
    """--graphs writes next to the --out report, so alone it is refused
    rather than silently ignored."""
    monkeypatch.chdir(tmp_path)
    for command in ("classify", "enumerate"):
        code, out, err = run_cli(capsys, command, "--m", "7", "--n", "3", "--r", "2", "--graphs")
        assert code == 1
        assert out == "" and "--out" in err
    assert list(tmp_path.iterdir()) == []


def test_classify_jobs_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "classify", "--m", "11", "--n", "5", "--r", "3")
    _, out2, _ = run_cli(capsys, "classify", "--m", "11", "--n", "5", "--r", "3", "--jobs", "3")
    assert out1 == out2


def test_classify_jobs_byte_identical_with_dropped_orbits(capsys):
    """Most orbits of Z23:Z11 are not edge-transitive, and under --jobs they
    leave the census inside the worker processes, at the distance-pair test
    or at ``orbits_at_zero``."""
    argv = ("classify", "--m", "23", "--n", "11", "--r", "2")
    _, out1, _ = run_cli(capsys, *argv, "--jobs", "1")
    _, out2, _ = run_cli(capsys, *argv, "--jobs", "2")
    assert out1 == out2


def test_classify_jobs_byte_identical_under_spawn():
    """Workers started by spawn inherit nothing from the parent process: each
    imports the package afresh and has only its task to go on."""
    script = (
        "import multiprocessing, sys\n"
        "from metacirc.cli import main\n"
        "multiprocessing.set_start_method('spawn')\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["classify", "--m", "21", "--n", "9", "--r", "4"]
    outs = []
    for jobs in ("1", "2"):
        run = subprocess.run([sys.executable, "-c", script, *argv, "--jobs", jobs],
                             capture_output=True, text=True, env=_child_env(), timeout=120)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1] and json.loads(outs[0])["classes"]


# ------------------------------------------------------------ exit codes

def test_usage_error_exit_1(capsys):
    assert run_cli(capsys, "info", "--m", "6", "--n", "3", "--r", "1")[0] == 1  # even m
    assert run_cli(capsys, "classify", "--m", "7", "--n", "3", "--r", "3")[0] == 1  # bad r
    assert run_cli(capsys, "export", "--m", "7", "--n", "3", "--r", "2", "--j", "5")[0] == 1
    assert run_cli(capsys, "classify", "--m", "5", "--n", "1", "--r", "1",
                   "--mode", "theorem")[0] == 1  # abelian: no theorem mode


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["classify", "--m", "7", "--n", "3", "--r", "2"],
    ["enumerate", "--m", "7", "--n", "3", "--r", "2"],
    ["sweep", "--max-order", "21"],
], ids=lambda c: c[0])
def test_jobs_below_one_is_a_usage_error(capsys, tmp_path, command, jobs):
    """A worker count below 1 is refused before any work, and before
    ``sweep --out`` opens its file."""
    out = tmp_path / "report.jsonl"
    code, stdout, err = run_cli(capsys, *command, "--jobs", jobs, "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_missing_argument_exit_1(capsys):
    assert run_cli(capsys, "info", "--m", "7", "--n", "3")[0] == 1


def test_bound_exceeded_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "classify", "--m", "23", "--n", "11", "--r", "2", "--bound", "100"
    )
    assert code == 2
    assert "bound" in err


def test_strict_disagreement_exit_3(capsys):
    # the 55-vertex census disagrees with the reference count column (3 vs 6)
    code, out, err = run_cli(
        capsys, "classify", "--m", "11", "--n", "5", "--r", "3", "--strict"
    )
    assert code == 3
    # without --strict the same run exits 0
    assert run_cli(capsys, "classify", "--m", "11", "--n", "5", "--r", "3")[0] == 0


def test_strict_is_one_test_for_classify_and_sweep(capsys):
    """F21 has one class where the reference row counts 3: classify and a
    sweep that holds the same report both exit 3 under --strict, and both
    say so on stderr, in the same line; an agreeing census says nothing."""
    strict = "strict: disagreement with bundled predictions\n"
    code, _, err = run_cli(capsys, "classify", "--m", "7", "--n", "3", "--r", "2", "--strict")
    assert code == 3 and err == strict
    code, out, err = run_cli(capsys, "sweep", "--max-order", "21", "--strict")
    assert code == 3 and out.splitlines()[1].split()[:3] == ["7", "3", "2"] and err == strict
    code, _, err = run_cli(capsys, "classify", "--m", "13", "--n", "3", "--r", "3", "--strict")
    assert code == 0 and err == ""
    # no spec has at most 20 elements
    code, out, err = run_cli(capsys, "sweep", "--max-order", "20", "--strict")
    assert code == 0 and len(out.splitlines()) == 1 and err == ""


# ------------------------------------------------------------- aut / iso

def test_aut_from_string(capsys):
    code, out, _ = run_cli(capsys, "aut", "--graph6", "D~{")
    assert code == 0
    assert "aut_order=120" in out
    assert "transitive=True" in out


def test_aut_runs_one_search(capsys, monkeypatch):
    """The generators and the canonical form come from one search."""
    import metacirc.autosearch as autosearch
    import metacirc.cli as cli

    searched = []
    search = autosearch.analyze

    def counted(*args, **kwargs):
        searched.append(args[0].n)
        return search(*args, **kwargs)

    monkeypatch.setattr(cli, "analyze", counted)
    monkeypatch.setattr(autosearch, "analyze", counted)
    code, out, _ = run_cli(capsys, "aut", "--graph6", "D~{")
    assert code == 0 and "aut_order=120" in out
    assert searched == [5]


def test_aut_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    g = build_cayley(standard_connection_set(1, GroupSpec(7, 3, 2)), GroupSpec(7, 3, 2))
    path = tmp_path / "g.g6"
    path.write_bytes(to_graph6(g) + b"\n")
    code, out, _ = run_cli(capsys, "aut", "--file", str(path))
    assert code == 0 and "aut_order=336" in out

    class FakeStdin:
        buffer = type("B", (), {"read": staticmethod(lambda: to_graph6(g) + b"\n")})()

    monkeypatch.setattr(sys, "stdin", FakeStdin())
    code, out, _ = run_cli(capsys, "aut")
    assert code == 0 and "aut_order=336" in out


def test_iso(capsys, tmp_path):
    spec = GroupSpec(7, 3, 2)
    g = build_cayley(standard_connection_set(1, spec), spec)
    relabeled = g.relabel([(5 * i + 3) % 21 for i in range(21)])
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_bytes(to_graph6(g) + b"\n")
    b.write_bytes(to_graph6(relabeled) + b"\n")
    code, out, _ = run_cli(capsys, "iso", "--a", str(a), "--b", str(b))
    assert code == 0 and out.strip() == "isomorphic"

    c = tmp_path / "c.g6"
    c.write_bytes(b"D~{\n")
    code, out, _ = run_cli(capsys, "iso", "--a", str(a), "--b", str(c))
    assert code == 0 and out.strip() == "not isomorphic"


def test_iso_on_zero_and_one_vertex_graphs(capsys, tmp_path):
    empty, single = tmp_path / "0.g6", tmp_path / "1.g6"
    empty.write_bytes(b"?\n")
    single.write_bytes(b"@\n")
    for a, b, verdict in [(empty, empty, "isomorphic"), (single, single, "isomorphic"),
                          (empty, single, "not isomorphic")]:
        code, out, err = run_cli(capsys, "iso", "--a", str(a), "--b", str(b))
        assert (code, out, err) == (0, verdict + "\n", "")


def test_aut_malformed_graph6_exit_1(capsys):
    # K5 is D~{; each byte just out of range 63..126, at its start, middle or end
    for bad in ("zzz", "~", "~~??", "\x7f", ">D~{", "D~\x7f{", "D~{>"):
        code, out, err = run_cli(capsys, "aut", "--graph6", bad)
        assert code == 1 and out == ""
        assert err.startswith("error: malformed graph6") and err.count("\n") == 1


def test_aut_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "aut", "--file", str(tmp_path / "missing.g6"))
    assert code == 1 and err.startswith("error: cannot read") and err.count("\n") == 1
    empty = tmp_path / "empty.g6"
    empty.write_bytes(b"")
    code, _, err = run_cli(capsys, "aut", "--file", str(empty))
    assert code == 1 and err.startswith("error: no graph6 line")


def test_aut_empty_graph6_or_file_argument_exit_1(capsys, monkeypatch):
    """An empty --graph6 or --file is that argument, not a request to read
    stdin: malformed graph6 and an unreadable path, each exit 1, even with
    a good graph waiting on stdin."""
    class FakeStdin:
        buffer = type("B", (), {"read": staticmethod(lambda: b"D~{\n")})()

    monkeypatch.setattr(sys, "stdin", FakeStdin())
    code, out, err = run_cli(capsys, "aut", "--graph6", "")
    assert code == 1 and out == ""
    assert err.startswith("error: malformed graph6") and err.count("\n") == 1
    code, out, err = run_cli(capsys, "aut", "--file", "")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read") and err.count("\n") == 1


def test_iso_missing_file_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "iso", "--a", str(tmp_path / "missing.g6"), "--b", "x")
    assert code == 1 and err.startswith("error: cannot read") and err.count("\n") == 1


def test_sweep_unwritable_out_exit_1(capsys, tmp_path):
    out_path = tmp_path / "missing_dir" / "x.jsonl"
    code, out, err = run_cli(capsys, "sweep", "--max-order", "5", "--out", str(out_path))
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_classify_unwritable_out_exit_1(capsys, tmp_path):
    out_path = tmp_path / "missing_dir" / "r.json"
    code, out, err = run_cli(
        capsys, "classify", "--m", "5", "--n", "1", "--r", "1", "--out", str(out_path)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: cannot write") and err.count("\n") == 1


# 2001 vertices: one more than the automorphism search takes
LARGE_CYCLE = graph_from_edges(2001, [(i, (i + 1) % 2001) for i in range(2001)])


def test_aut_too_large_exit_2(capsys, tmp_path):
    path = tmp_path / "cycle.g6"
    path.write_bytes(to_graph6(LARGE_CYCLE) + b"\n")
    code, out, err = run_cli(capsys, "aut", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: graph too large") and err.count("\n") == 1


def test_iso_too_large_exit_2(capsys, tmp_path):
    path = tmp_path / "cycle.g6"
    path.write_bytes(to_graph6(LARGE_CYCLE) + b"\n")
    code, out, err = run_cli(capsys, "iso", "--a", str(path), "--b", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: graph too large") and err.count("\n") == 1


# K_{1,1200}: under the vertex cap, and every level of its search
# individualizes one more leaf of the star, 1199 levels in all, deeper than
# Python's default recursion limit of 1000
STAR = graph_from_edges(1201, [(0, i) for i in range(1, 1201)])


def test_iso_deep_search(capsys, tmp_path):
    """The search is a loop, not a recursion, so ``iso`` on the star and a
    seeded relabeling of it runs to the end."""
    perm = list(range(STAR.n))
    random.Random(1201).shuffle(perm)
    a, b = tmp_path / "star.g6", tmp_path / "relabeled.g6"
    a.write_bytes(to_graph6(STAR) + b"\n")
    b.write_bytes(to_graph6(STAR.relabel(perm)) + b"\n")
    code, out, err = run_cli(capsys, "iso", "--a", str(a), "--b", str(b))
    assert code == 0 and out == "isomorphic\n" and err == ""


def test_aut_empty_graph_prints_few_generators(capsys):
    """The search jumps back to its first path after each automorphism it
    finds, so the empty 40-vertex graph ends at once, with no more than
    n - 1 generators of its symmetric group (not C(40, 2))."""
    code, out, err = run_cli(capsys, "aut", "--graph6", to_graph6(graph_from_edges(40, [])).decode())
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert f"aut_order={math.factorial(40)}" in lines
    assert 0 < sum(line.startswith("generator=") for line in lines) <= 39


def test_aut_empty_100_vertex_graph(capsys):
    """S_100 from the search's first path: one level per path vertex, no
    Schreier generator sifted."""
    code, out, err = run_cli(capsys, "aut", "--graph6", to_graph6(graph_from_edges(100, [])).decode())
    assert code == 0 and err == ""
    assert f"aut_order={math.factorial(100)}" in out.splitlines()


def test_closed_stdout_exits_1_without_traceback():
    """A reader that closes the pipe after one line, as ``| head -1`` does.
    The child writes unbuffered, so every later table line meets the closed
    pipe."""
    child = subprocess.Popen(
        [sys.executable, "-u", "-m", "metacirc.cli", "sweep", "--max-order", "135"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    )
    assert child.stdout.readline().startswith(b"m n r ")
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert "Traceback" not in err and err == ""


def test_classify_theorem_too_large_exit_2(capsys):
    # Z67:Z33 has 2211 elements: a bound, not a usage error
    code, out, err = run_cli(
        capsys, "classify", "--m", "67", "--n", "33", "--r", "4", "--mode", "theorem"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: graph too large") and err.count("\n") == 1


def test_classify_above_brute_force_bound_exit_2(capsys, monkeypatch):
    """Z465 x Z3 x Z3 (4185 elements) is not Sylow-cyclic, so Aut(G) comes by
    brute force, whose bound it exceeds: exit 2 before any set is walked."""
    from metacirc import classify

    def walked(*args):
        raise AssertionError("a candidate set was walked")

    monkeypatch.setattr(classify, "generates", walked)
    code, out, err = run_cli(capsys, "classify", "--m", "3", "--n", "3", "--r", "1",
                             "--ell", "465", "--bound", "5000")
    assert code == 2 and out == ""
    assert err.startswith("error: group order 4185 exceeds brute-force bound") and err.count("\n") == 1


def test_info_above_brute_force_bound_exit_2(capsys):
    code, out, err = run_cli(capsys, "info", "--m", "3", "--n", "3", "--r", "1", "--ell", "465")
    assert code == 2 and out == ""
    assert err.startswith("error: group order 4185 exceeds brute-force bound") and err.count("\n") == 1


# ---------------------------------------------------------------- export

def test_export_formats(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--m", "7", "--n", "3", "--r", "2", "--j", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 21 and all(len(row) == 4 for row in payload["adj"])

    code, out, _ = run_cli(
        capsys, "export", "--m", "7", "--n", "3", "--r", "2", "--j", "1", "--format", "dot"
    )
    assert code == 0 and out.startswith("graph G {")


def test_export_graph6_matches_library(capsys):
    spec = GroupSpec(7, 3, 2)
    expected = to_graph6(build_cayley(standard_connection_set(1, spec), spec))
    code, out, _ = run_cli(
        capsys, "export", "--m", "7", "--n", "3", "--r", "2", "--j", "1", "--format", "graph6"
    )
    assert code == 0 and out.strip().encode() == expected


# ----------------------------------------------------------------- sweep

def test_sweep_small(capsys, tmp_path):
    jsonl = tmp_path / "census.jsonl"
    code, out, _ = run_cli(capsys, "sweep", "--max-order", "40", "--out", str(jsonl))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m n r")
    rows = {tuple(line.split()[:3]) for line in lines[1:]}
    assert ("7", "3", "2") in rows
    assert ("13", "3", "3") in rows
    # one report per table row, in the same order, as classify prints it
    reports = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert [[str(r["group"][k]) for k in "mnr"] for r in reports] \
        == [line.split()[:3] for line in lines[1:]]
    g = reports[0]["group"]
    _, first, _ = run_cli(capsys, "classify", "--m", str(g["m"]), "--n", str(g["n"]),
                          "--r", str(g["r"]))
    assert reports[0] == json.loads(first)
    # the table is the same with or without --out
    assert run_cli(capsys, "sweep", "--max-order", "40")[1] == out


def test_sweep_jobs_byte_identical(capsys, tmp_path):
    """Under --jobs 2 the specs run in one worker pool; the table and the
    JSONL reports are those of --jobs 1, in the same order."""
    outs = []
    for jobs in ("1", "2"):
        jsonl = tmp_path / f"census{jobs}.jsonl"
        code, out, _ = run_cli(capsys, "sweep", "--max-order", "135", "--jobs", jobs,
                               "--out", str(jsonl))
        assert code == 0
        outs.append((out, jsonl.read_bytes()))
    assert outs[0] == outs[1]
    assert len(outs[0][0].splitlines()) == 18  # the header and 17 specs


def _child_env() -> dict:
    # the child imports the package from where this process found it
    src = str(Path(metacirc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "metacirc.cli", "info", "--m", "5", "--n", "1", "--r", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert out.returncode == 0
    assert "order=5" in out.stdout


def test_main_calls_in_one_process_print_what_fresh_processes_print(capsys, monkeypatch):
    """main reuses one parser per process: a usage error from argparse, or
    from the arguments it parsed, leaves no trace in the calls after it."""
    # argparse wraps its usage lines to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["info", "--m", "9", "--n", "3", "--r", "4"],
        ["info", "--m", "7", "--n", "3"],
        ["export", "--m", "7", "--n", "3", "--r", "2", "--j", "1"],
        ["bogus"],
        ["info", "--m", "6", "--n", "3", "--r", "1"],
        ["info", "--m", "7", "--n", "3", "--r", "2", "--ell", "5"],
    ]
    for argv in calls:
        in_process = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "metacirc.cli", *argv], capture_output=True,
                               text=True, env={**_child_env(), "COLUMNS": "80"}, timeout=60)
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert [run_cli(capsys, *argv)[0] for argv in calls] == [0, 1, 0, 1, 1, 0]
