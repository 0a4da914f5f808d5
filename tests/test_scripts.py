from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_reference_script(capsys):
    check_reference = load_script("check_reference")
    assert check_reference.main([]) == 0
    assert "structural expectations: all satisfied" in capsys.readouterr().out


SMALL_SOURCE = '''"""A module docstring
over two lines."""

# a comment line
X = 1  # a comment after code


def f():
    """One docstring line."""
    text = """a string
# not a comment

that is not a docstring"""
    return text
'''


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path, capsys):
    """Of the 14 lines, the code lines are X = 1, def f(), the three non-blank
    lines of the string that is not a docstring, and the return."""
    code_lines = load_script("code_lines")
    assert code_lines.code_lines(SMALL_SOURCE) == 6
    (tmp_path / "small.py").write_text(SMALL_SOURCE)
    (tmp_path / "empty.py").write_text("")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["0", "0", str(tmp_path / "empty.py")],
        ["6", "14", str(tmp_path / "small.py")],
        ["6", "14", "total"],
    ]


STUB = '''import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
wall = float(Path("wall.txt").read_text()) + seed % 2
print("metric lines come first")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "wall_ref": {"value": wall, "unit": "ref"}, "setup_s": {"value": 0.1, "unit": "s"}}}))
'''


def test_bench_pairs_with_a_stub_command(tmp_path, capsys):
    """Each side runs from its own copy: the parent's commit reads wall 10,
    the working tree 8, plus the seed's parity.  The change wins every pair
    of wall_ref, by more than the parent's spread, and ties setup_s."""
    bench_pairs = load_script("bench_pairs")
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 20, "end_to_end": [
        {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    (repo / "wall.txt").write_text("10")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org"]
    subprocess.run([*git, "init", "-q"], cwd=repo, check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], cwd=repo, check=True)
    (repo / "wall.txt").write_text("8")
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    out = tmp_path / "pairs.json"
    argv = ["--parent", "HEAD", "--workload", "w", "--pairs", "4", "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv, command=[sys.executable, str(stub)], root=repo) == 0
    result = json.loads(out.read_text())
    assert result["seeds"] == [1, 4]
    assert result["command"].endswith("run_seconds = 20 of BENCHMARK.json")
    w = result["workloads"]["w"]
    assert (w["all_correct"], w["failed_operations"], w["attempted_operations"]) == (
        True, {"parent": 0, "change": 0}, {"parent": 12, "change": 12})
    wall = w["metrics"]["wall_ref"]
    assert wall["parent"] == [11.0, 10.0, 11.0, 10.0] and wall["change"] == [9.0, 8.0, 9.0, 8.0]
    assert (wall["parent_median"], wall["change_median"], wall["change_pct"]) == (10.5, 8.5, -19.05)
    assert (wall["parent_iqr"], wall["wins"], wall["within_bound"], wall["gain"]) == (1.0, 4, True, True)
    setup = w["metrics"]["setup_s"]
    assert (setup["wins"], setup["within_bound"], setup["gain"]) == (0, True, False)
    report = capsys.readouterr().out
    assert "wins 4/4" in report and "gain" in report
