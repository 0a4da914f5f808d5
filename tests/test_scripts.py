from __future__ import annotations

import importlib.util
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
