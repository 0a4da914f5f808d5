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
