#!/usr/bin/env python3
"""Count the code lines of Python modules, per module and in total.

A code line is a non-blank line that holds a token other than a comment
and is no line of a docstring (the leading string of a module, class or
function, as ``ast`` finds it).  Each row gives a module's code lines, then
all its lines, then its path.

Usage:
    python scripts/code_lines.py [PATH ...]

A PATH is a module or a directory of modules (not searched below its top
level); the default is src/metacirc.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The code lines of one module's source."""
    text = source.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return sum(1 for i in code if text[i - 1].strip())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", type=Path, default=[Path("src/metacirc")])
    args = ap.parse_args(argv)
    files = [f for p in args.paths for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    total_code = total = 0
    for f in files:
        source = f.read_text()
        code, lines = code_lines(source), len(source.splitlines())
        total_code += code
        total += lines
        print(f"{code:6d} {lines:6d}  {f}")
    print(f"{total_code:6d} {total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
