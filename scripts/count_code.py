#!/usr/bin/env python3
"""Count the code lines of Python files: the non-blank lines that are
neither comments nor docstrings.

    python3 scripts/count_code.py src/beg_dobrushin

Takes files or directories (searched for *.py) and prints one line per file,
"<count> <path>", then "<total> total".  A line counts when it holds a token
other than a comment and is not part of a module, class or function
docstring; a blank line inside a multi-line string literal does not count.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring in tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code(source: str) -> int:
    """Number of non-blank lines of source that are neither comments nor docstrings."""
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if text[n - 1].strip())
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[Path]:
    """The given files, and the *.py files under the given directories, sorted."""
    found = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="Python files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        count = count_code(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
