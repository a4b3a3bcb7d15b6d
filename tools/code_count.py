"""Code lines per module of a Python package, without docstrings, comments or blanks.

A line counts when it holds part of a token other than a comment, and
no part of a docstring: the string statement that opens a module,
class or function body. So a statement split over five lines counts
five, and reformatting the same code can move the count.

    python3 tools/code_count.py [package_dir]     # default: src/prefarg
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines)


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/prefarg")
    total = 0
    for path in sorted(package.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total ({package})")


if __name__ == "__main__":
    main(sys.argv[1:])
