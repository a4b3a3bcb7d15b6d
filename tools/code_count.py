"""Code lines per module of a Python package, without docstrings, comments or blanks.

A line counts when it holds part of a token other than a comment, and
no part of a docstring: the string statement that opens a module,
class or function body. So a statement split over five lines counts
five, and reformatting the same code can move the count.

    python3 tools/code_count.py [package_dir]     # default: src/prefarg
    python3 tools/code_count.py --against REV [package_dir]

With --against, each module is also counted as it stands at the git
revision REV (read with `git show`, so the work tree is left alone), and
every line gives both counts and the change; a module missing on one
side counts 0 there.
"""

from __future__ import annotations

import ast
import io
import subprocess
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


def counts_at(rev: str, package: Path) -> dict[str, int]:
    """Code lines per module of package as committed at the git revision rev."""

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=package, check=True,
                              capture_output=True, text=True).stdout

    names = [x for x in git("ls-tree", "--name-only", rev).split("\n") if x.endswith(".py")]
    return {x: code_lines(git("show", f"{rev}:./{x}")) for x in names}


def main(argv: list[str]) -> None:
    rev = None
    if argv[:1] == ["--against"]:
        rev, argv = argv[1], argv[2:]
    package = Path(argv[0] if argv else "src/prefarg")
    now = {path.name: code_lines(path.read_text(encoding="utf-8"))
           for path in sorted(package.glob("*.py"))}
    if rev is None:
        for name, n in now.items():
            print(f"{n:6d}  {name}")
        print(f"{sum(now.values()):6d}  total ({package})")
        return
    then = counts_at(rev, package)
    for name in sorted(now.keys() | then.keys()):
        a, b = then.get(name, 0), now.get(name, 0)
        print(f"{a:6d} -> {b:6d}  {b - a:+5d}  {name}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{a:6d} -> {b:6d}  {b - a:+5d}  total ({package} against {rev})")


if __name__ == "__main__":
    main(sys.argv[1:])
