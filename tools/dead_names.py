"""Module-level names of a Python package that no other line of it reads.

A name is defined where a top-level statement of a module binds it: a
def, a class, an assignment or an import (`__future__` imports aside).
It is read when the same identifier is loaded as a name, taken as an
attribute or imported from a module, inside f-strings too, on a line of
the package other than the lines of that module that bind it. Dunders
and the names listed in any module's `__all__` are skipped. Comments
and strings, docstrings included, are not read, so a name mentioned
only there is dead. The test goes by spelling: an attribute or a local
of the same spelling anywhere in the package keeps a name alive.

    python3 tools/dead_names.py [package_dir]     # default: src/prefarg

Prints each dead name as `module:line: name` and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path


def _bindings(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) for every name a top-level statement binds."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, n.lineno) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            out += [((a.asname or a.name).split(".")[0], a.lineno) for a in node.names]
    return out


def _exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's `__all__`, if it assigns one literally."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def dead_names(package: Path) -> list[tuple[str, int, str]]:
    """(module file name, line, name) for each module-level name nothing else reads."""
    uses: dict[str, set[tuple[str, int]]] = defaultdict(set)
    defined = []
    exported: set[str] = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses[node.id].add((path.name, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add((path.name, node.end_lineno))
            elif isinstance(node, ast.ImportFrom):
                for a in node.names:
                    uses[a.name].add((path.name, a.lineno))
        exported |= _exported(tree)
        lines = defaultdict(set)
        for name, line in _bindings(tree):
            lines[name].add(line)
        defined += [(path.name, name, bound) for name, bound in lines.items()]
    return sorted(
        (module, min(bound), name)
        for module, name, bound in defined
        if not (name.startswith("__") and name.endswith("__")) and name not in exported
        and not uses[name] - {(module, line) for line in bound}
    )


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/prefarg")
    dead = dead_names(package)
    for module, line, name in dead:
        print(f"{module}:{line}: {name}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
