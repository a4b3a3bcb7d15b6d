import importlib.util
import subprocess
from pathlib import Path

from conftest import SRC

TOOLS = Path(__file__).parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dead_names = load_tool("dead_names")
code_count = load_tool("code_count")


def write_package(root: Path, modules: dict[str, str]) -> Path:
    root.mkdir()
    for name, text in modules.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


class TestDeadNames:
    def test_flags_names_no_other_line_reads(self, tmp_path):
        package = write_package(tmp_path / "pkg", {
            "a.py": (
                "from __future__ import annotations\n"
                "import re\n"
                "from .b import used, imported_only\n"
                "__all__ = ['public']\n"
                "def public():\n"
                "    return helper() + used()\n"
                "def helper():\n"
                "    return re.compile(f'{_PATTERN}')\n"
                "_PATTERN = 'x'\n"
                "_DEAD = 1  # _DEAD\n"
                "_SELF = _SELF if False else 0\n"
            ),
            "b.py": (
                '"""_unused is named here only."""\n'
                "def used():\n"
                "    return 1\n"
                "def imported_only():\n"
                "    return 2\n"
                "def _unused():\n"
                "    return 'used'\n"
                "X = 1\n"
                "X = 2\n"
                "class Holder:\n"
                "    attr = 0\n"
                "def reads_attribute(h):\n"
                "    return h.attr, Holder\n"
            ),
        })
        assert dead_names.dead_names(package) == [
            ("a.py", 3, "imported_only"),
            ("a.py", 10, "_DEAD"),
            ("a.py", 11, "_SELF"),
            ("b.py", 6, "_unused"),
            ("b.py", 8, "X"),
            ("b.py", 12, "reads_attribute"),
        ]
        assert dead_names.main([str(package)]) == 1

    def test_package_has_none(self, capsys):
        assert dead_names.main([str(SRC / "prefarg")]) == 0
        assert capsys.readouterr().out == ""


class TestCodeCount:
    def test_counts_code_lines_only(self):
        assert code_count.code_lines(
            '"""Doc\nstring."""\n\n# comment\nx = (1,\n     2)  # trailing\n'
            'def f():\n    """Doc."""\n    return x\n'
        ) == 4

    def test_against_a_revision(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        package = write_package(repo, {"a.py": "x = 1\n", "b.py": "y = 2\nz = 3\n"})

        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                           cwd=repo, check=True, capture_output=True)

        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "first")
        (package / "a.py").write_text("x = 1\nw = 0\n# note\n", encoding="utf-8")
        (package / "b.py").unlink()
        (package / "c.py").write_text("v = 4\n", encoding="utf-8")
        (package / "notes.txt").write_text("not a module\n", encoding="utf-8")
        code_count.main(["--against", "HEAD", str(package)])
        assert capsys.readouterr().out.splitlines() == [
            "     1 ->      2     +1  a.py",
            "     2 ->      0     -2  b.py",
            "     0 ->      1     +1  c.py",
            f"     3 ->      3     +0  total ({package} against HEAD)",
        ]
        code_count.main([str(package)])
        assert capsys.readouterr().out.splitlines() == [
            "     2  a.py", "     1  c.py", f"     3  total ({package})",
        ]
