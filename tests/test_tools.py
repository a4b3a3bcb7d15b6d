import importlib.util
from pathlib import Path

from conftest import SRC

TOOLS = Path(__file__).parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("dead_names", TOOLS / "dead_names.py")
dead_names = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dead_names)


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
