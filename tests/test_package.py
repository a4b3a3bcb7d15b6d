import ast
import inspect
from pathlib import Path

import pytest

import prefarg
from prefarg import arguments, cli, coherence, framework, kb, semantics

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "prefarg").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_all_names_resolve_once():
    assert len(prefarg.__all__) == len(set(prefarg.__all__))
    for name in prefarg.__all__:
        assert hasattr(prefarg, name), name


@pytest.mark.parametrize("owner,name", [
    (prefarg, "attacks"),
    (prefarg, "framework_to_json"),
    (prefarg, "intersection_incl"),
    (prefarg, "report_from_json"),
    (framework, "attacks"),
    (framework, "framework_to_json"),
    (coherence, "intersection_incl"),
    (semantics, "report_from_json"),
    (prefarg, "PreferenceRelation"),
    (framework, "PreferenceRelation"),
    # The lookups PreferenceRelation carried must not come back on Framework,
    # which now holds the preference as plain masks.
    *(pytest.param(framework.Framework, name, id=f"PreferenceRelation-{name}")
      for name in ("holds", "prefers", "pairs", "_index")),
    (framework.Framework, "has_defeat"),
    (framework.Framework, "has_attack"),
    (framework, "_table_for"),
    (coherence.Subbase, "slice_at"),
    (coherence.CorrespondenceReport, "clause"),
    (kb.StratifiedKB, "flatten"),
    (coherence, "_maximal_subbases"),
    (cli, "_reject_dot"),
    (cli, "_load"),
    (cli, "_query_formula"),
    (cli, "_kb_framework"),
    (arguments, "consistent_subsets"),
    (coherence, "consistent_subsets"),
    (coherence, "_table_for"),
    (coherence, "check_cap"),
    (prefarg, "report_to_json"),
    (semantics, "report_to_json"),
    (prefarg, "correspondence_to_json"),
    (coherence, "correspondence_to_json"),
    (coherence, "ref_to_json"),
    (coherence, "subbase_to_json"),
    (prefarg, "universe_to_json"),
    (arguments, "universe_to_json"),
    (semantics, "_f_mask"),
    (semantics, "_g_mask"),
])
def test_removed_helpers_stay_removed(owner, name):
    assert not hasattr(owner, name)


def test_check_correspondence_takes_no_framework():
    # It builds the undercut/certainty framework its clauses are about;
    # a framework handed in could silently be another one.
    assert list(inspect.signature(coherence.check_correspondence).parameters) == [
        "universe", "cap",
    ]
