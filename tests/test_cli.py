import hashlib
import json
import random
import subprocess
import sys
from collections import Counter

import pytest

from conftest import FIXTURES, SRC, fixture_text
from prefarg import cli, coherence
from prefarg.cli import main
from prefarg.kb import render_kb
from randgen import random_kb


@pytest.fixture
def run(capsys):
    def runner(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse-level usage errors
            code = exc.code if isinstance(exc.code, int) else 0
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return runner


def fx(name):
    return str(FIXTURES / name)


EXTENSIONS_TEXT = """\
mode: weak
capped: no
class_r: {A, B}
class_r_pref: {A, B}
grounded: {A, B} (2 iterations)
greatest_fixed_point: {A, B, C, D}
complete (3):
  {A, B}
  {A, B, C}
  {A, B, D}
unique_complete: no
stable (2):
  {A, B, C}
  {A, B, D}
"""

GRAPH_DOT = """\
digraph framework {
  rankdir=LR;
  "A" [label="A"];
  "B" [label="B"];
  "C" [label="C"];
  "D" [label="D"];
  "C" -> "D";
  "D" -> "C" [style=dashed];
}
"""


# seven beliefs, three routes to d against !d: 22 arguments
WIDE_KB = "[stratum 1]\na\nb\nc\n[stratum 2]\na -> d\nb -> d\nc -> d\n!d\n"


class TestExtensions:
    def test_text(self, run):
        code, out, err = run("extensions", fx("example1.af"))
        assert (code, err) == (0, "")
        assert out == EXTENSIONS_TEXT

    def test_json_all(self, run):
        code, out, _ = run("extensions", fx("example1.af"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["grounded"] == ["A", "B"]
        assert data["complete"] == [["A", "B"], ["A", "B", "C"], ["A", "B", "D"]]
        assert data["stable"] == [["A", "B", "C"], ["A", "B", "D"]]
        assert data["unique_complete"] is False

    def test_json_key_order(self, run):
        code, out, _ = run("extensions", fx("example1.af"), "--format", "json")
        assert code == 0
        assert list(json.loads(out)) == [
            "mode", "capped", "iterations", "unique_complete",
            "class_r", "class_r_pref", "grounded", "greatest_fixed_point",
            "complete", "stable",
        ]

    def test_semantics_projection(self, run):
        code, out, _ = run(
            "extensions", fx("example1.af"), "--semantics", "stable",
            "--format", "json",
        )
        assert code == 0
        assert list(json.loads(out)) == [
            "mode", "capped", "iterations", "class_r", "class_r_pref", "stable",
        ]

    def test_semantics_projection_text(self, run):
        code, out, _ = run("extensions", fx("example1.af"), "--semantics", "grounded")
        assert code == 0
        assert "grounded: {A, B} (2 iterations)" in out
        assert "complete" not in out and "stable" not in out

    def test_knowledge_base_input(self, run):
        code, out, _ = run("extensions", fx("example2.kb"), "--format", "json")
        assert code == 0
        assert json.loads(out)["class_r_pref"] == ["A5"]

    def test_defeat_and_pref_flags(self, run):
        code, out, _ = run(
            "extensions", fx("example2.kb"), "--defeat", "rebut",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class_r_pref"] == ["A3", "A4", "A5"]
        code, out, _ = run(
            "extensions", fx("example2.kb"), "--defeat", "rebut", "--pref", "none",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["class_r_pref"] == []

    def test_capped_input_degrades(self, run):
        code, out, _ = run(
            "extensions", fx("example1.af"), "--cap", "3", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["capped"] is True
        assert data["complete"] == [] and data["stable"] == []
        assert data["grounded"] == ["A", "B"]

    def test_large_cap_answers_promptly(self, tmp_path):
        # Testing all 2^32 subsets of a 32-argument chain never finished;
        # the search settles it at the grounded extension. A child process
        # keeps a hang from stalling the suite.
        target = tmp_path / "chain32.af"
        facts = [f"arg(N{i})." for i in range(32)]
        facts += [f"def(N{i},N{i + 1})." for i in range(31)]
        target.write_text("\n".join(facts) + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "prefarg.cli", "extensions", str(target),
             "--cap", "40", "--format", "json"],
            capture_output=True, text=True, cwd=SRC, timeout=20,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["complete"] == [data["grounded"]]
        assert data["stable"] == [data["grounded"]]

    def test_long_preference_chain_answers_promptly(self, tmp_path):
        # A 2000-long pref chain closes to about 2 M ordered pairs, which a
        # cubic closure over id pairs cannot reach in the time allowed.
        # Each argument defeats the one above it and is ignored, being
        # less preferred; N0's defeat of the weakest argument stands.
        n = 2000
        target = tmp_path / "pref_chain.af"
        facts = [f"arg(N{i})." for i in range(n)]
        facts += [f"pref(N{i},N{i + 1}). def(N{i + 1},N{i})." for i in range(n - 1)]
        facts.append(f"def(N0,N{n - 1}).")
        target.write_text("\n".join(facts) + "\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "prefarg.cli", "extensions", str(target),
             "--semantics", "grounded", "--format", "json"],
            capture_output=True, text=True, cwd=SRC, timeout=20,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["grounded"] == [f"N{i}" for i in range(n - 1)]


class TestArguments:
    def test_text_lists_universe(self, run):
        code, out, _ = run("arguments", fx("example2.kb"))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        assert lines[0] == "A1: ({a}, a) @1"
        assert lines[3] == "A4: ({a, a -> b}, b) @2"

    def test_json_shape(self, run):
        code, out, _ = run("arguments", fx("example2.kb"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[3] == {
            "id": "A4",
            "support": ["a", "a -> b"],
            "conclusion": "b",
            "level": 2,
        }
        assert len(data) == 8

    def test_query_joins_pool(self, run):
        code, out, _ = run(
            "arguments", fx("example3.kb"), "--query", "p", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert {"id": "A10", "support": ["!r", "!r -> p"], "conclusion": "p",
                "level": 4} in data

    def test_af_input_rejected(self, run):
        code, _, err = run("arguments", fx("example1.af"))
        assert code == 1
        assert "needs a knowledge base" in err

    def test_widest_truth_table_answers_promptly(self, tmp_path):
        # One belief over 24 atoms, the truth-table limit. Building the
        # atom masks by dividing a 2^24-bit integer never finished.
        target = tmp_path / "wide24.kb"
        target.write_text(
            "[stratum 1]\n" + " | ".join(f"x{i}" for i in range(24)) + "\n", encoding="utf-8",
        )
        proc = subprocess.run(
            [sys.executable, "-m", "prefarg.cli", "arguments", str(target)],
            capture_output=True, text=True, cwd=SRC, timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.count("\n") == 1


class TestAccept:
    def test_accepted(self, run):
        code, out, _ = run("accept", fx("example3.kb"), "--query", "p")
        assert code == 0
        assert out == (
            "query: p\n"
            "A10: ({!r, !r -> p}, p) @4  [grounded; 1/1 stable]\n"
            "verdict: accepted\n"
        )

    def test_not_accepted(self, run):
        code, out, _ = run("accept", fx("example2.kb"), "--query", "b")
        assert code == 0
        assert out == (
            "query: b\n"
            "A4: ({a, a -> b}, b) @2  [none; 1/2 stable]\n"
            "verdict: not accepted\n"
        )

    def test_json(self, run):
        code, out, _ = run(
            "accept", fx("example3.kb"), "--query", "p", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["accepted"] is True
        assert data["credulous_stable"] is True
        assert data["arguments"][0]["id"] == "A10"
        assert data["arguments"][0]["in_class_r_pref"] is False

    @pytest.mark.parametrize("query,row", [
        ("!!a", "A1: ({a}, !!a) @1"),
        ("a & a", "A2: ({a}, a & a) @1"),
    ])
    def test_rows_conclude_the_query_itself(self, run, tmp_path, query, row):
        # The argument ({a}, a) concludes a formula equivalent to the query,
        # but not the query, so it is no row.
        target = tmp_path / "a.kb"
        target.write_text("[stratum 1]\na\n[stratum 2]\n!a\n")
        code, out, _ = run("accept", str(target), "--query", query, "--format", "json")
        assert code == 0
        assert [r["argument"] for r in json.loads(out)["arguments"]] == [row]

    def test_unprovable_query(self, run):
        code, out, _ = run("accept", fx("example2.kb"), "--query", "a & !a")
        assert code == 0
        assert "no argument concludes the query" in out
        assert "verdict: not accepted" in out

    def test_query_required(self, run):
        code, _, err = run("accept", fx("example2.kb"))
        assert code == 1
        assert "needs --query" in err

    def test_query_tokens_separated_by_unicode_blank(self, run):
        answer = run("accept", fx("example2.kb"), "--query", "a\u00a0& b")
        assert answer[0] == 0
        assert answer == run("accept", fx("example2.kb"), "--query", "a & b")

    def test_bad_query_formula(self, run):
        code, _, err = run("accept", fx("example2.kb"), "--query", "a ->")
        assert code == 1
        assert "prefarg: error:" in err


class TestCoherence:
    def test_text(self, run):
        code, out, _ = run("coherence", fx("example2.kb"))
        assert code == 0
        assert "subbases (2):" in out
        assert "  {a, a -> b}\n" in out
        assert "  {!a, a -> b, !b}\n" in out
        assert "intersection: {a -> b}" in out
        assert "flat_stable_equals_max_consistent: pass" in out

    def test_json(self, run):
        code, out, _ = run("coherence", fx("example2.kb"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["subbases", "intersection", "correspondence"]
        assert data["intersection"] == [
            {"stratum": 2, "position": 0, "formula": "a -> b"},
        ]
        assert data["correspondence"]["ok"] is True

    def test_json_ref_and_subbase(self, run):
        code, out, _ = run("coherence", fx("example2.kb"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["subbases"][0] == [
            {"stratum": 1, "position": 0, "formula": "a"},
            {"stratum": 2, "position": 0, "formula": "a -> b"},
        ]
        assert data["subbases"][1][1] == {"stratum": 2, "position": 0, "formula": "a -> b"}
        assert all(list(r) == ["stratum", "position", "formula"]
                   for r in data["intersection"] + sum(data["subbases"], []))

    def test_correspondence_payload(self, run):
        # coherence and check print the same correspondence block
        blocks = []
        for command in ("coherence", "check"):
            code, out, _ = run(command, fx("example2.kb"), "--format", "json")
            assert code == 0
            blocks.append(json.loads(out)["correspondence"])
        data = blocks[0]
        assert blocks[1] == data
        assert list(data) == ["ok", "clauses"]
        assert data["ok"] is True
        assert [c["name"] for c in data["clauses"]] == [
            "subbase_arguments_are_stable",
            "class_support_within_intersection",
            "class_within_every_stable",
            "flat_stable_equals_max_consistent",
            "grounded_support_vs_intersection",
        ]
        assert all(list(c) == ["name", "status", "detail", "counterexample"]
                   for c in data["clauses"])
        assert all(c["counterexample"] is None for c in data["clauses"])

    def test_af_input_rejected(self, run):
        code, _, err = run("coherence", fx("example1.af"))
        assert code == 1
        assert "needs a knowledge base" in err

    def test_enumerates_subbases_once(self, run, monkeypatch):
        import prefarg.arguments as arguments_module
        import prefarg.coherence as coherence_module

        calls = Counter()
        for module, name in ((coherence_module, "_subbase_lists"),
                             (coherence_module, "_belief_masks"),
                             (arguments_module, "_belief_masks")):
            real = getattr(module, name)
            key = f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            monkeypatch.setattr(
                module, name, lambda *a, _key=key, _real=real: calls.update([_key]) or _real(*a),
            )
        for command in ("coherence", "check"):
            calls.clear()
            code, _, _ = run(command, fx("example2.kb"), "--format", "json")
            assert code == 0
            # one subbase walk and one support walk, each from one front end call
            assert calls == Counter({
                "coherence._subbase_lists": 1,
                "coherence._belief_masks": 1,
                "arguments._belief_masks": 1,
            }), command

    def test_failing_clause_prints_its_counterexample(self, run, monkeypatch):
        # Hiding one maximal consistent subbase fails the flat clause, as in
        # test_coherence's test_counterexample_names_universe_ids.
        import prefarg.coherence as coherence_module

        real = coherence_module._subbase_lists

        def without_second_maximal(kb, cap):
            maximal, preferred = real(kb, cap)
            return maximal[:1] + maximal[2:], preferred

        monkeypatch.setattr(coherence_module, "_subbase_lists", without_second_maximal)
        code, out, _ = run("coherence", fx("example2.kb"), "--format", "json")
        assert code == 0
        failed = [c for c in json.loads(out)["correspondence"]["clauses"] if c["status"] == "fail"]
        assert [c["name"] for c in failed] == ["flat_stable_equals_max_consistent"]
        clause = failed[0]
        code, out, _ = run("coherence", fx("example2.kb"))
        assert code == 0
        assert (
            f"{clause['name']}: fail  {clause['detail']}\n"
            f"  counterexample: {json.dumps(clause['counterexample'])}\n"
        ) in out
        code, out, _ = run("check", fx("example2.kb"))
        assert code == 3
        assert out.endswith("self_check: FAILED\n")


class TestGraph:
    def test_dot_marks_cancelled_defeats(self, run):
        code, out, _ = run("graph", fx("example1_pref.af"))
        assert (code, out) == (0, GRAPH_DOT)

    def test_kb_nodes_carry_levels(self, run):
        code, out, _ = run("graph", fx("example2.kb"), "--format", "dot")
        assert code == 0
        assert '"A4" [label="A4 @2"];' in out
        assert '"A6" -> "A4" [style=dashed];' in out
        assert '"A4" -> "A6";' in out

    def test_json_rejected(self, run):
        code, _, err = run("graph", fx("example1.af"), "--format", "json")
        assert code == 1
        assert "writes DOT" in err


class TestCheck:
    @pytest.mark.parametrize("name", [
        "example1.af", "example1_pref.af", "self_attack.af", "example4.af",
        "example2.kb", "example3.kb",
    ])
    def test_fixtures_pass(self, run, name):
        code, out, _ = run("check", fx(name))
        assert code == 0
        assert out.rstrip().endswith("self_check: ok")
        assert ": fail" not in out

    def test_interchange_tally_line(self, run):
        code, out, _ = run("check", fx("example1.af"))
        assert code == 0
        assert (
            "interchange tally: 8/16 subsets, 2 at f_step fixed points, "
            "0 at g_step fixed points"
        ) in out

    def test_json_shape(self, run):
        code, out, _ = run("check", fx("example2.kb"), "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["fgf"]["g_fixed_point_mismatches"] == 0
        assert {r["status"] for r in data["results"]} <= {"pass", "skipped"}
        assert data["correspondence"]["ok"] is True

    def test_over_cap_kb_is_refused_before_self_check(self, run, tmp_path, monkeypatch):
        target = tmp_path / "wide.kb"
        target.write_text(WIDE_KB, encoding="utf-8")
        calls = []
        real = cli.self_check
        monkeypatch.setattr(cli, "self_check", lambda fw: calls.append(fw) or real(fw))
        for fmt in ("text", "json"):
            code, out, err = run("check", str(target), "--format", fmt)
            assert (code, out) == (2, "")
            assert err == "prefarg: error: 22 arguments exceed the enumeration cap of 20\n"
        assert calls == []
        code, _, _ = run("check", fx("example2.kb"))
        assert (code, len(calls)) == (0, 1)

    def test_over_cap_af_is_refused_before_self_check(self, run, tmp_path, monkeypatch):
        names = [f"n{i}" for i in range(21)]
        target = tmp_path / "chain21.af"
        target.write_text(
            " ".join(f"arg({x})." for x in names) + "\n"
            + " ".join(f"def({x},{y})." for x, y in zip(names, names[1:])) + "\n",
            encoding="utf-8",
        )
        calls = []
        real = cli.self_check
        monkeypatch.setattr(cli, "self_check", lambda fw: calls.append(fw) or real(fw))
        for fmt in ("text", "json"):
            code, out, err = run("check", str(target), "--format", fmt)
            assert (code, out) == (2, "")
            assert err == "prefarg: error: 21 arguments exceed the enumeration cap of 20\n"
        assert calls == []
        code, out, _ = run("check", str(target), "--cap", "21")
        assert (code, len(calls)) == (0, 1)
        assert out.rstrip().endswith("self_check: ok")

    @pytest.mark.parametrize("plant", ["plain", "drop-first-stable", "class-is-every-id"])
    @pytest.mark.parametrize("base", ["example2.kb", "example3.kb", "core.kb"])
    def test_correspondence_ignores_defeat_and_pref(self, run, tmp_path, monkeypatch,
                                                    base, plant):
        # The clauses are about the undercut/certainty framework whatever
        # framework --defeat and --pref choose for self_check.
        (tmp_path / "core.kb").write_text(CORE_KB, encoding="utf-8")
        path = str(tmp_path / base) if base == "core.kb" else fx(base)
        for name, value in _PLANTS[plant].items():
            monkeypatch.setattr(coherence, name, value)
        code, out, _ = run("coherence", path, "--format", "json")
        assert code == 0
        expected = json.loads(out)["correspondence"]
        for defeat in ([], ["--defeat", "undercut"], ["--defeat", "rebut"]):
            for pref in ([], ["--pref", "certainty"], ["--pref", "none"]):
                code, out, _ = run("check", path, "--format", "json", *defeat, *pref)
                assert code in (0, 3)
                assert json.loads(out)["correspondence"] == expected, (defeat, pref)

    def test_failing_check_exits_3(self, run, monkeypatch):
        import prefarg.cli as cli_module
        from prefarg.semantics import CheckResult, SelfCheckReport

        broken = SelfCheckReport(
            results=(CheckResult("f_monotone", "fail", "planted"),),
            fgf_checked=0, fgf_mismatches=0,
            fgf_f_fixed_point_mismatches=0, fgf_g_fixed_point_mismatches=0,
        )
        monkeypatch.setattr(cli_module, "self_check", lambda fw: broken)
        code, out, _ = run("check", fx("example1.af"))
        assert code == 3
        assert "self_check: FAILED" in out


def _seeded_af(rng, n):
    names = [f"N{i}" for i in range(n)]
    lines = [" ".join(f"arg({x})." for x in names)]
    lines += [f"def({x},{y})." for x in names for y in names if rng.random() < 0.15]
    lines += [f"pref({rng.choice(names)},{rng.choice(names)})." for _ in range(n // 3)]
    return "\n".join(lines) + "\n"


def _seeded_kb(rng):
    lines = []
    for stratum in (1, 2, 3):
        lines.append(f"[stratum {stratum}]")
        for _ in range(rng.randint(1, 2)):
            a, b = rng.sample("abcd", 2)
            lines.append(rng.choice([a, f"!{a}", f"{a} -> {b}", f"{a} | !{b}", f"{a} & {b}"]))
    return "\n".join(lines) + "\n"


# sha256 of `check --format json` over the inputs below: a reworded
# detail, a reordered law or a changed tally moves it.
CHECK_JSON_DIGEST = "82204d6c736f4a409d75f8ca2907aabad4073b0c3d0b6523d10131b88554c346"


class TestCheckGolden:
    def test_json_digest(self, run, tmp_path):
        inputs = [(name, fx(name)) for name in (
            "example1.af", "example1_pref.af", "self_attack.af", "example4.af",
            "example2.kb", "example3.kb",
        )]
        # 12 and 13 arguments sit on both sides of MAX_EXHAUSTIVE; the
        # bases below yield 8, 10, 11 and 13 arguments.
        for n in (5, 9, 12, 13, 15):
            target = tmp_path / f"seeded{n}.af"
            target.write_text(_seeded_af(random.Random(n), n), encoding="utf-8")
            inputs.append((target.name, str(target)))
        for seed in (0, 3, 4, 9):
            target = tmp_path / f"seeded{seed}.kb"
            target.write_text(_seeded_kb(random.Random(seed)), encoding="utf-8")
            inputs.append((target.name, str(target)))
        digest = hashlib.sha256()
        for name, path in inputs:
            code, out, _ = run("check", path, "--format", "json")
            digest.update(f"{name} {code}\n{out}".encode())
        assert digest.hexdigest() == CHECK_JSON_DIGEST


# a core and three strata: 12 arguments, so ids sort as strings (A10 before A2)
CORE_KB = "[core]\na -> b\n[stratum 1]\na\nc\n[stratum 2]\n!b\nc -> d\n[stratum 3]\n!d\nd | e\n"

# Two plants that fail every correspondence clause between them: dropping
# the first stable extension of each list fails the subbase and flat
# clauses, and calling every argument unattacked fails the two class
# clauses, each with its counterexample.
_PLANTS = {
    "plain": {},
    "drop-first-stable": {
        "stable_extensions": lambda fw, mode, cap, _real=coherence.stable_extensions:
            _real(fw, mode, cap)[1:],
    },
    "class-is-every-id": {"class_cr_pref": lambda fw: frozenset(fw.ids)},
}

# sha256 of check and coherence, text and JSON, under each plant above
# over example2.kb, example3.kb and CORE_KB: a changed counterexample
# part, key or id order moves it.
COUNTEREXAMPLE_DIGEST = "9f7a385b698b89d265d0e4efabfd63cb3427283a217ff9100c08eeb81eb91707"


class TestCounterexampleGolden:
    def test_digest(self, run, tmp_path, monkeypatch):
        (tmp_path / "core.kb").write_text(CORE_KB, encoding="utf-8")
        paths = [fx("example2.kb"), fx("example3.kb"), str(tmp_path / "core.kb")]
        digest = hashlib.sha256()
        failed = set()
        for plant, attrs in _PLANTS.items():
            with monkeypatch.context() as patch:
                for name, value in attrs.items():
                    patch.setattr(coherence, name, value)
                for path in paths:
                    base = path.rsplit("/", 1)[1]
                    for command in ("check", "coherence"):
                        for fmt in ("text", "json"):
                            code, out, err = run(command, path, "--format", fmt)
                            digest.update(f"{plant} {base} {command} {fmt}\n{code}\n{out}\n{err}\n"
                                          .encode())
                    clauses = json.loads(out)["correspondence"]["clauses"]
                    failed |= {c["name"] for c in clauses if c["counterexample"]}
        assert failed == {
            "subbase_arguments_are_stable", "class_support_within_intersection",
            "class_within_every_stable", "flat_stable_equals_max_consistent",
        }
        assert digest.hexdigest() == COUNTEREXAMPLE_DIGEST


_SWEEP_FLAGS = [
    [], ["--defeat", "rebut"], ["--pref", "none"], ["--mode", "strict"],
    ["--semantics", "grounded"], ["--semantics", "complete"], ["--semantics", "stable"],
    ["--semantics", "all"], ["--cap", "3"], ["--query", "{atom}"], ["--query", "zz"],
]
_SWEEP_FORMATS = [[], ["--format", "json"]]

# sha256 of every subcommand under every flag set above, in text and
# JSON, plus --format dot, over the inputs of test_every_output_digest:
# any change to what any command prints, or to its exit code, moves it.
SWEEP_DIGEST = "d533ba8f118cfad86fcf52e99477ba8d13c0476152d136ec2e6e010929ef62c0"


class TestOutputGolden:
    def test_every_output_digest(self, capsys, tmp_path):
        inputs = [(fx(name), atom) for name, atom in (
            ("example1.af", "a"), ("example1_pref.af", "a"), ("self_attack.af", "a"),
            ("example4.af", "a"), ("example2.kb", "b"), ("example3.kb", "p"),
        )]
        files = {
            "bad.kb": b"[stratum 2]\np\n",
            "bad.af": b"arg(a). def(a\n",
            "latin1.kb": "[stratum 1]\ncafé\n".encode("latin-1"),
            "plain": b"[stratum 1]\na\n",
            "core.kb": b"[core]\na -> b\n[stratum 1]\na\n!b\n[stratum 2]\nc\nc -> !a\n",
            "wide.kb": WIDE_KB.encode(),
        }
        for seed in (1, 2, 5, 7, 11):
            files[f"rand{seed}.kb"] = render_kb(random_kb(random.Random(seed))[0]).encode()
        for n in (6, 9):
            files[f"seeded{n}.af"] = _seeded_af(random.Random(n), n).encode()
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
            inputs.append((str(tmp_path / name), "a"))
        inputs.append((str(tmp_path / "missing.kb"), "a"))
        digest = hashlib.sha256()
        for path, atom in inputs:
            for command in ("arguments", "extensions", "accept", "coherence", "graph", "check"):
                for flags in [f + fmt for f in _SWEEP_FLAGS for fmt in _SWEEP_FORMATS] + [
                    ["--format", "dot"]
                ]:
                    argv = [command, path] + [f.format(atom=atom) for f in flags]
                    try:
                        code = main(argv)
                        out, err = capsys.readouterr()
                    except SystemExit as exc:
                        # argparse's own usage text varies across Python versions
                        code, (out, err) = exc.code, (capsys.readouterr().out, "usage\n")
                    record = f"{argv}\n{code}\n{out}\n{err}\n"
                    for prefix, token in ((str(tmp_path), "TMP"), (str(FIXTURES), "FIX")):
                        record = record.replace(prefix, token)
                    digest.update(record.encode())
        assert digest.hexdigest() == SWEEP_DIGEST


class TestInputHandling:
    def test_kind_override(self, run, tmp_path):
        target = tmp_path / "plain.txt"
        target.write_text(fixture_text("example1.af"), encoding="utf-8")
        code, _, err = run("extensions", str(target))
        assert code == 1
        assert "cannot infer input kind" in err
        code, out, _ = run("extensions", str(target), "--kind", "af")
        assert code == 0
        assert "grounded: {A, B}" in out

    @pytest.mark.parametrize("flag,value", [
        ("--defeat", "rebut"), ("--pref", "none"), ("--query", "p"),
    ])
    def test_kb_flags_rejected_for_af(self, run, flag, value):
        code, _, err = run("extensions", fx("example1.af"), flag, value)
        assert code == 1
        assert f"{flag} does not apply" in err

    @pytest.mark.parametrize("command,flag,value", [
        *[("arguments", f, v) for f, v in (
            ("--defeat", "rebut"), ("--pref", "none"), ("--mode", "strict"),
            ("--semantics", "grounded"))],
        *[("coherence", f, v) for f, v in (
            ("--defeat", "rebut"), ("--pref", "none"), ("--mode", "strict"),
            ("--semantics", "grounded"))],
        ("accept", "--semantics", "grounded"),
        ("graph", "--mode", "strict"), ("graph", "--semantics", "grounded"),
        ("check", "--mode", "strict"), ("check", "--semantics", "grounded"),
    ])
    def test_flag_the_subcommand_ignores_is_usage_error(self, run, command, flag, value):
        code, out, err = run(command, fx("example2.kb"), "--query", "b", flag, value)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag} {value}" in err

    def test_missing_file(self, run):
        code, _, err = run("extensions", "no_such_file.af")
        assert code == 1
        assert "prefarg: error:" in err

    @pytest.mark.parametrize("suffix", [".kb", ".af"])
    def test_input_not_utf8_is_parse_error(self, run, tmp_path, suffix):
        target = tmp_path / f"binary{suffix}"
        target.write_bytes(b"\xff")
        for command in ("arguments", "extensions", "accept", "coherence", "graph", "check"):
            code, out, err = run(command, str(target))
            assert (code, out) == (1, "")
            assert err.startswith("prefarg: error: ")
            assert "can't decode byte 0xff" in err
            assert err.count("\n") == 1

    def test_malformed_kb(self, run, tmp_path):
        target = tmp_path / "bad.kb"
        target.write_text("[stratum 2]\np\n", encoding="utf-8")
        code, _, err = run("extensions", str(target))
        assert code == 1
        assert "prefarg: error:" in err

    def test_cap_exceeded_exits_2(self, run):
        code, _, err = run("arguments", fx("example2.kb"), "--cap", "3")
        assert code == 2
        assert "exceed the enumeration cap" in err

    @pytest.mark.parametrize("command,name", [
        ("arguments", "example2.kb"), ("extensions", "example1.af"),
        ("extensions", "example2.kb"), ("accept", "example2.kb"),
        ("coherence", "example2.kb"), ("graph", "example1.af"), ("check", "example1.af"),
    ])
    def test_negative_cap_is_usage_error(self, run, command, name):
        extra = ["--query", "b"] if name.endswith(".kb") else []
        code, out, err = run(command, fx(name), "--cap", "-1", *extra)
        assert (code, out) == (1, "")
        assert err == f"prefarg {command}: error: --cap must be at least 0, got -1\n"

    @pytest.mark.parametrize("text", [
        "(" * 1000 + "a" + ")" * 1000,
        "!" * 1000 + "a",
        " & ".join(["a"] * 1001),
    ], ids=["parentheses", "negations", "conjunctions"])
    def test_deeply_nested_formula_is_parse_error(self, run, tmp_path, text):
        target = tmp_path / "deep.kb"
        target.write_text(f"[stratum 1]\n{text}\n", encoding="utf-8")
        for argv in (
            ["arguments", str(target)],
            ["accept", fx("example2.kb"), "--query", text],
        ):
            code, out, err = run(*argv)
            assert (code, out) == (1, "")
            assert err.startswith("prefarg: error: ")
            assert "nested deeper than 100" in err
            assert err.count("\n") == 1

    def test_unknown_subcommand(self, run):
        code, _, err = run("frobnicate", fx("example1.af"))
        assert code == 1
        assert "error" in err

    def test_dot_rejected_elsewhere(self, run):
        code, _, err = run("extensions", fx("example1.af"), "--format", "dot")
        assert code == 1
        assert "only applies to the graph subcommand" in err

    @pytest.mark.parametrize("name,argv,err", [
        *[(name, ["arguments", "--format", "dot"],
           "prefarg arguments: error: --format dot only applies to the graph subcommand\n")
          for name in ("bad.af", "missing.af")],
        *[(name, ["graph", "--format", "json"],
           "prefarg graph: error: the graph subcommand writes DOT, use --format dot\n")
          for name in ("bad.af", "missing.af")],
        ("bad.af", ["arguments"], "prefarg: error: line 1: cannot parse fact near 'def(a'\n"),
        ("bad.af", ["extensions", "--query", "b"],
         "prefarg extensions: error: --query does not apply to abstract framework input\n"),
        ("bad.kb", ["accept"], "prefarg: error: line 1: expected [stratum 1], got [stratum 2]\n"),
        ("wide.kb", ["accept"], "prefarg accept: error: the accept subcommand needs --query\n"),
        ("wide.kb", ["check", "--query", "a &"],
         "prefarg: error: unexpected end of input (at offset 3)\n"),
    ])
    def test_input_rules_apply_in_order(self, run, tmp_path, name, argv, err):
        # The format rules come before the file is read; an .af's flag
        # rule before its parse; the parse before the check that the
        # subcommand needs a knowledge base, and before accept's need for
        # --query; --query is parsed before the universe is built, and the
        # universe before check refuses it (wide.kb has 22 arguments).
        (tmp_path / "bad.af").write_text("arg(a). def(a\n", encoding="utf-8")
        (tmp_path / "bad.kb").write_text("[stratum 2]\np\n", encoding="utf-8")
        (tmp_path / "wide.kb").write_text(WIDE_KB, encoding="utf-8")
        command, *flags = argv
        assert run(command, str(tmp_path / name), *flags) == (1, "", err)

    @pytest.mark.parametrize("name,argv,expected", [
        ("example2.kb", ["arguments"], (0, 1, 0)),
        ("example2.kb", ["coherence"], (0, 1, 0)),
        ("example2.kb", ["extensions"], (0, 1, 1)),
        ("example2.kb", ["accept", "--query", "b"], (0, 1, 1)),
        ("example2.kb", ["graph"], (0, 1, 1)),
        ("example2.kb", ["check"], (0, 1, 1)),
        ("wide.kb", ["check"], (2, 1, 0)),
    ])
    def test_each_layer_is_built_at_most_once(self, run, tmp_path, monkeypatch,
                                              name, argv, expected):
        # main builds the universe and the framework; check refuses an
        # over-cap .kb before building the framework it would not read.
        (tmp_path / "wide.kb").write_text(WIDE_KB, encoding="utf-8")
        counts = Counter()
        for layer in ("build_universe", "build_framework"):
            real = getattr(cli, layer)
            monkeypatch.setattr(cli, layer, lambda *a, real=real, layer=layer: (
                counts.update([layer]) or real(*a)))
        path = fx(name) if name.startswith("example") else str(tmp_path / name)
        command, *flags = argv
        code, _, _ = run(command, path, *flags)
        assert (code, counts["build_universe"], counts["build_framework"]) == expected


    @pytest.mark.parametrize("flags", [
        [],
        ["--defeat", "undercut", "--pref", "certainty"],
        ["--defeat", "rebut"],
        ["--pref", "none"],
    ])
    def test_check_builds_a_framework_for_each_report(self, run, monkeypatch, flags):
        # main builds the framework --defeat and --pref choose for
        # self_check, and check_correspondence builds the undercut/certainty
        # one its clauses are about, whatever the flags.
        expected = run("check", fx("example2.kb"), "--format", "json", *flags)
        counts = Counter()
        for module in (cli, coherence):
            real = module.build_framework
            monkeypatch.setattr(module, "build_framework", lambda *a, real=real, **k: (
                counts.update(["build_framework"]) or real(*a, **k)))
        assert run("check", fx("example2.kb"), "--format", "json", *flags) == expected
        assert counts["build_framework"] == 2


class TestDeterminism:
    @pytest.mark.parametrize("name", [
        "example1.af", "example1_pref.af", "self_attack.af", "example4.af",
        "example2.kb", "example3.kb",
    ])
    def test_json_extensions_repeat_byte_identical(self, run, name):
        first = run("extensions", fx(name), "--format", "json")
        second = run("extensions", fx(name), "--format", "json")
        assert first == second
        assert first[0] == 0


class TestParserReuse:
    CALLS = [
        ("extensions", fx("example1.af"), "--format", "xml"),
        ("extensions", fx("example1_pref.af"), "--format", "json"),
        ("coherence", fx("example2.kb"), "--semantics", "all"),
        ("extensions", fx("example1_pref.af"), "--format", "json"),
    ]

    def outcomes(self, capsys):
        results = []
        for argv in self.CALLS:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse-level usage errors
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, out, err))
        return results

    def test_shared_parser_matches_fresh_parser(self, capsys, monkeypatch):
        parser = cli._build_parser()
        shared = self.outcomes(capsys)
        assert cli._build_parser() is parser
        assert [code for code, _, _ in shared] == [1, 0, 1, 0]
        assert "invalid choice" in shared[0][2]
        assert "unrecognized arguments: --semantics" in shared[2][2]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        assert self.outcomes(capsys) == shared
