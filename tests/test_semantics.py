import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import oracles
import randgen
from conftest import SRC, fixture_text
from prefarg.errors import CapExceededError
from prefarg.framework import parse_abstract_framework
from prefarg import semantics
from prefarg.arguments import Argument
from prefarg.framework import Framework, build_framework
from prefarg.semantics import (
    MAX_EXHAUSTIVE,
    MODES,
    class_cr,
    class_cr_pref,
    complete_extensions,
    conflict_free,
    evaluate,
    f_step,
    g_step,
    greatest_fixed_point,
    grounded_extension,
    self_check,
    stable_extensions,
)


def load(name):
    return parse_abstract_framework(fixture_text(name))


def chain(n):
    facts = [f"arg(N{i})." for i in range(n)]
    facts += [f"def(N{i},N{i + 1})." for i in range(n - 1)]
    return parse_abstract_framework("\n".join(facts))


# Sixteen arguments (the sampled pool) attacked by none, one or two of
# them: 39 of the 90 kb-check frameworks of 13-20 arguments have at most
# two attackers, while a chain has one at nearly every position.
SPARSE16 = {
    "none16": [],
    "star16": [(0, j) for j in range(1, 16)],
    "two16": [(j % 2, j) for j in range(2, 16)],
}


def sparse16(name):
    facts = [f"arg(N{i})." for i in range(16)]
    facts += [f"def(N{i},N{j})." for i, j in SPARSE16[name]]
    return parse_abstract_framework("\n".join(facts))


def _full(fw):
    return (1 << len(fw.arguments)) - 1


# Planted faults: the function to replace and its replacement, built
# from the real one. The f_step and g_step kernels read only the set a
# subset attacks, so their plants are keyed by an attacked set: that of
# every argument, or that of mask 1, the first argument alone. On
# example1.af the first argument attacks nothing, so its class is the
# empty set's; the grounded labelling calls none of the three operator
# kernels, so no kernel plant reaches it. The grounded plant keeps only
# the first IN frontier, which on a chain misses every other member.
PLANTS = {
    "f_of_everything_empty": ("_defended", lambda real: lambda fw, a: (
        0 if a == semantics._attacked_by(fw, _full(fw)) else real(fw, a))),
    "f_of_first_everything": ("_defended", lambda real: lambda fw, a: (
        _full(fw) if a == semantics._attacked_by(fw, 1) else real(fw, a))),
    "g_of_everything_everything": ("_not_attacked", lambda real: lambda fw, a: (
        _full(fw) if a == semantics._attacked_by(fw, _full(fw)) else real(fw, a))),
    "g_fixes_first": ("_not_attacked", lambda real: lambda fw, a: (
        1 if a == semantics._attacked_by(fw, 1) else real(fw, a))),
    "everything_conflict_free": ("_conflict_free_mask", lambda real: lambda fw, s, mode, *r: (
        s == _full(fw) or real(fw, s, mode, *r))),
    "grounded_first_frontier": ("_grounded_labelling", lambda real: lambda fw: (
        [i for i, m in enumerate(fw.attackers_mask) if not m], real(fw)[1])),
}


class TestMutualConflictPair:
    """Four arguments, C and D defeating each other, no preference."""

    def test_classes(self):
        fw = load("example1.af")
        assert class_cr(fw) == {"A", "B"}
        assert class_cr_pref(fw) == {"A", "B"}

    def test_operators_on_hand_sets(self):
        fw = load("example1.af")
        assert f_step(fw, []) == {"A", "B"}
        assert f_step(fw, ["A", "B"]) == {"A", "B"}
        assert f_step(fw, ["C"]) == {"A", "B", "C"}
        assert g_step(fw, []) == {"A", "B", "C", "D"}
        assert g_step(fw, ["C"]) == {"A", "B", "C"}

    def test_grounded(self):
        fw = load("example1.af")
        assert grounded_extension(fw) == (frozenset("AB"), 2)

    def test_extensions(self):
        fw = load("example1.af")
        assert complete_extensions(fw) == [
            frozenset("AB"), frozenset("ABC"), frozenset("ABD"),
        ]
        assert stable_extensions(fw) == [frozenset("ABC"), frozenset("ABD")]

    def test_report(self):
        rep = evaluate(load("example1.af"))
        assert rep.grounded == ("A", "B")
        assert rep.iterations == 2
        assert rep.greatest_fixed_point == ("A", "B", "C", "D")
        assert rep.complete == (("A", "B"), ("A", "B", "C"), ("A", "B", "D"))
        assert rep.stable == (("A", "B", "C"), ("A", "B", "D"))
        assert rep.unique_complete is False
        assert rep.capped is False


class TestResolvedConflictPair:
    """Same framework with the C over D preference cancelling one defeat."""

    def test_report(self):
        rep = evaluate(load("example1_pref.af"))
        assert rep.class_r == ("A", "B")
        assert rep.class_r_pref == ("A", "B", "C")
        assert rep.grounded == ("A", "B", "C")
        assert rep.greatest_fixed_point == ("A", "B", "C")
        assert rep.complete == (("A", "B", "C"),)
        assert rep.stable == (("A", "B", "C"),)
        assert rep.unique_complete is True


class TestSelfAttack:
    def test_report(self):
        rep = evaluate(load("self_attack.af"))
        assert rep.grounded == ()
        assert rep.iterations == 1
        assert rep.greatest_fixed_point == ("A",)
        assert rep.complete == ((),)
        assert rep.stable == ()
        assert rep.unique_complete is False

    def test_unique_complete_flag_is_conservative(self):
        # exactly one complete extension, yet the flag stays down: the
        # greatest fixed point keeps the self-attacker and is not
        # conflict-free, and the flag reports that stronger condition
        rep = evaluate(load("self_attack.af"))
        assert len(rep.complete) == 1
        assert rep.unique_complete is False


class TestCancelledChain:
    """Defeat chain A->B->C where each target is preferred to its source."""

    def test_report(self):
        rep = evaluate(load("example4.af"))
        assert rep.class_r == ("A",)
        assert rep.class_r_pref == ("A", "B", "C")
        assert rep.grounded == ("A", "B", "C")
        assert rep.iterations == 2
        assert rep.complete == (("A", "B", "C"),)
        assert rep.stable == (("A", "B", "C"),)
        assert rep.unique_complete is True


class TestEmptyFramework:
    def test_report(self):
        rep = evaluate(parse_abstract_framework(""))
        assert rep.grounded == ()
        assert rep.greatest_fixed_point == ()
        assert rep.complete == ((),)
        assert rep.stable == ((),)
        assert rep.unique_complete is True


class TestConflictFree:
    def test_weak(self):
        fw = load("example1.af")
        assert conflict_free(fw, ["A", "C"])
        assert conflict_free(fw, ["A", "B", "C"])
        assert not conflict_free(fw, ["C", "D"])

    def test_strict_counts_cancelled_defeats(self):
        fw = parse_abstract_framework("arg(A). arg(B). def(A,B). pref(B,A).")
        assert conflict_free(fw, ["A", "B"], "weak")
        assert not conflict_free(fw, ["A", "B"], "strict")

    def test_bad_mode(self):
        fw = load("example1.af")
        with pytest.raises(ValueError):
            conflict_free(fw, ["A"], "loose")
        with pytest.raises(ValueError):
            evaluate(fw, mode="loose")


class TestStrictMode:
    def test_strict_can_empty_the_complete_list(self):
        # the only fixed point of f_step is {A, B}, which contains the
        # cancelled defeat, so strict mode rejects it
        fw = parse_abstract_framework("arg(A). arg(B). def(A,B). pref(B,A).")
        assert evaluate(fw, mode="weak").complete == (("A", "B"),)
        assert evaluate(fw, mode="strict").complete == ()
        assert evaluate(fw, mode="strict").stable == ()

    def test_strict_equals_weak_without_preference(self):
        rng = random.Random(11)
        for _ in range(20):
            fw = randgen.random_framework(rng)
            if fw.preference_mask is not None or len(fw.arguments) > 8:
                continue
            assert evaluate(fw, "weak").complete == evaluate(fw, "strict").complete


class TestCap:
    def test_enumerations_refuse_past_cap(self):
        fw = load("example1.af")
        with pytest.raises(CapExceededError):
            complete_extensions(fw, cap=3)
        with pytest.raises(CapExceededError):
            stable_extensions(fw, cap=3)

    def test_evaluate_degrades_to_partial_report(self):
        rep = evaluate(load("example1.af"), cap=3)
        assert rep.capped is True
        assert rep.complete == () and rep.stable == ()
        assert rep.grounded == ("A", "B")  # polynomial parts still run

    def test_grounded_never_capped(self):
        facts = [f"arg(N{i})." for i in range(30)]
        facts += [f"def(N{i},N{i + 1})." for i in range(29)]
        fw = parse_abstract_framework("\n".join(facts))
        ids, _ = grounded_extension(fw)
        assert ids == frozenset(f"N{i}" for i in range(0, 30, 2))

    def test_twenty_thousand_argument_chain_answers_promptly(self):
        # Iterating f_step costs O(n) per round, and a chain takes n / 2
        # rounds: minutes at this size. The labelling walks each edge at
        # most twice. A child process with a time limit keeps a
        # regression from stalling the suite.
        code = (
            "from test_semantics import chain\n"
            "from prefarg.semantics import grounded_extension\n"
            "ids, iterations = grounded_extension(chain(20000))\n"
            "print(len(ids), iterations, ids == {f'N{i}' for i in range(0, 20000, 2)})\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["10000", "10001", "True"]


class TestAgainstOracles:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_framework(self, seed):
        fw = randgen.random_framework(random.Random(seed))
        ids = set(fw.ids)
        atk = set(fw.attacks)
        grounded, iterations = grounded_extension(fw)
        assert (grounded, iterations) == oracles.grounded_rounds_oracle(ids, atk)
        assert set(complete_extensions(fw)) == oracles.complete_oracle(ids, atk)
        assert set(stable_extensions(fw)) == oracles.stable_oracle(ids, atk)
        assert greatest_fixed_point(fw) == oracles.g_oracle(ids, atk, grounded)

        def ordered(extensions):
            return tuple(tuple(a for a in fw.ids if a in e) for e in extensions)

        for mode in MODES:
            rep = evaluate(fw, mode)
            assert rep.complete == ordered(complete_extensions(fw, mode))
            assert rep.stable == ordered(stable_extensions(fw, mode))

        rng = random.Random(seed + 1000)
        for _ in range(10):
            s = frozenset(a for a in ids if rng.random() < 0.5)
            assert f_step(fw, s) == oracles.f_oracle(ids, atk, s)
            assert g_step(fw, s) == oracles.g_oracle(ids, atk, s)
            assert conflict_free(fw, s) == oracles.conflict_free_oracle(atk, s)

    def test_knowledge_base_framework(self):
        rng = random.Random(5)
        for _ in range(10):
            _, universe = randgen.random_kb(rng, max_universe=9)
            fw = build_framework(universe)
            ids = set(fw.ids)
            atk = set(fw.attacks)
            assert grounded_extension(fw) == oracles.grounded_rounds_oracle(ids, atk)
            assert set(stable_extensions(fw)) == oracles.stable_oracle(ids, atk)


def edges_af(edges):
    """A framework of the named edges, "a>b" for a defeats b; its arguments
    are declared in order of first mention."""
    pairs = [e.split(">") for e in edges.split()]
    names = dict.fromkeys(x for pair in pairs for x in pair)
    facts = [f"arg({x})." for x in names] + [f"def({x},{y})." for x, y in pairs]
    return parse_abstract_framework(" ".join(facts))


class TestGroundedLabellingShapes:
    """Shapes that the rounds of the grounded labelling must get right,
    pinned to members and f_step applications."""

    @pytest.mark.parametrize("edges,grounded,iterations", [
        # x's attackers go OUT in rounds 1 (b) and 2 (d): x is a candidate
        # in both rounds and goes IN only in round 3.
        ("a>b a>f f>e e>d b>x d>x", "aex", 4),
        # A self-attacker no one attacks keeps its chain undecided; one put
        # OUT by an unattacked argument lets the chain behind it alternate.
        ("s>s s>c c>d d>e u>t t>t t>p p>q q>r", "upr", 4),
        # An odd cycle upstream of a chain leaves it undecided, but for
        # what an unattacked argument reaches.
        ("a>b b>c c>a c>d d>e e>f u>e", "uf", 3),
        ("a>a", "", 1),
        ("a>b b>a b>c c>d", "", 1),
    ], ids=["attackers-out-in-different-rounds", "self-attacker-feeding-a-chain",
            "odd-cycle-upstream-of-a-chain", "lone-self-attacker", "even-cycle"])
    def test_shapes_match_the_rounds_oracle(self, edges, grounded, iterations):
        fw = edges_af(edges)
        expected = oracles.grounded_rounds_oracle(set(fw.ids), set(fw.attacks))
        assert expected == (frozenset(grounded), iterations)
        assert grounded_extension(fw) == expected
        members, rounds = semantics._grounded_labelling(fw)
        assert len(members) == len(set(members)) and rounds == iterations

    def test_three_thousand_argument_chain(self):
        # One round per IN member, 1500 of them, each peeling one OUT
        # argument; the labelling loops rather than recurses.
        fw = chain(3000)
        expected = grounded_by_attacker_sets(fw.ids, set(fw.attacks))
        assert expected == (frozenset(f"N{i}" for i in range(0, 3000, 2)), 1501)
        assert grounded_extension(fw) == expected
        members, _ = semantics._grounded_labelling(fw)
        assert members == list(range(0, 3000, 2))


def large_af_text(rng, n, with_prefs):
    """n arguments, 2n random defeat facts and, with prefs, n random
    preference facts, 16 arg facts to a line."""
    ids = [f"x{i}" for i in range(n)]
    lines = [" ".join(f"arg({x})." for x in ids[i:i + 16]) for i in range(0, n, 16)]
    lines += [f"def({rng.choice(ids)},{rng.choice(ids)})." for _ in range(2 * n)]
    if with_prefs:
        lines += [f"pref({rng.choice(ids)},{rng.choice(ids)})." for _ in range(n)]
    return "\n".join(lines) + "\n"


def grounded_by_attacker_sets(ids, attacks):
    """grounded_rounds_oracle with each argument's attackers gathered once,
    so a round costs O(n + m) set operations and 3000 arguments stay cheap."""
    attackers = {x: set() for x in ids}
    for a, b in attacks:
        attackers[b].add(a)
    s = frozenset()
    iterations = 0
    while True:
        hit = oracles.attacked_by(attacks, s)
        nxt = frozenset(x for x in ids if attackers[x] <= hit)
        iterations += 1
        if nxt == s:
            return s, iterations
        s = nxt


class TestEvaluateAgainstOracles:
    """The parts of evaluate that are never capped, against set-based oracles."""

    def check(self, fw, rounds):
        ids = fw.ids
        attacks, defeats = set(fw.attacks), set(fw.defeats)
        grounded, iterations = rounds(ids, attacks)
        gfp = frozenset(ids) - oracles.attacked_by(attacks, grounded)
        attacked, defeated = {b for _, b in attacks}, {b for _, b in defeats}

        def ordered(s):
            return tuple(x for x in ids if x in s)

        rep = evaluate(fw, cap=0)
        assert rep.grounded == ordered(grounded)
        assert rep.iterations == iterations
        assert rep.greatest_fixed_point == ordered(gfp)
        assert rep.unique_complete == oracles.conflict_free_oracle(attacks, gfp)
        assert rep.class_r == ordered(frozenset(ids) - defeated)
        assert rep.class_r_pref == ordered(frozenset(ids) - attacked)

    @pytest.mark.parametrize("prefs", randgen.PREF_STYLES)
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8, 13, 21, 30, 31, 45, 60, 70])
    def test_random_frameworks(self, n, prefs):
        rng = random.Random(f"{n}:{prefs}")
        for _ in range(3):
            fw = randgen.random_framework(rng, n, prefs)
            self.check(fw, oracles.grounded_rounds_oracle)

    @pytest.mark.parametrize("with_prefs", [False, True], ids=["no-prefs", "prefs"])
    @pytest.mark.parametrize("n", [1000, 2000, 3000])
    def test_large_frameworks(self, n, with_prefs):
        text = large_af_text(random.Random(n), n, with_prefs)
        fw = parse_abstract_framework(text)
        assert (len(fw.attacks) < len(fw.defeats)) == with_prefs  # some defeats are dropped
        self.check(fw, grounded_by_attacker_sets)


class TestKernelsAgainstOracles:
    """The bitmask operators against their set definitions, up to 70 arguments."""

    @pytest.mark.parametrize("seed", range(24))
    def test_kernels_match_oracles(self, seed):
        rng = random.Random(f"kernels:{seed}")
        n = rng.randint(1, 70)
        fw = randgen.random_framework(rng, n, randgen.PREF_STYLES[seed % 3], mutual=n // 4)
        ids = fw.ids
        atk = set(fw.attacks)
        dfs = set(fw.defeats)
        full = _full(fw)
        assert grounded_extension(fw) == oracles.grounded_rounds_oracle(ids, atk)
        for s in [0, full] + [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(10)] + [
            rng.getrandbits(n) for _ in range(10)
        ]:
            members = semantics._ids_of(fw, s)
            hit = oracles.attacked_by(atk, members)
            assert semantics._ids_of(fw, semantics._attacked_by(fw, s)) == hit
            att = semantics._mask_of(fw, hit)
            for kernel, oracle in ((semantics._defended, oracles.f_oracle),
                                   (semantics._not_attacked, oracles.g_oracle)):
                assert semantics._ids_of(fw, kernel(fw, att)) == oracle(ids, atk, members)
            cf = semantics._conflict_free_mask
            for mode, edges in (("weak", atk), ("strict", dfs)):
                assert cf(fw, s, mode, att) == cf(fw, s, mode)
                assert cf(fw, s, mode) == oracles.conflict_free_oracle(edges, members)

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 9, 13, 16, 17, 31, 40, 63, 64, 65, 70])
    def test_attacked_lookup_matches_oracle(self, n):
        rng = random.Random(f"lookup:{n}")
        fw = randgen.random_framework(rng, n, randgen.PREF_STYLES[n % 3], mutual=n // 4)
        attacked = semantics._attacked_lookup(fw)
        atk = set(fw.attacks)
        for s in [0, _full(fw)] + [rng.getrandbits(n) for _ in range(20)]:
            assert semantics._ids_of(fw, attacked(s)) == oracles.attacked_by(
                atk, semantics._ids_of(fw, s))


class TestSearchAgainstScan:
    """The pruned search returns exactly the lists of the old 2^n scan."""

    @pytest.mark.parametrize("n", range(17))
    def test_matches_scan(self, n):
        draws = 4 if n <= 12 else 2
        for prefs in randgen.PREF_STYLES:
            rng = random.Random(f"{n}:{prefs}")
            for k in range(draws):
                fw = randgen.random_framework(rng, n, prefs, mutual=k * n // 4)
                for mode in MODES:
                    assert complete_extensions(fw, mode) == oracles.scan_fixed_points(
                        fw, mode, semantics._defended)
                    assert stable_extensions(fw, mode) == oracles.scan_fixed_points(
                        fw, mode, semantics._not_attacked)


class TestSearchAboveOldCap:
    """Every set emitted on 25-60 arguments, checked against the definitions."""

    @pytest.mark.parametrize("seed", range(24))
    def test_emitted_sets_are_extensions(self, seed):
        rng = random.Random(seed)
        n = rng.randint(25, 60)
        fw = randgen.random_framework(rng, n, randgen.PREF_STYLES[seed % 3], mutual=n // 3)
        ids = fw.ids
        atk = set(fw.attacks)
        grounded = oracles.grounded_oracle(ids, atk)
        position = {a: i for i, a in enumerate(ids)}

        def size_then_mask(e):
            return len(e), sum(1 << position[a] for a in e)

        for mode in MODES:
            clash = set(fw.defeats) if mode == "strict" else atk
            complete = complete_extensions(fw, mode, cap=64)
            assert len(set(complete)) == len(complete)
            assert complete == sorted(complete, key=size_then_mask)
            for e in complete:
                assert oracles.conflict_free_oracle(clash, e)
                assert oracles.f_oracle(ids, atk, e) == e
                assert grounded <= e
            # grounded is complete, so it comes first whenever it passes
            # the mode's conflict test, which weak mode always does
            if oracles.conflict_free_oracle(clash, grounded):
                assert complete[0] == grounded
            stable = stable_extensions(fw, mode, cap=64)
            assert stable == [e for e in complete if oracles.g_oracle(ids, atk, e) == e]
            for e in stable:
                assert oracles.attacked_by(atk, e) == set(ids) - e


# sha256 of repr(self_check(fw)) over the frameworks of
# TestSelfCheck.test_report_digest: a changed verdict, detail, tally or
# law order moves it.
SELF_CHECK_DIGEST = "70709ee9b88d389227dfc49706097ec0d279f6d38c88be70bc2c5608a2364e1a"


ODD_CYCLE = "arg(A). arg(B). arg(C). def(A,B). def(B,C). def(C,A)."


class TestSelfCheck:
    @pytest.mark.parametrize(
        "name", ["example1.af", "example1_pref.af", "self_attack.af", "example4.af"]
    )
    def test_fixtures_pass(self, name):
        rep = self_check(load(name))
        assert rep.ok, [r for r in rep.results if r.status == "fail"]

    def test_odd_cycle_passes(self):
        fw = parse_abstract_framework(ODD_CYCLE)
        rep = self_check(fw)
        assert rep.ok, [r for r in rep.results if r.status == "fail"]

    def test_interchange_tally_on_mutual_conflict(self):
        rep = self_check(load("example1.af"))
        assert rep.fgf_checked == 16
        assert rep.fgf_mismatches == 8
        # {A, B} and {A, B, C, D} are fixed points of f_step where the
        # interchange identity breaks; no fixed point of g_step does
        assert rep.fgf_f_fixed_point_mismatches == 2
        assert rep.fgf_g_fixed_point_mismatches == 0

    def test_interchange_breaks_at_f_fixed_point_of_self_attack(self):
        rep = self_check(load("self_attack.af"))
        assert rep.fgf_f_fixed_point_mismatches == 2
        assert rep.fgf_g_fixed_point_mismatches == 0

    @pytest.mark.parametrize("prefs", randgen.PREF_STYLES)
    def test_interchange_tally_matches_oracle(self, prefs):
        # Sizes 0-10 take the exhaustive pool, where the tally covers every
        # subset; random_framework draws self-defeats at every density.
        rng = random.Random(f"tally:{prefs}")
        self_attacks = 0
        for k in range(44):
            n = k % 11
            fw = randgen.random_framework(rng, n, prefs, mutual=min(k % 3, n // 2))
            atk = set(fw.attacks)
            self_attacks += any(a == b for a, b in atk)
            rep = self_check(fw)
            assert (rep.fgf_checked, rep.fgf_mismatches, rep.fgf_f_fixed_point_mismatches,
                    rep.fgf_g_fixed_point_mismatches) == oracles.self_check_tally_oracle(
                        fw.ids, atk)
        assert self_attacks

    @pytest.mark.parametrize("fw_name", ["example1.af", "chain13", *SPARSE16])
    def test_kernels_run_once_per_attacked_set(self, monkeypatch, fw_name):
        # The search for complete extensions makes its own kernel calls,
        # so it is replaced by its answer to count self_check's alone.
        if fw_name in SPARSE16:
            fw = sparse16(fw_name)
        else:
            fw = chain(MAX_EXHAUSTIVE + 1) if fw_name == "chain13" else load(fw_name)
        complete = semantics._fixed_points(fw, "weak", len(fw.arguments))
        monkeypatch.setattr(semantics, "_fixed_points", lambda *a: complete)
        calls = {"_defended": Counter(), "_not_attacked": Counter()}
        for name, seen in calls.items():
            real = getattr(semantics, name)
            monkeypatch.setattr(semantics, name, lambda fw, a, real=real, seen=seen: (
                seen.update([a]) or real(fw, a)))
        rep = self_check(fw)
        assert rep.ok
        pool = semantics._subset_pool(len(fw.arguments))
        classes = {semantics._attacked_by(fw, s) for s in pool}
        for seen in calls.values():
            assert set(seen.values()) == {1}
            if fw_name == "example1.af":
                # every subset is in the exhaustive pool: {}, {C}, {D}, {C, D}
                assert set(seen) == classes and len(classes) == 4
            else:
                assert classes <= set(seen) and len(classes) < len(pool)

    def test_large_framework_skips_enumeration_checks(self):
        rep = self_check(chain(25))
        assert rep.ok
        skipped = {r.name for r in rep.results if r.status == "skipped"}
        assert "grounded_is_complete" in skipped
        assert "stable_iff_attacks_every_outsider" in skipped

    def test_random_frameworks_pass(self):
        rng = random.Random(77)
        for _ in range(40):
            rep = self_check(randgen.random_framework(rng))
            assert rep.ok, [r for r in rep.results if r.status == "fail"]
        # above MAX_EXHAUSTIVE the laws run over the sampled pool
        for _ in range(8):
            rep = self_check(randgen.random_framework(rng, n=rng.randint(13, 40)))
            assert rep.ok, [r for r in rep.results if r.status == "fail"]

    def test_report_digest(self):
        # sizes 0-12 take the exhaustive pool, 13-40 the sampled one, and
        # 21 up skip the extension laws; each size draws every pref style
        rng = random.Random(7)
        digest = hashlib.sha256()
        for n in range(41):
            for prefs in randgen.PREF_STYLES:
                digest.update(repr(self_check(randgen.random_framework(rng, n, prefs))).encode())
        assert digest.hexdigest() == SELF_CHECK_DIGEST

    @pytest.mark.parametrize("law,plant,fw_name", [
        ("f_monotone", "f_of_everything_empty", "example1.af"),
        ("f_monotone", "f_of_everything_empty", "chain13"),
        ("g_antimonotone", "g_of_everything_everything", "example1.af"),
        ("g_antimonotone", "g_of_everything_everything", "chain13"),
        ("g_of_everything_is_unattacked_class", "g_of_everything_everything", "example1.af"),
        ("g_of_everything_is_unattacked_class", "g_of_everything_everything", "chain13"),
        ("conflict_free_iff_within_g", "everything_conflict_free", "example1.af"),
        ("conflict_free_iff_within_g", "everything_conflict_free", "chain13"),
        ("f_preserves_conflict_freeness", "f_of_first_everything", "example1.af"),
        ("stable_implies_complete", "g_fixes_first", "example1.af"),
        ("stable_iff_attacks_every_outsider", "everything_conflict_free", "example1.af"),
        ("stable_maximal_conflict_free", "everything_conflict_free", "example1.af"),
        ("grounded_is_fixed_point", "grounded_first_frontier", "chain13"),
        ("grounded_is_union_of_f_chain", "grounded_first_frontier", "chain13"),
    ])
    def test_planted_violation_fails(self, monkeypatch, law, plant, fw_name):
        fw = chain(MAX_EXHAUSTIVE + 1) if fw_name == "chain13" else load(fw_name)
        status = {r.name: r.status for r in self_check(fw).results}
        assert status[law] == "pass"
        name, build = PLANTS[plant]
        monkeypatch.setattr(semantics, name, build(getattr(semantics, name)))
        status = {r.name: r.status for r in self_check(fw).results}
        assert status[law] == "fail"

    @pytest.mark.parametrize("law,name,value", [
        ("f_monotone", "_defended", _full),
        ("g_antimonotone", "_not_attacked", lambda fw: 0),
    ])
    def test_sampled_sub_subsets_reach_the_kernels(self, monkeypatch, law, name, value):
        # Replay the sampled pool's four sub-subsets per member and plant
        # the fault at the least attacked set among them that no pool
        # member has. On a chain f_step never holds the second argument
        # and g_step always holds the first, so either plant breaks its
        # law through that one value.
        n = MAX_EXHAUSTIVE + 1
        fw = chain(n)
        pool = semantics._subset_pool(n)
        rng = random.Random(semantics.SAMPLE_SEED + 1)
        subs = {s & rng.getrandbits(n) for s in pool for _ in range(4)}
        attacked = semantics._attacked_lookup(fw)
        off_pool = min({attacked(s) for s in subs} - {attacked(s) for s in pool})
        status = {r.name: r.status for r in self_check(fw).results}
        assert status[law] == "pass"
        real = getattr(semantics, name)
        monkeypatch.setattr(semantics, name, lambda fw, a: (
            value(fw) if a == off_pool else real(fw, a)))
        status = {r.name: r.status for r in self_check(fw).results}
        assert status[law] == "fail"

    def test_every_sampled_draw_reaches_the_kernels(self, monkeypatch):
        # Replay the four sub-subsets per member in draw order: the set
        # each attacks goes to both kernels. On a chain nearly every draw
        # attacks a set of its own, so a lost or reordered draw shows.
        n = MAX_EXHAUSTIVE + 1
        fw = chain(n)
        rng = random.Random(semantics.SAMPLE_SEED + 1)
        drawn = {semantics._attacked_by(fw, s & rng.getrandbits(n))
                 for s in semantics._subset_pool(n) for _ in range(4)}
        seen = {"_defended": set(), "_not_attacked": set()}
        for name, got in seen.items():
            real = getattr(semantics, name)
            monkeypatch.setattr(semantics, name, lambda fw, a, real=real, got=got: (
                got.add(a) or real(fw, a)))
        assert self_check(fw).ok
        for got in seen.values():
            assert drawn <= got

    def test_thousand_argument_chain_stays_small(self):
        # The attacked-set table holds 256 masks per 8 arguments and lives
        # only for one call.
        fw = chain(1000)
        tracemalloc.start()
        try:
            rep = self_check(fw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok, [r for r in rep.results if r.status == "fail"]
        assert peak < 8_000_000

    @pytest.mark.parametrize("law,plant", [
        ("f_monotone", "f_of_first_everything"),
        ("g_antimonotone", "g_fixes_first"),
    ])
    def test_covering_pairs_remove_the_highest_member(self, monkeypatch, law, plant):
        # On an odd cycle each argument attacks its own target, so {A}
        # alone attacks {B}. Both plants change the operator at that
        # attacked set only, so only pairs that take a higher member out
        # of {A, x} leave {A}.
        fw = parse_abstract_framework(ODD_CYCLE)
        status = {r.name: r.status for r in self_check(fw).results}
        assert status[law] == "pass"
        name, build = PLANTS[plant]
        monkeypatch.setattr(semantics, name, build(getattr(semantics, name)))
        status = {r.name: r.status for r in self_check(fw).results}
        assert status[law] == "fail"

    @pytest.mark.parametrize("planted", [False, True], ids=["real", "planted"])
    @pytest.mark.parametrize("prefs", randgen.PREF_STYLES)
    def test_monotonicity_verdicts_match_covering_pair_oracle(self, monkeypatch, prefs, planted):
        # Sizes 0-12 take the exhaustive pool, where self_check pairs each
        # attacked-set class with each argument's targets and the oracle
        # walks every covering pair. A planted run flips one bit of one
        # kernel at one drawn attacked set, so failing verdicts are
        # compared too.
        rng = random.Random(f"covering:{prefs}:{planted}")
        seen = set()
        for k in range(39):
            n = k % (MAX_EXHAUSTIVE + 1)
            fw = randgen.random_framework(rng, n, prefs, mutual=min(k % 3, n // 2))
            kernels = {"_defended": semantics._defended,
                       "_not_attacked": semantics._not_attacked}
            if planted and n:
                name = rng.choice(sorted(kernels))
                at = semantics._attacked_by(fw, rng.getrandbits(n))
                bit = 1 << rng.randrange(n)
                kernels[name] = lambda fw, a, real=kernels[name], at=at, bit=bit: (
                    real(fw, a) ^ bit if a == at else real(fw, a))
                monkeypatch.setattr(semantics, name, kernels[name])
            status = {r.name: r.status for r in self_check(fw).results}
            verdicts = oracles.covering_pair_oracle(
                fw, kernels["_defended"], kernels["_not_attacked"])
            assert (status["f_monotone"] == "pass",
                    status["g_antimonotone"] == "pass") == verdicts
            monkeypatch.undo()
            seen.update(zip(("f_monotone", "g_antimonotone"), verdicts))
        if planted:
            assert {("f_monotone", False), ("g_antimonotone", False)} <= seen
        else:
            assert seen == {("f_monotone", True), ("g_antimonotone", True)}

    @pytest.mark.parametrize("planted", [False, True], ids=["real", "planted"])
    @pytest.mark.parametrize("prefs", randgen.PREF_STYLES)
    def test_sampled_monotonicity_verdicts_match_draw_oracle(self, monkeypatch, prefs, planted):
        # Sizes 13-40 take the sampled pool, where self_check reads each
        # draw's attacked set at its live part and the oracle reads it
        # from the whole draw. A planted run flips one bit of one kernel
        # at the attacked set of one replayed draw, so failing verdicts
        # are compared too.
        rng = random.Random(f"sampled:{prefs}:{planted}")
        seen = set()
        for n in range(MAX_EXHAUSTIVE + 1, 41):
            fw = randgen.random_framework(rng, n, prefs, mutual=n % 3)
            kernels = {"_defended": semantics._defended,
                       "_not_attacked": semantics._not_attacked}
            if planted:
                draws = random.Random(semantics.SAMPLE_SEED + 1)
                drawn = [s & draws.getrandbits(n)
                         for s in semantics._subset_pool(n) for _ in range(4)]
                name = rng.choice(sorted(kernels))
                at = semantics._attacked_by(fw, rng.choice(drawn))
                bit = 1 << rng.randrange(n)
                kernels[name] = lambda fw, a, real=kernels[name], at=at, bit=bit: (
                    real(fw, a) ^ bit if a == at else real(fw, a))
                monkeypatch.setattr(semantics, name, kernels[name])
            status = {r.name: r.status for r in self_check(fw).results}
            verdicts = oracles.sampled_monotone_oracle(
                fw, kernels["_defended"], kernels["_not_attacked"])
            assert (status["f_monotone"] == "pass",
                    status["g_antimonotone"] == "pass") == verdicts
            monkeypatch.undo()
            seen.update(zip(("f_monotone", "g_antimonotone"), verdicts))
        if planted:
            assert {("f_monotone", False), ("g_antimonotone", False)} <= seen
        else:
            assert seen == {("f_monotone", True), ("g_antimonotone", True)}

    @pytest.mark.parametrize("n", range(MAX_EXHAUSTIVE + 1))
    def test_exhaustive_attacked_sets_match_attacked_by(self, monkeypatch, n):
        # self_check hands each pool subset's attacked set to
        # _conflict_free_mask, so the calls show the list built by
        # doubling; at n = 0 the pool is [0].
        rng = random.Random(f"doubling:{n}")
        fw = randgen.random_framework(rng, n, randgen.PREF_STYLES[n % 3], mutual=n // 4)
        given = {}
        real = semantics._conflict_free_mask
        monkeypatch.setattr(semantics, "_conflict_free_mask", lambda fw, s, mode, *r: (
            given.setdefault(s, set()).update(r) or real(fw, s, mode, *r)))
        self_check(fw)
        assert sorted(given) == list(range(1 << n))
        assert all(given[s] == {semantics._attacked_by(fw, s)} for s in given)

    def test_planted_intransitive_preference_fails(self):
        # Raw masks that skip the closure: A is above B and B above C, but
        # A's mask leaves out C.
        pref = (0b011, 0b110, 0b100)
        fw = Framework([Argument(x) for x in "ABC"], [0, 0, 0], pref)
        status = {r.name: r.status for r in self_check(fw).results}
        assert status["preference_strict_part_transitive"] == "fail"
        assert status["preference_strict_part_asymmetric"] == "pass"
