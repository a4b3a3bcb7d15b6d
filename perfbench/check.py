"""Answer checks, run after the timed loop.

Each CLI answer is judged two ways. The brute-force oracles of
tests/oracles.py recompute what is tractable: argument supports
(consistent, entailing, minimal), the attack relation, the grounded
extension, the defining property of every listed extension, and the
full complete/stable families on small frameworks. The committed digest
of the baseline code's canonical answer (pool.json) then pins what the
oracles cannot afford to recompute, such as the order of the extension
lists or the completeness of a large universe.

A check returns whether the input's question got a full answer and the
list of problems found; any problem makes the answer a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import deque

import oracles
import prefarg.cli
from prefarg.formulas import Not, parse_formula
from prefarg.kb import parse_kb
from worker import call_cli

# Full oracle enumeration (2^n subsets) only up to this many arguments.
FULL_ORACLE_ARGS = 12
# Universe completeness against minimal_supports_oracle up to this many beliefs.
FULL_ORACLE_BELIEFS = 6


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def projection(workload: str, code: int, out: str):
    """The part of an answer the baseline code decides, or None if it decides nothing.

    Fields that only exist because of the enumeration cap are left out,
    so lifting the cap does not break the digest of what was decided.
    """
    if code not in (0, 3) or not out:
        return None
    try:
        data = json.loads(out)
    except ValueError:
        return None
    if workload == "kb-accept":
        data = {k: v for k, v in data.items() if k not in ("capped", "credulous_stable", "stable")}
        data["arguments"] = [
            {k: v for k, v in row.items() if k != "in_stable"} for row in data.get("arguments", [])
        ]
    elif workload == "af-large":
        data = {k: v for k, v in data.items() if k != "capped"}
    return data


def check(workload: str, inp, path: str, code, out: str, expected=...):
    """Judge one answer; `expected` is the baseline digest, None if the baseline decided nothing,
    or omitted for inputs outside the committed pool."""
    problems: list[str] = []
    if code not in (0, 1, 2, 3):
        return False, [f"undocumented exit {code!r}"]
    pinned = False
    if expected is not ... and expected is not None:
        proj = projection(workload, code, out)
        pinned = proj is not None and digest(proj) == expected
        if proj is None:
            problems.append("the baseline answered this input, now no answer")
        elif not pinned:
            problems.append("answer differs from the baseline digest")
    try:
        decided = CHECKS[workload](inp, path, code, out, problems, pinned)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        problems.append(f"malformed answer: {type(exc).__name__}: {exc}")
        decided = False
    return decided and not problems, problems


# Abstract frameworks.

def _strict_from_closure(facts) -> set:
    closed = oracles.closure_oracle(facts["prefs"], facts["ids"])
    return {(x, y) for x, y in closed if (y, x) not in closed}


def _af_attacks(facts) -> list:
    strict_pairs = _strict_from_closure(facts) if facts["prefs"] else set()
    return oracles.derive_attacks_oracle(facts["defeats"], strict_pairs)


def _af_attacks_sparse(facts) -> list:
    """Attacks under the preference closure, by reachability, for frameworks too
    large for closure_oracle."""
    succ: dict[str, list[str]] = {}
    for x, y in facts["prefs"]:
        succ.setdefault(x, []).append(y)
    reach: dict[str, set] = {}

    def reachable(x):
        if x not in reach:
            seen = {x}
            todo = deque([x])
            while todo:
                for y in succ.get(todo.popleft(), ()):
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            reach[x] = seen
        return reach[x]

    return [
        (b, a) for b, a in facts["defeats"]
        if not (b in reachable(a) and a not in reachable(b))
    ]


def grounded_rounds(ids, attacks) -> tuple[frozenset, int]:
    """Grounded extension by attacker counting, and the f_step applications to reach it.

    Round k adds every argument whose attackers are all attacked by the
    set built so far, which is exactly one application of f_step.
    """
    attackers = {x: set() for x in ids}
    targets = {x: set() for x in ids}
    for a, b in attacks:
        attackers[b].add(a)
        targets[a].add(b)
    remaining = {x: len(attackers[x]) for x in ids}
    inside: set = set()
    out: set = set()
    steps = 1
    while True:
        new = [x for x in ids if x not in inside and remaining[x] == 0]
        if not new:
            return frozenset(inside), steps
        steps += 1
        inside.update(new)
        for x in new:
            for y in targets[x]:
                if y not in out:
                    out.add(y)
                    for z in targets[y]:
                        remaining[z] -= 1


def _in_order(ids, members, problems, what):
    pos = {x: i for i, x in enumerate(ids)}
    if any(m not in pos for m in members):
        problems.append(f"{what} names an unknown argument")
        return False
    if [pos[m] for m in members] != sorted(pos[m] for m in members) or len(set(members)) != len(members):
        problems.append(f"{what} is not in framework order")
        return False
    return True


def _check_fixed_parts(ids, attacks, defeats, data, problems, grounded, iterations):
    defeated = {b for _, b in defeats}
    attacked = {b for _, b in attacks}
    gfp = oracles.g_oracle(ids, attacks, grounded)
    expect = {
        "class_r": [x for x in ids if x not in defeated],
        "class_r_pref": [x for x in ids if x not in attacked],
        "grounded": [x for x in ids if x in grounded],
        "greatest_fixed_point": [x for x in ids if x in gfp],
    }
    for key, want in expect.items():
        if data[key] != want:
            problems.append(f"{key} differs from the oracle")
    if data["iterations"] != iterations:
        problems.append("iterations differ from the f_step count")
    if data["mode"] != "weak":
        problems.append("mode is not weak")


def _check_af_enumerate(inp, path, code, out, problems, pinned) -> bool:
    if code != 0:
        problems.append(f"exit {code}")
        return False
    data = json.loads(out)
    facts = inp.facts
    ids = facts["ids"]
    attacks = _af_attacks(facts)
    grounded = oracles.grounded_oracle(ids, attacks)
    counted, iterations = grounded_rounds(ids, attacks)
    if counted != grounded:
        problems.append("checker's grounded_rounds disagrees with grounded_oracle")
    _check_fixed_parts(ids, attacks, facts["defeats"], data, problems, grounded, iterations)
    gfp = oracles.g_oracle(ids, attacks, grounded)
    if data["unique_complete"] != oracles.conflict_free_oracle(attacks, gfp):
        problems.append("unique_complete disagrees with the greatest fixed point")
    if data["capped"]:
        if data["complete"] or data["stable"]:
            problems.append("capped report lists extensions")
        return False
    pos = {x: i for i, x in enumerate(ids)}
    families = {}
    for family, step in (("complete", oracles.f_oracle), ("stable", oracles.g_oracle)):
        sets = []
        for ext in data[family]:
            if not _in_order(ids, ext, problems, f"a {family} extension"):
                return False
            s = frozenset(ext)
            if not oracles.conflict_free_oracle(attacks, s) or step(ids, attacks, s) != s:
                problems.append(f"{family} extension {ext} fails its definition")
            sets.append(s)
        keys = [(len(s), sum(1 << pos[x] for x in s)) for s in sets]
        if keys != sorted(set(keys)):
            problems.append(f"{family} list is not ordered by size then position")
        families[family] = set(sets)
    if grounded not in families["complete"]:
        problems.append("grounded extension missing from the complete list")
    if not families["stable"] <= families["complete"]:
        problems.append("a stable extension is not complete")
    if len(ids) <= FULL_ORACLE_ARGS:
        if families["complete"] != oracles.complete_oracle(ids, attacks):
            problems.append("complete list differs from complete_oracle")
        if families["stable"] != oracles.stable_oracle(ids, attacks):
            problems.append("stable list differs from stable_oracle")
    return True


def _check_af_large(inp, path, code, out, problems, pinned) -> bool:
    if code != 0:
        problems.append(f"exit {code}")
        return False
    data = json.loads(out)
    facts = inp.facts
    ids = facts["ids"]
    attacks = _af_attacks_sparse(facts)
    grounded, iterations = grounded_rounds(ids, attacks)
    if len(ids) <= FULL_ORACLE_ARGS:
        if sorted(attacks) != sorted(_af_attacks(facts)):
            problems.append("checker's reachability attacks disagree with closure_oracle")
        if grounded != oracles.grounded_oracle(ids, attacks):
            problems.append("checker's grounded_rounds disagrees with grounded_oracle")
    _check_fixed_parts(ids, attacks, facts["defeats"], data, problems, grounded, iterations)
    return True


# Knowledge bases.

_ARGUMENT_RE = re.compile(r"^(A\d+): \(\{(.*)\}, (.*)\) @(\d+)$")


def _negate(f):
    return f.operand if isinstance(f, Not) else Not(f)


def _check_argument(kb, arg_id, support, conclusion, level, problems) -> bool:
    """One argument against the oracles: its support is made of beliefs, is
    consistent with the core, entails the conclusion, is minimal, and sets the level."""
    refs = {f: ref for ref, f in kb.beliefs()}
    if any(f not in refs for f in support):
        problems.append(f"{arg_id} support names a non-belief")
        return False
    core = list(kb.core)
    chosen = core + list(support)
    if not oracles.consistent(chosen) or not oracles.entails(chosen, conclusion):
        problems.append(f"{arg_id} support is inconsistent or does not entail")
    for i in range(len(support)):
        if oracles.entails(core + list(support[:i] + support[i + 1:]), conclusion):
            problems.append(f"{arg_id} support is not minimal")
            break
    if level != max((refs[f].stratum for f in support), default=0):
        problems.append(f"{arg_id} has a wrong certainty level")
    return True


def _check_universe(kb, query, listing, problems) -> list[dict]:
    """Validate a `prefarg arguments --format json` listing against the oracles."""
    candidates = set()
    for _, f in kb.beliefs():
        candidates |= {f, _negate(f)}
    if query is not None:
        candidates |= {query, _negate(query)}
    args = []
    seen = set()
    for k, entry in enumerate(listing, start=1):
        if entry["id"] != f"A{k}":
            problems.append(f"argument {entry['id']} out of sequence")
        support = tuple(parse_formula(s) for s in entry["support"])
        conclusion = parse_formula(entry["conclusion"])
        level = entry["level"]
        if not _check_argument(kb, entry["id"], support, conclusion, level, problems):
            continue
        if conclusion not in candidates:
            problems.append(f"{entry['id']} has a conclusion outside the candidate pool")
        if (frozenset(support), conclusion) in seen:
            problems.append(f"{entry['id']} duplicates another argument")
        seen.add((frozenset(support), conclusion))
        args.append({"id": entry["id"], "support": support, "conclusion": conclusion,
                     "level": level, "text": entry})
    if kb.belief_refs() and len(kb.belief_refs()) <= FULL_ORACLE_BELIEFS:
        for c in candidates:
            want = {frozenset(kb.resolve(r) for r in s) for s in oracles.minimal_supports_oracle(kb, c)}
            got = {frozenset(a["support"]) for a in args if a["conclusion"] == c}
            if want != got:
                problems.append("universe differs from minimal_supports_oracle")
                break
    return args


def _kb_attacks(kb, args, defeat: str):
    names = oracles.names_of(list(kb.core) + [f for _, f in kb.beliefs()])
    for a in args:
        names |= oracles.names_of([a["conclusion"]])
    envs = list(oracles.assignments(names))

    def vec(f):
        return tuple(oracles.eval_formula(f, e) for e in envs)

    def neg(v):
        return tuple(not b for b in v)

    concl = [vec(a["conclusion"]) for a in args]
    defeats = []
    if defeat == "rebut":
        for i, a in enumerate(args):
            for j, b in enumerate(args):
                if concl[i] == neg(concl[j]):
                    defeats.append((a["id"], b["id"]))
    else:
        negated = [{neg(vec(k)) for k in b["support"]} for b in args]
        for i, a in enumerate(args):
            for j, b in enumerate(args):
                if concl[i] in negated[j]:
                    defeats.append((a["id"], b["id"]))
    strict = {(a["id"], b["id"]) for a in args for b in args if a["level"] < b["level"]}
    return defeats, oracles.derive_attacks_oracle(defeats, strict)


def _check_kb_accept(inp, path, code, out, problems, pinned) -> bool:
    if code != 0:
        problems.append(f"exit {code}")
        return False
    data = json.loads(out)
    kb = parse_kb(inp.text)
    query = parse_formula(inp.facts["query"])
    if parse_formula(data["query"]) != query:
        problems.append("query echoed wrongly")
    if pinned and data["capped"]:
        # The digest pins every decided field to the baseline answer, which the
        # oracles checked in full when the pool was built, so rebuilding the
        # universe here would repeat that work. The query's own arguments
        # and the cap fields are still checked.
        for row in data["arguments"]:
            m = _ARGUMENT_RE.match(row["argument"])
            support = tuple(parse_formula(f) for f in m.group(2).split(", ")) if m.group(2) else ()
            if parse_formula(m.group(3)) != query:
                problems.append(f"{row['id']} does not conclude the query")
            _check_argument(kb, row["id"], support, query, int(m.group(4)), problems)
        if data["stable"] or data["credulous_stable"] is not None or any(
            r["in_stable"] for r in data["arguments"]
        ):
            problems.append("capped report carries stable answers")
        return False
    _, list_code, listing, _ = call_cli(prefarg.cli, ["arguments", path, "--query",
                                                     inp.facts["query"], "--format", "json"])
    if list_code != 0:
        problems.append(f"arguments listing exits {list_code}")
        return False
    args = _check_universe(kb, query, json.loads(listing), problems)
    ids = [a["id"] for a in args]
    defeats, attacks = _kb_attacks(kb, args, inp.facts["defeat"])
    grounded = oracles.grounded_oracle(ids, attacks)
    defeated = {b for _, b in defeats}
    attacked = {b for _, b in attacks}
    rows = [a for a in args if a["conclusion"] == query]
    if [r["id"] for r in data["arguments"]] != [a["id"] for a in rows]:
        problems.append("query arguments differ from the universe")
        return False
    stable = [frozenset(e) for e in data["stable"]]
    for row, a in zip(data["arguments"], rows):
        t = a["text"]
        described = f"{t['id']}: ({{{', '.join(t['support'])}}}, {t['conclusion']}) @{t['level']}"
        if row["argument"] != described:
            problems.append(f"{a['id']} described wrongly")
        if (row["in_class_r"], row["in_class_r_pref"], row["in_grounded"]) != (
            a["id"] not in defeated, a["id"] not in attacked, a["id"] in grounded
        ):
            problems.append(f"{a['id']} class or grounded flag differs from the oracle")
        if row["in_stable"] != [a["id"] in e for e in stable]:
            problems.append(f"{a['id']} in_stable flags disagree with the stable list")
    if data["accepted"] != any(a["id"] in grounded for a in rows):
        problems.append("grounded verdict differs from grounded_oracle")
    if data["capped"]:
        if stable or data["credulous_stable"] is not None:
            problems.append("capped report carries stable answers")
        return False
    for e in stable:
        if not oracles.conflict_free_oracle(attacks, e) or oracles.g_oracle(ids, attacks, e) != e:
            problems.append(f"stable extension {sorted(e)} fails conflict-free or attacks-all-outsiders")
    if len(ids) <= FULL_ORACLE_ARGS and set(stable) != oracles.stable_oracle(ids, attacks):
        problems.append("stable list differs from stable_oracle")
    if data["credulous_stable"] != any(a["id"] in e for a in rows for e in stable):
        problems.append("credulous-stable verdict disagrees with the stable list")
    return True


_SUBBASES_RE = re.compile(r"^(\d+) subbases against (\d+) stable extensions")
_FLAT_RE = re.compile(r"^(\d+) stable extensions against (\d+) maximal consistent subbases")


def _check_kb_check(inp, path, code, out, problems, pinned) -> bool:
    if code == 2:
        if out:
            problems.append("cap refusal printed an answer")
        return False
    if code not in (0, 3):
        problems.append(f"exit {code}")
        return False
    data = json.loads(out)
    statuses = [r["status"] for r in data["results"]]
    clauses = data["correspondence"]["clauses"]
    if not set(statuses) <= {"pass", "fail", "skipped"}:
        problems.append("unknown self_check status")
    if not {c["status"] for c in clauses} <= {"pass", "fail", "info"}:
        problems.append("unknown correspondence status")
    corr_ok = all(c["status"] != "fail" for c in clauses)
    if data["correspondence"]["ok"] != corr_ok:
        problems.append("correspondence ok flag disagrees with its clauses")
    ok = corr_ok and "fail" not in statuses
    if data["ok"] != ok or (code == 0) != ok:
        problems.append("verdict disagrees with the clause statuses or the exit code")
    kb = parse_kb(inp.text)
    by_name = {c["name"]: c for c in clauses}
    m = _SUBBASES_RE.match(by_name["subbase_arguments_are_stable"]["detail"])
    if m is None or int(m.group(1)) != len(oracles.incl_oracle(kb)):
        problems.append("preferred subbase count differs from incl_oracle")
    m = _FLAT_RE.match(by_name["flat_stable_equals_max_consistent"]["detail"])
    if m is None or int(m.group(2)) != len(oracles.max_consistent_oracle(kb)):
        problems.append("maximal consistent subbase count differs from max_consistent_oracle")
    return True


CHECKS = {
    "kb-accept": _check_kb_accept,
    "af-enumerate": _check_af_enumerate,
    "kb-check": _check_kb_check,
    "af-large": _check_af_large,
}
