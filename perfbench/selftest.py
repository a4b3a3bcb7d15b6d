"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

It runs all four workloads at tiny sizes, where the checker can afford
the full oracles, and expects every answer to pass. It then feeds the
checker tampered answers (a flipped verdict, a dropped extension, a
changed grounded extension) and expects every one to be reported as
failed. It checks one pool input against its committed baseline digest,
both as answered and with its extension list reordered. Last, it
checks that the metric names the runs print are exactly those
BENCHMARK.json declares. Exits 1 on the first expectation that fails.
"""

from __future__ import annotations

import json
import sys

import run


def _tamper(name: str, code, out: str):
    data = json.loads(out)
    if name == "kb-accept":
        data["accepted"] = not data["accepted"]
    elif name == "af-enumerate":
        (data["stable"] or data["complete"]).pop()
    elif name == "kb-check":
        data["ok"] = not data["ok"]
    else:
        grounded = data["grounded"]
        data["grounded"] = grounded[1:] if grounded else ["x0"]
    return code, json.dumps(data, indent=2) + "\n"


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        raise SystemExit(1)


def main() -> int:
    problem = run.prepare_imports()
    if problem:
        sys.stderr.write(f"selftest: {problem}\n")
        return 2
    import check
    import prefarg.cli as cli
    from worker import call_cli
    from workloads import WORKLOADS

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in declared["workloads"]:
        expect(WORKLOADS[w["name"]].why == w["why"], f"{w['name']}: why matches BENCHMARK.json")

    for name in WORKLOADS:
        plain = run.run_workload(name, 7, 1, False, tiny=True)
        expect(plain["correct"] and plain["attempted"] > 0,
               f"{name}: {plain['attempted']} tiny answers pass the full oracles")
        expect(set(plain["metrics"]) == {m["name"] for m in declared["end_to_end"]},
               f"{name}: untraced run reports the end_to_end metrics")
        traced = run.run_workload(name, 7, 1, True, tiny=True)
        expect(traced["correct"] and set(traced["metrics"]) == {m["name"] for m in declared["per_layer"]},
               f"{name}: traced run passes and reports the per_layer metrics")
        spoiled = run.run_workload(name, 7, 1, False, tiny=True, tamper=_tamper)
        expect(spoiled["failed"] == spoiled["attempted"],
               f"{name}: tampered answers all fail ({spoiled['failed']}/{spoiled['attempted']})")

    # A committed pool input with several complete extensions: its real
    # answer matches the baseline digest, a reordered complete list does not.
    pool = json.loads((run.HERE / "pool.json").read_text(encoding="utf-8"))
    run.OUT_DIR.mkdir(exist_ok=True)

    for entry in pool["workloads"]["af-enumerate"]:
        inp = WORKLOADS["af-enumerate"].make(entry["key"], False)
        path = run.OUT_DIR / f"selftest{inp.suffix}"
        path.write_text(inp.text, encoding="utf-8")
        try:
            _, code, out, _ = call_cli(cli, inp.argv(str(path)))
            data = json.loads(out)
            if len(data["complete"]) < 2:
                continue
            _, problems = check.check("af-enumerate", inp, str(path), code, out, entry["digest"])
            expect(not problems, f"pool input {entry['key']} matches its baseline digest")
            data["complete"].insert(0, data["complete"].pop())
            _, problems = check.check("af-enumerate", inp, str(path), code,
                                      json.dumps(data, indent=2) + "\n", entry["digest"])
            expect("answer differs from the baseline digest" in problems,
                   "reordered complete list fails the digest")
            break
        finally:
            path.unlink()
    else:
        expect(False, "the pool has an af-enumerate input with several complete extensions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
