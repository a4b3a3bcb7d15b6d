"""Build pool.json: every input a run may draw, with the baseline code's answer digest.

    python3 perfbench/make_pool.py [--workload NAME]

For each pool key of a workload this generates the input, keeps it if
its argument universe has a size the workload admits (ADMIT), runs it
three times through the in-process CLI, checks the answer with
check.py (a problem aborts the build), records the digest of the
decided part of the answer and the median latency, and then sorts the
keys into equal cost strata by that latency. Each pass set of a run
draws one input per stratum, so every seed gets the same mix of cheap
and costly inputs.

Rebuild the pool only when the inputs or the expected answers change
on purpose: the digests are what later code is held to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

import run

POOL_SIZE = 360
STRATA = 40
# The argument-universe sizes each knowledge-base workload admits.
# kb-accept measures universe building, so its universes exceed the
# default enumeration cap of 20 and every baseline report is capped.
# kb-check measures many small universes; those of 17-20 arguments are
# left out because each costs 0.3-8 s in two 2^n scans (a tenth of the
# bases, 60% of the time), so a 25 s run holds too few of them for a
# steady figure: simulated from the pool's baseline latencies, the throughput
# spread over ten seeds is 0.29 with them and 0.04 without. af-enumerate
# measures those scans. Universes over the cap stay in kb-check, refused
# with exit 2.
ADMIT = {
    "kb-accept": lambda n: n > 20,
    "kb-check": lambda n: n <= 16 or n > 20,
}


def build(name: str) -> list[dict]:
    import check
    import prefarg.cli as cli
    from worker import call_cli
    from workloads import WORKLOADS

    workload = WORKLOADS[name]

    entries = []
    run.OUT_DIR.mkdir(exist_ok=True)
    key = -1
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        while len(entries) < POOL_SIZE:
            key += 1
            inp = workload.make(key, False)
            path = str(Path(tmp) / f"{name}-{key}{inp.suffix}")
            Path(path).write_text(inp.text, encoding="utf-8")
            if name in ADMIT:
                query = ["--query", inp.facts["query"]] if "query" in inp.facts else []
                listing = call_cli(cli, ["arguments", path, "--format", "json", *query])[2]
                if not ADMIT[name](len(json.loads(listing))):
                    continue
            calls = [call_cli(cli, inp.argv(path)) for _ in range(3)]
            _, code, out, _ = calls[0]
            if any(c[1:3] != (code, out) for c in calls):
                raise SystemExit(f"{name} key {key}: answers differ between reruns")
            _, problems = check.check(name, inp, path, code, out)
            if problems:
                raise SystemExit(f"{name} key {key}: {problems}")
            proj = check.projection(name, code, out)
            entries.append({
                "key": key,
                "baseline_ms": round(statistics.median(c[0] for c in calls) * 1000, 2),
                "digest": None if proj is None else check.digest(proj),
            })
    for rank, entry in enumerate(sorted(entries, key=lambda e: e["baseline_ms"])):
        entry["stratum"] = rank * STRATA // POOL_SIZE
    return entries


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    args = parser.parse_args()
    problem = run.prepare_imports()
    if problem:
        sys.stderr.write(f"make_pool: {problem}\n")
        return 2
    path = run.HERE / "pool.json"
    pool = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    pool["strata"] = STRATA
    for name in [args.workload] if args.workload else list(WORKLOADS):
        pool["workloads"][name] = build(name)
        print(f"{name}: {POOL_SIZE} inputs", flush=True)
    path.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
