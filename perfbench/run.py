"""prefarg benchmark: seeded CLI workloads, checked answers, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload kb-accept --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a prefarg checkout; the program is imported from
the checkout's `src/`. For each workload this script draws the run's
inputs from the committed pool (pass sets of one input per cost
stratum, chosen by the seed), writes them to a temporary directory,
times set-up in fresh interpreters, runs the closed loop in a child
process (worker.py), checks every distinct answer (check.py) and
prints, per workload, a JSON line of facts about the run, one line per
metric, and last a JSON result. With `--trace 1` the child records layer spans (spans.py) and
the result holds the per-layer metrics instead of the end-to-end ones.
The exit code is 1 if any answer failed its check.

Every time reported is scaled to a reference host speed by the
calibration loop timed next to it (calib.py); the info line gives the
measured figures too.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# A call's time is scaled by the median of the calibrations timed just
# before and after it and after the next call, so one stray calibration
# does not set it.
CAL_WINDOW = 1
# Each pass set is a stratified draw; a run cycles through them, so it
# samples the costly strata several times over without favouring them.
PASS_SETS = 6
WORKER_TIMEOUT_S = 150
TINY_INPUTS = 6

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_inputs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _spawn(spec_path: Path, mode: str) -> tuple[float, int]:
    """Start a worker, return seconds until it reported ready, and its exit code."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), mode],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready":
        raise RuntimeError(f"worker ({mode}) did not start; exit {proc.returncode}")
    return ready, code


def setup_time(spec_path: Path) -> tuple[float, float]:
    """Set-up seconds of one fresh worker, as measured and at the reference
    speed of the calibrations just before and after it."""
    before = calib.calibrate()
    ready, _ = _spawn(spec_path, "setup")
    return ready, ready * calib.REFERENCE_MS / statistics.mean([before, calib.calibrate()])


def at_reference(samples: list) -> list[float]:
    """Each call's milliseconds at the reference speed."""
    cal = [s[4] for s in samples]
    return [
        s[1] * calib.REFERENCE_MS / statistics.median(cal[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, s in enumerate(samples)
    ]


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def select_passes(workload, seed: int, pool: dict | None, tiny: bool):
    """PASS_SETS lists of (key, expected digest): each takes one pool entry per cost
    stratum, chosen by the seed, in a seeded order."""
    rng = random.Random(seed)
    if tiny:
        return [[(key, ...) for key in rng.sample(range(1000), TINY_INPUTS)]]
    strata: dict[int, list] = {}
    for entry in pool["workloads"][workload.name]:
        strata.setdefault(entry["stratum"], []).append(entry)
    passes = []
    for _ in range(PASS_SETS):
        picks = [rng.choice(strata[s]) for s in sorted(strata)]
        rng.shuffle(picks)
        passes.append([(e["key"], e["digest"]) for e in picks])
    return passes


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 tiny: bool = False, tamper=None) -> dict:
    import check
    from spans import PER_LAYER
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    pool = None if tiny else json.loads((HERE / "pool.json").read_text(encoding="utf-8"))
    passes = select_passes(workload, seed, pool, tiny)
    expected = dict(pick for picks in passes for pick in picks)
    keys = list(expected)
    inputs = [workload.make(key, tiny) for key in keys]
    position = {key: i for i, key in enumerate(keys)}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work = Path(tmp)
        paths = []
        for inp in inputs:
            path = work / f"{name}-{inp.key}{inp.suffix}"
            path.write_text(inp.text, encoding="utf-8")
            paths.append(str(path))
        spec = {
            "src": str(ROOT / "src"),
            "inputs": [{"path": p, "argv": inp.argv(p)} for inp, p in zip(inputs, paths)],
            "passes": [[position[key] for key, _ in picks] for picks in passes],
            "seconds": seconds,
            "trace": trace,
            "result_path": str(work / "result.json"),
            "spans_path": str(OUT_DIR / f"spans-{name}.jsonl"),
        }
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # Set-up is timed before and after the loop, so that one slow
        # spell of a shared machine does not set the median.
        setup = [setup_time(spec_path) for _ in range(SETUP_REPEATS)]
        _, code = _spawn(spec_path, "run")
        if code != 0:
            raise RuntimeError(f"worker exited {code}")
        setup += [setup_time(spec_path) for _ in range(SETUP_REPEATS)]
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))

        check_start = time.perf_counter()
        verdicts = {}
        for idx_text, first in result["first"].items():
            idx = int(idx_text)
            code, out = first["code"], first["out"]
            if tamper is not None:
                code, out = tamper(name, code, out)
            verdicts[idx] = check.check(name, inputs[idx], paths[idx], code, out,
                                        expected[keys[idx]])
            for problem in verdicts[idx][1][:3]:
                sys.stderr.write(f"FAILED {name} key={inputs[idx].key}: {problem}\n")
        check_s = time.perf_counter() - check_start

    samples = result["samples"]
    raw = [s[1] for s in samples]
    ms = at_reference(samples)
    failed = sum(1 for idx, _, _, same, _ in samples if verdicts[idx][1] or not same)
    p90 = _p90(ms)
    decided_share = sum(verdicts[s[0]][0] for s in samples) / len(samples)
    info = {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "why": workload.why,
        "question": workload.question,
        "sizes": workload.sizes,
        "inputs": [{"key": inp.key, **inp.size} for inp in inputs],
        "samples": len(samples),
        "passes": result["passes"],
        "samples_beyond_p90": sum(m > p90 for m in ms),
        "decided_share": decided_share,
        "loop_s": result["loop_s"],
        "check_s": check_s,
        "host_speed": calib.REFERENCE_MS / statistics.median(s[4] for s in samples),
        "measured": {
            "latency_p50_ms": statistics.median(raw),
            "latency_p90_ms": _p90(raw),
            "throughput_inputs_per_s": len(samples) * 1000 / sum(raw),
            "setup_s": statistics.median(raw_s for raw_s, _ in setup),
        },
    }
    counts = {}
    if trace:
        metrics = dict(result["layers"])
        metrics["decided_share"] = decided_share
        info["spans"] = result["spans"]
        info["spans_file"] = str(Path(spec["spans_path"]).relative_to(ROOT))
        if result["missing"]:
            info["missing_functions"] = result["missing"]
        units = dict(PER_LAYER)
    else:
        metrics = {
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": p90,
            "throughput_inputs_per_s": len(samples) * 1000 / sum(ms),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(s for _, s in setup),
        }
        counts = {"peak_rss_mb": 1, "setup_s": len(setup)}
        units = dict(END_TO_END)
    return {
        "info": info,
        "counts": counts,
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def prepare_imports() -> str | None:
    """Put the checkout's src/ and tests/ first on the path; say what is missing."""
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "prefarg" / "cli.py").is_file() or not (tests / "oracles.py").is_file():
        return f"{ROOT} is not a prefarg checkout: src/prefarg/cli.py or tests/oracles.py is missing"
    sys.path[:0] = [str(src), str(tests)]
    import prefarg

    if src.resolve() not in Path(prefarg.__file__).resolve().parents:
        return f"prefarg was imported from {prefarg.__file__}, not from {src}"
    return None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    problem = prepare_imports()
    if problem:
        sys.stderr.write(f"perfbench: {problem}\n")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = res
        print(json.dumps(res["info"]))
        for metric, m in res["metrics"].items():
            n = res["counts"].get(metric, res["attempted"])
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']} (samples {n})")
        print(f"{name} failed {res['failed']} of {res['attempted']} attempted")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, res in results.items() for k, v in res["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
