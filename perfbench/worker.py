"""Benchmark child process: one client calling the in-process CLI in a closed loop.

    python3 perfbench/worker.py SPEC.json setup   import and load, then exit
    python3 perfbench/worker.py SPEC.json run     also run the timed loop

Both modes print `ready` once `prefarg.cli` is imported and the input
files are read; the parent times that as set-up. The loop runs whole
passes, cycling through the spec's pass sets; each pass weighs the cost
strata equally. The first pass always runs, and another starts only if
a pass as long as the last one still fits in the run's time. After
every call the host-speed calibration loop (calib.py) is timed. Each
call's stdout and stderr are captured; the first answer per input is
kept for checking and every repeat is compared with it. In a traced run
each pass set runs traced and then untraced, so the tracing overhead is
measured on the same inputs, from the pairs of whole passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import calib


def call_cli(cli, argv):
    """One timed `main(argv)` call: seconds, exit code (or traceback text), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed operation, not a crash of the run
            code = f"traceback: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import prefarg.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"worker: prefarg was imported from {cli.__file__}, not {src}\n")
        return 2
    for item in spec["inputs"]:
        Path(item["path"]).read_text(encoding="utf-8")
    print("ready", flush=True)
    if sys.argv[2] == "setup":
        return 0

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
    argvs = [item["argv"] for item in spec["inputs"]]
    samples = []
    first: dict[int, dict] = {}
    pass_s = {"plain": [], "traced": []}
    passes = traced_calls = 0
    began = time.perf_counter()
    while True:
        traced = tracer is not None and passes % 2 == 0
        if traced:
            tracer.install()
        # In a traced run each pass set runs traced, then untraced.
        order = spec["passes"][(passes // (2 if tracer else 1)) % len(spec["passes"])]
        pass_start = time.perf_counter()
        for idx in order:
            if traced:
                tracer.input_id = idx
                traced_calls += 1
            elapsed, code, out, _ = call_cli(cli, argvs[idx])
            calibration_ms = calib.calibrate()
            if idx not in first:
                first[idx] = {"code": code, "out": out}
            same = first[idx]["code"] == code and first[idx]["out"] == out
            samples.append([idx, elapsed * 1000, code, same, calibration_ms])
        pass_s["traced" if traced else "plain"].append(time.perf_counter() - pass_start)
        if traced:
            tracer.uninstall()
        passes += 1
        # Only whole passes (whole traced and untraced pairs) are run.
        left = spec["seconds"] - (time.perf_counter() - began)
        if tracer is None and left < pass_s["plain"][-1]:
            break
        if tracer is not None and passes % 2 == 0 and (
            left < pass_s["plain"][-1] + pass_s["traced"][-1]
        ):
            break
    loop_s = time.perf_counter() - began

    result = {
        "samples": samples,
        "first": {str(k): v for k, v in first.items()},
        "loop_s": loop_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        per_input = len(spec["passes"][0])
        layers = tracer.metrics(traced_calls / per_input)
        layers["trace.overhead_ms"] = statistics.median(
            t - p for t, p in zip(pass_s["traced"], pass_s["plain"])
        ) * 1000 / per_input
        result["layers"] = layers
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        tracer.write(spec["spans_path"])
    Path(spec["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
