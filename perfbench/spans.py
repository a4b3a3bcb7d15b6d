"""Layer spans recorded from outside the program.

Each traced function is replaced, on every prefarg module attribute that
holds it, by a wrapper that records a span: name, start, end, parent
span and input id. Callers look these attributes up at call time, so
nested calls become child spans without any change to the program:
`check_correspondence` becomes the parent of the flat `build_universe`,
`evaluate` the parent of `complete_extensions`, and so on. Spans stay
in memory until the run ends.

None of the layers has a queue or a lock, so there is no waiting time
to report; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = (
    ("cli", "main"),
    ("formulas", "parse_formula"),
    ("kb", "parse_kb"),
    ("arguments", "build_universe"),
    ("framework", "parse_abstract_framework"),
    ("framework", "build_framework"),
    ("semantics", "evaluate"),
    ("semantics", "grounded_extension"),
    ("semantics", "complete_extensions"),
    ("semantics", "stable_extensions"),
    ("semantics", "self_check"),
    ("coherence", "check_correspondence"),
    ("coherence", "incl_subbases"),
    ("coherence", "max_consistent_subbases"),
)


def _count_framework(counts, fw):
    counts["attacks"] += len(fw.attacks)
    counts["defeats"] += len(fw.defeats)


# Work counted from each traced function's return value.
COUNTERS = {
    "cli.main": lambda counts, code: counts.update([f"cli.exit_code.{code}"]),
    "arguments.build_universe": lambda counts, u: counts.update(arguments=len(u.arguments)),
    "framework.parse_abstract_framework": _count_framework,
    "framework.build_framework": _count_framework,
    "semantics.grounded_extension": lambda counts, r: counts.update(
        {"semantics.grounded_iterations": r[1]}),
    "semantics.complete_extensions": lambda counts, r: counts.update(
        {"semantics.extensions_emitted": len(r)}),
    "semantics.stable_extensions": lambda counts, r: counts.update(
        {"semantics.extensions_emitted": len(r)}),
}

SELF_MS = tuple(f"{layer}.{fn}" for layer, fn in TRACED)

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = (
    [(f"{name}.self_ms", "ms") for name in SELF_MS]
    + [
        ("arguments.build_universe.calls", "count"),
        ("arguments.args_per_s", "1/s"),
        ("framework.attack_keep_ratio", "ratio"),
        ("semantics.grounded_iterations", "count"),
        ("semantics.extensions_emitted", "count"),
        ("coherence.incl_subbases.calls", "count"),
        ("cli.exit_code.0", "count"),
        ("cli.exit_code.1", "count"),
        ("cli.exit_code.2", "count"),
        ("cli.exit_code.3", "count"),
        ("decided_share", "share"),
        ("trace.overhead_ms", "ms"),
    ]
)


class Tracer:
    """Installs span wrappers and keeps the spans of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, input]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.input_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._wrappers: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "prefarg"]
        for layer, fn_name in TRACED:
            name = f"{layer}.{fn_name}"
            original = getattr(sys.modules.get(f"prefarg.{layer}"), fn_name, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            if name not in self._wrappers:
                self._wrappers[name] = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, self._wrappers[name])
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def metrics(self, passes: float) -> dict[str, float]:
        """Per-layer figures for one pass over the run's inputs (totals / passes)."""
        total_ms: dict[str, float] = defaultdict(float)
        child_ms: dict[int, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            name, start, end, parent = span[:4]
            duration = (end - start) * 1000
            total_ms[name] += duration
            calls[name] += 1
            if parent >= 0:
                child_ms[parent] += duration
        self_ms: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            self_ms[span[0]] += (span[2] - span[1]) * 1000 - child_ms[i]
        out = {f"{name}.self_ms": self_ms[name] / passes for name in SELF_MS}
        universe_s = total_ms["arguments.build_universe"] / 1000
        out["arguments.build_universe.calls"] = calls["arguments.build_universe"] / passes
        out["arguments.args_per_s"] = self.counts["arguments"] / universe_s if universe_s else 0.0
        defeats = self.counts["defeats"]
        out["framework.attack_keep_ratio"] = self.counts["attacks"] / defeats if defeats else 0.0
        for name in ("semantics.grounded_iterations", "semantics.extensions_emitted",
                     "cli.exit_code.0", "cli.exit_code.1", "cli.exit_code.2", "cli.exit_code.3"):
            out[name] = self.counts[name] / passes
        out["coherence.incl_subbases.calls"] = calls["coherence.incl_subbases"] / passes
        return out

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, input_id) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": i, "name": name, "parent": parent, "input": input_id,
                    "start_ms": round((start - origin) * 1000, 4),
                    "end_ms": round((end - origin) * 1000, 4),
                }) + "\n")
