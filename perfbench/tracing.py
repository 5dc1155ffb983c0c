"""In-memory span tracing of strongdom from outside the package.

Each public name is replaced, in the module where its caller looks it up,
by a wrapper that records a span: name, parent span, start, end, and for
calls that return a collection its length.  Nothing inside ``src/`` changes.
Spans stay in memory until the run ends; ``reduce`` turns them into
per-layer self times and counts.  A span's self time is its duration minus
the durations of its direct children; spans nest strictly because the
benchmark runs in one thread.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, record the result's length).  The layer
# is the span name's first component.  ``harness`` looks up almost every
# other layer through its own globals, so most wraps sit there.
WRAPS = (
    ("harness", "verify_instance", "harness.verify_instance", False),
    ("harness", "build_instance", "harness.build_instance", False),
    ("harness", "formula_value", "harness.formula_value", False),
    ("harness", "prescribed_bondage_set", "harness.prescribed_bondage_set", False),
    ("harness", "mds_structure_entries", "harness.mds_structure_entries", False),
    ("harness", "domination_number", "domination.witness", False),
    ("harness", "enumerate_min_dominating_sets", "domination.enumerate", True),
    ("harness", "find_bondage_set_up_to", "bondage.refute", False),
    ("harness", "is_bondage_set", "bondage.is_bondage_set", False),
    ("harness", "bondage_number", "bondage.bondage_number", False),
    ("harness", "strong_product", "graphs.strong_product", False),
    ("harness", "complete_graph", "graphs.complete_graph", False),
    ("harness", "path_graph", "graphs.path_graph", False),
    ("harness", "starlike_tree", "graphs.starlike_tree", False),
    ("harness", "gamma_km_pn", "formulas.gamma_km_pn", False),
    ("harness", "gamma_path", "formulas.gamma_path", False),
    ("harness", "gamma_starlike", "formulas.gamma_starlike", False),
    ("harness", "bondage_complete", "formulas.bondage_complete", False),
    ("harness", "bondage_km_pn", "formulas.bondage_km_pn", False),
    ("harness", "bondage_km_starlike", "formulas.bondage_km_starlike", False),
    ("harness", "bondage_path", "formulas.bondage_path", False),
    ("bondage", "enumerate_min_dominating_sets", "bondage.pool_enumerate", True),
    # private, but the only boundary of the random-restart pool
    ("bondage", "_restart_pool", "bondage.pool_restart", True),
    ("domination", "gamma_value", "domination.gamma_value", False),
    ("domination", "is_dominating", "domination.is_dominating", False),
    ("graphs", "starlike_tree", "graphs.starlike_tree", False),
    ("formulas", "gamma_starlike", "formulas.gamma_starlike", False),
    (
        "formulas",
        "starlike_canonical_dominating_set",
        "formulas.starlike_canonical_dominating_set",
        False,
    ),
)

LAYERS = ("graphs", "domination", "bondage", "formulas", "harness")


class Tracer:
    """Span recorder.  ``spans`` rows are [name, parent, start, end, size]."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1], self.clock(), 0.0, 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][3] = self.clock()

    def wrap(self, name: str, fn, sized: bool):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1], clock(), 0.0, 0])
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if sized:
                spans[index][4] = len(out)
            return out

        return traced

    def install(self, modules) -> list[str]:
        """Wrap every name in WRAPS that the modules still define; return
        the ones that are missing, whose metrics then read 0."""
        missing = []
        for module_name, attr, span, sized in WRAPS:
            module = getattr(modules, module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(span, fn, sized))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "parent", "start", "end", "size"], "spans": self.spans}, fh)


def reduce(spans: list[list], root_scales: dict[int, float]) -> dict[str, dict[str, float]]:
    """Per span name: total and self seconds, call count and summed size;
    plus one ``layer:<name>`` row per layer with its self seconds.  Times
    are multiplied by the scale of the root span they descend from."""
    child = [0.0] * len(spans)
    scale = [1.0] * len(spans)
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            scale[i] = scale[parent]
        else:
            scale[i] = root_scales[i]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"total": 0.0, "self": 0.0, "calls": 0, "size": 0}
    )
    for i, (name, _, start, end, size) in enumerate(spans):
        self_s = (end - start - child[i]) * scale[i]
        for key in (name, "layer:" + name.split(".", 1)[0]):
            row = out[key]
            row["total"] += (end - start) * scale[i]
            row["self"] += self_s
            row["calls"] += 1
            row["size"] += size
    return out
