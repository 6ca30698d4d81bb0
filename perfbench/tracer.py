"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced function on every matchcover
module that holds it (the defining module, the package namespace and
each module that imported it by name), plus two networkx entry points
that matchcover reaches through `nx.<name>`.  Each call then records a
span (name, start, end, parent span, job id) in memory.  `uninstall`
puts the originals back.  No file under src/ is touched.

A layer's self time is its spans' durations minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import networkx

# (layer name, module, attribute); layer names follow the package modules.
LAYERS = (
    ("multigraph.parse_edge_list", "matchcover.multigraph", "parse_edge_list"),
    ("oddcuts.is_r_graph", "matchcover.oddcuts", "is_r_graph"),
    ("oddcuts.min_odd_cut", "matchcover.oddcuts", "min_odd_cut"),
    ("oddcuts.tight_odd_cuts", "matchcover.oddcuts", "tight_odd_cuts"),
    ("oddcuts.cut_values_by_code", "matchcover.oddcuts", "cut_values_by_code"),
    ("matching.max_weight_perfect_matching", "matchcover.matching", "max_weight_perfect_matching"),
    ("matching.enumerate_perfect_matchings", "matchcover.matching", "enumerate_perfect_matchings"),
    ("lpfeas.solve_nonneg", "matchcover.lpfeas", "solve_nonneg"),
    ("fractional.verify_membership", "matchcover.fractional", "verify_membership"),
    ("fractional.decompose", "matchcover.fractional", "decompose"),
    ("fractional.multicoloring", "matchcover.fractional", "multicoloring"),
    ("cover.greedy_cover", "matchcover.cover", "greedy_cover"),
    ("cover.audit_cut_invariants", "matchcover.cover", "audit_cut_invariants"),
    ("exact.m_exact", "matchcover.exact", "m_exact"),
    ("cli.main", "matchcover.cli", "main"),
    ("matching.blossom", "networkx", "max_weight_matching"),
    ("oddcuts.gomory_hu", "networkx", "gomory_hu_tree"),
)

# Layers that call no other traced layer; every other layer also gets .self_s.
LEAVES = (
    "multigraph.parse_edge_list",
    "oddcuts.cut_values_by_code",
    "matching.enumerate_perfect_matchings",
    "lpfeas.solve_nonneg",
    "matching.blossom",
    "oddcuts.gomory_hu",
)

# The layer each workload is predicted to spend most self time in.
PREDICTED_DOMINANT = {
    "cover-fast": "matching.blossom",
    "cover-desk": "oddcuts.cut_values_by_code",
    "decompose": "lpfeas.solve_nonneg",
}


def _count_result(counts: Counter, name: str, args, result) -> None:
    if name == "matching.max_weight_perfect_matching":
        counts["matchings_returned"] += 1
    elif name == "matching.enumerate_perfect_matchings":
        counts["matching.enumerated"] += len(result)
    elif name == "lpfeas.solve_nonneg":
        columns = len(args[0][0]) if args[0] else 0
        counts["lpfeas.columns"] += columns
        counts["lpfeas.support"] += sum(1 for x in result or () if x)
    elif name == "cover.greedy_cover":
        counts["cover.steps"] += len(result.certificates)
        counts["cover.stalled"] += sum(1 for c in result.certificates if c.stalled)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.job: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            _count_result(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        holders = [m for n, m in sys.modules.items()
                   if n == "matchcover" or n.startswith("matchcover.")]
        for name, modname, attr in LAYERS:
            home = sys.modules[modname]
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig)
            targets = [networkx] if home is networkx else holders
            for mod in targets:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            mod, key, orig = self._undo.pop()
            setattr(mod, key, orig)

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds per layer name."""
        calls, total, child = Counter(), Counter(), [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = Counter()
        for (name, start, end, _, _), inner in zip(self.spans, child):
            self_s[name] += (end - start) - inner
        return calls, total, self_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: (value, unit) by metric name."""
        calls, total, self_s = self.layer_times()
        out: dict[str, tuple[float, str]] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (total[name], "s")
            if name not in LEAVES:
                out[f"{name}.self_s"] = (self_s[name], "s")
        c = self.counts
        out["matching.blossom_per_matching"] = (
            calls["matching.blossom"] / max(c["matchings_returned"], 1), "calls/matching")
        out["matching.enumerated"] = (c["matching.enumerated"], "count")
        out["lpfeas.columns"] = (c["lpfeas.columns"], "count")
        out["lpfeas.support_share"] = (c["lpfeas.support"] / max(c["lpfeas.columns"], 1), "ratio")
        out["cover.steps"] = (c["cover.steps"], "count")
        out["cover.stalled_share"] = (c["cover.stalled"] / max(c["cover.steps"], 1), "ratio")
        return out

    def dominant_layer(self) -> str:
        _, _, self_s = self.layer_times()
        return max(self_s, key=self_s.get) if self_s else ""

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job"], "spans": self.spans}))
