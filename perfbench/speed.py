"""Machine-speed probes: fixed pieces of work that use no matchcover code.

On a machine whose cores are shared, the speed of the same code changes
over minutes (up to 2x on the 2-vCPU VM this benchmark was built on),
so raw wall times of runs minutes apart cannot be compared.  A run
interleaves probe samples with its jobs, about SHARE of the jobs' time,
and scales a stretch of jobs by reference / (mean probe time during the
stretch): a scaled time reads as if the probe took its reference time,
i.e. on the same machine at a fixed speed.  The mean, not the median,
because a stretch's time is the sum of fast and slowed moments.

Contention slows interpreter-bound and memory-bound code differently,
so each workload's probe does the kind of work its dominant layers do
(blossom and Gomory-Hu for cover-fast, a numpy subset-code scan for
cover-desk, exact Fraction elimination for decompose).  A probe's work
must never change: its time is the unit of that workload's scaled
metrics.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import networkx as nx
import numpy as np

SHARE = 0.05

# Probe time at which scaled and raw times agree (about its median on a
# quiet 2-vCPU Intel Xeon VM).
REFERENCE_S = {"cover-fast": 0.008, "cover-desk": 0.0055, "decompose": 0.007}


class SpeedProbe:
    def __init__(self, workload: str):
        rng = random.Random(7)
        self.graph = nx.circular_ladder_graph(24)
        for u, v in sorted(self.graph.edges):
            self.graph[u][v]["weight"] = rng.randint(1, 50)
        self.flow = nx.circular_ladder_graph(8)
        for u, v in sorted(self.flow.edges):
            self.flow[u][v]["capacity"] = rng.randint(1, 5)
        self.codes = np.arange(1 << 16, dtype=np.uint32)
        self.edges = [(rng.randrange(16), rng.randrange(16), rng.randint(1, 9))
                      for _ in range(24)]
        self.matrix = [[Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(24)]
                       for _ in range(10)]
        # bound now, so the traced run's wrappers on networkx never see a probe
        self._matching, self._gomory_hu = nx.max_weight_matching, nx.gomory_hu_tree
        self.reference = REFERENCE_S[workload]
        self._work = {"cover-fast": self._graphs, "cover-desk": self._scan,
                      "decompose": self._fractions}[workload]

    def _graphs(self) -> None:
        self._matching(self.graph, maxcardinality=True)
        self._gomory_hu(self.flow)

    def _scan(self) -> None:
        cut = np.zeros(len(self.codes), dtype=np.int64)
        for u, v, w in self.edges:
            bit = ((self.codes >> np.uint32(u)) ^ (self.codes >> np.uint32(v))) & np.uint32(1)
            cut += bit.astype(np.int64) * w
        int((cut == 7).sum())

    def _fractions(self) -> None:
        rows = [row[:] for row in self.matrix]
        for k, pivot_row in enumerate(rows):
            col = next((j for j, x in enumerate(pivot_row) if x), None)
            if col is None:
                continue
            rows[k] = pivot_row = [x / pivot_row[col] for x in pivot_row]
            for i, row in enumerate(rows):
                if i != k and row[col]:
                    f = row[col]
                    rows[i] = [a - f * c for a, c in zip(row, pivot_row)]

    def sample(self) -> float:
        """Seconds the probe's work takes now."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def scale(self, samples: list[float]) -> float:
        """Factor that turns raw seconds measured alongside `samples` into scaled seconds."""
        return self.reference / statistics.fmean(samples)
