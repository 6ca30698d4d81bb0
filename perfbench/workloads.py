"""Seeded job lists for the three workloads, and the code that runs one job.

A workload is a list of rounds.  Every round holds the same fixed
sequence of (r, n) graph classes; the seed only picks which random
r-graph fills each position.  The timed pass runs whole rounds, so its
mix of sizes is the same on every seed and every commit, and each
round's throughput is comparable with every other's.

Jobs call matchcover through module attributes (`matchcover.greedy_cover`,
`matchcover.cli.main`, ...) at call time, so the traced run's wrappers,
installed on those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import matchcover
import matchcover.cli

COVER_FAST = "cover-fast"
COVER_DESK = "cover-desk"
DECOMPOSE = "decompose"


@dataclass(frozen=True)
class Job:
    """One call into matchcover.  `path` is set for jobs that read a file."""

    index: int
    kind: str  # 'cover', 'cli-cover', 'cli-exact', 'decompose', 'multicolor'
    graph_id: int
    r: int
    k: int | None
    mode: str | None
    graph: matchcover.Multigraph
    path: Path | None = None


# workload -> scale -> (graph classes of one round, rounds in the list,
# rounds in the traced run's fixed prefix).  Full-scale rounds take a few
# seconds at the parent commit; the prefix is about a third of a run.
ROUNDS = {
    # r alternates and n spans 40..100, all above the audit cap.  Five
    # classes with well-separated costs, the middle one three times, put
    # the median job inside that class, (3, 64), and give it many samples.
    COVER_FAST: {
        "full": ([(3, 40), (4, 48), (3, 64), (3, 64), (3, 64), (4, 80), (3, 100)], 6, 2),
        "tiny": ([(3, 22), (4, 24)], 2, 1),
    },
    # n = 16 twice per r: a third of the jobs are the quick exact oracle,
    # so the median job falls in the middle of the n = 16 covers instead
    # of on the edge between two size clusters.
    COVER_DESK: {
        "full": ([(3, 16), (4, 20), (3, 18), (4, 16), (3, 16), (4, 18), (3, 20), (4, 16)], 5, 1),
        "tiny": ([(3, 8), (4, 10)], 2, 1),
    },
    # Small graphs, many of them, four per class in a round: the cost of
    # one decomposition varies several-fold with its number of perfect
    # matchings, so a run needs hundreds of graphs for its throughput to
    # repeat across seeds.
    DECOMPOSE: {
        "full": ([(3, 10), (3, 12), (3, 14), (4, 8), (5, 6), (6, 6)] * 4, 25, 8),
        "tiny": ([(3, 8), (4, 8)], 2, 1),
    },
}

# workload -> (kind, k, mode) of the jobs run on each graph, in order.
JOB_KINDS = {
    COVER_FAST: [("cover", 8, matchcover.FAST)],
    COVER_DESK: [("cli-cover", 6, matchcover.FAST), ("cli-cover", 6, matchcover.EXACT_LEMMA),
                 ("cli-exact", 3, None)],
    DECOMPOSE: [("decompose", None, None), ("multicolor", None, None)],
}


def graph_seed(workload: str, seed: int, position: int) -> int:
    """Generator seed of one list position; depends on nothing but its arguments."""
    digest = hashlib.sha256(f"{workload}/{seed}/{position}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_rounds(workload: str, seed: int, scale: str = "full",
                 workdir: Path | None = None) -> list[list[Job]]:
    """The job list of a workload and seed, in rounds.  CLI jobs read files under `workdir`."""
    classes, count, _ = ROUNDS[workload][scale]
    rounds: list[list[Job]] = []
    index = 0
    for gid in range(count * len(classes)):
        if gid % len(classes) == 0:
            rounds.append([])
        r, n = classes[gid % len(classes)]
        g = matchcover.random_regular(n, r, graph_seed(workload, seed, gid))
        path = workdir / f"g{gid:03d}.txt" if workdir is not None else None
        for kind, k, mode in JOB_KINDS[workload]:
            rounds[-1].append(Job(index, kind, gid, r, k, mode, g,
                                  path if kind.startswith("cli") else None))
            index += 1
    return rounds


def write_inputs(rounds: list[list[Job]]) -> None:
    """Write each CLI job's graph as an edge-list file ('n m', then 'u v' lines)."""
    for job in (j for jobs in rounds for j in jobs):
        if job.path is not None and job.kind == "cli-cover" and job.mode == matchcover.FAST:
            g = job.graph
            job.path.write_text("".join(f"{u} {v}\n" for u, v in ((g.n, g.m),) + g.edges))


def input_digest(rounds: list[list[Job]]) -> str:
    """Hash of the job list, serialized by the benchmark itself."""
    payload = [[j.kind, j.r, j.k, j.mode, j.graph.n, j.graph.edges]
               for jobs in rounds for j in jobs]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = matchcover.cli.main(["--format", "json"] + argv)
    return code, buf.getvalue()


def run_job(job: Job):
    """Call matchcover for one job and return its raw output, unchecked."""
    g, r = job.graph, job.r
    if job.kind == "cover":
        return matchcover.greedy_cover(g, r, job.k, mode=job.mode)
    if job.kind == "cli-cover":
        return _cli(["cover", "-r", str(r), "-k", str(job.k), "--mode", job.mode,
                     "--input", str(job.path)])
    if job.kind == "cli-exact":
        return _cli(["exact", "-k", str(job.k), "--input", str(job.path)])
    if job.kind == "decompose":
        return matchcover.decompose(g, matchcover.uniform(g, r))
    if job.kind == "multicolor":
        return matchcover.multicoloring(g, r)
    raise ValueError(f"unknown job kind {job.kind!r}")
