"""Perfect matchings: exhaustive enumeration and max-weight selection.

A Matching stores sorted edge ids only; the graph is passed where
needed.  Enumeration is the oracle route (complete, deterministic,
capped).  `max_weight_perfect_matching` is the production route: one
blossom call on integer weights perturbed by edge id, whose unique
maximum is the lexicographically least maximum-weight perfect matching,
so the output never depends on how the library breaks ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from .errors import CapExceededError, NoPerfectMatchingError
from .multigraph import Multigraph
from .oddcuts import scale_weights


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored as a sorted edge-id tuple."""

    edge_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", tuple(sorted(self.edge_ids)))

    def __len__(self) -> int:
        return len(self.edge_ids)

    def covered_vertices(self, g: Multigraph) -> frozenset[int]:
        out = set()
        for e in self.edge_ids:
            out.update(g.edges[e])
        return frozenset(out)

    def crossings(self, cut: frozenset[int]) -> int:
        """Number of this matching's edges inside an edge-id set."""
        return sum(1 for e in self.edge_ids if e in cut)


def is_perfect_matching(g: Multigraph, m: Matching) -> bool:
    """Every vertex covered exactly once."""
    seen = set()
    for e in m.edge_ids:
        if not (0 <= e < g.m):
            return False
        u, v = g.edges[e]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return len(seen) == g.n


def matching_weight(m: Matching, weights) -> Fraction:
    return sum((Fraction(weights[e]) for e in m.edge_ids), Fraction(0))


def enumerate_perfect_matchings(
    g: Multigraph, cap: int = 100_000
) -> tuple[Matching, ...]:
    """All perfect matchings, sorted by edge-id tuple.

    Branches on the lowest uncovered vertex and prunes any state whose
    residual graph has an odd component, so each matching is produced
    exactly once.  Parallel edges give distinct matchings.  Raises
    CapExceededError as soon as the count would pass `cap`, and
    NoPerfectMatchingError for odd n (for even n an empty result is a
    valid answer, not an error).
    """
    if g.n % 2 != 0:
        raise NoPerfectMatchingError("perfect matchings need an even vertex count")
    if g.n == 0:
        return (Matching(()),)
    covered = [False] * g.n
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []

    def residual_feasible() -> bool:
        # every component of the uncovered subgraph must have even order
        seen = [False] * g.n
        for start in range(g.n):
            if covered[start] or seen[start]:
                continue
            size = 0
            stack = [start]
            seen[start] = True
            while stack:
                x = stack.pop()
                size += 1
                for e in g.incident(x):
                    y = g.other_end(e, x)
                    if not covered[y] and not seen[y]:
                        seen[y] = True
                        stack.append(y)
            if size % 2 != 0:
                return False
        return True

    def rec():
        v = next((x for x in range(g.n) if not covered[x]), None)
        if v is None:
            if len(found) >= cap:
                raise CapExceededError(
                    f"perfect matching enumeration passed the cap of {cap}"
                )
            found.append(tuple(chosen))
            return
        if not residual_feasible():
            return
        covered[v] = True
        for e in g.incident(v):
            u = g.other_end(e, v)
            if covered[u]:
                continue
            covered[u] = True
            chosen.append(e)
            rec()
            chosen.pop()
            covered[u] = False
        covered[v] = False

    rec()
    return tuple(Matching(ids) for ids in sorted(tuple(sorted(f)) for f in found))


def max_weight_value(g: Multigraph, weights) -> Fraction | None:
    """Maximum total weight of a perfect matching, or None if none exists."""
    try:
        return matching_weight(max_weight_perfect_matching(g, weights), weights)
    except NoPerfectMatchingError:
        return None


def max_weight_perfect_matching(g: Multigraph, weights) -> Matching:
    """The lexicographically least maximum-weight perfect matching.

    One exact blossom call on W_e = w_e*2^m + 2^(m-1-e), where w is the
    weight vector shifted to be nonnegative (every perfect matching has
    n/2 edges, so the shift keeps the order) and scaled to integers.
    The perturbations of a matching sum to less than 2^m, so they never
    reorder matchings of different weight; among equal weights they
    favour the largest edge-indicator vector read from edge 0, which for
    equal-size edge sets is the least sorted id tuple.  Distinct edge
    sets get distinct perturbations, so the maximum is unique.  Of
    parallel edges only the copy with the largest W_e can be in it, so
    the simple graph keeps that copy and its id.  Raises
    NoPerfectMatchingError when no perfect matching exists (odd n
    included).
    """
    if g.n % 2 != 0:
        raise NoPerfectMatchingError("perfect matchings need an even vertex count")
    fr = [Fraction(w) for w in weights]
    low = min(fr, default=0)
    nums, _ = scale_weights([f - low for f in fr], g.m)
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        pw = (nums[eid] << g.m) + (1 << (g.m - 1 - eid))
        if (u, v) not in best or pw > best[(u, v)][0]:
            best[(u, v)] = (pw, eid)
    sim = nx.Graph()
    sim.add_nodes_from(range(g.n))
    for (u, v), (pw, _) in best.items():
        sim.add_edge(u, v, weight=pw)
    mate = nx.max_weight_matching(sim, maxcardinality=True)
    if 2 * len(mate) < g.n:
        raise NoPerfectMatchingError("graph has no perfect matching")
    return Matching(tuple(best[(min(u, v), max(u, v))][1] for u, v in mate))
