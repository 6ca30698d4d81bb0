"""Exhaustive searches at desk scale: best k-cover fraction, excessive
index and the generalized Berge-Fulkerson double cover.

All three run over the complete enumerated list of perfect matchings,
each held as an edge bitmask, with the suffix unions of those masks as
the one pruning table: suf[j] holds every edge that some matching of
index j or later contains.  Both searches keep their path on an
explicit stack, so no depth is bounded by recursion.

`m_exact` and `excessive_index` explore index subsets in lexicographic
order with include-first depth-first search, so the first optimum kept
is the lexicographically least witness; upper-bound pruning discards
ties, which by that ordering can only be lexicographically later.
`bf_double_cover` holds two masks, the edges covered at least once and
at least twice, and cuts a node when an edge not yet covered twice lies
in no later matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NoPerfectMatchingError, NotRegularError, UncoverableEdgeError
from .matching import PM_CAP, Matching, enumerate_perfect_matchings
from .multigraph import Multigraph


@dataclass(frozen=True)
class ExactCoverage:
    """Best coverage fraction over multisets of k perfect matchings."""

    k: int
    fraction: Fraction
    witness_indices: tuple[int, ...]
    matchings: tuple[Matching, ...]
    pm_count: int


def _pm_masks(
    g: Multigraph, cap: int
) -> tuple[tuple[Matching, ...], list[int], list[int]]:
    """The perfect matchings, their edge bitmasks and the masks' suffix
    unions (one more entry than masks, ending in 0)."""
    pms = enumerate_perfect_matchings(g, cap)
    masks = [sum(1 << e for e in pm.edge_ids) for pm in pms]
    suf = [0] * (len(masks) + 1)
    for j in range(len(masks) - 1, -1, -1):
        suf[j] = suf[j + 1] | masks[j]
    return pms, masks, suf


def m_exact(g: Multigraph, k: int, pm_cap: int = PM_CAP) -> ExactCoverage:
    """The exact maximum fraction of edges covered by k perfect matchings.

    Repeats add nothing to a union, so the search runs over index
    subsets of size min(k, #matchings); the witness is the
    lexicographically least optimal subset, padded with repeats of its
    first element when k exceeds the matching count.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if g.n < 2:
        raise ValueError("coverage search needs at least 2 vertices")
    pms, masks, suf = _pm_masks(g, pm_cap)
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    kk = min(k, len(pms))
    best, best_sel = _best_subset(masks, suf, kk, g.n // 2, -1)
    witness = best_sel + (best_sel[0],) * (k - kk) if k > kk else best_sel
    witness = tuple(sorted(witness))
    return ExactCoverage(
        k=k,
        fraction=Fraction(best, g.m),
        witness_indices=witness,
        matchings=tuple(pms[j] for j in witness),
        pm_count=len(pms),
    )


def _best_subset(
    masks: list[int], suf: list[int], kk: int, per: int, floor: int
) -> tuple[int, tuple[int, ...]]:
    """The most edges a union of kk >= 1 of the masks covers, with the
    lexicographically least index subset reaching it; (floor, ()) when
    no subset covers more than floor edges.

    suf holds the suffix unions of masks and per the edges in each
    mask.  A branch is cut once its union bound, or its count plus per
    edges for each mask still to pick, cannot beat the best so far.
    Picking j leaves the union bound (cur | suf[j]), which only falls
    as j grows, so its first failure ends the remaining siblings too.
    """
    best = floor
    best_sel = None
    # one entry per depth: the next index to try there, the union of the
    # picks above it, and those picks as a linked (j, parent) pair
    stack: list[tuple[int, int, tuple | None]] = [(0, 0, None)]
    while stack:
        j, cur, sel = stack.pop()
        rest = kk - 1 - len(stack)  # picks still to make below this depth
        last = len(masks) - 1 - rest
        while j <= last and (cur | suf[j]).bit_count() > best:
            nxt = cur | masks[j]
            if not rest:
                if nxt.bit_count() > best:
                    best, best_sel = nxt.bit_count(), (j, sel)
            elif nxt.bit_count() + rest * per > best:
                stack.append((j + 1, cur, sel))
                stack.append((j + 1, nxt, (j, sel)))
                break
            j += 1
    picks: list[int] = []
    while best_sel is not None:
        j, best_sel = best_sel
        picks.append(j)
    return best, tuple(reversed(picks))


@dataclass(frozen=True)
class ExcessiveIndexResult:
    """Minimum number of perfect matchings whose union is every edge."""

    value: int
    witness_indices: tuple[int, ...]
    matchings: tuple[Matching, ...]
    pm_count: int


def excessive_index(g: Multigraph, pm_cap: int = PM_CAP) -> ExcessiveIndexResult:
    """Iterative deepening over cover sizes, reusing the subset search.

    Raises UncoverableEdgeError (with the lowest offending edge id)
    when some edge lies in no perfect matching, since no cover of any
    size can exist then.
    """
    if g.n < 2:
        raise ValueError("cover search needs at least 2 vertices")
    pms, masks, suf = _pm_masks(g, pm_cap)
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    full = (1 << g.m) - 1
    if suf[0] != full:
        missing = next(e for e in range(g.m) if not (suf[0] >> e) & 1)
        raise UncoverableEdgeError(
            f"edge {missing} lies in no perfect matching", edge_id=missing
        )
    per = g.n // 2
    for k in range(max(1, -(-g.m // per)), len(pms) + 1):
        best, got = _best_subset(masks, suf, k, per, g.m - 1)
        if best == g.m:
            return ExcessiveIndexResult(
                value=len(got),
                witness_indices=got,
                matchings=tuple(pms[j] for j in got),
                pm_count=len(pms),
            )
    raise AssertionError("full union exists but no cover was found; internal bug")


@dataclass(frozen=True)
class DoubleCoverResult:
    """Outcome of the exhaustive search for a 2r-matching double cover."""

    found: bool
    matchings: tuple[Matching, ...] | None
    pm_count: int
    nodes: int

    @property
    def exhausted(self) -> bool:
        return not self.found


def bf_double_cover(g: Multigraph, r: int, cap: int = PM_CAP) -> DoubleCoverResult:
    """Search for 2r perfect matchings (repeats allowed) covering every
    edge exactly twice.

    Depth-first over multiplicities 0..2 per enumerated matching, in
    matching order, trying higher multiplicities first so the first
    solution found is the lexicographically least multiset.  t copies
    of a matching fit while its edges are covered at most 2 - t times
    so far.  A node is cut when an edge not yet covered twice lies in
    no later matching.  A negative answer means the whole space was
    explored: a per-graph disproof.
    """
    if g.n < 2:
        raise ValueError("double-cover search needs at least 2 vertices")
    if not g.is_regular(r):
        raise NotRegularError(f"graph is not {r}-regular")
    pms, masks, suf = _pm_masks(g, cap)
    full = (1 << g.m) - 1
    once = twice = 0  # edges covered at least once, at least twice
    path: list[tuple[int, int, int, int]] = []  # (j, t, once, twice) before the pick
    nodes = 0
    below = 3  # multiplicities below this are still to try at j
    while True:
        j = len(path)
        if below == 3:  # a new node
            nodes += 1
            if twice == full:
                break
            if full & ~twice & ~suf[j]:  # also ends j == len(pms)
                below = 0
        if below:
            pm = masks[j]
            t = 2 if below > 2 and not pm & once else 1 if below > 1 and not pm & twice else 0
            path.append((j, t, once, twice))
            for _ in range(t):
                twice |= pm & once
                once |= pm
            below = 3
        elif path:
            j, below, once, twice = path.pop()
        else:
            break

    if twice != full:
        return DoubleCoverResult(False, None, len(pms), nodes)
    out: list[Matching] = []
    for j, t, _, _ in path:
        out.extend([pms[j]] * t)
    per_edge = [0] * g.m
    for mm in out:
        for e in mm.edge_ids:
            per_edge[e] += 1
    if len(out) != 2 * r or any(c != 2 for c in per_edge):
        raise AssertionError("double cover bookkeeping is off; internal bug")
    return DoubleCoverResult(True, tuple(out), len(pms), nodes)
