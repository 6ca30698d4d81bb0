"""Exhaustive searches at desk scale: best k-cover fraction, excessive
index and the generalized Berge-Fulkerson double cover.

All three run over the complete enumerated list of perfect matchings,
each held as an edge bitmask, with the suffix unions of those masks as
the one pruning table: suf[j] holds every edge that some matching of
index j or later contains.  Both searches keep their path on an
explicit stack, so no depth is bounded by recursion.

`m_exact` and `excessive_index` share one decision: the lexicographically
least kk-subset of matchings whose union covers at least need edges,
found by include-first depth-first search that stops at its first hit.
`excessive_index` raises kk until need = m holds; `m_exact` lowers need
from its upper bound until it holds, so its first answer is the optimum
with the lex-least optimal witness.
`bf_double_cover` holds two masks, the edges covered at least once and
at least twice, and cuts a node when an edge not yet covered twice lies
in no later matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NoPerfectMatchingError, NotRegularError, UncoverableEdgeError
from .matching import PM_CAP, Matching, _edge_uses, enumerate_perfect_matchings
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
    subsets of size kk = min(k, #matchings).  It asks the decision for
    need = min(|union of all masks|, kk * n/2) edges and lowers need by
    one until it holds, which it does by need = n/2 at the latest.  The
    witness is the lexicographically least optimal subset, padded with
    repeats of its first element when k exceeds the matching count.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if g.n < 2:
        raise ValueError("coverage search needs at least 2 vertices")
    pms, masks, suf = _pm_masks(g, pm_cap)
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    kk, per = min(k, len(pms)), g.n // 2
    need = min(suf[0].bit_count(), kk * per)
    while (sel := _first_subset(masks, suf, kk, per, need)) is None:
        need -= 1
    witness = tuple(sorted(sel + (sel[0],) * (k - kk)))
    return ExactCoverage(
        k=k,
        fraction=Fraction(need, g.m),
        witness_indices=witness,
        matchings=tuple(pms[j] for j in witness),
        pm_count=len(pms),
    )


def _first_subset(
    masks: list[int], suf: list[int], kk: int, per: int, need: int
) -> tuple[int, ...] | None:
    """The lexicographically least kk-subset (kk >= 1) of mask indices
    whose union covers at least need edges, or None.

    suf holds the suffix unions of masks and per the edges in each
    mask.  A branch is cut once its union bound, or its count plus per
    edges for each mask still to pick, falls short of need.  Picking j
    leaves the union bound (cur | suf[j]), which only falls as j grows,
    so its first failure ends the remaining siblings too.
    """
    # one entry per depth: the next index to try there and the union of
    # the picks above it; below the top, that next index is the pick + 1
    stack: list[tuple[int, int]] = [(0, 0)]
    while stack:
        j, cur = stack.pop()
        rest = kk - 1 - len(stack)  # picks still to make below this depth
        last = len(masks) - 1 - rest
        while j <= last and (cur | suf[j]).bit_count() >= need:
            nxt = cur | masks[j]
            if not rest:
                if nxt.bit_count() >= need:
                    return tuple(i - 1 for i, _ in stack) + (j,)
            elif nxt.bit_count() + rest * per >= need:
                stack.append((j + 1, cur))
                stack.append((j + 1, nxt))
                break
            j += 1
    return None


@dataclass(frozen=True)
class ExcessiveIndexResult:
    """Minimum number of perfect matchings whose union is every edge."""

    value: int
    witness_indices: tuple[int, ...]
    matchings: tuple[Matching, ...]
    pm_count: int


def excessive_index(g: Multigraph, pm_cap: int = PM_CAP) -> ExcessiveIndexResult:
    """The least k for which the decision finds k matchings covering all
    m edges, trying k = ceil(m / (n/2)), ceil(m / (n/2)) + 1, ...; the
    witness is the lexicographically least such subset.  k = #matchings
    always succeeds once every edge lies in some matching.

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
    k = max(1, -(-g.m // per))
    while (got := _first_subset(masks, suf, k, per, g.m)) is None:
        k += 1
    return ExcessiveIndexResult(
        value=k,
        witness_indices=got,
        matchings=tuple(pms[j] for j in got),
        pm_count=len(pms),
    )


@dataclass(frozen=True)
class DoubleCoverResult:
    """Outcome of the exhaustive search for a 2r-matching double cover."""

    found: bool
    matchings: tuple[Matching, ...] | None
    pm_count: int
    nodes: int


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
    picks = [(pms[j], t) for j, t, _, _ in path]
    if sum(t for _, t in picks) != 2 * r or _edge_uses(g, picks) != [2] * g.m:
        raise AssertionError("double cover bookkeeping is off; internal bug")
    out = tuple(pm for pm, t in picks for _ in range(t))
    return DoubleCoverResult(True, out, len(pms), nodes)
