"""Exhaustive optima at desk scale: best k-cover fraction and excessive index.

Both searches run over the complete enumerated list of perfect
matchings as bitmasks.  Subsets are explored in lexicographic index
order with include-first depth-first search, so the first optimum kept
is the lexicographically least witness; upper-bound pruning discards
ties, which by that ordering can only be lexicographically later.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NoPerfectMatchingError, UncoverableEdgeError
from .matching import Matching, enumerate_perfect_matchings
from .multigraph import Multigraph


@dataclass(frozen=True)
class ExactCoverage:
    """Best coverage fraction over multisets of k perfect matchings."""

    k: int
    fraction: Fraction
    witness_indices: tuple[int, ...]
    matchings: tuple[Matching, ...]
    pm_count: int


def _masks(pms) -> list[int]:
    out = []
    for pm in pms:
        mask = 0
        for e in pm.edge_ids:
            mask |= 1 << e
        out.append(mask)
    return out


def _suffix_unions(masks: list[int]) -> list[int]:
    suf = [0] * (len(masks) + 1)
    for j in range(len(masks) - 1, -1, -1):
        suf[j] = suf[j + 1] | masks[j]
    return suf


def m_exact(g: Multigraph, k: int, pm_cap: int = 100_000) -> ExactCoverage:
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
    pms = enumerate_perfect_matchings(g, pm_cap)
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    masks = _masks(pms)
    suf = _suffix_unions(masks)
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
    """The most edges a union of kk of the masks covers, with the
    lexicographically least index subset reaching it; (floor, ()) when
    no subset covers more than floor edges.

    suf holds the suffix unions of masks and per the edges in each
    mask.  A branch is cut once its union bound, or its count plus per
    edges for each mask still to pick, cannot beat the best so far.
    """
    best = floor
    best_sel: tuple[int, ...] = ()
    sel: list[int] = []

    def rec(idx: int, depth: int, cur: int):
        nonlocal best, best_sel
        if depth == kk:
            pc = cur.bit_count()
            if pc > best:
                best = pc
                best_sel = tuple(sel)
            return
        remaining = kk - depth
        if len(masks) - idx < remaining:
            return
        ub = (cur | suf[idx]).bit_count()
        cheap = cur.bit_count() + remaining * per
        if cheap < ub:
            ub = cheap
        if ub <= best:
            return
        for j in range(idx, len(masks) - remaining + 1):
            sel.append(j)
            rec(j + 1, depth + 1, cur | masks[j])
            sel.pop()

    rec(0, 0, 0)
    return best, best_sel


@dataclass(frozen=True)
class ExcessiveIndexResult:
    """Minimum number of perfect matchings whose union is every edge."""

    value: int
    witness_indices: tuple[int, ...]
    matchings: tuple[Matching, ...]
    pm_count: int


def excessive_index(g: Multigraph, pm_cap: int = 100_000) -> ExcessiveIndexResult:
    """Iterative deepening over cover sizes, reusing the subset search.

    Raises UncoverableEdgeError (with the lowest offending edge id)
    when some edge lies in no perfect matching, since no cover of any
    size can exist then.
    """
    if g.n < 2:
        raise ValueError("cover search needs at least 2 vertices")
    pms = enumerate_perfect_matchings(g, pm_cap)
    if not pms:
        raise NoPerfectMatchingError("graph has no perfect matching")
    masks = _masks(pms)
    suf = _suffix_unions(masks)
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
