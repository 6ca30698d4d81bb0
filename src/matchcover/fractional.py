"""Fractional 1-factors: membership, the usage-count vectors, decompositions.

A fractional 1-factor is an edge-weight vector w with

  (i)   0 <= w(e) <= 1 for every edge,
  (ii)  sum of w over each vertex star equal to 1,
  (iii) w(boundary(S)) >= 1 for every odd vertex set S.

These are exactly the points of the perfect matching polytope, so any
member decomposes as a convex combination of perfect matchings; the
decomposition here is computed exactly and verified by reconstruction.

`w_k_entry` is the per-edge weight used by the greedy cover: after
k-1 matchings have been chosen, an edge used count times gets weight
w_k(count), a strictly decreasing affine function of count normalized
so vertex stars sum to 1.  The two parities of r need different
coefficients.  The minimum sits at count k-1, and its sharp floor
depends on r: exactly 1/(2k+1) for r = 3, strictly above 1/(r+3) for
even r and strictly above 1/(r+4) for odd r >= 5.  No constant floor
holds for r = 3, because the cubic weights are forced by the cubic
product bound 1 - prod (i+1)/(2i+1).

`verify_membership` builds a Gomory-Hu tree only to report a failing
vector's minimum cut; the greedy cover decides without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import MembershipFailure, NotRegularError
from .matching import Matching, enumerate_perfect_matchings
from .multigraph import Multigraph
from .oddcuts import OddCutResult, _odd_cuts_at_least, min_odd_cut, scale_weights
from .lpfeas import solve_nonneg


@dataclass(frozen=True)
class FractionalOneFactor:
    """An edge-weight vector with entries in [0, 1]; exact rationals only."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        for i, v in enumerate(vals):
            if v.numerator < 0 or v.numerator > v.denominator:
                raise ValueError(f"entry {i} outside [0, 1]: {v}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def total(self, edge_ids) -> Fraction:
        return sum((self.values[e] for e in edge_ids), Fraction(0))


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the three-condition membership test.

    condition is None when ok, else one of 'edge_range', 'vertex_sum',
    'odd_cut'; the witness is the offending edge id, vertex, or cut.
    """

    ok: bool
    condition: str | None = None
    witness: object = None
    min_cut: OddCutResult | None = None


def uniform(g: Multigraph, r: int) -> FractionalOneFactor:
    """The all-1/r vector; requires an r-regular graph so stars sum to 1."""
    if r < 1:
        raise ValueError("r must be positive")
    if not g.is_regular(r):
        raise NotRegularError(f"graph is not {r}-regular")
    return FractionalOneFactor(tuple(Fraction(1, r) for _ in range(g.m)))


def w_k_entry(r: int, k: int, count: int) -> Fraction:
    """Weight of an edge used `count` times among k-1 chosen matchings.

    Defined for r >= 3 and 1 <= k, with 0 <= count <= k-1.  Strictly
    positive and strictly below 1 throughout that range, and affine
    decreasing in count, so heavily used edges are devalued.  The
    minimum is at count k-1: exactly 1/(2k+1) for r = 3 (equal to 1/7
    at k = 3 and below it for larger k), strictly above 1/(r+3) for even
    r, and strictly above 1/(r+4) for odd r >= 5.  The last two floors
    are the limits as k grows for r = 4 and r = 5.
    """
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not 0 <= count <= k - 1:
        raise ValueError(f"count must lie in 0..{k - 1}, got {count}")
    if r % 2 == 0:
        num = (r - 2) * k - (r - 4) - count
        den = (r * r - 2 * r - 1) * k - (r * r - 4 * r - 1)
    else:
        num = (r - 1) * k - (r - 3) - 2 * count
        den = (r * r - r - 2) * k - (r * r - 3 * r - 2)
    return Fraction(num, den)


def build_w_k(g: Multigraph, r: int, k: int, counts) -> FractionalOneFactor:
    """The usage-count weight vector for step k of the greedy cover.

    `counts` are per-edge usage counts over the k-1 matchings chosen so
    far; they must be consistent: integers in 0..k-1 summing to k-1
    around every vertex of the r-regular graph.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if not g.is_regular(r):
        raise NotRegularError(f"graph is not {r}-regular")
    counts = list(counts)
    if len(counts) != g.m:
        raise ValueError(f"expected {g.m} counts, got {len(counts)}")
    for e, c in enumerate(counts):
        if not isinstance(c, int) or not 0 <= c <= k - 1:
            raise ValueError(f"count of edge {e} must be an integer in 0..{k - 1}, got {c}")
    for v in range(g.n):
        s = sum(counts[e] for e in g.incident(v))
        if s != k - 1:
            raise ValueError(
                f"counts around vertex {v} sum to {s}, expected {k - 1}"
            )
    entry = [w_k_entry(r, k, c) for c in range(k)]
    return FractionalOneFactor(tuple(entry[c] for c in counts))


def verify_membership(g: Multigraph, w: FractionalOneFactor) -> MembershipReport:
    """Check conditions (i), (ii), (iii) and report the first failure.

    All three run on the entries scaled to one integer denominator.
    (iii) is decided by flows stopped at 1 (`oddcuts.odd_cuts_at_least`),
    so this scales past brute-force sizes; only a failure runs
    `min_odd_cut` for its value and witness.  A member reports the cut
    value 1 at {1}, as `min_odd_cut_brute` does: by (ii) every vertex
    star is an odd cut of value 1.  An odd vertex count fails (iii)
    outright: the full vertex set is an odd set with empty boundary.
    """
    if len(w) != g.m:
        raise ValueError(f"weight vector has {len(w)} entries, graph has {g.m} edges")
    nums, den = scale_weights(w.values, g.m)
    local = _local_failure(g, nums, den)
    if local is not None:
        return local
    if g.n == 0:
        return MembershipReport(True)
    if g.n % 2 == 1:
        cut = OddCutResult(Fraction(0), frozenset(range(g.n)))
        return MembershipReport(False, "odd_cut", cut, cut)
    if _odd_cuts_at_least(g, nums, den) is None:
        return MembershipReport(True, None, None, OddCutResult(Fraction(1), frozenset({1})))
    cut = min_odd_cut(g, w.values)
    return MembershipReport(False, "odd_cut", cut, cut)


def _local_failure(g: Multigraph, nums: list[int], den: int) -> MembershipReport | None:
    """The first failure of conditions (i) and (ii) for the weights nums/den."""
    for e, x in enumerate(nums):
        if not 0 <= x <= den:
            return MembershipReport(False, "edge_range", e)
    for vtx in range(g.n):
        if sum(nums[e] for e in g.incident(vtx)) != den:
            return MembershipReport(False, "vertex_sum", vtx)
    return None


@dataclass(frozen=True)
class ConvexDecomposition:
    """w = sum(coeff * indicator(matching)); coefficients positive, summing to 1."""

    num_edges: int
    terms: tuple[tuple[Matching, Fraction], ...]

    def coefficients_sum(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))

    def reconstruct(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.num_edges
        for mtch, coeff in self.terms:
            for e in mtch.edge_ids:
                out[e] += coeff
        return tuple(out)


def decompose(
    g: Multigraph, w: FractionalOneFactor, cap: int = 100_000
) -> ConvexDecomposition:
    """Write a fractional 1-factor as an exact convex combination of
    perfect matchings.

    Enumerates all perfect matchings supported on the positive edges of
    w, then solves the exact feasibility system: one equation per edge
    plus the coefficients-sum-to-one row, with the 0/1 incidence rows
    passed as ints to the integer-preserving simplex.  The coefficients
    are its basic solution, the one a `Fraction` tableau reaches by the
    same Bland pivots, so at most m+1 terms.  Membership is verified
    first and MembershipFailure raised otherwise; a feasible system is
    then guaranteed, so an infeasible solve indicates an internal bug
    and fails loudly.  The result is verified by reconstruction before
    being returned.
    """
    rep = verify_membership(g, w)
    if not rep.ok:
        raise MembershipFailure(
            f"vector fails membership condition {rep.condition}", rep
        )
    pms = enumerate_perfect_matchings(g, cap)
    positive = {e for e, v in enumerate(w.values) if v.numerator > 0}
    cands = [m for m in pms if positive.issuperset(m.edge_ids)]
    supports = [frozenset(m.edge_ids) for m in cands]
    rows = [[int(e in s) for s in supports] for e in range(g.m)]
    rows.append([1] * len(cands))
    x = solve_nonneg(rows, [*w.values, Fraction(1)])
    if x is None:
        raise AssertionError(
            "membership verified but no convex decomposition found; internal bug"
        )
    terms = tuple((m, c) for m, c in zip(cands, x) if c > 0)
    dec = ConvexDecomposition(g.m, terms)
    if dec.reconstruct() != w.values or dec.coefficients_sum() != 1:
        raise AssertionError("decomposition failed exact reconstruction; internal bug")
    return dec


@dataclass(frozen=True)
class Multicoloring:
    """r*p matchings covering every edge exactly p times."""

    p: int
    matchings: tuple[Matching, ...]


def multicoloring(g: Multigraph, r: int, cap: int = 100_000) -> Multicoloring:
    """Turn the uniform vector's decomposition into an exact multicover.

    Scales the convex coefficients by the least common multiple of
    their denominators (and r), giving integer multiplicities whose
    matchings cover each edge exactly p times with r*p matchings in
    total.  p is valid but not necessarily minimal.
    """
    w = uniform(g, r)
    dec = decompose(g, w, cap)
    t = lcm(lcm(*(c.denominator for _, c in dec.terms)), r)
    p = t // r
    out: list[Matching] = []
    for mtch, coeff in dec.terms:
        mult = int(coeff * t)
        out.extend([mtch] * mult)
    if len(out) != r * p:
        raise AssertionError("multiplicity bookkeeping is off; internal bug")
    per_edge = [0] * g.m
    for mtch in out:
        for e in mtch.edge_ids:
            per_edge[e] += 1
    if any(c != p for c in per_edge):
        raise AssertionError("multicover misses the exact p-fold identity; internal bug")
    return Multicoloring(p, tuple(out))


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


def bf_double_cover(g: Multigraph, r: int, cap: int = 100_000) -> DoubleCoverResult:
    """Search for 2r perfect matchings (repeats allowed) covering every
    edge exactly twice.

    Depth-first over multiplicities 0..2 per enumerated matching, in
    matching order, trying higher multiplicities first so the first
    solution found is the lexicographically least multiset.  Pruning is
    by per-edge remaining availability.  The path is kept as a list, not
    on the call stack, so the search runs at any matching count.  A
    negative answer means the whole space was explored: a per-graph
    disproof.
    """
    if g.n < 2:
        raise ValueError("double-cover search needs at least 2 vertices")
    if not g.is_regular(r):
        raise NotRegularError(f"graph is not {r}-regular")
    pms = enumerate_perfect_matchings(g, cap)
    need = [2] * g.m

    # avail[j][e]: twice the number of matchings with index >= j containing e
    avail = [[0] * g.m for _ in range(len(pms) + 1)]
    for j in range(len(pms) - 1, -1, -1):
        row = avail[j + 1][:]
        for e in pms[j].edge_ids:
            row[e] += 2
        avail[j] = row

    picked: list[tuple[int, int]] = []  # (pm index, multiplicity) for 0..j-1
    nodes = 0
    below = 3  # multiplicities below this are still to try at j
    while True:
        j = len(picked)
        if below == 3:  # a new node
            nodes += 1
            if not any(need):
                break
            if any(x > y for x, y in zip(need, avail[j])):  # also ends j == len(pms)
                below = 0
        t = next((t for t in (2, 1, 0) if t < below
                  and all(need[e] >= t for e in pms[j].edge_ids)), None)
        if t is not None:
            for e in pms[j].edge_ids:
                need[e] -= t
            picked.append((j, t))
            below = 3
        elif picked:
            j, below = picked.pop()
            for e in pms[j].edge_ids:
                need[e] += below
        else:
            break

    if any(need):
        return DoubleCoverResult(False, None, len(pms), nodes)
    out: list[Matching] = []
    for j, t in picked:
        out.extend([pms[j]] * t)
    per_edge = [0] * g.m
    for mm in out:
        for e in mm.edge_ids:
            per_edge[e] += 1
    if len(out) != 2 * r or any(c != 2 for c in per_edge):
        raise AssertionError("double cover bookkeeping is off; internal bug")
    return DoubleCoverResult(True, tuple(out), len(pms), nodes)
