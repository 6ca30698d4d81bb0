"""Fractional 1-factors: membership, the usage-count vectors, decompositions.

A fractional 1-factor is an edge-weight vector w with

  (i)   0 <= w(e) <= 1 for every edge,
  (ii)  sum of w over each vertex star equal to 1,
  (iii) w(boundary(S)) >= 1 for every odd vertex set S.

These are exactly the points of the perfect matching polytope, so any
member decomposes as a convex combination of perfect matchings; the
decomposition here is computed exactly and verified by reconstruction.

`build_w_k` spreads `bounds.w_k_entry`, the greedy cover's usage-count
weight, over the edges.

`verify_membership` reports the minimum odd cut, found by bisection on
the flow decision; the greedy cover only decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bounds import w_k_entry
from .errors import MembershipFailure, NotRegularError
from .matching import Matching, enumerate_perfect_matchings
from .multigraph import Multigraph
from .oddcuts import OddCutResult, _min_odd_cut, scale_weights
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
    (iii) reports the minimum odd cut (`oddcuts.min_odd_cut`), which
    scales past brute-force sizes.  By (ii) every vertex star is an odd
    cut of value 1, so a member reports the cut value 1 at {1}, after
    one flow decision.  An odd vertex count fails (iii) outright: the
    full vertex set is an odd set with empty boundary.
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
    best, witness = _min_odd_cut(g, nums)
    cut = OddCutResult(Fraction(best, den), witness)
    if best >= den:
        return MembershipReport(True, None, None, cut)
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
