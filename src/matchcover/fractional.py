"""Fractional 1-factors: membership, the face peel, decompositions.

A fractional 1-factor is an edge-weight vector w with

  (i)   0 <= w(e) <= 1 for every edge,
  (ii)  sum of w over each vertex star equal to 1,
  (iii) w(boundary(S)) >= 1 for every odd vertex set S.

These are exactly the points of the perfect matching polytope, so any
member decomposes as a convex combination of perfect matchings.
`_peel` picks a perfect matching M of the minimal face of a member w
with blossom calls, and the largest lam with (w - lam*chi_M)/(1 - lam)
still a member with flow decisions; a tight cut M crosses more than
once becomes a cutting plane.  The exact-lemma cover takes its picks
from it at a step so small that only tight cuts can fail; `decompose`
peels its terms off one at a time, keeping the cutting planes, and its
first passing peel is the membership proof.  The decomposition is exact
and verified by reconstruction on integer numerators.

`verify_membership` reports the minimum odd cut, found by bisection on
the flow decision; the greedy cover only decides, and `decompose` asks
for the report only to say why w is no member.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    LemmaViolationError,
    MembershipFailure,
    NoPerfectMatchingError,
    NotRegularError,
)
from .matching import Matching, _edge_uses, max_weight_perfect_matching
from .multigraph import Multigraph
from .oddcuts import OddCutResult, _min_odd_cut, _odd_cuts_at_least, scale_weights


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
    return FractionalOneFactor((Fraction(1, r),) * g.m)


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

    terms: tuple[tuple[Matching, Fraction], ...]

    def coefficients_sum(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))


def _peel(g: Multigraph, nums: list[int], d: int, gains, penalised: set[frozenset[int]],
          top: Fraction, what: str) -> tuple[Matching, int, int, list[int] | None]:
    """(M, p, q, y): M is the lexicographically least maximum of `gains`
    in the minimal face of w = nums/d, and lam = p/q the largest step up
    to `top` with (w - lam*chi_M)/(1 - lam) a member; that member is
    y/((q - p)*d), y = q*nums - p*d*chi_M (None when lam = 1).

    These points lie on a ray from w, so the feasible lam form an
    interval [0, lam*], and lam* > 0 exactly when M crosses every tight
    cut once.  One flow decision at lam = min(top, min over M of w) asks
    whether every odd cut of y weighs at least (q - p)*d.  A side S it
    returns has w(delta S) - 1 < lam*(|M & delta S| - 1).  A tight S is
    crossed 3 or more times: it joins the cutting planes `penalised`,
    its edges lose n+1 in `gains` (0/1 or 0/-1 otherwise, so no pick
    crosses a plane thrice), and M is picked again.  A heavier S sets
    lam to (w(delta S) - 1)/(|M & delta S| - 1), Dinkelbach's step
    (1967).  A lighter S, a repeated plane or a zero step is an internal
    bug; the error names w by `what`.  Whichever tight cuts are
    penalised, a passing M is the least perfect matching of the minimal
    face.
    """
    on = None
    while True:
        if on is None:  # pick M, again after each new cutting plane
            chosen = max_weight_perfect_matching(g, gains)
            on = frozenset(chosen.edge_ids)
            p, q = min((nums[e] for e in on), default=d), d  # lam = p/q
            if top.numerator * q < p * top.denominator:
                p, q = top.numerator, top.denominator
            if p == 0:
                raise LemmaViolationError(f"{what} gives a zero step (internal bug)")
        if p == q:  # w is chi_M
            return chosen, p, q, None
        y = [q * x - p * d if e in on else q * x for e, x in enumerate(nums)]
        side = _odd_cuts_at_least(g, y, (q - p) * d)
        if side is None:
            return chosen, p, q, y
        cut = g.boundary(side)
        excess = sum(nums[e] for e in cut) - d
        if excess <= 0:
            if excess < 0 or cut in penalised:
                raise LemmaViolationError(
                    f"{what} left the polytope, or the pick crosses a penalised "
                    "tight cut more than once (internal bug)"
                )
            penalised.add(cut)
            for e in cut:
                gains[e] -= g.n + 1
            on = None
            continue
        step = excess, d * (len(cut & on) - 1)  # the largest lam S allows
        if step[0] * q >= p * step[1]:
            raise LemmaViolationError(
                f"{what} gives a side whose step is not below {Fraction(p, q)} "
                "(internal bug)"
            )
        p, q = step


def _require_member(g: Multigraph, w: FractionalOneFactor) -> None:
    """Raise MembershipFailure with w's report unless w is a member
    (`verify_membership` raises on a length mismatch)."""
    rep = verify_membership(g, w)
    if not rep.ok:
        raise MembershipFailure(
            f"vector fails membership condition {rep.condition}", rep
        )


def decompose(g: Multigraph, w: FractionalOneFactor) -> ConvexDecomposition:
    """Write a fractional 1-factor as an exact convex combination of
    perfect matchings, by peeling faces of the polytope.

    w is held as numerators nums over d.  Each peel takes M and the
    largest lam from `_peel`, with gain 0 on the support of w and -1 off
    it, and carries on with (w - lam*chi_M)/(1 - lam).  One passing
    decision per peel both proves M in the minimal face and fixes lam;
    the last term, w = chi_M, needs none.  The gains and cutting planes
    are kept from peel to peel: a tight cut that M crosses once stays
    tight, (1 - lam)/(1 - lam) = 1, and only the edges leaving the
    support lose 1.  A peel zeroes an edge of M or makes tight an odd
    cut that M crosses more than once, so M leaves the face: the terms
    are distinct, at most m+1 of them, sorted by edge-id tuple.  Nothing
    is enumerated.  The result is verified by reconstruction, on integer
    numerators over one common denominator, before being returned.

    The first passing peel is the membership proof: w = lam*chi_M +
    (1 - lam)*y with y a member, so w is one.  `verify_membership` runs
    only on a length mismatch, a failure of (i) or (ii), or a first peel
    that raises (as it does for odd n), and MembershipFailure carries
    its report; if it finds w a member, the peel's error is an internal
    bug and is raised.
    """
    if len(w) != g.m:
        _require_member(g, w)
    nums, d = scale_weights(w.values, g.m)
    if _local_failure(g, nums, d) is not None:
        _require_member(g, w)
    w_nums, w_den = nums, d
    gains, penalised = [0 if x else -1 for x in nums], set()
    rest, terms = Fraction(1), []  # rest: the mass not yet peeled
    while True:
        try:
            chosen, p, q, y = _peel(g, nums, d, gains, penalised, Fraction(1),
                                    "decompose: the peeled vector")
        except (LemmaViolationError, NoPerfectMatchingError):
            if not terms:  # w may be no member: report why
                _require_member(g, w)
            raise
        terms.append((chosen, rest * Fraction(p, q)))
        if p == q:
            break
        rest *= Fraction(q - p, q)
        div = gcd((q - p) * d, *y)  # y / ((q - p) * d) is the rest's vector
        nums, d = [x // div for x in y], (q - p) * d // div
        for e in chosen.edge_ids:
            if not nums[e]:
                gains[e] -= 1
    terms.sort(key=lambda t: t[0].edge_ids)
    den = lcm(w_den, *(c.denominator for _, c in terms))
    mults = [(mtch, c.numerator * (den // c.denominator)) for mtch, c in terms]
    if (sum(k for _, k in mults) != den
            or _edge_uses(g, mults) != [x * (den // w_den) for x in w_nums]):
        raise AssertionError("decomposition failed exact reconstruction; internal bug")
    return ConvexDecomposition(tuple(terms))


@dataclass(frozen=True)
class Multicoloring:
    """r*p matchings covering every edge exactly p times."""

    p: int
    matchings: tuple[Matching, ...]


def multicoloring(g: Multigraph, r: int) -> Multicoloring:
    """Turn the uniform vector's decomposition into an exact multicover.

    Scales the convex coefficients by the least common multiple of
    their denominators (and r), giving integer multiplicities whose
    matchings cover each edge exactly p times with r*p matchings in
    total.  p is valid but not necessarily minimal.
    """
    dec = decompose(g, uniform(g, r))
    t = lcm(lcm(*(c.denominator for _, c in dec.terms)), r)
    p = t // r
    mults = [(mtch, int(coeff * t)) for mtch, coeff in dec.terms]
    if sum(k for _, k in mults) != r * p or _edge_uses(g, mults) != [p] * g.m:
        raise AssertionError("multicover misses the exact p-fold identity; internal bug")
    return Multicoloring(p, tuple(mtch for mtch, k in mults for _ in range(k)))
