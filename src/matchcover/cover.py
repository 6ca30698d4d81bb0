"""Greedy edge cover by perfect matchings, with per-step certificates.

Each iteration j picks a perfect matching and certifies its gain:

* level L1: the usage-count vector w_j was verified to be a fractional
  1-factor, so some perfect matching gains at least w_j(uncovered) =
  (entry at count 0) * #uncovered; the chosen matching's gain is
  checked against that exactly.
* level L0: membership was not verified (or failed); the fallback
  certificate is the uniform-vector average, #uncovered / r.

w_j is built as integer numerators a - b*count over one denominator d
(`bounds.w_k_coefficients`) and checked exactly against (i) and (ii).
The r-graph check and (iii) in both modes are flow threshold decisions
(`oddcuts._odd_cuts_at_least`); `is_r_graph` bisects on the decision
only to name a rejected graph's witness.

Both modes pick with blossom calls on the gain vector (1 on an
uncovered edge, 0 on a covered one, id-perturbed, so the pick is the
lexicographically least maximum); nothing is enumerated.

* 'fast' maximizes gain outright.  Cheap, scales, and certificate
  levels report honestly whatever membership turns out to be.  Once
  every edge is covered, at some step s, the rest is a stalled tail:
  all gains are 0, and with all gains 0 or all 1 the id-perturbed
  maximum is the same matching, as every perfect matching has n/2
  edges, so each tail step takes step 1's matching with no blossom call.
  (In an r-graph every edge lies in some perfect matching, so a step
  gains nothing exactly when nothing is left uncovered.)  Tail step j
  has counts c_s + (j - s)*chi_M, and for j >= 2 w_j has b = 1 with a
  and d affine in j, so every odd cut's slack in (iii) is affine in j
  and the tail steps that pass form an interval: steps s and k are
  decided, and when both pass the steps between are L1 with no
  decision of their own; otherwise each of them is decided.
* 'fast' also decides a step that follows a passing one on fewer cuts,
  for r = 3 and 4.  Let w_i be a proven member (w_1 = 1/r is one, as
  the input is an r-graph, and equals the b = 1 form at zero counts),
  and let the counts since grow only on one matching M: step j's own
  predecessor, or step 1's matching (k - s) times at the tail's end k.
  For an odd cut S with x = |boundary(S)| and y of those edges outside
  M, the numerator slack sum(a - c) - d of (iii) changes by (j - i)(y - 2)
  for r = 3 and (j - i)(x + y - 7) for r = 4.  M crosses S an odd number
  of times, so y is even for r = 3, and odd with x >= 4 even for r = 4:
  only cuts with y = r - 3 can newly fail.  The decision on nums plus d
  on every edge outside M, at the bound d(r - 2), keeps those cuts'
  verdict, as both sides move by d(r - 3), and every other cut reads at
  least the bound and truly passes, its slack not having shrunk.  So the
  verdict is w_j's, and the flows stop early on the heavier edges.  For
  r >= 5 two classes of y can lose slack (y in {0, 2} for r = 5, {1, 3}
  for r = 6) and one shift keeps one class exact; at r = 5 the other
  holds passing cuts, such as a 7-cut that M crosses on every edge, so
  r >= 5 decides in full.  The shifted decision's side is not a cut of
  w_j, so only its verdict is read; exact-lemma picks, `decompose`,
  `is_r_graph` and `random_regular` use their sides and keep the full
  decision.
* 'exact-lemma' restricts each pick to matchings crossing every tight
  cut of w_j exactly once, then maximizes gain among those.  That is
  the selection the extraction lemma feeds, it keeps w_{j+1} inside the
  polytope at every step for both parities of r, and it makes every
  certificate L1.  The restriction is a penalty of n+1 per crossing of
  a tight cut found so far: a perfect matching crosses an odd cut an
  odd number of times, so one crossing such a cut thrice loses at least
  2(n+1), more than any gain.  The tight cuts come as cutting planes
  from the flow decision: one decision per pick both checks membership
  and names a tight cut the pick crosses more than once, if any, and
  the pick is made again.  Nothing is scanned, so it runs at every n.
  The pick is `fractional._peel` at a step of 1/((n+1)d), where
  w_j = nums/d: at that step the decision is the pick's check alone, as
  no cut that is not tight can fail it.  Decompositions peel with the
  same routine at full step.

At desk scale (n <= oddcuts.SCAN_LIMIT) every step also carries an audit
of the r-, (r+1)- and (r+2)-cut families: the crossing totals are one
product of the usage counts with the per-run crossing matrix of those
families (`oddcuts.odd_cut_crossings`).

A certified prediction that fails its exact comparison, or a w_j that
fails (i) or (ii), raises LemmaViolationError: that is an internal bug
by construction, never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import product_bound, w_k_coefficients
from .errors import LemmaViolationError, NotRGraphError
from .fractional import _local_failure, _peel
from .matching import Matching, max_weight_perfect_matching
from .multigraph import Multigraph
from .oddcuts import (
    SCAN_LIMIT,
    cut_values_by_code,
    is_r_graph,
    odd_cut_crossings,
    odd_subset_codes,
    _decode,
    _odd_cuts_at_least,
)

FAST = "fast"
EXACT_LEMMA = "exact-lemma"
MODES = (FAST, EXACT_LEMMA)


@dataclass(frozen=True)
class CoverState:
    """Progress of a cover run: the matchings chosen and each edge's usage
    count, the one record of use; an edge is covered when its count is
    positive."""

    graph: Multigraph
    matchings: tuple[Matching, ...]
    counts: tuple[int, ...]

    @staticmethod
    def initial(g: Multigraph) -> "CoverState":
        return CoverState(g, (), (0,) * g.m)

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(e for e, c in enumerate(self.counts) if c)

    def extend(self, m: Matching) -> "CoverState":
        counts = list(self.counts)
        for e in m.edge_ids:
            counts[e] += 1
        return CoverState(self.graph, self.matchings + (m,), tuple(counts))


@dataclass(frozen=True)
class CutFamilyAudit:
    """Audit of all odd cuts of one cardinality after some step.

    `clause` is the inductive constraint the run is expected to keep
    for this family ('= k' or '<= bound'), or None when no constraint
    applies to this parity; `worst` is the extremal crossing total
    observed.  status is 'satisfied', 'violated', 'vacuous' (no cuts of
    this cardinality exist), or 'not-checked' (no clause applies).
    """

    cardinality: int
    clause: str | None
    num_cuts: int
    worst: int | None
    status: str
    witness: frozenset[int] | None = None


def audit_cut_invariants(state: CoverState, r: int) -> tuple[CutFamilyAudit, ...]:
    """Exhaustive crossing-count audit of the r-, (r+1)-, (r+2)-cut families.

    For each odd vertex set S with |boundary(S)| in {r, r+1, r+2},
    totals the crossings of the chosen matchings and checks the
    inductive clause: for odd r, r-cuts must total exactly k and
    (r+2)-cuts at most r*k+2; for even r the claused family, size r+1,
    cannot contain odd cuts at all (every cut has even size), so it is
    reported vacuous and the unclaused even families carry their
    observed totals with status 'not-checked'.  Scans from scratch, so
    it raises CapExceededError beyond SCAN_LIMIT vertices; greedy_cover
    reads the same audit off its per-run crossing matrix.
    """
    g = state.graph
    if g.n % 2 != 0 or g.n < 2:
        raise ValueError("cut audit requires an even vertex count of at least 2")
    codes = np.flatnonzero(odd_subset_codes(g.n))
    sizes = cut_values_by_code(g, [1] * g.m)
    sums = cut_values_by_code(g, list(state.counts))
    return _audit_families(r, len(state.matchings), codes, sizes[codes], sums[codes])


def _audit_families(r: int, k: int, codes, sizes, sums) -> tuple[CutFamilyAudit, ...]:
    """The audit of k matchings from parallel arrays over odd subset codes.

    codes ascend and include every odd set whose cut size is r, r+1 or
    r+2; sizes and sums are the cut sizes and crossing totals of each.
    The worst set is the one farthest from k under '= k', else the one
    crossed most; the clause is violated when that set breaks it.
    """
    # {cut size: (clause text, limit)}; the limit is None for '= k'
    if r % 2 == 1:
        clauses = {r: (f"= {k}", None), r + 2: (f"<= {r}*k+2 = {r * k + 2}", r * k + 2)}
    else:
        clauses = {r + 1: (f"<= ({r}-1)*k+2 = {(r - 1) * k + 2}", (r - 1) * k + 2)}
    out = []
    for s in (r, r + 1, r + 2):
        clause, limit = clauses.get(s, (None, None))
        mask = sizes == s
        fam = sums[mask]
        status = "not-checked" if clause is None else "satisfied" if len(fam) else "vacuous"
        worst = witness = None
        if len(fam):
            off = abs(fam - k) if clause is not None and limit is None else fam
            i = int(off.argmax())
            worst = int(fam[i])
            if clause is not None and off[i] > (0 if limit is None else limit):
                status, witness = "violated", _decode(codes[mask][i])
        out.append(CutFamilyAudit(s, clause, len(fam), worst, status, witness))
    return tuple(out)


def audits_pass(families) -> bool:
    return families is not None and all(f.status != "violated" for f in families)


@dataclass(frozen=True)
class IterationCertificate:
    """What step j promised and what it delivered.

    membership_verified is True/False when the check ran, None when the
    step did not evaluate it (fast mode's first step).  In fast mode's
    stalled tail it is also True, with no decision of the step's own,
    when the tail's first and last steps both pass.  tight_honored
    is True in exact-lemma mode, None when tight cuts were not
    enumerated.  audit is None beyond desk scale.
    """

    step: int
    level: str  # 'L1' or 'L0'
    membership_verified: bool | None
    tight_honored: bool | None
    predicted_gain: Fraction
    actual_gain: int
    covered_after: int
    stalled: bool
    audit: tuple[CutFamilyAudit, ...] | None


@dataclass(frozen=True)
class CoverReport:
    r: int
    k: int
    mode: str
    state: CoverState
    certificates: tuple[IterationCertificate, ...]
    fraction: Fraction
    bound: Fraction
    bound_met: bool

    @property
    def matchings(self) -> tuple[Matching, ...]:
        return self.state.matchings

    @property
    def all_l1(self) -> bool:
        return all(c.level == "L1" for c in self.certificates)


def require_cover_input(g: Multigraph, r: int, k: int, mode: str) -> None:
    """Raise what greedy_cover raises on bad arguments or a graph that is
    not an r-graph (NotRGraphError carries the violating odd cut)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    if g.n < 2:
        raise ValueError("cover needs at least 2 vertices")
    ok, cut = is_r_graph(g, r)  # or NotRegularError
    if not ok:
        raise NotRGraphError(
            f"not an r-graph: odd cut of value {cut.value} < {r}",
            witness=cut.witness,
            value=cut.value,
        )


def _member(g: Multigraph, r: int, nums: list[int], d: int, since: Matching | None) -> bool:
    """Whether w = nums/d, with (i) and (ii) checked, is a fractional
    1-factor: one flow decision.

    since is the one matching the counts grew on after a step whose
    vector is a proven member, or None.  Given it, for r = 3 and 4 only
    the odd cuts it crosses on all but r - 3 edges can newly fail, so
    the decision runs on nums + d*[e not in since] at the bound d(r-2):
    those cuts keep their verdict and every other cut passes (module
    docstring).  Only the verdict is read, as the shifted decision's
    side is not a cut of w.
    """
    if since is None or r > 4:
        return _odd_cuts_at_least(g, nums, d) is None
    shifted = [x + d for x in nums]
    for e in since.edge_ids:
        shifted[e] = nums[e]
    return _odd_cuts_at_least(g, shifted, d * (r - 2)) is None


def _tail_verdicts(g: Multigraph, r: int, k: int, s: int, counts, m: Matching,
                   since: Matching | None) -> dict[int, bool]:
    """Membership verdicts of the stalled tail s..k that its ends settle.

    Step s is decided on the counts (since as for `_member`), and step k
    (when k > s) on the counts plus (k - s) uses of m, shifted by m when
    step s passes.  When both pass, every step between passes too
    (module docstring), so all of s..k map to True; otherwise only the
    two ends are known.
    """
    a, _, d = w_k_coefficients(r, s)
    verdicts = {s: _member(g, r, [a - c for c in counts], d, since)}
    if k > s:
        a, _, d = w_k_coefficients(r, k)
        nums = [a - c for c in counts]
        for e in m.edge_ids:
            nums[e] -= k - s
        verdicts[k] = _member(g, r, nums, d, m if verdicts[s] else None)
    if all(verdicts.values()):
        return dict.fromkeys(range(s, k + 1), True)
    return verdicts


def greedy_cover(g: Multigraph, r: int, k: int, mode: str = FAST) -> CoverReport:
    """Cover edges with k greedily chosen perfect matchings and certify it.

    Requires an r-graph (see require_cover_input).  Fast mode makes one
    blossom call per step that has an uncovered edge and reuses step 1's
    matching on the stalled tail; for r = 3 and 4 each of its later
    steps that follows a passing step is decided on the cuts the last
    matching can break (module docstring).  Exact-lemma mode makes one per
    cutting-plane round of fractional._peel.  Both run at every n, and
    SCAN_LIMIT bounds only the audit (None above it).  Gains are exact
    integers, predictions exact rationals; the final fraction is compared
    against the product bound for (r, k).  Repetition of matchings is
    allowed; a step that gains nothing is flagged stalled.
    """
    require_cover_input(g, r, k, mode)
    exact = mode == EXACT_LEMMA
    cuts = odd_cut_crossings(g, range(r, r + 3)) if g.n <= SCAN_LIMIT else None
    state = CoverState.initial(g)
    certs: list[IterationCertificate] = []
    tail: dict[int, bool] = {}  # fast mode: verdicts of the stalled tail known ahead
    since: Matching | None = None  # the last pick, when the step before it is proven
    for step in range(1, k + 1):
        gains = [0 if c else 1 for c in state.counts]  # 1 on an uncovered edge
        uncovered = sum(gains)
        a, b, d = w_k_coefficients(r, step)
        nums = [a - b * c for c in state.counts]  # w_j = nums / d
        if _local_failure(g, nums, d) is not None:
            raise LemmaViolationError(
                f"step {step}: usage vector fails (i) or (ii) (internal bug)"
            )
        if exact:  # _peel penalises its gains in place
            chosen = _peel(g, nums, d, gains[:], set(), Fraction(1, (g.n + 1) * d),
                           f"exact-lemma step {step}: usage vector")[0]
            verified = True
        elif uncovered:
            verified = _member(g, r, nums, d, since) if step > 1 else None
            chosen = max_weight_perfect_matching(g, gains)
        else:  # the stalled tail: step 1's matching, verdicts from its ends
            chosen = state.matchings[0]
            if not tail:
                tail = _tail_verdicts(g, r, k, step, state.counts, chosen, since)
            verified = tail[step] if step in tail else _member(g, r, nums, d, since)
        best_gain = sum(gains[e] for e in chosen.edge_ids)
        if verified:
            level = "L1"
            predicted = Fraction(a * uncovered, d)
        else:
            level = "L0"
            predicted = Fraction(uncovered, r)
        if Fraction(best_gain) < predicted:
            raise LemmaViolationError(
                f"step {step}: certified {level} gain {predicted} but achieved "
                f"{best_gain} (internal bug)"
            )
        state = state.extend(chosen)
        # w_1 = 1/r is a member of every r-graph, and the fast mode's
        # unchecked step 1 reads None
        since = chosen if verified is not False else None
        audit = None
        if cuts is not None:
            codes, sizes, cross = cuts
            audit = _audit_families(r, step, codes, sizes, cross @ state.counts)
        certs.append(
            IterationCertificate(
                step=step,
                level=level,
                membership_verified=verified,
                tight_honored=exact or None,
                predicted_gain=predicted,
                actual_gain=best_gain,
                covered_after=g.m - uncovered + best_gain,
                stalled=best_gain == 0,
                audit=audit,
            )
        )
    fraction = Fraction(certs[-1].covered_after, g.m)
    bound = product_bound(r, k)
    return CoverReport(
        r=r,
        k=k,
        mode=mode,
        state=state,
        certificates=tuple(certs),
        fraction=fraction,
        bound=bound,
        bound_met=fraction >= bound,
    )
