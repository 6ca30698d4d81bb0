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
  levels report honestly whatever membership turns out to be.
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
    """Progress of a cover run: matchings chosen, per-edge usage, covered ids."""

    graph: Multigraph
    matchings: tuple[Matching, ...]
    counts: tuple[int, ...]
    covered: frozenset[int]

    @staticmethod
    def initial(g: Multigraph) -> "CoverState":
        return CoverState(g, (), (0,) * g.m, frozenset())

    def extend(self, m: Matching) -> "CoverState":
        counts = list(self.counts)
        for e in m.edge_ids:
            counts[e] += 1
        return CoverState(
            self.graph,
            self.matchings + (m,),
            tuple(counts),
            self.covered | frozenset(m.edge_ids),
        )


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
    codes, odd = odd_subset_codes(g.n)
    sizes = cut_values_by_code(g, [1] * g.m)
    sums = cut_values_by_code(g, list(state.counts))
    return _audit_families(r, len(state.matchings), codes[odd], sizes[odd], sums[odd])


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
    step did not evaluate it (fast mode's first step).  tight_honored
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


def greedy_cover(g: Multigraph, r: int, k: int, mode: str = FAST) -> CoverReport:
    """Cover edges with k greedily chosen perfect matchings and certify it.

    Requires an r-graph (see require_cover_input).  Fast mode makes one
    blossom call per step, exact-lemma mode one per cutting-plane round
    of fractional._peel; both run at every n, and SCAN_LIMIT bounds
    only the audit (None above it).  Gains are exact integers, predictions
    exact rationals; the final fraction is compared against the product
    bound for (r, k).  Repetition of matchings is allowed; a step that
    gains nothing is flagged stalled.
    """
    require_cover_input(g, r, k, mode)
    exact = mode == EXACT_LEMMA
    cuts = odd_cut_crossings(g, range(r, r + 3)) if g.n <= SCAN_LIMIT else None
    state = CoverState.initial(g)
    certs: list[IterationCertificate] = []
    for step in range(1, k + 1):
        uncovered = g.m - len(state.covered)
        weights = [0 if e in state.covered else 1 for e in range(g.m)]
        if exact or step > 1:
            a, b, d = w_k_coefficients(r, step)
            nums = [a - b * c for c in state.counts]  # w_j = nums / d
            if _local_failure(g, nums, d) is not None:
                raise LemmaViolationError(
                    f"step {step}: usage vector fails (i) or (ii) (internal bug)"
                )
        if exact:
            chosen = _peel(g, nums, d, weights, set(), Fraction(1, (g.n + 1) * d),
                           f"exact-lemma step {step}: usage vector")[0]
            verified = tight_honored = True
        else:
            verified = _odd_cuts_at_least(g, nums, d) is None if step > 1 else None
            if certs and certs[-1].stalled:  # same weights as the last step
                chosen = state.matchings[-1]
            else:
                chosen = max_weight_perfect_matching(g, weights)
            tight_honored = None
        best_gain = sum(1 for e in chosen.edge_ids if e not in state.covered)
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
        audit = None
        if cuts is not None:
            codes, sizes, cross = cuts
            audit = _audit_families(r, step, codes, sizes, cross @ state.counts)
        certs.append(
            IterationCertificate(
                step=step,
                level=level,
                membership_verified=verified,
                tight_honored=tight_honored,
                predicted_gain=predicted,
                actual_gain=best_gain,
                covered_after=len(state.covered),
                stalled=best_gain == 0,
                audit=audit,
            )
        )
    fraction = Fraction(len(state.covered), g.m)
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
