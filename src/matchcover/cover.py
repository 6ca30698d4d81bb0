"""Greedy edge cover by perfect matchings, with per-step certificates.

Each iteration j picks a perfect matching and certifies its gain:

* level L1: the usage-count vector w_j was verified to be a fractional
  1-factor, so some perfect matching gains at least w_j(uncovered) =
  (entry at count 0) * #uncovered; the chosen matching's gain is
  checked against that exactly.
* level L0: membership was not verified (or failed); the fallback
  certificate is the uniform-vector average, #uncovered / r.

Two modes:

* 'fast' picks a maximum-gain perfect matching outright (one blossom
  call on id-perturbed weights, lexicographically least among ties).
  Cheap, scales, and certificate levels report honestly whatever
  membership turns out to be.
* 'exact-lemma' restricts each pick to matchings crossing every tight
  cut of w_j exactly once, then maximizes gain among those.  That is
  the selection the extraction lemma feeds, it keeps w_{j+1} inside the
  polytope at every step for both parities of r, and it makes every
  certificate L1.  Its tight cuts come from one exhaustive cut-size
  scan per run plus per-matching crossing updates, so it is capped to
  desk scale.

At desk scale (n <= odd_cap) every step also carries an audit of the
r-, (r+1)- and (r+2)-cut families, read from the same per-run tables.

A certified prediction that fails its exact comparison raises
LemmaViolationError: that is an internal bug by construction, never a
property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .bounds import product_bound
from .errors import (
    CapExceededError,
    LemmaViolationError,
    NotRGraphError,
)
from .fractional import (
    FractionalOneFactor,
    build_w_k,
    uniform,
    verify_membership,
    w_k_entry,
)
from .matching import Matching, enumerate_perfect_matchings, max_weight_perfect_matching
from .multigraph import Multigraph
from .oddcuts import (
    cut_values_by_code,
    is_r_graph,
    odd_subset_codes,
    _decode,
    _OddCutTables,
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


def audit_cut_invariants(
    state: CoverState, r: int, cap: int = 20
) -> tuple[CutFamilyAudit, ...]:
    """Exhaustive crossing-count audit of the r-, (r+1)-, (r+2)-cut families.

    For each odd vertex set S with |boundary(S)| in {r, r+1, r+2},
    totals the crossings of the chosen matchings and checks the
    inductive clause: for odd r, r-cuts must total exactly k and
    (r+2)-cuts at most r*k+2; for even r the claused family, size r+1,
    cannot contain odd cuts at all (every cut has even size), so it is
    reported vacuous and the unclaused even families carry their
    observed totals with status 'not-checked'.  Scans from scratch;
    greedy_cover reads the same audit off its per-run tables.
    """
    g = state.graph
    if g.n > cap:
        raise CapExceededError(
            f"cut-invariant audit needs an exhaustive scan; n = {g.n} exceeds cap {cap}"
        )
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
    """
    out = []
    for s in (r, r + 1, r + 2):
        mask = sizes == s
        num = int(mask.sum())
        if r % 2 == 1 and s == r:
            clause = f"= {k}"
        elif r % 2 == 1 and s == r + 2:
            clause = f"<= {r}*k+2 = {r * k + 2}"
        elif r % 2 == 0 and s == r + 1:
            clause = f"<= ({r}-1)*k+2 = {(r - 1) * k + 2}"
        else:
            clause = None
        if num == 0:
            status = "vacuous" if clause is not None else "not-checked"
            out.append(CutFamilyAudit(s, clause, 0, None, status))
            continue
        fam = sums[mask].astype(int)
        if clause is None:
            out.append(CutFamilyAudit(s, None, num, int(fam.max()), "not-checked"))
            continue
        if s == r and r % 2 == 1:
            bad = (fam != k)
            worst_idx = int(abs(fam - k).argmax())
        else:
            limit = r * k + 2 if s == r + 2 else (r - 1) * k + 2
            bad = fam > limit
            worst_idx = int(fam.argmax())
        worst = int(fam[worst_idx])
        if bool(bad.any()):
            offender = codes[mask][worst_idx]
            out.append(
                CutFamilyAudit(s, clause, num, worst, "violated", _decode(int(offender)))
            )
        else:
            out.append(CutFamilyAudit(s, clause, num, worst, "satisfied"))
    return tuple(out)


def _mask(edge_ids) -> int:
    return sum(1 << e for e in edge_ids)


def _tight_coefficients(r: int, step: int) -> tuple[int, int, int]:
    """(a, b, d) with w_step(count) = (a - b*count)/d on every edge.

    w_k_entry is affine in the count; w_1 = 1/r is its step-1 case with b = 0.
    """
    top = w_k_entry(r, step, 0)
    slope = top - w_k_entry(r, step, 1) if step > 1 else Fraction(0)
    d = lcm(top.denominator, slope.denominator)
    return int(top * d), int(slope * d), d


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


def greedy_cover(
    g: Multigraph,
    r: int,
    k: int,
    mode: str = FAST,
    pm_cap: int = 100_000,
    odd_cap: int = 20,
) -> CoverReport:
    """Cover edges with k greedily chosen perfect matchings and certify it.

    Requires an r-graph (NotRGraphError carries the violating odd cut
    otherwise).  Gains are exact integers, predictions exact rationals;
    the final fraction is compared against the product bound for (r, k).
    Repetition of matchings is allowed; a step that gains nothing is
    flagged stalled.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if g.n < 2:
        raise ValueError("cover needs at least 2 vertices")
    ok, cut = is_r_graph(g, r)
    if not ok:
        raise NotRGraphError(
            f"not an r-graph: odd cut of value {cut.value} < {r}",
            witness=cut.witness,
            value=cut.value,
        )
    exact = mode == EXACT_LEMMA
    if exact and g.n > odd_cap:
        raise CapExceededError(
            f"exact-lemma mode enumerates tight cuts exhaustively; "
            f"n = {g.n} exceeds odd-cap {odd_cap}"
        )
    pms = enumerate_perfect_matchings(g, pm_cap) if exact else ()
    pm_masks = [_mask(pm.edge_ids) for pm in pms]
    cuts = (
        _OddCutTables(g, range(r, r + 3), k * g.n // 2, exact) if g.n <= odd_cap else None
    )
    state = CoverState.initial(g)
    certs: list[IterationCertificate] = []
    for step in range(1, k + 1):
        uncovered = g.m - len(state.covered)
        if step == 1:
            w: FractionalOneFactor = uniform(g, r)
            verified = verify_membership(g, w).ok if exact else None
        else:
            w = build_w_k(g, r, step, state.counts)
            verified = verify_membership(g, w).ok
        if exact:
            if verified is not True:
                raise LemmaViolationError(
                    f"exact-lemma step {step}: usage vector left the polytope; "
                    "selection rule is broken (internal bug)"
                )
            tights = cuts.tight(*_tight_coefficients(r, step))
            cut_masks = [_mask(g.boundary(s)) for s in tights]
            uncovered_mask = ~_mask(state.covered)
            chosen = None
            best_gain = -1
            for pm, pm_mask in zip(pms, pm_masks):
                if any((pm_mask & c).bit_count() != 1 for c in cut_masks):
                    continue
                gain = (pm_mask & uncovered_mask).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    chosen = pm
            if chosen is None:
                raise LemmaViolationError(
                    f"exact-lemma step {step}: no perfect matching honors the "
                    "tight cuts; extraction guarantee broken (internal bug)"
                )
            tight_honored = True
        else:
            weights = [0 if e in state.covered else 1 for e in range(g.m)]
            if certs and certs[-1].stalled:  # same weights as the last step
                chosen = state.matchings[-1]
            else:
                chosen = max_weight_perfect_matching(g, weights)
            best_gain = sum(1 for e in chosen.edge_ids if e not in state.covered)
            tight_honored = None
        if verified:
            level = "L1"
            predicted = w_k_entry(r, step, 0) * uncovered
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
            cuts.add(chosen.edge_ids)
            audit = _audit_families(r, step, cuts.fam_codes, cuts.fam_sizes, cuts.fam_sums)
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
