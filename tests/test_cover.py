"""Greedy cover, its certificates, and the odd-cut family audits."""

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcover import (
    CapExceededError,
    CoverState,
    LemmaViolationError,
    Matching,
    NotRegularError,
    NotRGraphError,
    audit_cut_invariants,
    audits_pass,
    verify_membership,
    bridge_pair,
    dipole,
    greedy_cover,
    k4,
    k33,
    petersen,
    prism,
    random_regular,
)
from matchcover import cover, exact, fractional, matching, oddcuts
from matchcover.bounds import w_k_coefficients
from matchcover.cover import EXACT_LEMMA, FAST, MODES, _audit_families
from matchcover.fractional import FractionalOneFactor, _local_failure
from matchcover.matching import enumerate_perfect_matchings
from matchcover.multigraph import Multigraph
from matchcover.oddcuts import min_odd_cut, odd_cut_crossings, tight_odd_cuts

from helpers import (
    CORPUS_IDS,
    PETERSEN_PMS,
    corpus,
    exact_lemma_pick_enumerated,
    min_odd_cut_networkx,
    w_k,
)

F = Fraction


def test_petersen_exact_lemma_full_cover():
    rep = greedy_cover(petersen(), 3, 6, mode=EXACT_LEMMA)
    assert [c.actual_gain for c in rep.certificates] == [5, 4, 3, 2, 1, 0]
    assert [c.predicted_gain for c in rep.certificates] == [
        F(5), F(4), F(18, 7), F(4, 3), F(5, 11), F(0),
    ]
    assert tuple(m.edge_ids for m in rep.matchings) == (
        PETERSEN_PMS[0], PETERSEN_PMS[1], PETERSEN_PMS[2],
        PETERSEN_PMS[3], PETERSEN_PMS[4], PETERSEN_PMS[0],
    )
    assert rep.fraction == 1
    assert rep.bound == F(413, 429)
    assert rep.bound_met
    assert rep.all_l1
    assert all(c.membership_verified for c in rep.certificates)
    assert all(c.tight_honored for c in rep.certificates)
    assert [c.stalled for c in rep.certificates] == [False] * 5 + [True]
    assert all(audits_pass(c.audit) for c in rep.certificates)


def test_petersen_fast_matches_exact_gains():
    rep = greedy_cover(petersen(), 3, 6, mode=FAST)
    assert [c.actual_gain for c in rep.certificates] == [5, 4, 3, 2, 1, 0]
    assert [c.level for c in rep.certificates] == ["L0"] + ["L1"] * 5
    assert rep.certificates[0].membership_verified is None
    assert rep.certificates[0].tight_honored is None
    assert rep.fraction == 1 and rep.bound_met


def test_single_step_certificate():
    rep = greedy_cover(k4(), 3, 1, mode=FAST)
    c = rep.certificates[0]
    assert (c.level, c.predicted_gain, c.actual_gain) == ("L0", F(2), 2)
    assert rep.fraction == F(1, 3) == rep.bound
    assert rep.bound_met


def test_stalled_steps_on_saturated_graph():
    rep = greedy_cover(dipole(3), 3, 5, mode=FAST)
    got = [(c.level, c.predicted_gain, c.actual_gain, c.stalled)
           for c in rep.certificates]
    assert got == [
        ("L0", F(1), 1, False),
        ("L1", F(4, 5), 1, False),
        ("L1", F(3, 7), 1, False),
        ("L1", F(0), 0, True),
        ("L1", F(0), 0, True),
    ]
    assert tuple(m.edge_ids for m in rep.matchings) == ((0,), (1,), (2,), (0,), (0,))
    assert rep.fraction == 1


def test_rejects_non_r_graph():
    with pytest.raises(NotRGraphError) as exc:
        greedy_cover(bridge_pair(), 3, 2)
    assert exc.value.value == 1
    assert exc.value.witness == {5, 6, 7, 8, 9}


def test_rejects_odd_order():
    k5 = Multigraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
    with pytest.raises(NotRGraphError) as exc:
        greedy_cover(k5, 4, 2)
    assert exc.value.value == 0
    assert exc.value.witness == frozenset(range(5))


@pytest.mark.parametrize("mode", MODES)
def test_usage_vector_failing_a_local_condition_raises(monkeypatch, mode):
    # off coefficients break the vertex sums at step 2; never a quiet L0
    real = cover.w_k_coefficients

    def off(r, step):
        a, b, d = real(r, step)
        return a + (step > 1), b, d

    monkeypatch.setattr(cover, "w_k_coefficients", off)
    with pytest.raises(LemmaViolationError, match="step 2: usage vector fails"):
        greedy_cover(petersen(), 3, 3, mode=mode)


def test_rejects_irregular():
    with pytest.raises(NotRegularError):
        greedy_cover(k33(), 4, 2)


def test_argument_validation():
    with pytest.raises(ValueError, match="mode"):
        greedy_cover(k4(), 3, 2, mode="quick")
    with pytest.raises(ValueError, match="k must be"):
        greedy_cover(k4(), 3, 0)
    with pytest.raises(ValueError, match="at least 2"):
        greedy_cover(Multigraph(0, ()), 3, 1)


def test_exact_lemma_size_cap():
    # above SCAN_LIMIT only the audit stops: the picks need no exhaustive scan
    rep = greedy_cover(prism(11), 3, 2, mode=EXACT_LEMMA)  # n = 22
    assert rep.all_l1
    assert all(c.audit is None for c in rep.certificates)


@pytest.mark.parametrize("n", [40, 64, 100])
@pytest.mark.parametrize("r", [3, 4])
def test_exact_lemma_above_desk_scale_against_gusfield_trees(n, r):
    # every pick is checked by networkx's Gomory-Hu tree (Gusfield's), not
    # by the contraction decision the cover uses: with K = n+1, y = K*w*d - chi_M
    # has no odd cut below K*d - 1 iff M crosses every tight cut once
    g = random_regular(n, r, 0)
    rep = greedy_cover(g, r, 8, mode=EXACT_LEMMA)
    assert rep.all_l1
    state = CoverState.initial(g)
    for step, m in enumerate(rep.matchings, 1):
        w = w_k(r, step, state.counts)
        assert verify_membership(g, w).ok
        a, b, d = w_k_coefficients(r, step)
        y = [(g.n + 1) * (a - b * c) for c in state.counts]
        for e in m.edge_ids:
            y[e] -= 1
        assert min_odd_cut_networkx(g, y).value >= (g.n + 1) * d - 1
        state = state.extend(m)


# exact-lemma's step 1 decides at lam = 1/((n+1)d) = 1/33 on Petersen
@pytest.mark.parametrize("sides,match", [
    ([{0, 1, 2}], "step 1: usage vector gives a side whose step is not below 1/33"),
    ([set()], "step 1: usage vector left the polytope"),  # lighter than the unit
    ([{1}, {1}], "step 1: usage vector left the polytope"),  # a tight cut penalised already
], ids=["non-tight", "lighter", "repeated"])
def test_exact_lemma_rejects_a_bad_cutting_plane(monkeypatch, sides, match):
    # the r-graph check goes through is_r_graph; from exact-lemma's first
    # decision on, the decision names these sides in turn
    calls = []

    def fake(g, nums, bound):
        calls.append(bound)
        return frozenset(sides[len(calls) - 1])

    g = petersen()
    assert len(g.boundary({0, 1, 2})) != 3  # not tight under w_1 = 1/3
    monkeypatch.setattr(fractional, "_odd_cuts_at_least", fake)  # the pick's decisions
    with pytest.raises(LemmaViolationError, match=match):
        greedy_cover(g, 3, 2, mode=EXACT_LEMMA)
    assert len(calls) == len(sides)


@pytest.mark.parametrize("case", corpus(), ids=CORPUS_IDS)
def test_exact_lemma_picks_the_enumerated_selection(case):
    _, g, r = case
    rep = greedy_cover(g, r, 8, mode=EXACT_LEMMA)
    state = CoverState.initial(g)
    for step, m in enumerate(rep.matchings, 1):
        w = w_k(r, step, state.counts)
        assert m == exact_lemma_pick_enumerated(g, w, state.covered), step
        state = state.extend(m)


def test_cover_never_enumerates_perfect_matchings(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("greedy_cover enumerated perfect matchings")

    for mod in (matching, cover, fractional, exact):
        monkeypatch.setattr(mod, "enumerate_perfect_matchings", refuse, raising=False)
    for mode in MODES:
        assert greedy_cover(petersen(), 3, 6, mode=mode).fraction == 1
        greedy_cover(random_regular(16, 4, 3), 4, 6, mode=mode)


def test_fast_mode_skips_audit_beyond_cap():
    g = prism(11)
    rep = greedy_cover(g, 3, 2, mode=FAST)
    assert all(c.audit is None for c in rep.certificates)
    assert rep.certificates[1].level == "L1"  # membership still verified by the flow decision
    assert rep.bound_met


def test_deterministic():
    a = greedy_cover(petersen(), 3, 4, mode=EXACT_LEMMA)
    b = greedy_cover(petersen(), 3, 4, mode=EXACT_LEMMA)
    assert a == b


def test_runs_share_prefixes():
    short = greedy_cover(petersen(), 3, 3, mode=EXACT_LEMMA)
    long = greedy_cover(petersen(), 3, 6, mode=EXACT_LEMMA)
    assert long.matchings[:3] == short.matchings
    assert long.certificates[:3] == short.certificates[:3]


# sha256 of repr(tuple of edge_ids of the k = 8 fast-mode matchings),
# recorded with the lexicographic-fixing matching route
FAST_COVER_PINS = {
    (64, 3, 0): "acec5ae32c6386930712fde296a94404c7f9c0b1513e7041cb243f364ced0787",
    (64, 3, 1): "2e411e2b898ad91282ac75c4c4ebeebc6bea7f804646b40fb1ade23a3e0e5999",
    (48, 4, 0): "9fe6cccef252a6de094ff8b2be1e99efb783fb2d05352ce850b6ce85b07b2ab0",
    (48, 4, 1): "47c005e2e498c7504e029d98e6dbca62683e15b0f9682501f653cede1869c28d",
}


@pytest.mark.parametrize("n,r,seed", sorted(FAST_COVER_PINS))
def test_fast_cover_matchings_pinned_at_scale(n, r, seed):
    rep = greedy_cover(random_regular(n, r, seed), r, 8, mode=FAST)
    ids = tuple(m.edge_ids for m in rep.matchings)
    assert hashlib.sha256(repr(ids).encode()).hexdigest() == FAST_COVER_PINS[(n, r, seed)]


# the same digest at n = 200, recorded with networkx's blossom before the
# library's own blossom replaced it
FAST_COVER_PINS_200 = {
    (200, 3, 0): "f4c57100d95fe8b427c86d85cf52318e299ec140e8c219b8401c94a47e130a13",
    (200, 4, 0): "d457797dd7d39681d9208639f2c803d5bb40cb5174bb7a55abba95a2a0fa743d",
}


@pytest.mark.parametrize("n,r,seed", sorted(FAST_COVER_PINS_200))
def test_fast_cover_matchings_pinned_at_200(n, r, seed):
    rep = greedy_cover(random_regular(n, r, seed), r, 8, mode=FAST)
    ids = tuple(m.edge_ids for m in rep.matchings)
    assert hashlib.sha256(repr(ids).encode()).hexdigest() == FAST_COVER_PINS_200[(n, r, seed)]


# sha256 of repr(per step: level, membership_verified, actual_gain, stalled,
# and the value and sorted witness of min_odd_cut on that step's w_k) for
# the k = 8 fast covers, recorded with the networkx Gomory-Hu route
FAST_COVER_CERT_PINS = {
    (100, 3, 0): "194bdcb1dd727eee9ebb5b69d46ebb10195055a14d4a4ee56c7a3a8561823980",
    (100, 3, 1): "336b52b64e39d176f39224a75f629fc71e128d4df5d6945c2722f5e811dc179d",
    (80, 4, 0): "d9ddedee11e17c657447df457610584b0665aea1bd477013c2395bcc8c52c4f3",
    (80, 4, 1): "0807411853743e7fedd052bac1510c031e46d1f329b9a5e3ea2c9b8814a74d29",
}


@pytest.mark.parametrize("n,r,seed", sorted(FAST_COVER_CERT_PINS))
def test_fast_cover_certificates_pinned_at_scale(n, r, seed):
    g = random_regular(n, r, seed)
    rep = greedy_cover(g, r, 8, mode=FAST)
    state = CoverState.initial(g)
    rows = []
    for step, (c, m) in enumerate(zip(rep.certificates, rep.matchings), 1):
        w = w_k(r, step, state.counts)
        cut = min_odd_cut(g, w.values)
        rows.append((c.level, c.membership_verified, c.actual_gain, c.stalled,
                     str(cut.value), tuple(sorted(cut.witness))))
        state = state.extend(m)
    digest = hashlib.sha256(repr(tuple(rows)).encode()).hexdigest()
    assert digest == FAST_COVER_CERT_PINS[(n, r, seed)]


def test_audit_detects_clause_violation():
    # the rung matching of the triangular prism crosses the triangle cut
    # three times, breaking the "r-cuts cross exactly k" clause
    g = prism(3)
    state = CoverState.initial(g).extend(Matching((6, 7, 8)))
    fams = audit_cut_invariants(state, 3)
    assert not audits_pass(fams)
    three = fams[0]
    assert (three.cardinality, three.clause, three.num_cuts) == (3, "= 1", 7)
    assert three.status == "violated"
    assert three.worst == 3
    assert three.witness == {3, 4, 5}
    four, five = fams[1], fams[2]
    assert (four.status, four.num_cuts) == ("not-checked", 0)
    assert (five.status, five.num_cuts, five.worst) == ("satisfied", 6, 1)


def test_audit_accepts_sound_step():
    g = prism(3)
    state = CoverState.initial(g).extend(Matching((0, 3, 8)))
    assert audits_pass(audit_cut_invariants(state, 3))


def test_audit_even_r_families():
    rep = greedy_cover(dipole(4), 4, 1, mode=FAST)
    fams = rep.certificates[0].audit
    assert [(f.cardinality, f.status) for f in fams] == [
        (4, "not-checked"), (5, "vacuous"), (6, "not-checked"),
    ]
    assert fams[0].worst == 1
    assert fams[1].clause == "<= (4-1)*k+2 = 5"
    assert audits_pass(fams)


def test_audit_size_and_parity_guards():
    with pytest.raises(CapExceededError):
        audit_cut_invariants(CoverState.initial(prism(11)), 3)
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError, match="even vertex count"):
        audit_cut_invariants(CoverState.initial(g), 2)


def test_audits_pass_requires_families():
    assert not audits_pass(None)


def test_cover_state_extend():
    g = k4()
    s0 = CoverState.initial(g)
    assert s0.counts == (0,) * 6 and s0.covered == frozenset()
    s1 = s0.extend(Matching((0, 5)))
    assert s1.counts == (1, 0, 0, 0, 0, 1)
    assert s1.covered == {0, 5}
    s2 = s1.extend(Matching((0, 5)))
    assert s2.counts == (2, 0, 0, 0, 0, 2)
    assert s2.covered == {0, 5}


# sha256 of repr(per step: matching edge ids, every certificate field, and
# every audit family with its sorted witness) for the k = 6 covers of
# random_regular(n, r, 0), recorded with a full odd-cut scan per audit and
# per tight-cut enumeration
DESK_COVER_PINS = {
    (FAST, 16, 3): "3b1b46f133968c79b90b14f67df8882631349e6706bb74866885b41dadc3ae2a",
    (FAST, 16, 4): "f9643633cc935e1d0ffba5422c6eccc9db42cb41ddb591a83190a042f0bc53f3",
    (FAST, 18, 3): "1bf0c170311a35737fb186c0a6667687b275319cb31245c25a1e2d071ecaac66",
    (FAST, 18, 4): "74aa0a59f55bc772b4bce5a5b04bd04e0ab6aba15e7284466aaf98e17383ba91",
    (FAST, 20, 3): "834ad102f249e815d381ae218812e8413dcd12aec4175aee4a5c6fe87a686bc6",
    (FAST, 20, 4): "855d16fc0b98089950432f2c49ad53ab8a4f76c9006cdef84101a7563898ff00",
    (EXACT_LEMMA, 16, 3): "eabe3da1efd354f1deee040c1ff229b41fa4fa4fa2df9638e42c01df8bc3bb40",
    (EXACT_LEMMA, 16, 4): "2f05b09cafe59a7a62239a70ea63e5f8f9d851fd952146c43bdd77fea3c9c539",
    (EXACT_LEMMA, 18, 3): "ee19f81fb99f0897630f271a63cb965f3df4e87dc2943376d2ab0fd76a5d3c80",
    (EXACT_LEMMA, 18, 4): "5a9ad2a9f7dd831901d5dfabf5ae89049422e58cfffd541dc4b6f3e1e25de70e",
    (EXACT_LEMMA, 20, 3): "b6e369cbfabbeb1932dcc262baf9abc6020cd6f22304a37eb130d0800544990c",
    (EXACT_LEMMA, 20, 4): "45d32e9fba9ce78c4bcf3f776572d9b0cb0def62a6007e81f1842f42ac09131a",
}


@pytest.mark.parametrize("mode,n,r", sorted(DESK_COVER_PINS))
def test_desk_cover_certificates_and_audits_pinned(mode, n, r):
    rep = greedy_cover(random_regular(n, r, 0), r, 6, mode=mode)
    rows = []
    for c, m in zip(rep.certificates, rep.matchings):
        audit = tuple(
            (f.cardinality, f.clause, f.num_cuts, f.worst, f.status,
             None if f.witness is None else tuple(sorted(f.witness)))
            for f in c.audit
        )
        rows.append((m.edge_ids, c.step, c.level, c.membership_verified, c.tight_honored,
                     str(c.predicted_gain), c.actual_gain, c.covered_after, c.stalled, audit))
    digest = hashlib.sha256(repr(tuple(rows)).encode()).hexdigest()
    assert digest == DESK_COVER_PINS[(mode, n, r)]


def exact_lemma_pick(g, pms, tights, covered):
    """The exact-lemma selection, recomputed on edge-id sets: the first
    maximum-gain matching, in enumeration order, crossing every tight cut once."""
    cut_sets = [g.boundary(s) for s in tights]
    best, best_gain = None, -1
    for pm in pms:
        if all(len(cs.intersection(pm.edge_ids)) == 1 for cs in cut_sets):
            gain = sum(1 for e in pm.edge_ids if e not in covered)
            if gain > best_gain:
                best, best_gain = pm, gain
    return best


@st.composite
def desk_cover_cases(draw):
    r = draw(st.integers(3, 6))
    n = 2 * draw(st.integers(1, 9))  # n = 20 is pinned above
    return random_regular(n, r, draw(st.integers(0, 10**6))), r, draw(st.integers(1, 6))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(desk_cover_cases())
@example((dipole(5), 5, 4))
@example((random_regular(12, 4, 1), 4, 5))  # tight cuts decide picks here
@example((random_regular(18, 6, 3), 6, 3))
def test_run_tables_match_full_scans_on_every_step(case):
    # every audit of a cover equals the from-scratch audit of its state,
    # and in exact-lemma mode every pick honors the from-scratch tight cuts
    g, r, k = case
    pms = enumerate_perfect_matchings(g)
    for mode in MODES:
        rep = greedy_cover(g, r, k, mode=mode)
        state = CoverState.initial(g)
        for step, (c, m) in enumerate(zip(rep.certificates, rep.matchings), 1):
            if mode == EXACT_LEMMA:
                w = w_k(r, step, state.counts)
                tights = tight_odd_cuts(g, w.values)
                assert m == exact_lemma_pick(g, pms, tights, state.covered)
            state = state.extend(m)
            assert c.audit == audit_cut_invariants(state, r)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(desk_cover_cases(), st.randoms(use_true_random=False))
@example((prism(3), 3, 2), random.Random(0))
def test_run_tables_match_full_scans_on_any_matchings(case, rnd):
    # arbitrary perfect matchings, so audits also fail and name witnesses,
    # and w_j may leave the polytope
    g, r, k = case
    pms = enumerate_perfect_matchings(g)
    codes, sizes, cross = odd_cut_crossings(g, range(r, r + 3))
    state = CoverState.initial(g)
    for step in range(1, k + 1):
        w = w_k(r, step, state.counts)
        m = rnd.choice(pms)
        # the exact-lemma check on y = K*nums - chi_M against the oracles
        a, b, d = w_k_coefficients(r, step)
        y = [(g.n + 1) * (a - b * c) for c in state.counts]
        for e in m.edge_ids:
            y[e] -= 1
        side = oddcuts._odd_cuts_at_least(g, y, (g.n + 1) * d - 1)
        tights = {g.boundary(s) for s in tight_odd_cuts(g, w.values)}
        member = verify_membership(g, w).ok
        on = frozenset(m.edge_ids)
        assert (side is None) == (member and all(len(c & on) == 1 for c in tights))
        if side is not None and member:
            assert g.boundary(side) in tights and len(g.boundary(side) & on) >= 3
        elif side is not None:  # a side below 1, or a tight one M crosses thrice
            cut = g.boundary(side)
            weight = sum(w.values[e] for e in cut)
            assert weight < 1 or (weight == 1 and len(cut & on) >= 3)
        state = state.extend(m)
        audit = _audit_families(r, step, codes, sizes, cross @ state.counts)
        assert audit == audit_cut_invariants(state, r)


@pytest.mark.parametrize("n,r,seed,failing", [(200, 3, 1, 0), (100, 3, 1, 1), (40, 3, 3, 7)])
def test_covers_of_r_graphs_build_no_odd_cut_trees(monkeypatch, n, r, seed, failing):
    # the r-graph check is one decision at the star value r, so no bisection
    # runs; membership is one decision per later step, failing steps included
    checks, steps = [], []

    def counted(calls, real):
        def decide(g, nums, bound):
            calls.append(bound)
            return real(g, nums, bound)
        return decide

    monkeypatch.setattr(oddcuts, "_odd_cuts_at_least", counted(checks, oddcuts._odd_cuts_at_least))
    monkeypatch.setattr(cover, "_odd_cuts_at_least", counted(steps, cover._odd_cuts_at_least))
    monkeypatch.setattr(fractional, "_odd_cuts_at_least",
                        counted(steps, fractional._odd_cuts_at_least))
    k = 8
    rep = greedy_cover(random_regular(n, r, seed), r, k, mode=FAST)
    assert sum(c.membership_verified is False for c in rep.certificates) == failing
    assert checks == [r] and len(steps) == k - 1
    checks.clear()
    steps.clear()
    assert greedy_cover(random_regular(20, r, seed), r, k, mode=EXACT_LEMMA).all_l1
    assert checks == [r] and len(steps) >= k  # a pick decision per cutting-plane round


# fast covers whose usage vectors leave the polytope at some step
@pytest.mark.parametrize("n,r,seed", [
    (12, 3, 0), (16, 3, 3), (20, 3, 1), (10, 4, 3), (12, 4, 1), (20, 4, 0),
    (14, 5, 0), (18, 5, 3),
])
def test_membership_from_the_cut_table_matches_verify_membership(n, r, seed):
    g = random_regular(n, r, seed)
    k = 6
    rep = greedy_cover(g, r, k, mode=FAST)
    state = CoverState.initial(g)
    outcomes = []
    for step, m in enumerate(rep.matchings, 1):
        w = w_k(r, step, state.counts)
        # the integer vector the cover builds is w_j; the decision settles (iii)
        a, b, d = w_k_coefficients(r, step)
        nums = [a - b * c for c in state.counts]
        assert [F(x, d) for x in nums] == list(w.values)
        assert _local_failure(g, nums, d) is None
        ok = oddcuts._odd_cuts_at_least(g, nums, d) is None
        assert ok == verify_membership(g, w).ok
        assert rep.certificates[step - 1].membership_verified is (ok if step > 1 else None)
        outcomes.append(ok)
        # condition (ii) is the local check's: the decision alone cannot see it
        assert _local_failure(g, [0] + nums[1:], d).condition == "vertex_sum"
        assert not verify_membership(g, FractionalOneFactor((F(0),) + w.values[1:])).ok
        state = state.extend(m)
    assert outcomes[0] is True
    if (n, r) != (20, 4):
        assert False in outcomes
