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
    Matching,
    NotRegularError,
    NotRGraphError,
    audit_cut_invariants,
    audits_pass,
    bridge_pair,
    build_w_k,
    dipole,
    greedy_cover,
    k4,
    k33,
    petersen,
    prism,
    random_regular,
    uniform,
)
from matchcover.cover import EXACT_LEMMA, FAST, MODES, _audit_families, _tight_coefficients
from matchcover.matching import enumerate_perfect_matchings
from matchcover.multigraph import Multigraph
from matchcover.oddcuts import _OddCutTables, min_odd_cut, tight_odd_cuts

from helpers import PETERSEN_PMS

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
    g = prism(11)  # n = 22
    with pytest.raises(CapExceededError):
        greedy_cover(g, 3, 2, mode=EXACT_LEMMA)


def test_exact_lemma_pm_cap():
    with pytest.raises(CapExceededError):
        greedy_cover(petersen(), 3, 2, mode=EXACT_LEMMA, pm_cap=3)


def test_fast_mode_skips_audit_beyond_cap():
    g = prism(11)
    rep = greedy_cover(g, 3, 2, mode=FAST)
    assert all(c.audit is None for c in rep.certificates)
    assert rep.certificates[1].level == "L1"  # membership still verified by tree cuts
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
        w = uniform(g, r) if step == 1 else build_w_k(g, r, step, state.counts)
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
        if all(pm.crossings(cs) == 1 for cs in cut_sets):
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
                w = uniform(g, r) if step == 1 else build_w_k(g, r, step, state.counts)
                tights = tight_odd_cuts(g, w.values)
                assert m == exact_lemma_pick(g, pms, tights, state.covered)
            state = state.extend(m)
            assert c.audit == audit_cut_invariants(state, r)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(desk_cover_cases(), st.randoms(use_true_random=False))
@example((prism(3), 3, 2), random.Random(0))
def test_run_tables_match_full_scans_on_any_matchings(case, rnd):
    # arbitrary perfect matchings, so audits also fail and name witnesses
    g, r, k = case
    pms = enumerate_perfect_matchings(g)
    cuts = _OddCutTables(g, range(r, r + 3), k * g.n // 2, full=True)
    state = CoverState.initial(g)
    for step in range(1, k + 1):
        w = uniform(g, r) if step == 1 else build_w_k(g, r, step, state.counts)
        assert cuts.tight(*_tight_coefficients(r, step)) == tight_odd_cuts(g, w.values)
        m = rnd.choice(pms)
        state = state.extend(m)
        cuts.add(m.edge_ids)
        audit = _audit_families(r, step, cuts.fam_codes, cuts.fam_sizes, cuts.fam_sums)
        assert audit == audit_cut_invariants(state, r)
