"""Fractional 1-factor machinery: membership, usage weights, decompositions."""

import hashlib
import random
from fractions import Fraction

import pytest

import matchcover
from matchcover import (
    FractionalOneFactor,
    LemmaViolationError,
    Matching,
    MembershipFailure,
    NotRegularError,
    bridge_pair,
    decompose,
    dipole,
    enumerate_perfect_matchings,
    k4,
    k33,
    max_weight_perfect_matching,
    multicoloring,
    petersen,
    prism,
    random_regular,
    uniform,
    verify_membership,
    w_k_entry,
)
from matchcover import fractional, lpfeas, matching, oddcuts
from matchcover.lpfeas import solve_nonneg
from matchcover.multigraph import Multigraph
from matchcover.oddcuts import min_odd_cut

from helpers import (
    PETERSEN_PMS,
    corpus,
    decompose_pick_then_step,
    fast_cover_step_vectors,
    is_perfect_matching,
    min_odd_cut_brute,
    reconstruction,
    w_k,
)

F = Fraction


def test_vector_validation():
    v = FractionalOneFactor((F(1, 2), 1, 0))
    assert v[0] == F(1, 2)
    assert len(v) == 3
    with pytest.raises(ValueError, match="outside"):
        FractionalOneFactor((F(3, 2),))
    with pytest.raises(ValueError, match="outside"):
        FractionalOneFactor((F(-1, 2),))


def test_uniform():
    w = uniform(petersen(), 3)
    assert set(w.values) == {F(1, 3)}
    with pytest.raises(NotRegularError):
        uniform(petersen(), 4)
    with pytest.raises(ValueError):
        uniform(petersen(), 0)


def test_entry_frozen_spots():
    assert w_k_entry(3, 2, 0) == F(2, 5)
    assert w_k_entry(3, 2, 1) == F(1, 5)
    assert w_k_entry(4, 2, 1) == F(1, 5)
    assert w_k_entry(3, 6, 0) == F(6, 13)
    # with no history the weight is the uniform one, for both parities
    for r in (3, 4, 5, 6):
        assert w_k_entry(r, 1, 0) == F(1, r)


def test_entry_strictly_decreasing_in_count():
    for r in (3, 4, 5, 6):
        for k in (2, 5, 9):
            vals = [w_k_entry(r, k, c) for c in range(k)]
            assert all(a > b for a, b in zip(vals, vals[1:]))


def test_entry_range():
    for r in (3, 4, 5, 6):
        for k in range(1, 11):
            for c in range(k):
                assert 0 < w_k_entry(r, k, c) < 1


def test_entry_floor_is_sharp():
    """The smallest entry is at count k-1; its exact floor depends on parity.

    For r = 3 that minimum is exactly 1/(2k+1), which crosses below 1/7
    from k = 3 on; the wider constant floors only hold for r >= 4.
    """
    for k in range(2, 11):
        assert w_k_entry(3, k, k - 1) == F(1, 2 * k + 1)
        for r in (4, 6):
            assert w_k_entry(r, k, k - 1) > F(1, r + 3)
        assert w_k_entry(5, k, k - 1) > F(1, 9)
    assert w_k_entry(3, 3, 2) == F(1, 7)
    assert w_k_entry(3, 4, 3) < F(1, 7)


def test_entry_star_sums_to_one():
    # r entries whose counts split k-1 arbitrarily always sum to exactly 1
    rng = random.Random(5150)
    for r in (3, 4, 5, 6):
        for k in (2, 4, 7, 10):
            for _ in range(20):
                cuts = sorted(rng.randint(0, k - 1) for _ in range(r - 1))
                counts = [b - a for a, b in zip([0] + cuts, cuts + [k - 1])]
                assert sum(counts) == k - 1
                assert sum(w_k_entry(r, k, c) for c in counts) == 1


def test_entry_validation():
    with pytest.raises(ValueError):
        w_k_entry(2, 2, 0)
    with pytest.raises(ValueError):
        w_k_entry(3, 0, 0)
    with pytest.raises(ValueError):
        w_k_entry(3, 2, 2)
    with pytest.raises(ValueError):
        w_k_entry(3, 2, -1)


def test_w_k_from_one_matching():
    g = petersen()
    counts = [0] * 15
    for e in PETERSEN_PMS[0]:
        counts[e] = 1
    w = w_k(3, 2, counts)
    assert set(w.values) == {F(1, 5), F(2, 5)}
    assert all(w[e] == F(1, 5) for e in PETERSEN_PMS[0])
    assert verify_membership(g, w).ok


def test_membership_positive():
    rep = verify_membership(petersen(), uniform(petersen(), 3))
    assert rep.ok and rep.condition is None
    assert rep.min_cut.value == 1  # the vertex stars are tight


def test_membership_vertex_sum_failure():
    w = [F(1, 3)] * 15
    w[0] = F(1, 2)
    rep = verify_membership(petersen(), FractionalOneFactor(tuple(w)))
    assert not rep.ok
    assert rep.condition == "vertex_sum"
    assert rep.witness == 0


def test_membership_odd_cut_failure():
    g = bridge_pair()
    rep = verify_membership(g, uniform(g, 3))
    assert not rep.ok
    assert rep.condition == "odd_cut"
    assert rep.witness.value == F(1, 3)
    assert rep.witness.witness == {5, 6, 7, 8, 9}


def test_membership_odd_vertex_count():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    rep = verify_membership(g, FractionalOneFactor((F(1, 2),) * 3))
    assert not rep.ok
    assert rep.condition == "odd_cut"
    assert rep.witness.witness == {0, 1, 2}


def test_membership_report_contract():
    # a member reports the exhaustive minimum; a failure reports min_odd_cut
    vectors = [(g, uniform(g, r)) for _, g, r in corpus()]
    for g, r, k in [(petersen(), 3, 5), (random_regular(16, 3, 3), 3, 6),
                    (random_regular(20, 4, 0), 4, 6), (random_regular(18, 5, 3), 5, 6)]:
        vectors += [(g, w) for w in fast_cover_step_vectors(g, r, k)]
    seen = set()
    for g, w in vectors:
        rep = verify_membership(g, w)
        seen.add(rep.ok)
        if rep.ok:
            assert rep.min_cut == min_odd_cut_brute(g, w.values)
        else:
            assert rep.condition == "odd_cut"
            assert rep.witness == rep.min_cut == min_odd_cut(g, w.values)
            assert rep.min_cut.value < 1
    assert seen == {True, False}


def test_membership_length_mismatch():
    with pytest.raises(ValueError, match="expected 15 weights, got 1"):
        verify_membership(petersen(), FractionalOneFactor((F(1, 3),)))


def test_decompose_length_mismatch():
    with pytest.raises(ValueError, match="expected 15 weights, got 1"):
        decompose(petersen(), FractionalOneFactor((F(1, 3),)))


def test_membership_of_the_empty_graph():
    rep = verify_membership(Multigraph(0, ()), FractionalOneFactor(()))
    assert rep.ok and rep.min_cut is None


def test_decompose_petersen_uniform():
    g = petersen()
    dec = decompose(g, uniform(g, 3))
    assert [(m.edge_ids, c) for m, c in dec.terms] == [
        (ids, F(1, 6)) for ids in PETERSEN_PMS
    ]
    assert dec.coefficients_sum() == 1
    assert reconstruction(g, dec) == uniform(g, 3).values


def test_decompose_properties_and_determinism():
    g = k33()
    w = uniform(g, 3)
    dec1 = decompose(g, w)
    dec2 = decompose(g, w)
    assert dec1 == dec2
    assert dec1.coefficients_sum() == 1
    assert all(c > 0 for _, c in dec1.terms)
    assert reconstruction(g, dec1) == w.values


def test_decompose_matching_indicator_is_a_single_term():
    g = petersen()
    ind = [F(0)] * 15
    for e in PETERSEN_PMS[0]:
        ind[e] = F(1)
    dec = decompose(g, FractionalOneFactor(tuple(ind)))
    assert len(dec.terms) == 1
    m, c = dec.terms[0]
    assert (m.edge_ids, c) == (PETERSEN_PMS[0], 1)


def test_decompose_rejects_non_members():
    g = bridge_pair()
    with pytest.raises(MembershipFailure) as exc:
        decompose(g, uniform(g, 3))
    assert exc.value.report.condition == "odd_cut"


def _peel_cases():
    """(id, graph, vector): the uniform vector of every corpus graph and of
    random_regular(n, r, s) for r = 3..6, even n <= 14, s = 0..2 (n = 2 is
    a dipole), and every later step vector of a k = 5 fast corpus cover,
    members and non-members alike."""
    cases = [(name, g, uniform(g, r)) for name, g, r in corpus()]
    for r in range(3, 7):
        for n in range(2, 15, 2):
            for s in range(3):
                g = random_regular(n, r, s)
                cases.append((f"rr{n}_{r}_{s}", g, uniform(g, r)))
    for name, g, r in corpus():
        steps = list(fast_cover_step_vectors(g, r, 5))[1:]
        cases += [(f"{name}_w{j}", g, w) for j, w in enumerate(steps, 2)]
    return cases


PEEL_CASES = _peel_cases()


@pytest.mark.parametrize("case", PEEL_CASES, ids=[c[0] for c in PEEL_CASES])
def test_peeled_decomposition_against_the_simplex(case):
    # the oracle: the exact simplex over every perfect matching in the support
    _, g, w = case
    support = {e for e, v in enumerate(w.values) if v}
    cands = [m for m in enumerate_perfect_matchings(g) if support.issuperset(m.edge_ids)]
    rows = [[int(e in m.edge_ids) for m in cands] for e in range(g.m)] + [[1] * len(cands)]
    feasible = solve_nonneg(rows, [*w.values, F(1)]) is not None
    assert verify_membership(g, w).ok == feasible
    if not feasible:
        with pytest.raises(MembershipFailure):
            decompose(g, w)
        return
    dec = decompose(g, w)
    assert reconstruction(g, dec) == w.values and dec.coefficients_sum() == 1
    assert all(c > 0 for _, c in dec.terms)
    ids = [m.edge_ids for m, _ in dec.terms]
    assert ids == sorted(set(ids))  # distinct, in edge-id order
    assert all(is_perfect_matching(g, m) for m, _ in dec.terms)
    assert len(dec.terms) <= g.m + 1


def test_peeled_cases_include_non_uniform_members():
    kinds = {(verify_membership(g, w).ok, len(set(w.values)) > 1) for _, g, w in PEEL_CASES}
    assert kinds == {(True, False), (True, True), (False, True)}


PEEL_MEMBERS = [c for c in PEEL_CASES if verify_membership(c[1], c[2]).ok]


def _counted_decisions(monkeypatch) -> list[bool]:
    """Route the peel's flow decisions through a recorder of pass/fail."""
    outcomes, real = [], fractional._odd_cuts_at_least

    def decide(g, nums, bound):
        side = real(g, nums, bound)
        outcomes.append(side is None)
        return side

    monkeypatch.setattr(fractional, "_odd_cuts_at_least", decide)
    return outcomes


@pytest.mark.parametrize("case", PEEL_MEMBERS, ids=[c[0] for c in PEEL_MEMBERS])
def test_peeling_matches_the_pick_then_step_oracle(case):
    _, g, w = case
    assert decompose(g, w).terms == decompose_pick_then_step(g, w)


@pytest.mark.parametrize("case", PEEL_MEMBERS, ids=[c[0] for c in PEEL_MEMBERS])
def test_one_passing_decision_per_peel(monkeypatch, case):
    # every term but the last, w = chi_M, ends on one passing decision
    _, g, w = case
    outcomes = _counted_decisions(monkeypatch)
    terms = decompose(g, w).terms
    assert sum(outcomes) == len(terms) - 1


def test_peeling_decides_less_than_pick_then_step(monkeypatch):
    g = random_regular(50, 3, 0)
    w = uniform(g, 3)
    outcomes = _counted_decisions(monkeypatch)
    terms = decompose(g, w).terms
    ours = len(outcomes)
    outcomes.clear()
    assert decompose_pick_then_step(g, w) == terms
    assert ours < len(outcomes)


def test_peeling_keeps_its_cutting_planes(monkeypatch):
    # a side the decision returns is a cutting plane when M is picked again
    # right after it; a tight cut M crosses once stays tight after the peel,
    # so no plane is found twice in one decomposition
    events, decide, pick = [], fractional._odd_cuts_at_least, fractional.max_weight_perfect_matching

    def recorded(real, kind):
        def call(*args):
            out = real(*args)
            events.append((kind, out))
            return out
        return call

    monkeypatch.setattr(fractional, "_odd_cuts_at_least", recorded(decide, "side"))
    monkeypatch.setattr(fractional, "max_weight_perfect_matching", recorded(pick, "pick"))
    g = random_regular(200, 3, 0)
    w = uniform(g, 3)
    terms = decompose(g, w).terms
    planes = [side for (kind, side), (after, _) in zip(events, events[1:])
              if kind == "side" and side is not None and after == "pick"]
    assert planes and len(set(planes)) == len(planes)
    assert sum(kind == "side" for kind, _ in events) == 22
    monkeypatch.undo()
    assert decompose_pick_then_step(g, w) == terms


# the Petersen graph's first pick is PETERSEN_PMS[0], at lam = 1/3; its
# five edges are the boundary of the 5-cycle {0, 3, 4, 5, 8}, which allows 1/6
@pytest.mark.parametrize("sides,match", [
    ([{0, 1, 2}], "gives a side whose step is not below 1/3"),  # crossed once
    ([{0, 2, 4}], "gives a side whose step is not below 1/3"),  # allows 2/3
    ([{0, 3, 4, 5, 8}] * 2, "gives a side whose step is not below 1/6"),
    ([set()], "left the polytope"),  # lighter than the unit
    ([{1}, {1}], "left the polytope"),  # a tight cut penalised already
], ids=["one-crossing", "step-above", "step-repeated", "lighter", "tight-repeated"])
def test_decompose_rejects_a_bad_side(monkeypatch, sides, match):
    # membership goes through oddcuts; the peel's decisions name these sides
    calls = []

    def fake(g, nums, bound):
        calls.append(bound)
        return frozenset(sides[len(calls) - 1])

    g = petersen()
    assert max_weight_perfect_matching(g, [0] * g.m).edge_ids == PETERSEN_PMS[0]
    monkeypatch.setattr(fractional, "_odd_cuts_at_least", fake)
    with pytest.raises(LemmaViolationError, match=f"decompose: the peeled vector {match}"):
        decompose(g, uniform(g, 3))
    assert len(calls) == len(sides)


def test_decompose_rejects_a_zero_step(monkeypatch):
    # a pick off the support would peel nothing, forever
    g = petersen()
    w = FractionalOneFactor(tuple(F(e in PETERSEN_PMS[0]) for e in range(g.m)))
    monkeypatch.setattr(fractional, "max_weight_perfect_matching",
                        lambda g, gains: Matching(PETERSEN_PMS[1]))
    with pytest.raises(LemmaViolationError, match="decompose: the peeled vector gives a zero step"):
        decompose(g, w)


def _out_of_range_vector() -> FractionalOneFactor:
    # FractionalOneFactor refuses entries above 1; only a corrupted one has them
    w = uniform(petersen(), 3)
    object.__setattr__(w, "values", (F(4, 3),) + w.values[1:])
    return w


TRIANGLE = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
TWO_TRIANGLES = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
# (id, graph, vector, r of the uniform vector or None, failed condition)
NON_MEMBERS = [
    ("one_cut", bridge_pair(), uniform(bridge_pair(), 3), 3, "odd_cut"),  # has PMs
    ("two_triangles", TWO_TRIANGLES, uniform(TWO_TRIANGLES, 2), 2, "odd_cut"),  # no PM
    ("odd_n", TRIANGLE, uniform(TRIANGLE, 2), 2, "odd_cut"),
    ("edge_range", petersen(), _out_of_range_vector(), None, "edge_range"),
    ("vertex_sum", petersen(), FractionalOneFactor((F(1, 2),) + (F(1, 3),) * 14), None,
     "vertex_sum"),
]


@pytest.mark.parametrize("name,g,w,r,condition", NON_MEMBERS, ids=[c[0] for c in NON_MEMBERS])
def test_non_members_fail_with_the_membership_report(name, g, w, r, condition):
    # the first peel proves membership; a non-member is reported exactly as
    # verify_membership reports it.  multicoloring builds the uniform vector
    # of a regular graph, so it meets only the (iii) failures
    rep = verify_membership(g, w)
    assert not rep.ok and rep.condition == condition
    with pytest.raises(MembershipFailure, match=f"condition {rep.condition}") as exc:
        decompose(g, w)
    assert exc.value.report == rep
    if r is not None:
        with pytest.raises(MembershipFailure) as exc:
            multicoloring(g, r)
        assert exc.value.report == rep


@pytest.mark.parametrize("case", PEEL_MEMBERS, ids=[c[0] for c in PEEL_MEMBERS])
def test_decompose_makes_no_decision_outside_its_peels(monkeypatch, case):
    # one shared record of every odd-cut decision, through oddcuts (where
    # verify_membership and min_odd_cut decide) and through the peel
    _, g, w = case
    calls = []

    def counted(origin):
        real = oddcuts._odd_cuts_at_least

        def decide(g, nums, bound):
            calls.append(origin)
            return real(g, nums, bound)
        return decide

    monkeypatch.setattr(fractional, "_odd_cuts_at_least", counted("peel"))
    monkeypatch.setattr(oddcuts, "_odd_cuts_at_least", counted("oddcuts"))
    terms = decompose(g, w).terms
    assert len(calls) == calls.count("peel") >= len(terms) - 1


def test_decompose_checks_its_reconstruction(monkeypatch):
    # a first step one unit too large still yields coefficients summing to 1,
    # but not w: the integer check over one denominator must refuse it
    real, calls = fractional._peel, []

    def wrong_first_step(*args):
        chosen, p, q, y = real(*args)
        calls.append((p, q))
        return (chosen, p + 1, q, y) if len(calls) == 1 else (chosen, p, q, y)

    g = petersen()
    monkeypatch.setattr(fractional, "_peel", wrong_first_step)
    with pytest.raises(AssertionError, match="decomposition failed exact reconstruction"):
        decompose(g, uniform(g, 3))
    assert len(calls) > 1  # the peel went on past the wrong step


def test_multicoloring_checks_its_p_fold_identity(monkeypatch):
    # a decomposition one term short: the multiplicities still come out
    # whole, but they cover neither r*p matchings nor every edge p times
    real = fractional.decompose

    def drop_a_term(g, w):
        return fractional.ConvexDecomposition(real(g, w).terms[:-1])

    monkeypatch.setattr(fractional, "decompose", drop_a_term)
    with pytest.raises(AssertionError, match="multicover misses the exact p-fold identity"):
        multicoloring(petersen(), 3)


def test_decompose_and_multicoloring_neither_enumerate_nor_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("decompose enumerated perfect matchings or ran the simplex")

    for mod in (matchcover, matching, fractional, lpfeas):
        for name in ("enumerate_perfect_matchings", "solve_nonneg"):
            monkeypatch.setattr(mod, name, refuse, raising=False)
    assert len(decompose(petersen(), uniform(petersen(), 3)).terms) == 6
    assert multicoloring(petersen(), 3).p == 2
    g = random_regular(50, 3, 0)
    assert reconstruction(g, decompose(g, uniform(g, 3))) == uniform(g, 3).values
    assert multicoloring(g, 3).p >= 1


def test_empty_graph_decomposes_into_one_empty_term():
    g = Multigraph(0, ())
    dec = decompose(g, uniform(g, 3))
    assert [(m.edge_ids, c) for m, c in dec.terms] == [((), 1)]
    mc = multicoloring(g, 3)
    assert (mc.p, [m.edge_ids for m in mc.matchings]) == (1, [(), (), ()])


def test_multicoloring_petersen_needs_two_rounds():
    mc = multicoloring(petersen(), 3)
    assert mc.p == 2
    assert len(mc.matchings) == 6
    per_edge = [0] * 15
    for m in mc.matchings:
        for e in m.edge_ids:
            per_edge[e] += 1
    assert per_edge == [2] * 15


def test_multicoloring_proper_colorings():
    # these graphs split into r disjoint matchings, one round each
    for g, r in [(k4(), 3), (k33(), 3), (dipole(5), 5), (prism(4), 3)]:
        mc = multicoloring(g, r)
        assert mc.p == 1
        assert len(mc.matchings) == r
        seen = sorted(e for m in mc.matchings for e in m.edge_ids)
        assert seen == list(range(g.m))


# sha256 of repr(tuple of (edge_ids, str(coeff)) over the decompose(g,
# uniform(g, r)) terms) and of repr((p, tuple of edge_ids over the
# multicoloring(g, r) matchings)) for g = random_regular(n, r, seed): the
# decompose workload's classes at seeds 0 and 1, plus the two slowest
# baseline graphs; recorded with the peeling route
DECOMPOSITION_PINS = {
    (10, 3, 0): ("498267cde8e7ec698a3fd6305c8da0fe266699eb33ee972ea37a4786a5be11dd",
                 "81350acd726eb523b08d9104eb5b14e48edb6d772a25af58c4426744619d03fa"),
    (10, 3, 1): ("a62109e05249e24d6cfc0a454dbb88487665e6dfa7e06a5ef394671e39a65ab3",
                 "d76c971139610e0a9139295f4933ea670ab61318a32f446c667213e026eb4f6a"),
    (12, 3, 0): ("97b783afa90a7812c665639c08a07c5e9e71d3cb62dc996fdb62bc9599675dfe",
                 "8063efca425bfb9103ac7cd7c58cddd4e83f7e22443487cad23352e0d67f0172"),
    (12, 3, 1): ("2e7cad6181a205168dba310d1bae29eeefc61c41df454cb352aea42a2cf607e1",
                 "56fbacd2f1526400ace127f272662a16110bf097dbcabe8c414c779136d5f1dd"),
    (14, 3, 0): ("e14b725300c08cbaba0c74ba67ef97599b72d0848b4e2a319811525875269aec",
                 "6d50c740479e15d7bb88d0e26da30f5976e2e5788db6858a5d4a98f002c208b3"),
    (14, 3, 1): ("ccf335b4299c37dbca4c31c51a2ce2652662fa8ba72b8115430d33bc66332f62",
                 "486c9699e25f3f1b87656ea54423b73be632ae99a14316a9aa85f88b475dcf62"),
    (8, 4, 0): ("3f3a8ceb374e7cc4a77a290a9fc0b20618c55e74f29b72850166f419f6f6cb8d",
                "ee6b1227429a27192a85349149bd72eeb53f6ab272aafe2a7036a4b866207f6c"),
    (8, 4, 1): ("83013c094cbd53f07e3cd01e13ca8220f774fbfd65d5d1ebf07f676a0d2eaa04",
                "8a5b139bbd4761c4e06e6a08b5b69e8f5947f2b37a6a0d3622591e0215611685"),
    (6, 5, 0): ("e6b02db0b059af15e4e4df29652bca20f7fd322a0008cf4d4efc8298cbc5a9ed",
                "99408aab4109e53f8f309c02873768559efa8aa66123d9014d0cd43a8da9b6e1"),
    (6, 5, 1): ("69a3a87761f47a4ebda5da31f589d5492a2205d1aadac6625c0f0f74da66d6f7",
                "b21fe781355bd1e4970de52a15f66cecaefdbcb794bc700ee45e71aec8ad9423"),
    (6, 6, 0): ("5d0b633b584367ef3e257cd34ebb267a80240cb93d3270cebb170ac7ff49a813",
                "ae90cd3067685b9b326d3287faee7f5a29781a1b0adc6e47f09ad557af34e80a"),
    (6, 6, 1): ("b4df73751e02911ecfe040d5f79cf16df69fb7b5c6b11f3a13be85a2c8430858",
                "f1036e10a9efa28efacc7b173cdc808d4c05d6552fe44708bf8f217ca080a5af"),
    (14, 5, 0): ("f45a678856eedd2483d9ef09f76a7726484f33ba68f207178939708916b33106",
                 "68acd16c74cd42cc2e384a06ad79e3d17f361e682fd18ddf03e2dacf9e7c9e43"),
    (12, 6, 0): ("a0a62ad8f5a7e066a5ef722ce32826bb0807f63083ca4b6fd0e13c04944b87b9",
                 "4567cfcba1ab35d9f70ab0d08a35379244c2780ccfd72936c2dbbe2f51bfe6e2"),
}


@pytest.mark.parametrize("n,r,seed", sorted(DECOMPOSITION_PINS))
def test_decompositions_pinned_at_scale(n, r, seed):
    g = random_regular(n, r, seed)
    dec = decompose(g, uniform(g, r))
    terms = tuple((m.edge_ids, str(c)) for m, c in dec.terms)
    mc = multicoloring(g, r)
    colors = (mc.p, tuple(m.edge_ids for m in mc.matchings))
    digests = tuple(
        hashlib.sha256(repr(v).encode()).hexdigest() for v in (terms, colors)
    )
    assert digests == DECOMPOSITION_PINS[(n, r, seed)]
