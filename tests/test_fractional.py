"""Fractional 1-factor machinery: membership, usage weights, decompositions."""

import hashlib
import random
from fractions import Fraction

import pytest

from matchcover import (
    CapExceededError,
    FractionalOneFactor,
    Matching,
    MembershipFailure,
    NotRegularError,
    bf_double_cover,
    bridge_pair,
    build_w_k,
    decompose,
    dipole,
    enumerate_perfect_matchings,
    k4,
    k33,
    multicoloring,
    petersen,
    prism,
    random_regular,
    uniform,
    verify_membership,
    w_k_entry,
)
from matchcover.multigraph import Multigraph
from matchcover.oddcuts import min_odd_cut, min_odd_cut_brute

from helpers import PETERSEN_PMS, corpus, fast_cover_step_vectors

F = Fraction


def test_vector_validation():
    v = FractionalOneFactor((F(1, 2), 1, 0))
    assert v[0] == F(1, 2)
    assert len(v) == 3
    assert v.total((0, 1)) == F(3, 2)
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


def test_build_w_k_from_one_matching():
    g = petersen()
    counts = [0] * 15
    for e in PETERSEN_PMS[0]:
        counts[e] = 1
    w = build_w_k(g, 3, 2, counts)
    assert set(w.values) == {F(1, 5), F(2, 5)}
    assert all(w[e] == F(1, 5) for e in PETERSEN_PMS[0])
    assert verify_membership(g, w).ok


def test_build_w_k_validation():
    g = petersen()
    zeros = [0] * 15
    with pytest.raises(ValueError, match="at least 2"):
        build_w_k(g, 3, 1, zeros)
    with pytest.raises(NotRegularError):
        build_w_k(g, 4, 2, zeros)
    with pytest.raises(ValueError, match="expected 15 counts"):
        build_w_k(g, 3, 2, [0] * 14)
    with pytest.raises(ValueError, match="integer"):
        build_w_k(g, 3, 2, [0.0] * 15)
    with pytest.raises(ValueError, match="0..1"):
        build_w_k(g, 3, 2, [2] + zeros[1:])
    # counts summing wrong around a vertex: all zeros needs k = 1, not 2
    with pytest.raises(ValueError, match="sum to 0, expected 1"):
        build_w_k(g, 3, 2, zeros)


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
    with pytest.raises(ValueError, match="entries"):
        verify_membership(petersen(), FractionalOneFactor((F(1, 3),)))


def test_decompose_petersen_uniform():
    g = petersen()
    dec = decompose(g, uniform(g, 3))
    assert [(m.edge_ids, c) for m, c in dec.terms] == [
        (ids, F(1, 6)) for ids in PETERSEN_PMS
    ]
    assert dec.coefficients_sum() == 1
    assert dec.reconstruct() == uniform(g, 3).values


def test_decompose_properties_and_determinism():
    g = k33()
    w = uniform(g, 3)
    dec1 = decompose(g, w)
    dec2 = decompose(g, w)
    assert dec1 == dec2
    assert dec1.coefficients_sum() == 1
    assert all(c > 0 for _, c in dec1.terms)
    assert dec1.reconstruct() == w.values


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


def test_decompose_respects_cap():
    with pytest.raises(CapExceededError):
        decompose(petersen(), uniform(petersen(), 3), cap=3)


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
# baseline graphs; recorded with the Fraction-tableau simplex
DECOMPOSITION_PINS = {
    (10, 3, 0): ("f2e13730c049d8bb706d6f2d0ad1507a6a6b5aef5da8b8155fd502b6e772cc3b",
                 "937b0121be632fc2c2524f99bdf32e0010e201361949358b92eb58a20288af3c"),
    (10, 3, 1): ("1472dd83407cff31d8134a32229d4407c4f7e26ffb197be79a68b0aae57df398",
                 "2f93f25645b1493a6cfa1ddc9d9cb35aefaa37706eb49b57c5013d9d39e7b4cd"),
    (12, 3, 0): ("184e8b8fa6257853214c83f9ad9683f98af575bb0812a6cb7f43beb59ae22cee",
                 "f4b06286d02d433d3f850567136bd618836e7c8d0193e5f69d01de0193fbebef"),
    (12, 3, 1): ("2e7cad6181a205168dba310d1bae29eeefc61c41df454cb352aea42a2cf607e1",
                 "56fbacd2f1526400ace127f272662a16110bf097dbcabe8c414c779136d5f1dd"),
    (14, 3, 0): ("b48eafee009f6843b9ef050940187658be686be58a7032075ff07f25fc333d6a",
                 "b4c6807e2774dbd26a0227fc832c09a3784ac8849c94638622e64b4bbb8a3f5d"),
    (14, 3, 1): ("ff6799fe88c88324f2516b5a60bd1be25da325cc6325793b127ed54398097492",
                 "32ae50951c31c56c7e8d8d4f99de44e99225c0cc6ef65d18efafbd52f4c82284"),
    (8, 4, 0): ("1dfddbd5ac66f8079f2dadbf747b6163a9786910a8476a2433e36c5abe9a57dc",
                "e9b3b7c568357b471b7aa1d7d6d7120f43f3b3ae6d9c5805e963ef4f2bdab209"),
    (8, 4, 1): ("270b6982a2ae002e212cdc5294fb77585935142829aacdbe36e6a31c0c03662a",
                "e6d3f8b2f4bbe4c99ca4957ad822c2c61813c365fc17c2b0c6161402b67ae063"),
    (6, 5, 0): ("287ef2f3df6f2acc0aba9714d222c34f7b818d77252334dd291ed68d9c01f1e2",
                "71429c1502eda1ee29c9a887d93fe43d9ec51478e189c552babef81c664c69d6"),
    (6, 5, 1): ("70696bc051e3dfbabf98d542d37de7fc10f91efab97fdb51057c27daec8af6dc",
                "ffe7617c6aed6b59073d715c90b6fe40096b38200f151edaaf63b45e300e1ecd"),
    (6, 6, 0): ("4594354c59d934d2ba67581bedbd36d0637ca358a9b7e12c7b42d9a98aba98ae",
                "6c9ec49327bc188d4130381fa583c577f0a69dd54bc3fcdd20e979cb824e3f61"),
    (6, 6, 1): ("e68eff1e7a1ebe6aabf2362b2bd711deaeebc755072b7b1bffd67658a6839e1f",
                "8bb071a6eb228c6ceec75186084b1d9d8abcfa2661a676e979b2bb203e3e2dcd"),
    (14, 5, 0): ("63fdc79caae6800f88c866bd9236deee47d835b95b78b4b7ea9d8018323bcab3",
                 "052a4f9acb5dd710bdbd688bf898c0f5566953338b68fc2a5fdea083f19687c8"),
    (12, 6, 0): ("e317ec60424b779df7ced0eede19d05d2f483afb33f30bd76905a89cad76bd58",
                 "74c689b9bfcd3b816a4b53d909f4e2b3f0c07b9b5dfc4f94b83d91f62ff3294e"),
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


def test_double_cover_petersen_uses_all_six():
    res = bf_double_cover(petersen(), 3)
    assert res.found and not res.exhausted
    assert tuple(m.edge_ids for m in res.matchings) == PETERSEN_PMS
    assert res.pm_count == 6


def test_double_cover_k4_doubles_a_coloring():
    res = bf_double_cover(k4(), 3)
    assert res.found
    assert tuple(m.edge_ids for m in res.matchings) == (
        (0, 5), (0, 5), (1, 4), (1, 4), (2, 3), (2, 3),
    )


def test_double_cover_refutation_is_exhaustive():
    res = bf_double_cover(bridge_pair(), 3)
    assert not res.found
    assert res.exhausted
    assert res.matchings is None
    assert res.pm_count == 4


def test_double_cover_search_runs_past_the_recursion_limit():
    # 3576 perfect matchings: a path longer than the default stack allows
    res = bf_double_cover(random_regular(16, 6, 7), 6)
    assert res.found
    assert res.pm_count == 3576
    assert res.nodes == 3493


def test_double_cover_validation():
    with pytest.raises(ValueError):
        bf_double_cover(Multigraph(0, ()), 3)
    with pytest.raises(NotRegularError):
        bf_double_cover(petersen(), 4)


def test_double_cover_exists_across_corpus():
    for name, g, r in corpus():
        if g.n > 10 or len(enumerate_perfect_matchings(g)) > 40:
            continue  # keep the exhaustive search cheap
        res = bf_double_cover(g, r)
        assert res.found, name
        per_edge = [0] * g.m
        for m in res.matchings:
            for e in m.edge_ids:
                per_edge[e] += 1
        assert per_edge == [2] * g.m, name
        assert len(res.matchings) == 2 * r, name
