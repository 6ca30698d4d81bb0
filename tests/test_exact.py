"""Exhaustive coverage optimum, excessive index and double-cover search."""

from fractions import Fraction

import pytest

from matchcover import (
    FAST,
    NoPerfectMatchingError,
    NotRegularError,
    UncoverableEdgeError,
    bf_double_cover,
    bridge_pair,
    dipole,
    enumerate_perfect_matchings,
    excessive_index,
    greedy_cover,
    k4,
    k33,
    m_exact,
    petersen,
    prism,
    random_regular,
)
from matchcover import exact
from matchcover.exact import _first_subset, _pm_masks
from matchcover.multigraph import Multigraph

from helpers import (
    PETERSEN_M_EXACT,
    PETERSEN_PMS,
    best_subset_recursive,
    bf_double_cover_per_edge,
    corpus,
)

F = Fraction


def test_petersen_coverage_chain():
    for k, expected in PETERSEN_M_EXACT.items():
        cov = m_exact(petersen(), k)
        assert cov.fraction == expected
        assert cov.pm_count == 6
        assert cov.witness_indices == tuple(range(k))


def test_petersen_witness_padding_past_saturation():
    cov = m_exact(petersen(), 7)
    assert cov.fraction == 1
    assert cov.witness_indices == (0, 0, 1, 2, 3, 4, 5)
    assert len(cov.matchings) == 7


def test_petersen_excessive_index():
    res = excessive_index(petersen())
    assert res.value == 5
    assert res.witness_indices == (0, 1, 2, 3, 4)
    union = set()
    for m in res.matchings:
        union.update(m.edge_ids)
    assert union == set(range(15))


def test_witness_matchings_achieve_the_fraction():
    for name, g, _ in corpus():
        if g.n > 12:
            continue
        cov = m_exact(g, 3)
        union = {e for m in cov.matchings for e in m.edge_ids}
        assert F(len(union), g.m) == cov.fraction, name


def test_small_graph_chains():
    for g in (k4(), k33(), dipole(3)):
        assert m_exact(g, 1).fraction == F(1, 3)
        assert m_exact(g, 2).fraction == F(2, 3)
        assert m_exact(g, 3).fraction == 1
        assert excessive_index(g).value == 3
    assert m_exact(k33(), 2).witness_indices == (0, 3)
    assert excessive_index(k33()).witness_indices == (0, 3, 4)


def test_excessive_matches_saturation_point():
    for g in (petersen(), k4(), k33(), dipole(4), prism(3)):
        ei = excessive_index(g).value
        assert m_exact(g, ei).fraction == 1
        if ei > 1:
            assert m_exact(g, ei - 1).fraction < 1


def test_uncoverable_edge():
    with pytest.raises(UncoverableEdgeError) as exc:
        excessive_index(bridge_pair())
    assert exc.value.edge_id == 0  # lowest edge outside every matching


def test_uncoverable_graph_still_has_a_best_fraction():
    # the union of all four matchings misses six edges, so k = 4 tops out
    cov = m_exact(bridge_pair(), 4)
    assert cov.fraction == F(3, 5)
    assert cov.pm_count == 4


def test_no_perfect_matching():
    two_triangles = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    with pytest.raises(NoPerfectMatchingError):
        m_exact(two_triangles, 2)
    with pytest.raises(NoPerfectMatchingError):
        excessive_index(two_triangles)


def test_argument_validation():
    with pytest.raises(ValueError):
        m_exact(petersen(), 0)
    with pytest.raises(ValueError):
        m_exact(Multigraph(0, ()), 1)
    with pytest.raises(ValueError):
        excessive_index(Multigraph(0, ()))


def test_greedy_never_beats_the_oracle():
    for name, g, r in corpus():
        if g.n > 12:
            continue
        for k in (1, 2, 3):
            rep = greedy_cover(g, r, k, mode=FAST)
            assert rep.fraction <= m_exact(g, k).fraction, (name, k)


def _cubic_without_perfect_matching() -> Multigraph:
    """Three copies of K4 minus an edge, each joined through a new
    vertex to a centre: removing the centre leaves three odd components."""
    edges = []
    for i in range(3):
        a, b, c, d, x = range(1 + 5 * i, 6 + 5 * i)
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (a, x), (b, x), (0, x)]
    return Multigraph(16, tuple(edges))


SUBSET_CASES = [
    *corpus(),
    *(
        (f"random_r{r}_n{n}_s{s}", random_regular(n, r, s), r)
        for r in (3, 4, 5, 6)
        for n in (6, 8, 10)
        for s in (0, 1, 2)
        if n > r
    ),
    ("random_r6_n12_s1", random_regular(12, 6, 1), 6),  # 82963 search nodes
    ("bridge_pair", bridge_pair(), 3),
]
SEARCH_CASES = [*SUBSET_CASES, ("no_perfect_matching", _cubic_without_perfect_matching(), 3)]


@pytest.mark.parametrize("g, r", [c[1:] for c in SEARCH_CASES],
                         ids=[c[0] for c in SEARCH_CASES])
def test_double_cover_matches_the_per_edge_search(g, r):
    res = bf_double_cover(g, r)
    assert (res.found, res.matchings, res.pm_count, res.nodes) == bf_double_cover_per_edge(g, r)


def test_double_cover_petersen_uses_all_six():
    res = bf_double_cover(petersen(), 3)
    assert res.found
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


def test_double_cover_checks_its_bookkeeping(monkeypatch):
    # the search runs on the true masks, but the cover read off them names
    # matching 1 where matching 0 belongs
    real = exact._pm_masks

    def swapped(g, cap):
        pms, masks, suf = real(g, cap)
        return (pms[1],) + pms[1:], masks, suf

    monkeypatch.setattr(exact, "_pm_masks", swapped)
    with pytest.raises(AssertionError, match="double cover bookkeeping is off"):
        bf_double_cover(petersen(), 3)


@pytest.mark.parametrize("g", [c[1] for c in SUBSET_CASES],
                         ids=[c[0] for c in SUBSET_CASES])
def test_best_subset_matches_the_recursive_search(g):
    # the decision holds at the oracle's optimum, with its witness, and fails above it
    pms, masks, suf = _pm_masks(g, 100_000)
    for kk in range(1, min(5, len(pms)) + 1):
        best, sel = best_subset_recursive(pms, kk, g.n // 2, -1)
        assert _first_subset(masks, suf, kk, g.n // 2, best) == sel, kk
        assert _first_subset(masks, suf, kk, g.n // 2, best + 1) is None, kk


@pytest.mark.parametrize("g", [c[1] for c in SUBSET_CASES],
                         ids=[c[0] for c in SUBSET_CASES])
def test_excessive_index_matches_the_recursive_search(g):
    pms = _pm_masks(g, 100_000)[0]
    missed = set(range(g.m)).difference(*(pm.edge_ids for pm in pms))
    if missed:
        with pytest.raises(UncoverableEdgeError) as exc:
            excessive_index(g)
        assert exc.value.edge_id == min(missed)
        return
    kk = 1
    while (oracle := best_subset_recursive(pms, kk, g.n // 2, -1))[0] < g.m:
        kk += 1
    res = excessive_index(g)
    assert (res.value, res.witness_indices) == (kk, oracle[1])


def test_searches_that_took_minutes_now_answer():
    cov = m_exact(random_regular(16, 5, 7), 5)
    assert cov.fraction == 1
    assert cov.witness_indices == (1, 319, 714, 801, 864)
    g = random_regular(16, 6, 7)
    cov = m_exact(g, 6)
    assert cov.fraction == 1
    assert {e for m in cov.matchings for e in m.edge_ids} == set(range(g.m))


def test_best_cover_past_the_recursion_limit():
    # 3576 perfect matchings: a subset of 1100 is deeper than the default stack
    cov = m_exact(random_regular(16, 6, 7), 1100)
    assert cov.fraction == 1
    assert cov.pm_count == 3576
    assert cov.witness_indices == tuple(range(1100))
