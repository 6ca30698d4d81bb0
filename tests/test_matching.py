"""Perfect matching enumeration and max-weight selection, each against oracles."""

import itertools
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcover import (
    CapExceededError,
    Matching,
    Multigraph,
    NoPerfectMatchingError,
    bridge_pair,
    dipole,
    enumerate_perfect_matchings,
    k4,
    k33,
    max_weight_perfect_matching,
    petersen,
    prism,
)
from matchcover.matching import _blossom, _edge_uses
from matchcover.multigraph import _arc_index

from helpers import (
    CORPUS_IDS,
    PETERSEN_PMS,
    blossom_scan,
    corpus,
    covered_vertices,
    enumerate_perfect_matchings_dfs,
    is_perfect_matching,
    max_weight_perfect_matching_networkx,
    max_weight_value,
    perfect_matchings_brute,
)
from test_exact import SUBSET_CASES

TWO_TRIANGLES = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


def test_matching_normalizes_and_measures():
    m = Matching((9, 5, 7))
    assert m.edge_ids == (5, 7, 9)
    assert len(m) == 3


def test_edge_uses_counts_multiplicities():
    # edges 0 and 1 are parallel, and each matching comes with a multiplicity
    g = Multigraph(4, ((0, 1), (0, 1), (2, 3), (1, 2), (0, 3)))
    terms = [(Matching((0, 2)), 2), (Matching((1, 2)), 3), (Matching((3, 4)), 1),
             (Matching((0, 2)), 4)]
    assert _edge_uses(g, terms) == [6, 3, 9, 1, 1]
    assert _edge_uses(g, []) == [0] * 5


def test_covered_vertices():
    m = Matching((0, 5))
    assert covered_vertices(m, k4()) == {0, 1, 2, 3}


def test_is_perfect_matching():
    g = k4()
    assert is_perfect_matching(g, Matching((0, 5)))
    assert not is_perfect_matching(g, Matching((0,)))          # incomplete
    assert not is_perfect_matching(g, Matching((0, 1)))        # shares vertex 0
    assert not is_perfect_matching(g, Matching((0, 99)))       # bad id


def test_petersen_enumeration():
    pms = enumerate_perfect_matchings(petersen())
    assert tuple(m.edge_ids for m in pms) == PETERSEN_PMS
    # any two distinct perfect matchings of this graph share exactly one edge
    for i in range(6):
        for j in range(i + 1, 6):
            assert len(set(pms[i].edge_ids) & set(pms[j].edge_ids)) == 1


def test_small_graph_enumerations():
    assert tuple(m.edge_ids for m in enumerate_perfect_matchings(k4())) == (
        (0, 5), (1, 4), (2, 3),
    )
    assert tuple(m.edge_ids for m in enumerate_perfect_matchings(dipole(3))) == (
        (0,), (1,), (2,),
    )
    assert tuple(m.edge_ids for m in enumerate_perfect_matchings(k33())) == (
        (0, 4, 8), (0, 5, 7), (1, 3, 8), (1, 5, 6), (2, 3, 7), (2, 4, 6),
    )


def test_bridge_pair_matchings_all_use_the_bridge():
    pms = enumerate_perfect_matchings(bridge_pair())
    assert len(pms) == 4
    assert all(14 in m.edge_ids for m in pms)


@pytest.mark.parametrize(
    "name", ["petersen", "k4", "k33", "dipole5", "prism6", "random_r4_n10_s203"]
)
def test_enumeration_cap(name):
    # a cap of P, the number of perfect matchings, returns all P; P - 1 raises
    g = next(g for nm, g, _ in corpus() if nm == name)
    p = len(enumerate_perfect_matchings_dfs(g))
    assert p >= 2
    assert len(enumerate_perfect_matchings(g, cap=p)) == p
    with pytest.raises(CapExceededError, match=f"passed the cap of {p - 1}$"):
        enumerate_perfect_matchings(g, cap=p - 1)


def test_enumeration_degenerate_inputs():
    assert enumerate_perfect_matchings(Multigraph(0, ())) == (Matching(()),)
    # the empty graph's one matching follows the cap rule: a cap of P - 1 = 0 raises
    with pytest.raises(CapExceededError, match="passed the cap of 0$"):
        enumerate_perfect_matchings(Multigraph(0, ()), cap=0)
    assert enumerate_perfect_matchings(TWO_TRIANGLES) == ()
    with pytest.raises(NoPerfectMatchingError):
        enumerate_perfect_matchings(Multigraph(3, ((0, 1), (1, 2), (0, 2))))


def test_enumeration_without_n_over_2_edges_builds_nothing():
    # a perfect matching has n/2 edges, so one edge on 10^6 vertices has none,
    # found before any per-vertex list is built
    g = Multigraph(10**6, ((0, 1),))
    tracemalloc.start()
    try:
        assert enumerate_perfect_matchings(g) == ()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_enumeration_results_are_perfect_and_distinct():
    for name, g, _ in corpus():
        pms = enumerate_perfect_matchings(g)
        assert len(set(pms)) == len(pms), name
        for m in pms:
            assert is_perfect_matching(g, m), name


def random_multigraph(rng: random.Random) -> Multigraph:
    """Even n <= 14, parallel edges common; three in four draws plant a
    perfect matching among the other edges."""
    n = 2 * rng.randint(0, 7)
    edges = []
    if n and rng.random() < 0.75:
        perm = rng.sample(range(n), n)
        edges += [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
    if n:
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
    if edges:
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 4))]
    rng.shuffle(edges)
    return Multigraph(n, tuple(edges))


def tutte_barrier(k: int, centre_first: bool) -> Multigraph:
    """Three K_k (k odd), each joined by one edge to a centre vertex: n is
    even and the graph connected, but removing the centre leaves three odd
    components, so there is no perfect matching."""
    n = 3 * k + 1
    centre, first = (0, 1) if centre_first else (n - 1, 0)
    edges = []
    for i in range(3):
        base = first + i * k
        edges += [(base + a, base + b) for a, b in itertools.combinations(range(k), 2)]
        edges.append((centre, base))
    return Multigraph(n, tuple(edges))


NO_PERFECT_MATCHING = [
    TWO_TRIANGLES,
    Multigraph(4, ((0, 1), (0, 2), (0, 3))),  # a star
    Multigraph(2, ()),
    # K4 and K4, with two isolated vertices
    Multigraph(10, tuple((a + s, b + s) for s in (0, 4)
                         for a, b in itertools.combinations(range(4), 2))),
    # a 4-cycle beside a star: one even component is not enough
    Multigraph(8, ((0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (4, 6), (4, 7))),
    tutte_barrier(3, True),
    tutte_barrier(3, False),
    # parallel edges inside a triangle and to the centre change nothing
    Multigraph(10, tutte_barrier(3, True).edges + ((1, 2), (1, 2), (0, 4))),
]


@pytest.mark.parametrize("case", corpus(), ids=CORPUS_IDS)
def test_enumeration_matches_the_dfs_oracle_on_corpus(case):
    _, g, _ = case
    pms = enumerate_perfect_matchings(g)
    assert pms == enumerate_perfect_matchings_dfs(g)
    if g.m <= 16:
        assert pms == perfect_matchings_brute(g)


def test_enumeration_matches_the_oracles_on_random_multigraphs():
    rng = random.Random(14)
    seen = {"none": 0, "some": 0, "parallel": 0}
    for _ in range(300):
        g = random_multigraph(rng)
        pms = enumerate_perfect_matchings(g)
        assert pms == enumerate_perfect_matchings_dfs(g), g
        if g.m <= 16:
            assert pms == perfect_matchings_brute(g), g
        seen["some" if pms else "none"] += 1
        seen["parallel"] += len(set(g.edges)) < g.m and len(pms) > 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("g", NO_PERFECT_MATCHING)
def test_enumeration_without_a_perfect_matching(g):
    assert enumerate_perfect_matchings(g) == ()
    assert enumerate_perfect_matchings_dfs(g) == ()
    if g.m <= 16:
        assert perfect_matchings_brute(g) == ()


@pytest.mark.parametrize("centre_first", [True, False], ids=["centre-first", "centre-last"])
def test_enumeration_prunes_odd_components_behind_a_tutte_barrier(centre_first):
    # n = 40 and connected: every free vertex keeps a free neighbour for
    # many levels, so only the parity check cuts the search short.  Without
    # it this runs for minutes; with it, milliseconds.
    g = tutte_barrier(13, centre_first)
    start = time.process_time()
    assert enumerate_perfect_matchings(g) == ()
    assert time.process_time() - start < 10


def test_enumeration_depth_is_not_bounded_by_recursion():
    # a path on 3000 vertices has one perfect matching, 1500 levels deep
    g = Multigraph(3000, tuple((v, v + 1) for v in range(2999)))
    assert enumerate_perfect_matchings(g) == (Matching(tuple(range(0, 2999, 2))),)


def test_matching_weight():
    w = [Fraction(1, 2), 0, 0, 0, 0, Fraction(1, 3)]
    assert sum(w[e] for e in Matching((0, 5)).edge_ids) == Fraction(5, 6)


def test_max_weight_value_unit_weights():
    assert max_weight_value(k4(), [1] * 6) == 2
    assert max_weight_value(TWO_TRIANGLES, [1] * 6) is None
    assert max_weight_value(Multigraph(3, ((0, 1), (1, 2), (0, 2))), [1, 1, 1]) is None
    assert max_weight_value(Multigraph(2, ()), []) is None
    assert max_weight_value(Multigraph(4, ((0, 1), (0, 1))), [-1, 2]) is None


def test_max_weight_no_matching_raises():
    with pytest.raises(NoPerfectMatchingError):
        max_weight_perfect_matching(TWO_TRIANGLES, [1] * 6)
    with pytest.raises(NoPerfectMatchingError):
        max_weight_perfect_matching(Multigraph(3, ((0, 1), (1, 2), (0, 2))), [1, 1, 1])
    with pytest.raises(NoPerfectMatchingError):
        max_weight_perfect_matching(Multigraph(2, ()), [])
    with pytest.raises(NoPerfectMatchingError):
        max_weight_perfect_matching(Multigraph(4, ((0, 1), (0, 1))), [-1, 2])


def test_max_weight_needs_one_weight_per_edge():
    for extra in (1, Fraction(1, 2)):
        with pytest.raises(ValueError, match="^expected 6 weights, got 7$"):
            max_weight_perfect_matching(k4(), [extra] * 7)


def test_max_weight_empty_graph():
    assert max_weight_perfect_matching(Multigraph(0, ()), []) == Matching(())


def test_max_weight_prefers_lex_least_among_ties():
    # all three matchings of K4 tie at weight 2; ids (0, 5) win
    assert max_weight_perfect_matching(k4(), [1] * 6).edge_ids == (0, 5)
    # parallel edges: equal weights tie, least id wins
    assert max_weight_perfect_matching(dipole(3), [1, 1, 1]).edge_ids == (0,)
    assert max_weight_perfect_matching(dipole(3), [0, 2, 2]).edge_ids == (1,)


def test_all_zero_and_all_one_weights_pick_the_same_matching():
    # every perfect matching has n/2 edges, so both weightings tie them all
    # and the id perturbation alone picks the lex-least one
    rng = random.Random(34)
    for _ in range(150):
        n = 2 * rng.randint(1, 6)
        perm = rng.sample(range(n), n)
        edges = [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        edges += rng.choices(edges, k=rng.randint(1, 4))  # parallel copies
        rng.shuffle(edges)
        g = Multigraph(n, tuple(edges))
        got = max_weight_perfect_matching(g, [0] * g.m)
        assert got == max_weight_perfect_matching(g, [1] * g.m)
        assert got.edge_ids == min(m.edge_ids for m in enumerate_perfect_matchings(g))


def test_max_weight_agrees_with_enumeration():
    rng = random.Random(90210)
    for g in [k4(), k33(), dipole(4), prism(3), prism(4), petersen()]:
        pms = enumerate_perfect_matchings(g)
        for _ in range(25):
            w = [Fraction(rng.randint(-6, 12), rng.randint(1, 5)) for _ in range(g.m)]
            best = max(sum(w[e] for e in m.edge_ids) for m in pms)
            assert max_weight_value(g, w) == best
            got = max_weight_perfect_matching(g, w)
            assert sum(w[e] for e in got.edge_ids) == best
            lex = min(m.edge_ids for m in pms if sum(w[e] for e in m.edge_ids) == best)
            assert got.edge_ids == lex


@st.composite
def weighted_multigraphs(draw):
    """Small loop-free multigraphs with signed rational weights.

    Degrees are arbitrary and parallel edges common.  Most draws plant a
    perfect matching (shuffled among the other edges), so both outcomes,
    a maximizer and NoPerfectMatchingError, are well represented.
    """
    n = max(2 * draw(st.integers(0, 5)) - draw(st.sampled_from((0, 0, 0, 1))), 0)
    edges = []
    if n >= 2:
        if n % 2 == 0 and draw(st.sampled_from((True, True, True, False))):
            perm = draw(st.permutations(range(n)))
            edges += [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
        extra = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        edges += [(u, (u + d) % n) for u, d in draw(st.lists(extra, max_size=20))]
        edges += draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
        edges = draw(st.permutations(edges))
    weights = draw(
        st.lists(st.fractions(-5, 5, max_denominator=6), min_size=len(edges), max_size=len(edges))
    )
    return Multigraph(n, tuple(edges)), weights


@settings(derandomize=True, deadline=None, max_examples=150)
@given(weighted_multigraphs())
def test_max_weight_is_lex_least_maximizer_of_enumeration(gw):
    g, w = gw
    try:
        pms = enumerate_perfect_matchings(g)
    except NoPerfectMatchingError:
        pms = ()
    if not pms:
        with pytest.raises(NoPerfectMatchingError):
            max_weight_perfect_matching(g, w)
        assert max_weight_value(g, w) is None
        return
    best = max(sum(w[e] for e in m.edge_ids) for m in pms)
    lex = min(m.edge_ids for m in pms if sum(w[e] for e in m.edge_ids) == best)
    assert max_weight_perfect_matching(g, w).edge_ids == lex
    assert max_weight_value(g, w) == best


@st.composite
def blossom_inputs(draw):
    """Multigraphs up to n = 40, past enumeration's reach, for the oracle.

    Sparse draws have up to 3n random edges (parallel copies included) and
    usually a planted perfect matching; dense draws are K_n, n <= 16, with
    a few parallel copies.  n may be odd and a perfect matching may be
    missing.  Weights are 0/1, as in a cover step, where nested blossoms
    and expiring T-blossoms are common, or mix zeros, negative integers
    and rationals.
    """
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        n = min(n, 16)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        edges = []
        if n % 2 == 0 and draw(st.sampled_from((True, True, True, False))):
            perm = draw(st.permutations(range(n)))
            edges += [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
        if n >= 2:
            extra = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
            edges += [(u, (u + d) % n) for u, d in draw(st.lists(extra, max_size=3 * n))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=6))
        edges = draw(st.permutations(edges))
    value = draw(st.sampled_from((
        st.integers(0, 1),
        st.one_of(st.just(0), st.integers(-4, 4), st.fractions(-5, 5, max_denominator=7)),
    )))
    weights = draw(st.lists(value, min_size=len(edges), max_size=len(edges)))
    return Multigraph(n, tuple(edges)), weights


def _outcome(route, g, w):
    try:
        return route(g, w)
    except NoPerfectMatchingError:
        return None


@settings(derandomize=True, deadline=None, max_examples=300)
@given(blossom_inputs())
@example((Multigraph(6, tuple((u, v) for u in range(6) for v in range(u + 1, 6))), [1] * 15))
@example((TWO_TRIANGLES, [1] * 6))
def test_max_weight_matches_the_networkx_oracle(gw):
    g, w = gw
    got = _outcome(max_weight_perfect_matching, g, w)
    assert got == _outcome(max_weight_perfect_matching_networkx, g, w)
    assert got is None or is_perfect_matching(g, got)


def test_max_weight_matches_the_networkx_oracle_on_dense_01_graphs():
    # seeded K_16, half-dense n = 24 and mean-degree-6 n = 40 graphs with 0/1
    # weights: they form hundreds of blossoms, many nested, and expire T-blossoms
    rng = random.Random(2024)
    for n, p in [(16, 1.0)] * 30 + [(40, 0.15)] * 15 + [(24, 0.5)] * 15:
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p)
        g = Multigraph(n, edges)
        w = [rng.randint(0, 1) for _ in edges]
        got = _outcome(max_weight_perfect_matching, g, w)
        assert got == _outcome(max_weight_perfect_matching_networkx, g, w)


# Raw blossom inputs with tied weights, shrunk from random multigraphs.  The
# id-perturbed weights of max_weight_perfect_matching never reached these
# branches of its expand step in 40,000 random graphs with n = 4..12.
BLOSSOM_BRANCH_CASES = {
    # at a stage's end, a zero-dual blossom holds a zero-dual sub-blossom,
    # which expands in turn
    "nested-zero-dual": (8, [(0, 6), (2, 4), (4, 0), (5, 0), (6, 1), (7, 4), (2, 7), (7, 6),
                             (2, 5), (4, 3)],
                         [1, 2, 1, 0, 0, 2, 2, 2, 2, 0]),
    # a T-blossom expands mid-stage; past the path to its base, a reached
    # sub-blossom turns T, and an S one keeps its label
    "mid-stage-t-relabel": (12, [(0, 8), (4, 8), (5, 2), (6, 1), (7, 11), (8, 11), (4, 2),
                                 (3, 0), (3, 8), (7, 6), (11, 9), (9, 2), (0, 7), (10, 3),
                                 (10, 1)],
                            [0, 0, 0, 2, 2, 1, 2, 1, 1, 1, 0, 1, 1, 1, 2]),
    "mid-stage-s-kept": (12, [(1, 7), (3, 2), (4, 5), (8, 11), (10, 2), (11, 9), (11, 10),
                              (9, 5), (6, 4), (8, 4), (7, 0), (3, 9), (0, 3), (6, 11), (7, 2)],
                         [0, 2, 1, 1, 0, 2, 0, 0, 0, 1, 0, 2, 0, 0, 1]),
    # a T-blossom expands mid-stage, and a later dual step tightens an edge
    # from an S-vertex into a vertex that was inside it and is free now; the
    # S-end was scanned while the far end sat inside the T-blossom, and a
    # dual step that misses such edges reports no perfect matching
    "dual-step-into-dissolved-t": (12, [(0, 1), (3, 9), (9, 0), (0, 5), (4, 7), (9, 6), (2, 8),
                                        (1, 3), (3, 0), (6, 2), (10, 7), (8, 4), (11, 2),
                                        (10, 1), (5, 2)],
                                   [2, 2, 2, 1, 2, 0, 2, 0, 2, 2, 1, 2, 1, 2, 2]),
    # the dual step's heap drops an entry whose ends a new blossom swallowed
    "heap-entry-inside-one-blossom": (6, [(1, 4), (0, 2), (2, 5), (4, 5), (4, 3), (1, 3)],
                                      [1, 0, 0, 0, 1, 0]),
    # an entry keyed while its far end was free is re-keyed once that end
    # has turned S through a T-blossom that a new blossom took in
    "heap-entry-far-end-turned-s": (6, [(1, 4), (0, 2), (2, 5), (4, 5), (4, 3), (1, 3)],
                                    [3, 0, 1, 0, 3, 0]),
    # an entry keyed while its far end was free is re-keyed once that end
    # has left a T-blossom expanded mid-stage, its dual raised meanwhile
    "heap-entry-far-end-left-t": (12, [(5, 6), (11, 0), (4, 1), (9, 6), (8, 7), (5, 10), (8, 10),
                                       (7, 10), (3, 1), (7, 2), (9, 2), (5, 0), (2, 10), (5, 3)],
                                  [1, 0, 0, 3, 1, 2, 1, 2, 2, 1, 3, 3, 2, 0]),
}


@pytest.mark.parametrize("case", sorted(BLOSSOM_BRANCH_CASES))
def test_blossom_expansions_with_tied_weights(case):
    n, edges, weight = BLOSSOM_BRANCH_CASES[case]
    g, (ends, adj) = Multigraph(n, tuple(edges)), _arc_index(n, edges)
    assert ends == tuple(x for uv in edges for x in uv)  # endpoints as listed
    mate = _blossom(ends, adj, weight)
    assert all(ends[mate[v] ^ 1] == v for v in range(n))
    got = Matching(tuple({p >> 1 for p in mate}))
    assert is_perfect_matching(g, got)
    best = max(sum(weight[e] for e in pm.edge_ids) for pm in perfect_matchings_brute(g))
    assert sum(weight[e] for e in got.edge_ids) == best


def _matched_weight(weight, mate):
    return None if mate is None else sum(weight[p >> 1] for p in mate if p & 1)


def test_blossom_matches_the_scan_oracle():
    # seeded multigraphs up to n = 40, odd n and missing perfect matchings
    # included, and dense 0/1 graphs (K_16, half of K_24): on id-perturbed
    # weights the optimum is unique, so the heap's dual step and the scan
    # oracle return the same mates; on raw tied weights each may return
    # another optimum, so only its weight, or None, must agree
    rng = random.Random(37)
    for i in range(240):
        if i % 4 == 0:
            n, dense = rng.choice(((16, 1.0), (24, 0.5)))
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < dense]
            ints = [rng.randint(0, 1) for _ in edges]
        else:
            n = rng.randint(2, 40)
            edges = [(u, u + 1) for u in range(0, n - 1, 2)] if rng.random() < 0.75 else []
            edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
            edges += [rng.choice(edges) for _ in range(rng.randint(0, 4))] if edges else []
            rng.shuffle(edges)
            ints = [rng.choice((rng.randint(0, 1), rng.randint(-4, 4))) for _ in edges]
        ends, adj = _arc_index(n, edges)
        m = len(edges)
        perturbed = [(x << m) + (1 << (m - 1 - e)) for e, x in enumerate(ints)]
        assert _blossom(ends, adj, perturbed) == blossom_scan(ends, adj, perturbed)
        assert (_matched_weight(ints, _blossom(ends, adj, ints))
                == _matched_weight(ints, blossom_scan(ends, adj, ints)))


def _greedy_start_is_perfect(g: Multigraph, ints: list[int]) -> bool:
    """Whether the blossom's start already matches every vertex: on the
    id-perturbed weights (doubled), each dual starts at the heaviest
    incident weight, then each vertex in turn lowers its dual until an
    edge is tight and takes its first tight edge to an unmatched vertex."""
    m = g.m
    w2 = [(x << (m + 1)) + (2 << (m - 1 - e)) for e, x in enumerate(ints)]
    inc = [[(e, u + v - x) for e, (u, v) in enumerate(g.edges) if x in (u, v)]
           for x in range(g.n)]
    if not all(inc):
        return False
    dual = [max(w2[e] for e, _ in a) >> 1 for a in inc]
    mate = [None] * g.n
    for x in range(g.n):
        if mate[x] is None:
            dual[x] = max(w2[e] - dual[u] for e, u in inc[x])
            tight = [u for e, u in inc[x] if mate[u] is None and w2[e] - dual[u] == dual[x]]
            if tight:
                mate[x], mate[tight[0]] = tight[0], x
    return None not in mate


def _same_matching_for_ints_and_fractions(g: Multigraph, ints: list[int]) -> bool:
    # ints, the same values as Fractions and a third of them scale to the
    # same signed blossom weights; the networkx oracle solves them apart
    got = _outcome(max_weight_perfect_matching, g, ints)
    assert got == _outcome(max_weight_perfect_matching, g, [Fraction(x) for x in ints])
    assert got == _outcome(max_weight_perfect_matching, g, [Fraction(x, 3) for x in ints])
    assert got == _outcome(max_weight_perfect_matching_networkx, g, ints)
    return _greedy_start_is_perfect(g, ints)


def test_int_weights_match_fraction_weights_on_the_subset_cases():
    rng = random.Random(25)
    starts = set()
    for _, g, _ in SUBSET_CASES:
        for ints in ([0] * g.m, [rng.randint(0, 1) for _ in range(g.m)],
                     [rng.randint(-4, 4) for _ in range(g.m)],
                     [rng.randint(-(g.n + 2), 0) for _ in range(g.m)]):
            starts.add(_same_matching_for_ints_and_fractions(g, ints))
    assert starts == {True, False}  # some greedy starts are perfect already


@settings(derandomize=True, deadline=None, max_examples=200)
@given(blossom_inputs())
@example((k4(), [0] * 6))  # a perfect greedy start
@example((TWO_TRIANGLES, [-1] * 6))
def test_int_weights_match_fraction_weights(gw):
    g, w = gw
    _same_matching_for_ints_and_fractions(g, [int(Fraction(x) * 420) for x in w])


def test_importing_matchcover_leaves_networkx_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import matchcover, matchcover.cli; "
        "print('networkx' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
