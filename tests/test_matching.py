"""Perfect matching enumeration (oracle) and max-weight selection (production)."""

import random
import subprocess
import sys
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
    is_perfect_matching,
    k4,
    k33,
    matching_weight,
    max_weight_perfect_matching,
    max_weight_value,
    petersen,
    prism,
)

from helpers import PETERSEN_PMS, corpus, max_weight_perfect_matching_networkx

TWO_TRIANGLES = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))


def test_matching_normalizes_and_measures():
    m = Matching((9, 5, 7))
    assert m.edge_ids == (5, 7, 9)
    assert len(m) == 3
    assert m.crossings(frozenset({5, 9, 11})) == 2


def test_covered_vertices():
    m = Matching((0, 5))
    assert m.covered_vertices(k4()) == {0, 1, 2, 3}


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


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_perfect_matchings(petersen(), cap=5)
    assert len(enumerate_perfect_matchings(petersen(), cap=6)) == 6


def test_enumeration_degenerate_inputs():
    assert enumerate_perfect_matchings(Multigraph(0, ())) == (Matching(()),)
    assert enumerate_perfect_matchings(TWO_TRIANGLES) == ()
    with pytest.raises(NoPerfectMatchingError):
        enumerate_perfect_matchings(Multigraph(3, ((0, 1), (1, 2), (0, 2))))


def test_enumeration_results_are_perfect_and_distinct():
    for name, g, _ in corpus():
        pms = enumerate_perfect_matchings(g)
        assert len(set(pms)) == len(pms), name
        for m in pms:
            assert is_perfect_matching(g, m), name


def test_matching_weight():
    w = [Fraction(1, 2), 0, 0, 0, 0, Fraction(1, 3)]
    assert matching_weight(Matching((0, 5)), w) == Fraction(5, 6)


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


def test_max_weight_empty_graph():
    assert max_weight_perfect_matching(Multigraph(0, ()), []) == Matching(())


def test_max_weight_prefers_lex_least_among_ties():
    # all three matchings of K4 tie at weight 2; ids (0, 5) win
    assert max_weight_perfect_matching(k4(), [1] * 6).edge_ids == (0, 5)
    # parallel edges: equal weights tie, least id wins
    assert max_weight_perfect_matching(dipole(3), [1, 1, 1]).edge_ids == (0,)
    assert max_weight_perfect_matching(dipole(3), [0, 2, 2]).edge_ids == (1,)


def test_max_weight_agrees_with_enumeration():
    rng = random.Random(90210)
    for g in [k4(), k33(), dipole(4), prism(3), prism(4), petersen()]:
        pms = enumerate_perfect_matchings(g)
        for _ in range(25):
            w = [Fraction(rng.randint(-6, 12), rng.randint(1, 5)) for _ in range(g.m)]
            best = max(matching_weight(m, w) for m in pms)
            assert max_weight_value(g, w) == best
            got = max_weight_perfect_matching(g, w)
            assert matching_weight(got, w) == best
            lex = min(m.edge_ids for m in pms if matching_weight(m, w) == best)
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
    best = max(matching_weight(m, w) for m in pms)
    lex = min(m.edge_ids for m in pms if matching_weight(m, w) == best)
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
