"""Minimum odd cuts: production route vs. exhaustive route, and the r-graph test."""

import itertools
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcover import (
    CapExceededError,
    Multigraph,
    NotRegularError,
    bridge_pair,
    decompose,
    dipole,
    k33,
    petersen,
    prism,
    random_regular,
    uniform,
)
from matchcover import fractional, generators, oddcuts
from matchcover.oddcuts import (
    OddCutResult,
    _decode,
    _min_odd_cut,
    _odd_cuts_at_least,
    cut_values_by_code,
    is_r_graph,
    min_odd_cut,
    odd_cut_crossings,
    odd_subset_codes,
    scale_weights,
    tight_odd_cuts,
)

from helpers import (
    boundary_value,
    corpus,
    cut_values_oracle,
    fast_cover_step_vectors,
    fundamental_sides_networkx,
    min_odd_cut_brute,
    min_odd_cut_networkx,
    odd_codes_oracle,
    odd_cuts_at_least_fresh_flows,
)


def cut_weight(g, weights, side):
    return sum((Fraction(weights[e]) for e in g.boundary(side)), Fraction(0))


def test_petersen_unit_min_cut():
    res = min_odd_cut(petersen(), [1] * 15)
    assert res.value == 3
    assert res.witness == {1}


def test_bridge_min_cut_is_the_bridge():
    res = min_odd_cut(bridge_pair(), [1] * 15)
    assert res.value == 1
    assert res.witness == {5, 6, 7, 8, 9}


def test_witness_value_always_recomputable():
    g = petersen()
    res = min_odd_cut(g, [Fraction(1, 3)] * 15)
    assert cut_weight(g, [Fraction(1, 3)] * 15, res.witness) == res.value == 1


def test_zero_weight_odd_component():
    # killing the rungs disconnects the prism into two odd triangles
    g = prism(3)
    w = [1] * 6 + [0] * 3
    res = min_odd_cut(g, w)
    assert res.value == 0
    assert res.witness == {3, 4, 5}
    assert min_odd_cut_brute(g, w).value == 0


def test_disconnected_odd_components():
    two_triangles = Multigraph(
        6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))
    )
    res = min_odd_cut(two_triangles, [1] * 6)
    assert res.value == 0
    assert res.witness == {3, 4, 5}


def test_production_matches_brute_force():
    rng = random.Random(424241)
    graphs = [petersen(), prism(5), random_regular(12, 4, 205), random_regular(10, 5, 304)]
    for g in graphs:
        for _ in range(20):
            w = [Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(g.m)]
            a = min_odd_cut(g, w)
            b = min_odd_cut_brute(g, w)
            assert a.value == b.value
            # both witnesses must achieve the value and have odd parity
            for res in (a, b):
                assert len(res.witness) % 2 == 1
                assert cut_weight(g, w, res.witness) == res.value


@st.composite
def nonnegative_weighted_multigraphs(draw):
    """Loop-free multigraphs on even n <= 14 with nonnegative rational weights.

    The vertices, shuffled, fall into blocks, mostly of even size: a
    positive-weight path through each block plus random chords, and
    zero-weight edges between blocks.  So the positive-weight subgraph
    often has several components, with any vertex ids, and odd ones
    (zero-value cuts) occur too.  Parallel edges are common, and small
    integer weights make equal-value cuts common.
    """
    n = 2 * draw(st.integers(1, 7))
    perm = draw(st.permutations(range(n)))
    step = draw(st.sampled_from((2, 2, 1)))
    splits = range(step, n, step) or [n]
    ends = sorted(draw(st.sets(st.sampled_from(splits), max_size=3)) | {n})
    blocks = [perm[a:b] for a, b in zip([0] + ends, ends)]
    weight = draw(st.sampled_from(
        (st.integers(1, 2).map(Fraction), st.fractions(0, 4, max_denominator=6))
    ))
    edges, weights = [], []
    for block in blocks:
        size = len(block)
        edges += [(block[i], block[i + 1]) for i in range(size - 1)]
        if size > 1:
            pair = st.tuples(st.integers(0, size - 1), st.integers(1, size - 1))
            chords = draw(st.lists(pair, max_size=2 * size))
            edges += [(block[i], block[(i + d) % size]) for i, d in chords]
        new = len(edges) - len(weights)
        weights += draw(st.lists(weight, min_size=new, max_size=new))
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
    for u, d in draw(st.lists(pair, max_size=n)):
        edges.append((u, (u + d) % n))
        weights.append(Fraction(0))
    twins = draw(st.lists(st.integers(0, len(edges) - 1), max_size=n)) if edges else []
    edges += [edges[i] for i in twins]
    weights += [weights[i] for i in twins]
    order = draw(st.permutations(range(len(edges))))
    return Multigraph(n, tuple(edges[i] for i in order)), [weights[i] for i in order]


def weighted(n, edges, weights):
    return Multigraph(n, tuple(edges)), [Fraction(x) for x in weights]


# Rare in random draws: components whose set order does not start at their
# minimum vertex, and equal-value minimum s-t cuts.
@settings(derandomize=True, deadline=None, max_examples=200)
@given(nonnegative_weighted_multigraphs())
@example(weighted(14, [(6, 9), (1, 8), (0, 2), (3, 4), (5, 7), (10, 11), (12, 13)], [1] * 7))
@example(weighted(
    14,
    [(0, 10), (10, 2), (8, 0), (0, 8), (0, 10), (2, 8), (1, 3), (4, 5), (6, 7), (9, 11), (12, 13)],
    [1, 2, 1, 1, 1, 2, 5, 5, 5, 5, 5],
))
@example(weighted(
    14,
    [(9, 3), (9, 13), (13, 10), (13, 9), (10, 3), (0, 1), (2, 4), (5, 6), (7, 8), (11, 12)],
    [2, 1, 2, 1, 2, 5, 5, 5, 5, 5],
))
def test_min_odd_cut_matches_networkx_tree_and_brute_force(gw):
    g, w = gw
    res = min_odd_cut(g, w)
    assert res.value == min_odd_cut_networkx(g, w).value == min_odd_cut_brute(g, w).value
    assert len(res.witness) % 2 == 1 and 0 not in res.witness
    assert cut_weight(g, w, res.witness) == res.value
    # the canonical side of the star at v is {v}, or all but 0 for v = 0
    stars = [{v} if v else set(range(1, g.n)) for v in range(g.n)]
    light = [s for s in stars if cut_weight(g, w, s) == res.value]
    if light:
        assert res.witness == min(light, key=sorted)


def threshold_cases(test):
    """Weighted graphs and a bound offset -1, 0 or +1/1000 from the
    minimum odd cut: the bound at the minimum passes, just above it
    fails.  The examples hold odd positive components, apart or linked
    by a zero-weight edge, and two 4-cycles whose light links are the
    only cut below the minimum odd cut, an even one (the split path)."""
    test = example(weighted(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (2, 6)],
        [2] * 8 + [Fraction(1, 4)] * 2,
    ), 0)(test)
    test = example(weighted(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], [1] * 6 + [0]
    ), 1)(test)
    test = example(weighted(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], [1] * 6), 1)(test)
    test = given(nonnegative_weighted_multigraphs(), st.sampled_from((-1, 0, 1)))(test)
    return settings(derandomize=True, deadline=None, max_examples=300)(test)


@threshold_cases
def test_odd_cuts_at_least_matches_brute_force(gw, offset):
    g, w = gw
    best = min_odd_cut_brute(g, w).value
    bound = best + offset * Fraction(1, 1000)
    assert (min_odd_cut(g, w).value >= bound) is (best >= bound)


@threshold_cases
def test_odd_cuts_at_least_returns_an_odd_side_below_the_bound(gw, offset):
    g, w = gw
    best = min_odd_cut_brute(g, w).value
    bound = best + offset * Fraction(1, 1000)
    den = lcm(bound.denominator, *(x.denominator for x in w))
    side = _odd_cuts_at_least(g, [int(x * den) for x in w], int(bound * den))
    if best >= bound:
        assert side is None
    else:
        assert len(side) % 2 == 1
        assert cut_weight(g, w, side) < bound


def cut_below(g, nums, bound):
    """Whether some cut of the connected weighted graph is below bound:
    the lightest edge of its Gomory-Hu tree is the global minimum cut."""
    sides = fundamental_sides_networkx(g, nums, set(range(g.n)))
    return any(boundary_value(g, nums, side) < bound for side in sides)


# Fast covers with failing steps (40, 3, 3 from step 2 on; 100, 3, 1 at
# step 8) and with member steps that have an even cut below 1, which the
# decision must split on.
def test_odd_cuts_at_least_on_fast_cover_steps():
    outcomes = set()
    for n, r, seed in [(40, 3, 3), (100, 3, 1), (200, 3, 3), (40, 4, 2), (100, 4, 0), (200, 4, 0)]:
        g = random_regular(n, r, seed)
        for w in fast_cover_step_vectors(g, r, 8):
            member = min_odd_cut(g, w.values).value >= 1
            nums, den = scale_weights(w.values, g.m)
            assert (_odd_cuts_at_least(g, nums, den) is None) is member
            outcomes.add((member, cut_below(g, nums, den)))
    assert outcomes == {(True, False), (True, True), (False, True)}


# The decision carries each block's residual flow from one merge to the
# next and starts afresh after a split; the oracle starts every flow from
# the bare capacities.  Both must name the same side, or both None.
@threshold_cases
def test_odd_cuts_at_least_matches_the_fresh_flow_oracle(gw, offset):
    g, w = gw
    bound = min_odd_cut_brute(g, w).value + offset * Fraction(1, 1000)
    den = lcm(bound.denominator, *(x.denominator for x in w))
    nums, b = [int(x * den) for x in w], int(bound * den)
    assert _odd_cuts_at_least(g, nums, b) == odd_cuts_at_least_fresh_flows(g, nums, b)


def test_fresh_flow_oracle_on_fast_cover_steps():
    for n, r, seed in [(40, 3, 3), (100, 3, 1), (200, 3, 3), (40, 4, 2), (100, 4, 0), (200, 4, 0)]:
        g = random_regular(n, r, seed)
        for w in fast_cover_step_vectors(g, r, 8):
            nums, den = scale_weights(w.values, g.m)
            assert _odd_cuts_at_least(g, nums, den) == odd_cuts_at_least_fresh_flows(g, nums, den)


def test_fresh_flow_oracle_on_peel_decisions(monkeypatch):
    decisions, real = [], fractional._odd_cuts_at_least

    def recorded(g, nums, bound):
        side = real(g, nums, bound)
        decisions.append((g, list(nums), bound, side))
        return side

    monkeypatch.setattr(fractional, "_odd_cuts_at_least", recorded)
    for n, seed in itertools.product((40, 64), range(3)):
        g = random_regular(n, 3, seed)
        decompose(g, uniform(g, 3))
    assert any(side is None for *_, side in decisions)
    assert any(side is not None for *_, side in decisions)
    for g, nums, bound, side in decisions:
        assert side == odd_cuts_at_least_fresh_flows(g, nums, bound)


def test_carried_flow_then_reset_on_big_capacities(monkeypatch):
    """Two 4-cycles of doubled heavy edges joined by two light links, all
    weights times 2^70 + 1.  At the minimum the hub's block carries two
    flows that merge before a flow that splits off the other cycle; just
    above it a flow splits first and the block's next flow names the
    violation from a fresh buffer."""
    big = 2**70 + 1
    edges = [(b + i, b + (i + 1) % 4) for b in (0, 4) for i in range(4) for _ in range(2)]
    g = Multigraph(8, tuple(edges + [(1, 4), (2, 5)]))
    w = [2 * big] * 16 + [2 * big, big]
    best = min_odd_cut_brute(g, w).value
    assert best == 8 * big
    flows, real = [], oddcuts._sink_side

    def recorded(*args):
        side = real(*args)
        flows.append(None if side is None else frozenset(side))
        return side

    monkeypatch.setattr(oddcuts, "_sink_side", recorded)
    for offset, trace in [
        (-1, [None, None, frozenset({4, 5, 6, 7}), None, None]),
        (0, [None, None, frozenset({4, 5, 6, 7}), None, None]),
        (1, [frozenset({1, 2, 4, 5, 6, 7}), frozenset({3})]),
    ]:
        bound = int(best) + offset
        flows.clear()
        side = _odd_cuts_at_least(g, w, bound)
        assert flows == trace
        assert side == odd_cuts_at_least_fresh_flows(g, w, bound)
        assert (side is None) is (best >= bound)
        if side is not None:
            assert len(side) % 2 == 1 and boundary_value(g, w, side) < bound


def test_tight_cuts_petersen_uniform():
    tights = tight_odd_cuts(petersen(), uniform(petersen(), 3).values)
    assert tights == (
        frozenset({1}),
        frozenset({1, 2, 3, 4, 5, 6, 7, 8, 9}),
        frozenset({2}),
        frozenset({3}),
        frozenset({4}),
        frozenset({5}),
        frozenset({6}),
        frozenset({7}),
        frozenset({8}),
        frozenset({9}),
    )


def test_tight_cuts_cap():
    g = prism(11)  # n = 22
    with pytest.raises(CapExceededError):
        tight_odd_cuts(g, [Fraction(1, 3)] * g.m)


def test_brute_force_cap():
    g = prism(13)  # n = 26 > exhaustive limit
    with pytest.raises(CapExceededError):
        min_odd_cut_brute(g, [1] * g.m)
    # the bisection on the flow decision has no such limit
    assert min_odd_cut(g, [1] * g.m).value == 3


def planted_ball(n, seed, size):
    """random_regular(n, 3, seed) with its first `size` vertices in BFS
    order from 0 (odd, connected) as a ball: its boundary edges weigh 1,
    every other edge 100, so no vertex star is light."""
    g = random_regular(n, 3, seed)
    ball, seen = [0], {0}
    for x in ball:
        for e in g.incident(x):
            y = sum(g.edges[e]) - x
            if y not in seen and len(ball) < size:
                seen.add(y)
                ball.append(y)
    light = g.boundary(ball)
    nums = [1 if e in light else 100 for e in range(g.m)]
    return g, nums, frozenset(ball)


@pytest.mark.parametrize("n", [200, 800])
def test_bisection_finds_a_planted_odd_ball_beyond_the_scan_limit(monkeypatch, n):
    g, nums, ball = planted_ball(n, 0, 15)
    decisions = []
    real = oddcuts._odd_cuts_at_least

    def counted(g, nums, bound):
        decisions.append(bound)
        return real(g, nums, bound)

    monkeypatch.setattr(oddcuts, "_odd_cuts_at_least", counted)
    res = min_odd_cut(g, nums)
    stars = [sum(nums[e] for e in g.incident(v)) for v in range(g.n)]
    assert res.value <= boundary_value(g, nums, ball) < min(stars)
    assert len(res.witness) % 2 == 1 and 0 not in res.witness
    assert boundary_value(g, nums, res.witness) == res.value
    assert 1 < len(decisions) <= min(stars).bit_length() + 1
    if n == 200:
        assert res.value == min_odd_cut_networkx(g, nums).value


def kernel_case(n, big):
    """A multigraph on n vertices with parallel edges, edges at vertex 0,
    an isolated vertex (n >= 3) and zero weights; with `big`, the weights
    total at least 2^62, beyond int64's safe range."""
    rng = random.Random(n)
    isolated = n // 2 if n >= 3 else None
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if isolated not in (u, v)]
    edges = [rng.choice(pairs) for _ in range(2 * n)] if pairs else []
    edges += edges[:2] + [(0, v) for v in (1, n - 1) if 0 < v < n and v != isolated]
    top = 1 << 62 if big else 5
    nums = [top, 0] + [rng.choice((0, 1, top - 1, top)) for _ in edges[2:]]
    return Multigraph(n, tuple(edges)), nums[: len(edges)]


@pytest.mark.parametrize("big", [False, True])
@pytest.mark.parametrize("n", range(1, 13))
def test_subset_code_kernels_match_oracles(n, big):
    g, nums = kernel_case(n, big)
    assert (sum(nums) >= 1 << 62) is big or n == 1
    cut = cut_values_by_code(g, nums)
    assert [int(x) for x in cut] == cut_values_oracle(g, nums)
    assert odd_subset_codes(n).tolist() == odd_codes_oracle(n)


@pytest.mark.parametrize("added", [False, True])
def test_odd_cut_tables_filter_the_oracle(added):
    for name, g, r in corpus():
        sizes, odd = cut_values_oracle(g, [1] * g.m), odd_codes_oracle(g.n)
        fam = [c for c in range(len(odd)) if odd[c] and r <= sizes[c] < r + 3]
        # with `added`, every edge once and the first half twice: a set's
        # crossing count is its cut value under these multiplicities
        ids = list(range(g.m)) + list(range(g.m // 2)) * 2 if added else []
        counts = [ids.count(e) for e in range(g.m)]
        codes, fam_sizes, cross = odd_cut_crossings(g, range(r, r + 3))
        assert codes.tolist() == fam, name
        assert fam_sizes.tolist() == [sizes[c] for c in fam], name
        assert [set(np.flatnonzero(row).tolist()) for row in cross] == [
            g.boundary(_decode(c)) for c in fam
        ], name
        crossed = cut_values_oracle(g, counts)
        assert (cross @ counts).tolist() == [crossed[c] for c in fam], name


def test_scale_weights():
    nums, den = scale_weights([Fraction(1, 2), Fraction(1, 3)], 2)
    assert (nums, den) == ([3, 2], 6)
    assert scale_weights([], 0) == ([], 1)
    with pytest.raises(ValueError, match="negative"):
        scale_weights([Fraction(-1, 2)], 1)
    with pytest.raises(ValueError, match="expected 3 weights"):
        scale_weights([1, 1], 3)


def test_odd_vertex_count_rejected():
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    with pytest.raises(ValueError, match="even vertex count"):
        min_odd_cut(g, [1, 1, 1])


def test_fewer_than_two_vertices_rejected():
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            min_odd_cut(Multigraph(n, ()), [])


def test_is_r_graph_positive():
    for g, r in [(petersen(), 3), (dipole(3), 3), (k33(), 3), (prism(6), 3)]:
        ok, res = is_r_graph(g, r)
        assert ok
        assert res.value >= r


def test_is_r_graph_negative():
    ok, res = is_r_graph(bridge_pair(), 3)
    assert not ok
    assert res.value == 1
    assert res.witness == {5, 6, 7, 8, 9}


def test_is_r_graph_odd_order():
    c5 = Multigraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    k5 = Multigraph(5, tuple(itertools.combinations(range(5), 2)))
    # the full vertex set's empty boundary meets r = 0, as it does at even n
    for g, r, expected in [(c5, 2, False), (k5, 4, False),
                           (Multigraph(1, ()), 0, True), (Multigraph(3, ()), 0, True)]:
        ok, res = is_r_graph(g, r)
        assert ok is expected
        assert res.value == 0
        assert res.witness == frozenset(range(g.n))


def test_private_routines_answer_odd_and_empty_orders():
    # the whole vertex set of an odd order is an odd side with empty boundary
    c5 = Multigraph(5, tuple((i, (i + 1) % 5) for i in range(5)))
    k5 = Multigraph(5, tuple(itertools.combinations(range(5), 2)))
    for g in (k5, c5, Multigraph(1, ()), Multigraph(3, ())):
        whole = frozenset(range(g.n))
        assert _odd_cuts_at_least(g, [1] * g.m, 1) == whole
        assert _odd_cuts_at_least(g, [1] * g.m, 0) is None
        assert _min_odd_cut(g, [1] * g.m) == OddCutResult(Fraction(0), whole)
    assert _odd_cuts_at_least(Multigraph(0, ()), [], 1) is None
    assert _min_odd_cut(Multigraph(0, ()), []) is None


def test_is_r_graph_empty_graph():
    assert is_r_graph(Multigraph(0, ()), 3) == (True, None)


def test_is_r_graph_requires_regularity():
    with pytest.raises(NotRegularError):
        is_r_graph(k33(), 4)


def test_random_regular_accepts_exactly_the_r_graphs(monkeypatch):
    # every loop-free pairing sample the generator decides on, is_r_graph judges
    samples = []
    real = generators._odd_cuts_at_least

    def recorded(g, nums, bound):
        samples.append((g, bound, real(g, nums, bound)))
        return samples[-1][2]

    monkeypatch.setattr(generators, "_odd_cuts_at_least", recorded)
    rejected = 0
    for r in (3, 4, 5):
        for n in range(6, 17, 2):
            for seed in range(4):
                samples.clear()
                g = random_regular(n, r, seed)
                assert samples[-1][0] is g
                for h, bound, side in samples:
                    assert bound == r
                    assert is_r_graph(h, r)[0] is (side is None)
                    assert (side is None) is (h is g)
                rejected += len(samples) - 1
    assert rejected > 0


def test_corpus_graphs_all_pass():
    for name, g, r in corpus():
        ok, _ = is_r_graph(g, r)
        assert ok, name
