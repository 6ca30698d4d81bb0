"""Shared test corpus and frozen reference values.

The corpus is the fixed family every cross-cutting test sweeps: the
named graphs plus 20 seeded random r-graphs (r in {3, 4, 5}, n <= 16).
Seeds are frozen so every run sees the same graphs.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

import networkx as nx
import numpy as np
from networkx.algorithms.flow import edmonds_karp

from matchcover import (
    FractionalOneFactor,
    Multigraph,
    bridge_pair,
    dipole,
    fractional,
    greedy_cover,
    k4,
    k33,
    petersen,
    prism,
    random_regular,
    w_k_entry,
)
from matchcover.errors import CapExceededError, NoPerfectMatchingError
from matchcover.matching import (
    Matching,
    enumerate_perfect_matchings,
    max_weight_perfect_matching,
)
from matchcover.oddcuts import (
    OddCutResult,
    _canonical,
    _decode,
    _lex_key,
    _require_even,
    cut_values_by_code,
    odd_subset_codes,
    scale_weights,
    tight_odd_cuts,
)

RANDOM_SPECS = (
    (8, 3, 101), (10, 3, 102), (12, 3, 103), (12, 3, 104),
    (14, 3, 105), (14, 3, 106), (16, 3, 107), (16, 3, 108),
    (8, 4, 201), (8, 4, 202), (10, 4, 203), (10, 4, 204),
    (12, 4, 205), (12, 4, 206), (14, 4, 207),
    (6, 5, 301), (8, 5, 302), (8, 5, 303), (10, 5, 304), (10, 5, 305),
)


@lru_cache(maxsize=1)
def corpus() -> tuple[tuple[str, Multigraph, int], ...]:
    """(name, graph, r) triples; every graph is an r-graph by construction."""
    named = [
        ("petersen", petersen(), 3),
        ("k4", k4(), 3),
        ("k33", k33(), 3),
        ("dipole3", dipole(3), 3),
        ("dipole4", dipole(4), 4),
        ("dipole5", dipole(5), 5),
        ("dipole6", dipole(6), 6),
        ("prism3", prism(3), 3),
        ("prism4", prism(4), 3),
        ("prism5", prism(5), 3),
        ("prism6", prism(6), 3),
        ("prism7", prism(7), 3),
    ]
    rand = [
        (f"random_r{r}_n{n}_s{seed}", random_regular(n, r, seed), r)
        for n, r, seed in RANDOM_SPECS
    ]
    return tuple(named + rand)


CORPUS_IDS = [name for name, _, _ in corpus()]


def w_k(r: int, k: int, counts) -> FractionalOneFactor:
    """The greedy cover's usage-count vector at step k: `bounds.w_k_entry`
    of each edge's count among the k-1 matchings so far (w_1 = 1/r)."""
    return FractionalOneFactor(tuple(w_k_entry(r, k, c) for c in counts))


def fast_cover_step_vectors(g: Multigraph, r: int, k: int):
    """The usage vector w_1, ..., w_k of every step of a fast greedy cover."""
    counts = [0] * g.m
    for step, m in enumerate(greedy_cover(g, r, k).matchings, 1):
        yield w_k(r, step, counts)
        for e in m.edge_ids:
            counts[e] += 1


# The full bound table: (r, k) -> (reduced rational, decimal string, exact flag).
# Values recomputed from the product formula by every table test; frozen here
# so a formula regression cannot silently agree with itself.
BOUND_TABLE = {
    (3, 2): ("3/5", "0.6", True),
    (3, 3): ("27/35", "0.7714", False),
    (3, 4): ("55/63", "0.873", False),
    (3, 5): ("215/231", "0.9307", False),
    (3, 6): ("413/429", "0.9627", False),
    (3, 7): ("6307/6435", "0.9801", False),
    (3, 8): ("12027/12155", "0.9895", False),
    (3, 9): ("45933/46189", "0.9945", False),
    (4, 2): ("9/20", "0.45", True),
    (4, 3): ("3/5", "0.6", True),
    (4, 4): ("103/145", "0.7103", False),
    (4, 5): ("344/435", "0.7908", False),
    (4, 6): ("15884/18705", "0.8492", False),
    (4, 7): ("138949/155875", "0.8914", False),
    (4, 8): ("2730303/2961625", "0.9219", False),
    (4, 9): ("44725797/47386000", "0.9439", False),
    (5, 2): ("13/35", "0.3714", False),
    (5, 3): ("409/805", "0.5081", False),
    (5, 4): ("793/1288", "0.6157", False),
    (5, 5): ("4621/6601", "0.7", False),
    (5, 6): ("25283/33005", "0.766", False),
    (5, 7): ("69221/84665", "0.8176", False),
    (5, 8): ("1234672/1439305", "0.8578", False),
    (5, 9): ("1791791/2015027", "0.8892", False),
}

# Every perfect matching of the Petersen graph, by edge id.
PETERSEN_PMS = (
    (0, 2, 9, 10, 11),
    (0, 3, 7, 13, 14),
    (1, 3, 5, 11, 12),
    (1, 4, 8, 10, 14),
    (2, 4, 6, 12, 13),
    (5, 6, 7, 8, 9),
)

# Best k-cover fractions of the Petersen graph (exhaustive search).
PETERSEN_M_EXACT = {
    1: Fraction(1, 3),
    2: Fraction(3, 5),
    3: Fraction(4, 5),
    4: Fraction(14, 15),
    5: Fraction(1),
}


def cut_values_oracle(g: Multigraph, nums) -> list[int]:
    """Oracle for `cut_values_by_code`: for every subset code c of
    {1..n-1} (vertex v is in the set when bit v-1 of c is set), the sum
    of nums over the edges with exactly one endpoint in the set."""
    out = []
    for c in range(1 << (g.n - 1)):
        side = {v for v in range(1, g.n) if c >> (v - 1) & 1}
        out.append(sum(x for (u, v), x in zip(g.edges, nums) if (u in side) != (v in side)))
    return out


def odd_codes_oracle(n: int) -> list[bool]:
    """Oracle for `odd_subset_codes`' mask: whether each code has odd popcount."""
    return [bin(c).count("1") % 2 == 1 for c in range(1 << (n - 1))]


def positive_weight_components(g: Multigraph, nums: list[int]) -> list[set[int]]:
    """Connected components of the subgraph of positive-weight edges."""
    adj = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if nums[eid] > 0:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = {start}
        seen[start] = True
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def boundary_value(g: Multigraph, nums: list[int], side: frozenset[int]) -> int:
    return sum(
        nums[eid] for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
    )


def fundamental_sides_networkx(g: Multigraph, nums: list[int], comp: set[int]):
    """The fundamental cut sides of networkx's Gomory-Hu tree of comp
    (Edmonds-Karp flows), each the subtree below a vertex when the tree
    is rooted at min(comp)."""
    gh = nx.Graph()
    gh.add_nodes_from(comp)
    for eid, (u, v) in enumerate(g.edges):
        if nums[eid] > 0 and u in comp:
            if gh.has_edge(u, v):
                gh[u][v]["capacity"] += nums[eid]
            else:
                gh.add_edge(u, v, capacity=nums[eid])
    tree = nx.gomory_hu_tree(gh, flow_func=edmonds_karp)
    parent = dict(nx.bfs_predecessors(tree, min(comp)))  # in BFS order
    below = {v: {v} for v in comp}
    for v in reversed(parent):
        below[parent[v]] |= below[v]
    return [frozenset(below[v]) for v in parent]


def min_odd_cut_networkx(g: Multigraph, weights) -> OddCutResult:
    """Oracle for `min_odd_cut`'s value: Padberg-Rao's scan of the odd
    fundamental cuts of networkx's Gomory-Hu tree, per positive-weight
    component (an odd component is a zero-value cut).  The witness is
    lex-least among those candidates."""
    _require_even(g)
    nums, den = scale_weights(weights, g.m)
    candidates = []
    for comp in positive_weight_components(g, nums):
        if len(comp) % 2 == 1:
            candidates.append((0, frozenset(comp)))
            continue
        for side in fundamental_sides_networkx(g, nums, comp):
            if len(side) % 2 == 1:
                candidates.append((boundary_value(g, nums, side), side))
    best = min(v for v, _ in candidates)
    witness = min(
        (_canonical(g.n, s) for v, s in candidates if v == best), key=_lex_key
    )
    return OddCutResult(Fraction(best, den), witness)


def solve_nonneg_fraction(A, b) -> list[Fraction] | None:
    """Oracle for `lpfeas.solve_nonneg`: the same phase-1 Bland simplex on
    a dense `Fraction` tableau (row divided by the pivot, then eliminated).
    The integer-preserving solver must return the identical list."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if any(len(row) != cols for row in A):
        raise ValueError("ragged constraint matrix")
    if len(b) != rows:
        raise ValueError("right-hand side length mismatch")
    if rows == 0:
        return []

    # tableau: real columns, then one artificial per row, then the rhs
    tab = []
    for i in range(rows):
        line = [Fraction(x) for x in A[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            line = [-x for x in line]
            rhs = -rhs
        line += [Fraction(0)] * rows
        line[cols + i] = Fraction(1)
        line.append(rhs)
        tab.append(line)
    width = cols + rows
    basis = [cols + i for i in range(rows)]

    # reduced-cost row for minimizing the artificial sum
    obj = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        obj[j] = -sum(tab[i][j] for i in range(rows))
    for i in range(rows):
        obj[cols + i] += 1  # cost of each artificial

    while True:
        enter = next((j for j in range(width) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(rows):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            # phase-1 objective is bounded below by 0, so this cannot happen
            raise AssertionError("unbounded phase-1 objective")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(rows):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [a - f * c for a, c in zip(obj, tab[leave])]
        basis[leave] = enter

    artificial_total = -obj[width]
    if artificial_total != 0:
        return None
    x = [Fraction(0)] * cols
    for i, bv in enumerate(basis):
        if bv < cols:
            x[bv] = tab[i][width]
    return x


def max_weight_perfect_matching_networkx(g: Multigraph, weights) -> Matching:
    """Oracle for `matching.max_weight_perfect_matching`: the same
    id-perturbed weights and parallel-edge reduction, solved by networkx's
    `max_weight_matching`.  The perturbed optimum is unique, so the two
    routes must return the identical matching."""
    if g.n % 2 != 0:
        raise NoPerfectMatchingError("perfect matchings need an even vertex count")
    fr = [Fraction(w) for w in weights]
    low = min(fr, default=0)
    nums, _ = scale_weights([f - low for f in fr], g.m)
    best: dict[tuple[int, int], tuple[int, int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        pw = (nums[eid] << g.m) + (1 << (g.m - 1 - eid))
        if (u, v) not in best or pw > best[(u, v)][0]:
            best[(u, v)] = (pw, eid)
    sim = nx.Graph()
    sim.add_nodes_from(range(g.n))
    for (u, v), (pw, _) in best.items():
        sim.add_edge(u, v, weight=pw)
    mate = nx.max_weight_matching(sim, maxcardinality=True)
    if 2 * len(mate) < g.n:
        raise NoPerfectMatchingError("graph has no perfect matching")
    return Matching(tuple(best[(min(u, v), max(u, v))][1] for u, v in mate))


def enumerate_perfect_matchings_dfs(
    g: Multigraph, cap: int = 100_000
) -> tuple[Matching, ...]:
    """Oracle for `matching.enumerate_perfect_matchings`: branch on the
    lowest uncovered vertex and, at every state, run a full DFS over the
    uncovered subgraph, pruning when any component has odd order.  The
    same tuple, the same cap and the same errors as the production route."""
    if g.n % 2 != 0:
        raise NoPerfectMatchingError("perfect matchings need an even vertex count")
    if g.n == 0:
        return (Matching(()),)
    covered = [False] * g.n
    chosen: list[int] = []
    found: list[tuple[int, ...]] = []

    def residual_feasible() -> bool:
        # every component of the uncovered subgraph must have even order
        seen = [False] * g.n
        for start in range(g.n):
            if covered[start] or seen[start]:
                continue
            size = 0
            stack = [start]
            seen[start] = True
            while stack:
                x = stack.pop()
                size += 1
                for e in g.incident(x):
                    y = sum(g.edges[e]) - x
                    if not covered[y] and not seen[y]:
                        seen[y] = True
                        stack.append(y)
            if size % 2 != 0:
                return False
        return True

    def rec():
        v = next((x for x in range(g.n) if not covered[x]), None)
        if v is None:
            if len(found) >= cap:
                raise CapExceededError(
                    f"perfect matching enumeration passed the cap of {cap}"
                )
            found.append(tuple(chosen))
            return
        if not residual_feasible():
            return
        covered[v] = True
        for e in g.incident(v):
            u = sum(g.edges[e]) - v
            if covered[u]:
                continue
            covered[u] = True
            chosen.append(e)
            rec()
            chosen.pop()
            covered[u] = False
        covered[v] = False

    rec()
    return tuple(Matching(ids) for ids in sorted(tuple(sorted(f)) for f in found))


def perfect_matchings_brute(g: Multigraph) -> tuple[Matching, ...]:
    """Oracle for small graphs: every n/2-subset of edge ids, in
    lexicographic order, kept when it covers all n vertices."""
    return tuple(
        Matching(ids)
        for ids in itertools.combinations(range(g.m), g.n // 2)
        if len({x for e in ids for x in g.edges[e]}) == g.n
    )


def exact_lemma_pick_enumerated(g: Multigraph, w, covered) -> Matching:
    """Oracle for exact-lemma `greedy_cover`'s pick at usage vector w with
    the edge ids in `covered` already covered: enumerate every perfect
    matching, keep those crossing each tight cut of w exactly once, and
    take the first of most uncovered edges in sorted edge-id order."""
    cut_masks = [sum(1 << e for e in g.boundary(s)) for s in tight_odd_cuts(g, w.values)]
    uncovered = ~sum(1 << e for e in covered)
    chosen, best_gain = None, -1
    for pm in enumerate_perfect_matchings(g):
        mask = sum(1 << e for e in pm.edge_ids)
        if any((mask & c).bit_count() != 1 for c in cut_masks):
            continue
        gain = (mask & uncovered).bit_count()
        if gain > best_gain:
            chosen, best_gain = pm, gain
    return chosen


def bf_double_cover_per_edge(g: Multigraph, r: int, cap: int = 100_000):
    """Oracle for `exact.bf_double_cover`: the same depth-first search
    over multiplicities 2, 1, 0 per matching, kept on per-edge counts.
    need[e] is how many more times edge e must be covered and avail[j][e]
    twice the number of matchings of index >= j holding e; a node is cut
    when some need exceeds its availability.  Returns (found, matchings
    or None, pm_count, nodes), which must equal the production result."""
    pms = enumerate_perfect_matchings(g, cap)
    need = [2] * g.m
    avail = [[0] * g.m for _ in range(len(pms) + 1)]
    for j in range(len(pms) - 1, -1, -1):
        row = avail[j + 1][:]
        for e in pms[j].edge_ids:
            row[e] += 2
        avail[j] = row

    picked: list[tuple[int, int]] = []  # (pm index, multiplicity) for 0..j-1
    nodes = 0
    below = 3  # multiplicities below this are still to try at j
    while True:
        j = len(picked)
        if below == 3:  # a new node
            nodes += 1
            if not any(need):
                break
            if any(x > y for x, y in zip(need, avail[j])):  # also ends j == len(pms)
                below = 0
        t = next((t for t in (2, 1, 0) if t < below
                  and all(need[e] >= t for e in pms[j].edge_ids)), None)
        if t is not None:
            for e in pms[j].edge_ids:
                need[e] -= t
            picked.append((j, t))
            below = 3
        elif picked:
            j, below = picked.pop()
            for e in pms[j].edge_ids:
                need[e] += below
        else:
            break

    if any(need):
        return False, None, len(pms), nodes
    out = tuple(pms[j] for j, t in picked for _ in range(t))
    return True, out, len(pms), nodes


def best_subset_recursive(pms, kk: int, per: int, floor: int):
    """Oracle for `exact._first_subset` on the masks of `pms`: the most
    edges a union of kk of them covers, and the lexicographically least
    index subset doing so, by an include-first branch and bound that
    recurses once per pick and cuts a branch whose union bound or count
    bound cannot beat the best so far.  Returns (best, witness), or
    (floor, ()) when no subset covers more than floor edges."""
    masks = [sum(1 << e for e in pm.edge_ids) for pm in pms]
    suf = [0] * (len(masks) + 1)
    for j in range(len(masks) - 1, -1, -1):
        suf[j] = suf[j + 1] | masks[j]
    best = floor
    best_sel: tuple[int, ...] = ()
    sel: list[int] = []

    def rec(idx: int, depth: int, cur: int):
        nonlocal best, best_sel
        if depth == kk:
            pc = cur.bit_count()
            if pc > best:
                best = pc
                best_sel = tuple(sel)
            return
        remaining = kk - depth
        if len(masks) - idx < remaining:
            return
        ub = (cur | suf[idx]).bit_count()
        cheap = cur.bit_count() + remaining * per
        if cheap < ub:
            ub = cheap
        if ub <= best:
            return
        for j in range(idx, len(masks) - remaining + 1):
            sel.append(j)
            rec(j + 1, depth + 1, cur | masks[j])
            sel.pop()

    rec(0, 0, 0)
    return best, best_sel


def _pick_in_face(g: Multigraph, nums: list[int], d: int, gains) -> Matching:
    """The least maximum of `gains` (penalised in place) crossing every
    tight cut of w = nums/d once, by the exact-lemma decision: with
    K = n+1, every odd cut of K*nums - chi_M weighs at least K*d - 1
    iff M crosses each tight cut once, and a side below that bound is a
    tight cut M crosses 3 or more times, which becomes a cutting plane."""
    big, penalised = g.n + 1, set()
    while True:
        chosen = max_weight_perfect_matching(g, gains)
        y = [big * x for x in nums]
        for e in chosen.edge_ids:
            y[e] -= 1
        side = fractional._odd_cuts_at_least(g, y, big * d - 1)
        if side is None:
            return chosen
        cut = g.boundary(side)
        assert cut not in penalised and sum(nums[e] for e in cut) == d
        penalised.add(cut)
        for e in cut:
            gains[e] -= big


def decompose_pick_then_step(g: Multigraph, w) -> tuple[tuple[Matching, Fraction], ...]:
    """Oracle for `fractional.decompose`'s terms: each peel first proves
    its pick in the minimal face with the exact-lemma decision at
    lam = 1/((n+1)d), with fresh gains and no cutting planes, then takes
    Dinkelbach's steps from lam = min over M of w, deciding again.  Both
    decisions go through `fractional._odd_cuts_at_least`, so a test can
    count them.  w must be a member; the terms come sorted by edge-id
    tuple."""
    nums, d = scale_weights(w.values, g.m)
    rest, terms = Fraction(1), []
    while True:
        chosen = _pick_in_face(g, nums, d, [0 if x else -1 for x in nums])
        on = frozenset(chosen.edge_ids)
        p, q = min((nums[e] for e in on), default=d), d
        while p < q:
            y = [q * x - p * d if e in on else q * x for e, x in enumerate(nums)]
            side = fractional._odd_cuts_at_least(g, y, (q - p) * d)
            if side is None:
                break
            cut = g.boundary(side)
            p, q = sum(nums[e] for e in cut) - d, d * (len(cut & on) - 1)
        terms.append((chosen, rest * Fraction(p, q)))
        if p == q:
            break
        rest *= Fraction(q - p, q)
        div = gcd((q - p) * d, *y)
        nums, d = [x // div for x in y], (q - p) * d // div
    return tuple(sorted(terms, key=lambda t: t[0].edge_ids))


def min_odd_cut_brute(g: Multigraph, weights) -> OddCutResult:
    """Exhaustive minimum odd cut over every odd subset, the oracle for
    `oddcuts.min_odd_cut`.  Requires even n >= 2 and n <= SCAN_LIMIT."""
    _require_even(g)
    nums, den = scale_weights(weights, g.m)
    codes = np.flatnonzero(odd_subset_codes(g.n))
    cut = cut_values_by_code(g, nums)
    vals = cut[codes]
    best = vals.min()
    hit = codes[vals == best]
    witness = min((_decode(c) for c in hit), key=_lex_key)
    return OddCutResult(Fraction(int(best), den), witness)


def odd_cuts_at_least_fresh_flows(g: Multigraph, nums: list[int], bound: int) -> frozenset[int] | None:
    """Oracle for `oddcuts._odd_cuts_at_least`, with every flow started
    from the bare capacities.  None if every odd cut weighs at least
    bound, else an odd vertex set whose boundary weighs less: Gomory-Hu's
    contraction method (1961) with flows stopped at bound.

    In a block lab[v] is v for an own vertex, the hub for one merged into
    it, and >= n in a contracted node.  The hub takes its heaviest own
    neighbour t.  If a flow from t reaches the bound, no cut below it
    separates them: t merges into the hub.  Else t's residual side is a
    cut below the bound: a violation if odd, else the block splits in
    two, each with the other side contracted.  Every cut below the bound
    is then a union of final hubs, each even as every split side was.
    """
    if bound <= 0:
        return None
    n = g.n
    head, cap, out = _fresh_flow_arcs(g, nums)
    blocks, fresh = [(list(range(n)), 0)], n
    while blocks:
        lab, hub = blocks.pop()
        groups: dict[int, list[int]] = {}
        for v in range(n):
            if lab[v] >= n:
                groups.setdefault(lab[v], []).append(v)
        conn, heap = [0] * n, []  # weight from the hub to each own vertex

        def absorb(x):
            for a in out[x]:
                y = head[a]
                if lab[y] == y != hub:
                    conn[y] += cap[a]
                    heapq.heappush(heap, (-conn[y], y))

        absorb(hub)
        left = sum(lab[v] == v for v in range(n)) - 1
        while left:
            while heap and (lab[heap[0][1]] != heap[0][1] or -heap[0][0] != conn[heap[0][1]]):
                heapq.heappop(heap)
            t = heap[0][1] if heap else next(v for v in range(n) if lab[v] == v != hub)
            side = None
            if conn[t] < bound:
                side = _fresh_sink_side(head, cap, out, lab, groups, hub, t, bound)
            if side is None:
                lab[t] = hub
                absorb(t)
                left -= 1
                continue
            if len(side) % 2:
                return frozenset(side)
            own = sum(lab[v] == v for v in side)
            t_lab = [fresh + 1] * n
            for v in side:
                t_lab[v], lab[v] = lab[v], fresh
            groups[fresh] = side
            fresh, left = fresh + 2, left - own
            if own > 1:
                blocks.append((t_lab, t))
    return None


def _fresh_flow_arcs(g: Multigraph, nums: list[int]):
    """Arcs (head, cap, out) of g's positive edges: arc a and its reverse
    a ^ 1 carry one edge each way, parallel edges in pairs of their own."""
    pos = [(uv, x) for uv, x in zip(g.edges, nums) if x > 0]
    head = [x for (a, b), _ in pos for x in (b, a)]
    cap = [x for _, x in pos for _ in (0, 1)]
    out = [[] for _ in range(g.n)]
    for arc in range(len(head)):
        out[head[arc ^ 1]].append(arc)
    return head, cap, out


def _fresh_sink_side(head, cap, out, lab, groups, hub: int, t: int, bound: int):
    """None if an Edmonds-Karp flow from t into the vertices labelled hub
    reaches bound, else the vertices t reaches in the residual graph of a
    maximum flow: the same for every maximum flow.  A path enters a
    contracted node anywhere and leaves it from any vertex."""
    n = len(lab)
    res = cap[:]
    flow = 0
    for a in out[t]:
        if lab[head[a]] == hub:
            flow += res[a]
            res[a ^ 1], res[a] = res[a ^ 1] + res[a], 0
    while flow < bound:
        pred, queue, end = [-1] * n, [t], -1
        pred[t] = -2
        for x in queue:
            for a in out[x]:
                y = head[a]
                if res[a] and pred[y] == -1:
                    pred[y], node = a, lab[y]
                    if node == hub:
                        end = y
                        break
                    queue.append(y)
                    if node >= n:
                        for z in groups[node]:
                            if pred[z] == -1:
                                pred[z] = a  # the path enters z's node by arc a
                                queue.append(z)
            if end >= 0:
                break
        else:
            return queue
        path = []
        while end != t:
            path.append(pred[end])
            end = head[pred[end] ^ 1]
        f = min(res[a] for a in path)
        for a in path:
            res[a] -= f
            res[a ^ 1] += f
        flow += f
    return None


def max_weight_value(g: Multigraph, weights) -> Fraction | None:
    """Maximum total weight of a perfect matching, or None if none exists."""
    try:
        m = max_weight_perfect_matching(g, weights)
    except NoPerfectMatchingError:
        return None
    return sum((weights[e] for e in m.edge_ids), Fraction(0))


def is_perfect_matching(g: Multigraph, m: Matching) -> bool:
    """Every vertex covered exactly once, by edge ids of g."""
    seen = set()
    for e in m.edge_ids:
        if not 0 <= e < g.m:
            return False
        u, v = g.edges[e]
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return len(seen) == g.n


def reconstruction(g: Multigraph, dec) -> tuple[Fraction, ...]:
    """The vector a decomposition stands for: the sum of its coefficients
    times the indicator vectors of its matchings, edge by edge."""
    out = [Fraction(0)] * g.m
    for m, c in dec.terms:
        for e in m.edge_ids:
            out[e] += c
    return tuple(out)


def covered_vertices(m: Matching, g: Multigraph) -> frozenset[int]:
    """The vertices the edges of m touch."""
    return frozenset(x for e in m.edge_ids for x in g.edges[e])
