"""Minimum odd edge cuts, tight-cut enumeration, and the r-graph test.

An odd cut is boundary(S) for a vertex set S of odd cardinality.
`_odd_cuts_at_least` decides whether every odd cut reaches a bound, by
Gomory-Hu contraction with flows stopped at the bound (1961), and names
an odd side below the bound if one exists.  The flows of one
contraction block augment one residual buffer, carried from each merge
to the next flow and reset on a split.  Every flow runs on the graph's
arc index (`Multigraph._arcs`); a decision only sets the capacities.
`_min_odd_cut`, the one route to the minimum, returns the report that
`min_odd_cut`, `is_r_graph` and `verify_membership` pass on: every
vertex star is an odd cut, so it bisects on the decision below the
lightest star.  The greedy cover, `random_regular`, `is_r_graph` (the
CLI's `check`) and `verify_membership` all go through the decision;
exact-lemma covers and decompositions take the side it names as a
cutting plane, and a decomposition's first passing decision proves
membership, so it calls `verify_membership` only for a non-member's
report.  Scales to every size this package targets.  The tests check
it against an exhaustive scan of every odd subset.

`tight_odd_cuts` and `odd_cut_crossings`, the cover's per-run audit
matrix, read every subset's exact cut value off `cut_values_by_code`,
built by doubling over the vertices in O(2^n), so they are limited to
n <= SCAN_LIMIT.

Rational weights are handled exactly by scaling to a common integer
denominator; no floats appear anywhere.  Witness sets are canonical:
the side of the cut not containing vertex 0, or the whole vertex set at
odd n.  `min_odd_cut` takes the lexicographically least sorted vertex
tuple among the minimizing vertex stars, else the side its last
decision named.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import CapExceededError, NotRegularError
from .multigraph import Multigraph

# The largest n of every exhaustive odd-subset scan: 2^(n-1) codes in memory.
SCAN_LIMIT = 20


@dataclass(frozen=True)
class OddCutResult:
    """An odd cut: exact value and the canonical witness side."""

    value: Fraction
    witness: frozenset[int]


def scale_weights(weights, m: int) -> tuple[list[int], int]:
    """Validate a weight vector and scale it to integers over a common denominator.

    Returns (numerators, denominator) with weight[i] == numerators[i]/denominator.
    Weights must be nonnegative rationals (Fraction, int, or anything
    Fraction accepts exactly) and there must be one per edge.
    """
    fr = [w if isinstance(w, (int, Fraction)) else Fraction(w) for w in weights]
    if len(fr) != m:
        raise ValueError(f"expected {m} weights, got {len(fr)}")
    for i, f in enumerate(fr):
        if f.numerator < 0:
            raise ValueError(f"weight of edge {i} is negative: {f}")
    den = lcm(*{f.denominator for f in fr})
    return [f.numerator * (den // f.denominator) for f in fr], den


def _stars(g: Multigraph, nums) -> list[int]:
    """Each vertex's weighted degree: the sum of nums over its star."""
    star = [0] * g.n
    for (u, v), x in zip(g.edges, nums):
        star[u] += x
        star[v] += x
    return star


def _canonical(n: int, side) -> frozenset[int]:
    """The side of the cut not containing vertex 0 (requires even n)."""
    s = frozenset(side)
    return frozenset(range(n)) - s if 0 in s else s


def _lex_key(s: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(s))


def _code_count(n: int) -> int:
    """The number 2^(n-1) of subset codes of {1..n-1}; n is at most SCAN_LIMIT."""
    if n > SCAN_LIMIT:
        raise CapExceededError(
            f"exhaustive odd-subset scan limited to n <= {SCAN_LIMIT}, got n = {n}"
        )
    return 1 << (n - 1)


def odd_subset_codes(n: int) -> np.ndarray:
    """Popcount-parity mask over the subset codes c < 2^(n-1) of {1..n-1}.

    Code c encodes the set {v : bit (v-1) of c is set}; vertex 0 is
    never a member, so for even n each odd cut appears exactly once.
    The mask is built by doubling, in O(2^n): code 2^(v-1) + c adds v to
    the set of c < 2^(v-1), so its parity is the negation of c's.  The
    odd codes, ascending, are `np.flatnonzero` of the mask.
    """
    odd = np.zeros(_code_count(n), dtype=bool)
    for v in range(1, n):
        size = 1 << (v - 1)
        np.logical_not(odd[:size], out=odd[size : 2 * size])
    return odd


def cut_values_by_code(g: Multigraph, nums: list[int]) -> np.ndarray:
    """Integer cut value (in numerator units) for every subset code of g.

    Built by doubling, in O(2^n + sum_v deg(v) 2^(v-1)): code 2^(v-1) + c
    adds v to the set of c < 2^(v-1), so its cut is cut[c] plus v's weighted
    degree, minus twice each edge from v to a member u >= 1 of that set (a
    strided view per lower neighbour).  Entries are int64, or exact Python
    integers when the totals could overflow int64.
    """
    wdeg = _stars(g, nums)
    lower: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (u, v), x in zip(g.edges, nums):
        if u != 0 and x != 0:
            lower[v][u] = lower[v].get(u, 0) + x
    big = sum(abs(x) for x in nums) >= 1 << 62
    cut = np.zeros(_code_count(g.n), dtype=object if big else np.int64)
    for v in range(1, g.n):
        size = 1 << (v - 1)
        half = cut[size : 2 * size]
        np.add(cut[:size], wdeg[v], out=half)
        for u, x in lower[v].items():
            half.reshape(-1, 1 << u)[:, 1 << (u - 1) :] -= 2 * x
    return cut


def _decode(code: int) -> frozenset[int]:
    c = int(code)
    return frozenset(v + 1 for v in range(c.bit_length()) if c >> v & 1)


def tight_odd_cuts(g: Multigraph, weights) -> tuple[frozenset[int], ...]:
    """All odd vertex sets S (canonical side) with weight(boundary(S)) == 1 exactly.

    Exhaustive by construction, so it raises CapExceededError beyond
    SCAN_LIMIT vertices.
    """
    _require_even(g)
    nums, den = scale_weights(weights, g.m)
    codes = np.flatnonzero(odd_subset_codes(g.n))
    cut = cut_values_by_code(g, nums)
    return tuple(sorted((_decode(c) for c in codes[cut[codes] == den]), key=_lex_key))


def odd_cut_crossings(g: Multigraph, family: range):
    """(codes, sizes, cross) of the odd sets of g whose cut size lies in
    `family`, for the cover's audit: codes ascend, and cross[i, e] says
    whether edge e crosses set i, so `cross @ counts` totals each set's
    crossings.  Sizes come from the O(2^n) doubling kernel, narrowed to
    the least dtype that holds m before filtering to keep peak memory low.
    """
    odd = odd_subset_codes(g.n)
    sizes = cut_values_by_code(g, [1] * g.m).astype(np.min_scalar_type(g.m))
    codes = np.flatnonzero(odd & (sizes >= family.start) & (sizes < family.stop))
    member = (codes[:, None] << 1 >> np.arange(g.n)) & 1  # vertex 0 is never a member
    tails, heads = [u for u, _ in g.edges], [v for _, v in g.edges]
    return codes, sizes[codes], member[:, tails] != member[:, heads]


def _require_even(g: Multigraph):
    if g.n < 2:
        raise ValueError("odd-cut analysis needs at least 2 vertices")
    if g.n % 2 != 0:
        raise ValueError("odd-cut analysis requires an even vertex count")


def min_odd_cut(g: Multigraph, weights) -> OddCutResult:
    """Minimum odd cut by bisection on the flow decision; the production path.

    The value always equals weight(boundary(witness)) exactly.  When a
    vertex star attains the minimum, the witness is the lex-least such
    star; else it is the side the last decision returned.
    """
    _require_even(g)
    return _min_odd_cut(g, *scale_weights(weights, g.m))


def _min_odd_cut(g: Multigraph, nums: list[int], den: int = 1) -> OddCutResult | None:
    """The minimum odd cut of g under the weights nums/den; None if n = 0.

    For odd n it is 0, at the whole vertex set, and for an edgeless
    graph of even n it is 0 at {1}, with no per-vertex list.  Else every
    vertex star
    is an odd cut, so the lightest star (lex-least canonical side on
    ties) bounds the minimum from above.  The decision at that bound,
    then bisection on it, find the exact value; each side a decision
    returns is a lighter cut and becomes the witness.  At most
    best.bit_length() + 1 decisions, for the star value best.
    """
    if g.n % 2:
        return OddCutResult(Fraction(0), frozenset(range(g.n)))
    if g.n == 0:
        return None
    if g.m == 0:  # every star weighs 0, and {1} is the lex-least side
        return OddCutResult(Fraction(0), frozenset({1}))
    best, witness = min((x, _lex_key(_canonical(g.n, {v}))) for v, x in enumerate(_stars(g, nums)))
    witness, low, bound = frozenset(witness), 0, best
    while low < best:
        side = _odd_cuts_at_least(g, nums, bound)
        if side is None:
            low = bound
        else:
            best = sum(nums[e] for e in g.boundary(side))
            witness = _canonical(g.n, side)
        bound = (low + best + 1) // 2
    return OddCutResult(Fraction(best, den), witness)


def _odd_cuts_at_least(g: Multigraph, nums: list[int], bound: int) -> frozenset[int] | None:
    """None if every odd cut weighs at least bound, else an odd vertex set
    whose boundary weighs less: Gomory-Hu's contraction method (1961)
    with flows stopped at bound.

    In a block lab[v] is v for an own vertex, the hub for one merged into
    it, and >= n in a contracted node.  The hub takes its heaviest own
    neighbour t.  If a flow from t reaches the bound, no cut below it
    separates them: t merges into the hub.  Else t's residual side is a
    cut below the bound: a violation if odd, else the block splits in
    two, each with the other side contracted.  Every cut below the bound
    is then a union of final hubs, each even as every split side was.

    Each block keeps one residual buffer `res` across its flows.  When t
    merges, the excess of the flow routed so far lies inside the hub, so
    for the next t it is a flow of value 0 that augmenting paths extend
    to a maximum one.  The vertices t reaches in the residual of any
    maximum flow are the least source side of a minimum cut, so a
    carried flow returns the side a fresh one would.  A split leaves t's
    excess in a contracted node, so the buffer starts again from cap.
    For odd n the whole vertex set is an odd side of empty boundary.
    """
    n = g.n
    if bound <= 0 or n == 0:
        return None
    if n % 2:
        return frozenset(range(n))
    head, out = g._arcs
    cap = [0] * len(head)
    cap[::2] = cap[1::2] = nums
    seen, pred = [None] * n, [0] * n  # _sink_side's search marks
    blocks, fresh = [(list(range(n)), 0, n)], n
    while blocks:
        lab, hub, left = blocks.pop()
        left -= 1  # own vertices not yet merged into the hub
        res = cap[:]
        groups: dict[int, list[int]] = {}
        if fresh > n:  # the first block has no contracted nodes
            for v in range(n):
                if lab[v] >= n:
                    groups.setdefault(lab[v], []).append(v)
        conn, heap = [0] * n, []  # weight from the hub to each own vertex

        def absorb(x):
            for a in out[x]:
                y = head[a]
                if lab[y] == y != hub and cap[a]:
                    conn[y] += cap[a]
                    heapq.heappush(heap, (-conn[y], y))

        absorb(hub)
        while left:
            while heap and (lab[heap[0][1]] != heap[0][1] or -heap[0][0] != conn[heap[0][1]]):
                heapq.heappop(heap)
            t = heap[0][1] if heap else next(v for v in range(n) if lab[v] == v != hub)
            side = None
            if conn[t] < bound:
                side = _sink_side(head, res, out, lab, groups, hub, t, bound, seen, pred)
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
            res = cap[:]
            if own > 1:
                blocks.append((t_lab, t, own))
    return None


def _sink_side(head, res, out, lab, groups, hub: int, t: int, bound: int, seen, pred):
    """None if an Edmonds-Karp flow from t into the vertices labelled hub
    reaches bound, else the vertices t reaches in the residual graph of a
    maximum flow: the same for every maximum flow.  Augments the residual
    capacities res in place, from whatever flow they hold, which must
    have no excess outside the hub.  A path enters a contracted node
    anywhere and leaves it from any vertex.  Each search marks the
    vertices it reaches with a token of its own in seen, and the arc
    that reached them in pred, so neither is cleared between searches."""
    n = len(lab)
    flow = 0
    for a in out[t]:
        if lab[head[a]] == hub:
            flow += res[a]
            res[a ^ 1], res[a] = res[a ^ 1] + res[a], 0
    while flow < bound:
        queue, end = [t], -1
        seen[t] = mark = object()
        for x in queue:
            for a in out[x]:
                if res[a]:
                    y = head[a]
                    if seen[y] is not mark:
                        seen[y], pred[y], node = mark, a, lab[y]
                        if node == hub:
                            end = y
                            break
                        queue.append(y)
                        if node >= n:
                            for z in groups[node]:
                                if seen[z] is not mark:
                                    seen[z] = mark
                                    pred[z] = a  # the path enters z's node by arc a
                                    queue.append(z)
            if end >= 0:
                break
        else:
            return queue
        f, y = bound - flow, end
        while y != t:
            a = pred[y]
            if res[a] < f:
                f = res[a]
            y = head[a ^ 1]
        while end != t:
            a = pred[end]
            res[a] -= f
            res[a ^ 1] += f
            end = head[a ^ 1]
        flow += f
    return None


def is_r_graph(g: Multigraph, r: int) -> tuple[bool, OddCutResult | None]:
    """Test the odd-cut condition: every odd cut has at least r edges.

    Requires g to be r-regular (raises NotRegularError otherwise).  The
    second component is `_min_odd_cut`'s report, the minimizing odd cut,
    which serves as the violation witness when the answer is False.  For
    odd n the full vertex set is an empty-boundary odd cut, so the
    answer is r <= 0.  The empty graph passes vacuously with no witness.
    """
    if not g.is_regular(r):
        raise NotRegularError(f"graph is not {r}-regular")
    cut = _min_odd_cut(g, [1] * g.m)
    return cut is None or cut.value >= r, cut
