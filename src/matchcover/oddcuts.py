"""Minimum odd edge cuts, tight-cut enumeration, and the r-graph test.

An odd cut is boundary(S) for a vertex set S of odd cardinality.  Two
routes are provided and kept deliberately independent:

* `min_odd_cut` is the production path: a Gomory-Hu tree per
  positive-weight component, then a scan of the odd fundamental cuts
  (Padberg-Rao: a minimum odd cut is always a fundamental cut of the
  tree).  The tree is Gusfield's, built on flat integer arc arrays with
  Edmonds-Karp flows; it equals the tree networkx's gomory_hu_tree
  builds.  Scales to every size this package targets.

* `min_odd_cut_brute` scans all odd subsets directly and is the oracle
  the production path is tested against.  It is exact and vectorized,
  but limited to small n.

Rational weights are handled exactly by scaling to a common integer
denominator; no floats appear anywhere.  Witness sets are canonical:
the side of the cut not containing vertex 0, with the lexicographically
least sorted vertex tuple among equal-value candidates.  The candidates
are all odd sets for `min_odd_cut_brute` but only the tree's odd
fundamental cuts for `min_odd_cut`, so their witnesses can differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .errors import CapExceededError, NotRegularError
from .multigraph import Multigraph

# Hard ceiling for the exhaustive scan: 2^(n-1) subset codes in memory.
BRUTE_LIMIT = 24


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
    fr = [Fraction(w) for w in weights]
    if len(fr) != m:
        raise ValueError(f"expected {m} weights, got {len(fr)}")
    for i, f in enumerate(fr):
        if f < 0:
            raise ValueError(f"weight of edge {i} is negative: {f}")
    den = lcm(*(f.denominator for f in fr)) if fr else 1
    return [int(f * den) for f in fr], den


def _canonical(n: int, side) -> frozenset[int]:
    """The side of the cut not containing vertex 0 (requires even n)."""
    s = frozenset(side)
    return frozenset(range(n)) - s if 0 in s else s


def _lex_key(s: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(s))


def _subset_codes(n: int) -> np.ndarray:
    nbits = n - 1
    if nbits > BRUTE_LIMIT - 1:
        raise CapExceededError(
            f"exhaustive odd-subset scan limited to n <= {BRUTE_LIMIT}, got n = {n}"
        )
    return np.arange(1 << nbits, dtype=np.uint32)


def odd_subset_codes(n: int):
    """Subset codes and popcount-parity mask for subsets of {1..n-1}.

    Code c encodes the set {v : bit (v-1) of c is set}; vertex 0 is
    never a member, so for even n each odd cut appears exactly once.
    """
    codes = _subset_codes(n)
    par = codes.copy()
    for shift in (1, 2, 4, 8, 16):
        par ^= par >> shift
    return codes, (par & 1).astype(bool)


def _add_crossings(table: np.ndarray, codes: np.ndarray, u: int, v: int, w: int = 1):
    """Add w to table[i] wherever edge (u, v), u < v, crosses the set of codes[i]."""
    bit = codes >> np.uint32(v - 1)
    if u != 0:  # vertex 0 is never a member
        bit ^= codes >> np.uint32(u - 1)
    bit &= np.uint32(1)
    table += bit if w == 1 else bit.astype(table.dtype) * w


def cut_values_by_code(g: Multigraph, nums: list[int]) -> np.ndarray:
    """Integer cut value (in numerator units) for every subset code of g.

    Falls back to exact Python integers if the totals could overflow int64.
    """
    codes = _subset_codes(g.n)
    total = sum(abs(x) for x in nums)
    if total < (1 << 62):
        cut = np.zeros(len(codes), dtype=np.int64)
        for eid, (u, v) in enumerate(g.edges):
            if nums[eid] != 0:
                _add_crossings(cut, codes, u, v, nums[eid])
        return cut
    # arbitrary-precision fallback, slow but exact
    out = np.empty(len(codes), dtype=object)
    for c in range(len(codes)):
        acc = 0
        for eid, (u, v) in enumerate(g.edges):
            inu = u != 0 and (c >> (u - 1)) & 1
            inv = (c >> (v - 1)) & 1
            if inu != inv:
                acc += nums[eid]
        out[c] = acc
    return out


def _decode(code: int) -> frozenset[int]:
    c = int(code)
    return frozenset(v + 1 for v in range(c.bit_length()) if c >> v & 1)


def min_odd_cut_brute(g: Multigraph, weights) -> OddCutResult:
    """Exhaustive minimum odd cut; the oracle path.  Requires even n >= 2."""
    _require_even(g)
    nums, den = scale_weights(weights, g.m)
    codes, odd = odd_subset_codes(g.n)
    cut = cut_values_by_code(g, nums)
    vals = cut[odd]
    best = vals.min()
    hit = codes[odd][cut[odd] == best]
    witness = min((_decode(c) for c in hit), key=_lex_key)
    return OddCutResult(Fraction(int(best), den), witness)


def tight_odd_cuts(g: Multigraph, weights, cap: int = 20) -> tuple[frozenset[int], ...]:
    """All odd vertex sets S (canonical side) with weight(boundary(S)) == 1 exactly.

    Exhaustive by construction, so n is capped; raises CapExceededError
    beyond `cap` vertices.
    """
    _require_even(g)
    if g.n > cap:
        raise CapExceededError(
            f"tight-cut enumeration needs an exhaustive scan; n = {g.n} exceeds cap {cap}"
        )
    nums, den = scale_weights(weights, g.m)
    codes, odd = odd_subset_codes(g.n)
    cut = cut_values_by_code(g, nums)
    return _decoded_sorted(codes[odd][cut[odd] == den])


def _decoded_sorted(codes) -> tuple[frozenset[int], ...]:
    """The vertex sets of subset codes, in lexicographic order of sorted tuples."""
    return tuple(sorted((_decode(c) for c in codes), key=_lex_key))


class _OddCutTables:
    """The odd sets of g with their cut sizes, scanned once, and the
    crossings of the edges added since, updated edge by edge.

    `fam_codes`, `fam_sizes` and `fam_sums` cover the odd sets whose cut
    size lies in `family`, in ascending code order; with `full`, `counts`
    holds the crossings of every odd set, for `tight`.  Sizes are at most
    m and counts at most `max_count`, which pick the narrow dtypes.
    """

    def __init__(self, g: Multigraph, family: range, max_count: int, full: bool):
        self.edges = g.edges
        codes, odd = odd_subset_codes(g.n)
        self.codes = codes[odd]
        self.sizes = cut_values_by_code(g, [1] * g.m)[odd].astype(np.min_scalar_type(g.m))
        count_type = np.min_scalar_type(max_count)
        fam = (self.sizes >= family.start) & (self.sizes < family.stop)
        self.fam_codes, self.fam_sizes = self.codes[fam], self.sizes[fam]
        self.fam_sums = np.zeros(len(self.fam_codes), dtype=count_type)
        self.counts = np.zeros(len(self.codes), dtype=count_type) if full else None

    def add(self, edge_ids):
        for e in edge_ids:
            u, v = self.edges[e]
            _add_crossings(self.fam_sums, self.fam_codes, u, v)
            if self.counts is not None:
                _add_crossings(self.counts, self.codes, u, v)

    def tight(self, a: int, b: int, d: int) -> tuple[frozenset[int], ...]:
        """Odd sets with a*size - b*count == d, the tight cuts of a weight
        that is (a - b*count)/d on every edge, sorted as tight_odd_cuts sorts."""
        val = self.sizes.astype(np.int64)
        val *= a
        used = self.counts.astype(np.int64)
        used *= b
        val -= used
        return _decoded_sorted(self.codes[val == d])


def _require_even(g: Multigraph):
    if g.n < 2:
        raise ValueError("odd-cut analysis needs at least 2 vertices")
    if g.n % 2 != 0:
        raise ValueError("odd-cut analysis requires an even vertex count")


def _positive_weight_components(g: Multigraph, nums: list[int]) -> list[set[int]]:
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


def _boundary_value(g: Multigraph, nums: list[int], side: frozenset[int]) -> int:
    return sum(
        nums[eid] for eid, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
    )


def min_odd_cut(g: Multigraph, weights) -> OddCutResult:
    """Minimum odd cut via Gomory-Hu trees; the production path.

    Works per component of the positive-weight subgraph: an odd
    component is itself a zero-value odd cut, and inside an even
    component the minimum odd cut is one of the tree's odd fundamental
    cuts.  Candidate values are recomputed directly from the graph, so
    the returned value always equals weight(boundary(witness)) exactly.
    The witness is lex-least among those cuts, not among all minimizers.
    """
    _require_even(g)
    nums, den = scale_weights(weights, g.m)
    candidates: list[tuple[int, frozenset[int]]] = []
    for comp in _positive_weight_components(g, nums):
        if len(comp) % 2 == 1:
            candidates.append((0, frozenset(comp)))
            continue
        tree = _gomory_hu_tree(g, nums, comp)
        for side in _odd_fundamental_sides(tree, comp):
            candidates.append((_boundary_value(g, nums, side), side))
    best = min(v for v, _ in candidates)
    witness = min(
        (_canonical(g.n, s) for v, s in candidates if v == best), key=_lex_key
    )
    return OddCutResult(Fraction(best, den), witness)


def _gomory_hu_tree(g: Multigraph, nums: list[int], comp: set[int]):
    """Gomory-Hu tree of comp as a child -> parent dict, exactly networkx's.

    Gusfield's method with networkx's vertex order (that of comp, from a
    star at its first vertex) and relabelling rules.  Arc a and its
    reverse a ^ 1 carry one edge, parallel edges summed into exact ints.
    """
    order = list(comp)
    index = {v: i for i, v in enumerate(order)}
    caps: dict[tuple[int, int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        if nums[eid] > 0 and u in index:
            key = (min(index[u], index[v]), max(index[u], index[v]))
            caps[key] = caps.get(key, 0) + nums[eid]
    head = [x for a, b in caps for x in (b, a)]
    cap = [c for c in caps.values() for _ in (0, 1)]
    out = [[] for _ in order]
    for arc in range(len(head)):
        out[head[arc ^ 1]].append(arc)
    tree = [0] * len(order)
    for source in range(1, len(order)):
        target = tree[source]
        sink = _sink_side(head, cap, out, source, target)
        for node in range(1, len(order)):
            if node != source and tree[node] == target and node not in sink:
                tree[node] = source
        if target != 0 and tree[target] not in sink:
            tree[source], tree[target] = tree[target], source
    return {order[i]: order[tree[i]] for i in range(1, len(order))}


def _sink_side(head, cap, out, s: int, t: int) -> set[int]:
    """The vertices that can reach t in the residual graph of a maximum s-t flow.

    networkx's minimum_cut puts all others on the source side; the set
    is the same for every maximum flow.  Edmonds-Karp pushes the flow
    from t to s, whose residual graph is the reverse of the s-t one, so
    the last, failing search from t reaches exactly this set.
    """
    res = cap[:]
    while True:
        pred, queue = [-1] * len(out), [t]
        pred[t] = t
        for x in queue:
            for a in out[x]:
                if res[a] and pred[head[a]] == -1:
                    pred[head[a]] = a
                    queue.append(head[a])
            if pred[s] != -1:
                break
        else:
            return set(queue)
        path, v = [], s
        while v != t:
            path.append(pred[v])
            v = head[pred[v] ^ 1]
        f = min(res[a] for a in path)
        for a in path:
            res[a] -= f
            res[a ^ 1] += f


def _odd_fundamental_sides(tree: dict[int, int], comp: set[int]):
    """Odd fundamental cut sides (those without min(comp)) of a child -> parent tree."""
    below = {v: {v} for v in comp}
    for v in tree:
        u = v
        while u in tree:
            u = tree[u]
            below[u].add(v)
    root = min(comp)
    for v in tree:
        if len(below[v]) % 2 == 1:
            yield frozenset(comp - below[v] if root in below[v] else below[v])


def is_r_graph(g: Multigraph, r: int) -> tuple[bool, OddCutResult | None]:
    """Test the odd-cut condition: every odd cut has at least r edges.

    Requires g to be r-regular (raises NotRegularError otherwise).  The
    second component is always the minimizing odd cut, which serves as
    the violation witness when the answer is False.  For odd n the full
    vertex set is an empty-boundary odd cut, so the answer is False
    outright.  The empty graph passes vacuously with no witness.
    """
    if not g.is_regular(r):
        raise NotRegularError(f"graph is not {r}-regular")
    if g.n == 0:
        return True, None
    if g.n % 2 == 1:
        return False, OddCutResult(Fraction(0), frozenset(range(g.n)))
    res = min_odd_cut(g, [1] * g.m)
    return res.value >= r, res
