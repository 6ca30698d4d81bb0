"""Perfect matchings: exhaustive enumeration and max-weight selection.

A Matching stores sorted edge ids only; the graph is passed where
needed.  `enumerate_perfect_matchings` lists every perfect matching
(complete, deterministic, capped); the exhaustive searches of `exact`
(`m_exact`, `excessive_index`, `bf_double_cover`) start from it.
`max_weight_perfect_matching` selects the greedy cover's matchings and
the terms of `fractional`'s decompositions: one call of this module's
own Edmonds blossom, on the edge list as given, with the weights scaled
to signed integers and perturbed by edge id.  Their unique maximum is
the lexicographically least maximum-weight perfect matching, so the
output never depends on how a solver breaks ties.  `_edge_uses` counts edges
over weighted matchings, the one check of every certificate made of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import CapExceededError, NoPerfectMatchingError
from .multigraph import Multigraph

PM_CAP = 100_000  # default limit of every perfect-matching enumeration


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, stored as a sorted edge-id tuple."""

    edge_ids: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", tuple(sorted(self.edge_ids)))

    def __len__(self) -> int:
        return len(self.edge_ids)


def _edge_uses(g: Multigraph, terms) -> list[int]:
    """Each edge's multiplicity in the (matching, multiplicity) pairs."""
    uses = [0] * g.m
    for mtch, mult in terms:
        for e in mtch.edge_ids:
            uses[e] += mult
    return uses


def enumerate_perfect_matchings(
    g: Multigraph, cap: int = PM_CAP
) -> tuple[Matching, ...]:
    """All perfect matchings, sorted by edge-id tuple.

    Depth-first search over the free (uncovered) vertices, held as an
    int bitmask: each state matches the lowest free vertex v to each
    free neighbour u, once per edge, so every matching appears once and
    parallel edges give distinct ones.  A state is kept only while each
    component of the free subgraph has even order (Tutte's condition),
    checked by one flood fill at the root.  Matching v to u can split
    only the component holding both, into pieces that each contain a
    free neighbour of v or u; floods from those neighbours check the
    pieces' parity and stop at the first that reaches them all.  Returns
    () at once when 2m < n.  Raises CapExceededError as soon as the count
    would pass `cap`, and NoPerfectMatchingError for odd n (for even n an
    empty result is a valid answer, not an error).
    """
    n = g.n
    if n % 2 != 0:
        raise NoPerfectMatchingError("perfect matchings need an even vertex count")
    if 2 * g.m < n:
        return ()
    nbrs = [0] * n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (neighbour, edge id)
    for e, (a, b) in enumerate(g.edges):
        nbrs[a] |= 1 << b
        nbrs[b] |= 1 << a
        adj[a].append((b, e))
        adj[b].append((a, e))

    def has_odd_piece(free: int, touch: int) -> bool:
        # Whether some component of `free` has odd order, given that each
        # meets `touch` and that together they have even order: a flood
        # that reaches all of `touch` left is the last one, so it is even.
        while touch & (touch - 1):
            reach = frontier = touch & -touch
            while frontier and touch & ~reach:
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= nbrs[low.bit_length() - 1]
                    frontier ^= low
                frontier = grow & free & ~reach
                reach |= frontier
            if frontier:
                return False
            if reach.bit_count() & 1:
                return True
            touch &= ~reach
        return False

    found: list[tuple[int, ...]] = []
    full = (1 << n) - 1
    stack = [] if has_odd_piece(full, full) else [(full, ())]
    while stack:
        free, chosen = stack.pop()
        if not free:
            if len(found) >= cap:
                raise CapExceededError(
                    f"perfect matching enumeration passed the cap of {cap}"
                )
            found.append(chosen)
            continue
        low = free & -free
        rest = free ^ low
        v = low.bit_length() - 1
        for u, e in adj[v]:
            bit = 1 << u
            if rest & bit:
                sub = rest ^ bit
                if not has_odd_piece(sub, (nbrs[v] | nbrs[u]) & sub):
                    stack.append((sub, chosen + (e,)))
    return tuple(Matching(ids) for ids in sorted(tuple(sorted(f)) for f in found))


def max_weight_perfect_matching(g: Multigraph, weights) -> Matching:
    """The lexicographically least maximum-weight perfect matching.

    One exact blossom call on W_e = x_e*2^m + 2^(m-1-e), where x is the
    weight vector, any rationals, scaled to signed integers over one
    common denominator.  The perturbations of a matching sum to less
    than 2^m, so they never reorder matchings of different weight; among
    equal weights they favour the largest edge-indicator vector read
    from edge 0, which for equal-size edge sets is the least sorted id
    tuple.  Distinct edge sets get distinct perturbations, so the
    maximum is unique.  The blossom gets every edge, parallel ones too,
    so its edge k is edge id k.  Raises ValueError unless there is one
    weight per edge, and NoPerfectMatchingError when no perfect matching
    exists (odd n included).
    """
    if g.n % 2 != 0:
        raise NoPerfectMatchingError("perfect matchings need an even vertex count")
    m, ws = g.m, [w if type(w) is int else Fraction(w) for w in weights]
    if len(ws) != m:
        raise ValueError(f"expected {m} weights, got {len(ws)}")
    den = lcm(*{w.denominator for w in ws})
    mate = _blossom(*g._arcs, [(w.numerator * (den // w.denominator) << m) + (1 << (m - 1 - e))
                               for e, w in enumerate(ws)])
    if mate is None:
        raise NoPerfectMatchingError("graph has no perfect matching")
    # edges run small end first, so mate[u] is odd at the small end u only
    return Matching(tuple(p >> 1 for p in mate if p & 1))


def _blossom(ends, adj, weight: list[int]) -> list[int] | None:
    """Maximum-weight perfect matching by Edmonds' primal-dual blossom method.

    Edge k of a loopless multigraph on vertices 0..n-1, n = len(adj),
    joins ends[2k] and ends[2k+1] with integer weight weight[k];
    endpoint p of edge p >> 1 sits at ends[p], and p ^ 1 is its far
    end.  adj[v] lists the endpoints p with ends[p ^ 1] == v, as
    `multigraph._arc_index` builds them.  Parallel edges need no care:
    each is scanned on its own.  Returns mate, where ends[mate[v]] is
    v's partner and mate[v] >> 1 the matched edge, or None when no
    perfect matching exists.

    One augmentation per stage.  Edge excesses dual[u] + dual[v] - 4w
    are read off the vertex duals, never cached.  Each dual step takes
    the least of the top-level T-blossoms' duals and, over the edges
    from the stage's S-vertices to other top-level blossoms, the excess
    into a free one and half the excess into an S one.  A step is
    O(n + m) and a stage takes O(n) of them, each followed by a label,
    shrink, expansion or augmentation, so the n/2 stages cost O(n^2 m),
    and O(n^3) on r-graphs of fixed r (m = rn/2).  Weights enter as 4w
    and vertex duals start even, so the excess between two S-vertices
    stays even and every dual stays an integer.  A greedy
    start on tight edges that is already perfect is returned at once:
    its duals are feasible and every matched edge is tight.
    Blossoms are n..2n-1; nested blossoms are expanded and augmented
    through explicit work lists, so nesting depth never meets the
    recursion limit.
    """
    n = len(adj)
    w4 = [w << 2 for w in weight]
    if not all(adj):
        return None
    # even starting duals, half of each vertex's heaviest edge, each
    # lowered until one of its edges is tight; the first tight edge to a
    # single vertex starts the matching
    top = [min(w4, default=0)] * n
    for u, v, x in zip(ends[::2], ends[1::2], w4):
        if top[u] < x:
            top[u] = x
        if top[v] < x:
            top[v] = x
    dual = [x >> 1 for x in top] + [0] * n
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            dv, pick = None, -1
            for p in adj[v]:
                u = ends[p]
                x = w4[p >> 1] - dual[u]
                if dv is None or x > dv:
                    dv, pick = x, p if mate[u] == -1 else -1
                elif x == dv and pick == -1 and mate[u] == -1:
                    pick = p
            dual[v] = dv
            if pick != -1:
                mate[v], mate[ends[pick]] = pick, pick ^ 1
    if -1 not in mate:
        return mate

    inblossom = list(range(n))  # top-level blossom of each vertex
    parent = [-1] * (2 * n)
    childs: list = [None] * (2 * n)  # sub-blossoms in cycle order, base first
    endps: list = [None] * (2 * n)  # endps[b][i]: end in childs[b][i] of its edge to the next
    leaves: list = [[v] for v in range(n)] + [None] * n
    base = list(range(n)) + [-1] * n
    label = [0] * (2 * n)  # 0 free, 1 S, 2 T; bit 4 marks a visit in scan
    labelend = [-1] * (2 * n)  # end (outside) of the edge a label came through
    free_ids = list(range(2 * n - 1, n - 1, -1))
    live: list[int] = []  # blossoms in use
    queue: list[int] = []
    svs: list[int] = []  # S-vertices of this stage

    def direction(cs, i):
        """Start index, step and end trick for the even way round the cycle
        cs from child i to the base: forward with wrap-around for odd i."""
        return (i - len(cs), 1, 0) if i & 1 else (i, -1, 1)

    def assign(w, t, p):
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labelend[w] = labelend[b] = p
            if t == 1:
                queue.extend(leaves[b])
                svs.extend(leaves[b])
                return
            # the T-blossom's base is matched: its mate's blossom turns S
            q = mate[base[b]]
            w, t, p = ends[q], 1, q ^ 1

    def scan(v, w):
        """Base of the blossom the S-S edge (v, w) closes, or -1 for a path."""
        path, found = [], -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                found = base[b]
                break
            path.append(b)
            label[b] = 5
            v = -1 if labelend[b] == -1 else ends[labelend[inblossom[ends[labelend[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(bs, q):
        """Shrink the cycle closed by the S-S edge with ends q, q ^ 1."""
        bb, bv, bw = inblossom[bs], inblossom[ends[q]], inblossom[ends[q ^ 1]]
        b = free_ids.pop()
        live.append(b)
        base[b], parent[b], parent[bb] = bs, -1, b
        path, eps = [], []
        while bv != bb:
            parent[bv] = b
            path.append(bv)
            eps.append(labelend[bv])
            bv = inblossom[ends[labelend[bv]]]
        path, eps = [bb] + path[::-1], eps[::-1] + [q]
        while bw != bb:
            parent[bw] = b
            path.append(bw)
            eps.append(labelend[bw] ^ 1)
            bw = inblossom[ends[labelend[bw]]]
        childs[b], endps[b] = path, eps
        label[b], labelend[b], dual[b] = 1, labelend[bb], 0
        lv = leaves[b] = [x for c in path for x in leaves[c]]
        for x in lv:
            if label[inblossom[x]] == 2:
                queue.append(x)  # former T-vertices are S now
                svs.append(x)
            inblossom[x] = b

    def expand(b0, endstage):
        """Dissolve blossom b0 (and, at the end of a stage, its zero-dual
        sub-blossoms); a T-blossom dissolved mid-stage relabels its parts."""
        work = [b0]
        while work:
            b = work.pop()
            for s in childs[b]:
                parent[s] = -1
                if s < n:
                    inblossom[s] = s
                elif endstage and dual[s] == 0:
                    work.append(s)
                else:
                    for x in leaves[s]:
                        inblossom[x] = s
            if not endstage and label[b] == 2:
                cs, es = childs[b], endps[b]
                entry = inblossom[ends[labelend[b] ^ 1]]
                j, step, trick = direction(cs, cs.index(entry))
                p = labelend[b]
                while j != 0:  # T- and S-sub-blossoms alternate to the base
                    assign(ends[p ^ 1], 2, p)
                    j += step
                    p = es[j - trick] ^ trick
                    j += step
                x = ends[p ^ 1]
                bv = cs[j]
                label[x] = label[bv] = 2
                labelend[x] = labelend[bv] = p
                j += step
                while cs[j] != entry:  # the rest becomes T where reached, else free
                    bv = cs[j]
                    j += step
                    if label[bv] == 1:
                        continue
                    for x in leaves[bv]:
                        if label[x]:
                            assign(x, 2, labelend[x])
                            break
            label[b] = 0
            labelend[b] = base[b] = -1
            childs[b] = endps[b] = leaves[b] = None
            free_ids.append(b)
            live.remove(b)

    def augment_blossom(b0, v0):
        """Flip the even alternating path from v0 to the base of b0 and
        make v0 the base, sub-blossom by sub-blossom."""
        work = [(b0, v0)]
        while work:
            b, v = work.pop()
            t = v
            while parent[t] != b:
                t = parent[t]
            if t >= n:
                work.append((t, v))
            cs, es = childs[b], endps[b]
            i = cs.index(t)
            j, step, trick = direction(cs, i)
            while j != 0:
                j += step
                p = es[j - trick] ^ trick
                if cs[j] >= n:
                    work.append((cs[j], ends[p]))
                j += step
                if cs[j] >= n:
                    work.append((cs[j], ends[p ^ 1]))
                mate[ends[p]], mate[ends[p ^ 1]] = p ^ 1, p
            childs[b] = cs[i:] + cs[:i]
            endps[b] = es[i:] + es[:i]
            base[b] = v

    def augment(k):
        """Flip the augmenting path through the S-S edge k, back to both roots."""
        for s, p in ((ends[2 * k], 2 * k + 1), (ends[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                bt = inblossom[ends[labelend[bs]]]
                p = labelend[bt]
                s, j = ends[p], ends[p ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = p
                p ^= 1

    while -1 in mate:
        # a stage: grow alternating trees from every single vertex until one
        # augmentation; in between, move duals to make new edges tight
        label[:] = [0] * (2 * n)
        queue.clear()
        svs.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign(v, 1, -1)
        augmented = False
        while not augmented:
            while queue and not augmented:
                v = queue.pop()
                dv = dual[v]
                for p in adj[v]:
                    w = ends[p]
                    bw = inblossom[w]
                    if inblossom[v] == bw:
                        continue
                    if dv + dual[w] <= w4[p >> 1]:
                        if label[bw] == 0:
                            assign(w, 2, p ^ 1)
                        elif label[bw] == 1:
                            bs = scan(v, w)
                            if bs >= 0:
                                add_blossom(bs, p ^ 1)
                            else:
                                augment(p >> 1)
                                augmented = True
                                break
                        elif label[w] == 0:  # reached inside a T-blossom
                            label[w] = 2
                            labelend[w] = p ^ 1
            if augmented:
                break
            # delta2: S to free vertex; delta3: half an S-S excess;
            # delta4: the dual of a T-blossom, which then expands
            found = [(dual[b], 4, b) for b in live if parent[b] == -1 and label[b] == 2]
            for v in svs:
                bv, dv = inblossom[v], dual[v]
                for p in adj[v]:
                    w = ends[p]
                    bw = inblossom[w]
                    if bw != bv and label[bw] != 2:
                        ks = dv + dual[w] - w4[p >> 1]
                        found.append((ks >> 1, 3, p >> 1) if label[bw] else (ks, 2, p >> 1))
            if not found:
                return None  # no tree can grow: the matching is maximum
            delta, kind, arg = min(found)
            if delta:
                for v in range(n):
                    t = label[inblossom[v]]
                    if t:
                        dual[v] += delta if t == 2 else -delta
                for b in live:
                    if parent[b] == -1 and label[b]:
                        dual[b] += delta if label[b] == 1 else -delta
            if kind == 4:
                expand(arg, False)
            else:
                v = ends[2 * arg]
                queue.append(v if label[inblossom[v]] == 1 else ends[2 * arg + 1])
        for b in list(live):
            if base[b] >= 0 and parent[b] == -1 and label[b] == 1 and dual[b] == 0:
                expand(b, True)
    return mate
