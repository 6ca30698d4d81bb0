"""Loop-free multigraph with stable edge identities.

Edges are numbered 0..m-1 in input order and never renumbered; parallel
edges are distinct objects that happen to share endpoints.  Most of the
package manipulates edge ids, not endpoint pairs, because quantities
like per-edge usage counts and 0/1 coverage weights live on ids.

The edge-list text format:

    # comment and blank lines are ignored anywhere
    n m
    u v          (one line per edge, m lines, 0 <= u,v < n, u != v)

Vertices are 0..n-1.  Serialization emits the same format back with
edges in id order and endpoints written small-first, so a parse of a
serialize is the identity.

Each graph builds one arc index, on first use, for every routine that
walks it: edge k joins ends[2k] and ends[2k+1], arc p of edge p >> 1
leads to ends[p] from ends[p ^ 1], and a vertex lists its arcs in
edge-id order.  The blossom and the odd-cut flows of every call on the
graph read it; it holds structure only, never a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import EdgeListError


def _arc_index(n: int, edges) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(ends, out) of a loopless edge list on vertices 0..n-1: ends[2k]
    and ends[2k+1] are the endpoints of edge k, and out[v] lists, in
    edge-id order, the arcs p with ends[p ^ 1] == v."""
    ends = tuple(x for uv in edges for x in uv)
    out: list[list[int]] = [[] for _ in range(n)]
    for p in range(len(ends)):
        out[ends[p ^ 1]].append(p)
    return ends, tuple(map(tuple, out))


@dataclass(frozen=True)
class Multigraph:
    """Immutable multigraph. `edges[i]` is the endpoint pair of edge id i."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = []
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {i} endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {i} is a loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def _arcs(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The graph's arc index (ends, out), built once (see `_arc_index`)."""
        return _arc_index(self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._arcs[1][v])

    def incident(self, v: int) -> tuple[int, ...]:
        """Edge ids incident to v, ascending."""
        return tuple(p >> 1 for p in self._arcs[1][v])

    def boundary(self, s) -> frozenset[int]:
        """Edge ids with exactly one endpoint in the vertex set s."""
        sset = frozenset(s)
        for v in sset:
            if not (0 <= v < self.n):
                raise ValueError(f"vertex {v} out of range")
        return frozenset(
            i for i, (u, v) in enumerate(self.edges) if (u in sset) != (v in sset)
        )

    def is_regular(self, r: int) -> bool:
        """True when every vertex has degree exactly r (vacuously true for n=0);
        the degree sum 2m = rn is checked before the arc index is built,
        and an edgeless graph that passes it needs no index."""
        if r < 0:
            raise ValueError("degree must be nonnegative")
        return 2 * self.m == r * self.n and (
            self.m == 0 or all(len(arcs) == r for arcs in self._arcs[1])
        )


def parse_edge_list(text: str) -> Multigraph:
    """Parse edge-list text into a Multigraph.

    Raises EdgeListError with a one-line reason on any malformation:
    missing header, non-integer fields, wrong edge count, out-of-range
    endpoint, or a loop.
    """
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise EdgeListError("empty input: expected a header line 'n m'")
    hline, header = lines[0]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListError(f"line {hline}: header must be 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListError(f"line {hline}: header fields must be integers") from None
    if n < 0 or m < 0:
        raise EdgeListError(f"line {hline}: header values must be nonnegative")
    body = lines[1:]
    if len(body) != m:
        raise EdgeListError(
            f"header promises {m} edges but {len(body)} edge lines found"
        )
    edges = []
    for lineno, line in body:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(f"line {lineno}: edge line must be 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: edge endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(
                f"line {lineno}: endpoint out of range 0..{n - 1}: ({u}, {v})"
            )
        if u == v:
            raise EdgeListError(f"line {lineno}: loop at vertex {u} not allowed")
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


def serialize(g: Multigraph) -> str:
    """Canonical edge-list text: header, then edges in id order, small end first."""
    out = [f"{g.n} {g.m}"]
    out.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"
