"""Named test-graph generators.

All generators fix their edge-id order explicitly, because ids feed
every downstream tie-break.  `random_regular` is the only stochastic
one and is deterministic given a seed.
"""

from __future__ import annotations

import random

from .errors import GeneratorError
from .multigraph import Multigraph
from .oddcuts import _odd_cuts_at_least

# Pairing-model samples `random_regular` draws before it gives up.
_ATTEMPTS = 2000


def petersen() -> Multigraph:
    """The Petersen graph: outer 5-cycle 0..4, spokes, inner pentagram 5..9."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph(10, tuple(edges))


def k4() -> Multigraph:
    return Multigraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def k33() -> Multigraph:
    return Multigraph(6, tuple((i, 3 + j) for i in range(3) for j in range(3)))


def dipole(r: int) -> Multigraph:
    """Two vertices joined by r parallel edges."""
    if r < 1:
        raise GeneratorError(f"dipole needs r >= 1, got {r}")
    return Multigraph(2, tuple((0, 1) for _ in range(r)))


def prism(n: int) -> Multigraph:
    """Circular ladder: two n-cycles (outer 0..n-1, inner n..2n-1) plus rungs."""
    if n < 3:
        raise GeneratorError(f"prism needs cycle length >= 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(n + i, n + (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    return Multigraph(2 * n, tuple(edges))


def bridge_pair() -> Multigraph:
    """A bridged cubic graph, the standard negative control for the odd-cut test.

    Each block is K4 with one edge subdivided (the subdivision vertex has
    degree 2); the bridge joins the two subdivision vertices, restoring
    3-regularity.  The bridge is an odd cut of size 1.
    """

    def block(base: int) -> list[tuple[int, int]]:
        a, b, c, d, s = range(base, base + 5)
        return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, s), (d, s)]

    edges = block(0) + block(5) + [(4, 9)]
    return Multigraph(10, tuple(edges))


def random_regular(n: int, r: int, seed: int) -> Multigraph:
    """Random r-regular multigraph passing the odd-cut test, via the pairing model.

    Draws pairings of n*r points, rejects any sample with a loop, then
    rejects any sample failing the odd-cut condition, so the result is
    always an r-graph.  Raises GeneratorError when n is odd (no perfect
    matchings can exist) or the attempt budget runs out.
    """
    if n < 2 or n % 2 != 0:
        raise GeneratorError(f"random_regular needs even n >= 2, got {n}")
    if r < 1:
        raise GeneratorError(f"random_regular needs r >= 1, got {r}")
    rng = random.Random(seed)
    points = [v for v in range(n) for _ in range(r)]
    for _ in range(_ATTEMPTS):
        rng.shuffle(points)
        pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
        if any(u == v for u, v in pairs):
            continue
        g = Multigraph(n, tuple(pairs))
        if _odd_cuts_at_least(g, [1] * g.m, r) is None:
            return g
    raise GeneratorError(
        f"no {r}-regular odd-cut-feasible sample on {n} vertices "
        f"within {_ATTEMPTS} attempts (seed {seed})"
    )


# name -> (callable, argument names), parsed as ints; a "seed" argument comes last
_REGISTRY = {
    "petersen": (petersen, ()),
    "k4": (k4, ()),
    "k33": (k33, ()),
    "dipole": (dipole, ("r",)),
    "prism": (prism, ("n",)),
    "bridge_pair": (bridge_pair, ()),
    "random_regular": (random_regular, ("n", "r", "seed")),
}


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def from_spec(spec: str, seed: int | None = None) -> Multigraph:
    """Build a graph from a generator spec string like 'prism:5' or 'petersen'.

    Parameters after the colon are comma-separated integers.  A generator
    whose trailing parameter is `seed` takes it either inline
    ('random_regular:10,3,7') or from the `seed` argument, not both; a
    seed for any other generator is an error.
    """
    name, _, argpart = spec.partition(":")
    name = name.strip()
    if name not in _REGISTRY:
        raise GeneratorError(
            f"unknown generator {name!r}; known: {', '.join(generator_names())}"
        )
    fn, params = _REGISTRY[name]
    if seed is not None and "seed" not in params:
        raise GeneratorError(f"generator {name} takes no seed, got seed={seed}")
    raw = [p for p in argpart.split(",") if p.strip()] if argpart else []
    try:
        args = [int(p) for p in raw]
    except ValueError:
        raise GeneratorError(f"generator parameters must be integers: {argpart!r}") from None
    if seed is not None and len(args) == len(params):  # so "seed" is in params
        raise GeneratorError(f"seed given twice: inline {args[-1]} and seed={seed}")
    if seed is not None and len(args) == len(params) - 1:
        args.append(seed)
    if len(args) != len(params):
        raise GeneratorError(
            f"generator {name} expects parameters ({', '.join(params)}), got {len(args)}"
        )
    return fn(*args)
