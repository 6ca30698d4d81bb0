"""Multigraph construction, the edge-list format, and its error reporting."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcover import (
    EdgeListError, GeneratorError, Multigraph, decompose, dipole, greedy_cover, k4,
    parse_edge_list, random_regular, serialize, uniform,
)
from matchcover import generators, matching, multigraph, oddcuts
from matchcover.generators import from_spec

from helpers import corpus

K4_TEXT = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_parse_basic():
    g = parse_edge_list(K4_TEXT)
    assert g == k4()
    assert g.n == 4 and g.m == 6


def test_parse_ignores_comments_and_blanks():
    text = "# a graph\n\n4 6  # header\n0 1\n0 2\n\n0 3\n1 2\n# middle\n1 3\n2 3\n"
    assert parse_edge_list(text) == k4()


def test_endpoints_normalized_small_first():
    g = Multigraph(3, ((2, 0), (1, 0), (2, 1)))
    assert g.edges == ((0, 2), (0, 1), (1, 2))


def test_serialize_round_trip_is_identity():
    for name, g, _ in corpus():
        assert parse_edge_list(serialize(g)) == g, name


def test_random_regular_spec_takes_one_seed():
    g = random_regular(10, 3, 1)
    assert from_spec("random_regular:10,3,1") == g
    assert from_spec("random_regular:10,3", seed=1) == g
    with pytest.raises(GeneratorError, match="seed given twice: inline 1 and seed=2"):
        from_spec("random_regular:10,3,1", seed=2)


@pytest.mark.parametrize("spec, message", [
    ("dipole:0", "dipole needs r >= 1, got 0"),
    ("prism:2", "prism needs cycle length >= 3, got 2"),
    ("random_regular:9,3,0", "random_regular needs even n >= 2, got 9"),
    ("random_regular:10,0,0", "random_regular needs r >= 1, got 0"),
    ("prism:5.5", "generator parameters must be integers: '5.5'"),
])
def test_bad_generator_specs(spec, message):
    with pytest.raises(GeneratorError) as err:
        from_spec(spec)
    assert str(err.value) == message


def test_random_regular_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(generators, "_ATTEMPTS", 0)
    with pytest.raises(GeneratorError, match="within 0 attempts"):
        from_spec("random_regular:10,3,1")


@st.composite
def edge_list_texts(draw):
    """A multigraph and edge-list text for it, with endpoints in either
    order, parallel edges, isolated vertices, and comment or blank lines
    (and trailing comments) inserted anywhere."""
    n = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    noise = st.lists(st.sampled_from(("", "   ", "# comment", "  # 1 2")), max_size=2)
    lines = []
    for line in [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]:
        lines += draw(noise)
        lines.append(line + draw(st.sampled_from(("", " ", "  # trailing"))))
    lines += draw(noise)
    return Multigraph(n, tuple(edges)), "\n".join(lines)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(edge_list_texts())
@example((Multigraph(0, ()), "# empty\n\n0 0\n"))
@example((Multigraph(5, ((3, 1), (1, 3), (1, 3))), "5 3\n3 1\n# twins\n1 3\n\n1 3  # last\n"))
def test_parse_serialize_round_trip(case):
    g, text = case
    parsed = parse_edge_list(text)
    assert parsed == g
    assert parse_edge_list(serialize(g)) == g
    assert serialize(parsed) == serialize(g)


def test_serialize_format():
    assert serialize(k4()) == K4_TEXT
    assert serialize(Multigraph(0, ())) == "0 0\n"


def test_parallel_edges_keep_distinct_ids():
    g = dipole(3)
    assert g.m == 3
    assert g.edges == ((0, 1),) * 3
    assert g.incident(0) == (0, 1, 2)


def test_degree_and_incident():
    g = k4()
    assert all(g.degree(v) == 3 for v in range(4))
    assert g.incident(0) == (0, 1, 2)
    assert g.incident(3) == (2, 4, 5)


def test_boundary():
    g = k4()
    assert g.boundary({0}) == {0, 1, 2}
    assert g.boundary({0, 1}) == {1, 2, 3, 4}
    assert g.boundary(range(4)) == frozenset()
    with pytest.raises(ValueError):
        g.boundary({5})


def test_is_regular():
    assert k4().is_regular(3)
    assert not k4().is_regular(2)
    assert Multigraph(0, ()).is_regular(7)  # vacuous
    with pytest.raises(ValueError):
        k4().is_regular(-1)


def test_is_regular_checks_the_degree_sum_before_the_arc_index():
    # 2m != rn answers at once: a huge edgeless header builds no per-vertex lists
    g = Multigraph(10**6, ())
    assert g.is_regular(3) is False
    assert "_arcs" not in vars(g)
    # and an edgeless graph that passes it has every degree 0
    assert g.is_regular(0) is True
    assert "_arcs" not in vars(g)


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError, match="loop"):
        Multigraph(2, ((0, 0),))
    with pytest.raises(ValueError, match="out of range"):
        Multigraph(2, ((0, 2),))
    with pytest.raises(ValueError):
        Multigraph(-1, ())


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("# only a comment\n", "empty input"),
        ("4\n", "header must be"),
        ("a b\n", "must be integers"),
        ("-1 0\n", "nonnegative"),
        ("4 2\n0 1\n", "promises 2 edges but 1"),
        ("4 1\n0 1\n2 3\n", "promises 1 edges but 2"),
        ("4 1\n0 1 2\n", "must be 'u v'"),
        ("4 1\n0 x\n", "endpoints must be integers"),
        ("4 1\n0 4\n", "out of range"),
        ("4 1\n2 2\n", "loop at vertex 2"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(EdgeListError, match=fragment):
        parse_edge_list(text)


def test_graphs_are_hashable_and_comparable():
    assert k4() == k4()
    assert hash(k4()) == hash(k4())
    assert k4() != dipole(3)


# dipole(3) with a pendant path 1-2-3, endpoints given in both orders
DIPOLE_PATH = Multigraph(4, ((1, 0), (0, 1), (1, 0), (2, 1), (2, 3)))


def test_arc_index_lists_each_edge_once_per_end():
    g = DIPOLE_PATH
    ends, out = g._arcs
    assert ends == (0, 1, 0, 1, 0, 1, 1, 2, 2, 3)
    assert out == ((1, 3, 5), (0, 2, 4, 7), (6, 9), (8,))
    for v in range(g.n):
        ids = [p >> 1 for p in out[v]]
        assert ids == sorted(ids) == list(g.incident(v))
        assert all(ends[p ^ 1] == v for p in out[v])
    for e, (u, v) in enumerate(g.edges):
        assert [p >> 1 for p in out[u]].count(e) == 1
        assert [p >> 1 for p in out[v]].count(e) == 1
    for a in range(2 * g.m):
        # arc a and a ^ 1 run the two ways along edge a >> 1
        assert (ends[a ^ 1], ends[a]) in (g.edges[a >> 1], g.edges[a >> 1][::-1])
        assert ends[a] != ends[a ^ 1] and a in out[ends[a ^ 1]] and a ^ 1 in out[ends[a]]
    assert g.degree(3) == 1 and g.is_regular(3) is False


def test_arc_index_leaves_equality_and_parsing_alone():
    built, bare = DIPOLE_PATH, Multigraph(4, DIPOLE_PATH.edges)
    assert "_arcs" in vars(built) and "_arcs" not in vars(bare)
    assert built == bare and hash(built) == hash(bare)
    assert repr(built) == repr(bare)
    assert parse_edge_list(serialize(built))._arcs == built._arcs


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call records its first argument."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_index_build_serves_a_whole_cover(monkeypatch):
    h = random_regular(40, 3, 1)
    builds = _count_calls(monkeypatch, multigraph, "_arc_index")
    blossoms = _count_calls(monkeypatch, matching, "_blossom")
    flows = _count_calls(monkeypatch, oddcuts, "_sink_side")
    greedy_cover(Multigraph(h.n, h.edges), 3, 8)
    assert builds == [40]
    assert len(blossoms) >= 2 and len(flows) >= 2


def test_one_index_build_serves_a_whole_decomposition(monkeypatch):
    h = random_regular(12, 3, 1)
    builds = _count_calls(monkeypatch, multigraph, "_arc_index")
    g = Multigraph(h.n, h.edges)
    assert len(decompose(g, uniform(g, 3)).terms) >= 2
    assert builds == [12]
