"""Multigraph construction, the edge-list format, and its error reporting."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchcover import (
    EdgeListError, GeneratorError, Multigraph, dipole, k4, parse_edge_list, random_regular,
    serialize,
)
from matchcover import generators
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
