import itertools
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import small_connected_corpus

from uncrossed.errors import ParseError
from uncrossed.graphs import (
    Graph,
    automorphisms,
    complete_bipartite_parts,
    connected_spanning,
    is_complete,
    is_triangle_free,
    make_complete,
    make_complete_bipartite,
    make_random_gnm,
    make_wheel,
    parse_edge_list,
    serialize_edge_list,
)


def test_complete_edge_counts():
    assert make_complete(1).m == 0
    assert make_complete(5).m == 10
    g = make_complete(10)
    assert g.m == 45
    assert g.is_connected() and not is_triangle_free(g)


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        make_complete(0)


def test_complete_bipartite():
    g = make_complete_bipartite(3, 3)
    assert g.m == 9
    assert is_triangle_free(g)
    assert make_complete_bipartite(2, 3).m == 6
    star = make_complete_bipartite(1, 4)
    assert star.m == 4 and star.is_connected()
    with pytest.raises(ValueError):
        make_complete_bipartite(0, 3)


def test_wheel():
    w6 = make_wheel(6)
    assert w6.m == 10
    adj = w6.adjacency()
    assert adj[0] == [1, 2, 3, 4, 5]  # hub is universal
    assert make_wheel(4) == make_complete(4)
    w5 = make_wheel(5)
    assert w5.m == 8 and len(w5.adjacency()[0]) == 4
    with pytest.raises(ValueError):
        make_wheel(3)


def test_gnm_forced_cases():
    assert make_random_gnm(5, 10, 7) == make_complete(5)
    assert make_random_gnm(6, 0, 7).m == 0
    with pytest.raises(ValueError):
        make_random_gnm(4, 7, 0)


def test_gnm_deterministic():
    a = make_random_gnm(8, 14, 1)
    b = make_random_gnm(8, 14, 1)
    assert a == b
    assert serialize_edge_list(a) == serialize_edge_list(b)


@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**63 - 1),
    frac=st.floats(0, 1),
)
def test_gnm_valid_and_pure(n, seed, frac):
    m = int(frac * (n * (n - 1) // 2))
    g = make_random_gnm(n, m, seed)
    assert g.m == m
    assert g == make_random_gnm(n, m, seed)


def test_is_triangle_free():
    k4 = make_complete(4)
    assert k4.is_connected() and not is_triangle_free(k4)
    assert is_triangle_free(make_complete_bipartite(3, 3))
    assert is_triangle_free(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))  # C_5
    assert not is_triangle_free(make_wheel(6))
    two_edges = Graph(4, ((0, 1), (2, 3)))
    assert not two_edges.is_connected() and is_triangle_free(two_edges)


def test_parse_basics():
    assert parse_edge_list("3 3\n0 1\n0 2\n1 2") == make_complete(3)
    g = parse_edge_list("2 0")
    assert g.n == 2 and g.m == 0


@pytest.mark.parametrize(
    "text,line",
    [
        ("3 1\n0 0", 2),
        ("3 1\n0 3", 2),
        ("3 2\n0 1\n0 1", 3),
        ("bogus", 1),
        ("3 2\n0 1", 1),
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


@given(n=st.integers(1, 10), seed=st.integers(0, 10**6), frac=st.floats(0, 1))
def test_round_trip(n, seed, frac):
    m = int(frac * (n * (n - 1) // 2))
    g = make_random_gnm(n, m, seed)
    assert parse_edge_list(serialize_edge_list(g)) == g
    text = serialize_edge_list(g)
    assert serialize_edge_list(parse_edge_list(text)) == text


def test_detection_helpers():
    assert is_complete(make_complete(7))
    assert not is_complete(make_wheel(6))
    assert complete_bipartite_parts(make_complete_bipartite(2, 5)) == (2, 5)
    assert complete_bipartite_parts(make_complete(4)) is None
    assert complete_bipartite_parts(make_wheel(6)) is None


def test_connected_spanning_counts_edges_first():
    assert connected_spanning(1, ())
    assert connected_spanning(3, [(0, 1), (1, 2)])
    assert not connected_spanning(4, [(0, 1), (1, 2), (0, 2)])
    # too few edges to connect the vertices: no per-vertex work at all
    assert not connected_spanning(10**12, [(0, 1)])
    assert not Graph(10**12, ((0, 1),)).is_connected()


def test_automorphisms_match_brute_force():
    # every permutation that maps the edge set onto itself, and no other,
    # on all 143 connected graphs with n <= 6
    for g in small_connected_corpus(6):
        edges = set(g.edges)
        brute = {
            p for p in itertools.permutations(range(g.n))
            if {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == edges
        }
        found = automorphisms(g)
        assert len(found) == len(set(found)) and set(found) == brute, g
        assert found[0] == tuple(range(g.n))
    cycle7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    assert len(automorphisms(make_complete(7))) == 5040
    assert len(automorphisms(cycle7)) == 14


def _input_order_graph(n, edges):
    # Graph's checks as one loop in input order, with a set of the edges
    # seen: the edges it stores, or the first fault it raises
    seen = set()
    for u, v in edges:
        if type(u) is not int or type(v) is not int:
            raise ValueError(f"edge ({u!r},{v!r}) has a vertex id that is not an int")
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add((u, v))
    return tuple(sorted(edges))


def _outcome(build, n, edges):
    try:
        return build(n, edges)
    except Exception as exc:  # the type and the message, to compare
        return type(exc), str(exc)


@settings(max_examples=400)
@given(n=st.integers(1, 6),
       edges=st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7)), max_size=12))
def test_graph_faults_match_input_order_loop(n, edges):
    # out of range, u >= v and duplicates, several in one input and in any
    # order: the sorted check stores or raises what the loop did
    edges = tuple(edges)
    built = _outcome(lambda n, edges: Graph(n, edges).edges, n, edges)
    assert built == _outcome(_input_order_graph, n, edges)


@pytest.mark.parametrize("edges", [
    ((0, 1), (0, "a")),
    ((0, "a"), (0, 1)),
    ((0, 1), 5),
    ((0, 1), (0, 1, 2)),
    ((0, 1), (1, 2), (0, 1), (0, 2.5)),
    ((1, 2), (0, 1.0), (0, 1)),
    ((0, 1), (1, None)),
    5,
])
def test_graph_type_faults_match_input_order_loop(edges):
    built = _outcome(lambda n, edges: Graph(n, edges).edges, 3, edges)
    assert built == _outcome(_input_order_graph, 3, edges)


@pytest.mark.parametrize("edge", [(True, 2), (0, False), (0.5, 2), (0, 2.0), ("0", 2)])
def test_graph_rejects_ids_that_are_not_ints(edge):
    # a bool or a float compares as a vertex id but prints as another
    # (serialize_edge_list would write "True 2"), or breaks adjacency()
    with pytest.raises(ValueError, match="not an int"):
        Graph(3, ((0, 1), edge))
