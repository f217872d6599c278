import itertools
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import small_connected_corpus

from uncrossed.errors import ParseError
from uncrossed.graphs import (
    Graph,
    analyze,
    automorphisms,
    complete_bipartite_parts,
    is_complete,
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
    stats = analyze(g)
    assert stats.connected and not stats.triangle_free


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        make_complete(0)


def test_complete_bipartite():
    g = make_complete_bipartite(3, 3)
    assert g.m == 9
    assert analyze(g).triangle_free
    assert make_complete_bipartite(2, 3).m == 6
    star = make_complete_bipartite(1, 4)
    assert star.m == 4 and analyze(star).connected
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


def test_analyze():
    s = analyze(make_complete(4))
    assert s.connected and not s.triangle_free
    assert s.density == Fraction(6, 16)
    assert analyze(make_complete_bipartite(3, 3)).triangle_free
    two_edges = Graph(4, ((0, 1), (2, 3)))
    assert not analyze(two_edges).connected


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
