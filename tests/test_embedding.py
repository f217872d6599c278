import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from uncrossed.embedding import (
    ROTATION_BUDGET_DEFAULT,
    RotationKernel,
    RotationSystem,
    cofacial,
    enumerate_rotation_systems,
    face_profile,
    genus,
    rotation_count,
    trace_faces,
)
from uncrossed.errors import SearchBudgetError
from uncrossed.graphs import (
    Graph,
    make_complete,
    make_complete_bipartite,
    make_random_gnm,
    make_wheel,
)

# planar rotation of W_5 (hub 0, rim 1..4): four triangles plus the rim 4-gon
W5_ORDER = ((4, 3, 2, 1), (4, 0, 2), (1, 0, 3), (2, 0, 4), (3, 0, 1))

# planar rotation of the cube graph, bottom 0-3, top 4-7 (i joined to i+4)
CUBE_ORDER = (
    (1, 3, 4),
    (0, 5, 2),
    (1, 6, 3),
    (2, 7, 0),
    (0, 7, 5),
    (1, 4, 6),
    (2, 5, 7),
    (3, 6, 4),
)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def unique_rotation(g):
    return RotationSystem(g, tuple(tuple(a) for a in g.adjacency()))


def random_rotation(g, seed):
    import random

    rng = random.Random(seed)
    orders = []
    for a in g.adjacency():
        a = list(a)
        rng.shuffle(a)
        orders.append(tuple(a))
    return RotationSystem(g, tuple(orders))


def planar_rotation(n, edges, pairs, budget):
    # the kernel's first hit on H = (0..n-1, edges) that puts both ends of
    # every pair, a non-edge of H, on a common face: the pairs are the host
    # edges outside H's mask
    host = Graph(n, (*edges, *pairs))
    return RotationKernel(host).search(sum(1 << host.edges.index(e) for e in edges), budget)


def test_rotation_validation():
    g = make_complete(3)
    with pytest.raises(ValueError):
        RotationSystem(g, ((1, 2), (0, 0), (0, 1)))
    with pytest.raises(ValueError):
        RotationSystem(g, ((1, 2), (0, 2)))


def test_trace_cycle():
    c5 = cycle_graph(5)
    faces = trace_faces(unique_rotation(c5))
    assert len(faces) == 2
    assert sorted(len(f) for f in faces) == [5, 5]
    assert sum(len(f) for f in faces) == 2 * c5.m


def test_trace_k4_planar():
    # any planar rotation of K_4 gives four triangles
    for r in enumerate_rotation_systems(make_complete(4)):
        faces = trace_faces(r)
        if len(faces) == 4:
            assert all(len(f) == 3 for f in faces)
            break
    else:
        pytest.fail("no planar rotation of K_4 found")


def test_trace_path_single_face():
    faces = trace_faces(unique_rotation(path_graph(3)))
    assert len(faces) == 1
    assert len(faces[0]) == 4


def test_genus_examples():
    k4 = make_complete(4)
    genera = sorted(genus(r) for r in enumerate_rotation_systems(k4))
    assert genera[0] == 0 and genera[-1] == 1  # both kinds occur
    f_by_genus = {}
    for r in enumerate_rotation_systems(k4):
        f_by_genus.setdefault(genus(r), len(trace_faces(r)))
    assert f_by_genus[1] == 2
    assert genus(unique_rotation(path_graph(5))) == 0
    with pytest.raises(ValueError):
        genus(unique_rotation(Graph(4, ((0, 1), (2, 3)))))


def test_face_profile():
    k4_planar = next(r for r in enumerate_rotation_systems(make_complete(4)) if genus(r) == 0)
    faces = trace_faces(k4_planar)
    prof = face_profile(faces)
    assert prof == {3: 4} and len(faces) == 4
    assert sum((l - 2) * c for l, c in prof.items()) == 2 * 4 - 4

    cube = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                            + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
                            + [(i, i + 4) for i in range(4)])
    r = RotationSystem(cube, CUBE_ORDER)
    assert genus(r) == 0
    prof = face_profile(trace_faces(r))
    assert prof == {4: 6}
    assert sum((l - 2) * c for l, c in prof.items()) == 2 * 8 - 4

    assert face_profile(trace_faces(unique_rotation(cycle_graph(5)))) == {5: 2}


def test_face_profile_rejects_short_faces():
    k2 = Graph(2, ((0, 1),))
    faces = trace_faces(unique_rotation(k2))
    with pytest.raises(ValueError):
        face_profile(faces)


def test_cofacial():
    w5 = make_wheel(5)
    faces = trace_faces(RotationSystem(w5, W5_ORDER))
    assert cofacial(faces, 1, 3)  # opposite rim vertices share the outer face
    assert cofacial(faces, 2, 4)
    k4_planar = next(r for r in enumerate_rotation_systems(make_complete(4)) if genus(r) == 0)
    faces4 = trace_faces(k4_planar)
    assert all(cofacial(faces4, u, v) for u in range(4) for v in range(u + 1, 4))
    tree = trace_faces(unique_rotation(path_graph(6)))
    assert all(cofacial(tree, u, v) for u in range(6) for v in range(u + 1, 6))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_rotation_systems(cycle_graph(6))) == 1
    assert sum(1 for _ in enumerate_rotation_systems(make_complete(4))) == 16
    assert rotation_count(make_complete(5)) == 6**5
    assert sum(1 for _ in enumerate_rotation_systems(make_complete(5))) == 6**5


def test_enumeration_unique_and_pinned():
    seen = set()
    for r in enumerate_rotation_systems(make_complete(4)):
        assert all(order[0] == min(order) for order in r.order)
        assert r.order not in seen
        seen.add(r.order)


def test_enumeration_lexicographic_order():
    systems = list(enumerate_rotation_systems(make_complete(4)))
    flat = [tuple(t for order in r.order for t in order) for r in systems]
    assert flat == sorted(flat)
    assert systems[0].order == tuple(tuple(a) for a in make_complete(4).adjacency())


def test_enumeration_budget():
    with pytest.raises(SearchBudgetError) as err:
        list(enumerate_rotation_systems(make_complete(5), budget=1000))
    assert "7776" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 9), seed=st.integers(0, 10**6), extra=st.integers(0, 12))
def test_handshake_and_genus_properties(n, seed, extra):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = make_random_gnm(n, m, seed)
    if not g.is_connected():
        return
    r = random_rotation(g, seed)
    faces = trace_faces(r)
    assert sum(len(f) for f in faces) == 2 * g.m
    for face in faces:
        assert 3 <= len(face.vertices) <= len(face)
    assert genus(r) >= 0  # also asserts integrality internally
    if genus(r) == 0:
        prof = face_profile(faces)
        assert sum((l - 2) * c for l, c in prof.items()) == 2 * g.n - 4


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 8), seed=st.integers(0, 10**6), extra=st.integers(1, 10))
def test_count_once_on_planar_nontrees(n, seed, extra):
    # every face of a connected planar non-tree embedding has an edge
    # traversed exactly once
    m = min(n + extra, n * (n - 1) // 2)
    g = make_random_gnm(n, m, seed)
    if not g.is_connected() or g.m < g.n:
        return
    r = random_rotation(g, seed)
    if genus(r) != 0:
        return
    for face in trace_faces(r):
        counts = {}
        for u, v in face.walk:
            e = (min(u, v), max(u, v))
            counts[e] = counts.get(e, 0) + 1
        assert 1 in counts.values()
        # faces cannot be longer than 2n-3 in a non-tree planar embedding
        assert len(face) <= 2 * g.n - 3


def test_kernel_planarity_matches_networkx_on_dense_graphs():
    # the dense levels, where pruning cuts hardest: every connected
    # spanning edge set of K_6 with at least 9 edges, and K_{3,3} plus each
    # single added edge; with no pairs to put on a face the kernel finds a
    # system exactly when the graph is planar
    k6 = make_complete(6).edges
    k33 = make_complete_bipartite(3, 3).edges
    graphs = [hedges for size in range(9, 16) for hedges in itertools.combinations(k6, size)]
    graphs += [tuple(sorted(k33 + (e,))) for e in k6 if e not in k33]
    checked = planar = 0
    for hedges in graphs:
        h = Graph(6, hedges)
        if not h.is_connected():
            continue
        checked += 1
        nxg = nx.Graph(hedges)
        orders = planar_rotation(6, hedges, (), rotation_count(h))
        assert (orders is not None) == nx.check_planarity(nxg)[0], hedges
        if orders is not None:
            planar += 1
            assert genus(RotationSystem(h, orders)) == 0
    assert (checked, planar) == (9889, 9192)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 10**6), extra=st.integers(0, 9),
       pairs=st.integers(0, 4))
def test_decision_invariant_under_relabelling(n, seed, extra, pairs):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = make_random_gnm(n, m, seed)
    if not g.is_connected():
        return
    rng = random.Random(seed)
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
    cofacial_pairs = rng.sample(non_edges, min(pairs, len(non_edges)))
    perm = list(range(n))
    rng.shuffle(perm)

    def relabel(es):
        return tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in es))

    budget = rotation_count(g)
    verdict = planar_rotation(n, g.edges, cofacial_pairs, budget) is not None
    relabelled = planar_rotation(n, relabel(g.edges), relabel(cofacial_pairs), budget)
    assert (relabelled is not None) == verdict


@pytest.mark.parametrize("g, budget", [
    (make_complete(7), ROTATION_BUDGET_DEFAULT),
    (make_complete(5), 1000),
    (make_wheel(6), 23),
])
def test_decision_budget_matches_witness_search(g, budget):
    # the kernel refuses a graph whose unpruned rotation count is over the
    # budget, and says how many systems that is
    with pytest.raises(SearchBudgetError) as refused:
        planar_rotation(g.n, g.edges, (), budget)
    assert str(rotation_count(g)) in str(refused.value)
    if g.n <= 6:  # a budget of exactly rotation_count(g) passes
        found = planar_rotation(g.n, g.edges, (), rotation_count(g))
        assert (found is not None) == nx.check_planarity(nx.Graph(g.edges))[0]


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["gnm", "tree", "cycle", "wheel"]), n=st.integers(1, 6),
       seed=st.integers(0, 10**6), extra=st.integers(0, 9), pairs=st.integers(0, 4))
def test_kernel_hit_is_the_smaller_mirror(family, n, seed, extra, pairs):
    # the kernel takes, at the first vertex of degree >= 3, only orders
    # with order[1] < order[-1], since the mirror image of a hit is a hit
    rng = random.Random(seed)
    if family == "tree":
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    elif family == "cycle" and n >= 3:
        edges = [(v, (v + 1) % n) for v in range(n)]
    elif family == "wheel" and n >= 4:
        edges = make_wheel(n).edges
    else:
        edges = make_random_gnm(n, min(n - 1 + extra, n * (n - 1) // 2), seed).edges
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    if not g.is_connected():
        return
    non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in g.edges]
    cofacial_pairs = rng.sample(non_edges, min(pairs, len(non_edges)))
    orders = planar_rotation(n, g.edges, cofacial_pairs, rotation_count(g))
    if orders is None:
        return
    for system in (orders, tuple(order[:1] + order[:0:-1] for order in orders)):
        r = RotationSystem(g, system)
        assert genus(r) == 0
        faces = trace_faces(r)
        assert all(cofacial(faces, u, v) for u, v in cofacial_pairs)
    adj = g.adjacency()
    branching = sorted((len(a), v) for v, a in enumerate(adj) if len(a) >= 3)
    if branching:
        order = orders[branching[0][1]]
        assert order[1] < order[-1]
