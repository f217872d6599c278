import itertools
import sys
from pathlib import Path

import networkx as nx
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import connected_graphs_up_to_iso, small_connected_corpus

from uncrossed.bounds import h_upper
from uncrossed.construction import build_construction
from uncrossed.graphs import make_random_gnm
from uncrossed.embedding import (
    RotationSystem,
    cofacial,
    enumerate_rotation_systems,
    genus,
    rotation_count,
    trace_faces,
)
from uncrossed.errors import MalformedCertificateError, SearchBudgetError
from uncrossed import oracle
from uncrossed.graphs import Graph, make_complete, make_complete_bipartite, make_wheel
from uncrossed.oracle import (
    DEFAULT_UNC_LIMITS,
    SearchLimits,
    SubdrawingCertificate,
    exact_h,
    exact_unc,
    feasible,
    maximal_feasible_sets,
    verify_certificate,
)

CUBE = Graph.from_edges(8, [(i, (i + 1) % 4) for i in range(4)]
                        + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
                        + [(i, i + 4) for i in range(4)])

W5_ORDER = ((4, 3, 2, 1), (4, 0, 2), (1, 0, 3), (2, 0, 4), (3, 0, 1))


def wheel_certificate_in_k5():
    k5 = make_complete(5)
    wheel_edges = make_wheel(5).edges
    rotation = RotationSystem(Graph(5, wheel_edges), W5_ORDER)
    faces = trace_faces(rotation)
    outer = next(i for i, f in enumerate(faces.faces) if len(f) == 4)
    return k5, SubdrawingCertificate(
        k5, wheel_edges, rotation, {(1, 3): outer, (2, 4): outer}
    )


def test_verify_construction_certificate():
    rec = build_construction(14, 20)
    assert verify_certificate(rec.certificate)


def test_verify_k5_wheel_certificate():
    _, cert = wheel_certificate_in_k5()
    assert verify_certificate(cert)  # witnesses h(K_5) >= 8


def test_verify_rejects_wrong_face():
    k5, cert = wheel_certificate_in_k5()
    faces = trace_faces(cert.rotation)
    triangle = next(i for i, f in enumerate(faces.faces)
                    if len(f) == 3 and not {1, 3} <= f.vertices)
    bad = SubdrawingCertificate(k5, cert.uncrossed, cert.rotation,
                                {(1, 3): triangle, (2, 4): cert.face_assignment[(2, 4)]})
    assert not verify_certificate(bad)


def test_verify_malformed():
    k5, cert = wheel_certificate_in_k5()
    with pytest.raises(MalformedCertificateError):
        verify_certificate(SubdrawingCertificate(
            k5, cert.uncrossed, cert.rotation, {(1, 3): 99, (2, 4): 0}))
    with pytest.raises(MalformedCertificateError):
        # assignment must cover exactly the crossed edges
        verify_certificate(SubdrawingCertificate(
            k5, cert.uncrossed, cert.rotation, {(1, 3): 0}))
    k4 = make_complete(4)
    with pytest.raises(MalformedCertificateError):
        verify_certificate(SubdrawingCertificate(
            k4, ((0, 5),), cert.rotation, {}))


def test_feasible_examples():
    k4 = make_complete(4)
    cert = feasible(k4, k4.edges)
    assert cert is not None and len(cert.face_assignment) == 0
    faces = trace_faces(cert.rotation)
    assert faces.f == 4 and all(len(f) == 3 for f in faces.faces)

    k5 = make_complete(5)
    assert feasible(k5, k5.edges) is None  # K_5 has no planar embedding

    cert = feasible(k5, make_wheel(5).edges)
    assert cert is not None and verify_certificate(cert)
    assert sorted(cert.face_assignment) == [(1, 3), (2, 4)]


def test_feasible_rejects_nonspanning():
    k4 = make_complete(4)
    assert feasible(k4, ((0, 1), (1, 2), (0, 2))) is None  # vertex 3 isolated
    assert feasible(k4, ((0, 1), (2, 3))) is None  # disconnected


def test_exact_h_small_complete():
    assert exact_h(make_complete(4))[0] == 6
    h, witness = exact_h(make_complete(5))
    assert h == 8
    assert verify_certificate(witness)
    assert len(witness.uncrossed) == 8


def test_exact_h_k33():
    h, witness = exact_h(make_complete_bipartite(3, 3))
    assert h == 7
    assert verify_certificate(witness)


def test_exact_h_planar_is_m():
    assert exact_h(CUBE)[0] == CUBE.m
    path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert exact_h(path)[0] == 4


def test_exact_h_limits():
    with pytest.raises(SearchBudgetError):
        exact_h(make_complete(9))  # default max_n = 8
    with pytest.raises(SearchBudgetError):
        exact_h(make_complete(5), SearchLimits(max_rotation_budget=10))
    with pytest.raises(SearchBudgetError):
        exact_h(make_complete(6), SearchLimits(time_budget=0.05))


def test_maximal_feasible_sets():
    assert maximal_feasible_sets(CUBE, SearchLimits(max_n=8)) == (CUBE.edges,)
    tree = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert maximal_feasible_sets(tree) == (tree.edges,)

    sets = maximal_feasible_sets(make_complete(5))
    sizes = sorted(len(s) for s in sets)
    assert max(sizes) == 8
    assert all(len(s) <= 8 for s in sets)
    # antichain: no member contains another
    as_sets = [frozenset(s) for s in sets]
    assert not any(a < b for a in as_sets for b in as_sets)


def test_exact_unc_planar_is_one():
    value, cover = exact_unc(CUBE, SearchLimits(max_n=8))
    assert value == 1
    assert cover[0].uncrossed == CUBE.edges
    assert verify_certificate(cover[0])


def test_exact_unc_k5():
    value, cover = exact_unc(make_complete(5))
    assert value == 2  # >= ceil(10/8) and a 2-cover exists
    assert all(verify_certificate(c) for c in cover)
    covered = set()
    for c in cover:
        covered |= set(c.uncrossed)
    assert covered == set(make_complete(5).edges)


def test_exact_unc_k33():
    value, cover = exact_unc(make_complete_bipartite(3, 3))
    assert value == 2  # >= ceil(9/7)
    assert all(verify_certificate(c) for c in cover)


def test_feasibility_monotone_under_removal():
    # dropping an edge from a feasible set keeps it feasible while it
    # still spans and connects
    k5 = make_complete(5)
    base = make_wheel(5).edges
    for drop in base:
        sub = tuple(e for e in base if e != drop)
        if Graph(5, sub).is_connected():
            assert feasible(k5, sub) is not None


def test_random_graphs_against_independent_planarity():
    # h == m exactly when the graph is planar; checked against an
    # unrelated planarity algorithm on graphs beyond the n<=6 corpus
    checked = 0
    seed = 0
    while checked < 40:
        seed += 1
        n = 5 + seed % 3
        m = min(n - 1 + (seed * 7) % 8, n * (n - 1) // 2)
        g = make_random_gnm(n, m, seed)
        if not g.is_connected():
            continue
        h, witness = exact_h(g, SearchLimits(max_n=8))
        assert verify_certificate(witness)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges)
        assert (h == m) == nx.check_planarity(nxg)[0]
        assert n - 1 <= h <= h_upper(n, m) + 1e-9
        checked += 1


def test_determinism():
    g = make_complete(5)
    first = exact_h(g)
    second = exact_h(g)
    assert first[0] == second[0]
    assert first[1] == second[1]
    u1 = exact_unc(g)
    u2 = exact_unc(g)
    assert u1[0] == u2[0]
    assert [c.uncrossed for c in u1[1]] == [c.uncrossed for c in u2[1]]


def test_single_vertex_and_edge():
    single = Graph(1, ())
    assert exact_h(Graph(2, ((0, 1),)))[0] == 1
    value, cover = exact_unc(single)
    assert value == 1 and verify_certificate(cover[0])
    h, witness = exact_h(single)
    assert h == 0 and witness.rotation.order == ((),) and verify_certificate(witness)
    cert = feasible(single, ())
    assert cert is not None and cert.rotation.order == ((),)
    assert maximal_feasible_sets(single) == ((),)


def test_feasible_matches_brute_force_reference():
    # every connected spanning subset H of every connected graph with
    # n <= 5: feasible() finds a witness exactly when a plain scan of
    # enumerate_rotation_systems does, and it is the scan's first hit
    subsets = systems = 0
    for g in small_connected_corpus(5):
        for size in range(g.n - 1, g.m + 1):
            for hedges in itertools.combinations(g.edges, size):
                h = Graph(g.n, hedges)
                if not h.is_connected():
                    continue
                subsets += 1
                crossed = [e for e in g.edges if e not in hedges]
                reference = None
                for r in enumerate_rotation_systems(h):
                    systems += 1
                    faces = trace_faces(r)
                    if genus(r) == 0 and all(cofacial(faces, u, v) for u, v in crossed):
                        reference = r
                        break
                cert = feasible(g, hedges)
                if reference is None:
                    assert cert is None, (g, hedges)
                else:
                    assert cert is not None and cert.rotation == reference, (g, hedges)
    assert (subsets, systems) == (1661, 26534)


@pytest.mark.slow
def test_feasible_matches_brute_force_reference_n6():
    # the n <= 5 reference check, continued to every connected spanning
    # subset H of every connected 6-vertex graph with at most 500 rotation
    # systems: same answer, same first hit, over the dense levels too
    subsets = systems = 0
    for g in connected_graphs_up_to_iso(6):
        for size in range(g.n - 1, g.m + 1):
            for hedges in itertools.combinations(g.edges, size):
                h = Graph(g.n, hedges)
                if not h.is_connected() or rotation_count(h) > 500:
                    continue
                subsets += 1
                crossed = [e for e in g.edges if e not in hedges]
                reference = None
                for r in enumerate_rotation_systems(h):
                    systems += 1
                    faces = trace_faces(r)
                    if genus(r) == 0 and all(cofacial(faces, u, v) for u, v in crossed):
                        reference = r
                        break
                cert = feasible(g, hedges)
                if reference is None:
                    assert cert is None, (g, hedges)
                else:
                    assert cert is not None and cert.rotation == reference, (g, hedges)
    assert (subsets, systems) == (74389, 1894717)


def test_certificate_json_round_trip():
    _, cert = wheel_certificate_in_k5()
    data = cert.to_json_dict()
    back = SubdrawingCertificate.from_json_dict(data, cert.graph)
    assert back.uncrossed == cert.uncrossed
    assert back.rotation == cert.rotation
    assert back.face_assignment == cert.face_assignment
    assert verify_certificate(back)


def test_orbit_cache_kernel_calls_on_k6(monkeypatch):
    # K_6 is edge-transitive and more: one kernel search per orbit of
    # infeasible candidates, plus one per feasible set yielded
    calls = []
    kernel = oracle.first_planar_rotation

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(oracle, "first_planar_rotation", counted)
    k6 = make_complete(6)
    assert exact_h(k6)[0] == 10 and len(calls) == 20
    calls.clear()
    assert exact_unc(k6)[0] == 2 and len(calls) == 668


def _reference_walk(g):
    # the size-descending walk without any cache: skip subsets of sets
    # already found and ask feasible() about every other candidate
    found = []
    for size in range(min(g.m, 3 * g.n - 6), g.n - 2, -1):
        for hedges in itertools.combinations(g.edges, size):
            if any(set(hedges) <= set(f) for f, _ in found):
                continue
            cert = feasible(g, hedges, DEFAULT_UNC_LIMITS)
            if cert is not None:
                found.append((hedges, cert.rotation.order))
    return found


@pytest.mark.slow
def test_orbit_cache_walk_matches_reference():
    # same maximal sets in the same order, and the same first rotation for
    # each, on the dense graphs where most candidates are infeasible
    k6 = make_complete(6)
    dense = [g for g in connected_graphs_up_to_iso(6) if g.m in (12, 13)]
    assert len(dense) == 7
    graphs = dense + [make_complete_bipartite(3, 3), Graph(6, k6.edges[1:]), k6]
    for g in graphs:
        reference = _reference_walk(g)
        assert maximal_feasible_sets(g) == tuple(h for h, _ in reference), g
        assert list(oracle._maximal_feasible(g, DEFAULT_UNC_LIMITS)) == reference, g
