import itertools
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import connected_graphs_up_to_iso, small_connected_corpus

from uncrossed.bounds import exact_h_complete, exact_h_complete_bipartite, h_upper
from uncrossed.construction import build_construction
from uncrossed.graphs import make_random_gnm
from uncrossed.embedding import (
    RotationKernel,
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
    outer = next(i for i, f in enumerate(faces) if len(f) == 4)
    return k5, SubdrawingCertificate(k5, rotation, {(1, 3): outer, (2, 4): outer})


def test_verify_construction_certificate():
    rec = build_construction(14, 20)
    assert verify_certificate(rec.certificate)


def test_verify_k5_wheel_certificate():
    _, cert = wheel_certificate_in_k5()
    assert verify_certificate(cert)  # witnesses h(K_5) >= 8


def test_verify_rejects_wrong_face():
    k5, cert = wheel_certificate_in_k5()
    faces = trace_faces(cert.rotation)
    triangle = next(i for i, f in enumerate(faces)
                    if len(f) == 3 and not {1, 3} <= f.vertices)
    bad = SubdrawingCertificate(k5, cert.rotation,
                                {(1, 3): triangle, (2, 4): cert.face_assignment[(2, 4)]})
    assert not verify_certificate(bad)


def test_verify_malformed():
    k5, cert = wheel_certificate_in_k5()
    with pytest.raises(MalformedCertificateError):
        verify_certificate(SubdrawingCertificate(k5, cert.rotation, {(1, 3): 99, (2, 4): 0}))
    with pytest.raises(MalformedCertificateError):
        # assignment must cover exactly the crossed edges
        verify_certificate(SubdrawingCertificate(k5, cert.rotation, {(1, 3): 0}))
    k4 = make_complete(4)
    with pytest.raises(MalformedCertificateError):
        verify_certificate(SubdrawingCertificate(k4, cert.rotation, {}))


@pytest.mark.parametrize("keys", [
    [(1, 3), (5, 6)],  # a key outside E, in place of a crossed edge
    [(1, 3), (0, 1)],  # a key in H, in place of a crossed edge
    [(1, 3)],  # a crossed edge missing
    [(1, 3), (2, 4), (0, 1)],  # an extra key
])
def test_verify_assignment_keys_exactly_crossed(keys):
    k5, cert = wheel_certificate_in_k5()
    bad = SubdrawingCertificate(k5, cert.rotation, dict.fromkeys(keys, 0))
    with pytest.raises(MalformedCertificateError,
                       match="^assignment keys must be exactly the crossed edges$"):
        verify_certificate(bad)


def _set_based_structure_fault(cert):
    # the structural checks as verify_certificate made them with sets of
    # the edges: the message of the first fault, or None
    edge_set = set(cert.graph.edges)
    hset = set(cert.uncrossed)
    if not hset <= edge_set:
        return "uncrossed contains an edge not in the graph"
    if cert.rotation.graph.n != cert.graph.n:
        return "rotation is not over the uncrossed subgraph"
    keys = cert.face_assignment
    if len(keys) != len(edge_set) - len(hset) or not all(
        e in edge_set and e not in hset for e in keys
    ):
        return "assignment keys must be exactly the crossed edges"
    return None


ODD_KEYS = ["1-3", 5, None, (1,), (1, 3, 0), (1, "3"), ("1", 3), (1.0, 3.0), (2.0, 4),
            frozenset({1, 3})]


@pytest.mark.parametrize("keys", [
    [(1, 3), (2, 4)],  # the crossed edges
    [(1, 3), (0, 1)],  # a key inside H
    [(1, 3), (5, 6)],  # a key outside E
    [(2, 4)],  # a key missing
    *([(1, 3), odd] for odd in ODD_KEYS),  # a key that is not an int pair
    *([odd] for odd in ODD_KEYS),
])
@pytest.mark.parametrize("uncrossed", [
    None,  # the K_5 certificate's host and rotation
    # a host and a rotation whose edges are H: a host that lacks (0, 1), an
    # edge of H; a host on one vertex more than the rotation; a smaller H
    (Graph(5, make_complete(5).edges[1:]), RotationSystem(make_wheel(5), W5_ORDER)),
    (Graph(6, make_complete(5).edges), RotationSystem(make_wheel(5), W5_ORDER)),
    (make_complete(5), RotationSystem(Graph(5, make_wheel(5).edges[:-1]),
                                      W5_ORDER[:3] + ((2, 0), (0, 1)))),
])
def test_verify_structure_matches_set_based_checks(keys, uncrossed):
    # the sorted-edge checks raise what the set-based ones raised, and a
    # certificate they pass gets the same verdict
    k5, cert = wheel_certificate_in_k5()
    host, rotation = (k5, cert.rotation) if uncrossed is None else uncrossed
    bad = SubdrawingCertificate(host, rotation, dict.fromkeys(keys, 0))
    fault = _set_based_structure_fault(bad)
    if fault is None:
        assert verify_certificate(bad) is False  # face 0 does not hold (2, 4)
    else:
        with pytest.raises(MalformedCertificateError, match=f"^{fault}$"):
            verify_certificate(bad)


def test_verify_hands_out_its_faces():
    _, cert = wheel_certificate_in_k5()
    faces = []
    assert verify_certificate(cert, faces)
    assert faces == list(trace_faces(cert.rotation))


def _loop_parse(data):
    # the certificate parser's assignment read key by key, as a reference:
    # the edge-keyed dict and the edges named, uncrossed first, for Graph
    # to check, or the fault's message
    keyed = {}
    for key, idx in data["assignment"].items():
        match = oracle._EDGE_KEY.fullmatch(key)
        if match is None:
            return f"assignment key {key!r} is not <u>-<v>"
        u, v = int(match[1]), int(match[2])
        e = (min(u, v), max(u, v))
        if e in keyed:
            return f"edge {key} is named twice"
        if type(idx) is not int:
            return f"face index {idx!r} of {key} is not an integer"
        keyed[e] = idx
    return keyed, [tuple(sorted(e)) for e in data["uncrossed"]] + list(keyed)


EDGE_KEYS = st.builds("{}-{}".format, st.integers(0, 9), st.integers(0, 9)) | st.sampled_from(
    ["1-2,3-4", "01-2", "3-3", "a-b", "1 -2", "-1-2", "1-2-3", "", "\u0661-2", "1-2\n", "10-0"]
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(EDGE_KEYS, st.integers(0, 3) | st.sampled_from([True, 1.5, None]), max_size=12))
def test_certificate_parser_matches_key_by_key_reading(assignment):
    # the parser reads the keys once, key by key, and raises that reading's
    # message at its first fault; Graph then finds a key that names an
    # uncrossed edge
    data = {"n": 10, "uncrossed": [[0, 1], [1, 2]], "rotation": [[1], [0, 2], [1]] + [[]] * 7,
            "assignment": assignment}
    expected = _loop_parse(data)
    if not isinstance(expected, str):
        try:  # the host graph of the edges named, which may be no simple graph
            Graph(10, tuple(expected[1]))
        except ValueError as exc:
            expected = f"bad certificate JSON: {exc}"
    if isinstance(expected, str):
        with pytest.raises(MalformedCertificateError) as info:
            SubdrawingCertificate.from_json_dict(data)
        assert str(info.value) == expected
        return
    keyed, named = expected
    cert = SubdrawingCertificate.from_json_dict(data)
    assert list(cert.face_assignment.items()) == list(keyed.items())
    assert cert.graph.edges == tuple(sorted(named))


def test_verify_rejects_genus_one_rotation():
    k4 = make_complete(4)
    rotation = next(r for r in enumerate_rotation_systems(k4) if genus(r) == 1)
    assert not verify_certificate(SubdrawingCertificate(k4, rotation, {}))


def test_verify_genus_from_one_trace_matches_genus(monkeypatch):
    # verify_certificate reads genus 0 off its own face trace: on every
    # rotation system of these graphs it agrees with genus(), and it traces
    # each certificate once
    traced = []
    monkeypatch.setattr(oracle, "trace_faces", lambda r: traced.append(r) or trace_faces(r))
    for g, count in ((make_complete(4), 16), (make_complete_bipartite(2, 3), 4),
                     (make_wheel(5), 96), (CUBE, 256)):
        systems = list(enumerate_rotation_systems(g))
        assert len(systems) == count
        for r in systems:
            traced.clear()
            assert verify_certificate(SubdrawingCertificate(g, r, {})) == (genus(r) == 0)
            assert traced == [r]


def test_verify_rejects_disconnected_uncrossed_part():
    k4 = make_complete(4)
    halves = ((0, 1), (2, 3))
    rotation = RotationSystem(Graph(4, halves), ((1,), (0,), (3,), (2,)))
    assignment = {e: 0 for e in k4.edges if e not in halves}
    assert not verify_certificate(SubdrawingCertificate(k4, rotation, assignment))


def test_verify_rejects_bool_face_index():
    # True would pass for face 1 of the 4-cycle, and then be written as
    # "0-2": true, which from_json_dict rejects
    c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    rotation = RotationSystem(c4, ((1, 3), (0, 2), (1, 3), (0, 2)))
    host = Graph(4, c4.edges + ((0, 2),))
    assert verify_certificate(SubdrawingCertificate(host, rotation, {(0, 2): 1}))
    with pytest.raises(MalformedCertificateError, match="not an integer"):
        verify_certificate(SubdrawingCertificate(host, rotation, {(0, 2): True}))


def test_verify_dangling_index_raises_on_genus_one_rotation():
    # the structural check comes before the genus check
    k4 = make_complete(4)
    hedges = k4.edges[:-1]
    h = Graph(4, hedges)
    rotation = next(r for r in enumerate_rotation_systems(h) if genus(r) == 1)
    with pytest.raises(MalformedCertificateError):
        verify_certificate(SubdrawingCertificate(k4, rotation, {k4.edges[-1]: 7}))


def test_feasible_examples():
    k4 = make_complete(4)
    cert = feasible(k4, k4.edges)
    assert cert is not None and len(cert.face_assignment) == 0
    faces = trace_faces(cert.rotation)
    assert len(faces) == 4 and all(len(f) == 3 for f in faces)

    k5 = make_complete(5)
    assert feasible(k5, k5.edges) is None  # K_5 has no planar embedding

    cert = feasible(k5, make_wheel(5).edges)
    assert cert is not None and verify_certificate(cert)
    assert sorted(cert.face_assignment) == [(1, 3), (2, 4)]

    # the budget counts H's rotation systems, not the host's 191,102,976
    k6 = make_complete(6)
    h = tuple(e for e in k6.edges if e not in ((3, 4), (3, 5), (4, 5)))
    with pytest.raises(SearchBudgetError,
                       match="^110592 rotation systems exceed the budget of 100000$"):
        feasible(k6, h, SearchLimits(max_rotation_budget=100_000))


def test_feasible_rejects_nonspanning():
    k4 = make_complete(4)
    assert feasible(k4, ((0, 1), (1, 2), (0, 2))) is None  # vertex 3 isolated
    assert feasible(k4, ((0, 1), (2, 3))) is None  # disconnected
    # an edge outside the graph, as written, is refused before anything else
    for outside in ((0, 4), (1, 0)):
        with pytest.raises(ValueError, match="^subset contains an edge not in the graph$"):
            feasible(k4, k4.edges[:2] + (outside,))
    # an edge named twice is refused, though the rest of the set is infeasible
    k5 = make_complete(5)
    with pytest.raises(ValueError, match=r"^duplicate edge \(0,1\)$"):
        feasible(k5, k5.edges + ((0, 1),))


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


def test_exact_h_k34_matches_formula():
    h, witness = exact_h(make_complete_bipartite(3, 4))
    assert h == 9 == exact_h_complete_bipartite(3, 4)
    assert verify_certificate(witness) and len(witness.uncrossed) == 9


def test_exact_h_planar_is_m():
    assert exact_h(CUBE)[0] == CUBE.m
    path = Graph.from_edges(5, [(i, i + 1) for i in range(4)])
    assert exact_h(path)[0] == 4


def test_exact_h_limits(monkeypatch):
    with pytest.raises(SearchBudgetError):
        exact_h(make_complete(9))  # default max_n = 8
    with pytest.raises(SearchBudgetError):
        exact_h(make_complete(5), SearchLimits(max_rotation_budget=10))
    # a clock that advances 1 s per reading exhausts the budget at the first
    # check, so the outcome does not depend on how fast the search runs
    clock = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(oracle.time, "monotonic", lambda: float(next(clock)))
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


def _systems_in_kernel_order(h):
    # every rotation system of h once, as enumerate_rotation_systems makes
    # them, but with the vertices fixed in the kernel's ascending
    # (degree, vertex) order: the first of them varies slowest
    adj = h.adjacency()
    fix_order = sorted(range(h.n), key=lambda v: (len(adj[v]), v))
    arrangements = [[tuple(a[:1]) + rest for rest in itertools.permutations(a[1:])] for a in adj]
    for combo in itertools.product(*(arrangements[v] for v in fix_order)):
        orders = dict(zip(fix_order, combo))
        yield RotationSystem(h, tuple(orders[v] for v in range(h.n)))


def test_feasible_matches_brute_force_reference():
    # every connected spanning subset H of every connected graph with
    # n <= 5: feasible() finds a witness exactly when a plain scan of the
    # rotation systems in the kernel's order does, and it is the scan's
    # first hit
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
                for r in _systems_in_kernel_order(h):
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
    assert (subsets, systems) == (1661, 26380)


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
                for r in _systems_in_kernel_order(h):
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
    assert (subsets, systems) == (74389, 1877492)


def test_certificate_json_round_trip():
    _, cert = wheel_certificate_in_k5()
    data = cert.to_json_dict()
    back = SubdrawingCertificate.from_json_dict(data)
    assert back.graph == cert.graph
    assert back.uncrossed == cert.uncrossed
    assert back.rotation == cert.rotation
    assert back.face_assignment == cert.face_assignment
    assert verify_certificate(back)


def test_orbit_cache_kernel_calls_on_k6(monkeypatch):
    # K_6 is edge-transitive and more: one kernel call per orbit of
    # infeasible candidates and per orbit of feasible sets met in a level,
    # some of them refuted by a K_5 or K_{3,3} with no search; exact_unc
    # makes one more call, for the witness of a cover set that the walk
    # yielded as an image, unsearched.  Every call builds one kernel and
    # runs all its searches on it, K_{3,3}'s unsearched cover set too
    calls = []
    builds = []
    search = RotationKernel.search
    init = RotationKernel.__init__

    def counted(kernel, mask, budget):
        calls.append(any(k & mask == k for k in kernel.kuratowski))
        return search(kernel, mask, budget)

    def built(kernel, g):
        builds.append(g)
        init(kernel, g)

    monkeypatch.setattr(RotationKernel, "search", counted)
    monkeypatch.setattr(RotationKernel, "__init__", built)
    k6 = make_complete(6)
    assert exact_h(k6)[0] == 10
    assert (len(calls), sum(calls)) == (20, 6)
    calls.clear()
    assert exact_unc(k6)[0] == 2
    assert (len(calls), sum(calls)) == (29, 7)
    calls.clear()
    assert len(maximal_feasible_sets(k6)) == 612
    assert (len(calls), sum(calls)) == (60, 8)
    assert builds == [k6] * 3
    k33 = make_complete_bipartite(3, 3)
    builds.clear()
    assert exact_h(k33)[0] == 7
    assert exact_unc(k33)[0] == 2
    assert len(maximal_feasible_sets(k33)) == 18
    assert builds == [k33] * 3


def test_budget_checked_before_kuratowski_masks():
    # the walk's first candidate, K_6 less (3, 4), (3, 5) and (4, 5), holds
    # the K_{3,3} {0, 1, 2} x {3, 4, 5}, and the budget still refuses it
    with pytest.raises(SearchBudgetError,
                       match="^110592 rotation systems exceed the budget of 100000$"):
        exact_h(make_complete(6), SearchLimits(max_rotation_budget=100_000))


def test_kuratowski_masks_fire_on_k5_and_k33():
    for g in (make_complete(5), make_complete_bipartite(3, 3)):
        assert RotationKernel(g).kuratowski == ((1 << g.m) - 1,)
    assert len(RotationKernel(make_complete(6)).kuratowski) == 6 + 10


def test_kuratowski_refutations_are_nonplanar(monkeypatch):
    # every walk candidate that holds a K_5 or K_{3,3} mask is non-planar,
    # on every connected graph with n <= 6 and the 7-vertex ones with 11
    # edges
    refuted = []
    search = RotationKernel.search

    def recorded(kernel, mask, budget):
        if any(k & mask == k for k in kernel.kuratowski):
            refuted.append((kernel, mask))
        return search(kernel, mask, budget)

    monkeypatch.setattr(RotationKernel, "search", recorded)
    graphs = small_connected_corpus(6) + _atlas_7(11)
    checked = 0
    for g in graphs:
        refuted.clear()
        maximal_feasible_sets(g, SearchLimits(max_n=7))
        for kernel, mask in refuted:
            hedges = [e for i, e in enumerate(g.edges) if mask >> i & 1]
            assert not nx.check_planarity(nx.Graph(hedges))[0], (g, hedges)
            checked += 1
    assert checked > 0


@pytest.mark.slow
def test_exact_h_k7_under_raised_budget():
    # K_7 has 27,648,000 rotation systems, over the default budget; the
    # pruned search gets through them once the budget allows it
    h, witness = exact_h(make_complete(7), SearchLimits(max_rotation_budget=10**9))
    assert h == 12 == exact_h_complete(7)
    assert verify_certificate(witness)


def _reference_walk(g):
    # the size-descending walk without any cache: skip subsets of sets
    # already found and run the kernel on every other spanning connected
    # candidate
    found = []
    budget = DEFAULT_UNC_LIMITS.max_rotation_budget
    kernel = RotationKernel(g)
    for size in range(g.m if g.n < 3 else min(g.m, 3 * g.n - 6), g.n - 2, -1):
        for hedges in itertools.combinations(g.edges, size):
            if any(set(hedges) <= set(f) for f, _ in found):
                continue
            if not Graph(g.n, hedges).is_connected():
                continue
            mask = sum(1 << g.edges.index(e) for e in hedges)
            orders = kernel.search(mask, budget)
            if orders is not None:
                found.append((hedges, orders))
    return found


def _walk_sets(g, limits=DEFAULT_UNC_LIMITS):
    # the walk's sets as (edges, witness orders), without its level ends,
    # each witness read once the walk is done; each set's mask has the
    # bits of its edges' indices in g.edges, and each level end is the
    # column index of the sets yielded before it
    sets = []
    masks = []
    for item in oracle._walk(g, limits):
        if isinstance(item, tuple):
            hedges, mask, orders = item
            assert mask == sum(1 << g.edges.index(e) for e in hedges)
            sets.append((hedges, orders))
            masks.append(mask)
        else:
            assert item == [sum(1 << j for j, mask in enumerate(masks) if mask >> i & 1)
                            for i in range(g.m)]
    return [(hedges, orders()) for hedges, orders in sets]


@pytest.mark.slow
def test_orbit_cache_walk_matches_reference():
    # same maximal sets in the same order, each with the same first
    # rotation, on the dense graphs where most candidates are infeasible
    k6 = make_complete(6)
    dense = [g for g in connected_graphs_up_to_iso(6) if g.m in (12, 13)]
    assert len(dense) == 7
    graphs = dense + [make_complete_bipartite(3, 3), Graph(6, k6.edges[1:]), k6]
    for g in graphs:
        reference = _reference_walk(g)
        assert maximal_feasible_sets(g) == tuple(h for h, _ in reference), g
        assert _walk_sets(g) == reference, g


def test_walk_matches_reference_on_small_graphs():
    # the combinations walk meets exactly the candidates of the reference
    # walk, in its order: every connected graph with n <= 5, K_{3,3}, the
    # wheel on 6 vertices, and the 6-vertex graphs with 11 to 13 edges,
    # the smallest whose maximal sets come in more than one size
    graphs = small_connected_corpus(5) + [make_complete_bipartite(3, 3), make_wheel(6)]
    graphs += [g for g in connected_graphs_up_to_iso(6) if 11 <= g.m <= 13]
    for g in graphs:
        assert _walk_sets(g) == _reference_walk(g), g


def _atlas_7(m):
    # the connected 7-vertex graphs with m edges, in atlas order
    return [Graph.from_edges(7, list(a.edges())) for a in nx.graph_atlas_g()
            if a.number_of_nodes() == 7 and a.number_of_edges() == m and nx.is_connected(a)]


@pytest.mark.parametrize("m, count", [
    (11, 138),
    pytest.param(12, 126, marks=pytest.mark.slow),
    pytest.param(13, 95, marks=pytest.mark.slow),
])
def test_walk_matches_reference_on_7_vertex_graphs(m, count):
    # the walk against the cache-free reference walk at n = 7, on every
    # connected graph with m edges
    graphs = _atlas_7(m)
    assert len(graphs) == count
    for g in graphs:
        assert _walk_sets(g, SearchLimits(max_n=7)) == _reference_walk(g), g
