"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with plain `pytest`; the oracle-heavy criteria (1 and 4) take a few
minutes on K_6-sized searches and are marked `slow`.
"""

import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import small_connected_corpus

from uncrossed.bounds import (
    FaceCounts,
    alpha_bound,
    best_combined_bound,
    complex_bound,
    h_upper,
    simple_bound,
    unc_from_h,
    unc_lower,
    unc_lower_quadratic,
)
from uncrossed.cli import main as cli_main
from uncrossed.construction import check_tightness, construct
from uncrossed.embedding import RotationSystem, face_profile, genus, trace_faces
from uncrossed.errors import NotApplicableError
from uncrossed.graphs import (
    Graph,
    make_complete,
    make_complete_bipartite,
    make_random_gnm,
    serialize_edge_list,
)
from uncrossed.oracle import SearchLimits, exact_h, exact_unc, verify_certificate

# exact_h results shared between criteria so K_6 is searched only once
_H_CACHE: dict[tuple[int, tuple], tuple] = {}


def _cached_exact_h(g: Graph, limits=SearchLimits()):
    key = (g.n, g.edges)
    if key not in _H_CACHE:
        _H_CACHE[key] = exact_h(g, limits)
    return _H_CACHE[key]


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num} PASS {description}")


@pytest.mark.slow
def test_criterion_1_exact_values():
    with criterion(1, "exact oracle values on K_4, K_5, K_6, K_{3,3}"):
        assert _cached_exact_h(make_complete(4))[0] == 6

        t0 = time.monotonic()
        h5 = _cached_exact_h(make_complete(5))[0]
        t5 = time.monotonic() - t0
        assert h5 == 8
        assert t5 < 60, f"K_5 took {t5:.1f}s"

        t0 = time.monotonic()
        h6 = _cached_exact_h(make_complete(6))[0]
        t6 = time.monotonic() - t0
        assert h6 == 10
        assert t6 < 1800, f"K_6 took {t6:.1f}s"

        assert _cached_exact_h(make_complete_bipartite(3, 3))[0] == 7
        print(f"  (K_5 in {t5:.1f}s, K_6 in {t6:.1f}s)")


def test_criterion_2_construction_identities():
    with criterion(2, "construction identities and tightness sweep"):
        spot = construct(Fraction(3, 10), 20)
        assert (spot.x, spot.stats.m, spot.stats.m_prime) == (14, 120, 43)
        for num in range(3, 10):  # epsilon = 0.15, 0.20, ..., 0.45
            eps = Fraction(num, 20)
            for n in (20, 40, 80):
                rec = construct(eps, n)
                x, s = rec.x, rec.stats
                assert s.m == 3 * n - 3 + x * (x - 5) // 2
                assert s.m_prime == 3 * n - 3 - x
                assert s.t == 2 * n - 2 - x
                # property 1, m' >= 3n - 3 - sqrt(2m), in integers
                short = 3 * n - 3 - s.m_prime
                assert 0 <= short and short * short <= 2 * s.m
                window_high = eps + Fraction(1, n) + Fraction(1, 2 * n * n)
                assert eps <= Fraction(s.m, n * n) <= window_high
                assert verify_certificate(rec.certificate)
                check_tightness(rec)  # re-asserts everything independently


def test_criterion_3_alpha_cross_identity():
    with criterion(3, "alpha-bound instantiation matches the closed form"):
        rng = random.Random(20240)
        for _ in range(1000):
            n = rng.randint(4, 10**4)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            alpha = math.sqrt((3 * n - 6) / m)
            assert abs(alpha_bound(n, m, alpha) - h_upper(n, m)) <= 1e-9
        for n in (3, 4, 17, 100, 12345):
            assert h_upper(n, 3 * n - 6) == 3 * n - 6


def _bound_checks(g: Graph, h: int, unc: int, witness) -> None:
    n, m = g.n, g.m
    assert h >= n - 1
    if n < 3:
        return
    assert h <= h_upper(n, m) + 1e-9
    best, _ = best_combined_bound(n, m)
    assert h <= best + 1e-9
    lowers = [unc_from_h(m, h), unc_lower(n, m)]
    try:
        lowers.append(unc_lower_quadratic(n, m))
    except NotApplicableError:
        pass
    assert unc >= max(lowers)

    prof = face_profile(trace_faces(witness.rotation))
    assert sum((l - 2) * c for l, c in prof.items()) == 2 * n - 4
    for k in range(3, 2 * n + 1):
        fc = FaceCounts.from_profile(k, prof)
        cb = complex_bound(n, m, fc)
        assert cb.feasible, f"infeasible s-vector at k={k} for {g.edges}"
        assert cb.b_minus - 1e-9 <= h <= cb.b_plus + 1e-9
        assert h <= simple_bound(n, fc) + 1e-9


def _is_planar(g: Graph) -> bool:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges)
    return nx.check_planarity(nxg)[0]


@pytest.mark.slow
def test_criterion_4_sandwich_on_exhaustive_corpus():
    with criterion(4, "sandwich suite over all connected graphs with n <= 6"):
        corpus = small_connected_corpus(6)
        assert len(corpus) == 143
        limits = SearchLimits(max_n=6)
        t0 = time.monotonic()
        for g in corpus:
            h, witness = _cached_exact_h(g, limits)
            assert verify_certificate(witness)
            unc, cover = exact_unc(g, limits)
            for cert in cover:
                assert verify_certificate(cert)
            covered = set()
            for cert in cover:
                covered |= set(cert.uncrossed)
            assert covered == set(g.edges) or g.m == 0
            # independent planarity cross-check: planar iff every edge
            # survives in one drawing iff a single drawing suffices
            planar = _is_planar(g)
            assert (h == g.m) == planar
            assert (unc == 1) == planar or g.m == 0
            _bound_checks(g, h, unc, witness)
        print(f"  (143 graphs in {time.monotonic() - t0:.0f}s)")


@pytest.mark.slow
def test_sandwich_on_connected_7_vertex_graphs():
    # the criterion-4 sandwich at n = 7, under a budget that lets the
    # kernel through K_7: h <= h_upper and unc >= each lower bound, and
    # every witness and cover member verifies
    corpus = [Graph.from_edges(7, list(a.edges())) for a in nx.graph_atlas_g()
              if a.number_of_nodes() == 7 and nx.is_connected(a)]
    assert len(corpus) == 853
    limits = SearchLimits(max_n=7, max_rotation_budget=10**9)
    for g in corpus:
        h, witness = exact_h(g, limits)
        assert verify_certificate(witness) and len(witness.uncrossed) == h
        unc, cover = exact_unc(g, limits)
        assert all(verify_certificate(cert) for cert in cover) and len(cover) == unc
        assert set().union(*(cert.uncrossed for cert in cover)) == set(g.edges)
        _bound_checks(g, h, unc, witness)


def test_criterion_5_euler_face_properties():
    with criterion(5, "handshake and Euler face identities on random embeddings"):
        rng = random.Random(555)
        checked = 0
        attempts = 0
        while checked < 10**4:
            attempts += 1
            n = rng.randint(3, 9)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = make_random_gnm(n, m, seed=attempts)
            if not g.is_connected():
                continue
            orders = []
            for a in g.adjacency():
                a = list(a)
                rng.shuffle(a)
                orders.append(tuple(a))
            r = RotationSystem(g, tuple(orders))
            faces = trace_faces(r)
            assert sum(len(f) for f in faces) == 2 * g.m
            gen = genus(r)  # raises on non-integer or negative genus
            assert gen >= 0
            if gen == 0:
                prof = face_profile(faces)
                assert sum((l - 2) * c for l, c in prof.items()) == 2 * g.n - 4
            checked += 1


def test_criterion_6_dense_regime():
    with criterion(6, "dense-regime agreement with the exact complete-graph value"):
        for n in (10**3, 10**4):
            m = n * (n - 1) // 2
            exact = (n - 1 + 3) // 4
            new = unc_lower(n, m)
            old = unc_lower_quadratic(n, m)
            assert 0.95 <= new / exact <= 1.0
            assert new >= old
        n = 10**6
        for num in (1, 2, 3, 4):
            m = num * n * n // 10
            denominator = 3 * n - 6 - math.sqrt(2 * m) + math.sqrt(6 * (n - 2))
            target = (3 - math.sqrt(2 * num / 10)) * n
            assert 0.99 <= denominator / target <= 1.01


def test_criterion_7_determinism(tmp_path, capsys):
    with criterion(7, "byte-identical outputs for every subcommand"):
        k5 = tmp_path / "k5.edgelist"
        k5.write_text(serialize_edge_list(make_complete(5)))

        def run_twice(argv_fn, files=()):
            stdouts = []
            for tag in ("a", "b"):
                assert cli_main(argv_fn(tag)) == 0
                stdouts.append(capsys.readouterr().out)
            assert stdouts[0] == stdouts[1]
            for name in files:
                assert (tmp_path / ("a" + name)).read_bytes() == (
                    tmp_path / ("b" + name)
                ).read_bytes()

        run_twice(lambda t: ["bounds", "--in", str(k5), "--csv", str(tmp_path / (t + "b.csv"))],
                  files=("b.csv",))
        run_twice(
            lambda t: ["construct", "--epsilon", "3/10", "--n", "20",
                       "--out", str(tmp_path / (t + "rec")), "--svg"])
        for name in ("record.json", "graph.edgelist", "drawing.svg"):
            assert (tmp_path / "arec" / name).read_bytes() == (
                tmp_path / "brec" / name).read_bytes()
        run_twice(lambda t: ["oracle-h", "--in", str(k5), "--out", str(tmp_path / (t + "h.json"))],
                  files=("h.json",))
        run_twice(lambda t: ["oracle-unc", "--in", str(k5), "--out", str(tmp_path / (t + "u.json"))],
                  files=("u.json",))
        run_twice(lambda t: ["verify-tightness", "--out", str(tmp_path / (t + "v.csv"))],
                  files=("v.csv",))
        run_twice(lambda t: ["compare-bounds", "--out", str(tmp_path / (t + "c.csv"))],
                  files=("c.csv",))
        run_twice(lambda t: ["render", "--in", str(tmp_path / "ah.json"),
                             "--out", str(tmp_path / (t + "r.svg"))],
                  files=("r.svg",))
