import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uncrossed.construction import (
    ConstructionRecord,
    build_construction,
    check_tightness,
    choose_x,
    construct,
    layout_coordinates,
)
from uncrossed.embedding import face_profile, trace_faces
from uncrossed.errors import ConstructionIntegrityError, MalformedCertificateError, NotApplicableError
from uncrossed.graphs import make_complete
from uncrossed.oracle import verify_certificate


def test_choose_x_examples():
    assert choose_x(Fraction(3, 10), 20) == (14, 14.0)
    x, x0 = choose_x(Fraction(9, 20), 10)
    assert (x, x0) == (9, 9.0)  # boundary: construction degenerates to K_10


def test_choose_x_gates():
    with pytest.raises(NotApplicableError, match="n < 3/epsilon"):
        choose_x(Fraction(3, 10), 9)
    with pytest.raises(NotApplicableError, match=r"\(n-1\)/\(2n\)"):
        choose_x(Fraction(1, 2), 20)
    with pytest.raises(NotApplicableError):
        choose_x(0, 20)


def _least_rim(disc: Fraction) -> int:
    # the least integer x >= 5/2 with x >= 5/2 + sqrt(disc), decided by
    # squaring: (2x - 5)^2 q >= 4p for disc = p/q
    p, q = disc.numerator, disc.denominator

    def holds(x):
        return (2 * x - 5) ** 2 * q >= 4 * p

    lo = hi = 3
    while not holds(hi):
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid + 1, hi)
    return lo


def _disc(eps: Fraction, n: int) -> Fraction:
    return Fraction(25, 4) + 2 * (eps * n * n - 3 * (n - 1))


def _eps(disc: Fraction, n: int) -> Fraction:
    return (disc - Fraction(25, 4) + 6 * (n - 1)) / (2 * n * n)


def _in_gates(eps: Fraction, n: int) -> bool:
    return eps > 0 and n >= 3 / eps and eps <= Fraction(n - 1, 2 * n)


def test_choose_x_matches_squaring_reference_at_rational_roots():
    # disc = (k/2)^2, where the root is rational and a bracket of it has
    # no width, and disc a hair either side, where the ceiling steps
    checked = 0
    for n in range(3, 80):
        for k in range(1, 2 * n + 8):
            for shift in (0, Fraction(1, 10**9), -Fraction(1, 10**9)):
                eps = _eps(Fraction(k * k, 4) + shift, n)
                if _in_gates(eps, n):
                    assert choose_x(eps, n)[0] == _least_rim(_disc(eps, n)), (eps, n)
                    checked += 1
    assert checked > 10_000


@settings(max_examples=300, deadline=None)
@given(st.integers(7, 10**9), st.integers(0, 10**6), st.integers(1, 10**6))
def test_choose_x_matches_squaring_reference(n, num, den):
    # a random epsilon between the gates 3/n and (n-1)/(2n), which meet
    # only from n = 7 on
    lo, hi = Fraction(3, n), Fraction(n - 1, 2 * n)
    eps = lo + (hi - lo) * Fraction(min(num, den), den)
    assert choose_x(eps, n)[0] == _least_rim(_disc(eps, n))


def test_build_14_20():
    rec = build_construction(14, 20)
    assert rec.stats.m == 120
    assert rec.stats.m_prime == 43
    assert rec.stats.t == 24
    assert rec.stats.f == 25
    assert len(rec.crossed_edges) == 14 * 11 // 2
    assert verify_certificate(rec.certificate)


def test_build_smallest():
    rec = build_construction(3, 4)
    assert rec.graph == make_complete(4)
    assert rec.stats.m == rec.stats.m_prime == 6
    assert rec.crossed_edges == ()


def test_build_degenerates_to_complete():
    rec = construct(Fraction(9, 20), 10)
    assert rec.graph == make_complete(10)
    assert rec.stats.m == 45
    assert rec.stats.m_prime == 18  # 2n - 2, the exact wheel witness


def test_build_rejects_bad_x():
    with pytest.raises(ValueError):
        build_construction(2, 10)
    with pytest.raises(ValueError):
        build_construction(10, 10)


@pytest.mark.parametrize("x,n", [(3, 4), (3, 9), (5, 11), (7, 8), (14, 20), (9, 10), (20, 50)])
def test_identities_and_certificates(x, n):
    rec = build_construction(x, n)
    g = rec.graph
    assert g.is_connected()
    assert g.m == 3 * n - 3 + x * (x - 5) // 2
    assert rec.stats.m_prime == 3 * n - 3 - x
    assert rec.stats.t == 2 * n - 2 - x
    assert verify_certificate(rec.certificate)
    prof = face_profile(trace_faces(rec.certificate.rotation))
    assert sum((l - 2) * c for l, c in prof.items()) == 2 * n - 4
    expected_s3 = rec.stats.t + (1 if x == 3 else 0)
    assert prof[3] == expected_s3


def test_full_parameter_sweep():
    # every admissible (x, n) with n <= 50: identities plus certificates
    for n in range(4, 51):
        for x in range(3, n):
            rec = build_construction(x, n)
            assert rec.graph.is_connected()
            assert rec.stats.m == 3 * n - 3 + x * (x - 5) // 2
            assert rec.stats.t == 2 * n - 2 - x
            assert verify_certificate(rec.certificate)
    assert build_construction(49, 50).graph == make_complete(50)


def test_tightness_report():
    rec = construct(Fraction(3, 10), 20)
    report = check_tightness(rec)
    assert report["lower"] == pytest.approx(57 - math.sqrt(240), abs=1e-9)
    assert rec.stats.m_prime >= report["lower"]
    assert rec.stats.density == Fraction(3, 10)
    assert report["window_high"] == Fraction(3, 10) + Fraction(1, 20) + Fraction(1, 800)

    exact = construct(Fraction(9, 20), 10)
    assert exact.stats.density == Fraction(9, 20)  # m/n^2 hits epsilon exactly


def test_tightness_sweep_rationals():
    for num in range(3, 10):  # epsilon = 0.15 .. 0.45 in 0.05 steps
        eps = Fraction(num, 20)
        for n in (20, 40, 80):
            rec = construct(eps, n)
            report = check_tightness(rec)
            assert eps <= report["density"] <= report["window_high"]


def test_tampered_record_fails():
    rec = construct(Fraction(3, 10), 20)
    bad = rec.replace(stats=rec.stats.replace(m_prime=rec.stats.m_prime + 1))
    with pytest.raises(ConstructionIntegrityError):
        check_tightness(bad)


def test_tightness_needs_target():
    rec = build_construction(5, 11)
    with pytest.raises(ValueError):
        check_tightness(rec)


def _in_triangle(p, a, b, c) -> bool:
    def cross(o, q, r):
        return (q[0] - o[0]) * (r[1] - o[1]) - (q[1] - o[1]) * (r[0] - o[0])

    d1, d2, d3 = cross(p, a, b), cross(p, b, c), cross(p, c, a)
    return (d1 > 0 and d2 > 0 and d3 > 0) or (d1 < 0 and d2 < 0 and d3 < 0)


def test_layout():
    rec = build_construction(4, 5)  # wheel only
    coords = rec.coordinates
    assert coords[0] == (0.0, 0.0)
    for i in range(1, 5):
        assert math.hypot(*coords[i]) == pytest.approx(1.0)

    rec = build_construction(14, 20)
    for w, a, b, c in rec.stack_hosts:
        assert _in_triangle(rec.coordinates[w], rec.coordinates[a],
                            rec.coordinates[b], rec.coordinates[c])
    assert layout_coordinates(rec) == rec.coordinates  # deterministic recompute


def test_record_json_round_trip():
    rec = construct(Fraction(3, 10), 20)
    data = rec.to_json_dict()
    back = ConstructionRecord.from_json_dict(data)
    assert back.graph == rec.graph
    assert back.stats == rec.stats
    assert back.certificate.uncrossed == rec.certificate.uncrossed
    assert back.certificate.face_assignment == rec.certificate.face_assignment
    check_tightness(back)


UNASSIGNED = "crossed != assignment keys"


@pytest.mark.parametrize("crossed,fault", [
    ([[2, 5], [1, 3], [3, 5], [1, 4], [2, 4]], None),  # every chord, in any order
    ([[1, 3], [1, 3]], UNASSIGNED),
    ([[1, 3], [0, 7]], UNASSIGNED),
    ([[1, 3], [1, 3], [3, 1]], UNASSIGNED),  # (3, 1) is unsorted
    ([[1, 3], [1, 3, 5]], UNASSIGNED),
    ([[2, 5], [1, 3]], UNASSIGNED),  # two of the five
    ([[1, 3], [1, 3], [1, 4], [2, 4], [2, 5]], UNASSIGNED),  # five, with (3, 5) left out
])
def test_record_json_crossed_edges_checked(crossed, fault):
    # the crossed edges must be exactly the certificate's assigned edges,
    # each named once, in any order; the record reads them back ascending
    # from its certificate
    data = build_construction(5, 7).to_json_dict()
    data["crossed"] = crossed
    if fault is None:
        back = ConstructionRecord.from_json_dict(data)
        assert back.crossed_edges == tuple(sorted(map(tuple, crossed)))
        return
    with pytest.raises(MalformedCertificateError, match=f"^{fault}$"):
        ConstructionRecord.from_json_dict(data)
