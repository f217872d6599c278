import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uncrossed.bounds import (
    FaceCounts,
    alpha_bound,
    alpha_bound_report,
    alpha_k,
    best_combined_bound,
    combined_bound,
    complex_bound,
    evaluate_bounds,
    exact_h_complete,
    exact_h_complete_bipartite,
    exact_unc_complete,
    h_upper,
    h_upper_triangle_free,
    root_sum_nonnegative,
    simple_bound,
    unc_from_h,
    unc_lower,
    unc_lower_quadratic,
    unc_lower_triangle_free,
)
from uncrossed.errors import NotApplicableError
from uncrossed.graphs import make_complete, make_complete_bipartite


def test_ceilings_exact_at_integers():
    # quotients that are integers exactly, where a float can land either side
    assert unc_lower(10, 24) == 1  # m = 3n - 6: the two roots cancel
    assert unc_lower(8, 72) == 6  # 72 / (18 - sqrt(144) + sqrt(36))
    assert unc_lower_quadratic(3, 4) == 2  # zero discriminant: 4 / 2
    assert unc_lower_quadratic(3, 3) == 1  # 3 / ((4 + sqrt(4)) / 2)
    assert unc_lower_triangle_free(7, 25) == 3  # m = 5(n - 2): 25 / 10, the roots cancel
    assert unc_lower_triangle_free(12, 800) == 160  # 800 / (20 - sqrt(400) + sqrt(25))
    assert unc_from_h(10, Fraction(10, 3)) == 3
    assert alpha_k(Fraction(3, 5)) == 5
    assert unc_lower(3, 0) == unc_lower_quadratic(9, 0) == 0


def test_unc_lower_705():
    # m / h_upper is 13 + 7.29e-10, inside the old float snap's 1e-9 window
    assert unc_lower(705, 25335) == 14


def _at_least(t: Fraction, plus: int, minus: int) -> bool:
    """t + sqrt(plus) >= sqrt(minus), decided by squaring both sides."""
    if t < 0 and t * t > plus:  # the left side is negative
        return False
    u = minus - t * t - plus  # both sides are >= 0: is 2 t sqrt(plus) >= u?
    if t >= 0:
        return u <= 0 or 4 * t * t * plus >= u * u
    return u <= 0 and u * u >= 4 * t * t * plus


def _ceil_div_reference(num: int, c: int, plus: int, minus: int) -> int:
    """ceil(num / (c + sqrt(plus) - sqrt(minus))): the least k >= 0 with
    k (c + sqrt(plus) - sqrt(minus)) >= num, for a positive denominator."""
    k = 0
    while not (k * c >= num if k == 0 else _at_least(c - Fraction(num, k), plus, minus)):
        k += 1
    return k


def test_ceilings_match_exact_reference_near_integers():
    # every (n, m), n < 250, whose float quotient lies within 1e-7 of an
    # integer, against a reference that never brackets a root
    near = []
    root2m = [math.sqrt(2 * m) for m in range(250 * 249 // 2 + 1)]
    for n in range(3, 250):
        ms = range(n - 1, n * (n - 1) // 2 + 1)
        c = 3 * n - 6 + math.sqrt(6 * (n - 2))
        near += [(unc_lower, n, m, m, 3 * n - 6, 6 * (n - 2), 2 * m)
                 for m in ms if abs((x := m / (c - root2m[m])) - round(x)) <= 1e-7]
        b = 3 * n - 5
        near += [(unc_lower_quadratic, n, m, 2 * m, b, b * b - 4 * m, 0)
                 for m in ms if 4 * m <= b * b
                 and abs((x := 2 * m / (b + math.sqrt(b * b - 4 * m))) - round(x)) <= 1e-7]
        c = 4 * n - 8 + math.sqrt(10 * (n - 2))
        near += [(unc_lower_triangle_free, n, m, 2 * m, 4 * n - 8, 10 * (n - 2), 2 * m)
                 for m in ms if c > root2m[m]
                 and abs((x := 2 * m / (c - root2m[m])) - round(x)) <= 1e-7]
    assert len(near) == 5691
    for fn, n, m, num, c, plus, minus in near:
        assert fn(n, m) == _ceil_div_reference(num, c, plus, minus), (fn.__name__, n, m)


@settings(max_examples=300, deadline=None)
@given(plus=st.integers(0, 10**30), minus=st.integers(0, 10**30), d=st.integers(-2, 2),
       square=st.booleans())
def test_root_sum_nonnegative_matches_squaring(plus, minus, d, square):
    # a near sqrt(minus) - sqrt(plus), where the sign is hardest to tell;
    # with perfect squares the sum can be exactly 0
    if square:
        plus, minus = plus * plus, minus * minus
    a = math.isqrt(minus) - math.isqrt(plus) + d
    assert root_sum_nonnegative(a, plus, minus) == _at_least(Fraction(a), plus, minus)


def test_root_sum_nonnegative_at_zero():
    assert root_sum_nonnegative(0, 7, 7) and not root_sum_nonnegative(-1, 7, 7)
    assert root_sum_nonnegative(1, 4, 9) and not root_sum_nonnegative(0, 4, 9)
    assert root_sum_nonnegative(1, 16, 25) and not root_sum_nonnegative(0, 16, 25)


def test_unc_lower_quadratic():
    assert unc_lower_quadratic(8, 28) == 2
    assert unc_lower_quadratic(9, 0) == 0
    assert unc_lower_quadratic(100, 4950) <= exact_unc_complete(100) == 25


def test_unc_lower_quadratic_gate():
    n = 3  # (3n-5)^2 = 16, so m = 5 breaks the discriminant
    with pytest.raises(NotApplicableError):
        unc_lower_quadratic(n, 5)


def test_unc_lower():
    assert unc_lower(8, 28) == 2
    assert unc_lower(10, 9) == 1  # tree
    value = unc_lower(10000, 49995000)
    assert value == 2471
    assert 0.98 <= value / exact_unc_complete(10000) <= 1.0


def test_h_upper():
    for n in (3, 5, 12, 100):
        assert h_upper(n, 3 * n - 6) == pytest.approx(3 * n - 6, abs=1e-9)
    assert h_upper(8, 28) == pytest.approx(16.51668522645212, abs=1e-9)
    assert h_upper(8, 28) >= exact_h_complete(8) == 14
    assert h_upper(20, 120) == pytest.approx(48.9003714605836, abs=1e-9)


def test_triangle_free_bounds():
    assert h_upper_triangle_free(6, 9) == pytest.approx(9.040957316608738, abs=1e-9)
    assert h_upper_triangle_free(6, 9) >= exact_h_complete_bipartite(3, 3) == 7
    assert unc_lower_triangle_free(10, 9) == 1


def test_triangle_free_gate_via_graph():
    reports = {r.name: r for r in evaluate_bounds(make_complete(3), triangle_free_check=True)}
    tf = reports["h_upper_triangle_free"]
    assert not tf.applicable and "triangle" in tf.reason


def test_unc_from_h():
    assert unc_from_h(10, 8) == 2
    assert unc_from_h(28, 14) == 2
    assert unc_from_h(7, 7) == 1
    assert unc_from_h(7, Fraction(7, 2)) == 2
    with pytest.raises(ValueError):
        unc_from_h(5, 0)


def test_simple_bound():
    for n in (4, 9, 30):
        assert simple_bound(n, FaceCounts(3)) == pytest.approx(3 * n - 6)
    # octahedron: 12 edges, met with equality at k=4 with 8 triangles
    assert simple_bound(6, FaceCounts(4, (8,))) == pytest.approx(12.0)
    assert simple_bound(6, FaceCounts(4, (0,))) == pytest.approx(8.0)


def test_complex_bound():
    cb = complex_bound(8, 28, FaceCounts(3))
    assert cb.feasible and cb.delta == pytest.approx(249.0)
    assert cb.b_plus == pytest.approx((19 + math.sqrt(249)) / 2, abs=1e-9)
    # b_3^+ reproduces the quadratic-root denominator
    denom = (3 * 8 - 5 + math.sqrt((3 * 8 - 5) ** 2 - 4 * 28)) / 2
    assert cb.b_plus == pytest.approx(denom, abs=1e-9)

    for n in (5, 9, 17):
        cb = complex_bound(n, 3 * n - 6, FaceCounts(3))
        assert cb.delta == pytest.approx((3 * n - 7) ** 2)
        assert cb.b_minus == pytest.approx(1.0, abs=1e-9)
        assert cb.b_plus == pytest.approx(3 * n - 6, abs=1e-9)

    infeasible = complex_bound(20, 120, FaceCounts(4, (36,)))
    assert not infeasible.feasible and infeasible.delta < 0
    assert infeasible.b_minus is None and infeasible.b_plus is None

    with pytest.raises(ValueError):
        complex_bound(2, 1, FaceCounts(3))


def test_combined_bound():
    assert combined_bound(20, 120, 3) == 54.0
    assert combined_bound(20, 120, 4) == pytest.approx(48.0, abs=1e-9)
    assert combined_bound(20, 120, 5) == pytest.approx(47.39033012149599, abs=1e-9)
    with pytest.raises(NotApplicableError):
        combined_bound(20, 100, 7)  # m <= (k-1)(n-2)


def test_best_combined_bound():
    value, k = best_combined_bound(20, 120)
    assert k == 5 and value == pytest.approx(47.39033012149599, abs=1e-9)
    assert value <= h_upper(20, 120)
    n = 12
    value, k = best_combined_bound(n, n - 1)
    assert (value, k) == (3 * n - 6, 3)
    value, _ = best_combined_bound(8, 28)
    assert 14 <= value <= 16.52


def _scan_best_combined_bound(n, m):
    # every admissible k in turn, keeping the first strict minimum
    best = (float(3 * n - 6), 3)
    k = 4
    while m > (k - 1) * (n - 2):
        value = combined_bound(n, m, k)
        if value < best[0]:
            best = (value, k)
        k += 1
    return best


def test_best_combined_bound_window_matches_full_scan():
    cases = [(n, m) for n in range(3, 41) for m in range(n - 1, n * (n - 1) // 2 + 1)]
    # compare-bounds: its default grid with the K_n rows, and n = 10^6 at 1/10
    for n in (1000, 10000):
        cases += [(n, min(n * n * p // 10, n * (n - 1) // 2)) for p in (1, 2, 3, 4)]
        cases.append((n, n * (n - 1) // 2))
    cases.append((10**6, 10**11))
    for n, m in cases:
        assert best_combined_bound(n, m) == _scan_best_combined_bound(n, m), (n, m)


def test_alpha_bound():
    # the h_upper instantiation: alpha = sqrt((3n-6)/m)
    a = math.sqrt((3 * 20 - 6) / 120)
    assert alpha_bound(20, 120, a) == pytest.approx(h_upper(20, 120), abs=1e-9)
    with pytest.raises(NotApplicableError):
        alpha_bound(20, 120, 0.5)  # (3n-6)/alpha^2 = 216 > 120
    # alpha >= 1: raw value sits at or above the planar cap; report clamps
    raw = alpha_bound(10, 24, 1.5)
    assert raw >= 3 * 10 - 6
    rep = alpha_bound_report(10, 24, 1.5)
    assert rep.applicable and rep.value == 3 * 10 - 6
    assert rep.params["k"] == alpha_k(1.5) == 2
    assert alpha_k(0.67082) == 5


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 10**4), st.data())
def test_alpha_identity_property(n, data):
    m = data.draw(st.integers(n - 1, n * (n - 1) // 2))
    a = math.sqrt((3 * n - 6) / m)
    assert abs(alpha_bound(n, m, a) - h_upper(n, m)) <= 1e-9


def test_dense_regime_constant():
    n = 10**6
    for num in (1, 2, 3, 4):
        eps = num / 10
        m = n * n * num // 10
        denom = 3 * n - 6 - math.sqrt(2 * m) + math.sqrt(6 * (n - 2))
        ratio = (m / denom) / (m / ((3 - math.sqrt(2 * eps)) * n))
        assert 0.99 <= ratio <= 1.01


def test_exact_formulas():
    assert exact_h_complete(5) == 8
    assert exact_h_complete(8) == 14
    with pytest.raises(NotApplicableError):
        exact_h_complete(3)
    assert exact_h_complete_bipartite(3, 3) == 7
    assert exact_h_complete_bipartite(3, 5) == 10  # a < b < 2a
    assert exact_h_complete_bipartite(3, 7) == 13  # 2a <= b
    with pytest.raises(NotApplicableError):
        exact_h_complete_bipartite(2, 5)
    assert exact_unc_complete(9) == 2
    assert exact_unc_complete(100) == 25
    with pytest.raises(NotApplicableError):
        exact_unc_complete(7)


def test_complete_bounds_below_exact():
    for n in range(8, 13):
        m = n * (n - 1) // 2
        exact = exact_unc_complete(n)
        assert unc_lower_quadratic(n, m) <= exact
        assert unc_lower(n, m) <= exact


def test_evaluate_bounds_rows():
    reports = {r.name: r for r in evaluate_bounds(make_complete(8))}
    assert reports["unc_lower_quadratic"].value == 2
    assert reports["unc_lower"].value == 2
    assert reports["h_upper"].value == pytest.approx(16.5167, abs=1e-4)
    assert reports["exact_h_complete"].value == 14
    assert reports["exact_unc_complete"].value == 2  # ceil(7/4)
    reports33 = {r.name: r for r in evaluate_bounds(make_complete_bipartite(3, 3))}
    assert reports33["h_upper_triangle_free"].value == pytest.approx(9.041, abs=1e-3)
    assert reports33["exact_h_complete_bipartite"].value == 7


def test_evaluate_bounds_rejects_disconnected():
    from uncrossed.graphs import Graph

    with pytest.raises(ValueError):
        evaluate_bounds(Graph(4, ((0, 1), (2, 3))))
