"""Closed-form bounds on the uncrossed number and on the maximum
uncrossed subgraph number.

Core functions are purely numeric in (n, m) and optional face-length
counts; graph-aware gating lives in evaluate_bounds.  Irrational values
are evaluated in binary64, but every ceiling is decided exactly: its
square roots are bracketed with math.isqrt, and the brackets are refined
until both ends have the same ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import ConstructionIntegrityError, NotApplicableError
from .graphs import Graph, complete_bipartite_parts, is_complete, is_triangle_free


def _root_sum_bracket(a: int, plus: int, minus: int, bits: int) -> tuple[int, int]:
    """Integers lo <= (a + sqrt(plus) - sqrt(minus)) 2^bits <= hi, from
    math.isqrt.  The root difference is rational only when the radicands
    are equal or both perfect squares, and lo == hi exactly then."""
    if plus == minus:
        return a << bits, a << bits
    p, q = math.isqrt(plus << 2 * bits), math.isqrt(minus << 2 * bits)
    p_up = p + (p * p != plus << 2 * bits)
    q_up = q + (q * q != minus << 2 * bits)
    return (a << bits) + p - q_up, (a << bits) + p_up - q


def root_sum_nonnegative(a: int, plus: int, minus: int) -> bool:
    """a + sqrt(plus) - sqrt(minus) >= 0, decided exactly: the bracket is
    refined until its sign is known.  That ends, since a zero sum has
    equal or perfect-square radicands, and its bracket is exact."""
    bits = 64
    while True:
        lo, hi = _root_sum_bracket(a, plus, minus, bits)
        if lo >= 0 or hi < 0:
            return lo >= 0
        bits *= 2


def _ceil_div_root_sum(num: int, a: int, plus: int, minus: int) -> int:
    """ceil(num / (a + sqrt(plus) - sqrt(minus))) for num >= 0 and a
    positive denominator, exactly: the bracket is refined until both its
    ends give the same ceiling."""
    bits = 64
    while True:
        lo, hi = _root_sum_bracket(a, plus, minus, bits)
        if hi <= 0:
            raise ConstructionIntegrityError(f"denominator of ceil({num} / x) is <= 0")
        if lo > 0:
            c = -(-(num << bits) // hi)
            if c == -(-(num << bits) // lo):
                return c
        bits *= 2


def _require_n3(n: int):
    if n < 3:
        raise NotApplicableError(f"needs n >= 3, got n={n}")


def unc_lower_quadratic(n: int, m: int) -> int:
    """Lower bound on unc via the quadratic-root denominator.

    ceil(m / ((3n-5 + sqrt((3n-5)^2 - 4m)) / 2)); requires a nonnegative
    discriminant.
    """
    _require_n3(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    disc = (3 * n - 5) ** 2 - 4 * m
    if disc < 0:
        raise NotApplicableError(f"(3n-5)^2 = {(3*n-5)**2} < 4m = {4*m}")
    return _ceil_div_root_sum(2 * m, 3 * n - 5, disc, 0)


def h_upper(n: int, m: int) -> float:
    """Upper bound 3n - 6 - sqrt(2m) + sqrt(6(n-2)) on the maximum
    number of uncrossed edges of a connected graph."""
    _require_n3(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    return 3 * n - 6 - math.sqrt(2 * m) + math.sqrt(6 * (n - 2))


def unc_lower(n: int, m: int) -> int:
    """Lower bound ceil(m / h_upper(n, m)) on the uncrossed number."""
    denom = h_upper(n, m)
    if denom <= 0:  # stays positive for any simple graph
        raise ConstructionIntegrityError(f"denominator {denom} <= 0 for n={n}, m={m}")
    return _ceil_div_root_sum(m, 3 * n - 6, 6 * (n - 2), 2 * m)


def h_upper_triangle_free(n: int, m: int) -> float:
    """Triangle-free refinement: 2n - 4 - sqrt(m/2) + sqrt(5(n-2)/2)."""
    _require_n3(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    return 2 * n - 4 - math.sqrt(m / 2) + math.sqrt(2.5 * (n - 2))


def unc_lower_triangle_free(n: int, m: int) -> int:
    """ceil(m / h_upper_triangle_free(n, m)), which is
    ceil(2m / (4n - 8 - sqrt(2m) + sqrt(10(n-2))))."""
    denom = h_upper_triangle_free(n, m)
    if denom <= 0:
        raise ConstructionIntegrityError(f"denominator {denom} <= 0 for n={n}, m={m}")
    return _ceil_div_root_sum(2 * m, 4 * n - 8, 10 * (n - 2), 2 * m)


def unc_from_h(m: int, h: int | Fraction) -> int:
    """ceil(m / h): uncrossed collections need at least this many drawings."""
    if h <= 0:
        raise ValueError("h must be positive")
    return math.ceil(m / Fraction(h))


@dataclass(frozen=True)
class FaceCounts:
    """Truncated face-length counts s_3..s_{k-1} used by the face bounds."""

    k: int
    s: tuple[int, ...] = ()  # s[i] is the count of faces of length 3+i

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if len(self.s) != self.k - 3:
            raise ValueError(f"need s_3..s_{self.k - 1}, got {len(self.s)} values")
        if any(c < 0 for c in self.s):
            raise ValueError("face counts must be nonnegative")

    @staticmethod
    def from_profile(k: int, s_by_length: dict[int, int]) -> "FaceCounts":
        return FaceCounts(k, tuple(s_by_length.get(l, 0) for l in range(3, k)))

    def weighted(self, weight) -> float:
        return sum(weight(l) * c for l, c in zip(range(3, self.k), self.s))


def simple_bound(n: int, fc: FaceCounts) -> float:
    """Euler-type bound k/(k-2) n - 2k/(k-2) + sum (k-l)/(k-2) s_l."""
    _require_n3(n)
    k = fc.k
    return k / (k - 2) * n - 2 * k / (k - 2) + fc.weighted(lambda l: (k - l) / (k - 2))


@dataclass(frozen=True)
class ComplexBound:
    delta: float
    b_minus: Optional[float]
    b_plus: Optional[float]
    feasible: bool


def complex_bound(n: int, m: int, fc: FaceCounts) -> ComplexBound:
    """Both roots of the quadratic face-count bound.

    feasible=False signals a negative discriminant: the supplied
    truncated face counts cannot occur for this (n, m).
    """
    if not (n >= 3 and m >= n - 1 >= 2):
        raise ValueError(f"needs n >= 3 and m >= n-1 >= 2, got n={n}, m={m}")
    sum_l2 = fc.weighted(lambda l: l - 2)
    sum_l23 = fc.weighted(lambda l: (l - 2) * (l - 3) / 2)
    delta = (3 * n - 7 - 1.5 * sum_l2) ** 2 - 4 * (m - 3 * n + 6 - sum_l23)
    if delta < 0:
        return ComplexBound(delta, None, None, False)
    mid = 3 * n - 5 + fc.weighted(lambda l: 3 - l / 2)
    root = math.sqrt(delta)
    return ComplexBound(delta, (mid - root) / 2, (mid + root) / 2, True)


def combined_bound(n: int, m: int, k: int) -> float:
    """Upper bound from combining the simple and quadratic face bounds.

    k = 3 gives the trivial 3n - 6; k >= 4 requires m > (k-1)(n-2).
    """
    _require_n3(n)
    if k < 3:
        raise ValueError("k must be >= 3")
    if k == 3:
        return float(3 * n - 6)
    if m <= (k - 1) * (n - 2):
        raise NotApplicableError(f"m = {m} <= (k-1)(n-2) = {(k - 1) * (n - 2)}")
    rad = 2 * (m - (n - 2) * (k - 1)) / (k * (k - 3)) + 1 / k**2
    return 3 * n - 7 + 3 / k - (k - 3) * math.sqrt(rad)


def best_combined_bound(n: int, m: int) -> tuple[float, int]:
    """Minimum of combined_bound over every admissible k; returns (value, k),
    with the smallest such k, as a scan upward from k = 3 finds it.

    Only a window around k0 = floor(k*) is evaluated, k* = sqrt(3m/N + 3)
    with N = n - 2.  For k > 3, combined_bound(n, m, k) equals
    3n - 7 + 3/k - sqrt(2 g(k) + (1 - 3/k)^2), where
    g(k) = (1 - 3/k)(m + N - N k) is concave and peaks at k*.  On the reals
    the bound falls on [4, k*], where 3/k falls and g and (1 - 3/k)^2 grow.
    It rises on [k* + 2, oo): its derivative there has the sign of
    N(k^2 - k*^2) - 3 sqrt(2 g(k) + (1 - 3/k)^2) - 3(1 - 3/k), and
    N(k^2 - k*^2) >= 4N k* + 4N beats sqrt(6N) k* + 6, which bounds the
    rest since g(k) <= N k*^2 / 3 and k* >= sqrt(6).  The admissible k,
    those with m > N(k - 1), end at k_max = ceil(m/N) >= k0 - 2.  So the
    minimum sits in [min(k0, k_max), k0 + 3]; the window also takes the
    two k below k0, so that float rounding on the flat bottom cannot make
    it miss a first minimum that a full scan would return.
    """
    _require_n3(n)
    if m < n - 1:
        raise ValueError("expects a connected graph, so m >= n-1")
    best = (float(3 * n - 6), 3)
    k0 = math.isqrt(3 * m // (n - 2) + 3)
    k_max = (m - 1) // (n - 2) + 1
    for k in range(max(4, k0 - 2), min(k_max, k0 + 3) + 1):
        value = combined_bound(n, m, k)
        if value < best[0]:
            best = (value, k)
    return best


def alpha_bound(n: int, m: int, alpha: float) -> float:
    """Scaled bound 3n - 6 - (1 - alpha) sqrt(2m), valid for
    m >= (3n-6)/alpha^2.

    Values above 3n - 6 (alpha >= 1) are trivially superseded by the
    planar cap; callers wanting a usable bound should clamp, which
    alpha_bound_report does.
    """
    _require_n3(n)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    # tolerate a few ulps when the gate holds with equality
    if m * alpha * alpha + 1e-9 * max(1.0, float(m)) < 3 * n - 6:
        raise NotApplicableError(f"m = {m} < (3n-6)/alpha^2 = {(3 * n - 6) / alpha**2:.6g}")
    return 3 * n - 6 - (1 - alpha) * math.sqrt(2 * m)


def alpha_k(alpha: float | Fraction) -> int:
    """The face-length threshold ceil(3/alpha) the scaled bound rests on,
    exact in the value alpha holds."""
    return math.ceil(3 / Fraction(alpha))


def exact_h_complete(n: int) -> int:
    """h(K_n) = 2n - 2 for n >= 4."""
    if n < 4:
        raise NotApplicableError(f"formula stated for n >= 4, got n={n}")
    return 2 * n - 2


def exact_h_complete_bipartite(a: int, b: int) -> int:
    """Piecewise h(K_{a,b}) for 3 <= a <= b.

    Parts below 3 are refused: the printed formula disagrees with planar
    K_{2,b} instances, and the original applicability conditions are not
    available here.
    """
    if not 3 <= a <= b:
        raise NotApplicableError(f"gated to 3 <= a <= b, got a={a}, b={b}")
    if a == b:
        return 2 * a + b - 2
    if b < 2 * a:
        return 2 * a + b - 1
    return 2 * a + b


def exact_unc_complete(n: int) -> int:
    """unc(K_n) = ceil((n-1)/4) for n > 7."""
    if n <= 7:
        raise NotApplicableError(f"formula stated for n > 7, got n={n}")
    return (n - 1 + 3) // 4


@dataclass(frozen=True)
class BoundReport:
    name: str
    value: float | int | None
    applicable: bool
    reason: str | None = None
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "applicable": self.applicable,
            "reason": self.reason,
            "params": self.params,
        }


def _report(name: str, fn, params: dict) -> BoundReport:
    try:
        value = fn()
    except NotApplicableError as exc:
        return BoundReport(name, None, False, str(exc), params)
    return BoundReport(name, value, True, None, params)


def alpha_bound_report(n: int, m: int, alpha: float) -> BoundReport:
    """alpha_bound clamped to the trivial planar cap 3n - 6."""
    params = {"n": n, "m": m, "alpha": alpha, "k": alpha_k(alpha)}
    return _report(
        "alpha_bound", lambda: min(alpha_bound(n, m, alpha), float(3 * n - 6)), params
    )


def evaluate_bounds(g: Graph, triangle_free_check: bool = False) -> list[BoundReport]:
    """Every applicable bound for a concrete graph, gates included."""
    if not g.is_connected():
        raise ValueError("bounds assume a connected graph")
    n, m = g.n, g.m
    triangle_free = is_triangle_free(g)
    base = {"n": n, "m": m}
    reports = [
        _report("unc_lower_quadratic", lambda: unc_lower_quadratic(n, m), dict(base)),
        _report("unc_lower", lambda: unc_lower(n, m), dict(base)),
        _report("h_upper", lambda: h_upper(n, m), dict(base)),
    ]

    try:
        value, best_k = best_combined_bound(n, m)
        reports.append(
            BoundReport("best_combined_bound", value, True, None, dict(base, k=best_k))
        )
    except NotApplicableError as exc:
        reports.append(BoundReport("best_combined_bound", None, False, str(exc), dict(base)))

    if triangle_free or triangle_free_check:
        if triangle_free:
            reports.append(
                _report("h_upper_triangle_free", lambda: h_upper_triangle_free(n, m), dict(base))
            )
            reports.append(
                _report(
                    "unc_lower_triangle_free", lambda: unc_lower_triangle_free(n, m), dict(base)
                )
            )
        else:
            for name in ("h_upper_triangle_free", "unc_lower_triangle_free"):
                reports.append(BoundReport(name, None, False, "graph has a triangle", dict(base)))

    if is_complete(g):
        reports.append(_report("exact_h_complete", lambda: exact_h_complete(n), dict(base)))
        reports.append(_report("exact_unc_complete", lambda: exact_unc_complete(n), dict(base)))
    parts = complete_bipartite_parts(g)
    if parts is not None:
        a, b = parts
        reports.append(
            _report(
                "exact_h_complete_bipartite",
                lambda: exact_h_complete_bipartite(a, b),
                dict(base, a=a, b=b),
            )
        )
    return reports
