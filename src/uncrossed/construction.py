"""Density-targeted tight construction.

The graph is a wheel whose rim is completed to a clique (the non-wheel
chords are the crossed edges, living outside the rim circle) plus
repeated stacking of new vertices into interior triangles.  The wheel +
stacked edges form the uncrossed planar part; its size witnesses a
lower bound on the maximum uncrossed subgraph number that matches the
closed-form upper bound up to low-order terms.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import guarded_ceil, h_upper
from .embedding import RotationSystem, trace_faces
from .errors import ConstructionIntegrityError, NotApplicableError
from .graphs import Edge, Graph
from .oracle import SubdrawingCertificate, verify_certificate


@dataclass(frozen=True)
class ConstructionStats:
    m: int
    m_prime: int
    t: int
    f: int
    density: Fraction


@dataclass(frozen=True)
class ConstructionRecord:
    epsilon_target: Fraction | None
    n: int
    x: int
    x0: float | None
    graph: Graph
    certificate: SubdrawingCertificate
    crossed_edges: tuple[Edge, ...]
    coordinates: tuple[tuple[float, float], ...]
    stack_hosts: tuple[tuple[int, int, int, int], ...]  # (new vertex, a, b, c)
    stats: ConstructionStats

    def to_json_dict(self) -> dict:
        return {
            "kind": "construction",
            "epsilon": str(self.epsilon_target) if self.epsilon_target is not None else None,
            "n": self.n,
            "x": self.x,
            "x0": self.x0,
            "edges": [list(e) for e in self.graph.edges],
            "crossed": [list(e) for e in self.crossed_edges],
            "certificate": self.certificate.to_json_dict(),
            "coordinates": [list(p) for p in self.coordinates],
            "stack_hosts": [list(h) for h in self.stack_hosts],
            "stats": {
                "m": self.stats.m,
                "m_prime": self.stats.m_prime,
                "t": self.stats.t,
                "f": self.stats.f,
                "density": str(self.stats.density),
            },
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ConstructionRecord":
        graph = Graph(data["n"], tuple(tuple(e) for e in data["edges"]))
        cert = SubdrawingCertificate.from_json_dict(data["certificate"], graph)
        stats = data["stats"]
        return ConstructionRecord(
            epsilon_target=Fraction(data["epsilon"]) if data["epsilon"] is not None else None,
            n=data["n"],
            x=data["x"],
            x0=data["x0"],
            graph=graph,
            certificate=cert,
            crossed_edges=tuple(tuple(e) for e in data["crossed"]),
            coordinates=tuple((p[0], p[1]) for p in data["coordinates"]),
            stack_hosts=tuple(tuple(h) for h in data["stack_hosts"]),
            stats=ConstructionStats(
                m=stats["m"],
                m_prime=stats["m_prime"],
                t=stats["t"],
                f=stats["f"],
                density=Fraction(stats["density"]),
            ),
        )


def _need(cond: bool, what: str):
    if not cond:
        raise ConstructionIntegrityError(what)


def choose_x(epsilon, n: int) -> tuple[int, float]:
    """Rim size hitting the density target: the ceiling of the root x0 of
    3n - 3 + x(x-5)/2 = epsilon n^2.

    Gates (exact rational arithmetic): epsilon > 0, n >= 3/epsilon, and
    epsilon <= (n-1)/(2n).
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise NotApplicableError("epsilon <= 0")
    if Fraction(n) < 3 / eps:
        raise NotApplicableError(f"n < 3/epsilon (need n >= {math.ceil(3 / eps)}, got {n})")
    if eps > Fraction(n - 1, 2 * n):
        raise NotApplicableError(f"epsilon > (n-1)/(2n) = {Fraction(n - 1, 2 * n)}")
    disc = Fraction(25, 4) + 2 * (eps * n * n - 3 * (n - 1))
    _need(disc > 0, f"discriminant {disc} <= 0")  # follows from n >= 3/epsilon
    x0 = 2.5 + math.sqrt(float(disc))
    x = guarded_ceil(x0)
    _need(3 <= x <= n - 1, f"clamp should be unreachable, got x={x}")
    return x, x0


def _wheel_rotation(x: int) -> list[list[int]]:
    """Planar rotation of the wheel with hub 0 and rim 1..x (clockwise
    geometric order, so face tracing recovers the drawing's faces)."""
    orders: list[list[int]] = [list(range(x, 0, -1))]
    for i in range(1, x + 1):
        prev = x if i == 1 else i - 1
        nxt = 1 if i == x else i + 1
        orders.append([prev, 0, nxt])
    return orders


def build_construction(
    x: int, n: int, epsilon=None, x0: float | None = None
) -> ConstructionRecord:
    """Assemble the graph, its drawing certificate, coordinates and stats."""
    if not 3 <= x <= n - 1:
        raise ValueError(f"need 3 <= x <= n-1, got x={x}, n={n}")

    orders = _wheel_rotation(x) + [[] for _ in range(n - x - 1)]
    uncrossed: list[Edge] = [(0, i) for i in range(1, x + 1)]
    uncrossed += [(i, i + 1) for i in range(1, x)]
    uncrossed.append((1, x))

    # oriented interior triangles of the wheel drawing, via one trace, in a
    # heap keyed by their sorted vertex triples (distinct, so no ties)
    wheel = Graph.from_edges(x + 1, uncrossed)
    faces = trace_faces(RotationSystem(wheel, tuple(tuple(o) for o in orders[: x + 1])))
    rim = set(range(1, x + 1))
    triangles: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
    for face in faces.faces:
        if face.vertices <= rim:
            continue  # the rim-only face is the outer one
        _need(len(face) == 3, "interior wheel face is not a triangle")
        tri = tuple(u for u, _ in face.walk)
        triangles.append((tuple(sorted(tri)), tri))
    _need(len(triangles) == x, f"wheel has {len(triangles)} interior triangles, not {x}")
    heapq.heapify(triangles)

    hosts: list[tuple[int, int, int, int]] = []
    for w in range(x + 1, n):
        _, (a, b, c) = heapq.heappop(triangles)
        # wedge insertions keep the embedding planar: w lands inside (a,b,c)
        orders[a].insert(orders[a].index(c) + 1, w)
        orders[b].insert(orders[b].index(a) + 1, w)
        orders[c].insert(orders[c].index(b) + 1, w)
        orders[w] = [a, c, b]
        for tri in ((a, b, w), (b, c, w), (c, a, w)):
            heapq.heappush(triangles, (tuple(sorted(tri)), tri))
        uncrossed += [(a, w), (b, w), (c, w)]
        hosts.append((w, a, b, c))

    crossed = [
        (i, j)
        for i in range(1, x + 1)
        for j in range(i + 1, x + 1)
        if j - i != 1 and (i, j) != (1, x)
    ]
    uncrossed = sorted((min(e), max(e)) for e in uncrossed)
    graph = Graph(n, tuple(uncrossed) + tuple(crossed))

    rotation = RotationSystem(Graph(n, tuple(uncrossed)), tuple(tuple(o) for o in orders))
    final_faces = trace_faces(rotation)
    outer = [i for i, f in enumerate(final_faces.faces) if f.vertices <= rim]
    _need(len(outer) == 1, f"{len(outer)} rim-only faces, not 1")
    assignment = {e: outer[0] for e in crossed}
    certificate = SubdrawingCertificate(graph, tuple(uncrossed), rotation, assignment)

    m = graph.m
    m_prime = len(uncrossed)
    t = len(triangles)
    _need(m == 3 * n - 3 + x * (x - 5) // 2, "edge count identity failed")
    _need(m_prime == 3 * n - 3 - x, "m' identity failed")
    _need(t == 2 * n - 2 - x, "triangle count identity failed")
    _need(final_faces.f == t + 1, "face count identity failed")
    _need(2 * m >= x * x, "sqrt(2m) >= x failed")

    record = ConstructionRecord(
        epsilon_target=Fraction(epsilon) if epsilon is not None else None,
        n=n,
        x=x,
        x0=x0,
        graph=graph,
        certificate=certificate,
        crossed_edges=tuple(crossed),
        coordinates=(),
        stack_hosts=tuple(hosts),
        stats=ConstructionStats(m, m_prime, t, final_faces.f, Fraction(m, n * n)),
    )
    return replace(record, coordinates=layout_coordinates(record))


def construct(epsilon, n: int) -> ConstructionRecord:
    """choose_x followed by build_construction, carrying the density target."""
    x, x0 = choose_x(epsilon, n)
    return build_construction(x, n, epsilon=epsilon, x0=x0)


def layout_coordinates(rec: ConstructionRecord) -> tuple[tuple[float, float], ...]:
    """Hub at the origin, rim on the unit circle, stacked vertices at the
    centroid of their host triangle's corners.  Deterministic."""
    coords: list[tuple[float, float]] = [(0.0, 0.0)]
    for i in range(1, rec.x + 1):
        angle = 2 * math.pi * (i - 1) / rec.x
        coords.append((math.cos(angle), math.sin(angle)))
    coords += [(0.0, 0.0)] * (rec.n - rec.x - 1)
    for w, a, b, c in rec.stack_hosts:
        coords[w] = (
            (coords[a][0] + coords[b][0] + coords[c][0]) / 3,
            (coords[a][1] + coords[b][1] + coords[c][1]) / 3,
        )
    return tuple(coords)


def check_tightness(rec: ConstructionRecord) -> dict:
    """Re-derive and assert every identity and the two tightness
    properties; raises ConstructionIntegrityError on any failure."""
    n, x = rec.n, rec.x
    s = rec.stats

    _need(s.m == rec.graph.m == 3 * n - 3 + x * (x - 5) // 2, "edge count identity failed")
    _need(s.m_prime == len(rec.certificate.uncrossed) == 3 * n - 3 - x, "m' identity failed")
    _need(s.t == 2 * n - 2 - x, "triangle count identity failed")
    _need(s.f == s.t + 1, "face count identity failed")
    _need(len(rec.crossed_edges) == x * (x - 3) // 2, "crossed-chord count failed")
    _need(2 * s.m >= x * x, "sqrt(2m) >= x failed")

    lower = 3 * n - 3 - math.sqrt(2 * s.m)
    _need(s.m_prime + 1e-9 >= lower, f"property 1 failed: {s.m_prime} < {lower}")
    upper = h_upper(n, s.m)
    _need(s.m_prime <= upper + 1e-9, f"witness above the closed-form cap: {s.m_prime} > {upper}")

    if rec.epsilon_target is None:
        raise ValueError("record carries no density target; build it via construct()")
    eps = rec.epsilon_target
    density = Fraction(s.m, n * n)
    _need(s.density == density, "stored density mismatch")
    window_high = eps + Fraction(1, n) + Fraction(1, 2 * n * n)
    _need(eps <= density <= window_high, f"property 2 failed: {density} not in [{eps}, {window_high}]")

    _need(verify_certificate(rec.certificate), "certificate failed verification")
    return {
        "n": n,
        "x": x,
        "m": s.m,
        "m_prime": s.m_prime,
        "lower": lower,
        "upper": upper,
        "density": density,
        "window_high": window_high,
    }
