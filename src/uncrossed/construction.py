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
import itertools
import json
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import h_upper, root_sum_nonnegative
from .embedding import RotationSystem, trace_faces
from .errors import ConstructionIntegrityError, MalformedCertificateError, NotApplicableError
from .graphs import Edge, Graph, write_json_pairs
from .oracle import SubdrawingCertificate, all_json_ints, verify_certificate


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
    x: int
    x0: float | None
    graph: Graph
    certificate: SubdrawingCertificate
    coordinates: tuple[tuple[float, float], ...]
    stack_hosts: tuple[tuple[int, int, int, int], ...]  # (new vertex, a, b, c)
    stats: ConstructionStats

    @property
    def crossed_edges(self) -> tuple[Edge, ...]:
        """The chords, the certificate's assignment keys, in its ascending
        order."""
        return tuple(self.certificate.face_assignment)

    def to_json_dict(self) -> dict:
        """The record's JSON object."""
        return {
            **self._json_head(),
            "edges": self.graph.edges,
            "crossed": self.crossed_edges,
            "certificate": self.certificate.to_json_dict(),
            **self._json_tail(),
        }

    def _json_head(self) -> dict:
        return {
            "kind": "construction",
            "epsilon": str(self.epsilon_target) if self.epsilon_target is not None else None,
            "n": self.graph.n,
            "x": self.x,
            "x0": self.x0,
        }

    def _json_tail(self) -> dict:
        return {
            "coordinates": self.coordinates,
            "stack_hosts": self.stack_hosts,
            "stats": {
                "m": self.stats.m,
                "m_prime": self.stats.m_prime,
                "t": self.stats.t,
                "f": self.stats.f,
                "density": str(self.stats.density),
            },
        }

    def write_json(self, out) -> None:
        """Write json.dumps(self.to_json_dict(), indent=2) and a newline to
        the text stream out, with no JSON dict of the edges or the
        certificate: they go out SLICE items per write.  The head and
        tail dicts hold O(n) items, and json.dumps writes them at the
        record's indent: with the braces cut off, their lines are the
        record's."""
        n = self.graph.n
        out.write(json.dumps(self._json_head(), indent=2)[:-2] + ',\n  "edges": ')
        write_json_pairs(out, self.graph.edges, "\n  ", n)
        out.write(',\n  "crossed": ')
        write_json_pairs(out, self.crossed_edges, "\n  ", n)
        out.write(',\n  "certificate": ')
        self.certificate.write_json(out, "\n  ")
        out.write("," + json.dumps(self._json_tail(), indent=2)[1:] + "\n")

    @staticmethod
    def from_json_dict(data: dict) -> "ConstructionRecord":
        """Parse the record's JSON object, as to_json_dict holds it and
        write_json writes it.  The record's graph and chords are its
        certificate's: n must be its vertex count, edges its edges in
        ascending order and crossed its assignment keys in any order, and
        no copy of crossed is kept.  Missing keys, wrong types (n, x, every
        vertex id and every stats count must be JSON integers, x0 a finite
        number or null, every coordinate a finite number, epsilon a
        fraction string or null and density a fraction string), a record
        that disagrees with its certificate, stats whose m, m_prime and
        density are not |E|, |H| and m / n^2, and coordinates that do not
        fit the graph raise MalformedCertificateError.  The face count f
        is left to the caller that traces the faces, and t, a construction
        identity, to check_tightness."""
        try:
            n = data["n"]
            edges = data["edges"]
            crossed = data["crossed"]
            hosts = tuple(tuple(h) for h in data["stack_hosts"])
            if not all_json_ints((n,), *edges, *crossed, *hosts):
                raise MalformedCertificateError("n and every vertex id must be integers")
            stats = data["stats"]
            if not all_json_ints((data["x"], stats["m"], stats["m_prime"], stats["t"], stats["f"])):
                raise MalformedCertificateError("x and every stats count must be integers")
            x0 = data["x0"]
            numbers = itertools.chain((0 if x0 is None else x0,), *data["coordinates"])
            if not all(type(c) in (int, float) and math.isfinite(c) for c in numbers):
                raise MalformedCertificateError("x0 and every coordinate must be finite numbers")
            epsilon = data["epsilon"]
            if not (epsilon is None or type(epsilon) is str) or type(stats["density"]) is not str:
                raise MalformedCertificateError("epsilon and density must be fraction strings")
            cert = SubdrawingCertificate.from_json_dict(data["certificate"])
            graph = cert.graph
            if n != graph.n:
                raise MalformedCertificateError(f"record on {n} vertices, certificate on {graph.n}")
            # pair by pair, so no tuple of the record's edges is built
            if len(edges) != graph.m or not all(map(operator.eq, map(tuple, edges), graph.edges)):
                raise MalformedCertificateError("edges must be the certificate's edges, ascending")
            chords = cert.face_assignment  # ascending
            # sorted as lists and compared pair by pair, so no tuple of crossed is built
            if len(crossed) != len(chords) or not all(
                map(operator.eq, map(tuple, sorted(crossed)), chords)
            ):
                raise MalformedCertificateError("crossed != assignment keys")
            density = Fraction(stats["density"])
            if (stats["m"], stats["m_prime"], density) != (
                graph.m, len(cert.uncrossed), Fraction(graph.m, graph.n * graph.n)
            ):
                raise MalformedCertificateError(
                    "stats m, m_prime and density must be |E|, |H| and m/n^2"
                )
            coordinates = tuple((float(x), float(y)) for x, y in data["coordinates"])
            record = ConstructionRecord(
                epsilon_target=Fraction(epsilon) if epsilon is not None else None,
                x=data["x"],
                x0=x0,
                graph=graph,
                certificate=cert,
                coordinates=coordinates,
                stack_hosts=hosts,
                stats=ConstructionStats(
                    m=stats["m"],
                    m_prime=stats["m_prime"],
                    t=stats["t"],
                    f=stats["f"],
                    density=density,
                ),
            )
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise MalformedCertificateError(f"bad construction record JSON: {exc}") from exc
        if len(coordinates) != graph.n:
            raise MalformedCertificateError(
                f"{len(coordinates)} coordinates for {graph.n} vertices"
            )
        return record


def _need(cond: bool, what: str):
    if not cond:
        raise ConstructionIntegrityError(what)


def choose_x(epsilon, n: int) -> tuple[int, float]:
    """Rim size hitting the density target: the ceiling, decided exactly,
    of the root x0 of 3n - 3 + x(x-5)/2 = epsilon n^2.

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
    # with disc = p/q, c = ceil(2 sqrt(disc)) = ceil(ceil(sqrt(4pq)) / q)
    # and x = ceil((5 + c) / 2)
    p, q = disc.numerator, disc.denominator
    r = math.isqrt(4 * p * q)
    c = -(-(r + (r * r != 4 * p * q)) // q)
    x = (c + 6) // 2
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

    # oriented interior triangles of the wheel drawing, as face tracing
    # walks them, in a heap keyed by their sorted vertex triples (distinct,
    # so no ties)
    wheel = [(0, i, i % x + 1) for i in range(1, x + 1)]
    triangles = [(tuple(sorted(tri)), tri) for tri in wheel]
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

    # every rim pair that is not a rim edge, in ascending order, sharing
    # the rim's vertex ids: one int object per rim vertex
    rim = list(range(1, x + 1))
    crossed = list(zip(itertools.repeat(1), rim[2:-1]))  # (1, x) closes the rim
    for i in range(1, x):
        crossed += zip(itertools.repeat(rim[i]), rim[i + 2:])
    rotation = RotationSystem(Graph(n, tuple(uncrossed)), tuple(tuple(o) for o in orders))
    graph = Graph(n, rotation.graph.edges + tuple(crossed))
    final_faces = trace_faces(rotation)
    rim = set(range(1, x + 1))
    outer = [i for i, f in enumerate(final_faces) if f.vertices <= rim]
    _need(len(outer) == 1, f"{len(outer)} rim-only faces, not 1")
    assignment = dict.fromkeys(crossed, outer[0])
    certificate = SubdrawingCertificate(graph, rotation, assignment)

    m = graph.m
    m_prime = len(uncrossed)
    t = len(triangles)
    _need(m == 3 * n - 3 + x * (x - 5) // 2, "edge count identity failed")
    _need(m_prime == 3 * n - 3 - x, "m' identity failed")
    _need(t == 2 * n - 2 - x, "triangle count identity failed")
    _need(len(final_faces) == t + 1, "face count identity failed")
    _need(2 * m >= x * x, "sqrt(2m) >= x failed")

    record = ConstructionRecord(
        epsilon_target=Fraction(epsilon) if epsilon is not None else None,
        x=x,
        x0=x0,
        graph=graph,
        certificate=certificate,
        coordinates=(),
        stack_hosts=tuple(hosts),
        stats=ConstructionStats(m, m_prime, t, len(final_faces), Fraction(m, n * n)),
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
    coords += [(0.0, 0.0)] * (rec.graph.n - rec.x - 1)
    for w, a, b, c in rec.stack_hosts:
        coords[w] = (
            (coords[a][0] + coords[b][0] + coords[c][0]) / 3,
            (coords[a][1] + coords[b][1] + coords[c][1]) / 3,
        )
    return tuple(coords)


def check_tightness(rec: ConstructionRecord) -> dict:
    """Re-derive and assert every identity and the two tightness
    properties; raises ConstructionIntegrityError on any failure."""
    n, x = rec.graph.n, rec.x
    s = rec.stats

    _need(s.m == rec.graph.m == 3 * n - 3 + x * (x - 5) // 2, "edge count identity failed")
    _need(s.m_prime == len(rec.certificate.uncrossed) == 3 * n - 3 - x, "m' identity failed")
    _need(s.t == 2 * n - 2 - x, "triangle count identity failed")
    _need(s.f == s.t + 1, "face count identity failed")
    _need(len(rec.certificate.face_assignment) == x * (x - 3) // 2, "crossed-chord count failed")
    _need(2 * s.m >= x * x, "sqrt(2m) >= x failed")

    # property 1, 0 <= 3n - 3 - m' <= sqrt(2m), and the cap m' <= h_upper(n, m),
    # decided exactly; the floats are for the report
    lower = 3 * n - 3 - math.sqrt(2 * s.m)
    short = 3 * n - 3 - s.m_prime
    _need(0 <= short and short * short <= 2 * s.m, f"property 1 failed: {s.m_prime} < {lower}")
    upper = h_upper(n, s.m)
    _need(
        root_sum_nonnegative(3 * n - 6 - s.m_prime, 6 * (n - 2), 2 * s.m),
        f"witness above the closed-form cap: {s.m_prime} > {upper}",
    )

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
