"""Rotation systems and the faces they induce.

A rotation system assigns each vertex a cyclic order of its neighbors and
thereby a cellular embedding on an orientable surface.  Faces are traced
with the successor convention: after the directed edge (u -> v) the walk
continues with (v -> w) where w follows u in the cyclic order at v.
Embeddings are spherical; no face is distinguished as the outer one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import SearchBudgetError
from .graphs import Graph

Dart = tuple[int, int]

ROTATION_BUDGET_DEFAULT = 10_000_000


def _rotate_to_min(seq: tuple[int, ...]) -> tuple[int, ...]:
    if len(seq) <= 1:
        return seq
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic neighbor orders, one per vertex, canonically rotated.

    Orders are stored starting at each vertex's smallest neighbor so that
    equal embeddings compare equal and serialize identically.
    """

    graph: Graph
    order: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.order) != self.graph.n:
            raise ValueError("need one cyclic order per vertex")
        adj = self.graph.adjacency()
        normalized = []
        for v, cyc in enumerate(self.order):
            if sorted(cyc) != adj[v]:
                raise ValueError(f"order at vertex {v} is not a permutation of its neighbors")
            normalized.append(_rotate_to_min(tuple(cyc)))
        object.__setattr__(self, "order", tuple(normalized))

    def successor(self, v: int, u: int) -> int:
        """Neighbor following u in the cyclic order at v."""
        cyc = self.order[v]
        return cyc[(cyc.index(u) + 1) % len(cyc)]

    def to_json_dict(self) -> dict:
        return {"n": self.graph.n, "order": [list(c) for c in self.order]}


@dataclass(frozen=True)
class Face:
    walk: tuple[Dart, ...]
    vertices: frozenset[int]

    def __len__(self) -> int:
        return len(self.walk)


@dataclass(frozen=True)
class FaceSet:
    graph: Graph
    faces: tuple[Face, ...]

    @property
    def f(self) -> int:
        return len(self.faces)


@dataclass(frozen=True)
class FaceProfile:
    """Counts s_l of faces by walk length l; f is the total face count."""

    s: dict[int, int]
    f: int


def trace_faces(r: RotationSystem) -> FaceSet:
    """Partition all directed edges into facial walks.

    Faces are emitted in lexicographic order of their smallest directed
    edge, and each walk starts at that edge.
    """
    g = r.graph
    darts = sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
    succ = {}
    for v, cyc in enumerate(r.order):
        d = len(cyc)
        for i, u in enumerate(cyc):
            succ[(u, v)] = (v, cyc[(i + 1) % d])
    visited = set()
    faces = []
    for start in darts:
        if start in visited:
            continue
        walk = []
        cur = start
        while cur not in visited:
            visited.add(cur)
            walk.append(cur)
            cur = succ[cur]
        faces.append(Face(tuple(walk), frozenset(u for u, _ in walk)))
    return FaceSet(g, tuple(faces))


def genus(r: RotationSystem) -> int:
    """Orientable genus of the embedding, via n - m + f = 2 - 2g."""
    g = r.graph
    if not g.is_connected():
        raise ValueError("genus is only defined here for connected graphs")
    f = trace_faces(r).f if g.m > 0 else 1  # a lone vertex spans one face
    val = 2 - g.n + g.m - f
    if val % 2 != 0 or val < 0:
        raise AssertionError(f"impossible Euler count n={g.n} m={g.m} f={f}")
    return val // 2


def face_profile(fs: FaceSet) -> FaceProfile:
    s: dict[int, int] = {}
    for face in fs.faces:
        length = len(face)
        if length < 3:
            raise ValueError(f"face of length {length}: corrupt face set")
        s[length] = s.get(length, 0) + 1
    return FaceProfile(s=dict(sorted(s.items())), f=len(fs.faces))


def cofacial(fs: FaceSet, u: int, v: int) -> bool:
    """True iff some face is incident to both u and v."""
    if u == v:
        raise ValueError("cofacial needs two distinct vertices")
    return any(u in face.vertices and v in face.vertices for face in fs.faces)


def rotation_count(g: Graph) -> int:
    """Number of rotation systems with each vertex's first neighbor pinned."""
    total = 1
    for a in g.adjacency():
        total *= math.factorial(max(len(a) - 1, 0))
    return total


def _pinned_arrangements(g: Graph, budget: int) -> list[list[tuple[int, ...]]]:
    """Per vertex, every cyclic order of its neighbors that starts at the
    smallest one, in lexicographic order.  Pinning the first neighbor
    quotients out cyclic rotations.  Raises SearchBudgetError when the
    rotation systems they combine into number more than the budget.
    """
    total = rotation_count(g)
    if total > budget:
        raise SearchBudgetError(
            f"{total} rotation systems exceed the budget of {budget}"
        )
    return [
        [tuple(a[:1]) + rest for rest in itertools.permutations(a[1:])]
        for a in g.adjacency()
    ]


def enumerate_rotation_systems(g: Graph, budget: int = ROTATION_BUDGET_DEFAULT):
    """Yield every rotation system of g exactly once, lexicographically.

    This is the brute-force reference for first_planar_rotation.  Raises
    SearchBudgetError when the count prod_v (deg(v)-1)! exceeds the budget.
    """
    if not g.is_connected():
        raise ValueError("rotation enumeration expects a connected graph")
    for combo in itertools.product(*_pinned_arrangements(g, budget)):
        yield RotationSystem(g, combo)


def first_planar_rotation(
    n: int, edges, cofacial_pairs, budget: int
) -> tuple[tuple[int, ...], ...] | None:
    """Cyclic orders of the first genus-0 rotation system of the connected
    spanning graph (0..n-1, edges) that puts the two vertices of every
    given pair on a common face, or None when there is none.

    Systems are scanned in the order of enumerate_rotation_systems, under
    the same budget.  The hot path: systems are visited with an odometer
    so only changed vertices are reapplied, and faces are counted as
    cycles of the next-dart permutation.
    """
    g = Graph(n, edges)
    arrangements = _pinned_arrangements(g, budget)
    darts = sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
    idx = {d: i for i, d in enumerate(darts)}
    nd = len(darts)
    target_f = 2 - n + g.m  # face count of a genus-0 embedding
    no_dart_f = 0 if nd else 1  # a lone vertex spans one face, as in genus()

    # per-vertex arrangements with precomputed next-dart contributions
    contribs = [
        [
            (order, tuple(
                (idx[(order[i], v)], idx[(v, order[(i + 1) % len(order)])])
                for i in range(len(order))
            ))
            for order in arrs
        ]
        for v, arrs in enumerate(arrangements)
    ]

    nxt = [0] * nd
    pos = [0] * n
    for v in range(n):
        for s, t in contribs[v][0][1]:
            nxt[s] = t
    varying = [v for v in range(n) if len(contribs[v]) > 1]
    seen = [0] * nd
    stamp = 0
    dart_range = range(nd)

    while True:
        stamp += 1
        f = no_dart_f
        for d0 in dart_range:
            if seen[d0] == stamp:
                continue
            f += 1
            w = d0
            while seen[w] != stamp:
                seen[w] = stamp
                w = nxt[w]
        if f == target_f:
            ok = True
            if cofacial_pairs:
                stamp += 1
                face_verts = []
                for d0 in dart_range:
                    if seen[d0] == stamp:
                        continue
                    verts = set()
                    w = d0
                    while seen[w] != stamp:
                        seen[w] = stamp
                        verts.add(darts[w][0])
                        w = nxt[w]
                    face_verts.append(verts)
                for u, v in cofacial_pairs:
                    if not any(u in fv and v in fv for fv in face_verts):
                        ok = False
                        break
            if ok:
                return tuple(contribs[v][pos[v]][0] for v in range(n))
        # odometer: advance the last vertex that has not wrapped
        i = len(varying) - 1
        while i >= 0:
            v = varying[i]
            p = pos[v] + 1
            if p < len(contribs[v]):
                pos[v] = p
                for s, t in contribs[v][p][1]:
                    nxt[s] = t
                break
            pos[v] = 0
            for s, t in contribs[v][0][1]:
                nxt[s] = t
            i -= 1
        else:
            return None
