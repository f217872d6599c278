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

    This is the brute-force reference for first_planar_rotation, which
    visits the same systems with the vertices taken in another order.
    Raises SearchBudgetError when the count prod_v (deg(v)-1)! exceeds the
    budget.
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

    The search is a depth-first walk that fixes the vertices in ascending
    (degree, vertex) order, each through its arrangements in lexicographic
    order, and the answer is the first hit in that order.  A low-degree
    vertex has few arrangements, so the links that let the cut bite are set
    while the walk is still narrow; on the infeasible subsets of the dense
    6-vertex graphs, where the search must be exhaustive, this order is
    about 2.9 times faster than fixing vertices 0..n-1.  The budget counts
    the systems before pruning, as enumerate_rotation_systems does.
    Fixing a vertex links every dart into it to its successor dart; the
    linked darts form open chains, and a chain linked back to its own first
    dart closes a face.  With m >= 2 every face of a connected simple graph
    has length >= 3 and every face still open is a union of open chains,
    so a branch is cut once closed faces + open chains of length >= 3 +
    (darts in shorter open chains) // 3 falls below the 2 - n + m faces of
    a genus-0 embedding.  Only branches without a genus-0 completion are
    cut.  Pairs are checked on the faces of each genus-0 leaf.
    """
    g = Graph(n, edges)
    arrangements = _pinned_arrangements(g, budget)
    # a vertex's arrangements all have its degree as their length
    fix_order = sorted(range(n), key=lambda v: (len(arrangements[v][0]), v))
    darts = sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
    idx = {d: i for i, d in enumerate(darts)}
    nd = len(darts)
    # faces shorter than 3 need m <= 1, whose one rotation system is
    # planar, so nothing is cut there
    target_f = 2 - n + g.m if g.m >= 2 else 0
    # per vertex and arrangement, the (dart into v, next dart) links it
    # sets, built the first time the walk tries that arrangement
    links: list[list[tuple[tuple[int, int], ...] | None]] = [
        [None] * len(arrs) for arrs in arrangements
    ]
    nxt = [0] * nd
    chosen: list[tuple[int, ...]] = [()] * n

    def pairs_cofacial() -> bool:
        if not cofacial_pairs:
            return True
        seen = [False] * nd
        face_verts = []
        for d0 in range(nd):
            if seen[d0]:
                continue
            verts = set()
            w = d0
            while not seen[w]:
                seen[w] = True
                verts.add(darts[w][0])
                w = nxt[w]
            face_verts.append(verts)
        return all(any(u in fv and v in fv for fv in face_verts) for u, v in cofacial_pairs)

    # Open chains are kept by their end darts: end[] maps a chain's first
    # dart to its last and back, and both ends hold the chain's length.
    # Each level of the walk works on its own copies of both lists.
    def dfs(
        i: int, end: list[int], length: list[int], closed: int, long_open: int, short: int
    ) -> bool:
        if i == n:  # every face is closed and the cuts left genus 0
            return pairs_cofacial()
        v = fix_order[i]
        arrs, built = arrangements[v], links[v]
        for k, vlinks in enumerate(built):
            if vlinks is None:
                order = arrs[k]
                vlinks = built[k] = tuple(
                    (idx[(u, v)], idx[(v, w)]) for u, w in zip(order, order[1:] + order[:1])
                )
            e = end[:]
            ln = length[:]
            c, lo, sh = closed, long_open, short
            for s, t in vlinks:
                nxt[s] = t
                a = ln[s]
                if a >= 3:
                    lo -= 1
                else:
                    sh -= a
                head = e[s]
                if head == t:  # s's chain starts at t: a face closes
                    c += 1
                    continue
                b = ln[t]
                if b >= 3:
                    lo -= 1
                else:
                    sh -= b
                last = e[t]
                e[head] = last
                e[last] = head
                a += b
                ln[head] = ln[last] = a
                if a >= 3:
                    lo += 1
                else:
                    sh += a
            if c + lo + sh // 3 >= target_f and dfs(i + 1, e, ln, c, lo, sh):
                chosen[v] = arrs[k]
                return True
        return False

    found = nd // 3 >= target_f and dfs(0, list(range(nd)), [1] * nd, 0, 0, nd)
    del dfs  # dfs refers to itself; dropping it frees the search state now, not at the next GC
    return tuple(chosen) if found else None
