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
from .graphs import Edge, Graph

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


def trace_faces(r: RotationSystem) -> tuple[Face, ...]:
    """Partition all directed edges into facial walks.

    Faces are emitted in lexicographic order of their smallest directed
    edge, and each walk starts at that edge.
    """
    darts = sorted(d for u, v in r.graph.edges for d in ((u, v), (v, u)))
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
    return tuple(faces)


def genus(r: RotationSystem) -> int:
    """Orientable genus of the embedding, via n - m + f = 2 - 2g."""
    g = r.graph
    if not g.is_connected():
        raise ValueError("genus is only defined here for connected graphs")
    f = len(trace_faces(r)) if g.m > 0 else 1  # a lone vertex spans one face
    val = 2 - g.n + g.m - f
    if val % 2 != 0 or val < 0:
        raise AssertionError(f"impossible Euler count n={g.n} m={g.m} f={f}")
    return val // 2


def face_profile(faces: tuple[Face, ...]) -> dict[int, int]:
    """Counts s_l of faces by walk length l, in ascending l."""
    s: dict[int, int] = {}
    for face in faces:
        length = len(face)
        if length < 3:
            raise ValueError(f"face of length {length}: corrupt face set")
        s[length] = s.get(length, 0) + 1
    return dict(sorted(s.items()))


def cofacial(faces: tuple[Face, ...], u: int, v: int) -> bool:
    """True iff some face is incident to both u and v."""
    if u == v:
        raise ValueError("cofacial needs two distinct vertices")
    return any(u in face.vertices and v in face.vertices for face in faces)


def _system_count(adj: list[list]) -> int:
    total = 1
    for a in adj:
        total *= math.factorial(max(len(a) - 1, 0))
    return total


def rotation_count(g: Graph) -> int:
    """Number of rotation systems with each vertex's first neighbor pinned."""
    return _system_count(g.adjacency())


def _check_budget(adj: list[list], budget: int) -> None:
    total = _system_count(adj)
    if total > budget:
        raise SearchBudgetError(f"{total} rotation systems exceed the budget of {budget}")


def _pinned_arrangements(g: Graph, budget: int) -> list[list[tuple[int, ...]]]:
    """Per vertex, every cyclic order of its neighbors that starts at the
    smallest one, in lexicographic order.  Pinning the first neighbor
    quotients out cyclic rotations.  Raises SearchBudgetError when the
    rotation systems they combine into number more than the budget.
    """
    adj = g.adjacency()
    _check_budget(adj, budget)
    return [[tuple(a[:1]) + rest for rest in itertools.permutations(a[1:])] for a in adj]


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


def _kuratowski_masks(n: int, edges: tuple[Edge, ...]) -> tuple[int, ...]:
    """The edge mask, bit i for edges[i], of every K_5 and K_{3,3} subgraph
    of (0..n-1, edges); a K_{3,3} is met from the side with its least vertex."""
    near = [0] * n
    for u, v in edges:
        near[u] |= 1 << v
        near[v] |= 1 << u
    bit = {e: 1 << i for i, e in enumerate(edges)}
    masks = []
    for five in itertools.combinations([v for v in range(n) if near[v].bit_count() >= 4], 5):
        s = sum(1 << v for v in five)
        if all((near[v] | 1 << v) & s == s for v in five):
            masks.append(sum(bit[e] for e in itertools.combinations(five, 2)))
    for six in itertools.combinations([v for v in range(n) if near[v].bit_count() >= 3], 6):
        for pair in itertools.combinations(six[1:], 2):
            side = (six[0], *pair)
            other = [v for v in six if v not in side]
            s = sum(1 << v for v in other)
            if all(near[v] & s == s for v in side):
                masks.append(sum(bit[min(a, b), max(a, b)] for a in side for b in other))
    return tuple(masks)


class RotationKernel:
    """The rotation search over the spanning subgraphs of one host graph,
    with the host's tables built once: its sorted darts, and per vertex v
    one row of (edge bit, w, dart out (v, w), dart in (w, v)) per neighbor
    w, ascending.  H's darts are a sorted subsequence of the host's, so the
    search on H's edge mask meets the same first hit as on H alone."""

    def __init__(self, n: int, edges):
        g = Graph(n, edges)
        darts = sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
        idx = {d: i for i, d in enumerate(darts)}
        self.n = n
        self.heads = [v for _, v in darts]
        self.twins = [idx[v, u] for u, v in darts]
        self.tail_bits = [1 << u for u, _ in darts]
        self.pair_bits = [1 << u | 1 << v for u, v in g.edges]
        # g.edges is sorted, so each row lists its neighbors ascending
        self.rows = [[] for _ in range(n)]
        for i, (u, v) in enumerate(g.edges):
            self.rows[u].append((1 << i, v, idx[u, v], idx[v, u]))
            self.rows[v].append((1 << i, u, idx[v, u], idx[u, v]))
        self.kuratowski = _kuratowski_masks(n, g.edges)

    def search(self, mask: int, budget: int, pairs=()) -> tuple[tuple[int, ...], ...] | None:
        """Cyclic orders of the first genus-0 rotation system of the
        connected spanning subgraph H = mask that puts both ends of every
        host edge outside H, and of every given vertex pair, on a common
        face, or None when there is none.

        The budget is checked first, on the systems before pruning.  Then
        an H that holds a K_5 or a K_{3,3} of the host, and so is not planar
        (Kuratowski), returns None with no search.  The search is a
        depth-first walk that fixes the vertices in ascending (degree,
        vertex) order, each through its arrangements in lexicographic
        order, and the answer is the first hit in that order; low degrees
        first set the links that let the cut bite while the walk is narrow.

        A vertex's cyclic order starts at its smallest neighbor and is built
        one neighbor at a time, the next one taken from those left in
        ascending order, so arrangements are visited lexicographically and
        those sharing a prefix share its work.  Each choice links one dart
        into the vertex to its successor dart; the linked darts form open
        chains, and a chain linked back to its own first dart closes a face.
        The last neighbor left is forced, and so is the link that closes the
        vertex's cycle back to its first neighbor, so one step sets both.
        With m >= 2 every face of a connected simple graph has length >= 3 and
        every face still open is a union of open chains, so no completion has
        more than closed faces + open chains of length >= 3 + (darts in shorter
        open chains) // 3 faces, which is y // 3 for y = 3 * closed faces + the
        sum of the open chains' lengths capped at 3.  Linking never raises y,
        and a branch is cut once y // 3 falls below the 2 - n + m faces of a
        genus-0 embedding.  Only branches without a genus-0 completion are
        cut.  Pairs are checked on the faces of each genus-0 leaf.

        Reversing every cyclic order (the mirror image) keeps the faces, each
        traversed backwards, so it keeps genus 0 and every co-facial pair.  An
        order of degree <= 2 is its own mirror, so a hit and its mirror agree
        up to the first vertex v of degree >= 3 in fix order, and at v they
        hold an order and its reverse, of which the one with order[1] <
        order[-1] comes first.  The first hit has that one, so v takes no
        other, which halves an exhaustive search and leaves every answer as it
        was.
        """
        n = self.n
        rows = [[r for r in row if mask & r[0]] for row in self.rows]
        _check_budget(rows, budget)
        if any(k & mask == k for k in self.kuratowski):
            return None
        # a vertex without neighbors sets no link
        fix_order = sorted((v for v in range(n) if rows[v]), key=lambda v: (len(rows[v]), v))
        m = mask.bit_count()
        nd = len(self.heads)
        # faces shorter than 3 need m <= 1, whose one rotation system is
        # planar, so nothing is cut there
        target_y = 3 * (2 - n + m) if m >= 2 else 0
        # per vertex fixed, in fix order: the dart in from its first neighbor,
        # the (dart out, dart in) of the others, ascending, and the closing
        # link's target, the dart out to its first neighbor
        first_in = [rows[v][0][3] for v in fix_order]
        others = [tuple((r[2], r[3]) for r in rows[v][1:]) for v in fix_order]
        close = [rows[v][0][2] for v in fix_order]
        closing = [((t, -1),) for t in close]
        last_i = len(fix_order) - 1
        # the first vertex of degree >= 3, whose orders are taken with
        # order[1] < order[-1] only
        pin = next((i for i, v in enumerate(fix_order) if len(rows[v]) >= 3), -1)
        # the host edges outside H, then the given pairs
        pair_masks = [p for i, p in enumerate(self.pair_bits) if not mask >> i & 1]
        pair_masks += [1 << u | 1 << v for u, v in pairs]
        darts = [r[2] for row in rows for r in row]  # H's darts, each out of its tail
        tail_bit = self.tail_bits
        nxt = [0] * nd
        # Open chains are kept by their end darts: end[] maps a chain's first
        # dart to its last and back, and both ends hold the chain's length,
        # capped at 3, so two merged chains' capped length is CAP[a + b].
        end = list(range(nd))
        length = [1] * nd
        CAP = (0, 1, 2, 3, 3, 3, 3)

        def pairs_cofacial() -> bool:
            seen = [False] * nd
            faces = []
            for d0 in darts:
                if seen[d0]:
                    continue
                face = 0
                w = d0
                while not seen[w]:
                    seen[w] = True
                    face |= tail_bit[w]
                    w = nxt[w]
                faces.append(face)
            return all(any(p & f == p for f in faces) for p in pair_masks)

        # Vertex fix_order[i] has its order fixed up to the neighbor whose dart
        # in is s, and `left` neighbors are still to place; each choice links s
        # to the dart out to an unplaced neighbor and is undone on the way back;
        # the frame with one neighbor left places it and sets the closing link.
        placed = [False] * nd

        def dfs(i: int, s: int, left: int, y: int) -> bool:
            for t, s_next in others[i] if left else closing[i]:
                if placed[t]:
                    continue
                if left == 1 and i == pin and t < nxt[first_in[i]]:
                    return False  # the mirror image of an order already searched
                nxt[s] = t
                head = end[s]
                # unless s's chain starts at t: then a face closes, and the 3 that
                # the chain put in y now stands for the face
                if head != t:
                    a = length[s]
                    b = length[t]
                    last = end[t]
                    end[head] = last
                    end[last] = head
                    length[head] = length[last] = CAP[a + b]
                    y2 = y + length[head] - a - b
                else:
                    y2 = y
                if left == 1:  # the closing link, to the dart out to the first neighbor
                    u = close[i]
                    nxt[s_next] = u
                    head2 = end[s_next]
                    if head2 != u:
                        a2 = length[s_next]
                        b2 = length[u]
                        last2 = end[u]
                        end[head2] = last2
                        end[last2] = head2
                        length[head2] = length[last2] = CAP[a2 + b2]
                        y2 += length[head2] - a2 - b2
                if y2 >= target_y:
                    if left > 1:
                        placed[t] = True
                        found = dfs(i, s_next, left - 1, y2)
                        placed[t] = False
                    elif i == last_i:  # every face is closed and the cuts left genus 0
                        found = not pair_masks or pairs_cofacial()
                    else:
                        found = dfs(i + 1, first_in[i + 1], len(others[i + 1]), y2)
                    if found:
                        return True
                if left == 1 and head2 != u:
                    end[head2] = s_next
                    end[last2] = u
                    length[head2] = a2
                    length[last2] = b2
                if head != t:
                    end[head] = s
                    end[last] = t
                    length[head] = a
                    length[last] = b
            return False

        if fix_order:
            found = 2 * m >= target_y and dfs(0, first_in[0], len(others[0]), 2 * m)
        else:  # a lone vertex
            found = not pair_masks
        del dfs  # dfs refers to itself; dropping it frees the search state now, not at the next GC
        if not found:
            return None
        heads = self.heads
        twins = self.twins
        orders = [()] * n
        for v in fix_order:
            _, w, _, s = rows[v][0]
            order = [w]
            for _ in rows[v][1:]:
                t = nxt[s]  # the dart out (v, w) that follows the dart in s
                order.append(heads[t])
                s = twins[t]
            orders[v] = tuple(order)
        return tuple(orders)


def first_planar_rotation(
    n: int, edges, cofacial_pairs, budget: int
) -> tuple[tuple[int, ...], ...] | None:
    """Cyclic orders of the first genus-0 rotation system of the connected
    spanning graph (0..n-1, edges) that puts the two vertices of every
    given pair on a common face, or None when there is none: the search of
    RotationKernel(n, edges) on all its edges."""
    kernel = RotationKernel(n, edges)
    return kernel.search((1 << len(kernel.pair_bits)) - 1, budget, cofacial_pairs)
