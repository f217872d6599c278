"""Rotation systems and the faces they induce.

A rotation system assigns each vertex a cyclic order of its neighbors and
thereby a cellular embedding on an orientable surface.  Faces are traced
with the successor convention: after the directed edge (u -> v) the walk
continues with (v -> w) where w follows u in the cyclic order at v.
Embeddings are spherical; no face is distinguished as the outer one.
"""

from __future__ import annotations

import functools
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


def enumerate_rotation_systems(g: Graph, budget: int = ROTATION_BUDGET_DEFAULT):
    """Yield every rotation system of g exactly once, lexicographically:
    per vertex, every cyclic order of its neighbors that starts at the
    smallest one, which quotients out cyclic rotations.

    This is the brute-force reference for RotationKernel.search, which
    visits the same systems with the vertices taken in another order.
    Raises SearchBudgetError when the count prod_v (deg(v)-1)! exceeds the
    budget.
    """
    if not g.is_connected():
        raise ValueError("rotation enumeration expects a connected graph")
    adj = g.adjacency()
    _check_budget(adj, budget)
    arrangements = [[tuple(a[:1]) + rest for rest in itertools.permutations(a[1:])] for a in adj]
    for combo in itertools.product(*arrangements):
        yield RotationSystem(g, combo)


def _bits(x: int) -> list[int]:
    """The positions of x's set bits, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _kuratowski_subdivisions(n: int, edges: tuple[Edge, ...]) -> tuple[int, ...]:
    """The edge mask, bit i for edges[i], of every subgraph of
    (0..n-1, edges) that is a subdivision of K_5 or K_{3,3}: branch
    vertices, five of degree >= 4 or six of degree >= 3 split three and
    three, joined pair by pair (K_{3,3}: across the split) by internally
    disjoint paths whose inner vertices are none of them.  A subdivision's
    branch vertices, split and paths are read off its edge set, so each
    mask is met once: a K_{3,3} from the side with its least vertex.  A
    subdivision has at least 9 edges."""
    if len(edges) < 9:
        return ()
    near = [0] * n
    bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        near[u] |= 1 << v
        near[v] |= 1 << u
        bit[u][v] = bit[v][u] = 1 << i
    every = (1 << n) - 1
    masks = []

    def routes(a: int, b: int, free: int) -> list[tuple[int, int]]:
        # (inner vertices, edges) of every a-b path with at least one inner
        # vertex, all of them in free
        found = [(1 << x, bit[a][x] | bit[x][b]) for x in _bits(near[a] & near[b] & free)]
        if free & (free - 1):  # two free vertices or more: longer paths
            stack = [(x, 1 << x, bit[a][x]) for x in _bits(near[a] & free)]
            while stack:
                c, inner, path = stack.pop()
                for x in _bits(near[c] & free & ~inner):
                    inner_x = inner | 1 << x
                    path_x = path | bit[c][x]
                    if near[x] >> b & 1:
                        found.append((inner_x, path_x | bit[x][b]))
                    stack.append((x, inner_x, path_x))
        return found

    def join(pairs: list[Edge], free: int, paths: dict[Edge, list[tuple[int, int]]]) -> None:
        # every way to join each pair, by its edge or by a path through
        # free, with no inner vertex shared: first the pairs without an
        # edge each take a path, then any set of the others takes one, in
        # ascending option order
        direct = [bit[a][b] for a, b in pairs]
        if not free:
            masks.append(sum(direct))  # the caller saw every pair's edge
            return
        starts = [(0, sum(direct))]  # (inner vertices used, mask)
        options = []
        for p, d in zip(pairs, direct):
            if p not in paths:
                paths[p] = routes(*p, free)
            if d:
                options += [(d, inner, path) for inner, path in paths[p]]
            else:
                starts = [
                    (used | inner, mask | path)
                    for used, mask in starts
                    for inner, path in paths[p]
                    if not used & inner
                ]
                if not starts:
                    return
        stack = [(0, used, mask) for used, mask in starts]
        while stack:
            j, used, mask = stack.pop()
            masks.append(mask)
            for i in range(j, len(options)):
                d, inner, path = options[i]
                # a pair's edge leaves the mask once the pair takes a path
                if not inner & used and mask & d:
                    stack.append((i + 1, used | inner, mask ^ d | path))

    vertex_bits = [1 << v for v in range(n)]
    for five in itertools.combinations([v for v in range(n) if near[v].bit_count() >= 4], 5):
        s = sum(map(vertex_bits.__getitem__, five))
        free = every & ~s
        # each pair of five without an edge needs a free vertex of its own;
        # the sum counts each such pair twice, and each v of five once
        if sum([(s & ~near[v]).bit_count() for v in five]) - 5 <= 2 * free.bit_count():
            join(list(itertools.combinations(five, 2)), free, {})
    for six in itertools.combinations([v for v in range(n) if near[v].bit_count() >= 3], 6):
        s = sum(map(vertex_bits.__getitem__, six))
        free = every & ~s
        room = free.bit_count()
        paths = {}  # shared by the splits of six
        x = six[0]
        for a, b in itertools.combinations(six[1:], 2):
            t = s & ~(vertex_bits[x] | vertex_bits[a] | vertex_bits[b])  # the other side
            need = (t & ~near[x]).bit_count() + (t & ~near[a]).bit_count()
            if need + (t & ~near[b]).bit_count() <= room:
                other = _bits(t)
                join([(u, v) if u < v else (v, u) for u in (x, a, b) for v in other], free, paths)
    return tuple(masks)


def _columns(masks, m: int) -> list[int]:
    """The column index of masks over bits 0..m-1: bit j of the i-th
    column is bit i of masks[j].  The masks are written one after another
    as m binary digits each, last mask first, and column i is read back
    from every m-th digit, so the transpose runs in C."""
    if not masks:
        return [0] * m
    fmt = f"0{m}b"
    digits = "".join([format(k, fmt) for k in reversed(masks)])
    # each mask's first digit is its bit m - 1
    return [int(digits[m - 1 - i::m], 2) for i in range(m)]


class RotationKernel:
    """The rotation search over the spanning subgraphs of one host graph,
    with the host's tables built once: its sorted darts, and per vertex v
    one row of (edge bit, w, dart out (v, w), dart in (w, v)) per neighbor
    w, ascending.  H's darts are a sorted subsequence of the host's, so the
    search on H's edge mask meets the same first hit as on H alone.  The
    host's Kuratowski subdivisions are listed once too, as edge masks, and
    held by column: one int per host edge, with bit j set when subdivision
    j holds the edge."""

    def __init__(self, g: Graph):
        n = self.n = g.n
        darts = sorted(d for u, v in g.edges for d in ((u, v), (v, u)))
        idx = {d: i for i, d in enumerate(darts)}
        self.heads = [v for _, v in darts]
        self.twins = [idx[v, u] for u, v in darts]
        self.tail_bits = [1 << u for u, _ in darts]
        self.pair_bits = [1 << u | 1 << v for u, v in g.edges]
        # g.edges is sorted, so each row lists its neighbors ascending
        self.rows = [[] for _ in range(n)]
        # per vertex, the mask of its edges
        self.vertex_edges = [0] * n
        for i, (u, v) in enumerate(g.edges):
            self.rows[u].append((1 << i, v, idx[u, v], idx[v, u]))
            self.rows[v].append((1 << i, u, idx[v, u], idx[u, v]))
            self.vertex_edges[u] |= 1 << i
            self.vertex_edges[v] |= 1 << i
        # per degree d, the (d - 1)! cyclic orders of d neighbors with the
        # first one pinned
        self.orders_by_degree = [1] + [math.factorial(d) for d in range(n - 1)]
        self.edges = g.edges
        self.all_edges = (1 << g.m) - 1

    @functools.cached_property
    def kuratowski(self) -> tuple[int, ...]:
        """The edge mask of every subdivision of K_5 or K_{3,3} in the host,
        listed at its first use: a host whose every search the budget
        refuses never needs them, and K_9 holds 3,997,686."""
        return _kuratowski_subdivisions(self.n, self.edges)

    @functools.cached_property
    def kuratowski_columns(self) -> tuple[int, list[int]]:
        """(every, columns): every has one bit per mask of kuratowski, and
        bit j of columns[i] is set when mask j holds host edge i."""
        return (1 << len(self.kuratowski)) - 1, _columns(self.kuratowski, len(self.edges))

    def search(self, mask: int, budget: int) -> tuple[tuple[int, ...], ...] | None:
        """Cyclic orders of the first genus-0 rotation system of the
        connected spanning subgraph H = mask that puts both ends of every
        host edge outside H on a common face, or None when there is none.

        The budget is checked first, on the systems before pruning, from
        H's degrees.  Then H returns None with no search when it holds all
        but at most one edge e of a subdivision S of K_5 or K_{3,3} in the
        host.  Either S lies in H, and H is not planar (Kuratowski, Fund.
        Math. 15, 1930), or e is crossed, and H + e is not planar; but a
        crossed edge's ends share a face of some plane embedding of H
        exactly when H + e is planar (Gutwenger, Mutzel and Weiskircher,
        Inserting an edge into a planar graph, Algorithmica 41, 2005).  One
        pass over the edges outside H finds such an S: `ones` marks the
        subdivisions that hold at least one of them, `twos` those that hold
        two or more, and a subdivision outside `twos` refutes H.

        The search is a depth-first walk that fixes the vertices in
        ascending (degree, vertex) order, each through its arrangements in
        lexicographic order, and the answer is the first hit in that order;
        low degrees first set the links that let the cut bite while the walk
        is narrow.

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
        cut.  The host edges outside H are checked on the faces of each
        genus-0 leaf.

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
        total = 1
        orders_by_degree = self.orders_by_degree
        for edges_at in self.vertex_edges:
            total *= orders_by_degree[(mask & edges_at).bit_count()]
        if total > budget:
            raise SearchBudgetError(f"{total} rotation systems exceed the budget of {budget}")
        every, columns = self.kuratowski_columns
        if every:
            ones = twos = 0
            for i in _bits(self.all_edges & ~mask):
                twos |= ones & columns[i]
                ones |= columns[i]
            if every & ~twos:
                return None
        rows = [[r for r in row if mask & r[0]] for row in self.rows]
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
        # the host edges outside H
        pair_masks = [p for i, p in enumerate(self.pair_bits) if not mask >> i & 1]
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
