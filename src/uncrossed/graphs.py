"""Simple undirected graphs with dense integer vertex ids.

Vertices are always 0..n-1 and edges are stored as a canonically sorted
tuple of (u, v) pairs with u < v, so iteration order is deterministic
everywhere downstream.
"""

from __future__ import annotations

import io
import itertools
import operator
import random

from .errors import ParseError
from .records import Record

Edge = tuple[int, int]

# items or lines per write of a streamed output file: few enough calls to
# cost little, and no whole document is held in memory
SLICE = 4096


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph(Record):
    """Immutable simple graph on vertices 0..n-1."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[Edge, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        # the edge checks, a method of their own so that perfbench's
        # tracer can time them on the class as graphs.Graph.validate
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        n = self.n
        # sorted, the edges are valid iff each is a pair of ints in range
        # and each is below the next; no set of them is built
        try:
            edges = tuple(sorted(self.edges))
            valid = all(
                [type(u) is int is type(v) and 0 <= u < v < n for u, v in edges]
            ) and all(map(operator.lt, edges, itertools.islice(edges, 1, None)))
        except (TypeError, ValueError):
            valid = False
        if not valid:  # find the first fault in input order, and its message
            seen = set()
            for u, v in self.edges:
                if type(u) is not int or type(v) is not int:
                    raise ValueError(f"edge ({u!r},{v!r}) has a vertex id that is not an int")
                if not (0 <= u < v < n):
                    raise ValueError(f"edge ({u},{v}) out of range for n={n}")
                if (u, v) in seen:
                    raise ValueError(f"duplicate edge ({u},{v})")
                seen.add((u, v))
            edges = tuple(sorted(self.edges))
        object.__setattr__(self, "edges", edges)

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        """Build a graph from an iterable of (u, v) pairs in any order."""
        return Graph(n, tuple(_normalize_edge(u, v) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[int]]:
        """Sorted adjacency lists."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        return adj

    def is_connected(self) -> bool:
        return connected_spanning(self.n, self.edges)


def connected_spanning(n: int, edges) -> bool:
    """True iff the edges join all of the vertices 0..n-1 into one component."""
    if len(edges) < n - 1:  # also spares a huge n its O(n) union-find
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
            if components == 1:  # spanning already; skip the remaining edges
                return True
    return components == 1


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation p (v -> p[v]) that maps g's edge set onto
    itself, in lexicographic order, so the identity comes first.

    Backtracking maps vertices 0..n-1 in turn, tries only unused targets of
    equal degree, and keeps a target only if adjacency to every vertex
    already mapped is preserved; a full map is then an automorphism.
    """
    adj = [set(a) for a in g.adjacency()]
    perm = [0] * g.n
    used = [False] * g.n
    out: list[tuple[int, ...]] = []

    def extend(v: int):
        if v == g.n:
            out.append(tuple(perm))
            return
        for t in range(g.n):
            if used[t] or len(adj[t]) != len(adj[v]):
                continue
            if any((u in adj[v]) != (perm[u] in adj[t]) for u in range(v)):
                continue
            perm[v], used[t] = t, True
            extend(v + 1)
            used[t] = False

    extend(0)
    return out


def make_complete(n: int) -> Graph:
    """K_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def make_complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts {0..a-1} and {a..a+b-1}."""
    if a < 1 or b < 1:
        raise ValueError("both parts must be nonempty")
    return Graph(a + b, tuple((u, v) for u in range(a) for v in range(a, a + b)))


def make_wheel(n: int) -> Graph:
    """Wheel on n vertices: hub 0 joined to the rim cycle 1..n-1."""
    if n < 4:
        raise ValueError("wheel needs at least 4 vertices")
    rim = n - 1
    edges = [(0, i) for i in range(1, n)]
    edges += [(i, i + 1) for i in range(1, rim)]
    edges.append((1, rim))
    return Graph.from_edges(n, edges)


def make_random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with exactly m edges; pure in (n, m, seed)."""
    total = n * (n - 1) // 2
    if not 0 <= m <= total:
        raise ValueError(f"m={m} out of range [0, {total}]")
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(total), m))
    edges = []
    # unrank: pairs (u,v) with u<v in lexicographic order
    u = 0
    base = 0  # index of first pair with this u
    row = n - 1  # number of pairs (u, *)
    for idx in picked:
        while idx >= base + row:
            base += row
            u += 1
            row -= 1
        edges.append((u, u + 1 + idx - base))
    return Graph(n, tuple(edges))


def is_triangle_free(g: Graph) -> bool:
    """True iff no two adjacent vertices have a common neighbor."""
    adj = [set(a) for a in g.adjacency()]
    return all(not (adj[u] & adj[v]) for u, v in g.edges)


def is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def complete_bipartite_parts(g: Graph) -> tuple[int, int] | None:
    """(a, b) with a <= b if g is a complete bipartite graph, else None."""
    if g.n < 2 or not g.is_connected():
        return None
    adj = g.adjacency()
    color = [-1] * g.n
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if color[w] == -1:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return None
    a = color.count(0)
    b = g.n - a
    if g.m != a * b:
        return None
    return (min(a, b), max(a, b))


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: header "n m", then m lines "u v"."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError(f"expected header 'n m', got {lines[0]!r}", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError(f"non-integer header {lines[0]!r}", line=1) from None
    if n < 1:
        raise ParseError("vertex count must be >= 1", line=1)
    if len(lines) - 1 != m:
        raise ParseError(f"header promises {m} edges, found {len(lines) - 1}", line=1)
    edges = []
    seen = set()
    for i, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {raw!r}", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {raw!r}", line=i) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=i)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in {raw!r}", line=i)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError(f"duplicate edge ({e[0]},{e[1]})", line=i)
        seen.add(e)
        edges.append(e)
    return Graph(n, tuple(edges))


def write_edge_list(g: Graph, out) -> None:
    """Write serialize_edge_list(g) to the text stream out: the header,
    then SLICE edge lines per write, each joined from per-vertex texts
    "u " and "v\n"."""
    out.write(f"{g.n} {g.m}\n")
    firsts = [f"{u} " for u in range(g.n)]
    seconds = [f"{v}\n" for v in range(g.n)]
    edges = g.edges
    for i in range(0, len(edges), SLICE):
        out.write("".join([firsts[u] + seconds[v] for u, v in edges[i:i + SLICE]]))


def write_json_pairs(out, pairs, nl: str, n: int) -> None:
    """Write the JSON array of the int pairs in range(n), at newline plus
    indent nl, to the text stream out as json.dumps(pairs, indent=2) writes
    it there.  SLICE pairs go per write, each joined from per-vertex texts
    "[" + indent + "u," + indent and "v" + indent + "]"."""
    if not pairs:
        out.write("[]")
        return
    inner = nl + "  "
    deeper = inner + "  "
    lefts = [f"[{deeper}{u},{deeper}" for u in range(n)]
    rights = [f"{v}{inner}]" for v in range(n)]
    sep = "," + inner
    lead = "[" + inner
    for i in range(0, len(pairs), SLICE):
        out.write(lead + sep.join([lefts[u] + rights[v] for u, v in pairs[i:i + SLICE]]))
        lead = sep
    out.write(nl + "]")


def serialize_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list; edges in canonical ascending order."""
    buf = io.StringIO()
    write_edge_list(g, buf)
    return buf.getvalue()
