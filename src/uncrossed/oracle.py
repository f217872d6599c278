"""Exact maximum-uncrossed-subgraph and uncrossed-number search.

A subset H of edges is *feasible* when the spanning subgraph (V, H) has a
genus-0 rotation system in which every remaining edge has both endpoints
on a common face.  Feasible sets are exactly the uncrossed edge sets
realizable by some plane drawing: the embedding places H without
crossings, and each remaining edge can be drawn inside its assigned face
(crossings among the remaining edges are allowed).  For a connected host
graph a maximum uncrossed edge set can always be taken connected and
spanning, so the search ranges over such subsets only.  h(G) is the
maximum size of a feasible set, and unc(G) is the minimum number of
feasible sets covering all edges.

The search over rotation systems is exhaustive, with pruning that only
cuts branches that have no genus-0 completion, and a subset found
infeasible rules out its whole orbit under the automorphisms of G; it is
the independent check for the closed-form bounds, so it must not consult
them.  Each candidate subset is searched at most once, and each set the
walk returns carries its witness, the first rotation system that works
when the vertices are fixed in ascending (degree, vertex) order: the hit
of the walk's search, or for an image of a set found before it, which
the walk returns unsearched, a search run when a caller asks.

unc(G) is at least ceil(m / h(G)), and exact_unc stops the walk at the
end of the first size level whose sets hold a cover by that many; it
walks every level only when none does.  Its cover is the first that the
cover search meets among the sets walked so far: branch on the lowest
uncovered edge and try the sets that hold it in walk order.  The search
reads the walk's own column index, one int per edge, so the last pick
is the lowest bit of an AND of columns.

Each exact_h, exact_unc and maximal_feasible_sets call builds one
RotationKernel(G) and runs every search on it, on a set's edge mask; it
refutes without a search a set that holds all but at most one edge of a
subdivision of K_5 or K_{3,3} in G.  Such a set is not planar
(Kuratowski, Fund. Math. 15, 1930), or the one edge is crossed and the
set plus that edge is not planar, so its ends share no face of any plane
embedding of the set (Gutwenger, Mutzel and Weiskircher, Inserting an
edge into a planar graph, Algorithmica 41, 2005).  feasible builds a
kernel for each set.  On K_6, exact_unc makes 29 kernel calls (21 so
refuted, 1 for a cover set's witness); the full walk, 60 (25 so
refuted).
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
import time

from .embedding import ROTATION_BUDGET_DEFAULT, RotationKernel, RotationSystem, trace_faces
from .errors import MalformedCertificateError, SearchBudgetError
from .graphs import SLICE, Edge, Graph, automorphisms, connected_spanning, write_json_pairs
from .records import Record


class SearchLimits(Record):
    __slots__ = ("max_n", "max_rotation_budget", "time_budget")

    def __init__(
        self,
        max_n: int = 8,
        max_rotation_budget: int = ROTATION_BUDGET_DEFAULT,
        time_budget: float | None = None,  # seconds
    ):
        if max_n < 1 or max_rotation_budget < 1:
            raise ValueError("limits must be positive")
        if time_budget is not None and not time_budget > 0:  # NaN too
            raise ValueError("time budget must be positive")
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "max_rotation_budget", max_rotation_budget)
        object.__setattr__(self, "time_budget", time_budget)


DEFAULT_LIMITS = SearchLimits()
DEFAULT_UNC_LIMITS = SearchLimits(max_n=6)

_EDGE_KEY = re.compile(r"([0-9]+)-([0-9]+)")


def all_json_ints(*rows) -> bool:
    """True iff every item of every row is a JSON integer; a bool is not."""
    return all(type(x) is int for row in rows for x in row)


class SubdrawingCertificate(Record):
    """Machine-checkable witness that h(graph) >= len(uncrossed): a
    rotation system of the uncrossed edges H and a face of it for every
    other edge of the graph.  The face assignment is held in ascending
    edge order, which its readers take as it stands: the constructor
    sorts an assignment that one linear check finds out of order.  Keys
    that do not compare with each other are left as they are, for
    verify_certificate to refuse."""

    __slots__ = ("graph", "rotation", "face_assignment")

    def __init__(self, graph: Graph, rotation: RotationSystem, face_assignment: dict[Edge, int]):
        try:
            if any(map(operator.gt, face_assignment, itertools.islice(face_assignment, 1, None))):
                face_assignment = dict(sorted(face_assignment.items()))
        except TypeError:
            pass
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "face_assignment", face_assignment)

    @property
    def uncrossed(self) -> tuple[Edge, ...]:
        """H, the rotation's edge set, sorted and distinct."""
        return self.rotation.graph.edges

    def to_json_dict(self) -> dict:
        """The certificate's JSON object.  Its "assignment" maps "<u>-<v>"
        keys, in the assignment's order, to face indices."""
        return {
            "n": self.graph.n,
            "uncrossed": self.uncrossed,
            "rotation": self.rotation.order,
            "assignment": {f"{u}-{v}": face for (u, v), face in self.face_assignment.items()},
        }

    def write_json(self, out, nl: str) -> None:
        """Write json.dumps(self.to_json_dict(), indent=2), at newline plus
        indent nl, to the text stream out.  The assignment goes out SLICE
        entries per write, each joined from per-vertex texts '"u-' and
        'v": ', so no dict of "<u>-<v>" keys is built."""
        n = self.graph.n
        inner = nl + "  "
        out.write(f'{{{inner}"n": {n},{inner}"uncrossed": ')
        write_json_pairs(out, self.uncrossed, inner, n)
        rotation = json.dumps(self.rotation.order, indent=2).replace("\n", inner)
        out.write(f',{inner}"rotation": {rotation},{inner}"assignment": ')
        assignment = self.face_assignment
        if not assignment:
            out.write("{}" + nl + "}")
            return
        lefts = [f'"{u}-' for u in range(n)]
        rights = [f'{v}": ' for v in range(n)]
        keys = list(assignment)
        sep = "," + inner + "  "
        lead = "{" + inner + "  "
        for i in range(0, len(keys), SLICE):
            block = keys[i:i + SLICE]
            out.write(lead + sep.join([
                f"{lefts[u]}{rights[v]}{face}"
                for (u, v), face in zip(block, map(assignment.__getitem__, block))
            ]))
            lead = sep
        out.write(inner + "}" + nl + "}")

    @staticmethod
    def from_json_dict(data: dict) -> "SubdrawingCertificate":
        """Parse the certificate's JSON object, as to_json_dict holds it and
        write_json writes it.  The host graph is the uncrossed edges plus
        the assignment keys, on n vertices.  n, every vertex id and every
        face index must be a JSON integer and every assignment key decimal
        digits "<u>-<v>"; the keys are read once, key by key, and then
        Graph checks the host's edges, so a key that names an uncrossed
        edge is Graph's duplicate edge.  Anything else raises
        MalformedCertificateError.  The certificate sorts an assignment
        whose keys are out of ascending edge order."""
        try:
            n = data["n"]
            pairs = [tuple(e) for e in data["uncrossed"]]
            orders = tuple(tuple(c) for c in data["rotation"])
            if not all_json_ints((n,), *pairs, *orders):
                raise MalformedCertificateError("n and every vertex id must be integers")
            uncrossed = tuple((min(u, v), max(u, v)) for u, v in pairs)
            assignment = _edge_keyed(data["assignment"])
            graph = Graph(n, (*uncrossed, *assignment))
            rotation = RotationSystem(Graph(n, uncrossed), orders)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise MalformedCertificateError(f"bad certificate JSON: {exc}") from exc
        return SubdrawingCertificate(graph, rotation, assignment)


def _edge_keyed(assignment) -> dict[Edge, int]:
    """The assignment keyed by edge, read key by key; raises at the first
    key that is not <u>-<v>, names an edge an earlier key named, or has a
    face index that is not an int."""
    keyed = {}
    for key, idx in assignment.items():
        match = _EDGE_KEY.fullmatch(key)
        if match is None:
            raise MalformedCertificateError(f"assignment key {key!r} is not <u>-<v>")
        u, v = int(match[1]), int(match[2])
        e = (min(u, v), max(u, v))
        if e in keyed:
            raise MalformedCertificateError(f"edge {key} is named twice")
        if type(idx) is not int:
            raise MalformedCertificateError(f"face index {idx!r} of {key} is not an integer")
        keyed[e] = idx
    return keyed


def verify_certificate(cert: SubdrawingCertificate, faces_out: list | None = None) -> bool:
    """Check the four witness conditions independently.

    H is the rotation's edge set.  Structural garbage (an edge of H
    outside the graph, a rotation on another vertex count, assignment keys
    other than the crossed edges, dangling face indices) raises
    MalformedCertificateError; a well-formed but invalid witness returns
    False.  A certificate that verifies leaves the faces of its rotation
    in faces_out, when given, so that a caller need not trace them again.
    """
    g = cert.graph
    edges = g.edges  # sorted and distinct, as H is
    hedges = cert.uncrossed
    # H is a subset of E iff each edge of H is found after the one before it
    rest = iter(edges)
    if not all(e in rest for e in hedges):
        raise MalformedCertificateError("uncrossed contains an edge not in the graph")
    if cert.rotation.graph.n != g.n:
        raise MalformedCertificateError("rotation is not over the uncrossed subgraph")
    # with H a subset of E, the keys are E - H iff H and the keys, sorted
    # together, are E
    assignment = cert.face_assignment
    try:
        exact = len(assignment) == len(edges) - len(hedges) and all(
            map(operator.eq, sorted(itertools.chain(hedges, assignment)), edges)
        )
    except TypeError:  # a key that does not compare with edges
        exact = False
    if not exact:
        raise MalformedCertificateError("assignment keys must be exactly the crossed edges")
    faces = trace_faces(cert.rotation)
    f = len(faces)
    for e, idx in assignment.items():
        if type(idx) is not int:
            raise MalformedCertificateError(f"face index {idx!r} of edge {e} is not an integer")
        if not 0 <= idx < f:
            raise MalformedCertificateError(f"dangling face index {idx} for edge {e}")

    if not connected_spanning(g.n, hedges):
        return False
    # Euler: a connected (V, H) has genus 0 iff it has 2 - n + |H| faces,
    # and a lone vertex spans one face
    if (f if hedges else 1) != 2 - g.n + len(hedges):
        return False
    if g.n >= 3 and len(hedges) > 3 * g.n - 6:
        return False
    for (u, v), idx in assignment.items():
        verts = faces[idx].vertices
        if u not in verts or v not in verts:
            return False
    if faces_out is not None:
        faces_out[:] = faces
    return True


def _witness(
    g: Graph, hedges: tuple[Edge, ...], orders: tuple[tuple[int, ...], ...]
) -> SubdrawingCertificate:
    """Certificate for (V, hedges) on the cyclic orders the kernel found:
    each crossed edge goes to the first face that holds both endpoints."""
    rotation = RotationSystem(Graph(g.n, hedges), orders)
    faces = trace_faces(rotation)
    hset = set(hedges)
    assignment = {}
    for e in g.edges:
        if e in hset:
            continue
        u, v = e
        for i, face in enumerate(faces):
            if u in face.vertices and v in face.vertices:
                assignment[e] = i
                break
    return SubdrawingCertificate(g, rotation, assignment)


def feasible(
    g: Graph, subset, limits: SearchLimits = DEFAULT_LIMITS
) -> SubdrawingCertificate | None:
    """Certificate for (V, subset) as an uncrossed edge set, or None: the
    search the walk runs, on the subset's edge mask.  An edge outside the
    graph raises ValueError, a subset that is not connected and spanning
    returns None, and then an edge named twice raises ValueError."""
    if not g.is_connected():
        raise ValueError("feasibility search expects a connected graph")
    hedges = tuple(sorted(subset))
    bit = {e: 1 << i for i, e in enumerate(g.edges)}
    if not all(e in bit for e in hedges):
        raise ValueError("subset contains an edge not in the graph")
    if not connected_spanning(g.n, hedges):
        return None
    Graph(g.n, hedges)  # raises on an edge named twice
    hit = RotationKernel(g).search(sum(map(bit.get, hedges)), limits.max_rotation_budget)
    return None if hit is None else _witness(g, hedges, hit)


def _size_cap(g: Graph) -> int:
    return g.m if g.n < 3 else min(g.m, 3 * g.n - 6)


def _walk(g: Graph, limits: SearchLimits):
    """Yield (edges, mask, orders) for every inclusion-maximal feasible
    set, largest first and lexicographically within a size: mask has bit
    i set for each edge i of g.edges in the set, and orders() gives the
    cyclic orders of the kernel's first hit on the set, its witness.  A
    set the walk searched keeps its hit; an image of a set found earlier
    in the level is not searched unless orders() is called.  After the
    last set of each size level that holds one, yield holders, the found
    sets' column index: every set yielded so far is final by then, and so
    are the columns until the next set.  The first item is a set.

    Scanning sizes downward makes maximality checks local: a candidate
    is maximal iff it is feasible and not contained in a set already
    found (subsets of feasible sets stay feasible, so they are skipped
    without any embedding work).  A spanning tree is always feasible, so
    the walk yields at least one set.

    Sets are edge masks with bit i for edge i, and a level is every
    combination of its size, in lexicographic order.  Found sets are read
    by column: bit j of holders[i] is set when found set j holds edge i,
    so a candidate lies inside a found set exactly when the AND of its
    edges' columns is nonzero.  A level reads the columns as they stood
    when it began; the sets it finds cannot hold its other candidates,
    which have the same size.

    Infeasibility is cached by orbit under Aut(G), within a level, as an
    image has its set's size.  When the kernel rules a candidate H out, the
    masks of every image sigma(H) join the level's `infeasible`, and later
    candidates in that set are skipped.  This is sound: sigma maps H onto
    sigma(H) and the crossed edges E - H onto E - sigma(H), and
    relabelling a rotation system of H by sigma gives one of sigma(H)
    whose faces are the relabelled faces, so genus 0 and every cofacial
    pair carry over both ways.  sigma(H) also has the same degrees, hence
    the same rotation count, so the budget check would have passed for it
    too.  The walk's order and its output are those of a walk without the
    cache.  Feasibility is cached the same way: the images of a set the
    kernel finds feasible join `found_images` when the next candidate of
    the level reaches the kernel, not before, as a caller may stop at the
    set or at the level end, and a candidate among them is yielded with no
    search.  Each edge's images under the automorphisms are built when an
    orbit is first needed, so planar inputs never pay for them; an orbit
    is then the sums of its edges' image bits, one per automorphism.
    """
    if not g.is_connected():
        raise ValueError("oracle search expects a connected graph")
    if g.n > limits.max_n:
        raise SearchBudgetError(f"n={g.n} exceeds max_n={limits.max_n}")
    deadline = None if limits.time_budget is None else time.monotonic() + limits.time_budget
    m = g.m
    bits = [1 << i for i in range(m)]
    bit = dict(zip(g.edges, bits))
    # per vertex, the mask of its edges: a candidate that misses one leaves
    # the vertex bare, so it is not spanning (n = 1 has no edge to miss)
    incident = [sum(bit[e] for e in g.edges if v in e) for v in range(g.n)] if m else []
    kernel = RotationKernel(g)
    images: dict[Edge, tuple[int, ...]] | None = None

    def orbit(hedges):
        nonlocal images
        if images is None:
            auts = automorphisms(g)
            images = {
                (u, v): tuple(bit[(min(p[u], p[v]), max(p[u], p[v]))] for p in auts)
                for u, v in g.edges
            }
        return map(sum, zip(*(images[e] for e in hedges)))

    holders = [0] * m
    count = 0  # sets found so far
    for size in range(_size_cap(g), g.n - 2, -1):
        above = count  # sets found at the sizes above
        # an image has its set's size, so both caches hold one level
        infeasible: set[int] = set()
        found_images: set[int] = set()
        unmapped = None  # the last set searched, if its images are not in found_images yet
        level = zip(
            map(sum, itertools.combinations(bits, size)),
            itertools.combinations(holders, size) if above else itertools.repeat(()),
        )
        for mask, held in level:
            if deadline is not None and time.monotonic() > deadline:
                raise SearchBudgetError("time budget exceeded")
            if mask in infeasible or above and functools.reduce(operator.and_, held):
                continue
            if not all(map(mask.__and__, incident)):
                continue
            hedges = tuple(e for e, b in zip(g.edges, bits) if mask & b)
            if not connected_spanning(g.n, hedges):
                continue
            if unmapped is not None:
                found_images.update(orbit(unmapped))
                unmapped = None
            if mask in found_images:
                orders = functools.partial(kernel.search, mask, limits.max_rotation_budget)
            else:
                hit = kernel.search(mask, limits.max_rotation_budget)
                if hit is None:
                    infeasible.update(orbit(hedges))
                    continue
                orders = itertools.repeat(hit).__next__
                unmapped = hedges
            for i in range(m):
                if mask >> i & 1:
                    holders[i] |= 1 << count
            count += 1
            yield hedges, mask, orders
        if count > above:
            yield holders


def exact_h(
    g: Graph, limits: SearchLimits = DEFAULT_LIMITS
) -> tuple[int, SubdrawingCertificate]:
    """Maximum feasible-set size with a verifying witness.

    The witness is the first set of the size-descending walk, drawn on the
    kernel's first hit for it, so it is deterministic.
    """
    hedges, _, orders = next(_walk(g, limits))
    return len(hedges), _witness(g, hedges, orders())


def maximal_feasible_sets(
    g: Graph, limits: SearchLimits = DEFAULT_UNC_LIMITS
) -> tuple[tuple[Edge, ...], ...]:
    """All inclusion-maximal feasible edge sets, largest first."""
    return tuple(item[0] for item in _walk(g, limits) if isinstance(item, tuple))


def _find_cover(masks: list[int], columns: list[int], full: int, k: int) -> list[int] | None:
    """First cover of `full` by at most k masks, in the order of a
    depth-first search that branches on the lowest uncovered bit and tries
    the masks holding it in index order; None if there is none.

    columns is the masks' column index: bit i of columns[j] is set when
    mask i holds bit j, so the masks holding a bit are one int, walked
    from its lowest set bit up.  At the last pick the masks holding every
    missing bit are the AND of their columns, and the lowest of them is
    the one a scan in index order reaches first.
    """
    max_bits = max(mask.bit_count() for mask in masks)

    def dfs(covered: int, chosen: list[int]) -> list[int] | None:
        missing = full & ~covered
        if not missing:
            return chosen
        left = k - len(chosen)
        if missing.bit_count() > left * max_bits:
            return None
        if left == 1:
            holding = -1
            while missing:
                low = missing & -missing
                holding &= columns[low.bit_length() - 1]
                missing ^= low
            return chosen + [(holding & -holding).bit_length() - 1] if holding else None
        candidates = columns[(missing & -missing).bit_length() - 1]
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            got = dfs(covered | masks[i], chosen + [i])
            if got is not None:
                return got
        return None

    return dfs(0, [])


def exact_unc(
    g: Graph, limits: SearchLimits = DEFAULT_UNC_LIMITS
) -> tuple[int, list[SubdrawingCertificate]]:
    """Minimum number of feasible sets covering all edges, with witnesses.

    Every cover needs at least ceil(m / h) sets.  At each level end of the
    walk, the sets found so far are searched for a cover by that many, on
    the walk's column index, and the first one found is the answer, so
    most graphs never walk the smaller levels: K_6 takes 29 kernel calls,
    not the full walk's 60.  Proving that no cover of some size exists
    needs every maximal set, so when no level end gives a ceil(m / h)-cover
    the walk runs out and larger covers are searched over the full list.
    The cover is the first in `_find_cover`'s order among the sets walked
    when it is found, each drawn on the witness the walk carries for it.
    """
    full = (1 << g.m) - 1
    sets = []
    masks = []

    def witness(i: int) -> SubdrawingCertificate:
        hedges, _, orders = sets[i]
        return _witness(g, hedges, orders())

    for item in _walk(g, limits):
        if isinstance(item, tuple):
            sets.append(item)
            masks.append(item[1])
            continue
        columns = item
        if g.m == 0:  # nothing to cover, but one drawing still shows the vertex
            return 1, [witness(0)]
        lower = -(-g.m // len(sets[0][0]))
        picked = _find_cover(masks, columns, full, lower)
        if picked is not None:
            return lower, [witness(i) for i in picked]
    # the last level end saw every set, so no cover by `lower` sets exists
    for k in range(lower + 1, len(sets) + 1):
        picked = _find_cover(masks, columns, full, k)
        if picked is not None:
            return k, [witness(i) for i in picked]
    raise AssertionError("unreachable: the union of maximal sets covers E")
