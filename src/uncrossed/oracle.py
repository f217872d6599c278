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
them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .embedding import (
    ROTATION_BUDGET_DEFAULT,
    RotationSystem,
    first_planar_rotation,
    genus,
    trace_faces,
)
from .errors import MalformedCertificateError, SearchBudgetError
from .graphs import Edge, Graph, automorphisms, connected_spanning


@dataclass(frozen=True)
class SearchLimits:
    max_n: int = 8
    max_rotation_budget: int = ROTATION_BUDGET_DEFAULT
    time_budget: float | None = None  # seconds

    def __post_init__(self):
        if self.max_n < 1 or self.max_rotation_budget < 1:
            raise ValueError("limits must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time budget must be positive")


DEFAULT_LIMITS = SearchLimits()
DEFAULT_UNC_LIMITS = SearchLimits(max_n=6)


@dataclass(frozen=True)
class SubdrawingCertificate:
    """Machine-checkable witness that h(graph) >= len(uncrossed)."""

    graph: Graph
    uncrossed: tuple[Edge, ...]
    rotation: RotationSystem
    face_assignment: dict[Edge, int]

    def to_json_dict(self) -> dict:
        return {
            "n": self.graph.n,
            "uncrossed": [list(e) for e in self.uncrossed],
            "rotation": [list(c) for c in self.rotation.order],
            "assignment": {f"{u}-{v}": i for (u, v), i in sorted(self.face_assignment.items())},
        }

    @staticmethod
    def from_json_dict(data: dict, graph: Graph) -> "SubdrawingCertificate":
        try:
            uncrossed = tuple(sorted((min(u, v), max(u, v)) for u, v in data["uncrossed"]))
            rotation = RotationSystem(
                Graph(data["n"], uncrossed), tuple(tuple(c) for c in data["rotation"])
            )
            assignment = {}
            for key, idx in data["assignment"].items():
                u, v = (int(t) for t in key.split("-"))
                assignment[(min(u, v), max(u, v))] = int(idx)
        except (KeyError, ValueError, TypeError) as exc:
            raise MalformedCertificateError(f"bad certificate JSON: {exc}") from exc
        return SubdrawingCertificate(graph, uncrossed, rotation, assignment)


def verify_certificate(cert: SubdrawingCertificate) -> bool:
    """Check the four witness conditions independently.

    Structural garbage (edges outside the graph, dangling face indices,
    rotation over the wrong edge set) raises MalformedCertificateError;
    a well-formed but invalid witness returns False.
    """
    g = cert.graph
    edge_set = set(g.edges)
    hset = set(cert.uncrossed)
    if not hset <= edge_set:
        raise MalformedCertificateError("uncrossed contains an edge not in the graph")
    if cert.rotation.graph.n != g.n or set(cert.rotation.graph.edges) != hset:
        raise MalformedCertificateError("rotation is not over the uncrossed subgraph")
    missing = edge_set - hset
    if set(cert.face_assignment) != missing:
        raise MalformedCertificateError("assignment keys must be exactly the crossed edges")
    faces = trace_faces(cert.rotation)
    for e, idx in cert.face_assignment.items():
        if not isinstance(idx, int) or not 0 <= idx < faces.f:
            raise MalformedCertificateError(f"dangling face index {idx} for edge {e}")

    if not connected_spanning(g.n, hset):
        return False
    if genus(cert.rotation) != 0:
        return False
    if g.n >= 3 and len(hset) > 3 * g.n - 6:
        return False
    for (u, v), idx in cert.face_assignment.items():
        verts = faces.faces[idx].vertices
        if u not in verts or v not in verts:
            return False
    return True


class _Deadline:
    def __init__(self, seconds: float | None):
        self.at = time.monotonic() + seconds if seconds else None

    def check(self):
        if self.at is not None and time.monotonic() > self.at:
            raise SearchBudgetError("time budget exceeded")


def _build_certificate(g: Graph, hedges: tuple[Edge, ...], orders) -> SubdrawingCertificate:
    rotation = RotationSystem(Graph(g.n, hedges), orders)
    faces = trace_faces(rotation)
    assignment = {}
    for e in sorted(set(g.edges) - set(hedges)):
        u, v = e
        for i, face in enumerate(faces.faces):
            if u in face.vertices and v in face.vertices:
                assignment[e] = i
                break
    return SubdrawingCertificate(g, tuple(sorted(hedges)), rotation, assignment)


def feasible(
    g: Graph, subset, limits: SearchLimits = DEFAULT_LIMITS
) -> SubdrawingCertificate | None:
    """Certificate for (V, subset) as an uncrossed edge set, or None."""
    if not g.is_connected():
        raise ValueError("feasibility search expects a connected graph")
    hedges = tuple(sorted(subset))
    hset = set(hedges)
    if not hset <= set(g.edges):
        raise ValueError("subset contains an edge not in the graph")
    if not connected_spanning(g.n, hedges):
        return None
    crossed = tuple(e for e in g.edges if e not in hset)
    orders = first_planar_rotation(g.n, hedges, crossed, limits.max_rotation_budget)
    if orders is None:
        return None
    return _build_certificate(g, hedges, orders)


def _size_cap(g: Graph) -> int:
    return g.m if g.n < 3 else min(g.m, 3 * g.n - 6)


def _maximal_feasible(g: Graph, limits: SearchLimits):
    """Yield (edges, rotation orders) for every inclusion-maximal feasible
    set, largest first and lexicographically within a size.

    Scanning sizes downward makes maximality checks local: a candidate
    is maximal iff it is feasible and not contained in a set already
    found (subsets of feasible sets stay feasible, so they are skipped
    without any embedding work).  A spanning tree is always feasible, so
    the walk yields at least one set.

    Infeasibility is cached by orbit under Aut(G).  Sets are edge masks;
    when the kernel rules a candidate H out, the masks of every image
    sigma(H) join `infeasible`, and later candidates in that set are
    skipped.  This is sound: sigma maps H onto sigma(H) and the crossed
    edges E - H onto E - sigma(H), and relabelling a rotation system of H
    by sigma gives one of sigma(H) whose faces are the relabelled faces,
    so genus 0 and every cofacial pair carry over both ways.  sigma(H)
    also has the same degrees, hence the same rotation count, so the
    budget check would have passed for it too.  Feasible candidates are
    still searched one by one, since each needs its own first rotation as
    its witness; the walk's order and its output are those of a walk
    without the cache.  The automorphisms' edge maps are built on the
    first infeasible candidate only, so planar inputs never pay for them.
    """
    if not g.is_connected():
        raise ValueError("oracle search expects a connected graph")
    if g.n > limits.max_n:
        raise SearchBudgetError(f"n={g.n} exceeds max_n={limits.max_n}")
    deadline = _Deadline(limits.time_budget)
    bit = {e: 1 << i for i, e in enumerate(g.edges)}
    found: list[int] = []
    infeasible: set[int] = set()
    edge_maps: list[dict[Edge, int]] | None = None
    for size in range(_size_cap(g), g.n - 2, -1):
        for hedges in itertools.combinations(g.edges, size):
            deadline.check()
            mask = sum(bit[e] for e in hedges)
            if any(mask | f == f for f in found):
                continue
            if not connected_spanning(g.n, hedges) or mask in infeasible:
                continue
            crossed = tuple(e for e in g.edges if not mask & bit[e])
            orders = first_planar_rotation(g.n, hedges, crossed, limits.max_rotation_budget)
            if orders is not None:
                found.append(mask)
                yield hedges, orders
                continue
            if edge_maps is None:
                edge_maps = [
                    {(u, v): bit[(min(p[u], p[v]), max(p[u], p[v]))] for u, v in g.edges}
                    for p in automorphisms(g)
                ]
            infeasible.update(sum(em[e] for e in hedges) for em in edge_maps)


def exact_h(
    g: Graph, limits: SearchLimits = DEFAULT_LIMITS
) -> tuple[int, SubdrawingCertificate]:
    """Maximum feasible-set size with a verifying witness.

    The witness is the first set of the size-descending walk, so it is
    deterministic.
    """
    for hedges, orders in _maximal_feasible(g, limits):
        return len(hedges), _build_certificate(g, hedges, orders)
    raise AssertionError("unreachable: a spanning tree is always feasible")


def maximal_feasible_sets(
    g: Graph, limits: SearchLimits = DEFAULT_UNC_LIMITS
) -> tuple[tuple[Edge, ...], ...]:
    """All inclusion-maximal feasible edge sets, largest first."""
    return tuple(hedges for hedges, _ in _maximal_feasible(g, limits))


def _find_cover(masks: list[int], full: int, k: int) -> list[int] | None:
    """First (in index order) cover of `full` using at most k masks."""
    max_bits = max(bin(m).count("1") for m in masks)

    def dfs(covered: int, chosen: list[int]) -> list[int] | None:
        if covered == full:
            return chosen
        if len(chosen) == k:
            return None
        missing = full & ~covered
        if bin(missing).count("1") > (k - len(chosen)) * max_bits:
            return None
        low = missing & -missing  # branch on the lowest uncovered edge
        for i, mask in enumerate(masks):
            if mask & low:
                got = dfs(covered | mask, chosen + [i])
                if got is not None:
                    return got
        return None

    return dfs(0, [])


def exact_unc(
    g: Graph, limits: SearchLimits = DEFAULT_UNC_LIMITS
) -> tuple[int, list[SubdrawingCertificate]]:
    """Minimum number of feasible sets covering all edges, with witnesses."""
    sets = list(_maximal_feasible(g, limits))
    if g.m == 0:  # nothing to cover, but one drawing still shows the vertex
        return 1, [_build_certificate(g, *sets[0])]
    h = len(sets[0][0])
    edge_index = {e: i for i, e in enumerate(g.edges)}
    masks = [sum(1 << edge_index[e] for e in hedges) for hedges, _ in sets]
    full = (1 << g.m) - 1
    lower = max(1, -(-g.m // h))
    for k in range(lower, len(sets) + 1):
        picked = _find_cover(masks, full, k)
        if picked is not None:
            return k, [_build_certificate(g, *sets[i]) for i in picked]
    raise AssertionError("unreachable: the union of maximal sets covers E")
