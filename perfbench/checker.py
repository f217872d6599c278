"""Independent checker for every output the workloads produce.

Nothing here imports `uncrossed`: certificates are re-traced with this
file's own face tracer, in the order the package README documents
(faces numbered by their lexicographically smallest directed edge; after
the dart u->v the walk continues with v->w, where w follows u in the
cyclic order at v).  Planarity comes from networkx, and the paper's
bounds are recomputed exactly from `math.isqrt` brackets.

Each check raises CheckError with a reason when an output is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import networkx as nx

SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckError(Exception):
    """An output of the program is wrong."""


def need(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# --- exact arithmetic -------------------------------------------------------

def _sqrt_bracket(value: int, bits: int) -> tuple[Fraction, Fraction]:
    """lo <= sqrt(value) <= hi, both exact; lo == hi for perfect squares."""
    scaled = value << (2 * bits)
    root = math.isqrt(scaled)
    lo = Fraction(root, 1 << bits)
    return lo, (lo if root * root == scaled else Fraction(root + 1, 1 << bits))


def _decide(bracket, decide):
    """Refine an interval until decide(lo, hi) returns a value other than
    None.  Only an irrational quantity sitting exactly on an integer
    boundary could refine forever."""
    for bits in (48, 96, 192, 384, 768, 1536):
        result = decide(*bracket(bits))
        if result is not None:
            return result
    raise CheckError("exact comparison did not converge")


def _h_upper_bracket(n: int, m: int):
    """Bracket of 3n - 6 - sqrt(2m) + sqrt(6(n-2)).  The two roots cancel
    exactly when m = 3n - 6; otherwise the value is irrational unless both
    radicands are perfect squares, which the brackets then give exactly."""
    if 2 * m == 6 * (n - 2):
        return lambda bits: (Fraction(3 * n - 6), Fraction(3 * n - 6))

    def bracket(bits):
        a_lo, a_hi = _sqrt_bracket(2 * m, bits)
        b_lo, b_hi = _sqrt_bracket(6 * (n - 2), bits)
        return 3 * n - 6 - a_hi + b_lo, 3 * n - 6 - a_lo + b_hi
    return bracket


def within_h_upper(h: int, n: int, m: int) -> bool:
    """h <= 3n - 6 - sqrt(2m) + sqrt(6(n-2)), decided exactly."""
    return _decide(_h_upper_bracket(n, m),
                   lambda lo, hi: True if h <= lo else (False if h > hi else None))


def _ceil_div(m: int, bracket) -> int:
    def decide(lo, hi):
        need(lo > 0, "non-positive denominator")
        a, b = math.ceil(m / hi), math.ceil(m / lo)
        return a if a == b else None
    return _decide(bracket, decide)


def unc_lower(n: int, m: int) -> int:
    """ceil(m / (3n - 6 - sqrt(2m) + sqrt(6(n-2)))), exactly."""
    return _ceil_div(m, _h_upper_bracket(n, m))


def unc_lower_quadratic(n: int, m: int) -> int | None:
    """ceil(m / ((3n-5 + sqrt((3n-5)^2 - 4m)) / 2)); None when the
    discriminant is negative."""
    disc = (3 * n - 5) ** 2 - 4 * m
    if disc < 0:
        return None

    def bracket(bits):
        lo, hi = _sqrt_bracket(disc, bits)
        return (3 * n - 5 + lo) / 2, (3 * n - 5 + hi) / 2
    return _ceil_div(m, bracket)


def h_upper_float(n: int, m: int) -> float:
    return 3 * n - 6 - math.sqrt(2 * m) + math.sqrt(6 * (n - 2))


def close(text: str, value: float, what: str) -> None:
    got = float(text)
    need(abs(got - value) <= 1e-8 * max(1.0, abs(value)), f"{what}: {text} != {value!r}")


# --- embeddings -------------------------------------------------------------

def trace_faces(n: int, rotation) -> list[frozenset]:
    """Vertex sets of the faces of a rotation system, in trace order."""
    need(len(rotation) == n, "rotation needs one cyclic order per vertex")
    succ = {}
    for v, cyc in enumerate(rotation):
        d = len(cyc)
        for i, u in enumerate(cyc):
            succ[(u, v)] = (v, cyc[(i + 1) % d])
    visited = set()
    faces = []
    for start in sorted(succ):
        if start in visited:
            continue
        verts = set()
        dart = start
        while dart not in visited:
            visited.add(dart)
            verts.add(dart[0])
            dart = succ[dart]
        faces.append(frozenset(verts))
    return faces


def connected_spanning(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def _key(u: int, v: int) -> str:
    return f"{min(u, v)}-{max(u, v)}"


def check_certificate(n: int, edges, cert: dict) -> list[frozenset]:
    """A drawing certificate of the graph (n, edges): the uncrossed part H
    is connected, spanning and embedded with genus 0 (n - |H| + f = 2),
    and each crossed edge is assigned a face that touches both of its
    endpoints.  Returns the traced faces."""
    need(cert["n"] == n, "certificate vertex count")
    edge_set = {tuple(e) for e in edges}
    hset = {(min(u, v), max(u, v)) for u, v in cert["uncrossed"]}
    need(len(hset) == len(cert["uncrossed"]), "duplicate uncrossed edge")
    need(hset <= edge_set, "uncrossed edge outside the graph")
    rotation = [list(c) for c in cert["rotation"]]
    need(len(rotation) == n, "rotation needs one cyclic order per vertex")
    nbrs = [[] for _ in range(n)]
    for u, v in hset:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v, cyc in enumerate(rotation):
        need(sorted(cyc) == sorted(nbrs[v]), f"rotation at {v} is not over its uncrossed neighbours")
    need(connected_spanning(n, hset), "uncrossed part is not connected and spanning")
    faces = trace_faces(n, rotation) if hset else [frozenset(range(n))]
    need(n - len(hset) + len(faces) == 2, f"genus > 0: n={n} |H|={len(hset)} f={len(faces)}")
    crossed = {_key(u, v) for u, v in edge_set - hset}
    assignment = cert["assignment"]
    need(set(assignment) == crossed, "assignment keys are not the crossed edges")
    for key, idx in assignment.items():
        need(isinstance(idx, int) and 0 <= idx < len(faces), f"face index {idx} out of range")
        u, v = (int(t) for t in key.split("-"))
        need(u in faces[idx] and v in faces[idx], f"crossed edge {key} not on face {idx}")
    return faces


def _rotation_systems(n: int, hedges):
    adj = [[] for _ in range(n)]
    for u, v in hedges:
        adj[u].append(v)
        adj[v].append(u)
    choices = []
    for a in adj:
        a.sort()
        choices.append([tuple(a)] if len(a) <= 1 else
                       [(a[0],) + p for p in itertools.permutations(a[1:])])
    return itertools.product(*choices)


def feasible_brute(n: int, edges, hedges) -> bool:
    """For connected spanning hedges: some rotation system of (V, hedges)
    has genus 0 and every other edge co-facial.  Every rotation system
    is enumerated."""
    missing = set(edges) - set(hedges)
    for rotation in _rotation_systems(n, hedges):
        faces = trace_faces(n, rotation)
        if n - len(hedges) + len(faces) != 2:
            continue
        if all(any(u in f and v in f for f in faces) for u, v in missing):
            return True
    return False


# --- per-graph facts, computed once per run ---------------------------------

class GraphFacts:
    """Planarity, literature values and the n <= 5 brute force of one graph."""

    K5 = nx.complete_graph(5)
    K33 = nx.complete_bipartite_graph(3, 3)

    def __init__(self, n: int, edges):
        self.n, self.edges, self.m = n, tuple(tuple(e) for e in edges), len(edges)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(self.edges)
        self.planar = nx.check_planarity(g)[0]
        self.known_h = self.known_unc = None
        if nx.is_isomorphic(g, self.K5):
            self.known_h, self.known_unc = 8, 2
        elif nx.is_isomorphic(g, self.K33):
            self.known_h, self.known_unc = 7, 2
        self.h = self.unc = None

    def check_h(self, h: int) -> None:
        need(self.n - 1 <= h <= self.m, f"h={h} outside [n-1, m]")
        need((h == self.m) == self.planar, f"h={h}, m={self.m}, but planar={self.planar}")
        if self.n >= 3:
            need(within_h_upper(h, self.n, self.m), f"h={h} above the paper's upper bound")
        if self.known_h is not None:
            need(h == self.known_h, f"h={h}, literature value {self.known_h}")
        if self.n <= 5:
            for hedges in self.connected_sets(h + 1):
                need(not feasible_brute(self.n, self.edges, hedges),
                     f"an edge set of size h+1={h + 1} is feasible")
        self.h = h

    def connected_sets(self, size: int) -> list:
        """Every connected spanning edge set with `size` edges."""
        return [s for s in itertools.combinations(self.edges, size)
                if connected_spanning(self.n, s)]

    def check_unc(self, unc: int) -> None:
        need((unc == 1) == self.planar, f"unc={unc} but planar={self.planar}")
        if self.h:
            need(unc >= -(-self.m // self.h), f"unc={unc} < ceil(m/h)")
        if self.n >= 3:
            need(unc >= unc_lower(self.n, self.m), f"unc={unc} below the paper's lower bound")
        if self.known_unc is not None:
            need(unc == self.known_unc, f"unc={unc}, literature value {self.known_unc}")
        self.unc = unc


# --- outputs of each subcommand ---------------------------------------------

def check_oracle_h(facts: GraphFacts, stdout: str, file_texts: list[str]) -> None:
    for text in file_texts:
        need(text == stdout, "--out file differs from stdout")
    data = json.loads(stdout)
    need(data["kind"] == "max-uncrossed-subgraph", "kind")
    need((data["n"], data["m"]) == (facts.n, facts.m), "n, m")
    need([tuple(e) for e in data["edges"]] == list(facts.edges), "edge list")
    witness = data["witness"]
    check_certificate(facts.n, facts.edges, witness)
    need(data["value"] == len(witness["uncrossed"]), "value != witness size")
    facts.check_h(data["value"])


def check_oracle_unc(facts: GraphFacts, stdout: str) -> None:
    data = json.loads(stdout)
    need(data["kind"] == "uncrossed-number", "kind")
    need((data["n"], data["m"]) == (facts.n, facts.m), "n, m")
    need([tuple(e) for e in data["edges"]] == list(facts.edges), "edge list")
    cover = data["cover"]
    need(data["value"] == len(cover), "value != cover size")
    covered = set()
    for cert in cover:
        check_certificate(facts.n, facts.edges, cert)
        covered |= {tuple(e) for e in cert["uncrossed"]}
    need(covered == set(facts.edges), "cover misses an edge")
    facts.check_unc(data["value"])


def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_bounds(facts: GraphFacts, stdout: str) -> None:
    header, rows = _csv(stdout)
    need(header == ["name", "n", "m", "k", "alpha", "value"], "bounds header")
    table = {r[0]: r for r in rows}
    n, m = facts.n, facts.m
    for r in rows:
        need((int(r[1]), int(r[2])) == (n, m), "bounds row n, m")
    for name in ("unc_lower_quadratic", "unc_lower", "h_upper", "best_combined_bound"):
        need(name in table, f"missing row {name}")
    if n < 3:
        need(table["unc_lower"][5] == "" and table["h_upper"][5] == "", "n < 3 rows not empty")
        return
    need(int(table["unc_lower"][5]) == unc_lower(n, m), "unc_lower column")
    quad = unc_lower_quadratic(n, m)
    need(table["unc_lower_quadratic"][5] == ("" if quad is None else str(quad)),
         "unc_lower_quadratic column")
    close(table["h_upper"][5], h_upper_float(n, m), "h_upper column")
    if facts.h is not None:
        need(facts.h <= float(table["h_upper"][5]) + 1e-9, "h above the printed h_upper")
        for name in ("exact_h_complete", "exact_h_complete_bipartite"):
            value = table.get(name, [""] * 6)[5]  # empty when the formula is gated off
            if value:
                need(int(value) == facts.h, f"{name} != h")
    if facts.unc is not None:
        need(facts.unc >= int(table["unc_lower"][5]), "unc below the printed unc_lower")


def check_svg(path: Path, circles: int, lines: int, dotted: int) -> None:
    """Parse the SVG as XML, streaming, and count its elements."""
    counts = {"circle": 0, "line": 0, "path": 0}
    root_tag = None
    for event, elem in ET.iterparse(path, events=("start", "end")):
        if event == "start":
            if root_tag is None:
                root_tag = elem.tag
            continue
        tag = elem.tag.removeprefix(SVG_NS)
        if tag in counts:
            counts[tag] += 1
            elem.clear()
    need(root_tag == SVG_NS + "svg", f"root element {root_tag}")
    need(counts == {"circle": circles, "line": lines, "path": dotted},
         f"SVG element counts {counts}, want {circles} circles, {lines} lines, {dotted} paths")


def check_render_cert(facts: GraphFacts, svg_path: Path) -> None:
    check_svg(svg_path, facts.n, facts.h, facts.m - facts.h)


def _density_window(eps: Fraction, n: int, m: int) -> bool:
    return eps <= Fraction(m, n * n) <= eps + Fraction(1, n) + Fraction(1, 2 * n * n)


def _wheel_edges(n: int, x: int) -> int:
    """Edges of the construction with rim x: 3n - 3 + x(x-5)/2."""
    return 3 * n - 3 + x * (x - 5) // 2


def check_construction_numbers(eps: Fraction, n: int, x: int, m: int, m_prime: int) -> None:
    """The paper's two tightness properties, exactly: the density lands in
    [eps, eps + 1/n + 1/(2n^2)] with the smallest rim that reaches eps, and
    the planar part has m' >= 3n - 3 - sqrt(2m) edges, which can be no more
    than the upper bound on h."""
    need(m == _wheel_edges(n, x), "m != 3n - 3 + x(x-5)/2")
    need(m_prime == 3 * n - 3 - x, "m' != 3n - 3 - x")
    need(_density_window(eps, n, m), f"density {Fraction(m, n * n)} outside the window")
    need(x == 3 or _wheel_edges(n, x - 1) < eps * n * n, "rim x is not the smallest reaching eps")
    gap = 3 * n - 3 - m_prime
    need(gap <= 0 or gap * gap <= 2 * m, "m' < 3n - 3 - sqrt(2m)")
    need(within_h_upper(m_prime, n, m), "m' above the upper bound on h")


def check_construct(eps_text: str, n: int, stdout: str, record_text: str,
                    edgelist_text: str, svg_path: Path) -> None:
    eps = Fraction(eps_text)
    rec = json.loads(record_text)
    need(rec["kind"] == "construction", "kind")
    need(rec["epsilon"] == str(eps) and rec["n"] == n, "epsilon, n")
    x = rec["x"]
    edges = [tuple(e) for e in rec["edges"]]
    need(edges == sorted(set(edges)) and all(0 <= u < v < n for u, v in edges), "edge list")
    cert = rec["certificate"]
    faces = check_certificate(n, edges, cert)
    uncrossed = {tuple(e) for e in cert["uncrossed"]}
    crossed = [tuple(e) for e in rec["crossed"]]
    need(set(crossed) == set(edges) - uncrossed and len(crossed) == x * (x - 3) // 2,
         "crossed edges")
    m, m_prime = len(edges), len(uncrossed)
    check_construction_numbers(eps, n, x, m, m_prime)
    stats = rec["stats"]
    need((stats["m"], stats["m_prime"], stats["f"]) == (m, m_prime, len(faces)), "stats")
    need(stats["t"] == len(faces) - 1 == 2 * n - 2 - x, "triangle count")
    need(Fraction(stats["density"]) == Fraction(m, n * n), "stats density")
    need(len(rec["coordinates"]) == n and all(
        math.isfinite(c) for p in rec["coordinates"] for c in p), "coordinates")
    expected = f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    need(edgelist_text == expected, "graph.edgelist")
    need(stdout == f"n={n} x={x} m={m} m_prime={m_prime} t={stats['t']} "
         f"density={Fraction(m, n * n)}\n", "construct stdout")
    check_svg(svg_path, n, m_prime, len(crossed))


def check_verify_tightness(stdout: str, epsilons, ns) -> None:
    header, rows = _csv(stdout)
    need(header == ["n", "epsilon", "x", "m", "m_prime", "lower", "upper", "gap",
                    "gap_witness", "slack_limit"], "verify-tightness header")
    want = [(Fraction(e), n) for e in sorted(epsilons, key=Fraction) for n in sorted(ns)]
    need([(Fraction(r[1]), int(r[0])) for r in rows] == want, "verify-tightness rows")
    for r in rows:
        n, eps, x, m, m_prime = int(r[0]), Fraction(r[1]), int(r[2]), int(r[3]), int(r[4])
        check_construction_numbers(eps, n, x, m, m_prime)
        lower = 3 * n - 3 - math.sqrt(2 * m)
        upper = h_upper_float(n, m)
        close(r[5], lower, "lower")
        close(r[6], upper, "upper")
        close(r[7], upper - lower, "gap")
        close(r[8], upper - m_prime, "gap_witness")
        close(r[9], math.sqrt(6 * (n - 2)) - 3, "slack_limit")


def check_compare_bounds(stdout: str, ns, epsilons) -> None:
    header, rows = _csv(stdout)
    need(header == ["n", "epsilon", "m", "unc_lower_quadratic", "unc_lower", "best_combined",
                    "best_k", "exact_unc_complete", "dense_ratio"], "compare-bounds header")
    want = []
    for n in sorted(ns):
        complete_m = n * (n - 1) // 2
        want += [(n, Fraction(e), min(math.floor(Fraction(e) * n * n), complete_m))
                 for e in sorted(epsilons, key=Fraction)]
        want.append((n, Fraction(n - 1, 2 * n), complete_m))
    need([(int(r[0]), Fraction(r[1]), int(r[2])) for r in rows] == want, "compare-bounds rows")
    for r in rows:
        n, eps, m = int(r[0]), Fraction(r[1]), int(r[2])
        quad = unc_lower_quadratic(n, m)
        need(r[3] == ("" if quad is None else str(quad)), "unc_lower_quadratic column")
        need(int(r[4]) == unc_lower(n, m), "unc_lower column")
        need(3 <= int(r[6]) and float(r[5]) <= 3 * n - 6 + 1e-9, "best_combined column")
        complete = m == n * (n - 1) // 2 and n > 7
        need(r[7] == (str(-(-(n - 1) // 4)) if complete else ""), "exact_unc_complete column")
        dense = float(eps) * n / (3 - math.sqrt(2 * float(eps)))
        close(r[8], int(r[4]) / dense, "dense_ratio column")


# --- self-test --------------------------------------------------------------

def self_test() -> None:
    """The checker accepts a valid certificate and rejects three corrupted
    ones: a dangling face index, a crossed edge moved to a face that does
    not touch it, and a rotation of genus 1."""
    # the wheel W_5 (hub 0, rim 1..4) drawn planar, chord 1-3 crossed
    n = 5
    rotation = [[4, 3, 2, 1], [4, 0, 2], [1, 0, 3], [2, 0, 4], [3, 0, 1]]
    uncrossed = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 4], [2, 3], [3, 4]]
    edges = sorted([tuple(e) for e in uncrossed] + [(1, 3)])
    faces = trace_faces(n, rotation)
    outer = [i for i, f in enumerate(faces) if 0 not in f]
    assert len(faces) == 5 and len(outer) == 1, faces
    valid = {"n": n, "uncrossed": uncrossed, "rotation": rotation,
             "assignment": {"1-3": outer[0]}}
    check_certificate(n, edges, valid)

    untouched = next(i for i, f in enumerate(faces) if not {1, 3} <= f)
    twisted = [[4, 2, 3, 1]] + rotation[1:]
    assert len(trace_faces(n, twisted)) < len(faces)  # genus 1
    corrupt = {
        "dangling face index": {"assignment": {"1-3": len(faces)}},
        "crossed edge on a face it does not touch": {"assignment": {"1-3": untouched}},
        "rotation of genus 1": {"rotation": twisted},
    }
    for what, change in corrupt.items():
        try:
            check_certificate(n, edges, dict(valid, **change))
        except CheckError:
            continue
        raise AssertionError(f"checker accepted a certificate with a {what}")
    assert not within_h_upper(9, 5, 10) and within_h_upper(8, 5, 10)
    assert unc_lower(5, 10) == 2 and unc_lower(8, 28) == 2
