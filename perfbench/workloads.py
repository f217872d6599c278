"""Inputs and operation lists of the three workloads.

Everything here is a pure function of the seed.  The seed draws one
vertex permutation per graph (and, for construct-sweep, the order of
the construct calls); the program only ever sees the relabelled
edge-list files written here.

An operation is a dict:

    id     stable name, equal in every pass of a run
    argv   CLI arguments; "{pass}" stands for the pass's output directory
    files  output files the call writes (same placeholder)
    kind   which checker function reads the outputs
    ...    what that checker needs (graph id, epsilon, n)
"""

from __future__ import annotations

import random
from pathlib import Path

import networkx as nx

WORKLOADS = ("oracle-dense", "corpus-sandwich", "construct-sweep")

# The default `verify-tightness` epsilon grid, each paired with one n.
# n = 1000 at the smallest epsilon stacks the most vertices (455), which is
# where the quadratic host-triangle selection shows; the denser targets use a
# few hundred vertices so one pass stays near 7 s (output size grows as eps n^2).
CONSTRUCT_GRID = (
    ("3/20", 1000),
    ("1/5", 500),
    ("1/4", 400),
    ("3/10", 350),
    ("7/20", 300),
    ("2/5", 250),
    ("9/20", 200),
)
VERIFY_EPSILONS = tuple(eps for eps, _ in CONSTRUCT_GRID)  # the CLI default
VERIFY_NS = (20, 40, 80)  # the CLI default
COMPARE_NS = (1000, 10000)  # the CLI default
COMPARE_EPSILONS = ("1/10", "1/5", "3/10", "2/5")  # the CLI default


def _atlas_connected() -> list[nx.Graph]:
    """The 143 connected graphs on 1..6 vertices, in atlas order."""
    return [
        g
        for g in nx.graph_atlas_g()
        if 1 <= g.number_of_nodes() <= 6 and nx.is_connected(g)
    ]


def corpus_graphs() -> list[nx.Graph]:
    """The 134 atlas graphs with at most 11 edges."""
    return [g for g in _atlas_connected() if g.number_of_edges() <= 11]


def dense_graphs() -> list[nx.Graph]:
    """The seven 6-vertex graphs with 12 or 13 edges (K_6 - e and K_6,
    with 14 and 15 edges, are left out for run length)."""
    return [g for g in _atlas_connected() if g.number_of_edges() in (12, 13)]


def relabel(g: nx.Graph, rng: random.Random) -> tuple[int, tuple[tuple[int, int], ...]]:
    n = g.number_of_nodes()
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
    return n, tuple(edges)


def write_edge_list(path: Path, n: int, edges) -> None:
    path.write_text(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))


def _probe_ops(graph_dir: Path) -> tuple[list[dict], dict]:
    """Warm-up and probe: every subcommand once on a small input."""
    graphs = {"probe-k5": (5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))}
    write_edge_list(graph_dir / "probe-k5", *graphs["probe-k5"])
    ops = _oracle_ops("probe-k5", graph_dir, render=True)
    ops.append(_bounds_op("probe-k5", graph_dir))
    ops.append(_construct_op("probe", "3/10", 20))
    ops.append(_verify_op(("3/10",), (20,)))
    ops.append(_compare_op((100,), ("3/10",)))
    return ops, graphs


def _oracle_ops(gid: str, graph_dir: Path, render: bool) -> list[dict]:
    src = str(graph_dir / gid)
    if not render:
        return [
            {"id": f"h:{gid}", "kind": "oracle-h", "graph": gid,
             "argv": ["oracle-h", "--in", src], "files": []},
            {"id": f"unc:{gid}", "kind": "oracle-unc", "graph": gid,
             "argv": ["oracle-unc", "--in", src], "files": []},
        ]
    hjson = "{pass}/" + gid + ".h.json"
    svg = "{pass}/" + gid + ".svg"
    return [
        {"id": f"h:{gid}", "kind": "oracle-h", "graph": gid,
         "argv": ["oracle-h", "--in", src, "--out", hjson], "files": [hjson]},
        {"id": f"unc:{gid}", "kind": "oracle-unc", "graph": gid,
         "argv": ["oracle-unc", "--in", src], "files": []},
        {"id": f"render:{gid}", "kind": "render-cert", "graph": gid,
         "argv": ["render", "--in", hjson, "--out", svg], "files": [svg]},
    ]


def _bounds_op(gid: str, graph_dir: Path) -> dict:
    return {"id": f"bounds:{gid}", "kind": "bounds", "graph": gid,
            "argv": ["bounds", "--in", str(graph_dir / gid)], "files": []}


def _construct_op(tag: str, eps: str, n: int) -> dict:
    out = "{pass}/construct-" + tag
    return {"id": f"construct:{eps}@{n}", "kind": "construct", "epsilon": eps, "n": n,
            "argv": ["construct", "--epsilon", eps, "--n", str(n), "--out", out, "--svg"],
            "files": [out + "/record.json", out + "/graph.edgelist", out + "/drawing.svg"]}


def _verify_op(epsilons, ns) -> dict:
    argv = ["verify-tightness"]
    if (tuple(epsilons), tuple(ns)) != (VERIFY_EPSILONS, VERIFY_NS):
        argv += ["--epsilons", ",".join(epsilons), "--ns", ",".join(map(str, ns))]
    return {"id": "verify:" + ",".join(epsilons) + "@" + ",".join(map(str, ns)),
            "kind": "verify-tightness", "epsilons": list(epsilons), "ns": list(ns),
            "argv": argv, "files": []}


def _compare_op(ns, epsilons) -> dict:
    argv = ["compare-bounds"]
    if (tuple(ns), tuple(epsilons)) != (COMPARE_NS, COMPARE_EPSILONS):
        argv += ["--ns", ",".join(map(str, ns)), "--epsilons", ",".join(epsilons)]
    return {"id": "compare:" + ",".join(map(str, ns)) + "@" + ",".join(epsilons),
            "kind": "compare-bounds", "ns": list(ns), "epsilons": list(epsilons),
            "argv": argv, "files": []}


def build(workload: str, seed: int, graph_dir: Path) -> dict:
    """Write the workload's input files under graph_dir and return

    {"graphs": {gid: (n, edges)}, "pass": [op...], "probe": [op...],
     "sweep": [gid...]}

    where "sweep" lists the graphs whose (h+1)-edge sets the traced run
    feeds to `oracle.feasible`.
    """
    rng = random.Random(seed)
    graph_dir.mkdir(parents=True, exist_ok=True)
    probe, graphs = _probe_ops(graph_dir)
    ops: list[dict] = []
    sweep: list[str] = ["probe-k5"]

    if workload in ("oracle-dense", "corpus-sandwich"):
        dense = workload == "oracle-dense"
        source = dense_graphs() if dense else corpus_graphs()
        for i, g in enumerate(source):
            gid = f"g{i:03d}"
            graphs[gid] = relabel(g, rng)
            write_edge_list(graph_dir / gid, *graphs[gid])
            group = _oracle_ops(gid, graph_dir, render=not dense)
            if not dense:
                group.insert(2, _bounds_op(gid, graph_dir))
            ops += group
            sweep.append(gid)
    else:
        grid = list(CONSTRUCT_GRID)
        rng.shuffle(grid)
        ops = [_construct_op(f"{i}", eps, n) for i, (eps, n) in enumerate(grid)]
        ops.append(_verify_op(VERIFY_EPSILONS, VERIFY_NS))
        ops.append(_compare_op(COMPARE_NS, COMPARE_EPSILONS))
    return {"graphs": graphs, "pass": ops, "probe": probe, "sweep": sweep}
