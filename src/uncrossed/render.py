"""Deterministic SVG export of drawings.

Uncrossed edges are solid segments; crossed edges are dotted arcs.  For
construction records the stored coordinates are used and chords arc
outside the rim circle; for certificates a barycentric (Tutte-style)
layout is computed with the lexicographically smallest face pinned as
the convex outer face.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .construction import ConstructionRecord
from .embedding import trace_faces
from .errors import ConstructionIntegrityError, MalformedCertificateError
from .graphs import Graph, connected_spanning
from .oracle import SubdrawingCertificate, verify_certificate


def _fmt(value: float) -> str:
    out = f"{value:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _solve(a: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact Gauss-Jordan elimination of a x = rhs, one rhs column per axis.

    a is a graph Laplacian with the pinned rows and columns removed, which
    is positive definite when every free vertex has a path to a pinned one.
    So no pivot is zero unless a is singular, and no row swaps are needed.
    """
    k = len(a)
    rows = [a[i] + rhs[i] for i in range(k)]
    for c in range(k):
        pivot = rows[c][c]
        if pivot == 0:
            raise ValueError("the uncrossed edges do not connect the drawing")
        rows[c] = [x / pivot for x in rows[c]]
        for r in range(k):
            factor = rows[r][c]
            if r != c and factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    return [row[k:] for row in rows]


def barycentric_layout(cert: SubdrawingCertificate) -> list[tuple[float, float]]:
    """Pin the first traced face on a circle, average the rest into place."""
    rotation = cert.rotation
    n = rotation.graph.n
    if rotation.graph.m == 0:  # no faces to trace: a lone vertex sits at the centre
        return [(0.0, 0.0)] * n
    faces = trace_faces(rotation)
    outer_walk = faces.faces[0].walk
    outer: list[int] = []
    for u, _ in outer_walk:
        if u not in outer:
            outer.append(u)
    coords = [(0.0, 0.0)] * n
    for i, v in enumerate(outer):
        angle = 2 * math.pi * i / len(outer) + math.pi / 2
        coords[v] = (math.cos(angle), math.sin(angle))
    interior = [v for v in range(n) if v not in outer]
    if interior:
        adj = rotation.graph.adjacency()
        index = {v: i for i, v in enumerate(interior)}
        a = [[Fraction(0)] * len(interior) for _ in interior]
        rhs = [[Fraction(0), Fraction(0)] for _ in interior]
        for v in interior:
            i = index[v]
            a[i][i] = Fraction(len(adj[v]))
            for w in adj[v]:
                if w in index:
                    a[i][index[w]] -= 1
                else:
                    rhs[i][0] += Fraction(coords[w][0])
                    rhs[i][1] += Fraction(coords[w][1])
        for v, (x, y) in zip(interior, _solve(a, rhs)):
            coords[v] = (float(x), float(y))
    return coords


def _svg_document(body: list[str], xmin, ymin, width, height) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head] + body + ["</svg>"]) + "\n"


def _edge_lines(coords, solid_edges, dotted) -> list[str]:
    body = []
    for u, v in solid_edges:
        (x1, y1), (x2, y2) = coords[u], coords[v]
        body.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            'stroke="black" stroke-width="0.02"/>'
        )
    for (u, v), (cx, cy) in dotted:
        (x1, y1), (x2, y2) = coords[u], coords[v]
        body.append(
            f'<path d="M {_fmt(x1)} {_fmt(y1)} Q {_fmt(cx)} {_fmt(cy)} {_fmt(x2)} {_fmt(y2)}" '
            'fill="none" stroke="black" stroke-width="0.02" stroke-dasharray="0.05,0.05"/>'
        )
    return body


def _vertex_dots(coords) -> list[str]:
    return [
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="0.05" fill="white" '
        'stroke="black" stroke-width="0.02"/>'
        for x, y in coords
    ]


def _outward_control(p1, p2, radius: float) -> tuple[float, float]:
    """Control point pushing the chord's arc outside a circle of the
    given radius around the origin."""
    mx, my = (p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2
    norm = math.hypot(mx, my)
    if norm < 1e-9:  # diameter chord: bulge perpendicular to it
        dx, dy = p2[0] - p1[0], p2[1] - p1[1]
        dn = math.hypot(dx, dy)
        mx, my = -dy / dn, dx / dn
        norm = 1.0
    scale = 2.2 * radius / norm
    return (mx * scale, my * scale)


def render_record(rec: ConstructionRecord) -> str:
    coords = rec.coordinates
    dotted = [(e, _outward_control(coords[e[0]], coords[e[1]], 1.0)) for e in rec.crossed_edges]
    body = _edge_lines(coords, rec.certificate.uncrossed, dotted)
    body += _vertex_dots(coords)
    return _svg_document(body, -2.5, -2.5, 5.0, 5.0)


def render_certificate(cert: SubdrawingCertificate, offset: float = 0.0) -> list[str]:
    coords = [(x + offset, y) for x, y in barycentric_layout(cert)]
    dotted = []
    for u, v in sorted(cert.face_assignment):
        (x1, y1), (x2, y2) = coords[u], coords[v]
        dx, dy = x2 - x1, y2 - y1
        dn = math.hypot(dx, dy) or 1.0
        cx = (x1 + x2) / 2 - 0.35 * dy / dn
        cy = (y1 + y2) / 2 + 0.35 * dx / dn
        dotted.append(((u, v), (cx, cy)))
    return _edge_lines(coords, cert.uncrossed, dotted) + _vertex_dots(coords)


def _graph_from_certificate_json(data: dict) -> Graph:
    try:
        edges = {tuple(sorted(e)) for e in data["uncrossed"]}
        for key in data.get("assignment", {}):
            u, v = (int(t) for t in key.split("-"))
            edges.add((min(u, v), max(u, v)))
        return Graph(data["n"], tuple(sorted(edges)))
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise MalformedCertificateError(f"bad certificate JSON: {exc}") from exc


def _verified_certificate(data: dict) -> SubdrawingCertificate:
    """Parse and re-verify one certificate before it is drawn.

    Structural garbage raises MalformedCertificateError.  An uncrossed part
    that leaves a vertex unconnected has no barycentric layout, so it is
    rejected as a precondition failure (ValueError), as the layout itself
    would; any other invalid witness raises ConstructionIntegrityError.
    """
    cert = SubdrawingCertificate.from_json_dict(data, _graph_from_certificate_json(data))
    if not connected_spanning(cert.graph.n, cert.uncrossed):
        raise ValueError("the uncrossed edges do not connect the drawing")
    if not verify_certificate(cert):
        raise ConstructionIntegrityError("certificate failed verification")
    return cert


def render_json(data: dict) -> str:
    """Dispatch on the JSON shape produced by the CLI subcommands.

    Construction records are drawn as stored; every drawing certificate is
    verified first.
    """
    if data.get("kind") == "construction":
        return render_record(ConstructionRecord.from_json_dict(data))
    certs = []
    if "witness" in data:
        certs = [_verified_certificate(data["witness"])]
    elif "cover" in data:
        certs = [_verified_certificate(c) for c in data["cover"]]
    elif "uncrossed" in data:
        certs = [_verified_certificate(data)]
    if not certs:
        raise ValueError("input has neither coordinates nor a drawing certificate")
    body = []
    for i, cert in enumerate(certs):
        body += render_certificate(cert, offset=2.6 * i)
    width = 2.6 * len(certs)
    return _svg_document(body, -1.3, -1.3, width, 2.6)
