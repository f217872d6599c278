"""Deterministic SVG export of drawings.

Uncrossed edges are solid segments; crossed edges are dotted arcs.  For
construction records the stored coordinates are used and chords arc
outside the rim circle; for certificates a barycentric (Tutte-style)
layout is computed with the lexicographically smallest face pinned as
the convex outer face.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .construction import ConstructionRecord
from .embedding import trace_faces
from .errors import ConstructionIntegrityError, MalformedCertificateError
from .graphs import connected_spanning, write_lines
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
    outer: list[int] = []
    for u, _ in trace_faces(rotation)[0].walk:
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


def _write_svg(out, body, xmin, ymin, width, height) -> None:
    """Write the SVG document holding the body lines to the text stream out."""
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(width)} {_fmt(height)}">\n'
    )
    write_lines(out, body)
    out.write("</svg>\n")


def _drawing_lines(coords, solid_edges, dotted):
    """Solid segments, dotted arcs through their control points, then the
    vertex dots; each vertex's coordinates are formatted once."""
    pts = [(_fmt(x), _fmt(y)) for x, y in coords]
    for u, v in solid_edges:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        yield (
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="black" stroke-width="0.02"/>'
        )
    for (u, v), (cx, cy) in dotted:
        (x1, y1), (x2, y2) = pts[u], pts[v]
        yield (
            f'<path d="M {x1} {y1} Q {_fmt(cx)} {_fmt(cy)} {x2} {y2}" '
            'fill="none" stroke="black" stroke-width="0.02" stroke-dasharray="0.05,0.05"/>'
        )
    for x, y in pts:
        yield (
            f'<circle cx="{x}" cy="{y}" r="0.05" fill="white" '
            'stroke="black" stroke-width="0.02"/>'
        )


def _outward_control(p1, p2, radius: float) -> tuple[float, float]:
    """Control point pushing the chord's arc outside a circle of the
    given radius around the origin."""
    mx, my = (p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2
    norm = math.hypot(mx, my)
    if norm < 1e-9:  # diameter chord: bulge perpendicular to it
        dx, dy = p2[0] - p1[0], p2[1] - p1[1]
        dn = math.hypot(dx, dy) or 1.0  # coincident endpoints: any point will do
        mx, my = -dy / dn, dx / dn
        norm = 1.0
    scale = 2.2 * radius / norm
    return (mx * scale, my * scale)


def render_record(rec: ConstructionRecord, out) -> None:
    """Write the record's drawing, as stored, to the text stream out."""
    coords = rec.coordinates
    dotted = ((e, _outward_control(coords[e[0]], coords[e[1]], 1.0)) for e in rec.crossed_edges)
    _write_svg(out, _drawing_lines(coords, rec.certificate.uncrossed, dotted), -2.5, -2.5, 5.0, 5.0)


def render_certificate(cert: SubdrawingCertificate, offset: float = 0.0):
    """The SVG lines of one certificate's panel; the layout is computed
    before this returns, and the lines are formatted as they are read."""
    coords = [(x + offset, y) for x, y in barycentric_layout(cert)]
    dotted = []
    for u, v in sorted(cert.face_assignment):
        (x1, y1), (x2, y2) = coords[u], coords[v]
        dx, dy = x2 - x1, y2 - y1
        dn = math.hypot(dx, dy) or 1.0
        cx = (x1 + x2) / 2 - 0.35 * dy / dn
        cy = (y1 + y2) / 2 + 0.35 * dx / dn
        dotted.append(((u, v), (cx, cy)))
    return _drawing_lines(coords, cert.uncrossed, dotted)


def _verified_certificate(data: dict) -> SubdrawingCertificate:
    """Parse and re-verify one certificate before it is drawn.

    Structural garbage raises MalformedCertificateError.  An uncrossed part
    that leaves a vertex unconnected has no barycentric layout, so it is
    rejected as a precondition failure (ValueError), as the layout itself
    would; any other invalid witness raises ConstructionIntegrityError.
    """
    cert = SubdrawingCertificate.from_json_dict(data)
    if not connected_spanning(cert.graph.n, cert.uncrossed):
        raise ValueError("the uncrossed edges do not connect the drawing")
    if not verify_certificate(cert):
        raise ConstructionIntegrityError("certificate failed verification")
    return cert


def render_json(data, out) -> None:
    """Dispatch on the JSON shape produced by the CLI subcommands and write
    the drawing to the text stream out.

    Construction records are drawn as stored; every drawing certificate is
    verified first.  Input that is not an object, a cover that is not a
    list, and a broken record or certificate raise MalformedCertificateError.
    Every check and layout is done before the first write.
    """
    if not isinstance(data, dict):
        raise MalformedCertificateError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("kind") == "construction":
        render_record(ConstructionRecord.from_json_dict(data), out)
        return
    certs = []
    if "witness" in data:
        certs = [_verified_certificate(data["witness"])]
    elif "cover" in data:
        if not isinstance(data["cover"], list):
            raise MalformedCertificateError('"cover" is not a list of certificates')
        certs = [_verified_certificate(c) for c in data["cover"]]
    elif "uncrossed" in data:
        certs = [_verified_certificate(data)]
    if not certs:
        raise ValueError("input has neither coordinates nor a drawing certificate")
    panels = [render_certificate(cert, offset=2.6 * i) for i, cert in enumerate(certs)]
    _write_svg(out, itertools.chain.from_iterable(panels), -1.3, -1.3, 2.6 * len(certs), 2.6)
