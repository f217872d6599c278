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
from .errors import ConstructionIntegrityError, MalformedCertificateError
from .graphs import SLICE, connected_spanning
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


def barycentric_layout(cert: SubdrawingCertificate, faces) -> list[tuple[float, float]]:
    """Pin the first of faces, the rotation's trace, on a circle, and
    average the rest into place."""
    rotation = cert.rotation
    n = rotation.graph.n
    if rotation.graph.m == 0:  # no faces to trace: a lone vertex sits at the centre
        return [(0.0, 0.0)] * n
    outer: list[int] = []
    for u, _ in faces[0].walk:
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


def _write_svg(out, chunks, xmin, ymin, width, height) -> None:
    """Write the SVG document holding the body text chunks to the text
    stream out."""
    out.write(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(width)} {_fmt(height)}">\n'
    )
    for chunk in chunks:
        out.write(chunk)
    out.write("</svg>\n")


def _drawing_lines(coords, solid_edges, dotted_edges, arcs):
    """Solid segments, dotted arcs, then the vertex dots, as text of at
    most SLICE lines a piece.

    Each vertex's coordinates are formatted once, into the text of a line
    or an arc before and after them.  arcs(block, heads, tails) lists the
    arc of each dotted edge (u, v) of a block as heads[u], its control
    point formatted .4f, and tails[v].  A .4f field that reads -0.0000
    (negative zero or a tiny negative value) is written 0.0000, as _fmt
    does.
    """
    pts = [(_fmt(x), _fmt(y)) for x, y in coords]
    heads = [f'<line x1="{x}" y1="{y}" x2="' for x, y in pts]
    tails = [f'{x}" y2="{y}" stroke="black" stroke-width="0.02"/>\n' for x, y in pts]
    for i in range(0, len(solid_edges), SLICE):
        yield "".join([heads[u] + tails[v] for u, v in solid_edges[i:i + SLICE]])
    heads = [f'<path d="M {x} {y} Q ' for x, y in pts]
    tails = [
        f'{x} {y}" fill="none" stroke="black" stroke-width="0.02" stroke-dasharray="0.05,0.05"/>\n'
        for x, y in pts
    ]
    for i in range(0, len(dotted_edges), SLICE):
        yield "".join(arcs(dotted_edges[i:i + SLICE], heads, tails)).replace("-0.0000", "0.0000")
    for i in range(0, len(pts), SLICE):
        yield "".join([
            f'<circle cx="{x}" cy="{y}" r="0.05" fill="white" stroke="black" stroke-width="0.02"/>\n'
            for x, y in pts[i:i + SLICE]
        ])


def render_record(rec: ConstructionRecord, out) -> None:
    """Write the record's drawing, as stored, to the text stream out; each
    chord's arc bulges outside the unit rim circle."""
    coords = rec.coordinates
    hypot = math.hypot

    def arcs(block, heads, tails):
        lines = []
        for u, v in block:
            (x1, y1), (x2, y2) = coords[u], coords[v]
            mx, my = (x1 + x2) / 2, (y1 + y2) / 2
            norm = hypot(mx, my)
            if norm < 1e-9:  # diameter chord: bulge perpendicular to it
                dx, dy = x2 - x1, y2 - y1
                dn = hypot(dx, dy) or 1.0  # coincident endpoints: any point will do
                mx, my = -dy / dn, dx / dn
                norm = 1.0
            scale = 2.2 / norm  # 2.2 rim radii out
            lines.append(f"{heads[u]}{mx * scale:.4f} {my * scale:.4f} {tails[v]}")
        return lines

    body = _drawing_lines(coords, rec.certificate.uncrossed, rec.crossed_edges, arcs)
    _write_svg(out, body, -2.5, -2.5, 5.0, 5.0)


def render_certificate(cert: SubdrawingCertificate, faces, offset: float = 0.0):
    """The SVG text of one certificate's panel, laid out on faces, its
    rotation's trace; the layout is computed before this returns, and the
    text is formatted as it is read."""
    coords = [(x + offset, y) for x, y in barycentric_layout(cert, faces)]
    hypot = math.hypot

    def arcs(block, heads, tails):
        lines = []
        for u, v in block:
            (x1, y1), (x2, y2) = coords[u], coords[v]
            dx, dy = x2 - x1, y2 - y1
            dn = hypot(dx, dy) or 1.0
            cx = (x1 + x2) / 2 - 0.35 * dy / dn
            cy = (y1 + y2) / 2 + 0.35 * dx / dn
            lines.append(f"{heads[u]}{cx:.4f} {cy:.4f} {tails[v]}")
        return lines

    return _drawing_lines(coords, cert.uncrossed, sorted(cert.face_assignment), arcs)


def _verified(cert: SubdrawingCertificate):
    """Re-verify one parsed certificate before it is drawn; return it with
    the faces that the verification traced.

    Structural garbage raises MalformedCertificateError.  An uncrossed part
    that leaves a vertex unconnected has no barycentric layout, so it is
    rejected as a precondition failure (ValueError), as the layout itself
    would; any other invalid witness raises ConstructionIntegrityError.
    """
    if not connected_spanning(cert.graph.n, cert.uncrossed):
        raise ValueError("the uncrossed edges do not connect the drawing")
    faces = []
    if not verify_certificate(cert, faces):
        raise ConstructionIntegrityError("certificate failed verification")
    return cert, faces


def render_json(data, out) -> None:
    """Dispatch on the JSON shape produced by the CLI subcommands and write
    the drawing to the text stream out.

    Construction records are drawn as stored; every drawing certificate,
    a record's too, is verified first, and a record's face count must be
    its certificate's.  Input that is not an object, a
    cover that is not a list, and a broken record or certificate raise
    MalformedCertificateError.  Every check and layout is done before the
    first write.
    """
    if not isinstance(data, dict):
        raise MalformedCertificateError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("kind") == "construction":
        rec = ConstructionRecord.from_json_dict(data)
        _, faces = _verified(rec.certificate)
        if rec.stats.f != len(faces):
            raise MalformedCertificateError(
                f"stats f = {rec.stats.f}, but the certificate has {len(faces)} faces"
            )
        render_record(rec, out)
        return
    parts = []
    if "witness" in data:
        parts = [data["witness"]]
    elif "cover" in data:
        if not isinstance(data["cover"], list):
            raise MalformedCertificateError('"cover" is not a list of certificates')
        parts = data["cover"]
    elif "uncrossed" in data:
        parts = [data]
    certs = [_verified(SubdrawingCertificate.from_json_dict(c)) for c in parts]
    if not certs:
        raise ValueError("input has neither coordinates nor a drawing certificate")
    panels = [
        render_certificate(cert, faces, offset=2.6 * i) for i, (cert, faces) in enumerate(certs)
    ]
    _write_svg(out, itertools.chain.from_iterable(panels), -1.3, -1.3, 2.6 * len(certs), 2.6)
