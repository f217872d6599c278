import dataclasses
import io
import json
import math
import random
import subprocess
import sys

import pytest

from uncrossed.construction import build_construction
from uncrossed.embedding import trace_faces
from uncrossed.graphs import make_complete
from uncrossed.oracle import feasible
from uncrossed.render import barycentric_layout, render_json, render_record


def _svg(render, *args) -> str:
    out = io.StringIO()
    render(*args, out)
    return out.getvalue()


def test_barycentric_k4():
    k4 = make_complete(4)
    cert = feasible(k4, k4.edges)
    coords = barycentric_layout(cert, trace_faces(cert.rotation))
    # three outer vertices on the unit circle, the fourth strictly inside
    radii = sorted(math.hypot(x, y) for x, y in coords)
    assert radii[3] == pytest.approx(1.0)
    assert radii[0] < 0.9


def test_render_record_shape():
    rec = build_construction(5, 11)  # mirrors the small illustrative drawing
    svg = _svg(render_record, rec)
    assert svg.count("stroke-dasharray") == 5 * 2 // 2  # x(x-3)/2 dotted chords
    assert svg.count("<circle") == 11
    assert _svg(render_record, rec) == svg  # byte-determinism


def _reference_record_svg(rec) -> str:
    # the drawing formatted item by item: one f-string per line, each
    # coordinate through _fmt, and the control point of each chord pushed
    # 2.2 rim radii out from the chord's midpoint
    def fmt(value):
        out = f"{value:.4f}"
        return "0.0000" if out == "-0.0000" else out

    def control(p1, p2):
        mx, my = (p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2
        norm = math.hypot(mx, my)
        if norm < 1e-9:
            dx, dy = p2[0] - p1[0], p2[1] - p1[1]
            dn = math.hypot(dx, dy) or 1.0
            mx, my = -dy / dn, dx / dn
            norm = 1.0
        scale = 2.2 * 1.0 / norm
        return mx * scale, my * scale

    pts = [(fmt(x), fmt(y)) for x, y in rec.coordinates]
    lines = []
    for u, v in rec.certificate.uncrossed:
        lines.append(f'<line x1="{pts[u][0]}" y1="{pts[u][1]}" x2="{pts[v][0]}" y2="{pts[v][1]}" '
                     'stroke="black" stroke-width="0.02"/>')
    for u, v in rec.crossed_edges:
        cx, cy = control(rec.coordinates[u], rec.coordinates[v])
        lines.append(f'<path d="M {pts[u][0]} {pts[u][1]} Q {fmt(cx)} {fmt(cy)} {pts[v][0]} {pts[v][1]}" '
                     'fill="none" stroke="black" stroke-width="0.02" stroke-dasharray="0.05,0.05"/>')
    for x, y in pts:
        lines.append(f'<circle cx="{x}" cy="{y}" r="0.05" fill="white" stroke="black" stroke-width="0.02"/>')
    return ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'viewBox="-2.5000 -2.5000 5.0000 5.0000">\n' + "\n".join(lines) + "\n</svg>\n")


def test_render_record_matches_item_by_item_reference():
    # chord (1, 3) has a control point whose y reads -0.0000 at .4f, and
    # (2, 4) is a diameter, whose control point lies on its perpendicular
    # at x = -0.0; both are written 0.0000
    rec = build_construction(5, 6)
    coords = ((0.0, 0.0), (-1.0, 1e-5), (1.0, 0.0), (-1.0, -1.2e-5), (-1.0, 0.0), (-1e-5, -0.5))
    rec = dataclasses.replace(rec, coordinates=coords)
    assert (1, 3) in rec.crossed_edges and (2, 4) in rec.crossed_edges
    svg = _svg(render_record, rec)
    assert svg == _reference_record_svg(rec)
    assert "Q -2.2000 0.0000 " in svg and "Q 0.0000 -2.2000 " in svg and "-0.0000" not in svg
    # and on the unit-circle layout of a larger record, across SLICE lines
    big = build_construction(100, 120)
    assert _svg(render_record, big) == _reference_record_svg(big)


def test_render_shuffled_record_draws_ascending():
    # a record whose "crossed" and certificate assignment come in any order
    # draws its chords in ascending edge order all the same: the
    # certificate's reader sorts the assignment once, and the drawing
    # takes its order as it stands
    rec = build_construction(14, 20)
    data = json.loads(json.dumps(rec.to_json_dict()))
    rng = random.Random(5)
    rng.shuffle(data["crossed"])
    pairs = list(data["certificate"]["assignment"].items())
    rng.shuffle(pairs)
    data["certificate"]["assignment"] = dict(pairs)
    assert _svg(render_json, data) == _svg(render_record, rec)


def test_render_cover_panels():
    from uncrossed.oracle import exact_unc

    k5 = make_complete(5)
    value, cover = exact_unc(k5)
    payload = {"cover": [c.to_json_dict() for c in cover]}
    svg = _svg(render_json, payload)
    assert svg.count("<circle") == 5 * value  # one panel per drawing


def test_render_json_requires_drawing():
    with pytest.raises(ValueError):
        _svg(render_json, {"kind": "mystery"})


def test_render_rejects_disconnected_certificate():
    # vertex 3 has no uncrossed edge, so the layout system is singular
    payload = {"n": 4, "uncrossed": [[0, 1], [0, 2], [1, 2]],
               "rotation": [[1, 2], [0, 2], [0, 1], []], "assignment": {}}
    with pytest.raises(ValueError):
        _svg(render_json, payload)


def test_render_imports_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, uncrossed.cli, uncrossed.render; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
