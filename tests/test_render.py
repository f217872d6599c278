import math
import subprocess
import sys

import pytest

from uncrossed.construction import build_construction
from uncrossed.graphs import make_complete
from uncrossed.oracle import feasible
from uncrossed.render import barycentric_layout, render_json, render_record


def test_barycentric_k4():
    k4 = make_complete(4)
    cert = feasible(k4, k4.edges)
    coords = barycentric_layout(cert)
    # three outer vertices on the unit circle, the fourth strictly inside
    radii = sorted(math.hypot(x, y) for x, y in coords)
    assert radii[3] == pytest.approx(1.0)
    assert radii[0] < 0.9


def test_render_record_shape():
    rec = build_construction(5, 11)  # mirrors the small illustrative drawing
    svg = render_record(rec)
    assert svg.count("stroke-dasharray") == 5 * 2 // 2  # x(x-3)/2 dotted chords
    assert svg.count("<circle") == 11
    assert render_record(rec) == svg  # byte-determinism


def test_render_cover_panels():
    from uncrossed.oracle import exact_unc

    k5 = make_complete(5)
    value, cover = exact_unc(k5)
    payload = {"cover": [c.to_json_dict() for c in cover]}
    svg = render_json(payload)
    assert svg.count("<circle") == 5 * value  # one panel per drawing


def test_render_json_requires_drawing():
    with pytest.raises(ValueError):
        render_json({"kind": "mystery"})


def test_render_rejects_disconnected_certificate():
    # vertex 3 has no uncrossed edge, so the layout system is singular
    payload = {"n": 4, "uncrossed": [[0, 1], [0, 2], [1, 2]],
               "rotation": [[1, 2], [0, 2], [0, 1], []], "assignment": {}}
    with pytest.raises(ValueError):
        render_json(payload)


def test_render_imports_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, uncrossed.cli, uncrossed.render; print('numpy' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
