import json
import subprocess
import sys

import pytest

from uncrossed.cli import main
from uncrossed.graphs import (
    make_complete,
    make_complete_bipartite,
    make_wheel,
    serialize_edge_list,
)


@pytest.fixture
def k8_file(tmp_path):
    path = tmp_path / "k8.edgelist"
    path.write_text(serialize_edge_list(make_complete(8)))
    return str(path)


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_bounds_k8(capsys, k8_file):
    code, out = run(capsys, "bounds", "--in", k8_file)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "name,n,m,k,alpha,value"
    table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
    assert table["unc_lower_quadratic"][5] == "2"
    assert table["unc_lower"][5] == "2"
    assert table["h_upper"][5].startswith("16.5166852")
    assert table["exact_h_complete"][5] == "14"


def test_bounds_k33_triangle_free(capsys, tmp_path):
    path = tmp_path / "k33.edgelist"
    path.write_text(serialize_edge_list(make_complete_bipartite(3, 3)))
    code, out = run(capsys, "bounds", "--in", str(path))
    assert code == 0
    table = {row.split(",")[0]: row.split(",") for row in out.strip().split("\n")[1:]}
    assert table["h_upper_triangle_free"][5].startswith("9.04095")
    assert table["exact_h_complete_bipartite"][5] == "7"


def test_bounds_path(capsys, tmp_path):
    path = tmp_path / "p5.edgelist"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    code, out = run(capsys, "bounds", "--in", str(path))
    assert code == 0
    table = {row.split(",")[0]: row.split(",") for row in out.strip().split("\n")[1:]}
    assert table["unc_lower"][5] == "1"
    assert table["unc_lower_quadratic"][5] == "1"
    assert "h_upper" in table


def test_bounds_rejects_disconnected(capsys, tmp_path):
    path = tmp_path / "bad.edgelist"
    path.write_text("4 2\n0 1\n2 3\n")
    assert main(["bounds", "--in", str(path)]) == 2


def test_bounds_rejects_malformed(capsys, tmp_path):
    path = tmp_path / "bad.edgelist"
    path.write_text("3 1\n0 0\n")
    assert main(["bounds", "--in", str(path)]) == 2


def test_construct(capsys, tmp_path):
    out = tmp_path / "rec"
    code, stdout = run(capsys, "construct", "--epsilon", "3/10", "--n", "20",
                       "--out", str(out), "--svg")
    assert code == 0
    assert "x=14" in stdout and "m=120" in stdout and "m_prime=43" in stdout
    record = json.loads((out / "record.json").read_text())
    assert record["x"] == 14 and record["stats"]["m"] == 120
    header = (out / "graph.edgelist").read_text().split("\n")[0]
    assert header == "20 120"
    assert (out / "drawing.svg").read_text().startswith("<svg")


def test_construct_gate(capsys, tmp_path):
    code = main(["construct", "--epsilon", "3/10", "--n", "9", "--out", str(tmp_path / "x")])
    assert code == 2


def test_oracle_h(capsys, tmp_path):
    path = tmp_path / "k5.edgelist"
    path.write_text(serialize_edge_list(make_complete(5)))
    code, out = run(capsys, "oracle-h", "--in", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 8
    assert len(data["witness"]["uncrossed"]) == 8


def test_oracle_h_budget(capsys, tmp_path):
    path = tmp_path / "k5.edgelist"
    path.write_text(serialize_edge_list(make_complete(5)))
    assert main(["oracle-h", "--in", str(path), "--budget", "10"]) == 3
    assert main(["oracle-h", "--in", str(path), "--max-n", "4"]) == 3


def test_oracle_unc(capsys, tmp_path):
    path = tmp_path / "w6.edgelist"
    path.write_text(serialize_edge_list(make_wheel(6)))
    code, out = run(capsys, "oracle-unc", "--in", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 1  # wheels are planar
    assert len(data["cover"]) == 1


def test_verify_tightness_default_sweep(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout = run(capsys, "verify-tightness", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("n,epsilon,x,m,m_prime,lower,upper,gap")
    assert len(lines) == 1 + 7 * 3  # 7 epsilons x 3 ns
    row = next(l for l in lines if l.startswith("20,3/10,"))
    cells = row.split(",")
    assert cells[2] == "14" and cells[3] == "120" and cells[4] == "43"


def test_compare_bounds(capsys, tmp_path):
    out = tmp_path / "cmp.csv"
    code, _ = run(capsys, "compare-bounds", "--ns", "1000,10000",
                  "--epsilons", "3/10", "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().split("\n")
    by_key = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    # n=1000, eps=3/10: the sqrt-form bound beats the quadratic-root one
    row = by_key[("1000", "3/10")]
    assert int(row[4]) > int(row[3])
    # K_n rows carry the exact value and a ratio in [0.98, 1.0]
    krow = by_key[("10000", "9999/20000")]
    assert krow[7] == "2500"
    assert 0.98 <= int(krow[4]) / 2500 <= 1.0


def test_render_record(capsys, tmp_path):
    out = tmp_path / "rec"
    main(["construct", "--epsilon", "3/10", "--n", "20", "--out", str(out)])
    capsys.readouterr()
    svg = tmp_path / "out.svg"
    code = main(["render", "--in", str(out / "record.json"), "--out", str(svg)])
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "stroke-dasharray" in text


def test_render_malformed_certificate_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "n": 3,
        "uncrossed": [[0, 1], [1, 2], [0, 2]],
        "rotation": [[1, 2], [0, 2], [0, 1]],
        "assignment": {"0-1": "not-an-index"},
    }))
    assert main(["render", "--in", str(bad), "--out", str(tmp_path / "x.svg")]) == 4


def test_render_certificate(capsys, tmp_path):
    path = tmp_path / "k4.edgelist"
    path.write_text(serialize_edge_list(make_complete(4)))
    result = tmp_path / "k4.json"
    main(["oracle-h", "--in", str(path), "--out", str(result)])
    capsys.readouterr()
    svg = tmp_path / "k4.svg"
    assert main(["render", "--in", str(result), "--out", str(svg)]) == 0
    assert svg.read_text().count("<line") == 6  # all K_4 edges solid


def test_render_single_vertex(capsys, tmp_path):
    # a lone vertex has no faces to trace; it is drawn as one circle
    path = tmp_path / "g"
    path.write_text("1 0\n")
    result = tmp_path / "r.json"
    assert main(["oracle-h", "--in", str(path), "--out", str(result)]) == 0
    capsys.readouterr()
    svg = tmp_path / "r.svg"
    assert main(["render", "--in", str(result), "--out", str(svg)]) == 0
    text = svg.read_text()
    assert text.count("<circle") == 1 and "<line" not in text


def test_subprocess_round_trip(tmp_path):
    # drive the real interpreter end to end: construct, render, re-verify
    outdir = tmp_path / "rec"
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "uncrossed.cli", "construct",
             "--epsilon", "7/20", "--n", "20", "--out", str(outdir), "--svg"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    assert runs[0] == runs[1]
    proc = subprocess.run(
        [sys.executable, "-m", "uncrossed.cli", "render",
         "--in", str(outdir / "record.json"), "--out", str(tmp_path / "d.svg")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "d.svg").read_text().startswith("<svg")


def _runs_byte_identical(capsys, tmp_path, argv_fn):
    outputs = []
    for tag in ("a", "b"):
        stdout_code = main(argv_fn(tag))
        captured = capsys.readouterr().out
        assert stdout_code == 0
        outputs.append(captured)
    assert outputs[0] == outputs[1]


def test_determinism_all_subcommands(capsys, tmp_path):
    k5 = tmp_path / "k5.edgelist"
    k5.write_text(serialize_edge_list(make_complete(5)))

    _runs_byte_identical(capsys, tmp_path, lambda t: ["bounds", "--in", str(k5)])
    _runs_byte_identical(
        capsys, tmp_path,
        lambda t: ["construct", "--epsilon", "3/10", "--n", "20", "--out",
                   str(tmp_path / f"c{t}"), "--svg"])
    for name in ("record.json", "graph.edgelist", "drawing.svg"):
        assert (tmp_path / "ca" / name).read_bytes() == (tmp_path / "cb" / name).read_bytes()

    _runs_byte_identical(capsys, tmp_path, lambda t: ["oracle-h", "--in", str(k5)])
    _runs_byte_identical(capsys, tmp_path, lambda t: ["oracle-unc", "--in", str(k5)])
    _runs_byte_identical(
        capsys, tmp_path,
        lambda t: ["verify-tightness", "--out", str(tmp_path / f"v{t}.csv")])
    assert (tmp_path / "va.csv").read_bytes() == (tmp_path / "vb.csv").read_bytes()
    _runs_byte_identical(
        capsys, tmp_path,
        lambda t: ["compare-bounds", "--ns", "100", "--epsilons", "1/10",
                   "--out", str(tmp_path / f"m{t}.csv")])
    assert (tmp_path / "ma.csv").read_bytes() == (tmp_path / "mb.csv").read_bytes()

    main(["oracle-h", "--in", str(k5), "--out", str(tmp_path / "r.json")])
    capsys.readouterr()
    for t in ("a", "b"):
        assert main(["render", "--in", str(tmp_path / "r.json"),
                     "--out", str(tmp_path / f"s{t}.svg")]) == 0
    assert (tmp_path / "sa.svg").read_bytes() == (tmp_path / "sb.svg").read_bytes()


def test_parser_built_once_and_handlers_looked_up_per_call(monkeypatch, capsys, k8_file):
    from uncrossed import cli

    assert cli.build_parser() is cli.build_parser()
    assert run(capsys, "bounds", "--in", k8_file)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_bounds", lambda args: seen.append(args.infile) or 0)
    assert run(capsys, "bounds", "--in", k8_file) == (0, "")
    assert seen == [k8_file]


def test_missing_input_file_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "missing")
    for argv in (["bounds", "--in", missing], ["oracle-h", "--in", missing],
                 ["oracle-unc", "--in", missing],
                 ["render", "--in", missing, "--out", str(tmp_path / "x.svg")]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "x.svg").exists()


def _render_exit(capsys, tmp_path, payload) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code = main(["render", "--in", str(path), "--out", str(tmp_path / "x.svg")])
    assert capsys.readouterr().err.startswith("error: ") == (code != 0)
    return code


PATH3_CERT = {"n": 3, "uncrossed": [[0, 1], [1, 2]], "rotation": [[1], [0, 2], [1]],
              "assignment": {"0-2": 0}}


def test_render_certificate_without_n_exit_code(capsys, tmp_path):
    assert _render_exit(capsys, tmp_path, PATH3_CERT) == 0
    payload = {k: v for k, v in PATH3_CERT.items() if k != "n"}
    assert _render_exit(capsys, tmp_path, payload) == 4
    assert _render_exit(capsys, tmp_path, {"witness": payload}) == 4


def test_render_dangling_face_index_exit_code(capsys, tmp_path):
    payload = dict(PATH3_CERT, assignment={"0-2": 7})
    assert _render_exit(capsys, tmp_path, payload) == 4
    assert not (tmp_path / "x.svg").exists()


def test_render_invalid_certificate_exit_code(capsys, tmp_path):
    # K_4 with every vertex's neighbours in ascending order: a torus
    # embedding, well-formed but not genus 0, so no drawing is written
    k4 = {"n": 4, "uncrossed": [list(e) for e in make_complete(4).edges],
          "rotation": [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], "assignment": {}}
    assert _render_exit(capsys, tmp_path, k4) == 4
    assert not (tmp_path / "x.svg").exists()
    cover = {"cover": [PATH3_CERT, k4]}
    assert _render_exit(capsys, tmp_path, cover) == 4
