import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from uncrossed.cli import main
from uncrossed.construction import construct
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


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_oracle_time_budget_must_be_positive(capsys, tmp_path, value):
    path = tmp_path / "k5.edgelist"
    path.write_text(serialize_edge_list(make_complete(5)))
    for cmd in ("oracle-h", "oracle-unc"):
        assert main([cmd, "--in", str(path), "--time-budget", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: time budget must be positive\n"


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


@pytest.mark.parametrize("argv", [
    ["construct", "--epsilon", "3/10", "--n", "1000000000000", "--out"],
    ["verify-tightness", "--ns", "1000000000000", "--epsilons", "3/10", "--out"],
])
def test_out_of_memory_exit_code(tmp_path, argv):
    # n = 10^12 asks for a rim list of about 7.7 * 10^11 items at once; the
    # child's address space is capped at 2 GiB, so the allocation fails
    # at once however the machine overcommits
    resource = pytest.importorskip("resource")
    cap = 2 << 30
    out = tmp_path / "huge"
    proc = subprocess.run(
        [sys.executable, "-m", "uncrossed.cli", *argv, str(out)],
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: out of memory\n")
    assert not out.exists()


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


def test_huge_vertex_count_exit_code(capsys, tmp_path):
    # the header's n costs nothing until the edges could connect n vertices
    path = tmp_path / "huge.edgelist"
    path.write_text("1000000000000 1\n0 1\n")
    for cmd in ("bounds", "oracle-h", "oracle-unc"):
        assert main([cmd, "--in", str(path)]) == 2
        assert capsys.readouterr().err == "error: input graph is disconnected\n"


def _render_exit(capsys, tmp_path, payload) -> int:
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    svg = tmp_path / "x.svg"
    svg.unlink(missing_ok=True)
    code = main(["render", "--in", str(path), "--out", str(svg)])
    assert capsys.readouterr().err.startswith("error: ") == (code != 0)
    assert svg.exists() == (code == 0)  # every check runs before the file is opened
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


@pytest.mark.parametrize("index", [4.9, "4", True])
def test_render_non_integer_face_index_exit_code(capsys, tmp_path, index):
    # the K_5 witness renders as written; a face index that is a float, a
    # string or a bool is malformed, not read as the integer it resembles
    # (True would otherwise be read as face 1 and fail only verification)
    path = tmp_path / "k5.edgelist"
    path.write_text(serialize_edge_list(make_complete(5)))
    assert main(["oracle-h", "--in", str(path), "--out", str(tmp_path / "h.json")]) == 0
    capsys.readouterr()
    witness = json.loads((tmp_path / "h.json").read_text())["witness"]
    assert witness["assignment"]["1-4"] == 4
    assert _render_exit(capsys, tmp_path, witness) == 0
    svg = tmp_path / "x.svg"
    svg.unlink()
    witness["assignment"]["1-4"] = index
    (tmp_path / "cert.json").write_text(json.dumps(witness))
    assert main(["render", "--in", str(tmp_path / "cert.json"), "--out", str(svg)]) == 4
    assert capsys.readouterr().err == f"error: face index {index!r} of 1-4 is not an integer\n"
    assert not svg.exists()


K2_CERT = {"n": 2, "uncrossed": [[0, 1]], "rotation": [[1], [0]], "assignment": {}}
ONE_VERTEX_RECORD = {
    "kind": "construction", "epsilon": None, "n": 1, "x": 3, "x0": None, "edges": [],
    "crossed": [], "certificate": {"n": 1, "uncrossed": [], "rotation": [[]], "assignment": {}},
    "coordinates": [[0.0, 0.0]], "stack_hosts": [],
    "stats": {"m": 0, "m_prime": 0, "t": 0, "f": 0, "density": "0"},
}
PATH3_RECORD = dict(
    ONE_VERTEX_RECORD, n=3, edges=[[0, 1], [0, 2], [1, 2]], crossed=[[0, 2]],
    certificate=PATH3_CERT, coordinates=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    stats={"m": 3, "m_prime": 2, "t": 0, "f": 1, "density": "1/3"},
)


# a construct record, as record.json holds it
CONSTRUCT_RECORD = json.loads(json.dumps(construct(Fraction(3, 10), 20).to_json_dict()))


def _chord_on(face):
    # CONSTRUCT_RECORD with its chord (1, 3) assigned to face; all its chords
    # are on the outer face, 20
    cert = CONSTRUCT_RECORD["certificate"]
    assignment = dict(cert["assignment"], **{"1-3": face})
    return dict(CONSTRUCT_RECORD, certificate=dict(cert, assignment=assignment))


@pytest.mark.parametrize("payload", [
    K2_CERT, PATH3_CERT, ONE_VERTEX_RECORD, PATH3_RECORD,
    # a crossed edge whose ends coincide at the centre still gets an arc
    dict(PATH3_RECORD, coordinates=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]),
    CONSTRUCT_RECORD,
])
def test_render_strict_json_valid_inputs(capsys, tmp_path, payload):
    # the inputs the loose variants below are made from all render
    assert _render_exit(capsys, tmp_path, payload) == 0


@pytest.mark.parametrize("payload", [
    {"witness": dict(K2_CERT, uncrossed=[[False, True]])},
    {"witness": dict(K2_CERT, rotation=[[True], [False]])},
    dict(K2_CERT, n=True),
    dict(ONE_VERTEX_RECORD, n=True),
    dict(PATH3_RECORD, edges=[[0, 1], [0, 2], [True, 2]]),
    dict(PATH3_RECORD, crossed=[[0, 2], [0, 2]]),
    dict(PATH3_CERT, assignment={"+0-2": 0}),
    dict(PATH3_CERT, assignment={" 0-2": 0}),
    dict(PATH3_CERT, assignment={"0-2": 0, "2-0": 0}),
    dict(PATH3_CERT, assignment={"0-2": 0, "0-1": 0}),
    # a coordinate is a finite JSON number
    dict(PATH3_RECORD, coordinates=[["1.5", 0.0], [1.0, 0.0], [0.0, 1.0]]),
    dict(PATH3_RECORD, coordinates=[[True, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    dict(PATH3_RECORD, coordinates=[[float("nan"), 0.0], [1.0, 0.0], [0.0, 1.0]]),
    dict(PATH3_RECORD, coordinates=[[float("inf"), float("-inf")], [1.0, 0.0], [0.0, 1.0]]),
    # n, edges and crossed are the certificate's
    dict(PATH3_RECORD, edges=[[0, 1], [1, 2]], crossed=[]),
    dict(PATH3_RECORD, crossed=[]),
    dict(PATH3_RECORD, n=4, coordinates=PATH3_RECORD["coordinates"] + [[1.0, 1.0]]),
    # a record's certificate is verified: a chord on a face that does not
    # hold both its ends, and on a face that does not exist
    _chord_on(0),
    _chord_on(10**6),
    # a record's stats are its graph's and its certificate's
    dict(PATH3_RECORD, stats=dict(PATH3_RECORD["stats"], m=99)),
    dict(PATH3_RECORD, stats=dict(PATH3_RECORD["stats"], density="5")),
    dict(PATH3_RECORD, stats=dict(PATH3_RECORD["stats"], m_prime=3)),
    dict(PATH3_RECORD, stats=dict(PATH3_RECORD["stats"], f=2)),
])
def test_render_loose_json_exit_code(capsys, tmp_path, payload):
    # a bool is not a vertex id, an assignment key is "<digits>-<digits>",
    # no edge is named twice, a record agrees with its certificate, the
    # certificate verifies and the stats count what the record holds
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


@pytest.mark.parametrize("payload", [
    [], 5, {"cover": 5}, {"kind": "construction"}, {"kind": "construction", "n": 3},
])
def test_render_malformed_json_exit_code(capsys, tmp_path, payload):
    assert _render_exit(capsys, tmp_path, payload) == 4
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("text", [
    '{"n": 3',
    "[" * 200_000 + "]" * 200_000,
    '{"witness": ' + "[" * 200_000 + "]" * 200_000 + "}",
], ids=["truncated", "nested", "nested-witness"])
def test_render_unparsable_json_exit_code(capsys, tmp_path, text):
    # text the JSON parser refuses, cut short or nested past its stack,
    # exits 2 with one error line and writes no SVG
    path = tmp_path / "in.json"
    path.write_text(text)
    svg = tmp_path / "x.svg"
    assert main(["render", "--in", str(path), "--out", str(svg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not svg.exists()


def test_render_malformed_record_exit_code(capsys, tmp_path):
    main(["construct", "--epsilon", "3/10", "--n", "20", "--out", str(tmp_path)])
    capsys.readouterr()
    record = json.loads((tmp_path / "record.json").read_text())
    cert = record["certificate"]
    for broken in (dict(record, coordinates=record["coordinates"][:-1]),
                   dict(record, coordinates=[[None, 0.0]] * 20),
                   dict(record, crossed=[[0]]),
                   dict(record, epsilon="1/0"),
                   # a certificate on more vertices than the record, with
                   # and without an uncrossed edge beyond the coordinates
                   dict(record, certificate=dict(cert, n=22, rotation=cert["rotation"] + [[], []])),
                   dict(record, certificate=dict(cert, n=22, uncrossed=cert["uncrossed"] + [[20, 21]],
                                                 rotation=cert["rotation"] + [[21], [20]]))):
        assert _render_exit(capsys, tmp_path, broken) == 4


@pytest.mark.parametrize("payload", [
    dict(ONE_VERTEX_RECORD, x=True),
    dict(ONE_VERTEX_RECORD, x0="zz"),
    dict(ONE_VERTEX_RECORD, stats={"m": "a", "m_prime": [], "t": None, "f": True,
                                   "density": "0"}),
    dict(ONE_VERTEX_RECORD, stats=dict(ONE_VERTEX_RECORD["stats"], density=0)),
    dict(ONE_VERTEX_RECORD, epsilon=0.5),
    dict(ONE_VERTEX_RECORD, x0=float("nan")),
])
def test_render_record_scalar_types_exit_code(capsys, tmp_path, payload):
    # x and the stats counts are JSON integers, x0 a finite number or null,
    # epsilon and density fraction strings; the record renders only then
    assert _render_exit(capsys, tmp_path, dict(ONE_VERTEX_RECORD, x0=2.5)) == 0
    assert _render_exit(capsys, tmp_path, payload) == 4


@pytest.mark.parametrize("argv", [
    ["construct", "--epsilon", "1/0", "--n", "20"],
    ["verify-tightness", "--epsilons", "1/0"],
    ["compare-bounds", "--epsilons", "1/0"],
    ["compare-bounds", "--ns", "0"],
    # dense_ratio's 3 - sqrt(2 epsilon) is 0 at 9/2 and negative past it
    ["compare-bounds", "--ns", "10", "--epsilons", "9/2"],
    ["compare-bounds", "--ns", "10", "--epsilons", "1/10,5"],
])
def test_zero_denominator_exit_code(capsys, tmp_path, argv):
    if argv[0] == "construct":
        argv = argv + ["--out", str(tmp_path / "rec")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["compare-bounds", "--ns", str(10**160), "--epsilons", "1/10"],
    ["construct", "--epsilon", "1/10", "--n", str(10**400)],
    ["verify-tightness", "--epsilons", "1/10", "--ns", str(10**400)],
])
def test_beyond_float_range_exit_code(capsys, tmp_path, argv):
    if argv[0] == "construct":
        argv = argv + ["--out", str(tmp_path / "rec")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# Edge-list text: connected graphs (a random tree plus extra edges), random
# pairs under a matching header (they may loop, repeat or leave the range),
# token soup in the format's shape, and free text over its characters.
_TOKEN = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(["", "x", "2.5", "0x1", "٣"]))
_PAIRS = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10)


def _edge_list_text(n, pairs) -> str:
    return f"{n} {len(pairs)}\n" + "".join(f"{u} {v}\n" for u, v in pairs)


@st.composite
def _connected_edge_list(draw):
    n = draw(st.integers(1, 6))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= {(u, v) for u, v in draw(_PAIRS) if u < v < n}
    return _edge_list_text(n, sorted(edges))


_EDGE_LIST = st.one_of(
    _connected_edge_list(),
    st.builds(_edge_list_text, st.integers(1, 5), _PAIRS),
    st.builds(
        lambda header, lines, end: "\n".join([" ".join(header)] + [" ".join(l) for l in lines]) + end,
        st.lists(_TOKEN, min_size=1, max_size=3),
        st.lists(st.lists(_TOKEN, min_size=1, max_size=3), max_size=12),
        st.sampled_from(["", "\n", "\n\n"]),
    ),
    st.text(alphabet="0123456789 -\n\tx", max_size=30),
)
_EDGE_ARGS = (["bounds"], ["bounds", "--triangle-free-check"],
              ["oracle-h", "--max-n", "5", "--budget", "500"],
              ["oracle-unc", "--max-n", "5", "--budget", "500"])

# JSON for render: random trees over the keys the CLI writes, and the
# certificates of two small drawings with one key dropped or replaced.
_KEYS = ["n", "uncrossed", "rotation", "assignment", "kind", "witness", "cover", "edges",
         "certificate", "crossed", "coordinates", "stats", "epsilon", "x", "x0", "stack_hosts"]
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(-2, 8), st.floats(),
                  st.text(max_size=5), st.sampled_from(["construction", "0-2", "1/2"]))
_JSON = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(_KEYS), st.text(max_size=3)), inner,
                        max_size=5),
    ),
    max_leaves=12,
)
_K4_CERT = {"n": 4, "uncrossed": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
            "rotation": [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]], "assignment": {}}
_VALID = [PATH3_CERT, _K4_CERT, {"witness": PATH3_CERT}, {"cover": [PATH3_CERT, _K4_CERT]}]


@st.composite
def _render_payloads(draw):
    if draw(st.booleans()):
        return draw(_JSON)
    payload = dict(draw(st.sampled_from(_VALID)))
    key = draw(st.sampled_from(sorted(payload)))
    if draw(st.booleans()):
        del payload[key]
    else:
        payload[key] = draw(_JSON)
    return payload


_FUZZ = settings(max_examples=120, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(text=_EDGE_LIST, args=st.sampled_from(_EDGE_ARGS))
def test_fuzz_edge_list_exit_codes(capsys, tmp_path, text, args):
    path = tmp_path / "g.edgelist"
    path.write_text(text)
    code = main(args + ["--in", str(path)])
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert (code == 0) == (captured.err == "")


@_FUZZ
@given(payload=_render_payloads())
def test_fuzz_render_exit_codes(capsys, tmp_path, payload):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    code = main(["render", "--in", str(path), "--out", str(tmp_path / "out.svg")])
    captured = capsys.readouterr()
    assert code in (0, 2, 3, 4)
    assert (code == 0) == (captured.err == "")


@pytest.mark.parametrize("argv", [
    ["bounds", "--in", "{k5}", "--csv", "{bad}"],
    ["bounds", "--in", "{k5}", "--json", "{bad}"],
    ["construct", "--epsilon", "3/10", "--n", "20", "--out", "{bad}", "--svg"],
    ["oracle-h", "--in", "{k5}", "--out", "{bad}"],
    ["oracle-h", "--in", "{k5}", "--out", "{missing}"],
    ["oracle-unc", "--in", "{k5}", "--out", "{bad}"],
    ["verify-tightness", "--epsilons", "3/10", "--ns", "20", "--out", "{bad}"],
    ["compare-bounds", "--ns", "20", "--epsilons", "3/10", "--out", "{bad}"],
    ["render", "--in", "{record}", "--out", "{bad}"],
    ["render", "--in", "{record}", "--out", "{tmp}"],
])
def test_unwritable_output_exit_code(capsys, tmp_path, argv):
    # an output path under a regular file, in a missing directory, or that
    # is a directory: a precondition failure, reported on one line
    k5 = tmp_path / "k5.edgelist"
    k5.write_text(serialize_edge_list(make_complete(5)))
    assert main(["construct", "--epsilon", "3/10", "--n", "20", "--out", str(tmp_path)]) == 0
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    paths = {"k5": k5, "record": tmp_path / "record.json", "bad": blocker / "x",
             "missing": tmp_path / "missing" / "x.json", "tmp": tmp_path}
    argv = [arg.format(**paths) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    out = argv[argv.index("--svg") - 1] if "--svg" in argv else argv[-1]
    assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
