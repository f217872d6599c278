"""The CLI's JSON and SVG writers: identity with `json.dumps(..., indent=2)`
of the documents' dicts, and the bytes of every kind of file the CLI
writes, pinned."""

import hashlib
import io
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import connected_graphs_up_to_iso

from uncrossed.cli import main
from uncrossed.construction import ConstructionRecord, build_construction, construct
from uncrossed.embedding import RotationSystem
from uncrossed.graphs import (
    SLICE,
    Graph,
    make_complete,
    make_complete_bipartite,
    serialize_edge_list,
    write_json_pairs,
)
from uncrossed.oracle import SubdrawingCertificate, exact_h, exact_unc


class _Writes(list):
    """A text stream that keeps each write apart."""

    write = list.append


def _pairs_writes(pairs, nl, n) -> _Writes:
    out = _Writes()
    write_json_pairs(out, pairs, nl, n)
    return out


@pytest.mark.parametrize("length", [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
def test_json_pairs_slice_boundaries(length):
    # a pair list is cut every SLICE pairs, and the pieces join to the
    # stdlib's text at any indent wherever the cuts fall
    n = length + 1
    for pairs in ([(i, i + 1) for i in range(length)], tuple((i, 0) for i in range(length, 0, -1))):
        for nl in ("\n", "\n  ", "\n      "):
            writes = _pairs_writes(pairs, nl, n)
            assert "".join(writes) == json.dumps(pairs, indent=2).replace("\n", nl)
            assert len(writes) == -(-length // SLICE) + 1
    assert "".join(_pairs_writes((), "\n  ", 3)) == "[]"


def _certificate(n, assignment) -> SubdrawingCertificate:
    # the writer reads the certificate's fields as they stand: a star
    # beside any assignment, checked or not
    star = Graph(n, tuple((0, v) for v in range(1, n)))
    rotation = RotationSystem(star, tuple(map(tuple, star.adjacency())))
    return SubdrawingCertificate(star, rotation, assignment)


def _certificate_text(cert, nl) -> str:
    out = io.StringIO()
    cert.write_json(out, nl)
    return out.getvalue()


def _matches_dict(cert) -> bool:
    # the per-item reference: to_json_dict holds the "<u>-<v>" keys
    expected = json.dumps(cert.to_json_dict(), indent=2)
    return all(_certificate_text(cert, nl) == expected.replace("\n", nl)
               for nl in ("\n", "\n  ", "\n    "))


ASSIGNMENT_IDS = 16
IDS = st.integers(min_value=0, max_value=ASSIGNMENT_IDS - 1)
ASSIGNMENTS = st.dictionaries(st.tuples(IDS, IDS), st.integers(min_value=0, max_value=2**70),
                              max_size=40)


@settings(max_examples=300, deadline=None)
@given(ASSIGNMENTS)
def test_assignment_written_as_its_dict(assignment):
    # a certificate's assignment is written as the dict of "<u>-<v>" keys,
    # in ascending edge order, empty or not, however the dict was filled
    assert _matches_dict(_certificate(ASSIGNMENT_IDS, assignment))


def test_assignment_across_slice_boundaries():
    # the assignment is cut every SLICE entries, and the pieces join to
    # the dict's text wherever the cuts fall
    n = 140
    edges = list(itertools.combinations(range(n), 2))
    random.Random(7).shuffle(edges)
    for length in (SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1):
        cert = _certificate(n, {e: i * 7919 % 1000 for i, e in enumerate(edges[:length])})
        assert _matches_dict(cert)


def test_oracle_stdout_matches_stdlib(capsys, tmp_path):
    # every connected graph with n <= 6, n = 1 and 2 among them: no edge,
    # a rotation [[]] and an empty assignment
    src = tmp_path / "g.edgelist"
    for g in connected_graphs_up_to_iso(6):
        src.write_text(serialize_edge_list(g))
        head = {"n": g.n, "m": g.m, "edges": g.edges}
        value, witness = exact_h(g)
        payload = {"kind": "max-uncrossed-subgraph", **head, "value": value,
                   "witness": witness.to_json_dict()}
        assert main(["oracle-h", "--in", str(src)]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", g
        value, cover = exact_unc(g)
        payload = {"kind": "uncrossed-number", **head, "value": value,
                   "cover": [c.to_json_dict() for c in cover]}
        assert main(["oracle-unc", "--in", str(src)]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n", g


def _streamed_record(rec) -> str:
    out = io.StringIO()
    rec.write_json(out)
    return out.getvalue()


@pytest.mark.parametrize("rec", [
    build_construction(3, 4),  # the wheel on 4 vertices: no crossed edge
    build_construction(14, 20),
    construct(Fraction(3, 10), 20),
    construct(Fraction(3, 20), 60),
    construct(Fraction(9, 20), 200),
], ids=["3@4", "14@20", "3/10@20", "3/20@60", "9/20@200"])
def test_streamed_record_matches_dict(rec):
    # the writer reads the certificate's assignment pair by pair, with no
    # dict of it, and writes the bytes of the dict path
    text = json.dumps(rec.to_json_dict(), indent=2) + "\n"
    assert _streamed_record(rec) == text
    # a record read back from JSON whose assignment keys are shuffled is
    # written in ascending edge order all the same
    data = json.loads(text)
    pairs = list(data["certificate"]["assignment"].items())
    random.Random(rec.graph.n).shuffle(pairs)
    data["certificate"]["assignment"] = dict(pairs)
    back = ConstructionRecord.from_json_dict(data)
    keys = list(back.certificate.face_assignment)
    assert len(keys) < 2 or keys != sorted(keys)
    assert _streamed_record(back) == text


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of each file as written before the fast writers replaced
# json.dumps(..., indent=2) and per-endpoint coordinate formatting; the
# K_5 oracle and render files were re-taken when the oracle's witness
# became the kernel's first hit in ascending (degree, vertex) order
CONSTRUCT_SHA = {
    # the benchmark's largest call, across many SLICE boundaries in each file
    ("3/20", 1000): (
        "f08d64d9983b3f9601ae7887875a41af4e64b2355309ffa5658b44f10f3d1013",
        "cd23aa60546e46e9b8f33eaa6525a8f0596ab4b894db89ccbcf5122055398cd6",
        "1e130b3eed01d9f5199c5d1c40f964c3d15bb94bebc4c6c9e2fbd6a591473bd2",
    ),
    ("3/10", 20): (
        "ed31cd19e71410f30d79fafedf72881d1c5982523cddd4b21a5f6a169f4ca0f2",
        "47dd03094f8f75b3e238f28556f8707c0a3b427e23160ffeba4cfc1b976061c7",
        "a64e97af0c51e9d0352a5cc1cbfd6808c7925399580dc94133af35fabd85333e",
    ),
    ("9/20", 200): (
        "1389f3a41e8cde3be988a8ed64924815e8bc28a9a65f37f3297edf10d31f9cf6",
        "09d18142d07a28834e280cd8775b9bfee15a8b7873b610d3e9b1d42d1899f8ce",
        "b857e9082e5d2b792aa783389824f97dc70a9813355bdc00b0eaac474cfe81ac",
    ),
}
GRAPH_SHA = {
    "k5": {
        "h.json": "6c2103e7c5ce7247c8e5e0c7328f005eb827e532ff15ecab6c3a0d2e501ce269",
        "unc.json": "f5df1f0a9f13e7ebf9df76c2e56f2d6603d5fe23a17d40410fa2ff4e1ebae9f7",
        "bounds.json": "6df0d318492593009a2b6175c36ddf9d9610212feb48fa636bb24a7a3eda2656",
        "svg": "45bd43ee557a66e9627be68966def96da91aa530dca438516bc5028a751bf793",
    },
    "k33": {
        "h.json": "37ceccc6085d9cfc90bfb1cb236e3b8a438076ba750325fdc440155219ed8611",
        "unc.json": "a4fe874269254d5d8aa37e8c154b9742365dc46e474beb6e20a31301a3ec7280",
        "bounds.json": "23370dd1851f447093207ed963e809e89729761911da0020d334b9064c9d0d4e",
        "svg": "c196ce83c68db3c8c3904f79f1c89b87e6b3f2388e3025f40dac3c4a7addf628",
    },
}


@pytest.mark.parametrize("epsilon,n", sorted(CONSTRUCT_SHA))
def test_construct_files_pinned(capsys, tmp_path, epsilon, n):
    assert main(["construct", "--epsilon", epsilon, "--n", str(n),
                 "--out", str(tmp_path), "--svg"]) == 0
    names = ("record.json", "graph.edgelist", "drawing.svg")
    assert tuple(_sha(tmp_path / name) for name in names) == CONSTRUCT_SHA[epsilon, n]


def test_render_record_json_matches_construct_svg(capsys, tmp_path):
    # render --in record.json draws the stored record through the same writer
    assert main(["construct", "--epsilon", "9/20", "--n", "200",
                 "--out", str(tmp_path), "--svg"]) == 0
    assert main(["render", "--in", str(tmp_path / "record.json"),
                 "--out", str(tmp_path / "again.svg")]) == 0
    assert (tmp_path / "again.svg").read_bytes() == (tmp_path / "drawing.svg").read_bytes()
    # the chords are the certificate's assignment keys, drawn ascending
    # whatever the order of "crossed"
    data = json.loads((tmp_path / "record.json").read_text())
    random.Random(200).shuffle(data["crossed"])
    assert data["crossed"] != sorted(data["crossed"])
    (tmp_path / "shuffled.json").write_text(json.dumps(data))
    assert main(["render", "--in", str(tmp_path / "shuffled.json"),
                 "--out", str(tmp_path / "again.svg")]) == 0
    assert (tmp_path / "again.svg").read_bytes() == (tmp_path / "drawing.svg").read_bytes()


def _peak_mb(argv) -> float:
    # the peak resident set of a child process that runs main(argv), which
    # must exit 0.  The child reads its VmHWM, not its ru_maxrss: on Linux a
    # child's ru_maxrss counts the memory of the process that started it,
    # and pytest's own can pass 100 MB.
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("reads the peak resident set from /proc")
    script = (
        f"import sys; from uncrossed.cli import main; code = main({argv!r}); "
        f"print(next(line for line in open({str(status)!r}) if line.startswith('VmHWM:')), file=sys.stderr); "
        "sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    field, kb, unit = proc.stderr.split()[-3:]
    assert (field, unit) == ("VmHWM:", "kB")
    return int(kb) / 1024


def test_construct_peak_memory(tmp_path):
    # the writers stream in slices, so no whole record or drawing is held,
    # and the record holds one copy of each edge with no JSON dict of it:
    # about 40 MB on Linux x86-64 with Python 3.11, against 65 MB with a
    # string-keyed copy of the face assignment and 136 MB when each file
    # was built as one string
    argv = ["construct", "--epsilon", "3/20", "--n", "1000", "--out", str(tmp_path), "--svg"]
    assert _peak_mb(argv) < 55


def test_render_record_peak_memory(capsys, tmp_path):
    # the parsed JSON is most of it: the record's graph and chords are its
    # certificate's, so no second copy of the edges is built.  About 105 MB
    # on Linux x86-64 with Python 3.11, against 114 MB with a tuple of each
    # chord in the record as well
    assert main(["construct", "--epsilon", "3/20", "--n", "1000", "--out", str(tmp_path)]) == 0
    argv = ["render", "--in", str(tmp_path / "record.json"), "--out", str(tmp_path / "x.svg")]
    assert _peak_mb(argv) < 112


@pytest.mark.parametrize("name,graph", [("k5", make_complete(5)),
                                        ("k33", make_complete_bipartite(3, 3))])
def test_oracle_bounds_render_files_pinned(capsys, tmp_path, name, graph):
    src = tmp_path / "g.edgelist"
    src.write_text(serialize_edge_list(graph))
    out = {kind: tmp_path / f"{name}.{kind}" for kind in GRAPH_SHA[name]}
    for command, kind in (("oracle-h", "h.json"), ("oracle-unc", "unc.json")):
        assert main([command, "--in", str(src), "--out", str(out[kind])]) == 0
        assert capsys.readouterr().out == out[kind].read_text()
    assert main(["bounds", "--in", str(src), "--json", str(out["bounds.json"])]) == 0
    assert main(["render", "--in", str(out["h.json"]), "--out", str(out["svg"])]) == 0
    assert {kind: _sha(path) for kind, path in out.items()} == GRAPH_SHA[name]


# sha256 of the oracle-h and oracle-unc stdout for the seven 6-vertex graphs
# with 12 or 13 edges, in connected_graphs_up_to_iso(6) order, as written
# before the rotation search set one link at a time and the subset walk
# derived each size level from the one above
DENSE_ORACLE_SHA = [
    ("cb1fa522096d82d1b9c5ce806c01b1353d9cb0a16fe9b734d3f928bbc708ed77",
     "096ffb7b094d23dceeff646b480d8f16499d2e296c3c2931772d1f03e87b1599"),
    ("a6300ebcb601f710ead0bd6c481aa3feb20cdf192b5effa88475a1064d357e90",
     "80b0c9da354d175c1e488abfd6b12b79c72691466a9fcd284741156c90b43c47"),
    ("dc6b149fb8837c1ca16a15d8004ff6703f697d78dfdcd2f0c1694c0ff373226a",
     "0cdd9a05124f3fcb7abf9722eea20c2320106620eba25b2201f236225bf9f63e"),
    ("64bbbe315b3d068696dbc3727732ac7a7b10dac43ca86f64425412bb70bc0f99",
     "89223f7fd437131bae12d4d6f5293796bf9bec05486a0bb55c0834b9e24b1557"),
    ("691bf291195671ca1f1a6e9148bce048d61f371c88260374df9452a52a5f7098",
     "14f4c0aca94215425377a2a8ced2c02785b431b4b017fb1d7ef2e103d78267fb"),
    ("ad235d9d1bf75890dd29524bb98cac356165098666031463dc48d02e2158b2d6",
     "1ec854d27093aad220ed445ee34e408f70d126f305d3149e438473cc7325ba20"),
    ("64288dea4407e88919fedb621d23601a6bf2c83f196404d0f4a10a7f66b0b4ef",
     "9934c8120f19bda1f56b12fd6d1acb3a7323b40032d8f8a9e2789d6407c91872"),
]


def test_dense_oracle_stdout_pinned(capsys, tmp_path):
    dense = [g for g in connected_graphs_up_to_iso(6) if g.m in (12, 13)]
    digests = []
    for i, graph in enumerate(dense):
        src = tmp_path / f"{i}.edgelist"
        src.write_text(serialize_edge_list(graph))
        row = []
        for command in ("oracle-h", "oracle-unc"):
            assert main([command, "--in", str(src)]) == 0
            row.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
        digests.append(tuple(row))
    assert digests == DENSE_ORACLE_SHA
