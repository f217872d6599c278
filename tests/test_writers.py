"""The CLI's JSON and SVG writers: identity with `json.dumps(..., indent=2)`
and the bytes of every kind of file the CLI writes, pinned."""

import hashlib
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).parent))
from corpus_util import connected_graphs_up_to_iso

from uncrossed.cli import _Assignment, _json_chunks, _json_text, main
from uncrossed.construction import ConstructionRecord, build_construction, construct
from uncrossed.graphs import SLICE, make_complete, make_complete_bipartite, serialize_edge_list
from uncrossed.oracle import exact_unc

INTS = st.integers(min_value=-(2**70), max_value=2**70)
FLOATS = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e-7, 1e16])
STRINGS = st.text() | st.sampled_from(
    ["", '"quoted"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "é ünï", " ", "\ud800", "😀"]
)
# int rows as the CLI writes them (edges, rotations, stack hosts), plus
# ragged and empty rows and rows with a bool or a float among the ints
MIXED = INTS | st.booleans() | FLOATS
INT_ROWS = st.lists(
    st.lists(INTS, max_size=5)
    | st.lists(INTS, min_size=2, max_size=2)
    | st.lists(MIXED, min_size=2, max_size=2)
    | st.lists(MIXED, max_size=3)
    | st.tuples(INTS, INTS),
    max_size=6,
)
# rows of small non-negative int pairs, which the writer takes from its id
# tables when told that ids run below TABLE_IDS, mixed with rows that every guard of that path must send item by
# item: a bool, a negative or large int or a float beside an id, and
# rows that are not pairs
SMALL = st.integers(min_value=0, max_value=12)
TABLE_IDS = 13
ODD_ROW = (
    st.tuples(SMALL, MIXED) | st.tuples(MIXED, SMALL) | st.lists(SMALL, max_size=3) | st.just([[0, 1], 2])
)
PAIR_ROWS = st.builds(
    lambda rows, odd, at: rows if odd is None else rows[:at] + [odd] + rows[at:],
    st.lists(st.tuples(SMALL, SMALL) | st.lists(SMALL, min_size=2, max_size=2), min_size=7, max_size=24),
    st.none() | ODD_ROW,
    st.integers(min_value=0, max_value=24),
)
LEAVES = st.none() | st.booleans() | INTS | FLOATS | STRINGS | INT_ROWS | PAIR_ROWS
VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(STRINGS, children, max_size=5)
    | st.dictionaries(STRINGS, INTS, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_json_text_matches_stdlib(value):
    assert _json_text(value) == json.dumps(value, indent=2)
    # with id tables: an id of TABLE_IDS or more sends its block item by item
    for ids in (TABLE_IDS, 7):
        assert "".join(_json_chunks(value, ids=ids)) == json.dumps(value, indent=2)


def test_json_text_edge_cases():
    for value in ([], {}, (), [[]], [{}], {"a": []}, [[1, 2], [3], [], [True, 4], [4, False], [5, 0.5]],
                  {"0-1": 3, "k": [[0, 1]]}, [-0.0, math.nan, math.inf, -math.inf, 1e-7],
                  # records whose rows are stored tuples, handed over uncopied
                  construct(Fraction(3, 20), 60).to_json_dict(),
                  [c.to_json_dict() for c in exact_unc(make_complete(5))[1]]):
        assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("length", [SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
def test_json_chunks_slice_boundaries(length):
    # a run of flat items is cut every SLICE items, and the pieces join to
    # the stdlib's text wherever the cuts fall
    for value in (list(range(length)), [(i, -i) for i in range(length)],
                  [(i, i + 1) for i in range(length)], {str(i): i for i in range(length)}):
        # no id tables, tables for every id, and tables that leave the
        # last block's ids out
        for ids in (0, length + 1, length - 50):
            chunks = list(_json_chunks(value, ids=ids))
            assert "".join(chunks) == json.dumps(value, indent=2)
            assert len(chunks) == length // SLICE + 1
            nested = {"a": 1, "rows": value, "z": [value, 2]}
            assert "".join(_json_chunks(nested, ids=ids)) == json.dumps(nested, indent=2)


def test_json_chunks_mixed_dict_across_boundaries():
    nested_at = {SLICE - 2, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE}
    mixed = {f"k{i}": ([i, {"x": i}] if i in nested_at else i) for i in range(2 * SLICE + 3)}
    mixed[f"k{SLICE + 2}"] = "text"
    mixed[f"k{SLICE + 3}"] = []
    assert "".join(_json_chunks(mixed)) == json.dumps(mixed, indent=2)
    assert "".join(_json_chunks(list(mixed.values()))) == json.dumps(list(mixed.values()), indent=2)


# face assignments as certificates hold them, plus one entry that every
# guard of the table path must send item by item: a bool, negative, large
# or float id, or a face that is a bool, a float or any other JSON value
IDS = st.integers(min_value=0, max_value=15)
ASSIGNMENT_IDS = 16
ODD_IDS = st.booleans() | st.integers(min_value=-(2**70), max_value=2**70) | st.floats(allow_nan=False)
FACES = st.integers(min_value=-5, max_value=2**70) | st.booleans() | st.floats(allow_nan=False)
ASSIGNMENTS = st.builds(
    lambda entries, odd: entries if odd is None else entries | dict([odd]),
    st.dictionaries(st.tuples(IDS, IDS), st.integers(min_value=0, max_value=40), min_size=8, max_size=40)
    | st.dictionaries(st.tuples(IDS, IDS), st.integers(min_value=0, max_value=40), max_size=4),
    st.none()
    | st.tuples(st.tuples(IDS | ODD_IDS, IDS) | st.tuples(IDS, ODD_IDS), st.integers(0, 9))
    | st.tuples(st.tuples(IDS, IDS), FACES)
    | st.tuples(st.tuples(IDS, IDS), VALUES),
)


def _assignment_dict(assignment) -> dict:
    # the per-item reference: what SubdrawingCertificate.to_json_dict holds
    return {f"{u}-{v}": assignment[u, v] for u, v in sorted(assignment)}


@settings(max_examples=300, deadline=None)
@given(ASSIGNMENTS)
def test_assignment_written_as_its_dict(assignment):
    # an _Assignment is written as the dict of "<u>-<v>" keys, in ascending
    # edge order, empty or not, at the top or nested
    expected = _assignment_dict(assignment)
    nested = [{"a": _Assignment(assignment), "b": 1}]
    for ids in (0, ASSIGNMENT_IDS):
        text = "".join(_json_chunks(_Assignment(assignment), ids=ids))
        assert text == json.dumps(expected, indent=2)
        text = "".join(_json_chunks(nested, ids=ids))
        assert text == json.dumps([{"a": expected, "b": 1}], indent=2)


def test_assignment_across_slice_boundaries():
    # table blocks beside a block that falls back item by item, on both
    # sides of a SLICE boundary, join to the dict's text; the ids run to
    # SLICE // 10 + 59, so the tables below SLICE // 10 + 40 leave the
    # last block's ids out
    assignment = {(i, i + 1 + j): j for i in range(SLICE // 10 + 50) for j in range(10)}
    for odd in ({}, {(3, 5): True}, {(SLICE // 10 + 3, SLICE // 10 + 9): 2.5}):
        value = assignment | odd
        for ids in (SLICE // 10 + 60, SLICE // 10 + 40):
            chunks = list(_json_chunks(_Assignment(value), ids=ids))
            assert "".join(chunks) == json.dumps(_assignment_dict(value), indent=2)
            assert len(chunks) == len(value) // SLICE + 1


def _streamed_record(rec) -> str:
    return "".join(_json_chunks(rec.to_json_dict(_Assignment), ids=rec.n)) + "\n"


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
    random.Random(rec.n).shuffle(pairs)
    data["certificate"]["assignment"] = dict(pairs)
    back = ConstructionRecord.from_json_dict(data)
    keys = list(back.certificate.face_assignment)
    assert len(keys) < 2 or keys != sorted(keys)
    assert _streamed_record(back) == text


@pytest.mark.parametrize("value", [{1: 2}, {(0, 1): 2}, {1, 2}, Fraction(1, 2), b"x", [object()]])
def test_json_text_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


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


def test_construct_peak_memory(tmp_path):
    # the writers stream in slices, so no whole record or drawing is held,
    # and the record holds one copy of each edge with no JSON dict of it:
    # about 40 MB on Linux x86-64 with Python 3.11, against 65 MB with a
    # string-keyed copy of the face assignment and 136 MB when each file
    # was built as one string.  The child reads its VmHWM, not
    # its ru_maxrss: on Linux a child's ru_maxrss counts the memory of the
    # process that started it, and pytest's own can pass 100 MB.
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("reads the peak resident set from /proc")
    script = (
        "import sys; from uncrossed.cli import main; "
        f"code = main(['construct', '--epsilon', '3/20', '--n', '1000', '--out', {str(tmp_path)!r}, '--svg']); "
        f"print(next(line for line in open({str(status)!r}) if line.startswith('VmHWM:')), file=sys.stderr); "
        "sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    field, kb, unit = proc.stderr.split()[-3:]
    assert (field, unit) == ("VmHWM:", "kB")
    assert int(kb) / 1024 < 55


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
