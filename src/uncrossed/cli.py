"""Command-line interface.

Exit codes: 0 success, 2 precondition or gate failure, 3 search budget
exceeded, 4 integrity or assertion failure.  All runs are reproducible:
identical flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import bounds as bd
from .construction import check_tightness, construct
from .errors import (
    ConstructionIntegrityError,
    MalformedCertificateError,
    NotApplicableError,
    ParseError,
    SearchBudgetError,
)
from .graphs import SLICE, parse_edge_list, write_edge_list
from .oracle import (
    DEFAULT_LIMITS,
    DEFAULT_UNC_LIMITS,
    SearchLimits,
    exact_h,
    exact_unc,
    verify_certificate,
)
from .render import render_json, render_record


class _Assignment:
    """A certificate's face assignment, keyed by edge, that _json_chunks
    writes as the JSON object {"<u>-<v>": face} in ascending edge order,
    with no "<u>-<v>" string built before it is written."""

    def __init__(self, assignment):
        self.assignment = assignment

    def __len__(self):
        return len(self.assignment)


_json_str = json.encoder.encode_basestring_ascii
_ROWS = (list, tuple)
_OBJECTS = (dict, _Assignment)
_CONTAINERS = _ROWS + _OBJECTS
_PAIR_ROWS = set(_ROWS)

DEFAULT_EPSILONS = "3/20,1/5,1/4,3/10,7/20,2/5,9/20"
DEFAULT_NS = "20,40,80"


def _num(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _read_input(path: str) -> str:
    """Text of an --in file; an unreadable one is a precondition failure."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_graph(path: str):
    g = parse_edge_list(_read_input(path))
    if not g.is_connected():
        raise ValueError("input graph is disconnected")
    return g


def _fraction(text: str) -> Fraction:
    """A fraction argument; a zero denominator is a precondition failure."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _fractions(text: str) -> list[Fraction]:
    return [_fraction(tok) for tok in text.split(",") if tok]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _json_chunks(obj, nl: str = "\n", ids: int = 0):
    """`json.dumps(obj, indent=2)` in pieces, byte for byte, except that
    dict keys must be str (anything else raises TypeError) and an
    _Assignment is written as the JSON object of its assignment.

    The stdlib falls back to its pure-Python encoder whenever `indent` is
    set.  Here items are read in blocks of at most SLICE.  A block of a
    list or tuple whose every item is a pair of ints in range(ids) (edge
    lists), and a block of an _Assignment with such edges and int faces,
    is joined from per-id text tables by one list comprehension.  Any
    other block is written item by item: ints and int pairs with one
    f-string each, scalars by `json.dumps`, and other containers recurse.
    No piece holds more than SLICE items, so no whole document is built.
    nl is the newline plus the current indent.
    """
    if not isinstance(obj, _CONTAINERS):
        yield json.dumps(obj)
        return
    if not obj:
        yield _empty(obj)
        return
    inner = nl + "  "
    deeper = inner + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        lead, close = "{" + inner, nl + "}"
        blocks = [(None, ((_json_key(key), value) for key, value in obj.items()))]
    elif isinstance(obj, _Assignment):
        lead, close = "{" + inner, nl + "}"
        blocks = _assignment_blocks(obj.assignment, ids)
    else:
        lead, close = "[" + inner, nl + "]"
        blocks = _row_blocks(obj, inner, ids)
    run, count = [], 0  # formatted text not yet written, and how many items it holds
    for texts, items in blocks:
        if texts is not None:
            if count + len(texts) > SLICE:
                yield lead + sep.join(run)
                lead, run, count = sep, [], 0
            run.append(sep.join(texts))
            count += len(texts)
            if count == SLICE:
                yield lead + sep.join(run)
                lead, run, count = sep, [], 0
            continue
        for key, x in items:
            if type(x) is int:
                run.append(key + str(x))
            elif type(x) in _ROWS and len(x) == 2 and type(x[0]) is int and type(x[1]) is int:
                run.append(f"{key}[{deeper}{x[0]},{deeper}{x[1]}{inner}]")
            elif not isinstance(x, _CONTAINERS):
                run.append(key + json.dumps(x))
            elif not x:
                run.append(key + _empty(x))
            else:
                if run:
                    yield lead + sep.join(run)
                    lead, run, count = sep, [], 0
                yield lead + key
                lead = sep
                yield from _json_chunks(x, inner, ids)
                continue
            count += 1
            if count == SLICE:
                yield lead + sep.join(run)
                lead, run, count = sep, [], 0
    yield (lead + sep.join(run) if run else "") + close


def _empty(obj) -> str:
    return "{}" if isinstance(obj, _OBJECTS) else "[]"


def _row_blocks(rows, inner, ids):
    """The items of a JSON array in blocks of at most SLICE: (texts, None)
    for a block of int pairs in range(ids), else (None, its ("", item)s)."""
    deeper = inner + "  "
    lefts = None
    for i in range(0, len(rows), SLICE):
        block = rows[i:i + SLICE]
        texts = None
        if {*map(type, block)} <= _PAIR_ROWS:
            if lefts is None:  # the text before and after each id of a pair
                lefts = [f"[{deeper}{u},{deeper}" for u in range(ids)]
                rights = [f"{v}{inner}]" for v in range(ids)]
            try:
                # the filter sends bools, floats and negative ids item by item
                texts = [
                    lefts[u] + rights[v]
                    for u, v in block
                    if type(u) is int is type(v) and u >= 0 <= v
                ]
            except (IndexError, ValueError):  # an id of ids or more, or not a pair
                pass
        if texts is None or len(texts) < len(block):
            yield None, (("", x) for x in block)
        else:
            yield texts, None


def _assignment_blocks(assignment, ids):
    """The entries of a face assignment in ascending edge order, in blocks
    as _row_blocks gives them: texts for a block whose edges are in
    range(ids) and whose faces are ints, else each entry's key text and
    face."""
    lefts = [f'"{u}-' for u in range(ids)]
    rights = [f'{v}": ' for v in range(ids)]
    keys = sorted(assignment)
    for i in range(0, len(keys), SLICE):
        block = keys[i:i + SLICE]
        texts = None
        try:
            texts = [
                f"{lefts[u]}{rights[v]}{face}"
                for (u, v), face in zip(block, map(assignment.__getitem__, block))
                if type(u) is int is type(v) is type(face) and u >= 0 <= v
            ]
        except (IndexError, ValueError):
            pass
        if texts is None or len(texts) < len(block):
            yield None, ((_json_str(f"{u}-{v}") + ": ", assignment[u, v]) for u, v in block)
        else:
            yield texts, None


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return _json_str(key) + ": "


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2)`, as _json_chunks writes it."""
    return "".join(_json_chunks(obj))


def _unwritable(path, exc: OSError) -> ValueError:
    """An output path that cannot be written is a precondition failure."""
    return ValueError(f"cannot write {path}: {exc.strerror or exc}")


class _Output:
    """A text file opened at its first write, so a check that fails before
    then leaves no file behind.  OSError from opening, writing or closing
    it becomes _unwritable."""

    def __init__(self, path):
        self.path = path
        self._file = None

    def write(self, text: str) -> None:
        try:
            if self._file is None:
                self._file = open(self.path, "w")
            self._file.write(text)
        except OSError as exc:
            raise _unwritable(self.path, exc) from exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self._file is not None:
            try:
                self._file.close()
            except OSError as exc:
                raise _unwritable(self.path, exc) from exc


def _write(path: str | None, content: str):
    if path:
        with _Output(path) as out:
            out.write(content)


def cmd_bounds(args) -> int:
    g = _read_graph(args.infile)
    reports = bd.evaluate_bounds(g, triangle_free_check=args.triangle_free_check)
    rows = ["name,n,m,k,alpha,value"]
    for r in reports:  # the alpha column stays empty: no report here has an alpha
        k = r.params.get("k", "")
        rows.append(f"{r.name},{r.params['n']},{r.params['m']},{k},,{_num(r.value)}")
    csv = "\n".join(rows) + "\n"
    sys.stdout.write(csv)
    _write(args.csv, csv)
    if args.json:
        _write(args.json, _json_text([r.to_json_dict() for r in reports]) + "\n")
    return 0


def cmd_construct(args) -> int:
    rec = construct(_fraction(args.epsilon), args.n)
    check_tightness(rec)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    with _Output(out / "record.json") as f:
        for chunk in _json_chunks(rec.to_json_dict(_Assignment), ids=rec.graph.n):
            f.write(chunk)
        f.write("\n")
    with _Output(out / "graph.edgelist") as f:
        write_edge_list(rec.graph, f)
    if args.svg:
        with _Output(out / "drawing.svg") as f:
            render_record(rec, f)
    print(
        f"n={rec.n} x={rec.x} m={rec.stats.m} m_prime={rec.stats.m_prime} "
        f"t={rec.stats.t} density={rec.stats.density}"
    )
    return 0


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_n=args.max_n,
        max_rotation_budget=args.budget,
        time_budget=args.time_budget,
    )


def cmd_oracle_h(args) -> int:
    g = _read_graph(args.infile)
    value, witness = exact_h(g, _limits(args))
    if not verify_certificate(witness):
        raise ConstructionIntegrityError("witness failed re-verification")
    payload = {
        "kind": "max-uncrossed-subgraph",
        "n": g.n,
        "m": g.m,
        "edges": g.edges,
        "value": value,
        "witness": witness.to_json_dict(),
    }
    text = _json_text(payload) + "\n"
    sys.stdout.write(text)
    _write(args.out, text)
    return 0


def cmd_oracle_unc(args) -> int:
    g = _read_graph(args.infile)
    value, cover = exact_unc(g, _limits(args))
    for cert in cover:
        if not verify_certificate(cert):
            raise ConstructionIntegrityError("cover member failed re-verification")
    payload = {
        "kind": "uncrossed-number",
        "n": g.n,
        "m": g.m,
        "edges": g.edges,
        "value": value,
        "cover": [c.to_json_dict() for c in cover],
    }
    text = _json_text(payload) + "\n"
    sys.stdout.write(text)
    _write(args.out, text)
    return 0


def cmd_verify_tightness(args) -> int:
    epsilons = _fractions(args.epsilons)
    ns = _ints(args.ns)
    rows = ["n,epsilon,x,m,m_prime,lower,upper,gap,gap_witness,slack_limit"]
    for eps in sorted(epsilons):
        for n in sorted(ns):
            rec = construct(eps, n)
            report = check_tightness(rec)
            lower, upper = report["lower"], report["upper"]
            gap = upper - lower
            gap_witness = upper - rec.stats.m_prime
            slack = math.sqrt(6 * (n - 2)) - 3
            # the witness lies within the slack, h_upper - m' <= sqrt(6(n-2)) - 3:
            # with m' = 3n - 3 - x that is x <= sqrt(2m)
            if rec.x * rec.x > 2 * rec.stats.m:
                raise ConstructionIntegrityError(
                    f"witness gap {gap_witness} exceeds the low-order slack {slack} "
                    f"at (eps={eps}, n={n})"
                )
            rows.append(
                f"{n},{eps},{rec.x},{rec.stats.m},{rec.stats.m_prime},"
                f"{_num(lower)},{_num(upper)},{_num(gap)},{_num(gap_witness)},{_num(slack)}"
            )
    csv = "\n".join(rows) + "\n"
    sys.stdout.write(csv)
    _write(args.out, csv)
    return 0


def cmd_compare_bounds(args) -> int:
    epsilons = _fractions(args.epsilons)
    ns = _ints(args.ns)
    for n in ns:
        if n < 3:  # before the K_n row's (n-1)/(2n) divides by 2n
            raise ValueError(f"needs n >= 3, got n={n}")
    header = (
        "n,epsilon,m,unc_lower_quadratic,unc_lower,best_combined,best_k,"
        "exact_unc_complete,dense_ratio"
    )
    rows = [header]
    for n in sorted(ns):
        complete_m = n * (n - 1) // 2
        cells = [(eps, min(int(eps * n * n), complete_m)) for eps in sorted(epsilons)]
        cells.append((Fraction(n - 1, 2 * n), complete_m))  # the K_n row
        for eps, m in cells:
            try:
                old = bd.unc_lower_quadratic(n, m)
            except NotApplicableError:
                old = None
            new = bd.unc_lower(n, m)
            best, best_k = bd.best_combined_bound(n, m)
            exact = bd.exact_unc_complete(n) if (m == complete_m and n > 7) else None
            dense_pred = float(eps) * n / (3 - math.sqrt(2 * float(eps)))
            rows.append(
                f"{n},{eps},{m},{_num(old)},{new},{_num(best)},{best_k},"
                f"{_num(exact)},{_num(new / dense_pred)}"
            )
    csv = "\n".join(rows) + "\n"
    sys.stdout.write(csv)
    _write(args.out, csv)
    return 0


def cmd_render(args) -> int:
    data = json.loads(_read_input(args.infile))
    with _Output(args.out) as out:
        render_json(data, out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged.

    Subcommand `x-y` runs `cmd_x_y`, looked up by main() on each call, so
    the cached parser holds no handler and a replaced handler takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="uncrossed",
        description="Bounds, tight constructions and exact search for "
        "uncrossed numbers and maximum uncrossed subgraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="evaluate every applicable bound for a graph")
    p.add_argument("--in", dest="infile", required=True, help="edge-list file")
    p.add_argument("--triangle-free-check", action="store_true")
    p.add_argument("--csv", help="also write the CSV table here")
    p.add_argument("--json", help="also write full JSON reports here")

    p = sub.add_parser("construct", help="build the density-targeted tight construction")
    p.add_argument("--epsilon", required=True, help="density target, e.g. 3/10")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true")

    for name, limits in (("oracle-h", DEFAULT_LIMITS), ("oracle-unc", DEFAULT_UNC_LIMITS)):
        p = sub.add_parser(name, help=f"exact search ({name})")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--max-n", dest="max_n", type=int, default=limits.max_n)
        p.add_argument("--budget", type=int, default=limits.max_rotation_budget)
        p.add_argument("--time-budget", dest="time_budget", type=float, default=None)
        p.add_argument("--out", help="also write the result JSON here")

    p = sub.add_parser("verify-tightness", help="sweep the construction and check tightness")
    p.add_argument("--epsilons", default=DEFAULT_EPSILONS)
    p.add_argument("--ns", default=DEFAULT_NS)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("compare-bounds", help="tabulate lower bounds across densities")
    p.add_argument("--ns", default="1000,10000")
    p.add_argument("--epsilons", default="1/10,1/5,3/10,2/5")
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("render", help="render a record or certificate JSON as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ParseError, NotApplicableError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConstructionIntegrityError, MalformedCertificateError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
