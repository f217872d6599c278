"""Command-line interface.

Exit codes: 0 success, 2 precondition or gate failure, 3 search budget
exceeded, 4 integrity or assertion failure.  All runs are reproducible:
identical flags produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import io
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
from .graphs import parse_edge_list, write_edge_list, write_json_pairs
from .oracle import (
    DEFAULT_LIMITS,
    DEFAULT_UNC_LIMITS,
    SearchLimits,
    exact_h,
    exact_unc,
    verify_certificate,
)
from .render import render_json, render_record


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
        _write(args.json, json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n")
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
        rec.write_json(f)
    with _Output(out / "graph.edgelist") as f:
        write_edge_list(rec.graph, f)
    if args.svg:
        with _Output(out / "drawing.svg") as f:
            render_record(rec, f)
    print(
        f"n={rec.graph.n} x={rec.x} m={rec.stats.m} m_prime={rec.stats.m_prime} "
        f"t={rec.stats.t} density={rec.stats.density}"
    )
    return 0


def _limits(args) -> SearchLimits:
    return SearchLimits(
        max_n=args.max_n,
        max_rotation_budget=args.budget,
        time_budget=args.time_budget,
    )


def _oracle_payload(kind: str, g, value: int) -> io.StringIO:
    """A buffer holding the oracle payload's JSON text, as
    json.dumps(payload, indent=2) writes it, up to the key after "value"."""
    buf = io.StringIO()
    buf.write(f'{{\n  "kind": "{kind}",\n  "n": {g.n},\n  "m": {g.m},\n  "edges": ')
    write_json_pairs(buf, g.edges, "\n  ", g.n)
    buf.write(f',\n  "value": {value},\n  ')
    return buf


def cmd_oracle_h(args) -> int:
    g = _read_graph(args.infile)
    value, witness = exact_h(g, _limits(args))
    if not verify_certificate(witness):
        raise ConstructionIntegrityError("witness failed re-verification")
    buf = _oracle_payload("max-uncrossed-subgraph", g, value)
    buf.write('"witness": ')
    witness.write_json(buf, "\n  ")
    text = buf.getvalue() + "\n}\n"
    sys.stdout.write(text)
    _write(args.out, text)
    return 0


def cmd_oracle_unc(args) -> int:
    g = _read_graph(args.infile)
    value, cover = exact_unc(g, _limits(args))
    for cert in cover:
        if not verify_certificate(cert):
            raise ConstructionIntegrityError("cover member failed re-verification")
    buf = _oracle_payload("uncrossed-number", g, value)
    lead = '"cover": [\n    '  # a cover holds at least one drawing
    for cert in cover:
        buf.write(lead)
        cert.write_json(buf, "\n    ")
        lead = ",\n    "
    text = buf.getvalue() + "\n  ]\n}\n"
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
    if 2 * max(epsilons, default=0) >= 9:  # dense_ratio divides by 3 - sqrt(2 eps)
        raise ValueError(f"needs epsilon < 9/2, got epsilon={max(epsilons)}")
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
    try:
        data = json.loads(_read_input(args.infile))
    except RecursionError:  # arrays or objects nested deeper than the parser's stack
        raise ValueError("JSON nested too deeply to parse") from None
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
