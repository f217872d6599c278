"""Benchmark of the `uncrossed` CLI: one closed-loop workload per run.

    python3 perfbench/run.py --workload oracle-dense --seed 1 --seconds 30 --trace 0

A fresh worker process (perfbench/worker.py) imports the package from
`src/` and runs the workload's fixed list of CLI calls through
`uncrossed.cli.main`, one call after another from a single thread, in
as many whole passes as fit in --seconds (at least one), after an
untimed warm-up.  This process never imports `uncrossed`: it writes the
inputs, checks every output with perfbench/checker.py, and prints one
JSON line.

--trace 0 reports the end-to-end metrics: solve_s (median seconds per
pass), setup_s (median import time over eleven fresh processes) and
peak_rss_mb (the worker's peak resident set).  --trace 1 runs the same
untraced passes, then one traced pass, the oracle.feasible sweep and the
probe, and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh import-only processes besides the worker, half before the passes and
# half after them, so the median samples the machine over the whole run.
SETUP_PROBES = 10


def _span(field):
    return lambda layers, name: layers.get(name, [0, 0.0, 0.0, 0])[field]


def _rate(layers, name):
    _, seconds, _, work = layers.get(name, [0, 0.0, 0.0, 0])
    return work / seconds if seconds > 0 else 0.0


_S, _SELF, _CALLS, _WORK = _span(1), _span(2), _span(0), _span(3)

# metric name -> (unit, how to read it, span name); spans come from tracing.py
PER_LAYER = {
    "oracle.exact_h.s": ("s", _S, "oracle.exact_h"),
    "oracle.exact_h.self_s": ("s", _SELF, "oracle.exact_h"),
    "oracle.maximal_feasible_sets.s": ("s", _S, "oracle.maximal_feasible_sets"),
    "oracle.maximal_feasible_sets.sets": ("count", _WORK, "oracle.maximal_feasible_sets"),
    "oracle.exact_unc.self_s": ("s", _SELF, "oracle.exact_unc"),
    "oracle.verify_certificate.s": ("s", _S, "oracle.verify_certificate"),
    "oracle.verify_certificate.calls": ("count", _CALLS, "oracle.verify_certificate"),
    "oracle.verify_certificate.edges_per_s": ("1/s", _rate, "oracle.verify_certificate"),
    "embedding.trace_faces.s": ("s", _S, "embedding.trace_faces"),
    "embedding.trace_faces.calls": ("count", _CALLS, "embedding.trace_faces"),
    "embedding.trace_faces.darts_per_s": ("1/s", _rate, "embedding.trace_faces"),
    "graphs.Graph.validate_s": ("s", _S, "graphs.Graph.validate"),
    "graphs.Graph.edges_per_s": ("1/s", _rate, "graphs.Graph.validate"),
    "graphs.parse_edge_list.s": ("s", _S, "graphs.parse_edge_list"),
    "construction.build_construction.self_s": ("s", _SELF, "construction.build_construction"),
    "construction.check_tightness.self_s": ("s", _SELF, "construction.check_tightness"),
    "construction.layout_coordinates.s": ("s", _S, "construction.layout_coordinates"),
    "bounds.evaluate_bounds.s": ("s", _S, "bounds.evaluate_bounds"),
    "render.render_record.s": ("s", _S, "render.render_record"),
    "render.barycentric_layout.s": ("s", _S, "render.barycentric_layout"),
    "cli.main.self_s": ("s", _SELF, "cli.main"),
    "cli.build_parser.s": ("s", _S, "cli.build_parser"),
}
SUBCOMMANDS = ("bounds", "construct", "oracle-h", "oracle-unc", "verify-tightness",
               "compare-bounds", "render")
PER_LAYER.update({f"cli.{sub}.s": ("s", _S, f"cli.{sub}") for sub in SUBCOMMANDS})


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Worker:
    """The workload process and its line protocol (see worker.py)."""

    def __init__(self, plan_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
             "--plan", str(plan_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        self.setup_s = self._read()["setup_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, **cmd) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--import-only"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


class Checks:
    """Checks every op's outputs.  Each op's outputs are checked in full
    the first time; in later passes they must be byte-identical to that
    checked copy, as the CLI promises for identical invocations."""

    def __init__(self, plan: dict):
        self.facts = {gid: checker.GraphFacts(n, edges) for gid, (n, edges) in plan["graphs"].items()}
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.failures: dict[str, str] = {}

    def run(self, ops: list[dict], reply: dict, out_dir: Path) -> int:
        """Checks one op list's outputs; returns how many ops failed."""
        failed = 0
        for i, (op, (code, _, err)) in enumerate(zip(ops, reply["calls"])):
            if code != 0:
                failed += 1
                self.failures[op["id"]] = f"exit {code}: {err}"
                continue
            stdout = (out_dir / f"{i}.stdout").read_text()
            files = [Path(f.replace("{pass}", str(out_dir))) for f in op["files"]]
            digest = hashlib.sha256(stdout.encode())
            for f in files:
                digest.update(f.read_bytes())
            digest = digest.hexdigest()
            if op["id"] in self.digests:
                if digest != self.digests[op["id"]]:
                    self.errors.append(f"{op['id']}: output differs between identical calls")
                continue
            self.digests[op["id"]] = digest
            try:
                self._check(op, stdout, files)
            except Exception as exc:  # any malformed output is a wrong output
                self.errors.append(f"{op['id']}: {type(exc).__name__}: {exc}")
        return failed

    def _check(self, op: dict, stdout: str, files: list[Path]) -> None:
        kind = op["kind"]
        facts = self.facts.get(op.get("graph"))
        if kind == "oracle-h":
            checker.check_oracle_h(facts, stdout, [f.read_text() for f in files])
        elif kind == "oracle-unc":
            checker.check_oracle_unc(facts, stdout)
        elif kind == "bounds":
            checker.check_bounds(facts, stdout)
        elif kind == "render-cert":
            checker.check_render_cert(facts, files[0])
        elif kind == "construct":
            record, edgelist, svg = files
            checker.check_construct(op["epsilon"], op["n"], stdout, record.read_text(),
                                    edgelist.read_text(), svg)
        elif kind == "verify-tightness":
            checker.check_verify_tightness(stdout, op["epsilons"], op["ns"])
        elif kind == "compare-bounds":
            checker.check_compare_bounds(stdout, op["ns"], op["epsilons"])
        else:
            raise ValueError(f"no checker for {kind!r}")


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    checker.self_test()
    plan = workloads.build(workload, seed, work / "inputs")
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    checks = Checks(plan)

    import_seconds()  # untimed: the first import may compile bytecode
    setup = [import_seconds() for _ in range(SETUP_PROBES // 2)]
    worker = Worker(plan_path)
    try:
        setup.append(worker.setup_s)

        def run_ops(ops_name: str, tag: str) -> tuple[dict, int]:
            out_dir = work / tag
            reply = worker.ask(cmd="run", ops=ops_name, dir=str(out_dir))
            failed = checks.run(plan[ops_name], reply, out_dir)
            shutil.rmtree(out_dir)
            return reply, failed

        run_ops("probe", "warm-up")
        passes, attempted, failed = [], 0, 0
        # whole passes; the next one starts only if it should end within --seconds
        while not passes or sum(p["wall"] for p in passes) + passes[-1]["wall"] <= seconds:
            reply, nfail = run_ops("pass", f"pass{len(passes)}")
            passes.append(reply)
            attempted += len(reply["calls"])
            failed += nfail
        layers = sweep = None
        if trace:
            worker.ask(cmd="trace")
            traced, nfail = run_ops("pass", "traced")
            attempted += len(traced["calls"])
            failed += nfail
            facts = [checks.facts[gid] for gid in plan["sweep"]]
            sweep = worker.ask(cmd="sweep", items=[
                [f.n, f.edges, f.connected_sets(f.h + 1)] for f in facts])
            if sweep["feasible"]:
                checks.errors.append(f"sweep: {sweep['feasible']} sets of size h+1 are feasible")
            run_ops("probe", "probe")
            layers = worker.ask(cmd="layers")
        rss_mb = worker.ask(cmd="stop")["maxrss_kb"] / 1024
    finally:
        worker.close()
    setup += [import_seconds() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]

    solve = statistics.median(p["wall"] for p in passes)
    _summary(workload, plan, passes, setup, rss_mb, checks)
    if trace:
        metrics = {name: {"value": read(layers, span), "unit": unit}
                   for name, (unit, read, span) in PER_LAYER.items()}
        metrics["oracle.feasible.systems"] = {"value": sweep["systems"], "unit": "count"}
        metrics["oracle.feasible.systems_per_s"] = {
            "value": sweep["systems"] / sweep["seconds"], "unit": "1/s"}
        metrics["trace.overhead_s"] = {"value": traced["wall"] - solve, "unit": "s"}
        log(f"traced pass {traced['wall']:.3f} s vs untraced median {solve:.3f} s; "
            f"sweep: {sweep['calls']} oracle.feasible calls, {sweep['systems']} systems "
            f"in {sweep['seconds']:.3f} s")
    else:
        metrics = {
            "solve_s": {"value": solve, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    return {"correct": not checks.errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _summary(workload, plan, passes, setup, rss_mb, checks) -> None:
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    cpus = ", ".join(f"{p['cpu']:.3f}" for p in passes)
    log(f"{workload}: {len(passes)} passes of {len(plan['pass'])} calls; wall s [{walls}]; "
        f"cpu s [{cpus}]")
    per_sub: dict[str, list[float]] = {}
    for p in passes:
        for op, (_, took, _) in zip(plan["pass"], p["calls"]):
            per_sub.setdefault(op["argv"][0], []).append(took)
    for sub, times in per_sub.items():
        times.sort()
        log(f"  {sub}: {len(times)} calls, median {1e3 * statistics.median(times):.3f} ms, "
            f"max {1e3 * times[-1]:.3f} ms")
    log(f"  setup s {sorted(round(s, 4) for s in setup)}; peak RSS {rss_mb:.1f} MB")
    for op_id, why in checks.failures.items():
        log(f"  failed: {op_id}: {why}")
    for err in checks.errors:
        log(f"  WRONG: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "uncrossed" / "__init__.py").is_file():
        log(f"error: no program source at {ROOT / 'src' / 'uncrossed'}")
        return 2
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    start = time.perf_counter()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass
    log(f"run took {time.perf_counter() - start:.1f} s")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
