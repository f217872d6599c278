"""One workload process: imports `uncrossed` from the checkout's `src`,
then runs operations through `uncrossed.cli.main` in-process, one call
per CLI invocation, on commands read from stdin.

    python3 perfbench/worker.py --root DIR --import-only
    python3 perfbench/worker.py --root DIR --plan PLAN.json

The first line written to stdout is {"setup_s": ...}, the time the
imports took in this fresh process.  Then each JSON command on stdin
gets one JSON reply line:

    {"cmd": "run", "ops": "pass"|"probe", "dir": D}  run an op list
    {"cmd": "trace"}                                 install the spans
    {"cmd": "sweep", "items": [[n, edges, [edge set, ...]], ...]}
                                                     oracle.feasible on each set
    {"cmd": "layers"}                                span aggregates
    {"cmd": "stop"}                                  peak RSS, then exit

Only sys and time are imported before the timed import; every other
module is imported later, so whatever the package imports is counted.
"""

import sys
import time


def _import_program(root: str) -> float:
    """Seconds to import the package and its dependencies (numpy comes
    in with `render`)."""
    src = root.rstrip("/") + "/src"
    sys.path.insert(0, src)
    start = time.perf_counter()
    import uncrossed  # noqa: F401
    import uncrossed.cli  # noqa: F401
    import uncrossed.render  # noqa: F401
    took = time.perf_counter() - start
    if not uncrossed.__file__.startswith(src + "/"):
        raise SystemExit(f"imported uncrossed from {uncrossed.__file__}, not from {src}")
    return took


def _run_ops(cli, ops, out_dir):
    """Run each op once; returns the pass's wall and CPU time and, per op,
    [exit code, seconds, error].  Captured stdout is written afterwards."""
    import contextlib
    import io
    import os
    import traceback

    os.makedirs(out_dir, exist_ok=True)
    calls, outs = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    for op in ops:
        argv = [a.replace("{pass}", out_dir) for a in op["argv"]]
        out, err = io.StringIO(), io.StringIO()
        error = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a CLI process would exit 1 with this traceback
            code = 1
            error = traceback.format_exception_only(exc)[-1].strip()
        calls.append([code, time.perf_counter() - t0, error or err.getvalue().strip()])
        outs.append(out.getvalue())
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0
    for i, text in enumerate(outs):
        with open(os.path.join(out_dir, f"{i}.stdout"), "w") as fh:
            fh.write(text)
    return {"wall": wall, "cpu": cpu, "calls": calls}


def _sweep(oracle, graphs, items):
    """oracle.feasible on each given edge set; the caller sends every
    connected spanning set one edge larger than h, so each call must
    return None.  Such a call rules out prod_v (deg_H(v) - 1)! rotation
    systems, computed here."""
    import math

    systems = calls = found = 0
    seconds = 0.0
    for n, edges, subsets in items:
        g = graphs.Graph(n, tuple(tuple(e) for e in edges))
        for subset in subsets:
            subset = [tuple(e) for e in subset]
            deg = [0] * n
            for u, v in subset:
                deg[u] += 1
                deg[v] += 1
            t0 = time.perf_counter()
            result = oracle.feasible(g, subset)
            seconds += time.perf_counter() - t0
            calls += 1
            found += result is not None
            systems += math.prod(math.factorial(d - 1) for d in deg)
    return {"systems": systems, "seconds": seconds, "calls": calls, "feasible": found}


def main(argv):
    try:
        root = argv[argv.index("--root") + 1]
        plan_path = None if "--import-only" in argv else argv[argv.index("--plan") + 1]
    except (ValueError, IndexError):
        raise SystemExit("usage: worker.py --root DIR (--import-only | --plan PLAN.json)")
    setup = _import_program(root)
    if plan_path is None:
        print(f'{{"setup_s": {setup!r}}}', flush=True)
        return

    import json
    import resource

    import uncrossed.cli
    import uncrossed.graphs
    import uncrossed.oracle

    from tracing import Tracer

    with open(plan_path) as fh:
        plan = json.load(fh)
    proto = sys.stdout

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"setup_s": setup})
    tracer = None
    for line in sys.stdin:
        cmd = json.loads(line)
        kind = cmd["cmd"]
        if kind == "run":
            reply(_run_ops(uncrossed.cli, plan[cmd["ops"]], cmd["dir"]))
        elif kind == "trace":
            tracer = Tracer()
            tracer.install()
            reply({})
        elif kind == "sweep":
            reply(_sweep(uncrossed.oracle, uncrossed.graphs, cmd["items"]))
        elif kind == "layers":
            reply(tracer.stats if tracer else {})
        elif kind == "stop":
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return
        else:
            raise SystemExit(f"unknown command {kind!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
