"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --src DIR --out DIR
        [--trace] [--reference FILE] [--plant-fault]

A fresh interpreter per pass keeps ``relmetric``'s engine and domain caches
cold, as they are for every command-line user.  The pass prints one JSON
object as its last line: set-up and run times (host-corrected, see
``hostclock.py``, and plain), per-operation latencies,
operations attempted and failed (with the first problems), peak memory,
the checked values, and, with ``--trace``, the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostclock  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", help="compare checked values with this file")
    ap.add_argument("--plant-fault", action="store_true",
                    help="corrupt the first operation's output before checking it")
    args = ap.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))

    # numpy is imported before set-up is timed: the host clock's probe uses it
    clock = hostclock.HostClock()
    clock.start()
    # set-up: import the program, then build and validate the inputs
    t_setup = time.perf_counter()
    import relmetric
    import relmetric.cli  # noqa: F401  (the CLI workloads call relmetric.cli.main)
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)[args.workload]

    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        ops = workloads.build(args.workload, args.seed, workdir, relmetric)
        if args.plant_fault:
            ops = ops[:1]
        t_setup_end = time.perf_counter()
        # the checks' own data is the benchmark's work: neither set-up nor run
        expected = [op.expect() for op in ops]

        if tracer is not None:
            tracer.mark_run_start()
        failed = 0
        problems: list[str] = []
        item_spans: list[tuple[float, float]] = []
        values = []
        t_run = time.perf_counter()
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raised counts as failed
                item_spans.append((t0, time.perf_counter()))
                failed += 1
                problems.append(f"{op.label}: raised {type(exc).__name__}: {exc}")
                values.append(None)
                continue
            item_spans.append((t0, time.perf_counter()))
            if args.plant_fault:
                out = op.corrupt(out)
            try:
                bad, got = op.check(out, expected[i])
                if reference is not None and not bad:
                    gap = workloads.compare_values(got, reference[i])
                    if gap:
                        bad = [f"default seed: {gap}"]
            except Exception as exc:  # output the checks cannot read is wrong output
                bad, got = [f"check raised {type(exc).__name__}: {exc}"], None
            if bad:
                failed += 1
                problems.append(f"{op.label}: " + "; ".join(bad))
            values.append(got)
        t_run_end = time.perf_counter()
    clock.stop()

    result = {
        "setup_s": clock.elapsed(t_setup, t_setup_end),
        "run_s": clock.elapsed(t_run, t_run_end),
        "item_ms": [clock.elapsed(a, b) * 1e3 for a, b in item_spans],
        "wall_setup_s": clock.raw(t_setup, t_setup_end),
        "wall_run_s": clock.raw(t_run, t_run_end),
        "wall_item_ms": [clock.raw(a, b) * 1e3 for a, b in item_spans],
        "probes": len(clock.starts),
        "attempted": len(ops),
        "failed": failed,
        "problems": problems[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": __import__("numpy").__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(clock.elapsed)
        tracer.write(os.path.join(args.out, f"spans-{args.workload}.json"))
    else:
        result["values"] = values
    sys.stdout.write(json.dumps(result, allow_nan=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
