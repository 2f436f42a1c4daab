"""The relmetric benchmark: seeded workloads, checked outputs, medians.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                             [--src DIR] [--seconds S]
    python3 perfbench/run.py --self-test [--seed N]
    python3 perfbench/run.py --record-reference

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (``perfbench/worker.py``), one pass at a time, so no pass sees
another's warm engine caches.  Passes repeat while the next one still fits
in ``run_seconds`` of BENCHMARK.json; every metric is the median over the
passes.  Times are corrected for the host's speed (``hostclock.py``); the
plain wall-time medians are printed in each row as ``wall_run_s`` and
``wall_setup_s``.  The run length belongs to the benchmark alone: ``--seconds`` is
accepted only so that the standard invocation can pass it, and must equal
``run_seconds``.

With ``--trace 0`` (the default) the end-to-end metrics of BENCHMARK.json
are reported, from untraced passes only.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced
ones; ``trace.overhead_s`` is the traced minus the untraced median
``run_s``.  Spans of the last traced pass are written to
``perfbench/out/spans-<workload>.json``.

Output: an environment header, one row per workload naming every metric
with its unit, and, for a single workload, a last line holding one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# every pass gets the same single-threaded BLAS and hash seed; with two
# BLAS threads the wall time is the same and the CPU time doubles
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
RUN_LIMIT_S = 170.0  # no run may take longer than three minutes


class BenchError(Exception):
    pass


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, src: str, traced: bool, timeout: float,
             reference: bool, plant_fault: bool = False) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--src", src, "--out", OUT,
    ]
    if traced:
        cmd.append("--trace")
    if reference:
        cmd += ["--reference", REFERENCE]
    if plant_fault:
        cmd.append("--plant-fault")
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def run_workload(workload: str, seed: int, seconds: float, src: str, trace: bool,
                 started: float) -> dict:
    """Passes until the next one would end after ``seconds``."""
    reference = seed == DEFAULT_SEED
    if reference and not os.path.exists(REFERENCE):
        raise BenchError(f"missing {REFERENCE}; run --record-reference")
    t0 = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        want_traced = trace and len(traced) < len(plain)
        kinds = traced if want_traced else plain
        # the first pass of each kind always runs; later ones only if they fit
        if plain and (traced or not trace):
            if time.perf_counter() - t0 + kinds[-1]["wall_s"] > seconds:
                break
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        kinds.append(run_pass(workload, seed, src, want_traced, left, reference))
    return summarize(workload, plain, traced)


def summarize(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    med = statistics.median
    everything = plain + traced
    out = {
        "workload": workload,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "problems": [p for r in everything for p in r["problems"]][:5],
        "numpy": plain[0]["numpy"],
        "metrics": {
            "run_s": med(r["run_s"] for r in plain),
            "setup_s": med(r["setup_s"] for r in plain),
            "item_p50_ms": med(percentile(r["item_ms"], 0.5) for r in plain),
            "item_p90_ms": med(percentile(r["item_ms"], 0.9) for r in plain),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        },
        "units": {
            "run_s": "s", "setup_s": "s", "item_p50_ms": "ms",
            "item_p90_ms": "ms", "peak_rss_mb": "MB",
        },
    }
    out["metrics"]["ops_failed_ratio"] = out["failed"] / out["attempted"]
    out["units"]["ops_failed_ratio"] = "ratio"
    # uncorrected wall times, printed for reference only
    out["metrics"]["wall_run_s"] = med(r["wall_run_s"] for r in plain)
    out["metrics"]["wall_setup_s"] = med(r["wall_setup_s"] for r in plain)
    out["units"]["wall_run_s"] = out["units"]["wall_setup_s"] = "s"
    if traced:
        import tracing

        layers = {
            name: med(r["layers"][name] for r in traced) for name in tracing.metric_names()
        }
        layers["trace.overhead_s"] = med(r["run_s"] for r in traced) - out["metrics"]["run_s"]
        out["layers"] = layers
        out["layer_units"] = {name: tracing.metric_unit(name) for name in layers}
    return out


def environment(src: str, seed: int, seconds: float) -> list[str]:
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=os.path.dirname(os.path.abspath(src)),
                              timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = " ".join(f"{k}={v}" for k, v in WORKER_ENV.items())
    return [
        f"# commit {commit}  src {src}",
        f"# nproc {len(os.sched_getaffinity(0))}  cpu {cpu}",
        f"# python {platform.python_version()}  worker env {blas}",
        f"# seed {seed}  seconds {seconds:g}",
    ]


def row(res: dict, trace: bool) -> str:
    parts = [
        f"{res['workload']:<13}",
        f"passes={res['passes']}" + (f"+{res['traced_passes']}traced" if trace else ""),
        f"numpy={res['numpy']}",
    ]
    metrics, units = (res["layers"], res["layer_units"]) if trace else (res["metrics"], res["units"])
    for name, value in metrics.items():
        parts.append(f"{name}={value:.6g} {units[name]}")
    if trace:
        parts.append(f"ops_failed_ratio={res['metrics']['ops_failed_ratio']:.6g} ratio")
    if res["problems"]:
        parts.append("problems: " + " | ".join(res["problems"]))
    return "  ".join(parts)


def self_test(seed: int, src: str) -> int:
    """A planted wrong value in the first operation of every workload must
    be counted as failed."""
    ok = True
    for w in WORKLOADS:
        res = run_pass(w, seed, src, False, RUN_LIMIT_S, seed == DEFAULT_SEED, plant_fault=True)
        flagged = res["failed"] >= 1
        ok &= flagged
        print(f"self-test {w}: planted fault {'flagged' if flagged else 'MISSED'}"
              f" ({'; '.join(res['problems']) or 'no problems reported'})")
    return 0 if ok else 1


def record_reference(src: str) -> int:
    ref = {}
    for w in WORKLOADS:
        res = run_pass(w, DEFAULT_SEED, src, False, RUN_LIMIT_S, False)
        if res["failed"]:
            print(f"{w}: {res['problems']}", file=sys.stderr)
            return 1
        ref[w] = json.loads(json.dumps(res["values"]), parse_float=lambda s: float(f"{float(s):.12g}"))
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=None,
                    help="must equal run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", default="src", help="the program's source directory")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "relmetric", "__init__.py")):
        print(f"error: no relmetric package under {src}", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds} differs from run_seconds {seconds}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    import compileall

    compileall.compile_dir(os.path.join(src, "relmetric"), quiet=1)

    try:
        if args.self_test:
            return self_test(args.seed, src)
        if args.record_reference:
            return record_reference(src)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        print("\n".join(environment(src, args.seed, seconds)))
        results = []
        for w in names:
            res = run_workload(w, args.seed, seconds, src, bool(args.trace),
                               started if len(names) == 1 else time.perf_counter())
            print(row(res, bool(args.trace)), flush=True)
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        res = results[0]
        if args.trace:
            declared = [m["name"] for m in spec["per_layer"]]
            values, units = res["layers"], res["layer_units"]
        else:
            declared = [m["name"] for m in spec["end_to_end"]]
            values, units = res["metrics"], res["units"]
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in declared},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
