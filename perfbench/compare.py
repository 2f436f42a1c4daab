"""Parent-versus-change comparison with the benchmark's own bounds.

    python3 perfbench/compare.py --parent DIR --change DIR
        [--workload NAME ...] [--pairs 10]

DIR is a checkout root holding ``src/relmetric``.  Both sides are measured
by the benchmark code next to this file, with identical settings: runs of
``run_seconds`` from BENCHMARK.json, every run on the default seed (so a
side's spread is the host's noise, not differences in work between seeds,
and the outputs are also checked against the recorded reference).  The side
that runs first alternates from pair to pair.

For every workload and end-to-end metric the row gives each side's median,
the change in percent, the pairs the change won and the wider of the two
sides' spreads (interquartile range over median), then the first verdict
that applies:

- ``regression``: the change lost at least 9 of every 10 pairs (ties count
  for neither side) and its median is worse by more than the bound;
- ``gain``: the change won at least 9 of every 10 pairs and the medians
  differ by more than the parent's interquartile range;
- ``better``: every change run beat every parent run;
- ``worse``: every change run was beaten by every parent run;
- ``unresolved``: either side's spread is wider than the metric's bound;
- ``regression``: the change's median is worse by more than the bound;
- ``within bound`` otherwise.

A workload on which the change fails more operations than the parent is
marked, and no gain on it counts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def measure(side_root: str, workload: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(DEFAULT_SEED), "--trace", "0", "--src", os.path.join(side_root, "src")]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{side_root} {workload}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    qp, qc = statistics.quantiles(parent, n=4), statistics.quantiles(change, n=4)
    iqr_p = qp[2] - qp[0]
    spread = max(iqr_p / abs(mp), (qc[2] - qc[0]) / abs(mc))
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    gained = sign * (mp - mc)  # > 0 when the change is better
    if losses >= 0.9 * len(parent) and -gained / abs(mp) > bound:
        verdict = "regression"
    elif wins >= 0.9 * len(parent) and gained > iqr_p:
        verdict = "gain"
    elif max(sign * c for c in change) < min(sign * p for p in parent):
        verdict = "better"
    elif min(sign * c for c in change) > max(sign * p for p in parent):
        verdict = "worse"
    elif spread > bound:
        verdict = "unresolved"
    elif -gained / abs(mp) > bound:
        verdict = "regression"
    else:
        verdict = "within bound"
    return {
        "parent": {"median": mp, "q1": qp[0], "q3": qp[2]},
        "change": {"median": mc, "q1": qc[0], "q3": qc[2]},
        "wins": wins,
        "pairs": len(parent),
        "change_pct": (mc - mp) / abs(mp) * 100.0,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 10:
        ap.error("a comparison needs at least 10 pairs")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    for w in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(measure(root, w))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
        verdicts = {}
        for m in spec["end_to_end"]:
            values = {side: [r["metrics"][m["name"]]["value"] for r in rs] for side, rs in runs.items()}
            verdicts[m["name"]] = judge(values["parent"], values["change"], m["better"], m["bound"])
        more_failures = failed["change"] > failed["parent"]
        if more_failures:
            for v in verdicts.values():
                if v["verdict"] == "gain":
                    v["verdict"] = "gain void: more failed ops"
        cells = [
            f"{name} {v['parent']['median']:.4g}->{v['change']['median']:.4g} "
            f"({v['change_pct']:+.1f}%, wins {v['wins']}/{v['pairs']}, "
            f"spread {v['spread']:.3f}/{v['bound']:g}) {v['verdict']}"
            for name, v in verdicts.items()
        ]
        print(f"{w:<13} failed {failed['parent']}->{failed['change']}  " + "  |  ".join(cells),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
