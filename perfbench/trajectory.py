"""Append one point to ``trajectory.json``: the benchmark's medians and
quartiles over several seeds for every workload, plus one traced run each.

    python3 perfbench/trajectory.py --label "<commit> <what changed>" --seeds 1-10

Run from the repository root.  Every run is a separate ``run.py``
process with the benchmark's own ``run_seconds``; a run that fails its
correctness gate aborts the recording.  The spread printed per metric is
the distance between the first and third quartiles as a share of the
median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")

# the acceptance criterion whose wall-clock budget each workload stands in for
STANDS_IN_FOR = {
    "gauss-points": "criterion 2 (closed-form steppers)",
    "histories": "criteria 4 and 9",
    "newton-baselines": "criterion 2 (Newton baselines)",
}


def run(workload, seed, seconds, trace):
    """All measured values of one run (bounded or not) and its machine."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
        raise SystemExit(f"{' '.join(cmd)} failed:\n{out.stderr}")
    path = os.path.join(ROOT, ".perfbench", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return record["measured"], record["machine"]


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = parse_seeds(args.seeds)

    point = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in STANDS_IN_FOR:
        runs = []
        for seed in seeds:
            metrics, point["machine"] = run(wl, seed, seconds, 0)
            runs.append(metrics)
            print(wl, seed, {k: round(v, 4) for k, v in metrics.items()}, flush=True)
        end_to_end = {k: summary([r[k] for r in runs]) for k in runs[0]}
        for k, s in end_to_end.items():
            print(f"  {wl} {k:12s} median {s['median']:.5g}  spread {s['spread']:.4f}")
        per_layer, _ = run(wl, seeds[0], seconds, 1)
        point["workloads"][wl] = {"stands_in_for": STANDS_IN_FOR[wl],
                                  "end_to_end": end_to_end, "per_layer": per_layer}

    history = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            history = json.load(fh)
    history.append(point)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
