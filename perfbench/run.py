"""mrmaxwell benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload gauss-points --seed 1 --seconds 35 --trace 0

Run from the repository root.  The workload's fixed list of ops is built
from the seed (the set-up), then executed in rounds, a closed loop with
one caller, until ``--seconds`` are used (at least three rounds).  The
set-up is repeated after every round; ``setup_s`` is the fastest.  Each
op's time is its minimum over the rounds; ``wall_s`` is their sum, the
time to finish the workload's fixed work once, and
``op_p50_us``/``op_p99_us`` are percentiles over the ops.

With ``--trace 1`` untraced and traced rounds alternate, and the run
reports the per-layer metrics of ``spans.py`` plus replayed per-call
costs of the 3x3 primitives, instead of the end-to-end metrics.

Every round's outputs are checked (exactly symmetric, SPD, unimodular
states; finite stresses; Lagrangian/Eulerian agreement) and a seeded
subset of the golden pool is replayed (``gate.py``).  A failed check
prints ``"correct": false`` and exits 1.  ``--fault stress|state``
corrupts the library's step results, to show that the gate rejects them.

The last line of standard output is the JSON result; a run record with
the machine description, and the traced run's spans, go to
``.perfbench/`` in the working directory.
"""

import bootstrap  # pins BLAS threads, imports mrmaxwell from src/

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import mrmaxwell as mm
from mrmaxwell import tensor3 as t3

import gate
import spans
from workloads import PROBES, WORKLOADS, plain_lib

MIN_ROUNDS = 3
REPLAY_CALLS = 256
OUT_DIR = ".perfbench"
# measured and printed, but not in BENCHMARK.json: on a shared host the
# spread of op_p99_us between runs exceeds the largest bound allowed
REPORTED_ONLY = {"op_p99_us": "us"}


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_VARS},
    }


def faulty(lib, kind):
    """``lib`` whose Lagrangian steppers return a corrupted result: the
    stress off by 1e-9 relative, or the state off exact symmetry by one
    ulp (built without the state's own validation)."""

    def corrupt(step):
        def wrapped(*args, **kwargs):
            res = step(*args, **kwargs)
            if kind == "stress":
                return dataclasses.replace(res, stress=res.stress * (1.0 + 1e-9))
            Ci = np.array(res.state.Ci)
            Ci[0, 1] = np.nextafter(Ci[0, 1], np.inf)
            state = object.__new__(mm.LagrangianState)
            object.__setattr__(state, "Ci", Ci)
            return dataclasses.replace(res, state=state)

        return wrapped

    lib.steppers = {m: corrupt(f) for m, f in lib.steppers.items()}
    return lib


class Tally:
    """Op counts and check failures over every measured round."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, times, outs):
        ran = ~np.isnan(times)
        self.attempted += int(ran.sum())
        self.failed += sum(out is None for out, r in zip(outs, ran) if r)
        self.errors += self.w.check(outs)


def op_times(rounds):
    """Each op's fastest time over the rounds.  The host's speed changes
    from one second to the next; the minimum over enough rounds finds
    each op's uncontended cost, where a median follows the drift."""
    return np.nanmin(np.vstack(rounds), axis=0)


def run_untraced(name, seed, w, lib, seconds, tally, setup_times):
    """Rounds until ``seconds`` are used; one more set-up after each round,
    so the set-up times sample the whole run, as the ops do."""
    rounds = []
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        times, outs = w.run_round(lib)
        tally.add(times, outs)
        rounds.append(times)
        setup_times.append(timed_setup(name, seed)[1])
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and (now - start) + (now - r0) > seconds:
            return rounds


def probe(name, seed, lib):
    """Traced slices of the other workloads, for the layers ``name`` bypasses."""
    tracer = spans.Tracer()
    traced = spans.traced_lib(lib, tracer)
    for other, make in PROBES.items():
        if other != name:
            make(seed).run_round(traced)
    return tracer


def run_traced(name, seed, w, lib, seconds, tally):
    """Alternate untraced and traced rounds; per-layer metrics from the
    traced ones.  Counts must repeat exactly from one traced round to the
    next."""
    plain_rounds, traced_rounds, times_by_round, counts = [], [], [], []
    first = None
    branches = len(mm.load_model(mm.table_model_path()).branches)
    start = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        times, outs = w.run_round(lib)
        tally.add(times, outs)
        plain_rounds.append(times)

        tracer = spans.Tracer()
        with tracer.counting_eigh():
            times, outs = w.run_round(spans.traced_lib(lib, tracer))
        tally.add(times, outs)
        traced_rounds.append(times)
        main = spans.LayerStats(tracer)
        counts.append(spans.layer_counts(main, w.n_ops, tracer.eigh_calls))
        ptracer = probe(name, seed, lib)
        times_by_round.append(spans.layer_times(main, spans.LayerStats(ptracer), branches))
        if first is None:
            first = (tracer, ptracer)
        now = time.perf_counter()
        if len(plain_rounds) >= 2 and (now - start) + (now - r0) > seconds:
            break
    if any(c != counts[0] for c in counts[1:]):
        tally.errors.append(f"layer counts differ between traced rounds: {counts}")
    metrics = dict(counts[0])
    for key in times_by_round[0]:
        metrics[key] = statistics.median(t[key] for t in times_by_round)
    metrics.update(replay(w))
    untraced = float(np.nansum(op_times(plain_rounds)))
    traced = float(np.nansum(op_times(traced_rounds)))
    metrics["trace.overhead_s"] = traced - untraced
    return metrics, first, len(plain_rounds) + len(traced_rounds)


def replay(w):
    """Per-call cost of the 3x3 primitives and of state validation,
    replayed on the workload's own inputs (median of five passes)."""
    Cs, Cis = (x[:REPLAY_CALLS] for x in w.replay_inputs())
    devs = [t3.deviator(C) for C in Cs]

    def per_call_us(fn, xs):
        passes = []
        for _ in range(5):
            t0 = time.perf_counter()
            for x in xs:
                fn(x)
            passes.append(time.perf_counter() - t0)
        return statistics.median(passes) / len(xs) * 1e6

    return {
        "tensor3.eigh_us": per_call_us(np.linalg.eigh, Cs),
        "tensor3.det_us": per_call_us(t3.det, Cs),
        "tensor3.inverse_us": per_call_us(t3.inverse, Cs),
        "tensor3.unimodular_us": per_call_us(t3.unimodular, Cs),
        "tensor3.mat_exp_us": per_call_us(t3.mat_exp, devs),
        "constitutive.state_check_us": per_call_us(mm.LagrangianState, Cis),
    }


def timed_setup(name, seed):
    t0 = time.perf_counter()
    w = WORKLOADS[name](seed)
    return w, time.perf_counter() - t0


def declared_units(trace):
    """Metric name -> unit, as ``BENCHMARK.json`` declares them for the mode."""
    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("stress", "state"))
    args = ap.parse_args(argv)

    env = machine()
    units = declared_units(args.trace)
    lib = plain_lib()
    if args.fault:
        lib = faulty(lib, args.fault)
    w, t_setup = timed_setup(args.workload, args.seed)
    setup_times = [t_setup]
    tally = Tally(w)
    tally.errors += gate.golden_errors(args.workload, args.seed, lib)

    first, round_sums = None, []
    if args.trace:
        measured, first, n_rounds = run_traced(
            args.workload, args.seed, w, lib, args.seconds, tally
        )
    else:
        rounds = run_untraced(args.workload, args.seed, w, lib, args.seconds, tally, setup_times)
        n_rounds = len(rounds)
        round_sums = [float(np.nansum(r)) for r in rounds]
        best = op_times(rounds)
        measured = {
            "wall_s": float(np.nansum(best)),
            "op_p50_us": float(np.nanpercentile(best, 50)) * 1e6,
            "op_p99_us": float(np.nanpercentile(best, 99)) * 1e6,
            "setup_s": min(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    missing = set(units) - set(measured)
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json metrics {sorted(missing)} not measured")
    frac = tally.failed / max(tally.attempted, 1)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT_DIR, exist_ok=True)
    if first is not None:
        path = os.path.join(OUT_DIR, f"{tag}-spans.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("source,name,start_s,end_s,parent,op,self_s\n")
        first[0].write_csv(path, "workload")
        first[1].write_csv(path, "probe")

    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": measured[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  fault=args.fault, ops_per_round=w.n_ops, rounds=n_rounds,
                  round_sums_s=round_sums, measured=measured, failed_frac=frac,
                  errors=tally.errors[:20], machine=env)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"machine {json.dumps(env)}")
    print(f"{args.workload} seed {args.seed}: {w.n_ops} ops per round, {n_rounds} rounds; "
          f"percentiles over the {w.n_ops} per-op minima")
    for k, v in measured.items():
        note = "" if k in units else "  (reported, not bounded)"
        print(f"  {k:40s} {v:.6g} {units.get(k, REPORTED_ONLY.get(k))}{note}")
    print(f"  {'failed_frac':40s} {frac:.6g} ({tally.failed}/{tally.attempted} ops)")
    for e in tally.errors[:10]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
