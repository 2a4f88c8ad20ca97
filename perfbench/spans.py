"""Spans recorded around the calls into each library layer.

The library already takes its collaborators as arguments: the
``stepper`` of ``consistent_tangent`` and ``uniaxial_axial_stress`` and
the ``C_of_t`` of ``reference_solve``.  :func:`traced_lib` hands wrapped
callables through those arguments, so a step taken inside a tangent or a
composite step is recorded as a child span of it without editing
``src/``.  Spans live in memory and are written out once, at the end.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import time
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

STEP = "constitutive.step"
EULERIAN = "constitutive.eulerian_step"
NEWTON = "constitutive.newton_step"
REFERENCE = "constitutive.reference_solve"
TANGENT = "tangent.consistent_tangent"
COMPOSITE = "composite.uniaxial"
PROGRAM = "harness.program_C"


class Tracer:
    """In-memory span log: ``[name, start, end, parent, op, info]``."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self.op = -1
        self.eigh_calls = 0

    def start_op(self, i):
        self.op = i

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        return traced

    @contextmanager
    def counting_eigh(self):
        """Count ``numpy.linalg.eigh`` calls made by the library."""
        orig = np.linalg.eigh

        def eigh(*args, **kwargs):
            self.eigh_calls += 1
            return orig(*args, **kwargs)

        np.linalg.eigh = eigh
        try:
            yield
        finally:
            np.linalg.eigh = orig

    def self_times(self):
        covered = np.zeros(len(self.spans))
        for name, start, end, parent, op, info in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return np.array([end - start for _, start, end, *_ in self.spans]) - covered

    def write_csv(self, path, label):
        with open(path, "a", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            for (name, start, end, parent, op, _), own in zip(self.spans, self.self_times()):
                w.writerow([label, name, repr(start), repr(end), parent, op, repr(own)])


def _newton_info(res):
    d = res.diagnostics
    return (d.iterations, d.substeps, d.divergences)


def traced_lib(lib, tracer):
    """``lib`` with every library entry point wrapped in a span."""
    closed = {"ifebm", "2iebm"}
    return SimpleNamespace(
        steppers={
            m: tracer.wrap(STEP, f) if m in closed else tracer.wrap(NEWTON, f, _newton_info)
            for m, f in lib.steppers.items()
        },
        eulerian=tracer.wrap(EULERIAN, lib.eulerian),
        tangent=tracer.wrap(TANGENT, lib.tangent),
        uniaxial=tracer.wrap(COMPOSITE, lib.uniaxial),
        reference=tracer.wrap(REFERENCE, lib.reference),
        program_C=lambda program: tracer.wrap(PROGRAM, lib.program_C(program)),
        start_op=tracer.start_op,
    )


class LayerStats:
    """Per span name: call count, summed self time, child counts by name."""

    def __init__(self, tracer):
        own = tracer.self_times()
        self.count, self.self_s, self.children, self.infos = {}, {}, {}, {}
        for (name, _, _, parent, _, info), t in zip(tracer.spans, own):
            self.count[name] = self.count.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + t
            if parent >= 0:
                key = (tracer.spans[parent][0], name)
                self.children[key] = self.children.get(key, 0) + 1
            if info is not None:
                self.infos.setdefault(name, []).append(info)

    def has(self, name):
        return self.count.get(name, 0) > 0

    def per_call(self, name):
        return self.self_s[name] / self.count[name]


def layer_counts(main, n_ops, eigh_calls):
    """Counts of one round of the workload's own ops; exact per seed."""
    newton = np.array(main.infos.get(NEWTON, np.zeros((0, 3))), dtype=int).reshape(-1, 3)
    c = main.count.get
    return {
        "tensor3.eigh_calls_per_op": eigh_calls / n_ops,
        "constitutive.steps_per_op": (c(STEP, 0) + c(EULERIAN, 0) + c(NEWTON, 0)) / n_ops,
        "constitutive.newton_iterations": int(newton[:, 0].sum()),
        "constitutive.bisections": int(newton[:, 1].sum()),
        "constitutive.divergences": int(newton[:, 2].sum()),
        "composite.branch_steps": main.children.get((COMPOSITE, STEP), 0),
        "harness.program_calls": c(PROGRAM, 0),
    }


def layer_times(main, probe, branches):
    """Per-call metrics of each layer.

    Taken from the workload's own spans where its ops reach the layer, and
    otherwise from the probe (a traced slice of the workload that does),
    so every metric is measured in every workload.
    """

    def src(name):
        return main if main.has(name) else probe

    s = src(COMPOSITE)
    composite_steps = s.children.get((COMPOSITE, STEP), 0) / branches
    t = src(TANGENT)
    n = src(NEWTON)
    newton = np.array(n.infos[NEWTON], dtype=int).reshape(-1, 3)
    # each bisection abandons one Newton solve and starts two new ones
    attempts = len(newton) + 2 * int(newton[:, 1].sum())
    return {
        "constitutive.step_self_us": src(STEP).per_call(STEP) * 1e6,
        "constitutive.eulerian_step_us": src(EULERIAN).per_call(EULERIAN) * 1e6,
        "constitutive.reference_solve_self_s": src(REFERENCE).per_call(REFERENCE),
        "constitutive.newton_step_us": n.per_call(NEWTON) * 1e6,
        "constitutive.newton_useful_ratio": (attempts - int(newton[:, 2].sum())) / attempts,
        "tangent.self_us": t.per_call(TANGENT) * 1e6,
        "tangent.steps_per_tangent": t.children.get((TANGENT, STEP), 0) / t.count[TANGENT],
        "composite.self_us": s.self_s[COMPOSITE] / composite_steps * 1e6,
        "harness.program_self_us": src(PROGRAM).per_call(PROGRAM) * 1e6,
    }
