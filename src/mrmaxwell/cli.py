"""Command-line front end for the verification studies.

Subcommands map one-to-one onto the harness studies::

    mrmaxwell nonprop        --dt 0.1 --eta 1.0 --out results/
    mrmaxwell convergence    --dt 0.1
    mrmaxwell tangent-sweep  --c01 0.5
    mrmaxwell uniaxial       --model params.json
    mrmaxwell robustness     --seed 7 --summary json

A subcommand has a flag for each ``RunConfig`` field its study reads
(``_STUDIES``), plus ``--out`` and ``--summary``.  Any other flag, and a
value that the configuration or the study rejects with a ``DomainError``,
is a usage error: exit status 2, with the error's own message.  Otherwise
the run prints a pass/fail summary (text or JSON), writes its CSV tables
to ``--out`` when given, and exits 0 exactly when all its self-checks pass.
"""

from __future__ import annotations

import argparse
import sys

from .errors import DomainError
from .harness import (
    METHOD_NAMES,
    RunConfig,
    run_convergence,
    run_error_study,
    run_robustness,
    run_tangent_sweep,
    run_uniaxial,
)

# flag spelling and argparse keywords of each RunConfig field a study reads
_FLAGS = {
    "dt": ("--dt", dict(type=float, help="time step")),
    "eta": ("--eta", dict(type=float, help="viscosity")),
    "c10": ("--c10", dict(type=float)),
    "c01": ("--c01", dict(type=float)),
    "methods": ("--method", dict(choices=("all", *METHOD_NAMES),
                                 help="stepper selection (default: all)")),
    "formulation": ("--formulation", dict(choices=("lagrangian", "eulerian"))),
    "reference_substeps": ("--reference-substeps", dict(
        type=int, help="total closed-form substeps of the reference solution")),
    "seed": ("--seed", dict(type=int)),
    "model_file": ("--model", dict(metavar="MODEL", help="composite model JSON file")),
    "cycles": ("--cycles", dict(type=int)),
    "coarse_steps_per_cycle": ("--coarse-steps",
                               dict(type=int, metavar="COARSE_STEPS")),
    "fine_steps_per_cycle": ("--fine-steps", dict(type=int, metavar="FINE_STEPS")),
}

# each subcommand's study and the RunConfig fields that study reads
_STUDIES = {
    "nonprop": (run_error_study, ("dt", "eta", "c10", "c01", "methods",
                                  "formulation", "reference_substeps")),
    "convergence": (run_convergence, ("dt", "eta", "c10", "c01", "methods",
                                      "reference_substeps")),
    "tangent-sweep": (run_tangent_sweep, ("c10", "c01", "methods")),
    "uniaxial": (run_uniaxial, ("methods", "model_file", "cycles",
                                "coarse_steps_per_cycle", "fine_steps_per_cycle")),
    "robustness": (run_robustness, ("eta", "c10", "c01", "methods", "seed")),
}


def _build_parser() -> argparse.ArgumentParser:
    # study options have no argparse default: an option left out is left
    # out of the namespace, so RunConfig's own default applies
    parser = argparse.ArgumentParser(
        prog="mrmaxwell",
        description="verification studies for the finite-strain Maxwell material",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for name, (_, fields) in _STUDIES.items():
        sp = sub.add_parser(
            name, help=f"run the {name} study", argument_default=argparse.SUPPRESS
        )
        for field in fields:
            flag, keywords = _FLAGS[field]
            sp.add_argument(flag, dest=field, **keywords)
        sp.add_argument("--out", default=None, help="directory for CSV output")
        sp.add_argument("--summary", default="text", choices=["text", "json"])
        sp.set_defaults(parser=sp)
    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    study, parser, out, summary = (
        options.pop(k) for k in ("study", "parser", "out", "summary")
    )
    run, _ = _STUDIES[study]
    try:
        result = run(RunConfig(**options))
    except DomainError as exc:
        parser.error(str(exc))
    if out:
        for path in result.write(out):
            print(f"wrote {path}", file=sys.stderr)
    print(result.summary(summary))
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
