"""Command-line front end for the verification studies.

Subcommands map one-to-one onto the harness studies::

    mrmaxwell nonprop        --dt 0.1 --eta 1.0 --out results/
    mrmaxwell convergence    --dt 0.1
    mrmaxwell tangent-sweep  --fd-step 1e-6
    mrmaxwell uniaxial       --model params.json
    mrmaxwell robustness     --seed 7 --summary json

Every run prints a pass/fail summary (text or JSON) and exits with
status 0 exactly when all self-checks of the invoked study pass.  CSV
tables are written to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    RunConfig,
    run_convergence,
    run_error_study,
    run_robustness,
    run_tangent_sweep,
    run_uniaxial,
)

_STUDIES = {
    "nonprop": run_error_study,
    "convergence": run_convergence,
    "tangent-sweep": run_tangent_sweep,
    "uniaxial": run_uniaxial,
    "robustness": run_robustness,
}


def _build_parser() -> argparse.ArgumentParser:
    # study options have no argparse default: an option left out is left
    # out of the namespace, so RunConfig's own default applies
    parser = argparse.ArgumentParser(
        prog="mrmaxwell",
        description="verification studies for the finite-strain Maxwell material",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for name in _STUDIES:
        sp = sub.add_parser(
            name, help=f"run the {name} study", argument_default=argparse.SUPPRESS
        )
        sp.add_argument("--dt", type=float, help="time step")
        sp.add_argument("--eta", type=float, help="viscosity")
        sp.add_argument("--c10", type=float)
        sp.add_argument("--c01", type=float)
        sp.add_argument(
            "--method",
            dest="methods",
            choices=["all", "ifebm", "2iebm", "mebm", "em"],
            help="stepper selection (default: all)",
        )
        sp.add_argument("--formulation", choices=["lagrangian", "eulerian"])
        sp.add_argument("--out", default=None, help="directory for CSV output")
        sp.add_argument("--seed", type=int)
        sp.add_argument(
            "--fd-step",
            type=float,
            help="finite-difference step for consistent tangents",
        )
        sp.add_argument("--summary", default="text", choices=["text", "json"])
        sp.add_argument(
            "--reference-substeps",
            type=int,
            help="total closed-form substeps of the reference solution",
        )
        if name == "uniaxial":
            sp.add_argument(
                "--model",
                dest="model_file",
                metavar="MODEL",
                help="composite model JSON file",
            )
            sp.add_argument("--cycles", type=int)
            sp.add_argument(
                "--coarse-steps",
                dest="coarse_steps_per_cycle",
                metavar="COARSE_STEPS",
                type=int,
            )
            sp.add_argument(
                "--fine-steps",
                dest="fine_steps_per_cycle",
                metavar="FINE_STEPS",
                type=int,
            )
    return parser


def main(argv=None) -> int:
    options = vars(_build_parser().parse_args(argv))
    study, out, summary = (options.pop(k) for k in ("study", "out", "summary"))
    result = _STUDIES[study](RunConfig(**options))
    if out:
        for path in result.write(out):
            print(f"wrote {path}", file=sys.stderr)
    print(result.summary(summary))
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
