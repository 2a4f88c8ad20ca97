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
    parser = argparse.ArgumentParser(
        prog="mrmaxwell",
        description="verification studies for the finite-strain Maxwell material",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for name in _STUDIES:
        sp = sub.add_parser(name, help=f"run the {name} study")
        sp.add_argument("--dt", type=float, default=0.1, help="time step")
        sp.add_argument("--eta", type=float, default=1.0, help="viscosity")
        sp.add_argument("--c10", type=float, default=1.0)
        sp.add_argument("--c01", type=float, default=1.0)
        sp.add_argument(
            "--method",
            default="all",
            choices=["all", "ifebm", "2iebm", "mebm", "em"],
            help="stepper selection (default: all)",
        )
        sp.add_argument(
            "--formulation",
            default="lagrangian",
            choices=["lagrangian", "eulerian"],
        )
        sp.add_argument("--out", default=None, help="directory for CSV output")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument(
            "--fd-step",
            type=float,
            default=None,
            help="finite-difference step for consistent tangents",
        )
        sp.add_argument("--summary", default="text", choices=["text", "json"])
        sp.add_argument(
            "--reference-substeps",
            type=int,
            default=100_000,
            help="total closed-form substeps of the reference solution",
        )
        if name == "uniaxial":
            sp.add_argument(
                "--model", default=None, help="composite model JSON file"
            )
            sp.add_argument("--cycles", type=int, default=2)
            sp.add_argument("--coarse-steps", type=int, default=50)
            sp.add_argument("--fine-steps", type=int, default=5000)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = RunConfig(
        dt=args.dt,
        eta=args.eta,
        c10=args.c10,
        c01=args.c01,
        methods=args.method,
        formulation=args.formulation,
        reference_substeps=args.reference_substeps,
        seed=args.seed,
        fd_step=args.fd_step,
        model_file=getattr(args, "model", None),
        cycles=getattr(args, "cycles", 2),
        coarse_steps_per_cycle=getattr(args, "coarse_steps", 50),
        fine_steps_per_cycle=getattr(args, "fine_steps", 5000),
    )
    result = _STUDIES[args.study](cfg)
    if args.out:
        for path in result.write(args.out):
            print(f"wrote {path}", file=sys.stderr)
    print(result.summary(args.summary))
    return 0 if result.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
