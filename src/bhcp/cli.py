"""Command line front end for the benchmark driver.

One subcommand, ``run``, executes an experiment matrix and writes a CSV:

    bhcp run --example 1 --method pint-qbvm --solver pint \\
        --mesh 1024x1024 --eps 1e-1,1e-3 --seed 7 --out results.csv

Exit status is 0 when every row completed or was refused in a structured
way (refusals are expected outcomes; SolveResult lists them, and README's
exit-code paragraph says when each happens), 1 when any row errored, and 2
when the configuration or an output path was rejected before any run. A
reproducibility banner echoing the resolved configuration is printed
before the runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .bench import (
    ALPHA_RULES,
    CSV_COLUMNS,
    SOLVERS,
    ExperimentConfig,
    emit_csv,
    run_experiment,
)
from .methods import MethodKind

METHOD_TOKENS = tuple(kind.value for kind in MethodKind) + ("all",)


def _parse_mesh_list(text: str):
    meshes = []
    for token in text.split(","):
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(
                f"mesh {token!r} is not of the form MxN"
            )
        try:
            meshes.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"mesh {token!r} is not of the form MxN"
            ) from None
    return tuple(meshes)


def _parse_eps_list(text: str):
    try:
        return tuple(float(token) for token in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"eps list {text!r} is not comma-separated floats"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhcp",
        description=(
            "Backward heat reconstruction benchmarks: quasi-boundary value "
            "regularization with fast all-at-once solvers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment matrix, write a CSV")
    run.add_argument("--example", type=int, choices=(1, 2), required=True)
    run.add_argument("--method", choices=METHOD_TOKENS, required=True)
    run.add_argument("--solver", choices=SOLVERS, required=True)
    run.add_argument(
        "--mesh",
        type=_parse_mesh_list,
        required=True,
        metavar="MxN[,MxN...]",
        help="spatial subdivisions x time steps, comma separated",
    )
    run.add_argument(
        "--eps",
        type=_parse_eps_list,
        required=True,
        metavar="LIST",
        help="comma-separated relative noise levels in [0, 1] (0 for noise-free)",
    )
    run.add_argument(
        "--alpha-rule",
        default="auto",
        metavar="RULE",
        help=(
            " | ".join(("auto", *ALPHA_RULES, "fixed:VALUE"))
            + " (default: auto, the per-method pairing)"
        ),
    )
    run.add_argument("--seed", type=int, required=True, help="root RNG seed")
    run.add_argument("--out", required=True, help="CSV output path")
    run.add_argument(
        "--profiles",
        default=None,
        metavar="DIR",
        help="also dump per-run reconstruction profiles into DIR",
    )
    run.add_argument(
        "--repeats", type=int, default=1, help="noise draws per cell (default 1)"
    )
    return parser


def _check_outputs(out: str, profiles: Optional[str]) -> None:
    """Reject an unwritable CSV path and create the profile directory.

    Both are settled before the sweep, so a bad path loses no results.
    """
    if not out:
        raise ValueError("--out is empty")
    if os.path.isdir(out):
        raise ValueError(f"--out {out!r} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {out!r}: directory {parent!r} does not exist")
    if profiles is not None:
        try:
            os.makedirs(profiles, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--profiles {profiles!r}: {exc.strerror}") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.method == "all":
        methods = tuple(MethodKind)
    else:
        methods = (MethodKind(args.method),)
    try:
        config = ExperimentConfig(
            example=args.example,
            methods=methods,
            solver=args.solver,
            meshes=args.mesh,
            eps_values=args.eps,
            seed=args.seed,
            alpha_rule=args.alpha_rule,
            repeats=args.repeats,
            profiles_dir=args.profiles,
        )
        _check_outputs(args.out, args.profiles)
    except ValueError as exc:
        print(f"bhcp: {exc}", file=sys.stderr)
        return 2

    print("# bhcp run")
    print(
        f"# example={config.example} methods={[k.value for k in config.methods]} "
        f"solver={config.solver}"
    )
    print(
        f"# meshes={list(config.meshes)} eps={list(config.eps_values)} "
        f"repeats={config.repeats}"
    )
    print(
        f"# alpha_rule={config.alpha_rule} seed={config.seed} "
        f"out={args.out} profiles={config.profiles_dir}"
    )

    reports = run_experiment(config)
    emit_csv(reports, args.out)

    for report in reports:
        wall = "shared" if report.shared else f"wall={report.wall_total_s:.3f}s"
        print(
            f"{report.method:>11} M={report.M:<5} N={report.N:<5} "
            f"eps={report.eps:<8g} delta={report.delta:.3e} "
            f"alpha={report.alpha:.3e} e_h={report.error_l2:.4f} "
            f"{wall} {report.status}"
        )
    print(f"# wrote {len(reports)} rows ({CSV_COLUMNS.count(',') + 1} columns) to {args.out}")
    return 1 if any(report.status == "error" for report in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
