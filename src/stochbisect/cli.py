"""Command-line experiment runner.

Subcommands map one to one onto the experiment functions; reports are
written as CSV (default) or JSON to stdout or --out. Exit codes: 0 on
success, 2 on argument or spec errors, 3 on numerical precondition
failures (invalid bracket, endpoint atoms, degenerate samples).
"""

from __future__ import annotations

import argparse
import sys

from .distributions import DomainError, NoDensityError
from .engine import BracketError, CutRedrawError
from .markov import BandHypothesisError, EndpointAtomError
from .stats import DegenerateSampleError
from . import experiments
from .experiments import DEFAULT_SEED, report_to_csv, report_to_json

_NUMERICAL_ERRORS = (
    BracketError,
    CutRedrawError,
    DomainError,
    NoDensityError,
    EndpointAtomError,
    BandHypothesisError,
    DegenerateSampleError,
    ArithmeticError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common(parser: argparse.ArgumentParser, runs: int, iters: int | None) -> None:
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="master seed")
    parser.add_argument("--runs", type=int, default=runs, help="number of runs")
    if iters is not None:
        parser.add_argument("--iters", type=int, default=iters, help="iterations per run")
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_bootstrap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--level", type=float, default=0.95, help="CI level")
    parser.add_argument("--resamples", type=int, default=2000,
                        help="bootstrap resample count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochbisect",
        description="Stochastic bisection experiments: contraction rates, "
                    "stationarity, operator iteration, and theory values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contraction", help="Mean scaling factor of random-cut bisection vs theory")
    p.add_argument("--dist", default="uniform", help="cut distribution spec")
    p.add_argument("--tol", type=float, default=1e-15)
    _add_bootstrap(p)
    _add_common(p, runs=500, iters=30)

    p = sub.add_parser("ksection", help="K-cut scaling factor vs 2/(K+2)")
    p.add_argument("--k", type=int, default=2, help="cuts per iteration")
    _add_bootstrap(p)
    _add_common(p, runs=500, iters=30)

    p = sub.add_parser("fixed-root", help="Iteration-count statistics for a fixed root")
    p.add_argument("--r", type=float, required=True, help="fixed root in (0,1)")
    p.add_argument("--dist", default="uniform", help="cut distribution spec")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=1000)
    _add_bootstrap(p)
    _add_common(p, runs=1000, iters=None)  # runs stop at --tol or --max-iter

    p = sub.add_parser("stationarity", help="Q-Q and KS of the normalized roots")
    p.add_argument("--root-dist", default="uniform", help="initial root law")
    p.add_argument("--dist", default="uniform", help="cut distribution spec")
    p.add_argument("--alpha", type=float, default=0.01, help="KS test level")
    _add_common(p, runs=1000, iters=40)

    p = sub.add_parser("decay", help="KS decay toward uniform and its fitted rate")
    p.add_argument("--root-dist", required=True, help="initial root law")
    p.add_argument("--dist", default="uniform", help="cut distribution spec")
    _add_common(p, runs=10_000, iters=50)

    p = sub.add_parser("correlation", help="Correlation matrix of scaling factors")
    p.add_argument("--root-dist", required=True, help="initial root law")
    p.add_argument("--dist", required=True, help="cut distribution spec")
    _add_common(p, runs=10_000, iters=14)

    p = sub.add_parser("operator", help="Iterate the root-law operator on a grid CDF")
    p.add_argument("--g0", default="cubic",
                   help="starting CDF: a distribution spec, 'cubic', or 'identity'")
    p.add_argument("--dist", default="uniform", help="cut distribution spec")
    p.add_argument("--k", type=int, default=30, help="operator applications")
    p.add_argument("--grid", type=int, default=2049, help="grid nodes")
    p.add_argument("--delta", type=float, default=0.25, help="band width for the bound")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_output(p)

    p = sub.add_parser("theory", help="Closed-form values for a distribution spec")
    p.add_argument("--dist", required=True, help="distribution spec")
    p.add_argument("--k-max", type=int, default=6)
    _add_output(p)

    return parser


def _run(args: argparse.Namespace) -> experiments.ExperimentReport:
    if args.command == "contraction":
        return experiments.run_contraction_experiment(
            args.dist, args.runs, args.iters, args.tol, args.seed,
            args.level, args.resamples)
    if args.command == "ksection":
        return experiments.run_ksection_experiment(
            args.k, args.runs, args.iters, args.seed, args.level, args.resamples)
    if args.command == "fixed-root":
        return experiments.run_fixed_root_experiment(
            args.r, args.dist, args.tol, args.runs, args.seed,
            args.max_iter, args.level, args.resamples)
    if args.command == "stationarity":
        return experiments.run_stationarity_experiment(
            args.root_dist, args.dist, args.runs, args.iters, args.seed, args.alpha)
    if args.command == "decay":
        return experiments.run_decay_experiment(
            args.root_dist, args.dist, args.runs, args.iters, args.seed)
    if args.command == "correlation":
        return experiments.run_correlation_experiment(
            args.root_dist, args.dist, args.runs, args.iters, args.seed)
    if args.command == "operator":
        return experiments.run_operator_experiment(
            args.g0, args.dist, args.k, args.grid, args.delta, args.seed)
    if args.command == "theory":
        return experiments.run_theory_report(args.dist, args.k_max)
    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _run(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    text = report_to_json(report) if args.format == "json" else report_to_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# {report.experiment} completed in {report.wall_time:.3f} s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
