"""Command-line experiment runner.

Subcommands map one to one onto the experiment functions, and each flag
is a keyword argument of its function. Omitted flags stay out of the
parsed namespace, so the function's signature holds every default. Reports
are written as CSV (default) or JSON to stdout or --out. Exit codes: 0 on
success, 2 on argument or spec errors, 3 on numerical precondition
failures (invalid bracket, endpoint atoms, degenerate samples).
"""

from __future__ import annotations

import argparse
import inspect
import sys

from .distributions import DomainError, NoDensityError
from .engine import BracketError, CutRedrawError
from .markov import BandHypothesisError, EndpointAtomError
from .stats import DegenerateSampleError
from . import experiments
from .experiments import report_to_csv, report_to_json

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


def _add_common(parser: argparse.ArgumentParser, iters: bool = True) -> None:
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--runs", type=int, help="number of runs")
    if iters:
        parser.add_argument("--iters", type=int, help="iterations per run")
    _add_output(parser)


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _add_bootstrap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--level", type=float, help="CI level")
    parser.add_argument("--resamples", type=int, help="bootstrap resample count")


def _show_defaults(subcommands) -> None:
    """End each flag's help with its default, read from its runner's signature."""
    for parser in subcommands.choices.values():
        params = inspect.signature(parser.get_default("run")).parameters
        for action in parser._actions:
            param = params.get(action.dest)
            if param is not None and param.default is not param.empty:
                action.help = f"{action.help or ''} (default: {param.default})".lstrip()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochbisect",
        description="Stochastic bisection experiments: contraction rates, "
                    "stationarity, operator iteration, and theory values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contraction", argument_default=argparse.SUPPRESS,
                       help="Mean scaling factor of random-cut bisection vs theory")
    p.set_defaults(run=experiments.run_contraction_experiment)
    p.add_argument("--dist", help="cut distribution spec")
    p.add_argument("--tol", type=float)
    _add_bootstrap(p)
    _add_common(p)

    p = sub.add_parser("ksection", argument_default=argparse.SUPPRESS,
                       help="K-cut scaling factor vs 2/(K+2)")
    p.set_defaults(run=experiments.run_ksection_experiment)
    p.add_argument("--k", type=int, help="cuts per iteration")
    _add_bootstrap(p)
    _add_common(p)

    p = sub.add_parser("fixed-root", argument_default=argparse.SUPPRESS,
                       help="Iteration-count statistics for a fixed root")
    p.set_defaults(run=experiments.run_fixed_root_experiment)
    p.add_argument("--r", type=float, required=True, help="fixed root in (0,1)")
    p.add_argument("--dist", help="cut distribution spec")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    _add_bootstrap(p)
    _add_common(p, iters=False)  # runs stop at --tol or --max-iter

    p = sub.add_parser("stationarity", argument_default=argparse.SUPPRESS,
                       help="Q-Q and KS of the normalized roots")
    p.set_defaults(run=experiments.run_stationarity_experiment)
    p.add_argument("--root-dist", help="initial root law")
    p.add_argument("--dist", help="cut distribution spec")
    p.add_argument("--alpha", type=float, help="KS test level")
    _add_common(p)

    p = sub.add_parser("decay", argument_default=argparse.SUPPRESS,
                       help="KS decay toward uniform and its fitted rate")
    p.set_defaults(run=experiments.run_decay_experiment)
    p.add_argument("--root-dist", required=True, help="initial root law")
    p.add_argument("--dist", help="cut distribution spec")
    _add_common(p)

    p = sub.add_parser("correlation", argument_default=argparse.SUPPRESS,
                       help="Correlation matrix of scaling factors")
    p.set_defaults(run=experiments.run_correlation_experiment)
    p.add_argument("--root-dist", required=True, help="initial root law")
    p.add_argument("--dist", required=True, help="cut distribution spec")
    _add_common(p)

    p = sub.add_parser("operator", argument_default=argparse.SUPPRESS,
                       help="Iterate the root-law operator on a grid CDF")
    p.set_defaults(run=experiments.run_operator_experiment)
    p.add_argument("--g0", help="starting CDF: a distribution spec, 'cubic', or 'identity'")
    p.add_argument("--dist", help="cut distribution spec")
    p.add_argument("--k", type=int, help="operator applications")
    p.add_argument("--grid", type=int, help="grid nodes")
    p.add_argument("--delta", type=float, help="band width for the bound")
    p.add_argument("--seed", type=int, help="master seed")
    _add_output(p)

    p = sub.add_parser("theory", argument_default=argparse.SUPPRESS,
                       help="Closed-form values for a distribution spec")
    p.set_defaults(run=experiments.run_theory_report)
    p.add_argument("--dist", required=True, help="distribution spec")
    p.add_argument("--k-max", type=int)
    _add_output(p)

    _show_defaults(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    kwargs = vars(parser.parse_args(argv))
    del kwargs["command"]
    run = kwargs.pop("run")
    fmt, out = kwargs.pop("format"), kwargs.pop("out")
    try:
        report = run(**kwargs)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# {report.experiment} completed in {report.wall_time:.3f} s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
