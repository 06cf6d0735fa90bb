"""Command-line experiment runner.

There is one subcommand per `run_*` function in `experiments.__all__`, in
that order: its name is the function's name without `run_` and a trailing
`_experiment` or `_report`, with dashes for underscores, and its help is
the first line of the function's docstring. Each flag is generated from a
parameter of its function: the flag is the parameter name with dashes for
underscores, its type is the parameter's annotation, it is required
exactly when the parameter has no default, and `--help` shows that
default. Adding a runner or a runner parameter therefore needs no edit
here. `main` builds the parser once per process and looks each runner up
in `experiments` by its subcommand's name when it runs the command, so a
rebound `experiments.run_*` attribute (a wrapper, say) is what runs.
Omitted flags stay out of the parsed namespace, so the function's
signature holds every default. Settings no caller varies (interval level,
bootstrap resamples, KS level, band width, K-section table size) are
constants in `experiments`, not flags. Reports are written as CSV
(default) or JSON to stdout or --out, and the time the runner took goes to
stderr. Exit codes: 0 on success, 2 on argument or spec errors or an --out
path that cannot be written, 3 on numerical precondition failures (invalid
bracket, endpoint atoms, degenerate samples).
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from .distributions import DomainError, NoDensityError
from .engine import BracketError, CutRedrawError
from .markov import EndpointAtomError
from .stats import DegenerateSampleError
from . import experiments
from .experiments import report_to_csv, report_to_json

_NUMERICAL_ERRORS = (
    BracketError,
    CutRedrawError,
    DomainError,
    NoDensityError,
    EndpointAtomError,
    DegenerateSampleError,
    ArithmeticError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Help text per runner parameter name; documentation only.
_HELP = {
    "seed": "master seed",
    "runs": "number of runs",
    "iters": "iterations per run",
    "dist": "cut distribution spec",
    "root_dist": "initial root law",
    "tol": "bracket width at which a run stops",
    "max_iter": "iteration cap per run",
    "r": "fixed root in (0,1)",
    "k": "cuts per iteration (ksection) or operator applications (operator)",
    "g0": "starting CDF: a distribution spec, 'cubic', or 'identity'",
    "grid": "grid nodes",
}


# Subcommand name -> its runner's name in `experiments`, in `__all__` order.
_RUNNERS = {
    name.removeprefix("run_").removesuffix("_experiment").removesuffix("_report")
    .replace("_", "-"): name
    for name in experiments.__all__ if name.startswith("run_")
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochbisect",
        description="Stochastic bisection experiments: contraction rates, "
                    "stationarity, operator iteration, and theory values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each runner is looked up here for its flags and help, and again by `main`
    # when it runs, so a parser built before a module attribute is rebound
    # still runs the rebound function.
    for command, name in _RUNNERS.items():
        run = getattr(experiments, name)
        summary = (run.__doc__ or "").strip().partition("\n")[0]
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS, help=summary)
        for param in inspect.signature(run, eval_str=True).parameters.values():
            required = param.default is param.empty
            shown = "" if required else f" (default: {param.default})"
            p.add_argument("--" + param.name.replace("_", "-"), type=param.annotation,
                           required=required, help=_HELP.get(param.name, "") + shown)
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default: %(default)s)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first `main` call


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    kwargs = vars(_parser.parse_args(argv))
    run = getattr(experiments, _RUNNERS[kwargs.pop("command")])
    fmt, out = kwargs.pop("format"), kwargs.pop("out")
    start = time.perf_counter()
    try:
        report = run(**kwargs)
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    elapsed = time.perf_counter() - start

    text = report_to_json(report) if fmt == "json" else report_to_csv(report)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    print(f"# {report.experiment} completed in {elapsed:.3f} s", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
