"""Run one workload in a fresh interpreter and report raw measurements.

`run.py` starts this script once per benchmark run, so the peak RSS it
reports belongs to that workload alone, and starts it again with
`--setup-only` to time set-up: importing `stochbisect` from the checkout's
`src/` and parsing the workload's specs, up to the point where the first
operation could start. The last line of standard output is one JSON object.

A run is a sequence of passes over the workload's operations. Measured
passes time each operation, raw and scaled by the speed probe below; after
them, a check pass (for CLI operations) runs every command once more,
captures its report object and checks its output. Reports are
deterministic, so a measured operation passes when its exit code is 0 and
its CSV is byte-identical to the checked one.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(BENCH))

import workloads  # noqa: E402
from tracer import MODULES, Tracer  # noqa: E402
from workloads import CliOp, SolveOp  # noqa: E402

MIN_PASSES = 3
MAX_NOTES = 10

# The speed of a small shared machine drifts by 10-30% over seconds to
# minutes (other tenants, clock changes), which swamps the run-to-run
# differences the benchmark is meant to detect. A fixed pure-Python probe,
# timed between operations in the same process, measures that drift: each
# stretch of operations is scaled by the probe's nominal time over its time
# measured around the stretch. Probe and nominal time never change with the
# program, so a faster program still reads proportionally faster.
SPEED_PROBE_LOOPS = 15_000
SPEED_PROBE_NOMINAL_S = 1.0e-3  # about its time on a 2-vCPU Xeon VM
SEGMENT_S = 0.05  # operation time between two probes

EXPERIMENTS = {
    "contraction": "run_contraction_experiment",
    "ksection": "run_ksection_experiment",
    "fixed_root": "run_fixed_root_experiment",
    "stationarity": "run_stationarity_experiment",
    "decay": "run_decay_experiment",
    "correlation": "run_correlation_experiment",
    "operator": "run_operator_experiment",
    "theory": "run_theory_report",
}


class SetupError(RuntimeError):
    """The checkout does not hold a usable `stochbisect` package."""


def import_package():
    try:
        import stochbisect
        import stochbisect.cli
    except ImportError as exc:
        raise SetupError(f"cannot import stochbisect from {SRC}: {exc}") from exc
    origin = Path(stochbisect.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"stochbisect was imported from {origin}, not from {SRC}")
    return stochbisect


class Runner:
    """Executes operations through the package's public entry points."""

    def __init__(self, package, ops: list):
        self.package = package
        self.cli = package.cli
        parser = self.cli.build_parser()
        self.laws = {}
        for op in ops:
            if isinstance(op, CliOp):
                args = parser.parse_args(op.argv)
                specs = [getattr(args, key, None) for key in ("dist", "root_dist", "g0")]
            else:
                specs = [op.law]
            for spec in specs:
                if spec and spec not in ("cubic", "identity"):
                    self.laws.setdefault(spec, package.parse_spec(spec))

    # -- one operation ---------------------------------------------------

    def run_cli(self, op: CliOp) -> tuple[int | str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the operation failed; record why
            code = f"raised {type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def run_solve(self, op: SolveOp):
        pkg = self.package
        try:
            return pkg.bisection_run(
                op.f, op.a, op.b, self.laws[op.law], tol=workloads.SOLVE_TOL,
                max_iter=workloads.SOLVE_MAX_ITER, rng=pkg.substream(*op.stream))
        except Exception as exc:  # the operation failed; record why
            return f"raised {type(exc).__name__}: {exc}"

    # -- passes ----------------------------------------------------------

    def measured_pass(self, ops: list, outcomes: list[dict],
                      on_op=None) -> tuple[float, float]:
        """Time every operation once.

        Returns the summed operation time, raw and scaled to the probe's
        nominal speed. `outcomes[i]` maps an outcome (a failure text, or for
        CLI operations the exit code and CSV digest) to the number of passes
        that gave it.
        """
        total = scaled = segment = 0.0
        probe = speed_probe()
        for i, op in enumerate(ops):
            before = on_op.before(op) if on_op else None
            start = time.perf_counter()
            if isinstance(op, CliOp):
                code, text = self.run_cli(op)
                elapsed = time.perf_counter() - start
                key = (code, hashlib.blake2b(text.encode()).hexdigest())
            else:
                trace = self.run_solve(op)
                elapsed = time.perf_counter() - start
                key = solve_failure(op, trace)
            if on_op:
                on_op.after(op, before)
            total += elapsed
            segment += elapsed
            outcomes[i][key] = outcomes[i].get(key, 0) + 1
            if segment >= SEGMENT_S or i == len(ops) - 1:
                after = speed_probe()
                scaled += segment * SPEED_PROBE_NOMINAL_S / (0.5 * (probe + after))
                probe, segment = after, 0.0
        return total, scaled

    def check_pass(self, ops: list) -> tuple[list, list[int]]:
        """Run each CLI operation once more and check its report.

        Returns, per operation, the accepted (exit code, digest) key or a
        failure text, and the [inside, total] count of theory_inside flags.
        """
        accepted = []
        coverage = [0, 0]
        for op in ops:
            if not isinstance(op, CliOp):
                accepted.append(None)
                continue
            reports = []
            original = self.cli.report_to_csv

            def capture(report):
                reports.append(report)
                return original(report)

            self.cli.report_to_csv = capture
            try:
                code, text = self.run_cli(op)
            finally:
                self.cli.report_to_csv = original
            if code != 0 or len(reports) != 1:
                problem = f"exit {code!r}"
            else:
                problem = report_problem(self.package, reports[0], text, coverage)
            accepted.append(problem or (code, hashlib.blake2b(text.encode()).hexdigest()))
        return accepted, coverage


def speed_probe() -> float:
    """Seconds taken by a fixed interpreter-bound loop."""
    start = time.perf_counter()
    total = 0
    for i in range(SPEED_PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def speed_factor() -> float:
    """Nominal over measured probe time, from the median of five probes."""
    return SPEED_PROBE_NOMINAL_S / statistics.median(speed_probe() for _ in range(5))


def solve_failure(op: SolveOp, trace) -> str | None:
    """None when the solve bracketed the known root within tolerance."""
    if isinstance(trace, str):
        return trace
    if not trace.records:
        return "no iterations"
    last = trace.records[-1]
    if trace.terminated_by != "tolerance" or not last.b - last.a < workloads.SOLVE_TOL:
        return f"stopped by {trace.terminated_by} at width {last.b - last.a!r}"
    slack = workloads.ROOT_SLACK
    if not last.a - slack <= op.root <= last.b + slack:
        return f"bracket [{last.a!r}, {last.b!r}] lost the root {op.root!r}"
    return None


def report_problem(package, report, text: str, coverage: list[int]) -> str | None:
    """Output check of one CLI report; None when it passes."""
    payload = report.to_payload()
    if package.experiments.parse_report_csv(text) != payload:
        return "CSV does not round-trip to the report payload"
    for cell in payload["cells"]:
        numbers = [cell[key] for key in ("value", "point", "lower", "upper", "theory")
                   if key in cell]
        if not all(math.isfinite(x) for x in numbers):
            return f"cell {cell['label']} is not finite"
        if "point" in cell and not cell["lower"] <= cell["point"] <= cell["upper"]:
            return f"cell {cell['label']} has point outside [lower, upper]"
        if "theory_inside" in cell:
            coverage[0] += cell["theory_inside"]
            coverage[1] += 1
    for name, block in payload["series"].items():
        if not all(math.isfinite(x) for row in block["rows"] for x in row):
            return f"series {name} is not finite"
    if payload["experiment"] == "operator":
        within = next(c["value"] for c in payload["cells"]
                      if c["label"] == "all_within_bound")
        if within != 1.0:
            return "operator iterates left the rate bound"
    return None


def count_failures(ops: list, outcomes: list[dict], accepted: list) -> tuple[int, list, bool]:
    """(failed operations over all passes, descriptions, only known defects)."""
    failed = 0
    notes = []
    only_known = True
    for op, seen, good in zip(ops, outcomes, accepted):
        for key, n in seen.items():
            if isinstance(op, CliOp):
                ok = isinstance(good, tuple) and key == good
                why = good if isinstance(good, str) else f"outcome {key[0]!r} differs"
            else:
                ok = key is None
                why = key
            if not ok:
                failed += n
                only_known = only_known and op.known_defect
                notes.append(f"{op.name}: {why} ({n}x)")
    return failed, notes, only_known


class CrossCheck:
    """Compares span counts per operation with the counts its inputs imply."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.mismatches: Counter = Counter()

    def before(self, op):
        return {name: self.tracer.calls[name] for name in op.expect}

    def after(self, op, before):
        for name, expected in op.expect.items():
            got = self.tracer.calls[name] - before[name]
            if got != expected:
                self.mismatches[f"{op.name}: {name} {got} spans, expected {expected}"] += 1


def layer_metrics(tracer) -> dict[str, float]:
    calls, counts, s = tracer.calls, tracer.counts, tracer.self_seconds
    steps = counts["engine.steps"]
    sampled = counts["engine.cuts_sampled"]
    metrics = {
        "stats.bootstrap_mean_ci.s": s("stats.bootstrap_mean_ci"),
        "stats.bootstrap_mean_ci.resampled": counts["stats.bootstrap_mean_ci.resampled"],
        "stats.ks_statistic.s": s("stats.ks_statistic"),
        "stats.qq_points.s": s("stats.qq_points"),
        "stats.correlation_matrix.s": s("stats.correlation_matrix"),
        "engine.bisection_run.s": s("engine.bisection_run"),
        "engine.bisection_run.calls": calls["engine.bisection_run"],
        "engine.multisection_step.s": s("engine.multisection_step"),
        "engine.multisection_step.calls": calls["engine.multisection_step"],
        "engine.draw_cut.calls": calls["engine.draw_cut"],
        "engine.cut_accept_ratio": counts["engine.cuts_accepted"] / sampled if sampled else 0.0,
        "engine.steps": steps,
        "engine.ns_per_step": tracer.stepper_seconds() * 1e9 / steps if steps else 0.0,
        "engine.population_step.s": s("engine.population_step"),
        "engine.multisection_population_step.s": s("engine.multisection_population_step"),
        "distributions.sample.s": s("distributions.sample"),
        "distributions.sample.calls": calls["distributions.sample"],
        "distributions.sample.draws": counts["distributions.sample.draws"],
        "distributions.quadrature.s": s("distributions.quadrature"),
        "distributions.quadrature.calls": calls["distributions.quadrature"],
        "distributions.quadrature.nodes": counts["distributions.quadrature.nodes"],
        "distributions.pdf.s": s("distributions.pdf"),
        "distributions.pdf.points": counts["distributions.pdf.points"],
        "distributions.cdf.s": s("distributions.cdf"),
        "distributions.cdf.calls": calls["distributions.cdf"],
        "seeding.substream.s": s("seeding.substream"),
        "seeding.substream.calls": calls["seeding.substream"],
        "markov.apply_operator.s": s("markov.apply_operator"),
        "markov.apply_operator.calls": calls["markov.apply_operator"],
        "markov.ell_cdf_general.s": s("markov.ell_cdf_general"),
        "markov.hn_mean_var.s": s("markov.hn_mean_var"),
        "markov.rate_bound.s": s("markov.rate_bound"),
        "experiments.report_to_csv.s": s("experiments.report_to_csv"),
        "experiments.report_bytes": counts["experiments.report_bytes"],
        "theory.s": tracer.module_self_seconds("theory"),
        "cli.main.s": s("cli.main"),
    }
    for short, function in EXPERIMENTS.items():
        metrics[f"experiments.{short}.s"] = tracer.inclusive_ns[f"experiments.{function}"] / 1e9
    for module in MODULES:
        metrics[f"{module}.errors"] = tracer.errors[module]
    return metrics


def module_shares(tracer, wall: float) -> dict[str, float]:
    return {m: tracer.module_self_seconds(m) / wall for m in MODULES}


def medians(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def timed_passes(runner, ops, outcomes, seconds: float, on_pass=None, on_op=None):
    """Passes until `seconds` have gone by; lists of raw and scaled pass times."""
    walls, scaled = [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        gc.collect()  # every pass starts from the same collector state
        wall, wall_scaled = runner.measured_pass(ops, outcomes, on_op)
        walls.append(wall)
        scaled.append(wall_scaled)
        if on_pass:
            on_pass(wall)
    return walls, scaled


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        package = import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(package, ops)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed_factor": speed_factor()}))
        return 0

    import numpy

    outcomes = [{} for _ in ops]
    result = {"numpy": numpy.__version__, "operations": len(ops)}
    if not args.trace:
        peaks = []

        def first_pass_peak(wall):
            # Later passes only add allocator fragmentation, which grows
            # with the number of passes that fit in the run.
            if not peaks:
                peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

        walls, scaled = timed_passes(runner, ops, outcomes, args.seconds,
                                     on_pass=first_pass_peak)
        result["peak_rss_mb"] = peaks[0]
        result["scaled_walls"] = scaled
    else:
        walls, untraced = timed_passes(runner, ops, outcomes, args.seconds / 2)
        tracer = Tracer()
        check = CrossCheck(tracer)
        rows, shares = [], []

        def record(wall):
            rows.append(layer_metrics(tracer))
            shares.append(module_shares(tracer, wall))
            tracer.reset()

        tracer.install()
        try:
            traced_walls, traced = timed_passes(runner, ops, outcomes, args.seconds / 2,
                                                on_pass=record, on_op=check)
        finally:
            tracer.uninstall()
        if check.mismatches:
            print("error: span counts differ from the counts the inputs imply:",
                  file=sys.stderr)
            for line, n in list(check.mismatches.items())[:MAX_NOTES]:
                print(f"  {line} ({n}x)", file=sys.stderr)
            return 3
        result["layers"] = medians(rows)
        result["layers"]["trace_overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced))
        result["self_share"] = medians(shares)
        walls += traced_walls

    accepted, coverage = runner.check_pass(ops)
    failed, notes, only_known = count_failures(ops, outcomes, accepted)
    result.update({
        "walls": walls,
        "attempted": len(ops) * len(walls),
        "failed": failed,
        "failures": notes[:MAX_NOTES] + (
            [f"... and {len(notes) - MAX_NOTES} more"] if len(notes) > MAX_NOTES else []),
        "only_known_defects": only_known,
        "theory_inside": coverage,
    })
    if args.trace:
        result["layers"]["stats.theory_inside_ratio"] = (
            coverage[0] / coverage[1] if coverage[1] else 0.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
