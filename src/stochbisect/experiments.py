"""Deterministic experiment runners validating the theory by simulation.

Each runner is a pure function of its arguments and the master seed: every
random draw comes from a substream derived as (seed, experiment tag, run
index), so reports are reproducible byte for byte and runs could execute
in any order or in parallel. Results come back as an `ExperimentReport`
(config echo, labelled cells with theory references, named data series)
that serializes to CSV or JSON and parses back losslessly. A series is its
column names and a (rows x columns) float array. The scaling runners
(contraction, ksection) only fill the (runs, iters) factor matrix that is
`_scaling_report`'s single input. The population runners (stationarity,
decay, correlation) keep only their own statistics: `engine._evolve`
draws their cuts and steps their chains.

The statistical conventions are constants, not runner parameters, each
defined by the module that computes with it: `stats.LEVEL` (95% intervals),
`stats.RESAMPLES` (2000 bootstrap resamples), `stats.KS_ALPHA` (KS tests
at level 0.01), `markov.DELTA` (the rate bound's band width 0.25), and
here `K_MAX` (K-section rates up to K = 6). Each report echoes the ones it
used in its config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import stats, theory
from .distributions import Uniform, parse_spec
from .engine import TERMINATED_MAX_ITERATIONS, _evolve, bisection_run, multisection_step
from .markov import DELTA, GridCdf, band_epsilon, hn_mean_var, iterate_operator, rate_bound
from .seeding import substream
from .stats import IntervalEstimate

__all__ = [
    "DEFAULT_SEED",
    "Cell",
    "ExperimentReport",
    "run_contraction_experiment",
    "run_ksection_experiment",
    "run_fixed_root_experiment",
    "run_stationarity_experiment",
    "run_decay_experiment",
    "run_correlation_experiment",
    "run_operator_experiment",
    "run_theory_report",
    "report_to_csv",
    "report_to_json",
    "parse_report_csv",
]

DEFAULT_SEED = 20250811

K_MAX = 6  # largest K in the theory report's K-section table

# Iterations deterministic bisection needs on a unit interval: smallest n
# with 2^-n < tol. Runs at or under this count are the "lucky" ones.
def deterministic_iterations(tol: float) -> int:
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = 0
    width = 1.0
    while width >= tol:
        width *= 0.5
        n += 1
    return n


# Truncation of a decaying series at its sampling-noise floor: keep the
# leading points strictly above the floor (at least three), so the
# least-squares fit sees the decay, not the plateau.
_FLOOR_FACTOR = 2.5
_MIN_FIT_POINTS = 3


def truncate_at_noise_floor(values: np.ndarray, floor: float) -> np.ndarray:
    below = np.nonzero(values < floor)[0]
    end = int(below[0]) if below.size else values.size
    end = max(end, _MIN_FIT_POINTS)
    positive = np.nonzero(values[:end] <= 0.0)[0]
    if positive.size:
        end = min(end, int(positive[0]))
    return values[:end]


@dataclass
class Cell:
    """One labelled result: a scalar or an interval, with optional theory."""

    label: str
    value: float | None = None
    estimate: IntervalEstimate | None = None
    theory_reference: float | None = None
    reference_inside: bool | None = field(default=None, init=False)

    def __post_init__(self):
        if (self.value is None) == (self.estimate is None):
            raise ValueError("a cell holds exactly one of value or estimate")
        if self.estimate is not None and self.theory_reference is not None:
            self.reference_inside = self.estimate.contains(self.theory_reference)


@dataclass
class ExperimentReport:
    """Structured result of one experiment run.

    `series` maps a name to (column names, a (rows x columns) float array).
    """

    experiment: str
    config: dict
    cells: list[Cell] = field(default_factory=list)
    series: dict[str, tuple[list[str], np.ndarray]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def cell(self, label: str) -> Cell:
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise KeyError(label)

    def add_series(self, name: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
        """Store `rows` as a (rows x columns) float array under `name`.

        Raises `ValueError` when there are no columns, when a row's length
        differs from the column count, or when `name` holds a comma, a
        double quote or a line break: the CSV writer prints it unquoted.
        """
        if _CSV_SPECIALS.intersection(name):
            raise ValueError(f"series name {name!r} holds one of , \" \\r \\n")
        if not len(columns):
            raise ValueError(f"series {name!r} needs at least one column")
        data = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
        self.series[name] = (list(columns), data)

    def to_payload(self) -> dict:
        """Canonical JSON-safe dict."""
        return self._payload({name: {"columns": cols, "rows": rows.tolist()}
                              for name, (cols, rows) in self.series.items()})

    def _payload(self, series: dict) -> dict:
        # The payload around the given series; `report_to_csv` passes none
        # and writes the series from their arrays itself.
        cells = []
        for cell in self.cells:
            entry: dict = {"label": cell.label}
            if cell.value is not None:
                entry["value"] = float(cell.value)
            else:
                est = cell.estimate
                entry["point"] = float(est.point)
                entry["lower"] = float(est.lower)
                entry["upper"] = float(est.upper)
                entry["level"] = float(est.level)
                entry["method"] = est.method
            if cell.theory_reference is not None:
                entry["theory"] = float(cell.theory_reference)
            if cell.reference_inside is not None:
                entry["theory_inside"] = bool(cell.reference_inside)
            cells.append(entry)
        return {
            "experiment": self.experiment,
            "config": {k: _plain(v) for k, v in self.config.items()},
            "cells": cells,
            "series": series,
            "notes": list(self.notes),
        }


def _plain(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _format(value):
    # csv.writer writes a float as str(float), which is repr(float); only
    # booleans need their own spelling.
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _parse_scalar(text: str):
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report.to_payload(), indent=2) + "\n"


# Payload keys of a cell row's columns after `cell, label, kind`; a scalar
# cell writes its value in the "point" column and leaves the interval's
# other columns empty.
_CELL_COLUMNS = ("point", "lower", "upper", "level", "method", "theory", "theory_inside")

# Characters that make csv.writer quote a field; a series name holds none.
_CSV_SPECIALS = frozenset(',"\r\n')
# Series rows converted to Python floats at a time.
_CSV_CHUNK_ROWS = 4096


def report_to_csv(report: ExperimentReport) -> str:
    """Sectioned CSV: config rows, cell rows, then named series blocks.

    Each series is written straight from its float array, `_CSV_CHUNK_ROWS`
    rows at a time and one column at a time, as the lines csv.writer would
    print: a float is its repr and never quoted, and the series name holds
    nothing to quote (every series has a column, so the rows' zip ends).
    The writer's memory peak is about twice the text's length.
    """
    payload = report._payload({})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", payload["experiment"]])
    for key, value in payload["config"].items():
        writer.writerow(["config", key, _format(value)])
    for cell in payload["cells"]:
        kind = "scalar" if "value" in cell else "interval"
        fields = {"point": cell.get("value"), **cell}
        writer.writerow(["cell", cell["label"], kind, *(
            _format(fields[key]) if key in fields else "" for key in _CELL_COLUMNS)])
    for note in payload["notes"]:
        writer.writerow(["note", note])
    for name, (columns, rows) in report.series.items():
        writer.writerow(["series", name, *columns])
        tag = f"row,{name}"
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            cols = [map(repr, col) for col in rows[start:start + _CSV_CHUNK_ROWS].T.tolist()]
            buf.write("\n".join(map(",".join, zip(repeat(tag), *cols))) + "\n")
    return buf.getvalue()


def parse_report_csv(text: str) -> dict:
    """Inverse of `report_to_csv`, returning the canonical payload dict."""
    payload: dict = {"experiment": None, "config": {}, "cells": [], "series": {}, "notes": []}
    for row in csv.reader(io.StringIO(text)):
        if not row:
            continue
        tag = row[0]
        if tag == "experiment":
            payload["experiment"] = row[1]
        elif tag == "config":
            payload["config"][row[1]] = _parse_scalar(row[2])
        elif tag == "cell":
            fields = {key: _parse_scalar(value)
                      for key, value in zip(_CELL_COLUMNS, row[3:]) if value}
            if row[2] == "scalar":
                fields = {"value": fields.pop("point"), **fields}
            payload["cells"].append({"label": row[1], **fields})
        elif tag == "note":
            payload["notes"].append(row[1])
        elif tag == "series":
            payload["series"][row[1]] = {"columns": row[2:], "rows": []}
        elif tag == "row":
            payload["series"][row[1]]["rows"].append([float(v) for v in row[2:]])
        else:
            raise ValueError(f"unknown report row tag {tag!r}")
    return payload


def _scaling_report(
    experiment: str,
    head: dict,
    ells: np.ndarray,
    reference: float,
    seed: int,
) -> ExperimentReport:
    # `ells` is (runs, iters), the only input: a run's final length is its
    # factors' product in step order. The run is the resampling unit, since
    # the factors within a run are dependent unless the root is uniform.
    runs, iters = ells.shape
    mean_ci = stats.bootstrap_mean_ci(
        ells.mean(axis=1), rng=substream(seed, experiment, "bootstrap-ell"))
    length_ci = stats.bootstrap_mean_ci(np.multiply.accumulate(ells, axis=1)[:, -1],
                                        rng=substream(seed, experiment, "bootstrap-length"))
    if length_ci.lower < sys.float_info.min:
        raise ArithmeticError(
            f"{experiment}: the final-length interval reaches {length_ci.lower!r}, "
            f"below the smallest normal float, after {iters} iterations; run fewer")
    root = 1.0 / iters  # x -> x^root is monotone on [0, inf): endpoints map to endpoints
    geo_ci = IntervalEstimate(length_ci.point**root, length_ci.lower**root,
                              length_ci.upper**root, length_ci.level, length_ci.method)
    return ExperimentReport(
        experiment,
        {**head, "runs": runs, "iters": iters, "seed": seed,
         "level": stats.LEVEL, "resamples": stats.RESAMPLES},
        [
            Cell("mean_scaling_factor", estimate=mean_ci, theory_reference=reference),
            Cell("geometric_mean_length", estimate=geo_ci, theory_reference=reference),
        ],
    )


# Bracket width at which a contraction run would stop short of `iters`.
_MIN_WIDTH = 1e-15


def run_contraction_experiment(
    dist: str = "uniform",
    runs: int = 500,
    iters: int = 30,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Per-step scaling factors of random-cut bisection on f(x) = x - r.

    Each run draws a uniform root, runs the bracketing algorithm for
    `iters` iterations, and records every scaling factor. Bootstrap CIs
    for the mean factor and for (mean L_N)^(1/N) resample whole runs (the
    per-run mean factor and the per-run final length) and are compared
    against the closed-form expected contraction. A run cut short by the
    1e-15 width floor (or an exact hit of the root) raises
    `ArithmeticError`.
    """
    if runs < 2 or iters < 1:
        raise ValueError("need runs >= 2 and iters >= 1")
    cut_dist = parse_spec(dist)

    ells = np.empty((runs, iters))
    for m in range(runs):
        rng = substream(seed, "contraction", m)
        root = float(rng.uniform())
        trace = bisection_run(lambda x: x - root, 0.0, 1.0, cut_dist, _MIN_WIDTH, iters, rng)
        if len(trace) < iters:  # averaging shorter runs would bias both estimates
            raise ArithmeticError(
                f"contraction run {m} stopped after {len(trace)} of {iters} "
                f"iterations, at a width below {_MIN_WIDTH:g} or on the root")
        ells[m] = trace.ells()

    report = _scaling_report("contraction", {"cut": cut_dist.spec}, ells,
                             theory.expected_contraction(cut_dist), seed)
    report.cells.append(Cell("theory_contraction_variance",
                             value=theory.contraction_variance(cut_dist)))
    return report


def run_ksection_experiment(
    k: int = 2,
    runs: int = 500,
    iters: int = 30,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Scaling factors of the K-cut variant with uniform cuts and root.

    As in `run_contraction_experiment`, the bootstrap CIs resample whole
    runs: the per-run mean factor and the per-run final length. A length
    interval reaching below the normal floats raises `ArithmeticError`.
    """
    if runs < 2 or iters < 1:
        raise ValueError("need runs >= 2 and iters >= 1")
    rate = theory.expected_contraction(Uniform(), k)  # checks k before any run
    k = int(k)  # a whole float k is a valid stream path part only as an int

    ells = np.empty((runs, iters))
    for m in range(runs):
        rng = substream(seed, "ksection", k, m)
        r = float(rng.uniform())
        for i in range(iters):
            ells[m, i], r = multisection_step(r, k, rng)

    return _scaling_report("ksection", {"k": k}, ells, rate, seed)


def run_fixed_root_experiment(
    r: float,
    dist: str = "uniform",
    tol: float = 1e-8,
    runs: int = 1000,
    seed: int = DEFAULT_SEED,
    max_iter: int = 1000,
) -> ExperimentReport:
    """Iteration counts to tolerance for a fixed root position.

    Reports a bootstrap CI for the mean count, the min/max range, and a
    Wilson CI for the probability of a lucky run (no worse than
    deterministic bisection at the same tolerance). A run that reaches
    `max_iter` before `tol` raises `ArithmeticError`.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"fixed root must lie in (0, 1), got {r}")
    if runs < 2 or max_iter < 1:
        raise ValueError("need runs >= 2 and max_iter >= 1")
    cut_dist = parse_spec(dist)

    baseline = deterministic_iterations(tol)
    counts = np.empty(runs)
    capped = 0
    for m in range(runs):
        rng = substream(seed, "fixed-root", m)
        trace = bisection_run(lambda x: x - r, 0.0, 1.0, cut_dist, tol, max_iter, rng)
        counts[m] = len(trace)
        capped += trace.terminated_by == TERMINATED_MAX_ITERATIONS
    if capped:
        raise ArithmeticError(
            f"{capped} of {runs} runs hit max_iter = {max_iter} before the bracket "
            f"narrowed below tol = {tol:g}")

    mean_ci = stats.bootstrap_mean_ci(counts, rng=substream(seed, "fixed-root", "bootstrap"))
    lucky = int(np.sum(counts <= baseline))
    report = ExperimentReport(
        "fixed-root",
        {"r": r, "cut": cut_dist.spec, "tol": tol, "runs": runs,
         "seed": seed, "max_iter": max_iter,
         "level": stats.LEVEL, "resamples": stats.RESAMPLES},
        [
            Cell("mean_iterations", estimate=mean_ci),
            Cell("min_iterations", value=float(counts.min())),
            Cell("max_iterations", value=float(counts.max())),
            Cell("deterministic_iterations", value=float(baseline)),
            Cell("lucky_run_probability", estimate=stats.wilson_ci(lucky, runs)),
        ],
    )
    return report


def _population(experiment: str, root_dist: str, dist: str, runs: int, iters: int, seed: int):
    """(root law, cut law, first roots, steps); roots and cuts share one substream.

    Enter `steps`, a `closing` over `engine._evolve`, to iterate its (ells, roots).
    """
    root_law, cut_dist = parse_spec(root_dist), parse_spec(dist)
    rng = substream(seed, experiment)
    roots = np.asarray(root_law.sample(rng, size=runs), dtype=float)
    return root_law, cut_dist, roots, closing(_evolve(roots, cut_dist, rng, iters))


_ENDPOINT_EPS = 1e-12


def run_stationarity_experiment(
    root_dist: str = "uniform",
    dist: str = "uniform",
    runs: int = 1000,
    iters: int = 40,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Distribution of the normalized root after many iterations.

    Evolves `runs` independent chains, then emits Q-Q data of the final
    normalized roots against the uniform law and a KS test at level
    `stats.KS_ALPHA`. The KS test reads every root; the Q-Q series has one
    row per chain up to `stats.QQ_ROWS` chains, and past that `QQ_ROWS`
    rows, the sample quantiles at fixed plotting positions.
    Orbits collapsing onto the endpoints are flagged as non-convergent
    rather than raising.
    """
    if runs < 2 or iters < 1:
        raise ValueError("need runs >= 2 and iters >= 1")
    root_law, cut_dist, _, evolution = _population(
        "stationarity", root_dist, dist, runs, iters, seed)
    critical = stats.ks_critical_value(runs)
    ks_rows = []
    with evolution as steps:
        for n, (_, roots) in enumerate(steps, 1):
            ks_rows.append((n, stats.ks_statistic(roots), critical))

    ks = ks_rows[-1][1]
    endpoint_fraction = float(np.mean(
        (roots <= _ENDPOINT_EPS) | (roots >= 1.0 - _ENDPOINT_EPS)
    ))
    report = ExperimentReport(
        "stationarity",
        {"root": root_law.spec, "cut": cut_dist.spec, "runs": runs,
         "iters": iters, "seed": seed, "alpha": stats.KS_ALPHA},
        [
            Cell("ks_statistic", value=ks),
            Cell("ks_critical_value", value=critical),
            Cell("ks_pass", value=float(ks < critical)),
            Cell("endpoint_fraction", value=endpoint_fraction),
        ],
    )
    if endpoint_fraction > 0.5:
        report.notes.append(
            "degenerate: normalized roots collapsed onto the endpoints; "
            "the empirical law cannot converge to uniform"
        )
    report.add_series("ks", ["n", "ks_statistic", "critical_value"], ks_rows)
    report.add_series("qq", ["theoretical_quantile", "sample_quantile"],
                      stats.qq_points(roots))
    return report


def run_decay_experiment(
    root_dist: str,
    dist: str = "uniform",
    runs: int = 10_000,
    iters: int = 50,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Decay of the KS distance to uniform, with an exponential fit.

    Evolves a population of roots, recording at each iteration the KS
    statistic D_n of the normalized roots and the deviation of the mean
    scaling factor from its stationary value. Each series is truncated at
    its sampling-noise floor before the least-squares fit, and a fit whose
    rho is under 2/N is flagged as having no decay signal. The reference
    rate is 1 - 2(mu - mu^2 - sigma^2) of the initial root law.
    """
    if runs < 100:
        raise ValueError("need runs >= 100")
    if iters < 2:
        raise ValueError("need iters >= 2")
    root_law, cut_dist, roots, evolution = _population(
        "decay", root_dist, dist, runs, iters, seed)
    mu_ell = theory.expected_contraction(cut_dist)

    ks_values = [stats.ks_statistic(roots)]
    mean_devs: list[float] = []
    standard_errors: list[float] = []
    with evolution as steps:
        for ells, roots in steps:
            ks_values.append(stats.ks_statistic(roots))
            mean_devs.append(abs(float(ells.mean()) - mu_ell))
            standard_errors.append(float(ells.std()) / math.sqrt(runs))
    ks_values = np.array(ks_values)
    mean_devs = np.array(mean_devs)

    ks_floor = _FLOOR_FACTOR / math.sqrt(runs)
    rho, rate = stats.fit_exponential_decay(truncate_at_noise_floor(ks_values, ks_floor))
    mean_floor = _FLOOR_FACTOR * float(np.mean(standard_errors))
    mean_window = truncate_at_noise_floor(mean_devs, mean_floor)
    if mean_window.size >= 2:
        mean_rho, mean_rate = stats.fit_exponential_decay(mean_window)
    else:
        mean_rho, mean_rate = 0.0, 1.0

    reference = theory.expected_contraction(root_law)
    # No decay to fit if the slope is negligible or the series already
    # starts inside the sampling-noise band.
    no_signal = rho < 2.0 / iters or ks_values[0] < ks_floor
    report = ExperimentReport(
        "decay",
        {"root": root_law.spec, "cut": cut_dist.spec, "population": runs,
         "iters": iters, "seed": seed},
        [
            Cell("ks_fitted_rho", value=rho),
            Cell("ks_fitted_rate", value=rate, theory_reference=reference),
            Cell("mean_fitted_rho", value=mean_rho),
            Cell("mean_fitted_rate", value=mean_rate, theory_reference=reference),
            Cell("reference_rate", value=reference),
            Cell("stationary_mean_scaling", value=mu_ell),
            Cell("no_signal", value=float(no_signal)),
        ],
    )
    if no_signal:
        report.notes.append(
            "no signal: the KS sequence shows no decay trend beyond sampling "
            "noise (starting law is already near uniform)"
        )
    report.add_series("ks_distance", ["n", "ks_distance"],
                      np.column_stack((np.arange(iters + 1), ks_values)))
    report.add_series("mean_deviation", ["n", "mean_abs_deviation"],
                      np.column_stack((np.arange(1, iters + 1), mean_devs)))
    return report


def run_correlation_experiment(
    root_dist: str,
    dist: str,
    runs: int = 10_000,
    iters: int = 14,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Correlation matrix of the first `iters` scaling factors."""
    if iters < 2:
        raise ValueError("need iters >= 2")
    if runs < 2:
        raise ValueError("need runs >= 2")
    root_law, cut_dist, _, evolution = _population(
        "correlation", root_dist, dist, runs, iters, seed)
    ells = np.empty((iters, runs))
    with evolution as steps:
        for n in range(iters):  # no loop variable holds a step's factors into the next
            ells[n], _ = next(steps)

    corr = stats.correlation_matrix(ells)
    off_diagonal = corr[~np.eye(iters, dtype=bool)]
    report = ExperimentReport(
        "correlation",
        {"root": root_law.spec, "cut": cut_dist.spec, "population": runs,
         "iters": iters, "seed": seed},
        [
            Cell("corr_l1_l2", value=float(corr[0, 1])),
            Cell("max_abs_off_diagonal", value=float(np.max(np.abs(off_diagonal)))),
            Cell("decorrelation_threshold", value=4.0 / math.sqrt(runs)),
        ],
    )
    report.add_series("matrix", [f"l{j + 1}" for j in range(iters)], corr)
    return report


_CUBIC_NAME = "cubic"


def _grid_from_spec(g0: str, grid: int) -> GridCdf:
    if g0 == _CUBIC_NAME:
        return GridCdf.from_callable(lambda t: t * (4 * t * t - 6 * t + 3), grid)
    if g0 == "identity":
        return GridCdf.identity(grid)
    return GridCdf.from_distribution(parse_spec(g0), grid)


def run_operator_experiment(
    g0: str = _CUBIC_NAME,
    dist: str = "uniform",
    k: int = 30,
    grid: int = 2049,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Iterate the root-law operator and track sup-norm decay vs its bound.

    Emits one row per iteration: sup-norm distance to the identity, the
    theoretical bound at that k for the band width `markov.DELTA`, and the
    mean/variance of the induced scaling-factor law H_k. The report echoes
    `seed`, which nothing here draws from: the operator is deterministic.
    """
    cut_dist = parse_spec(dist)
    start_cdf = _grid_from_spec(g0, grid)
    eps = band_epsilon(start_cdf)

    iterates = iterate_operator(start_cdf, cut_dist, k)
    rows = []
    within = True
    for step, iterate in enumerate(iterates, start=1):
        distance = iterate.sup_distance_to_identity()
        bound = rate_bound(start_cdf, cut_dist, step)
        mean_h, var_h = hn_mean_var(iterate, cut_dist)
        within = within and distance <= bound
        rows.append((step, distance, bound, mean_h, var_h))

    report = ExperimentReport(
        "operator",
        {"g0": g0, "cut": cut_dist.spec, "k": k, "grid": grid,
         "delta": DELTA, "seed": seed},
        [
            Cell("initial_sup_distance", value=start_cdf.sup_distance_to_identity()),
            Cell("band_epsilon", value=eps),
            Cell("final_sup_distance", value=rows[-1][1]),
            Cell("all_within_bound", value=float(within)),
            Cell("stationary_mean_scaling",
                 value=theory.expected_contraction(cut_dist)),
        ],
    )
    report.add_series(
        "iterates", ["k", "sup_norm_distance", "rate_bound", "mean_Hk", "var_Hk"], rows
    )
    return report


def run_theory_report(dist: str) -> ExperimentReport:
    """Closed-form quantities for a cut law, plus its K-section rates.

    The `ksection` series is the law's own E[ell_K] for K = 1..`K_MAX` cuts
    per step and a uniform root; its K = 1 row is `expected_contraction`.
    """
    law = parse_spec(dist)
    mu, var = law.moments()
    report = ExperimentReport(
        "theory",
        {"dist": law.spec, "k_max": K_MAX},
        [
            Cell("mean", value=mu),
            Cell("variance", value=var),
            Cell("cut_concavity", value=theory.cut_concavity(law)),
            Cell("expected_contraction", value=theory.expected_contraction(law)),
            Cell("contraction_variance", value=theory.contraction_variance(law)),
        ],
    )
    grid = np.linspace(0.0, 1.0, 11)
    report.add_series(
        "conditional_expected_length", ["r0", "expected_scaling"],
        [(r0, theory.conditional_expected_length(r0, law)) for r0 in grid],
    )
    report.add_series(
        "ksection", ["k", "expected_scaling"],
        [(kk, theory.expected_contraction(law, kk)) for kk in range(1, K_MAX + 1)],
    )
    return report
