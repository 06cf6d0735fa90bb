"""Deterministic experiment runners validating the theory by simulation.

Each runner is a pure function of its arguments and the master seed: every
random draw comes from a substream derived as (seed, experiment tag, run
index), so reports are reproducible byte for byte and runs could execute
in any order or in parallel. Results come back as an `ExperimentReport`
(config echo, labelled cells with theory references, named data series)
that serializes to CSV or JSON and parses back losslessly.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import stats, theory
from .distributions import parse_spec
from .engine import (
    TERMINATED_MAX_ITERATIONS,
    bisection_run,
    multisection_step,
    population_step,
)
from .markov import GridCdf, band_epsilon, hn_mean_var, iterate_operator, rate_bound
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
    reference_inside: bool | None = None

    def __post_init__(self):
        if (self.value is None) == (self.estimate is None):
            raise ValueError("a cell holds exactly one of value or estimate")
        if self.estimate is not None and self.theory_reference is not None:
            self.reference_inside = self.estimate.contains(self.theory_reference)


@dataclass
class ExperimentReport:
    """Structured result of one experiment run."""

    experiment: str
    config: dict
    cells: list[Cell] = field(default_factory=list)
    series: dict[str, tuple[list[str], list[tuple]]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def cell(self, label: str) -> Cell:
        for cell in self.cells:
            if cell.label == label:
                return cell
        raise KeyError(label)

    def add_series(self, name: str, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
        self.series[name] = (list(columns), [tuple(map(float, row)) for row in rows])

    def to_payload(self) -> dict:
        """Canonical JSON-safe dict; wall_time is deliberately excluded."""
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
            "series": {
                name: {"columns": cols, "rows": [list(r) for r in rows]}
                for name, (cols, rows) in self.series.items()
            },
            "notes": list(self.notes),
        }


def _plain(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


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


def report_to_csv(report: ExperimentReport) -> str:
    """Sectioned CSV: config rows, cell rows, then named series blocks."""
    payload = report.to_payload()
    buf = io.StringIO()
    import csv as _csv

    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", payload["experiment"]])
    for key, value in payload["config"].items():
        writer.writerow(["config", key, _format(value)])
    for cell in payload["cells"]:
        if "value" in cell:
            row = ["cell", cell["label"], "scalar", _format(cell["value"]), "", "", "", ""]
        else:
            row = ["cell", cell["label"], "interval", _format(cell["point"]),
                   _format(cell["lower"]), _format(cell["upper"]),
                   _format(cell["level"]), cell["method"]]
        row.append(_format(cell["theory"]) if "theory" in cell else "")
        row.append(_format(cell["theory_inside"]) if "theory_inside" in cell else "")
        writer.writerow(row)
    for note in payload["notes"]:
        writer.writerow(["note", note])
    for name, block in payload["series"].items():
        writer.writerow(["series", name, *block["columns"]])
        for row in block["rows"]:
            writer.writerow(["row", name, *[_format(v) for v in row]])
    return buf.getvalue()


def parse_report_csv(text: str) -> dict:
    """Inverse of `report_to_csv`, returning the canonical payload dict."""
    import csv as _csv

    payload: dict = {"experiment": None, "config": {}, "cells": [], "series": {}, "notes": []}
    for row in _csv.reader(io.StringIO(text)):
        if not row:
            continue
        tag = row[0]
        if tag == "experiment":
            payload["experiment"] = row[1]
        elif tag == "config":
            payload["config"][row[1]] = _parse_scalar(row[2])
        elif tag == "cell":
            label, kind = row[1], row[2]
            entry: dict = {"label": label}
            if kind == "scalar":
                entry["value"] = _parse_scalar(row[3])
            else:
                entry["point"] = float(row[3])
                entry["lower"] = float(row[4])
                entry["upper"] = float(row[5])
                entry["level"] = float(row[6])
                entry["method"] = row[7]
            if row[8]:
                entry["theory"] = float(row[8])
            if row[9]:
                entry["theory_inside"] = row[9] == "true"
            payload["cells"].append(entry)
        elif tag == "note":
            payload["notes"].append(row[1])
        elif tag == "series":
            payload["series"][row[1]] = {"columns": row[2:], "rows": []}
        elif tag == "row":
            payload["series"][row[1]]["rows"].append([float(v) for v in row[2:]])
        else:
            raise ValueError(f"unknown report row tag {tag!r}")
    return payload


def _interval_after_root(est: IntervalEstimate, power: float) -> IntervalEstimate:
    # x -> x^power is monotone on [0, inf), so endpoints map to endpoints.
    return IntervalEstimate(est.point**power, est.lower**power, est.upper**power,
                            est.level, est.method)


def _scaling_cells(
    ells: np.ndarray,
    final_lengths: np.ndarray,
    iters: int,
    reference: float,
    seed: int,
    tag: str,
    level: float,
    resamples: int,
) -> list[Cell]:
    mean_ci = stats.bootstrap_mean_ci(
        ells.ravel(), level=level, resamples=resamples,
        rng=substream(seed, tag, "bootstrap-ell"),
    )
    length_ci = stats.bootstrap_mean_ci(
        final_lengths, level=level, resamples=resamples,
        rng=substream(seed, tag, "bootstrap-length"),
    )
    geo_ci = _interval_after_root(length_ci, 1.0 / iters)
    return [
        Cell("mean_scaling_factor", estimate=mean_ci, theory_reference=reference),
        Cell("geometric_mean_length", estimate=geo_ci, theory_reference=reference),
    ]


# Bracket width at which a contraction run would stop short of `iters`.
_MIN_WIDTH = 1e-15


def run_contraction_experiment(
    dist: str = "uniform",
    runs: int = 500,
    iters: int = 30,
    seed: int = DEFAULT_SEED,
    level: float = 0.95,
    resamples: int = 2000,
) -> ExperimentReport:
    """Per-step scaling factors of random-cut bisection on f(x) = x - r.

    Each run draws a uniform root, runs the bracketing algorithm for
    `iters` iterations, and records every scaling factor; bootstrap CIs
    for the mean factor and for (mean L_N)^(1/N) are compared against the
    closed-form expected contraction. A run cut short by the 1e-15 width
    floor (or an exact hit of the root) raises `ArithmeticError`.
    """
    if runs < 2 or iters < 1:
        raise ValueError("need runs >= 2 and iters >= 1")
    cut_dist = parse_spec(dist)
    start = time.perf_counter()

    ells = np.empty((runs, iters))
    final_lengths = np.empty(runs)
    for m in range(runs):
        rng = substream(seed, "contraction", m)
        root = float(rng.uniform())
        trace = bisection_run(lambda x: x - root, 0.0, 1.0, cut_dist, _MIN_WIDTH, iters, rng)
        if trace.iterations < iters:  # averaging shorter runs would bias both estimates
            raise ArithmeticError(
                f"contraction run {m} stopped after {trace.iterations} of {iters} "
                f"iterations, at a width below {_MIN_WIDTH:g} or on the root")
        ells[m] = trace.ells()
        final_lengths[m] = trace.final_length()

    reference = theory.expected_contraction(cut_dist)
    report = ExperimentReport(
        "contraction",
        {"cut": cut_dist.spec, "runs": runs, "iters": iters,
         "seed": seed, "level": level, "resamples": resamples},
        _scaling_cells(ells.ravel(), final_lengths, iters, reference,
                       seed, "contraction", level, resamples),
    )
    report.cells.append(Cell("theory_contraction_variance",
                             value=theory.contraction_variance(cut_dist)))
    report.wall_time = time.perf_counter() - start
    return report


def run_ksection_experiment(
    k: int = 2,
    runs: int = 500,
    iters: int = 30,
    seed: int = DEFAULT_SEED,
    level: float = 0.95,
    resamples: int = 2000,
) -> ExperimentReport:
    """Scaling factors of the K-cut variant with uniform cuts and root."""
    if k < 1:
        raise ValueError("need k >= 1")
    if runs < 2 or iters < 1:
        raise ValueError("need runs >= 2 and iters >= 1")
    start = time.perf_counter()

    ells = np.empty((runs, iters))
    final_lengths = np.empty(runs)
    for m in range(runs):
        rng = substream(seed, "ksection", k, m)
        r = float(rng.uniform())
        length = 1.0
        for i in range(iters):
            ell, r = multisection_step(r, k, rng)
            ells[m, i] = ell
            length *= ell
        final_lengths[m] = length

    reference = theory.ksection_expected(k)
    report = ExperimentReport(
        "ksection",
        {"k": k, "runs": runs, "iters": iters, "seed": seed,
         "level": level, "resamples": resamples},
        _scaling_cells(ells.ravel(), final_lengths, iters, reference,
                       seed, "ksection", level, resamples),
    )
    report.wall_time = time.perf_counter() - start
    return report


def run_fixed_root_experiment(
    r: float,
    dist: str = "uniform",
    tol: float = 1e-8,
    runs: int = 1000,
    seed: int = DEFAULT_SEED,
    max_iter: int = 1000,
    level: float = 0.95,
    resamples: int = 2000,
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
    start = time.perf_counter()

    baseline = deterministic_iterations(tol)
    counts = np.empty(runs)
    capped = 0
    for m in range(runs):
        rng = substream(seed, "fixed-root", m)
        trace = bisection_run(lambda x: x - r, 0.0, 1.0, cut_dist, tol, max_iter, rng)
        counts[m] = trace.iterations
        capped += trace.terminated_by == TERMINATED_MAX_ITERATIONS
    if capped:
        raise ArithmeticError(
            f"{capped} of {runs} runs hit max_iter = {max_iter} before the bracket "
            f"narrowed below tol = {tol:g}")

    mean_ci = stats.bootstrap_mean_ci(
        counts, level=level, resamples=resamples,
        rng=substream(seed, "fixed-root", "bootstrap"),
    )
    lucky = int(np.sum(counts <= baseline))
    report = ExperimentReport(
        "fixed-root",
        {"r": r, "cut": cut_dist.spec, "tol": tol, "runs": runs,
         "seed": seed, "max_iter": max_iter, "level": level, "resamples": resamples},
        [
            Cell("mean_iterations", estimate=mean_ci),
            Cell("min_iterations", value=float(counts.min())),
            Cell("max_iterations", value=float(counts.max())),
            Cell("deterministic_iterations", value=float(baseline)),
            Cell("lucky_run_probability", estimate=stats.wilson_ci(lucky, runs, level)),
        ],
    )
    report.wall_time = time.perf_counter() - start
    return report


_ENDPOINT_EPS = 1e-12


def run_stationarity_experiment(
    root_dist: str = "uniform",
    dist: str = "uniform",
    runs: int = 1000,
    iters: int = 40,
    seed: int = DEFAULT_SEED,
    alpha: float = 0.01,
) -> ExperimentReport:
    """Distribution of the normalized root after many iterations.

    Evolves `runs` independent chains, then emits Q-Q data of the final
    normalized roots against the uniform law and a KS test at level alpha.
    Orbits collapsing onto the endpoints are flagged as non-convergent
    rather than raising.
    """
    if runs < 2 or iters < 1:
        raise ValueError("need runs >= 2 and iters >= 1")
    root_law = parse_spec(root_dist)
    cut_dist = parse_spec(dist)
    start = time.perf_counter()

    rng = substream(seed, "stationarity")
    roots = np.asarray(root_law.sample(rng, size=runs), dtype=float)
    critical = stats.ks_critical_value(runs, alpha)
    ks_rows = []
    for n in range(1, iters + 1):
        _, roots = population_step(roots, cut_dist, rng)
        ks_rows.append((n, stats.ks_statistic(roots), critical))

    ks = ks_rows[-1][1]
    endpoint_fraction = float(np.mean(
        (roots <= _ENDPOINT_EPS) | (roots >= 1.0 - _ENDPOINT_EPS)
    ))
    report = ExperimentReport(
        "stationarity",
        {"root": root_law.spec, "cut": cut_dist.spec, "runs": runs,
         "iters": iters, "seed": seed, "alpha": alpha},
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
    report.wall_time = time.perf_counter() - start
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
    root_law = parse_spec(root_dist)
    cut_dist = parse_spec(dist)
    start = time.perf_counter()

    rng = substream(seed, "decay")
    roots = np.asarray(root_law.sample(rng, size=runs), dtype=float)
    mu_ell = theory.expected_contraction(cut_dist)

    ks_values = [stats.ks_statistic(roots)]
    mean_devs: list[float] = []
    standard_errors: list[float] = []
    for _ in range(iters):
        ells, roots = population_step(roots, cut_dist, rng)
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
                      [(n, ks_values[n]) for n in range(iters + 1)])
    report.add_series("mean_deviation", ["n", "mean_abs_deviation"],
                      [(n, mean_devs[n - 1]) for n in range(1, iters + 1)])
    report.wall_time = time.perf_counter() - start
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
    root_law = parse_spec(root_dist)
    cut_dist = parse_spec(dist)
    start = time.perf_counter()

    rng = substream(seed, "correlation")
    roots = np.asarray(root_law.sample(rng, size=runs), dtype=float)
    ells = np.empty((iters, runs))
    for n in range(iters):
        ells[n], roots = population_step(roots, cut_dist, rng)

    corr = stats.correlation_matrix(list(ells))
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
    report.add_series("matrix", [f"l{j + 1}" for j in range(iters)], corr.tolist())
    report.wall_time = time.perf_counter() - start
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
    delta: float = 0.25,
    seed: int = DEFAULT_SEED,
) -> ExperimentReport:
    """Iterate the root-law operator and track sup-norm decay vs its bound.

    Emits one row per iteration: sup-norm distance to the identity, the
    theoretical bound at that k, and the mean/variance of the induced
    scaling-factor law H_k.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    start = time.perf_counter()
    cut_dist = parse_spec(dist)
    start_cdf = _grid_from_spec(g0, grid)
    eps = band_epsilon(start_cdf, delta)

    iterates = iterate_operator(start_cdf, cut_dist, k)
    rows = []
    within = True
    for step, iterate in enumerate(iterates, start=1):
        distance = iterate.sup_distance_to_identity()
        bound = rate_bound(start_cdf, cut_dist, delta, eps, step)
        mean_h, var_h = hn_mean_var(iterate, cut_dist)
        within = within and distance <= bound
        rows.append((step, distance, bound, mean_h, var_h))

    report = ExperimentReport(
        "operator",
        {"g0": g0, "cut": cut_dist.spec, "k": k, "grid": grid,
         "delta": delta, "seed": seed},
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
    report.wall_time = time.perf_counter() - start
    return report


def run_theory_report(dist: str, k_max: int = 6) -> ExperimentReport:
    """Closed-form quantities for a cut law, plus the K-section rates."""
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    law = parse_spec(dist)
    start = time.perf_counter()
    mu, var = law.moments()
    report = ExperimentReport(
        "theory",
        {"dist": law.spec, "k_max": k_max},
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
        [(float(r0), theory.conditional_expected_length(float(r0), law)) for r0 in grid],
    )
    report.add_series(
        "ksection", ["k", "expected_scaling"],
        [(kk, theory.ksection_expected(kk)) for kk in range(1, k_max + 1)],
    )
    report.wall_time = time.perf_counter() - start
    return report
