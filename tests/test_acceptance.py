"""Acceptance criteria, one test per criterion, at their stated tolerances.

Every test prints one `[criterion N] PASS/FAIL` line (run with -s to see
them all). Statistical criteria run at the library's default master seed;
reports are deterministic, so these are exact regression gates.
"""

import math
import time

import numpy as np
import pytest

from operator_oracle import apply_operator_to_function
from step_oracle import drawn_step
from stochbisect import experiments as ex
from stochbisect import theory
from stochbisect.distributions import Uniform, parse_spec
from stochbisect.experiments import DEFAULT_SEED, report_to_csv, report_to_json
from stochbisect.markov import (
    GridCdf,
    apply_operator,
    ell_cdf_general,
    iterate_operator,
    rate_bound,
)
from stochbisect.seeding import substream

# Closed-form expected contractions for the cut laws under study.
REFERENCE_CONTRACTIONS = [
    ("uniform", 2 / 3),
    ("beta:2,2", 0.6),
    ("beta:0.5,2", 27 / 35),
    ("bates:20", 61 / 120),
]
# Fitted KS decay rates recorded for these starting root laws at the
# default experiment size (regression targets for the decay fit).
REFERENCE_DECAY_RATES = [
    ("beta:2,2", 0.528),
    ("beta:0.5,2", 0.736),
    ("beta:0.1,2", 0.914),
    ("bates:20", 0.363),
]


def _criterion(number: int, description: str, passed: bool, detail: str = ""):
    line = f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def table1_reports():
    start = time.perf_counter()
    reports = {spec: ex.run_contraction_experiment(spec, runs=500, iters=30,
                                                   seed=DEFAULT_SEED)
               for spec, _ in REFERENCE_CONTRACTIONS}
    return reports, time.perf_counter() - start


@pytest.fixture(scope="module")
def beta012_iterates():
    g0 = GridCdf.from_distribution(parse_spec("beta:0.1,2"), 2049)
    return g0, iterate_operator(g0, parse_spec("uniform"), 30)


def test_criterion_1_contraction_cis(table1_reports):
    reports, elapsed = table1_reports
    ok = elapsed < 10.0
    details = [f"runtime {elapsed:.1f}s"]
    for spec, reference in REFERENCE_CONTRACTIONS:
        cell = reports[spec].cell("mean_scaling_factor")
        inside = cell.reference_inside
        close = abs(cell.estimate.midpoint - reference) < 0.01
        ok = ok and inside and close
        details.append(f"{spec}:[{cell.estimate.lower:.4f},{cell.estimate.upper:.4f}]"
                       f"{'∋' if inside else '∌'}{reference:.4f}")
    _criterion(1, "contraction CIs contain theory, midpoints within 0.01, under 10 s",
               ok, "; ".join(details))


def test_criterion_2_geometric_mean_cis(table1_reports):
    reports, _ = table1_reports
    ok = True
    details = []
    for spec, reference in REFERENCE_CONTRACTIONS:
        cell = reports[spec].cell("geometric_mean_length")
        ok = ok and cell.reference_inside
        details.append(f"{spec}:[{cell.estimate.lower:.4f},{cell.estimate.upper:.4f}]")
    _criterion(2, "geometric-mean length CIs contain theory", ok, "; ".join(details))


def test_criterion_3_ksection():
    start = time.perf_counter()
    ok = True
    details = []
    for k, reference in [(2, 0.5), (3, 0.4), (4, 1 / 3)]:
        report = ex.run_ksection_experiment(k, runs=500, iters=30, seed=DEFAULT_SEED)
        cell = report.cell("mean_scaling_factor")
        ok = ok and cell.reference_inside
        if k == 2:
            ok = ok and cell.estimate.overlaps(0.489, 0.509)
        details.append(f"K={k}:[{cell.estimate.lower:.4f},{cell.estimate.upper:.4f}]")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _criterion(3, "K-section CIs contain 0.5, 0.4, 1/3 under 10 s",
               ok, "; ".join(details) + f"; runtime {elapsed:.1f}s")


def test_criterion_4_deterministic_baseline():
    ok = True
    details = []
    for r in (0.1, 0.3, 0.45):
        report = ex.run_fixed_root_experiment(r, "point:0.5", tol=1e-8, runs=50,
                                              seed=DEFAULT_SEED)
        lo = report.cell("min_iterations").value
        hi = report.cell("max_iterations").value
        ok = ok and lo == 27.0 and hi == 27.0
        details.append(f"r={r}:{int(lo)}..{int(hi)}")
    _criterion(4, "midpoint cuts at tol 1e-8 take exactly 27 iterations for every root",
               ok, "; ".join(details))


def test_criterion_5_fixed_root_statistics():
    bates = ex.run_fixed_root_experiment(0.1, "bates:20", tol=1e-8, runs=1000,
                                         seed=DEFAULT_SEED)
    mean_ci = bates.cell("mean_iterations").estimate
    lucky_ci = bates.cell("lucky_run_probability").estimate
    ok = 27.0 <= mean_ci.lower and mean_ci.upper <= 27.8
    ok = ok and lucky_ci.overlaps(0.49, 0.62)
    details = [f"bates mean [{mean_ci.lower:.2f},{mean_ci.upper:.2f}]",
               f"lucky [{lucky_ci.lower:.3f},{lucky_ci.upper:.3f}]"]
    for r in (0.1, 0.45):
        slow = ex.run_fixed_root_experiment(r, "beta:2,0.5", tol=1e-8, runs=1000,
                                            seed=DEFAULT_SEED)
        est = slow.cell("mean_iterations").estimate
        ok = ok and est.point > 50.0
        details.append(f"beta:2,0.5@r={r} mean {est.point:.1f}")
    _criterion(5, "fixed-root statistics (Bates fast, Beta(2,0.5) slow)",
               ok, "; ".join(details))


def test_criterion_6_stationarity():
    report = ex.run_stationarity_experiment("uniform", "uniform", runs=10_000,
                                            iters=10, seed=DEFAULT_SEED)
    _, rows = report.series["ks"]
    worst = max(row[1] for row in rows)
    critical = rows[0][2]
    ok = len(rows) == 10 and all(row[1] < row[2] for row in rows)
    _criterion(6, "uniform root stays uniform: KS passes at alpha=0.01 for n=1..10",
               ok, f"max D={worst:.4f} < {critical:.4f}")


def test_criterion_7_decay_rates():
    start = time.perf_counter()
    ok = True
    details = []
    for spec, target in REFERENCE_DECAY_RATES:
        report = ex.run_decay_experiment(spec, "uniform", runs=10_000,
                                         iters=50, seed=DEFAULT_SEED)
        rate = report.cell("ks_fitted_rate").value
        reference = report.cell("reference_rate").value
        ok = ok and abs(rate - target) < 0.05 and rate <= reference + 0.03
        details.append(f"{spec}:{rate:.3f} (ref {target})")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _criterion(7, "fitted decay rates within 0.05 of reference, under bound+0.03, under 60 s",
               ok, "; ".join(details) + f"; runtime {elapsed:.1f}s")


def test_criterion_8_operator_fidelity():
    uniform = parse_spec("uniform")
    grid = GridCdf.from_callable(lambda t: t * (4 * t * t - 6 * t + 3), 2049)
    ts = grid.nodes
    worst_iter = 0.0
    for k, it in enumerate(iterate_operator(grid, uniform, 3), start=1):
        closed = ts * ((2 * ts * ts - 3 * ts + 1) / 2 ** (k - 1) + 1)
        worst_iter = max(worst_iter, float(np.max(np.abs(it.values - closed))))
    linear = GridCdf(0.2 + 0.8 * ts)
    linear_err = float(np.max(np.abs(apply_operator(linear, uniform).values - linear.values)))
    q = theory.cut_concavity(uniform)
    quad = apply_operator_to_function(lambda x: x * x, uniform, ts)
    quad_err = float(np.max(np.abs(quad - (2 * ts * (1 - ts) * q + ts * ts))))
    ok = worst_iter < 1e-6 and linear_err < 1e-9 and quad_err < 1e-8
    _criterion(8, "operator matches the cubic's closed-form iterates, linear fixed points, quadratic map",
               ok, f"iterate err {worst_iter:.2e}, linear {linear_err:.2e}, quad {quad_err:.2e}")


def test_criterion_9_rate_bound(beta012_iterates):
    g0, iterates = beta012_iterates
    uniform = parse_spec("uniform")
    margins = []
    ok = True
    for k, it in enumerate(iterates, start=1):
        bound = rate_bound(g0, uniform, k)
        ok = ok and it.sup_distance_to_identity() <= bound
        margins.append(bound - it.sup_distance_to_identity())
    _criterion(9, "Beta(0.1,2) start: measured sup distance under the analytic bound for k<=30",
               ok, f"min margin {min(margins):.3e}")


def test_criterion_10_general_ell_bound(beta012_iterates):
    _, iterates = beta012_iterates
    uniform = parse_spec("uniform")
    ts = iterates[0].nodes
    h_uniform_root = ts * ts  # closed-form scaling law for uniform cuts
    ok = True
    worst_slack = math.inf
    for it in iterates:
        hn = np.asarray(ell_cdf_general(it, uniform, ts))
        gap = float(np.max(np.abs(hn - h_uniform_root)))
        allowance = 2.0 * it.sup_distance_to_identity() + 1e-6
        ok = ok and gap <= allowance
        worst_slack = min(worst_slack, allowance - gap)
    _criterion(10, "||H_n - H|| <= 2 ||G_n - t|| + 1e-6 along the same run",
               ok, f"min slack {worst_slack:.3e}")


def test_criterion_11_closed_form_cross_validation():
    ok = True
    details = []
    for spec in ["uniform", "beta:2,2", "beta:0.5,2", "beta:2,0.5", "bates:20",
                 "point:0.5"]:
        dist = parse_spec(spec)
        rng = substream(DEFAULT_SEED, "mc-crossval", spec)
        roots = rng.uniform(size=1_000_000)
        ells, _ = drawn_step(roots, dist, rng)
        se = float(ells.std()) / 1000.0
        gap = abs(float(ells.mean()) - theory.expected_contraction(dist))
        ok = ok and gap <= 3.0 * se
        details.append(f"{spec}:{gap / se:.1f}se" if se else f"{spec}:exact")
    nodes, weights = np.polynomial.legendre.leggauss(16)
    r = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    for k in range(1, 11):
        integral = float(w @ [theory.conditional_expected_length(float(x), Uniform(), k)
                              for x in r])
        ok = ok and abs(integral - theory.expected_contraction(Uniform(), k)) < 1e-10
    _criterion(11, "Monte Carlo matches closed forms within 3 SE; K-section integral to 1e-10",
               ok, "; ".join(details))


def test_criterion_12_independence_structure():
    uniform_root = ex.run_correlation_experiment("uniform", "beta:5,50",
                                                 runs=10_000, iters=14,
                                                 seed=DEFAULT_SEED)
    max_off = uniform_root.cell("max_abs_off_diagonal").value
    threshold = uniform_root.cell("decorrelation_threshold").value
    skewed = ex.run_correlation_experiment("beta:5,50", "beta:5,50",
                                           runs=10_000, iters=14,
                                           seed=DEFAULT_SEED)
    corr12 = skewed.cell("corr_l1_l2").value
    ok = max_off < threshold and corr12 < 0.0 and abs(corr12) > 0.3
    _criterion(12, "uniform root decorrelates the factors; Beta(5,50) root correlates l1, l2 negatively",
               ok, f"max |rho|={max_off:.4f} < {threshold:.4f}; corr(l1,l2)={corr12:.3f}")


def test_criterion_13_determinism(tmp_path):
    ok = True
    for fmt, render in [("csv", report_to_csv), ("json", report_to_json)]:
        pairs = [
            render(ex.run_contraction_experiment("beta:2,2", runs=50, iters=10,
                                                 seed=DEFAULT_SEED))
            for _ in range(2)
        ]
        ok = ok and pairs[0] == pairs[1]
    for runner, kwargs in [
        (ex.run_decay_experiment, dict(root_dist="beta:2,2", runs=500, iters=10)),
        (ex.run_stationarity_experiment, dict(runs=200, iters=5)),
        (ex.run_operator_experiment, dict(g0="cubic", k=2, grid=257)),
    ]:
        a = report_to_csv(runner(seed=DEFAULT_SEED, **kwargs))
        b = report_to_csv(runner(seed=DEFAULT_SEED, **kwargs))
        ok = ok and a == b
    _criterion(13, "repeated runs with one seed produce byte-identical reports", ok)
