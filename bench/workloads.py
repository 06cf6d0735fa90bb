"""The benchmark's four workloads, built from the workload seed.

An operation is one CLI invocation (`stochbisect.cli.main`) or one library
solve (`stochbisect.bisection_run`). Each operation carries the span counts
its inputs imply for the traced run (see `tracer.py`), so a wrapper that
misses its target fails the cross-check instead of reporting zero.

Why these workloads:

* `readme` - the eight README commands at their documented sizes, the
  project's own end-to-end definition. Per-run scalar loops and bootstrap
  dominate; its `operator` takes the closed-form uniform path.
* `operator` - grid iteration of T with quadrature-backed cut laws; no
  simulation, bootstrap or seeding. The operator is deterministic, so the
  seed only reaches the `--seed` flag it echoes.
* `population` - large vectorized populations: vectorized sampling, KS,
  Q-Q and a multi-megabyte CSV report. No scalar loops, no bootstrap, no
  quadrature.
* `solve` - library root-finding with one substream per solve, the path a
  vectorized rewrite of the scalar step rules could slow down. Two inputs
  with known solver defects are attempted once per pass and count as
  failed until the defects are fixed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

# Sizes keep one pass of each workload between 1 and 2 s on a 2-vCPU Xeon
# VM, so a 25 s run takes its median over a dozen or more passes.
# Operator applications per `operator` command.
OPERATOR_K = 3
# Population size per `population` command.
POPULATION_RUNS = 100_000
# Solves per (function, cut law) pair and pass: 4800 solves.
SOLVES_PER_PAIR = 400

SOLVE_TOL = 1e-10
SOLVE_MAX_ITER = 200
# A root within this distance of a bracket endpoint still counts as
# bracketed: f's rounding makes its sign unreliable a few ulps from the root.
ROOT_SLACK = 1e-14

SOLVE_CUT_LAWS = ("uniform", "beta:2,2", "bates:20", "point:0.5")


def _cubic(x):
    return x**3 - 2.0 * x - 5.0


def _exp_minus_two(x):
    return math.exp(x) - 2.0


def _linear_at_half(x):
    return x - 0.5


def _tiny_scale(x):
    return 1e-200 * (x - 0.3)


# name -> (f, a, b, root)
SOLVE_FUNCTIONS = {
    "cos": (np.cos, 1.0, 2.0, math.pi / 2.0),
    "cubic": (_cubic, 2.0, 3.0, 2.0945514815423265),
    "exp": (_exp_minus_two, 0.0, 1.0, math.log(2.0)),
}

# Inputs that fail at the commit that introduced the benchmark: a cut
# landing exactly on the root loses the bracket, and the product sign test
# underflows for tiny-scale f. name -> (f, a, b, root, cut law)
KNOWN_DEFECTS = {
    "exact-root-hit": (_linear_at_half, 0.0, 1.0, 0.5, "point:0.5"),
    "sign-underflow": (_tiny_scale, 0.0, 1.0, 0.3, "uniform"),
}


@dataclass
class CliOp:
    """One `stochbisect` command; `expect` maps traced function -> spans."""

    argv: list[str]
    expect: dict[str, int] = field(default_factory=dict)
    known_defect: bool = False

    @property
    def name(self) -> str:
        return " ".join(self.argv)


@dataclass
class SolveOp:
    """One `bisection_run` call with its own substream."""

    label: str
    f: Callable[[float], float]
    a: float
    b: float
    root: float
    law: str
    stream: tuple
    known_defect: bool = False
    expect: dict[str, int] = field(default_factory=lambda: {
        "engine.bisection_run": 1, "seeding.substream": 1})

    @property
    def name(self) -> str:
        return f"solve {self.label} cut={self.law}"


def _cli(argv: str, seed: int | None, expect: dict[str, int]) -> CliOp:
    words = argv.split()
    if seed is not None:
        words += ["--seed", str(seed)]
    # Every command parses once and writes one CSV report; only the
    # experiments that estimate a mean run the bootstrap.
    counts = {"cli.main": 1, "experiments.report_to_csv": 1,
              "stats.bootstrap_mean_ci": 0}
    counts.update(expect)
    return CliOp(words, counts)


def _operator_expect(k: int, quadrature_cut: bool) -> dict[str, int]:
    # T is applied k times; each bound row needs H_k's moments and one rate
    # bound. Quadrature-backed cut laws rebuild their measure in both
    # `apply_operator` and `ell_cdf_general`.
    return {"markov.iterate_operator": 1, "markov.apply_operator": k,
            "markov.hn_mean_var": k, "markov.ell_cdf_general": k,
            "markov.rate_bound": k, "seeding.substream": 0,
            "distributions.quadrature": 2 * k if quadrature_cut else 0}


def _population_expect(command: str) -> dict[str, int]:
    # One population step and one KS statistic per iteration (decay also
    # measures the starting law), from a single substream.
    return {
        "decay": {"engine.population_step": 50, "stats.ks_statistic": 51,
                  "seeding.substream": 1},
        "stationarity": {"engine.population_step": 40, "stats.ks_statistic": 40,
                         "stats.qq_points": 1, "seeding.substream": 1},
        "correlation": {"engine.population_step": 14,
                        "stats.correlation_matrix": 1, "seeding.substream": 1},
    }[command]


def readme_ops(seed: int) -> list[CliOp]:
    return [
        # tol=1e-15 is out of reach in 30 iterations, so every run draws
        # exactly `iters` cuts.
        _cli("contraction --dist beta:2,2 --runs 500 --iters 30", seed,
             {"engine.bisection_run": 500, "engine.draw_cut": 500 * 30,
              "seeding.substream": 502, "stats.bootstrap_mean_ci": 2,
              "experiments.run_contraction_experiment": 1}),
        _cli("ksection --k 2", seed,
             {"engine.multisection_step": 500 * 30, "seeding.substream": 502,
              "stats.bootstrap_mean_ci": 2,
              "experiments.run_ksection_experiment": 1}),
        _cli("fixed-root --r 0.1 --dist bates:20 --tol 1e-8 --runs 1000", seed,
             {"engine.bisection_run": 1000, "seeding.substream": 1001,
              "stats.bootstrap_mean_ci": 1, "stats.wilson_ci": 1,
              "experiments.run_fixed_root_experiment": 1}),
        _cli("stationarity --root-dist beta:0.5,2 --dist uniform --runs 1000 --iters 40",
             seed, _population_expect("stationarity")),
        _cli("decay --root-dist beta:0.1,2 --runs 10000 --iters 50", seed,
             _population_expect("decay")),
        _cli("correlation --root-dist beta:5,50 --dist beta:5,50 --runs 10000 --iters 14",
             seed, _population_expect("correlation")),
        _cli("operator --g0 cubic --dist uniform --k 30 --grid 2049", seed,
             _operator_expect(30, quadrature_cut=False)),
        _cli("theory --dist bates:20", None,
             {"seeding.substream": 0, "experiments.run_theory_report": 1}),
    ]


def operator_ops(seed: int) -> list[CliOp]:
    k = OPERATOR_K
    return [
        _cli(f"operator --g0 cubic --dist beta:2,2 --k {k} --grid 2049", seed,
             _operator_expect(k, quadrature_cut=True)),
        _cli(f"operator --g0 cubic --dist bates:20 --k {k} --grid 2049", seed,
             _operator_expect(k, quadrature_cut=True)),
        # A spec as g0 builds the grid from the law's CDF, one call per node.
        _cli(f"operator --g0 beta:0.5,2 --dist beta:0.5,2 --k {k} --grid 1025", seed,
             {"distributions.cdf": 1025, **_operator_expect(k, quadrature_cut=True)}),
    ]


def population_ops(seed: int) -> list[CliOp]:
    runs = POPULATION_RUNS
    return [
        _cli(f"decay --root-dist beta:0.1,2 --dist bates:20 --runs {runs}", seed,
             _population_expect("decay")),
        _cli(f"stationarity --root-dist beta:0.5,2 --dist beta:2,2 --runs {runs}", seed,
             _population_expect("stationarity")),
        _cli(f"correlation --root-dist beta:5,50 --dist beta:5,50 --runs {runs}", seed,
             _population_expect("correlation")),
    ]


def solve_ops(seed: int) -> list[SolveOp]:
    ops = [
        SolveOp(fname, f, a, b, root, law, (seed, "solve", fname, law, j))
        for fname, (f, a, b, root) in SOLVE_FUNCTIONS.items()
        for law in SOLVE_CUT_LAWS
        for j in range(SOLVES_PER_PAIR)
    ]
    ops += [
        SolveOp(name, f, a, b, root, law, (seed, "solve-defect", name),
                known_defect=True)
        for name, (f, a, b, root, law) in KNOWN_DEFECTS.items()
    ]
    return ops


WORKLOADS = {"readme": readme_ops, "operator": operator_ops,
            "population": population_ops, "solve": solve_ops}
