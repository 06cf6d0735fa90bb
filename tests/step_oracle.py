"""Reference steps for the tests: the one-cut map and the K-cut gap rule.

`engine.population_step` applies the K-cut rule to many chains at once,
taking each chain's gap with a running in-place maximum and minimum over
the cut rows. These oracles write the rule out another way, so the tests
can replay a step's cuts and compare every factor and new root exactly:
`skewed_dyadic` is the one-cut map for one root, branch by branch, and
`k_cut_step` is the masked reduction over all k cut rows at once.
`drawn_step` is the step as `engine._evolve` takes it for the population
experiments, on the next block of cuts drawn from a stream.

`reference_bisection_run` and `reference_multisection_step` are frozen
copies of the scalar steps as first written, plain loops over named-tuple
records and generator expressions: the tuned `engine` versions must give
the same records, stop reasons, errors and draws.
"""

import math

import numpy as np

from stochbisect.distributions import DomainError, Uniform
from stochbisect.engine import (
    BracketError,
    IterationRecord,
    NonFiniteValueError,
    RunTrace,
    _draw_cuts,
    _redraw_endpoints,
    draw_cut,
    population_step,
)


def skewed_dyadic(c: float, r: float) -> float:
    """Rescaling map for one cut: r/c if c >= r, else (r-c)/(1-c).

    The tie c == r takes the first branch (returns 1). Cuts at exactly
    0 or 1 are rejected because the map degenerates there.
    """
    if not 0.0 < c < 1.0:
        raise DomainError(f"cut must lie strictly inside (0, 1), got {c}")
    if c >= r:
        return r / c
    return (r - c) / (1.0 - c)


def k_cut_step(roots: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ells, new_roots) for cuts of shape (k, *roots.shape).

    Each chain keeps the gap between its largest cut below the root and
    its smallest cut at or above it, with sentinels 0 and 1.
    """
    below = cuts < roots
    lo = np.where(below, cuts, 0.0).max(axis=0)
    hi = np.where(below, 1.0, cuts).min(axis=0)
    ells = hi - lo
    return ells, (roots - lo) / ells


def drawn_step(roots, law, rng, k: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """`population_step` on the next (k, *roots.shape) cut block from `rng`.

    The block takes the draws of `_draw_cuts`, as each block `_evolve` steps
    on does: k rows of M, so chain i takes draws i, M + i, ...
    """
    roots = np.asarray(roots, dtype=float)
    return population_step(roots, _draw_cuts(law, rng, k * roots.size).reshape(k, *roots.shape))


def _finite(x: float, fx: float) -> float:
    if not math.isfinite(fx):
        raise NonFiniteValueError(f"f({x!r}) = {float(fx)!r} is not finite")
    return fx


def reference_bisection_run(f, a, b, cut_dist, tol, max_iter, rng) -> RunTrace:
    """`engine.bisection_run` as first written: one record per step."""
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise BracketError(f"need a < b and a finite width b - a, got [{a}, {b}]")
    fa, fb = _finite(a, f(a)), _finite(b, f(b))
    if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"f does not change sign on [{a}, {b}]: f(a)={fa}, f(b)={fb}")

    width0 = b - a
    trace = RunTrace()
    length = 1.0
    n = 0
    while b - a >= tol and n < max_iter:
        c = draw_cut(cut_dist, rng)
        cut = a + (b - a) * c
        fc = _finite(cut, f(cut))
        n += 1
        if fc == 0.0:
            trace.records.append(IterationRecord(n, cut, cut, cut, 0.0, 0.0))
            trace.terminated_by = "exact_root"
            return trace
        if (fc < 0.0) != (fa < 0.0):
            b = cut
        else:
            a, fa = cut, fc
        ell = (b - a) / (width0 * length)
        length = (b - a) / width0
        trace.records.append(IterationRecord(n, a, b, cut, ell, length))
    trace.terminated_by = "tolerance" if b - a < tol else "max_iterations"
    return trace


_UNIFORM = Uniform()


def reference_multisection_step(r: float, k: int, rng) -> tuple[float, float]:
    """`engine.multisection_step` as first written: (ell, next root)."""
    if k < 1:
        raise ValueError(f"need at least one cut, got k={k}")
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    cuts = rng.random(k).tolist()
    if 0.0 in cuts:  # uniform draws lie in [0, 1): redraw a cut at 0
        cuts = _redraw_endpoints(np.array(cuts), _UNIFORM.sample, rng, _UNIFORM.spec).tolist()
    lo = max((c for c in cuts if c < r), default=0.0)
    hi = min((c for c in cuts if c >= r), default=1.0)
    ell = hi - lo
    return ell, (r - lo) / ell
