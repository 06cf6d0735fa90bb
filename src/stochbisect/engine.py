"""Stochastic bisection algorithms.

Two step rules live here: the random cut, which keeps [0, c] when c >= r
and [c, 1] otherwise and renormalizes the root by the skewed dyadic map,
and the K-cut multisection step. `bisection_run` applies the random cut
to a bracket of a user-supplied f; vectorized population steppers evolve
many independent chains at once for the statistical experiments, and
`skewed_dyadic` is the scalar reference for one cut.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution, DomainError

__all__ = [
    "BracketError",
    "CutRedrawError",
    "NonFiniteValueError",
    "IterationRecord",
    "RunTrace",
    "skewed_dyadic",
    "draw_cut",
    "bisection_run",
    "multisection_step",
    "population_step",
    "multisection_population_step",
]

_MAX_REDRAWS = 100

TERMINATED_TOLERANCE = "tolerance"
TERMINATED_MAX_ITERATIONS = "max_iterations"
TERMINATED_EXACT_ROOT = "exact_root"


class BracketError(ValueError):
    """f does not change sign over the starting interval."""


class CutRedrawError(RuntimeError):
    """Cut law kept producing endpoint cuts (0 or 1) past the redraw cap."""


class NonFiniteValueError(ArithmeticError):
    """f returned NaN or an infinity, so its sign cannot be trusted."""


def _finite(x: float, fx: float) -> float:
    if not math.isfinite(fx):
        raise NonFiniteValueError(f"f({x!r}) = {fx!r} is not finite")
    return fx


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


def draw_cut(cut_dist: Distribution, rng: np.random.Generator) -> float:
    """One cut in the open interval (0, 1), redrawing endpoint values.

    Endpoint cuts stall the process (the interval never shrinks on one
    side), so they are rejected; after 100 consecutive rejections the law
    is considered degenerate and an error is raised.
    """
    for _ in range(_MAX_REDRAWS):
        c = float(cut_dist.sample(rng))
        if 0.0 < c < 1.0:
            return c
    raise CutRedrawError(
        f"{cut_dist.spec} produced {_MAX_REDRAWS} consecutive cuts at 0 or 1"
    )


def _draw_cuts(cut_dist: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    cuts = np.asarray(cut_dist.sample(rng, size=size), dtype=float)
    for _ in range(_MAX_REDRAWS):
        bad = (cuts <= 0.0) | (cuts >= 1.0)
        if not bad.any():
            return cuts
        cuts[bad] = cut_dist.sample(rng, size=int(bad.sum()))
    raise CutRedrawError(
        f"{cut_dist.spec} kept producing cuts at 0 or 1 after {_MAX_REDRAWS} redraws"
    )


@dataclass(frozen=True)
class IterationRecord:
    """State after one iteration: bracket, cut, scaling, cumulative length."""

    n: int
    a: float
    b: float
    cut: float
    ell: float
    L: float


@dataclass
class RunTrace:
    """Full record of one run: one record per iteration and the stop reason.

    `terminated_by` is "tolerance", "max_iterations" or "exact_root". Each
    record's `L` is its bracket width over the starting width, the running
    product of the scaling factors `ell`.
    """

    records: list[IterationRecord] = field(default_factory=list)
    terminated_by: str = TERMINATED_MAX_ITERATIONS

    def __len__(self) -> int:
        return len(self.records)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def ells(self) -> np.ndarray:
        return np.array([rec.ell for rec in self.records])

    def final_length(self) -> float:
        return self.records[-1].L if self.records else 1.0


def bisection_run(
    f: Callable[[float], float],
    a: float,
    b: float,
    cut_dist: Distribution,
    tol: float,
    max_iter: int,
    rng: np.random.Generator,
) -> RunTrace:
    """Bisection with a random cut, bracketing a sign change of f.

    Each iteration draws c in (0, 1) and cuts at a + (b - a) c, keeping
    [a, cut] when the signs of f(cut) and f(a) differ and [cut, b]
    otherwise, until b - a < tol or the iteration cap is hit. Comparing
    signs rather than a product works at any scale of f. A `tol` of 0 or
    below runs to the cap; a NaN `tol` raises `ValueError`.

    A cut with f(cut) == 0 stops the run with `terminated_by ==
    "exact_root"`; its record has a == b == cut and ell == L == 0. A NaN
    or infinite value of f raises `NonFiniteValueError`; a zero at either
    starting endpoint raises `BracketError`.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    a, b = float(a), float(b)
    if not a < b:
        raise BracketError(f"need a < b, got [{a}, {b}]")
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
            trace.terminated_by = TERMINATED_EXACT_ROOT
            return trace
        if (fc < 0.0) != (fa < 0.0):
            b = cut
        else:
            a, fa = cut, fc
        ell = (b - a) / (width0 * length)
        length = (b - a) / width0
        trace.records.append(IterationRecord(n, a, b, cut, ell, length))
    trace.terminated_by = TERMINATED_TOLERANCE if b - a < tol else TERMINATED_MAX_ITERATIONS
    return trace


def multisection_step(
    r: float, k: int, rng: np.random.Generator
) -> tuple[float, float]:
    """One K-cut step with uniform cuts: returns (ell, next root).

    Draws k i.i.d. uniform cuts, brackets r between consecutive order
    statistics (with sentinels 0 and 1), and rescales r to the kept gap.
    """
    if k < 1:
        raise ValueError(f"need at least one cut, got k={k}")
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    cuts = np.sort(rng.uniform(size=k))
    j = int(np.searchsorted(cuts, r, side="right"))
    lo = 0.0 if j == 0 else float(cuts[j - 1])
    hi = 1.0 if j == k else float(cuts[j])  # cuts < 1, so r == 1 keeps the last gap
    ell = hi - lo
    return ell, (r - lo) / ell


def population_step(
    roots: np.ndarray, cut_dist: Distribution, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Advance M independent chains one iteration (one cut each).

    Returns (ells, new_roots). Ties c == r take the c >= r branch, matching
    `skewed_dyadic`.
    """
    roots = np.asarray(roots, dtype=float)
    cuts = _draw_cuts(cut_dist, rng, roots.size).reshape(roots.shape)
    keep_low = cuts >= roots
    ells = np.where(keep_low, cuts, 1.0 - cuts)
    # r / c overflows only for a tiny cut c < r, where the other branch is kept.
    with np.errstate(over="ignore", invalid="ignore"):
        low = roots / cuts
    with np.errstate(invalid="ignore"):
        new_roots = np.where(keep_low, low, (roots - cuts) / (1.0 - cuts))
    return ells, new_roots


def multisection_population_step(
    roots: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Advance M independent chains one K-cut iteration with uniform cuts."""
    if k < 1:
        raise ValueError(f"need at least one cut, got k={k}")
    roots = np.asarray(roots, dtype=float)
    m = roots.size
    cuts = np.sort(rng.uniform(size=(m, k)), axis=1)
    padded = np.empty((m, k + 2))
    padded[:, 0] = 0.0
    padded[:, 1:-1] = cuts
    padded[:, -1] = 1.0
    j = np.sum(cuts <= roots[:, None], axis=1)  # cuts < 1, so r == 1 gives j == k
    lo = np.take_along_axis(padded, j[:, None], axis=1)[:, 0]
    hi = np.take_along_axis(padded, (j + 1)[:, None], axis=1)[:, 0]
    ells = hi - lo
    return ells, (roots - lo) / ells
