"""Stochastic bisection algorithms.

One step rule lives here, the K-cut step: draw K cuts in (0, 1) and keep
the gap [lo, hi] between the largest cut below the root r and the
smallest cut at or above it (0 and 1 when there is none), then rescale r
to (r - lo) / (hi - lo). A tie c == r therefore keeps [lo, c]. With one
cut this is random bisection. `population_step` is the one vectorized
kernel: it advances many independent chains on a given block of cuts,
drawn from any law, for the statistical experiments. `multisection_step`
is the scalar step with uniform cuts, and `bisection_run` applies the
one-cut rule to a bracket of a user-supplied f, keeping one
`IterationRecord` per step. A record is a named tuple: immutable and read
by field name. `bisection_run` builds each one with `tuple.__new__`,
skipping the named tuple's Python-level constructor, and draws each cut
with one `draw_cut` call.

`_evolve` steps a population experiment's chains, drawing each step's cut
block on the calling thread, or, from `_PREFETCH_MIN_CUTS` cuts, one step
ahead on a worker thread, taking the same draws in the same order.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .distributions import Distribution, DomainError, Uniform

__all__ = [
    "BracketError",
    "CutRedrawError",
    "NonFiniteValueError",
    "IterationRecord",
    "RunTrace",
    "draw_cut",
    "bisection_run",
    "multisection_step",
    "population_step",
]

_MAX_REDRAWS = 100
_UNIFORM = Uniform()

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
        raise NonFiniteValueError(f"f({x!r}) = {float(fx)!r} is not finite")
    return fx


def draw_cut(cut_dist: Distribution, rng: np.random.Generator) -> float:
    """One cut in the open interval (0, 1), redrawing endpoint values.

    Endpoint cuts stall the process (the interval never shrinks on one
    side), so they are redrawn, one size-1 draw at a time, as the population
    blocks redraw them: a cut is accepted if any of its first 1 + 100 draws
    lands in (0, 1), else `CutRedrawError` is raised.
    """
    c = float(cut_dist.sample(rng))
    if 0.0 < c < 1.0:
        return c
    return float(_redraw_endpoints(np.array([c]), cut_dist.sample, rng, cut_dist.spec)[0])


def _draw_cuts(cut_dist: Distribution, rng: np.random.Generator, size: int) -> np.ndarray:
    """One block of `size` cuts in (0, 1), drawn on the calling thread."""
    return _sampled_cuts(cut_dist.sample, rng, size, cut_dist.spec)


def _sampled_cuts(sample, rng: np.random.Generator, size: int, spec: str) -> np.ndarray:
    """`size` draws of `sample`, endpoints redrawn; a worker may pass a law's `_sample`."""
    return _redraw_endpoints(np.asarray(sample(rng, size=size), dtype=float), sample, rng, spec)


def _redraw_endpoints(cuts: np.ndarray, sample, rng: np.random.Generator, spec: str) -> np.ndarray:
    """`cuts`, each at 0 or 1, or NaN, redrawn in place by `sample`.

    A cut that stays raises `CutRedrawError`, naming the law by the string `spec`,
    so that a worker thread may raise it.
    """
    for redraws in range(_MAX_REDRAWS + 1):
        bad = ~((cuts > 0.0) & (cuts < 1.0))  # NaN is redrawn too
        if not bad.any():
            return cuts
        if redraws < _MAX_REDRAWS:  # the last redraw is checked, never redrawn
            cuts[bad] = sample(rng, size=int(bad.sum()))
    raise CutRedrawError(f"{spec} kept producing cuts at 0 or 1 after {_MAX_REDRAWS} redraws")


# Smaller blocks are drawn inline: the worker's hand-offs would cost more than they save.
_PREFETCH_MIN_CUTS = 2 ** 16


def _evolve(roots: np.ndarray, cut_dist: Distribution, rng: np.random.Generator, steps: int):
    """Yield (ells, roots) after each of `steps` one-cut `population_step`s of `roots`.

    The cuts take the draws of `_draw_cuts`; from `_PREFETCH_MIN_CUTS` chains a
    worker draws them a step ahead, so nothing else may draw from `rng` meanwhile.
    Close the generator (`closing`) so that a failing caller stops the worker first.
    """
    size = roots.size
    if size < _PREFETCH_MIN_CUTS:
        for _ in range(steps):
            ells, roots = population_step(roots, _draw_cuts(cut_dist, rng, size)[None])
            yield ells, roots
            del ells  # held into the next step, they would raise the heap's peak by a block
        return
    # Imported on use: at module level it would add ~3 ms to every package import.
    from concurrent.futures import ThreadPoolExecutor
    draw = (_sampled_cuts, cut_dist._sample, rng, size, cut_dist.spec)
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(*draw)
        for step in range(1, steps + 1):
            cuts = pending.result()
            if step < steps:
                pending = worker.submit(*draw)
            ells, roots = population_step(roots, cuts[None])
            yield ells, roots
            del ells


class IterationRecord(NamedTuple):
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

    def ells(self) -> np.ndarray:
        return np.array([rec.ell for rec in self.records])


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
    starting endpoint, or a starting width b - a that is not finite, raises
    `BracketError`.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    a, b = float(a), float(b)
    if not (a < b and math.isfinite(b - a)):
        raise BracketError(f"need a < b and a finite width b - a, got [{a}, {b}]")
    fa, fb = _finite(a, f(a)), _finite(b, f(b))
    if fa == 0.0 or fb == 0.0 or (fa < 0.0) == (fb < 0.0):
        raise BracketError(f"f does not change sign on [{a}, {b}]: f(a)={fa}, f(b)={fb}")

    # The loop runs once per step of every scalar run: globals and attributes
    # are read once, finiteness is tested inline (`_finite` only raises), and
    # f(a)'s sign is kept, as a cut replacing a keeps it.
    width0 = width = b - a
    records = []
    append, new, record = records.append, tuple.__new__, IterationRecord
    draw, isfinite = draw_cut, math.isfinite
    negative = fa < 0.0
    length = 1.0
    n = 0
    while width >= tol and n < max_iter:
        cut = a + width * draw(cut_dist, rng)
        fc = f(cut)
        if not isfinite(fc):
            _finite(cut, fc)
        n += 1
        if fc == 0.0:
            append(new(record, (n, cut, cut, cut, 0.0, 0.0)))
            return RunTrace(records, TERMINATED_EXACT_ROOT)
        if (fc < 0.0) != negative:
            b = cut
        else:
            a = cut
        width = b - a
        ell = width / (width0 * length)
        length = width / width0
        append(new(record, (n, a, b, cut, ell, length)))
    return RunTrace(records, TERMINATED_TOLERANCE if width < tol else TERMINATED_MAX_ITERATIONS)


def multisection_step(
    r: float, k: int, rng: np.random.Generator
) -> tuple[float, float]:
    """One K-cut step with uniform cuts: returns (ell, next root).

    Draws k i.i.d. uniform cuts, keeps the gap between the largest cut
    below r and the smallest at or above it (with sentinels 0 and 1), and
    rescales r to that gap. It draws its cuts on the calling thread as
    `_draw_cuts` draws a one-chain block, so it agrees with `population_step`
    bit for bit.
    """
    if k < 1:
        raise ValueError(f"need at least one cut, got k={k}")
    r = float(r)
    if not 0.0 <= r <= 1.0:
        raise DomainError(f"r must lie in [0, 1], got {r}")
    cuts = rng.random(k).tolist()
    if 0.0 in cuts:  # uniform draws lie in [0, 1): redraw a cut at 0
        cuts = _redraw_endpoints(np.array(cuts), _UNIFORM.sample, rng, _UNIFORM.spec).tolist()
    lo, hi = 0.0, 1.0  # every cut lies in (0, 1), inside the sentinels
    for c in cuts:
        if c < r:
            if c > lo:
                lo = c
        elif c < hi:
            hi = c
    ell = hi - lo
    return ell, (r - lo) / ell


def population_step(roots: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Advance M independent chains one K-cut iteration: (ells, new_roots).

    `cuts` is k rows shaped like `roots`; `_draw_cuts` draws them as k rows
    of M, so chain i takes draws i, M + i, ..., the scalar step's order.
    With k = 1 a cut c >= r keeps [0, c] and maps r to r / c, tie included,
    and a cut c < r keeps [c, 1] and maps r to (r - c) / (1 - c). A root
    outside [0, 1], a cut outside (0, 1), or NaN raises `DomainError`; no
    cut rows, or rows of another shape, raise `ValueError`.

    The gap is found one cut row at a time, in place: every cut lies in
    (0, 1), so min(c, c < r) is c below the root and 0 otherwise, and
    max(c, c < r) is 1 below the root and c otherwise. A running maximum
    and minimum of these give lo and hi with no k x M temporary. Each row
    reuses one bool mask and one scratch row, and the factors and new roots
    are then computed in place in hi and lo: four M-element buffers in all,
    whatever k is.
    """
    roots = np.asarray(roots, dtype=float)
    cuts = np.asarray(cuts, dtype=float)
    if cuts.ndim == 0 or cuts.shape[0] < 1 or cuts.shape[1:] != roots.shape:
        raise ValueError(f"need at least one cut row of shape {roots.shape}, got {cuts.shape}")
    # The initial values let an empty population through; NaN fails both tests.
    least, greatest = roots.min(initial=0.0), roots.max(initial=1.0)
    if not (least >= 0.0 and greatest <= 1.0):
        raise DomainError(f"roots must lie in [0, 1], got min {least}, max {greatest}")
    least, greatest = cuts.min(initial=0.5), cuts.max(initial=0.5)
    if not (least > 0.0 and greatest < 1.0):
        raise DomainError(f"cuts must lie in (0, 1), got min {least}, max {greatest}")
    lo, hi = np.zeros_like(roots), np.ones_like(roots)
    below, scratch = np.empty(roots.shape, dtype=bool), np.empty_like(roots)
    for row in cuts:
        np.less(row, roots, out=below)
        np.maximum(lo, np.minimum(row, below, out=scratch), out=lo)
        np.minimum(hi, np.maximum(row, below, out=scratch), out=hi)
    ells = np.subtract(hi, lo, out=hi)
    np.subtract(roots, lo, out=lo)
    return ells, np.divide(lo, ells, out=lo)
