"""Reference steps for the tests: the one-cut map and the K-cut gap rule.

`engine.population_step` applies the K-cut rule to many chains at once,
taking each chain's gap with a running in-place maximum and minimum over
the cut rows. These oracles write the rule out another way, so the tests
can replay a step's cuts and compare every factor and new root exactly:
`skewed_dyadic` is the one-cut map for one root, branch by branch, and
`k_cut_step` is the masked reduction over all k cut rows at once.
`drawn_step` is the step as `engine._evolve` takes it for the population
experiments, on the next block of cuts drawn from a stream.
"""

import numpy as np

from stochbisect.distributions import DomainError
from stochbisect.engine import _draw_cuts, population_step


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
