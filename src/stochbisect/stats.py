"""Estimators used by the experiment harness.

Percentile-bootstrap and Wilson confidence intervals, the exact one-sample
Kolmogorov-Smirnov statistic against the uniform law, log-linear fits for
exponential decay, Pearson correlation matrices, and Q-Q plotting data.
Q-Q data comes back as an (R, 2) float array, the (rows x columns) form
of a report series. The KS statistic needs a sample in [0, 1] and the
decay fit strictly positive values; NaN fails both. Correlation and Q-Q
data reject NaN and infinite values, and a correlation column is
constant, and rejected, when its minimum equals its maximum.

The statistical conventions are this module's constants: every interval
has level `LEVEL` (0.95), the bootstrap draws `RESAMPLES` (2000) resampled
means unless told otherwise, the KS test has level `KS_ALPHA` (0.01), and
a Q-Q series has at most `QQ_ROWS` (1000) rows.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "DegenerateSampleError",
    "IntervalEstimate",
    "bootstrap_mean_ci",
    "wilson_ci",
    "ks_statistic",
    "ks_critical_value",
    "fit_exponential_decay",
    "correlation_matrix",
    "qq_points",
]

BOOTSTRAP_PERCENTILE = "bootstrap_percentile"
WILSON = "wilson"

LEVEL = 0.95  # confidence level of every interval
RESAMPLES = 2000  # bootstrap resamples per interval
KS_ALPHA = 0.01  # KS test level
QQ_ROWS = 1000  # most rows of a Q-Q series

# Each bootstrap chunk's index matrix and gathered resamples hold at most
# this many elements: 512 KB apiece, a cache-sized working set.
_CHUNK_ELEMENTS = 1 << 16
# correlation_matrix centres at most this many elements (2 MB) at a time.
_CORR_BLOCK_ELEMENTS = 1 << 18


class DegenerateSampleError(ValueError):
    """Input sample is empty, constant, or otherwise unusable."""


@dataclass(frozen=True)
class IntervalEstimate:
    """Point estimate with a two-sided confidence interval."""

    point: float
    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self):
        if not self.lower <= self.point <= self.upper:
            raise ValueError(
                f"interval must satisfy lower <= point <= upper, got "
                f"({self.lower}, {self.point}, {self.upper})"
            )

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def overlaps(self, lower: float, upper: float) -> bool:
        return self.lower <= upper and lower <= self.upper

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def bootstrap_mean_ci(
    samples: Sequence[float],
    resamples: int = RESAMPLES,
    *,
    rng: np.random.Generator,
) -> IntervalEstimate:
    """Percentile-bootstrap `LEVEL` CI for the mean.

    Resamples with replacement `resamples` times and takes the symmetric
    percentiles of the resampled means. Every draw comes from `rng`.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise DegenerateSampleError("bootstrap needs a nonempty sample")
    if resamples < 1:
        raise ValueError(f"resamples must be positive, got {resamples}")

    n = samples.size
    means = np.empty(resamples)
    # Chunked resampling bounds memory whatever the sample size; the draws
    # do not depend on the chunk shape, so neither does the interval.
    rows = max(1, _CHUNK_ELEMENTS // n)
    for start in range(0, resamples, rows):
        stop = min(start + rows, resamples)
        idx = rng.integers(0, n, size=(stop - start, n))
        means[start:stop] = samples[idx].mean(axis=1)
    alpha = 0.5 * (1.0 - LEVEL)
    lower, upper = np.percentile(means, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    point = float(samples.mean())
    return IntervalEstimate(point, min(float(lower), point), max(float(upper), point),
                            LEVEL, BOOTSTRAP_PERCENTILE)


def wilson_ci(successes: int, trials: int) -> IntervalEstimate:
    """`LEVEL` Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + LEVEL))
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)
    )
    # The score interval always contains p_hat; guard the boundary cases
    # (0 or all successes) against last-ulp rounding of center - margin.
    lower = min(max(0.0, center - margin), p_hat)
    upper = max(min(1.0, center + margin), p_hat)
    return IntervalEstimate(p_hat, lower, upper, LEVEL, WILSON)


def ks_statistic(samples: Sequence[float]) -> float:
    """Exact sup_x |empirical CDF - x| against the uniform law on [0, 1].

    A sample outside [0, 1], or holding NaN, raises `DegenerateSampleError`.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise DegenerateSampleError("KS statistic needs a nonempty sample")
    # NaN sorts last, so the two ends catch every value outside [0, 1].
    if not (samples[0] >= 0.0 and samples[-1] <= 1.0):
        raise DegenerateSampleError("KS statistic needs a sample in [0, 1]")
    m = samples.size
    # One m-element buffer at a time beside the sorted sample: the grid
    # i/m is built in place, i = 1..m and then 0..m-1, and differenced there.
    gap = np.arange(1.0, m + 1.0)
    gap /= m
    upper = np.subtract(gap, samples, out=gap).max()
    del gap
    gap = np.arange(float(m))
    gap /= m
    return float(max(upper, np.subtract(samples, gap, out=gap).max()))


def ks_critical_value(m: int) -> float:
    """Asymptotic critical value c(KS_ALPHA) / sqrt(m) of the one-sample KS test.

    c(0.01) = 1.628 is the upper 1% quantile of the Kolmogorov distribution,
    the law of sup|B(t)| for a Brownian bridge B.
    """
    return 1.628 / math.sqrt(m)


def fit_exponential_decay(values: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of values[n] ~ C exp(-rho n); returns (rho, exp(-rho)).

    Fits a line through (n, log values[n]) over every value given.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values to fit a decay rate")
    if not np.all(values > 0.0):  # NaN fails this test too
        raise ValueError("exponential fit needs strictly positive values")
    n = np.arange(values.size)
    slope = np.polyfit(n, np.log(values), 1)[0]
    rho = -float(slope)
    return rho, math.exp(-rho)


def correlation_matrix(columns: Sequence[Sequence[float]]) -> np.ndarray:
    """Pearson correlation matrix of the given equal-length columns.

    `columns` is a sequence of 1-D columns or a (k, n) array, one column
    per row; a float array is used as given, not stacked into a copy. The
    covariance sums are taken blockwise, over column blocks of at most
    `_CORR_BLOCK_ELEMENTS` (2^18) elements centred one at a time, so the
    working set stays 2 MB whatever n is. Up to 2^18 elements that is one
    block and `np.corrcoef`'s own arithmetic, equal to it bit for bit;
    beyond, the per-block sums differ from it in the last bits. A
    column holding NaN or an infinity raises `DegenerateSampleError`, as
    does a constant column (its minimum equals its maximum), fewer than
    two columns, columns shorter than two, and columns of different lengths.
    """
    if len(columns) < 2:
        raise DegenerateSampleError("need at least two columns")
    try:
        data = np.asarray(columns, dtype=float)
    except ValueError:  # ragged columns
        raise DegenerateSampleError("columns must share one length >= 2") from None
    if data.ndim != 2 or data.shape[1] < 2:
        raise DegenerateSampleError("columns must be 1-D and share one length >= 2")
    lo, hi = data.min(axis=1), data.max(axis=1)
    # NaN reaches both ends of its column and an infinity one of them.
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DegenerateSampleError("every column must be finite")
    if np.any(lo == hi):
        raise DegenerateSampleError("every column needs nonzero variance")
    k, n = data.shape
    mean = data.mean(axis=1, keepdims=True)
    cov = np.zeros((k, k))
    step = max(1, _CORR_BLOCK_ELEMENTS // k)
    for start in range(0, n, step):
        block = data[:, start:start + step] - mean
        cov += np.dot(block, block.T)
        del block  # held into the next block, it would double the working set
    cov *= np.true_divide(1, n - 1)
    std = np.sqrt(np.diag(cov))
    cov /= std[:, None]
    cov /= std[None, :]
    return np.clip(cov, -1.0, 1.0, out=cov)


def qq_points(samples: Sequence[float]) -> np.ndarray:
    """Uniform Q-Q data: an (R, 2) array of rows (p_j, sample quantile at p_j).

    A sample of M <= `QQ_ROWS` values gives R = M rows ((i - 0.5) / M, i-th
    order statistic). A larger one gives R = `QQ_ROWS` rows at
    p_j = (j - 0.5) / QQ_ROWS, each with the order statistic of rank
    ceil(p_j M), so the output size is bounded whatever M is. A sample
    holding NaN or an infinity raises `DegenerateSampleError`.
    """
    samples = np.sort(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise DegenerateSampleError("Q-Q plot needs a nonempty sample")
    # -inf sorts first, +inf and NaN last, so the two ends of the full
    # sorted sample catch them all, before any rank is picked.
    if not (math.isfinite(samples[0]) and math.isfinite(samples[-1])):
        raise DegenerateSampleError("Q-Q plot needs a finite sample")
    m = samples.size
    rows = min(m, QQ_ROWS)
    j = np.arange(1, rows + 1)
    if m > rows:
        # ceil(p_j m) in integers: the float p_j * m can land one ulp above
        # an exact integer (m = 1200, j = 18), and its ceil one rank high.
        samples = samples[((2 * j - 1) * m + 2 * rows - 1) // (2 * rows) - 1]
    return np.column_stack(((j - 0.5) / rows, samples))
