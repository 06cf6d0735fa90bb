"""Discretized Markov operator driving the normalized-root distribution.

One bisection step sends the CDF G of the normalized root to

    (T G)(t) = int_0^1 ( G(t c) + G(t + (1-t) c) - G(c) ) dF(c),

where F is the cut law. T is linear, positive, preserves every linear
function, and iterating it drives any admissible starting CDF to the
identity (the uniform law) at a known geometric rate. This module
represents CDFs as piecewise-linear grid functions and applies T exactly
or by quadrature, depending on the cut law:

* uniform cuts reduce to averaged integrals of G, computed in closed form
  from the exact cumulative integral of the piecewise-linear grid CDF;
* every other law integrates against its own `quadrature()` measure (the
  exact atoms of point masses and empirical laws, or a fixed composite
  Gauss-Legendre measure for densities, whose fixed nodes keep T positive)
  with one kernel, the scale mixture S[G](t) = sum_m w_m G(t c_m). The
  reflected CDF R(y) = 1 - G(1 - y) turns the upper branch into
  G(t + (1-t) c) = 1 - R((1-t)(1-c)), and sum_m w_m G(c_m) = S[G](1), so
  T G(t) = S[G](t) - S[G](1) + sum_m w_m - S[R](1 - t).
  The two scale mixtures are independent, so `apply_operator` submits
  S[R] to a one-worker `ThreadPoolExecutor` while the calling thread
  computes S[G]. numpy releases the interpreter lock in their array work,
  and each runs the same operations in the same order as it would alone,
  so the result is bit-identical to evaluating them one after the other.

The rate bound watches the bands [0, DELTA) and (1 - DELTA, 1] with the
fixed band width `DELTA` = 1/4.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution, Uniform
from .theory import cut_concavity, expected_contraction

__all__ = [
    "EndpointAtomError",
    "GridCdf",
    "apply_operator",
    "iterate_operator",
    "ell_cdf_general",
    "band_epsilon",
    "rate_bound",
    "hn_mean_var",
]

logger = logging.getLogger(__name__)

DELTA = 0.25  # band width of the rate bound

_REPAIR_LIMIT = 1e-9
_ENDPOINT_TOL = 1e-12


class EndpointAtomError(ValueError):
    """Starting law has mass at 0 or 1, or the cut law has all its mass at 0 and 1."""


@dataclass(frozen=True)
class GridCdf:
    """Monotone piecewise-linear CDF on a uniform grid over [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("GridCdf needs at least two nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("GridCdf values must be finite")
        if np.any(np.diff(values) < -_REPAIR_LIMIT):
            raise ValueError("GridCdf values must be nondecreasing")
        if not 0.0 <= values[0] <= 1.0 or abs(values[-1] - 1.0) > 1e-9:
            raise ValueError("GridCdf needs values[0] in [0, 1] and values[-1] == 1")
        values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
        values[-1] = 1.0
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __reduce__(self):  # numpy restores copied arrays writeable: rebuild read-only
        return GridCdf, (self.values,)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    def __call__(self, x) -> np.ndarray:
        return np.interp(x, self.nodes, self.values)

    @staticmethod
    def identity(grid_size: int) -> "GridCdf":
        return GridCdf(np.linspace(0.0, 1.0, grid_size))

    @staticmethod
    def from_callable(fn: Callable[[np.ndarray], np.ndarray], grid_size: int) -> "GridCdf":
        nodes = np.linspace(0.0, 1.0, grid_size)
        return GridCdf(np.asarray(fn(nodes), dtype=float))

    @staticmethod
    def from_distribution(dist: Distribution, grid_size: int) -> "GridCdf":
        """dist's CDF at the grid nodes; a law with an atom at 1 raises EndpointAtomError.

        The grid pins G(1) = 1, so it would spread such an atom over the
        last cell, and a root that never moves would seem to converge.
        """
        atom = dist.mass_at(1.0)
        if atom > 0.0:
            raise EndpointAtomError(f"{dist.spec} has mass at 1: P[X = 1] = {atom!r}")
        nodes = np.linspace(0.0, 1.0, grid_size)
        return GridCdf(np.array([dist.cdf(x) for x in nodes]))

    def node_integrals(self) -> np.ndarray:
        """Exact integral of the piecewise-linear CDF from 0 to each node."""
        dx = 1.0 / (self.values.size - 1)
        cells = 0.5 * (self.values[1:] + self.values[:-1]) * dx
        return np.concatenate(([0.0], np.cumsum(cells)))

    def integral_to(self, t) -> np.ndarray:
        """Exact integral of the piecewise-linear CDF from 0 to arbitrary t."""
        t = np.asarray(t, dtype=float)
        n = self.values.size
        dx = 1.0 / (n - 1)
        integrals = self.node_integrals()
        j = np.minimum((t / dx).astype(int), n - 2)
        frac = t - j * dx
        v0 = self.values[j]
        slope = (self.values[j + 1] - v0) / dx
        return integrals[j] + v0 * frac + 0.5 * slope * frac * frac

    def sup_distance_to_identity(self) -> float:
        return float(np.max(np.abs(self.values - self.nodes)))


def _repair_monotone(raw: np.ndarray) -> np.ndarray:
    repaired = np.maximum.accumulate(raw)
    magnitude = float(np.max(repaired - raw))
    if magnitude > _REPAIR_LIMIT:
        raise ArithmeticError(
            f"monotone repair of {magnitude:.3e} exceeds the {_REPAIR_LIMIT:.0e} budget"
        )
    if magnitude > 0.0:
        logger.debug("monotone repair applied: max adjustment %.3e", magnitude)
    return repaired


def _scale_mixture(g: np.ndarray, pts: np.ndarray, wts: np.ndarray) -> np.ndarray:
    """sum_m w_m G(t_i c_m) at every node t_i of the uniform grid carrying g.

    In grid units t_i c_m sits at i c_m <= i, so its cell is the integer
    part: no search and no clip. The last node gets slope 0; only c_m = 1
    at t = 1 lands on it. Cut nodes go in blocks, so memory stays O(N + M).

    `apply_operator` runs this off the calling thread, so it must call only
    numpy: never a public function of this package, which a span tracer
    may wrap with state that is not thread-safe.
    """
    n = g.size
    slope = np.append(np.diff(g), 0.0)
    nodes = np.arange(n, dtype=float)
    out = np.zeros(n)
    step = max(1, (1 << 16) // n)  # 512 KB blocks of values stay in cache
    for start in range(0, pts.size, step):
        x = np.multiply.outer(nodes, pts[start:start + step])
        cell = x.astype(np.intp)
        x -= cell
        x *= slope[cell]
        x += g[cell]
        out += x @ wts[start:start + step]
    return out


def apply_operator(grid_cdf: GridCdf, cut_dist: Distribution) -> GridCdf:
    """One application of T to a grid CDF.

    All paths integrate the piecewise-linear grid function exactly up to
    the cut-measure representation; the output is clamped nondecreasing
    and the clamp magnitude is required to stay below 1e-9. For a
    non-uniform cut law the reflected scale mixture runs on a one-worker
    executor, shut down before this returns or raises; its result is
    bit-identical to the sequential one, and its error is re-raised
    unless the calling thread's branch raised too.
    """
    g = grid_cdf.values
    if isinstance(cut_dist, Uniform):
        # int_0^1 G(tc) dc = (1/t) int_0^t G, and similarly for the upper
        # branch, so T reduces to exact averages of the cumulative integral.
        integrals = grid_cdf.node_integrals()
        inner, total, t = integrals[1:-1], integrals[-1], grid_cdf.nodes[1:-1]
        out = np.pad(inner / t + (total - inner) / (1.0 - t) - total, 1)
    else:
        # Imported on use: at module level it would add ~3 ms to every package import.
        from concurrent.futures import ThreadPoolExecutor
        pts, wts = cut_dist.quadrature()
        with ThreadPoolExecutor(max_workers=1) as worker:
            high = worker.submit(_scale_mixture, 1.0 - g[::-1], 1.0 - pts, wts)
            low = _scale_mixture(g, pts, wts)
        out = low - low[-1] + wts.sum() - high.result()[::-1]
    out[0], out[-1] = g[0], g[-1]
    return GridCdf(_repair_monotone(out))


def iterate_operator(
    grid_cdf: GridCdf, cut_dist: Distribution, k: int
) -> list[GridCdf]:
    """[T G, T^2 G, ..., T^k G].

    Requires G(0) = 0 (no atom at 0; `GridCdf` pins G(1) = 1) and a cut
    law with q = E[c(1-c)] > 0, that is, one not carried by the endpoints
    0 and 1; either obstruction makes T fail to converge to the uniform law.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if grid_cdf.values[0] > _ENDPOINT_TOL:
        raise EndpointAtomError(f"starting CDF has mass at 0: G(0)={float(grid_cdf.values[0])!r}")
    if cut_concavity(cut_dist) <= _ENDPOINT_TOL:
        raise EndpointAtomError("cuts almost surely at an endpoint never contract")
    iterates = []
    current = grid_cdf
    for _ in range(k):
        current = apply_operator(current, cut_dist)
        iterates.append(current)
    return iterates


def ell_cdf_general(grid_cdf: GridCdf, cut_dist: Distribution, t) -> np.ndarray | float:
    """H_n(t) = int_0^t G dF + int_{1-t}^1 (1 - G) dF for a grid-CDF root.

    On the identity grid (`GridCdf.identity(2)`) this is the uniform-root
    law H(t) = int_0^t x dF + int_{1-t}^1 (1 - x) dF. Accepts scalar or
    array t.
    """
    scalar = np.ndim(t) == 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ts >= 0.0) & (ts <= 1.0)):  # NaN fails this test
        raise ValueError("t must lie in [0, 1]")

    if isinstance(cut_dist, Uniform):
        total = grid_cdf.node_integrals()[-1]
        low = grid_cdf.integral_to(ts)
        high_missing = total - grid_cdf.integral_to(1.0 - ts)
        out = low + ts - high_missing
    else:
        # One sorted measure whose panels align with the grid cells and with
        # every query point (atom laws are exact and ignore the breakpoints),
        # so prefix sums over whole panels evaluate both integrals exactly.
        breaks = np.concatenate([grid_cdf.nodes, ts, 1.0 - ts])
        pts, wts = cut_dist.quadrature(breakpoints=breaks)
        gvals = grid_cdf(pts)
        low_prefix = np.concatenate(([0.0], np.cumsum(wts * gvals)))
        up_prefix = np.concatenate(([0.0], np.cumsum(wts * (1.0 - gvals))))
        below = np.searchsorted(pts, ts, side="right")
        above = np.searchsorted(pts, 1.0 - ts, side="left")
        out = low_prefix[below] + (up_prefix[-1] - up_prefix[above])
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out


def band_epsilon(grid_cdf: GridCdf) -> float:
    """Max |G(t) - t| over grid nodes in [0, DELTA) union (1 - DELTA, 1]."""
    nodes = grid_cdf.nodes
    band = (nodes < DELTA) | (nodes > 1.0 - DELTA)
    return float(np.max(np.abs(grid_cdf.values[band] - nodes[band])))


def rate_bound(grid_cdf: GridCdf, cut_dist: Distribution, k: int) -> float:
    """Sup-norm bound eps + ||G0 - t|| (1 - 2q)^k / (4 DELTA (1 - DELTA)).

    q is the cut law's E[c(1-c)], and eps is `band_epsilon(G0)`, the
    largest |G0(t) - t| on the bands [0, DELTA) union (1 - DELTA, 1].
    Since ||H_k - H|| <= 2 ||G_k - t||, twice the bound also bounds
    |mean(H_k) - mean(H)|.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    eps = band_epsilon(grid_cdf)
    rate = expected_contraction(cut_dist)
    sup = grid_cdf.sup_distance_to_identity()
    return eps + sup * rate**k / (DELTA * (1.0 - DELTA)) / 4.0


def hn_mean_var(grid_cdf: GridCdf, cut_dist: Distribution) -> tuple[float, float]:
    """Mean and variance of the scaling-factor law H for a grid-CDF root.

    Stieltjes moments via integration by parts: E[ell] = 1 - int H dt and
    E[ell^2] = 1 - 2 int t H(t) dt, evaluated by trapezoid on the grid.
    """
    ts = grid_cdf.nodes
    h = np.asarray(ell_cdf_general(grid_cdf, cut_dist, ts))
    mean = 1.0 - float(np.trapezoid(h, ts))
    second = 1.0 - 2.0 * float(np.trapezoid(ts * h, ts))
    return mean, max(0.0, second - mean * mean)

