"""Closed-form convergence quantities for the stochastic bisection step.

With a uniformly distributed root, the per-step scaling factor ell has an
explicit law determined by the cut distribution F alone:

    H(t) = P[ell <= t] = int_0^t x dF(x) + int_{1-t}^1 (1-x) dF(x)
    h(t) = t (f(t) + f(1-t))            when F has density f
    E[ell] = 1 - 2 q,   Var[ell] = q (1 - 4 q),   q = mu - mu^2 - sigma^2

where (mu, sigma^2) are the cut's moments. Since 0 <= c(1-c) <= 1/4 gives
q = E[c(1-c)] in [0, 1/4], the expected contraction always lies in
[1/2, 1], with 1/2 attained only by the deterministic midpoint cut.

H(t) itself is `markov.ell_cdf_general` on the identity grid
`GridCdf.identity(2)`, which is the uniform root law; this module
provides the density h(t) and the moments.

With K i.i.d. cuts per step, a point y stays with the root r exactly when
no cut falls between them (a cut equal to r keeps the lower gap), so

    E[ell_K | r] = int_0^1 (1 - |F(y) - F(r-)|)^K dy,
    E[ell_K] = int_0^1 E[ell_K | r] dr = 2 int_{x<y} (1 - F(y) + F(x))^K dx dy

for a uniform root: 2/(K+2) for uniform cuts, and from K = 2 on no
function of q alone (bates:3 and beta:4,4 share q = 2/9 but not E[ell_2]).
`conditional_expected_length` (r0 a scalar or an array) and `expected_contraction`
take K as `k`; K = 1 keeps the closed forms above, K >= 2 integrates on the law's
panels for dy (`Distribution._dy_rule`), and F comes from `_partial_integrals` alone.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .distributions import Distribution, DomainError

__all__ = [
    "cut_concavity",
    "conditional_expected_length",
    "expected_contraction",
    "contraction_variance",
    "ell_pdf",
]


def cut_concavity(cut_dist: Distribution) -> float:
    """q = E[c(1-c)] = mu - mu^2 - sigma^2, always in [0, 1/4]."""
    mu, var = cut_dist.moments()
    return mu - mu * mu - var


def _cut_count(k) -> int:
    if not (k >= 1 and k % 1 == 0):  # false for NaN and inf too
        raise ValueError(f"need a whole number of cuts k >= 1, got k={k}")
    return int(k)


def conditional_expected_length(r0, cut_dist: Distribution, k: int = 1) -> float | np.ndarray:
    """E[ell_K | root at r0] for K = `k` i.i.d. cuts from `cut_dist`.

    `r0` is a scalar, giving a float, or an array, giving one of its shape.
    At k = 1 it is int_{c>=r0} c dF + int_{c<r0} (1-c) dF = M(1) - 2 M(r0-) + F(r0-),
    M(x) = int_{c<=x} c dF: the cut keeps [0, c] when c >= r0 (factor c) and
    [c, 1] otherwise (factor 1 - c). Larger k integrates (1 - |F(y) - F(r0-)|)^K over y.
    """
    r = np.asarray(r0, dtype=float)
    if not np.all((r >= 0.0) & (r <= 1.0)):  # NaN fails this test
        raise DomainError(f"r0 must be in [0, 1], got {r0}")
    k = _cut_count(k)
    if k > 1:
        out = np.array([_k_cut_length(cut_dist, k, x) for x in r.ravel().tolist()])
    else:
        below, upto = cut_dist._partial_integrals(np.append(r, 1.0), lambda c: c)
        out = upto[1, -1] - 2.0 * below[1, :-1] + below[0, :-1]
    return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)


def expected_contraction(cut_dist: Distribution, k: int = 1) -> float:
    """E[ell_K] for K = `k` cuts and a uniform root: 1 - 2 q in [1/2, 1] at k = 1."""
    k = _cut_count(k)
    if k > 1:
        return _k_cut_length(cut_dist, k)
    return 1.0 - 2.0 * cut_concavity(cut_dist)


def _k_cut_length(cut_dist: Distribution, k: int, r0: float | None = None) -> float:
    """E[ell_K | root at r0], or E[ell_K] for a uniform root when r0 is None.

    The law's Gauss rule for dy (`_dy_rule`, r0 a panel edge) carries the
    integrand; F(y-) at its nodes, and F(r0-), are read off the law's
    measure by `cut_dist._partial_integrals`. The uniform-root mean expands
    (1 - F(y) + F(x))^K binomially into terms C(K, j) (1 - F(y))^(K-j) F(x)^j,
    so it needs B_j(y) = int_0^y F^j at the nodes: whole earlier panels plus
    the rule's partial integral over the node's own panel.
    """
    y, wy, partial = cut_dist._dy_rule(() if r0 is None else (r0,))
    below = cut_dist._partial_integrals(np.append(y, () if r0 is None else r0))[0][0]
    cdf = below[:y.size].reshape(y.shape)  # F(y-)
    if r0 is not None:
        return float(wy.ravel() @ ((1.0 - np.abs(cdf - below[-1])) ** k).ravel())

    total = 0.0
    for j in range(k + 1):
        weighted = wy * cdf ** j
        sums = weighted.sum(axis=1)
        upto = (np.cumsum(sums) - sums)[:, None] + weighted @ partial.T
        total += comb(k, j) * float(np.sum(wy * (1.0 - cdf) ** (k - j) * upto))
    return 2.0 * total


def contraction_variance(cut_dist: Distribution) -> float:
    """Var[ell] = q (1 - 4 q) for a uniform root; nonnegative since q <= 1/4."""
    q = cut_concavity(cut_dist)
    return q * (1.0 - 4.0 * q)


def ell_pdf(cut_dist: Distribution, t: float) -> float:
    """h(t) = t (f(t) + f(1-t)) for a cut law with density f.

    Laws without a density raise `NoDensityError` from their `pdf`.
    """
    t = float(t)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must be in (0, 1), got {t}")
    return t * (cut_dist.pdf(t) + cut_dist.pdf(1.0 - t))
