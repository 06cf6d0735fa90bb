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

The K-cut generalization (uniform cuts) contracts by E[ell] = 2/(K+2).
"""

from __future__ import annotations

import numpy as np

from .distributions import Distribution, DomainError

__all__ = [
    "cut_concavity",
    "conditional_expected_length",
    "expected_contraction",
    "contraction_variance",
    "ell_pdf",
    "ksection_conditional",
    "ksection_expected",
]


def cut_concavity(cut_dist: Distribution) -> float:
    """q = E[c(1-c)] = mu - mu^2 - sigma^2, always in [0, 1/4]."""
    mu, var = cut_dist.moments()
    return mu - mu * mu - var


def conditional_expected_length(r0: float, cut_dist: Distribution) -> float:
    """E[ell | root at r0] = int_{r0}^1 c dF + int_0^{r0} (1-c) dF.

    The cut keeps [0, c] when c >= r0 (factor c) and [c, 1] otherwise
    (factor 1 - c); splitting the quadrature at r0 keeps the indicator
    kink on a panel boundary.
    """
    r0 = float(r0)
    if not 0.0 <= r0 <= 1.0:
        raise DomainError(f"r0 must be in [0, 1], got {r0}")
    pts, wts = cut_dist.quadrature((r0,))
    return float(wts @ np.where(pts >= r0, pts, 1.0 - pts))


def expected_contraction(cut_dist: Distribution) -> float:
    """E[ell] = 1 - 2 q for a uniform root; lies in [1/2, 1]."""
    return 1.0 - 2.0 * cut_concavity(cut_dist)


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


def ksection_conditional(r0: float, k: int) -> float:
    """E[ell | root at r0] for K uniform cuts: (2 - r0^(K+1) - (1-r0)^(K+1)) / (K+1)."""
    r0 = float(r0)
    if not 0.0 <= r0 <= 1.0:
        raise DomainError(f"r0 must be in [0, 1], got {r0}")
    if k < 1:
        raise ValueError(f"need at least one cut, got k={k}")
    return (2.0 - r0 ** (k + 1) - (1.0 - r0) ** (k + 1)) / (k + 1)


def ksection_expected(k: int) -> float:
    """E[ell] = 2/(K+2) for K uniform cuts and a uniform root."""
    if k < 1:
        raise ValueError(f"need at least one cut, got k={k}")
    return 2.0 / (k + 2)
