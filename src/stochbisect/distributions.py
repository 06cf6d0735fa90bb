"""Probability laws on [0, 1] used for cuts and initial roots.

Five families: Uniform, Beta(a, b), Bates(n) (mean of n uniforms),
PointMass(c), and Empirical (resampling from stored values). Each law
exposes exact sampling, CDF evaluation, closed-form moments, a
quadrature measure `quadrature()` (nodes and weights), and the
Lebesgue-Stieltjes expectation E[g(X)] = integral of g dF built on it.
The theory layer integrates through the expectation; the operator layer
in `markov` uses the quadrature measure directly. Every density measure
comes from one Gauss-Legendre builder on [0, hi], `_gauss_measure`:
Uniform and Bates use [0, 1], and Beta joins [0, 1/2] of itself to
[0, 1/2] of Beta(b, a) mirrored by x -> 1 - x.

All parameters are validated at construction; instances are immutable and
safe to share across workers. Randomness always comes from a caller-owned
`numpy.random.Generator`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from .special import log_beta, regularized_incomplete_beta

__all__ = [
    "DomainError",
    "NoDensityError",
    "SpecError",
    "Distribution",
    "Uniform",
    "Beta",
    "Bates",
    "PointMass",
    "Empirical",
    "parse_spec",
]


class DomainError(ValueError):
    """Argument outside the law's domain [0, 1]."""


class NoDensityError(ValueError):
    """Density requested from a law that has none (atoms, empirical)."""


class SpecError(ValueError):
    """Malformed distribution spec string."""


_GL_POINTS, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_MIN_PANELS = 64
_GRADING = 2.0 ** -np.arange(48, 0, -1)  # 2^-48, ..., 2^-1


def _gauss_measure(hi: float, breakpoints=(), graded: bool = False):
    """Composite 16-point Gauss-Legendre nodes/weights on [0, hi].

    The panel edges are those of ceil(64 hi) equal panels, i * step (the
    last exactly hi), plus every breakpoint inside (0, hi), plus, if
    `graded`, the 48 geometric edges step * 2^-48, ..., step / 2 inside the
    first equal panel. Grading restores full accuracy for integrands whose
    higher derivatives blow up algebraically at 0; being tied to the first
    equal panel, it holds whatever the breakpoints.
    """
    panels = math.ceil(hi * _MIN_PANELS)
    step = hi / panels
    cuts = np.asarray(breakpoints, dtype=float).ravel()
    edges = np.unique(np.concatenate((np.arange(panels) * step, [hi],
                                      cuts[(cuts > 0.0) & (cuts < hi)],
                                      step * _GRADING if graded else [])))
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * _GL_POINTS[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return pts, wts


def _merge_ties(pts, wts) -> tuple[np.ndarray, np.ndarray]:
    """Pool the weights of equal nodes (panels narrower than an ulp make them)."""
    nodes, inverse = np.unique(pts, return_inverse=True)
    return nodes, np.bincount(inverse, weights=wts)


def _beta_half(a: float, b: float, log_beta: float, breakpoints: np.ndarray):
    """Nodes and weights of the Beta(a, b) density on [0, 1/2].

    Only the factor x^(a-1) can be singular there. A shape a < 1 makes it
    blow up at 0 with huge derivatives well into the interior, so the half
    is integrated in u = x^a, where x^(a-1) dx = du / a is smooth; a
    fractional a > 1 keeps it bounded, but its higher derivatives still
    blow up at 0. Both are graded.
    """
    if a < 1.0:
        # The bounds use Python's float pow, correctly rounded with glibc;
        # numpy's SIMD pow can be one ulp off and shift every panel edge.
        inside = breakpoints[(breakpoints > 0.0) & (breakpoints < 0.5)]
        u, wu = _gauss_measure(0.5 ** a, [e ** a for e in inside.tolist()], graded=True)
        x = u ** (1.0 / a)
        return x, wu * np.exp((b - 1.0) * np.log1p(-x) - log_beta) / a
    x, wx = _gauss_measure(0.5, breakpoints, graded=a > 1.0 and a != round(a))
    with np.errstate(divide="ignore"):  # a node at 0 is possible, under a subnormal edge
        left = (a - 1.0) * np.log(x) if a != 1.0 else 0.0  # 0 * log(0) would be NaN
    return x, wx * np.exp(left + (b - 1.0) * np.log1p(-x) - log_beta)


class Distribution(ABC):
    """A cut/root law on [0, 1]."""

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string, parseable by `parse_spec`."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int | tuple | None = None):
        """One draw (size=None) or an array of i.i.d. draws."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """F(x) = P[X <= x] for x in [0, 1] (right-continuous)."""

    @abstractmethod
    def moments(self) -> tuple[float, float]:
        """(mean, variance) in closed form."""

    def pdf(self, x) -> float | np.ndarray:
        raise NoDensityError(f"{self.spec} has no density")

    @abstractmethod
    def quadrature(self, breakpoints: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
        """Discrete measure (points, weights) representing dF.

        Exact for atom-bearing laws. For densities it is a composite
        16-point Gauss-Legendre rule: 64 equal panels per unit length, with
        every given breakpoint in (0, 1) added as a panel edge, so
        integrands with kinks or jumps at those points are integrated
        accurately, and geometrically graded panels next to an endpoint
        where the density is singular. The points strictly increase, and
        the weights are nonnegative and sum to 1 up to rounding.
        """

    def stieltjes_expectation(
        self, g: Callable[[np.ndarray], np.ndarray], breakpoints: Sequence[float] = ()
    ) -> float:
        """E[g(X)] = integral of g dF for a vectorized g on [0, 1]."""
        pts, wts = self.quadrature(breakpoints)
        vals = np.asarray(g(pts), dtype=float)
        if vals.ndim == 0:
            vals = np.full(pts.shape, float(vals))
        return float(wts @ vals)

    def _check_domain(self, x: float) -> float:
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x must be in [0, 1], got {x}")
        return x

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class Uniform(Distribution):
    """Uniform law on [0, 1]."""

    @property
    def spec(self) -> str:
        return "uniform"

    def sample(self, rng, size=None):
        return rng.uniform(size=size)

    def cdf(self, x):
        return self._check_domain(x)

    def moments(self):
        return 0.5, 1.0 / 12.0

    def pdf(self, x):
        out = np.ones_like(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def quadrature(self, breakpoints=()):
        return _merge_ties(*_gauss_measure(1.0, breakpoints))  # density 1


class Beta(Distribution):
    """Beta(a, b) law; density x^(a-1) (1-x)^(b-1) / B(a, b).

    Sampling draws two gamma variates (shape-rate construction), so it is
    exact for all shapes, including a < 1 or b < 1. Quadrature builds each
    half of [0, 1] from its own endpoint (`_beta_half`), removing the
    singularity of a sub-1 shape with the substitution x = u^(1/a) (resp.
    1 - x = v^(1/b)), after which the integrand is smooth.
    """

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
            raise ValueError(f"Beta shapes must be positive finite, got ({a}, {b})")
        self.a = a
        self.b = b
        self._log_beta = log_beta(a, b)

    @property
    def spec(self) -> str:
        return f"beta:{self.a:g},{self.b:g}"

    def sample(self, rng, size=None):
        x = rng.standard_gamma(self.a, size=size)
        total = x + rng.standard_gamma(self.b, size=size)
        # Both variates underflow to 0 for tiny shapes; x / total is then 0/0.
        if (total == 0.0) if size is None else not total.all():
            raise ArithmeticError(
                f"{self.spec} draw failed: both gamma variates underflowed to 0")
        return x / total

    def cdf(self, x):
        return regularized_incomplete_beta(self.a, self.b, self._check_domain(x))

    def moments(self):
        a, b = self.a, self.b
        mu = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return mu, var

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # A shape of exactly 1 has no factor; 0 * log(0) would be NaN.
            left = (self.a - 1.0) * np.log(x) if self.a != 1.0 else 0.0
            right = (self.b - 1.0) * np.log1p(-x) if self.b != 1.0 else 0.0
            out = np.exp(left + right - self._log_beta)
        # 0 * log(0) endpoints: the density limit is 0 when the shape > 1.
        out = np.where((x == 0.0) & (self.a > 1.0), 0.0, out)
        out = np.where((x == 1.0) & (self.b > 1.0), 0.0, out)
        return out if out.ndim else float(out)

    def quadrature(self, breakpoints=()):
        # [1/2, 1] under Beta(a, b) is [0, 1/2] under Beta(b, a), mirrored by
        # x -> 1 - x (exact for breakpoints in [1/2, 1]), so each half is built
        # from its own endpoint and its singular factor is always x^(shape-1).
        cuts = np.asarray(breakpoints, dtype=float).ravel()
        x, wx = _beta_half(self.a, self.b, self._log_beta, cuts)
        y, wy = _beta_half(self.b, self.a, self._log_beta, 1.0 - cuts)
        return _merge_ties(np.concatenate((x, 1.0 - y)), np.concatenate((wx, wy)))


# The alternating sum cancels: against exact arithmetic its pdf is within
# 4e-13 relative at n = 25 and only within 3e-12 at n = 30.
_BATES_MAX_N = 25


def _irwin_hall(n: int, y, power: int) -> np.ndarray:
    """Kahan-compensated (1/power!) sum_{0 <= k <= y} (-1)^k C(n,k) (y-k)^power, per y."""
    y = np.asarray(y, dtype=float)
    total = np.zeros_like(y)
    comp = np.zeros_like(y)
    for k in range(int(y.max(initial=0.0)) + 1):
        live = y >= k
        # np.power, not **: a numpy scalar's ** calls libm pow, whose last bit
        # can differ from the array loop's, and pdf(x) must equal pdf([x])[0].
        # Dead terms (y < k) raise 0: pow is ~8x slower on negative bases.
        t = (-1) ** k * math.comb(n, k) * np.power(np.maximum(y - k, 0.0), power) - comp
        s = total + t
        comp = np.where(live, (s - total) - t, comp)
        total = np.where(live, s, total)
    return total / float(math.factorial(power))


class Bates(Distribution):
    """Bates(n): the mean of n i.i.d. uniforms on [0, 1].

    Sampling is exact (average of n uniform draws) and the closed-form
    moments hold for any n. The CDF/PDF use the rescaled Irwin-Hall
    alternating sum with compensated summation, which is accurate in
    double precision only for n <= 25: beyond that `cdf` and `pdf`, and so
    `quadrature`, raise `ArithmeticError`. `pdf` takes a scalar or an
    array of any shape and sums all points at once.
    """

    def __init__(self, n: int):
        if int(n) != n or n < 1:
            raise ValueError(f"Bates n must be a positive integer, got {n}")
        self.n = int(n)

    @property
    def spec(self) -> str:
        return f"bates:{self.n}"

    def sample(self, rng, size=None):
        shape = (self.n,) if size is None else (self.n,) + (
            (size,) if isinstance(size, int) else tuple(size)
        )
        draws = rng.uniform(size=shape).mean(axis=0)
        return float(draws) if size is None else draws

    def _check_accuracy(self) -> None:
        if self.n > _BATES_MAX_N:
            raise ArithmeticError(
                f"{self.spec}: the Irwin-Hall sum behind cdf and pdf is accurate "
                f"only for n <= {_BATES_MAX_N}")

    def cdf(self, x):
        self._check_accuracy()
        x = self._check_domain(x)
        n = self.n
        y = n * x
        if y <= 0.0:
            return 0.0
        if y >= n:
            return 1.0
        # Irwin-Hall is symmetric about n/2; the alternating sum cancels
        # catastrophically for y > n/2, so always evaluate on the left half.
        if y > 0.5 * n:
            return min(1.0, max(0.0, 1.0 - float(_irwin_hall(n, n - y, n))))
        return min(1.0, max(0.0, float(_irwin_hall(n, y, n))))

    def moments(self):
        return 0.5, 1.0 / (12.0 * self.n)

    def pdf(self, x):
        self._check_accuracy()
        x = np.asarray(x, dtype=float)
        n = self.n
        y = n * x
        inside = (y > 0.0) & (y < n)
        y = np.where(inside, np.minimum(y, n - y), 0.0)  # density is symmetric about n/2
        out = np.where(inside, n * _irwin_hall(n, y, n - 1), 0.0)
        return out if out.ndim else float(out)

    def quadrature(self, breakpoints=()):
        pts, wts = _gauss_measure(1.0, np.append(breakpoints, np.arange(1, self.n) / self.n))
        return _merge_ties(pts, wts * self.pdf(pts))


class PointMass(Distribution):
    """Degenerate law: every draw equals c."""

    def __init__(self, c: float):
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"point mass must lie in [0, 1], got {c}")
        self.c = c

    @property
    def spec(self) -> str:
        return f"point:{self.c:g}"

    def sample(self, rng, size=None):
        return self.c if size is None else np.full(size, self.c)

    def cdf(self, x):
        return 1.0 if self._check_domain(x) >= self.c else 0.0

    def moments(self):
        return self.c, 0.0

    def quadrature(self, breakpoints=()):
        return np.array([self.c]), np.array([1.0])


class Empirical(Distribution):
    """Law of a finite sample: resampling draws, step-function CDF.

    The samples must be finite and lie in [0, 1].
    """

    def __init__(self, samples: Sequence[float]):
        values = np.sort(np.asarray(samples, dtype=float))
        if values.size == 0:
            raise ValueError("empirical law needs at least one sample")
        # Written so that NaN, which sorts last, fails it too.
        if not (values[0] >= 0.0 and values[-1] <= 1.0):
            raise ValueError("empirical samples must be finite and lie in [0, 1]")
        self.samples = values
        self._atoms = _merge_ties(values, np.full(values.size, 1.0 / values.size))
        for array in (self.samples, *self._atoms):
            array.flags.writeable = False

    @property
    def spec(self) -> str:
        return f"empirical:<{self.samples.size} samples>"

    def sample(self, rng, size=None):
        idx = rng.integers(0, self.samples.size, size=size)
        return self.samples[idx]

    def cdf(self, x):
        x = self._check_domain(x)
        return float(np.searchsorted(self.samples, x, side="right")) / self.samples.size

    def moments(self):
        mu = float(self.samples.mean())
        var = float(self.samples.var())
        return mu, var

    def quadrature(self, breakpoints=()):
        return self._atoms


def parse_spec(text: str) -> Distribution:
    """Parse a CLI distribution spec.

    Accepted forms: `uniform`, `beta:A,B`, `bates:N`, `point:C`, and
    `empirical:PATH` where PATH is a CSV with one value per line.
    """
    text = text.strip()
    name, _, arg = text.partition(":")
    name = name.lower()
    try:
        if name == "uniform":
            if arg:
                raise SpecError(f"uniform takes no parameters, got {text!r}")
            return Uniform()
        if name == "beta":
            parts = arg.split(",")
            if len(parts) != 2:
                raise SpecError(f"beta needs two parameters, got {text!r}")
            return Beta(float(parts[0]), float(parts[1]))
        if name == "bates":
            return Bates(int(arg))
        if name == "point":
            return PointMass(float(arg))
        if name == "empirical":
            try:
                with open(arg, "r", encoding="utf-8") as fh:
                    values = [float(line) for line in fh if line.strip()]
            except OSError as exc:
                raise SpecError(f"cannot read empirical sample file {arg!r}: {exc}") from exc
            return Empirical(values)
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(f"invalid distribution spec {text!r}: {exc}") from exc
    raise SpecError(
        f"unknown distribution spec {text!r}; expected uniform, beta:A,B, "
        f"bates:N, point:C, or empirical:PATH"
    )
