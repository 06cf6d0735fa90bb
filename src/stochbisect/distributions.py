"""Probability laws on [0, 1] used for cuts and initial roots.

Five families: Uniform, Beta(a, b), Bates(n) (mean of n uniforms),
PointMass(c), and Empirical (resampling from stored values). Each law
exposes exact sampling, CDF evaluation, closed-form moments, and a
Lebesgue-Stieltjes expectation functional E[g(X)] = integral of g dF,
which is the primitive everything in the theory and operator layers is
built on.

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
_GRADE_LEVELS = 48


def _measure_on_edges(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * _GL_POINTS[None, :]).ravel()
    wts = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return pts, wts


def _panel_measure(lo: float, hi: float, n_panels: int,
                   grade_lo: bool = False, grade_hi: bool = False
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Composite 16-point Gauss-Legendre nodes/weights on [lo, hi].

    Grading subdivides the panel next to an endpoint geometrically (48
    halvings), which restores full accuracy for integrands whose higher
    derivatives blow up algebraically at that endpoint.
    """
    edges = np.linspace(lo, hi, n_panels + 1)
    if grade_lo:
        sub = lo + (edges[1] - lo) * 2.0 ** -np.arange(_GRADE_LEVELS, 0, -1)
        edges = np.concatenate(([lo], sub, edges[1:]))
    if grade_hi:
        sub = hi - (hi - edges[-2]) * 2.0 ** -np.arange(1, _GRADE_LEVELS + 1)
        edges = np.concatenate((edges[:-1], sub, [hi]))
    return _measure_on_edges(edges)


def _segment_panels(width: float, total: int = _MIN_PANELS) -> int:
    return max(1, int(math.ceil(width * total)))


def _clean_edges(breakpoints: Sequence[float]) -> list[float]:
    inner = sorted({float(b) for b in breakpoints if 0.0 < float(b) < 1.0})
    return [0.0] + inner + [1.0]


def _density_measure(pdf, breakpoints: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Panels between consecutive edges, each weighted by the density."""
    edges = _clean_edges(breakpoints)
    pts, wts = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        p, w = _panel_measure(lo, hi, _segment_panels(hi - lo))
        pts.append(p)
        wts.append(w * pdf(p))
    return np.concatenate(pts), np.concatenate(wts)


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
        Gauss-Legendre rule whose panel edges include the given
        breakpoints, so integrands with kinks or jumps at those points
        are integrated accurately.
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
        return np.ones_like(np.asarray(x, dtype=float))

    def quadrature(self, breakpoints=()):
        return _density_measure(self.pdf, breakpoints)


class Beta(Distribution):
    """Beta(a, b) law; density x^(a-1) (1-x)^(b-1) / B(a, b).

    Sampling draws two gamma variates (shape-rate construction), so it is
    exact for all shapes, including a < 1 or b < 1. Quadrature removes the
    endpoint singularity of sub-1 shapes with the substitution x = u^(1/a)
    (resp. 1 - x = v^(1/b)), after which the integrand is smooth.
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
        y = rng.standard_gamma(self.b, size=size)
        return x / (x + y)

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
            logpdf = (self.a - 1.0) * np.log(x) + (self.b - 1.0) * np.log1p(-x) - self._log_beta
            out = np.exp(logpdf)
        # 0 * log(0) endpoints: the density limit is 0 when the shape > 1.
        out = np.where((x == 0.0) & (self.a > 1.0), 0.0, out)
        out = np.where((x == 1.0) & (self.b > 1.0), 0.0, out)
        return out if out.ndim else float(out)

    def quadrature(self, breakpoints=()):
        # Sub-1 shapes make the density blow up at an endpoint and keep huge
        # derivatives well into the interior, so every segment on that half
        # of [0, 1] is integrated in the substituted variable (x = u^(1/a)
        # on the left, 1 - x = v^(1/b) on the right), where the integrand is
        # smooth. Splitting at 1/2 keeps the two substitutions apart.
        a, b = self.a, self.b
        extra = [0.5] if (a < 1.0 or b < 1.0) else []
        edges = _clean_edges(list(breakpoints) + extra)
        frac_a = a > 1.0 and a != round(a)
        frac_b = b > 1.0 and b != round(b)
        pts, wts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            if a < 1.0 and hi <= 0.5 + 1e-12:
                # x = u^(1/a); x^(a-1) dx = du / a, so the singular factor is gone.
                u, wu = _panel_measure(lo**a, hi**a, _segment_panels(hi**a - lo**a),
                                       grade_lo=(lo == 0.0))
                x = u ** (1.0 / a)
                w = wu * np.exp((b - 1.0) * np.log1p(-x) - self._log_beta) / a
            elif b < 1.0 and lo >= 0.5 - 1e-12:
                v_lo, v_hi = (1.0 - hi) ** b, (1.0 - lo) ** b
                v, wv = _panel_measure(v_lo, v_hi, _segment_panels(v_hi - v_lo),
                                       grade_lo=(hi == 1.0))
                x = 1.0 - v ** (1.0 / b)
                w = wv * np.exp((a - 1.0) * np.log(x) - self._log_beta) / b
            else:
                # Non-integer shapes above 1 keep bounded densities, but
                # their higher derivatives still blow up at the endpoint.
                x, wx = _panel_measure(lo, hi, _segment_panels(hi - lo),
                                       grade_lo=(lo == 0.0 and frac_a),
                                       grade_hi=(hi == 1.0 and frac_b))
                w = wx * self.pdf(x)
            pts.append(x)
            wts.append(w)
        pts = np.concatenate(pts)
        wts = np.concatenate(wts)
        order = np.argsort(pts)
        return pts[order], wts[order]


def _irwin_hall_sum(n: int, y: float, power: int, divisor: float) -> float:
    # Kahan-compensated alternating sum (1/divisor) * sum (-1)^k C(n,k) (y-k)^power.
    total = 0.0
    comp = 0.0
    for k in range(int(math.floor(y)) + 1):
        term = math.comb(n, k) * (y - k) ** power
        if k % 2:
            term = -term
        t = term - comp
        s = total + t
        comp = (s - total) - t
        total = s
    return total / divisor


class Bates(Distribution):
    """Bates(n): the mean of n i.i.d. uniforms on [0, 1].

    Sampling is exact (average of n uniform draws). The CDF/PDF use the
    rescaled Irwin-Hall alternating sum with compensated summation, which
    is accurate in double precision for n <= 25; the theory layer only
    needs the closed-form moments, which hold for any n.
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

    def cdf(self, x):
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
            return min(1.0, max(0.0, 1.0 - _irwin_hall_sum(n, n - y, n, math.factorial(n))))
        return min(1.0, max(0.0, _irwin_hall_sum(n, y, n, math.factorial(n))))

    def moments(self):
        return 0.5, 1.0 / (12.0 * self.n)

    def pdf(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        n = self.n
        out = np.empty_like(xs)
        flat = out.ravel()
        for i, xi in enumerate(xs.ravel()):
            y = n * xi
            if y <= 0.0 or y >= n:
                flat[i] = 0.0
            else:
                y = min(y, n - y)  # density is symmetric about n/2
                flat[i] = n * _irwin_hall_sum(n, y, n - 1, math.factorial(n - 1))
        return out if np.ndim(x) else float(out[0])

    def quadrature(self, breakpoints=()):
        kinks = [j / self.n for j in range(1, self.n)]
        return _density_measure(self.pdf, list(breakpoints) + kinks)


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
    """Law of a finite sample: resampling draws, step-function CDF."""

    def __init__(self, samples: Sequence[float]):
        values = np.sort(np.asarray(samples, dtype=float))
        if values.size == 0:
            raise ValueError("empirical law needs at least one sample")
        if values[0] < 0.0 or values[-1] > 1.0:
            raise ValueError("empirical samples must lie in [0, 1]")
        self.samples = values
        self.samples.flags.writeable = False

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
        m = self.samples.size
        return self.samples, np.full(m, 1.0 / m)


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
