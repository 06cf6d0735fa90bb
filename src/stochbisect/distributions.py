"""Probability laws on [0, 1] used for cuts and initial roots.

Two kinds of law. Density laws are Uniform, Beta(a, b) and Bates(n) (mean
of n uniforms); atom laws are Empirical (resampling from stored values)
and PointMass(c), its one-atom case. Each law exposes exact sampling, CDF
evaluation, closed-form moments, and a quadrature measure `quadrature()`
(nodes and weights) for dF: E[g(X)] is the weighted sum of g at the nodes.
The theory layer and the operator layer in `markov` both read the measure
directly, and pass the known kinks of an integrand as breakpoints; each law
names where its own F is not smooth (`_kinks`).

An atom law's measure is its atoms, exact for every breakpoint set. A
density measure is the density times one Gauss-Legendre builder on
[0, hi], `_gauss_measure`: Uniform and Bates use [0, 1] with their kinks as
panel edges (`Distribution._measure`), and Beta joins [0, 1/2] of itself to
[0, 1/2] of Beta(b, a) mirrored by x -> 1 - x. Its one-panel rule
(`_gauss_rule`) is built on first use, not at import, and `_dy_rule` gives
the theory layer whole panels for dy: 16 nodes for a density law, one
midpoint for an atom law, whose F is constant between its kinks. The Beta
CDF is the regularized incomplete beta, evaluated by Lentz's continued
fraction, so the runtime needs numpy alone.

Each density law's measure is memoized in a weak map keyed by the law:
`quadrature` builds it once per breakpoint set, holds at most two (the
operator layer asks for exactly two, none for T and the grid nodes for
H_k), and returns read-only arrays that every caller shares. A copied or
unpickled law is rebuilt by its constructor and starts with no measures.

All parameters are validated at construction and instances are immutable,
so they are safe to share across workers. Randomness always comes from a
caller-owned `numpy.random.Generator`.

The public `sample` draws through the family's private `_sample`, which
runs numpy only, so the population experiments may call it on the worker
thread that draws the next step's cuts (see `engine`).
"""

from __future__ import annotations

import math
import weakref
from abc import ABC, abstractmethod
from collections.abc import Sequence
from functools import cache

import numpy as np

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


_HELD_MEASURES = 2
# law -> ((breakpoint bytes, (points, weights)), ...), newest first; see `quadrature`.
_MEASURES = weakref.WeakKeyDictionary()
_MIN_PANELS = 64
_GRADING = 2.0 ** -np.arange(48, 0, -1)  # 2^-48, ..., 2^-1


@cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], and the partial matrix.

    Entry [i, m] times weights[m] is node m's weight in the integral from -1
    to node i of the interpolant through the n nodes. Built on first use,
    not at import (`leggauss` and `inv` call LAPACK); read-only and shared.
    """
    legendre = np.polynomial.legendre
    points, weights = legendre.leggauss(n)
    partial = (legendre.legval(points, legendre.legint(np.eye(n), lbnd=-1.0)).T
               @ np.linalg.inv(legendre.legvander(points, n - 1))) / weights
    for array in (points, weights, partial):
        array.flags.writeable = False
    return points, weights, partial


def _gauss_measure(hi: float, breakpoints=(), graded: bool = False, n: int = 16):
    """Composite n-point Gauss-Legendre nodes/weights on [0, hi], panel by panel.

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
    points, weights, _ = _gauss_rule(n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * points[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def _merge_ties(pts, wts) -> tuple[np.ndarray, np.ndarray]:
    """Pool the weights of equal nodes (panels narrower than an ulp make them)."""
    nodes, inverse = np.unique(pts, return_inverse=True)
    return nodes, np.bincount(inverse, weights=wts)


def _beta_density(x: np.ndarray, a: float, b: float, log_beta: float) -> np.ndarray:
    """x^(a-1) (1-x)^(b-1) / B(a, b) elementwise, in x's shape; 0 or inf at an end."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A shape of exactly 1 has no factor; 0 * log(0) would be NaN.
        left = (a - 1.0) * np.log(x) if a != 1.0 else np.zeros_like(x)
        right = (b - 1.0) * np.log1p(-x) if b != 1.0 else 0.0
        return np.exp(left + right - log_beta)


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
        return x, wu * _beta_density(x, 1.0, b, log_beta) / a
    x, wx = _gauss_measure(0.5, breakpoints, graded=a > 1.0 and a != round(a))
    return x, wx * _beta_density(x, a, b, log_beta)


_BETACF_MAX_ITER = 300
_BETACF_TOL = 1e-14
_TINY = 1e-300  # Lentz's stand-in for a zero denominator


def _betacf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method.

    Each pass takes the even term d_2m, then the odd term d_2m+1, and the
    fraction has converged once an odd term changes it by under `_BETACF_TOL`.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    d = h = 1.0 / (_TINY if abs(d) < _TINY else d)
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (_TINY if abs(d) < _TINY else d)
            c = 1.0 + aa / c
            c = _TINY if abs(c) < _TINY else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETACF_TOL:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}")


def _spec_number(x: float) -> str:
    # `:g` keeps 6 significant digits; `repr` when that would change x.
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


class Distribution(ABC):
    """A cut/root law on [0, 1]."""

    @property
    @abstractmethod
    def spec(self) -> str:
        """Canonical spec string, from which `parse_spec` rebuilds the law.

        `Empirical` is the exception: its spec names only a sample count.
        """

    def sample(self, rng: np.random.Generator, size: int | tuple | None = None):
        """One draw (size=None) or an array of i.i.d. draws, on the calling thread."""
        return self._sample(rng, size)

    @abstractmethod
    def _sample(self, rng: np.random.Generator, size: int | tuple | None):
        """Draw as `sample` does, numpy only: `engine._evolve`'s worker thread calls it."""

    @abstractmethod
    def cdf(self, x: float) -> float:
        """F(x) = P[X <= x] for x in [0, 1] (right-continuous)."""

    @abstractmethod
    def moments(self) -> tuple[float, float]:
        """(mean, variance) in closed form."""

    def pdf(self, x) -> float | np.ndarray:
        """Density at x, a scalar or an array of any shape: 0 outside [0, 1], NaN at NaN."""
        x = np.asarray(x, dtype=float)
        out = np.where((x >= 0.0) & (x <= 1.0), self._density(x), np.where(np.isnan(x), x, 0.0))
        return out if out.ndim else float(out)

    def _density(self, x: np.ndarray) -> np.ndarray:
        """The density elementwise, in x's shape; `pdf` keeps only the points in [0, 1]."""
        raise NoDensityError(f"{self.spec} has no density")

    def mass_at(self, x: float) -> float:
        """P[X = x] for x in [0, 1]: 0 for a law with a density."""
        self._check_domain(x)
        return 0.0

    def quadrature(self, breakpoints: Sequence[float] = ()) -> tuple[np.ndarray, np.ndarray]:
        """Discrete measure (points, weights) representing dF, as read-only arrays.

        For a density law it is a composite 16-point Gauss-Legendre rule:
        64 equal panels per unit length, with every given breakpoint in
        (0, 1) added as a panel edge, so integrands with kinks or jumps at
        those points are integrated accurately, and geometrically graded
        panels next to an endpoint where the density is singular. An atom
        law (`Empirical`) returns its atoms, exact whatever the breakpoints.
        The points strictly increase, and the weights are nonnegative and
        sum to 1 up to rounding.

        A density measure is memoized in a weak map keyed by the law, so it
        dies with the law, and within that by the float64 bytes of the
        raveled breakpoints: a repeated call returns the same two arrays,
        and a law holds at most two breakpoint sets, dropping the oldest.
        """
        cuts = np.asarray(breakpoints, dtype=float).ravel()
        key = cuts.tobytes()
        held = _MEASURES.get(self, ())
        for held_key, measure in held:
            if held_key == key:
                return measure
        measure = self._measure(cuts)
        for array in measure:
            array.flags.writeable = False
        _MEASURES[self] = ((key, measure), *held[:_HELD_MEASURES - 1])
        return measure

    def _measure(self, breakpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The density measure `quadrature` memoizes: breakpoints and `_kinks` are panel edges."""
        pts, wts = _gauss_measure(1.0, np.append(breakpoints, self._kinks()[0]))
        return _merge_ties(pts, wts * self._density(pts))

    def _kinks(self) -> tuple[np.ndarray, tuple[bool, bool]]:
        """Where F is not smooth: the points in (0, 1), then whether at 0 and at 1.

        An atom, or a knot of a piecewise density, needs a panel edge in a
        Gauss rule for an integrand built from F, and an end where a
        derivative of F blows up needs graded panels (see `_dy_rule`).
        """
        return np.empty(0), (False, False)

    def _dy_rule(self, edges=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(panels, n) nodes and weights of a Gauss rule for dy on [0, 1], and its partial matrix.

        The panel edges are `_gauss_measure`'s, the law's `_kinks`, `edges`,
        and graded ones at an end where F is not smooth. A density law gets
        16 nodes per panel; a law without one is atoms, F is constant between
        them, and one midpoint node (partial matrix [[1/2]]) is exact.
        """
        knots, (rough_lo, rough_hi) = self._kinks()
        n = 1 if type(self)._density is Distribution._density else 16
        near_one = 1.0 - _GRADING / _MIN_PANELS if rough_hi else ()
        pts, wts = _gauss_measure(1.0, np.concatenate((knots, edges, near_one)),
                                  graded=rough_lo, n=n)
        return pts.reshape(-1, n), wts.reshape(-1, n), _gauss_rule(n)[2]

    def _check_domain(self, x: float) -> float:
        x = float(x)
        if not 0.0 <= x <= 1.0:
            raise DomainError(f"x must be in [0, 1], got {x}")
        return x

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


class Uniform(Distribution):
    """Uniform law on [0, 1].

    Each draw is one double from `rng.random`, the stream and values of
    `rng.uniform()` at a lower call cost.
    """

    @property
    def spec(self) -> str:
        return "uniform"

    def _sample(self, rng, size):
        return rng.random(size)

    def cdf(self, x):
        return self._check_domain(x)

    def moments(self):
        return 0.5, 1.0 / 12.0

    def _density(self, x):
        return np.ones_like(x)


class Beta(Distribution):
    """Beta(a, b) law; density x^(a-1) (1-x)^(b-1) / B(a, b).

    Sampling is numpy's `Generator.beta`: the gamma ratio G_a / (G_a + G_b)
    when max(a, b) > 1 and Johnk's algorithm, in log space, when both
    shapes are at most 1, so tiny shapes never draw 0/0; a draw closer to
    an endpoint than a double resolves is exactly 0 or 1.

    The CDF is the regularized incomplete beta I_x(a, b), from Lentz's
    continued fraction (`_betacf`) below (a+1)/(a+b+2), where it converges
    fastest, and from the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) above;
    it is exact at 0 and 1.

    Quadrature builds each half of [0, 1] from its own endpoint
    (`_beta_half`), removing the singularity of a sub-1 shape with the
    substitution x = u^(1/a) (resp. 1 - x = v^(1/b)), after which the
    integrand is smooth.
    """

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
            raise ValueError(f"Beta shapes must be positive finite, got ({a}, {b})")
        self.a = a
        self.b = b
        self._log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    @property
    def spec(self) -> str:
        return f"beta:{_spec_number(self.a)},{_spec_number(self.b)}"

    def _sample(self, rng, size):
        return rng.beta(self.a, self.b, size=size)

    def cdf(self, x):
        x, a, b = self._check_domain(x), self.a, self.b
        if x == 0.0 or x == 1.0:
            return 0.0 if x == 0.0 else 1.0  # exact, and +0.0 at -0.0
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - self._log_beta)
        if x < (a + 1.0) / (a + b + 2.0):
            return front * _betacf(a, b, x) / a
        return 1.0 - front * _betacf(b, a, 1.0 - x) / b

    def moments(self):
        a, b = self.a, self.b
        mu = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        return mu, var

    def _density(self, x):
        return _beta_density(x, self.a, self.b, self._log_beta)

    def _kinks(self):
        # x^s is smooth at 0 only for a whole s, and s < 1 is never whole.
        return np.empty(0), (self.a != round(self.a), self.b != round(self.b))

    def _measure(self, breakpoints):
        # [1/2, 1] under Beta(a, b) is [0, 1/2] under Beta(b, a), mirrored by
        # x -> 1 - x (exact for breakpoints in [1/2, 1]), so each half is built
        # from its own endpoint and its singular factor is always x^(shape-1).
        x, wx = _beta_half(self.a, self.b, self._log_beta, breakpoints)
        y, wy = _beta_half(self.b, self.a, self._log_beta, 1.0 - breakpoints)
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

    Sampling gives `rng.uniform(size=(n, *size)).mean(axis=0)` bit for
    bit without building that block: n rows of `size` doubles are added
    in row order and divided by n, each row after the first drawn into one
    reused buffer. One draw (no size, or a one-element size) is the
    pairwise sum (`np.add.reduce`) of n doubles over n, as numpy's `mean`
    takes it for a single column.

    The closed-form moments hold for any n.
    The CDF/PDF use the rescaled Irwin-Hall alternating sum with
    compensated summation, which is accurate in double precision only for
    n <= 25: beyond that `cdf` and `pdf`, and so `quadrature`, raise
    `ArithmeticError`. Irwin-Hall is symmetric about n/2 and its sum cancels
    catastrophically past it, so both sum only at y = n x folded to
    min(y, n - y): `pdf` is n times the folded sum, and `cdf` is 1 minus it
    past n/2. `pdf` takes a scalar or an array of any shape and sums all
    points at once.
    """

    def __init__(self, n: int):
        if int(n) != n or n < 1:
            raise ValueError(f"Bates n must be a positive integer, got {n}")
        self.n = int(n)

    @property
    def spec(self) -> str:
        return f"bates:{self.n}"

    def _sample(self, rng, size):
        n = self.n
        if size is None or np.prod(size) == 1:
            draw = float(np.add.reduce(rng.random(n))) / n
            return draw if size is None else np.full(size, draw)
        total = rng.random(size)
        row = np.empty_like(total)
        for _ in range(n - 1):
            total += rng.random(out=row)
        total /= n
        return total

    def _check_accuracy(self) -> None:
        if self.n > _BATES_MAX_N:
            raise ArithmeticError(
                f"{self.spec}: the Irwin-Hall sum behind cdf and pdf is accurate "
                f"only for n <= {_BATES_MAX_N}")

    def _folded_sum(self, x, power: int):
        """(y, s): y = n x, and s the Irwin-Hall sum at min(y, n - y) on (0, n), else 0."""
        n = self.n
        y = n * np.asarray(x, dtype=float)
        inside = (y > 0.0) & (y < n)
        folded = np.where(inside, np.minimum(y, n - y), 0.0)
        return y, np.where(inside, _irwin_hall(n, folded, power), 0.0)

    def cdf(self, x):
        self._check_accuracy()
        y, v = self._folded_sum(self._check_domain(x), self.n)
        return float(np.clip(1.0 - v if y > 0.5 * self.n else v, 0.0, 1.0))

    def moments(self):
        return 0.5, 1.0 / (12.0 * self.n)

    def _density(self, x):
        self._check_accuracy()
        return self.n * self._folded_sum(x, self.n - 1)[1]

    def _kinks(self):
        return np.arange(1, self.n) / self.n, (False, False)


class Empirical(Distribution):
    """Law of a finite sample: resampling draws, step-function CDF.

    The samples must be finite and lie in [0, 1]. `quadrature` returns the
    atoms (distinct samples and their shares) for any breakpoints, unmemoized.
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
        for array in (values, *self._atoms):
            array.flags.writeable = False

    def __reduce__(self):  # numpy restores copied arrays writeable: rebuild read-only
        return Empirical, (self.samples,)

    @property
    def spec(self) -> str:
        return f"empirical:<{self.samples.size} samples>"

    def _sample(self, rng, size):
        idx = rng.integers(0, self.samples.size, size=size)
        return self.samples[idx]

    def cdf(self, x):
        x = self._check_domain(x)
        return float(np.searchsorted(self.samples, x, side="right")) / self.samples.size

    def moments(self):
        mu = float(self.samples.mean())
        var = float(self.samples.var())
        return mu, var

    def mass_at(self, x):
        x = self._check_domain(x)
        return float(np.searchsorted(self.samples, x, side="right")
                     - np.searchsorted(self.samples, x, side="left")) / self.samples.size

    def quadrature(self, breakpoints=()):
        return self._atoms  # exact: F is a step function whatever the breakpoints

    def _kinks(self):
        return self._atoms[0], (False, False)


_ONE_WEIGHT = np.ones(1)
_ONE_WEIGHT.flags.writeable = False  # every PointMass's weights


class PointMass(Empirical):
    """Degenerate law: every draw equals c, and none reads the generator.

    The one-atom `Empirical`, its two arrays built directly to keep parsing cheap.
    """

    def __init__(self, c: float):
        c = float(c)
        if not 0.0 <= c <= 1.0:
            raise ValueError(f"point mass must lie in [0, 1], got {c}")
        self.c = c
        self.samples = np.array([c])
        self.samples.setflags(write=False)
        self._atoms = (self.samples, _ONE_WEIGHT)

    def __reduce__(self):
        return PointMass, (self.c,)

    @property
    def spec(self) -> str:
        return f"point:{_spec_number(self.c)}"

    def _sample(self, rng, size):
        return self.c if size is None else np.full(size, self.c)


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
