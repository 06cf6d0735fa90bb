import copy
import math
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

from stochbisect.distributions import (
    Bates,
    Beta,
    DomainError,
    Empirical,
    NoDensityError,
    PointMass,
    SpecError,
    Uniform,
    _MEASURES,
    _gauss_measure,
    _gauss_rule,
    _irwin_hall,
    parse_spec,
)
from stochbisect.markov import GridCdf, hn_mean_var, iterate_operator
from stochbisect.theory import conditional_expected_length, expected_contraction
from stochbisect.seeding import substream
from stochbisect.stats import ks_statistic

PARAMETRIC = [Uniform(), Beta(2, 2), Beta(0.5, 2), Beta(2, 0.5), Bates(20)]
ALL_KINDS = PARAMETRIC + [PointMass(0.5), Empirical([0.1, 0.2, 0.2, 0.9])]


def _expect(dist, g, breakpoints=()):
    """E[g(X)] = integral of g dF, summed over the law's quadrature measure."""
    pts, wts = dist.quadrature(breakpoints)
    return float(wts @ g(pts))


class TestConstruction:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Beta(0.0, 1.0)
        with pytest.raises(ValueError):
            Beta(2.0, -1.0)
        with pytest.raises(ValueError):
            Beta(math.inf, 1.0)
        with pytest.raises(ValueError):
            Bates(0)
        with pytest.raises(ValueError):
            PointMass(1.2)
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([0.5, 1.3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_empirical_rejects_non_finite_samples(self, bad):
        # NaN sorts last and fails both range comparisons, so it needs its
        # own rejection.
        with pytest.raises(ValueError, match="finite"):
            Empirical([0.2, bad, 0.7])

    def test_empirical_pools_repeats_into_one_atom(self):
        emp = Empirical([0.4, 0.2, 0.8, 0.4])
        pts, wts = emp.quadrature()
        assert list(pts) == [0.2, 0.4, 0.8]
        assert list(wts) == [0.25, 0.5, 0.25]
        assert list(emp.samples) == [0.2, 0.4, 0.4, 0.8]  # resampling keeps repeats


class TestSampling:
    def test_point_mass_every_sample_exact(self):
        rng = substream(1, "pm")
        dist = PointMass(0.5)
        assert dist.sample(rng) == 0.5
        assert np.all(dist.sample(rng, size=100) == 0.5)

    def test_uniform_law_of_large_numbers(self):
        rng = substream(2, "unif")
        draws = Uniform().sample(rng, size=1_000_000)
        assert np.all((draws >= 0.0) & (draws < 1.0))
        assert abs(draws.mean() - 0.5) < 0.002

    def test_bates20_sample_variance(self):
        rng = substream(3, "bates")
        draws = Bates(20).sample(rng, size=1_000_000)
        assert abs(draws.var() - 1.0 / 240.0) < 0.1 / 240.0

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_samples_in_unit_interval(self, dist):
        draws = np.atleast_1d(dist.sample(substream(4, dist.spec), size=10_000))
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    @pytest.mark.parametrize("shape,n", [(0.003, 100_000), (0.01, 1_000_000)])
    def test_tiny_shape_beta_zeros_match_the_law(self, shape, n):
        # A draw is an exact 0 when it falls below 2^-1075, which has
        # probability x^a / (a B(a, b)) at x = 2^-1075: about 5.35% of draws
        # for shape 0.003 and 290 in 1e6 for shape 0.01.
        draws = Beta(shape, shape).sample(substream(8, "beta-zeros", str(shape)), size=n)
        assert np.all(np.isfinite(draws) & (draws >= 0.0) & (draws <= 1.0))
        log_b = 2 * math.lgamma(shape) - math.lgamma(2 * shape)
        p = math.exp(-1075 * math.log(2) * shape - math.log(shape) - log_b)
        zeros = int(np.count_nonzero(draws == 0.0))
        assert abs(zeros - n * p) <= 5 * math.sqrt(n * p * (1 - p))

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_bit_reproducible(self, dist):
        a = dist.sample(substream(5, "repro"), size=64)
        b = dist.sample(substream(5, "repro"), size=64)
        assert np.array_equal(a, b)

    # The draw contract: a law takes exactly the doubles of its numpy
    # reference, and gives the same values bit for bit. Each case repeats
    # its draw so that a change of summation order shows on some draw.
    @staticmethod
    def _assert_same_stream(draw, reference, tag):
        rng, ref = substream(9, "draw-contract", tag), substream(9, "draw-contract", tag)
        for _ in range(50):
            got, want = draw(rng), reference(ref)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("size", [None, 0, 1, 5, (3, 4)])
    def test_uniform_draws_are_generator_uniform(self, size):
        self._assert_same_stream(lambda rng: Uniform().sample(rng, size=size),
                                 lambda rng: rng.uniform(size=size), f"uniform-{size}")

    @pytest.mark.parametrize("n", [1, 7, 8, 20])
    def test_bates_draw_is_the_mean_of_n_uniforms(self, n):
        self._assert_same_stream(lambda rng: Bates(n).sample(rng),
                                 lambda rng: float(rng.uniform(size=n).mean()), f"bates-{n}")

    @pytest.mark.parametrize("size", [0, 1, 5, (3, 4)])
    @pytest.mark.parametrize("n", [1, 7, 8, 20])
    def test_bates_draws_are_the_row_mean_of_a_uniform_block(self, n, size):
        shape = (size,) if isinstance(size, int) else size
        self._assert_same_stream(lambda rng: Bates(n).sample(rng, size=size),
                                 lambda rng: rng.uniform(size=(n, *shape)).mean(axis=0),
                                 f"bates-{n}-{size}")

    # Blocks past both thresholds at which Bates once split its columns
    # over two threads (2^19 draws and 2^14 columns): an odd column count
    # and a tuple shape, whose halves would differ in width.
    @pytest.mark.parametrize("layout", ["odd", "tuple"])
    @pytest.mark.parametrize("n", [1, 2, 20, 25])
    def test_split_bates_draws_are_the_row_mean_of_a_uniform_block(self, n, layout):
        columns = max(2 ** 14, -(-2 ** 19 // n)) | 1
        shape = (columns,) if layout == "odd" else (3, columns // 3 + 1)
        self._assert_same_stream(lambda rng: Bates(n).sample(rng, size=shape),
                                 lambda rng: rng.uniform(size=(n, *shape)).mean(axis=0),
                                 f"bates-split-{n}-{layout}")

    def test_split_bates_keeps_the_buffered_32_bit_word(self):
        # A population-sized block (2^15 + 1 columns, odd) between small
        # integers, which leave half of a 64-bit draw buffered: the values
        # are the row mean of a uniform block, and the integers after the
        # block read the buffered word, as they do after numpy's own draw.
        columns = 2 ** 15 + 1

        def around(draw):
            return lambda rng: np.concatenate(
                [rng.integers(0, 10, 3), draw(rng), rng.integers(0, 10, 3)])

        self._assert_same_stream(
            around(lambda rng: Bates(20).sample(rng, size=columns)),
            around(lambda rng: rng.uniform(size=(20, columns)).mean(axis=0)),
            "bates-block-integers")

    @pytest.mark.parametrize("bit_generator", ["MT19937", "SFC64", "Philox", "PCG64DXSM"])
    def test_other_generators_take_the_one_thread_loop(self, bit_generator):
        # Every bit generator draws a Bates block by the same row loop.
        size = 2 ** 15 + 1
        rng, ref = (np.random.Generator(getattr(np.random, bit_generator)(9)) for _ in range(2))
        for _ in range(3):
            got = Bates(20).sample(rng, size=size)
            assert np.array_equal(got, ref.uniform(size=(20, size)).mean(axis=0))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("dist", PARAMETRIC, ids=lambda d: d.spec)
    def test_empirical_cdf_matches_cdf(self, dist):
        # KS between 1e5 draws and the analytic CDF; for a correct sampler
        # the transformed sample is uniform and D ~ 0.004 at this size.
        draws = np.atleast_1d(dist.sample(substream(6, "ks", dist.spec), size=100_000))
        transformed = np.array([dist.cdf(float(x)) for x in np.sort(draws)[::10]])
        assert ks_statistic(transformed) < 0.01


class TestCdf:
    def test_uniform(self):
        assert Uniform().cdf(0.3) == 0.3

    def test_beta22_symmetry_point(self):
        assert Beta(2, 2).cdf(0.5) == pytest.approx(0.5, abs=1e-14)

    def test_beta_05_2_quadrature_oracle(self):
        # adaptive quadrature of the Beta(0.5, 2) density over [0, 0.2]
        # gives 0.6260990336999416 with abserr 9.4e-15 (frozen).
        assert Beta(0.5, 2).cdf(0.2) == pytest.approx(0.6260990336999416, abs=1e-9)

    def test_point_mass_step(self):
        pm = PointMass(0.5)
        assert pm.cdf(0.49) == 0.0
        assert pm.cdf(0.5) == 1.0
        assert pm.cdf(1.0) == 1.0

    def test_empirical_step(self):
        emp = Empirical([0.2, 0.4, 0.4, 0.8])
        assert emp.cdf(0.1) == 0.0
        assert emp.cdf(0.4) == 0.75
        assert emp.cdf(0.9) == 1.0

    def test_bates_matches_normal_approximation_loosely(self):
        # Irwin-Hall(20)/20 is close to N(1/2, 1/240) in the bulk.
        d = Bates(20)
        for x in (0.4, 0.45, 0.5, 0.55, 0.6):
            assert abs(d.cdf(x) - sps.norm.cdf(x, 0.5, math.sqrt(1 / 240))) < 5e-3

    def test_bates_small_n_exact(self):
        # Irwin-Hall(2) is triangular: P[sum <= y] = y^2/2 for y in [0, 1].
        assert Bates(2).cdf(0.25) == pytest.approx(0.125, abs=1e-14)
        assert Bates(2).cdf(0.75) == pytest.approx(0.875, abs=1e-14)

    @pytest.mark.parametrize("n", [10, 20, 25])
    def test_bates_against_exact_arithmetic_oracle(self, n):
        # Oracle: the same alternating Irwin-Hall sum in 60-digit arithmetic,
        # where cancellation is harmless; the double-precision path must
        # stay within 1e-12 for n <= 25.
        import math as m

        import mpmath

        mpmath.mp.dps = 60
        dist = Bates(n)
        for x in (0.05, 0.3, 0.5, 0.62, 0.9, 0.99):
            y = mpmath.mpf(n) * mpmath.mpf(str(x))
            total = mpmath.mpf(0)
            for k in range(int(mpmath.floor(y)) + 1):
                total += (-1) ** k * m.comb(n, k) * (y - k) ** n
            oracle = float(total / mpmath.factorial(n))
            assert dist.cdf(x) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_monotone_with_unit_endpoint(self, dist):
        xs = np.linspace(0.0, 1.0, 257)
        values = [dist.cdf(float(x)) for x in xs]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_domain_error(self, dist):
        with pytest.raises(DomainError):
            dist.cdf(-0.1)
        with pytest.raises(DomainError):
            dist.cdf(1.1)


class TestMoments:
    @pytest.mark.parametrize("dist,expected", [
        (Uniform(), (0.5, 1 / 12)),
        (Beta(2, 2), (0.5, 0.05)),
        (Bates(20), (0.5, 1 / 240)),
        (PointMass(0.5), (0.5, 0.0)),
    ], ids=["uniform", "beta22", "bates20", "point"])
    def test_closed_forms(self, dist, expected):
        mu, var = dist.moments()
        assert mu == pytest.approx(expected[0], abs=1e-14)
        assert var == pytest.approx(expected[1], abs=1e-14)

    def test_beta22_monte_carlo_cross_check(self):
        draws = Beta(2, 2).sample(substream(7, "mc"), size=500_000)
        assert abs(draws.mean() - 0.5) < 1e-3
        assert abs(draws.var() - 0.05) < 1e-3

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_moment_ranges(self, dist):
        mu, var = dist.moments()
        assert 0.0 <= mu <= 1.0
        assert 0.0 <= var <= 0.25
        assert 0.0 <= mu - mu * mu - var <= 0.25

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_moments_agree_with_stieltjes(self, dist):
        mu, var = dist.moments()
        assert _expect(dist, lambda x: x) == pytest.approx(mu, abs=1e-8)
        assert _expect(dist, lambda x: x * x) == pytest.approx(
            var + mu * mu, abs=1e-8)


def _union_gauss_measure(hi, breakpoints, graded):
    # Reference: the sorted union of the equal-panel edges, the breakpoints
    # inside (0, hi) and, if graded, step * 2^-k for k = 1..48, built one
    # panel at a time in Python floats.
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    panels = math.ceil(64 * hi)
    step = hi / panels
    edges = {i * step for i in range(panels)} | {hi}
    edges |= {float(e) for e in breakpoints if 0.0 < e < hi}
    if graded:
        edges |= {step * 2.0 ** -k for k in range(1, 49)}
    edges = sorted(edges)
    blocks = [(0.5 * (lo + up) + 0.5 * (up - lo) * gl_x, 0.5 * (up - lo) * gl_w)
              for lo, up in zip(edges[:-1], edges[1:])]
    return tuple(np.concatenate(part) for part in zip(*blocks))


class TestGaussMeasure:
    HI = {"unit": 1.0, "half": 0.5, "substituted": 0.5 ** 0.3, "short": 0.01}
    BREAKPOINTS = {
        "none": (),
        "split": (0.3, 0.5),
        "grid": tuple(np.linspace(0.0, 1.0, 65)),
        "tiny": (1e-300, 1e-10, 0.5, 0.5 + 1e-13),
        "substituted": tuple(e ** 0.3 for e in (0.1, 0.25, 0.4)),
        "random": tuple(substream(4, "bounds").uniform(size=40)),
        "out-of-range": (-0.5, 0.0, 1.0, 1.5, 0.5 ** 0.3, 0.01),
    }

    @pytest.mark.parametrize("hi", sorted(HI))
    @pytest.mark.parametrize("breakpoints", sorted(BREAKPOINTS))
    @pytest.mark.parametrize("graded", [False, True])
    def test_matches_union_of_edges_reference(self, hi, breakpoints, graded):
        # "tiny" with grading puts a breakpoint at 1e-300 inside the finest
        # graded panel: the 48 graded edges must all still be there.
        args = self.HI[hi], self.BREAKPOINTS[breakpoints], graded
        got, want = _gauss_measure(*args), _union_gauss_measure(*args)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_grading_ignores_breakpoints_near_zero(self):
        # The finest graded panels sit inside the first equal panel whatever
        # the breakpoints, so a breakpoint below them only splits one panel.
        plain, _ = _gauss_measure(1.0, (), graded=True)
        split, _ = _gauss_measure(1.0, (1e-300,), graded=True)
        assert split.size == plain.size + 16
        assert np.isin(plain[16:], split).all()


# Solves once in a fresh interpreter, then builds one measure, printing the
# number of Gauss rules built after each.
_RULE_PROBE = """
import stochbisect
from stochbisect.distributions import _gauss_rule
stochbisect.bisection_run(lambda x: x - 0.3, 0.0, 1.0, stochbisect.Uniform(), 1e-8, 100,
                          stochbisect.substream(1, "rule-probe"))
built = [_gauss_rule.cache_info().currsize]
stochbisect.Uniform().quadrature()
print(*built, _gauss_rule.cache_info().currsize)
"""


class TestGaussRule:
    def test_built_on_first_quadrature_not_at_import(self):
        src = Path(__file__).parent.parent / "src"
        result = subprocess.run([sys.executable, "-c", _RULE_PROBE], check=True,
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.stdout.split() == ["0", "1"]

    @pytest.mark.parametrize("n", [1, 16])
    def test_partial_matrix_integrates_the_interpolant(self, n):
        # Row i integrates every polynomial of degree < n from -1 to node i.
        points, weights, partial = _gauss_rule(n)
        for degree in range(n):
            exact = (points ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
            assert np.allclose((partial * weights) @ points ** degree, exact,
                               rtol=0.0, atol=1e-13)
        assert not (points.flags.writeable or weights.flags.writeable
                    or partial.flags.writeable)

    def test_one_point_rule_is_the_midpoint_rule(self):
        points, weights, partial = _gauss_rule(1)
        assert (points.tolist(), weights.tolist(), partial.tolist()) == ([0.0], [2.0], [[0.5]])

    @pytest.mark.parametrize("law", [PointMass(0.3), Empirical([0.1, 0.2, 0.2, 0.9])],
                             ids=lambda d: d.spec)
    def test_atom_laws_get_one_midpoint_per_panel(self, law):
        # F is constant between atoms, so each panel needs its midpoint only.
        y, wy, partial = law._dy_rule((0.5,))
        edges = np.unique(np.concatenate((np.arange(65) / 64, law._kinks()[0], [0.5])))
        assert y.shape == wy.shape == (edges.size - 1, 1)
        assert np.array_equal(y.ravel(), 0.5 * (edges[1:] + edges[:-1]))
        assert np.array_equal(wy.ravel(), np.diff(edges))
        assert partial.tolist() == [[0.5]]

    @pytest.mark.parametrize("law", [Uniform(), Beta(2.5, 1.5), Bates(3)], ids=lambda d: d.spec)
    def test_density_laws_get_sixteen_nodes_per_panel(self, law):
        knots, (rough_lo, rough_hi) = law._kinks()
        graded = 2.0 ** -np.arange(48, 0, -1) / 64
        edges = np.concatenate((knots, [0.3], graded if rough_lo else [],
                                1.0 - graded if rough_hi else []))
        pts, wts = _gauss_measure(1.0, edges)
        y, wy, partial = law._dy_rule((0.3,))
        assert y.shape == wy.shape == (pts.size // 16, 16)
        assert np.array_equal(y.ravel(), pts) and np.array_equal(wy.ravel(), wts)
        assert partial is _gauss_rule(16)[2]


def _breakpoint_sets():
    rng = substream(11, "breakpoints")
    sets = {
        "none": (),
        "0.3": (0.3,),
        "0.5": (0.5,),
        "quarters": (0.25, 0.75),
        "near-half": (0.5 - 1e-13, 0.5, 0.5 + 1e-13),
        "out-of-range-and-repeated": (-0.5, 0.0, 0.3, 0.3, 1.0, 1.5),
        "near-endpoints": (1e-300, 1.0 - 1e-16),
        "random": tuple(rng.uniform(size=50)),
        "0.37-0.63": (0.37, 0.63),
    }
    # The grids with 1025 and 2049 nodes are left out for run time: the
    # ell-2049 set below contains both.
    for n in (65, 129, 257, 513):
        sets[f"grid-{n}"] = tuple(np.linspace(0.0, 1.0, n))
    for n in (65, 257, 2049):
        # ell_cdf_general's set: grid nodes, t and 1 - t, which can land one
        # ulp from a node and leave a panel narrower than its 16 nodes.
        nodes = np.linspace(0.0, 1.0, n)
        sets[f"ell-{n}"] = tuple(np.concatenate([nodes, nodes, 1.0 - nodes]))
    return sets


BREAKPOINT_SETS = _breakpoint_sets()
SHAPES = [0.01, 0.02, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1, 1.5, 2, 2.5, 3, 5, 7.3, 50]
MEASURE_LAWS = (
    [Uniform(), PointMass(0.3), Empirical([0.1, 0.2, 0.2, 0.9, 0.9, 0.9, 0.0, 1.0])]
    + [Bates(n) for n in range(1, 26)]
    + [Beta(a, b) for a in SHAPES for b in SHAPES]
)


@pytest.mark.parametrize("dist", MEASURE_LAWS, ids=lambda d: d.spec)
def test_quadrature_is_a_measure_on_distinct_increasing_nodes(dist):
    # A copy's memo goes with the test: the 284 shared laws would otherwise
    # each keep their two largest measures for the rest of the session.
    dist = copy.copy(dist)
    for name, breakpoints in BREAKPOINT_SETS.items():
        pts, wts = dist.quadrature(breakpoints)
        assert pts.shape == wts.shape, name
        assert np.all(np.diff(pts) > 0.0), name
        assert np.all(wts >= 0.0), name
        assert abs(wts.sum() - 1.0) < 1e-12, name


# One fresh instance per call, so no memo carries over between tests.
FRESH_LAWS = {
    "uniform": Uniform,
    "beta:2,2": lambda: Beta(2, 2),
    "beta:0.5,2": lambda: Beta(0.5, 2),
    "bates:20": lambda: Bates(20),
    "point:0.3": lambda: PointMass(0.3),
    "empirical": lambda: Empirical([0.1, 0.2, 0.2, 0.9]),
}
# Atom laws build no measure and keep no memo (see TestAtomLawsHoldNoMemo).
DENSITY_FRESH_LAWS = {name: FRESH_LAWS[name]
                      for name in ("uniform", "beta:2,2", "beta:0.5,2", "bates:20")}
ELL_257 = BREAKPOINT_SETS["ell-257"]


def _bits(measure):
    return [(array.dtype, array.shape, array.tobytes()) for array in measure]


def _count_builds(monkeypatch, cls) -> list:
    """The breakpoints of every measure `cls` builds from now on, as lists."""
    builds = []
    build = cls._measure

    def counting(self, breakpoints):
        builds.append(breakpoints.tolist())
        return build(self, breakpoints)

    monkeypatch.setattr(cls, "_measure", counting)
    return builds


class TestQuadratureMemo:
    @pytest.mark.parametrize("make", FRESH_LAWS.values(), ids=FRESH_LAWS.keys())
    def test_held_measure_is_bitwise_a_fresh_build(self, make):
        law = make()
        built = {breakpoints: law.quadrature(breakpoints) for breakpoints in ((), ELL_257)}
        for breakpoints, measure in built.items():
            # Any container with the same raveled float64 values is one key.
            for same in (breakpoints, list(breakpoints),
                         np.asarray(breakpoints, dtype=float).reshape(-1, 1)):
                held = law.quadrature(same)
                assert all(h is b for h, b in zip(held, measure))
            assert _bits(measure) == _bits(make().quadrature(breakpoints))

    @pytest.mark.parametrize("make", FRESH_LAWS.values(), ids=FRESH_LAWS.keys())
    def test_returned_arrays_are_read_only(self, make):
        law = make()
        for breakpoints in ((), (0.3,)):
            for array in law.quadrature(breakpoints):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5

    @pytest.mark.parametrize("make", FRESH_LAWS.values(), ids=FRESH_LAWS.keys())
    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda law: pickle.loads(pickle.dumps(law))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_read_only_measures(self, make, duplicate):
        # numpy restores a pickled or copied array writeable; the copy is
        # rebuilt by the constructor, so it starts with no memo and holds no
        # array that can be written, its samples included.
        law = make()
        measure = law.quadrature((0.3,))
        twin = duplicate(law)
        assert twin not in _MEASURES
        held = twin.quadrature((0.3,))
        assert _bits(held) == _bits(measure)
        arrays = [*held, *(value for value in vars(twin).values()
                           if isinstance(value, np.ndarray))]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5

    @pytest.mark.parametrize("make", DENSITY_FRESH_LAWS.values(), ids=DENSITY_FRESH_LAWS.keys())
    def test_holds_at_most_two_measures(self, make, monkeypatch):
        law = make()
        builds = _count_builds(monkeypatch, type(law))
        for breakpoints in [(), (0.3,), (), (0.3,), (0.5,), (0.3,), ()]:
            law.quadrature(breakpoints)
            assert len(_MEASURES[law]) <= 2
        # (0.5,) drops the oldest build, (), which the last call rebuilds.
        assert builds == [[], [0.3], [0.5], []]

    def test_measures_die_with_the_law(self):
        # A memo that outlived its law would keep the last command's
        # measures alive into the next one.
        law = Beta(2, 2)
        points = weakref.ref(law.quadrature()[0])
        del law
        assert points() is None

    def test_operator_run_builds_each_measure_once(self, monkeypatch):
        builds = _count_builds(monkeypatch, Bates)
        law = Bates(20)
        start = GridCdf.from_callable(lambda t: t * (4 * t * t - 6 * t + 3), 257)
        for iterate in iterate_operator(start, law, 5):
            hn_mean_var(iterate, law)
        # T reads the measure without breakpoints, H_k the one on the grid.
        assert [len(cuts) for cuts in builds] == [0, 3 * 257]


class TestAtomLawsHoldNoMemo:
    @pytest.mark.parametrize("make", [
        lambda: Empirical(substream(5, "atoms").uniform(size=100_000)),
        lambda: PointMass(0.3),
    ], ids=["empirical-100k", "point:0.3"])
    def test_theory_leaves_no_memo_and_one_measure(self, make):
        # Atoms ignore breakpoints, so a memo keyed by their bytes would only
        # hold two sets of about 800 kB for a 100k-atom law after these calls.
        law = make()
        expected_contraction(law, 3)
        conditional_expected_length(0.3, law, 2)
        assert law not in _MEASURES
        atoms = law.quadrature()
        for breakpoints in ((), (0.3,), BREAKPOINT_SETS["grid-257"]):
            measure = law.quadrature(breakpoints)
            assert all(got is want for got, want in zip(measure, atoms))
            for array in measure:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.5
        assert law not in _MEASURES

    @pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy,
                                           lambda law: pickle.loads(pickle.dumps(law))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_point_mass_copies_stay_point_masses(self, duplicate):
        twin = duplicate(PointMass(0.3))
        assert type(twin) is PointMass and isinstance(twin, Empirical)
        assert twin.spec == "point:0.3" and twin.c == 0.3
        assert twin.moments() == (0.3, 0.0)  # one sample's mean and variance, exactly


class TestMassAt:
    @pytest.mark.parametrize("dist", PARAMETRIC, ids=lambda d: d.spec)
    def test_density_laws_have_no_atoms(self, dist):
        assert [dist.mass_at(x) for x in (0.0, 0.5, 1.0)] == [0.0, 0.0, 0.0]

    def test_point_mass_is_one_atom(self):
        assert PointMass(0.3).mass_at(0.3) == 1.0
        assert PointMass(0.3).mass_at(math.nextafter(0.3, 1.0)) == 0.0
        assert PointMass(1.0).mass_at(1.0) == 1.0

    def test_empirical_counts_ties(self):
        emp = Empirical([0.4, 1.0, 0.2, 0.4, 0.8])
        assert [emp.mass_at(x) for x in (0.4, 1.0, 0.2, 0.5, 0.0)] == [0.4, 0.2, 0.2, 0.0, 0.0]

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_domain_error(self, dist):
        for x in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                dist.mass_at(x)


class TestStieltjesExpectation:
    def test_uniform_analytic(self):
        assert _expect(Uniform(), lambda x: x * (1 - x)) == pytest.approx(
            1 / 6, abs=1e-10)

    def test_point_mass_exact(self):
        assert _expect(PointMass(0.5), lambda x: x * (1 - x)) == 0.25

    def test_beta22_concavity(self):
        assert _expect(Beta(2, 2), lambda x: x * (1 - x)) == pytest.approx(
            0.2, abs=1e-9)

    @pytest.mark.parametrize(
        "dist", [d for d in PARAMETRIC] + [Beta(0.1, 2), Bates(3)],
        ids=lambda d: d.spec)
    def test_density_normalization(self, dist):
        assert _expect(dist, lambda x: np.ones_like(x)) == pytest.approx(
            1.0, abs=1e-10)

    def test_singular_density_oracle(self):
        # E[sin(3x)] under Beta(0.5, 2), oracle scipy.integrate.quad.
        dist = Beta(0.5, 2)
        oracle, err = integrate.quad(
            lambda x: math.sin(3 * x) * math.sqrt(1 / x) * (1 - x) * 0.75, 0, 1)
        assert err < 1e-8
        assert _expect(dist, lambda x: np.sin(3 * x)) == pytest.approx(
            oracle, abs=1e-8)

    def test_breakpoints_align_indicator_kinks(self):
        dist = Uniform()
        got = _expect(dist, lambda x: np.where(x >= 0.3, x, 0.0), breakpoints=(0.3,))
        assert got == pytest.approx((1 - 0.09) / 2, abs=1e-12)

    def test_empirical_sample_average(self):
        emp = Empirical([0.0, 0.5, 1.0])
        assert _expect(emp, lambda x: x * x) == pytest.approx(
            (0.0 + 0.25 + 1.0) / 3, abs=1e-15)


class TestDensity:
    def test_no_density_kinds(self):
        with pytest.raises(NoDensityError):
            PointMass(0.5).pdf(0.5)
        with pytest.raises(NoDensityError):
            Empirical([0.5]).pdf(0.5)

    def test_beta22_density_value(self):
        assert Beta(2, 2).pdf(0.5) == pytest.approx(1.5, abs=1e-12)

    def test_bates_density_integrates_to_one(self):
        val = _expect(Bates(5), lambda x: np.ones_like(x))
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n", [10, 20, 25])
    def test_bates_pdf_against_exact_arithmetic_oracle(self, n):
        # Oracle: n times the Irwin-Hall(n) density at y = n x in 60-digit
        # arithmetic, summed on the left half (y -> n - y is exact there) so
        # that the oracle itself does not cancel; the vectorized
        # double-precision path must stay within 1e-12 relative for n <= 25.
        import mpmath

        mpmath.mp.dps = 60
        xs = np.array([0.05, 0.3, 0.5, 0.62, 0.9, 0.99])
        values = Bates(n).pdf(xs)
        for x, value in zip(xs, values):
            y = mpmath.mpf(n) * mpmath.mpf(float(x))
            y = min(y, n - y)
            total = mpmath.mpf(0)
            for k in range(int(mpmath.floor(y)) + 1):
                total += (-1) ** k * math.comb(n, k) * (y - k) ** (n - 1)
            oracle = float(n * total / mpmath.factorial(n - 1))
            assert value == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 20, 25])
    def test_irwin_hall_matches_the_all_terms_sum_bit_for_bit(self, n):
        # The sum as first written raised every term, dead ones (y < k)
        # included, and discarded those; skipping that work must not move
        # a single bit, in any order of y or for a 0-d y.
        def all_terms(y, power):
            y = np.asarray(y, dtype=float)
            total = np.zeros_like(y)
            comp = np.zeros_like(y)
            for k in range(int(y.max(initial=0.0)) + 1):
                live = y >= k
                t = (-1) ** k * math.comb(n, k) * np.power(y - k, power) - comp
                s = total + t
                comp = np.where(live, (s - total) - t, comp)
                total = np.where(live, s, total)
            return total / float(math.factorial(power))

        rng = np.random.default_rng(n)
        ys = np.concatenate([np.linspace(0.0, n, 8 * n + 1), rng.uniform(0.0, n, 200)])
        ys.sort()
        for power in (n, n - 1):
            for y in (ys, ys[::-1], rng.permutation(ys)):
                assert np.array_equal(_irwin_hall(n, y, power), all_terms(y, power))
            for y in (0.0, 0.5 * n, float(ys[101]), float(n)):
                got = _irwin_hall(n, np.float64(y), power)
                assert got.ndim == 0 and got == all_terms(np.float64(y), power)

    def test_bates_density_and_cdf_refuse_n_above_25(self):
        # The alternating sum loses accuracy past n = 25; sampling and the
        # closed-form moments do not use it and stay valid.
        dist = Bates(26)
        for evaluate in (dist.pdf, dist.cdf):
            with pytest.raises(ArithmeticError, match="n <= 25"):
                evaluate(0.5)
        with pytest.raises(ArithmeticError, match="n <= 25"):
            dist.quadrature()
        assert dist.moments() == (0.5, 1.0 / (12.0 * 26))
        assert abs(dist.sample(substream(3, "bates26"), size=10_000).mean() - 0.5) < 0.01

    def test_beta_unit_shape_density_at_endpoints(self):
        # A shape of exactly 1 has no endpoint factor; 0 * log(0) is not NaN.
        assert Beta(1, 1).pdf(np.array([0.0, 1.0])).tolist() == [1.0, 1.0]
        assert Beta(2, 1).pdf(1.0) == pytest.approx(2.0, rel=1e-14)
        assert Beta(1, 3).pdf(0.0) == pytest.approx(3.0, rel=1e-14)

    def test_bates_pdf_scalar_in_float_out(self):
        value = Bates(3).pdf(0.5)
        assert type(value) is float
        assert value == pytest.approx(2.25, abs=1e-14)  # 3 * Irwin-Hall(3) density at 1.5

    def test_uniform_pdf_scalar_in_float_out(self):
        assert type(Uniform().pdf(0.3)) is float
        assert Uniform().pdf(np.array([0.3])).shape == (1,)

    def test_bates_pdf_keeps_shape(self):
        xs = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        values = Bates(7).pdf(xs)
        assert values.shape == (3, 4)
        assert np.array_equal(values.ravel(), Bates(7).pdf(xs.ravel()))

    @pytest.mark.parametrize("n", [1, 2, 20])
    def test_bates_pdf_zero_at_and_outside_endpoints(self, n):
        assert np.all(Bates(n).pdf(np.array([-0.5, -1e-300, 0.0, 1.0, 1.5])) == 0.0)
        assert Bates(n).pdf(0.0) == 0.0
        assert Bates(n).pdf(1.0) == 0.0

    @pytest.mark.parametrize("spec", ["uniform", "beta:2,2", "beta:0.5,2", "bates:3"])
    def test_pdf_zero_outside_unit_interval_and_nan_at_nan(self, spec):
        dist = parse_spec(spec)
        outside = [-math.inf, -0.5, -1e-300, 1.0 + 2.0**-52, 1.5, math.inf]
        for x in outside:
            value = dist.pdf(x)
            assert type(value) is float and value == 0.0
        assert math.isnan(dist.pdf(math.nan))
        values = dist.pdf(np.array([*outside, math.nan, 0.25, 0.5]).reshape(3, 3)).ravel()
        assert values[:6].tolist() == [0.0] * 6
        assert math.isnan(values[6])
        assert values[7:].tolist() == [dist.pdf(0.25), dist.pdf(0.5)]

    def test_bates_pdf_array_matches_pointwise(self):
        xs = np.concatenate([np.linspace(0.0, 1.0, 101),
                             substream(3, "bates-pdf").uniform(size=200)])
        dist = Bates(20)
        values = dist.pdf(xs)
        assert all(values[i] == dist.pdf(xs[i]) for i in range(xs.size))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    y=st.floats(min_value=0.0, max_value=1.0),
    a=st.floats(min_value=0.1, max_value=8.0),
    b=st.floats(min_value=0.1, max_value=8.0),
)
def test_cdf_monotone_property(x, y, a, b):
    lo, hi = min(x, y), max(x, y)
    for dist in (Uniform(), Beta(a, b), Bates(7), PointMass(0.25)):
        assert dist.cdf(lo) <= dist.cdf(hi) + 1e-12


@settings(max_examples=40, deadline=None)
@given(a=st.floats(min_value=0.1, max_value=30.0),
       b=st.floats(min_value=0.1, max_value=30.0))
def test_beta_quadrature_normalization_property(a, b):
    # Singular, fractional, and smooth shapes alike must integrate dF to 1.
    dist = Beta(a, b)
    mu, var = dist.moments()
    assert _expect(dist, lambda x: np.ones_like(x)) == pytest.approx(
        1.0, abs=1e-10)
    assert _expect(dist, lambda x: x) == pytest.approx(mu, abs=1e-10)
    assert _expect(dist, lambda x: x * x) == pytest.approx(
        var + mu * mu, abs=1e-10)


class TestSpecParsing:
    @pytest.mark.parametrize("text,expected", [
        ("uniform", Uniform),
        ("beta:2,2", Beta),
        ("bates:20", Bates),
        ("point:0.5", PointMass),
    ])
    def test_kinds(self, text, expected):
        assert isinstance(parse_spec(text), expected)

    def test_round_trip_through_spec(self):
        for text in ("uniform", "beta:0.5,2", "bates:20", "point:0.5"):
            assert parse_spec(text).spec == text

    @pytest.mark.parametrize("law", [
        Beta(0.1234567, 2), Beta(123456789, 1), Beta(1 / 3, 2 / 7),
        PointMass(0.30000001), PointMass(1 / 3),
    ], ids=lambda d: d.spec)
    def test_spec_keeps_every_digit(self, law):
        assert vars(parse_spec(law.spec)) == vars(law)

    @pytest.mark.parametrize("text", [
        "beta:2.5,1.5", "beta:5,50", "beta:1e-07,3", "point:0.3", "point:0"])
    def test_short_parameters_keep_their_spelling(self, text):
        assert parse_spec(text).spec == text

    def test_empirical_non_finite_line_is_a_spec_error(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_text("0.2\nnan\n0.7\n")
        with pytest.raises(SpecError, match="finite"):
            parse_spec(f"empirical:{path}")

    def test_empirical_reads_file(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_text("0.1\n0.9\n0.5\n")
        dist = parse_spec(f"empirical:{path}")
        assert isinstance(dist, Empirical)
        assert list(dist.samples) == [0.1, 0.5, 0.9]

    @pytest.mark.parametrize("text", [
        "gauss", "beta:2", "beta:a,b", "bates:2.5", "point:1.5",
        "empirical:/nonexistent/file.csv", "uniform:3",
    ])
    def test_bad_specs(self, text):
        with pytest.raises(SpecError):
            parse_spec(text)
