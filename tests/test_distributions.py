import math

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
    _gauss_measure,
    _irwin_hall,
    parse_spec,
)
from stochbisect.seeding import substream
from stochbisect.stats import ks_statistic

PARAMETRIC = [Uniform(), Beta(2, 2), Beta(0.5, 2), Beta(2, 0.5), Bates(20)]
ALL_KINDS = PARAMETRIC + [PointMass(0.5), Empirical([0.1, 0.2, 0.2, 0.9])]


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

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (2.0, 2.0), (0.01, 0.01)])
    def test_beta_draws_are_gamma_ratios(self, a, b):
        got = Beta(a, b).sample(substream(8, "ratio"), size=1000)
        rng = substream(8, "ratio")
        x = rng.standard_gamma(a, size=1000)
        y = rng.standard_gamma(b, size=1000)
        assert np.array_equal(got, x / (x + y))

    def test_beta_gamma_underflow_raises(self):
        # For shapes this small both gamma variates underflow to 0 in about
        # 1% of draws, and x / (x + y) would be a silent 0/0 = NaN.
        dist = Beta(0.003, 0.003)
        with pytest.raises(ArithmeticError, match="underflowed"):
            dist.sample(substream(8, "underflow"), size=100_000)
        rng = substream(8, "underflow-scalar")
        with pytest.raises(ArithmeticError, match="underflowed"):
            for _ in range(10_000):
                dist.sample(rng)

    @pytest.mark.parametrize("dist", ALL_KINDS, ids=lambda d: d.spec)
    def test_bit_reproducible(self, dist):
        a = dist.sample(substream(5, "repro"), size=64)
        b = dist.sample(substream(5, "repro"), size=64)
        assert np.array_equal(a, b)

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
        assert dist.stieltjes_expectation(lambda x: x) == pytest.approx(mu, abs=1e-8)
        assert dist.stieltjes_expectation(lambda x: x * x) == pytest.approx(
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
    for name, breakpoints in BREAKPOINT_SETS.items():
        pts, wts = dist.quadrature(breakpoints)
        assert pts.shape == wts.shape, name
        assert np.all(np.diff(pts) > 0.0), name
        assert np.all(wts >= 0.0), name
        assert abs(wts.sum() - 1.0) < 1e-12, name


class TestStieltjesExpectation:
    def test_uniform_analytic(self):
        assert Uniform().stieltjes_expectation(lambda x: x * (1 - x)) == pytest.approx(
            1 / 6, abs=1e-10)

    def test_point_mass_exact(self):
        assert PointMass(0.5).stieltjes_expectation(lambda x: x * (1 - x)) == 0.25

    def test_beta22_concavity(self):
        assert Beta(2, 2).stieltjes_expectation(lambda x: x * (1 - x)) == pytest.approx(
            0.2, abs=1e-9)

    @pytest.mark.parametrize(
        "dist", [d for d in PARAMETRIC] + [Beta(0.1, 2), Bates(3)],
        ids=lambda d: d.spec)
    def test_density_normalization(self, dist):
        assert dist.stieltjes_expectation(lambda x: np.ones_like(x)) == pytest.approx(
            1.0, abs=1e-10)

    def test_singular_density_oracle(self):
        # E[sin(3x)] under Beta(0.5, 2), oracle scipy.integrate.quad.
        dist = Beta(0.5, 2)
        oracle, err = integrate.quad(
            lambda x: math.sin(3 * x) * math.sqrt(1 / x) * (1 - x) * 0.75, 0, 1)
        assert err < 1e-8
        assert dist.stieltjes_expectation(lambda x: np.sin(3 * x)) == pytest.approx(
            oracle, abs=1e-8)

    def test_breakpoints_align_indicator_kinks(self):
        dist = Uniform()
        got = dist.stieltjes_expectation(
            lambda x: np.where(x >= 0.3, x, 0.0), breakpoints=(0.3,))
        assert got == pytest.approx((1 - 0.09) / 2, abs=1e-12)

    def test_empirical_sample_average(self):
        emp = Empirical([0.0, 0.5, 1.0])
        assert emp.stieltjes_expectation(lambda x: x * x) == pytest.approx(
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
        val = Bates(5).stieltjes_expectation(lambda x: np.ones_like(x))
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
    assert dist.stieltjes_expectation(lambda x: np.ones_like(x)) == pytest.approx(
        1.0, abs=1e-10)
    assert dist.stieltjes_expectation(lambda x: x) == pytest.approx(mu, abs=1e-10)
    assert dist.stieltjes_expectation(lambda x: x * x) == pytest.approx(
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
