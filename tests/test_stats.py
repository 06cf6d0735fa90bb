import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from stochbisect import stats
from stochbisect.seeding import substream
from stochbisect.stats import (
    DegenerateSampleError,
    IntervalEstimate,
    bootstrap_mean_ci,
    correlation_matrix,
    fit_exponential_decay,
    ks_critical_value,
    ks_statistic,
    qq_points,
    wilson_ci,
)


class TestIntervalEstimate:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 0.6, 0.7, 0.95, "wilson")

    def test_contains_and_overlaps(self):
        est = IntervalEstimate(0.5, 0.4, 0.6, 0.95, "wilson")
        assert est.contains(0.45) and not est.contains(0.61)
        assert est.overlaps(0.55, 0.8) and not est.overlaps(0.7, 0.8)


class TestBootstrap:
    def test_constant_sample_degenerate_interval(self):
        ci = bootstrap_mean_ci([0.5] * 32, rng=substream(0, "b"))
        assert (ci.point, ci.lower, ci.upper) == (0.5, 0.5, 0.5)

    def test_interval_contains_sample_mean(self):
        for seed in range(5):
            data = substream(seed, "mean").uniform(size=200)
            ci = bootstrap_mean_ci(data, rng=substream(seed, "boot"))
            assert ci.contains(float(data.mean()))

    def test_width_matches_clt_reference(self):
        # 1e4 standard-uniform draws: CLT width is 2 * 1.96 * sigma / sqrt(n).
        data = substream(1, "clt").uniform(size=10_000)
        ci = bootstrap_mean_ci(data, rng=substream(1, "clt-boot"))
        reference = 2 * 1.96 * math.sqrt(1 / 12) / 100.0
        assert abs((ci.upper - ci.lower) - reference) < 0.2 * reference

    def test_coverage_of_known_mean(self):
        # 95% CI for the mean scaling factor with uniform cuts and roots
        # contains 2/3 in at least 90 of 100 seeded repetitions.
        hits = 0
        for rep in range(100):
            rng = substream(rep, "cover")
            roots = rng.uniform(size=10_000)
            cuts = rng.uniform(size=10_000)
            ells = np.where(cuts >= roots, cuts, 1 - cuts)
            ci = bootstrap_mean_ci(ells, resamples=500, rng=substream(rep, "cover-b"))
            hits += ci.contains(2 / 3)
        assert hits >= 90

    def test_rng_is_required(self):
        # All randomness comes from the caller; there is no unseeded fallback.
        with pytest.raises(TypeError):
            bootstrap_mean_ci([0.1, 0.2])

    def test_empty_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            bootstrap_mean_ci([], rng=substream(0, "e"))

    @pytest.mark.parametrize("n", [1, 333, 1000])
    def test_interval_independent_of_chunk_budget(self, monkeypatch, n):
        data = substream(2, "chunk").uniform(size=n)
        default = bootstrap_mean_ci(data, resamples=301, rng=substream(2, "chunk-b"))
        monkeypatch.setattr(stats, "_CHUNK_ELEMENTS", 777)
        small = bootstrap_mean_ci(data, resamples=301, rng=substream(2, "chunk-b"))
        assert small == default


class TestWilson:
    def test_no_successes(self):
        ci = wilson_ci(0, 1000)
        assert ci.lower == 0.0
        assert ci.upper < 0.005

    def test_half_successes_symmetric(self):
        ci = wilson_ci(500, 1000)
        assert 0.5 * (ci.lower + ci.upper) == pytest.approx(0.5, abs=1e-12)
        assert ci.upper - ci.lower == pytest.approx(0.062, abs=0.001)

    def test_all_successes(self):
        ci = wilson_ci(1000, 1000)
        assert ci.upper == 1.0
        assert ci.lower > 0.99

    def test_matches_scipy_wilson(self):
        # Oracle: scipy's binomtest Wilson interval, an independent implementation.
        for n in (1, 5, 20, 137, 1000):
            for k in sorted({0, 1, n // 3, n // 2, n - 1, n}):
                ours = wilson_ci(k, n)
                ref = sps.binomtest(k, n).proportion_ci(confidence_level=0.95,
                                                         method="wilson")
                assert ours.lower == pytest.approx(ref.low, abs=1e-15, rel=0)
                assert ours.upper == pytest.approx(ref.high, abs=1e-15, rel=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_ci(5, 4)
        with pytest.raises(ValueError):
            wilson_ci(1, 0)

    @settings(max_examples=80, deadline=None)
    @given(successes=st.integers(min_value=0, max_value=50),
           trials=st.integers(min_value=1, max_value=50))
    def test_endpoints_always_in_unit_interval(self, successes, trials):
        if successes > trials:
            successes = trials
        ci = wilson_ci(successes, trials)
        assert 0.0 <= ci.lower <= ci.point <= ci.upper <= 1.0


class TestKsStatistic:
    def test_single_midpoint_sample(self):
        assert ks_statistic([0.5]) == 0.5

    def test_equispaced_grid(self):
        m = 9
        samples = [(i + 1) / (m + 1) for i in range(m)]
        assert ks_statistic(samples) == pytest.approx(1 / (m + 1), abs=1e-15)

    def test_brute_force_oracle_small_samples(self):
        # oracle: direct sup of |ecdf - x| over a dense scan
        scan = np.linspace(0.0, 1.0, 1_000_001)
        for seed in range(5):
            samples = np.sort(substream(seed, "ks").uniform(size=12))
            ecdf = np.searchsorted(samples, scan, side="right") / samples.size
            brute = np.max(np.abs(ecdf - scan))
            # the scan misses the left limits by at most the scan step
            assert ks_statistic(samples) == pytest.approx(brute, abs=2e-6)

    def test_uniform_sample_below_kolmogorov_tail(self):
        draws = substream(7, "tail").uniform(size=10_000)
        assert ks_statistic(draws) < 1.95 / math.sqrt(10_000)

    def test_critical_values(self):
        assert ks_critical_value(10_000) == pytest.approx(0.01628, abs=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSampleError):
            ks_statistic([])

    @pytest.mark.parametrize("samples", [[0.1, math.nan, 0.5], [0.1, 1.5, 0.5],
                                         [-0.1, 0.5]], ids=["nan", "above", "below"])
    def test_sample_outside_unit_interval_rejected(self, samples):
        with pytest.raises(DegenerateSampleError):
            ks_statistic(samples)

    def test_unit_interval_ends_accepted(self):
        assert ks_statistic([0.0, 1.0]) == 0.5

    @pytest.mark.parametrize("m", [1, 3, 10, 1000, 4097])
    def test_grid_matches_the_two_index_forms(self, m):
        # The grids built in place give i / m and (i - 1) / m bit for bit.
        samples = np.sort(substream(m, "ks-grid").uniform(size=m))
        i = np.arange(1, m + 1)
        want = float(max(np.max(i / m - samples), np.max(samples - (i - 1) / m)))
        assert ks_statistic(samples) == want

    @pytest.mark.parametrize("m", [1, 2, 1200, 100_000])
    def test_matches_the_frozen_formula_with_ties_and_ends(self, m):
        # ks_statistic builds each gap in place, one buffer at a time; the
        # whole-grid formula, a grid and two differences, is the oracle.
        def frozen(samples):
            samples = np.sort(samples)
            grid = np.arange(m + 1) / m
            return float(max(np.max(grid[1:] - samples), np.max(samples - grid[:-1])))

        tied = np.round(substream(m, "ks-frozen").uniform(size=m), 2)
        ends = tied.copy()
        ends[0], ends[-1] = 0.0, 1.0
        for samples in (tied, ends, np.zeros(m), np.ones(m)):
            assert ks_statistic(samples) == frozen(samples)


class TestExponentialFit:
    def test_exact_geometric_sequence(self):
        rho, rate = fit_exponential_decay([1.0, 0.5, 0.25, 0.125])
        assert rho == pytest.approx(math.log(2), abs=1e-12)
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_recovers_planted_rate(self):
        planted = 0.31
        values = np.exp(-planted * np.arange(40))
        rho, rate = fit_exponential_decay(values)
        assert rho == pytest.approx(planted, abs=1e-12)
        assert rate == pytest.approx(math.exp(-planted), abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([1.0, 0.0, 0.5])
        with pytest.raises(ValueError):
            fit_exponential_decay([0.5])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            fit_exponential_decay([0.5, math.nan, 0.1, 0.05])


class TestCorrelationMatrix:
    def test_identical_columns(self):
        col = [0.1, 0.5, 0.9, 0.3]
        corr = correlation_matrix([col, col])
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_unit_diagonal_psd(self):
        rng = substream(3, "corr")
        columns = [rng.uniform(size=50) for _ in range(6)]
        corr = correlation_matrix(columns)
        assert np.allclose(corr, corr.T)
        assert np.allclose(np.diag(corr), 1.0)
        assert np.all((corr >= -1.0) & (corr <= 1.0))
        assert np.min(np.linalg.eigvalsh(corr)) > -1e-9

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateSampleError):
            correlation_matrix([[1.0, 2.0]])
        with pytest.raises(DegenerateSampleError):
            correlation_matrix([[1.0, 2.0], [1.0]])
        with pytest.raises(DegenerateSampleError):
            correlation_matrix([[1.0, 1.0], [0.2, 0.9]])

    @pytest.mark.parametrize("value,n", [(0.1, 3), (0.7, 7), (0.9, 1000)])
    def test_constant_column_with_rounded_std_rejected(self, value, n):
        # np.std of these constant columns is a rounding residue, not 0.
        column = np.full(n, value)
        assert column.std() > 0.0
        with pytest.raises(DegenerateSampleError):
            correlation_matrix([column, np.arange(float(n))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_column_rejected(self, bad):
        # np.corrcoef turns NaN into a NaN matrix without a warning, and an
        # infinity into the same matrix with only a RuntimeWarning.
        with pytest.raises(DegenerateSampleError):
            correlation_matrix([[0.1, bad, 0.3], [1.0, 2.0, 3.0]])
        with pytest.raises(DegenerateSampleError):
            correlation_matrix(np.array([[1.0, 2.0, 3.0], [bad, bad, bad]]))

    @pytest.mark.parametrize("shape", [(2, 2), (3, 10), (14, 500), (14, 18724)], ids=str)
    def test_one_block_is_corrcoef_bit_for_bit(self, shape):
        # Up to 2^18 elements (14 x 18724 is the widest 14-row block) the
        # kernel sums one block, as np.corrcoef does.
        data = substream(5, "corr-block", *shape).uniform(size=shape)
        assert np.array_equal(correlation_matrix(data), np.clip(np.corrcoef(data), -1, 1))

    @pytest.mark.parametrize("shape", [(14, 100_000), (4, 70_001)], ids=str)
    def test_blockwise_sums_stay_within_1e_15_of_corrcoef(self, shape):
        data = substream(5, "corr-block", *shape).uniform(size=shape)
        want = np.clip(np.corrcoef(data), -1, 1)
        assert np.max(np.abs(correlation_matrix(data) - want)) <= 1e-15

    def test_column_list_and_array_agree(self):
        data = substream(4, "corr-forms").uniform(size=(5, 40))
        assert np.array_equal(correlation_matrix(list(data)), correlation_matrix(data))

    @pytest.mark.parametrize("columns", [[[1.0, 2.0, 3.0], [1.0, 2.0]],
                                         [np.arange(3.0), np.arange(4.0)]],
                             ids=["lists", "arrays"])
    def test_ragged_columns_raise_degenerate_sample(self, columns):
        with pytest.raises(DegenerateSampleError):
            correlation_matrix(columns)


class TestQqPoints:
    def test_single_sample(self):
        points = qq_points([0.7])
        assert points.shape == (1, 2)
        assert points.tolist() == [[0.5, 0.7]]

    def test_exact_grid_close_to_diagonal(self):
        m = 99
        samples = [(i + 1) / (m + 1) for i in range(m)]
        points = qq_points(samples)
        assert max(abs(t - s) for t, s in points) <= 1 / (m + 1)

    def test_sorted_output(self):
        points = qq_points(substream(4, "qq").uniform(size=64))
        samples = [s for _, s in points]
        assert samples == sorted(samples)

    def test_sample_at_the_cap_keeps_every_order_statistic(self):
        m = stats.QQ_ROWS
        samples = substream(5, "qq").uniform(size=m)
        points = qq_points(samples)
        assert np.array_equal(points[:, 0], (np.arange(1, m + 1) - 0.5) / m)
        assert np.array_equal(points[:, 1], np.sort(samples))

    # 1200 is a size where ceil of the float product p_j * M is one rank high.
    @pytest.mark.parametrize("m", [stats.QQ_ROWS + 1, 1200, 2 * stats.QQ_ROWS, 100_000])
    def test_larger_sample_gives_the_quantile_at_each_plotting_position(self, m):
        rows = stats.QQ_ROWS
        samples = substream(6, "qq").uniform(size=m)
        points = qq_points(samples)
        assert points.shape == (rows, 2)
        assert np.all(np.diff(points[:, 1]) >= 0.0)
        ordered = np.sort(samples)
        for j, (p, value) in enumerate(points, start=1):
            assert p == (j - 0.5) / rows
            assert value == ordered[math.ceil(Fraction(2 * j - 1, 2 * rows) * m) - 1]

    def test_empty_rejected(self):
        with pytest.raises(DegenerateSampleError):
            qq_points([])

    @pytest.mark.parametrize("samples", [[0.1, math.nan], [0.1, math.inf], [-math.inf, 0.2],
                                         [math.nan, 0.5, -math.inf]])
    def test_non_finite_rejected(self, samples):
        # np.sort keeps each of them as an order statistic.
        with pytest.raises(DegenerateSampleError):
            qq_points(samples)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_past_the_last_picked_rank_rejected(self, bad):
        # Both sort to rank 5000, past the last rank a 5000-value sample picks.
        samples = substream(7, "qq").uniform(size=5000)
        samples[1234] = bad
        with pytest.raises(DegenerateSampleError):
            qq_points(samples)
