"""Memory bounds of the statistics and population paths' largest steps.

numpy reports its buffers to `tracemalloc`, so a traced peak counts every
array and string a call builds, measured against the size of its input or
output, or against a fixed working set where the call keeps one whatever
its input's size.
"""

import tracemalloc
from functools import partial

import numpy as np

from stochbisect.distributions import Empirical
from stochbisect.engine import population_step
from stochbisect.experiments import ExperimentReport, report_to_csv
from stochbisect.seeding import substream
from stochbisect.stats import bootstrap_mean_ci, correlation_matrix, ks_statistic
from stochbisect.theory import conditional_expected_length, expected_contraction


def _traced_peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _steady_peak(call, *args) -> int:
    # The peak of a second call: a first call may build numpy's one-time
    # state (np.percentile's first call traces 1.2 MB).
    call(*args)
    return _traced_peak(call, *args)


def test_csv_writer_peak_is_about_twice_the_text():
    # A 100k-row two-column series, as a long `--iters` run carries one (a
    # Q-Q series stops at 1,000 rows); building the rows as Python lists
    # first peaked at 7.5 times the text.
    rows = np.sort(substream(1, "qq-memory").uniform(size=(100_000, 2)), axis=0)
    report = ExperimentReport("stationarity", {})
    report.add_series("qq", ["theoretical", "empirical"], rows)
    text = report_to_csv(report)
    assert _traced_peak(report_to_csv, report) <= 2.5 * len(text)


def test_correlation_matrix_reads_its_array_in_place():
    # The (iters, runs) array of the correlation experiment; the call may
    # build no copy of it, at most one centred column block at a time.
    data = substream(2, "corr-memory").uniform(size=(14, 100_000))
    assert _traced_peak(correlation_matrix, data) <= 1.25 * data.nbytes


# Each bound below is the peak measured with numpy 2.4 plus at most 25%.


def test_bootstrap_peak_is_one_cache_sized_chunk():
    # 1.06 MB: one chunk's 2^16-element index matrix and its gather.
    samples = substream(3, "bootstrap-memory").uniform(size=1_000)
    call = partial(bootstrap_mean_ci, samples, 2_000, rng=substream(3, "bootstrap-draws"))
    assert _steady_peak(call) <= 1_300_000


def test_correlation_peak_is_one_column_block():
    # 2.10 MB, one centred 2^18-element block, for an 11.2 MB array.
    data = substream(2, "corr-memory").uniform(size=(14, 100_000))
    assert _steady_peak(correlation_matrix, data) <= 2_600_000


def test_ks_statistic_peak_is_the_sorted_copy_and_one_buffer():
    # 2 x the sample: its sorted copy and one gap buffer.
    samples = substream(4, "ks-memory").uniform(size=100_000)
    assert _steady_peak(ks_statistic, samples) <= 2.5 * samples.nbytes


def test_population_step_peak_is_four_row_buffers():
    # 3.2 x the roots: lo and hi (returned as the factors and new roots), a
    # scratch row and a bool mask, for any k.
    roots = substream(5, "step-memory").uniform(size=100_000)
    cuts = substream(5, "step-memory-cuts").uniform(size=(3, 100_000))
    for k in (1, 3):
        assert _steady_peak(population_step, roots, cuts[:k]) <= 4.0 * roots.nbytes


def test_k_cut_theory_peak_is_a_few_arrays_per_atom():
    # 9.6 and 7.2 MB, about a dozen and nine doubles per atom of a 100k-atom
    # law: F is constant between atoms, so each panel has one node. With 16
    # nodes per panel they peaked at 95 and 68 MB.
    law = Empirical(substream(6, "k-cut-memory").uniform(size=100_000))
    assert _steady_peak(expected_contraction, law, 6) <= 12_000_000
    assert _steady_peak(conditional_expected_length, 0.3, law, 6) <= 9_000_000
