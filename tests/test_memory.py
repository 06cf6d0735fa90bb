"""Memory bounds of the population path's two largest steps.

numpy reports its buffers to `tracemalloc`, so a traced peak counts every
array and string a call builds, measured against the size of its input or
output.
"""

import tracemalloc

import numpy as np

from stochbisect.experiments import ExperimentReport, report_to_csv
from stochbisect.seeding import substream
from stochbisect.stats import correlation_matrix


def _traced_peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
    # The (iters, runs) array of the correlation experiment; np.corrcoef's
    # centred copy is the one array the call may build at this size.
    data = substream(2, "corr-memory").uniform(size=(14, 100_000))
    assert _traced_peak(correlation_matrix, data) <= 1.25 * data.nbytes
