import numpy as np
import pytest

from stochbisect.seeding import _encode, substream


def test_same_path_same_stream():
    a = substream(7, "tag", 3).uniform(size=8)
    b = substream(7, "tag", 3).uniform(size=8)
    assert np.array_equal(a, b)


def test_any_path_change_diverges():
    base = substream(7, "tag", 3).uniform(size=8)
    for other in [substream(8, "tag", 3), substream(7, "gat", 3), substream(7, "tag", 4)]:
        assert not np.array_equal(base, other.uniform(size=8))


def test_run_indices_give_independent_looking_streams():
    draws = np.array([substream(1, "runs", m).uniform() for m in range(2000)])
    # crude independence check: the per-run first draws look uniform
    assert abs(draws.mean() - 0.5) < 0.03
    assert abs(np.corrcoef(draws[:-1], draws[1:])[0, 1]) < 0.08


def test_rejects_unhashable_parts():
    with pytest.raises(TypeError):
        substream(1, 2.5)


EDGE_PATHS = [
    (0,),
    (0, 0, "", 0),
    (-1, "tag", -(2**63)),
    (2**32, 2**32 - 1, 2**32 + 1),
    (2**64 - 1, 2**63, 2**64),
    (np.int64(-5), np.uint64(2**64 - 1), np.int32(7), np.uint32(2**32 - 1)),
    (7, "\u00fcmlaut", "\u8def\u5f84", "\U0001f3b2"),
    (1, "solve", "cos", "beta:2,2", 17),
]


@pytest.mark.parametrize("path", EDGE_PATHS, ids=repr)
def test_stream_is_numpys_derivation_from_the_encoded_parts(path):
    expected = np.random.default_rng(np.random.SeedSequence([_encode(x) for x in path]))
    assert np.array_equal(substream(*path).random(8), expected.random(8))
