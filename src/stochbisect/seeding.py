"""Deterministic derivation of independent random streams.

A master seed plus a path of labels (experiment tag, run index, ...) maps to
one `numpy.random.Generator`. Streams for different paths are statistically
independent, and the derivation is stable across processes, so per-run
substreams can be handed to parallel workers without sharing state.
"""

from __future__ import annotations

import zlib

import numpy as np


def _encode(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    raise TypeError(f"stream path parts must be int or str, got {type(part)!r}")


def substream(seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator for `(seed, *path)`.

    Calling twice with the same arguments yields identical streams; any
    change to the seed or to one path component yields an unrelated stream.
    """
    # The uint32 words numpy would make from the list of encoded parts (low
    # word first, 0 as one word), built here so SeedSequence skips its
    # per-element coercion: the streams are those of that list.
    words = []
    for part in (seed, *path):
        value = _encode(part)
        words.append(value & 0xFFFFFFFF)
        if value >> 32:
            words.append(value >> 32)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy))
