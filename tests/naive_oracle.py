"""Reference naive encoder: one record and one segment at a time.

This is the loop that ``seqembed.baselines.naive_encode_batch`` replaced
with one ``mean(axis=1)`` per segment over the records of each length,
kept as the oracle the equivalence tests compare against bit for bit.
"""
from __future__ import annotations

import numpy as np

from seqembed.data import validate_frames


def naive_encode(x: np.ndarray, m: int) -> np.ndarray:
    """Average m floor-partitioned segments and concatenate: a (D*m,) vector."""
    x = validate_frames(x)
    if m < 1:
        raise ValueError(f"segment count must be >= 1, got {m}")
    t, d = x.shape
    parts = []
    for i in range(m):
        lo = (i * t) // m
        hi = ((i + 1) * t) // m
        if hi > lo:
            parts.append(x[lo:hi].mean(axis=0))
        else:
            parts.append(np.zeros(d))
    return np.concatenate(parts)


def naive_encode_batch(xs, m: int) -> np.ndarray:
    return np.array([naive_encode(x, m) for x in xs])
