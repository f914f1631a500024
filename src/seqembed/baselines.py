"""Comparison systems: segment-average encoding and frame-based DTW.

The naive encoder splits a T x D sequence into m roughly equal segments
(floor partition: segment i covers rows [floor(i*T/m), floor((i+1)*T/m))),
averages each segment and concatenates the averages into a D*m vector.
Segments left empty when T < m contribute zero vectors.

DTW uses the classic three-direction step set (up, left, diagonal) with
unit weights, Euclidean frame distance, no band and, by default, no
path-length normalization.
"""
from __future__ import annotations

import math

import numpy as np

from .data import validate_frames
from .errors import DimensionError


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


def _dtw_table(a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    """Accumulated costs (plain Python for the DP loop): ``acc[i][j]`` aligns
    a[:i] with b[:j], and the border row and column are inf but acc[0][0] = 0."""
    a = validate_frames(a, "first sequence")
    b = validate_frames(b, "second sequence")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"feature widths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    diff = a[:, None, :] - b[None, :, :]
    acc = [[0.0] + [math.inf] * b.shape[0]]
    for crow in np.sqrt((diff * diff).sum(axis=2)).tolist():
        above, row, left = acc[-1], [math.inf], math.inf
        for c, diag, up in zip(crow, above, above[1:]):
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            left = c + best
            row.append(left)
        acc.append(row)
    return acc


def dtw_distance(a: np.ndarray, b: np.ndarray, normalize: bool = False) -> float:
    """Minimum accumulated frame distance over monotone alignment paths.

    With ``normalize`` the total is divided by the alignment path length
    (number of aligned cells); off by default.
    """
    if normalize:
        total, path = dtw_path(a, b)
        return total / len(path)
    return _dtw_table(a, b)[-1][-1]


def dtw_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the chosen alignment path from (0, 0) to (T_a-1, T_b-1);
    each step back takes the cheapest in-grid predecessor, ties preferring
    the diagonal, then up (i-1, j), then left (i, j-1)."""
    acc = _dtw_table(a, b)
    i, j = len(acc) - 1, len(acc[0]) - 1
    path = [(i - 1, j - 1)]
    while i > 1 or j > 1:
        diag, up, left = acc[i - 1][j - 1], acc[i - 1][j], acc[i][j - 1]
        if i > 1 and j > 1 and diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif i > 1 and (j == 1 or up <= left):
            i -= 1
        else:
            j -= 1
        path.append((i - 1, j - 1))
    return acc[-1][-1], path[::-1]
