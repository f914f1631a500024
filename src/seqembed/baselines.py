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


def _frame_cost(a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).tolist()


def _dtw_tables(a: np.ndarray, b: np.ndarray):
    """Accumulated-cost and predecessor tables (plain Python for the DP loop).

    Predecessor codes: 0 diagonal, 1 up (i-1, j), 2 left (i, j-1); ties
    prefer the diagonal, then up, then left.
    """
    a = validate_frames(a, "first sequence")
    b = validate_frames(b, "second sequence")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"feature widths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    cost = _frame_cost(a, b)
    n, m = len(cost), len(cost[0])
    acc = [[0.0] * m for _ in range(n)]
    prev = [[-1] * m for _ in range(n)]
    acc[0][0] = cost[0][0]
    for j in range(1, m):
        acc[0][j] = cost[0][j] + acc[0][j - 1]
        prev[0][j] = 2
    for i in range(1, n):
        acc[i][0] = cost[i][0] + acc[i - 1][0]
        prev[i][0] = 1
        row = acc[i]
        above = acc[i - 1]
        crow = cost[i]
        prow = prev[i]
        for j in range(1, m):
            diag = above[j - 1]
            up = above[j]
            left = row[j - 1]
            best, code = diag, 0
            if up < best:
                best, code = up, 1
            if left < best:
                best, code = left, 2
            row[j] = crow[j] + best
            prow[j] = code
    return acc, prev


def dtw_distance(a: np.ndarray, b: np.ndarray, normalize: bool = False) -> float:
    """Minimum accumulated frame distance over monotone alignment paths.

    With ``normalize`` the total is divided by the alignment path length
    (number of aligned cells); off by default.
    """
    if normalize:
        total, path = dtw_path(a, b)
        return total / len(path)
    acc, _ = _dtw_tables(a, b)
    return acc[-1][-1]


def dtw_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the chosen alignment path from (0, 0) to (T_a-1, T_b-1)."""
    acc, prev = _dtw_tables(a, b)
    i, j = len(acc) - 1, len(acc[0]) - 1
    path = [(i, j)]
    while prev[i][j] != -1:
        code = prev[i][j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return acc[-1][-1], path
