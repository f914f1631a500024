"""Reference DTW: separate accumulated-cost and predecessor tables.

This is the dynamic program that the single bordered table in
``seqembed.baselines`` replaced, kept as the oracle the equivalence tests
compare against.  The first row and column are filled by their own loops,
and the backtrack follows stored predecessor codes.
"""
from __future__ import annotations

import numpy as np

from seqembed.data import validate_frames
from seqembed.errors import DimensionError


def dtw_tables(a: np.ndarray, b: np.ndarray):
    """Accumulated-cost and predecessor tables.

    Predecessor codes: 0 diagonal, 1 up (i-1, j), 2 left (i, j-1); ties
    prefer the diagonal, then up, then left.
    """
    a = validate_frames(a, "first sequence")
    b = validate_frames(b, "second sequence")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"feature widths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    diff = a[:, None, :] - b[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2)).tolist()
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


def dtw_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the chosen alignment path from (0, 0) to (T_a-1, T_b-1)."""
    acc, prev = dtw_tables(a, b)
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
