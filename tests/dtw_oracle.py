"""Reference DTW: two per-pair dynamic programs in plain Python loops.

``dtw_tables``/``dtw_path`` keep separate accumulated-cost and predecessor
tables: the first row and column are filled by their own loops, and the
backtrack follows stored predecessor codes.  ``bordered_table``/
``bordered_path`` run on one (T_a+1) x (T_b+1) table with an inf border and
backtrack by comparing neighbours.  Each was once ``seqembed.baselines``'
DP; the batched anti-diagonal kernel that replaced them is compared
against both, exactly.
"""
from __future__ import annotations

import math

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


def bordered_table(a: np.ndarray, b: np.ndarray) -> list[list[float]]:
    """Accumulated costs: ``acc[i][j]`` aligns a[:i] with b[:j], and the
    border row and column are inf but acc[0][0] = 0."""
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


def bordered_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance and path backtracked from ``bordered_table``: each step
    back takes the cheapest in-grid predecessor, ties preferring the
    diagonal, then up, then left."""
    acc = bordered_table(a, b)
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
