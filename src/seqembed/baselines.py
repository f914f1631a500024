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

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .data import validate_frames
from .errors import DimensionError

# Byte budget of one block's DTW table and of one chunk of frame differences;
# it bounds the memory that aligning many pairs at once adds.
_BLOCK_BYTES = 1 << 18


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


def _dtw_tables(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Accumulated-cost tables of m pairs of validated sequences at once:
    ``a`` is (m, T_a, D) and ``b`` is (m, T_b, D).

    The result is skewed by anti-diagonal: slot ``[s, i, p]`` of the
    (T_a+T_b+1, T_a+1, m) array holds pair p's bordered cell ``acc[i][s-i]``,
    which aligns a[p, :i] with b[p, :s-i].  Border cells are inf except
    ``acc[0][0] = 0``; slots outside the grid are never read.  Each cell is
    ``cost + min(diag, up, left)`` on the same floats as a per-pair loop,
    because the minimum of three non-NaN floats does not depend on their
    order, so the tables are bit-identical to one.
    """
    m, ta, d = a.shape
    tb = b.shape[1]
    table = np.full((ta + tb + 1, ta + 1, m), np.inf)
    table[0, 0] = 0.0
    # cells[i, j] is frame pair (i, j)'s slot [i+j+2, i+1], the bordered cell (i+1, j+1)
    s_step, i_step, p_step = table.strides
    cells = as_strided(table[2, 1:], shape=(ta, tb, m), strides=(s_step + i_step, s_step, p_step))
    # frame costs stay sqrt(sum(diff**2)) over the contiguous D axis, chunked
    # because each pair's difference tensor is T_a*T_b*D floats
    chunk = max(1, _BLOCK_BYTES // (ta * tb * d * 8))
    for lo in range(0, m, chunk):
        diff = a[lo : lo + chunk, :, None, :] - b[lo : lo + chunk, None, :, :]
        diff *= diff
        cost = diff.sum(axis=-1)
        cells[:, :, lo : lo + chunk] = np.sqrt(cost, out=cost).transpose(1, 2, 0)
    best = np.empty((ta, m))
    for s in range(2, ta + tb + 1):
        lo, hi = max(1, s - tb), min(ta, s - 1) + 1  # the rows i of diagonal s inside the grid
        step = best[: hi - lo]
        np.minimum(table[s - 2, lo - 1 : hi - 1], table[s - 1, lo - 1 : hi - 1], out=step)
        np.minimum(step, table[s - 1, lo:hi], out=step)
        table[s, lo:hi] += step
    return table


def _length_runs(seqs: list[np.ndarray]) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(length, indices, stacked frames) of the sequences of each distinct
    length, so that a block gathers its frames with one index."""
    members: dict[int, list[int]] = {}
    for k, x in enumerate(seqs):
        members.setdefault(len(x), []).append(k)
    return [(t, np.array(ks), np.stack([seqs[k] for k in ks])) for t, ks in sorted(members.items())]


def _aligned(a: np.ndarray, p: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """DTW distances of the pairs (a[p[k]], b[q[k]]), in blocks of at most
    ``_BLOCK_BYTES`` of table."""
    ta, tb = a.shape[1], b.shape[1]
    block = max(1, _BLOCK_BYTES // ((ta + tb + 1) * (ta + 1) * 8))
    dist = np.empty(len(p))
    for lo in range(0, len(p), block):
        dist[lo : lo + block] = _dtw_tables(a[p[lo : lo + block]], b[q[lo : lo + block]])[ta + tb, ta]
    return dist


def dtw_distances(seqs: Sequence[np.ndarray], others: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """DTW distances from every sequence of ``seqs`` to every one of
    ``others``, or, without ``others``, between the sequences of ``seqs``:
    then one alignment per unordered pair is mirrored and the diagonal is 0.

    Every sequence is validated once.  Pairs are aligned in groups of one
    length pair, shorter sequence first: unnormalized DTW is exactly
    symmetric (the frame costs transpose bit for bit and the step minimum
    ignores direction), and the shorter side gives the table fewer rows.
    """
    mirror = others is None
    seqs = [validate_frames(x, f"sequence {k}") for k, x in enumerate(seqs)]
    others = seqs if mirror else [validate_frames(x, f"other sequence {k}") for k, x in enumerate(others)]
    widths = sorted({x.shape[1] for x in seqs + others})
    if len(widths) > 1:
        raise DimensionError(f"feature widths differ: {' vs '.join(map(str, widths))}")
    out = np.zeros((len(seqs), len(others)))
    runs = _length_runs(seqs)
    other_runs = None if mirror else _length_runs(others)
    for x, (ta, rows, a) in enumerate(runs):
        for tb, cols, b in runs[x:] if mirror else other_runs:
            if b is a:  # a run against itself: its unordered pairs
                p, q = np.triu_indices(len(rows), 1)
            else:
                p, q = np.indices((len(rows), len(cols))).reshape(2, -1)
            if len(p):
                dist = _aligned(a, p, b, q) if ta <= tb else _aligned(b, q, a, p)
                out[rows[p], cols[q]] = dist
                if mirror:
                    out[cols[q], rows[p]] = dist
    return out


def dtw_distance(a: np.ndarray, b: np.ndarray, normalize: bool = False) -> float:
    """Minimum accumulated frame distance over monotone alignment paths.

    With ``normalize`` the total is divided by the alignment path length
    (number of aligned cells); off by default.
    """
    total, path = dtw_path(a, b)
    return total / len(path) if normalize else total


def dtw_path(a: np.ndarray, b: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """DTW distance plus the chosen alignment path from (0, 0) to (T_a-1, T_b-1);
    each step back takes the cheapest in-grid predecessor, ties preferring
    the diagonal, then up (i-1, j), then left (i, j-1)."""
    a = validate_frames(a, "first sequence")
    b = validate_frames(b, "second sequence")
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"feature widths differ: {a.shape[1]} vs {b.shape[1]}"
        )
    skewed = _dtw_tables(a[None], b[None])[:, :, 0].tolist()

    def acc(i, j):  # the bordered cell acc[i][j]
        return skewed[i + j][i]

    i, j = len(a), len(b)
    path = [(i - 1, j - 1)]
    while i > 1 or j > 1:
        diag, up, left = acc(i - 1, j - 1), acc(i - 1, j), acc(i, j - 1)
        if i > 1 and j > 1 and diag <= up and diag <= left:
            i, j = i - 1, j - 1
        elif i > 1 and (j == 1 or up <= left):
            i -= 1
        else:
            j -= 1
        path.append((i - 1, j - 1))
    return acc(len(a), len(b)), path[::-1]
