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

# Byte budget of one block's DTW table; it bounds the memory that aligning
# many pairs at once adds (each frame-cost term is smaller than the table).
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


def _added(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y, written into x."""
    return np.add(x, y, out=x)


def _left_to_right(term, ks: range, total: np.ndarray | None = None) -> np.ndarray:
    """``total + term(k0) + term(k1) + ...``, added in that order."""
    for k in ks:
        total = term(k) if total is None else _added(total, term(k))
    return total


def _pairwise_sum(term, ks: range) -> np.ndarray:
    """The sum of the arrays ``term(k)``, k in ``ks`` (each a fresh array the
    sum may overwrite), added in the order of numpy's pairwise summation,
    so it is bit-identical to ``np.stack(terms, axis=-1).sum(axis=-1)``.

    Below 8 terms numpy adds left to right.  Up to 128 it sums eight
    columns, r_j = term(j) + term(j+8) + ... over the largest multiple of
    8, adds them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then the rest
    left to right.  Above 128 it splits at a multiple of 8 below the middle
    and adds the two halves' sums.  Terms are made as the order reaches
    them, so only a few are alive at once.
    """
    n = len(ks)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _added(_pairwise_sum(term, ks[:half]), _pairwise_sum(term, ks[half:]))
    if n < 8:
        return _left_to_right(term, ks)
    body = n - n % 8

    def r(j):
        return _left_to_right(term, ks[j:body:8])

    total = _added(_added(_added(r(0), r(1)), _added(r(2), r(3))),
                   _added(_added(r(4), r(5)), _added(r(6), r(7))))
    return _left_to_right(term, ks[body:], total)


def _dtw_tables(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Accumulated-cost tables of m pairs of validated sequences at once:
    ``a`` is (m, T_a, D) and ``b`` is (m, T_b, D).

    The result is skewed by anti-diagonal: slot ``[s, i, p]`` of the
    (T_a+T_b+1, T_a+1, m) array holds pair p's bordered cell ``acc[i][s-i]``,
    which aligns a[p, :i] with b[p, :s-i].  Border cells are inf except
    ``acc[0][0] = 0``; slots outside the grid are never read.  Each cell is
    ``cost + min(diag, up, left)`` on the same floats as a per-pair loop,
    because the minimum of three non-NaN floats does not depend on their
    order, so the tables are bit-identical to one.  A frame cost is
    ``sqrt(sum(diff**2))`` with the D squares added in ``_pairwise_sum``'s
    order, the order of numpy's ``sum`` over a contiguous last axis.
    """
    m, ta, d = a.shape
    tb = b.shape[1]
    table = np.full((ta + tb + 1, ta + 1, m), np.inf)
    table[0, 0] = 0.0
    # cells[i, j] is frame pair (i, j)'s slot [i+j+2, i+1], the bordered cell (i+1, j+1)
    s_step, i_step, p_step = table.strides
    cells = as_strided(table[2, 1:], shape=(ta, tb, m), strides=(s_step + i_step, s_step, p_step))
    # one feature's squared differences at a time, pair axis innermost
    a_t, b_t = a.transpose(2, 1, 0).copy(), b.transpose(2, 1, 0).copy()

    def square(k):
        diff = a_t[k, :, None, :] - b_t[k, None, :, :]
        return np.multiply(diff, diff, out=diff)

    np.sqrt(_pairwise_sum(square, range(d)), out=cells)
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
