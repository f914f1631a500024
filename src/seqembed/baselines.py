"""Comparison systems: segment-average encoding and frame-based DTW.

The naive encoder splits a T x D sequence into m roughly equal segments
(floor partition: segment i covers rows [floor(i*T/m), floor((i+1)*T/m))),
averages each segment and concatenates the averages into a D*m vector.
Segments left empty when T < m contribute zero vectors.

DTW uses the classic three-direction step set (up, left, diagonal) with
unit weights, Euclidean frame distance, no band and, by default, no
path-length normalization.  One kernel, ``_dtw_tables``, aligns a block of
pairs of equal lengths at once, one anti-diagonal at a time; every block
of a call is laid in one workspace, sized to the call's largest block, of
which only the border slots are set per block.
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


def _dtw_tables(a: np.ndarray, b: np.ndarray, table: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Accumulated-cost tables of m pairs of validated sequences at once,
    stacked feature-major: ``a`` is (D, T_a, m) and ``b`` is (D, T_b, m).
    ``table`` and ``best`` are flat workspaces of at least
    (T_a+T_b+1)(T_a+1)m and T_a·m floats; the tables are laid in ``table``.

    The result, a view of ``table``, is skewed by anti-diagonal: slot
    ``[s, i, p]`` of the (T_a+T_b+1, T_a+1, m) array holds pair p's bordered
    cell ``acc[i][s-i]``, which aligns a[:, :i, p] with b[:, :s-i, p].  Only
    the border slots are set, to inf except ``acc[0][0] = 0``; the costs
    overwrite the cell slots, and slots outside the grid keep whatever the
    workspace held, since they are never read.  Each cell is
    ``cost + min(diag, up, left)`` on the same floats as a per-pair loop,
    because the minimum of three non-NaN floats does not depend on their
    order, so the tables are bit-identical to one.  A frame cost is
    ``sqrt(sum(diff**2))`` with the D squares added in ``_pairwise_sum``'s
    order, the order of numpy's ``sum`` over a contiguous last axis.  One
    feature's differences repeat a's frames along the table columns (a
    chunk copy) and subtract b's frames as one row, T_b·m long.
    """
    d, ta, m = a.shape
    tb = b.shape[1]
    table = table[: (ta + tb + 1) * (ta + 1) * m].reshape(ta + tb + 1, ta + 1, m)
    slots = table.reshape(-1, m)  # slot [s, i] is row s*(T_a+1) + i
    slots[: (tb + 1) * (ta + 1) : ta + 1] = np.inf  # acc[0][j], slot [j, 0]
    slots[: (ta + 1) * (ta + 2) : ta + 2] = np.inf  # acc[i][0], slot [i, i]
    table[0, 0] = 0.0
    s_step, i_step, p_step = table.strides
    # cells[i, j] is frame pair (i, j)'s slot [i+j+2, i+1], the bordered cell (i+1, j+1)
    cells = as_strided(table[2, 1:], shape=(ta, tb, m), strides=(s_step + i_step, s_step, p_step))
    b_rows = b.reshape(d, tb * m)

    def square(k):
        diff = np.repeat(a[k], tb, axis=0).reshape(ta, tb * m)
        diff -= b_rows[k]
        return np.multiply(diff, diff, out=diff)

    np.sqrt(_pairwise_sum(square, range(d)).reshape(ta, tb, m), out=cells)
    best = best[: ta * m].reshape(ta, m)
    for s in range(2, ta + tb + 1):
        lo, hi = max(1, s - tb), min(ta, s - 1) + 1  # the rows i of diagonal s inside the grid
        step = best[: hi - lo]
        np.minimum(table[s - 2, lo - 1 : hi - 1], table[s - 1, lo - 1 : hi - 1], out=step)
        np.minimum(step, table[s - 1, lo:hi], out=step)
        table[s, lo:hi] += step
    return table


def _block_pairs(ta: int, tb: int) -> int:
    """Pairs per block of length pair (ta, tb): as many tables as fit in
    ``_BLOCK_BYTES``, at least one."""
    return max(1, _BLOCK_BYTES // ((ta + tb + 1) * (ta + 1) * 8))


def _workspace(groups) -> tuple[np.ndarray, np.ndarray]:
    """Flat table and best-row buffers that fit the largest block of the
    groups (T_a, T_b, pairs) that a call aligns, so that every block of the
    call is laid in them."""
    blocks = [(ta, tb, min(n, _block_pairs(ta, tb))) for ta, tb, n in groups]
    return (np.empty(max([(ta + tb + 1) * (ta + 1) * m for ta, tb, m in blocks], default=0)),
            np.empty(max([ta * m for ta, _, m in blocks], default=0)))


def _length_runs(seqs: list[np.ndarray]) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(length, indices, stacked frames) of the sequences of each distinct
    length, the frames feature-major (D, T, n), so that a block gathers its
    pairs with one ``np.take`` per side."""
    members: dict[int, list[int]] = {}
    for k, x in enumerate(seqs):
        members.setdefault(len(x), []).append(k)
    return [(t, np.array(ks), np.stack([seqs[k].T for k in ks], axis=2))
            for t, ks in sorted(members.items())]


def _aligned(a: np.ndarray, p: np.ndarray, b: np.ndarray, q: np.ndarray,
             table: np.ndarray, best: np.ndarray) -> np.ndarray:
    """DTW distances of the pairs (a[:, :, p[k]], b[:, :, q[k]]), in blocks
    of ``_block_pairs`` pairs laid in the workspace ``table`` and ``best``."""
    ta, tb = a.shape[1], b.shape[1]
    block = _block_pairs(ta, tb)
    dist = np.empty(len(p))
    for lo in range(0, len(p), block):
        pairs = slice(lo, lo + block)
        tables = _dtw_tables(np.take(a, p[pairs], axis=2), np.take(b, q[pairs], axis=2), table, best)
        dist[pairs] = tables[ta + tb, ta]
    return dist


def dtw_distances(seqs: Sequence[np.ndarray], others: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """DTW distances from every sequence of ``seqs`` to every one of
    ``others``, or, without ``others``, between the sequences of ``seqs``:
    then one alignment per unordered pair is mirrored and the diagonal is 0.

    Every sequence is validated once.  Pairs are aligned in groups of one
    length pair, shorter sequence first: unnormalized DTW is exactly
    symmetric (the frame costs transpose bit for bit and the step minimum
    ignores direction), and the shorter side gives the table fewer rows.
    One workspace, sized to the largest block, serves every group.
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
    groups = [(x, y) for k, x in enumerate(runs) for y in (runs[k:] if mirror else other_runs)]

    def pair_count(x, y):  # a run against itself: its unordered pairs
        return len(x[1]) * (len(x[1]) - 1) // 2 if y is x else len(x[1]) * len(y[1])

    work = _workspace((*sorted((x[0], y[0])), pair_count(x, y)) for x, y in groups)
    for (ta, rows, a), (tb, cols, b) in groups:
        if b is a:
            p, q = np.triu_indices(len(rows), 1)
        else:
            p, q = np.indices((len(rows), len(cols))).reshape(2, -1)
        if len(p):
            dist = _aligned(a, p, b, q, *work) if ta <= tb else _aligned(b, q, a, p, *work)
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
    work = _workspace([(len(a), len(b), 1)])
    skewed = _dtw_tables(a.T[..., None], b.T[..., None], *work)[:, :, 0].tolist()

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
