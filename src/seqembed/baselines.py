"""Comparison systems: segment-average encoding and frame-based DTW.

The naive encoder splits a T x D sequence into m roughly equal segments
(floor partition: segment i covers rows [floor(i*T/m), floor((i+1)*T/m))),
averages each segment and concatenates the averages into a D*m vector.
Segments left empty when T < m contribute zero vectors.

DTW uses the classic three-direction step set (up, left, diagonal) with
unit weights, Euclidean frame distance, no band and, by default, no
path-length normalization.  One kernel, ``_dtw_tables``, aligns a block of
pairs of equal lengths at once, one anti-diagonal at a time, in a compact
table: one row per bordered cell, diagonal by diagonal, and one column per
pair.  Its frame costs are made in chunks of the block's pairs.  One byte
budget, ``_BLOCK_BYTES``, bounds a block's tables and one cost chunk
together.
"""
from __future__ import annotations

import contextlib
import itertools
import mmap
import os
import signal
import threading
from typing import Sequence

import numpy as np

from .data import validate_frames
from .errors import DimensionError

# Byte budget of one DTW block's working set (its tables and one chunk of
# frame costs); it bounds the memory that aligning many pairs at once adds.
_BLOCK_BYTES = 1 << 20

# Table cells (T_a·T_b per pair) that each process must have to align
# before ``dtw_started`` forks a worker: about ten times the 2.3 ms that
# forking and reaping one costs, at the 25-60 ns a cell takes on a 2-core
# Xeon host.
_SHARE_CELLS = 1 << 19


def naive_encode(x: np.ndarray, m: int) -> np.ndarray:
    """Average m floor-partitioned segments and concatenate: a (D*m,) vector."""
    return naive_encode_batch([x], m)[0]


def naive_encode_batch(xs: Sequence[np.ndarray], m: int) -> np.ndarray:
    """``naive_encode`` of each sequence, one (D*m,) row each.  The sequences
    of each length are stacked (n, T, D), and a segment of all of them is one
    ``mean(axis=1)``, which adds its frames in order, as ``x[lo:hi].mean(axis=0)``
    does for one sequence."""
    xs = [validate_frames(x) for x in xs]
    if m < 1:
        raise ValueError(f"segment count must be >= 1, got {m}")
    widths = sorted({x.shape[1] for x in xs})
    if len(widths) > 1:
        raise DimensionError(f"feature widths differ: {widths}")
    out = np.zeros((len(xs), m, widths[0] if widths else 0))
    members: dict[int, list[int]] = {}
    for k, x in enumerate(xs):
        members.setdefault(len(x), []).append(k)
    for t, ks in members.items():
        stacked = np.stack([xs[k] for k in ks])
        for i in range(m):
            lo, hi = (i * t) // m, ((i + 1) * t) // m
            if hi > lo:
                out[ks, i] = stacked[:, lo:hi].mean(axis=1)
    return out.reshape(len(xs), -1)


def _added(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y, written into x."""
    return np.add(x, y, out=x)


def _left_to_right(terms, total: np.ndarray | None = None) -> np.ndarray:
    """``total + terms[0] + terms[1] + ...``, added in that order."""
    for term in terms:
        total = term if total is None else _added(total, term)
    return total


def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of the rows of ``terms``, added into them in the order of
    numpy's pairwise summation, so it is bit-identical to
    ``np.stack(list(terms), axis=-1).sum(axis=-1)``, a sum over a
    contiguous last axis.

    Below 8 rows numpy adds left to right.  Up to 128 it sums eight
    columns, r_j = terms[j] + terms[j+8] + ... over the largest multiple of
    8, adds them as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and then the rest
    left to right.  Above 128 it splits at a multiple of 8 below the middle
    and adds the two halves' sums.  The eight columns are summed eight rows
    at a time, and each level of their tree is one call.
    """
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _added(_pairwise_sum(terms[:half]), _pairwise_sum(terms[half:]))
    if n < 8:
        return _left_to_right(terms)
    body = n - n % 8
    r = _left_to_right(terms[k : k + 8] for k in range(0, body, 8))
    _added(r[0::2], r[1::2])  # r0+r1, r2+r3, r4+r5 and r6+r7, in rows 0, 2, 4 and 6
    _added(r[0::4], r[2::4])  # (r0+r1)+(r2+r3) and (r4+r5)+(r6+r7), in rows 0 and 4
    return _left_to_right(terms[body:], _added(r[0], r[4]))


def _block_sizes(ta: int, tb: int, d: int) -> tuple[int, int]:
    """(pairs per block, pairs per cost chunk) of length pair (ta, tb) at
    width d, each at least one.  A block's working set is its tables and
    ``best`` rows plus one cost chunk's gathered frames and differences; the
    chunk takes at most half of ``_BLOCK_BYTES`` and the tables the rest."""
    table = 8 * ((ta + 1) * (tb + 1) + min(ta, tb))
    costs = 8 * d * (ta + tb + ta * tb)
    chunk = max(1, _BLOCK_BYTES // 2 // costs)
    return max(1, (_BLOCK_BYTES - chunk * costs) // table), chunk


def _frame_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frame costs of k pairs stacked feature-major, ``a`` (D, T_a, k) and
    ``b`` (D, T_b, k): a (T_a·T_b, k) array whose row i·T_b + j holds
    ``sqrt(sum(diff**2))`` of frames (i, j), the D squares added in
    ``_pairwise_sum``'s order, the order of numpy's ``sum`` over a
    contiguous last axis.  The differences of all D features are one array:
    a's frames repeated along the columns, less b's frames as one row per
    feature, T_b·k long."""
    d, ta, k = a.shape
    diff = np.repeat(a, b.shape[1], axis=1).reshape(d, ta, -1)
    diff -= b.reshape(d, 1, -1)
    np.multiply(diff, diff, out=diff)
    total = _pairwise_sum(diff)
    return np.sqrt(total, out=total).reshape(-1, k)


def _compact_layout(ta: int, tb: int) -> tuple[list[int], np.ndarray, np.ndarray, list]:
    """Where a compact table of length pair (T_a, T_b) keeps its cells:
    ``base``, such that row ``base[i+j] + i`` holds the bordered cell
    ``acc[i][j]``; the rows of the border cells; the rows of the frame-cost
    cells, in frame-pair order (i, j) -> i·T_b + j; and the steps, one per
    anti-diagonal s = 2 .. T_a+T_b: the first rows of its in-grid cells'
    diagonal and up neighbours and of those cells, and their count.

    The (T_a+1)(T_b+1) cells are laid anti-diagonal by anti-diagonal, each
    diagonal s = i+j in order of i, from its first row max(0, s-T_b).  So a
    diagonal, and each of its neighbour runs (diagonal s-2 at rows i-1,
    s-1 at rows i-1 and at rows i), is one contiguous run of rows.
    """
    diagonal = np.arange(ta + tb + 1)
    first = np.maximum(diagonal - tb, 0)
    size = np.minimum(diagonal, ta) - first + 1
    base = np.cumsum(size) - size - first
    i, j = diagonal[1 : ta + 1, None], diagonal[1 : tb + 1]
    border = np.concatenate((base[: tb + 1], base[i[:, 0]] + i[:, 0]))
    cells = base[i + j] + i  # frame pair (i-1, j-1) is bordered cell (i, j)
    base = base.tolist()
    steps = []
    for s in range(2, ta + tb + 1):
        lo, hi = max(1, s - tb), min(ta, s - 1) + 1  # the rows i of diagonal s inside the grid
        steps.append((base[s - 2] + lo - 1, base[s - 1] + lo - 1, base[s] + lo, hi - lo))
    return base, border, cells.ravel(), steps


def _dtw_tables(a: np.ndarray, p: np.ndarray, b: np.ndarray, q: np.ndarray, layout) -> np.ndarray:
    """Accumulated-cost tables of the m pairs (a[:, :, p[k]], b[:, :, q[k]]),
    from sequences stacked feature-major, ``a`` (D, T_a, n_a) and ``b``
    (D, T_b, n_b), laid out by ``layout``, ``_compact_layout(T_a, T_b)``.

    The result is ((T_a+1)(T_b+1), m): one row per cell, pairs on the
    contiguous last axis, so each anti-diagonal step is three numpy calls
    over contiguous slices whatever m is.  The table, and a ``best`` row of
    one diagonal's step minima per pair, are left uninitialized: every row is
    a border row, set to inf except ``acc[0][0] = 0``, or a cell row, set to
    its frame cost, before any step reads it.  The frame costs are made in
    chunks of ``_block_sizes`` pairs, each gathered with one index per side
    and placed in the cell rows by one row-permuting assignment.  Each cell
    is ``cost + min(diag, up, left)`` on the same floats as a per-pair loop,
    because the minimum of three non-NaN floats does not depend on their
    order, so the tables are bit-identical to one.
    """
    d, ta, tb, m = a.shape[0], a.shape[1], b.shape[1], len(p)
    chunk = _block_sizes(ta, tb, d)[1]
    _, border, cells, steps = layout
    table, best = np.empty(((ta + 1) * (tb + 1), m)), np.empty((min(ta, tb), m))
    table[border] = np.inf
    table[0] = 0.0
    for lo in range(0, m, chunk):
        pairs = slice(lo, lo + chunk)
        table[cells, pairs] = _frame_costs(a[:, :, p[pairs]], b[:, :, q[pairs]])
    for diag, up, cell, n in steps:
        step = best[:n]
        np.minimum(table[diag : diag + n], table[up : up + n], out=step)
        np.minimum(step, table[up + 1 : up + 1 + n], out=step)  # the left neighbours
        table[cell : cell + n] += step
    return table


def _length_runs(seqs: list[np.ndarray]) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(length, indices, stacked frames) of the sequences of each distinct
    length, the frames feature-major (D, T, n), so that a cost chunk gathers
    its pairs with one index per side."""
    members: dict[int, list[int]] = {}
    for k, x in enumerate(seqs):
        members.setdefault(len(x), []).append(k)
    return [(t, np.array(ks), np.stack([seqs[k].T for k in ks], axis=2))
            for t, ks in sorted(members.items())]


def _aligned(a: np.ndarray, p: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """DTW distances of the pairs (a[:, :, p[k]], b[:, :, q[k]]), in blocks
    of ``_block_sizes`` pairs."""
    block = _block_sizes(a.shape[1], b.shape[1], a.shape[0])[0]
    layout = _compact_layout(a.shape[1], b.shape[1])
    dist = np.empty(len(p))
    for lo in range(0, len(p), block):
        pairs = slice(lo, lo + block)
        dist[pairs] = _dtw_tables(a, p[pairs], b, q[pairs], layout)[-1]
    return dist


def _pairs(group) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) of a group (x, y) of two length runs: its k-th pair is x's
    p[k]-th sequence with y's q[k]-th; if x is y, each unordered pair once."""
    x, y = group
    if x is y:
        return np.triu_indices(len(x[1]), 1)
    return np.indices((len(x[1]), len(y[1]))).reshape(2, -1)


def _pair_count(group) -> int:
    """len(_pairs(group)[0]), from the two runs' sizes."""
    x, y = group
    return len(x[1]) * (len(x[1]) - 1) // 2 if x is y else len(x[1]) * len(y[1])


def _cells(group) -> int:
    """Table cells of a group: T_a·T_b per pair."""
    return group[0][0] * group[1][0] * _pair_count(group)


# A group's state in the claim list is one byte of the shared map: 0, as the
# map starts, until a process claims it, then _CLAIMED, and _DONE once its
# distances are written.
_CLAIMED, _DONE = 1, 2


def _claim(job, below: int) -> None:
    """Align, in list order, each group of ``job`` whose state is below
    ``below``: mark it claimed, write its pairs' distances, shorter sequence
    first, into its span of ``dist`` and mark it done.  ``job`` is (groups,
    spans, dist, state); group k's distances are dist[spans[k]:spans[k+1]].

    With ``below`` = _CLAIMED a process takes only groups that no process
    has claimed; two that race for one both write the same bytes.  With
    _DONE it also takes those a process claimed but did not finish."""
    groups, spans, dist, state = job
    for k, group in enumerate(groups):
        if state[k] < below:
            state[k] = _CLAIMED
            (ta, _, a), (tb, _, b) = group
            p, q = _pairs(group)
            dist[spans[k] : spans[k + 1]] = _aligned(a, p, b, q) if ta <= tb else _aligned(b, q, a, p)
            state[k] = _DONE


def _split_count(cells: int) -> int:
    """How many processes align ``cells`` table cells: one per CPU this
    process may run on, but none with fewer than ``_SHARE_CELLS``, and only
    one while a second thread runs, since a forked child would hold a copy
    of that thread's locks but not the thread."""
    if threading.active_count() > 1 or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cells // _SHARE_CELLS))


@contextlib.contextmanager
def dtw_started(seqs: Sequence[np.ndarray], others: Sequence[np.ndarray] | None = None):
    """Start aligning what ``dtw_distances(seqs, others)`` aligns, and yield
    ``finish``, which returns its distances.  The caller may do other work
    in between, while forked workers align.

    The pairs' length-pair groups form one claim list, largest first, with
    each group's state and distances in an anonymous map shared with the
    workers.  A call of at least twice ``_SHARE_CELLS`` table cells, in a
    process that may run on several CPUs and runs no second thread, forks
    one worker per CPU but one on entry.  Each worker claims groups until
    none is left and leaves by ``os._exit``, so it runs no exit handler and
    flushes no inherited buffer.  ``finish`` claims groups too, reaps the
    workers, and then aligns any group not done, such as one a dead worker
    held.  On exit every worker still running is killed and reaped.
    """
    mirror = others is None
    seqs = [validate_frames(x, f"sequence {k}") for k, x in enumerate(seqs)]
    others = seqs if mirror else [validate_frames(x, f"other sequence {k}") for k, x in enumerate(others)]
    widths = sorted({x.shape[1] for x in seqs + others})
    if len(widths) > 1:
        raise DimensionError(f"feature widths differ: {' vs '.join(map(str, widths))}")
    runs = _length_runs(seqs)
    other_runs = None if mirror else _length_runs(others)
    groups = [(x, y) for k, x in enumerate(runs) for y in (runs[k:] if mirror else other_runs)]
    groups = sorted((group for group in groups if _pair_count(group)), key=_cells, reverse=True)
    spans = [0, *itertools.accumulate(map(_pair_count, groups))]
    shared = mmap.mmap(-1, 8 * spans[-1] + len(groups) or 1)  # mmap refuses a 0-byte map
    dist = np.frombuffer(shared, count=spans[-1])
    job = groups, spans, dist, np.frombuffer(shared, np.uint8, len(groups), 8 * spans[-1])
    workers = []

    def finish() -> np.ndarray:
        _claim(job, _CLAIMED)
        while workers:
            os.waitpid(workers[-1], 0)
            workers.pop()
        _claim(job, _DONE)
        out = np.zeros((len(seqs), len(others)))
        for group, lo, hi in zip(groups, spans, spans[1:]):
            p, q = _pairs(group)
            rows, cols = group[0][1][p], group[1][1][q]
            out[rows, cols] = dist[lo:hi]
            if mirror:
                out[cols, rows] = dist[lo:hi]
        return out

    try:
        for _ in range(_split_count(sum(map(_cells, groups))) - 1):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:
                try:
                    _claim(job, _CLAIMED)
                finally:
                    os._exit(0)
            workers.append(pid)
        yield finish
    finally:
        for pid in workers:  # left only when ``finish`` was not called or raised
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def dtw_distances(seqs: Sequence[np.ndarray], others: Sequence[np.ndarray] | None = None) -> np.ndarray:
    """DTW distances from every sequence of ``seqs`` to every one of
    ``others``, or, without ``others``, between the sequences of ``seqs``:
    then one alignment per unordered pair is mirrored and the diagonal is 0.

    Every sequence is validated once.  Pairs are aligned in groups of one
    length pair, shorter sequence first: unnormalized DTW is exactly
    symmetric (the frame costs transpose bit for bit and the step minimum
    ignores direction), and the shorter side gives the table fewer rows.
    A large call splits its groups across forked worker processes
    (``dtw_started``).  Each pair's arithmetic is the same wherever it
    runs, so the result does not depend on the split, bit for bit.
    """
    with dtw_started(seqs, others) as finish:
        return finish()


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
    layout, pair = _compact_layout(len(a), len(b)), np.zeros(1, dtype=np.intp)
    table = _dtw_tables(a.T[..., None], pair, b.T[..., None], pair, layout)[:, 0].tolist()
    base = layout[0]

    def acc(i, j):  # the bordered cell acc[i][j]
        return table[base[i + j] + i]

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
