"""Baseline tests: naive segment-average encoder and DTW with oracles."""
import contextlib
import gc
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtw_oracle
import naive_oracle
from conftest import GRID, dtw_records
from seqembed import baselines, blas
from seqembed.baselines import (
    dtw_distance,
    dtw_distances,
    dtw_path,
    naive_encode,
    naive_encode_batch,
)
from seqembed.errors import DataError, DimensionError


@st.composite
def grid_pair(draw):
    """Two integer-grid sequences of one width, so that equal costs (ties) occur."""
    d = draw(st.integers(1, 2))
    frames = st.lists(GRID, min_size=d, max_size=d)
    a, b = (draw(st.lists(frames, min_size=1, max_size=6)) for _ in range(2))
    return np.array(a), np.array(b)


@st.composite
def kernel_case(draw, dims=(1, 8, 9)):
    """Sequences of lengths 1-12 drawn from a pool of up to three, so that
    a length pair holds several pairs, at a D of ``dims`` (numpy sums 8 or
    more squares in eight columns), some with a +-1e200 frame (costs that
    overflow to inf), and a byte budget: 1 puts each pair in its own block,
    6000 splits blocks and, at D >= 8, cost chunks inside a block, and 40000
    splits cost chunks inside one block per length pair at D >= 8."""
    d = draw(st.sampled_from(dims))
    pool = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seqs = [rng.standard_normal((t, d)) for t in lengths]
    for k in draw(st.sets(st.integers(0, len(seqs) - 1), max_size=3)):
        seqs[k][rng.integers(len(seqs[k]))] = 1e200 * rng.choice([-1.0, 1.0], d)
    return seqs, draw(st.sampled_from([1, 6000, 40000]))


def frame_costs(a, b):
    """Euclidean frame distances, computed exactly as the DP defines them so
    exact-equality assertions are meaningful."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2)).tolist()


def enumerate_min_path_cost(a, b):
    """Brute-force minimum over all monotone paths; each path is summed
    sequentially from (0, 0), the same grouping the DP uses."""
    n, m = a.shape[0], b.shape[0]
    costs = frame_costs(a, b)
    best = [math.inf]

    def walk(i, j, acc):
        if i == n - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < m:
                walk(ni, nj, acc + costs[ni][nj])

    walk(0, 0, costs[0][0])
    return best[0]


class TestNaiveEncode:
    def test_m_one_is_global_mean(self):
        x = np.random.default_rng(0).standard_normal((7, 3))
        npt.assert_allclose(naive_encode(x, 1), x.mean(axis=0), rtol=0, atol=0)

    def test_singleton_segments_flatten(self):
        x = np.random.default_rng(1).standard_normal((4, 3))
        npt.assert_array_equal(naive_encode(x, 4), x.reshape(-1))

    def test_hand_partition_fixture(self):
        # T=6, D=1, m=4: floor rule gives segments {0}, {1,2}, {3}, {4,5}
        x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
        npt.assert_array_equal(naive_encode(x, 4), [1.0, 2.5, 4.0, 5.5])

    def test_output_length_with_empty_segments(self):
        x = np.ones((2, 3))
        out = naive_encode(x, 5)
        assert out.shape == (15,)
        # floor rule for T=2, m=5: segments 0, 1, 3 are empty; 2 and 4 hold one frame
        npt.assert_array_equal(out.reshape(5, 3), [[0.0] * 3, [0.0] * 3, [1.0] * 3, [0.0] * 3, [1.0] * 3])

    def test_m_equals_t_identity_property(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            t = int(rng.integers(1, 13))
            x = rng.standard_normal((t, int(rng.integers(1, 5))))
            npt.assert_array_equal(naive_encode(x, t), x.reshape(-1))

    def test_bad_m(self):
        with pytest.raises(ValueError):
            naive_encode(np.ones((3, 2)), 0)

    @given(st.sampled_from([1, 2, 3, 5, 8]), st.lists(st.integers(1, 300), min_size=1, max_size=12),
           st.integers(1, 50), st.integers(-8, 8), st.integers(0, 2**32 - 1))
    @example(1, [40, 40, 19], 2, 0, 0)  # D = 1, segments of 9 frames or more
    @example(3, [2, 5, 2], 50, 0, 1)  # T < m: segments with no frames
    @example(8, [300, 299], 13, 8, 2)
    @example(2, [17, 17, 17], 4, -8, 3)
    @settings(max_examples=200, deadline=None)
    def test_batch_matches_per_record_loop_bit_for_bit(self, d, lengths, m, exponent, seed):
        rng = np.random.default_rng(seed)
        # repeated lengths, so most length runs stack several sequences
        xs = [rng.standard_normal((t, d)) * 10.0**exponent for t in lengths + lengths[:3]]
        want = naive_oracle.naive_encode_batch(xs, m)
        assert naive_encode_batch(xs, m).tobytes() == want.tobytes()
        assert naive_encode(xs[0], m).tobytes() == want[0].tobytes()

    def test_batch_errors(self):
        with pytest.raises(DimensionError, match="T >= 1"):
            naive_encode_batch([np.ones((3, 2)), np.ones((0, 2))], 2)  # no frames
        with pytest.raises(DimensionError, match="widths differ"):
            naive_encode_batch([np.ones((3, 2)), np.ones((3, 3))], 2)
        with pytest.raises(ValueError, match=">= 1"):
            naive_encode_batch([np.ones((3, 2))], 0)


class TestDtw:
    def test_identical_sequences_zero(self):
        x = np.random.default_rng(0).standard_normal((6, 3))
        assert dtw_distance(x, x) == 0.0

    def test_single_frames_euclidean(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[4.0, 6.0]])
        assert dtw_distance(a, b) == 5.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            ta, tb = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((ta, d))
            b = rng.standard_normal((tb, d))
            assert dtw_distance(a, b) == enumerate_min_path_cost(a, b)

    def test_path_resums_to_distance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(1, 6)), 2))
            b = rng.standard_normal((int(rng.integers(1, 6)), 2))
            dist, path = dtw_path(a, b)
            assert path[0] == (0, 0) and path[-1] == (a.shape[0] - 1, b.shape[0] - 1)
            costs = frame_costs(a, b)
            total = 0.0
            for i, j in path:
                total = total + costs[i][j]
            assert total == dist == dtw_distance(a, b)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.standard_normal((int(rng.integers(1, 8)), 3))
            b = rng.standard_normal((int(rng.integers(1, 8)), 3))
            assert dtw_distance(a, b) == dtw_distance(b, a)

    def test_non_negative(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.standard_normal((int(rng.integers(1, 6)), 2))
            b = rng.standard_normal((int(rng.integers(1, 6)), 2))
            assert dtw_distance(a, b) >= 0.0

    def test_diagonal_upper_bound_for_equal_lengths(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = int(rng.integers(1, 8))
            a = rng.standard_normal((t, 3))
            b = rng.standard_normal((t, 3))
            diagonal = sum(float(np.linalg.norm(a[i] - b[i])) for i in range(t))
            assert dtw_distance(a, b) <= diagonal + 1e-12

    def test_normalization_switch(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((7, 2))
        raw = dtw_distance(a, b)
        normed = dtw_distance(a, b, normalize=True)
        _, path = dtw_path(a, b)
        assert normed == raw / len(path)
        assert dtw_distance(a, a, normalize=True) == 0.0

    @given(grid_pair())
    @settings(max_examples=300, deadline=None)
    def test_matches_two_table_oracle(self, pair):
        a, b = pair
        want = dtw_oracle.dtw_path(a, b)
        assert dtw_path(a, b) == want == dtw_oracle.bordered_path(a, b)
        assert dtw_distance(a, b) == want[0]

    @given(dtw_records(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_both_oracles_on_ragged_floats(self, records, data):
        a, b = (data.draw(st.sampled_from(records)).features for _ in range(2))
        with np.errstate(over="ignore"):
            want = dtw_oracle.dtw_path(a, b)
            assert dtw_path(a, b) == want == dtw_oracle.bordered_path(a, b)
            assert dtw_distance(a, b) == want[0]

    def test_matches_two_table_oracle_on_every_short_grid_pair(self):
        # exhaustive, because a tie between up and left below a costlier
        # diagonal is rare in random draws (about 1% of pairs)
        seqs = [np.array(v, dtype=float)[:, None]
                for t in range(1, 4) for v in itertools.product((0, 1, 2), repeat=t)]
        for a in seqs:
            for b in seqs:
                want = dtw_oracle.dtw_path(a, b)
                assert dtw_path(a, b) == want == dtw_oracle.bordered_path(a, b), (a.ravel(), b.ravel())
        want = [[dtw_oracle.dtw_path(a, b)[0] for b in seqs] for a in seqs]
        assert dtw_distances(seqs, seqs).tolist() == want
        assert dtw_distances(seqs).tolist() == want

    @pytest.mark.parametrize("d", [16, 17, 24, 129, 300])
    def test_matches_both_oracles_where_numpy_sum_order_changes(self, d):
        # a second block of 8 squares (16, 17, 24) and the split above 128
        # (129, 300); magnitudes spread so that the order of addition shows
        rng = np.random.default_rng(d)
        seqs = [rng.standard_normal((t, d)) * 10.0 ** rng.integers(-4, 5, (t, d))
                for t in (1, 2, 3, 3, 5)]
        want = [[dtw_oracle.bordered_table(a, b)[-1][-1] for b in seqs] for a in seqs]
        assert dtw_distances(seqs).tolist() == want
        assert dtw_distances(seqs[:2], seqs).tolist() == want[:2]
        for a in seqs:
            for b in seqs:
                assert dtw_path(a, b) == dtw_oracle.dtw_path(a, b) == dtw_oracle.bordered_path(a, b)

    def test_kernel_leaves_no_cyclic_garbage(self):
        # each block's arrays must be freed when the block ends, not held by a
        # reference cycle until the next cyclic collection
        rng = np.random.default_rng(9)
        seqs = [rng.standard_normal((t, d)) for d in (3, 16, 129) for t in (2, 3, 3)]
        gc.collect()
        gc.disable()
        try:
            for k in range(0, len(seqs), 3):
                dtw_distances(seqs[k : k + 3])
                dtw_path(seqs[k], seqs[k + 1])
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_call_keeps_nothing_and_stays_within_its_budget(self):
        # numpy's data buffers allocated from this module: after the call only
        # the result may be alive (no per-shape cache), and at its peak the
        # call holds little beyond the result, the sequences' feature-major
        # copy and one block's working set
        rng = np.random.default_rng(10)
        seqs = [rng.standard_normal((10 + k % 4 * 5, 8)) for k in range(60)]
        dtw_distances(seqs[:3])  # numpy's own first-use allocations

        def numpy_data(snapshot):
            return (snapshot.filter_traces([tracemalloc.Filter(True, baselines.__file__)])
                    .filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]))

        tracemalloc.start()
        try:
            before = numpy_data(tracemalloc.take_snapshot())
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = dtw_distances(seqs)
            peak = tracemalloc.get_traced_memory()[1]
            after = numpy_data(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        alive = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert alive == out.nbytes
        held = peak - start - out.nbytes - sum(x.nbytes for x in seqs)
        assert 0 < held <= 2 * baselines._BLOCK_BYTES

    @pytest.mark.parametrize("budget", [1, 2000])
    @pytest.mark.parametrize("d", [1, 8, 17, 129])
    def test_every_table_cell_is_written_before_it_is_read(self, d, budget, monkeypatch):
        # each block's tables are made by np.empty and never cleared; filled
        # with NaN here, a cell read before it is written turns a distance NaN
        # (blocks of several shapes, and costs that overflow to inf)
        rng = np.random.default_rng(d)
        seqs = [rng.standard_normal((t, d)) for t in (1, 2, 3, 3, 4, 6, 6)]
        for k in (1, 5):  # runs aligned before and after finite-cost blocks
            seqs[k][0] = 1e200 * (-1.0) ** np.arange(d)
        others = seqs[::-2]
        monkeypatch.setattr(baselines, "_BLOCK_BYTES", budget)
        monkeypatch.setattr(np, "empty", lambda shape: np.full(shape, np.nan))
        with np.errstate(over="ignore"):
            want = [[dtw_oracle.bordered_table(a, b)[-1][-1] for b in seqs] for a in seqs]
            mirrored, crossed = dtw_distances(seqs), dtw_distances(seqs, others)
            # some distances overflow; (1, 5) has inf costs but a finite path
            assert np.isinf(mirrored).any() and np.isfinite(mirrored[1, 5])
            assert mirrored.tobytes() == np.array(want).tobytes()
            assert crossed.tobytes() == np.array(want)[:, ::-2].tobytes()
            assert dtw_path(seqs[5], seqs[2]) == dtw_oracle.dtw_path(seqs[5], seqs[2])

    @given(kernel_case(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_compact_kernel_matches_bordered_oracle(self, case, data):
        seqs, budget = case
        others = seqs[::-2]
        i, j = (data.draw(st.integers(0, len(seqs) - 1)) for _ in range(2))
        with np.errstate(over="ignore"), mock.patch.object(baselines, "_BLOCK_BYTES", budget):
            want = np.array([[dtw_oracle.bordered_table(a, b)[-1][-1] for b in seqs] for a in seqs])
            assert dtw_distances(seqs).tobytes() == want.tobytes()
            assert dtw_distances(seqs, others).tobytes() == want[:, ::-2].tobytes()
            assert dtw_path(seqs[i], seqs[j]) == dtw_oracle.dtw_path(seqs[i], seqs[j])

    def test_overflowing_costs_keep_a_grid_path(self):
        a = np.array([[1e200], [-1e200], [1e200]])
        b = np.array([[-1e200], [1e200]])
        with np.errstate(over="ignore"):
            for x, y in ((a, b), (b, a), (a, a[:1])):
                assert dtw_path(x, y) == dtw_oracle.dtw_path(x, y) == dtw_oracle.bordered_path(x, y)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dtw_distance(np.ones((2, 3)), np.ones((2, 4)))

    def test_empty_inputs(self):
        x = np.ones((2, 3))
        assert dtw_distances([]).shape == (0, 0)
        assert dtw_distances([x], []).shape == (1, 0)
        assert dtw_distances([], [x]).shape == (0, 1)
        assert dtw_distances([x]).tolist() == [[0.0]]  # a group without pairs

    def test_empty_sequence_rejected(self):
        with pytest.raises(DimensionError):
            dtw_distance(np.ones((0, 3)), np.ones((2, 3)))


SEQUENCE_CHECKS = {  # each call is given a 5-wide sequence first, then the one under test
    "naive_encode_batch": lambda a, b: naive_encode_batch([a, b], 2),
    "naive_encode": lambda a, b: naive_encode(b, 2),
    "dtw_distances, one batch": lambda a, b: dtw_distances([a, b]),
    "dtw_distances, two batches": lambda a, b: dtw_distances([a], [b]),
    "dtw_path": dtw_path,
    "dtw_distance": dtw_distance,
}
WIDTHS = "feature widths differ: 3 vs 5"


@pytest.mark.parametrize("call, text", [
    ("naive_encode_batch", "sequence 1: contains non-finite values"),
    ("naive_encode_batch", WIDTHS),
    ("naive_encode", "sequence 0: contains non-finite values"),
    ("dtw_distances, one batch", "sequence 1: contains non-finite values"),
    ("dtw_distances, one batch", WIDTHS),
    ("dtw_distances, two batches", "other sequence 0: contains non-finite values"),
    ("dtw_distances, two batches", WIDTHS),
    ("dtw_path", "other sequence 0: contains non-finite values"),
    ("dtw_path", WIDTHS),
    ("dtw_distance", "other sequence 0: contains non-finite values"),
    ("dtw_distance", WIDTHS),
])
def test_every_baseline_checks_its_sequences_through_one_rule(call, text):
    """A bad sequence is named by its batch and index, and mixed widths read
    sorted.  The NaN sequence is 3 wide too, so its error also shows that
    every sequence is validated before any width is compared."""
    nan = text != WIDTHS
    b = np.array([[1.0, np.nan, 1.0]]) if nan else np.ones((2, 3))
    with pytest.raises(DataError if nan else DimensionError, match=f"^{re.escape(text)}$"):
        SEQUENCE_CHECKS[call](np.ones((4, 5)), b)


MULTI_CPU = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                               reason="on one CPU dtw_distances forks no worker")


@contextlib.contextmanager
def split_everything():
    """No cell floor, so every dtw_distances call of two or more length pairs
    forks workers; yields the list of the pids forked."""
    pids, fork = [], os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    with mock.patch.object(baselines, "_SHARE_CELLS", 1), mock.patch.object(os, "fork", recording):
        yield pids


FRESH_PRELUDE = """
import os, time
import numpy as np
from seqembed import baselines, blas
baselines._SHARE_CELLS = 1
forks, fork = [], os.fork
os.fork = lambda: forks.append(os.getpid()) or fork()
rng = np.random.default_rng(0)
seqs = [rng.standard_normal((t, 3)) for t in (2, 3, 4, 5, 6, 7)]
def blas_threads():
    return blas._openblas()[0]()
def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
"""


def run_fresh(script, **env):
    """Run ``FRESH_PRELUDE`` and ``script`` in a fresh interpreter, which has
    no other child and no second thread, with a timeout; its stdout, a pipe
    that is block-buffered.  ``blas_threads()`` there reads OpenBLAS's
    thread count."""
    src = str(Path(baselines.__file__).resolve().parents[1])
    env = dict({name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"},
               **env, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", FRESH_PRELUDE + textwrap.dedent(script)],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


@MULTI_CPU
class TestProcessSplit:
    """dtw_distances dealt across forked worker processes (``_SHARE_CELLS``
    patched so small inputs split too)."""

    @given(kernel_case(dims=(1, 8, 129)))
    @example(([np.array([[0.5]]), np.array([[-0.5], [1.0]])], 1))  # two groups without pairs
    @settings(max_examples=100, deadline=None)
    def test_split_matches_bordered_oracle_bit_for_bit(self, case):
        seqs, budget = case
        others = seqs[::-2]
        with np.errstate(over="ignore"), mock.patch.object(baselines, "_BLOCK_BYTES", budget):
            want = np.array([[dtw_oracle.bordered_table(a, b)[-1][-1] for b in seqs] for a in seqs])
            with split_everything() as pids:
                assert dtw_distances(seqs).tobytes() == want.tobytes()
                assert dtw_distances(seqs, others).tobytes() == want[:, ::-2].tobytes()
        assert pids or len({len(x) for x in seqs}) == 1  # two lengths make three length pairs

    def test_call_reaps_every_worker(self):
        assert run_fresh("""
            baselines.dtw_distances(seqs)
            print(len(forks), no_child_left())
        """).split() == ["1", "True"]

    def test_own_share_raising_kills_and_reaps_the_workers(self):
        out = run_fresh("""
            parent, claim = os.getpid(), baselines._claim
            def claiming(job, below):
                if os.getpid() == parent:
                    raise RuntimeError("own share")
                time.sleep(60)  # the worker outlives the call unless it is killed
                return claim(job, below)
            baselines._claim = claiming
            start, threads = time.monotonic(), blas_threads()
            try:
                baselines.dtw_distances(seqs)
            except RuntimeError as exc:
                print(exc, len(forks), time.monotonic() - start < 30, no_child_left(),
                      blas_threads() == threads)
        """, OPENBLAS_NUM_THREADS="2")
        assert out.split() == ["own", "share", "1", "True", "True", "True"]

    def test_share_of_a_dead_worker_is_aligned_here(self):
        # the worker claims every group and dies before aligning any; the
        # caller, arriving late, finds none free and aligns them after reaping
        rng = np.random.default_rng(5)
        seqs = [rng.standard_normal((t, 4)) for t in (1, 2, 3, 3, 5, 8, 8, 9)]
        want = dtw_distances(seqs), dtw_distances(seqs, seqs[::2])
        parent, claim = os.getpid(), baselines._claim

        def claiming(job, below):
            if os.getpid() != parent:
                job[3][:] = baselines._CLAIMED
                os._exit(3)
            if below == baselines._DONE:
                claim(job, below)

        with split_everything() as pids, mock.patch.object(baselines, "_claim", claiming):
            got = dtw_distances(seqs), dtw_distances(seqs, seqs[::2])
        assert len(pids) == 2
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_every_process_aligning_every_group_gives_the_same_bits(self):
        # claims that always race: each process aligns every group, writing
        # the same bytes into the shared map
        rng = np.random.default_rng(7)
        seqs = [rng.standard_normal((t, 8)) for t in (1, 2, 3, 3, 5, 8, 8, 9, 12, 12)]
        want = dtw_distances(seqs), dtw_distances(seqs, seqs[::3])
        claim = baselines._claim
        with split_everything() as pids, mock.patch.object(
                baselines, "_claim", lambda job, below: claim(job, baselines._DONE + 1)):
            got = dtw_distances(seqs), dtw_distances(seqs, seqs[::3])
        assert len(pids) == 2
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    def test_workers_do_not_repeat_buffered_output(self):
        # the line is still in the pipe's buffer at the fork; a worker that
        # flushed the copy it inherited would print it twice
        out = run_fresh("""
            print("buffered", os.isatty(1))
            baselines.dtw_distances(seqs)
            print(len(forks))
        """)
        assert out.split() == ["buffered", "False", "1"]

    @pytest.mark.parametrize("ending", ["exit", "raise"])
    def test_evaluate_leaving_before_dtw_kills_its_workers(self, ending, tmp_path):
        # evaluate starts DTW before its first method; here that method ends
        # the command, by exit 3 (one test token per word, so no query is
        # scorable) or by an exception, while the worker is still aligning
        out = run_fresh("""
            from seqembed import cli
            from seqembed.data import generate_synthetic, write_manifest
            root = os.environ["ROOT"]
            dataset = generate_synthetic(5, 8, 2, (2, 3), 3, (1, 3), 0.1, 0)
            manifest = write_manifest(dataset, os.path.join(root, "manifest.jsonl"))
            parent, claim = os.getpid(), baselines._claim
            def claiming(job, below):
                if os.getpid() != parent:
                    time.sleep(60)  # the worker outlives the command unless it is killed
                return claim(job, below)
            baselines._claim = claiming
            held, build = [], cli.build_archive
            cli.build_archive = lambda *args: held.append(blas_threads()) or build(*args)
            if os.environ["ENDING"] == "raise":
                def failing(archive):
                    raise RuntimeError("scoring")
                cli.cosine_matrix = failing
            start, threads = time.monotonic(), blas_threads()
            try:
                code = cli.main(["evaluate", "--manifest", str(manifest), "--method", "ne2",
                                 "--method", "dtw", "--report-dir", root])
            except RuntimeError as exc:
                code = exc
            print(code, len(forks), held, threads, blas_threads(), time.monotonic() - start < 30,
                  no_child_left())
        """, OPENBLAS_NUM_THREADS="2", ROOT=str(tmp_path), ENDING=ending)
        code = {"exit": "3", "raise": "scoring"}[ending]
        assert out.splitlines()[-1].split() == [code, "1", "[1]", "2", "2", "True", "True"]

    def test_no_fork_while_a_second_thread_runs(self):
        rng = np.random.default_rng(6)
        seqs = [rng.standard_normal((t, 4)) for t in (1, 2, 3, 5, 8)]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with split_everything() as pids:
                got = dtw_distances(seqs)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pids == []
        with split_everything() as pids:
            assert dtw_distances(seqs).tobytes() == got.tobytes()
        assert len(pids) == 1

    def test_split_between_threaded_gemms(self):
        # OpenBLAS runs a 400x400 product on two threads; a fork must neither
        # hang on them nor leave the next product without them
        out = run_fresh("""
            m = rng.standard_normal((400, 400))
            first = m @ m
            split = baselines.dtw_distances(seqs)
            second = m @ m
            baselines._SHARE_CELLS = 1 << 60
            print(len(forks), np.array_equal(first, second),
                  split.tobytes() == baselines.dtw_distances(seqs).tobytes(), no_child_left(),
                  blas_threads())
        """, OPENBLAS_NUM_THREADS="2")
        assert out.split() == ["1", "True", "True", "True", "2"]

    def test_library_split_leaves_the_blas_count_alone(self):
        # the hold is the commands' to take (evaluate's, train's): a library
        # call forks and aligns at the count it finds
        out = run_fresh("""
            parent, claim, held = os.getpid(), baselines._claim, []
            def claiming(job, below):
                if os.getpid() == parent:
                    held.append(blas_threads())
                return claim(job, below)
            baselines._claim = claiming
            baselines.dtw_distances(seqs)
            print(len(forks), held, blas_threads(), no_child_left())
        """, OPENBLAS_NUM_THREADS="2")
        assert out.split() == ["1", "[2,", "2]", "2", "True"]


def test_one_blas_thread_holds_and_restores_the_count(monkeypatch):
    if blas._openblas() is None:
        pytest.skip("no loaded OpenBLAS exports its thread count")
    get = blas._openblas()[0]
    count = get()
    with pytest.raises(RuntimeError), blas.one_thread():
        assert get() == 1
        raise RuntimeError
    assert get() == count
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_thread():  # a missing library or symbol changes nothing
        assert get() == count


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_lookup_reads_the_count_numpy_started_with(threads):
    # the symbols are found through numpy's own extension, so they read the
    # count its OpenBLAS took from the environment, which it caps at the
    # CPUs this process may run on
    if blas._openblas() is None:
        pytest.skip("numpy's OpenBLAS exports no thread count")
    out = run_fresh("print(blas_threads(), len(os.sched_getaffinity(0)))",
                    OPENBLAS_NUM_THREADS=str(threads))
    count, cpus = map(int, out.split())
    assert count == min(threads, cpus)
