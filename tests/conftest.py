"""Shared test helpers: finite-difference checking, record fixtures and
hypothesis strategies for the scoring tests."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from seqembed.data import SegmentRecord
from seqembed.retrieval import EmbeddingArchive


def finite_difference(loss_fn, arr: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one array, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        plus = loss_fn()
        flat[k] = orig - eps
        minus = loss_fn()
        flat[k] = orig
        gflat[k] = (plus - minus) / (2.0 * eps)
    return grad


def assert_grads_close(
    analytic: np.ndarray,
    numeric: np.ndarray,
    rel: float = 1e-4,
    floor: float = 1e-6,
    label: str = "",
) -> None:
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    err = np.abs(analytic - numeric)
    tol = np.maximum(floor, rel * np.maximum(np.abs(analytic), np.abs(numeric)))
    bad = err > tol
    assert not bad.any(), (
        f"{label}: {int(bad.sum())} gradient entries outside tolerance; "
        f"worst err {err.max():.3e} vs tol {tol[np.unravel_index(err.argmax(), err.shape)]:.3e}"
    )


def make_records(feature_arrays, words=None, splits=None, phonemes=None):
    """Build SegmentRecords r0, r1, ... from raw arrays."""
    n = len(feature_arrays)
    words = words if words is not None else [f"word{i}" for i in range(n)]
    splits = splits if splits is not None else ["test"] * n
    phonemes = phonemes if phonemes is not None else [None] * n
    return [
        SegmentRecord(
            id=f"r{i}",
            word=words[i],
            phonemes=phonemes[i],
            split=splits[i],
            features=np.asarray(feature_arrays[i], dtype=np.float64),
        )
        for i in range(n)
    ]


# Small integer-grid vectors, so that duplicates, zero vectors and ties occur;
# ids include a trailing NUL, which a numpy string array would drop.
GRID = st.integers(-2, 2).map(float)
ID_POOL = ["a", "a\x00", "ab", "b", "B", "b a", "10", "9", "z"]
WORD_POOL = ["new", "New", "NEW", "few", "night", "Night", "solo"]


@st.composite
def grid_records(draw, max_frames=1):
    """SegmentRecords with grid features of one width and sampled ids/words."""
    d = draw(st.integers(1, 3))
    ids = draw(st.lists(st.sampled_from(ID_POOL), min_size=1, max_size=8, unique=True))
    records = []
    for seg_id in ids:
        frames = draw(st.integers(1, max_frames))
        rows = draw(st.lists(st.lists(GRID, min_size=d, max_size=d),
                             min_size=frames, max_size=frames))
        records.append(SegmentRecord(id=seg_id, word=draw(st.sampled_from(WORD_POOL)),
                                     phonemes=None, split="test",
                                     features=np.array(rows, dtype=float)))
    return records


def archive_from(entries):
    """The archive of (id, word, vector) ``entries``, in their order."""
    ids, words, vectors = zip(*entries)
    return EmbeddingArchive(ids, words, vectors)


def grid_archive(records):
    """One archive entry per record: its first frame."""
    return archive_from([(rec.id, rec.word, rec.features[0]) for rec in records])


def tie_blocks(ranked, tol=1e-12):
    """Consecutive runs of ids whose adjacent scores differ by at most ``tol``."""
    blocks = []
    for k, (seg_id, score) in enumerate(ranked):
        if k == 0 or ranked[k - 1][1] - score > tol:
            blocks.append(set())
        blocks[-1].add(seg_id)
    return blocks


@st.composite
def dtw_records(draw):
    """SegmentRecords for exact DTW tests: ragged lengths from 1 and repeated
    lengths (so a length pair spans several blocks once the byte budget is
    shrunk), frames of width up to 12 (numpy sums 8 or more squares in
    eight columns, not left to right) drawn as {0, 1, 2} grid values (ties),
    normal floats, or +-1e200 (costs that overflow to inf)."""
    d = draw(st.integers(1, 12))
    pool = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    lengths = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    kind = draw(st.sampled_from(["grid", "normal", "overflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frames = {
        "grid": lambda shape: rng.integers(0, 3, shape).astype(float),
        "normal": rng.standard_normal,
        "overflow": lambda shape: rng.choice([-1e200, 0.0, 1e200], shape),
    }[kind]
    return make_records([frames((t, d)) for t in lengths])
