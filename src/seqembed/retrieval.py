"""Query-by-example retrieval: archive building, score matrices, ranking.

Archives hold one fixed-width vector per segment, built off-line by any
segment-to-vector encoder (trained model or naive baseline).  Cosine or
negated-DTW scores are ordered by ``order_by_score``: descending score,
ascending-id tie break, and an optional id excluded so a query drawn from
the archive never retrieves itself.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .baselines import dtw_distances
from .data import Dataset, SegmentRecord, read_input, write_csv
from .errors import DataError, DimensionError

RankedResult = list[tuple[str, float]]

# Below this norm the squares np.linalg.norm sums are subnormal and lose bits
# (Blue's small-value threshold); above about 1e154 they overflow.
_MIN_PLAIN_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _unit_length(x: np.ndarray) -> np.ndarray:
    """``x`` (a vector, or a matrix of row vectors) scaled to unit length; a
    zero vector stays zero.  Only a vector whose plain norm overflows or is
    too small to trust is first divided by its largest |entry|, so every
    other vector keeps the exact bits of ``x / np.linalg.norm(x)``."""
    with np.errstate(over="ignore"):  # an overflow is handled below
        norm = np.linalg.norm(x, axis=-1 if x.ndim > 1 else None, keepdims=True)
    if _MIN_PLAIN_NORM <= norm.min(initial=np.inf) and norm.max(initial=0.0) < np.inf:
        return x / norm
    peak = np.abs(x).max(axis=-1, keepdims=True, initial=0.0)
    rescale = (peak > 0) & ((norm < _MIN_PLAIN_NORM) | (norm == np.inf))
    if rescale.any():  # recurses once: a rescaled vector peaks at exactly 1
        return _unit_length(x / np.where(rescale, peak, 1.0))
    return x / np.where(norm == 0.0, 1.0, norm)


class EmbeddingArchive:
    """Off-line encoded segments in columns: ``ids``, their ``words`` and one
    (N, d) ``vectors`` matrix with a row per id, plus the ids' ``string_order``
    and the ``unit``-length rows (a zero row stays zero).  An error raised for
    one row holds its index as ``row``.

    ``vectors`` and ``unit`` are read-only.  A read-only float64 matrix is
    kept as given; a writable array of the caller's is copied, never shared
    or made read-only."""

    def __init__(self, ids: Sequence[str], words: Sequence[str], vectors):
        self.ids, self.words = list(ids), list(words)
        try:  # rows of different widths make no matrix either
            self.vectors = np.ascontiguousarray(vectors, dtype=np.float64)
            if self.vectors.flags.writeable and np.may_share_memory(self.vectors, vectors):
                self.vectors = self.vectors.copy()
            if self.vectors.ndim != 2 or not len(self.vectors) == len(self.ids) == len(self.words):
                raise ValueError
        except ValueError:
            raise DimensionError(f"an archive of {len(self.ids)} records takes one word and"
                                 " one vector row each") from None
        self.dim = self.vectors.shape[1]
        self._row: dict[str, int] = {}
        finite = np.isfinite(self.vectors).all(axis=1).tolist()
        for row, seg_id in enumerate(self.ids):
            if seg_id in self._row or not finite[row]:
                error = DataError(f"duplicate archive id '{seg_id}'" if seg_id in self._row
                                  else f"archive entry '{seg_id}' contains non-finite values")
                error.row = row
                raise error
            self._row[seg_id] = row
        self.id_order = string_order(self.ids)
        self.unit = _unit_length(self.vectors)
        self.vectors.flags.writeable = self.unit.flags.writeable = False

    @property
    def entries(self) -> list[tuple[str, str, np.ndarray]]:
        """(id, word, vector row) per segment: a view made on each read."""
        return list(zip(self.ids, self.words, self.vectors))

    def __len__(self) -> int:
        return len(self.vectors)

    def vector(self, seg_id: str) -> np.ndarray:
        if seg_id not in self._row:
            raise DataError(f"unknown archive id '{seg_id}'")
        return self.vectors[self._row[seg_id]]


def build_archive(
    encoder: Callable[[list[np.ndarray]], np.ndarray],
    dataset: Dataset | Sequence[SegmentRecord],
) -> EmbeddingArchive:
    """Encode every record with the batch ``encoder``, which maps a list of
    T x D feature arrays to one vector row each; entry order follows record
    order.  If the batch fails, the error names the first record that fails
    on its own.  The archive takes the encoder's matrix over, made
    read-only, so the encoder returns a fresh one, as ``encode_batch`` and
    ``naive_encode_batch`` do."""
    records = list(dataset)
    if not records:
        raise DataError("cannot build an archive from zero records")
    try:
        vectors = np.asarray(encoder([rec.features for rec in records]), dtype=np.float64)
    except Exception as exc:
        for rec in records:
            try:
                encoder([rec.features])
            except Exception as own:
                raise DataError(f"encoding failed for record '{rec.id}': {own}") from own
        raise DataError(f"encoding failed: {exc}") from exc
    vectors.flags.writeable = False  # so the archive keeps it with no copy
    return EmbeddingArchive([rec.id for rec in records], [rec.word for rec in records], vectors)


def string_order(ids: Sequence[str]) -> np.ndarray:
    """Where each of ``ids`` falls in Python's string order.  Python's sort,
    not a numpy string array, which would drop an id's trailing NULs."""
    order = np.empty(len(ids), dtype=np.intp)
    order[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return order


def order_by_score(
    ids: Sequence[str],
    scores: np.ndarray,
    exclude_id: str | None = None,
    top_k: int | None = None,
    id_order: np.ndarray | None = None,
) -> RankedResult:
    """``(ids[i], scores[i])`` pairs by (-score, id), without ``exclude_id``;
    a -0.0 score is reported as 0.0.  ``id_order`` is ``string_order(ids)``,
    computed here when not given."""
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    values = np.asarray(scores) + 0.0
    order = np.lexsort((string_order(ids) if id_order is None else id_order, -values))
    if exclude_id is not None:
        order = order[np.fromiter(map(exclude_id.__ne__, ids), bool, len(ids))[order]]
    order = order[:top_k]
    return list(zip([ids[i] for i in order.tolist()], values[order].tolist()))


def rank(
    query_vector: np.ndarray,
    archive: EmbeddingArchive,
    exclude_id: str | None = None,
    top_k: int | None = None,
) -> RankedResult:
    """Rank the archive entries by cosine similarity to the query vector."""
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (archive.dim,):
        raise DimensionError(f"query width {q.shape} does not match archive dim {archive.dim}")
    return order_by_score(archive.ids, archive.unit @ _unit_length(q), exclude_id, top_k,
                          id_order=archive.id_order)


def cosine_matrix(archive: EmbeddingArchive) -> np.ndarray:
    """N x N cosine similarities between all archive entries, in entry order."""
    return archive.unit @ archive.unit.T


def rank_dtw(
    query: np.ndarray,
    dataset: Dataset | Sequence[SegmentRecord],
    exclude_id: str | None = None,
    top_k: int | None = None,
) -> RankedResult:
    """Rank segments by negated DTW distance to the query sequence."""
    records = [rec for rec in dataset if rec.id != exclude_id]
    scores = -dtw_distances([query], [rec.features for rec in records])[0]
    return order_by_score([rec.id for rec in records], scores, top_k=top_k)


def dtw_matrix(dataset: Dataset | Sequence[SegmentRecord]) -> np.ndarray:
    """N x N negated DTW distances, one alignment per unordered pair
    (``dtw_distances`` mirrors it: unnormalized DTW is exactly symmetric)."""
    return dtw_scores(dtw_distances([rec.features for rec in dataset]))


def dtw_scores(distances: np.ndarray) -> np.ndarray:
    """The N x N DTW distances of N records to each other as scores, in
    place: negated, with each record's score against itself +0.0."""
    np.negative(distances, out=distances)
    np.fill_diagonal(distances, 0.0)
    return distances


def _header(dim: int) -> list[str]:
    """The archive CSV's header at width ``dim``: id, word, z0, ..., z{dim-1}."""
    return ["id", "word"] + [f"z{i}" for i in range(dim)]


def save_archive(archive: EmbeddingArchive, path: str | Path) -> None:
    """CSV with header id,word,z0,...,z{d-1}; floats keep round-trip precision."""
    rows = zip(archive.ids, archive.words, archive.vectors.tolist())
    write_csv(path, [_header(archive.dim)] + [[seg_id, word, *vec] for seg_id, word, vec in rows])


def load_archive(path: str | Path) -> EmbeddingArchive:
    path = Path(path)
    reader = csv.reader(read_input(path, "archive", "line"))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty archive file") from None
    dim = len(header) - 2
    if dim < 1 or header != _header(dim):
        raise DataError(f"{path}: unexpected archive header {header!r}")
    ids, words, rows, starts = [], [], [], []
    end = reader.line_num
    for row in reader:
        # a quoted field may hold line breaks: name the line the record starts on
        lineno, end = end + 1, reader.line_num
        if not row:
            continue
        if len(row) != dim + 2:
            raise DimensionError(f"{path}: line {lineno} has {len(row)} fields, expected {dim + 2}")
        try:
            rows.append(np.array([float(v) for v in row[2:]], dtype=np.float64))
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: non-numeric embedding value") from exc
        ids.append(row[0])
        words.append(row[1])
        starts.append(lineno)
    if not rows:
        raise DataError(f"{path}: archive contains no entries")
    try:
        vectors = np.stack(rows)
        vectors.flags.writeable = False  # so the archive keeps it with no copy
        return EmbeddingArchive(ids, words, vectors)
    except DataError as exc:  # a duplicate id or a non-finite value
        raise DataError(f"{path}: line {starts[exc.row]}: {exc}") from None
