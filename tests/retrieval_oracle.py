"""Reference scoring: per-entry cosine, per-query rankers, ranker-based MAP,
per-query score-matrix MAP, a recursive edit distance and the pair-by-pair
similarity table.

This is the scoring code that the score-matrix path in ``seqembed.retrieval``
and ``seqembed.evaluation`` replaced, kept as the oracle the equivalence
tests compare against.  Every score is computed pair by pair, every query
sorts its own (id, score) list by (-score, id), relevance is found by
scanning all records per query, and the similarity table adds each pair's
cosine to its bucket in a Python loop.  ``order_by_score`` and
``map_from_scores`` are the Python sort and the per-query loop that the
lexsort ranking and the per-word MAP blocks replaced.
"""
from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from dtw_oracle import bordered_table
from seqembed.data import SegmentRecord
from seqembed.errors import DataError, DimensionError
from seqembed.evaluation import (
    MapReport,
    QueryResult,
    SimilarityBucket,
    average_precision,
)
from seqembed.retrieval import EmbeddingArchive, RankedResult, cosine_matrix


def levenshtein(p, q) -> int:
    """Naive recursive memoized edit distance with unit costs."""
    p, q = tuple(p), tuple(q)

    @lru_cache(maxsize=None)
    def dist(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            dist(i - 1, j) + 1,
            dist(i, j - 1) + 1,
            dist(i - 1, j - 1) + (p[i - 1] != q[j - 1]),
        )

    return dist(len(p), len(q))


def order_by_score(
    ids: Sequence[str],
    scores: np.ndarray,
    exclude_id: str | None = None,
    top_k: int | None = None,
    id_order: np.ndarray | None = None,
) -> RankedResult:
    """``(ids[i], scores[i])`` pairs by a Python sort on (-score, id), without
    ``exclude_id``; a -0.0 score is reported as 0.0.  ``id_order`` is not
    read: the sort compares the ids themselves."""
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    values = (np.asarray(scores) + 0.0).tolist()
    order = sorted(
        (i for i, seg_id in enumerate(ids) if seg_id != exclude_id),
        key=lambda i: (-values[i], ids[i]),
    )
    return [(ids[i], values[i]) for i in order[:top_k]]


def map_from_scores(scores: np.ndarray, records: Sequence[SegmentRecord]) -> MapReport:
    """Score-matrix MAP one query at a time: each relevant record's rank is
    counted from one comparison of the query's row."""
    records = list(records)
    if not records:
        raise DataError("MAP requires a non-empty record set")
    if np.shape(scores) != (len(records), len(records)):
        raise DimensionError(f"scores of shape {np.shape(scores)} for {len(records)} records")
    ids = [rec.id for rec in records]
    if len(set(ids)) != len(ids):
        raise DataError("MAP requires distinct record ids")
    id_order = np.empty(len(ids), dtype=np.intp)
    id_order[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    members: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(records):
        members[rec.word.casefold()].append(i)
    rows: list[QueryResult] = []
    aps: list[float] = []
    excluded = 0
    for q, (rec, row) in enumerate(zip(records, np.asarray(scores))):
        relevant = np.array([i for i in members[rec.word.casefold()] if i != q], dtype=np.intp)
        if not len(relevant):
            excluded += 1
            rows.append(QueryResult(rec.id, rec.word, 0, None))
            continue
        score = row[relevant, None]
        before = (row > score) | ((row == score) & (id_order < id_order[relevant, None]))
        before[:, q] = False
        total = 0.0
        for hits, ahead in enumerate(sorted(before.sum(axis=1).tolist()), start=1):
            total += hits / (ahead + 1)
        ap = total / len(relevant)
        rows.append(QueryResult(rec.id, rec.word, len(relevant), ap))
        aps.append(ap)
    mean = sum(aps) / len(aps) if aps else None
    return MapReport(mean_ap=mean, rows=rows, num_excluded=excluded)


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """u.v / (|u||v|); defined as 0 when either norm is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionError(f"vector shapes differ: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def _sorted_top(scored: RankedResult, top_k: int | None) -> RankedResult:
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored if top_k is None else scored[:top_k]


def rank(
    query_vector: np.ndarray,
    archive: EmbeddingArchive,
    exclude_id: str | None = None,
    top_k: int | None = None,
) -> RankedResult:
    """Cosine-score all non-excluded entries one by one, sort by (-score, id)."""
    q = np.asarray(query_vector, dtype=np.float64)
    if q.shape != (archive.dim,):
        raise DimensionError(f"query width {q.shape} does not match archive dim {archive.dim}")
    scored = [
        (seg_id, cosine_similarity(q, vec))
        for seg_id, _word, vec in archive.entries
        if seg_id != exclude_id
    ]
    return _sorted_top(scored, top_k)


def rank_dtw(
    query: np.ndarray,
    records: Sequence[SegmentRecord],
    exclude_id: str | None = None,
    top_k: int | None = None,
) -> RankedResult:
    """Rank segments by negated DTW distance, one query-first per-pair alignment each."""
    scored = [
        (rec.id, -bordered_table(query, rec.features)[-1][-1])
        for rec in records if rec.id != exclude_id
    ]
    return _sorted_top(scored, top_k)


def mean_average_precision(
    ranker: Callable[[SegmentRecord], RankedResult],
    records: Sequence[SegmentRecord],
) -> MapReport:
    """Every record queries once (self excluded by the ranker); relevance is
    a case-folded word match found by scanning every record."""
    records = list(records)
    if not records:
        raise DataError("MAP requires a non-empty record set")
    rows: list[QueryResult] = []
    aps: list[float] = []
    excluded = 0
    for rec in records:
        folded = rec.word.casefold()
        relevant = {
            other.id
            for other in records
            if other.id != rec.id and other.word.casefold() == folded
        }
        if not relevant:
            excluded += 1
            rows.append(QueryResult(rec.id, rec.word, 0, None))
            continue
        ap = average_precision(ranker(rec), relevant)
        rows.append(QueryResult(rec.id, rec.word, len(relevant), ap))
        aps.append(ap)
    mean = sum(aps) / len(aps) if aps else None
    return MapReport(mean_ap=mean, rows=rows, num_excluded=excluded)


def cosine_ranker(archive: EmbeddingArchive) -> Callable[[SegmentRecord], RankedResult]:
    return lambda rec: rank(archive.vector(rec.id), archive, exclude_id=rec.id)


def dtw_ranker(records: Sequence[SegmentRecord]) -> Callable[[SegmentRecord], RankedResult]:
    return lambda rec: rank_dtw(rec.features, records, exclude_id=rec.id)


def matrix_ranker(scores: np.ndarray, records: Sequence[SegmentRecord]) -> Callable[[SegmentRecord], RankedResult]:
    """Each record's row of ``scores`` (index i is records[i]), sorted by (-score, id)."""
    index = {rec.id: i for i, rec in enumerate(records)}
    return lambda rec: _sorted_top(
        [(other.id, float(s)) for other, s in zip(records, scores[index[rec.id]]) if other.id != rec.id],
        None,
    )


def similarity_table(
    archive: EmbeddingArchive,
    records: Sequence[SegmentRecord],
    max_bucket: int = 5,
) -> list[SimilarityBucket]:
    """Mean cosine per edit-distance bucket, one unordered pair at a time in
    row-major order, with edit distances cached per pair of sequences."""
    by_id = {rec.id: rec for rec in records}
    seqs = [tuple(by_id[seg_id].phonemes) for seg_id in archive.ids]
    sims = cosine_matrix(archive)

    dist_cache: dict[tuple[tuple[str, ...], tuple[str, ...]], int] = {}

    def cached_distance(pa, pb):
        key = (pa, pb) if pa <= pb else (pb, pa)
        if key not in dist_cache:
            dist_cache[key] = levenshtein(key[0], key[1])
        return dist_cache[key]

    n = len(seqs)
    sums = [0.0] * (max_bucket + 1)
    counts = [0] * (max_bucket + 1)
    for i in range(n):
        for j in range(i + 1, n):
            bucket = min(cached_distance(seqs[i], seqs[j]), max_bucket)
            sums[bucket] += float(sims[i, j])
            counts[bucket] += 1

    rows = []
    for bucket in range(max_bucket + 1):
        label = str(bucket) if bucket < max_bucket else f"{max_bucket}+"
        mean = sums[bucket] / counts[bucket] if counts[bucket] else float("nan")
        rows.append(SimilarityBucket(label=label, pair_count=counts[bucket], mean_cosine=mean))
    return rows
