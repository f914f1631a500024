"""Reference scoring: per-entry cosine, per-query rankers and ranker-based MAP.

This is the scoring code that the score-matrix path in ``seqembed.retrieval``
and ``seqembed.evaluation`` replaced, kept as the oracle the equivalence
tests compare against.  Every score is computed pair by pair, every query
sorts its own (id, score) list by (-score, id), and relevance is found by
scanning all records per query.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from dtw_oracle import bordered_table
from seqembed.data import SegmentRecord
from seqembed.errors import DataError, DimensionError
from seqembed.evaluation import MapReport, QueryResult, average_precision
from seqembed.retrieval import EmbeddingArchive, RankedResult


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
