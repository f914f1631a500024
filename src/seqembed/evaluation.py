"""Measurement tools: edit distance, similarity-by-distance tables,
average precision / MAP, word difference vectors and their 2-D PCA
projection (exact principal axes from one symmetric eigendecomposition).

Word labels are compared case-folded everywhere (relevance judgments,
per-word means, similarity grouping).
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Dataset, ManifestEntry, SegmentRecord, write_csv
from .errors import DataError, DimensionError
from .retrieval import EmbeddingArchive, RankedResult, cosine_matrix, string_order

# Booleans in one block of MAP comparisons (queries x relevant records x
# records): the 1 MB a single query of a 1000-record word against 1000
# records takes, so a large word is compared a few queries at a time.
_MAP_BLOCK_CELLS = 1 << 20


def phoneme_edit_distance(p: Sequence[str], q: Sequence[str]) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    codes, lengths = _symbol_codes([p, q])
    return int(_edit_distances(codes[:1], lengths[:1], codes[1:], lengths[1:])[0])


def _symbol_codes(seqs: Sequence[Sequence[str]]) -> tuple[np.ndarray, np.ndarray]:
    """(codes, lengths): each sequence as a row of integer symbol codes,
    padded with -1 to the longest."""
    symbols: dict[str, int] = {}
    lengths = np.array([len(seq) for seq in seqs], dtype=np.intp)
    codes = np.full((len(seqs), lengths.max(initial=0)), -1, dtype=np.intp)
    for row, seq in zip(codes, seqs):
        row[:len(seq)] = [symbols.setdefault(symbol, len(symbols)) for symbol in seq]
    return codes, lengths


def _edit_distances(a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """The Levenshtein distance of each pair (a[k, :la[k]], b[k, :lb[k]]) of
    code rows, by one DP over all pairs: row i holds every pair's distances
    from a's first i symbols to each prefix of b, and a pair's distance is
    read from row la[k] at column lb[k]."""
    steps = np.arange(b.shape[1] + 1)
    row = np.broadcast_to(steps, (len(a), len(steps)))
    pairs = np.arange(len(a))
    out = row[pairs, lb]
    for i in range(a.shape[1]):
        # deletion or substitution, then the cheapest run of insertions:
        # row[j] = min over k <= j of (cell[k] + j - k)
        cell = np.empty_like(row)
        cell[:, 0] = i + 1
        np.minimum(row[:, 1:] + 1, row[:, :-1] + (a[:, i, None] != b), out=cell[:, 1:])
        row = np.minimum.accumulate(cell - steps, axis=1) + steps
        done = la == i + 1
        out[done] = row[pairs[done], lb[done]]
    return out


@dataclass
class SimilarityBucket:
    """One edit-distance bucket: label, pair count, mean cosine similarity."""

    label: str
    pair_count: int
    mean_cosine: float


def similarity_table(
    archive: EmbeddingArchive,
    dataset: Dataset | Sequence[SegmentRecord | ManifestEntry],
    max_bucket: int = 5,
) -> list[SimilarityBucket]:
    """Mean cosine over all unordered entry pairs, bucketed by edit distance.
    Only each record's id and phonemes are read.

    Distances >= ``max_bucket`` fall into the top bucket labeled
    ``"{max_bucket}+"``.  Buckets with no pairs report mean NaN.
    """
    if max_bucket < 1:
        raise ValueError(f"max_bucket must be >= 1, got {max_bucket}")
    by_id = {rec.id: rec for rec in dataset}
    seqs = []
    for seg_id in archive.ids:
        if seg_id not in by_id:
            raise DataError(f"record '{seg_id}' missing from the dataset")
        if by_id[seg_id].phonemes is None:
            raise DataError(f"record '{seg_id}' has no phoneme sequence")
        seqs.append(tuple(by_id[seg_id].phonemes))
    # one edit distance per unordered pair of distinct phoneme sequences
    code: dict[tuple[str, ...], int] = {}
    kinds = np.array([code.setdefault(seq, len(code)) for seq in seqs], dtype=np.intp)
    codes, lengths = _symbol_codes(list(code))
    u, v = np.triu_indices(len(code), 1)
    dist = np.zeros((len(code), len(code)), dtype=np.intp)
    dist[u, v] = dist[v, u] = _edit_distances(codes[u], lengths[u], codes[v], lengths[v])
    # bincount adds each bucket's cosines in row-major pair order, from 0.0
    i, j = np.triu_indices(len(seqs), 1)
    bucket = np.minimum(dist[kinds[i], kinds[j]], max_bucket)
    sums = np.bincount(bucket, weights=cosine_matrix(archive)[i, j], minlength=max_bucket + 1).tolist()
    counts = np.bincount(bucket, minlength=max_bucket + 1).tolist()

    rows = []
    for bucket in range(max_bucket + 1):
        label = str(bucket) if bucket < max_bucket else f"{max_bucket}+"
        mean = sums[bucket] / counts[bucket] if counts[bucket] else float("nan")
        rows.append(SimilarityBucket(label=label, pair_count=counts[bucket], mean_cosine=mean))
    return rows


def average_precision(ranked: RankedResult, relevant_ids: set[str]) -> float:
    """AP = (1/|R|) * sum of precision@k at each relevant rank k."""
    if not relevant_ids:
        raise ValueError("average precision is undefined for an empty relevant set")
    universe = {seg_id for seg_id, _ in ranked}
    missing = set(relevant_ids) - universe
    if missing:
        raise DataError(f"relevant ids missing from the ranking: {sorted(missing)}")
    hits = 0
    total = 0.0
    for k, (seg_id, _score) in enumerate(ranked, start=1):
        if seg_id in relevant_ids:
            hits += 1
            total += hits / k
    return total / len(relevant_ids)


@dataclass
class QueryResult:
    query_id: str
    word: str
    num_relevant: int
    ap: float | None  # None when the query had no relevant counterpart


@dataclass
class MapReport:
    mean_ap: float | None  # None when no query was scorable
    rows: list[QueryResult]
    num_excluded: int


def mean_average_precision(
    scores: np.ndarray,
    records: Sequence[SegmentRecord],
) -> MapReport:
    """Each record queries with its row of ``scores`` (index i is records[i]),
    itself excluded; relevance is a case-folded word match.  Queries with no
    relevant counterpart are excluded from the mean and counted."""
    records = list(records)
    if not records:
        raise DataError("MAP requires a non-empty record set")
    if np.shape(scores) != (len(records), len(records)):
        raise DimensionError(f"scores of shape {np.shape(scores)} for {len(records)} records")
    ids = [rec.id for rec in records]
    if len(set(ids)) != len(ids):
        raise DataError("MAP requires distinct record ids")
    scores = np.asarray(scores)
    id_order = string_order(ids)  # the tie break among equal scores
    members: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(records):
        members[rec.word.casefold()].append(i)
    aps: list[float | None] = [None] * len(records)
    for group in members.values():
        if len(group) > 1:
            _group_aps(scores, id_order, np.array(group), aps)
    rows = [QueryResult(rec.id, rec.word,
                        0 if ap is None else len(members[rec.word.casefold()]) - 1, ap)
            for rec, ap in zip(records, aps)]
    scored = [ap for ap in aps if ap is not None]
    mean = sum(scored) / len(scored) if scored else None
    return MapReport(mean_ap=mean, rows=rows, num_excluded=len(aps) - len(scored))


def _group_aps(scores: np.ndarray, id_order: np.ndarray, group: np.ndarray, aps: list) -> None:
    """Set ``aps[q]`` for each query q of one word's records ``group``, a
    block of queries at a time.  A relevant record's rank under (-score, id),
    the query left out, is 1 + the records scored higher + the records tied
    in score whose id sorts lower."""
    k, n = len(group), scores.shape[1]
    block = max(1, _MAP_BLOCK_CELLS // (k * n))
    for lo in range(0, k, block):
        queries = group[lo:lo + block]
        rows = scores[queries]  # (b, n)
        score = rows[:, group, None]  # (b, k, 1): each query's score of each relevant record
        ahead = rows[:, None, :] == score
        ahead &= id_order < id_order[group, None]
        ahead |= rows[:, None, :] > score
        ahead[np.arange(len(queries)), :, queries] = False
        counts = ahead.sum(axis=2).tolist()
        for a, q in enumerate(queries.tolist()):
            del counts[a][lo + a]  # the query is not relevant to itself
            total = 0.0
            for hits, before in enumerate(sorted(counts[a]), start=1):
                total += hits / (before + 1)
            aps[q] = total / (k - 1)


def word_mean_embeddings(archive: EmbeddingArchive) -> dict[str, np.ndarray]:
    """Mean embedding per case-folded word label, each summed from zero in
    archive order."""
    sums: dict[str, np.ndarray] = defaultdict(lambda: np.zeros(archive.dim))
    counts: dict[str, int] = defaultdict(int)
    for word, vec in zip(archive.words, archive.vectors):
        sums[word.casefold()] += vec
        counts[word.casefold()] += 1
    return {w: total / counts[w] for w, total in sums.items()}


def word_difference_vectors(
    archive: EmbeddingArchive, word_pairs: Sequence[tuple[str, str]]
) -> list[np.ndarray]:
    """Per-pair differences of word-mean embeddings."""
    means = word_mean_embeddings(archive)
    diffs = []
    for w1, w2 in word_pairs:
        for w in (w1, w2):
            if w.casefold() not in means:
                raise DataError(f"word '{w}' not present in the archive")
        diffs.append(means[w1.casefold()] - means[w2.casefold()])
    return diffs


def project_2d(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Center one or more vectors and project them onto the top-2 principal
    components, one row per vector.

    The components are the eigenvectors of the two largest eigenvalues of
    the scatter matrix ``xc.T @ xc`` (one ``np.linalg.eigh`` call); with a
    width of 1 the second is zero.  Each component's sign is fixed so that
    its largest-magnitude loading is positive.  A single vector centers to
    zero and projects to the origin.  The scatter matrix is formed from the
    centered data scaled by a power of two that brings its largest entry
    into [0.5, 1), an exact scaling that keeps it from overflowing or
    underflowing; the unscaled data is projected.
    """
    vecs = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vecs:
        raise ValueError("projection needs at least 1 vector")
    width = vecs[0].shape
    for v in vecs:
        if v.shape != width or v.ndim != 1:
            raise DimensionError("all vectors must share one width")
    x = np.stack(vecs)
    xc = x - x.mean(axis=0)
    scaled = np.ldexp(xc, -np.frexp(np.abs(xc).max())[1])
    _, eigenvectors = np.linalg.eigh(scaled.T @ scaled)  # eigenvalues ascending
    comps = [np.zeros(width), np.zeros(width)]
    for k, v in enumerate(eigenvectors.T[::-1][:2]):
        j = int(np.argmax(np.abs(v)))
        comps[k] = -v if v[j] < 0 else v
    return xc @ np.column_stack(comps)


def similarity_table_rows(rows: Sequence[SimilarityBucket]) -> list[list]:
    """The similarity table with its header, ready for ``write_rows``."""
    header = ["edit_distance", "pair_count", "mean_cosine"]
    return [header] + [[row.label, row.pair_count, row.mean_cosine] for row in rows]


def write_similarity_table(rows: Sequence[SimilarityBucket], path: str | Path) -> None:
    write_csv(path, similarity_table_rows(rows))


def write_map_report(rows: Sequence[QueryResult], path: str | Path) -> None:
    header = ["query_id", "word", "num_relevant", "ap"]
    write_csv(path, [header] + [[r.query_id, r.word, r.num_relevant, r.ap] for r in rows])


def write_comparison(results: Sequence[tuple[str, float | None]], path: str | Path) -> None:
    write_csv(path, [("method", "map"), *results])


def diff_vector_rows(
    pairs: Sequence[tuple[str, str]], diffs: Sequence[np.ndarray], projections: np.ndarray
) -> list[list]:
    """One headerless row per pair: ``w1:w2``, the difference vector, its 2-D projection."""
    return [[f"{w1}:{w2}", *diff, *proj] for (w1, w2), diff, proj in zip(pairs, diffs, projections)]


def write_diff_vectors(
    pairs: Sequence[tuple[str, str]],
    diffs: Sequence[np.ndarray],
    projections: np.ndarray,
    path: str | Path,
) -> None:
    header = ["pair"] + [f"dx{i}" for i in range(diffs[0].shape[0])] + ["proj_x", "proj_y"]
    write_csv(path, [header] + diff_vector_rows(pairs, diffs, projections))
