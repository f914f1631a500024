"""Evaluation tests: edit distance, similarity tables, AP/MAP, difference
vectors and the 2-D projection."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import retrieval_oracle as oracle
from conftest import (GRID, ID_POOL, WORD_POOL, archive_from, grid_archive, grid_records,
                      make_records, tie_blocks)
from seqembed import evaluation
from seqembed.data import SegmentRecord
from seqembed.errors import DataError, DimensionError
from seqembed.evaluation import (
    MapReport,
    average_precision,
    mean_average_precision,
    phoneme_edit_distance,
    project_2d,
    similarity_table,
    word_difference_vectors,
    word_mean_embeddings,
)
from seqembed.retrieval import build_archive, cosine_matrix, dtw_matrix


phoneme_lists = st.lists(st.sampled_from(["AA", "AE", "K", "T", "IH", "N", "S"]), max_size=6)


class TestEditDistance:
    def test_equal_sequences(self):
        assert phoneme_edit_distance(["AE", "T"], ["AE", "T"]) == 0
        assert phoneme_edit_distance([], []) == 0

    def test_single_deletion(self):
        assert phoneme_edit_distance(["AE", "T"], ["AE"]) == 1

    def test_hand_dp_fixture(self):
        assert phoneme_edit_distance(["K", "IH", "T", "AH", "N"], ["S", "IH", "T", "IH", "NG"]) == 3

    def test_empty_versus_word(self):
        assert phoneme_edit_distance([], ["A", "B", "C"]) == 3

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(0)
        symbols = ["AA", "B", "K", "T", "IY"]
        for _ in range(200):
            p = [symbols[int(k)] for k in rng.integers(0, len(symbols), size=rng.integers(0, 8))]
            q = [symbols[int(k)] for k in rng.integers(0, len(symbols), size=rng.integers(0, 8))]
            assert phoneme_edit_distance(p, q) == oracle.levenshtein(p, q)

    @pytest.mark.parametrize("p, q", [([], []), ([], ["A"]), (["A"], []), (["A"], ["A"]),
                                      (["A"], ["B"]), (["A"], ["B", "A"]), (["B", "A"], ["A"])])
    def test_empty_and_length_one(self, p, q):
        assert phoneme_edit_distance(p, q) == oracle.levenshtein(p, q)

    @given(st.lists(st.lists(st.sampled_from("ABC"), max_size=5), min_size=1, max_size=10))
    @example([[], ["A"], ["B"], ["A", "B"]])
    @settings(max_examples=200, deadline=None)
    def test_all_pairs_at_once_match_recursive_oracle(self, seqs):
        codes, lengths = evaluation._symbol_codes(seqs)
        u, v = np.triu_indices(len(seqs), 1)
        got = evaluation._edit_distances(codes[u], lengths[u], codes[v], lengths[v])
        assert got.tolist() == [oracle.levenshtein(seqs[i], seqs[j]) for i, j in zip(u, v)]

    @given(phoneme_lists, phoneme_lists)
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, p, q):
        assert phoneme_edit_distance(p, q) == phoneme_edit_distance(q, p)

    @given(phoneme_lists)
    @settings(max_examples=30, deadline=None)
    def test_identity(self, p):
        assert phoneme_edit_distance(p, p) == 0

    @given(phoneme_lists, phoneme_lists, phoneme_lists)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, p, q, r):
        assert phoneme_edit_distance(p, r) <= (
            phoneme_edit_distance(p, q) + phoneme_edit_distance(q, r)
        )


def archive_with_phonemes(vectors, phoneme_lists_):
    archive = archive_from([(f"r{i}", f"word{i}", np.asarray(v, dtype=float))
                            for i, v in enumerate(vectors)])
    records = make_records(
        [np.ones((1, 2))] * len(vectors),
        phonemes=phoneme_lists_,
    )
    return archive, records


class TestSimilarityTable:
    def test_identical_vectors_mean_one(self):
        archive, records = archive_with_phonemes(
            [[1.0, 2.0]] * 3, [["A"], ["A", "B"], ["C", "D", "E"]]
        )
        rows = similarity_table(archive, records, max_bucket=3)
        for row in rows:
            if row.pair_count:
                assert row.mean_cosine == pytest.approx(1.0, abs=1e-12)

    def test_three_segment_hand_enumeration(self):
        # pairs: (r0,r1) dist 0 cos 0; (r0,r2) dist 2 cos 1; (r1,r2) dist 2 cos 0
        archive, records = archive_with_phonemes(
            [[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]],
            [["A", "B"], ["A", "B"], ["C", "D"]],
        )
        rows = similarity_table(archive, records, max_bucket=3)
        by_label = {row.label: row for row in rows}
        assert by_label["0"].pair_count == 1
        assert by_label["0"].mean_cosine == pytest.approx(0.0, abs=1e-15)
        assert by_label["1"].pair_count == 0
        assert by_label["2"].pair_count == 2
        assert by_label["2"].mean_cosine == pytest.approx(0.5, abs=1e-15)

    def test_pair_counts_sum(self):
        rng = np.random.default_rng(1)
        n = 7
        archive, records = archive_with_phonemes(
            rng.standard_normal((n, 3)).tolist(),
            [[str(s) for s in rng.integers(0, 3, size=rng.integers(1, 5))] for _ in range(n)],
        )
        rows = similarity_table(archive, records)
        assert sum(row.pair_count for row in rows) == n * (n - 1) // 2

    def test_default_bucket_labels(self):
        archive, records = archive_with_phonemes([[1.0, 0.0]] * 2, [["A"], ["B"]])
        rows = similarity_table(archive, records)
        assert [row.label for row in rows] == ["0", "1", "2", "3", "4", "5+"]

    def test_missing_phonemes_names_record(self):
        archive, records = archive_with_phonemes([[1.0], [2.0]], [["A"], ["B"]])
        records[1].phonemes = None
        with pytest.raises(DataError, match="r1"):
            similarity_table(archive, records)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_pair_loop_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 3))
        vectors = data.draw(st.lists(st.lists(st.one_of(GRID, st.floats(-10, 10)), min_size=d, max_size=d),
                                     min_size=n, max_size=n))
        seqs = data.draw(st.lists(st.lists(st.sampled_from("ABC"), min_size=1, max_size=4),
                                  min_size=n, max_size=n))
        archive, records = archive_with_phonemes(vectors, seqs)
        max_bucket = data.draw(st.integers(1, 4))
        got = similarity_table(archive, records, max_bucket)
        want = oracle.similarity_table(archive, records, max_bucket)
        # repr, as the table file writes it: NaN means of empty buckets compare too
        assert [(r.label, r.pair_count, repr(r.mean_cosine)) for r in got] == \
            [(r.label, r.pair_count, repr(r.mean_cosine)) for r in want]


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        ranked = [("a", 0.9), ("b", 0.8), ("c", 0.1), ("d", 0.0)]
        assert average_precision(ranked, {"a", "b"}) == 1.0

    def test_ranks_one_and_three(self):
        ranked = [("a", 0.9), ("b", 0.8), ("c", 0.7), ("d", 0.6)]
        ap = average_precision(ranked, {"a", "c"})
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_single_relevant_at_bottom(self):
        for n in (1, 4, 9):
            ranked = [(f"s{i}", 1.0 - i) for i in range(n)]
            assert average_precision(ranked, {f"s{n - 1}"}) == pytest.approx(1.0 / n, abs=1e-15)

    def test_empty_relevant_set_rejected(self):
        with pytest.raises(ValueError):
            average_precision([("a", 1.0)], set())

    def test_relevant_outside_universe_rejected(self):
        with pytest.raises(DataError, match="zz"):
            average_precision([("a", 1.0)], {"zz"})

    def test_deterministic(self):
        ranked = [("a", 0.5), ("b", 0.5), ("c", 0.5)]
        assert average_precision(ranked, {"b"}) == average_precision(ranked, {"b"})


def fixed_scores(order, records):
    """Score matrix in which every query ranks the ids in ``order``."""
    score_of = {seg_id: float(len(order) - i) for i, seg_id in enumerate(order)}
    row = [score_of[rec.id] for rec in records]
    return np.array([row] * len(records))


class TestMeanAveragePrecision:
    def test_all_words_unique_gives_undefined(self):
        records = make_records([np.ones((1, 2))] * 3, words=["x", "y", "z"])
        report = mean_average_precision(fixed_scores(["r0", "r1", "r2"], records), records)
        assert report.mean_ap is None
        assert report.num_excluded == 3
        assert all(row.ap is None for row in report.rows)

    def test_two_words_two_tokens_perfect(self):
        records = make_records(
            [np.array([[1.0, 0.0]]), np.array([[0.9, 0.1]]),
             np.array([[0.0, 1.0]]), np.array([[0.1, 0.9]])],
            words=["u", "u", "v", "v"],
        )
        archive = build_archive(lambda xs: np.array([x[0] for x in xs]), records)
        report = mean_average_precision(cosine_matrix(archive), records)
        assert report.mean_ap == 1.0
        assert report.num_excluded == 0

    def test_case_folded_relevance(self):
        records = make_records([np.ones((1, 2))] * 2, words=["Hello", "HELLO"])
        report = mean_average_precision(fixed_scores(["r0", "r1"], records), records)
        assert report.mean_ap == 1.0

    def test_relevant_at_bottom_scores_below_reverse(self):
        records = make_records([np.ones((1, 2))] * 4, words=["w", "w", "q", "q"])
        bottom = mean_average_precision(fixed_scores(["r2", "r3", "r0", "r1"], records), records)
        top = mean_average_precision(fixed_scores(["r0", "r1", "r2", "r3"], records), records)
        assert bottom.mean_ap < top.mean_ap

    def test_identical_inputs_identical_map(self):
        records = make_records([np.ones((1, 2))] * 4, words=["w", "w", "q", "q"])
        scores = fixed_scores(["r0", "r2", "r1", "r3"], records)
        a = mean_average_precision(scores, records)
        b = mean_average_precision(scores, records)
        assert a.mean_ap == b.mean_ap

    def test_score_shape_must_match_records(self):
        records = make_records([np.ones((1, 2))] * 3, words=["w", "w", "q"])
        with pytest.raises(DimensionError):
            mean_average_precision(np.zeros((3, 2)), records)


def mixed_tie_queries(records, archive):
    """Ids of queries whose oracle ranking has a near-tie (1e-12) block holding
    both relevant and irrelevant ids: rounding alone may order such a block."""
    mixed = set()
    for rec in records:
        folded = rec.word.casefold()
        relevant = {o.id for o in records if o.id != rec.id and o.word.casefold() == folded}
        ranked = oracle.rank(archive.vector(rec.id), archive, exclude_id=rec.id)
        if any(block & relevant and block - relevant for block in tie_blocks(ranked)):
            mixed.add(rec.id)
    return mixed


class TestMapOracleEquivalence:
    @given(grid_records())
    @settings(max_examples=200, deadline=None)
    def test_cosine_map_matches_ranker_oracle(self, records):
        archive = grid_archive(records)
        got = mean_average_precision(cosine_matrix(archive), records)
        want = oracle.mean_average_precision(oracle.cosine_ranker(archive), records)
        assert got.num_excluded == want.num_excluded
        mixed = mixed_tie_queries(records, archive)
        for a, b in zip(got.rows, want.rows):
            assert (a.query_id, a.word, a.num_relevant) == (b.query_id, b.word, b.num_relevant)
            if a.query_id not in mixed:
                assert (a.ap is None) == (b.ap is None)
                assert a.ap is None or abs(a.ap - b.ap) <= 1e-12
        if not mixed:
            assert (got.mean_ap is None) == (want.mean_ap is None)
            assert got.mean_ap is None or abs(got.mean_ap - want.mean_ap) <= 1e-12

    @given(grid_records(max_frames=3))
    @settings(max_examples=100, deadline=None)
    def test_dtw_map_matches_ranker_oracle(self, records):
        got = mean_average_precision(dtw_matrix(records), records)
        want = oracle.mean_average_precision(oracle.dtw_ranker(records), records)
        assert got.rows == want.rows
        assert got.mean_ap == want.mean_ap


# ties, signed zeros and -inf (an overflowed DTW distance) among ordinary floats
SCORES = st.one_of(st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-2, 2))


@st.composite
def scored_records(draw):
    """Records with ids whose string order differs from record order, and a
    score matrix over them."""
    ids = draw(st.lists(st.one_of(st.sampled_from(ID_POOL), st.text(max_size=2)),
                        min_size=1, max_size=14, unique=True))
    records = [SegmentRecord(id=seg_id, word=draw(st.sampled_from(WORD_POOL)), phonemes=None,
                             split="test", features=np.ones((1, 1))) for seg_id in ids]
    n = len(ids)
    scores = draw(st.lists(SCORES, min_size=n * n, max_size=n * n))
    return records, np.array(scores).reshape(n, n)


class TestMapFromRanks:
    @given(scored_records())
    @settings(max_examples=300, deadline=None)
    def test_matches_sorted_ranking_oracle_exactly(self, case):
        records, scores = case
        got = mean_average_precision(scores, records)
        want = oracle.mean_average_precision(oracle.matrix_ranker(scores, records), records)
        assert got.rows == want.rows
        assert got.num_excluded == want.num_excluded
        assert got.mean_ap == want.mean_ap

    def test_ties_break_by_id_string_not_record_order(self):
        # every score ties, so ids alone order each ranking: "10" < "9" < "a"
        records = make_records([np.ones((1, 1))] * 3, words=["w", "q", "w"])
        for rec, seg_id in zip(records, ["9", "10", "a"]):
            rec.id = seg_id
        report = mean_average_precision(np.zeros((3, 3)), records)
        # query "9" ranks "10", then "a": AP 1/2; query "a" ranks "10", then "9": AP 1/2
        assert [row.ap for row in report.rows] == [0.5, None, 0.5]

    @given(scored_records(), st.sampled_from([1, 7, evaluation._MAP_BLOCK_CELLS]))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_query_loop_exactly(self, case, cells):
        records, scores = case
        with mock.patch.object(evaluation, "_MAP_BLOCK_CELLS", cells):
            assert mean_average_precision(scores, records) == oracle.map_from_scores(scores, records)

    def test_singleton_case_folded_words_and_exact_ties(self):
        # "solo" has one record and is excluded; "New"/"new"/"NEW" are one word;
        # every score but two ties, so the ids order most of each ranking
        records = make_records([np.ones((1, 1))] * 5, words=["New", "solo", "new", "few", "NEW"])
        scores = np.zeros((5, 5))
        scores[:, 3] = 1.0
        scores[0, 4] = -0.0
        report = mean_average_precision(scores, records)
        assert report == oracle.map_from_scores(scores, records)
        assert report.num_excluded == 2
        assert [row.num_relevant for row in report.rows] == [2, 0, 2, 0, 2]
        # query r0 ranks r3, then r1, r2, r4 (tied at zero, by id): AP (1/3 + 2/4) / 2
        assert report.rows[0].ap == (1 / 3 + 2 / 4) / 2

    def test_blocks_of_a_large_word_stay_within_their_budget(self):
        # one word of 600 records and 600 words of one record: comparing the
        # word's queries all at once would take 600 x 600 x 1200 booleans
        n = 600
        records = make_records([np.ones((1, 1))] * 2 * n,
                               words=["big"] * n + [f"w{i}" for i in range(n)])
        scores = np.random.default_rng(0).standard_normal((2 * n, 2 * n))
        mean_average_precision(scores[:4, :4], records[:4])  # numpy's own first-use allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = mean_average_precision(scores, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.num_excluded == n
        assert peak - start <= 4 * evaluation._MAP_BLOCK_CELLS

    def test_duplicate_ids_rejected(self):
        records = make_records([np.ones((1, 1))] * 2, words=["w", "w"])
        records[1].id = records[0].id
        with pytest.raises(DataError, match="distinct record ids"):
            mean_average_precision(np.zeros((2, 2)), records)


def archive_of(vec_by_word):
    entries = []
    for word, vecs in vec_by_word.items():
        for i, v in enumerate(vecs):
            entries.append((f"{word}{i}", word, np.asarray(v, dtype=float)))
    return archive_from(entries)


class TestWordDifferenceVectors:
    def test_same_word_gives_zero(self):
        archive = archive_of({"w": [[1.0, 2.0], [3.0, 4.0]]})
        diffs = word_difference_vectors(archive, [("w", "w")])
        npt.assert_array_equal(diffs[0], [0.0, 0.0])

    def test_single_tokens_raw_difference(self):
        archive = archive_of({"a": [[1.0, 5.0]], "b": [[2.0, 1.0]]})
        diffs = word_difference_vectors(archive, [("a", "b")])
        npt.assert_array_equal(diffs[0], [-1.0, 4.0])

    def test_hand_mean_fixture(self):
        # means: w1 -> (2, 0); w2 -> (0, 1); difference (2, -1)
        archive = archive_of({"w1": [[1.0, 0.0], [3.0, 0.0]], "w2": [[0.0, 1.0]]})
        diffs = word_difference_vectors(archive, [("w1", "w2")])
        npt.assert_array_equal(diffs[0], [2.0, -1.0])

    def test_unknown_word_named(self):
        archive = archive_of({"a": [[1.0]]})
        with pytest.raises(DataError, match="ghost"):
            word_difference_vectors(archive, [("a", "ghost")])

    def test_mean_over_tokens(self):
        archive = archive_of({"a": [[1.0], [2.0], [6.0]]})
        npt.assert_array_equal(word_mean_embeddings(archive)["a"], [3.0])


class TestProject2d:
    def test_planar_data_preserves_pairwise_distances(self):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((6, 2)))[0]  # orthonormal 6x2
        coords = rng.standard_normal((12, 2)) * np.array([3.0, 1.5])
        vectors = coords @ basis.T + rng.standard_normal(6) * 0.0
        proj = project_2d(list(vectors))
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                original = np.linalg.norm(vectors[i] - vectors[j])
                projected = np.linalg.norm(proj[i] - proj[j])
                assert abs(original - projected) < 1e-8

    def test_identical_vectors_project_to_origin(self):
        proj = project_2d([np.array([1.0, 2.0, 3.0])] * 4)
        npt.assert_allclose(proj, 0.0, atol=1e-12)

    def test_variance_ordering(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((30, 5)) * np.array([5.0, 2.0, 1.0, 0.5, 0.1])
        proj = project_2d(list(vectors))
        assert proj[:, 0].var() >= proj[:, 1].var()

    def test_one_vector_projects_to_origin(self):
        with pytest.raises(ValueError):
            project_2d([])
        proj = project_2d([np.array([2.0, -5e15, 1 / 3])])
        assert proj.tolist() == [[0.0, 0.0]] and not np.signbit(proj).any()

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_svd_reference(self, data):
        """Column k is the centered data on the k-th right singular vector of
        ``np.linalg.svd``, signed so its largest-magnitude entry is positive,
        wherever singular value k is separated from its neighbours, and zero
        wherever that singular value is zero.  Entries are rounded to 6
        decimals; extreme magnitudes have their own test below."""
        n, d = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 6))
        entry = st.floats(-100, 100).map(lambda v: round(v, 6))
        x = np.array(data.draw(st.lists(st.lists(entry, min_size=d, max_size=d),
                                        min_size=n, max_size=n)))
        proj = project_2d(list(x))
        assert proj.shape == (n, 2)
        xc = x - x.mean(axis=0)
        _, sv, vt = np.linalg.svd(xc)
        scale = sv[0]
        padded = np.concatenate([sv, np.zeros(3)])  # singular values past min(n, d) are 0
        for k in range(2):
            if padded[k] <= 1e-12 * scale:
                npt.assert_allclose(proj[:, k], 0.0, atol=1e-9 * scale)
                continue
            gap = min(padded[k] - padded[k + 1], padded[k - 1] - padded[k] if k else np.inf)
            if gap <= 1e-4 * scale:
                continue
            v = vt[k]
            top = np.sort(np.abs(v))[::-1]
            want = xc @ (-v if v[np.argmax(np.abs(v))] < 0 else v)
            if len(top) > 1 and top[0] - top[1] <= 1e-6:  # two loadings tie: no sign to pin
                want *= np.sign(want @ proj[:, k]) or 1.0
            npt.assert_allclose(proj[:, k], want, rtol=0, atol=1e-9 * scale)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_magnitudes_match_svd_reference(self, scale):
        # unscaled, the scatter matrix of such data overflows to inf or
        # underflows to zero, and the axes come out wrong without an error
        rng = np.random.default_rng(3)
        for x in (rng.standard_normal((10, 4)) * np.array([8.0, 4.0, 1.0, 0.5]) * scale,
                  np.array([[scale, 0.0], [-scale, scale * 1e-3]])):
            proj = project_2d(list(x))
            xc = x - x.mean(axis=0)
            _, sv, vt = np.linalg.svd(xc)
            for k, v in enumerate(vt[:2]):
                want = xc @ (-v if v[np.argmax(np.abs(v))] < 0 else v)
                npt.assert_allclose(proj[:, k], want, rtol=0, atol=1e-9 * sv[0])
        proj = project_2d([np.array([1e200, 0.0]), np.array([-1e200, 1.0])])
        assert abs(proj[0, 0]) == 1e200 and np.abs(proj[:, 1]).max() <= 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        vectors = list(rng.standard_normal((8, 4)))
        npt.assert_array_equal(project_2d(vectors), project_2d(vectors))
