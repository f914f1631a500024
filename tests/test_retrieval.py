"""Retrieval tests: cosine scores, archives, ranking, DTW ranking and score
matrices, CSV round-trip, and equivalence with the per-entry oracle."""
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dtw_oracle
import retrieval_oracle as oracle
from conftest import (GRID, archive_from, dtw_records, grid_archive, grid_records, make_records,
                      tie_blocks)
from seqembed import baselines
from seqembed.autoencoder import encode_batch, init_params
from seqembed.baselines import dtw_distance
from seqembed.errors import DataError, DimensionError
from seqembed.retrieval import (
    EmbeddingArchive,
    build_archive,
    cosine_matrix,
    dtw_matrix,
    load_archive,
    order_by_score,
    rank,
    rank_dtw,
    save_archive,
    string_order,
)


# archive ids and words: CSV's special characters, spaces, empty text and any
# other character that UTF-8 can encode
# any character UTF-8 can encode: a lone surrogate cannot be written, and the
# manifest rejects one before it can reach an archive
ARCHIVE_TEXT = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a"])
                       | st.characters(codec="utf-8"), max_size=6)
ARCHIVE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -2.5e-310, 1e300, -1e300]) | st.floats(
    allow_nan=False, allow_infinity=False
)


def archive_of(*vectors):
    """Archive with ids e0, e1, ... holding ``vectors``."""
    return archive_from([(f"e{i}", "w", np.asarray(v, dtype=float)) for i, v in enumerate(vectors)])


class TestCosine:
    def test_identical_nonzero(self):
        u = np.array([1.0, 2.0, -3.0])
        archive = archive_of(u, u)
        npt.assert_allclose([s for _, s in rank(u, archive)], 1.0, rtol=0, atol=1e-15)
        npt.assert_allclose(cosine_matrix(archive), 1.0, rtol=0, atol=1e-15)

    def test_orthogonal(self):
        assert rank(np.array([1.0, 0.0]), archive_of([0.0, 2.0])) == [("e0", 0.0)]
        sims = cosine_matrix(archive_of([1.0, 0.0], [0.0, 2.0]))
        assert sims[0, 1] == 0.0 and sims[1, 0] == 0.0

    def test_opposite(self):
        u = np.array([0.5, -1.5])
        assert rank(u, archive_of(-u))[0][1] == pytest.approx(-1.0, abs=1e-15)
        assert cosine_matrix(archive_of(u, -u))[0, 1] == pytest.approx(-1.0, abs=1e-15)

    def test_zero_norm_defined_as_zero(self):
        archive = archive_of(np.ones(3), -np.ones(3), np.zeros(3))
        for query in (np.zeros(3), np.ones(3), -np.ones(3)):
            scores = dict(rank(query, archive))
            assert repr(scores["e2"]) == "0.0"
        assert [repr(s) for _, s in rank(np.zeros(3), archive)] == ["0.0"] * 3
        sims = cosine_matrix(archive)
        assert (sims[2] == 0.0).all() and (sims[:, 2] == 0.0).all()

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rank(np.ones(3), archive_of(np.ones(4)))

    def test_extreme_magnitudes_are_normalised(self):
        # plain norms underflow to 0 for the first vector and overflow for the third
        archive = archive_of([1e-300, 0.0, 0.0], [1.0, 0.0, 0.0], [1e200, 1e200, 0.0])
        r = np.sqrt(0.5)
        want = np.array([[1.0, 1.0, r], [1.0, 1.0, r], [r, r, 1.0]])
        npt.assert_allclose(cosine_matrix(archive), want, rtol=0, atol=1e-15)
        for query, row in (([1e-300, 0.0, 0.0], 0), ([1.0, 0.0, 0.0], 1), ([1e200, 1e200, 0.0], 2)):
            scores = dict(rank(np.array(query), archive))
            npt.assert_allclose([scores[f"e{i}"] for i in range(3)], want[row], rtol=0, atol=1e-15)

    def test_ordinary_vectors_keep_plain_norm_bits(self):
        rng = np.random.default_rng(5)
        mat = rng.standard_normal((40, 32)) * 10.0 ** rng.integers(-150, 150, size=(40, 1))
        archive = archive_of(*mat)
        npt.assert_array_equal(archive.unit, mat / np.linalg.norm(mat, axis=1, keepdims=True))
        for q in mat[:5]:
            scores = dict(rank(q, archive))
            got = [scores[seg_id] for seg_id in archive.ids]
            npt.assert_array_equal(got, archive.unit @ (q / np.linalg.norm(q)))


class TestOrderByScore:
    def test_descending_score_then_ascending_id(self):
        ranked = order_by_score(["c", "a", "b", "d"], np.array([0.5, 0.5, 0.9, -1.0]))
        assert ranked == [("b", 0.9), ("a", 0.5), ("c", 0.5), ("d", -1.0)]

    def test_ids_with_trailing_nul_keep_python_order(self):
        ranked = order_by_score(["a\x00", "a", "a\x00\x00"], np.zeros(3))
        assert [seg_id for seg_id, _ in ranked] == ["a", "a\x00", "a\x00\x00"]

    def test_exclusion_and_top_k(self):
        ids = ["a", "b", "c"]
        scores = np.array([3.0, 2.0, 1.0])
        assert order_by_score(ids, scores, exclude_id="a", top_k=1) == [("b", 2.0)]
        assert order_by_score(ids, scores, top_k=10) == [("a", 3.0), ("b", 2.0), ("c", 1.0)]

    def test_top_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            order_by_score(["a"], np.ones(1), top_k=0)

    def test_negative_zero_reported_as_zero(self):
        assert repr(order_by_score(["a"], np.array([-0.0]))[0][1]) == "0.0"

    @given(st.lists(st.sampled_from(["a", "a\x00", "a\x00\x00", "b", "B", "10", "9", ""])
                    | st.text(max_size=2), min_size=1, max_size=12, unique=True),
           st.data())
    @example(["a\x00\x00", "a", "a\x00"], None)
    @settings(max_examples=300, deadline=None)
    def test_matches_python_sort(self, ids, data):
        if data is None:  # every score tied and signed zeros: the ids alone order them
            scores, exclude, top_k = np.array([0.0, -0.0, 0.0]), None, None
        else:
            scores = np.array(data.draw(st.lists(
                st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, np.inf]) | st.floats(-2, 2),
                min_size=len(ids), max_size=len(ids))))
            exclude = data.draw(st.sampled_from([None, "zz", *ids]))
            top_k = data.draw(st.one_of(st.none(), st.integers(1, len(ids) + 1)))
        want = oracle.order_by_score(ids, scores, exclude_id=exclude, top_k=top_k)
        # repr tells 0.0 from -0.0
        assert repr(order_by_score(ids, scores, exclude, top_k)) == repr(want)
        assert repr(order_by_score(ids, scores, exclude, top_k, string_order(ids))) == repr(want)


def toy_archive():
    return archive_from([
        ("a", "wa", np.array([1.0, 0.0])),
        ("b", "wb", np.array([0.0, 1.0])),
        ("c", "wc", np.array([-1.0, 0.0])),
    ])


def row_map(encode_one):
    """The batch encoder that maps ``encode_one`` over its sequences."""
    return lambda batch: np.array([encode_one(x) for x in batch])


class TestArchive:
    def test_build_keeps_record_order(self):
        records = make_records([np.full((2, 3), float(i)) for i in range(3)])
        archive = build_archive(row_map(lambda x: x.mean(axis=0)), records)
        assert [e[0] for e in archive.entries] == ["r0", "r1", "r2"]
        assert archive.dim == 3
        npt.assert_array_equal(archive.vector("r2"), [2.0, 2.0, 2.0])

    def test_rebuild_is_identical(self):
        records = make_records([np.arange(6, dtype=float).reshape(2, 3)] * 2)
        encoder = row_map(lambda x: x.sum(axis=0))
        a = build_archive(encoder, records)
        b = build_archive(encoder, records)
        for (ia, wa, va), (ib, wb, vb) in zip(a.entries, b.entries):
            assert (ia, wa) == (ib, wb)
            npt.assert_array_equal(va, vb)

    def test_encoder_failure_names_record(self):
        records = make_records([np.ones((2, 2)), np.full((2, 2), 2.0), np.full((2, 2), 3.0)])

        def bad(batch):  # fails on any batch that holds r1
            if any(x[0, 0] == 2.0 for x in batch):
                raise RuntimeError("boom")
            return np.array([x.sum(axis=0) for x in batch])

        with pytest.raises(DataError, match="record 'r1': boom"):
            build_archive(bad, records)

    @pytest.mark.parametrize("bad_features, message", [
        (np.array([[1.0, np.nan, 0.0]]), "non-finite"),
        (np.zeros((0, 3)), "T >= 1"),
        (np.ones((4, 2)), "input width mismatch"),
    ])
    def test_model_encoding_failure_names_record(self, bad_features, message):
        """A record the model cannot encode is named, wherever its batch
        puts it: a non-finite frame, no frames, or the wrong width."""
        params = init_params(3, 4, seed=0)
        records = make_records([np.ones((t, 3)) for t in (2, 5, 3, 1)])
        records[2].features = bad_features  # past SegmentRecord's own checks
        with pytest.raises(DataError, match=f"record 'r2': .*{message}"):
            build_archive(lambda batch: encode_batch(params, batch), records)

    def test_encoder_must_return_one_row_per_record(self):
        records = make_records([np.ones((2, 2))] * 3)
        with pytest.raises(DimensionError, match="3 records"):
            build_archive(lambda batch: np.zeros((2, 2)), records)

    def test_duplicate_ids_rejected(self):
        entries = [("x", "w", np.zeros(2)), ("x", "w", np.zeros(2))]
        with pytest.raises(DataError, match="duplicate"):
            archive_from(entries)

    def test_columns(self):
        vectors = np.arange(6.0).reshape(3, 2)
        archive = EmbeddingArchive(("a", "b", "c"), ["wa", "wb", "wc"], vectors)
        assert (len(archive), archive.dim) == (3, 2)
        assert (archive.ids, archive.words) == (["a", "b", "c"], ["wa", "wb", "wc"])
        npt.assert_array_equal(archive.vector("b"), [2.0, 3.0])
        assert [(i, w, v.tolist()) for i, w, v in archive.entries] == [
            ("a", "wa", [0.0, 1.0]), ("b", "wb", [2.0, 3.0]), ("c", "wc", [4.0, 5.0])]
        with pytest.raises(DataError, match="unknown archive id 'd'"):
            archive.vector("d")

    @pytest.mark.parametrize("ids, bad_row, row, message", [
        (["a", "b", "a"], 1, 1, "archive entry 'b' contains non-finite values"),
        (["a", "b", "a"], 2, 2, "duplicate archive id 'a'"),  # in one row, the id first
        (["a", "b", "b"], 0, 0, "archive entry 'a' contains non-finite values"),
    ])
    def test_first_faulty_row_is_reported(self, ids, bad_row, row, message):
        vectors = np.zeros((3, 2))
        vectors[bad_row, 1] = np.inf
        with pytest.raises(DataError, match=f"^{message}$") as caught:
            EmbeddingArchive(ids, ["w"] * 3, vectors)
        assert caught.value.row == row

    @pytest.mark.parametrize("vectors", [np.zeros((2, 2)), np.zeros(3), np.zeros((3, 2, 1))])
    def test_one_row_per_id(self, vectors):
        with pytest.raises(DimensionError, match="one vector row each"):
            EmbeddingArchive(["a", "b", "c"], ["w"] * 3, vectors)

    def test_inconsistent_width_rejected(self):
        entries = [("x", "w", np.zeros(2)), ("y", "w", np.zeros(3))]
        with pytest.raises(DimensionError):
            archive_from(entries)


class TestRank:
    def test_hand_archive_order_and_scores(self):
        ranked = rank(np.array([1.0, 0.0]), toy_archive())
        assert [seg_id for seg_id, _ in ranked] == ["a", "b", "c"]
        npt.assert_allclose([s for _, s in ranked], [1.0, 0.0, -1.0], atol=1e-15)

    def test_exclusion(self):
        ranked = rank(np.array([1.0, 0.0]), toy_archive(), exclude_id="a")
        assert [seg_id for seg_id, _ in ranked] == ["b", "c"]

    def test_top_k(self):
        ranked = rank(np.array([1.0, 0.0]), toy_archive(), top_k=1)
        assert ranked == [("a", 1.0)]

    def test_tie_break_ascending_id(self):
        archive = archive_from([
            ("zz", "w", np.array([1.0, 0.0])),
            ("aa", "w", np.array([2.0, 0.0])),
            ("mm", "w", np.array([0.0, 1.0])),
        ])
        ranked = rank(np.array([1.0, 0.0]), archive)
        assert [seg_id for seg_id, _ in ranked] == ["aa", "zz", "mm"]

    def test_scale_invariance_of_order(self):
        rng = np.random.default_rng(0)
        entries = [(f"s{i}", "w", rng.standard_normal(4)) for i in range(10)]
        archive = archive_from(entries)
        q = rng.standard_normal(4)
        base = [seg_id for seg_id, _ in rank(q, archive)]
        for lam in (0.001, 3.7, 250.0):
            assert [seg_id for seg_id, _ in rank(lam * q, archive)] == base

    def test_pure_function(self):
        rng = np.random.default_rng(1)
        entries = [(f"s{i}", "w", rng.standard_normal(3)) for i in range(5)]
        archive = archive_from(entries)
        q = rng.standard_normal(3)
        assert rank(q, archive) == rank(q, archive)

    def test_exclusion_property_random_archives(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            entries = [(f"s{i}", "w", rng.standard_normal(3)) for i in range(n)]
            archive = archive_from(entries)
            excluded = f"s{int(rng.integers(0, n))}"
            ranked = rank(rng.standard_normal(3), archive, exclude_id=excluded)
            assert excluded not in {seg_id for seg_id, _ in ranked}
            assert len(ranked) == n - 1

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            rank(np.zeros(3), toy_archive())


class TestRankDtw:
    def make_dataset(self):
        rng = np.random.default_rng(3)
        return make_records([rng.standard_normal((int(rng.integers(2, 5)), 2)) for _ in range(4)])

    def test_identical_segment_ranks_first_with_zero(self):
        records = self.make_dataset()
        ranked = rank_dtw(records[1].features, records)
        assert ranked[0][0] == "r1"
        assert ranked[0][1] == 0.0

    def test_self_exclusion(self):
        records = self.make_dataset()
        ranked = rank_dtw(records[1].features, records, exclude_id="r1")
        assert "r1" not in {seg_id for seg_id, _ in ranked}

    def test_only_the_excluded_record_ranks_nothing(self):
        records = self.make_dataset()[:1]
        assert rank_dtw(records[0].features, records, exclude_id="r0") == []

    def test_order_agrees_with_direct_dtw(self):
        records = self.make_dataset()
        query = np.random.default_rng(4).standard_normal((3, 2))
        expected = sorted(
            ((rec.id, -dtw_distance(query, rec.features)) for rec in records),
            key=lambda item: (-item[1], item[0]),
        )
        assert rank_dtw(query, records) == expected


class TestDtwMatrix:
    def test_every_ordered_pair_is_negated_dtw_distance(self):
        rng = np.random.default_rng(7)
        records = make_records(
            [rng.standard_normal((int(rng.integers(1, 7)), 3)) for _ in range(9)]
        )
        scores = dtw_matrix(records)
        for i, a in enumerate(records):
            for j, b in enumerate(records):
                assert scores[i, j] == -dtw_distance(a.features, b.features), (i, j)

    def test_one_alignment_per_unordered_pair(self, monkeypatch):
        calls = []
        kernel = baselines._dtw_tables

        def counting(a, p, b, q, layout):
            calls.extend([(a.shape[1], b.shape[1])] * len(p))  # one entry per pair in the block
            return kernel(a, p, b, q, layout)

        monkeypatch.setattr(baselines, "_dtw_tables", counting)
        records = make_records([np.ones((2, 2))] * 5)
        dtw_matrix(records)
        assert len(calls) == 5 * 4 // 2

    @given(dtw_records(), st.sampled_from([1, 300, 2000, baselines._BLOCK_BYTES]))
    @settings(max_examples=200, deadline=None)
    def test_matches_both_per_pair_oracles_exactly(self, records, budget):
        # every ordered pair, so that aligning the shorter sequence first is checked too
        want = np.zeros((len(records), len(records)))
        with np.errstate(over="ignore"):
            for i, a in enumerate(records):
                for j, b in enumerate(records):
                    if i != j:
                        acc, _prev = dtw_oracle.dtw_tables(a.features, b.features)
                        want[i, j] = -acc[-1][-1]
                        assert dtw_oracle.bordered_table(a.features, b.features)[-1][-1] == acc[-1][-1]
            with mock.patch.object(baselines, "_BLOCK_BYTES", budget):
                got = dtw_matrix(records)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_mixed_widths_rejected(self):
        records = make_records([np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 3))])
        with pytest.raises(DimensionError):
            dtw_matrix(records)
        with pytest.raises(DimensionError):
            rank_dtw(np.ones((2, 2)), records)
        with pytest.raises(DimensionError):
            rank_dtw(np.ones((2, 3)), records[:2])


def assert_same_ranking(got, want, tol=1e-12):
    """Same ids in the same order wherever adjacent scores differ by more than tol."""
    assert len(got) == len(want)
    assert tie_blocks(got, tol) == tie_blocks(want, tol)
    want_scores = dict(want)
    assert all(abs(score - want_scores[seg_id]) <= tol for seg_id, score in got)


class TestOracleEquivalence:
    @given(grid_records(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rank_matches_per_entry_oracle(self, records, data):
        archive = grid_archive(records)
        query = np.array(data.draw(st.lists(GRID, min_size=archive.dim, max_size=archive.dim)))
        exclude = data.draw(st.sampled_from([None] + archive.ids))
        got = rank(query, archive, exclude_id=exclude)
        assert_same_ranking(got, oracle.rank(query, archive, exclude_id=exclude))
        top_k = data.draw(st.integers(1, len(archive)))
        assert rank(query, archive, exclude_id=exclude, top_k=top_k) == got[:top_k]

    @given(grid_records(max_frames=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rank_dtw_matches_oracle_exactly(self, records, data):
        query = records[data.draw(st.integers(0, len(records) - 1))]
        exclude = data.draw(st.sampled_from([None, query.id]))
        top_k = data.draw(st.one_of(st.none(), st.integers(1, len(records))))
        assert (rank_dtw(query.features, records, exclude_id=exclude, top_k=top_k)
                == oracle.rank_dtw(query.features, records, exclude_id=exclude, top_k=top_k))

    @given(dtw_records(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rank_dtw_matches_oracle_on_ragged_records(self, records, data):
        query = data.draw(st.sampled_from(records))
        exclude = data.draw(st.sampled_from([None, query.id]))
        budget = data.draw(st.sampled_from([1, 300, baselines._BLOCK_BYTES]))
        with np.errstate(over="ignore"), mock.patch.object(baselines, "_BLOCK_BYTES", budget):
            got = rank_dtw(query.features, records, exclude_id=exclude)
            assert got == oracle.rank_dtw(query.features, records, exclude_id=exclude)

    @given(grid_records(max_frames=3))
    @settings(max_examples=100, deadline=None)
    def test_dtw_matrix_rows_rank_like_oracle(self, records):
        scores = dtw_matrix(records)
        ids = [rec.id for rec in records]
        for i, rec in enumerate(records):
            assert (order_by_score(ids, scores[i], exclude_id=rec.id)
                    == oracle.rank_dtw(rec.features, records, exclude_id=rec.id))


class TestArchiveCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        entries = [(f"seg{i}", f"word{i % 2}", rng.standard_normal(4)) for i in range(6)]
        archive = archive_from(entries)
        path = tmp_path / "archive.csv"
        save_archive(archive, path)
        header = path.read_text().splitlines()[0]
        assert header == "id,word,z0,z1,z2,z3"
        loaded = load_archive(path)
        assert loaded.dim == 4
        for (ia, wa, va), (ib, wb, vb) in zip(archive.entries, loaded.entries):
            assert (ia, wa) == (ib, wb)
            npt.assert_array_equal(va, vb)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        entries = [(f"seg{i}", "w", rng.standard_normal(3)) for i in range(3)]
        archive = archive_from(entries)
        save_archive(archive, tmp_path / "a.csv")
        save_archive(archive, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar,z0\nx,w,1.0\n")
        with pytest.raises(DataError):
            load_archive(path)

    @pytest.mark.parametrize("old, new, line", [(b"1.0", b"x", 2), (b"3.0", b"x", 4)])
    def test_non_numeric_value_names_the_line_its_record_starts_on(self, tmp_path, old, new, line):
        # the header is line 1, r0 spans lines 2 and 3 (its word holds a line
        # break), r1 is line 4
        self.write_two_line_record_archive(tmp_path, old, new)
        with pytest.raises(DataError, match=rf": line {line}: non-numeric embedding value$"):
            load_archive(tmp_path / "b.csv")

    def test_non_finite_value_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,word,z0\na,w,1.0\nb,w,inf\n")
        with pytest.raises(DataError, match=(
                rf"^{path}: line 3: archive entry 'b' contains non-finite values$")):
            load_archive(path)

    def test_duplicate_id_names_the_line_its_record_starts_on(self, tmp_path):
        # r0 spans lines 2 and 3, so the repeat of its id is on line 4
        self.write_two_line_record_archive(tmp_path, b"r1,", b"r0,")
        with pytest.raises(DataError, match=r": line 4: duplicate archive id 'r0'$"):
            load_archive(tmp_path / "b.csv")

    @pytest.mark.parametrize("old, new, line", [(b",2.0", b"", 2), (b",4.0", b"", 4)])
    def test_field_count_names_the_line_its_record_starts_on(self, tmp_path, old, new, line):
        self.write_two_line_record_archive(tmp_path, old, new)
        with pytest.raises(DimensionError, match=rf": line {line} has 3 fields, expected 4$"):
            load_archive(tmp_path / "b.csv")

    @staticmethod
    def write_two_line_record_archive(tmp_path, old, new):
        entries = [("r0", "new\nyork", np.array([1.0, 2.0])), ("r1", "w", np.array([3.0, 4.0]))]
        save_archive(archive_from(entries), tmp_path / "a.csv")
        text = (tmp_path / "a.csv").read_bytes()
        assert text.count(b"\n") == 4 and text.count(old) == 1
        (tmp_path / "b.csv").write_bytes(text.replace(old, new))

    @pytest.mark.parametrize("seg_id", ["a\rb", "tail\r", "\r", "a\r\nb"])
    def test_carriage_return_round_trips(self, tmp_path, seg_id):
        archive = archive_from([(seg_id, "w\r", np.array([1.5, -0.0]))])
        save_archive(archive, tmp_path / "a.csv")
        [(got_id, got_word, got_vec)] = load_archive(tmp_path / "a.csv").entries
        assert (got_id, got_word) == (seg_id, "w\r")
        assert got_vec.tobytes() == np.array([1.5, -0.0]).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        dim=st.integers(1, 4),
        entries=st.lists(st.tuples(ARCHIVE_TEXT, ARCHIVE_TEXT), min_size=1, max_size=6,
                         unique_by=lambda e: e[0]),
        data=st.data(),
    )
    def test_round_trip_is_exact(self, dim, entries, data):
        vectors = [np.array(data.draw(st.lists(ARCHIVE_FLOATS, min_size=dim, max_size=dim)))
                   for _ in entries]
        archive = archive_from([(i, w, v) for (i, w), v in zip(entries, vectors)])
        with tempfile.TemporaryDirectory() as tmp:
            save_archive(archive, Path(tmp) / "a.csv")
            loaded = load_archive(Path(tmp) / "a.csv")
        assert loaded.dim == dim
        assert [(i, w) for i, w, _ in loaded.entries] == entries
        for (_, _, want), (_, _, got) in zip(archive.entries, loaded.entries):
            assert got.tobytes() == want.tobytes()  # sign bits of -0.0 included
