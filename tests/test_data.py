"""Dataset ingestion and synthetic generation tests."""
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import data_oracle
from seqembed.cli import main
from seqembed.data import (
    Dataset,
    SegmentRecord,
    generate_synthetic,
    load_feature_file,
    parse_manifest,
    read_manifest,
    replace_on_close,
    write_csv,
    write_feature_bin,
    write_feature_csv,
    write_manifest,
)
from seqembed.errors import DataError, DimensionError, GenerationError


def write_line_manifest(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in entries:
            fh.write(json.dumps(obj) + "\n")


GOOD_B = {"id": "b", "word": "beta", "split": "test", "features": "feat/b.csv"}


@pytest.fixture
def two_record_dir(tmp_path):
    rng = np.random.default_rng(0)
    (tmp_path / "feat").mkdir()
    for name in ("a", "b"):
        write_feature_csv(tmp_path / "feat" / f"{name}.csv", rng.standard_normal((4, 13)))
    write_line_manifest(
        tmp_path / "manifest.jsonl",
        [
            {"id": "a", "word": "alpha", "phonemes": ["AH", "L"], "split": "train",
             "features": "feat/a.csv"},
            GOOD_B,
        ],
    )
    return tmp_path


class TestParseManifest:
    def test_two_valid_records(self, two_record_dir):
        ds = parse_manifest(two_record_dir / "manifest.jsonl")
        assert [rec.id for rec in ds.records] == ["a", "b"]
        assert ds.dim == 13
        assert ds.records[0].phonemes == ["AH", "L"]
        assert ds.records[1].phonemes is None

    def test_missing_feature_file(self, two_record_dir):
        (two_record_dir / "feat" / "b.csv").unlink()
        with pytest.raises(DataError, match="'b'"):
            parse_manifest(two_record_dir / "manifest.jsonl")

    def test_ragged_feature_rows(self, two_record_dir):
        with open(two_record_dir / "feat" / "a.csv", "a", encoding="utf-8") as fh:
            fh.write(",".join(["0.0"] * 12) + "\n")
        with pytest.raises(DimensionError, match="row 4"):
            parse_manifest(two_record_dir / "manifest.jsonl")

    def test_duplicate_id(self, two_record_dir):
        manifest = two_record_dir / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        write_line_manifest(manifest, [json.loads(lines[0]), json.loads(lines[0])])
        with pytest.raises(DataError, match="duplicate record id 'a'"):
            parse_manifest(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError):
            parse_manifest(tmp_path / "nope.jsonl")

    def test_non_numeric_value(self, two_record_dir):
        with open(two_record_dir / "feat" / "a.csv", "a", encoding="utf-8") as fh:
            fh.write(",".join(["oops"] + ["0.0"] * 12) + "\n")
        with pytest.raises(DataError, match="row 4"):
            parse_manifest(two_record_dir / "manifest.jsonl")

    def test_mixed_dims_across_records(self, two_record_dir):
        write_feature_csv(two_record_dir / "feat" / "b.csv", np.zeros((2, 12)))
        with pytest.raises(DimensionError, match="'b'"):
            parse_manifest(two_record_dir / "manifest.jsonl")

    def test_non_finite_rejected(self, two_record_dir):
        with open(two_record_dir / "feat" / "a.csv", "a", encoding="utf-8") as fh:
            fh.write(",".join(["nan"] + ["0.0"] * 12) + "\n")
        with pytest.raises(DataError, match="non-finite"):
            parse_manifest(two_record_dir / "manifest.jsonl")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", "expected a JSON object, got list"),
            ('"x"', "expected a JSON object, got str"),
            ("null", "expected a JSON object, got NoneType"),
            (dict(GOOD_B, features=5), "field 'features' must be a string, got int"),
            (dict(GOOD_B, word=7), "field 'word' must be a string, got int"),
            (dict(GOOD_B, id=3), "field 'id' must be a string, got int"),
            (dict(GOOD_B, split=["test"]), "field 'split' must be a string, got list"),
            (dict(GOOD_B, phonemes="abc"), "'phonemes' must be an array of strings"),
            (dict(GOOD_B, phonemes=["AH", 1]), "'phonemes' must be an array of strings"),
        ],
        ids=["list", "string", "null", "int-features", "int-word", "int-id", "list-split",
             "string-phonemes", "int-phoneme"],
    )
    def test_wrong_json_types_rejected(self, two_record_dir, line, message):
        manifest = two_record_dir / "manifest.jsonl"
        first = manifest.read_text().splitlines()[0]
        bad = line if isinstance(line, str) else json.dumps(line)
        manifest.write_text(first + "\n" + bad + "\n")
        pattern = re.escape(f"{manifest}: line 2: ") + ".*" + re.escape(message)
        with pytest.raises(DataError, match=pattern):
            parse_manifest(manifest)

    @pytest.mark.parametrize("field", ["id", "word", "split", "features", "phonemes"])
    def test_lone_surrogate_rejected(self, two_record_dir, field):
        # JSON "\ud800" decodes to a str that cannot be written back as UTF-8
        manifest = two_record_dir / "manifest.jsonl"
        first = manifest.read_text().splitlines()[0]
        value = ["AH", "b\ud800"] if field == "phonemes" else GOOD_B.get(field, "") + "\ud800"
        manifest.write_text(first + "\n" + json.dumps(dict(GOOD_B, **{field: value})) + "\n")
        pattern = re.escape(f"{manifest}: line 2: ") + ".*lone surrogate"
        with pytest.raises(DataError, match=pattern):
            parse_manifest(manifest)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_manifest_byte_not_utf8_names_line(self, two_record_dir, newline):
        manifest = two_record_dir / "manifest.jsonl"
        first, second = manifest.read_bytes().splitlines()
        manifest.write_bytes(first + newline + second.replace(b'"b"', b'"b\xff"') + newline)
        with pytest.raises(DataError, match=re.escape(f"{manifest}: line 2: byte 0xff is not valid UTF-8")):
            parse_manifest(manifest)

    def test_feature_csv_byte_not_utf8_names_row(self, two_record_dir):
        feat = two_record_dir / "feat" / "b.csv"
        rows = feat.read_bytes().splitlines(keepends=True)
        feat.write_bytes(b"".join(rows[:2] + [b"\xff" + rows[2]] + rows[3:]))
        with pytest.raises(DataError, match=re.escape(f"{feat}: row 2: byte 0xff is not valid UTF-8")):
            parse_manifest(two_record_dir / "manifest.jsonl")

    @pytest.mark.parametrize("features", ["absolute", "../{dir}/feat/b.csv", "feat/../feat/b.csv"])
    def test_features_path_must_stay_under_the_manifest(self, two_record_dir, features):
        # each path names the existing feature file of record 'b'
        target = two_record_dir / "feat" / "b.csv"
        rel = str(target) if features == "absolute" else features.format(dir=two_record_dir.name)
        assert (two_record_dir / rel).resolve() == target.resolve()
        manifest = two_record_dir / "manifest.jsonl"
        first = manifest.read_text().splitlines()[0]
        manifest.write_text(first + "\n" + json.dumps(dict(GOOD_B, features=rel)) + "\n")
        with pytest.raises(DataError, match=r"line 2: record 'b': features path .* no '\.\.' part"):
            parse_manifest(manifest)

    @pytest.mark.parametrize("features, refused", [
        ("..", True), ("feat/..", True), ("feat/../b.csv", True), ("/feat/b.csv", True),
        ("//feat/b.csv", True), ("...", False), ("..b", False), ("feat/..b.csv", False),
        ("..\\feat", False), ("./feat//nope.csv", False)])
    def test_dot_dot_is_a_whole_posix_part(self, two_record_dir, features, refused):
        manifest = two_record_dir / "manifest.jsonl"
        manifest.write_text(json.dumps(dict(GOOD_B, features=features)) + "\n")
        with pytest.raises(DataError) as exc:
            read_manifest(manifest)
        missing = f"record 'b': feature file not found: {two_record_dir / Path(features)}"
        assert str(exc.value).endswith("no '..' part" if refused else missing)

    @pytest.mark.parametrize("features", ["./feat/b.csv", "feat//b.csv", "feat/./b.csv", "feat/b.csv/"])
    def test_spellings_of_one_path_name_one_file(self, two_record_dir, features):
        manifest = two_record_dir / "manifest.jsonl"
        manifest.write_text(json.dumps(dict(GOOD_B, features=features)) + "\n")
        assert read_manifest(manifest)[0].path == two_record_dir / "feat" / "b.csv"


class TestReadManifest:
    def test_entries_without_reading_features(self, two_record_dir):
        (two_record_dir / "feat" / "b.csv").write_text("not,numbers\n")
        entries = read_manifest(two_record_dir / "manifest.jsonl")
        assert [(e.id, e.word, e.phonemes, e.split) for e in entries] == [
            ("a", "alpha", ["AH", "L"], "train"), ("b", "beta", None, "test")]
        assert [e.path for e in entries] == [two_record_dir / "feat" / f"{n}.csv" for n in "ab"]
        with pytest.raises(DataError, match="non-numeric"):
            parse_manifest(two_record_dir / "manifest.jsonl")

    def test_split_loads_only_its_records(self, two_record_dir):
        (two_record_dir / "feat" / "b.csv").write_text("not,numbers\n")
        ds = parse_manifest(two_record_dir / "manifest.jsonl", "train")
        assert [rec.id for rec in ds.records] == ["a"] and ds.dim == 13
        with pytest.raises(DataError, match="non-numeric"):
            parse_manifest(two_record_dir / "manifest.jsonl", "test")

    @pytest.mark.parametrize("split", ["train", "test", "all"])
    def test_missing_feature_file_fails_every_split(self, two_record_dir, split):
        (two_record_dir / "feat" / "a.csv").unlink()
        with pytest.raises(DataError, match="record 'a': feature file not found"):
            read_manifest(two_record_dir / "manifest.jsonl")
        with pytest.raises(DataError, match="record 'a': feature file not found"):
            parse_manifest(two_record_dir / "manifest.jsonl", split)

    @pytest.mark.parametrize("split", ["train", "test", "all"])
    def test_duplicate_id_across_splits_fails_every_split(self, two_record_dir, split):
        manifest = two_record_dir / "manifest.jsonl"
        write_line_manifest(manifest, [json.loads(manifest.read_text().splitlines()[0]),
                                       dict(GOOD_B, id="a")])
        with pytest.raises(DataError, match="duplicate record id 'a'"):
            parse_manifest(manifest, split)

    def test_bad_split_named_when_not_loaded(self, two_record_dir):
        manifest = two_record_dir / "manifest.jsonl"
        first = manifest.read_text().splitlines()[0]
        manifest.write_text(first + "\n" + json.dumps(dict(GOOD_B, split="dev")) + "\n")
        with pytest.raises(DataError, match="record 'b': split must be one of"):
            parse_manifest(manifest, "train")

    def test_split_with_no_records(self, two_record_dir):
        manifest = two_record_dir / "manifest.jsonl"
        manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        assert len(parse_manifest(manifest, "train").records) == 1
        with pytest.raises(DataError, match="no records in split 'test'"):
            parse_manifest(manifest, "test")

    def test_empty_manifest(self, tmp_path):
        (tmp_path / "manifest.jsonl").write_text("\n")
        with pytest.raises(DataError, match="dataset contains no records"):
            read_manifest(tmp_path / "manifest.jsonl")


class TestRoundTrip:
    def test_manifest_round_trip_is_identity(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [
            SegmentRecord(
                id=f"seg{i}",
                word=f"word{i % 2}",
                phonemes=["AA", "B"] if i % 2 else None,
                split="train" if i < 2 else "test",
                features=rng.standard_normal((int(rng.integers(1, 6)), 5)),
            )
            for i in range(4)
        ]
        original = Dataset.from_records(records)
        manifest = write_manifest(original, tmp_path / "m.jsonl")
        loaded = parse_manifest(manifest)
        assert [r.id for r in loaded.records] == [r.id for r in original.records]
        for a, b in zip(original.records, loaded.records):
            assert (a.word, a.phonemes, a.split) == (b.word, b.phonemes, b.split)
            npt.assert_array_equal(a.features, b.features)

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        # float32-representable values survive the packed format exactly
        frames = rng.standard_normal((7, 3)).astype(np.float32).astype(np.float64)
        write_feature_bin(tmp_path / "x.bin", frames)
        npt.assert_array_equal(load_feature_file(tmp_path / "x.bin"), frames)

    def test_binary_manifest_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        records = [
            SegmentRecord(
                id="only", word="w", phonemes=None, split="train",
                features=rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
            )
        ]
        manifest = write_manifest(Dataset.from_records(records), tmp_path / "m.jsonl", fmt="bin")
        loaded = parse_manifest(manifest)
        npt.assert_array_equal(loaded.records[0].features, records[0].features)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), steps=st.integers(1, 5), dim=st.integers(1, 4))
    def test_feature_files_round_trip_exactly(self, data, steps, dim):
        """CSV keeps every finite float64 and .bin every finite float32, sign
        bits, subnormals and extremes included."""
        f32_info = np.finfo(np.float32)
        f32_special = [-0.0, 0.0, float(f32_info.smallest_subnormal), -float(f32_info.max)]
        f64 = st.sampled_from(f32_special + [5e-324, -2.5e-310, 1e300, -1e300]) | st.floats(
            allow_nan=False, allow_infinity=False
        )
        f32 = st.sampled_from(f32_special) | st.floats(
            width=32, allow_nan=False, allow_infinity=False
        )
        with tempfile.TemporaryDirectory() as tmp:
            for name, values, write in (("x.csv", f64, write_feature_csv),
                                        ("x.bin", f32, write_feature_bin)):
                frames = np.array(
                    data.draw(st.lists(values, min_size=steps * dim, max_size=steps * dim))
                ).reshape(steps, dim)
                write(Path(tmp) / name, frames)
                assert load_feature_file(Path(tmp) / name).tobytes() == frames.tobytes(), name

    def test_truncated_binary_rejected(self, tmp_path):
        write_feature_bin(tmp_path / "x.bin", np.zeros((3, 2)))
        blob = (tmp_path / "x.bin").read_bytes()
        (tmp_path / "x.bin").write_bytes(blob[:-4])
        with pytest.raises(DataError, match="bytes"):
            load_feature_file(tmp_path / "x.bin")


def read_outcome(read, path):
    """The bits a reader returns, or the kind and text of the error it raises."""
    try:
        return "frames", read(path).tobytes()
    except DataError as exc:
        return type(exc).__name__, str(exc)


def same_as_float_reader(path, text):
    path.write_bytes(text.encode("utf-8"))
    got = read_outcome(load_feature_file, path)
    assert got == read_outcome(data_oracle.read_csv_features, path)
    return got


# a field's characters: digits, float grammar, whitespace, a comment mark and NUL
FIELD_CHARS = "0123456789.eE+-infatyINFATY #\t\x00\u2003\u3000\x0c"


class TestCsvReader:
    """The numpy reader against the per-field ``float()`` one it replaced."""

    @pytest.mark.parametrize("field", ["1_0", "\u0663", "1_000.5"])
    def test_float_only_grammar_is_non_numeric(self, tmp_path, capsys, field):
        # float() reads digit separators and non-ASCII digits; numpy's parser does not
        path = tmp_path / "x.csv"
        path.write_text(f"1.0,2.0\n3.0,{field}\n", encoding="utf-8")
        assert read_outcome(data_oracle.read_csv_features, path)[0] == "frames"
        with pytest.raises(DataError, match=re.escape(f"{path}: row 1: non-numeric value")):
            load_feature_file(path)
        write_line_manifest(tmp_path / "m.jsonl", [
            {"id": "a", "word": "w", "split": "test", "features": "x.csv"}])
        assert main(["encode", "--manifest", str(tmp_path / "m.jsonl"), "--encoder", "ne",
                     "--m", "2", "--out", str(tmp_path / "a.csv")]) == 3
        assert "row 1: non-numeric value" in capsys.readouterr().err

    @pytest.mark.parametrize("text, kind", [
        ("1,2\n\n   \n\t\n3,4\n", "frames"),  # blank and whitespace-only lines are skipped
        ("1,2\r\n3,4\r\n", "frames"),
        ("1,2\r3,4\r", "frames"),
        (" 1 ,\u20032\u3000\n", "frames"),  # Unicode whitespace around a field
        ("-0.0,1e-400\n", "frames"),  # a signed zero and an underflow to zero
        ("1,2,\n", "DataError"),  # a trailing comma is an empty, non-numeric field
        ("#1,2\n", "DataError"),  # "#" is a field, not a comment
        ("1,2\n# note\n", "DataError"),
        ("\n  \n\r\n", "DataError"),  # only blank lines: an empty feature file
        ("", "DataError"),
        ("1,2\n3\nx,4\n", "DimensionError"),  # a ragged row before a non-numeric one
        ("1,2\nx,4\n3\n", "DataError"),  # a non-numeric row before a ragged one
        ("1,2\n3,x,4\n", "DataError"),  # in one row, non-numeric before width
        ("1,inf\n", "DataError"),
        ("nan,1\n", "DataError"),
        ("1e400,1\n", "DataError"),  # overflows to inf
        ("\ufeff1,2\n", "DataError"),  # a byte-order mark
        ("1\x00,2\n", "DataError"),
    ])
    def test_same_outcome_as_float_reader(self, tmp_path, text, kind):
        assert same_as_float_reader(tmp_path / "x.csv", text)[0] == kind

    @given(st.lists(st.lists(st.text(FIELD_CHARS, max_size=6), min_size=1, max_size=3),
                    min_size=1, max_size=4),
           st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_on_drawn_fields(self, rows, end):
        with tempfile.TemporaryDirectory() as tmp:
            same_as_float_reader(Path(tmp) / "x.csv", "".join(",".join(r) + end for r in rows))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr)
                    | st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]),
                                st.integers(0, 9), st.text("0123456789", min_size=16, max_size=24),
                                st.integers(-330, 310)),
                    min_size=3, max_size=3))
    @example(["2.2250738585072011e-308", "4.9406564584124654e-324",
              "1.7976931348623157e+308"])
    @settings(max_examples=300, deadline=None)
    def test_decimal_strings_read_to_float_bits(self, fields):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            path.write_text(",".join(fields) + "\n", encoding="utf-8")
            want = np.array([[float(f) for f in fields]])
            if np.isfinite(want).all():
                assert load_feature_file(path).tobytes() == want.tobytes()
            else:
                with pytest.raises(DataError, match="non-finite"):
                    load_feature_file(path)


class TestOutputFiles:
    def test_write_rows_format(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [("a", "b,c", None), (1, 0.1, np.float64(1 / 3)), (np.float32(0.1), -0.0, "")]
        write_csv(path, rows)
        assert path.read_bytes() == (
            b'a,"b,c",\n1,0.1,0.3333333333333333\n0.10000000149011612,-0.0,\n'
        )

    def test_failed_write_creates_nothing(self, tmp_path):
        with pytest.raises(KeyError):
            with replace_on_close(tmp_path / "new.json") as fh:
                fh.write("{")
                raise KeyError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_failed_manifest_write_keeps_old_manifest(self, tmp_path):
        good = Dataset.from_records([SegmentRecord("a", "w", None, "train", np.ones((2, 3)))])
        manifest = write_manifest(good, tmp_path / "m.jsonl")
        before = manifest.read_bytes()
        (tmp_path / "features" / "b.csv").mkdir()  # where b's feature file would go
        bad = Dataset.from_records([SegmentRecord("b", "w", None, "train", np.ones((2, 3)))])
        with pytest.raises(DataError, match="cannot write .*b.csv"):
            write_manifest(bad, manifest)
        assert manifest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features", "m.jsonl"]

    @pytest.mark.parametrize("seg_id", ["a/b", "../x", "a\\b", "a\x00b"])
    @pytest.mark.parametrize("fmt", ["csv", "bin"])
    def test_id_that_is_no_file_name_is_refused(self, tmp_path, seg_id, fmt):
        ok = SegmentRecord("a", "w", None, "train", np.ones((2, 3)))
        bad = SegmentRecord(seg_id, "w", None, "train", np.ones((2, 3)))
        with pytest.raises(DataError) as exc:
            write_manifest(Dataset.from_records([ok, bad]), tmp_path / "out" / "m.jsonl", fmt=fmt)
        assert repr(seg_id) in str(exc.value)
        assert list(tmp_path.iterdir()) == []

    def test_dataset_iterates_its_records(self):
        records = [SegmentRecord(f"s{i}", "w", None, "test", np.ones((1, 2))) for i in range(3)]
        assert list(Dataset.from_records(records)) == records


class TestGenerateSynthetic:
    def test_same_seed_bit_identical(self):
        a = generate_synthetic(5, 6, 4, (2, 4), 3, (1, 3), 0.2, seed=9)
        b = generate_synthetic(5, 6, 4, (2, 4), 3, (1, 3), 0.2, seed=9)
        assert [r.id for r in a.records] == [r.id for r in b.records]
        for ra, rb in zip(a.records, b.records):
            npt.assert_array_equal(ra.features, rb.features)
            assert ra.phonemes == rb.phonemes and ra.split == rb.split

    def test_token_length_bounds(self):
        ds = generate_synthetic(5, 6, 4, (2, 4), 3, (2, 4), 0.2, seed=9)
        for rec in ds.records:
            k = len(rec.phonemes)
            assert 2 * k <= rec.num_frames <= 4 * k

    def test_zero_noise_equal_lengths_identical_tokens(self):
        # frames range [2, 2] pins every per-phoneme length, so all tokens of
        # a word must coincide and show 2-frame constant blocks
        ds = generate_synthetic(4, 3, 3, (2, 3), 2, (2, 2), 0.0, seed=4)
        by_word = {}
        for rec in ds.records:
            by_word.setdefault(rec.word, []).append(rec)
        for recs in by_word.values():
            k = len(recs[0].phonemes)
            for rec in recs:
                assert rec.num_frames == 2 * k
                npt.assert_array_equal(rec.features, recs[0].features)
                for block in range(k):
                    npt.assert_array_equal(rec.features[2 * block], rec.features[2 * block + 1])

    def test_split_by_token_index(self):
        ds = generate_synthetic(5, 2, 5, (2, 2), 3, (1, 1), 0.1, seed=0)
        for rec in ds.records:
            token = int(rec.id.rsplit("_t", 1)[1])
            assert rec.split == ("train" if token < 3 else "test")

    def test_distinct_words(self):
        ds = generate_synthetic(6, 12, 1, (2, 3), 2, (1, 1), 0.0, seed=1)
        strings = {tuple(rec.phonemes) for rec in ds.records}
        assert len(strings) == 12

    def test_too_many_words_rejected(self):
        with pytest.raises(GenerationError):
            generate_synthetic(2, 3, 1, (1, 1), 2, (1, 1), 0.0, seed=0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(GenerationError):
            generate_synthetic(1, 2, 1, (1, 1), 2, (1, 1), 0.0, seed=0)
        with pytest.raises(GenerationError):
            generate_synthetic(3, 2, 1, (2, 1), 2, (1, 1), 0.0, seed=0)
        with pytest.raises(GenerationError):
            generate_synthetic(3, 2, 1, (1, 1), 2, (1, 1), -0.5, seed=0)
        with pytest.raises(GenerationError, match="noise_sigma"):
            generate_synthetic(3, 2, 1, (1, 1), 2, (1, 1), float("nan"), seed=0)

    def test_invariants_over_random_seeds(self):
        rng = np.random.default_rng(77)
        for _ in range(6):
            seed = int(rng.integers(0, 10_000))
            ds = generate_synthetic(4, 5, 2, (1, 3), 3, (1, 2), 0.3, seed=seed)
            ids = set()
            for rec in ds.records:
                assert rec.id not in ids
                ids.add(rec.id)
                assert rec.dim == 3 and rec.num_frames >= 1
                assert np.isfinite(rec.features).all()
                assert rec.phonemes
