"""CLI surface tests: every subcommand, exit codes, determinism."""
import argparse
import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import data_oracle
import naive_oracle
import retrieval_oracle
from seqembed import blas, cli, data, retrieval
from seqembed.autoencoder import (
    TrainConfig,
    encode_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from seqembed.baselines import naive_encode
from seqembed.cli import build_parser, main
from seqembed.data import (
    Dataset,
    SegmentRecord,
    generate_synthetic,
    load_feature_file,
    parse_manifest,
    read_manifest,
    write_feature_csv,
    write_manifest,
)
from seqembed.evaluation import mean_average_precision, write_comparison, write_map_report
from seqembed.retrieval import build_archive, cosine_matrix, dtw_matrix


def run(capsys, *argv):
    capsys.readouterr()  # drain anything printed by setup calls
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    code = main([
        "synth", "--out-dir", str(out), "--seed", "3",
        "--alphabet", "6", "--words", "5", "--tokens", "4",
        "--phonemes-min", "2", "--phonemes-max", "3",
        "--dim", "5", "--frames-min", "1", "--frames-max", "2",
        "--noise", "0.05",
    ])
    assert code == 0
    return out


def fixture_manifest(tmp_path, vectors, words, split="test"):
    records = [
        SegmentRecord(
            id=f"q{i}",
            word=words[i],
            phonemes=None,
            split=split,
            features=np.asarray([vec], dtype=float),
        )
        for i, vec in enumerate(vectors)
    ]
    return write_manifest(Dataset.from_records(records), tmp_path / "fixture.jsonl")


class TestSynth:
    def test_record_count_and_roundtrip(self, corpus_dir):
        ds = parse_manifest(corpus_dir / "manifest.jsonl")
        assert len(ds.records) == 20  # 5 words x 4 tokens
        assert ds.dim == 5
        assert len(ds.subset("train")) == 10 and len(ds.subset("test")) == 10

    def test_rerun_is_byte_identical(self, tmp_path, corpus_dir):
        other = tmp_path / "again"
        assert main([
            "synth", "--out-dir", str(other), "--seed", "3",
            "--alphabet", "6", "--words", "5", "--tokens", "4",
            "--phonemes-min", "2", "--phonemes-max", "3",
            "--dim", "5", "--frames-min", "1", "--frames-max", "2",
            "--noise", "0.05",
        ]) == 0
        for path in sorted(corpus_dir.rglob("*")):
            if path.is_file():
                twin = other / path.relative_to(corpus_dir)
                assert twin.read_bytes() == path.read_bytes()

    def test_word_and_token_arithmetic(self, tmp_path, capsys):
        out = tmp_path / "big"
        code, stdout, _ = run(
            capsys, "synth", "--out-dir", str(out), "--seed", "1",
            "--words", "6", "--tokens", "3", "--dim", "2",
            "--phonemes-min", "1", "--phonemes-max", "2",
            "--frames-min", "1", "--frames-max", "1",
        )
        assert code == 0 and "wrote 18 records" in stdout


class TestTrain:
    def test_sa_mode_records_zero_denoise(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "sa.json"
        code, _, _ = run(
            capsys, "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--out", str(ckpt), "--mode", "sa", "--seed", "7",
            "--hidden", "4", "--epochs", "2", "--lr", "0.05",
        )
        assert code == 0
        payload = json.loads(ckpt.read_text())
        assert payload["train"] == {"denoise_p": 0.0, "lr": 0.05, "clip_norm": 5.0}
        assert payload["epochs"] == 2
        assert (tmp_path / "sa.json.loss.csv").read_text().startswith("epoch,mean_loss\n")

    def test_dsa_mode_records_default_denoise(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "dsa.json"
        code, _, _ = run(
            capsys, "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--out", str(ckpt), "--mode", "dsa", "--seed", "7",
            "--hidden", "4", "--epochs", "1", "--lr", "0.05",
        )
        assert code == 0
        assert json.loads(ckpt.read_text())["train"]["denoise_p"] == 0.3

    def test_zero_epochs_equals_initialization(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "init.json"
        code, _, _ = run(
            capsys, "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--out", str(ckpt), "--seed", "11", "--hidden", "3", "--epochs", "0",
        )
        assert code == 0
        loaded = load_checkpoint(ckpt)
        fresh = init_params(5, 3, seed=11)
        assert np.array_equal(loaded.flat, fresh.flat)

    def test_divergence_exit_code(self, corpus_dir, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(
                capsys, "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--out", str(tmp_path / "x.json"), "--seed", "0",
                "--hidden", "4", "--epochs", "50", "--lr", "1e12", "--no-clip",
            )
        assert code == 4
        assert "epoch" in err

    def test_missing_manifest_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--manifest", str(tmp_path / "nope.jsonl"),
            "--out", str(tmp_path / "x.json"), "--seed", "0",
        )
        assert code == 3 and "manifest" in err

    def test_wrong_manifest_type_exit_code(self, corpus_dir, capsys):
        manifest = corpus_dir / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[-1] = json.dumps(dict(json.loads(lines[-1]), word=7))  # a test-split record
        manifest.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "evaluate", "--manifest", str(manifest), "--method", "ne4")
        assert code == 3 and out == ""
        assert f"{manifest}: line {len(lines)}: field 'word' must be a string, got int" in err

    def test_lone_surrogate_exit_code(self, corpus_dir, tmp_path, capsys):
        manifest = corpus_dir / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[0] = json.dumps(dict(json.loads(lines[0]), id="a\ud800"))
        manifest.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ne.csv"
        code, _, err = run(capsys, "encode", "--manifest", str(manifest), "--encoder", "ne",
                           "--m", "1", "--out", str(out), "--split", "all")
        assert code == 3
        assert f"{manifest}: line 1: field 'id' holds a lone surrogate" in err
        assert list(tmp_path.iterdir()) == [corpus_dir]

    @pytest.mark.parametrize("target", ["manifest", "features"])
    def test_byte_not_utf8_exit_code(self, corpus_dir, tmp_path, capsys, target):
        manifest = corpus_dir / "manifest.jsonl"
        if target == "manifest":
            bad, where = manifest, "line 1"
        else:
            bad, where = corpus_dir / json.loads(manifest.read_text().splitlines()[0])["features"], "row 0"
        bad.write_bytes(b"\xff" + bad.read_bytes())
        out = tmp_path / "ne.csv"
        code, _, err = run(capsys, "encode", "--manifest", str(manifest), "--encoder", "ne",
                           "--m", "1", "--out", str(out), "--split", "all")
        assert code == 3
        assert f"{bad}: {where}: byte 0xff is not valid UTF-8" in err
        assert list(tmp_path.iterdir()) == [corpus_dir]

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--manifest", "m.jsonl"])  # --out and --seed missing
        assert exc.value.code == 2
        capsys.readouterr()

    def test_no_clip_recorded_as_null(self, corpus_dir, tmp_path, capsys):
        ckpt = tmp_path / "nc.json"
        code, _, _ = run(
            capsys, "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--out", str(ckpt), "--seed", "7", "--hidden", "3", "--epochs", "1",
            "--lr", "0.05", "--no-clip", "--denoise", "0.2", "--loss-log", str(tmp_path / "l.csv"),
        )
        assert code == 0
        assert json.loads(ckpt.read_text())["train"] == {
            "denoise_p": 0.2, "lr": 0.05, "clip_norm": None,
        }
        assert (tmp_path / "l.csv").read_text().startswith("epoch,mean_loss\n1,")
        assert not (tmp_path / "nc.json.loss.csv").exists()

    def test_negative_seed_is_usage_error(self, corpus_dir, tmp_path, capsys):
        for argv in (
            ["train", "--manifest", str(corpus_dir / "manifest.jsonl"),
             "--out", str(tmp_path / "x.json"), "--epochs", "0", "--seed", "-1"],
            ["synth", "--out-dir", str(tmp_path / "synth"), "--seed", "-1"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "synth").exists()


@pytest.mark.parametrize("case", ["train --out", "train --loss-log", "train --out dir",
                                  "encode --out", "encode --out dir", "evaluate --report-dir",
                                  "evaluate --out", "evaluate --out dir", "evaluate no inputs",
                                  "edit-distance no inputs", "diff-vectors no inputs",
                                  "synth --out-dir"])
def test_unwritable_output_exit_code(corpus_dir, tmp_path, capsys, case):
    manifest, nodir, afile = str(corpus_dir / "manifest.jsonl"), tmp_path / "nodir", tmp_path / "f"
    afile.write_text("kept\n")
    (tmp_path / "adir").mkdir()
    train = ["train", "--manifest", manifest, "--seed", "0", "--hidden", "3", "--epochs", "1"]
    path, argv = {
        "train --out": (nodir / "m.json", [*train, "--out", str(nodir / "m.json")]),
        "train --loss-log": (nodir / "l.csv", [*train, "--out", str(tmp_path / "m.json"),
                                               "--loss-log", str(nodir / "l.csv")]),
        "train --out dir": (tmp_path / "adir", [*train, "--out", str(tmp_path / "adir")]),
        "encode --out": (nodir / "a.csv", ["encode", "--manifest", manifest, "--encoder", "ne",
                                           "--m", "2", "--out", str(nodir / "a.csv")]),
        # checked before the manifest is read, so its absence is never found
        "encode --out dir": (tmp_path / "adir", ["encode", "--manifest", str(nodir / "m.jsonl"),
                                                 "--encoder", "ne", "--m", "2",
                                                 "--out", str(tmp_path / "adir")]),
        "evaluate --report-dir": (afile, ["evaluate", "--manifest", manifest, "--method", "ne2",
                                          "--report-dir", str(afile)]),
        "evaluate --out": (nodir / "cmp.csv", ["evaluate", "--manifest", manifest, "--method", "ne2",
                                               "--method", "dtw", "--report-dir", str(tmp_path),
                                               "--out", str(nodir / "cmp.csv")]),
        "evaluate --out dir": (tmp_path / "adir", ["evaluate", "--manifest", manifest,
                                                   "--method", "ne2", "--report-dir",
                                                   str(tmp_path), "--out", str(tmp_path / "adir")]),
        # checked before any input is read, so their absence is never found
        "evaluate no inputs": (nodir / "c.csv", ["evaluate", "--manifest", str(nodir / "m.jsonl"),
                                                 "--method", f"sa={nodir / 'm.json'}",
                                                 "--report-dir", str(tmp_path),
                                                 "--out", str(nodir / "c.csv")]),
        "edit-distance no inputs": (nodir / "t.csv", ["analyze", "edit-distance",
                                                      "--archive", str(nodir / "a.csv"),
                                                      "--manifest", str(nodir / "m.jsonl"),
                                                      "--out", str(nodir / "t.csv")]),
        "diff-vectors no inputs": (nodir / "t.csv", ["analyze", "diff-vectors",
                                                     "--archive", str(nodir / "a.csv"),
                                                     "--pairs", "w000:w001",
                                                     "--out", str(nodir / "t.csv")]),
        "synth --out-dir": (afile / "x", ["synth", "--out-dir", str(afile / "x"), "--seed", "0"]),
    }[case]
    code, _, err = run(capsys, *argv)
    assert code == 3 and f"cannot write {path}" in err
    assert afile.read_text() == "kept\n"
    assert not list(tmp_path.rglob("*.tmp"))
    if case == "train --loss-log":  # checked before training, so nothing was written
        assert not (tmp_path / "m.json").exists()
    if case == "evaluate --out":  # checked before scoring, so no report was written
        assert not list(tmp_path.glob("per_query_*.csv"))
    if case.endswith(" dir"):  # checked before any work, so nothing was written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "corpus", "f"]
        assert not list((tmp_path / "adir").iterdir())
        assert f"cannot write {path}: Is a directory" in err


@pytest.mark.parametrize("case", ["train --out", "train --loss-log", "encode --out",
                                  "encode --checkpoint", "evaluate --out", "evaluate --report-dir",
                                  "evaluate --method", "edit-distance --out", "diff-vectors --out",
                                  "train --loss-log, bad --out dir",
                                  "evaluate --method, bad --out dir"])
def test_output_that_names_an_input_or_output_is_usage_error(corpus_dir, trained, tmp_path,
                                                             capsys, case):
    manifest, ckpt = str(corpus_dir / "manifest.jsonl"), str(trained)
    same = str(corpus_dir / ".." / "corpus" / "manifest.jsonl")  # the manifest, spelled apart
    archive = str(tmp_path / "arch.csv")
    assert main(["encode", "--manifest", manifest, "--encoder", "ne", "--m", "1",
                 "--out", archive]) == 0
    report_ckpt = shutil.copy(trained, tmp_path / "per_query_sa.csv")
    train = ["train", "--manifest", manifest, "--seed", "0", "--hidden", "3", "--epochs", "1"]
    evaluate = ["evaluate", "--manifest", manifest, "--report-dir", str(tmp_path)]
    argv, options = {
        "train --out": ([*train, "--out", same], "--out and --manifest"),
        "train --loss-log": ([*train, "--out", ckpt, "--loss-log", ckpt], "--loss-log and --out"),
        "encode --out": (["encode", "--manifest", manifest, "--encoder", "ne", "--m", "2",
                          "--out", same], "--out and --manifest"),
        "encode --checkpoint": (["encode", "--manifest", manifest, "--checkpoint", ckpt,
                                 "--out", ckpt], "--out and --checkpoint"),
        "evaluate --out": ([*evaluate, "--method", "ne2", "--out", same], "--out and --manifest"),
        "evaluate --report-dir": ([*evaluate, "--method", "ne2",
                                   "--out", str(tmp_path / "per_query_ne2.csv")],
                                  "--report-dir and --out"),
        "evaluate --method": ([*evaluate, "--method", f"sa={report_ckpt}"],
                              "--report-dir and --method sa"),
        "edit-distance --out": (["analyze", "edit-distance", "--archive", archive,
                                 "--manifest", manifest, "--out", archive], "--out and --archive"),
        "diff-vectors --out": (["analyze", "diff-vectors", "--archive", archive,
                                "--pairs", "w000:w001", "--out", archive], "--out and --archive"),
        # every output is checked for a name clash before any for its directory
        "train --loss-log, bad --out dir": ([*train, "--out", str(tmp_path / "nodir" / "m.json"),
                                             "--loss-log", same], "--loss-log and --manifest"),
        "evaluate --method, bad --out dir": ([*evaluate, "--method", f"sa={report_ckpt}",
                                              "--out", str(tmp_path / "nodir" / "c.csv")],
                                             "--report-dir and --method sa"),
    }[case]
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"{options} name the same file" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("case", ["train --out", "train --loss-log", "encode --out",
                                  "evaluate --out", "evaluate --report-dir",
                                  "edit-distance --out"])
def test_output_that_is_a_feature_file_of_the_manifest_is_usage_error(corpus_dir, tmp_path,
                                                                      capsys, case):
    manifest = str(corpus_dir / "manifest.jsonl")
    entries = read_manifest(manifest)
    train, test = (next(e for e in entries if e.split == split) for split in ("train", "test"))
    archive = str(tmp_path / "arch.csv")
    assert main(["encode", "--manifest", manifest, "--encoder", "ne", "--m", "1",
                 "--out", archive]) == 0
    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "per_query_ne2.csv").symlink_to(train.path)  # resolves to a feature file
    spelled_apart = str(corpus_dir / ".." / "corpus" / "features" / train.path.name)
    training = ["train", "--manifest", manifest, "--seed", "0", "--hidden", "3", "--epochs", "1"]
    evaluate = ["evaluate", "--manifest", manifest, "--method", "ne2", "--split", "test"]
    argv, option, entry = {
        # the train split reads no test file, yet may not write one
        "train --out": ([*training, "--out", str(test.path)], "--out", test),
        "train --loss-log": ([*training, "--out", str(tmp_path / "m.json"),
                              "--loss-log", spelled_apart], "--loss-log", train),
        "encode --out": (["encode", "--manifest", manifest, "--encoder", "ne", "--m", "2",
                          "--out", str(train.path)], "--out", train),
        "evaluate --out": ([*evaluate, "--report-dir", str(tmp_path), "--out", str(test.path)],
                           "--out", test),
        "evaluate --report-dir": ([*evaluate, "--report-dir", str(reports)], "--report-dir",
                                  train),
        "edit-distance --out": (["analyze", "edit-distance", "--archive", archive,
                                 "--manifest", manifest, "--out", str(test.path)], "--out", test),
    }[case]
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert (f"{option} and --manifest record '{entry.id}' name the same file"
            in capsys.readouterr().err)
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_unwritable_feature_file_exit_code(tmp_path, capsys, fmt):
    target = tmp_path / "out" / "features" / f"w000_t00.{fmt}"
    target.mkdir(parents=True)  # a directory where the first feature file goes
    code, _, err = run(capsys, "synth", "--out-dir", str(tmp_path / "out"), "--seed", "0",
                       "--format", fmt)
    assert code == 3 and f"cannot write {target}: " in err and "Traceback" not in err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["features"]


def test_train_defaults_are_the_train_config_defaults():
    args = build_parser().parse_args(["train", "--manifest", "m", "--out", "o", "--seed", "0"])
    defaults = {f.name: f.default for f in dataclasses.fields(TrainConfig)}
    assert (args.lr, args.epochs, args.clip) == (
        defaults["lr"], defaults["epochs"], defaults["clip_norm"])


@pytest.fixture
def trained(corpus_dir, tmp_path):
    ckpt = tmp_path / "model.json"
    assert main([
        "train", "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--out", str(ckpt), "--seed", "5", "--hidden", "4",
        "--epochs", "2", "--lr", "0.05",
    ]) == 0
    return ckpt


class TestEncode:
    def test_model_archive_width(self, corpus_dir, trained, tmp_path, capsys):
        out = tmp_path / "arch.csv"
        code, _, _ = run(
            capsys, "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(out),
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header == ["id", "word"] + [f"z{i}" for i in range(4)]

    def test_naive_encoder_width_52_on_13dim(self, tmp_path, capsys):
        synth = tmp_path / "wide"
        assert main([
            "synth", "--out-dir", str(synth), "--seed", "2", "--words", "3",
            "--tokens", "2", "--dim", "13", "--phonemes-min", "2",
            "--phonemes-max", "2", "--frames-min", "2", "--frames-max", "3",
        ]) == 0
        out = tmp_path / "ne.csv"
        code, _, _ = run(
            capsys, "encode", "--manifest", str(synth / "manifest.jsonl"),
            "--encoder", "ne", "--m", "4", "--out", str(out), "--split", "all",
        )
        assert code == 0
        header = out.read_text().splitlines()[0].split(",")
        assert len(header) == 2 + 52

    def test_rerun_byte_identical(self, corpus_dir, trained, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--checkpoint", str(trained), "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [["--encoder", "ne"], ["--encoder", "model"]])
    def test_usage_checked_before_reading_manifest(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["encode", "--manifest", str(tmp_path / "missing.jsonl"),
                  "--out", str(tmp_path / "x.csv"), *argv])
        assert exc.value.code == 2
        assert "requires" in capsys.readouterr().err

    def test_checkpoint_data_mismatch(self, trained, tmp_path, capsys):
        synth = tmp_path / "other"
        assert main([
            "synth", "--out-dir", str(synth), "--seed", "2", "--words", "2",
            "--tokens", "2", "--dim", "3", "--phonemes-min", "1",
            "--phonemes-max", "1", "--frames-min", "1", "--frames-max", "1",
        ]) == 0
        code, _, err = run(
            capsys, "encode", "--manifest", str(synth / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3 and "width" in err

    def test_checkpoint_with_an_unknown_parameter_exits_3(self, corpus_dir, trained, tmp_path, capsys):
        # the unknown key is refused before any array is read: output.b is not numeric either
        payload = json.loads(trained.read_text())
        payload["params"].update({"bogus": [1.0], "output.b": "x"})
        ckpt = tmp_path / "bogus.json"
        ckpt.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(ckpt), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3 and f"{ckpt}: checkpoint has unknown parameter 'bogus'" in err
        assert not (tmp_path / "x.csv").exists()


class TestSearch:
    def test_self_exclusion_and_top(self, corpus_dir, trained, tmp_path, capsys):
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(arch),
        ]) == 0
        query = parse_manifest(corpus_dir / "manifest.jsonl").subset("test")[0].id
        code, stdout, _ = run(
            capsys, "search", "--archive", str(arch), "--query-id", query, "--top", "5",
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "rank,id,word,score"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5
        assert all(row[1] != query for row in rows)
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]

    def test_unknown_query_id(self, corpus_dir, trained, tmp_path, capsys):
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(arch),
        ]) == 0
        code, _, err = run(capsys, "search", "--archive", str(arch), "--query-id", "ghost")
        assert code == 3 and "ghost" in err

    def test_rows_with_commas_are_quoted(self, tmp_path, capsys):
        words = ["new, york", "new, york", "boston"]
        manifest = fixture_manifest(tmp_path, [[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], words)
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(manifest), "--encoder", "ne", "--m", "1",
            "--out", str(arch),
        ]) == 0
        for argv in (
            ["--archive", str(arch)],
            ["--method", "dtw", "--manifest", str(manifest)],
        ):
            code, stdout, _ = run(capsys, "search", *argv, "--query-id", "q0", "--top", "2")
            assert code == 0
            rows = list(csv.reader(stdout.splitlines()))
            assert rows[0] == ["rank", "id", "word", "score"]
            want = [["1", "q1", "new, york"], ["2", "q2", "boston"]]
            assert [row[:3] for row in rows[1:]] == want
            assert all(len(row) == 4 for row in rows)
        lines = stdout.splitlines()
        assert lines[1] == f'1,q1,"new, york",{rows[1][3]}'
        # a row that needs no quoting is written exactly as before
        assert lines[2] == f"2,q2,boston,{rows[2][3]}"

    def test_usage_checked_before_reading_files(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        for argv in (
            ["--archive", missing, "--query-features", missing],
            ["--method", "dtw", "--query-id", "q0"],
            ["--checkpoint", missing, "--query-id", "q0"],
            ["--archive", missing, "--query-id", "q0", "--query-features", missing],
            ["--checkpoint", missing, "--manifest", missing, "--query-id", "q0",
             "--query-features", missing],
            ["--method", "dtw", "--manifest", missing, "--query-id", "q0",
             "--query-features", missing],
        ):
            with pytest.raises(SystemExit) as exc:
                main(["search", *argv])
            assert exc.value.code == 2, argv
        capsys.readouterr()

    def test_dtw_search_finds_identical_segment(self, corpus_dir, capsys):
        ds = parse_manifest(corpus_dir / "manifest.jsonl")
        target = ds.subset("test")[2]
        query_file = corpus_dir / "query.csv"
        from seqembed.data import write_feature_csv

        write_feature_csv(query_file, target.features)
        code, stdout, _ = run(
            capsys, "search", "--method", "dtw",
            "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--query-features", str(query_file), "--top", "3",
        )
        assert code == 0
        first = stdout.strip().splitlines()[1].split(",")
        assert first[1] == target.id
        assert float(first[3]) == 0.0


@pytest.mark.parametrize("command", ["search", "edit-distance", "diff-vectors"])
def test_archive_byte_not_utf8_exit_code(corpus_dir, tmp_path, capsys, command):
    manifest, archive = str(corpus_dir / "manifest.jsonl"), tmp_path / "arch.csv"
    assert main(["encode", "--manifest", manifest, "--encoder", "ne", "--m", "1",
                 "--out", str(archive)]) == 0
    lines = archive.read_bytes().split(b"\n")
    query = lines[1].split(b",")[0].decode()
    lines[2] = lines[2][:1] + b"\xf8" + lines[2][2:]
    archive.write_bytes(b"\n".join(lines))
    argv = {
        "search": ["search", "--archive", str(archive), "--query-id", query],
        "edit-distance": ["analyze", "edit-distance", "--archive", str(archive),
                          "--manifest", manifest],
        "diff-vectors": ["analyze", "diff-vectors", "--archive", str(archive),
                         "--pairs", "w000:w001"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert f"{archive}: line 3: byte 0xf8 is not valid UTF-8" in err


@pytest.mark.parametrize("name, method", [("nope.csv", "cosine"), ("nope.bin", "cosine"),
                                          ("", "cosine"), ("nope.csv", "dtw")])
def test_missing_query_features_exit_code(corpus_dir, trained, tmp_path, capsys, name, method):
    query = tmp_path / name  # "" names tmp_path itself, a directory
    source = ["--checkpoint", str(trained)] if method == "cosine" else []
    code, out, err = run(capsys, "search", "--method", method, *source,
                         "--manifest", str(corpus_dir / "manifest.jsonl"),
                         "--query-features", str(query))
    assert code == 3 and out == ""
    assert f"feature file not found: {query}" in err


@pytest.mark.parametrize("method", ["cosine", "dtw"])
def test_query_features_of_another_width_exit_code(corpus_dir, trained, tmp_path, capsys, method):
    query = tmp_path / "narrow.csv"
    write_feature_csv(query, np.ones((2, 3)))  # the corpus is 5 wide
    source = ["--checkpoint", str(trained)] if method == "cosine" else []
    code, out, err = run(capsys, "search", "--method", method, *source,
                         "--manifest", str(corpus_dir / "manifest.jsonl"),
                         "--query-features", str(query))
    assert code == 3 and out == ""
    assert f"{query}: query frames of width 3, the records' width is 5" in err


class TestEvaluate:
    def test_hand_fixture_map(self, tmp_path, capsys):
        manifest = fixture_manifest(
            tmp_path,
            [[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.0, 1.0]],
            ["a", "a", "b", "b"],
        )
        code, stdout, _ = run(
            capsys, "evaluate", "--manifest", str(manifest), "--method", "ne1",
            "--report-dir", str(tmp_path / "reports"),
        )
        assert code == 0
        assert "MAP = 0.75" in stdout
        report = (tmp_path / "reports" / "per_query_ne1.csv").read_text().splitlines()
        assert report[0] == "query_id,word,num_relevant,ap"
        assert len(report) == 5

    def test_all_unique_words_exit(self, tmp_path, capsys):
        manifest = fixture_manifest(
            tmp_path, [[1.0, 0.0], [0.0, 1.0]], ["only", "single"]
        )
        code, stdout, _ = run(
            capsys, "evaluate", "--manifest", str(manifest), "--method", "ne1",
            "--report-dir", str(tmp_path / "reports"),
        )
        assert code == 3
        assert "no scorable queries" in stdout

    def test_multi_method_comparison_csv(self, corpus_dir, trained, tmp_path, capsys):
        out = tmp_path / "compare.csv"
        code, _, _ = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--method", f"sa={trained}", "--method", "ne1", "--method", "ne2",
            "--method", "dtw",
            "--report-dir", str(tmp_path / "reports"), "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,map"
        assert [line.split(",")[0] for line in lines[1:]] == ["sa", "ne1", "ne2", "dtw"]
        for label in ("sa", "ne1", "ne2", "dtw"):
            assert (tmp_path / "reports" / f"per_query_{label}.csv").is_file()

    def test_timings_on_stderr_leave_stdout_and_reports_alone(
        self, corpus_dir, trained, tmp_path, capsys
    ):
        manifest = corpus_dir / "manifest.jsonl"
        reports, out = tmp_path / "reports", tmp_path / "compare.csv"
        code, stdout, err = run(
            capsys, "evaluate", "--manifest", str(manifest), "--method", f"sa={trained}",
            "--method", "ne2", "--method", "dtw", "--report-dir", str(reports), "--out", str(out),
        )
        assert code == 0
        timing = r"(\w+): encode \d+\.\d{3} s, score \d+\.\d{3} s, MAP \d+\.\d{3} s"
        read, *methods = err.splitlines()
        assert re.fullmatch(r"evaluate: read \d+\.\d{3} s", read)
        assert [re.fullmatch(timing, line)[1] for line in methods] == ["sa", "ne2", "dtw"]
        # the library path writes the same reports and prints the same lines
        records = parse_manifest(manifest).subset("test")
        params = load_checkpoint(trained)
        matrices = {
            "sa": cosine_matrix(build_archive(lambda xs: encode_batch(params, xs), records)),
            "ne2": cosine_matrix(build_archive(
                lambda xs: np.array([naive_encode(x, 2) for x in xs]), records)),
            "dtw": dtw_matrix(records),
        }
        want_dir, results, lines = tmp_path / "want", [], []
        want_dir.mkdir()
        for label, scores in matrices.items():
            report = mean_average_precision(scores, records)
            write_map_report(report.rows, want_dir / f"per_query_{label}.csv")
            assert ((reports / f"per_query_{label}.csv").read_bytes()
                    == (want_dir / f"per_query_{label}.csv").read_bytes())
            results.append((label, report.mean_ap))
            scorable = len(report.rows) - report.num_excluded
            lines.append(f"{label}: MAP = {report.mean_ap!r} over {scorable} queries"
                         f" ({report.num_excluded} excluded)")
        write_comparison(results, want_dir / "compare.csv")
        assert out.read_bytes() == (want_dir / "compare.csv").read_bytes()
        assert stdout.splitlines() == [*lines, f"comparison: {out}"]

    def test_bad_method_token(self, corpus_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--method", "bogus",
            ])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("token", ["ne\u0663", "ne\uff14"])
    def test_naive_method_takes_ascii_digits_only(self, corpus_dir, tmp_path, capsys, token):
        # an Arabic-Indic three and a fullwidth four, which int() reads as 3 and 4
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"), "--method", token,
                  "--report-dir", str(tmp_path / "reports")])
        assert exc.value.code == 2
        assert f"unknown method '{token}'" in capsys.readouterr().err
        assert not (tmp_path / "reports").exists()

    def test_unloadable_checkpoint_stops_before_scoring(self, corpus_dir, tmp_path, capsys):
        reports = tmp_path / "reports"
        code, stdout, err = run(
            capsys, "evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--method", "dtw", "--method", f"sa={tmp_path / 'missing.json'}",
            "--report-dir", str(reports), "--out", str(tmp_path / "compare.csv"),
        )
        assert code == 3 and "missing.json" in err
        assert stdout == ""
        assert not list(tmp_path.rglob("per_query_*.csv"))
        assert not (tmp_path / "compare.csv").exists()

    @pytest.mark.parametrize("label", ["a/b", "a\\b", "..", ".", "../x"])
    def test_label_that_names_a_path_rejected(self, corpus_dir, tmp_path, capsys, label):
        reports = tmp_path / "reports"
        with pytest.raises(SystemExit) as exc:
            main([
                "evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"),
                "--method", f"{label}=model.json", "--report-dir", str(reports),
            ])
        assert exc.value.code == 2
        assert "label" in capsys.readouterr().err
        assert not reports.exists()


    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path, capsys):
        # OpenBLAS reads its thread count when numpy is imported, so each
        # count needs a fresh process; the seed-11 corpus and an H=32 model
        # are the acceptance scale, where a threaded BLAS call would split
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(corpus), "--seed", "11",
                     "--frames-min", "3", "--frames-max", "5"]) == 0
        manifest = str(corpus / "manifest.jsonl")
        assert len(parse_manifest(manifest).subset("test")) == 280
        params = init_params(8, 32, seed=5)
        params.flat += np.random.default_rng(5).uniform(-0.5, 0.5, size=params.flat.shape)
        checkpoint = str(tmp_path / "model.json")
        save_checkpoint(params, checkpoint)
        capsys.readouterr()
        script = (
            "import sys\n"
            "from seqembed.cli import main\n"
            "manifest, checkpoint, out = sys.argv[1:]\n"
            "assert main(['encode', '--manifest', manifest, '--checkpoint', checkpoint,\n"
            "             '--out', out + '/archive.csv']) == 0\n"
            "assert main(['evaluate', '--manifest', manifest, '--method', 'sa=' + checkpoint,\n"
            "             '--method', 'ne4', '--method', 'dtw', '--report-dir', out,\n"
            "             '--out', out + '/comparison.csv']) == 0\n"
        )
        src = str(Path(__import__("seqembed").__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            child = subprocess.run([sys.executable, "-c", script, manifest, checkpoint, str(out)],
                                   env=env, capture_output=True, text=True, timeout=300)
            assert child.returncode == 0, child.stderr
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["archive.csv", "comparison.csv", "per_query_dtw.csv",
                                      "per_query_ne4.csv", "per_query_sa.csv"]
        assert outputs[0] == outputs[1]


class TestKernelsKeepTheBytes:
    """The whole-array kernels against the per-item loops they replaced, end
    to end: every output file and every stdout line is the same."""

    ORACLES = [(data, "_read_csv_features", data_oracle.read_csv_features),
               (cli, "naive_encode_batch", naive_oracle.naive_encode_batch),
               (cli, "mean_average_precision", retrieval_oracle.map_from_scores),
               (cli, "similarity_table", retrieval_oracle.similarity_table),
               (retrieval, "order_by_score", retrieval_oracle.order_by_score)]

    def outputs(self, root, capsys):
        manifest = root / "corpus" / "manifest.jsonl"
        out, ckpt = root / "out", str(root / "model.json")
        shutil.rmtree(out, ignore_errors=True)
        query = "w001_t04"  # a test record
        commands = [
            ["evaluate", "--manifest", str(manifest), "--method", f"sa={ckpt}", "--method", "ne4",
             "--method", "dtw", "--report-dir", str(out / "reports"),
             "--out", str(out / "comparison.csv")],
            ["encode", "--manifest", str(manifest), "--encoder", "ne", "--m", "4",
             "--out", str(out / "ne4.csv")],
            ["encode", "--manifest", str(manifest), "--checkpoint", ckpt, "--out", str(out / "sa.csv")],
            ["analyze", "edit-distance", "--archive", str(out / "sa.csv"), "--manifest", str(manifest),
             "--out", str(out / "table.csv")],
            ["analyze", "edit-distance", "--archive", str(out / "ne4.csv"), "--manifest", str(manifest),
             "--max-bucket", "2"],
            ["search", "--archive", str(out / "ne4.csv"), "--query-id", query, "--top", "30"],
            ["search", "--checkpoint", ckpt, "--manifest", str(manifest), "--query-features",
             str(manifest.parent / "features" / f"{query}.csv")],
            ["search", "--method", "dtw", "--manifest", str(manifest), "--query-id", query],
        ]
        stdout = [run(capsys, *argv)[:2] for argv in commands]
        files = {str(path.relative_to(out)): path.read_bytes()
                 for path in sorted(out.rglob("*")) if path.is_file()}
        return stdout, files

    def test_outputs_equal_those_of_the_per_item_loops(self, tmp_path, monkeypatch, capsys):
        assert main(["synth", "--out-dir", str(tmp_path / "corpus"), "--seed", "4",
                     "--alphabet", "5", "--words", "8", "--tokens", "6", "--phonemes-min", "1",
                     "--phonemes-max", "4", "--dim", "3", "--frames-min", "1",
                     "--frames-max", "3"]) == 0
        save_checkpoint(init_params(3, 4, seed=1), tmp_path / "model.json")
        shipped = self.outputs(tmp_path, capsys)
        called = set()
        for module, name, oracle in self.ORACLES:
            def traced(*args, name=name, oracle=oracle, **kwargs):
                called.add(name)
                return oracle(*args, **kwargs)
            monkeypatch.setattr(module, name, traced)
        assert self.outputs(tmp_path, capsys) == shipped
        assert called == {name for _, name, _ in self.ORACLES}
        assert [code for code, _ in shipped[0]] == [0] * 8
        assert len(shipped[1]) == 7


class TestAnalyze:
    def test_edit_distance_table(self, corpus_dir, trained, tmp_path, capsys):
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(arch),
        ]) == 0
        out = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "analyze", "edit-distance", "--archive", str(arch),
            "--manifest", str(corpus_dir / "manifest.jsonl"), "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "edit_distance,pair_count,mean_cosine"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4", "5+"]
        total_pairs = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total_pairs == 10 * 9 // 2

    def test_diff_vectors_same_word_is_zero(self, corpus_dir, trained, tmp_path, capsys):
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(arch),
        ]) == 0
        ds = parse_manifest(corpus_dir / "manifest.jsonl")
        word = ds.subset("test")[0].word
        out = tmp_path / "diffs.csv"
        code, _, _ = run(
            capsys, "analyze", "diff-vectors", "--archive", str(arch),
            "--pairs", f"{word}:{word}", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("pair,dx0")
        row = lines[1].split(",")
        assert row[0] == f"{word}:{word}"
        assert all(float(v) == 0.0 for v in row[1:])

    def test_import_does_not_load_scipy(self):
        src = str(Path(__import__("seqembed").__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-c", "import seqembed.cli, sys; assert 'scipy' not in sys.modules"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr

    def test_unknown_pair_word(self, corpus_dir, trained, tmp_path, capsys):
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(corpus_dir / "manifest.jsonl"),
            "--checkpoint", str(trained), "--out", str(arch),
        ]) == 0
        code, _, err = run(
            capsys, "analyze", "diff-vectors", "--archive", str(arch),
            "--pairs", "ghost:w000",
        )
        assert code == 3 and "ghost" in err

    def test_diff_vectors_pair_with_comma_in_word(self, tmp_path, capsys):
        words = ["new, york", "new, york", "boston"]
        manifest = fixture_manifest(tmp_path, [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], words)
        arch = tmp_path / "arch.csv"
        assert main([
            "encode", "--manifest", str(manifest), "--encoder", "ne", "--m", "1",
            "--out", str(arch),
        ]) == 0
        code, stdout, _ = run(
            capsys, "analyze", "diff-vectors", "--archive", str(arch),
            "--pairs", '"new, york:boston", boston:boston',
        )
        assert code == 0
        rows = list(csv.reader(stdout.splitlines()))
        assert [row[0] for row in rows] == ["new, york:boston", "boston:boston"]
        assert [float(v) for v in rows[0][1:3]] == [0.75, -0.75]
        assert stdout.splitlines()[0].startswith('"new, york:boston",')


# Every range-checked option: (command, option, out-of-range values).  Each is
# also given "nan"; the command's input files do not exist, so exit 2 shows
# that the value is rejected before anything is read.
BOUNDED_OPTIONS = [
    ("train", "--seed", ["-1"]),
    ("train", "--hidden", ["0", "-3"]),
    ("train", "--lr", ["-0.1", "inf"]),
    ("train", "--epochs", ["-1"]),
    ("train", "--clip", ["0", "-1", "inf"]),
    ("train", "--denoise", ["-0.1", "1.5"]),
    ("encode", "--m", ["0"]),
    ("search", "--top", ["0"]),
    ("edit-distance", "--max-bucket", ["0"]),
    ("synth", "--seed", ["-1"]),
    ("synth", "--alphabet", ["0", "1"]),
    ("synth", "--words", ["0"]),
    ("synth", "--tokens", ["0"]),
    ("synth", "--phonemes-min", ["0"]),
    ("synth", "--phonemes-max", ["0"]),
    ("synth", "--dim", ["0"]),
    ("synth", "--frames-min", ["0"]),
    ("synth", "--frames-max", ["0"]),
    ("synth", "--noise", ["-0.1", "inf"]),
]


def base_argv(command, tmp_path):
    missing = str(tmp_path / "missing" / "manifest.jsonl")
    out = str(tmp_path / "out" / "x")
    return {
        "train": ["train", "--manifest", missing, "--out", out, "--seed", "0"],
        "encode": ["encode", "--manifest", missing, "--out", out, "--encoder", "ne", "--m", "2"],
        "search": ["search", "--method", "dtw", "--manifest", missing, "--query-id", "q0"],
        "edit-distance": ["analyze", "edit-distance", "--archive", missing, "--manifest", missing],
        "synth": ["synth", "--out-dir", out, "--seed", "0"],
    }[command]


@pytest.mark.parametrize(
    "command, option, value",
    [(c, o, v) for c, o, values in BOUNDED_OPTIONS for v in [*values, "nan"]],
)
def test_out_of_range_option_is_usage_error(tmp_path, capsys, command, option, value):
    with pytest.raises(SystemExit) as exc:
        main([*base_argv(command, tmp_path), f"{option}={value}"])
    assert exc.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_every_numeric_option_is_range_checked():
    def parsers(parser):
        yield parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from parsers(sub)

    numeric = {}
    for parser in parsers(build_parser()):
        for action in parser._actions:
            assert action.type not in (int, float), f"{parser.prog} {action.option_strings}"
            if action.type is not None:
                numeric[(parser.prog.split()[-1], action.option_strings[-1])] = action.type
    # and every one of them is exercised above
    assert sorted(numeric) == sorted((c, o) for c, o, _ in BOUNDED_OPTIONS)


@pytest.mark.parametrize("argv, ignored", [
    (["search", "--method", "dtw", "--manifest", "MANIFEST", "--query-id", "QUERY"], "--archive"),
    (["search", "--method", "dtw", "--manifest", "MANIFEST", "--query-id", "QUERY"], "--checkpoint"),
    (["search", "--archive", "ARCHIVE", "--query-id", "QUERY"], "--checkpoint"),
    (["search", "--archive", "ARCHIVE", "--query-id", "QUERY"], "--manifest"),
    (["encode", "--manifest", "MANIFEST", "--encoder", "ne", "--m", "2", "--out", "OUT"],
     "--checkpoint"),
    (["encode", "--manifest", "MANIFEST", "--checkpoint", "CHECKPOINT", "--out", "OUT"],
     ("--m", "4")),
    (["search", "--archive", "ARCHIVE", "--query-id", "QUERY"], ("--split", "train")),
])
def test_option_the_command_would_ignore_is_usage_error(corpus_dir, tmp_path, capsys, argv, ignored):
    manifest = corpus_dir / "manifest.jsonl"
    archive, checkpoint = tmp_path / "arch.csv", tmp_path / "model.json"
    assert main(["encode", "--manifest", str(manifest), "--encoder", "ne", "--m", "1",
                 "--out", str(archive)]) == 0
    assert main(["train", "--manifest", str(manifest), "--out", str(checkpoint), "--seed", "0",
                 "--hidden", "2", "--epochs", "0"]) == 0
    paths = {"MANIFEST": str(manifest), "ARCHIVE": str(archive), "CHECKPOINT": str(checkpoint),
             "OUT": str(tmp_path / "x.csv"), "QUERY": parse_manifest(manifest, "test").records[0].id}
    argv = [paths.get(arg, arg) for arg in argv]
    assert main(argv) == 0  # the command itself is valid
    ignored, value = ignored if isinstance(ignored, tuple) else (ignored, str(tmp_path / "unused"))
    with pytest.raises(SystemExit) as exc:
        main([*argv, ignored, value])
    assert exc.value.code == 2
    assert f"takes no {ignored}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, command", [
    (["search", "--top", "3"], "search"),
    (["encode", "--manifest", "missing.jsonl", "--out", "x.csv", "--encoder", "ne"], "encode"),
    (["analyze", "diff-vectors", "--archive", "missing.csv", "--pairs", ","],
     "analyze diff-vectors"),
])
def test_usage_error_after_parsing_names_the_subcommand(capsys, argv, command):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: seqembed {command} ")
    assert f"seqembed {command}: error:" in err


@pytest.mark.parametrize("low, high", [("--phonemes-min", "--phonemes-max"),
                                       ("--frames-min", "--frames-max")])
def test_synth_empty_range_is_usage_error(tmp_path, capsys, low, high):
    with pytest.raises(SystemExit) as exc:
        main([*base_argv("synth", tmp_path), low, "5", high, "3"])
    assert exc.value.code == 2
    assert f"{low} 5 exceeds {high} 3" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    """The seed-11 acceptance corpus (320 train and 280 test records), an
    untrained H=3 checkpoint and an ne2 archive of its test split."""
    root = tmp_path_factory.mktemp("acceptance")
    manifest = root / "corpus" / "manifest.jsonl"
    assert main(["synth", "--out-dir", str(manifest.parent), "--seed", "11",
                 "--frames-min", "3", "--frames-max", "5"]) == 0
    save_checkpoint(init_params(8, 3, seed=0), root / "model.json")
    (root / "out").mkdir()
    assert main(["encode", "--manifest", str(manifest), "--encoder", "ne", "--m", "2",
                 "--out", str(root / "archive.csv")]) == 0
    return root


def reading_commands(root, split):
    """Each command that reads a manifest, on ``split`` where it takes --split."""
    manifest = str(root / "corpus" / "manifest.jsonl")
    query = "w000_t14"  # a test record
    on_split = ["--manifest", manifest, "--split", split]
    return {
        "encode": ["encode", *on_split, "--encoder", "ne", "--m", "2",
                   "--out", str(root / "out" / "a.csv")],
        "evaluate": ["evaluate", *on_split, "--method", "ne2",
                     "--report-dir", str(root / "out")],
        "search dtw": ["search", "--method", "dtw", *on_split, "--query-id", query],
        "search checkpoint": ["search", "--checkpoint", str(root / "model.json"), *on_split,
                              "--query-id", query],
        "train": ["train", "--manifest", manifest, "--out", str(root / "out" / "t.json"),
                  "--seed", "0", "--hidden", "3", "--epochs", "0"],
        "analyze": ["analyze", "edit-distance", "--archive", str(root / "archive.csv"),
                    "--manifest", manifest],
    }


def feature_reads(monkeypatch, capsys, argv):
    """The exit code of ``seqembed <argv>`` and the feature files it read, in order."""
    read = []
    monkeypatch.setattr("seqembed.data.load_feature_file",
                        lambda path: read.append(path) or load_feature_file(path))
    code = run(capsys, *argv)[0]
    return code, read


class TestFeatureFilesRead:
    """Each command reads the feature files of the split it uses and no
    other, while every manifest line is still checked."""

    @pytest.mark.parametrize("command", ["encode", "evaluate", "search dtw",
                                         "search checkpoint"])
    @pytest.mark.parametrize("split", ["test", "all"])
    def test_split_commands_read_exactly_their_split(
        self, acceptance_corpus, monkeypatch, capsys, command, split
    ):
        entries = read_manifest(acceptance_corpus / "corpus" / "manifest.jsonl")
        want = [e.path for e in entries if split in ("all", e.split)]
        assert len(want) == {"test": 280, "all": 600}[split]
        code, read = feature_reads(monkeypatch, capsys,
                                   reading_commands(acceptance_corpus, split)[command])
        assert code == 0 and read == want

    def test_train_reads_exactly_the_train_split(self, acceptance_corpus, monkeypatch, capsys):
        entries = read_manifest(acceptance_corpus / "corpus" / "manifest.jsonl")
        code, read = feature_reads(monkeypatch, capsys,
                                   reading_commands(acceptance_corpus, "test")["train"])
        assert code == 0 and read == [e.path for e in entries if e.split == "train"]
        assert len(read) == 320

    def test_analyze_edit_distance_reads_none(self, acceptance_corpus, monkeypatch, capsys):
        code, read = feature_reads(monkeypatch, capsys,
                                   reading_commands(acceptance_corpus, "test")["analyze"])
        assert code == 0 and read == []

    def test_bad_test_file_leaves_training_alone(self, corpus_dir, tmp_path, capsys):
        manifest = corpus_dir / "manifest.jsonl"
        train = ["train", "--manifest", str(manifest), "--seed", "5", "--hidden", "3",
                 "--epochs", "2", "--lr", "0.05"]
        assert run(capsys, *train, "--out", str(tmp_path / "clean.json"))[0] == 0
        (corpus_dir / "features" / "w001_t02.csv").write_text("oops,1\n")  # a test record
        assert run(capsys, *train, "--out", str(tmp_path / "bad.json"))[0] == 0
        for suffix in ("", ".loss.csv"):
            assert ((tmp_path / f"bad.json{suffix}").read_bytes()
                    == (tmp_path / f"clean.json{suffix}").read_bytes())

    def test_bad_train_file_fails_only_the_splits_that_hold_it(self, corpus_dir, tmp_path,
                                                               capsys):
        bad = corpus_dir / "features" / "w001_t00.csv"  # a train record
        bad.write_text(bad.read_text() + "oops,1,2,3,4\n")
        rows = len(bad.read_text().splitlines())
        evaluate = ["evaluate", "--manifest", str(corpus_dir / "manifest.jsonl"),
                    "--method", "ne2", "--report-dir", str(tmp_path / "reports")]
        assert run(capsys, *evaluate, "--split", "test")[0] == 0
        code, _, err = run(capsys, *evaluate, "--split", "all")
        assert code == 3 and f"{bad}: row {rows - 1}: non-numeric value" in err

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_missing_feature_file_fails_every_command(self, acceptance_corpus, tmp_path,
                                                      capsys, split):
        root = tmp_path / "root"
        shutil.copytree(acceptance_corpus, root)
        gone = root / "corpus" / "features" / f"w003_t{'02' if split == 'train' else '12'}.csv"
        gone.unlink()
        for command, argv in reading_commands(root, "test").items():
            code, _, err = run(capsys, *argv)
            assert code == 3 and f"feature file not found: {gone}" in err, command

    def test_duplicate_id_across_splits_fails_every_command(self, acceptance_corpus, tmp_path,
                                                            capsys):
        root = tmp_path / "root"
        shutil.copytree(acceptance_corpus, root)
        manifest = root / "corpus" / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        first = json.loads(lines[0])
        assert first["split"] == "train" and json.loads(lines[-1])["split"] == "test"
        lines[-1] = json.dumps(dict(json.loads(lines[-1]), id=first["id"]))
        manifest.write_text("\n".join(lines) + "\n")
        for command, argv in reading_commands(root, "test").items():
            code, _, err = run(capsys, *argv)
            assert code == 3 and f"duplicate record id '{first['id']}'" in err, command

    def test_split_with_no_records(self, corpus_dir, tmp_path, capsys):
        manifest = corpus_dir / "manifest.jsonl"
        lines = [line for line in manifest.read_text().splitlines()
                 if json.loads(line)["split"] == "train"]
        manifest.write_text("\n".join(lines) + "\n")
        for argv in (["encode", "--encoder", "ne", "--m", "2", "--out", str(tmp_path / "a.csv")],
                     ["evaluate", "--method", "ne2", "--report-dir", str(tmp_path)],
                     ["search", "--method", "dtw", "--query-id", "w000_t00"]):
            code, out, err = run(capsys, *argv, "--manifest", str(manifest))
            assert code == 3 and out == ""
            assert err == "error: no records in split 'test'\n", argv
        assert list(tmp_path.iterdir()) == [corpus_dir]


FRESH_CLI = """
import importlib, os, sys
from seqembed import blas, cli
from seqembed.autoencoder import init_params, save_checkpoint
from seqembed.data import generate_synthetic, write_manifest
root, names, argv = sys.argv[1], sys.argv[2].split(","), sys.argv[3:]
dataset = generate_synthetic(5, 4, 3, (2, 3), 3, (1, 3), 0.1, 0)
manifest = write_manifest(dataset, os.path.join(root, "manifest.jsonl"))
save_checkpoint(init_params(3, 4, seed=0), os.path.join(root, "model.json"))
held = []
def holding(function):
    def reading(*args, **kwargs):
        if not reading.read:  # the count at the first call
            reading.read = True
            held.append(blas._openblas()[0]())
        return function(*args, **kwargs)
    reading.read = False
    return reading
for name in names:
    module, _, attr = name.rpartition(".")
    owner = importlib.import_module(f"seqembed.{module}") if module else cli
    setattr(owner, attr, holding(getattr(owner, attr)))
os.chdir(root)
code = cli.main(argv)
print(code, held, blas._openblas()[0]())
"""


class TestBlasThreads:
    """Which commands hold OpenBLAS at one thread, each run in fresh
    processes, since OpenBLAS reads its thread count when numpy is imported."""

    @staticmethod
    def fresh(args, threads):
        if blas._openblas() is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("no OpenBLAS thread count, or one CPU, which caps it at one")
        src = str(Path(__import__("seqembed").__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout

    @pytest.mark.parametrize("names, argv, want", [
        # a second thread doubles training's CPU time and saves no wall time;
        # ``loss_and_gradients`` holds the count, so it is read inside it
        ("autoencoder.backward",
         ["train", "--manifest", "manifest.jsonl", "--out", "out.json", "--seed", "1",
          "--hidden", "4", "--epochs", "2"], "0 [1] 2"),
        ("autoencoder.backward",
         ["train", "--manifest", "manifest.jsonl", "--out", "out.json", "--seed", "1",
          "--hidden", "4", "--epochs", "3", "--lr", "1e300", "--no-clip"], "4 [1] 2"),
        # a large archive's cosine gemm gains from two
        ("build_archive", ["encode", "--manifest", "manifest.jsonl", "--checkpoint", "model.json",
                           "--out", "archive.csv"], "0 [2] 2"),
        ("build_archive,rank", ["search", "--manifest", "manifest.jsonl", "--checkpoint",
                                "model.json", "--query-id", "w000_t02"], "0 [2, 2] 2"),
        ("rank_dtw", ["search", "--method", "dtw", "--manifest", "manifest.jsonl",
                      "--query-id", "w000_t02"], "0 [2] 2"),
    ], ids=["train", "train-diverging", "encode", "search", "search-dtw"])
    def test_count_in_and_after_the_command(self, tmp_path, names, argv, want):
        # started at two threads, ``names`` of ``cli`` (or, given as
        # ``module.name``, of that ``seqembed`` module) record the count at
        # their first call; the last line is the exit code, those counts and
        # the count after the command
        out = self.fresh(["-c", FRESH_CLI, str(tmp_path), names, *argv], "2")
        assert out.splitlines()[-1] == want

    def test_library_calls_give_the_same_bits_at_any_count(self, tmp_path):
        # at D=39, H=100 and T >= 60 the decoder's feedback product rounds
        # differently across two threads unless ``loss_and_gradients`` holds one
        script = (
            "import hashlib, json, sys\n"
            "import numpy as np\n"
            "from seqembed.autoencoder import (TrainConfig, encode_batch, init_params,\n"
            "                                  loss_and_gradients, save_checkpoint, train)\n"
            "from seqembed.cli import main\n"
            "from seqembed.data import generate_synthetic, write_manifest\n"
            "root = sys.argv[1]\n"
            "ds = generate_synthetic(10, 20, 2, (3, 6), 39, (2, 15), 0.1, seed=11)\n"
            "longest = max(ds.subset('train'), key=lambda rec: len(rec.features))\n"
            "assert len(longest.features) >= 60\n"
            "params = init_params(39, 100, seed=5)\n"
            "loss, grad = loss_and_gradients(params, longest.features)\n"
            "vectors = encode_batch(params, [rec.features for rec in ds.subset('test')])\n"
            "trained, losses = train(params, ds.subset('train'),\n"
            "                        TrainConfig(seed=17, lr=0.05, epochs=1))\n"
            "save_checkpoint(trained, root + '/model.json')\n"
            "manifest = str(write_manifest(ds, root + '/manifest.jsonl'))\n"
            "assert main(['evaluate', '--manifest', manifest, '--split', 'all', '--method',\n"
            "             'sa=' + root + '/model.json', '--method', 'ne4', '--report-dir', root,\n"
            "             '--out', root + '/c.csv']) == 0\n"
            "files = [open(root + '/' + name, 'rb').read()\n"
            "         for name in ('c.csv', 'per_query_sa.csv', 'per_query_ne4.csv')]\n"
            "outputs = {'loss_and_gradients': np.float64(loss).tobytes() + grad.tobytes(),\n"
            "           'encode_batch': vectors.tobytes(),\n"
            "           'train': trained.flat.tobytes() + np.array(losses).tobytes(),\n"
            "           'evaluate': b''.join(files)}\n"
            "print(json.dumps({k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}))\n"
        )
        digests = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            out = self.fresh(["-c", script, str(tmp_path / threads)], threads)
            digests.append(json.loads(out.splitlines()[-1]))
        assert digests[0] == digests[1]

    def test_train_writes_the_same_bytes_at_any_count(self, tmp_path):
        # at D=39, H=100 and T >= 60 the decoder's feedback product
        # ``dA[1:] @ W_y`` rounds differently when OpenBLAS splits it across
        # two threads, so an unheld run's checkpoint depends on the count
        dataset = generate_synthetic(10, 20, 2, (3, 6), 39, (2, 15), 0.1, seed=11)
        assert max(len(rec.features) for rec in dataset.subset("train")) >= 60
        manifest = write_manifest(dataset, tmp_path / "manifest.jsonl")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            self.fresh(["-m", "seqembed.cli", "train", "--manifest", str(manifest), "--out", str(out),
                        "--seed", "17", "--epochs", "1"], threads)
            outputs.append([out.read_bytes(), Path(f"{out}.loss.csv").read_bytes()])
        assert outputs[0] == outputs[1]
