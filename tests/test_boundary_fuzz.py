"""Boundary fuzz: bounded random byte edits to each kind of input file, run
through every in-process subcommand that reads that kind of file.  Each run
must exit 0, 2 or 3, with a message on stderr for 2 and 3, and raise nothing
else.  Training runs 0 epochs, so an edit that makes a finite but huge
feature value cannot end it with a divergence (exit 4); it still checks the
manifest and reads every feature file of the train split.  Each command
reads only the feature files of the split it uses, so features are mutated
in one train record and in one test record."""
import contextlib
import io
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqembed.cli import main

SYNTH = ["--seed", "3", "--alphabet", "4", "--words", "3", "--tokens", "3",
         "--phonemes-min", "1", "--phonemes-max", "2", "--dim", "2",
         "--frames-min", "1", "--frames-max", "2"]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A tiny corpus in CSV and .bin form, a --hidden 3 checkpoint, its test
    archive, and one query feature file of each form."""
    root = tmp_path_factory.mktemp("fuzz")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, fmt in (("corpus", "csv"), ("bincorpus", "bin")):
            assert main(["synth", "--out-dir", str(root / name), "--format", fmt, *SYNTH]) == 0
        assert main(["train", "--manifest", str(root / "corpus" / "manifest.jsonl"),
                     "--out", str(root / "model.json"), "--seed", "1", "--hidden", "3",
                     "--epochs", "1", "--lr", "0.05"]) == 0
        assert main(["encode", "--manifest", str(root / "corpus" / "manifest.jsonl"),
                     "--checkpoint", str(root / "model.json"),
                     "--out", str(root / "archive.csv")]) == 0
    shutil.copy(root / "corpus" / "features" / "w000_t02.csv", root / "query.csv")
    shutil.copy(root / "bincorpus" / "features" / "w000_t02.bin", root / "query.bin")
    return root


def manifest_commands(manifest):
    return [
        ["train", "--manifest", manifest, "--out", "t.json", "--seed", "0", "--hidden", "3",
         "--epochs", "0"],
        ["encode", "--manifest", manifest, "--checkpoint", "model.json", "--out", "a.csv"],
        ["encode", "--manifest", manifest, "--encoder", "ne", "--m", "2", "--out", "n.csv",
         "--split", "all"],
        ["search", "--method", "dtw", "--manifest", manifest, "--query-id", "w001_t02"],
        ["search", "--checkpoint", "model.json", "--manifest", manifest,
         "--query-id", "w001_t02"],
        ["evaluate", "--manifest", manifest, "--method", "m=model.json", "--method", "ne2",
         "--method", "dtw", "--split", "all", "--report-dir", "reports", "--out", "c.csv"],
        ["analyze", "edit-distance", "--archive", "archive.csv", "--manifest", manifest],
    ]


def query_commands(query):
    return [
        ["search", "--checkpoint", "model.json", "--manifest", "corpus/manifest.jsonl",
         "--query-features", query],
        ["search", "--method", "dtw", "--manifest", "corpus/manifest.jsonl",
         "--query-features", query],
    ]


# kind of input -> (the file edited, the subcommands that read it)
KINDS = {
    "manifest": ("corpus/manifest.jsonl", manifest_commands("corpus/manifest.jsonl")),
    "csv features": ("corpus/features/w001_t02.csv", manifest_commands("corpus/manifest.jsonl")),
    "bin features": ("bincorpus/features/w001_t02.bin",
                     manifest_commands("bincorpus/manifest.jsonl")),
    "csv train features": ("corpus/features/w001_t00.csv",
                           manifest_commands("corpus/manifest.jsonl")),
    "bin train features": ("bincorpus/features/w001_t00.bin",
                           manifest_commands("bincorpus/manifest.jsonl")),
    "checkpoint": ("model.json", [
        ["encode", "--manifest", "corpus/manifest.jsonl", "--checkpoint", "model.json",
         "--out", "a.csv"],
        *query_commands("query.csv")[:1],
        ["evaluate", "--manifest", "corpus/manifest.jsonl", "--method", "m=model.json",
         "--split", "all", "--report-dir", "reports"],
    ]),
    "archive": ("archive.csv", [
        ["search", "--archive", "archive.csv", "--query-id", "w001_t02"],
        ["analyze", "edit-distance", "--archive", "archive.csv",
         "--manifest", "corpus/manifest.jsonl"],
        ["analyze", "diff-vectors", "--archive", "archive.csv", "--pairs", "w000:w001"],
    ]),
    "csv query features": ("query.csv", query_commands("query.csv")),
    "bin query features": ("query.bin", query_commands("query.bin")),
}

POSITION = st.integers(0, 2**16)
EDIT = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(1, 255)),
    st.tuples(st.just("insert"), POSITION,
              st.sampled_from([b"\xff", b"\r", b'"', b"nan", b"1e-400", b"\\ud800"])),
    st.tuples(st.just("delete"), POSITION, st.integers(1, 8)),
    st.tuples(st.just("duplicate"), POSITION, st.integers(1, 8)),
)


def mutate(raw: bytes, edits) -> bytes:
    raw = bytearray(raw)
    for op, pos, arg in edits:
        at = pos % (len(raw) + 1)
        if op == "flip":
            raw[at % len(raw)] ^= arg
        elif op == "insert":
            raw[at:at] = arg
        elif op == "delete":
            del raw[at:at + arg]
        else:
            raw[at:at] = raw[at:at + arg]
    return bytes(raw)


def run_in(cwd: Path, argv):
    """``seqembed <argv>`` with paths relative to ``cwd``: exit code and stderr."""
    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(home)
    return code, err.getvalue()


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=12, deadline=None)
@given(edits=st.lists(EDIT, min_size=1, max_size=3))
def test_mutated_input_exits_0_2_or_3_with_a_message(base, kind, edits):
    target, commands = KINDS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "w"
        shutil.copytree(base, work)
        path = work / target
        path.write_bytes(mutate(path.read_bytes(), edits))
        for argv in commands:
            code, err = run_in(work, argv)
            assert code in (0, 2, 3), (argv, code, err)
            assert code == 0 or err.strip(), (argv, code)


def test_unmutated_inputs_exit_0(base, tmp_path):
    """Every command above succeeds on the files as written, so an exit 3
    under an edit comes from the edit."""
    work = tmp_path / "w"
    shutil.copytree(base, work)
    for argv in {tuple(argv) for _target, commands in KINDS.values() for argv in commands}:
        assert run_in(work, list(argv))[0] == 0, argv
