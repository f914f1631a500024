"""Output files: pinned bytes of every report, table, archive and log, atomic
replacement, and one module that opens files for writing."""
import ast
import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

import seqembed
import seqembed.data
from conftest import archive_from
from seqembed.autoencoder import init_params, save_checkpoint, write_loss_log
from seqembed.cli import main
from seqembed.data import Dataset, SegmentRecord, write_manifest
from seqembed.evaluation import (
    QueryResult,
    SimilarityBucket,
    write_comparison,
    write_diff_vectors,
    write_map_report,
    write_similarity_table,
)
from seqembed.retrieval import save_archive

# Vectors with one nonzero component, or 3-4-5 sides, have exact unit rows and
# cosines, so the CLI tables below do not depend on the BLAS build.
RECORDS = [
    ("a", "new", ["n", "uw"], [[0.0, 1.0]], [2.0, 0.0, 0.0]),
    ("b,1", "New", ["n", "y", "uw"], [[0.5, -1.0], [1.0, 0.25]], [3.0, 4.0, 1e-300]),
    ("c", "few", ["f", "y", "uw"], [[1 / 3, 2.0]], [0.0, 0.0, 1e16]),
    ('d"q', "night", ["n", "ay", "t"], [[-1.0, 1e-3]], [0.0, 0.0, 0.0]),
    ("e", "few", ["f", "y", "uw", "z"], [[2.0, 2.0]], [-1 / 3, -0.0, 0.0]),
]


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue().encode("utf-8")


def write_every_output(root: Path) -> dict[str, bytes]:
    """Write each output kind from fixed inputs; map its name to its bytes."""
    dataset = Dataset.from_records([
        SegmentRecord(seg_id, word, phonemes, "test", np.array(frames))
        for seg_id, word, phonemes, frames, _vec in RECORDS
    ])
    manifest = write_manifest(dataset, root / "m.jsonl")
    archive = archive_from([(r[0], r[1], np.array(r[4])) for r in RECORDS])
    save_archive(archive, root / "archive.csv")
    write_loss_log([2.5, 1 / 3, np.float64(0.1), 4], root / "loss.csv")
    save_checkpoint(init_params(2, 3, seed=4), root / "model.json",
                    train_meta={"denoise_p": 0.3, "lr": 0.3, "clip_norm": None})
    write_map_report([QueryResult("a", "new", 1, 0.5), QueryResult("b,1", "New", 0, None),
                      QueryResult("c", "few", 2, 1 / 3)], root / "per_query.csv")
    write_comparison([("sa", 0.8125), ("ne4", 1 / 7), ("x,y", None)], root / "comparison.csv")
    write_similarity_table([SimilarityBucket("0", 3, 0.75), SimilarityBucket("1", 0, math.nan),
                            SimilarityBucket("2+", 5, -1 / 9)], root / "similarity.csv")
    write_diff_vectors([("new", "few"), ("a", "b,c")],
                       [np.array([0.1, -2.0]), np.array([1 / 3, 0.0])],
                       np.array([[1.0, -0.5], [-1.0, 0.5]]), root / "diff.csv")
    outputs = {path.name: path.read_bytes() for path in sorted(root.iterdir()) if path.is_file()}
    arch, man = str(root / "archive.csv"), str(manifest)
    outputs["search stdout"] = cli_stdout("search", "--archive", arch, "--query-id", "a")
    outputs["edit-distance stdout"] = cli_stdout(
        "analyze", "edit-distance", "--archive", arch, "--manifest", man, "--max-bucket", "2")
    outputs["diff-vectors stdout"] = cli_stdout(
        "analyze", "diff-vectors", "--archive", arch, "--pairs", "NEW:few")
    return outputs


# Bytes written by the per-module writers that ``seqembed.data.write_rows``
# replaced; the checkpoint and manifest are pinned by digest.
GOLDEN = {
    "archive.csv": (
        b'id,word,z0,z1,z2\n'
        b'a,new,2.0,0.0,0.0\n'
        b'"b,1",New,3.0,4.0,1e-300\n'
        b'c,few,0.0,0.0,1e+16\n'
        b'"d""q",night,0.0,0.0,0.0\n'
        b'e,few,-0.3333333333333333,-0.0,0.0\n'
    ),
    "comparison.csv": b'method,map\nsa,0.8125\nne4,0.14285714285714285\n"x,y",\n',
    "diff.csv": (
        b'pair,dx0,dx1,proj_x,proj_y\n'
        b'new:few,0.1,-2.0,1.0,-0.5\n'
        b'"a:b,c",0.3333333333333333,0.0,-1.0,0.5\n'
    ),
    "loss.csv": b'epoch,mean_loss\n1,2.5\n2,0.3333333333333333\n3,0.1\n4,4.0\n',
    "per_query.csv": (
        b'query_id,word,num_relevant,ap\n'
        b'a,new,1,0.5\n'
        b'"b,1",New,0,\n'
        b'c,few,2,0.3333333333333333\n'
    ),
    "similarity.csv": (
        b'edit_distance,pair_count,mean_cosine\n'
        b'0,3,0.75\n'
        b'1,0,nan\n'
        b'2+,5,-0.1111111111111111\n'
    ),
    "search stdout": (
        b'rank,id,word,score\n'
        b'1,"b,1",New,0.6\n'
        b'2,c,few,0.0\n'
        b'3,"d""q",night,0.0\n'
        b'4,e,few,-1.0\n'
    ),
    "edit-distance stdout": (
        b'edit_distance,pair_count,mean_cosine\n'
        b'0,0,nan\n'
        b'1,3,0.19999999999999998\n'
        b'2+,7,-0.2285714285714286\n'
    ),
    "diff-vectors stdout": b'NEW:few,2.6666666666666665,2.0,-5000000000000000.0,0.0,0.0\n',
}
DIGESTS = {
    "m.jsonl": "b3a85b36a30ba20c4473f663a264a58880806629c678fe0d89fead93160fcb8a",
    "model.json": "64e21a182a70e62052c25c02c807803daa6399240e0be4345ffa389a32dd1c20",
}


def test_every_output_kind_has_its_pinned_bytes(tmp_path):
    outputs = write_every_output(tmp_path)
    assert set(outputs) == set(GOLDEN) | set(DIGESTS)
    for name, want in GOLDEN.items():
        assert outputs[name] == want, name
    for name, want in DIGESTS.items():
        assert hashlib.sha256(outputs[name]).hexdigest() == want, name


def test_interrupted_report_keeps_old_bytes(tmp_path):
    path = tmp_path / "comparison.csv"
    path.write_bytes(b"method,map\nold,0.5\n")

    def results():
        yield ("sa", 0.75)
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_comparison(results(), path)
    assert path.read_bytes() == b"method,map\nold,0.5\n"
    assert [p.name for p in tmp_path.iterdir()] == ["comparison.csv"]


def _opens_for_writing(tree: ast.AST) -> list[int]:
    """Line numbers of ``open``/``Path.open`` calls with a w, a, x or + mode,
    and of ``write_text``/``write_bytes`` calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            modes += node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+")
                   for m in modes):
                lines.append(node.lineno)
    return lines


def test_only_the_data_module_opens_files_for_writing():
    package = Path(seqembed.__file__).parent
    writers = {
        path.name: _opens_for_writing(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert writers["data.py"], "the guard no longer sees data.py's writes"
    assert {name: lines for name, lines in writers.items() if lines and name != "data.py"} == {}


def _calls_under_output(tree: ast.AST) -> set[int]:
    """Line numbers of the calls that run inside a ``with _output(...)``: in
    the with-items after it, or in the block's body."""
    lines = set()
    for block in ast.walk(tree):
        if not isinstance(block, ast.With):
            continue
        for i, item in enumerate(block.items):
            call = item.context_expr
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_output":
                inner = [later.context_expr for later in block.items[i + 1:]] + block.body
                lines |= {node.lineno for part in inner for node in ast.walk(part)
                          if isinstance(node, ast.Call)}
                break
    return lines


def test_every_write_in_the_data_module_maps_its_errors():
    """Each write-mode open in data.py runs inside ``_output``, so an OSError
    there exits 3 with ``cannot write <path>``."""
    tree = ast.parse(Path(seqembed.data.__file__).read_text(encoding="utf-8"))
    writes = _opens_for_writing(tree)
    assert writes, "the guard no longer sees data.py's writes"
    assert [line for line in writes if line not in _calls_under_output(tree)] == []


def _opens_or_reads(tree: ast.AST) -> list[int]:
    """Line numbers of every ``open``, ``read_bytes`` and ``read_text`` call."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None))
        in ("open", "read_bytes", "read_text")
    ]


def test_only_the_data_module_opens_files_for_reading():
    package = Path(seqembed.__file__).parent
    readers = {
        path.name: _opens_or_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    assert readers["data.py"], "the guard no longer sees data.py's reads"
    assert {name: lines for name, lines in readers.items() if lines and name != "data.py"} == {}
