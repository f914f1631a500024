"""The benchmark's three workloads: set-up, one operation, and output checks.

Every workload starts from the synthetic corpus of the acceptance suite
(40 words x 15 tokens, D=8, 3-6 phonemes of 3-5 frames), drawn from the
workload seed and written to disk as a manifest; the program reads only
those files.  Operations call ``seqembed.cli.main`` in this process, or
start ``python -m seqembed.cli`` as a fresh process, or call the public
library functions the way a long-lived caller would.  Every operation's
outputs are checked after its timed region ends.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from seqembed import autoencoder, cli, data, retrieval

CORPUS = dict(alphabet_size=10, num_words=40, tokens_per_word=15,
              phonemes_per_word_range=(3, 6), dim=8, frames_per_phoneme_range=(3, 5),
              noise_sigma=0.1)
# Train and test frame totals of the acceptance corpus (seed 11).  Corpus
# size varies by +-10% between seeds (DTW cells by +-20%), which would swamp
# the timings, so a workload seed uses the first corpus seed of
# seed, seed + STRIDE, seed + 2*STRIDE, ... whose frame totals lie within
# SIZE_TOLERANCE of these.  Seed 11 maps to itself.  The search is done once,
# before set-up, so that set-up time does not depend on how long it took.
REFERENCE_FRAMES = {"train": 5484, "test": 4816}
SIZE_TOLERANCE = 0.01
STRIDE = 1_000_003

TRAIN_ARGS = ["--hidden", "32", "--lr", "0.05", "--clip", "5", "--seed", "17"]
TRAIN_EPOCHS = 2  # per train command of the train workload
SETUP_EPOCHS = 1  # checkpoints that evaluate and search read
EVAL_LABELS = ["sa", "dsa", "ne4", "ne6", "ne8", "dtw"]
TOP = 10
QBE_PER_ROUND = 50
CHILD_TIMEOUT_S = 60
SCORE_TOLERANCE = 1e-12


def corpus_seed(seed: int) -> int:
    """The generate_synthetic seed that workload seed ``seed`` stands for."""
    for k in range(10_000):
        candidate = seed + k * STRIDE
        dataset = data.generate_synthetic(seed=candidate, **CORPUS)
        if all(abs(sum(rec.num_frames for rec in dataset.subset(split)) / frames - 1.0)
               <= SIZE_TOLERANCE for split, frames in REFERENCE_FRAMES.items()):
            return candidate
    raise RuntimeError(f"no corpus of the reference size for seed {seed}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``seqembed <argv>`` in this process: exit code and captured stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def tree_digest(path: Path) -> str:
    """SHA-256 over every file's relative name and bytes below ``path``."""
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(path)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def file_roundtrips(path: Path, load, save, scratch: Path) -> bool:
    """Whether loading ``path`` and saving it again gives the same bytes."""
    save(load(path), scratch)
    same = scratch.read_bytes() == path.read_bytes()
    scratch.unlink()
    return same


def checkpoint_roundtrips(path: Path, scratch: Path) -> bool:
    meta = json.loads(path.read_text()).get("train")
    return file_roundtrips(
        path, autoencoder.load_checkpoint,
        lambda params, out: autoencoder.save_checkpoint(params, out, train_meta=meta), scratch)


def archive_roundtrips(path: Path, scratch: Path) -> bool:
    return file_roundtrips(path, retrieval.load_archive, retrieval.save_archive, scratch)


def loss_log_ok(path: Path, epochs: int) -> float | None:
    """The last mean loss if the log is exactly ``epoch,mean_loss`` rows, else None."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != "epoch,mean_loss" or lines[-1] != "" or len(lines) != epochs + 2:
        return None
    loss = None
    for epoch, line in enumerate(lines[1:-1], start=1):
        _, _, value = line.partition(",")
        try:
            loss = float(value)
        except ValueError:
            return None
        if not math.isfinite(loss) or line != f"{epoch},{loss!r}":
            return None
    return loss


def expected_ranking(query: np.ndarray, ids: list[str], unit: np.ndarray, exclude=None):
    """Top-k by cosine with the (-score, id) order, computed independently of rank()."""
    q = query / np.linalg.norm(query)
    scores = unit @ q
    order = sorted((i for i in range(len(ids)) if ids[i] != exclude),
                   key=lambda i: (-scores[i], ids[i]))
    return [(ids[i], float(scores[i])) for i in order[:TOP]]


def rows_match(rows, expected) -> bool:
    return len(rows) == len(expected) == TOP and all(
        seg_id == exp_id and abs(score - exp_score) <= SCORE_TOLERANCE
        for (seg_id, score), (exp_id, exp_score) in zip(rows, expected))


def ranking_well_formed(rows, exclude=None) -> bool:
    keys = [(-score, seg_id) for seg_id, score in rows]
    return (len(rows) == TOP and keys == sorted(keys) and len(set(r[0] for r in rows)) == TOP
            and all(math.isfinite(score) for _, score in rows)
            and all(seg_id != exclude for seg_id, _ in rows))


def parse_search_output(text: str, words: dict[str, str]):
    """Rows of ``seqembed search`` stdout, or None if malformed."""
    lines = text.split("\n")
    if lines[0] != "rank,id,word,score" or lines[-1] != "":
        return None
    rows = []
    for position, line in enumerate(lines[1:-1], start=1):
        fields = line.split(",")
        if len(fields) != 4 or fields[0] != str(position) or words.get(fields[1]) != fields[2]:
            return None
        try:
            rows.append((fields[1], float(fields[3])))
        except ValueError:
            return None
    return rows


class Workload:
    """One workload: ``setup`` builds its inputs, ``run_op`` runs one operation."""

    def __init__(self, seed: int, recorder):
        self.seed = seed
        self.corpus_seed = corpus_seed(seed)
        self.rec = recorder
        self.report: dict[str, object] = {}
        self.tracing = False  # set while a traced operation runs

    def setup(self, root: Path) -> str:
        """Builds every input in ``root`` and returns a digest of them."""
        self.root = root
        self.dataset = data.generate_synthetic(seed=self.corpus_seed, **CORPUS)
        self.manifest = data.write_manifest(self.dataset, root / "corpus" / "manifest.jsonl")
        return tree_digest(root)

    def train_argv(self, mode: str, epochs: int) -> list[str]:
        return ["train", "--manifest", str(self.manifest), "--out", str(self.root / f"{mode}.json"),
                "--mode", mode, "--epochs", str(epochs), *TRAIN_ARGS]

    def probe(self) -> None:
        """Extra work a traced run does after its timed window (none by default)."""


class Train(Workload):
    """``seqembed train`` in this process, sa then dsa, TRAIN_EPOCHS epochs each."""

    name = "train"
    work = ("train_seqs_per_s", 2 * TRAIN_EPOCHS * 320)  # sequence updates per operation

    def setup(self, root):
        self.first: dict[str, tuple[bytes, bytes]] = {}
        return super().setup(root)

    def run_op(self, index: int) -> None:
        for mode in ("sa", "dsa"):
            with self.rec.sample(f"train_{mode}") as sample:
                code, out = run_cli(self.train_argv(mode, TRAIN_EPOCHS))
            sample.ok = code == 0 and self._check(mode, out)

    def _check(self, mode, out) -> bool:
        ckpt = self.root / f"{mode}.json"
        log = self.root / f"{mode}.json.loss.csv"
        loss = loss_log_ok(log, TRAIN_EPOCHS)
        if loss is None or f"final mean loss {loss!r}\n" not in out:
            return False
        if mode == "sa":
            self.report["sa_final_loss"] = loss
        outputs = (log.read_bytes(), ckpt.read_bytes())
        self.first.setdefault(mode, outputs)
        return (outputs == self.first[mode]
                and checkpoint_roundtrips(ckpt, self.root / "roundtrip.json"))

    def probe(self) -> None:
        """Encode and decode every train sequence, to time LSTM forward steps."""
        params = autoencoder.load_checkpoint(self.root / "sa.json")
        for rec in self.dataset.subset("train"):
            autoencoder.decode(params, autoencoder.encode(params, rec.features), rec.num_frames)


class Evaluate(Workload):
    """The paper's comparison table: evaluate, then encode and analyze the sa archive."""

    name = "evaluate"
    work = ("evaluate_queries_per_s", 280 * len(EVAL_LABELS))  # MAP queries per operation

    def setup(self, root):
        super().setup(root)
        codes = [run_cli(self.train_argv(mode, SETUP_EPOCHS))[0] for mode in ("sa", "dsa")]
        if codes != [0, 0]:
            raise RuntimeError(f"set-up training exited with {codes}")
        self.first_digest = None
        return tree_digest(root)

    def run_op(self, index: int) -> None:
        out_dir = self.root / "out"
        manifest = str(self.manifest)
        evaluate = ["evaluate", "--manifest", manifest, "--split", "test"]
        for label in EVAL_LABELS:
            model = self.root / f"{label}.json"
            evaluate += ["--method", f"{label}={model}" if label in ("sa", "dsa") else label]
        evaluate += ["--report-dir", str(out_dir / "reports"),
                     "--out", str(out_dir / "comparison.csv")]
        archive = out_dir / "archive.csv"
        steps = [
            ("evaluate", evaluate),
            ("encode", ["encode", "--manifest", manifest, "--checkpoint",
                        str(self.root / "sa.json"), "--split", "test", "--out", str(archive)]),
            ("analyze", ["analyze", "edit-distance", "--archive", str(archive),
                         "--manifest", manifest, "--out", str(out_dir / "table.csv")]),
        ]
        for kind, argv in steps:
            with self.rec.sample(kind) as sample:
                code, out = run_cli(argv)
            sample.ok = code == 0 and getattr(self, f"_check_{kind}")(out, out_dir)

    def _check_evaluate(self, out, out_dir) -> bool:
        maps = {}
        for line in out.splitlines():
            label, sep, rest = line.partition(": MAP = ")
            if sep:
                value, _, tail = rest.partition(" over ")
                maps[label] = float(value)
                if tail != "280 queries (0 excluded)":
                    return False
        rows = (out_dir / "comparison.csv").read_text().splitlines()
        expected = ["method,map"] + [f"{label},{maps.get(label)!r}" for label in EVAL_LABELS]
        if rows != expected or not all(0.0 <= maps[label] <= 1.0 for label in EVAL_LABELS):
            return False
        for label in EVAL_LABELS:
            self.report[f"map_{label}"] = maps[label]
        return all((out_dir / "reports" / f"per_query_{label}.csv").is_file()
                   for label in EVAL_LABELS)

    def _check_encode(self, out, out_dir) -> bool:
        archive = out_dir / "archive.csv"
        return (len(archive.read_text().splitlines()) == 281
                and archive_roundtrips(archive, self.root / "roundtrip.csv"))

    def _check_analyze(self, out, out_dir) -> bool:
        rows = (out_dir / "table.csv").read_text().splitlines()[1:]
        pairs = sum(int(row.split(",")[1]) for row in rows)
        digest = tree_digest(out_dir)
        if self.first_digest is None:
            self.first_digest = digest
        return pairs == 280 * 279 // 2 and digest == self.first_digest


class Search(Workload):
    """Query-by-example: seeded rounds of in-process and fresh-process searches.

    Each round shuffles one ``cli_search`` (fresh process, prebuilt archive,
    test-split query id), one ``cli_qbe`` (fresh process, checkpoint plus
    manifest, train-split query features) and QBE_PER_ROUND ``qbe`` queries
    (in-process encode plus rank, train-split queries).  In traced rounds the
    two cli kinds are replayed in this process so their layers can be traced.
    """

    name = "search"
    work = ("search_queries_per_s", QBE_PER_ROUND + 2)  # queries per round

    def setup(self, root):
        super().setup(root)
        if run_cli(self.train_argv("sa", SETUP_EPOCHS))[0] != 0:
            raise RuntimeError("set-up training failed")
        self.archive_path = root / "archive.csv"
        code, _out = run_cli(["encode", "--manifest", str(self.manifest), "--checkpoint",
                              str(root / "sa.json"), "--split", "test",
                              "--out", str(self.archive_path)])
        if code != 0:
            raise RuntimeError("set-up encode failed")
        self.params = autoencoder.load_checkpoint(root / "sa.json")
        self.archive = retrieval.load_archive(self.archive_path)
        digest = tree_digest(root)
        self.train_records = self.dataset.subset("train")
        self.test_ids = [seg_id for seg_id, _word, _vec in self.archive.entries]
        self.words = {seg_id: word for seg_id, word, _vec in self.archive.entries}
        vectors = np.stack([vec for _id, _word, vec in self.archive.entries])
        self.unit = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        with open(self.manifest, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        self.feature_file = {e["id"]: str(self.manifest.parent / e["features"]) for e in entries}
        return digest

    def run_op(self, index: int) -> None:
        rng = np.random.default_rng([self.seed, index])
        kinds = ["cli_search", "cli_qbe"] + ["qbe"] * QBE_PER_ROUND
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "cli_search":
                self._cli_search(self.test_ids[int(rng.integers(len(self.test_ids)))])
            else:
                rec = self.train_records[int(rng.integers(len(self.train_records)))]
                getattr(self, f"_{kind}")(rec)

    def _qbe(self, rec) -> None:
        with self.rec.sample("qbe") as sample:
            query = autoencoder.encode(self.params, rec.features)
            ranked = retrieval.rank(query, self.archive, top_k=TOP)
        sample.ok = (ranking_well_formed(ranked)
                     and rows_match(ranked, expected_ranking(query, self.test_ids, self.unit)))

    def _command(self, kind, argv):
        with self.rec.sample(kind) as sample:
            if self.tracing:
                code, out = run_cli(argv)
            else:
                try:
                    child = subprocess.run([sys.executable, "-m", "seqembed.cli", *argv],
                                           cwd=self.root, capture_output=True,
                                           text=True, timeout=CHILD_TIMEOUT_S)
                    code, out = child.returncode, child.stdout
                except subprocess.TimeoutExpired:
                    code, out = None, ""
        rows = parse_search_output(out, self.words) if code == 0 else None
        return sample, rows

    def _cli_search(self, query_id) -> None:
        sample, rows = self._command(
            "cli_search", ["search", "--archive", str(self.archive_path),
                           "--query-id", query_id, "--top", str(TOP)])
        if rows is not None:
            expected = retrieval.rank(self.archive.vector(query_id), self.archive,
                                      exclude_id=query_id, top_k=TOP)
            sample.ok = ranking_well_formed(rows, exclude=query_id) and rows_match(rows, expected)

    def _cli_qbe(self, rec) -> None:
        sample, rows = self._command(
            "cli_qbe", ["search", "--checkpoint", str(self.root / "sa.json"),
                        "--manifest", str(self.manifest),
                        "--query-features", self.feature_file[rec.id], "--top", str(TOP)])
        if rows is not None:
            query = autoencoder.encode(self.params, rec.features)
            expected = retrieval.rank(query, self.archive, top_k=TOP)
            sample.ok = ranking_well_formed(rows) and rows_match(rows, expected)


WORKLOADS = {cls.name: cls for cls in (Train, Evaluate, Search)}
