"""Datasets, synthetic corpora, and the one reader and writer of files.

A dataset on disk is a JSON-lines manifest plus one feature file per
segment.  Feature files are CSV (one frame per row, auditable) or an
optional packed binary alternative: a little-endian int32 (T, D) header
followed by T*D little-endian float32 values, selected by the ``.bin``
suffix.
"""
from __future__ import annotations

import csv
import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, DimensionError, GenerationError

SPLITS = ("train", "test")
BINARY_SUFFIX = ".bin"
FEATURES_DIRNAME = "features"  # feature files sit in this directory beside the manifest

# Chance that a new synthetic word is a single-edit variant of an earlier
# one rather than a fresh uniform draw.  Desk-scale corpora need pairs at
# small phoneme edit distances, which uniform strings almost never produce.
_MUTATE_PROB = 0.5


def validate_frames(frames: np.ndarray, what: str = "feature sequence") -> np.ndarray:
    """Coerce to a float64 T x D array and enforce the type invariants."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
        raise DimensionError(
            f"{what}: expected a T x D array with T >= 1, got shape {frames.shape}"
        )
    if not np.isfinite(frames).all():
        raise DataError(f"{what}: contains non-finite values")
    return frames


def _check_identity(segment) -> None:
    if segment.split not in SPLITS:
        raise DataError(
            f"record '{segment.id}': split must be one of {SPLITS}, got '{segment.split}'"
        )
    if segment.phonemes is not None and len(segment.phonemes) == 0:
        raise DataError(f"record '{segment.id}': phonemes, when present, must be non-empty")


@dataclass
class ManifestEntry:
    """One manifest line: a segment's identity and its feature file, unread."""

    id: str
    word: str
    phonemes: list[str] | None
    split: str
    path: Path

    def __post_init__(self):
        _check_identity(self)


@dataclass
class SegmentRecord:
    """One segment: features plus identity metadata."""

    id: str
    word: str
    phonemes: list[str] | None
    split: str
    features: np.ndarray

    def __post_init__(self):
        _check_identity(self)
        self.features = validate_frames(self.features, f"record '{self.id}'")

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    """Ordered segment records sharing one feature dimensionality."""

    records: list[SegmentRecord]
    dim: int

    def __post_init__(self):
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise DataError(f"duplicate record id '{rec.id}'")
            seen.add(rec.id)
            if rec.dim != self.dim:
                raise DimensionError(
                    f"record '{rec.id}' has {rec.dim} feature dims, dataset expects {self.dim}"
                )

    @classmethod
    def from_records(cls, records: list[SegmentRecord]) -> "Dataset":
        if not records:
            raise DataError("dataset contains no records")
        return cls(records=records, dim=records[0].dim)

    def __iter__(self):
        return iter(self.records)

    def subset(self, split: str) -> list[SegmentRecord]:
        return [rec for rec in self.records if rec.split == split]


@contextmanager
def _output(path: str | Path):
    """An OSError while creating or replacing ``path`` is a DataError naming it."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from None


def output_dir(path: str | Path) -> Path:
    """Create the directory ``path`` and its parents, unless it exists."""
    path = Path(path)
    with _output(path):
        path.mkdir(parents=True, exist_ok=True)
    return path


def check_output_dirs(*paths: str | Path) -> None:
    """Raise the DataError a later write to any of ``paths`` would raise
    because its directory does not exist or it is itself a directory,
    before any work is done."""
    for path in paths:
        if not Path(path).parent.is_dir():
            raise DataError(f"cannot write {path}: {Path(path).parent} is not a directory")
        if Path(path).is_dir():
            raise DataError(f"cannot write {path}: Is a directory")


@contextmanager
def replace_on_close(path: str | Path):
    """A text file whose bytes replace ``path`` on a clean exit; on an
    exception it is removed and ``path`` keeps its old bytes."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    with _output(path):
        fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        with _output(path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(fh, rows) -> None:
    """The one output format: CSV with ``"\\n"`` line ends, floats (numpy ones
    too) as ``repr(float(v))``, None as an empty field, anything else as is.

    A row with a ``"\\r"`` in a text field is written with every field quoted:
    csv quotes only the characters of its own line terminator, and a reader
    ends a record at a bare ``"\\r"``."""
    writer = csv.writer(fh, lineterminator="\n")
    quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        out = quoted if any(isinstance(v, str) and "\r" in v for v in row) else writer
        out.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])


def write_csv(path: str | Path, rows) -> None:
    """``write_rows`` into a file that atomically replaces ``path``."""
    with replace_on_close(path) as fh:
        write_rows(fh, rows)


def read_input(path: Path, what: str, unit: str | None = None, first: int = 1,
               error: type[DataError] = DataError):
    """The bytes of an input file or, given a ``unit`` counted from ``first``,
    its UTF-8 lines with their ends as written.  A path that is not a file, or
    a byte that is not UTF-8, raises ``error`` naming the path (and the line)."""
    try:
        raw = path.read_bytes()
    except OSError:
        raise error(f"{what} not found: {path}") from None
    if unit is None:
        return raw
    lines = raw.splitlines(keepends=True)  # at "\n", "\r\n" and "\r", as open() splits
    for n, line in enumerate(lines):
        try:
            lines[n] = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise error(
                f"{path}: {unit} {first + n}: byte {line[exc.start]:#04x} is not valid UTF-8"
            ) from None
    return lines


def _read_csv_features(path: Path) -> np.ndarray:
    """The frames of a CSV feature file, each field read by numpy's text
    parser (``float()``'s grammar without ``_`` separators or non-ASCII
    digits).  Blank lines are skipped; the first bad row is named."""
    rows = [(n, line.strip()) for n, line in enumerate(read_input(path, "feature file", "row", 0))]
    rows = [(n, line) for n, line in rows if line]
    if not rows:
        raise DataError(f"{path}: empty feature file")
    try:
        frames = _parsed([line for _, line in rows])
    except ValueError:
        width = None  # the first row that is non-numeric, or else not the first row's width
        for lineno, line in rows:
            try:
                count = _parsed([line]).shape[1]
            except ValueError as exc:
                raise DataError(f"{path}: row {lineno}: non-numeric value") from exc
            if width is None:
                width = count
            elif count != width:
                raise DimensionError(f"{path}: row {lineno} has width {count}, expected {width}")
        raise
    return validate_frames(frames, str(path))


def _parsed(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _read_binary_features(path: Path) -> np.ndarray:
    raw = read_input(path, "feature file")
    if len(raw) < 8:
        raise DataError(f"{path}: truncated header")
    t, d = struct.unpack("<ii", raw[:8])
    if t < 1 or d < 1:
        raise DataError(f"{path}: invalid header (T={t}, D={d})")
    expected = 8 + 4 * t * d
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    frames = np.frombuffer(raw, dtype="<f4", offset=8).astype(np.float64).reshape(t, d)
    return validate_frames(frames, str(path))


def load_feature_file(path: str | Path) -> np.ndarray:
    path = Path(path)
    if path.suffix == BINARY_SUFFIX:
        return _read_binary_features(path)
    return _read_csv_features(path)


def write_feature_csv(path: str | Path, frames: np.ndarray) -> None:
    frames = validate_frames(frames)
    with _output(path), open(path, "w", encoding="utf-8") as fh:
        for row in frames:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def write_feature_bin(path: str | Path, frames: np.ndarray) -> None:
    frames = validate_frames(frames)
    t, d = frames.shape
    with _output(path), open(path, "wb") as fh:
        fh.write(struct.pack("<ii", t, d))
        fh.write(frames.astype("<f4").tobytes())


def _is_utf8(text: str) -> bool:
    """False for a string that cannot be written out, such as JSON "\\ud800"."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Check every line of a JSON-lines manifest and return its entries in
    file order.  Each feature file must exist; none is opened."""
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(read_input(path, "manifest", "line"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: invalid JSON") from exc
        where = f"{path}: line {lineno}"
        if not isinstance(obj, dict):
            raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
        for key in ("id", "word", "split", "features"):
            if key not in obj:
                raise DataError(f"{where}: missing field '{key}'")
            if not isinstance(obj[key], str):
                raise DataError(
                    f"{where}: field '{key}' must be a string, got {type(obj[key]).__name__}"
                )
            if not _is_utf8(obj[key]):
                raise DataError(f"{where}: field '{key}' holds a lone surrogate")
        rec_id, phonemes = obj["id"], obj.get("phonemes")
        if phonemes is not None and not (
            isinstance(phonemes, list) and all(isinstance(p, str) for p in phonemes)
        ):
            raise DataError(
                f"{where}: record '{rec_id}': 'phonemes' must be an array of strings"
            )
        if phonemes is not None and not all(map(_is_utf8, phonemes)):
            raise DataError(f"{where}: record '{rec_id}': a phoneme holds a lone surrogate")
        feat_rel = obj["features"]
        if feat_rel.startswith("/") or ".." in feat_rel.split("/"):  # as POSIX Path.parts reads it
            raise DataError(
                f"{where}: record '{rec_id}': features path {feat_rel!r} must be "
                "relative to the manifest directory, with no '..' part"
            )
        feat_path = base / feat_rel
        if not feat_path.is_file():
            raise DataError(f"record '{rec_id}': feature file not found: {feat_path}")
        if rec_id in seen:
            raise DataError(f"duplicate record id '{rec_id}'")
        seen.add(rec_id)
        entries.append(ManifestEntry(rec_id, obj["word"], phonemes, obj["split"], feat_path))
    if not entries:
        raise DataError("dataset contains no records")
    return entries


def parse_manifest(path: str | Path, split: str = "all", check=None) -> Dataset:
    """The records of one split of a manifest ("all" for every record), in
    file order.  Every line is checked, but only that split's feature files
    are read.  ``check``, when given, is called with every entry of the
    manifest before any feature file is read."""
    entries = read_manifest(path)
    if check is not None:
        check(entries)
    entries = [e for e in entries if split in ("all", e.split)]
    if not entries:
        raise DataError(f"no records in split '{split}'")
    return Dataset.from_records([
        SegmentRecord(e.id, e.word, e.phonemes, e.split, load_feature_file(e.path))
        for e in entries
    ])


def write_manifest(
    dataset: Dataset,
    manifest_path: str | Path,
    fmt: str = "csv",
) -> Path:
    """Write the manifest and one feature file per record next to it, in
    ``features/<id><suffix>``; an id with a ``/``, ``\\`` or NUL, which
    would not name one file there, is refused before anything is written."""
    if fmt not in ("csv", "bin"):
        raise ValueError(f"unknown feature format '{fmt}'")
    for rec in dataset:
        if any(c in rec.id for c in "/\\\0"):
            raise DataError(
                f"record {rec.id!r}: an id with '/', '\\' or NUL cannot name a feature file"
            )
    manifest_path = Path(manifest_path)
    output_dir(manifest_path.parent / FEATURES_DIRNAME)
    suffix = ".csv" if fmt == "csv" else BINARY_SUFFIX
    with replace_on_close(manifest_path) as fh:
        for rec in dataset:
            rel = f"{FEATURES_DIRNAME}/{rec.id}{suffix}"
            target = manifest_path.parent / rel
            if fmt == "csv":
                write_feature_csv(target, rec.features)
            else:
                write_feature_bin(target, rec.features)
            obj: dict = {"id": rec.id, "word": rec.word}
            if rec.phonemes is not None:
                obj["phonemes"] = rec.phonemes
            obj["split"] = rec.split
            obj["features"] = rel
            fh.write(json.dumps(obj) + "\n")
    return manifest_path


def _random_word(rng, alphabet_size, kmin, kmax) -> tuple[int, ...]:
    k = int(rng.integers(kmin, kmax + 1))
    return tuple(int(v) for v in rng.integers(0, alphabet_size, size=k))


def _mutate_word(rng, word, alphabet_size, kmin, kmax) -> tuple[int, ...]:
    ops = ["sub"]
    if len(word) > kmin:
        ops.append("del")
    if len(word) < kmax:
        ops.append("ins")
    op = ops[int(rng.integers(0, len(ops)))]
    pos = int(rng.integers(0, len(word)))
    sym = int(rng.integers(0, alphabet_size))
    if op == "sub":
        return word[:pos] + (sym,) + word[pos + 1 :]
    if op == "del":
        return word[:pos] + word[pos + 1 :]
    return word[:pos] + (sym,) + word[pos:]


def _draw_distinct_words(rng, alphabet_size, num_words, kmin, kmax) -> list[tuple[int, ...]]:
    words: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    budget = 1000 * num_words + 1000
    while len(words) < num_words:
        budget -= 1
        if budget <= 0:
            raise GenerationError("could not draw enough distinct phoneme strings")
        if words and rng.random() < _MUTATE_PROB:
            base = words[int(rng.integers(0, len(words)))]
            cand = _mutate_word(rng, base, alphabet_size, kmin, kmax)
        else:
            cand = _random_word(rng, alphabet_size, kmin, kmax)
        if cand in seen:
            continue
        seen.add(cand)
        words.append(cand)
    return words


def generate_synthetic(
    alphabet_size: int,
    num_words: int,
    tokens_per_word: int,
    phonemes_per_word_range: tuple[int, int],
    dim: int,
    frames_per_phoneme_range: tuple[int, int],
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """Generate a phoneme-string corpus with known ground-truth structure.

    Each alphabet symbol gets a fixed D-dim prototype (components uniform in
    [-1, 1]).  Words are distinct symbol strings; about half are single-edit
    variants of earlier words so that small edit distances are represented.
    Each token renders each phoneme as L frames (L uniform in
    ``frames_per_phoneme_range``) of prototype plus N(0, noise_sigma^2)
    noise.  Tokens with index < ceil(tokens_per_word / 2) go to the train
    split, the rest to test.  Fully deterministic for a fixed seed.
    """
    if alphabet_size < 2:
        raise GenerationError(f"alphabet_size must be >= 2, got {alphabet_size}")
    if num_words < 1 or tokens_per_word < 1 or dim < 1:
        raise GenerationError("num_words, tokens_per_word and dim must all be >= 1")
    kmin, kmax = phonemes_per_word_range
    fmin, fmax = frames_per_phoneme_range
    if not (1 <= kmin <= kmax) or not (1 <= fmin <= fmax):
        raise GenerationError("ranges must be non-empty with min >= 1")
    if not noise_sigma >= 0:  # NaN fails it too
        raise GenerationError(f"noise_sigma must be >= 0, got {noise_sigma}")
    available = sum(alphabet_size**k for k in range(kmin, kmax + 1))
    if num_words > available:
        raise GenerationError(
            f"cannot draw {num_words} distinct words: only {available} strings exist"
        )

    rng = np.random.default_rng(seed)
    prototypes = rng.uniform(-1.0, 1.0, size=(alphabet_size, dim))
    words = _draw_distinct_words(rng, alphabet_size, num_words, kmin, kmax)

    train_tokens = (tokens_per_word + 1) // 2
    records: list[SegmentRecord] = []
    for wi, word in enumerate(words):
        label = f"w{wi:03d}"
        phonemes = [f"p{s:02d}" for s in word]
        for tj in range(tokens_per_word):
            blocks = []
            for s in word:
                length = int(rng.integers(fmin, fmax + 1))
                noise = rng.normal(0.0, noise_sigma, size=(length, dim))
                blocks.append(prototypes[s] + noise)
            records.append(
                SegmentRecord(
                    id=f"{label}_t{tj:02d}",
                    word=label,
                    phonemes=phonemes,
                    split="train" if tj < train_tokens else "test",
                    features=np.concatenate(blocks, axis=0),
                )
            )
    return Dataset.from_records(records)
