"""Command-line surface: train, encode, search, evaluate, analyze, synth.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
Training defaults are the reference configuration (100 hidden units,
learning rate 0.3, 500 epochs, denoising probability 0.3 in dsa mode);
desk-scale runs override them explicitly.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import re
import sys
import time
from pathlib import Path

from .autoencoder import (
    TrainConfig,
    encode_batch,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_log,
)
from .baselines import dtw_started, naive_encode_batch
from .blas import one_thread
from .data import (
    generate_synthetic,
    load_feature_file,
    output_dir,
    parse_manifest,
    read_manifest,
    write_manifest,
    write_rows,
)
from .errors import DataError, DivergenceError
from .evaluation import (
    diff_vector_rows,
    mean_average_precision,
    project_2d,
    similarity_table,
    similarity_table_rows,
    word_difference_vectors,
    write_comparison,
    write_diff_vectors,
    write_map_report,
    write_similarity_table,
)
from .retrieval import (
    build_archive,
    cosine_matrix,
    dtw_scores,
    load_archive,
    rank,
    rank_dtw,
    save_archive,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DIVERGENCE = 4

DEFAULT_HIDDEN = 100
DEFAULT_DSA_DENOISE = 0.3


def _bounded(kind, test, bound):
    """An argparse ``type=`` that parses ``kind`` and rejects a value that
    fails ``test``, so argparse exits 2 before any command runs.  Every test
    is a comparison that NaN fails."""

    def convert(text):
        value = kind(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    convert.__name__ = kind.__name__  # so a non-number still reads "invalid int value"
    return convert


POSITIVE_INT = _bounded(int, lambda v: v > 0, "a positive integer")
NON_NEGATIVE_INT = _bounded(int, lambda v: v >= 0, "a non-negative integer")
POSITIVE_FLOAT = _bounded(float, lambda v: 0 < v < math.inf, "positive and finite")
NON_NEGATIVE_FLOAT = _bounded(float, lambda v: 0 <= v < math.inf, "non-negative and finite")
PROBABILITY = _bounded(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
ALPHABET_SIZE = _bounded(int, lambda v: v >= 2, "an integer >= 2")


def _check_files(parser, outputs, inputs):
    """Check a command's files before it reads any.  ``outputs`` and
    ``inputs`` are (option, path) pairs, the path None when not given.  An
    output that names an input or another output is a usage error (paths
    compared after ``Path.resolve()``); an output whose directory is missing,
    or that is a directory, is the DataError a later write would raise.
    Returns the ``check`` of ``parse_manifest`` that makes an output that is
    the feature file of a manifest entry a usage error.  Only an output that
    exists can be a feature file, so a run whose outputs are all new looks
    at no entry."""
    outputs = [(option, path) for option, path in outputs if path is not None]
    named = {}
    for option, path in inputs:
        if path is not None:
            named.setdefault(Path(path).resolve(), option)
    for option, path in outputs:
        key = Path(path).resolve()
        if key in named:
            parser.error(f"{option} and {named[key]} name the same file {path}")
        named[key] = option
    existing = {}
    for option, path in outputs:
        if not Path(path).parent.is_dir():
            raise DataError(f"cannot write {path}: {Path(path).parent} is not a directory")
        if Path(path).is_dir():
            raise DataError(f"cannot write {path}: Is a directory")
        if Path(path).is_file():
            stat = os.stat(path)
            existing[stat.st_dev, stat.st_ino] = option, path

    def check(entries):
        for entry in entries if existing else ():
            stat = os.stat(entry.path)
            if (stat.st_dev, stat.st_ino) in existing:
                option, path = existing[stat.st_dev, stat.st_ino]
                parser.error(f"{option} and --manifest record '{entry.id}' name the same file {path}")

    return check


def cmd_train(args, parser) -> int:
    denoise = args.denoise
    if denoise is None:
        denoise = DEFAULT_DSA_DENOISE if args.mode == "dsa" else 0.0
    clip = None if args.no_clip else args.clip
    settings = {"denoise_p": denoise, "lr": args.lr, "clip_norm": clip}  # checkpoint records it too

    loss_log = args.loss_log if args.loss_log else f"{args.out}.loss.csv"
    check = _check_files(parser, [("--out", args.out), ("--loss-log", loss_log)],
                         [("--manifest", args.manifest)])
    dataset = parse_manifest(args.manifest, "train", check=check)
    records = dataset.records
    params = init_params(dataset.dim, args.hidden, args.seed)
    config = TrainConfig(seed=args.seed, epochs=args.epochs, **settings)
    params, losses = train(params, records, config)
    write_loss_log(losses, loss_log)
    save_checkpoint(params, args.out, train_meta=settings)
    final = losses[-1] if losses else float("nan")
    print(f"trained {args.epochs} epochs on {len(records)} records; final mean loss {final}")
    print(f"checkpoint: {args.out}")
    print(f"loss log: {loss_log}")
    return EXIT_OK


def _reject_ignored(parser, args, what, *names):
    """A usage error naming each option of ``names`` that ``args`` holds,
    since ``what`` would ignore it."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        parser.error(f"{what} takes no {' or '.join(given)}")


def _segment_encoder(checkpoint=None, m=None):
    """The batch encoder (a list of feature arrays in, one vector per row out)
    of the naive encoder with ``m`` segments, or else of the model loaded
    from ``checkpoint``."""
    if m is not None:
        return lambda batch: naive_encode_batch(batch, m)
    params = load_checkpoint(checkpoint)
    return lambda batch: encode_batch(params, batch)


def cmd_encode(args, parser) -> int:
    naive = args.encoder == "ne"
    if naive and args.m is None:
        parser.error("--encoder ne requires --m")
    if naive:
        _reject_ignored(parser, args, "--encoder ne", "checkpoint")
    else:
        _reject_ignored(parser, args, "--encoder model", "m")
    if not naive and not args.checkpoint:
        parser.error("model encoding requires --checkpoint")
    check = _check_files(parser, [("--out", args.out)],
                         [("--manifest", args.manifest), ("--checkpoint", args.checkpoint)])
    start = time.perf_counter()
    segment_encoder = _segment_encoder(args.checkpoint, args.m)
    records = parse_manifest(args.manifest, args.split, check=check).records
    read = time.perf_counter()
    archive = build_archive(segment_encoder, records)
    encoded = time.perf_counter()
    save_archive(archive, args.out)
    print(f"encode: read {read - start:.3f} s, encode {encoded - read:.3f} s,"
          f" write {time.perf_counter() - encoded:.3f} s", file=sys.stderr)
    print(f"wrote {len(archive)} embeddings of width {archive.dim} to {args.out}")
    return EXIT_OK


def _query_features(path, records):
    """The frames of ``--query-features``, checked against the records' width."""
    query = load_feature_file(path)
    if query.shape[1] != records[0].dim:
        raise DataError(f"{path}: query frames of width {query.shape[1]},"
                        f" the records' width is {records[0].dim}")
    return query


def cmd_search(args, parser) -> int:
    if (args.query_id is None) == (args.query_features is None):
        parser.error("provide exactly one of --query-id and --query-features")

    if args.method == "dtw":
        _reject_ignored(parser, args, "--method dtw", "archive", "checkpoint")
        if not args.manifest:
            parser.error("--method dtw requires --manifest")
        records = parse_manifest(args.manifest, args.split or "test").records
        words = {rec.id: rec.word for rec in records}
        if args.query_id is not None:
            by_id = {rec.id: rec for rec in records}
            if args.query_id not in by_id:
                raise DataError(f"unknown query id '{args.query_id}'")
            query = by_id[args.query_id].features
        else:
            query = _query_features(args.query_features, records)
        ranked = rank_dtw(query, records, exclude_id=args.query_id, top_k=args.top)
    else:
        if args.archive:
            _reject_ignored(parser, args, "searching a prebuilt archive", "checkpoint", "manifest",
                            "split")
            if args.query_id is None:
                parser.error("searching a prebuilt archive requires --query-id")
            archive = load_archive(args.archive)
        else:
            if not (args.checkpoint and args.manifest):
                parser.error("search requires --archive, or --checkpoint with --manifest")
            segment_encoder = _segment_encoder(args.checkpoint)
            records = parse_manifest(args.manifest, args.split or "test").records
            archive = build_archive(segment_encoder, records)
        if args.query_id is not None:
            query_vec = archive.vector(args.query_id)
        else:
            query_vec = segment_encoder([_query_features(args.query_features, records)])[0]
        words = dict(zip(archive.ids, archive.words))
        ranked = rank(query_vec, archive, exclude_id=args.query_id, top_k=args.top)

    rows = [(pos, seg_id, words[seg_id], score) for pos, (seg_id, score) in enumerate(ranked, 1)]
    write_rows(sys.stdout, [("rank", "id", "word", "score"), *rows])
    return EXIT_OK


_NE_METHOD = re.compile(r"ne(\d+)$")


def _parse_methods(tokens, parser):
    """(label, source) per --method token: None for DTW, else the keyword
    arguments of its ``_segment_encoder``.  Loads nothing."""
    methods = []
    seen = set()
    for token in tokens:
        ne = _NE_METHOD.fullmatch(token)
        if token == "dtw":
            label, source = token, None
        elif ne:
            m = int(ne.group(1))
            if m < 1:
                parser.error(f"naive encoder needs m >= 1, got '{token}'")
            label, source = token, {"m": m}
        elif "=" in token:
            label, _, ckpt = token.partition("=")
            if not label or not ckpt:
                parser.error(f"bad method '{token}'; use label=checkpoint.json")
            if label in (".", "..") or any(sep in label for sep in "/\\"):
                parser.error(f"method label '{label}' may not contain / or \\ or be . or ..")
            source = {"checkpoint": ckpt}
        else:
            parser.error(f"unknown method '{token}'; expected dtw, ne<m>, or label=checkpoint")
        if label in seen:
            parser.error(f"duplicate method label '{label}'")
        seen.add(label)
        methods.append((label, source))
    return methods


def cmd_evaluate(args, parser) -> int:
    methods = _parse_methods(args.method, parser)
    report_dir = output_dir(args.report_dir)  # so its reports are checked like any output
    reports = [("--report-dir", report_dir / f"per_query_{label}.csv") for label, _ in methods]
    checkpoints = [(f"--method {label}", source.get("checkpoint"))
                   for label, source in methods if source]
    check = _check_files(parser, [("--out", args.out), *reports],
                         [("--manifest", args.manifest), *checkpoints])
    # every token is checked before any checkpoint is loaded
    methods = [(label, _segment_encoder(**source) if source else None) for label, source in methods]
    start = time.perf_counter()
    records = parse_manifest(args.manifest, args.split, check=check).records
    print(f"evaluate: read {time.perf_counter() - start:.3f} s", file=sys.stderr)

    results = []
    with contextlib.ExitStack() as pending:
        if any(encoder is None for _, encoder in methods):  # DTW aligns while the others score
            pending.enter_context(one_thread())  # so no BLAS thread spins on a DTW worker's core
            finish_dtw = pending.enter_context(dtw_started([rec.features for rec in records]))
        for label, segment_encoder in methods:
            start = time.perf_counter()
            archive = None if segment_encoder is None else build_archive(segment_encoder, records)
            encoded = time.perf_counter()
            scores = dtw_scores(finish_dtw()) if archive is None else cosine_matrix(archive)
            scored = time.perf_counter()
            report = mean_average_precision(scores, records)
            del archive, scores  # so at most one method's score matrix is alive at a time
            print(f"{label}: encode {encoded - start:.3f} s, score {scored - encoded:.3f} s,"
                  f" MAP {time.perf_counter() - scored:.3f} s", file=sys.stderr)
            write_map_report(report.rows, report_dir / f"per_query_{label}.csv")
            if report.mean_ap is None:
                print(f"{label}: no scorable queries ({report.num_excluded} excluded)")
                return EXIT_DATA
            scorable = len(report.rows) - report.num_excluded
            print(
                f"{label}: MAP = {repr(report.mean_ap)} over {scorable} queries"
                f" ({report.num_excluded} excluded)"
            )
            results.append((label, report.mean_ap))

    if args.out:
        write_comparison(results, args.out)
        print(f"comparison: {args.out}")
    return EXIT_OK


def cmd_analyze_edit_distance(args, parser) -> int:
    check = _check_files(parser, [("--out", args.out)],
                         [("--archive", args.archive), ("--manifest", args.manifest)])
    archive = load_archive(args.archive)
    entries = read_manifest(args.manifest)
    check(entries)
    rows = similarity_table(archive, entries, max_bucket=args.max_bucket)
    if args.out:
        write_similarity_table(rows, args.out)
        print(f"wrote similarity table to {args.out}")
    else:
        write_rows(sys.stdout, similarity_table_rows(rows))
    return EXIT_OK


def _parse_pairs(spec, parser):
    try:
        chunks = next(csv.reader([spec], skipinitialspace=True))
    except csv.Error as exc:
        parser.error(f"bad --pairs: {exc}")
    pairs = []
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        w1, _, w2 = chunk.partition(":")
        if not w1 or not w2:
            parser.error(f"bad pair '{chunk}'; use word1:word2")
        pairs.append((w1, w2))
    if not pairs:
        parser.error("no word pairs given")
    return pairs


def cmd_analyze_diff_vectors(args, parser) -> int:
    pairs = _parse_pairs(args.pairs, parser)
    _check_files(parser, [("--out", args.out)], [("--archive", args.archive)])
    archive = load_archive(args.archive)
    diffs = word_difference_vectors(archive, pairs)
    projections = project_2d(diffs)
    if args.out:
        write_diff_vectors(pairs, diffs, projections, args.out)
        print(f"wrote difference vectors to {args.out}")
    else:
        write_rows(sys.stdout, diff_vector_rows(pairs, diffs, projections))
    return EXIT_OK


def cmd_synth(args, parser) -> int:
    for name, low, high in (("phonemes", args.phonemes_min, args.phonemes_max),
                            ("frames", args.frames_min, args.frames_max)):
        if low > high:
            parser.error(f"--{name}-min {low} exceeds --{name}-max {high}")
    dataset = generate_synthetic(
        alphabet_size=args.alphabet,
        num_words=args.words,
        tokens_per_word=args.tokens,
        phonemes_per_word_range=(args.phonemes_min, args.phonemes_max),
        dim=args.dim,
        frames_per_phoneme_range=(args.frames_min, args.frames_max),
        noise_sigma=args.noise,
        seed=args.seed,
    )
    out_dir = Path(args.out_dir)
    manifest = write_manifest(dataset, out_dir / "manifest.jsonl", fmt=args.format)
    print(f"wrote {len(dataset.records)} records to {manifest}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqembed",
        description="Sequence autoencoder embeddings, retrieval, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an autoencoder on the train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--seed", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--mode", choices=["sa", "dsa"], default="sa")
    p.add_argument("--denoise", type=PROBABILITY, default=None,
                   help="override the corruption probability for the chosen mode")
    p.add_argument("--hidden", type=POSITIVE_INT, default=DEFAULT_HIDDEN)
    p.add_argument("--lr", type=NON_NEGATIVE_FLOAT, default=TrainConfig.lr)
    p.add_argument("--epochs", type=NON_NEGATIVE_INT, default=TrainConfig.epochs)
    p.add_argument("--clip", type=POSITIVE_FLOAT, default=TrainConfig.clip_norm)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")
    p.add_argument("--loss-log", default=None)
    p.set_defaults(func=cmd_train, parser=p)

    p = sub.add_parser("encode", help="write an embedding archive CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--encoder", choices=["model", "ne"], default="model")
    p.add_argument("--m", type=POSITIVE_INT, default=None, help="segment count for --encoder ne")
    p.set_defaults(func=cmd_encode, parser=p)

    p = sub.add_parser("search", help="rank archive segments against a query")
    p.add_argument("--archive", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", choices=["train", "test", "all"], default=None)  # read as "test"
    p.add_argument("--method", choices=["cosine", "dtw"], default="cosine")
    p.add_argument("--query-id", default=None)
    p.add_argument("--query-features", default=None)
    p.add_argument("--top", type=POSITIVE_INT, default=10)
    p.set_defaults(func=cmd_search, parser=p)

    p = sub.add_parser("evaluate", help="mean average precision per method")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--method", action="append", required=True,
                   help="dtw, ne<m>, or label=checkpoint.json (repeatable)")
    p.add_argument("--report-dir", default=".")
    p.add_argument("--out", default=None, help="comparison CSV path")
    p.set_defaults(func=cmd_evaluate, parser=p)

    p = sub.add_parser("analyze", help="similarity tables and difference vectors")
    asub = p.add_subparsers(dest="analysis", required=True)

    pa = asub.add_parser("edit-distance", help="mean cosine by phoneme edit distance")
    pa.add_argument("--archive", required=True)
    pa.add_argument("--manifest", required=True)
    pa.add_argument("--max-bucket", type=POSITIVE_INT, default=5)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze_edit_distance, parser=pa)

    pa = asub.add_parser("diff-vectors", help="word-mean difference vectors + 2-D projection")
    pa.add_argument("--archive", required=True)
    pa.add_argument("--pairs", required=True, help='e.g. "new:few,night:fight" (CSV quoting)')
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze_diff_vectors, parser=pa)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=NON_NEGATIVE_INT, required=True)
    p.add_argument("--alphabet", type=ALPHABET_SIZE, default=10)
    p.add_argument("--words", type=POSITIVE_INT, default=40)
    p.add_argument("--tokens", type=POSITIVE_INT, default=15)
    p.add_argument("--phonemes-min", type=POSITIVE_INT, default=3)
    p.add_argument("--phonemes-max", type=POSITIVE_INT, default=6)
    p.add_argument("--dim", type=POSITIVE_INT, default=8)
    p.add_argument("--frames-min", type=POSITIVE_INT, default=2)
    p.add_argument("--frames-max", type=POSITIVE_INT, default=4)
    p.add_argument("--noise", type=NON_NEGATIVE_FLOAT, default=0.1)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.set_defaults(func=cmd_synth, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, args.parser)  # usage errors name the subcommand
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
