"""Command-line surface: train, encode, search, evaluate, analyze, synth.

Exit codes: 0 success, 2 usage error, 3 data error, 4 training divergence.
Training defaults are the reference configuration (100 hidden units,
learning rate 0.3, 500 epochs, denoising probability 0.3 in dsa mode);
desk-scale runs override them explicitly.
"""
from __future__ import annotations

import argparse
import csv
import re
import sys
from pathlib import Path

import numpy as np

from .autoencoder import (
    TrainConfig,
    encode,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .baselines import naive_encode
from .data import (
    Dataset,
    generate_synthetic,
    load_feature_file,
    parse_manifest,
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
    dtw_matrix,
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
DEFAULT_LR = 0.3
DEFAULT_EPOCHS = 500
DEFAULT_DSA_DENOISE = 0.3
DEFAULT_CLIP = 5.0


def _split_records(dataset: Dataset, split: str):
    if split == "all":
        return dataset.records
    records = dataset.subset(split)
    if not records:
        raise DataError(f"no records in split '{split}'")
    return records


def _positive(parser, name, value, strict=True):
    if value is None:
        return
    if (strict and value <= 0) or (not strict and value < 0):
        bound = "positive" if strict else "non-negative"
        parser.error(f"--{name} must be {bound}, got {value}")


def cmd_train(args, parser) -> int:
    _positive(parser, "hidden", args.hidden)
    _positive(parser, "lr", args.lr, strict=False)
    _positive(parser, "epochs", args.epochs, strict=False)
    _positive(parser, "clip", args.clip)
    if args.denoise is not None and not 0.0 <= args.denoise <= 1.0:
        parser.error(f"--denoise must be in [0, 1], got {args.denoise}")
    denoise = args.denoise
    if denoise is None:
        denoise = DEFAULT_DSA_DENOISE if args.mode == "dsa" else 0.0

    dataset = parse_manifest(args.manifest)
    records = _split_records(dataset, "train")
    params = init_params(dataset.dim, args.hidden, args.seed)
    loss_log = args.loss_log if args.loss_log else f"{args.out}.loss.csv"
    config = TrainConfig(
        seed=args.seed,
        lr=args.lr,
        epochs=args.epochs,
        denoise_p=denoise,
        clip_norm=None if args.no_clip else args.clip,
        loss_log_path=loss_log,
    )
    params, losses = train(params, records, config)
    save_checkpoint(
        params,
        args.out,
        train_meta={
            "denoise_p": denoise,
            "lr": args.lr,
            "clip_norm": None if args.no_clip else args.clip,
        },
    )
    final = losses[-1] if losses else float("nan")
    print(f"trained {args.epochs} epochs on {len(records)} records; final mean loss {final}")
    print(f"checkpoint: {args.out}")
    print(f"loss log: {loss_log}")
    return EXIT_OK


def _make_vector_encoder(args, parser):
    if args.encoder == "ne":
        if args.m is None:
            parser.error("--encoder ne requires --m")
        _positive(parser, "m", args.m)
        m = args.m
        return lambda features: naive_encode(features, m)
    if not args.checkpoint:
        parser.error("model encoding requires --checkpoint")
    params = load_checkpoint(args.checkpoint)
    return lambda features: encode(params, features)


def cmd_encode(args, parser) -> int:
    dataset = parse_manifest(args.manifest)
    records = _split_records(dataset, args.split)
    segment_encoder = _make_vector_encoder(args, parser)
    archive = build_archive(segment_encoder, records)
    save_archive(archive, args.out)
    print(f"wrote {len(archive)} embeddings of width {archive.dim} to {args.out}")
    return EXIT_OK


def cmd_search(args, parser) -> int:
    _positive(parser, "top", args.top)
    if args.query_id is None and args.query_features is None:
        parser.error("provide --query-id or --query-features")

    if args.method == "dtw":
        if not args.manifest:
            parser.error("--method dtw requires --manifest")
        dataset = parse_manifest(args.manifest)
        records = _split_records(dataset, args.split)
        words = {rec.id: rec.word for rec in records}
        if args.query_id is not None:
            by_id = {rec.id: rec for rec in records}
            if args.query_id not in by_id:
                raise DataError(f"unknown query id '{args.query_id}'")
            query = by_id[args.query_id].features
        else:
            query = load_feature_file(args.query_features)
        ranked = rank_dtw(query, records, exclude_id=args.query_id, top_k=args.top)
    else:
        if args.archive:
            if args.query_id is None:
                parser.error("searching a prebuilt archive requires --query-id")
            archive = load_archive(args.archive)
        else:
            if not (args.checkpoint and args.manifest):
                parser.error("search requires --archive, or --checkpoint with --manifest")
            dataset = parse_manifest(args.manifest)
            records = _split_records(dataset, args.split)
            params = load_checkpoint(args.checkpoint)
            archive = build_archive(lambda feats: encode(params, feats), records)
        if args.query_id is not None:
            query_vec = archive.vector(args.query_id)
        else:
            query_vec = encode(params, load_feature_file(args.query_features))
        words = {seg_id: word for seg_id, word, _vec in archive.entries}
        ranked = rank(query_vec, archive, exclude_id=args.query_id, top_k=args.top)

    rows = [(pos, seg_id, words[seg_id], score) for pos, (seg_id, score) in enumerate(ranked, 1)]
    write_rows(sys.stdout, [("rank", "id", "word", "score"), *rows])
    return EXIT_OK


_NE_METHOD = re.compile(r"ne(\d+)$")


def _parse_methods(tokens, parser):
    methods = []
    seen = set()
    for token in tokens:
        if token == "dtw":
            entry = ("dtw", token, None)
        else:
            ne = _NE_METHOD.fullmatch(token)
            if ne:
                m = int(ne.group(1))
                if m < 1:
                    parser.error(f"naive encoder needs m >= 1, got '{token}'")
                entry = ("ne", token, m)
            elif "=" in token:
                label, _, ckpt = token.partition("=")
                if not label or not ckpt:
                    parser.error(f"bad method '{token}'; use label=checkpoint.json")
                if label in (".", "..") or any(sep in label for sep in "/\\"):
                    parser.error(f"method label '{label}' may not contain / or \\ or be . or ..")
                entry = ("model", label, ckpt)
            else:
                parser.error(
                    f"unknown method '{token}'; expected dtw, ne<m>, or label=checkpoint"
                )
        if entry[1] in seen:
            parser.error(f"duplicate method label '{entry[1]}'")
        seen.add(entry[1])
        methods.append(entry)
    return methods


def _score_matrix(kind, extra, records):
    if kind == "dtw":
        return dtw_matrix(records)
    if kind == "ne":
        vec_fn = lambda feats: naive_encode(feats, extra)
    else:
        params = load_checkpoint(extra)
        vec_fn = lambda feats: encode(params, feats)
    return cosine_matrix(build_archive(vec_fn, records))


def cmd_evaluate(args, parser) -> int:
    methods = _parse_methods(args.method, parser)
    dataset = parse_manifest(args.manifest)
    records = _split_records(dataset, args.split)
    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for kind, label, extra in methods:
        report = mean_average_precision(_score_matrix(kind, extra, records), records)
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
    _positive(parser, "max-bucket", args.max_bucket)
    archive = load_archive(args.archive)
    dataset = parse_manifest(args.manifest)
    rows = similarity_table(archive, dataset, max_bucket=args.max_bucket)
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
    archive = load_archive(args.archive)
    diffs = word_difference_vectors(archive, pairs)
    if len(diffs) >= 2:
        projections = project_2d(diffs)
    else:
        projections = np.zeros((1, 2))  # a single centered vector projects to the origin
    if args.out:
        write_diff_vectors(pairs, diffs, projections, args.out)
        print(f"wrote difference vectors to {args.out}")
    else:
        write_rows(sys.stdout, diff_vector_rows(pairs, diffs, projections))
    return EXIT_OK


def cmd_synth(args, parser) -> int:
    for name in ("alphabet", "words", "tokens", "dim", "phonemes-min", "frames-min"):
        _positive(parser, name, getattr(args, name.replace("-", "_")))
    _positive(parser, "noise", args.noise, strict=False)
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
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["sa", "dsa"], default="sa")
    p.add_argument("--denoise", type=float, default=None,
                   help="override the corruption probability for the chosen mode")
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN)
    p.add_argument("--lr", type=float, default=DEFAULT_LR)
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--clip", type=float, default=DEFAULT_CLIP)
    p.add_argument("--no-clip", action="store_true", help="disable gradient clipping")
    p.add_argument("--loss-log", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="write an embedding archive CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--encoder", choices=["model", "ne"], default="model")
    p.add_argument("--m", type=int, default=None, help="segment count for --encoder ne")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("search", help="rank archive segments against a query")
    p.add_argument("--archive", default=None)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--method", choices=["cosine", "dtw"], default="cosine")
    p.add_argument("--query-id", default=None)
    p.add_argument("--query-features", default=None)
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="mean average precision per method")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.add_argument("--method", action="append", required=True,
                   help="dtw, ne<m>, or label=checkpoint.json (repeatable)")
    p.add_argument("--report-dir", default=".")
    p.add_argument("--out", default=None, help="comparison CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="similarity tables and difference vectors")
    asub = p.add_subparsers(dest="analysis", required=True)

    pa = asub.add_parser("edit-distance", help="mean cosine by phoneme edit distance")
    pa.add_argument("--archive", required=True)
    pa.add_argument("--manifest", required=True)
    pa.add_argument("--max-bucket", type=int, default=5)
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze_edit_distance)

    pa = asub.add_parser("diff-vectors", help="word-mean difference vectors + 2-D projection")
    pa.add_argument("--archive", required=True)
    pa.add_argument("--pairs", required=True, help='e.g. "new:few,night:fight" (CSV quoting)')
    pa.add_argument("--out", default=None)
    pa.set_defaults(func=cmd_analyze_diff_vectors)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alphabet", type=int, default=10)
    p.add_argument("--words", type=int, default=40)
    p.add_argument("--tokens", type=int, default=15)
    p.add_argument("--phonemes-min", type=int, default=3)
    p.add_argument("--phonemes-max", type=int, default=6)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--frames-min", type=int, default=2)
    p.add_argument("--frames-max", type=int, default=4)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--format", choices=["csv", "bin"], default="csv")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
