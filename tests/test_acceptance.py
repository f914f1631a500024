"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with -s to see them live).

The desk-scale corpus and training hyperparameters are frozen here; the
trend and gap gates are deterministic for these seeds.
"""
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np
import pytest

from conftest import assert_grads_close, finite_difference
from seqembed.autoencoder import (
    TrainConfig,
    encode_batch,
    init_params,
    loss_and_gradients,
    save_checkpoint,
    train,
    unpack,
)
from seqembed.baselines import dtw_distance, dtw_path, naive_encode
from seqembed.cli import main
from seqembed.data import generate_synthetic, write_manifest
from seqembed.evaluation import (
    average_precision,
    mean_average_precision,
    phoneme_edit_distance,
    similarity_table,
)
from seqembed.retrieval import build_archive, cosine_matrix

CORPUS_SEED = 11
INIT_SEED = 5
TRAIN_SEED = 17
HIDDEN = 32
LR = 0.05
EPOCHS = 300
CLIP = 5.0
FRAMES = (3, 5)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(
        alphabet_size=10,
        num_words=40,
        tokens_per_word=15,
        phonemes_per_word_range=(3, 6),
        dim=8,
        frames_per_phoneme_range=FRAMES,
        noise_sigma=0.1,
        seed=CORPUS_SEED,
    )


@pytest.fixture(scope="module")
def corpus_dir(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    write_manifest(corpus, root / "manifest.jsonl")
    return root


def _train_run(corpus, denoise_p):
    params = init_params(8, HIDDEN, seed=INIT_SEED)
    start = time.time()
    params, losses = train(
        params,
        corpus.subset("train"),
        TrainConfig(seed=TRAIN_SEED, lr=LR, epochs=EPOCHS, denoise_p=denoise_p, clip_norm=CLIP),
    )
    return params, losses, time.time() - start


@pytest.fixture(scope="module")
def trained(corpus):
    """(params, losses, train_time) of the sa and dsa fits, each in its own
    worker process; a fit uses one core.  Workers are spawned, not forked,
    because this process already runs OpenBLAS threads."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(("sa", "dsa"), pool.map(_train_run, [corpus] * 2, [0.0, 0.3])))


@pytest.fixture(scope="module")
def trained_sa(trained):
    return trained["sa"]


@pytest.fixture(scope="module")
def trained_dsa(trained):
    return trained["dsa"]


def archive_map(archive, records):
    return mean_average_precision(cosine_matrix(archive), records).mean_ap


def test_criterion_1_gradient_exactness():
    start = time.time()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        input_dim = int(rng.choice([2, 3]))
        hidden = int(rng.choice([3, 4]))
        steps = int(rng.integers(1, 5))
        params = init_params(input_dim, hidden, seed=1000 + trial)
        x = rng.standard_normal((steps, input_dim))
        _, grad = loss_and_gradients(params, x)
        loss = lambda: loss_and_gradients(params, x)[0]
        grads = unpack(grad, input_dim, hidden)
        for name, arr in params.views().items():
            numeric = finite_difference(loss, arr, eps=1e-4)
            assert_grads_close(grads[name], numeric, rel=1e-4, floor=1e-6,
                               label=f"config {trial} (D={input_dim}, d={hidden}, T={steps}) {name}")
    elapsed = time.time() - start
    report(1, "gradient exactness", True, f"20 configs in {elapsed:.1f}s")
    assert elapsed <= 60.0


def _enumerate_min_path(costs):
    n, m = len(costs), len(costs[0])
    best = [math.inf]

    def walk(i, j, acc):
        if i == n - 1 and j == m - 1:
            if acc < best[0]:
                best[0] = acc
            return
        for di, dj in ((1, 1), (1, 0), (0, 1)):
            ni, nj = i + di, j + dj
            if ni < n and nj < m:
                walk(ni, nj, acc + costs[ni][nj])

    walk(0, 0, costs[0][0])
    return best[0]


def test_criterion_2_dtw_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 4))))
        b = rng.standard_normal((int(rng.integers(1, 6)), a.shape[1]))
        diff = a[:, None, :] - b[None, :, :]
        costs = np.sqrt((diff * diff).sum(axis=2)).tolist()

        got = dtw_distance(a, b)
        assert got == _enumerate_min_path(costs)

        # re-sum the DP's chosen path in the same order it accumulated
        dist, path = dtw_path(a, b)
        resum = 0.0
        for i, j in path:
            resum = resum + costs[i][j]
        assert resum == dist == got
    elapsed = time.time() - start
    report(2, "DTW oracle equivalence", True, f"100 pairs in {elapsed:.1f}s")
    assert elapsed <= 10.0


def test_criterion_3_edit_distance_and_ap_oracles():
    def oracle(p, q):
        p, q = tuple(p), tuple(q)

        @lru_cache(maxsize=None)
        def dist(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(
                dist(i - 1, j) + 1,
                dist(i, j - 1) + 1,
                dist(i - 1, j - 1) + (p[i - 1] != q[j - 1]),
            )

        return dist(len(p), len(q))

    rng = np.random.default_rng(99)
    symbols = [f"p{i:02d}" for i in range(12)]
    for _ in range(500):
        p = [symbols[int(k)] for k in rng.integers(0, 12, size=int(rng.integers(0, 8)))]
        q = [symbols[int(k)] for k in rng.integers(0, 12, size=int(rng.integers(0, 8)))]
        assert phoneme_edit_distance(p, q) == oracle(p, q)

    ranked = [("a", 0.9), ("b", 0.8), ("c", 0.7), ("d", 0.6)]
    assert abs(average_precision(ranked, {"a", "c"}) - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-12
    assert average_precision(ranked, {"a", "b"}) == 1.0
    for n in (1, 3, 7):
        tail = [(f"s{i}", float(-i)) for i in range(n)]
        assert abs(average_precision(tail, {f"s{n - 1}"}) - 1.0 / n) <= 1e-12
    report(3, "edit-distance and AP oracles", True, "500 pairs + fixtures")


def test_criterion_4_similarity_trend(corpus, trained_sa):
    params, losses, train_time = trained_sa
    start = time.time()
    archive = build_archive(lambda xs: encode_batch(params, xs), corpus.subset("test"))
    rows = similarity_table(archive, corpus, max_bucket=3)
    elapsed = train_time + (time.time() - start)

    means = [row.mean_cosine for row in rows]
    counts = [row.pair_count for row in rows]
    strictly_decreasing = all(a > b for a, b in zip(means, means[1:]))
    gap = means[0] - means[-1]
    ok = strictly_decreasing and gap >= 0.2 and all(c > 0 for c in counts)
    report(
        4,
        "similarity-by-distance trend",
        ok,
        "buckets "
        + " ".join(f"{row.label}:{row.mean_cosine:.4f}(n={row.pair_count})" for row in rows)
        + f"; gap {gap:.3f}; {elapsed:.0f}s",
    )
    assert all(c > 0 for c in counts), f"empty bucket: counts {counts}"
    assert strictly_decreasing, f"bucket means not strictly decreasing: {means}"
    assert gap >= 0.2, f"bucket-0 minus bucket-3+ gap {gap:.4f} < 0.2"
    assert elapsed <= 15 * 60
    assert losses[-1] < losses[0]


def test_criterion_5_retrieval_gains(corpus, corpus_dir, trained_sa, trained_dsa, tmp_path):
    sa_params = trained_sa[0]
    dsa_params = trained_dsa[0]
    test_records = corpus.subset("test")

    untrained = init_params(8, HIDDEN, seed=INIT_SEED)
    map_untrained = archive_map(build_archive(lambda xs: encode_batch(untrained, xs), test_records), test_records)
    map_sa = archive_map(build_archive(lambda xs: encode_batch(sa_params, xs), test_records), test_records)
    map_dsa = archive_map(build_archive(lambda xs: encode_batch(dsa_params, xs), test_records), test_records)

    sa_ckpt = tmp_path / "sa.json"
    dsa_ckpt = tmp_path / "dsa.json"
    save_checkpoint(sa_params, sa_ckpt, train_meta={"denoise_p": 0.0, "lr": LR, "clip_norm": CLIP})
    save_checkpoint(dsa_params, dsa_ckpt, train_meta={"denoise_p": 0.3, "lr": LR, "clip_norm": CLIP})
    comparison = tmp_path / "comparison.csv"
    code = main([
        "evaluate",
        "--manifest", str(corpus_dir / "manifest.jsonl"),
        "--method", f"sa={sa_ckpt}",
        "--method", f"dsa={dsa_ckpt}",
        "--method", "ne4", "--method", "ne6", "--method", "ne8",
        "--method", "dtw",
        "--report-dir", str(tmp_path / "reports"),
        "--out", str(comparison),
    ])
    assert code == 0
    lines = comparison.read_text().splitlines()
    assert lines[0] == "method,map"
    by_method = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:]}
    assert set(by_method) == {"sa", "dsa", "ne4", "ne6", "ne8", "dtw"}

    sa_gain = map_sa - map_untrained
    dsa_gain = map_dsa - map_untrained
    ok = sa_gain >= 0.30 and dsa_gain >= 0.30
    report(
        5,
        "retrieval MAP gains",
        ok,
        f"untrained {map_untrained:.4f}, sa {map_sa:.4f} (+{sa_gain:.3f}), "
        f"dsa {map_dsa:.4f} (+{dsa_gain:.3f})",
    )
    best_ne = max(by_method["ne4"], by_method["ne6"], by_method["ne8"])
    print(
        f"[criterion 5] observational: best NE {best_ne:.4f}, dtw {by_method['dtw']:.4f}; "
        f"sa {'meets' if by_method['sa'] >= best_ne else 'trails'} NE, "
        f"dsa {'meets' if by_method['dsa'] >= best_ne else 'trails'} NE "
        "(reported, not gated: synthetic corpus differs from full-scale speech)"
    )
    assert sa_gain >= 0.30, f"trained SA gain {sa_gain:.4f} < 0.30"
    assert dsa_gain >= 0.30, f"trained DSA gain {dsa_gain:.4f} < 0.30"
    # consistency between the library MAP and the CLI path
    assert abs(by_method["sa"] - map_sa) <= 1e-12
    assert abs(by_method["dsa"] - map_dsa) <= 1e-12


@pytest.fixture(scope="module")
def small_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("determinism_corpus")
    code = main([
        "synth", "--out-dir", str(root), "--seed", "3",
        "--alphabet", "6", "--words", "6", "--tokens", "4",
        "--phonemes-min", "2", "--phonemes-max", "3",
        "--dim", "5", "--frames-min", "1", "--frames-max", "2",
        "--noise", "0.05",
    ])
    assert code == 0
    return root


def _train_cli(manifest, out, mode, seed, denoise=None, epochs=3):
    argv = [
        "train", "--manifest", str(manifest), "--out", str(out),
        "--mode", mode, "--seed", str(seed), "--hidden", "6",
        "--epochs", str(epochs), "--lr", "0.05",
        "--loss-log", f"{out}.loss.csv",
    ]
    if denoise is not None:
        argv += ["--denoise", str(denoise)]
    assert main(argv) == 0


def test_criterion_6_cli_determinism(small_corpus_dir, tmp_path):
    manifest = small_corpus_dir / "manifest.jsonl"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _train_cli(manifest, a, "dsa", seed=9)
    _train_cli(manifest, b, "dsa", seed=9)
    ckpt_same = a.read_bytes() == b.read_bytes()
    log_same = (tmp_path / "a.json.loss.csv").read_bytes() == (tmp_path / "b.json.loss.csv").read_bytes()

    outs = []
    for name in ("eval1", "eval2"):
        out = tmp_path / f"{name}.csv"
        code = main([
            "evaluate", "--manifest", str(manifest),
            "--method", f"sa={a}",
            "--report-dir", str(tmp_path / name),
            "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    eval_same = outs[0] == outs[1]
    per_query_same = (
        (tmp_path / "eval1" / "per_query_sa.csv").read_bytes()
        == (tmp_path / "eval2" / "per_query_sa.csv").read_bytes()
    )

    ok = ckpt_same and log_same and eval_same and per_query_same
    report(6, "bit-identical reruns", ok)
    assert ckpt_same and log_same and eval_same and per_query_same


def test_criterion_7_denoising_equivalence(small_corpus_dir, tmp_path):
    manifest = small_corpus_dir / "manifest.jsonl"
    sa = tmp_path / "sa.json"
    dsa0 = tmp_path / "dsa0.json"
    _train_cli(manifest, sa, "sa", seed=21)
    _train_cli(manifest, dsa0, "dsa", seed=21, denoise=0.0)
    ckpt_same = sa.read_bytes() == dsa0.read_bytes()
    log_same = (tmp_path / "sa.json.loss.csv").read_bytes() == (tmp_path / "dsa0.json.loss.csv").read_bytes()
    report(7, "denoise_p=0 equals plain mode", ckpt_same and log_same)
    assert ckpt_same and log_same


def test_criterion_8_naive_encoder_dimensionality():
    rng = np.random.default_rng(0)
    for t in (5, 9, 30):
        x = rng.standard_normal((t, 13))
        for m, expected in ((4, 52), (6, 78), (8, 104)):
            assert naive_encode(x, m).shape == (expected,)

    x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    hand = naive_encode(x, 4)
    ok = np.array_equal(hand, [1.0, 2.5, 4.0, 5.5])
    report(8, "naive encoder dimensionality", ok, "52/78/104 and floor-partition fixture")
    assert ok
