"""Autoencoder tests: init, encode/decode oracles, loss, corruption,
end-to-end gradients, training behavior, checkpoint round-trips."""
import copy
import hashlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lstm_oracle as oracle
import seqembed
from seqembed import autoencoder, lstm
from conftest import assert_grads_close, finite_difference, make_records
from seqembed.autoencoder import (
    ModelParams,
    TrainConfig,
    checkpoint_blocks,
    corrupt_zero_mask,
    decode,
    encode,
    encode_batch,
    init_params,
    load_checkpoint,
    loss_and_gradients,
    reconstruction_loss,
    save_checkpoint,
    train,
    unpack,
)
from seqembed.data import generate_synthetic
from seqembed.errors import CheckpointError, DimensionError, DivergenceError
from seqembed.lstm import Tape, forward


def zeroed(params):
    params.flat[:] = 0.0
    return params


def params_equal(a, b):
    return np.array_equal(a.flat, b.flat)


def grad_blocks(params, grad):
    """(name, parameter view, gradient view) for every layout block."""
    views = params.views()
    gviews = unpack(grad, params.input_dim, params.hidden_dim)
    return [(name, views[name], gviews[name]) for name in views]


class TestInit:
    def test_same_seed_identical(self):
        assert params_equal(init_params(5, 7, seed=3), init_params(5, 7, seed=3))

    def test_different_seed_differs(self):
        a, b = init_params(5, 7, seed=3), init_params(5, 7, seed=4)
        assert not params_equal(a, b)

    def test_biases_zero_weights_bounded(self):
        v = init_params(4, 6, seed=0).views()
        npt.assert_array_equal(v["encoder.b_"], 0.0)
        npt.assert_array_equal(v["decoder.b_"], 0.0)
        npt.assert_array_equal(v["output.b"], 0.0)
        weights = ("encoder.W_x", "encoder.W_h", "decoder.W_z.W_x", "decoder.W_y.W_x", "output.W")
        for name in weights:
            assert 0.0 < np.abs(v[name]).max() <= 0.08

    def test_parameter_count_closed_form(self):
        d, h = 13, 100
        p = init_params(d, h, seed=1)
        total = sum(arr.size for arr in p.views().values())
        assert total == p.flat.size
        assert total == 12 * h * h + 9 * h * d + 14 * h + d == 133113


class TestEncode:
    def test_zero_params_give_zero_embedding(self):
        p = zeroed(init_params(3, 4, seed=0))
        z = encode(p, np.random.default_rng(0).standard_normal((6, 3)))
        npt.assert_array_equal(z, np.zeros(4))

    def test_deterministic(self):
        p = init_params(3, 4, seed=2)
        x = np.random.default_rng(1).standard_normal((5, 3))
        npt.assert_array_equal(encode(p, x), encode(p, x))

    def test_single_step_equals_cell_forward(self):
        p = init_params(3, 4, seed=5)
        x = np.random.default_rng(2).standard_normal((1, 3))
        state, _ = oracle.cell_forward(oracle.encoder_layer(p.views()), x[0], oracle.zero_state(4))
        npt.assert_allclose(encode(p, x), state.h, rtol=0, atol=1e-15)

    def test_embedding_width_independent_of_length(self):
        p = init_params(3, 4, seed=8)
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = int(rng.integers(1, 51))
            assert encode(p, rng.standard_normal((t, 3))).shape == (4,)

    def test_width_mismatch(self):
        p = init_params(3, 4, seed=8)
        with pytest.raises(DimensionError):
            encode(p, np.zeros((5, 2)))

    @settings(max_examples=40, deadline=None)
    @given(
        input_dim=st.integers(1, 8),
        hidden=st.integers(1, 8),
        lengths=st.lists(st.integers(1, 40), min_size=1, max_size=40),
        block_columns=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(input_dim=8, hidden=32, lengths=[17, 30, 9, 17, 12, 30], block_columns=2, seed=0)
    @example(input_dim=8, hidden=100, lengths=[3, 25, 25, 1, 14], block_columns=3, seed=1)
    @example(input_dim=8, hidden=32, lengths=[9 + k * 7 % 20 for k in range(40)],
             block_columns=40, seed=2)  # one block of 40 columns
    def test_batch_equals_per_sequence_oracle_bit_for_bit(
        self, input_dim, hidden, lengths, block_columns, seed
    ):
        """``encode_batch`` in input order, in blocks of about
        ``block_columns`` columns of the longest length, against a loop of
        the oracle ``step`` over each sequence alone."""
        rng = np.random.default_rng(seed)
        params = init_params(input_dim, hidden, seed=seed % 1000)
        params.flat[:] = rng.uniform(-1.0, 1.0, size=params.flat.shape)
        xs = [rng.standard_normal((t, input_dim)) for t in lengths]
        budget = block_columns * 8 * 6 * hidden * (max(lengths) + 1)
        with mock.patch.object(autoencoder, "_TAPE_BYTES", budget):
            got = encode_batch(params, xs)
        views = params.views()
        for x, row in zip(xs, got):
            tape = oracle.SequenceTape.start(x @ views["encoder.W_x"].T + views["encoder.b_"])
            for t in range(len(x)):
                oracle.step(tape, t, views["encoder.W_h"], views["encoder.w_c"])
            npt.assert_array_equal(row, tape.h[-1])

    def test_batch_of_none(self):
        assert encode_batch(init_params(3, 4, seed=0), []).shape == (0, 4)

    def test_batch_keeps_nothing_and_stays_within_its_budget(self):
        # numpy's data buffers allocated from the autoencoder and the LSTM
        # kernel: after the call only the result may be alive (no tape kept
        # or cached), and at its peak the call holds little beyond the result
        # and one block's tape
        corpus = generate_synthetic(10, 40, 15, (3, 6), 8, (3, 5), 0.1, seed=11)
        xs = [rec.features for rec in corpus.subset("test")]
        params = init_params(8, 32, seed=0)
        encode_batch(params, xs[:3])  # numpy's own first-use allocations

        def numpy_data(snapshot):
            files = [tracemalloc.Filter(True, module.__file__) for module in (autoencoder, lstm)]
            return (snapshot.filter_traces(files)
                    .filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]))

        tracemalloc.start()
        try:
            before = numpy_data(tracemalloc.take_snapshot())
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = encode_batch(params, xs)
            peak = tracemalloc.get_traced_memory()[1]
            after = numpy_data(tracemalloc.take_snapshot())
        finally:
            tracemalloc.stop()
        alive = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert alive == out.nbytes
        held = peak - start - out.nbytes - sum(x.nbytes for x in xs)
        assert 0 < held <= 2 * autoencoder._TAPE_BYTES


class TestDecode:
    def test_zero_weights_emit_output_bias(self):
        p = zeroed(init_params(3, 4, seed=0))
        p.views()["output.b"][:] = [1.0, -2.0, 0.5]
        y = decode(p, np.zeros(4), length=5)
        npt.assert_array_equal(y, np.tile([1.0, -2.0, 0.5], (5, 1)))

    def test_length_one_single_step(self):
        p = init_params(3, 4, seed=9)
        z = np.random.default_rng(4).standard_normal(4)
        y = decode(p, z, length=1)
        assert y.shape == (1, 3)
        v = p.views()
        state, _ = oracle.cell_forward(oracle.decoder_layer(v, True), z, oracle.zero_state(4))
        npt.assert_allclose(y[0], v["output.W"] @ state.h + v["output.b"], rtol=0, atol=1e-15)

    def test_matches_hand_unrolled_three_steps(self):
        p = init_params(3, 4, seed=10)
        z = np.random.default_rng(5).standard_normal(4)
        y = decode(p, z, length=3)
        v = p.views()
        W_out, b_out = v["output.W"], v["output.b"]

        # the kernel through the folded recurrent matrix and the gate inputs
        # that stand in for the fed-back frames
        b = v["decoder.b_"]
        cell = (v["decoder.W_h"] + v["decoder.W_y.W_x"] @ W_out, v["decoder.w_c"])
        fed_back = v["decoder.W_y.W_x"] @ b_out + b
        gates = np.stack([v["decoder.W_z.W_x"] @ z + b, fed_back, fed_back]).reshape(3, 4, 1, 4)
        tape = forward(Tape(gates), *cell)
        npt.assert_array_equal(y, tape.h[1:, 0] @ W_out.T + b_out)

        # the per-step oracle
        state, _ = oracle.cell_forward(oracle.decoder_layer(v, True), z, oracle.zero_state(4))
        o1 = W_out @ state.h + b_out
        state, _ = oracle.cell_forward(oracle.decoder_layer(v, False), o1, state)
        o2 = W_out @ state.h + b_out
        state, _ = oracle.cell_forward(oracle.decoder_layer(v, False), o2, state)
        o3 = W_out @ state.h + b_out
        npt.assert_allclose(y, np.stack([o1, o2, o3]), rtol=0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        input_dim=st.integers(1, 5),
        hidden=st.integers(1, 6),
        length=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(input_dim=2, hidden=3, length=1, seed=0)
    def test_matches_per_step_feedback_oracle(self, input_dim, hidden, length, seed):
        # the folded recurrence against frames really fed back one step at a time
        rng = np.random.default_rng(seed)
        params = init_params(input_dim, hidden, seed=seed)
        params.flat += rng.uniform(-0.5, 0.5, size=params.flat.shape)
        z = rng.standard_normal(hidden)
        want = oracle.decode(params.views(), z, length)
        scale = max(1.0, float(np.abs(want).max()))
        npt.assert_allclose(decode(params, z, length), want, rtol=0, atol=1e-12 * scale)

    def test_bad_length(self):
        p = init_params(3, 4, seed=9)
        with pytest.raises(ValueError):
            decode(p, np.zeros(4), length=0)


class TestReconstructionLoss:
    def test_identity_gives_zero(self):
        x = np.random.default_rng(0).standard_normal((4, 3))
        assert reconstruction_loss(x, x) == 0.0

    def test_hand_value(self):
        assert reconstruction_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 5.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 4))
        y = rng.standard_normal((5, 4))
        perm = rng.permutation(4)
        assert reconstruction_loss(x, y) == reconstruction_loss(x[:, perm], y[:, perm])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            reconstruction_loss(np.zeros((2, 3)), np.zeros((3, 3)))


class TestCorruption:
    def test_p_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5))
        npt.assert_array_equal(corrupt_zero_mask(x, 0.0, rng), x)

    def test_p_one_zeroes_everything(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, 5)) + 10.0
        npt.assert_array_equal(corrupt_zero_mask(x, 1.0, rng), np.zeros_like(x))

    def test_zeroed_fraction_statistics(self):
        rng = np.random.default_rng(12345)
        x = np.ones((400, 250))  # 1e5 elements
        corrupted = corrupt_zero_mask(x, 0.3, rng)
        frac = float((corrupted == 0.0).mean())
        assert abs(frac - 0.3) < 0.01

    def test_fresh_draws_every_call(self):
        rng = np.random.default_rng(7)
        x = np.ones((20, 20))
        a = corrupt_zero_mask(x, 0.5, rng)
        b = corrupt_zero_mask(x, 0.5, rng)
        assert not np.array_equal(a, b)

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            corrupt_zero_mask(np.ones((2, 2)), 1.5, np.random.default_rng(0))


class TestEndToEndGradient:
    """Cornerstone: the full reconstruction-loss gradient, decoder feedback
    and z handoff included, must match central finite differences."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_all_parameters_match_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 5))
        params = init_params(3, 4, seed=seed + 50)
        x = rng.standard_normal((t, 3))
        _, grad = loss_and_gradients(params, x)
        loss = lambda: loss_and_gradients(params, x)[0]
        for name, arr, analytic in grad_blocks(params, grad):
            assert_grads_close(analytic, finite_difference(loss, arr), label=f"seed {seed} {name}")

    def test_gradient_with_corrupted_input(self):
        # denoising path: encoder sees x_in, loss targets x
        rng = np.random.default_rng(11)
        params = init_params(2, 3, seed=77)
        x = rng.standard_normal((3, 2))
        x_in = corrupt_zero_mask(x, 0.4, rng)
        _, grad = loss_and_gradients(params, x, x_in)
        loss = lambda: loss_and_gradients(params, x, x_in)[0]
        for name, arr, analytic in grad_blocks(params, grad):
            assert_grads_close(analytic, finite_difference(loss, arr), label=f"denoised {name}")

    @settings(max_examples=60, deadline=None)
    @given(
        input_dim=st.integers(1, 5),
        hidden=st.integers(1, 6),
        steps=st.integers(1, 6),
        in_steps=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_step_oracle(self, input_dim, hidden, steps, in_steps, seed):
        # the encoder input is corrupted and of its own length, so x_in != x
        rng = np.random.default_rng(seed)
        params = init_params(input_dim, hidden, seed=seed)
        params.flat += rng.uniform(-0.5, 0.5, size=params.flat.shape)
        x = rng.standard_normal((steps, input_dim))
        x_in = rng.standard_normal((in_steps, input_dim))
        x_in[rng.random(x_in.shape) < 0.3] = 0.0
        loss, grad = loss_and_gradients(params, x, x_in)
        want_loss, _, want = oracle.loss_and_gradients(params.views(), x, x_in)
        assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
        for name, _arr, got in grad_blocks(params, grad):
            scale = max(1.0, float(np.abs(want[name]).max()))
            npt.assert_allclose(got, want[name], rtol=0, atol=1e-12 * scale, err_msg=name)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (12,)])
    def test_wrong_encoder_input_width(self, shape):
        params = init_params(3, 4, seed=1)
        with pytest.raises(DimensionError, match="input_dim 3"):
            loss_and_gradients(params, np.zeros((4, 3)), np.zeros(shape))

    @pytest.mark.parametrize("x, x_in", [
        (np.ones((4, 2)), np.zeros((0, 2))), (np.zeros((0, 2)), None),
        (np.zeros((0, 2)), np.ones((4, 2))),
    ])
    def test_sequence_without_frames(self, x, x_in):
        params = init_params(2, 3, seed=1)
        with pytest.raises(DimensionError, match="T >= 1"):
            loss_and_gradients(params, x, x_in)


def tiny_train_records(rng, n=3, t=4, d=3):
    return make_records([rng.standard_normal((t, d)) for _ in range(n)], splits=["train"] * n)


class TestTrain:
    def test_zero_lr_leaves_params_unchanged(self):
        rng = np.random.default_rng(0)
        records = tiny_train_records(rng)
        params = init_params(3, 4, seed=1)
        before = copy.deepcopy(params)
        train(params, records, TrainConfig(seed=2, lr=0.0, epochs=3))
        assert params_equal(params, before)
        assert params.epoch_count == 3

    def test_single_step_decreases_loss(self):
        rng = np.random.default_rng(1)
        records = tiny_train_records(rng, n=1)
        params = init_params(3, 2, seed=3)
        x = records[0].features
        before = reconstruction_loss(x, decode(params, encode(params, x), x.shape[0]))
        train(params, records, TrainConfig(seed=0, lr=1e-3, epochs=1, clip_norm=None))
        after = reconstruction_loss(x, decode(params, encode(params, x), x.shape[0]))
        assert after < before

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(2)
        records = tiny_train_records(rng, n=4)
        cfg = TrainConfig(seed=9, lr=0.05, epochs=5, denoise_p=0.2)
        a, la = train(init_params(3, 4, seed=6), records, cfg)
        b, lb = train(init_params(3, 4, seed=6), records, cfg)
        assert params_equal(a, b)
        assert la == lb

    def test_denoise_zero_matches_plain_run(self):
        rng = np.random.default_rng(3)
        records = tiny_train_records(rng, n=4)
        a, _ = train(init_params(3, 4, seed=6), records, TrainConfig(seed=9, lr=0.05, epochs=4))
        b, _ = train(
            init_params(3, 4, seed=6),
            records,
            TrainConfig(seed=9, lr=0.05, epochs=4, denoise_p=0.0),
        )
        assert params_equal(a, b)

    def test_divergence_raises_with_context(self):
        rng = np.random.default_rng(4)
        records = tiny_train_records(rng, n=2)
        params = init_params(3, 4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch \d+, record 'r\d'"):
                train(params, records, TrainConfig(seed=1, lr=1e12, epochs=50, clip_norm=None))

    def test_divergence_names_last_finished_epoch(self):
        records = tiny_train_records(np.random.default_rng(4), n=2)
        settings = dict(seed=1, lr=1e12, clip_norm=None)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as exc:
                train(init_params(3, 4, seed=0), records, TrainConfig(epochs=50, **settings))
            found = re.search(
                r"at epoch (\d+), record 'r\d'; epoch (\d+) was the last to finish, "
                r"mean loss (\S+); gradient norm of the last update (\S+) before clipping$",
                str(exc.value))
            assert found, str(exc.value)
            last = int(found[2])
            assert last == int(found[1]) - 1 >= 1
            _, losses = train(
                init_params(3, 4, seed=0), records, TrainConfig(epochs=last, **settings)
            )
        assert found[3] == repr(losses[-1])
        assert float(found[4]) > 0.0 and found[4] == repr(float(found[4]))

    def test_divergence_in_first_epoch_says_none_finished(self):
        records = tiny_train_records(np.random.default_rng(4), n=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 1, record 'r\d'; no epoch finished; "
                               r"gradient norm of the last update \S+ before clipping$"):
                train(init_params(3, 4, seed=0), records,
                      TrainConfig(seed=1, lr=1e300, epochs=3, clip_norm=None))
            broken = init_params(3, 4, seed=0)
            broken.views()["output.b"][0] = np.inf  # the first loss is not finite
            with pytest.raises(DivergenceError, match=r"epoch 1, record 'r\d'; no epoch finished; "
                               r"no update was made$"):
                train(broken, records, TrainConfig(seed=1, epochs=3))

    @pytest.mark.parametrize("field", ["lr", "clip_norm", "denoise_p"])
    def test_nan_setting_rejected(self, field):
        records = tiny_train_records(np.random.default_rng(5), n=1)
        with pytest.raises(ValueError, match=field):
            train(init_params(3, 4, seed=0), records, TrainConfig(seed=1, **{field: float("nan")}))

    def test_empty_split_rejected(self):
        params = init_params(3, 4, seed=0)
        from seqembed.errors import DataError

        with pytest.raises(DataError):
            train(params, [], TrainConfig(seed=1))

    def test_desk_scale_loss_mostly_non_increasing(self):
        # needs a desk-scale corpus: per-epoch means over few records are too
        # noisy, and a fully converged run oscillates around its plateau, so
        # the window covers the descent phase
        ds = generate_synthetic(10, 40, 15, (3, 6), 8, (2, 4), 0.1, seed=11)
        params = init_params(8, 32, seed=5)
        _, losses = train(
            params, ds.subset("train"), TrainConfig(seed=17, lr=0.05, epochs=50, clip_norm=5.0)
        )
        drops = sum(1 for a, b in zip(losses, losses[1:]) if b <= a)
        assert drops / (len(losses) - 1) >= 0.9

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # OpenBLAS reads its thread count when numpy is imported, so each count
        # needs a fresh process.  D=8, H=32 is 15048 parameters, enough for a
        # threaded dot product to split and clipping to read its last bit.
        # At H=100 a sequence of T >= 60 makes OpenBLAS split the
        # weight-gradient products across threads, which at D=8 keeps every
        # bit; at D=39 the decoder's feedback product ``dA[1:] @ W_y`` does
        # not, and only the hold in ``loss_and_gradients`` keeps the bytes
        script = (
            "import sys\n"
            "from seqembed.autoencoder import TrainConfig, init_params, save_checkpoint, train\n"
            "from seqembed.data import generate_synthetic\n"
            "dim, hidden, frames, out = *map(int, sys.argv[1:4]), sys.argv[4]\n"
            "ds = generate_synthetic(10, 20, 2, (3, 6), dim, (2, frames), 0.1, seed=11)\n"
            "records = ds.subset('train')\n"
            "if hidden > 32:  # the four longest, the first of T >= 60\n"
            "    records = sorted(records, key=lambda rec: -len(rec.features))[:4]\n"
            "    assert len(records[0].features) >= 60\n"
            "params, _ = train(init_params(dim, hidden, seed=5), records,\n"
            "                  TrainConfig(seed=17, lr=0.05, epochs=1, clip_norm=5.0))\n"
            "save_checkpoint(params, out)\n"
        )
        src = str(Path(seqembed.__file__).resolve().parents[1])
        for dim, hidden, frames in ((8, 32, 4), (8, 100, 15), (39, 100, 15)):
            outputs = []
            for threads in ("1", "2"):
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
                out = tmp_path / f"{dim}_{hidden}_{threads}.json"
                child = subprocess.run(
                    [sys.executable, "-c", script, str(dim), str(hidden), str(frames), str(out)],
                    env=env, capture_output=True, text=True, timeout=120)
                assert child.returncode == 0, child.stderr
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], (dim, hidden)


CHECKPOINT_KEYS = [
    "encoder.W_xi", "encoder.W_xf", "encoder.W_xc", "encoder.W_xo",
    "encoder.W_hi", "encoder.W_hf", "encoder.W_hc", "encoder.W_ho",
    "encoder.w_ci", "encoder.w_cf", "encoder.w_co",
    "encoder.b_i", "encoder.b_f", "encoder.b_c", "encoder.b_o",
    "decoder.W_z.W_xi", "decoder.W_z.W_xf", "decoder.W_z.W_xc", "decoder.W_z.W_xo",
    "decoder.W_y.W_xi", "decoder.W_y.W_xf", "decoder.W_y.W_xc", "decoder.W_y.W_xo",
    "decoder.W_hi", "decoder.W_hf", "decoder.W_hc", "decoder.W_ho",
    "decoder.w_ci", "decoder.w_cf", "decoder.w_co",
    "decoder.b_i", "decoder.b_f", "decoder.b_c", "decoder.b_o",
    "output.W", "output.b",
]


class TestCheckpoints:
    def test_format_is_pinned(self, tmp_path):
        # keys, key order and bytes of a fresh init are frozen; the digest was
        # taken from the per-step implementation this layout replaced
        path = tmp_path / "model.json"
        save_checkpoint(init_params(3, 5, seed=42), path)
        blob = path.read_bytes()
        assert list(json.loads(blob)["params"]) == CHECKPOINT_KEYS
        assert hashlib.sha256(blob).hexdigest() == (
            "46b5785643184750f8489411f3f273749407c282cc25d9774982309a062d765f"
        )

    def test_bytes_are_those_json_dump_writes(self, tmp_path):
        path = tmp_path / "model.json"
        meta = {"denoise_p": 0.3, "lr": 0.05, "clip_norm": None}
        params = init_params(8, 32, seed=7)
        params.flat[:3] = [0.1, -1e-300, 2.0 ** 60]
        save_checkpoint(params, path, train_meta=meta)
        payload = json.loads(path.read_bytes())
        assert payload["train"] == meta
        dumped = io.StringIO()
        json.dump(payload, dumped)
        assert path.read_bytes() == (dumped.getvalue() + "\n").encode()

    def test_writing_holds_less_than_one_copy_of_the_text(self, tmp_path):
        # at the reference width (D=39, H=100, about 124 k floats) the text is
        # about 3 MB; written a block at a time, the call's traced peak stays
        # below its size (one payload of lists and its text would be about 4x it)
        path = tmp_path / "model.json"
        params = init_params(39, 100, seed=7)
        params.flat += np.random.default_rng(7).standard_normal(params.flat.shape)
        save_checkpoint(params, path)  # first-use allocations
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_checkpoint(params, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < peak - start < path.stat().st_size

    def test_gate_rows_are_views_into_flat(self):
        # at H=1 a "GH" gate part is one row, like a "G" part: only the shapes
        # tell gate rows joined along axis 0 from gate rows stacked
        for d, h in [(2, 3), (1, 1), (3, 1)]:
            params = zeroed(init_params(d, h, seed=0))
            blocks = dict(checkpoint_blocks(params))
            assert list(blocks) == CHECKPOINT_KEYS
            for key, rows in blocks.items():
                assert np.shares_memory(rows, params.flat), key
            blocks["encoder.W_xi"][:] = 1.0
            assert params.views()["encoder.W_x"][:h].sum() == h * d
            assert params.flat.sum() == h * d
            # the part shapes that test_format_is_pinned's keys imply
            part = {
                "encoder.W_x": (h, d), "encoder.W_h": (h, h), "encoder.w_c": (h,),
                "encoder.b_": (h,), "decoder.W_z.W_x": (h, h), "decoder.W_y.W_x": (h, d),
                "decoder.W_h": (h, h), "decoder.w_c": (h,), "decoder.b_": (h,),
                "output.W": (d, h), "output.b": (d,),
            }
            for key, rows in blocks.items():
                assert rows.shape == part[key if key.startswith("output.") else key[:-1]], key
            for name, view in params.views().items():
                parts = [rows for key, rows in blocks.items() if name in (key, key[:-1])]
                whole = np.stack(parts) if name.endswith("w_c") else np.concatenate(parts)
                assert view.shape == whole.shape, name
                npt.assert_array_equal(view, whole, err_msg=name)

    def test_views_are_built_once_over_flat(self):
        params = init_params(2, 3, seed=0)
        views = params.views()
        assert params.views() is views
        params.flat -= 1.0
        params.flat[-1] = 7.0
        assert views["output.b"][-1] == 7.0
        npt.assert_array_equal(np.concatenate([v.ravel() for v in views.values()]), params.flat)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda p: pickle.loads(pickle.dumps(p))])
    def test_copies_view_their_own_flat(self, clone):
        params = init_params(2, 3, seed=0)
        twin = clone(params)
        twin.flat -= 1.0
        assert twin.epoch_count == params.epoch_count and twin.rng_seed == params.rng_seed
        npt.assert_array_equal(twin.views()["output.b"], twin.flat[-2:])
        npt.assert_array_equal(np.concatenate([v.ravel() for v in twin.views().values()]),
                               twin.flat)

    def test_round_trip_encodes_identically(self, tmp_path):
        params = init_params(3, 5, seed=42)
        params.epoch_count = 17
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.input_dim == 3 and loaded.hidden_dim == 5
        assert loaded.rng_seed == 42 and loaded.epoch_count == 17
        assert params_equal(params, loaded)
        x = np.random.default_rng(0).standard_normal((6, 3))
        npt.assert_array_equal(encode(params, x), encode(loaded, x))

    def test_truncated_file_rejected(self, tmp_path):
        params = init_params(2, 3, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        params = init_params(2, 3, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_shape_inconsistency_rejected(self, tmp_path):
        params = init_params(2, 3, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["params"]["output.b"] = [0.0, 0.0, 0.0, 0.0, 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        params = init_params(2, 3, seed=1)
        path = tmp_path / "model.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        del payload["params"]["decoder.W_z.W_xi"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="decoder.W_z.W_xi"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden_dim", [10**9, float("inf")])
    def test_huge_header_rejected_before_allocating(self, tmp_path, hidden_dim):
        # the arrays are checked against the header's shapes before anything
        # sized from the header exists, so a 1e9-unit claim fails at once
        path = tmp_path / "model.json"
        save_checkpoint(init_params(2, 3, seed=1), path)
        payload = json.loads(path.read_text())
        payload["hidden_dim"] = hidden_dim
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [
        ("input_dim", 2.7), ("epochs", 1.9), ("epochs", -5), ("seed", True), ("input_dim", "2"),
        ("version", True), ("version", 1.0),
    ])
    def test_header_fields_must_be_integers_in_range(self, tmp_path, field, value):
        path = tmp_path / "model.json"
        save_checkpoint(init_params(2, 3, seed=1), path)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [
        ("output.b", ["0.5", 0.0]), ("output.b", [True, 0.0]), ("output.b", [None, 0.0]),
        ("output.b", [10**400, 0.0]),
        ("encoder.W_xi", [[True, 0.5]] * 3),
        ("encoder.w_co", [0.0, float("nan"), 0.0]), ("decoder.b_f", [float("inf"), 0.0, 0.0]),
        ("output.W", [[0.0, 0.0, -float("inf")]] * 2),
    ])
    def test_params_must_be_finite_json_numbers(self, tmp_path, key, value):
        # numpy alone would read "0.5" as 0.5, true as 1.0 and null as nan
        path = tmp_path / "model.json"
        save_checkpoint(init_params(2, 3, seed=1), path)
        payload = json.loads(path.read_text())
        payload["params"][key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match=re.escape(f"'{key}'")):
            load_checkpoint(path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), input_dim=st.integers(1, 4), hidden_dim=st.integers(1, 5),
           seed=st.integers(0, 2**64), epochs=st.integers(0, 10**6))
    def test_round_trip_keeps_every_bit(self, tmp_path_factory, data, input_dim, hidden_dim,
                                        seed, epochs):
        size = init_params(input_dim, hidden_dim, seed=0).flat.size
        finite = st.floats(allow_nan=False, allow_infinity=False)
        flat = data.draw(hnp.arrays(np.float64, size, elements=finite))
        # every example also holds -0.0, subnormals and both largest floats
        flat[:5] = [-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308,
                    -1.7976931348623157e308]
        path = tmp_path_factory.mktemp("ckpt") / "model.json"
        save_checkpoint(ModelParams(input_dim, hidden_dim, flat, seed, epochs), path)
        loaded = load_checkpoint(path)
        assert (loaded.input_dim, loaded.hidden_dim) == (input_dim, hidden_dim)
        assert (loaded.rng_seed, loaded.epoch_count) == (seed, epochs)
        npt.assert_array_equal(loaded.flat.view(np.uint64), flat.view(np.uint64))
        again = path.with_name("again.json")
        save_checkpoint(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_records_provenance(self, tmp_path):
        params = init_params(2, 3, seed=5)
        params.epoch_count = 9
        path = tmp_path / "model.json"
        save_checkpoint(params, path, train_meta={"denoise_p": 0.3, "lr": 0.3, "clip_norm": 5.0})
        payload = json.loads(path.read_text())
        assert payload["seed"] == 5
        assert payload["epochs"] == 9
        assert payload["train"]["denoise_p"] == 0.3
