"""LSTM kernel tests: hand oracles, scalar references, finite differences,
and equivalence with the per-step oracle."""
import ast
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lstm_oracle as oracle
import seqembed
from conftest import assert_grads_close, finite_difference
from seqembed.errors import DimensionError
from seqembed.lstm import Tape, backward, forward, weight_grads

# the weights of one layer; forward takes the gate inputs x W_x^T + b, then the
# cell (W_h, w_c), w_c holding the i, f and o peepholes as rows
NAMES = ("W_x", "b", "W_h", "w_c")


def zero_params(input_dim, hidden_dim):
    h = hidden_dim
    return {
        "W_x": np.zeros((4 * h, input_dim)),
        "b": np.zeros(4 * h),
        "W_h": np.zeros((4 * h, h)),
        "w_c": np.zeros((3, h)),
    }


def uniform_params(rng, input_dim, hidden_dim, scale):
    p = zero_params(input_dim, hidden_dim)
    for name in ("W_x", "W_h", "w_c"):
        p[name] = rng.uniform(-scale, scale, size=p[name].shape)
    return p


def scalar_params(p):
    return {
        "W_x": np.array([[p["wxi"]], [p["wxf"]], [p["wxc"]], [p["wxo"]]]),
        "b": np.array([p["bi"], p["bf"], p["bc"], p["bo"]]),
        "W_h": np.array([[p["whi"]], [p["whf"]], [p["whc"]], [p["who"]]]),
        "w_c": np.array([[p["wci"]], [p["wcf"]], [p["wco"]]]),
    }


def run(params, xs):
    """The kernel tape of one sequence, the batch of one."""
    xs = np.asarray(xs, dtype=np.float64)
    return forward(Tape(gate_major((xs @ params["W_x"].T + params["b"])[:, None])),
                   *cell(params))


def cell(params):
    return params["W_h"], params["w_c"]


def gate_major(gates):
    """A copy of (T, B, 4H) gate inputs, one row of 4H per column, laid out
    as a batch tape's gate-major (T, 4, B, H) array."""
    steps, batch, width = gates.shape
    return gates.reshape(steps, batch, 4, width // 4).swapaxes(1, 2).copy()


def column(tape, b=0):
    """Column b of a kernel tape as the oracle's one-sequence tape: its
    gates reshaped to (T, 4H) and views of its states, (T+1, H)."""
    steps = tape.gates.shape[0]
    return oracle.SequenceTape(tape.gates[:, :, b].reshape(steps, -1), tape.h[:, b], tape.c[:, b])


def single_step(params, x, h_prev, c_prev):
    """One kernel step from an arbitrary state."""
    tape = Tape(gate_major((params["W_x"] @ x + params["b"])[None, None]))
    tape.h[0], tape.c[0] = h_prev, c_prev
    return forward(tape, *cell(params))


def oracle_layer(params):
    return oracle.LstmParams(params["W_x"], params["W_h"], params["b"], *params["w_c"])


def scalar_peephole_step(p, x, h, c):
    """Independent scalar recomputation of the gate equations."""
    sig = lambda a: 1.0 / (1.0 + math.exp(-a))
    i = sig(p["wxi"] * x + p["whi"] * h + p["wci"] * c + p["bi"])
    f = sig(p["wxf"] * x + p["whf"] * h + p["wcf"] * c + p["bf"])
    g = math.tanh(p["wxc"] * x + p["whc"] * h + p["bc"])
    c_new = f * c + i * g
    o = sig(p["wxo"] * x + p["who"] * h + p["wco"] * c_new + p["bo"])
    return o * math.tanh(c_new), c_new


def scalar_plain_step(p, x, h, c):
    """Same equations without the peephole terms."""
    sig = lambda a: 1.0 / (1.0 + math.exp(-a))
    i = sig(p["wxi"] * x + p["whi"] * h + p["bi"])
    f = sig(p["wxf"] * x + p["whf"] * h + p["bf"])
    g = math.tanh(p["wxc"] * x + p["whc"] * h + p["bc"])
    c_new = f * c + i * g
    o = sig(p["wxo"] * x + p["who"] * h + p["bo"])
    return o * math.tanh(c_new), c_new


def test_sigmoid_stable_at_extremes():
    # gate inputs +1000, -1000 and 0 on the i, f and o rows; with zero
    # recurrent and peephole weights nothing else reaches them
    params = zero_params(1, 1)
    gates = np.zeros((3, 4, 1, 1))
    gates[:, [0, 1, 3]] = np.array([1000.0, -1000.0, 0.0])[:, None, None, None]
    tape = forward(Tape(gates), *cell(params))
    for row, want in zip(tape.gates[:, :, 0, 0], (1.0, 0.0, 0.5)):
        assert row[0] == row[1] == row[3] == want


def test_zero_params_zero_state_gives_zero_outputs():
    tape = run(zero_params(3, 4), [[5.0, -2.0, 1.0]])
    npt.assert_array_equal(tape.h[1, 0], np.zeros(4))
    npt.assert_array_equal(tape.c[1, 0], np.zeros(4))


def test_zero_params_unit_cell_state():
    # all gates sit at 0.5, candidate at 0: c becomes 0.5, h = 0.5*tanh(0.5)
    tape = single_step(zero_params(2, 3), np.array([1.0, 2.0]), np.zeros(3), np.ones(3))
    npt.assert_allclose(tape.c[1, 0], 0.5, rtol=0, atol=1e-15)
    npt.assert_allclose(tape.gates[0, 3, 0], 0.5, rtol=0, atol=1e-15)  # output gate
    npt.assert_allclose(tape.h[1, 0], 0.5 * np.tanh(0.5), rtol=0, atol=1e-15)
    assert abs(tape.h[1, 0, 0] - 0.231059) < 1e-6


def test_matches_scalar_reference():
    rng = np.random.default_rng(42)
    vals = rng.uniform(-0.7, 0.7, size=11)
    names = ["wxi", "wxf", "wxc", "wxo", "whi", "whf", "whc", "who", "wci", "wcf", "wco"]
    p = dict(zip(names, vals))
    p.update(bi=0.1, bf=-0.2, bc=0.3, bo=0.05)
    xs = [0.3, -1.2, 0.8, 2.0]
    tape = run(scalar_params(p), [[x] for x in xs])
    h, c = 0.0, 0.0
    for t, x in enumerate(xs):
        h, c = scalar_peephole_step(p, x, h, c)
        npt.assert_allclose(tape.h[t + 1, 0], h, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(tape.c[t + 1, 0], c, rtol=1e-12, atol=1e-12)


def test_zero_peepholes_match_plain_lstm_reference():
    rng = np.random.default_rng(7)
    names = ["wxi", "wxf", "wxc", "wxo", "whi", "whf", "whc", "who"]
    p = dict(zip(names, rng.uniform(-0.9, 0.9, size=8)))
    p.update(wci=0.0, wcf=0.0, wco=0.0, bi=-0.4, bf=0.2, bc=0.0, bo=0.6)
    xs = [1.0, -0.5, 0.25]
    tape = run(scalar_params(p), [[x] for x in xs])
    h, c = 0.0, 0.0
    for t, x in enumerate(xs):
        h, c = scalar_plain_step(p, x, h, c)
        npt.assert_allclose(tape.h[t + 1, 0], h, rtol=1e-12, atol=1e-12)
        npt.assert_allclose(tape.c[t + 1, 0], c, rtol=1e-12, atol=1e-12)


def test_forward_is_pure():
    rng = np.random.default_rng(0)
    params = uniform_params(rng, 3, 2, 0.5)
    x = rng.standard_normal(3)
    h_prev, c_prev = rng.standard_normal(2), rng.standard_normal(2)
    s1 = single_step(params, x, h_prev, c_prev)
    s2 = single_step(params, x, h_prev, c_prev)
    npt.assert_array_equal(s1.h, s2.h)
    npt.assert_array_equal(s1.c, s2.c)
    xs = rng.standard_normal((4, 3))
    before = {n: arr.copy() for n, arr in params.items()}, xs.copy()
    t1, t2 = run(params, xs), run(params, xs)
    npt.assert_array_equal(t1.h, t2.h)
    npt.assert_array_equal(t1.c, t2.c)
    for n, arr in params.items():
        npt.assert_array_equal(arr, before[0][n])
    npt.assert_array_equal(xs, before[1])


def test_shape_mismatch_raises():
    params = zero_params(3, 4)
    # not (T, 4, B, H) of 4 units, or no step
    for gates in (np.zeros((1, 15)), np.zeros((1, 20)), np.zeros(16), np.zeros((0, 16)),
                  np.zeros((0, 4, 2, 4)), np.zeros((1, 4, 1, 5))):
        with pytest.raises(DimensionError):
            forward(Tape(gates), *cell(params))
    bad = dict(params, W_h=np.zeros((16, 5)))  # recurrent weights of a 5-unit state
    with pytest.raises(DimensionError):
        run(bad, np.zeros((1, 3)))
    tape = run(params, np.zeros((1, 3)))
    with pytest.raises(DimensionError):
        backward(tape, np.zeros((1, 3)), *cell(params))
    # a tape of two columns is refused, not read through its first
    wide = forward(Tape(np.zeros((1, 4, 2, 4))), *cell(params))
    grads = {n: np.empty_like(arr) for n, arr in params.items()}
    with pytest.raises(DimensionError, match="batch of one"):
        backward(wide, np.zeros((1, 4)), *cell(params))
    with pytest.raises(DimensionError, match="batch of one"):
        weight_grads(wide, np.zeros((1, 16)), *cell(grads), grads["b"])


def test_zero_upstream_gradients_give_zero_gradients():
    rng = np.random.default_rng(1)
    params = uniform_params(rng, 2, 3, 0.5)
    xs = rng.standard_normal((4, 2))
    tape = run(params, xs)
    dA = backward(tape, np.zeros((4, 3)), *cell(params))
    npt.assert_array_equal(dA, np.zeros((4, 12)))
    npt.assert_array_equal(dA @ params["W_x"], np.zeros((4, 2)))
    grads = sequence_grads(params, xs, np.zeros((4, 3)))
    for arr in grads.values():
        npt.assert_array_equal(arr, np.zeros_like(arr))


def sequence_loss(params, xs, weights):
    """Scalar loss sum_t w_t . h_t for FD checking."""
    return float((weights * run(params, xs).h[1:, 0]).sum())


def sequence_grads(params, xs, weights):
    """Kernel gradients of sequence_loss for every weight and the inputs."""
    tape = run(params, xs)
    dA = backward(tape, weights, *cell(params))
    grads = {n: np.empty_like(arr) for n, arr in params.items()}
    weight_grads(tape, dA, *cell(grads), grads["b"])
    grads["W_x"] = dA.T @ xs
    grads["x"] = dA @ params["W_x"]
    return grads


def oracle_sequence_grads(params, xs, weights):
    layer = oracle_layer(params)
    state = oracle.zero_state(layer.hidden_dim)
    tape = []
    for x in xs:
        state, entry = oracle.cell_forward(layer, x, state)
        tape.append(entry)
    grads = oracle.LstmParams.zeros_like(layer)
    dh = np.zeros(layer.hidden_dim)
    dc = np.zeros(layer.hidden_dim)
    dxs = []
    for t in range(len(xs) - 1, -1, -1):
        dx, (dh, dc) = oracle.cell_backward(layer, tape[t], dh + weights[t], dc, grads)
        dxs.append(dx)
    out = {n: getattr(grads, n) for n in ("W_x", "b", "W_h")}
    out["w_c"] = np.stack([grads.w_ci, grads.w_cf, grads.w_co])
    out["x"] = np.array(dxs[::-1])
    return out


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(99)
    params = uniform_params(rng, 3, 4, 0.6)
    xs = rng.standard_normal((3, 3))
    weights = rng.standard_normal((3, 4))

    grads = sequence_grads(params, xs, weights)
    loss = lambda: sequence_loss(params, xs, weights)
    for name in NAMES:
        assert_grads_close(grads[name], finite_difference(loss, params[name]), label=name)
    # gradient with respect to the inputs, same tolerances
    assert_grads_close(grads["x"], finite_difference(loss, xs), label="x")


def test_gradient_property_over_random_shapes():
    rng = np.random.default_rng(123)
    for trial in range(8):
        input_dim = int(rng.integers(1, 7))
        hidden = int(rng.integers(1, 7))
        steps = int(rng.integers(1, 5))
        params = uniform_params(rng, input_dim, hidden, 0.7)
        xs = rng.standard_normal((steps, input_dim))
        weights = rng.standard_normal((steps, hidden))
        grads = sequence_grads(params, xs, weights)
        loss = lambda: sequence_loss(params, xs, weights)
        for name in NAMES:
            assert_grads_close(
                grads[name], finite_difference(loss, params[name]), label=f"trial {trial} {name}"
            )
        assert_grads_close(grads["x"], finite_difference(loss, xs), label=f"trial {trial} x")


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 6),
    hidden=st.integers(1, 6),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_kernel_matches_per_step_oracle(input_dim, hidden, steps, seed):
    rng = np.random.default_rng(seed)
    params = uniform_params(rng, input_dim, hidden, 0.9)
    params["b"] = rng.uniform(-0.9, 0.9, size=4 * hidden)
    xs = rng.standard_normal((steps, input_dim))
    weights = rng.standard_normal((steps, hidden))

    tape = run(params, xs)
    state = oracle.zero_state(hidden)
    for t in range(steps):
        state, _ = oracle.cell_forward(oracle_layer(params), xs[t], state)
        npt.assert_allclose(tape.h[t + 1, 0], state.h, rtol=0, atol=1e-14)
        npt.assert_allclose(tape.c[t + 1, 0], state.c, rtol=0, atol=1e-14)

    got = sequence_grads(params, xs, weights)
    want = oracle_sequence_grads(params, xs, weights)
    for name, ref in want.items():
        scale = max(1.0, float(np.abs(ref).max()))
        npt.assert_allclose(got[name], ref, rtol=0, atol=1e-12 * scale, err_msg=name)


@settings(max_examples=80, deadline=None)
@given(
    input_dim=st.integers(1, 8),
    hidden=st.integers(1, 8),
    steps=st.integers(1, 40),
    scale=st.floats(0.08, 3.0),
    fold=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(input_dim=8, hidden=32, steps=17, scale=0.08, fold=True, seed=0)
def test_forward_equals_per_step_oracle_bit_for_bit(input_dim, hidden, steps, scale, fold, seed):
    """``forward`` against a loop of the oracle ``step``, from a random
    nonzero start state: halving the i, f and o rows once per call changes
    no bit.  With ``fold`` the recurrent matrix is the decoder's
    W_h + W_y W_out."""
    rng = np.random.default_rng(seed)
    params = uniform_params(rng, input_dim, hidden, scale)
    params["b"] = rng.uniform(-scale, scale, size=4 * hidden)
    W_h = params["W_h"]
    if fold:
        W_y = rng.uniform(-scale, scale, size=(4 * hidden, input_dim))
        W_h = W_h + W_y @ rng.uniform(-scale, scale, size=(input_dim, hidden))
    gates = rng.standard_normal((steps, input_dim)) @ params["W_x"].T + params["b"]
    h0, c0 = rng.standard_normal(hidden), rng.standard_normal(hidden)
    got, want = Tape(gate_major(gates[:, None])), oracle.SequenceTape.start(gates.copy())
    for tape in (got, want):
        tape.h[0], tape.c[0] = h0, c0
    forward(got, W_h, params["w_c"])
    for t in range(steps):
        oracle.step(want, t, W_h, params["w_c"])
    for name in ("gates", "h", "c"):
        npt.assert_array_equal(getattr(column(got), name), getattr(want, name), err_msg=name)


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 8),
    hidden=st.integers(1, 8),
    lengths=st.lists(st.integers(1, 40), min_size=1, max_size=40),
    scale=st.floats(0.08, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(input_dim=8, hidden=32, lengths=[17, 30, 9, 17, 12], scale=0.08, seed=0)
@example(input_dim=8, hidden=100, lengths=[3, 25, 25, 1, 14], scale=0.3, seed=1)
def test_batch_forward_equals_per_sequence_oracle_bit_for_bit(
    input_dim, hidden, lengths, scale, seed
):
    """A batch tape, columns longest first with ties, against a loop of the
    oracle ``step`` over each sequence alone, from a random nonzero start
    state: every column keeps its sequence's bits, and its state rows past
    its length stay as they were."""
    rng = np.random.default_rng(seed)
    params = uniform_params(rng, input_dim, hidden, scale)
    lengths = sorted(lengths, reverse=True)
    batch = len(lengths)
    gates = rng.standard_normal((lengths[0], batch, input_dim)) @ params["W_x"].T
    gates += rng.uniform(-scale, scale, size=4 * hidden)
    h0, c0 = rng.standard_normal((batch, hidden)), rng.standard_normal((batch, hidden))
    got = Tape(gate_major(gates), lengths)
    got.h[0], got.c[0] = h0, c0
    forward(got, *cell(params))
    for b, steps in enumerate(lengths):
        want = oracle.SequenceTape.start(gates[:steps, b].copy())
        want.h[0], want.c[0] = h0[b], c0[b]
        for t in range(steps):
            oracle.step(want, t, *cell(params))
        npt.assert_array_equal(got.gates[:steps, :, b].reshape(steps, -1), want.gates,
                               err_msg=f"gates {b}")
        npt.assert_array_equal(got.h[: steps + 1, b], want.h, err_msg=f"h {b}")
        npt.assert_array_equal(got.c[: steps + 1, b], want.c, err_msg=f"c {b}")
        assert not got.h[steps + 1 :, b].any() and not got.c[steps + 1 :, b].any()


def test_batch_tape_states_start_at_zero():
    """After ``forward``, a batch tape's state rows past each column's
    length are still the zeros ``Tape`` made, and the rows up to it equal
    the same column run alone."""
    rng = np.random.default_rng(3)
    params = uniform_params(rng, 3, 4, 0.5)
    lengths = [5, 3, 1]
    gates = rng.standard_normal((5, 3, 3)) @ params["W_x"].T
    got = forward(Tape(gate_major(gates), lengths), *cell(params))
    for b, steps in enumerate(lengths):
        want = column(forward(Tape(gate_major(gates[:steps, b : b + 1])), *cell(params)))
        npt.assert_array_equal(got.h[: steps + 1, b], want.h)
        npt.assert_array_equal(got.c[: steps + 1, b], want.c)
        assert not got.h[steps + 1 :, b].any() and not got.c[steps + 1 :, b].any()


def test_batch_lengths_checked():
    gates = np.zeros((3, 4, 2, 2))
    for lengths in ([3], [2, 3], [4, 1], [3, -1]):
        with pytest.raises(DimensionError, match="lengths"):
            Tape(gates, lengths)


def test_token_major_batch_layout_refused():
    """A batch of gate inputs laid out (T, B, 4H), one row of 4H per column,
    is refused rather than read as a gate-major tape; so are one sequence's
    (T, 4H) and a 4-D array whose second axis is not the four gates."""
    for gates in (np.zeros((3, 2, 16)), np.zeros((3, 1, 16)), np.zeros((3, 4, 16)),
                  np.zeros((3, 2, 4, 4)), np.zeros((3, 16))):
        with pytest.raises(DimensionError, match=r"expected \(T, 4, B, H\)"):
            Tape(gates)


@settings(max_examples=60, deadline=None)
@given(
    input_dim=st.integers(1, 6),
    hidden=st.integers(1, 6),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(input_dim=2, hidden=3, steps=1, seed=0)
def test_backward_matches_per_step_loop(input_dim, hidden, steps, seed):
    """The whole-tape backward against the per-step loop, through a recurrent
    matrix other than the forward W_h, as the autoencoder's decoder passes."""
    rng = np.random.default_rng(seed)
    params = uniform_params(rng, input_dim, hidden, 0.9)
    params["b"] = rng.uniform(-0.9, 0.9, size=4 * hidden)
    tape = run(params, rng.standard_normal((steps, input_dim)))
    W_rec = rng.uniform(-1.5, 1.5, size=(4 * hidden, hidden))
    dH = rng.standard_normal((steps, hidden))
    got = backward(tape, dH, W_rec, params["w_c"])
    want = oracle.backward(column(tape), dH, W_rec, *params["w_c"])
    scale = max(1.0, float(np.abs(want).max()))
    npt.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_forward_is_the_only_forward_time_loop():
    """One forward time loop in the package: ``lstm`` defines no per-step
    function, and ``forward`` is called only by the autoencoder's encoder
    and decoder."""
    package = Path(seqembed.__file__).parent
    lstm_tree = ast.parse((package / "lstm.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(lstm_tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert sorted(getattr(node, "name", "<lambda>") for node in functions) == [
        "__init__", "backward", "forward", "weight_grads"]
    callers = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.alias) and node.name == "forward" and node.asname:
                    callers.append(f"{path.stem} renames forward")
                elif isinstance(node, ast.Call):
                    f = node.func
                    if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "forward":
                        callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == ["autoencoder._encode", "autoencoder._decode"]
