"""Per-step reference LSTM and autoencoder BPTT, kept as a test oracle.

This is the cell-at-a-time formulation the sequence kernel in
``seqembed.lstm`` replaced: ``cell_forward``/``cell_backward`` pass state
and tape objects step by step, and weight gradients accumulate one outer
product per step.  Tests compare the kernel, ``decode`` and
``loss_and_gradients`` against it.  ``sigmoid``/``step`` are the kernel's
earlier forward step over a one-sequence ``SequenceTape``, the reference
that ``seqembed.lstm.forward`` must match bit for bit; ``backward_step``/
``backward`` are its earlier reverse pass, one step's local derivatives at
a time.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from seqembed.errors import DimensionError


@dataclass
class SequenceTape:
    """One sequence's activations as the per-step oracle reads them: the
    gates (T, 4H), one row per step, and the hidden and cell states h and c
    (T+1, H), row 0 holding the start state."""

    gates: np.ndarray
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def start(cls, gates: np.ndarray) -> "SequenceTape":
        """A tape of the gate inputs ``gates``, taken over, from a zero state."""
        steps, width = gates.shape
        return cls(gates, *np.zeros((2, steps + 1, width // 4)))


def logistic(a):
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class LstmParams:
    """One layer's weights: W_x (4H, I), W_h (4H, H), b (4H,), peepholes (H,)."""

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray
    w_ci: np.ndarray
    w_cf: np.ndarray
    w_co: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.W_x.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.W_h.shape[1]

    def arrays(self) -> list[np.ndarray]:
        return [self.W_x, self.W_h, self.b, self.w_ci, self.w_cf, self.w_co]

    @classmethod
    def zeros_like(cls, params: "LstmParams") -> "LstmParams":
        return cls(*(np.zeros_like(arr) for arr in params.arrays()))


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class TapeEntry:
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray


def zero_state(hidden_dim: int) -> LstmState:
    return LstmState(h=np.zeros(hidden_dim), c=np.zeros(hidden_dim))


def cell_forward(params: LstmParams, x_t, prev: LstmState):
    x_t = np.asarray(x_t, dtype=np.float64)
    h = params.hidden_dim
    if x_t.shape != (params.input_dim,):
        raise DimensionError(f"input shape {x_t.shape}, expected ({params.input_dim},)")
    if prev.h.shape != (h,) or prev.c.shape != (h,):
        raise DimensionError(f"state shapes {prev.h.shape}/{prev.c.shape}, expected ({h},)")
    pre = params.W_x @ x_t + params.W_h @ prev.h + params.b
    i = logistic(pre[0:h] + params.w_ci * prev.c)
    f = logistic(pre[h : 2 * h] + params.w_cf * prev.c)
    g = np.tanh(pre[2 * h : 3 * h])
    c = f * prev.c + i * g
    o = logistic(pre[3 * h : 4 * h] + params.w_co * c)
    tanh_c = np.tanh(c)
    entry = TapeEntry(
        x=x_t, h_prev=prev.h, c_prev=prev.c, i=i, f=f, g=g, o=o, c=c, tanh_c=tanh_c
    )
    return LstmState(h=o * tanh_c, c=c), entry


def cell_backward(params: LstmParams, entry: TapeEntry, grad_h, grad_c, grads: LstmParams):
    """Reverse of one step: accumulates into ``grads``, returns (dx, (dh', dc'))."""
    h = params.hidden_dim
    grad_h = np.asarray(grad_h, dtype=np.float64)
    grad_c = np.asarray(grad_c, dtype=np.float64)
    if grad_h.shape != (h,) or grad_c.shape != (h,):
        raise DimensionError(
            f"upstream gradient shapes {grad_h.shape}/{grad_c.shape}, expected ({h},)"
        )
    da_o = grad_h * entry.tanh_c * entry.o * (1.0 - entry.o)
    dc = grad_c + grad_h * entry.o * (1.0 - entry.tanh_c**2) + da_o * params.w_co
    da_i = dc * entry.g * entry.i * (1.0 - entry.i)
    da_f = dc * entry.c_prev * entry.f * (1.0 - entry.f)
    da_c = dc * entry.i * (1.0 - entry.g**2)
    da = np.concatenate([da_i, da_f, da_c, da_o])

    grads.W_x += np.outer(da, entry.x)
    grads.W_h += np.outer(da, entry.h_prev)
    grads.b += da
    grads.w_ci += da_i * entry.c_prev
    grads.w_cf += da_f * entry.c_prev
    grads.w_co += da_o * entry.c

    grad_x = params.W_x.T @ da
    grad_h_prev = params.W_h.T @ da
    grad_c_prev = dc * entry.f + da_i * params.w_ci + da_f * params.w_cf
    return grad_x, (grad_h_prev, grad_c_prev)


def _layer(views, net, W_x):
    return LstmParams(
        W_x=W_x,
        W_h=views[f"{net}.W_h"],
        b=views[f"{net}.b_"],
        w_ci=views[f"{net}.w_c"][0],
        w_cf=views[f"{net}.w_c"][1],
        w_co=views[f"{net}.w_c"][2],
    )


def encoder_layer(views) -> LstmParams:
    return _layer(views, "encoder", views["encoder.W_x"])


def decoder_layer(views, first: bool) -> LstmParams:
    return _layer(views, "decoder", views["decoder.W_z.W_x" if first else "decoder.W_y.W_x"])


def decode(views, z, length):
    """Output frames by per-step output feedback: step 1 reads z, every later
    step the frame the step before it emitted."""
    state = zero_state(views["decoder.W_h"].shape[1])
    inp, ys = z, []
    for t in range(length):
        state, _ = cell_forward(decoder_layer(views, t == 0), inp, state)
        inp = views["output.W"] @ state.h + views["output.b"]
        ys.append(inp)
    return np.array(ys)


def loss_and_gradients(views, x, x_in=None):
    """Autoencoder loss and per-block gradients by per-step BPTT.

    ``views`` are the named parameter blocks of ``seqembed.autoencoder``;
    the gradients come back as a dict under the same names.
    """
    x = np.asarray(x, dtype=np.float64)
    x_in = x if x_in is None else np.asarray(x_in, dtype=np.float64)
    hidden = views["encoder.W_h"].shape[1]

    state = zero_state(hidden)
    enc_tape = []
    for t in range(x_in.shape[0]):
        state, entry = cell_forward(encoder_layer(views), x_in[t], state)
        enc_tape.append(entry)
    z = state.h

    state = zero_state(hidden)
    dec_tape, hs, ys = [], [], []
    inp = z
    for t in range(x.shape[0]):
        state, entry = cell_forward(decoder_layer(views, t == 0), inp, state)
        dec_tape.append(entry)
        hs.append(state.h)
        inp = views["output.W"] @ state.h + views["output.b"]
        ys.append(inp)
    ys = np.array(ys)
    loss = float(((x - ys) ** 2).sum())

    enc_g = LstmParams.zeros_like(encoder_layer(views))
    dec_g = LstmParams.zeros_like(decoder_layer(views, False))
    g_in_z = np.zeros_like(views["decoder.W_z.W_x"])
    g_W_out = np.zeros_like(views["output.W"])
    g_b_out = np.zeros_like(views["output.b"])
    dh_rec = np.zeros(hidden)
    dc_rec = np.zeros(hidden)
    d_input = None
    for t in range(x.shape[0] - 1, -1, -1):
        dy = 2.0 * (ys[t] - x[t])
        if d_input is not None:
            dy = dy + d_input
        g_W_out += np.outer(dy, hs[t])
        g_b_out += dy
        dh = views["output.W"].T @ dy + dh_rec
        first = t == 0
        step_grads = LstmParams(
            g_in_z if first else dec_g.W_x, dec_g.W_h, dec_g.b, dec_g.w_ci, dec_g.w_cf, dec_g.w_co
        )
        d_input, (dh_rec, dc_rec) = cell_backward(
            decoder_layer(views, first), dec_tape[t], dh, dc_rec, step_grads
        )

    dh, dc = d_input, np.zeros(hidden)
    for t in range(x_in.shape[0] - 1, -1, -1):
        _, (dh, dc) = cell_backward(encoder_layer(views), enc_tape[t], dh, dc, enc_g)

    grads = {"decoder.W_z.W_x": g_in_z, "decoder.W_y.W_x": dec_g.W_x,
             "output.W": g_W_out, "output.b": g_b_out}
    for net, g in (("encoder", enc_g), ("decoder", dec_g)):
        grads.update({f"{net}.W_h": g.W_h, f"{net}.b_": g.b,
                      f"{net}.w_c": np.stack([g.w_ci, g.w_cf, g.w_co])})
    grads["encoder.W_x"] = enc_g.W_x
    return loss, ys, grads


def backward_step(tape, t, dh, dc, W_h, w_ci, w_cf, w_co, dA):
    """Exact reverse of kernel step t.

    ``dh``/``dc`` are the loss gradients reaching ``tape.h[t+1]`` and
    ``tape.c[t+1]``.  Writes the gate pre-activation gradient into
    ``dA[t]`` and returns the gradients reaching ``tape.h[t]`` through the
    recurrent weights and ``tape.c[t]``.
    """
    h = W_h.shape[1]
    a = tape.gates[t]
    i, f, g, o = a[:h], a[h : 2 * h], a[2 * h : 3 * h], a[3 * h :]
    c_prev = tape.c[t]
    tanh_c = np.tanh(tape.c[t + 1])
    da = dA[t]
    da_i, da_f, da_g, da_o = da[:h], da[h : 2 * h], da[2 * h : 3 * h], da[3 * h :]
    da_o[:] = dh * tanh_c * o * (1.0 - o)
    # the output-gate peephole reads the updated cell state, so its
    # pre-activation gradient feeds back into dc as well
    dc = dc + dh * o * (1.0 - tanh_c**2) + da_o * w_co
    da_i[:] = dc * g * i * (1.0 - i)
    da_f[:] = dc * c_prev * f * (1.0 - f)
    da_g[:] = dc * i * (1.0 - g**2)
    return W_h.T @ da, dc * f + da_i * w_ci + da_f * w_cf


def backward(tape, dH, W_h, w_ci, w_cf, w_co):
    """dA (T, 4H) of a ``SequenceTape`` by ``backward_step`` from the last step down."""
    steps, h = tape.h.shape[0] - 1, tape.h.shape[1]
    dA = np.empty_like(tape.gates)
    dh_rec = np.zeros(h)
    dc = np.zeros(h)
    for t in range(steps - 1, -1, -1):
        dh_rec, dc = backward_step(tape, t, dH[t] + dh_rec, dc, W_h, w_ci, w_cf, w_co, dA)
    return dA


def sigmoid(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function as 0.5*tanh(a/2) + 0.5.

    Cannot overflow, and is exactly 0, 0.5 and 1 at a = -1000, 0 and 1000.
    ``out`` may be ``a`` itself for an in-place update.
    """
    r = np.multiply(a, 0.5, out=out)
    np.tanh(r, out=r)
    r *= 0.5
    r += 0.5
    return r


def step(tape: SequenceTape, t: int, W_h: np.ndarray, w_c: np.ndarray) -> None:
    """Advance step t in place.

    On entry ``tape.gates[t]`` holds the input projection plus bias,
    W_x x_t + b; on return it holds the activated gates (i, f, g, o), and
    ``tape.h[t+1]``/``tape.c[t+1]`` the new state.  The peepholes ``w_c``
    (3, H) hold the rows w_i, w_f and w_o:

    i = sig(W_xi x + W_hi h' + w_i*c' + b_i)
    f = sig(W_xf x + W_hf h' + w_f*c' + b_f)
    g = tanh(W_xc x + W_hc h' + b_c)
    c = f*c' + i*g
    o = sig(W_xo x + W_ho h' + w_o*c + b_o)
    h = o*tanh(c)
    """
    h = W_h.shape[1]
    w_i, w_f, w_o = w_c
    a = tape.gates[t]
    a += W_h @ tape.h[t]
    c_prev, c = tape.c[t], tape.c[t + 1]
    i, f, g, o = a[:h], a[h : 2 * h], a[2 * h : 3 * h], a[3 * h :]
    i += w_i * c_prev
    f += w_f * c_prev
    sigmoid(a[: 2 * h], out=a[: 2 * h])
    np.tanh(g, out=g)
    np.multiply(f, c_prev, out=c)
    c += i * g
    o += w_o * c
    sigmoid(o, out=o)
    h_new = tape.h[t + 1]
    np.tanh(c, out=h_new)
    h_new *= o
