"""Single-layer peephole LSTM as a sequence kernel with exact analytic backward.

Gate weights are stacked along the first axis in the fixed order
(input, forget, candidate, output), so one matrix product per source
(input, recurrent) computes all four gate pre-activations.  The peephole
weights are one (3, H) block ``w_c`` whose rows i, f and o act elementwise:
the input and forget gates read the previous cell state, the output gate
reads the freshly updated one.

One sequence of T steps lives in a ``Tape``: the activated gates (T, 4H)
and the hidden and cell states (T+1, H), row 0 holding the initial state.
The forward pass takes each step's gate input W_x x_t + b, so it serves any
network whose inputs are known up front; the autoencoder's decoder is one
once its output feedback is folded into the recurrent matrix.  The backward
pass computes every step's local derivatives over the whole tape at once,
then runs the reverse recurrence, writing one row per step of dA, the
gradient of the gate pre-activations (T, 4H); every weight gradient is then
one matrix product or column sum over the whole sequence instead of T
outer products (the recurrence restructuring of Appleyard et al., arXiv
1604.01946).

All arithmetic is float64: the gradient acceptance checks compare against
central finite differences and need the headroom.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError

GATE_ORDER = ("i", "f", "c", "o")


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


class Tape:
    """Activations of one sequence through H units.  ``gates`` (T, 4H) holds
    each step's input projection plus bias; it is taken over, not copied."""

    __slots__ = ("gates", "h", "c")

    def __init__(self, gates: np.ndarray):
        steps, hidden = gates.shape[0], gates.shape[1] // 4
        self.gates = gates
        self.h = np.zeros((steps + 1, hidden))
        self.c = np.zeros((steps + 1, hidden))


def step(tape: Tape, t: int, W_h: np.ndarray, w_c: np.ndarray) -> None:
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


def forward(gates: np.ndarray, W_h: np.ndarray, w_c: np.ndarray) -> Tape:
    """Run T steps from a zero state.  Row t of ``gates`` (T, 4H) holds step
    t's input projection plus bias, W_x x_t + b; it becomes the activated
    gates."""
    h = W_h.shape[1]
    if W_h.shape != (4 * h, h):
        raise DimensionError(f"recurrent weights {W_h.shape}, expected ({4 * h}, {h})")
    if gates.ndim != 2 or gates.shape[1] != 4 * h:
        raise DimensionError(f"gate inputs {gates.shape}, expected (T, {4 * h})")
    tape = Tape(gates)
    for t in range(gates.shape[0]):
        step(tape, t, W_h, w_c)
    return tape


def backward(tape: Tape, dH: np.ndarray, W_h: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """dA (T, 4H) of a whole sequence, given the loss gradient dH (T, H)
    reaching each step's output h[1..T].  ``W_h`` is the matrix through which
    h[t] reaches the gates of step t; it need not be the forward one.  The
    input gradient is ``dA @ W_x``."""
    steps, h = tape.h.shape[0] - 1, tape.h.shape[1]
    if dH.shape != (steps, h):
        raise DimensionError(f"upstream gradient shape {dH.shape}, expected ({steps}, {h})")
    w_i, w_f, w_o = w_c
    gates = tape.gates.reshape(steps, 4, h)
    i, f, g, o = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
    c_prev = tape.c[:-1]
    tanh_c = np.tanh(tape.c[1:])
    # per step: dA_o = dh*local_o, dc = dh*local_c + dc' (the output-gate
    # peephole reads the updated cell state, so dA_o feeds dc too),
    # dA_{i,f,g} = dc*local_ifg, and dc*carry reaches step t-1
    local_o = tanh_c * o * (1.0 - o)
    local_c = o * (1.0 - tanh_c**2) + local_o * w_o
    local_ifg = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g**2)], axis=1)
    carry = f + local_ifg[:, 0] * w_i + local_ifg[:, 1] * w_f
    dA = np.empty_like(tape.gates)
    dA_gates = dA.reshape(steps, 4, h)
    dh_rec = np.zeros(h)
    dc_rec = np.zeros(h)
    for t in range(steps - 1, -1, -1):
        dh = dH[t] + dh_rec
        np.multiply(dh, local_o[t], out=dA_gates[t, 3])
        dc = dh * local_c[t] + dc_rec
        np.multiply(dc, local_ifg[t], out=dA_gates[t, :3])
        dh_rec = W_h.T @ dA[t]
        dc_rec = dc * carry[t]
    return dA


def weight_grads(
    tape: Tape, dA: np.ndarray, g_W_h: np.ndarray, g_w_c: np.ndarray, g_b: np.ndarray
) -> None:
    """Write the recurrent, peephole and bias gradients of one sequence.

    The input-weight gradient depends on what was fed in; for inputs X
    (T, I) it is ``dA.T @ X``.
    """
    h = tape.h.shape[1]
    np.matmul(dA.T, tape.h[:-1], out=g_W_h)
    np.einsum("ti,ti->i", dA[:, :h], tape.c[:-1], out=g_w_c[0])
    np.einsum("ti,ti->i", dA[:, h : 2 * h], tape.c[:-1], out=g_w_c[1])
    np.einsum("ti,ti->i", dA[:, 3 * h :], tape.c[1:], out=g_w_c[2])
    np.sum(dA, axis=0, out=g_b)
