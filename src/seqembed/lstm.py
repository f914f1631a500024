"""Single-layer peephole LSTM as a sequence kernel with exact analytic backward.

Gate weights are stacked along the first axis in the fixed order
(input, forget, candidate, output), so one matrix product per source
(input, recurrent) computes all four gate pre-activations.  Peephole
weights are elementwise H-vectors; the input and forget gates read the
previous cell state, the output gate reads the freshly updated one.

One sequence of T steps lives in a preallocated ``Tape``: the activated
gates (T, 4H) and the hidden and cell states (T+1, H), row 0 holding the
initial state.  The backward pass writes one row per step of dA, the
gradient of the gate pre-activations (T, 4H); every weight gradient is then
one matrix product or column sum over the whole sequence instead of T outer
products (the recurrence restructuring of Appleyard et al., arXiv
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
    """Activations of one sequence of ``steps`` steps through H units."""

    __slots__ = ("gates", "h", "c")

    def __init__(self, steps: int, hidden: int):
        self.gates = np.empty((steps, 4 * hidden))
        self.h = np.zeros((steps + 1, hidden))
        self.c = np.zeros((steps + 1, hidden))


def step(
    tape: Tape,
    t: int,
    W_h: np.ndarray,
    w_ci: np.ndarray,
    w_cf: np.ndarray,
    w_co: np.ndarray,
) -> None:
    """Advance step t in place.

    On entry ``tape.gates[t]`` holds the input projection plus bias,
    W_x x_t + b; on return it holds the activated gates (i, f, g, o), and
    ``tape.h[t+1]``/``tape.c[t+1]`` the new state:

    i = sig(W_xi x + W_hi h' + w_ci*c' + b_i)
    f = sig(W_xf x + W_hf h' + w_cf*c' + b_f)
    g = tanh(W_xc x + W_hc h' + b_c)
    c = f*c' + i*g
    o = sig(W_xo x + W_ho h' + w_co*c + b_o)
    h = o*tanh(c)
    """
    h = W_h.shape[1]
    a = tape.gates[t]
    a += W_h @ tape.h[t]
    c_prev, c = tape.c[t], tape.c[t + 1]
    i, f, g, o = a[:h], a[h : 2 * h], a[2 * h : 3 * h], a[3 * h :]
    i += w_ci * c_prev
    f += w_cf * c_prev
    sigmoid(a[: 2 * h], out=a[: 2 * h])
    np.tanh(g, out=g)
    np.multiply(f, c_prev, out=c)
    c += i * g
    o += w_co * c
    sigmoid(o, out=o)
    h_new = tape.h[t + 1]
    np.tanh(c, out=h_new)
    h_new *= o


def forward(
    x: np.ndarray,
    W_x: np.ndarray,
    b: np.ndarray,
    W_h: np.ndarray,
    w_ci: np.ndarray,
    w_cf: np.ndarray,
    w_co: np.ndarray,
) -> Tape:
    """Run over the rows of x from a zero state.

    The input projection of every step is computed up front as one product.
    """
    h = W_h.shape[1]
    if W_h.shape != (4 * h, h) or W_x.shape[0] != 4 * h:
        raise DimensionError(
            f"inconsistent LSTM weight shapes: W_x {W_x.shape}, W_h {W_h.shape}"
        )
    if x.ndim != 2 or x.shape[1] != W_x.shape[1]:
        raise DimensionError(f"input shape {x.shape}, expected (T, {W_x.shape[1]})")
    tape = Tape(x.shape[0], h)
    np.matmul(x, W_x.T, out=tape.gates)
    tape.gates += b
    for t in range(x.shape[0]):
        step(tape, t, W_h, w_ci, w_cf, w_co)
    return tape


def backward_step(
    tape: Tape,
    t: int,
    dh: np.ndarray,
    dc: np.ndarray,
    W_h: np.ndarray,
    w_ci: np.ndarray,
    w_cf: np.ndarray,
    w_co: np.ndarray,
    dA: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse of step t.

    ``dh``/``dc`` are the loss gradients reaching ``tape.h[t+1]`` and
    ``tape.c[t+1]``.  Writes the gate pre-activation gradient into
    ``dA[t]`` and returns the gradients reaching ``tape.h[t]`` through the
    recurrent weights and ``tape.c[t]``.  The input gradient is
    ``W_x.T @ dA[t]``.
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


def backward(
    tape: Tape,
    dH: np.ndarray,
    W_h: np.ndarray,
    w_ci: np.ndarray,
    w_cf: np.ndarray,
    w_co: np.ndarray,
) -> np.ndarray:
    """dA (T, 4H) of a whole sequence, given the loss gradient dH (T, H)
    reaching each step's output h[1..T]."""
    steps, h = tape.h.shape[0] - 1, tape.h.shape[1]
    if dH.shape != (steps, h):
        raise DimensionError(f"upstream gradient shape {dH.shape}, expected ({steps}, {h})")
    dA = np.empty_like(tape.gates)
    dh_rec = np.zeros(h)
    dc = np.zeros(h)
    for t in range(steps - 1, -1, -1):
        dh_rec, dc = backward_step(tape, t, dH[t] + dh_rec, dc, W_h, w_ci, w_cf, w_co, dA)
    return dA


def weight_grads(
    tape: Tape,
    dA: np.ndarray,
    g_W_h: np.ndarray,
    g_w_ci: np.ndarray,
    g_w_cf: np.ndarray,
    g_w_co: np.ndarray,
    g_b: np.ndarray,
) -> None:
    """Write the recurrent, peephole and bias gradients of one sequence.

    The input-weight gradient depends on what was fed in; for inputs X
    (T, I) it is ``dA.T @ X``.
    """
    h = tape.h.shape[1]
    np.matmul(dA.T, tape.h[:-1], out=g_W_h)
    np.einsum("ti,ti->i", dA[:, :h], tape.c[:-1], out=g_w_ci)
    np.einsum("ti,ti->i", dA[:, h : 2 * h], tape.c[:-1], out=g_w_cf)
    np.einsum("ti,ti->i", dA[:, 3 * h :], tape.c[1:], out=g_w_co)
    np.sum(dA, axis=0, out=g_b)
