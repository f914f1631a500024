"""Single-layer peephole LSTM as a sequence kernel with exact analytic backward.

Gate weights are stacked along the first axis in the fixed order
(input, forget, candidate, output), so one matrix product per source
(input, recurrent) computes all four gate pre-activations.  The peephole
weights are one (3, H) block ``w_c`` whose rows i, f and o act elementwise:
the input and forget gates read the previous cell state, the output gate
reads the freshly updated one.

A batch of B sequences of up to T steps lives in a ``Tape``: the
activated gates laid out gate-major, (T, 4, B, H), and the hidden and cell
states (T+1, B, H), row 0 holding the start state; a single sequence is the
batch of one, B = 1.  The columns are sorted longest first; step t advances
only the columns still running, so no padding step is computed, and each
gate of those columns is one contiguous slab (the batch axis and the
layout of Appleyard et al., arXiv 1604.01946).  ``forward``, the one
function that advances a tape, takes each step's gate input W_x x_t + b,
so it serves any network whose inputs are known up front; the
autoencoder's decoder is one once its output feedback is folded into the
recurrent matrix.

The backward pass, for a batch of one, computes every step's local
derivatives over the whole tape at once, then runs the reverse recurrence,
writing one row per step of dA, the gradient of the gate pre-activations
(T, 4H); every weight gradient is then one matrix product or column sum
over the whole sequence instead of T outer products (the recurrence
restructuring of the same paper).

All arithmetic is float64: the gradient acceptance checks compare against
central finite differences and need the headroom.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError

GATE_ORDER = ("i", "f", "c", "o")


class Tape:
    """Activations through H units of a batch of B sequences: gates (T, 4,
    B, H), with ``lengths`` giving each column's steps, longest first; one
    sequence is the batch of one.  ``gates`` holds each step's input
    projection plus bias; it is taken over, not copied.  The hidden and cell
    states h and c, (T+1, B, H), start as zeros; ``forward`` leaves a
    column's state rows past its length as they are."""

    __slots__ = ("gates", "h", "c", "lengths")

    def __init__(self, gates: np.ndarray, lengths=None):
        shape = gates.shape
        # a batch laid out token-major, (T, B, 4H), or one sequence as (T, 4H) fails here
        if len(shape) != 4 or shape[1] != 4 or shape[0] < 1:
            raise DimensionError(f"gate inputs {shape}, expected (T, 4, B, H) with T >= 1")
        steps, _, count, hidden = shape
        if lengths is None:
            lengths = [steps] * count
        elif len(lengths) != count or not all(
            a >= b for a, b in zip([steps, *lengths], [*lengths, 0])
        ):
            raise DimensionError(
                f"lengths {lengths} of gate inputs {shape}: expected {count}"
                f" non-increasing lengths from 0 to {steps}"
            )
        self.gates = gates
        self.h, self.c = np.zeros((2, steps + 1, count, hidden))
        self.lengths = lengths


def forward(tape: Tape, W_h: np.ndarray, w_c: np.ndarray) -> Tape:
    """Run the tape's steps in place from its row-0 state (zero as ``Tape``
    builds it); return the tape.

    On entry row t of ``tape.gates`` holds step t's input projection plus
    bias, W_x x_t + b; on return it holds the activated gates (i, f, g, o),
    and ``tape.h[t+1]``/``tape.c[t+1]`` the new state.  The peepholes
    ``w_c`` (3, H) hold the rows w_i, w_f and w_o:

    i = sig(W_xi x + W_hi h' + w_i*c' + b_i)
    f = sig(W_xf x + W_hf h' + w_f*c' + b_f)
    g = tanh(W_xc x + W_hc h' + b_c)
    c = f*c' + i*g
    o = sig(W_xo x + W_ho h' + w_o*c + b_o)
    h = o*tanh(c)

    with sig(a) = 0.5*tanh(a/2) + 0.5, which cannot overflow.  The i, f and
    o rows of the gate inputs, W_h and w_c are halved once per call (exactly),
    so one tanh covers the i, f and g gates of each step.

    A step advances the first n columns, those still running; each of
    their gates is one contiguous (n, H) slab of the step's (4, B, H)
    gates.  Their recurrent term is one matrix-vector product per column,
    W_h broadcast over the columns into (n, 4H, 1), added to the gates
    through one (4, n, H) view: one matrix product for all n would sum in
    another order and change the last bits, so every column keeps the bits
    of its sequence run alone.
    """
    h = W_h.shape[1]
    if W_h.shape != (4 * h, h):
        raise DimensionError(f"recurrent weights {W_h.shape}, expected ({4 * h}, {h})")
    if tape.h.shape[-1] != h:
        raise DimensionError(f"gate inputs {tape.gates.shape} of {tape.h.shape[-1]} units,"
                             f" recurrent weights of {h}")
    half = np.full((4, 1, h), 0.5)
    half[2] = 1.0
    tape.gates *= half
    W_h = W_h * half.reshape(4 * h, 1)
    w_i, w_f, w_o = w_c[:, None] * 0.5  # (1, H) rows, the shape of one running column
    batch = tape.gates.shape[2]
    rec = np.empty((batch, 4 * h, 1))  # the recurrent term, reused by every step
    # the steps from bounds[k] to bounds[k + 1] run the first batch - k columns
    bounds = [0, *reversed(tape.lengths)]
    for n, start, stop in zip(range(batch, 0, -1), bounds, bounds[1:]):
        a = tape.gates[start:stop, :, :n]
        rec_n = rec[:n]
        rec_gates = rec_n.reshape(n, 4, h).transpose(1, 0, 2)
        for a_t, i_f, i_f_g, i, f, g, o, h_t, h_new, c_t, c_new in zip(
            a, a[:, :2], a[:, :3], a[:, 0], a[:, 1], a[:, 2], a[:, 3],
            tape.h[start:stop, :n, :, None], tape.h[start + 1 : stop + 1, :n],
            tape.c[start:stop, :n], tape.c[start + 1 : stop + 1, :n],
        ):
            np.matmul(W_h, h_t, out=rec_n)
            a_t += rec_gates
            i += w_i * c_t
            f += w_f * c_t
            np.tanh(i_f_g, out=i_f_g)
            i_f *= 0.5
            i_f += 0.5
            np.multiply(f, c_t, out=c_new)
            c_new += i * g
            o += w_o * c_new
            np.tanh(o, out=o)
            o *= 0.5
            o += 0.5
            np.tanh(c_new, out=h_new)
            h_new *= o
    return tape


def backward(tape: Tape, dH: np.ndarray, W_h: np.ndarray, w_c: np.ndarray) -> np.ndarray:
    """dA (T, 4H) of a batch of one, given the loss gradient dH (T, H)
    reaching each step's output h[1..T].  ``W_h`` is the matrix through which
    h[t] reaches the gates of step t; it need not be the forward one.  The
    input gradient is ``dA @ W_x``."""
    steps, _, batch, h = tape.gates.shape
    if batch != 1:
        raise DimensionError(f"gate inputs {tape.gates.shape}: backward takes a batch of one")
    if dH.shape != (steps, h):
        raise DimensionError(f"upstream gradient shape {dH.shape}, expected ({steps}, {h})")
    w_i, w_f, w_o = w_c
    gates, c = tape.gates[:, :, 0], tape.c[:, 0]
    i, f, g, o = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
    c_prev = c[:-1]
    tanh_c = np.tanh(c[1:])
    # per step: dA_o = dh*local_o, dc = dh*local_c + dc' (the output-gate
    # peephole reads the updated cell state, so dA_o feeds dc too),
    # dA_{i,f,g} = dc*local_ifg, and dc*carry reaches step t-1
    local_o = tanh_c * o * (1.0 - o)
    local_c = o * (1.0 - tanh_c**2) + local_o * w_o
    local_ifg = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g**2)], axis=1)
    carry = f + local_ifg[:, 0] * w_i + local_ifg[:, 1] * w_f
    dA = np.empty((steps, 4 * h))
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
    """Write the recurrent, peephole and bias gradients of a batch of one.

    The input-weight gradient depends on what was fed in; for inputs X
    (T, I) it is ``dA.T @ X``.
    """
    _, _, batch, h = tape.gates.shape
    if batch != 1:
        raise DimensionError(f"gate inputs {tape.gates.shape}: weight_grads takes a batch of one")
    c = tape.c[:, 0]
    np.matmul(dA.T, tape.h[:-1, 0], out=g_W_h)
    np.einsum("ti,ti->i", dA[:, :h], c[:-1], out=g_w_c[0])
    np.einsum("ti,ti->i", dA[:, h : 2 * h], c[:-1], out=g_w_c[1])
    np.einsum("ti,ti->i", dA[:, 3 * h :], c[1:], out=g_w_c[2])
    np.sum(dA, axis=0, out=g_b)
