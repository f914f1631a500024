"""Sequence autoencoder with output feedback, plus a denoising variant.

A peephole-LSTM encoder folds a T x D feature sequence into its final
hidden state, the embedding z.  A decoder LSTM starts from a zero state,
receives z as its first input and its own previous output frame afterwards,
and emits one D-dim frame per step through a shared affine output layer.
Because z (width d) and the fed-back frames (width D) have different
widths, the decoder carries two input projection blocks: one applied at
step 1 only, one at every later step.  Both are trained.

Both networks run through ``lstm.forward`` and ``lstm.backward``.  The fed-back
frame y = W_out h + b_out reaches the next step's gates as W_y W_out h +
W_y b_out, so the decoder is a plain LSTM whose recurrent matrix is
W_h + W_y W_out and whose gate inputs (W_z z at step 1, W_y b_out later,
plus the bias) are known before it runs.

Training minimizes the summed squared reconstruction error against the
uncorrupted input with plain per-sequence SGD; gradients flow through the
decoder's output-feedback edges, the z handoff, and the encoder.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .blas import one_thread
from .data import SegmentRecord, read_input, replace_on_close, validate_frames, write_csv
from .errors import CheckpointError, DataError, DimensionError, DivergenceError
from .lstm import GATE_ORDER, Tape, backward, forward, weight_grads

INIT_SCALE = 0.08
CHECKPOINT_VERSION = 1

# Byte budget of the tape of one block of sequences that ``encode_batch``
# runs at once; it bounds the memory that encoding many sequences adds.  At
# H=32 a block holds 12 columns of 28 steps, or 19 of 17.
_TAPE_BYTES = 1 << 19

# Every weight block, in checkpoint order: (name, shape, gate letters).
# Shapes are written in D (input width), H (hidden units) and G (one per gate
# letter): "GH" joins the gates' H rows along axis 0, "G" stacks one row per
# gate.  A block with gate letters is saved as one key ``{name}{gate}`` per
# letter, holding that gate's part: H rows of a "GH" block, one row of a "G"
# block.  Any other block is saved under ``name``.  Biases (the blocks whose
# last name part starts with "b") start at zero; every other block draws
# uniform init values, in table order.
LAYOUT = (
    ("encoder.W_x", ("GH", "D"), GATE_ORDER),
    ("encoder.W_h", ("GH", "H"), GATE_ORDER),
    ("encoder.w_c", ("G", "H"), "ifo"),
    ("encoder.b_", ("GH",), GATE_ORDER),
    ("decoder.W_z.W_x", ("GH", "H"), GATE_ORDER),
    ("decoder.W_y.W_x", ("GH", "D"), GATE_ORDER),
    ("decoder.W_h", ("GH", "H"), GATE_ORDER),
    ("decoder.w_c", ("G", "H"), "ifo"),
    ("decoder.b_", ("GH",), GATE_ORDER),
    ("output.W", ("D", "H"), ""),
    ("output.b", ("D",), ""),
)


@functools.lru_cache(maxsize=32)
def _layout(input_dim: int, hidden_dim: int):
    """LAYOUT placed in the flat vector, derived once per model shape: the
    named blocks, the checkpoint keys (each a tuple of (name, start, stop,
    shape) tiling the vector in order) and the vector's size.  Each gate's
    part is contiguous, so a block's keys tile the block."""
    sizes = {"D": input_dim, "H": hidden_dim}
    blocks, keys, offset = [], [], 0
    for name, symbols, gates in LAYOUT:
        part = tuple(sizes[s.lstrip("G")] for s in symbols if s != "G")
        count, step = len(gates) or 1, math.prod(part)
        shape = (count, *part) if symbols[0] == "G" else (count * part[0], *part[1:])
        blocks.append((name, offset, offset + count * step, shape))
        for gate in gates or [""]:
            keys.append((name + gate, offset, offset + step, part))
            offset += step
    return tuple(blocks), tuple(keys), offset


def _tile(flat: np.ndarray, slices, size: int) -> dict[str, np.ndarray]:
    """Views of ``flat``, one per slice of a ``_layout`` tuple."""
    if flat.shape[0] != size:
        raise DimensionError(f"parameter vector has {flat.shape[0]} entries, expected {size}")
    return {name: flat[start:stop].reshape(shape) for name, start, stop, shape in slices}


def unpack(flat: np.ndarray, input_dim: int, hidden_dim: int) -> dict[str, np.ndarray]:
    """Named views into a flat parameter or gradient vector, in LAYOUT order."""
    blocks, _, size = _layout(input_dim, hidden_dim)
    return _tile(flat, blocks, size)


@dataclass
class ModelParams:
    """All trainable weights of the autoencoder, as one float64 vector laid
    out by LAYOUT, plus provenance fields.  ``flat`` is only ever updated in
    place: the named views are built once, and rebinding it would detach them."""

    input_dim: int
    hidden_dim: int
    flat: np.ndarray
    rng_seed: int
    epoch_count: int = 0

    def __post_init__(self):
        self._views = unpack(self.flat, self.input_dim, self.hidden_dim)

    def views(self) -> dict[str, np.ndarray]:
        return self._views

    def __reduce__(self):  # a copy or an unpickled model views its own flat
        return type(self), (self.input_dim, self.hidden_dim, self.flat, self.rng_seed,
                            self.epoch_count)


def init_params(input_dim: int, hidden_dim: int, seed: int) -> ModelParams:
    """Seeded initialization: weights uniform in [-0.08, 0.08], biases zero."""
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("input_dim and hidden_dim must be >= 1")
    rng = np.random.default_rng(seed)
    size = _layout(input_dim, hidden_dim)[2]
    params = ModelParams(input_dim, hidden_dim, np.zeros(size), rng_seed=seed)
    for name, view in params.views().items():
        if not name.rsplit(".", 1)[1].startswith("b"):
            view[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=view.shape)
    return params


def _cell(views: dict[str, np.ndarray], net: str) -> tuple[np.ndarray, np.ndarray]:
    """One network's recurrent weights and (3, H) peepholes, as lstm.forward takes them."""
    return views[f"{net}.W_h"], views[f"{net}.w_c"]


def _encode(views: dict[str, np.ndarray], xs: Sequence[np.ndarray]) -> Tape:
    """Encoder tape of ``xs``, sorted longest first, one column per
    sequence.  The gate inputs fill a zeroed gate-major (T, 4, B, H) array,
    each sequence its own (len, 4, H) column; a column's rows past its
    length stay zero."""
    W_x, b = views["encoder.W_x"], views["encoder.b_"]
    for x in xs:
        if x.ndim != 2 or x.shape[1] != W_x.shape[1]:
            raise DimensionError(f"input width mismatch: shape {x.shape}, input_dim {W_x.shape[1]}")
    lengths = [x.shape[0] for x in xs]
    hidden = W_x.shape[0] // 4
    gates = np.zeros((lengths[0], 4, len(xs), hidden))
    for k, x in enumerate(xs):
        # one product per sequence: BLAS sums a one-frame product in another
        # order than the same frame inside a longer one
        np.add((x @ W_x.T).reshape(len(x), 4, hidden), b.reshape(4, hidden),
               out=gates[: len(x), :, k])
    return forward(Tape(gates, lengths), *_cell(views, "encoder"))


def _decoder_cell(views: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The decoder's cell with its output feedback folded in: step t+1 reads
    h[t+1] through W_h and, via W_y, through y_t = W_out h[t+1] + b_out."""
    W_h, w_c = _cell(views, "decoder")
    return W_h + views["decoder.W_y.W_x"] @ views["output.W"], w_c


def _decode(views: dict[str, np.ndarray], cell, z: np.ndarray, length: int) -> tuple[Tape, np.ndarray]:
    """Decoder tape and output frames; step 1 reads z, later steps the
    previous frame.  ``cell`` is ``_decoder_cell(views)``."""
    W_z, W_y, b = views["decoder.W_z.W_x"], views["decoder.W_y.W_x"], views["decoder.b_"]
    W_out, b_out = views["output.W"], views["output.b"]
    gates = np.empty((length, 4, 1, len(z)))
    gates[0] = (W_z @ z + b).reshape(4, 1, -1)
    gates[1:] = (W_y @ b_out + b).reshape(4, 1, -1)
    tape = forward(Tape(gates), *cell)
    return tape, tape.h[1:, 0] @ W_out.T + b_out


def encode(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Run the encoder over x_1..x_T from a zero state; return h_T."""
    return _encode(params.views(), [validate_frames(x)]).h[-1, 0].copy()


def encode_batch(params: ModelParams, xs: Sequence[np.ndarray]) -> np.ndarray:
    """Embeddings of the sequences ``xs``, one row each: row i is
    ``encode(params, xs[i])``, bit for bit.

    Every sequence is checked before it enters a block.  The sequences run
    longest first, in blocks of as many as fit a tape of ``_TAPE_BYTES``
    (at least one), and each step advances the block's running columns,
    whose gates ``forward`` reads as contiguous slabs.
    """
    xs = [validate_frames(x) for x in xs]
    order = sorted(range(len(xs)), key=lambda i: -len(xs[i]))
    hidden = params.hidden_dim
    blocks, start = [], 0
    while start < len(order):
        # bytes of one column's tape: gates (T, 4, H), then h and c (T+1, H)
        column = 8 * hidden * (6 * len(xs[order[start]]) + 2)
        blocks.append(order[start : start + max(1, _TAPE_BYTES // column)])
        start += len(blocks[-1])
    views = params.views()
    out = np.empty((len(xs), hidden))
    for block in blocks:
        tape = _encode(views, [xs[i] for i in block])
        out[block] = tape.h[tape.lengths, range(len(block))]
        del tape  # so the next block's tape is not made beside this one
    return out


def decode(params: ModelParams, z: np.ndarray, length: int) -> np.ndarray:
    """Generate ``length`` output frames from z with output feedback."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (params.hidden_dim,):
        raise DimensionError(f"embedding shape {z.shape}, expected ({params.hidden_dim},)")
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    views = params.views()
    return _decode(views, _decoder_cell(views), z, length)[1]


def reconstruction_loss(x: np.ndarray, y: np.ndarray) -> float:
    """Sum over time of squared Euclidean frame errors (no averaging)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float(((x - y) ** 2).sum())


def corrupt_zero_mask(x: np.ndarray, p: float, rng: np.random.Generator) -> np.ndarray:
    """Independently zero each element with probability p (fresh draws per call)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"corruption probability must be in [0, 1], got {p}")
    x = np.asarray(x, dtype=np.float64)
    keep = rng.random(x.shape) >= p
    return np.where(keep, x, 0.0)


@one_thread()
def loss_and_gradients(
    params: ModelParams, x: np.ndarray, x_in: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Reconstruction loss of x and its exact gradient, laid out like ``params.flat``.

    ``x_in`` is the (possibly corrupted) sequence fed to the encoder; the
    loss target is always ``x``.  Backpropagation covers the decoder's
    output-feedback edges y_{t-1} -> y_t, the z handoff, and the encoder.
    OpenBLAS is held at one thread for the call: at D=39, H=100 and T >= 60
    a second thread changes the last bits of the decoder's feedback product.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:  # the decoder runs len(x) steps
        raise DimensionError(f"target: expected a T x D array with T >= 1, got shape {x.shape}")
    if x_in is None:
        x_in = x
    else:
        x_in = np.asarray(x_in, dtype=np.float64)
    views = params.views()
    enc = _encode(views, [x_in])
    z = enc.h[-1, 0]
    dec_cell = _decoder_cell(views)
    dec, ys = _decode(views, dec_cell, z, x.shape[0])
    loss = reconstruction_loss(x, ys)

    grad = np.zeros_like(params.flat)
    g = unpack(grad, params.input_dim, params.hidden_dim)
    W_y, W_out = views["decoder.W_y.W_x"], views["output.W"]
    dY = 2.0 * (ys - x)
    dA = backward(dec, dY @ W_out, *dec_cell)
    dY[:-1] += dA[1:] @ W_y  # the feedback edge y_t -> step t+1
    np.matmul(dY.T, dec.h[1:, 0], out=g["output.W"])
    np.sum(dY, axis=0, out=g["output.b"])
    np.outer(dA[0], z, out=g["decoder.W_z.W_x"])
    np.matmul(dA[1:].T, ys[:-1], out=g["decoder.W_y.W_x"])
    weight_grads(dec, dA, *_cell(g, "decoder"), g["decoder.b_"])

    dH = np.zeros((len(x_in), params.hidden_dim))
    dH[-1] = views["decoder.W_z.W_x"].T @ dA[0]  # the z handoff
    dA = backward(enc, dH, *_cell(views, "encoder"))
    np.matmul(dA.T, x_in, out=g["encoder.W_x"])
    weight_grads(enc, dA, *_cell(g, "encoder"), g["encoder.b_"])
    return loss, grad


@dataclass
class TrainConfig:
    """Hyperparameters for one training run (seed is mandatory)."""

    seed: int
    lr: float = 0.3
    epochs: int = 500
    denoise_p: float = 0.0
    clip_norm: float | None = 5.0


def train(
    params: ModelParams, records: Sequence[SegmentRecord], config: TrainConfig
) -> tuple[ModelParams, list[float]]:
    """SGD without momentum, one update per sequence, seeded shuffling.

    Each presentation corrupts the input with ``denoise_p`` zero-masking
    (inert at 0.0) while the loss target stays uncorrupted.  If
    ``clip_norm`` is set, the whole gradient is rescaled so its global L2
    norm is at most that value before the update.  Returns the (mutated)
    params and the per-epoch mean loss log.
    """
    records = list(records)
    if not records:
        raise DataError("training requires a non-empty train split")
    for rec in records:
        if rec.dim != params.input_dim:
            raise DimensionError(
                f"record '{rec.id}' has width {rec.dim}, model expects {params.input_dim}"
            )
    # each check is a comparison that NaN fails
    if not config.lr >= 0:
        raise ValueError(f"lr must be >= 0, got {config.lr}")
    if not config.epochs >= 0:
        raise ValueError(f"epochs must be >= 0, got {config.epochs}")
    if not 0.0 <= config.denoise_p <= 1.0:
        raise ValueError(f"denoise_p must be in [0, 1], got {config.denoise_p}")
    if config.clip_norm is not None and not config.clip_norm > 0:
        raise ValueError(f"clip_norm must be positive or None, got {config.clip_norm}")

    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    last_norm = None  # global gradient norm, before clipping, of the last update
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(records))
        total = 0.0
        for k in order:
            rec = records[int(k)]
            x = rec.features
            x_in = corrupt_zero_mask(x, config.denoise_p, rng)
            loss, grad = loss_and_gradients(params, x, x_in)
            if not math.isfinite(loss):
                last = (
                    f"epoch {epoch - 1} was the last to finish, mean loss {losses[-1]!r}"
                    if losses else "no epoch finished"
                )
                update = (
                    f"gradient norm of the last update {last_norm!r} before clipping"
                    if last_norm is not None else "no update was made"
                )
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, record '{rec.id}'; {last}; {update}"
                )
            total += loss
            # numpy's own sum of products, not a BLAS ddot, whose last bit
            # depends on the BLAS thread count
            last_norm = math.sqrt(np.einsum("i,i", grad, grad))
            if config.clip_norm is not None and last_norm > config.clip_norm:
                grad *= config.clip_norm / last_norm
            params.flat -= config.lr * grad
        params.epoch_count += 1
        losses.append(total / len(records))
    return params, losses


def write_loss_log(losses: Sequence[float], path: str | Path) -> None:
    write_csv(path, [("epoch", "mean_loss"), *enumerate(map(float, losses), start=1)])


def checkpoint_blocks(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """(key, view into ``params.flat``) pairs in checkpoint order."""
    _, keys, size = _layout(params.input_dim, params.hidden_dim)
    return list(_tile(params.flat, keys, size).items())


def save_checkpoint(
    params: ModelParams, path: str | Path, train_meta: dict | None = None
) -> None:
    """Write a versioned JSON checkpoint with full float round-trip precision."""
    payload: dict = {
        "version": CHECKPOINT_VERSION,
        "input_dim": params.input_dim,
        "hidden_dim": params.hidden_dim,
        "seed": params.rng_seed,
        "epochs": params.epoch_count,
    }
    if train_meta is not None:
        payload["train"] = train_meta
    # the bytes of json.dumps of the payload with "params" last, written a
    # block at a time so that only one block's text is alive at once
    with replace_on_close(path) as fh:
        fh.write(json.dumps(payload)[:-1] + ', "params": {')
        for k, (key, arr) in enumerate(checkpoint_blocks(params)):
            fh.write(f'{", " if k else ""}{json.dumps(key)}: ')
            fh.write(json.dumps(arr.tolist()))
        fh.write("}}\n")


def load_checkpoint(path: str | Path) -> ModelParams:
    """Read a checkpoint written by save_checkpoint; exact round-trip."""
    path = Path(path)
    try:
        payload = json.loads("".join(read_input(path, "checkpoint", "line",
                                                error=CheckpointError)))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: malformed checkpoint file") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"{path}: malformed checkpoint file")
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:  # true and 1.0 equal 1
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    header = []
    for key, low in (("input_dim", 1), ("hidden_dim", 1), ("seed", 0), ("epochs", 0)):
        value = payload.get(key)
        # a JSON integer only: int() would truncate 2.7 and parse "2", and a bool is an int
        if type(value) is not int or value < low:
            raise CheckpointError(
                f"{path}: header field '{key}' must be an integer >= {low}, got {value!r}"
            )
        header.append(value)
    input_dim, hidden_dim, seed, epochs = header
    blob = payload.get("params")
    if not isinstance(blob, dict):
        raise CheckpointError(f"{path}: 'params' must be an object")

    keys = _layout(input_dim, hidden_dim)[1]
    unknown = sorted(blob.keys() - {key for key, *_ in keys})
    if unknown:
        raise CheckpointError(f"{path}: checkpoint has unknown parameter '{unknown[0]}'")
    # every array is sized by the file's own lists, never by the header
    blocks = []
    for key, _, _, shape in keys:
        if key not in blob:
            raise CheckpointError(f"{path}: checkpoint is missing parameter '{key}'")
        value = blob[key]
        try:
            arr = np.asarray(value, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"{path}: parameter '{key}' is not numeric") from exc
        if arr.shape != shape:
            raise CheckpointError(
                f"{path}: inconsistent shapes: '{key}' is {arr.shape}, expected {shape}"
            )
        # numpy reads "0.5", true and null as floats; the shape check leaves
        # lists only above the last axis, so these are the file's values
        values = value if arr.ndim == 1 else itertools.chain.from_iterable(value)
        if not set(map(type, values)) <= {float, int}:
            raise CheckpointError(f"{path}: parameter '{key}' is not numeric")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: parameter '{key}' contains non-finite values")
        blocks.append(arr.ravel())
    return ModelParams(input_dim, hidden_dim, np.concatenate(blocks), rng_seed=seed,
                       epoch_count=epochs)
