"""Spans around calls into seqembed's public layer functions.

The benchmark records every span itself, from outside the package: while a
traced operation runs, the public functions listed in ``WRAPPED`` are
replaced, in every seqembed module that holds a reference to them, by a
wrapper that appends ``[name, start, end, parent, op, work]`` to an
in-memory list.  ``work`` is the count of work the call did (records
parsed, LSTM steps, DTW cells, cosine scores, MAP queries), taken from its
arguments and result.  Nothing is written until the run ends.

A span's self time is its duration minus the durations of its child
spans; calls are nested and single-threaded, so children never overlap.
"""
from __future__ import annotations

import csv
import functools
import importlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "data", "lstm", "autoencoder", "baselines", "retrieval", "evaluation")

# The LSTM has no public entry point of its own: its recurrences run inside
# these three autoencoder functions, so their self time is the lstm layer's.
LSTM_SPANS = ("autoencoder.encode", "autoencoder.decode", "autoencoder.loss_and_gradients")

# The model shape the workloads train (cli train --hidden 32 on D=8 features);
# used only to turn LSTM step counts into computed flops.
HIDDEN = 32
INPUT_DIM = 8


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _frames(x) -> int:
    return int(x.shape[0])


def _records_parsed(args, kwargs, result):
    return len(result.records)


def _sequence_steps(args, kwargs, result):
    return _frames(_arg(args, kwargs, 1, "x"))


def _decode_steps(args, kwargs, result):
    return int(_arg(args, kwargs, 2, "length"))


def _dtw_cells(args, kwargs, result):
    return _frames(_arg(args, kwargs, 0, "a")) * _frames(_arg(args, kwargs, 1, "b"))


def _cosine_scores(args, kwargs, result):
    archive = _arg(args, kwargs, 1, "archive")
    exclude = _arg(args, kwargs, 2, "exclude_id")
    return sum(1 for seg_id, _word, _vec in archive.entries if seg_id != exclude)


def _map_queries(args, kwargs, result):
    return (len(result.rows) - result.num_excluded, result.num_excluded)


WRAPPED = {
    "data": {
        "generate_synthetic": None,
        "write_manifest": None,
        "parse_manifest": _records_parsed,
        "load_feature_file": None,
    },
    "autoencoder": {
        "init_params": None,
        "train": None,
        "loss_and_gradients": _sequence_steps,
        "encode": _sequence_steps,
        "decode": _decode_steps,
        "save_checkpoint": None,
        "load_checkpoint": None,
    },
    "baselines": {"naive_encode": None, "dtw_distance": _dtw_cells},
    "retrieval": {
        "build_archive": None,
        "rank": _cosine_scores,
        "rank_dtw": None,
        "save_archive": None,
        "load_archive": None,
    },
    "evaluation": {
        "mean_average_precision": _map_queries,
        "similarity_table": None,
        "write_map_report": None,
        "write_comparison": None,
        "write_similarity_table": None,
    },
    "cli": {"main": None},
}

_MODULES = ("seqembed", "seqembed.data", "seqembed.lstm", "seqembed.autoencoder",
            "seqembed.baselines", "seqembed.retrieval", "seqembed.evaluation", "seqembed.cli")


class Tracer:
    """In-memory span recorder that patches the layer functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None  # label of the operation now running; None records nothing
        self._stack: list[int] = []
        self._wrappers = {}
        self._patched: list[tuple[object, str, object]] = []
        for layer, functions in WRAPPED.items():
            module = importlib.import_module(f"seqembed.{layer}")
            for fname, count in functions.items():
                fn = getattr(module, fname, None)
                if fn is not None:
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn, count))

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name in _MODULES:
            module = importlib.import_module(mod_name)
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
        self.op = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span", "name", "start_s", "end_s", "parent", "op", "work"])
            for index, (name, start, end, parent, op, work) in enumerate(self.spans):
                writer.writerow([index, name, f"{start:.9f}", f"{end:.9f}", parent, op,
                                 "" if work is None else work])


def layer_of(name: str) -> str:
    return "lstm" if name in LSTM_SPANS else name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    own = [end - start for _name, start, end, _parent, _op, _work in spans]
    for name, start, end, parent, _op, _work in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _flops(name: str, steps: int) -> float:
    """Computed multiply-add flops of the LSTM matrix products for one call."""
    h, d = HIDDEN, INPUT_DIM
    enc = steps * 8 * h * (d + h)
    dec = 8 * h * (h + h) + (steps - 1) * 8 * h * (d + h) + steps * 2 * d * h
    if name == "autoencoder.encode":
        return enc
    if name == "autoencoder.decode":
        return dec
    return 3 * (enc + dec)  # forward, then a backward of twice the forward's products


def work_counts(spans, ops) -> dict[str, int]:
    """Exact work done by the spans whose op label is in ``ops``."""
    counts = dict.fromkeys(
        ["data.records_parsed", "lstm.steps_fwd", "lstm.steps_bwd", "baselines.dtw_pairs",
         "baselines.dtw_cells", "retrieval.cosine_scores", "evaluation.queries_scored",
         "evaluation.queries_excluded"], 0)
    for name, _start, _end, _parent, op, work in spans:
        if op not in ops:
            continue
        if name == "data.parse_manifest":
            counts["data.records_parsed"] += work
        elif name in ("autoencoder.encode", "autoencoder.decode"):
            counts["lstm.steps_fwd"] += work
        elif name == "autoencoder.loss_and_gradients":
            counts["lstm.steps_fwd"] += 2 * work
            counts["lstm.steps_bwd"] += 2 * work
        elif name == "baselines.dtw_distance":
            counts["baselines.dtw_pairs"] += 1
            counts["baselines.dtw_cells"] += work
        elif name == "retrieval.rank":
            counts["retrieval.cosine_scores"] += work
        elif name == "evaluation.mean_average_precision":
            counts["evaluation.queries_scored"] += work[0]
            counts["evaluation.queries_excluded"] += work[1]
    return counts


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """(value, unit) of per-call times and rates over every span (set-up included).

    LSTM forward time per step is the self time of encode and decode spans
    over their steps; backward time per step is what remains of
    loss_and_gradients once its forward steps are charged at that rate.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    work = defaultdict(int)
    flops = 0.0
    for index, (name, start, end, _parent, _op, count) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += own[index]
        if name in LSTM_SPANS:
            work[name] += count
            flops += _flops(name, count)
        elif name == "baselines.dtw_distance":
            work[name] += count

    def mean(name, scale):
        return total[name] / calls[name] * scale if calls[name] else 0.0

    fwd_steps = work["autoencoder.encode"] + work["autoencoder.decode"]
    fwd_time = self_total["autoencoder.encode"] + self_total["autoencoder.decode"]
    fwd_per_step = fwd_time / fwd_steps if fwd_steps else 0.0
    lag_steps = 2 * work["autoencoder.loss_and_gradients"]
    bwd_time = self_total["autoencoder.loss_and_gradients"] - fwd_per_step * lag_steps
    lstm_time = sum(self_total[name] for name in LSTM_SPANS)
    train_time = total["autoencoder.train"]
    dtw_time = total["baselines.dtw_distance"]
    maps = calls["evaluation.mean_average_precision"]
    return {
        "data.parse_manifest_ms": (mean("data.parse_manifest", 1e3), "ms"),
        "data.load_feature_file_us": (mean("data.load_feature_file", 1e6), "us"),
        "lstm.fwd_us_per_step": (fwd_per_step * 1e6, "us"),
        "lstm.bwd_us_per_step": (bwd_time / lag_steps * 1e6 if lag_steps else 0.0, "us"),
        "lstm.gflop_per_s": (flops / lstm_time / 1e9 if lstm_time else 0.0, "GFLOP/s"),
        "autoencoder.loss_and_gradients_ms": (mean("autoencoder.loss_and_gradients", 1e3), "ms"),
        "autoencoder.train_self_frac": (
            self_total["autoencoder.train"] / train_time if train_time else 0.0, "ratio"),
        "autoencoder.encode_us": (mean("autoencoder.encode", 1e6), "us"),
        "autoencoder.load_checkpoint_ms": (mean("autoencoder.load_checkpoint", 1e3), "ms"),
        "autoencoder.save_checkpoint_ms": (mean("autoencoder.save_checkpoint", 1e3), "ms"),
        "baselines.dtw_us_per_pair": (mean("baselines.dtw_distance", 1e6), "us"),
        "baselines.dtw_cells_per_s": (
            work["baselines.dtw_distance"] / dtw_time if dtw_time else 0.0, "1/s"),
        "baselines.naive_encode_us": (mean("baselines.naive_encode", 1e6), "us"),
        "retrieval.rank_ms": (mean("retrieval.rank", 1e3), "ms"),
        "retrieval.rank_dtw_ms": (mean("retrieval.rank_dtw", 1e3), "ms"),
        "retrieval.build_archive_ms": (mean("retrieval.build_archive", 1e3), "ms"),
        "retrieval.load_archive_ms": (mean("retrieval.load_archive", 1e3), "ms"),
        "retrieval.save_archive_ms": (mean("retrieval.save_archive", 1e3), "ms"),
        "evaluation.map_self_ms": (
            self_total["evaluation.mean_average_precision"] / maps * 1e3 if maps else 0.0, "ms"),
        "evaluation.similarity_table_ms": (mean("evaluation.similarity_table", 1e3), "ms"),
    }


def layer_shares(spans, samples, extra_cli_s: float = 0.0, extra_floor_s: float = 0.0):
    """Self time per layer for each traced sample kind, against its wall time.

    ``samples`` are the traced samples (op label, kind, seconds).  A kind
    whose name starts with ``cli_`` is a fresh-process command replayed in
    this process, so each of its samples is charged ``extra_cli_s`` of
    ``import seqembed.cli`` (cli layer) and ``extra_floor_s`` of bare
    interpreter start (unattributed), both measured in fresh interpreters.
    Returns {kind: (wall_s, {layer: self_s}, unattributed_s, n)}.
    """
    own = self_times(spans)
    by_op = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        by_op[span[4]][layer_of(span[0])] += own[index]
    walls = defaultdict(float)
    layers = defaultdict(lambda: defaultdict(float))
    counts = defaultdict(int)
    for op, kind, seconds in samples:
        counts[kind] += 1
        walls[kind] += seconds
        for layer, value in by_op.get(op, {}).items():
            layers[kind][layer] += value
        if kind.startswith("cli_"):
            walls[kind] += extra_cli_s + extra_floor_s
            layers[kind]["cli"] += extra_cli_s
    return {kind: (walls[kind], dict(layers[kind]), walls[kind] - sum(layers[kind].values()),
                   counts[kind]) for kind in walls}


def median(values):
    return statistics.median(values) if values else 0.0
