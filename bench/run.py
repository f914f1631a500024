"""Benchmark of the seqembed workflows: train, evaluate and search.

Run from the root of a seqembed checkout:

    python3 bench/run.py --workload train --seed 11 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout and nothing is
installed.  Human-readable report lines start with ``#``; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json when ``--trace 0``,
the per-layer metrics when ``--trace 1``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 3
FRESH_REPS = 5  # fresh interpreters started for each start-up timing
PROBE_INTERVAL_S = 0.25
PROBE_SMOOTHING = 2
PROBE_REFERENCE_MS = 2.0  # op_norm_ms is operation time on a host where the probe takes this


class Sample:
    """One timed step of an operation: its kind, wall time and check result."""

    def __init__(self, kind, op, group, traced):
        self.kind, self.op, self.group, self.traced = kind, op, group, traced
        self.start = self.end = self.seconds = 0.0
        self.ok = False


class Recorder:
    """Times samples and labels the spans recorded inside them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.group = None
        self.traced = False

    @contextlib.contextmanager
    def sample(self, kind):
        sample = Sample(kind, len(self.samples), self.group, self.traced)
        self.samples.append(sample)
        if self.traced:
            self.tracer.op = sample.op
        sample.start = time.perf_counter()
        try:
            yield sample
        finally:
            sample.end = time.perf_counter()
            sample.seconds = sample.end - sample.start
            if self.tracer is not None:
                self.tracer.op = None


def tail(values):
    """(percentile, value): the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None, None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def fresh_interpreter_ms(code: str) -> float:
    """Median over FRESH_REPS of a fresh interpreter running ``code``.

    When ``code`` prints a number, that (in seconds) is the time; otherwise
    the wall time of the whole child process is.
    """
    times = []
    for _ in range(FRESH_REPS):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, timeout=60, check=True)
        wall = time.perf_counter() - start
        times.append(float(child.stdout) if child.stdout.strip() else wall)
    return statistics.median(times) * 1e3


def _probe_task() -> float:
    """Seconds taken by a fixed pure-Python loop: host speed, not program speed.

    Of the probes tried, this one tracked the host's speed swings best for
    both the interpreter-bound (DTW, data) and the small-numpy (LSTM) code,
    and it starts no BLAS threads to contend with a busy child process.
    """
    start = time.perf_counter()
    sum(i * i for i in range(40_000))
    return time.perf_counter() - start


def host_probe_ms() -> float:
    """Median of 25 probe tasks, in ms."""
    return statistics.median(_probe_task() for _ in range(25)) * 1e3


class HostSampler:
    """Times the probe task every PROBE_INTERVAL_S of wall time while active.

    The probe runs from a SIGALRM handler in the middle of whatever the
    benchmark is doing; its own time is subtracted from the operation it
    interrupted, and the probe times taken during an operation give the
    host's speed while that operation ran.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.marks.append((start, _probe_task()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def between(self, start: float, end: float) -> list[float]:
        return [seconds for at, seconds in self.marks if start <= at <= end]

    def normaliser(self):
        """A function of (start, end) giving that stretch's host-normalised seconds.

        Each instant is scaled by PROBE_REFERENCE_MS over the probe time at
        the nearest probe, smoothed as the median of that probe and the
        PROBE_SMOOTHING probes on each side of it, so a host that changes
        speed in the middle of a long operation is followed.
        """
        if not self.marks:
            raise RuntimeError("no host probe was taken")
        times = [at for at, _ in self.marks]
        probes = [seconds for _, seconds in self.marks]
        k = PROBE_SMOOTHING
        scale = [PROBE_REFERENCE_MS / 1e3 / statistics.median(probes[max(0, i - k):i + k + 1])
                 for i in range(len(probes))]
        cuts = [(a + b) / 2 for a, b in zip(times, times[1:])]  # probe i owns cuts[i-1]..cuts[i]

        def normalised(start: float, end: float) -> float:
            total = 0.0
            i = bisect.bisect_left(cuts, start)
            while i < len(times) and (i == 0 or cuts[i - 1] < end):
                low = cuts[i - 1] if i > 0 else start
                high = cuts[i] if i < len(cuts) else end
                total += max(0.0, min(end, high) - max(start, low)) * scale[i]
                i += 1
            return total

        return normalised


def _blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            try:
                return int(getattr(ctypes.CDLL(lib), symbol)())
            except (OSError, AttributeError):
                continue
    return None


def host_info() -> dict:
    import numpy as np
    import scipy

    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "cli.interpreter_ms": fresh_interpreter_ms("pass"),
        "host_probe_ms": host_probe_ms(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _ms(value):
    return None if value is None else round(value * 1e3, 3)


def latency_report(samples) -> dict:
    """Median and tail latency of each sample kind, over untraced samples."""
    report = {}
    for kind in sorted({s.kind for s in samples}):
        times = [s.seconds for s in samples if s.kind == kind and not s.traced]
        if not times:
            continue
        q, value = tail(times)
        report[f"{kind}_p50_ms"] = _ms(statistics.median(times))
        report[f"{kind}_tail_ms"] = _ms(value)
        report[f"{kind}_tail_pct"] = None if q is None else round(q, 1)
        report[f"{kind}_n"] = len(times)
    return report


def op_times(samples, normalised) -> list[tuple[float, float]]:
    """(wall, host-normalised wall) seconds of each untraced operation of the run.

    An operation's wall time is the sum of its samples', less the probe time
    inside them.
    """
    times: dict[int, tuple[float, float]] = {}
    for s in samples:
        if not s.traced and s.group is not None:
            wall, norm = times.get(s.group, (0.0, 0.0))
            share = s.seconds / (s.end - s.start) if s.end > s.start else 0.0
            times[s.group] = (wall + s.seconds, norm + normalised(s.start, s.end) * share)
    return list(times.values())


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    # child processes import the checked-out sources too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import tracing
    import workloads

    host = host_info()
    tracer = tracing.Tracer() if args.trace else None
    recorder = Recorder(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed, recorder)
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(args, host, tracer, recorder, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


def measure(args, host, tracer, recorder, workload, work) -> int:
    attempted = failed = 0

    @contextlib.contextmanager
    def traced(op):
        """Record spans, with the host probe paused so spans hold only the program's time."""
        sampler.pause()
        tracer.install()
        tracer.op = op
        try:
            yield
        finally:
            tracer.uninstall()
            sampler.resume()

    setups, digests = [], []  # (start, end, wall less probes) of each set-up
    min_ops = 2 if tracer is not None else 1  # a traced run alternates untraced and traced ops
    with HostSampler() as sampler:
        for rep in range(SETUP_REPS):
            start = time.perf_counter()
            with traced("setup") if tracer is not None else contextlib.nullcontext():
                digests.append(workload.setup(work / f"setup{rep}"))
            end = time.perf_counter()
            setups.append((start, end, end - start - sum(sampler.between(start, end))))
        attempted += SETUP_REPS
        failed += sum(d != digests[0] for d in digests)

        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < min_ops or time.perf_counter() < deadline:
            is_traced = tracer is not None and index % 2 == 1
            recorder.group, recorder.traced, workload.tracing = index, is_traced, is_traced
            try:
                with traced(None) if is_traced else contextlib.nullcontext():
                    workload.run_op(index)
            except Exception:  # a crash in the program is a failed operation, not a failed run
                traceback.print_exc()
                with recorder.sample("crash"):
                    pass
            index += 1
    recorder.group = None
    samples = recorder.samples
    attempted += len(samples)
    failed += sum(not s.ok for s in samples)

    for sample in samples:  # the probe's own time is not the operation's
        sample.seconds -= sum(sampler.between(sample.start, sample.end))
    normalised = sampler.normaliser()
    ops = op_times(samples, normalised)
    report = {
        "workload": args.workload, "seed": args.seed, "corpus_seed": workload.corpus_seed,
        "seconds": args.seconds, "trace": args.trace, **host,
        "setup_s_reps": [round(wall, 4) for _start, _end, wall in setups],
        "ops": len(ops),
        "op_p50_ms": _ms(statistics.median(w for w, _n in ops)),
        "op_norm_ms": _ms(statistics.median(n for _w, n in ops)),
        "op_walls_ms": [_ms(w) for w, _n in ops],
        "op_norm_walls_ms": [_ms(n) for _w, n in ops],
        workload.work[0]: workload.work[1] * len(ops) / sum(w for w, _n in ops),
    }
    report.update(workload.report)
    report.update(latency_report(samples))

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(normalised(start, end) * wall / (end - start)
                                          for start, end, wall in setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "op_norm_ms": (statistics.median(n for _w, n in ops) * 1e3, "ms"),
        }
    else:
        metrics, failed_counts = traced_metrics(host, tracer, workload, samples, report)
        failed += failed_counts
        attempted += 1
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv")
    report.update(attempted=attempted, failed=failed, failed_frac=failed / attempted)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        **report, "metrics": metrics,
        "probe_marks": [(round(at, 4), round(s * 1e3, 4)) for at, s in sampler.marks],
        "op_intervals": [(round(s.start, 4), round(s.end, 4), s.group, s.kind, s.traced)
                         for s in samples],
    }) + "\n")
    for key, value in report.items():
        if not isinstance(value, dict):
            print(f"# {key}: {value}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def traced_metrics(host, tracer, workload, samples, report):
    import tracing

    tracer.install()
    tracer.op = "probe"
    try:
        workload.probe()
    finally:
        tracer.uninstall()
    import_ms = fresh_interpreter_ms(
        "import time; t = time.perf_counter(); import seqembed.cli; "
        "print(time.perf_counter() - t)")
    interp_ms = host["cli.interpreter_ms"]
    spans = tracer.spans

    traced = [s for s in samples if s.traced]
    groups = sorted({s.group for s in traced})
    per_group = [tracing.work_counts(spans, {s.op for s in traced if s.group == g})
                 for g in groups]
    # Every op of train and evaluate does the same work; search rounds draw different queries.
    mismatched = workload.name != "search" and any(c != per_group[0] for c in per_group)

    metrics = {"cli.import_ms": (import_ms, "ms"), "cli.interpreter_ms": (interp_ms, "ms")}
    metrics.update(tracing.layer_metrics(spans))
    for name, value in (per_group[0] if per_group else {}).items():
        metrics[name] = (value, "count")

    shares = tracing.layer_shares(spans, [(s.op, s.kind, s.seconds) for s in traced],
                                  extra_cli_s=import_ms / 1e3, extra_floor_s=interp_ms / 1e3)
    wall_total = sum(wall for wall, _l, _r, _n in shares.values())
    for layer in tracing.LAYERS:
        share = sum(layers.get(layer, 0.0) for _w, layers, _r, _n in shares.values())
        metrics[f"{layer}.self_frac"] = (share / wall_total if wall_total else 0.0, "ratio")
    rest = sum(r for _w, _l, r, _n in shares.values())
    metrics["unattributed_frac"] = (rest / wall_total if wall_total else 0.0, "ratio")

    plain = sorted({s.kind for s in traced if not s.kind.startswith("cli_")})
    med = {flag: sum(tracing.median([s.seconds for s in samples
                                     if s.kind == k and s.traced == flag]) for k in plain)
           for flag in (True, False)}
    metrics["trace.overhead_frac"] = (med[True] / med[False] - 1.0 if med[False] else 0.0,
                                      "ratio")

    report["counts_repeat_exactly"] = not mismatched
    report["trace_overhead_ms"] = _ms(med[True] - med[False])
    for kind, (wall, layers, rest, n) in sorted(shares.items()):
        parts = ", ".join(f"{layer} {layers.get(layer, 0.0) / wall:.1%}"
                          for layer in tracing.LAYERS)
        report[f"layers[{kind}]"] = (f"n={n} wall {wall * 1e3 / n:.3f} ms/op: {parts}, "
                                     f"unattributed {rest / wall:.1%}")
    return metrics, int(mismatched)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "evaluate", "search"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqembed" / "cli.py").is_file():
        print(f"error: no seqembed sources under {SRC}; run from a seqembed checkout",
              file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
