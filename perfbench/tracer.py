"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of radarnet's modules and the
forward/backward methods of its layer objects from outside the package: it
replaces each module attribute (and every re-export of the same function
object) with a wrapper that records a span, and puts the originals back on
uninstall.  Spans are kept in memory as lists
[name, start, end, parent index, work] and turned into the per-module
metrics of BENCHMARK.json when the run ends.  Targets that a later version
of the package no longer has are skipped, so their metrics read 0.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

import numpy as np

import metrics

# (module, attribute, span name).  Attributes with a dot are methods.
FUNCTIONS = [
    ("radar", "sample_vehicle_scenario", "radar.scenario"),
    ("radar", "synthesize_beat_signal", "radar.synthesize"),
    ("fourier", "fft", "fourier.fft"),
    ("spectrogram", "signal_to_tensor", "spectrogram.signal_to_tensor"),
    ("spectrogram", "mean_normalize", "spectrogram.mean_normalize"),
    ("spectrogram", "compute_mean_tensor", "spectrogram.compute_mean"),
    ("dataset", "generate_dataset", "dataset.generate"),
    ("dataset", "load_dataset", "dataset.load_dataset"),
    ("dataset", "save_tensor", "dataset.save_tensor"),
    ("dataset", "save_signal", "dataset.save_signal"),
    ("dataset", "load_tensor", "dataset.load_tensor"),
    ("dataset", "Dataset.load", "dataset.Dataset.load"),
    ("dataset", "balanced_batches", "dataset.balanced_batches"),
    ("dataset", "stratified_fold_split", "dataset.fold_split"),
    ("network", "build_network", "network.build"),
    ("network", "Network.forward", "network.forward"),
    ("network", "Network.backward", "network.backward"),
    ("network", "Network.snapshot", "network.snapshot"),
    ("network", "loss_and_grad", "network.loss_and_grad"),
    ("network", "sgd_step", "network.sgd_step"),
    ("network", "predict", "network.predict"),
    ("evaluation", "train_fold", "evaluation.train_fold"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
]

# Every layer name of the mini and full presets.
LAYER_NAMES = (
    [f"conv{i}" for i in range(1, 6)]
    + [f"relu{i}" for i in range(1, 8)]
    + ["pool1", "pool2", "pool3", "pool5", "norm1", "norm2"]
    + ["fc1", "fc2", "fc6", "fc7", "fc8", "drop1", "drop6", "drop7", "softmax"]
)
GEMM_LAYERS = [n for n in LAYER_NAMES if n.startswith(("conv", "fc"))]


def _input_array(x):
    return np.asarray(getattr(x, "values", x))


def _samples(x) -> int:
    """Samples in a network input: [C, H, W] is one, [N, C, H, W] is N."""
    shape = _input_array(x).shape
    return 1 if len(shape) <= 3 else int(shape[0])


def _layer_flops(layer, x) -> int:
    """Multiply-add FLOPs of one conv or fully connected forward call."""
    x = _input_array(x)
    if layer.kind == "conv":
        c, h, w = x.shape[-3:]
        n = x.size // (c * h * w)
        k, s, p = layer.kernel, layer.stride, layer.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return 2 * n * layer.out_channels * oh * ow * c * k * k
    if layer.kind == "fc":
        n = x.size // layer.in_features
        return 2 * n * layer.in_features * layer.out_features
    return 0


def _work(span_name):
    """Work counter recorded with a span, from (args, kwargs, result)."""
    if span_name == "fourier.fft":
        return lambda a, kw, r: int(np.prod(np.shape(a[0])[:-1], dtype=np.int64))
    if span_name in ("dataset.save_tensor", "dataset.save_signal"):
        return lambda a, kw, r: os.path.getsize(a[1])
    if span_name == "network.forward":
        return lambda a, kw, r: _samples(a[1])
    if span_name == "evaluation.evaluate":
        return lambda a, kw, r: r.total
    return None


class Tracer:
    """Records spans from wrappers it installs into the radarnet package."""

    def __init__(self):
        self.enabled = False    # spans are recorded only while set
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    def _wrap(self, fn, name, work=None):
        """Wrapper recording one span per call; name may be a function of self."""
        tracer, spans, lock, local, clock = self, self.spans, self._lock, self._local, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = local.__dict__.setdefault("stack", [])
            span = [name(args[0]) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return wrapper

    def _replace(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, package) -> None:
        """Wrap every target of FUNCTIONS and every layer class in package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for mod_name, attr, span_name in FUNCTIONS:
            mod = sys.modules.get(f"{package.__name__}.{mod_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name, None)
                if owner is not None and method in owner.__dict__:
                    fn = owner.__dict__[method]
                    self._replace(owner, method, self._wrap(fn, span_name, _work(span_name)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span_name, _work(span_name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._replace(m, key, wrapper)
        layers = sys.modules.get(f"{package.__name__}.layers")
        for cls in list(vars(layers).values()) if layers else []:
            if not (isinstance(cls, type) and "forward" in cls.__dict__ and "backward" in cls.__dict__):
                continue
            self._replace(cls, "forward", self._wrap(
                cls.__dict__["forward"], lambda layer: f"layers.{layer.name}.fwd",
                lambda a, kw, r: _layer_flops(a[0], a[1])))
            self._replace(cls, "backward", self._wrap(
                cls.__dict__["backward"], lambda layer: f"layers.{layer.name}.bwd"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# Per-layer metrics: (name, unit, better).  Times are milliseconds per call
# of the span; counts are per workload operation.
PER_LAYER = (
    [
        ("radar.scenario_ms", "ms", "lower"),
        ("radar.synthesize_ms", "ms", "lower"),
        ("fourier.fft_ms", "ms", "lower"),
        ("fourier.fft_calls", "count", "lower"),
        ("fourier.windows", "count", "lower"),
        ("spectrogram.signal_to_tensor_self_ms", "ms", "lower"),
        ("spectrogram.mean_normalize_ms", "ms", "lower"),
        ("spectrogram.compute_mean_ms", "ms", "lower"),
        ("dataset.save_tensor_ms", "ms", "lower"),
        ("dataset.save_signal_ms", "ms", "lower"),
        ("dataset.bytes_written", "bytes", "lower"),
        ("dataset.load_ms", "ms", "lower"),
        ("dataset.load_cache_hit_ratio", "ratio", "higher"),
        ("dataset.balanced_batches_ms", "ms", "lower"),
    ]
    + [(f"layers.{n}.{d}_ms", "ms", "lower") for n in LAYER_NAMES for d in ("fwd", "bwd")]
    + [(f"layers.{n}.fwd_gflops", "GFLOP/s", "higher") for n in GEMM_LAYERS]
    + [
        ("network.forward_ms", "ms", "lower"),
        ("network.backward_ms", "ms", "lower"),
        ("network.forward_calls", "count", "lower"),
        ("network.samples_per_forward", "samples", "higher"),
        ("network.sgd_step_ms", "ms", "lower"),
        ("network.loss_and_grad_ms", "ms", "lower"),
        ("network.snapshot_ms", "ms", "lower"),
        ("evaluation.train_fold_self_ms", "ms", "lower"),
        ("evaluation.evaluate_ms", "ms", "lower"),
        ("evaluation.evaluate_samples", "count", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
    ]
)


def per_layer_metrics(spans, n_ops: int, section_s: float, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from the spans of n_ops traced operations that
    took section_s seconds together; a span that never ran reads 0."""
    calls, total, self_total, work = {}, {}, {}, {}
    for span, own in zip(spans, metrics.self_times(spans)):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (span[2] - span[1])
        self_total[name] = self_total.get(name, 0.0) + own
        work[name] = work.get(name, 0) + span[4]

    def ms(name, own=False):
        n = calls.get(name, 0)
        return 1e3 * (self_total if own else total)[name] / n if n else 0.0

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    misses = sum(1 for s in spans if s[0] == "dataset.load_tensor"
                 and s[3] >= 0 and spans[s[3]][0] == "dataset.Dataset.load")
    roots = [(s[1], s[2]) for s in spans if s[3] < 0]
    values = {
        "radar.scenario_ms": ms("radar.scenario"),
        "radar.synthesize_ms": ms("radar.synthesize"),
        "fourier.fft_ms": ms("fourier.fft"),
        "fourier.fft_calls": per_op(calls, "fourier.fft"),
        "fourier.windows": per_op(work, "fourier.fft"),
        "spectrogram.signal_to_tensor_self_ms": ms("spectrogram.signal_to_tensor", own=True),
        "spectrogram.mean_normalize_ms": ms("spectrogram.mean_normalize"),
        "spectrogram.compute_mean_ms": ms("spectrogram.compute_mean"),
        "dataset.save_tensor_ms": ms("dataset.save_tensor"),
        "dataset.save_signal_ms": ms("dataset.save_signal"),
        "dataset.bytes_written": per_op(work, "dataset.save_tensor") + per_op(work, "dataset.save_signal"),
        "dataset.load_ms": ms("dataset.load_tensor"),
        "dataset.load_cache_hit_ratio": ratio(calls.get("dataset.Dataset.load", 0) - misses,
                                              calls.get("dataset.Dataset.load", 0)),
        "dataset.balanced_batches_ms": ms("dataset.balanced_batches"),
        "network.forward_ms": ms("network.forward"),
        "network.backward_ms": ms("network.backward"),
        "network.forward_calls": per_op(calls, "network.forward"),
        "network.samples_per_forward": ratio(work.get("network.forward", 0), calls.get("network.forward", 0)),
        "network.sgd_step_ms": ms("network.sgd_step"),
        "network.loss_and_grad_ms": ms("network.loss_and_grad"),
        "network.snapshot_ms": ms("network.snapshot"),
        "evaluation.train_fold_self_ms": ms("evaluation.train_fold", own=True),
        "evaluation.evaluate_ms": ms("evaluation.evaluate"),
        "evaluation.evaluate_samples": per_op(work, "evaluation.evaluate"),
        "trace.overhead_frac": overhead_frac,
        "trace.coverage": ratio(sum(e - s for s, e in roots), section_s),
    }
    for n in LAYER_NAMES:
        for d in ("fwd", "bwd"):
            values[f"layers.{n}.{d}_ms"] = ms(f"layers.{n}.{d}")
    for n in GEMM_LAYERS:
        values[f"layers.{n}.fwd_gflops"] = ratio(work.get(f"layers.{n}.fwd", 0) / 1e9,
                                                  total.get(f"layers.{n}.fwd", 0.0))
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
