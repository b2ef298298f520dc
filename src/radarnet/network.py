"""Convolutional classifier assembled from scratch, plus its training ops.

Two presets share the same layer kinds.  "full" is the eight-layer plan
(five convolutions, three fully connected layers) with max pooling, response
normalization after the first two pools, dropout around the 4096-wide FC
pair and a 6-way softmax.  "mini" is a desk-scale network with the identical
mechanisms for fast experiments.  Weights persist in a .rdw container
("RDW1", named little-endian float32 records).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .layers import (
    ChannelResponseNorm,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    ReLU,
    Softmax,
)
from .radar import CLASS_ORDER, VehicleClass
from .spectrogram import RdTensor

WEIGHTS_MAGIC = b"RDW1"

PRESETS = ("full", "mini")


class WeightsFormatError(ValueError):
    """Malformed .rdw payload."""


class WeightShapeError(WeightsFormatError):
    """Stored record shapes disagree with the network; names the layers."""


class StaleCacheError(RuntimeError):
    """backward() called with a cache from before a parameter update."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 15
    seed: int = 0
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "epochs": self.epochs,
            "seed": self.seed,
            "dropout_rate": self.dropout_rate,
        }


@dataclass
class ForwardCache:
    entries: list
    version: int
    train: bool


class Network:
    """Ordered layer stack with named parameters and a version counter that
    invalidates forward caches whenever parameters change."""

    def __init__(self, layers, input_shape, num_classes, precision="standard"):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.num_classes = num_classes
        self.precision = precision
        self._version = 0

    @property
    def dtype(self):
        return np.float64 if self.precision == "high" else np.float32

    @property
    def version(self) -> int:
        return self._version

    def bump_version(self) -> None:
        self._version += 1

    def params(self) -> dict:
        out = {}
        for layer in self.layers:
            out.update(layer.params)
        return out

    def set_params(self, values: dict) -> None:
        own = self.params()
        for name, arr in values.items():
            own[name][...] = arr
        self.bump_version()

    def snapshot(self) -> dict:
        return {name: arr.copy() for name, arr in self.params().items()}

    def layer_named(self, name: str):
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(name)

    def shape_chain(self) -> list:
        """(layer name, output shape) through the whole stack."""
        shape = self.input_shape
        chain = []
        for layer in self.layers:
            shape = layer.output_shape(shape)
            chain.append((layer.name, shape))
        return chain

    def forward(self, x, mode="eval", rng=None):
        """Run the stack on one sample ([C, H, W] or RdTensor; gives (classes,)
        probabilities) or a batch [N, C, H, W] (gives [N, classes]); returns
        (probabilities, cache for backward).  rng seeds train-mode dropout:
        a seed or generator, or a list of them, one per batch row."""
        if isinstance(x, RdTensor):
            x = x.values
        x = np.asarray(x, dtype=self.dtype)
        single = x.shape == self.input_shape
        x = x[None] if single else x
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"input shape {x.shape} != network input {self.input_shape}")
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        train = mode == "train"
        if isinstance(rng, list):
            rng = [np.random.default_rng(r) for r in rng]
        elif rng is not None:
            rng = np.random.default_rng(rng)
        entries = []
        for layer in self.layers:
            x, cache = layer.forward(x, train=train, rng=rng)
            entries.append((layer, cache))
        return (x[0] if single else x), ForwardCache(entries=entries, version=self._version, train=train)

    def backward(self, cache: ForwardCache, dlogits):
        """Reverse pass from the logit gradient of forward's output shape;
        returns parameter gradients summed over the batch."""
        if cache.version != self._version:
            raise StaleCacheError("parameters changed since this cache's forward pass")
        grads = {}
        dy = np.atleast_2d(np.asarray(dlogits, dtype=self.dtype))
        (first, first_cache), *rest = cache.entries
        for layer, layer_cache in reversed(rest):
            dy, layer_grads = layer.backward(dy, layer_cache)
            grads.update(layer_grads)
        if first.params:    # nothing reads the network's input gradient
            grads.update(first.backward(dy, first_cache, input_grad=False)[1])
        return grads

    def with_precision(self, precision: str) -> "Network":
        """Structural copy carrying the same parameter values in a new dtype."""
        dtype = np.float64 if precision == "high" else np.float32
        twins = []
        for layer in self.layers:
            if isinstance(layer, Conv2d):
                twin = Conv2d(
                    layer.name, layer.in_channels, layer.out_channels,
                    layer.kernel, layer.stride, layer.padding,
                    dtype=dtype, rng=np.random.default_rng(0),
                )
                twin.W = layer.W.astype(dtype)
                twin.b = layer.b.astype(dtype)
            elif isinstance(layer, Linear):
                twin = Linear(
                    layer.name, layer.in_features, layer.out_features,
                    dtype=dtype, rng=np.random.default_rng(0),
                )
                twin.W = layer.W.astype(dtype)
                twin.b = layer.b.astype(dtype)
            elif isinstance(layer, ChannelResponseNorm):
                twin = ChannelResponseNorm(layer.name, layer.k, layer.n, layer.alpha, layer.beta)
            elif isinstance(layer, MaxPool2d):
                twin = MaxPool2d(layer.name, layer.kernel, layer.stride)
            elif isinstance(layer, Dropout):
                twin = Dropout(layer.name, layer.rate)
            elif isinstance(layer, ReLU):
                twin = ReLU(layer.name)
            else:
                twin = Softmax(layer.name)
            twins.append(twin)
        return Network(twins, self.input_shape, self.num_classes, precision=precision)


def _instantiate_layer(kind, name, args, shape, dtype, rng):
    if kind == "conv":
        expect_in = args["in_channels"]
        if shape[0] != expect_in:
            raise ValueError(
                f"layer {name}: receptive-field depth {expect_in} != chain channels {shape[0]}"
            )
        return Conv2d(
            name, expect_in, args["out_channels"],
            args["kernel"], args["stride"], args["padding"],
            dtype=dtype, rng=rng,
        )
    if kind == "maxpool":
        return MaxPool2d(name, kernel=3, stride=2)
    if kind == "response_norm":
        return ChannelResponseNorm(name)
    if kind == "relu":
        return ReLU(name)
    if kind == "dropout":
        return Dropout(name, rate=args["rate"])
    if kind == "fc":
        flat = int(np.prod(shape))
        # the output layer feeds the softmax, not a rectifier
        std = np.sqrt(1.0 / flat) if args.get("is_output") else np.sqrt(2.0 / flat)
        return Linear(name, flat, args["units"], dtype=dtype, rng=rng, weight_std=std)
    if kind == "softmax":
        return Softmax(name)
    raise ValueError(f"unknown layer kind {kind!r}")


def _full_plan(num_classes, dropout_rate):
    return [
        ("conv", "conv1", {"in_channels": 3, "out_channels": 96, "kernel": 11, "stride": 4, "padding": 0}),
        ("relu", "relu1", {}),
        ("maxpool", "pool1", {}),
        ("response_norm", "norm1", {}),
        ("conv", "conv2", {"in_channels": 96, "out_channels": 256, "kernel": 5, "stride": 1, "padding": 2}),
        ("relu", "relu2", {}),
        ("maxpool", "pool2", {}),
        ("response_norm", "norm2", {}),
        ("conv", "conv3", {"in_channels": 256, "out_channels": 384, "kernel": 3, "stride": 1, "padding": 1}),
        ("relu", "relu3", {}),
        ("conv", "conv4", {"in_channels": 384, "out_channels": 384, "kernel": 3, "stride": 1, "padding": 1}),
        ("relu", "relu4", {}),
        ("conv", "conv5", {"in_channels": 384, "out_channels": 256, "kernel": 3, "stride": 1, "padding": 1}),
        ("relu", "relu5", {}),
        ("maxpool", "pool5", {}),
        ("fc", "fc6", {"units": 4096}),
        ("relu", "relu6", {}),
        ("dropout", "drop6", {"rate": dropout_rate}),
        ("fc", "fc7", {"units": 4096}),
        ("relu", "relu7", {}),
        ("dropout", "drop7", {"rate": dropout_rate}),
        ("fc", "fc8", {"units": num_classes, "is_output": True}),
        ("softmax", "softmax", {}),
    ]


def _mini_plan(num_classes, dropout_rate):
    return [
        ("conv", "conv1", {"in_channels": 3, "out_channels": 16, "kernel": 5, "stride": 2, "padding": 2}),
        ("relu", "relu1", {}),
        ("maxpool", "pool1", {}),
        ("response_norm", "norm1", {}),
        ("conv", "conv2", {"in_channels": 16, "out_channels": 32, "kernel": 3, "stride": 1, "padding": 1}),
        ("relu", "relu2", {}),
        ("maxpool", "pool2", {}),
        ("conv", "conv3", {"in_channels": 32, "out_channels": 32, "kernel": 3, "stride": 1, "padding": 1}),
        ("relu", "relu3", {}),
        ("maxpool", "pool3", {}),
        ("fc", "fc1", {"units": 128}),
        ("relu", "relu4", {}),
        ("dropout", "drop1", {"rate": dropout_rate}),
        ("fc", "fc2", {"units": num_classes, "is_output": True}),
        ("softmax", "softmax", {}),
    ]


def build_network(
    preset: str,
    input_shape,
    num_classes: int = 6,
    seed: int = 0,
    *,
    precision: str = "standard",
    dropout_rate: float = 0.5,
) -> Network:
    """Construct a preset network with seed-deterministic He initialization
    (the output layer uses std sqrt(1/fan_in) since nothing rectifies it)."""
    if preset == "full":
        plan = _full_plan(num_classes, dropout_rate)
    elif preset == "mini":
        plan = _mini_plan(num_classes, dropout_rate)
    else:
        raise ValueError(f"unknown preset {preset!r}, expected one of {PRESETS}")
    if len(input_shape) != 3 or input_shape[0] != 3:
        raise ValueError(f"input shape must be (3, H, W), got {tuple(input_shape)}")
    if precision not in ("standard", "high"):
        raise ValueError(f"unknown precision {precision!r}")
    dtype = np.float64 if precision == "high" else np.float32
    rng = np.random.default_rng(seed)

    layers = []
    shape = tuple(input_shape)
    for kind, name, args in plan:
        layer = _instantiate_layer(kind, name, args, shape, dtype, rng)
        shape = layer.output_shape(shape)
        layers.append(layer)

    net = Network(layers, input_shape, num_classes, precision=precision)
    final = net.shape_chain()[-1][1]
    if final != (num_classes,):
        raise ValueError(f"network emits {final}, expected ({num_classes},)")
    return net


def loss_and_grad(scores, true_class):
    """Cross-entropy -ln p_true and its gradient w.r.t. the logits; for a batch (scores
    [N, K], a list of N classes) the mean loss and its gradient, (probs - onehot) / N."""
    rows = np.atleast_2d(np.asarray(scores, dtype=float))
    labels = true_class if isinstance(true_class, (list, tuple)) else [true_class]
    at = (np.arange(len(labels)), [c.index if isinstance(c, VehicleClass) else int(c) for c in labels])
    loss = float(np.mean(-np.log(np.maximum(rows[at], 1e-12))))
    dlogits = rows.copy()
    dlogits[at] -= 1.0
    return loss, (dlogits / len(labels)).reshape(np.shape(scores))


def predict(net: Network, tensor):
    """Eval-mode class decision; argmax with ties going to the lowest index."""
    scores, _ = net.forward(tensor, mode="eval")
    return VehicleClass(CLASS_ORDER[int(np.argmax(scores))]), scores


def sgd_step(params: dict, grads: dict, velocity: dict, cfg: TrainConfig) -> None:
    """Classical momentum with L2 decay folded into the gradient:
    v <- mu*v - lr*(g + wd*w);  w <- w + v.  Updates params/velocity in place,
    with one temporary the size of w."""
    for name, w in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}; aborting training")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(w)
            velocity[name] = v
        step = w * cfg.weight_decay
        step += g
        step *= cfg.learning_rate
        v *= cfg.momentum
        v -= step
        w += v


def gradient_check(
    net: Network,
    tensor,
    true_class,
    *,
    epsilon: float = 1e-4,
    num_params: int = 200,
    seed: int = 0,
    denom_floor: float | None = None,
) -> float:
    """Max relative error between backprop and central differences over a
    random sample of parameters (eval-mode forward, so dropout is identity).

    The difference quotient always runs in float64: for a standard-precision
    network the check perturbs a float64 twin carrying the identical
    parameter values, so the measured error is the float32 backprop error
    rather than float32 finite-difference noise.  The relative-error
    denominator is floored (1e-6 in high precision, 1e-2 in standard) so
    parameters with negligible gradients compare absolutely.
    """
    if denom_floor is None:
        denom_floor = 1e-6 if net.dtype == np.float64 else 1e-2

    x = tensor.values if isinstance(tensor, RdTensor) else np.asarray(tensor)
    scores, cache = net.forward(x, mode="eval")
    _, dlogits = loss_and_grad(scores, true_class)
    analytic = net.backward(cache, dlogits)

    probe = net if net.dtype == np.float64 else net.with_precision("high")
    params = probe.params()
    universe = []
    for name in sorted(params):
        universe.extend((name, i) for i in range(params[name].size))
    rng = np.random.default_rng(seed)
    chosen_idx = rng.choice(len(universe), size=min(num_params, len(universe)), replace=False)

    x64 = x.astype(np.float64)

    def loss_at():
        s, _ = probe.forward(x64, mode="eval")
        return loss_and_grad(s, true_class)[0]

    worst = 0.0
    for j in chosen_idx:
        name, flat_idx = universe[j]
        arr = params[name].reshape(-1)
        old = arr[flat_idx]
        arr[flat_idx] = old + epsilon
        loss_hi = loss_at()
        arr[flat_idx] = old - epsilon
        loss_lo = loss_at()
        arr[flat_idx] = old
        numeric = (loss_hi - loss_lo) / (2.0 * epsilon)
        a = float(analytic[name].reshape(-1)[flat_idx])
        err = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
        worst = max(worst, err)
    return worst


def save_weights(net: Network, path) -> None:
    """Write all parameters as named float32 records."""
    params = net.params()
    blob = [WEIGHTS_MAGIC, struct.pack("<I", len(params))]
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        encoded = name.encode("utf-8")
        blob.append(struct.pack("<I", len(encoded)))
        blob.append(encoded)
        blob.append(struct.pack("<I", arr.ndim))
        blob.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        blob.append(arr.tobytes())
    Path(path).write_bytes(b"".join(blob))


def read_weight_records(path) -> dict:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise WeightsFormatError("file shorter than the magic")
    if data[:4] != WEIGHTS_MAGIC:
        raise WeightsFormatError(f"bad magic {data[:4]!r}, expected {WEIGHTS_MAGIC!r}")
    view = memoryview(data)

    def take(n, what):
        """The next n bytes; raises instead of reading past the end."""
        nonlocal pos
        if pos + n > len(data):
            raise WeightsFormatError(f"file truncated in {what} at byte {pos}")
        pos += n
        return view[pos - n : pos]

    pos = 4
    (count,) = struct.unpack("<I", take(4, "record count"))
    records = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "name length"))
        name = str(take(name_len, "record name"), "utf-8")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
        payload = take(4 * math.prod(dims), f"values of {name!r}")
        records[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    return records


def load_weights(net: Network, path, *, reinit_fc: bool = False) -> list:
    """Load parameters in place; returns the loaded parameter names.

    With reinit_fc, records of fully connected layers are skipped and those
    layers keep their current (random) initialization, supporting partial
    transfer of the convolutional stack.
    """
    records = read_weight_records(path)
    fc_names = {layer.name for layer in net.layers if layer.kind == "fc"}
    params = net.params()
    loaded, bad = [], []
    for name in sorted(params):
        layer_name = name.split(".")[0]
        if reinit_fc and layer_name in fc_names:
            continue
        rec = records.get(name)
        if rec is None or rec.shape != params[name].shape:
            bad.append(layer_name)
            continue
        params[name][...] = rec.astype(net.dtype)
        loaded.append(name)
    if bad:
        raise WeightShapeError(
            "missing or mismatched weight records for layer(s): "
            + ", ".join(sorted(set(bad)))
        )
    net.bump_version()
    return loaded
