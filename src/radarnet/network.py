"""Convolutional classifier assembled from scratch, plus its training ops.

Two presets share the same layer kinds.  "full" is the eight-layer plan
(five convolutions, three fully connected layers) with max pooling, response
normalization after the first two pools, dropout around the 4096-wide FC
pair and a 6-way softmax.  "mini" is a desk-scale network with the identical
mechanisms for fast experiments.  Weights persist in a .rdw container
("RDW1", named little-endian float32 records).
"""

from __future__ import annotations

import copy
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
    OuterSum,
    ReLU,
    Softmax,
)
from .radar import CLASS_ORDER, VehicleClass
from .spectrogram import RdTensor

WEIGHTS_MAGIC = b"RDW1"

# One row per layer: its class, its name and what the shape chain cannot give, that is
# a conv's out channels, kernel, stride and padding and a hidden fc's units.  The fc row
# without units is the output layer, one unit per class.
PRESETS = {
    "full": (
        (Conv2d, "conv1", 96, 11, 4, 0),
        (ReLU, "relu1"),
        (MaxPool2d, "pool1"),
        (ChannelResponseNorm, "norm1"),
        (Conv2d, "conv2", 256, 5, 1, 2),
        (ReLU, "relu2"),
        (MaxPool2d, "pool2"),
        (ChannelResponseNorm, "norm2"),
        (Conv2d, "conv3", 384, 3, 1, 1),
        (ReLU, "relu3"),
        (Conv2d, "conv4", 384, 3, 1, 1),
        (ReLU, "relu4"),
        (Conv2d, "conv5", 256, 3, 1, 1),
        (ReLU, "relu5"),
        (MaxPool2d, "pool5"),
        (Linear, "fc6", 4096),
        (ReLU, "relu6"),
        (Dropout, "drop6"),
        (Linear, "fc7", 4096),
        (ReLU, "relu7"),
        (Dropout, "drop7"),
        (Linear, "fc8"),
        (Softmax, "softmax"),
    ),
    "mini": (
        (Conv2d, "conv1", 16, 5, 2, 2),
        (ReLU, "relu1"),
        (MaxPool2d, "pool1"),
        (ChannelResponseNorm, "norm1"),
        (Conv2d, "conv2", 32, 3, 1, 1),
        (ReLU, "relu2"),
        (MaxPool2d, "pool2"),
        (Conv2d, "conv3", 32, 3, 1, 1),
        (ReLU, "relu3"),
        (MaxPool2d, "pool3"),
        (Linear, "fc1", 128),
        (ReLU, "relu4"),
        (Dropout, "drop1"),
        (Linear, "fc2"),
        (Softmax, "softmax"),
    ),
}

# the dtype of each precision name; `_dtype` raises ValueError for any other name
PRECISIONS = {"standard": np.float32, "high": np.float64}

# values per sgd_step block: w, g, v and the temporary take 1 MB in float32 (cache-sized);
# every mini-net tensor fits in one block; an OuterSum is cut into whole rows of about this many
SGD_BLOCK = 1 << 16


class WeightsFormatError(ValueError):
    """Malformed .rdw payload."""


class WeightShapeError(WeightsFormatError):
    """Stored record shapes disagree with the network; names the layers."""


class StaleCacheError(RuntimeError):
    """backward() called with a cache from before a parameter update."""


class ConfigError(ValueError):
    """A run-configuration field of the wrong type or out of range."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.0001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 15
    seed: int = 0
    dropout_rate: float = 0.5

    def __post_init__(self):
        for name in ("learning_rate", "momentum", "weight_decay", "epochs", "seed", "dropout_rate"):
            value = getattr(self, name)
            whole = name in ("epochs", "seed")
            if isinstance(value, bool) or not isinstance(value, int if whole else (int, float)):
                raise ConfigError(f"{name} must be {'an integer' if whole else 'a number'}, got {value!r}")
        if not 0 < self.learning_rate < math.inf:   # NaN fails both comparisons
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")


def _dtype(precision: str):
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}, expected one of {sorted(PRECISIONS)}")
    return PRECISIONS[precision]


@dataclass
class ForwardCache:
    entries: list
    version: int


class Network:
    """Ordered layer stack with named parameters and a version counter that
    invalidates forward caches whenever parameters change."""

    def __init__(self, layers, input_shape, precision="standard"):
        self.layers = layers
        self.input_shape = tuple(input_shape)
        self.precision = precision
        self.dtype = _dtype(precision)
        self._version = 0

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

    def forward(self, x, rng=None):
        """Run the stack on a batch [N, C, H, W]; returns the [N, classes]
        probabilities and the cache for backward.  rng None evaluates (dropout is
        the identity); training passes one seed or generator per batch row."""
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ValueError(f"input shape {x.shape} is not a batch of network inputs {self.input_shape}")
        if rng is not None:
            if len(rng) != len(x):
                raise ValueError(f"{len(rng)} dropout seeds for a batch of {len(x)}")
            rng = [np.random.default_rng(r) for r in rng]
        entries = []
        for layer in self.layers:
            x, cache = layer.forward(x, rng=rng)
            entries.append((layer, cache))
        return x, ForwardCache(entries=entries, version=self._version)

    def backward(self, cache: ForwardCache, dlogits):
        """Reverse pass from the [N, classes] logit gradient; returns parameter
        gradients summed over the batch.  A fully connected weight gradient is an
        OuterSum of that layer's output gradient and flat input, which sgd_step
        forms block by block (np.asarray forms it whole); the rest are arrays."""
        if cache.version != self._version:
            raise StaleCacheError("parameters changed since this cache's forward pass")
        grads = {}
        dy = np.asarray(dlogits, dtype=self.dtype)
        (first, first_cache), *rest = cache.entries
        for layer, layer_cache in reversed(rest):
            dy, layer_grads = layer.backward(dy, layer_cache)
            grads.update(layer_grads)
        if first.params:    # nothing reads the network's input gradient
            grads.update(first.backward(dy, first_cache, input_grad=False)[1])
        return grads

    def with_precision(self, precision: str) -> "Network":
        """Structural copy carrying the same parameter values in a new dtype."""
        dtype = _dtype(precision)
        # deepcopy each layer with its parameters pre-mapped to their cast copies
        twins = [copy.deepcopy(layer, {id(a): a.astype(dtype) for a in layer.params.values()})
                 for layer in self.layers]
        return Network(twins, self.input_shape, precision=precision)


def build_network(
    preset: str,
    input_shape,
    seed: int = 0,
    *,
    precision: str = "standard",
    dropout_rate: float = 0.5,
) -> Network:
    """Construct a preset network with seed-deterministic He initialization
    (the output layer uses std sqrt(1/fan_in) since nothing rectifies it).

    Input channels and features come from the running shape; the output fc has
    one unit per class of CLASS_ORDER and every dropout the given rate."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}, expected one of {sorted(PRESETS)}")
    if len(input_shape) != 3 or input_shape[0] != 3:
        raise ValueError(f"input shape must be (3, H, W), got {tuple(input_shape)}")
    dtype = _dtype(precision)
    rng = np.random.default_rng(seed)

    layers = []
    shape = tuple(input_shape)
    for cls, name, *args in PRESETS[preset]:
        if cls is Conv2d:
            layer = Conv2d(name, shape[0], *args, dtype=dtype, rng=rng)
        elif cls is Linear:
            fan_in = math.prod(shape)
            # a row without units is the output layer: it feeds the softmax, not a rectifier
            units, gain = (args[0], 2.0) if args else (len(CLASS_ORDER), 1.0)
            layer = Linear(name, fan_in, units, dtype=dtype, rng=rng, weight_std=np.sqrt(gain / fan_in))
        elif cls is Dropout:
            layer = Dropout(name, rate=dropout_rate)
        else:
            layer = cls(name)
        shape = layer.output_shape(shape)
        layers.append(layer)
    return Network(layers, input_shape, precision=precision)


def loss_and_grad(scores, labels):
    """Mean cross-entropy -ln p_true over a batch (scores [N, K], a sequence of N
    classes) and its gradient w.r.t. the logits, (probs - onehot) / N."""
    scores = np.asarray(scores, dtype=float)
    if len(labels) != len(scores):
        raise ValueError(f"{len(labels)} labels for {len(scores)} rows of scores")
    at = (np.arange(len(labels)), [c.index if isinstance(c, VehicleClass) else int(c) for c in labels])
    loss = float(np.mean(-np.log(np.maximum(scores[at], 1e-12))))
    dlogits = scores.copy()
    dlogits[at] -= 1.0
    return loss, dlogits / len(labels)


def _batch_of_one(tensor):
    """An RdTensor or a [C, H, W] array as a [1, C, H, W] batch."""
    return (tensor.values if isinstance(tensor, RdTensor) else np.asarray(tensor))[None]


def predict(net: Network, tensor):
    """Class decision for one sample (an RdTensor or a [C, H, W] array), run as a
    batch of one with dropout off: the argmax class, ties going to the lowest
    index, and the (classes,) scores."""
    scores = net.forward(_batch_of_one(tensor))[0][0]
    if not np.isfinite(scores).all():
        raise FloatingPointError(f"non-finite class scores {scores}; no class can be picked")
    return VehicleClass(CLASS_ORDER[int(np.argmax(scores))]), scores


def _gradient_blocks(g):
    """(slice of the flattened parameter, that slice of gradient g), covering g in order:
    an OuterSum in blocks of whole rows, formed one at a time, an array in flat blocks
    of SGD_BLOCK values."""
    if isinstance(g, OuterSum):
        width = g.shape[1]
        per_block = max(SGD_BLOCK // width, 1)
        for lo in range(0, g.shape[0], per_block):
            block = g.rows(lo, lo + per_block).reshape(-1)
            yield slice(lo * width, lo * width + block.size), block
    else:
        g = g.reshape(-1)
        for i in range(0, g.size, SGD_BLOCK):
            yield slice(i, i + SGD_BLOCK), g[i : i + SGD_BLOCK]


def _finite(g) -> bool:
    """Whether every value of gradient g is finite.  An OuterSum whose bound sum_n max|dy[n]| *
    max|flat[n]| is below half its dtype's maximum has finite factors and cannot overflow when
    formed; a NaN or inf in a factor makes the bound NaN or inf, and then its blocks are checked."""
    if isinstance(g, OuterSum):
        dy_max, flat_max = (np.abs(f).max(axis=1, initial=0.0).astype(float) for f in (g.dy, g.flat))
        if dy_max @ flat_max < np.finfo(g.dtype).max / 2:
            return True
    return all(np.isfinite(gb).all() for _, gb in _gradient_blocks(g))


def sgd_step(params: dict, grads: dict, velocity: dict, cfg: TrainConfig) -> None:
    """Classical momentum with L2 decay folded into the gradient:
    v <- mu*v - lr*(g + wd*w);  w <- w + v.  Updates params/velocity in place.

    Every gradient is checked finite (_finite) before any parameter changes.  The update
    then walks the flattened C-contiguous arrays block by block (_gradient_blocks), so its
    temporaries are block-sized and an OuterSum's blocks are formed once; a first velocity
    is written as 0*mu - step.  Each value is as the whole-array formula gives it."""
    for name, w in params.items():
        if not _finite(grads[name]):
            raise FloatingPointError(f"non-finite gradient for {name}; aborting training")
        if not w.flags.c_contiguous:
            raise ValueError(f"parameter {name} is not C-contiguous")
    for name, w in params.items():
        first = name not in velocity
        if first:
            velocity[name] = np.empty_like(w)
        w, v = w.reshape(-1), velocity[name].reshape(-1)
        for block, gb in _gradient_blocks(grads[name]):
            wb, vb = w[block], v[block]
            step = wb * cfg.weight_decay
            step += gb
            step *= cfg.learning_rate
            if not first:
                vb *= cfg.momentum
            np.subtract(0.0 if first else vb, step, out=vb)
            wb += vb


def gradient_check(
    net: Network,
    tensor,
    true_class,
    *,
    epsilon: float = 1e-4,
    num_params: int = 200,
    seed: int = 0,
) -> float:
    """Max relative error between backprop and central differences over a
    random sample of parameters for one sample (an RdTensor or a [C, H, W]
    array, run as a batch of one without dropout seeds, so dropout is identity).

    The difference quotient always runs in float64: for a standard-precision
    network the check perturbs a float64 twin carrying the identical
    parameter values, so the measured error is the float32 backprop error
    rather than float32 finite-difference noise.  The relative-error
    denominator is floored (1e-6 in high precision, 1e-2 in standard) so
    parameters with negligible gradients compare absolutely.  Where the two
    perturbed forwards differ in a ReLU mask or a max-pool winner, the step
    crosses a kink, so that parameter is measured again at epsilon / 100, then
    epsilon / 10**4.
    """
    denom_floor = 1e-6 if net.dtype == np.float64 else 1e-2
    x = _batch_of_one(tensor)
    scores, cache = net.forward(x)
    _, dlogits = loss_and_grad(scores, [true_class])
    analytic = net.backward(cache, dlogits)

    probe = net if net.dtype == np.float64 else net.with_precision("high")
    params = probe.params()
    # draw j is value j - offsets[k] of parameter names[k], where offsets[k] <= j < offsets[k + 1]
    names = sorted(params)
    offsets = np.cumsum([0] + [params[name].size for name in names])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    chosen_idx = rng.choice(total, size=min(num_params, total), replace=False)

    x64 = x.astype(np.float64)

    def loss_at():
        """The loss, the ReLU masks and, per max-pool window offset, where the maxima lie."""
        s, cache = probe.forward(x64)
        switches = [c for layer, c in cache.entries if isinstance(layer, ReLU)]
        switches += [c[0][win] == c[1] for layer, c in cache.entries if isinstance(layer, MaxPool2d)
                     for win in layer._windows(c[0].shape)]
        return loss_and_grad(s, [true_class])[0], switches

    worst = 0.0
    for j in chosen_idx:
        k = int(np.searchsorted(offsets, j, side="right")) - 1
        name, flat_idx = names[k], int(j - offsets[k])
        arr = params[name].reshape(-1)
        old = arr[flat_idx]
        for step in (epsilon, epsilon * 1e-2, epsilon * 1e-4):
            arr[flat_idx] = old + step
            loss_hi, switches_hi = loss_at()
            arr[flat_idx] = old - step
            loss_lo, switches_lo = loss_at()
            if all(np.array_equal(a, b) for a, b in zip(switches_hi, switches_lo)):
                break
        arr[flat_idx] = old
        numeric = (loss_hi - loss_lo) / (2.0 * step)
        g = analytic[name]
        if isinstance(g, OuterSum):     # form the one row that holds the value
            row, col = divmod(flat_idx, g.shape[1])
            a = float(g.rows(row, row + 1)[0, col])
        else:
            a = float(g.reshape(-1)[flat_idx])
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
        raw_name = take(name_len, "record name")
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError:
            raise WeightsFormatError(f"record name ending at byte {pos} is not UTF-8") from None
        if name in records:
            raise WeightsFormatError(f"duplicate record {name!r}")
        (rank,) = struct.unpack("<I", take(4, f"rank of {name!r}"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, f"shape of {name!r}"))
        payload = take(4 * math.prod(dims), f"values of {name!r}")
        records[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if pos != len(data):
        raise WeightsFormatError(f"{len(data) - pos} trailing bytes after the last record")
    return records


def load_weights(net: Network, path, *, reinit_fc: bool = False) -> list:
    """Load parameters in place; returns the loaded parameter names.

    With reinit_fc, records of fully connected layers are skipped and those
    layers keep their current (random) initialization, supporting partial
    transfer of the convolutional stack.  A record that names no parameter of
    the network raises WeightShapeError before anything is loaded.
    """
    records = read_weight_records(path)
    fc_names = {layer.name for layer in net.layers if layer.kind == "fc"}
    params = net.params()
    extra = sorted(set(records) - set(params))
    if extra:
        raise WeightShapeError("weight records matching no parameter: " + ", ".join(extra))
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
