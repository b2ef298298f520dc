"""Convolutional classifier assembled from scratch, plus its training ops.

Two presets share the same layer kinds.  "full" is the eight-layer plan
(five convolutions, three fully connected layers) with max pooling, response
normalization after the first two pools, dropout around the 4096-wide FC
pair and a 6-way output layer.  "mini" is a desk-scale network with the
identical mechanisms for fast experiments.  Both end at the output layer's
logits; softmax turns them into class probabilities, for loss_and_grad and
predict alike.  Weights persist as .rdw files through dataset.save_weights
and dataset.load_weights: dataset holds every binary format of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import (
    ChannelResponseNorm,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    OuterSum,
    ReLU,
)
from .radar import CLASS_ORDER, VehicleClass

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
    ),
}

# the dtype of each precision name; `_dtype` raises ValueError for any other name
PRECISIONS = {"standard": np.float32, "high": np.float64}

# values per sgd_step block: w, g, v and the temporary take 1 MB in float32 (cache-sized);
# every mini-net tensor fits in one block; an OuterSum is cut into whole rows of about this many
SGD_BLOCK = 1 << 16


class StaleCacheError(RuntimeError):
    """backward() called with a cache from before a parameter update."""


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

    def forward(self, x, rng=None):
        """Run the stack on a batch [N, C, H, W]; returns the [N, classes]
        logits and the cache for backward.  rng None evaluates (dropout is
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
            # a row without units is the output layer: its logits meet the softmax, not a rectifier
            units, gain = (args[0], 2.0) if args else (len(CLASS_ORDER), 1.0)
            layer = Linear(name, fan_in, units, dtype=dtype, rng=rng, weight_std=np.sqrt(gain / fan_in))
        elif cls is Dropout:
            layer = Dropout(name, rate=dropout_rate)
        else:
            layer = cls(name)
        shape = layer.output_shape(shape)
        layers.append(layer)
    return Network(layers, input_shape, precision=precision)


def softmax(logits):
    """Class probabilities of [..., classes] logits, computed in their dtype; shifting a
    row by a constant leaves its probabilities unchanged."""
    x = np.asarray(logits)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def loss_and_grad(logits, labels):
    """Mean cross-entropy -ln p_true over a batch ([N, K] logits, N class indices), with
    p = softmax(logits) in float64, and its gradient w.r.t. the logits, (p - onehot) / N."""
    probs = np.asarray(softmax(logits), dtype=float)
    if len(labels) != len(probs):
        raise ValueError(f"{len(labels)} labels for {len(probs)} rows of logits")
    for c in labels:
        if not 0 <= c < probs.shape[1]:
            raise ValueError(f"class index {c} is outside 0..{probs.shape[1] - 1}")
    at = (np.arange(len(labels)), labels)
    loss = float(np.mean(-np.log(np.maximum(probs[at], 1e-12))))
    probs[at] -= 1.0
    return loss, probs / len(labels)


def predict(net: Network, tensor):
    """Class decision for one sample (an RdTensor or a [C, H, W] array), run as a
    batch of one with dropout off: the argmax class, ties going to the lowest
    index, and the (classes,) softmax scores."""
    scores = softmax(net.forward(np.asarray(tensor)[None])[0])[0]
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
    return bool(np.isfinite(g).all())     # in place: an array may be a view that reshape(-1) would copy


def sgd_step(params: dict, grads: dict, velocity: dict, cfg) -> None:
    """Classical momentum with L2 decay folded into the gradient, at cfg's rates (a TrainConfig):
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
