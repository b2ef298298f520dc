"""Network building blocks with explicit forward and backward passes.

Every layer works on a batch: feature maps are [N, channels, height, width],
fully connected activations are [N, features], and row n of the output
depends on row n of the input alone.  forward returns the output plus an
opaque cache; backward consumes that cache and returns the input gradient
and the parameter gradients, summed over the batch.  The parametric layers'
backward takes input_grad=False to skip the input gradient (returned as None).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Conv2d:
    """2-D convolution (cross-correlation) via an im2col matrix product."""

    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel, stride, padding,
                 dtype=np.float32, rng=None, weight_std=None):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        if weight_std is None:
            weight_std = np.sqrt(2.0 / fan_in)
        rng = rng if rng is not None else np.random.default_rng()
        self.W = rng.normal(0.0, weight_std, (out_channels, in_channels, kernel, kernel)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)

    @property
    def params(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def output_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(
                f"layer {self.name}: expects {self.in_channels} input channels, chain gives {c}"
            )
        oh = (h + 2 * self.padding - self.kernel) // self.stride + 1
        ow = (w + 2 * self.padding - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"layer {self.name}: input {in_shape} too small for kernel/stride")
        return (self.out_channels, oh, ow)

    def forward(self, x, train=False, rng=None):
        k, s, p = self.kernel, self.stride, self.padding
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]   # [N, C, OH, OW, k, k]
        n, _, oh, ow = win.shape[:4]
        # channel-major columns (c, kh, kw) x (n, ow, oh): the output keeps height fastest
        # in memory, so the ops downstream run along the long axis of these tall maps
        cols = win.transpose(1, 4, 5, 0, 3, 2).reshape(self.in_channels * k * k, n * ow * oh)
        y = self.W.reshape(self.out_channels, -1) @ cols + self.b[:, None]
        return y.reshape(self.out_channels, n, ow, oh).transpose(1, 0, 3, 2), (cols, x.shape)

    def backward(self, dy, cache, input_grad=True):
        cols, (n, c, hp, wp) = cache
        k, s, p = self.kernel, self.stride, self.padding
        _, _, oh, ow = dy.shape
        dy_mat = dy.transpose(1, 0, 3, 2).reshape(self.out_channels, -1)
        grads = {f"{self.name}.W": (dy_mat @ cols.T).reshape(self.W.shape),
                 f"{self.name}.b": dy_mat.sum(axis=1)}
        if not input_grad:
            return None, grads
        dcols = (self.W.reshape(self.out_channels, -1).T @ dy_mat).reshape(c, k, k, n, ow, oh)
        dx_pad = np.zeros((c, n, wp, hp), dtype=dy.dtype)
        for kh in range(k):
            for kw in range(k):
                dx_pad[:, :, kw : kw + s * ow : s, kh : kh + s * oh : s] += dcols[:, kh, kw]
        return dx_pad[:, :, p : wp - p, p : hp - p].transpose(1, 0, 3, 2), grads


class MaxPool2d:
    """Overlapping max pooling; the backward pass routes each output gradient
    to the single argmax input position (the first in window order on ties)."""

    kind = "maxpool"

    def __init__(self, name, kernel=3, stride=2):
        self.name = name
        self.kernel = kernel
        self.stride = stride

    @property
    def params(self):
        return {}

    def output_shape(self, in_shape):
        c, h, w = in_shape
        oh = (h - self.kernel) // self.stride + 1
        ow = (w - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"layer {self.name}: input {in_shape} too small to pool")
        return (c, oh, ow)

    def _windows(self, shape):
        """The k*k strided slices, in window order, that cover every window."""
        k, s = self.kernel, self.stride
        oh, ow = self.output_shape(shape[1:])[1:]
        return [(..., slice(kh, kh + s * (oh - 1) + 1, s), slice(kw, kw + s * (ow - 1) + 1, s))
                for kh in range(k) for kw in range(k)]

    def forward(self, x, train=False, rng=None):
        windows = self._windows(x.shape)
        y = x[windows[0]].copy(order="K")     # keep the input's memory order
        for win in windows[1:]:
            np.maximum(y, x[win], out=y)
        return y, (x, y)

    def backward(self, dy, cache):
        x, y = cache
        dx = np.zeros_like(x, dtype=dy.dtype)
        pending = np.ones_like(y, dtype=bool)    # windows whose first maximum is not yet seen
        for win in self._windows(x.shape):
            first = (x[win] == y) & pending
            pending ^= first
            dx[win] += dy * first
        return dx, {}


def _box_sum_channels(x, radius):
    """Sum over a clamped window of +-radius positions along the channel axis."""
    cs = np.cumsum(x, axis=1)
    c = x.shape[1]
    hi = np.minimum(np.arange(c) + radius, c - 1)
    lo = np.arange(c) - radius - 1
    out = cs[:, hi]
    valid = lo >= 0
    out[:, valid] -= cs[:, lo[valid]]
    return out


class ChannelResponseNorm:
    """Across-channel response normalization:
    y_c = x_c / (k + alpha * sum_{|j-c| <= n/2} x_j^2)^beta."""

    kind = "response_norm"

    def __init__(self, name, k=2.0, n=5, alpha=1e-4, beta=0.75):
        self.name = name
        self.k = k
        self.n = n
        self.alpha = alpha
        self.beta = beta

    @property
    def params(self):
        return {}

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        ssum = _box_sum_channels(x * x, self.n // 2)
        scale = (self.k + self.alpha * ssum).astype(x.dtype)
        y = x * scale ** (-self.beta)
        return y, (x, scale)

    def backward(self, dy, cache):
        x, scale = cache
        pow_term = scale ** (-self.beta)
        inner = _box_sum_channels(dy * x * scale ** (-self.beta - 1.0), self.n // 2)
        dx = dy * pow_term - 2.0 * self.alpha * self.beta * x * inner
        return dx.astype(dy.dtype), {}


class ReLU:
    kind = "relu"

    def __init__(self, name):
        self.name = name

    @property
    def params(self):
        return {}

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        mask = x > 0
        return x * mask, mask

    def backward(self, dy, cache):
        return dy * cache, {}


class Dropout:
    """Inverted dropout: retained units are scaled by 1/(1-rate) at train
    time, evaluation is the identity."""

    kind = "dropout"

    def __init__(self, name, rate=0.5):
        self.name = name
        self.rate = rate

    @property
    def params(self):
        return {}

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        if not train or self.rate <= 0.0:
            return x, None
        if rng is None:
            raise ValueError(f"layer {self.name}: train-mode dropout needs an rng")
        keep = 1.0 - self.rate
        if isinstance(rng, np.random.Generator):     # else one generator per row
            u = rng.random(x.shape)
        else:
            u = np.stack([g.random(x.shape[1:]) for g in rng])
        mask = (u < keep).astype(x.dtype) / np.asarray(keep, dtype=x.dtype)
        return x * mask, mask

    def backward(self, dy, cache):
        if cache is None:
            return dy, {}
        return dy * cache, {}


class Linear:
    """Fully connected layer; flattens each row of a feature-map input."""

    kind = "fc"

    def __init__(self, name, in_features, out_features, dtype=np.float32, rng=None, weight_std=None):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        if weight_std is None:
            weight_std = np.sqrt(2.0 / in_features)
        rng = rng if rng is not None else np.random.default_rng()
        self.W = rng.normal(0.0, weight_std, (out_features, in_features)).astype(dtype)
        self.b = np.zeros(out_features, dtype=dtype)

    @property
    def params(self):
        return {f"{self.name}.W": self.W, f"{self.name}.b": self.b}

    def output_shape(self, in_shape):
        flat = int(np.prod(in_shape))
        if flat != self.in_features:
            raise ValueError(
                f"layer {self.name}: expects {self.in_features} inputs, chain gives {flat}"
            )
        return (self.out_features,)

    def forward(self, x, train=False, rng=None):
        flat = x.reshape(len(x), -1)
        return flat @ self.W.T + self.b, (flat, x.shape)

    def backward(self, dy, cache, input_grad=True):
        flat, x_shape = cache
        grads = {f"{self.name}.W": dy.T @ flat, f"{self.name}.b": dy.sum(axis=0)}
        return ((dy @ self.W).reshape(x_shape) if input_grad else None), grads


class Softmax:
    """Shift-invariant softmax over the class scores.

    The backward pass expects the gradient already taken with respect to the
    logits (cross-entropy supplies probs - onehot), so it passes through.
    """

    kind = "softmax"

    def __init__(self, name):
        self.name = name

    @property
    def params(self):
        return {}

    def output_shape(self, in_shape):
        return in_shape

    def forward(self, x, train=False, rng=None):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True), None

    def backward(self, dlogits, cache):
        return dlogits, {}
