"""Network building blocks with explicit forward and backward passes.

Every layer works on a batch: feature maps are [N, channels, height, width],
fully connected activations are [N, features], and row n of the output
depends on row n of the input alone.  forward returns the output plus an
opaque cache; backward consumes that cache and returns the input gradient
and the parameter gradients, summed over the batch.  A cache holds what backward
cannot rebuild cheaply: a convolution with COLUMNS_CACHED_BELOW or more output
channels keeps its padded input and gathers its im2col columns again, a
narrower one keeps the columns.  A fully connected weight gradient stays as its
batch factors, an OuterSum, and is never formed whole; every other gradient is
an array.  The parametric layers' backward takes
input_grad=False to skip the input gradient (returned as None).
forward's rng is None in evaluation; in training it holds one generator per
row, and only Dropout reads it.  No layer makes class probabilities: a
network ends at its output Linear's logits, and network.softmax makes the
probabilities from them.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .cores import run_on_cores

# float64 values drawn per chunk of the He init (8 MB of scratch per thread)
INIT_CHUNK = 1 << 20

# A conv with fewer output channels caches its im2col columns for backward; a wider one
# caches its padded input, about k*k/s^2 times smaller, and gathers the columns again.
# The weight-gradient product does 2 * out_channels flops per column value and the gather
# one copy, so the gather is a small share of a wide layer's backward and a large one of
# a narrow layer's: the five full-preset convs cache 100 MB less at batch 6 for 10-35 ms
# more of their 165 ms backward, while gathering again in the mini convs cost about 1 ms
# per batch of 6.
COLUMNS_CACHED_BELOW = 64


def normal_init(rng, std, shape, dtype):
    """Normal(0, std) values drawn in float64 chunks of INIT_CHUNK straight into the
    result, one thread per usable core.  Chunk 0 comes from rng, so up to one chunk
    equals rng.normal(0.0, std, shape).astype(dtype) and leaves rng where that draw does;
    chunk j >= 1 comes from child j - 1 of rng.spawn(n_chunks - 1), which does not
    advance rng.  The values do not depend on the number of cores."""
    w = np.empty(shape, dtype=dtype)
    flat = w.reshape(-1)
    n_chunks = max(-(-flat.size // INIT_CHUNK), 1)
    generators = [rng, *rng.spawn(n_chunks - 1)]

    def draw(j):
        part = flat[j * INIT_CHUNK : (j + 1) * INIT_CHUNK]
        z = generators[j].standard_normal(part.size)
        z *= std
        # rng.normal computes loc + scale*z, which turns a -0.0 draw into +0.0
        np.add(0.0, z, out=part, casting="unsafe")

    run_on_cores(n_chunks, draw)
    return w


class Conv2d:
    """2-D convolution (cross-correlation) via an im2col matrix product.

    Forward copies the input once into a zeroed buffer, padded or not, in the input's
    own memory order; the windows are then a read-only strided view of that buffer,
    gathered into the columns.  The cache holds the columns when the layer has fewer
    than COLUMNS_CACHED_BELOW output channels and the padded buffer otherwise, from
    which backward gathers the same columns for the weight gradient.  Either way the
    cache never aliases the caller's batch."""

    kind = "conv"

    def __init__(self, name, in_channels, out_channels, kernel, stride, padding, *,
                 rng, dtype=np.float32):
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.caches_columns = out_channels < COLUMNS_CACHED_BELOW
        weight_std = np.sqrt(2.0 / (in_channels * kernel * kernel))
        self.W = normal_init(rng, weight_std, (out_channels, in_channels, kernel, kernel), dtype)
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

    def _columns(self, xp):
        """The im2col columns of padded batch xp, channel-major (c, kh, kw) x (n, ow, oh):
        the output keeps height fastest in memory, so the ops downstream run along the
        long axis of these tall maps."""
        k, s = self.kernel, self.stride
        n, c, h, w = xp.shape
        oh, ow = (h - k) // s + 1, (w - k) // s + 1
        sn, sc, sh, sw = xp.strides
        win = as_strided(xp, (n, c, oh, ow, k, k), (sn, sc, s * sh, s * sw, sh, sw),
                         writeable=False)                                     # [N, C, OH, OW, k, k]
        return win.transpose(1, 4, 5, 0, 3, 2).reshape(c * k * k, n * ow * oh)

    def forward(self, x, rng=None):
        p = self.padding
        n, c, h, w = x.shape
        xp = np.zeros_like(x, shape=(n, c, h + 2 * p, w + 2 * p))
        xp[:, :, p : p + h, p : p + w] = x
        cols = self._columns(xp)
        y = self.W.reshape(self.out_channels, -1) @ cols
        y += self.b[:, None]
        _, oh, ow = self.output_shape(x.shape[1:])
        return y.reshape(self.out_channels, n, ow, oh).transpose(1, 0, 3, 2), (
            cols if self.caches_columns else xp, xp.shape)

    def backward(self, dy, cache, input_grad=True):
        kept, (n, c, hp, wp) = cache
        k, s, p = self.kernel, self.stride, self.padding
        _, _, oh, ow = dy.shape
        dy_mat = dy.transpose(1, 0, 3, 2).reshape(self.out_channels, -1)
        cols = kept if self.caches_columns else self._columns(kept)
        # cols @ dy_mat.T walks both operands along their contiguous rows, the orientation
        # BLAS runs fastest for this short-and-wide product; the values are the same
        grads = {f"{self.name}.W": (cols @ dy_mat.T).T.reshape(self.W.shape),
                 f"{self.name}.b": dy_mat.sum(axis=1)}
        del cols    # a rebuilt copy goes before dcols, which is as large
        if not input_grad:
            return None, grads
        dcols = (self.W.reshape(self.out_channels, -1).T @ dy_mat).reshape(c, k, k, n, ow, oh)
        dx_pad = np.zeros((c, n, wp, hp), dtype=dy.dtype)
        for kh in range(k):
            for kw in range(k):
                dx_pad[:, :, kw : kw + s * ow : s, kh : kh + s * oh : s] += dcols[:, kh, kw]
        return dx_pad[:, :, p : wp - p, p : hp - p].transpose(1, 0, 3, 2), grads


class ParamFree:
    """A layer without parameters whose output, unless it says otherwise, has its
    input's shape."""

    def __init__(self, name):
        self.name = name

    @property
    def params(self):
        return {}

    def output_shape(self, in_shape):
        return in_shape


class MaxPool2d(ParamFree):
    """Overlapping max pooling; the backward pass routes each output gradient
    to the single argmax input position (the first in window order on ties).

    Forward is separable: a running maximum over the k taps along the width, then
    over the k taps of that along the height, each pass in x's memory order; a
    maximum is exact, so y is that of each k*k window.  Backward copies x
    into its s*s stride-parity planes, flat [C, N, W, H] images padded to
    (ow + r) x (oh + r), so each window is one contiguous flat shift of a plane
    against y and dy padded alike.  Windows run in window order, so every input
    cell sums its gradients in that order; the planes are interleaved into dx once."""

    kind = "maxpool"

    def __init__(self, name, kernel=3, stride=2):
        super().__init__(name)
        self.kernel = kernel
        self.stride = stride

    def output_shape(self, in_shape):
        c, h, w = in_shape
        oh = (h - self.kernel) // self.stride + 1
        ow = (w - self.kernel) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"layer {self.name}: input {in_shape} too small to pool")
        return (c, oh, ow)

    def forward(self, x, rng=None):
        k, s = self.kernel, self.stride
        oh, ow = self.output_shape(x.shape[1:])[1:]
        rows = x[..., : s * (oh - 1) + k, :]
        t = rows[..., : s * (ow - 1) + 1 : s].copy(order="K")     # keep the input's memory order
        for kw in range(1, k):
            np.maximum(t, rows[..., kw : kw + s * (ow - 1) + 1 : s], out=t)
        y = t[..., : s * (oh - 1) + 1 : s, :].copy(order="K")
        for kh in range(1, k):
            np.maximum(y, t[..., kh : kh + s * (oh - 1) + 1 : s, :], out=y)
        return y, (x, y)

    def backward(self, dy, cache):
        x, y = cache
        k, s = self.kernel, self.stride
        n, c, oh, ow = y.shape
        r = (k - 1) // s                      # the farthest plane shift of a window
        shape = (c, n, ow + r, oh + r)        # a plane, or y and dy padded like one
        length = c * n * (ow + r) * (oh + r) - r * (oh + r) - r

        def flat(a, fill):                    # [N, C, H, W] into `shape`, height fastest
            out = np.full(shape, fill, dtype=a.dtype)
            out[:, :, : a.shape[3], : a.shape[2]] = a.transpose(1, 0, 3, 2)
            return out.reshape(-1)

        # the pad is NaN in y and 0 in dy, so it routes nothing
        y_p, dy_p = flat(y, np.nan)[:length], flat(dy, 0)[:length]
        planes, dplanes = {}, {}
        for p, q in np.ndindex(min(k, s), min(k, s)):     # plane (p, q) holds x[..., p::s, q::s]
            planes[p, q] = flat(x[:, :, p::s, q::s][:, :, : oh + r, : ow + r], 0)
            dplanes[p, q] = np.zeros(planes[p, q].size, dtype=dy.dtype)
        pending = np.ones(length, dtype=bool)     # windows whose first maximum is not yet seen
        for kh, kw in np.ndindex(k, k):
            (a, p), (b, q) = divmod(kh, s), divmod(kw, s)
            win = slice(b * (oh + r) + a, b * (oh + r) + a + length)
            first = (planes[p, q][win] == y_p) & pending
            pending ^= first
            dplanes[p, q][win] += dy_p * first
        dx = np.zeros_like(x, dtype=dy.dtype)
        for (p, q), d in dplanes.items():
            part = dx[:, :, p::s, q::s][:, :, : oh + r, : ow + r]
            part[...] = d.reshape(shape).transpose(1, 0, 3, 2)[:, :, : part.shape[2], : part.shape[3]]
        return dx, {}


def _box_sum_channels(x, radius):
    """Sum over a clamped window of +-radius positions along the channel axis.

    The running sum is built one channel slab at a time, the same float sequence as
    np.cumsum; each window is then the difference of two slices of it."""
    c = x.shape[1]
    cs = np.empty_like(x)
    cs[:, 0] = x[:, 0]
    for i in range(1, c):
        np.add(cs[:, i - 1], x[:, i], out=cs[:, i])
    out = np.empty_like(cs)
    out[:, : max(c - radius, 0)] = cs[:, radius:]
    out[:, max(c - radius, 0) :] = cs[:, c - 1 :]
    lo = max(c - radius - 1, 0)
    out[:, c - lo :] -= cs[:, :lo]
    return out


class ChannelResponseNorm(ParamFree):
    """Across-channel response normalization:
    y_c = x_c / (k + alpha * sum_{|j-c| <= n/2} x_j^2)^beta."""

    kind = "response_norm"

    def __init__(self, name, k=2.0, n=5, alpha=1e-4, beta=0.75):
        super().__init__(name)
        self.k = k
        self.n = n
        self.alpha = alpha
        self.beta = beta

    def forward(self, x, rng=None):
        ssum = _box_sum_channels(x * x, self.n // 2)
        scale = (self.k + self.alpha * ssum).astype(x.dtype)
        pow_term = scale ** (-self.beta)
        return x * pow_term, (x, scale, pow_term)

    def backward(self, dy, cache):
        x, scale, pow_term = cache
        inner = _box_sum_channels(dy * x * scale ** (-self.beta - 1.0), self.n // 2)
        dx = dy * pow_term - 2.0 * self.alpha * self.beta * x * inner
        return dx.astype(dy.dtype), {}


class ReLU(ParamFree):
    kind = "relu"

    def forward(self, x, rng=None):
        mask = x > 0
        return x * mask, mask

    def backward(self, dy, cache):
        return dy * cache, {}


class Dropout(ParamFree):
    """Inverted dropout: in training, row j keeps each unit with probability
    1-rate, drawn from generator rng[j], and scales it by 1/(1-rate); with
    rng None (evaluation) it is the identity."""

    kind = "dropout"

    def __init__(self, name, rate=0.5):
        super().__init__(name)
        self.rate = rate

    def forward(self, x, rng=None):
        if rng is None or self.rate <= 0.0:
            return x, None
        keep = 1.0 - self.rate
        u = np.stack([g.random(x.shape[1:]) for g in rng])
        mask = (u < keep).astype(x.dtype) / np.asarray(keep, dtype=x.dtype)
        return x * mask, mask

    def backward(self, dy, cache):
        if cache is None:
            return dy, {}
        return dy * cache, {}


class OuterSum:
    """The weight gradient dy.T @ flat of a fully connected layer, kept as its
    factors: dy is [N, out] and flat is [N, in], held, not copied.  At batch N it
    is a sum of N outer products, so N * (out + in) values stand for out * in.

    rows(lo, hi) forms rows lo:hi of the matrix, each value as the whole product
    gives it; np.asarray gives the whole [out, in] matrix."""

    def __init__(self, dy, flat):
        self.dy = dy
        self.flat = flat
        self.shape = (dy.shape[1], flat.shape[1])
        self.size = self.shape[0] * self.shape[1]
        self.dtype = np.result_type(dy, flat)

    def rows(self, lo, hi):
        return self.dy[:, lo:hi].T @ self.flat

    def __array__(self, dtype=None, copy=None):
        full = self.rows(0, self.shape[0])
        return full if dtype is None else full.astype(dtype, copy=False)


class Linear:
    """Fully connected layer; flattens each row of a feature-map input.  Its
    weight gradient is an OuterSum of the output gradient and the flat input."""

    kind = "fc"

    def __init__(self, name, in_features, out_features, *, rng, dtype=np.float32, weight_std=None):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        if weight_std is None:
            weight_std = np.sqrt(2.0 / in_features)
        self.W = normal_init(rng, weight_std, (out_features, in_features), dtype)
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

    def forward(self, x, rng=None):
        flat = x.reshape(len(x), -1)
        return flat @ self.W.T + self.b, (flat, x.shape)

    def backward(self, dy, cache, input_grad=True):
        flat, x_shape = cache
        grads = {f"{self.name}.W": OuterSum(dy, flat), f"{self.name}.b": dy.sum(axis=0)}
        return ((dy @ self.W).reshape(x_shape) if input_grad else None), grads
