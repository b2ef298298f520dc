"""Layer mechanics, presets, training step algebra and weight persistence."""

import hashlib
import os
import sys

import numpy as np
import pytest

from radarnet.layers import (
    COLUMNS_CACHED_BELOW,
    INIT_CHUNK,
    ChannelResponseNorm,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    OuterSum,
    _box_sum_channels,
    normal_init,
)
from radarnet.network import (
    SGD_BLOCK,
    ConfigError,
    Network,
    StaleCacheError,
    TrainConfig,
    WeightShapeError,
    WeightsFormatError,
    build_network,
    gradient_check,
    load_weights,
    loss_and_grad,
    predict,
    read_weight_records,
    save_weights,
    sgd_step,
    softmax,
)
from radarnet.radar import VehicleClass

from _oracles import (
    cumsum_box_sum_channels,
    im2col_weight_grad,
    naive_conv2d,
    naive_conv2d_weight_grad,
    naive_maxpool_backward,
    naive_response_norm,
    two_step_loss_and_grad,
)

MINI_SHAPE = (3, 257, 32)


def _mini(seed=0, precision="standard"):
    return build_network("mini", MINI_SHAPE, seed=seed, precision=precision)


def _x32(seed=0, shape=MINI_SHAPE):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)


def _arrays(cache):
    """Every array a layer cache holds, however its tuples nest."""
    if isinstance(cache, np.ndarray):
        yield cache
    elif isinstance(cache, tuple):
        for part in cache:
            yield from _arrays(part)


class TestBuildNetwork:
    def test_full_preset_shape_chain(self):
        net = build_network("full", (3, 227, 227), seed=0)
        chain = dict(net.shape_chain())
        assert chain["conv1"] == (96, 55, 55)
        assert chain["pool1"] == (96, 27, 27)
        assert chain["conv2"] == (256, 27, 27)
        assert chain["pool2"] == (256, 13, 13)
        assert chain["conv3"] == (384, 13, 13)
        assert chain["conv4"] == (384, 13, 13)
        assert chain["conv5"] == (256, 13, 13)
        assert chain["pool5"] == (256, 6, 6)
        assert chain["fc6"] == (4096,)
        assert chain["fc7"] == (4096,)
        assert chain["fc8"] == (6,)

    def test_full_preset_kernel_counts(self):
        net = build_network("full", (3, 227, 227), seed=0)
        counts = [net.layer_named(f"conv{i}").out_channels for i in range(1, 6)]
        assert counts == [96, 256, 384, 384, 256]
        assert net.layer_named("fc6").in_features == 9216

    def test_mini_preset_output(self):
        net = _mini()
        logits, _ = net.forward(_x32()[None])
        assert logits.shape == (1, 6)

    def test_bad_preset_and_shapes(self):
        with pytest.raises(ValueError):
            build_network("huge", MINI_SHAPE)
        with pytest.raises(ValueError):
            build_network("mini", (1, 257, 32))
        with pytest.raises(ValueError, match="conv1"):
            build_network("full", (3, 8, 8))  # too small for the stride chain

    def test_seed_determinism(self):
        a, b = _mini(seed=4), _mini(seed=4)
        for name, arr in a.params().items():
            np.testing.assert_array_equal(arr, b.params()[name])
        c = _mini(seed=5)
        assert any(
            not np.array_equal(arr, c.params()[name]) for name, arr in a.params().items()
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(3, 5), (INIT_CHUNK // 4, 4)], ids=["small", "one-whole-chunk"])
    def test_init_of_one_chunk_equals_one_normal_draw(self, dtype, shape):
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        w = normal_init(a, 0.02, shape, dtype)
        expected = b.normal(0.0, 0.02, shape).astype(dtype)
        assert w.dtype == dtype and w.shape == shape
        assert w.tobytes() == expected.tobytes()
        assert a.random() == b.random()      # the generator ends in the same state

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_of_many_chunks_equals_serial_reference(self, dtype, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        shape = (5, INIT_CHUNK // 2)         # two whole chunks and a half
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        w = normal_init(a, 0.02, shape, dtype)
        parts = [b.normal(0.0, 0.02, INIT_CHUNK)]
        children = b.spawn(2)
        parts += [children[0].normal(0.0, 0.02, INIT_CHUNK), children[1].normal(0.0, 0.02, INIT_CHUNK // 2)]
        expected = np.concatenate(parts).astype(dtype).reshape(shape)
        assert w.dtype == dtype and w.tobytes() == expected.tobytes()
        assert a.random() == b.random()      # spawning does not advance the parent stream

    def test_full_preset_bytes_do_not_depend_on_the_core_count(self, monkeypatch):
        digests = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2, 8):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
                net = build_network("full", (3, 227, 227), seed=3)
                digest = hashlib.sha256()
                for name, arr in sorted(net.params().items()):
                    digest.update(arr.tobytes())
                digests[cores] = digest.hexdigest()
                del net
        finally:
            sys.setswitchinterval(interval)
        assert digests[1] == digests[2] == digests[8]


class TestWithPrecision:
    def test_twin_carries_cast_parameters(self):
        net = _mini(seed=2)
        twin = net.with_precision("high")
        assert twin.dtype == np.float64
        for name, arr in net.params().items():
            assert twin.params()[name].dtype == np.float64
            np.testing.assert_array_equal(twin.params()[name], arr.astype(np.float64))

    def test_mutating_twin_leaves_source_untouched(self):
        net = _mini(seed=2)
        before = net.snapshot()
        for precision in ("high", "standard"):
            for arr in net.with_precision(precision).params().values():
                arr += 1.0
        for name, arr in net.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_structure_and_hyperparameters_kept(self):
        net = _mini(seed=2, precision="high")
        twin = net.with_precision("standard")
        assert twin.input_shape == net.input_shape
        assert twin.shape_chain() == net.shape_chain()
        for layer, cast in zip(net.layers, twin.layers, strict=True):
            assert type(cast) is type(layer) and cast is not layer
            assert (cast.name, cast.kind) == (layer.name, layer.kind)
            settings = {k: v for k, v in vars(layer).items() if not isinstance(v, np.ndarray)}
            assert settings == {k: v for k, v in vars(cast).items() if not isinstance(v, np.ndarray)}

    def test_unknown_precision_rejected_everywhere(self):
        net = _mini()
        for make in (lambda: net.with_precision("hgh"),
                     lambda: _mini(precision="hgh"),
                     lambda: Network(net.layers, MINI_SHAPE, precision="hgh")):
            with pytest.raises(ValueError, match="'hgh'"):
                make()


class TestForward:
    def test_probabilities(self):
        # forward ends at the output layer's logits; softmax makes them probabilities
        net = _mini()
        for seed in range(5):
            x = _x32(seed)[None]
            logits, cache = net.forward(x)
            layer, fc2_cache = cache.entries[-1]
            assert layer.name == "fc2"
            np.testing.assert_array_equal(logits, layer.forward(fc2_cache[0])[0])
            probs = softmax(logits)
            assert probs.dtype == np.float32
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)
            assert np.all(probs > 0.0)

    def test_shift_invariance_of_softmax(self):
        logits = np.array([[1.0, -2.0, 0.5, 3.0, 0.0, -1.0], [0.0, 0.0, 1e3, 0.0, -1e3, 2.0]])
        a = softmax(logits)
        np.testing.assert_allclose(a, softmax(logits + 123.456), atol=1e-6)
        np.testing.assert_allclose(a, softmax(logits - [[5.0], [-7.0]]), atol=1e-6)
        np.testing.assert_array_equal(a[1], softmax(logits[1]))

    def test_identity_conv(self):
        conv = Conv2d("c", 1, 1, 1, 1, 0, rng=np.random.default_rng(0))
        conv.W[...] = 1.0
        conv.b[...] = 0.0
        x = np.random.default_rng(1).normal(size=(1, 5, 7)).astype(np.float32)
        y, _ = conv.forward(x[None])
        np.testing.assert_allclose(y[0], x, rtol=1e-6)

    @pytest.mark.parametrize("kernel, stride, padding, h, w", [
        (5, 2, 2, 13, 10),      # conv1 of the mini preset
        (3, 1, 1, 9, 7),        # conv2-5 of both presets
        (11, 4, 0, 23, 19),     # conv1 of the full preset
    ])
    @pytest.mark.parametrize("n", [1, 3])
    def test_conv_matches_naive_loops(self, kernel, stride, padding, h, w, n):
        rng = np.random.default_rng(kernel + n)
        conv = Conv2d("c", 3, 4, kernel, stride, padding, dtype=np.float64, rng=rng)
        conv.b[...] = rng.normal(size=4)
        x = rng.normal(size=(n, 3, h, w))
        expected = naive_conv2d(x, conv.W, conv.b, stride, padding)
        # (C, N, W, H) in memory, as pool and norm outputs are stored
        swapped = np.ascontiguousarray(x.transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
        frozen = x.copy()
        frozen.flags.writeable = False
        for fed in (x.copy(), swapped, frozen):
            before = fed.copy()
            y, _ = conv.forward(fed)
            np.testing.assert_allclose(y, expected, rtol=0, atol=1e-10)
            np.testing.assert_array_equal(fed, before)

    def test_shape_mismatch_rejected(self):
        net = _mini()
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 3, 10, 10), dtype=np.float32))

    def test_single_sample_without_batch_axis_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            _mini().forward(_x32())

    def test_one_dropout_seed_per_row_required(self):
        x = np.stack([_x32(0), _x32(1)])
        with pytest.raises(ValueError, match="1 dropout seeds for a batch of 2"):
            _mini().forward(x, rng=[1])

    def test_eval_deterministic_train_dropout_varies(self):
        net = _mini()
        x = _x32()[None]
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        np.testing.assert_array_equal(a, b)
        t1, _ = net.forward(x, rng=[1])
        t2, _ = net.forward(x, rng=[2])
        assert not np.array_equal(t1, t2)
        t1b, _ = net.forward(x, rng=[1])
        np.testing.assert_array_equal(t1, t1b)


class TestLossAndGrad:
    def test_uniform_scores(self):
        loss, grad = loss_and_grad(np.zeros((1, 6)), [0])    # equal logits: p = 1/6 each
        assert loss == pytest.approx(np.log(6.0), abs=1e-12)
        np.testing.assert_allclose(grad, [np.full(6, 1 / 6) - np.eye(6)[0]])

    def test_certain_correct(self):
        # a gap of 1000 makes exp(-1000) 0, so p_true is exactly 1 and the rest exactly 0
        logits = np.zeros((1, 6))
        logits[0, 2] = 1000.0
        loss, grad = loss_and_grad(logits, [2])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((1, 6)))

    def test_clamped_log(self):
        logits = np.zeros((1, 6))
        logits[0, 1] = 1000.0
        loss, _ = loss_and_grad(logits, [0])   # p_true = 0 clamps to 1e-12
        assert loss == -np.log(1e-12)

    def test_one_label_per_row_required(self):
        with pytest.raises(ValueError, match="1 labels for 2 rows"):
            loss_and_grad(np.zeros((2, 6)), [0])

    @pytest.mark.parametrize("label", [-1, 6])
    def test_class_index_outside_the_classes_refused(self, label):
        with pytest.raises(ValueError, match=f"class index {label} "):
            loss_and_grad(np.zeros((2, 6)), [0, label])

    def test_dlogits_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(1, 6))
        true = 3
        _, (analytic,) = loss_and_grad(logits, [true])
        eps = 1e-6
        for i in range(6):
            z = logits.copy()
            z[0, i] += eps
            hi, _ = loss_and_grad(z, [true])
            z[0, i] -= 2 * eps
            lo, _ = loss_and_grad(z, [true])
            numeric = (hi - lo) / (2 * eps)
            assert abs(numeric - analytic[i]) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_softmax_layer_then_loss_bit_for_bit(self, dtype):
        # the numbers of a network that ended in a softmax layer, from logits of every scale
        rng = np.random.default_rng(31)
        logits = np.concatenate([rng.normal(size=(6, 6)), rng.normal(scale=40.0, size=(6, 6)),
                                 _mini().forward(np.stack([_x32(s) for s in range(6)]))[0]]).astype(dtype)
        labels = [int(c) for c in rng.integers(0, 6, size=len(logits))]
        loss, dlogits = loss_and_grad(logits, labels)
        want_loss, want_dlogits = two_step_loss_and_grad(logits, labels)
        assert loss == want_loss
        assert dlogits.dtype == want_dlogits.dtype == np.float64
        assert dlogits.tobytes() == want_dlogits.tobytes()


class TestBackward:
    def test_zero_dlogits_zero_grads(self):
        net = _mini()
        _, cache = net.forward(_x32()[None])
        grads = net.backward(cache, np.zeros((1, 6)))
        assert all(np.all(np.asarray(g) == 0.0) for g in grads.values())

    def test_stale_cache_rejected(self):
        net = _mini()
        _, cache = net.forward(_x32()[None])
        sgd_step(net.params(), {k: np.zeros_like(v) for k, v in net.params().items()}, {}, TrainConfig())
        net.bump_version()
        with pytest.raises(StaleCacheError):
            net.backward(cache, np.zeros((1, 6)))

    def test_train_mode_mask_replay_deterministic(self):
        net = _mini()
        x = _x32()[None]

        def run():
            logits, cache = net.forward(x, rng=[7])
            _, dlogits = loss_and_grad(logits, [1])
            return net.backward(cache, dlogits)

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_maxpool_routes_gradient_mass(self):
        pool = MaxPool2d("p", kernel=3, stride=2)
        x = np.random.default_rng(3).normal(size=(4, 11, 9))[None]
        y, cache = pool.forward(x)
        dy = np.random.default_rng(4).normal(size=y.shape)
        dx, _ = pool.backward(dy, cache)
        assert dx.shape == x.shape
        assert dx.sum() == pytest.approx(dy.sum(), rel=1e-6)
        # every output gradient lands on exactly one input cell
        ones_dx, _ = pool.backward(np.ones_like(dy), cache)
        assert ones_dx.sum() == pytest.approx(y.size)

    @pytest.mark.parametrize("h, w", [(11, 9), (10, 9), (129, 16), (64, 7), (31, 3)])
    @pytest.mark.parametrize("n", [1, 6])
    def test_maxpool_backward_bit_for_bit(self, h, w, n):
        # non-integer gradients, so a cell that is the maximum of 3-4 windows shows the
        # order its sum was taken in; ReLU-style inputs add ties on zero
        pool = MaxPool2d("p", kernel=3, stride=2)
        rng = np.random.default_rng(h * w + n)
        for relu in (False, True):
            x = rng.normal(size=(n, 3, h, w)).astype(np.float32)
            if relu:
                x = np.maximum(x, 0)
            swapped = np.ascontiguousarray(x.transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
            frozen = x.copy()
            frozen.flags.writeable = False
            for fed in (x, swapped, frozen):
                y, cache = pool.forward(fed)
                dy = rng.normal(size=y.shape).astype(np.float32)
                dx, _ = pool.backward(dy, cache)
                want = naive_maxpool_backward(x, dy, 3, 2)
                assert dx.dtype == np.float32 and dx.shape == x.shape
                assert dx.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cin, cout, kernel, stride, padding, h, w", [
        (3, 16, 5, 2, 2, 13, 10),     # conv1 of the mini preset
        (16, 32, 3, 1, 1, 9, 7),      # conv2
        (32, 32, 3, 1, 1, 5, 4),      # conv3
        (96, 256, 5, 1, 2, 7, 6),     # conv2 of the full preset: wide, columns rebuilt
        (3, 96, 11, 4, 0, 23, 19),    # conv1 of the full preset: wide and unpadded
    ])
    def test_conv_weight_grad_matches_naive_loops(self, cin, cout, kernel, stride, padding, h, w):
        rng = np.random.default_rng(cin + cout)
        conv = Conv2d("c", cin, cout, kernel, stride, padding, dtype=np.float64, rng=rng)
        x = rng.normal(size=(3, cin, h, w))
        y, cache = conv.forward(x)
        # (C, N, W, H) in memory, as the gradients of pool and norm outputs are stored
        dy = np.ascontiguousarray(rng.normal(size=y.shape).transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
        _, grads = conv.backward(dy, cache)
        expected = naive_conv2d_weight_grad(x, dy, kernel, stride, padding)
        np.testing.assert_allclose(grads["c.W"], expected, rtol=0, atol=1e-10)
        np.testing.assert_allclose(grads["c.b"], dy.sum(axis=(0, 2, 3)), rtol=0, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cin, cout, kernel, stride, padding, h, w", [
        (16, 32, 3, 1, 1, 9, 7),      # conv2 of the mini preset: keeps its columns
        (16, 64, 3, 1, 1, 9, 7),      # the narrowest conv that rebuilds them
        (3, 96, 11, 4, 0, 23, 19),    # conv1 of the full preset
    ])
    def test_conv_gradients_equal_the_product_over_the_columns_bit_for_bit(
            self, dtype, cin, cout, kernel, stride, padding, h, w):
        rng = np.random.default_rng(cin + cout)
        conv = Conv2d("c", cin, cout, kernel, stride, padding, dtype=dtype, rng=rng)
        assert conv.caches_columns == (cout < COLUMNS_CACHED_BELOW)
        x = rng.normal(size=(3, cin, h, w)).astype(dtype)
        y, cache = conv.forward(x)
        # (C, N, W, H) in memory, as the gradients of pool and norm outputs are stored
        dy = np.ascontiguousarray(rng.normal(size=y.shape).astype(dtype).transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
        want_w = im2col_weight_grad(x, dy, kernel, stride, padding)
        want_b = np.ascontiguousarray(dy.transpose(1, 0, 3, 2)).reshape(cout, -1).sum(axis=1)
        for input_grad in (True, False):
            _, grads = conv.backward(dy, cache, input_grad=input_grad)
            assert grads["c.W"].dtype == dtype
            assert grads["c.W"].tobytes() == want_w.tobytes()
            assert grads["c.b"].tobytes() == want_b.tobytes()

    @pytest.mark.parametrize("cin, cout, kernel, stride, padding, h, w", [
        (3, 96, 11, 4, 0, 35, 31),    # conv1 of the full preset
        (96, 256, 5, 1, 2, 9, 8),     # conv2 of the full preset
        (16, 64, 3, 1, 1, 9, 7),
        (3, 16, 5, 2, 2, 13, 10),     # conv1 of the mini preset
        (16, 32, 3, 1, 1, 9, 7),      # conv2 of the mini preset
    ])
    def test_wide_conv_caches_its_padded_input_narrow_its_columns(
            self, cin, cout, kernel, stride, padding, h, w):
        n = 6
        conv = Conv2d("c", cin, cout, kernel, stride, padding, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(n, cin, h, w)).astype(np.float32)
        y, cache = conv.forward(x)
        held = list(_arrays(cache))
        if cout >= COLUMNS_CACHED_BELOW:
            padded = x.itemsize * n * cin * (h + 2 * padding) * (w + 2 * padding)
            assert max(a.nbytes for a in held) <= padded
        else:
            _, _, oh, ow = y.shape
            assert (cin * kernel * kernel, n * ow * oh) in [a.shape for a in held]

    def test_full_preset_batch_of_six_caches_under_40_mb(self):
        net = build_network("full", (3, 227, 227), seed=0)
        x = np.random.default_rng(0).normal(size=(6, 3, 227, 227)).astype(np.float32)
        _, cache = net.forward(x, rng=list(range(6)))
        buffers = {}        # views counted once, as the buffer they keep alive
        for _, layer_cache in cache.entries:
            for a in _arrays(layer_cache):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                buffers[id(a)] = a.nbytes
        assert sum(buffers.values()) < 40 << 20, f"{sum(buffers.values()) / 2**20:.1f} MB"

    def test_conv_cache_does_not_alias_the_callers_batch(self):
        rng = np.random.default_rng(3)
        layers = [Conv2d("conv1", 3, 64, 3, 2, 0, rng=rng), Linear("fc1", 64 * 3 * 3, 6, rng=rng)]
        net = Network(layers, (3, 7, 7))
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        logits, cache = net.forward(x)
        dlogits = loss_and_grad(logits, [1, 4])[1]
        want = {name: np.asarray(g).copy() for name, g in net.backward(cache, dlogits).items()}
        _, cache = net.forward(x)
        x[...] = rng.normal(size=x.shape)
        got = net.backward(cache, dlogits)
        for name, g in want.items():
            assert np.asarray(got[name]).tobytes() == g.tobytes(), name

    @pytest.mark.parametrize("channels", [1, 3, 5, 16])
    def test_response_norm_matches_naive_loops(self, channels):
        norm = ChannelResponseNorm("n")
        rng = np.random.default_rng(channels)
        # a large spread of x makes the window sums, not k, dominate the scale
        x = rng.normal(scale=30.0, size=(2, channels, 6, 5))
        dy = rng.normal(size=x.shape)
        y, cache = norm.forward(x)
        dx, _ = norm.backward(dy, cache)
        want_y, want_dx = naive_response_norm(x, dy, norm.k, norm.n, norm.alpha, norm.beta)
        np.testing.assert_allclose(y, want_y, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dx, want_dx, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channels", [1, 2, 3, 5, 16])
    def test_box_sum_channels_equals_the_cumsum_formula(self, dtype, channels):
        x = np.random.default_rng(channels).random((3, channels, 9, 4)).astype(dtype)
        swapped = np.ascontiguousarray(x.transpose(1, 0, 3, 2)).transpose(1, 0, 3, 2)
        for radius in (0, 1, 2, 3):
            want = cumsum_box_sum_channels(x, radius)
            for fed in (x, swapped):
                got = _box_sum_channels(fed, radius)
                assert got.dtype == want.dtype
                assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestBatch:
    """A batch [N, C, H, W] through the network against its rows one at a time."""

    @staticmethod
    def _rngs(n):
        return [np.random.default_rng([5, 0, 1, 2, j]) for j in range(n)]

    def test_batch_gradient_is_mean_of_single_sample_gradients(self):
        net = _mini(seed=2, precision="high")
        x = np.random.default_rng(9).normal(size=(6, *MINI_SHAPE))
        labels = [0, 1, 2, 3, 4, 5]
        logits, cache = net.forward(x, rng=self._rngs(6))
        loss, dlogits = loss_and_grad(logits, labels)
        batch = net.backward(cache, dlogits)
        singles, losses = [], []
        for row, label, rng in zip(x, labels, self._rngs(6)):
            row_logits, c = net.forward(row[None], rng=[rng])
            one_loss, one_dlogits = loss_and_grad(row_logits, [label])
            losses.append(one_loss)
            singles.append(net.backward(c, one_dlogits))
        assert loss == pytest.approx(np.mean(losses), rel=1e-12)
        for name, g in batch.items():
            np.testing.assert_allclose(g, np.mean([one[name] for one in singles], axis=0), rtol=1e-10)

    def test_dropout_row_j_draws_the_per_sample_mask(self):
        net = _mini()
        x = np.stack([_x32(seed) for seed in range(3)])
        _, cache = net.forward(x, rng=self._rngs(3))
        masks = dict((layer.name, c) for layer, c in cache.entries)["drop1"]
        for j, rng in enumerate(self._rngs(3)):
            _, one = net.forward(x[j][None], rng=[rng])
            np.testing.assert_array_equal(masks[j], dict((layer.name, c) for layer, c in one.entries)["drop1"][0])

    def test_maxpool_routes_to_first_maximum_in_window_order(self):
        k, s = 3, 2
        pool = MaxPool2d("p", kernel=k, stride=s)
        rng = np.random.default_rng(4)
        x = rng.integers(0, 3, size=(2, 3, 11, 9)).astype(np.float64)     # many ties
        y, cache = pool.forward(x)
        dy = rng.integers(-5, 6, size=y.shape).astype(np.float64)         # sums stay exact
        dx, _ = pool.backward(dy, cache)
        want_y, want_dx = np.zeros_like(y), np.zeros_like(x)
        for n, c, i, j in np.ndindex(y.shape):
            window = x[n, c, i * s : i * s + k, j * s : j * s + k]
            first = int(np.argmax(window))
            want_y[n, c, i, j] = window.max()
            want_dx[n, c, i * s + first // k, j * s + first % k] += dy[n, c, i, j]
        np.testing.assert_array_equal(y, want_y)
        np.testing.assert_array_equal(dx, want_dx)

    def test_single_sample_is_row_0_of_a_batch(self):
        net = _mini()
        x = _x32(6)
        _, one = predict(net, x)
        assert one.shape == (6,)
        np.testing.assert_array_equal(one, softmax(net.forward(x[None])[0])[0])
        rows = softmax(net.forward(np.stack([x, _x32(7), _x32(8)]))[0])
        assert rows.shape == (3, 6)
        np.testing.assert_allclose(rows[0], one, rtol=1e-5, atol=1e-7)


class TestDropout:
    def test_eval_identity(self):
        d = Dropout("d", rate=0.5)
        x = np.random.default_rng(0).normal(size=(8, 8)).astype(np.float32)
        y, _ = d.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_inverted_scaling_preserves_mean(self):
        # E[mask] = 1, Var[mask] = (1-p)/p per unit at p = 0.5
        d = Dropout("d", rate=0.5)
        x = np.ones((1, 40), dtype=np.float64)
        rng = np.random.default_rng(11)
        total = np.zeros_like(x)
        n = 10_000
        for _ in range(n):
            y, _ = d.forward(x, rng=[rng])
            total += y
        mean = total / n
        se = np.sqrt((1 - 0.5) / 0.5 / n)
        assert np.all(np.abs(mean - 1.0) < 3 * se)


class TestSgdStep:
    def test_single_step(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.5])}
        vel = {}
        cfg = TrainConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(params, grads, vel, cfg)
        assert vel["w"][0] == pytest.approx(-0.05)
        assert params["w"][0] == pytest.approx(0.95)
        sgd_step(params, grads, vel, cfg)
        assert vel["w"][0] == pytest.approx(-0.095)
        assert params["w"][0] == pytest.approx(0.855)

    def test_decay_only(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([0.0])}
        cfg = TrainConfig(learning_rate=0.0001, momentum=0.9, weight_decay=0.0005)
        sgd_step(params, grads, {}, cfg)
        assert params["w"][0] == pytest.approx(1.0 - 5e-8, abs=1e-12)

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.array([1.0])}
        grads = {"w": np.array([np.nan])}
        with pytest.raises(FloatingPointError):
            sgd_step(params, grads, {}, TrainConfig())

    @staticmethod
    def _multi_block_tensors():
        rng = np.random.default_rng(4)
        # the last parameter spans three blocks and a ragged tail
        shapes = {"a.b": (9,), "b.W": (5, SGD_BLOCK // 2 + 7), "c.W": (3 * SGD_BLOCK + 123,)}
        params = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
        grads = [{n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
                 for _ in range(3)]
        return params, grads

    def test_blocked_update_matches_whole_array_formula(self):
        params, grads = self._multi_block_tensors()
        cfg = TrainConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0005)
        ref_w = {n: w.copy() for n, w in params.items()}
        ref_v = {n: np.zeros_like(w) for n, w in params.items()}
        vel = {}
        for g in grads:
            sgd_step(params, g, vel, cfg)
            for n, w in ref_w.items():     # the whole-array update
                step = w * cfg.weight_decay
                step += g[n]
                step *= cfg.learning_rate
                ref_v[n] *= cfg.momentum
                ref_v[n] -= step
                w += ref_v[n]
        for n in params:
            assert params[n].tobytes() == ref_w[n].tobytes(), n
            assert vel[n].tobytes() == ref_v[n].tobytes(), n

    def test_nan_in_last_block_changes_nothing(self):
        params, grads = self._multi_block_tensors()
        vel = {}
        sgd_step(params, grads[0], vel, TrainConfig())
        before_w = {n: w.copy() for n, w in params.items()}
        before_v = {n: v.copy() for n, v in vel.items()}
        bad = grads[1]
        last = list(params)[-1]
        bad[last].reshape(-1)[-1] = np.nan
        with pytest.raises(FloatingPointError, match=last):
            sgd_step(params, bad, vel, TrainConfig())
        for n in params:
            np.testing.assert_array_equal(params[n], before_w[n])
            np.testing.assert_array_equal(vel[n], before_v[n])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1.0)
        for bad in ({"epochs": 3.0}, {"epochs": "3"}, {"seed": True}, {"momentum": "0.9"}):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    @pytest.mark.parametrize("name", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be .* finite, got {value}"):
            TrainConfig(**{name: value})

    def test_negative_epochs_rejected_zero_kept(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=-3)
        assert TrainConfig(epochs=0).epochs == 0


class TestOuterSum:
    """A fully connected weight gradient kept as its batch factors."""

    # 4000 values a row: SGD_BLOCK // 4000 = 16 rows a block, so 16*3 + 5 rows give
    # three whole blocks and a ragged fourth
    WIDE = (16 * 3 + 5, 4000)

    @staticmethod
    def _factors(out, width, n, dtype, seed=0):
        rng = np.random.default_rng([seed, out, width, n])
        return rng.normal(size=(n, out)).astype(dtype), rng.normal(size=(n, width)).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 6])
    @pytest.mark.parametrize("layer", ["fc1", "fc2", "wide"])
    def test_dense_form_is_the_product(self, dtype, n, layer):
        if layer == "wide":
            out, width = self.WIDE
            assert -(-out // (SGD_BLOCK // width)) >= 3 and out % (SGD_BLOCK // width)
        else:
            fc = _mini().layer_named(layer)
            out, width = fc.out_features, fc.in_features
        dy, flat = self._factors(out, width, n, dtype)
        g = OuterSum(dy, flat)
        assert g.shape == (out, width) and g.size == out * width and g.dtype == dtype
        dense = np.asarray(g)
        assert dense.dtype == dtype and dense.shape == g.shape
        assert dense.tobytes() == (dy.T @ flat).tobytes()

    def test_linear_backward_returns_the_factors(self):
        fc = Linear("fc", 20, 7, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 4, 5)).astype(np.float32)
        _, cache = fc.forward(x)
        dy = np.random.default_rng(2).normal(size=(6, 7)).astype(np.float32)
        _, grads = fc.backward(dy, cache)
        assert isinstance(grads["fc.W"], OuterSum)
        assert np.asarray(grads["fc.W"]).tobytes() == (dy.T @ x.reshape(6, -1)).tobytes()

    def _steps(self, n_steps=3, nan_at_step=None):
        """sgd_step over [wide W as an OuterSum, its bias, a dense 3-block tensor]."""
        out, width = self.WIDE
        rng = np.random.default_rng(6)
        params = {"fc.W": rng.normal(size=(out, width)).astype(np.float32),
                  "fc.b": rng.normal(size=out).astype(np.float32),
                  "z.W": rng.normal(size=3 * SGD_BLOCK + 9).astype(np.float32)}
        steps = []
        for i in range(n_steps):
            dy, flat = self._factors(out, width, 6, np.float32, seed=i)
            if i == nan_at_step:
                dy[:, -1] = np.nan      # the last row, which only the ragged last block reads
            steps.append({"fc.W": OuterSum(dy, flat), "fc.b": dy.sum(axis=0),
                          "z.W": rng.normal(size=params["z.W"].shape).astype(np.float32)})
        return params, steps

    def test_sgd_step_matches_its_dense_twin(self):
        cfg = TrainConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0005)
        params, steps = self._steps()
        twin = {n: w.copy() for n, w in params.items()}
        vel, twin_vel = {}, {}
        for grads in steps:
            sgd_step(params, grads, vel, cfg)
            sgd_step(twin, {n: np.asarray(g) for n, g in grads.items()}, twin_vel, cfg)
        for n in params:
            assert params[n].tobytes() == twin[n].tobytes(), n
            assert vel[n].tobytes() == twin_vel[n].tobytes(), n

    def test_nan_in_the_last_row_block_changes_nothing(self):
        params, (first, bad) = self._steps(n_steps=2, nan_at_step=1)
        vel = {}
        sgd_step(params, first, vel, TrainConfig())
        before_w = {n: w.copy() for n, w in params.items()}
        before_v = {n: v.copy() for n, v in vel.items()}
        bad["fc.b"] = np.zeros_like(bad["fc.b"])    # only the factored gradient is non-finite
        with pytest.raises(FloatingPointError, match="fc.W"):
            sgd_step(params, bad, vel, TrainConfig())
        for n in params:
            assert params[n].tobytes() == before_w[n].tobytes(), n
            assert vel[n].tobytes() == before_v[n].tobytes(), n

    def _refused_second_step(self, mutate):
        """One sgd_step, then a second whose fc.W factors mutate(dy, flat) has changed:
        the second must raise naming fc.W and leave every weight and velocity as it was."""
        params, (first, second) = self._steps(n_steps=2)
        vel = {}
        sgd_step(params, first, vel, TrainConfig())
        before = {n: (params[n].tobytes(), vel[n].tobytes()) for n in params}
        mutate(second["fc.W"].dy, second["fc.W"].flat)
        second["fc.b"] = np.zeros_like(second["fc.b"])    # only the factored gradient is bad
        with pytest.raises(FloatingPointError, match="fc.W"):
            sgd_step(params, second, vel, TrainConfig())
        assert {n: (params[n].tobytes(), vel[n].tobytes()) for n in params} == before

    @pytest.mark.parametrize("factor", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_changes_nothing(self, factor, value):
        def mutate(*factors):
            factors[factor][0, -1] = value      # W's last row (dy) or column (flat)
        self._refused_second_step(mutate)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul")
    def test_finite_factors_that_overflow_float32_change_nothing(self):
        def mutate(dy, flat):
            # each factor finite, the formed entry W[-1, -1] about 1e40: inf in float32
            dy[0, -1] = flat[0, -1] = 1e20
        self._refused_second_step(mutate)

    def test_large_finite_product_is_stepped_like_its_dense_twin(self):
        # the bound (about 2.25e38) is above half the float32 maximum, every entry below it
        cfg = TrainConfig(learning_rate=0.01, momentum=0.9, weight_decay=0.0005)
        params, steps = self._steps(n_steps=2)
        steps[1]["fc.W"].dy[0, -1] = steps[1]["fc.W"].flat[0, -1] = 1.5e19
        twin = {n: w.copy() for n, w in params.items()}
        vel, twin_vel = {}, {}
        for grads in steps:
            sgd_step(params, grads, vel, cfg)
            sgd_step(twin, {n: np.asarray(g) for n, g in grads.items()}, twin_vel, cfg)
        for n in params:
            assert params[n].tobytes() == twin[n].tobytes(), n
            assert vel[n].tobytes() == twin_vel[n].tobytes(), n

    def test_full_preset_fc_gradients_stay_small(self):
        net = build_network("full", (3, 227, 227), seed=0)
        x = np.random.default_rng(0).normal(size=(1, 3, 227, 227)).astype(np.float32)
        logits, cache = net.forward(x, rng=[0])
        grads = net.backward(cache, loss_and_grad(logits, [2])[1])
        for name in ("fc6.W", "fc7.W"):
            g = grads[name]
            assert isinstance(g, OuterSum) and g.shape == net.params()[name].shape
            assert g.dy.nbytes + g.flat.nbytes < 1 << 20, name


class TestGradientCheck:
    def test_high_precision(self):
        net = _mini(seed=1, precision="high")
        x = np.random.default_rng(3).normal(size=MINI_SHAPE)
        err = gradient_check(net, x, 2, epsilon=1e-4, num_params=200, seed=5)
        assert err < 1e-5

    def test_standard_precision(self):
        net = _mini(seed=1, precision="standard")
        x = _x32(3)
        err = gradient_check(net, x, 2, epsilon=1e-4, num_params=200, seed=5)
        assert err < 1e-3

    def test_parameter_next_to_a_kink_passes(self):
        # draw seed 7 holds conv1.W[407], whose eps-1e-4 quotient crosses a rectifier switch
        net = _mini(seed=1, precision="high")
        x = np.random.default_rng(3).normal(size=MINI_SHAPE)
        assert gradient_check(net, x, 2, epsilon=1e-4, num_params=60, seed=7) < 1e-5

    def test_wrong_backward_still_fails(self, monkeypatch):
        from radarnet.layers import ReLU

        net = _mini(seed=1, precision="high")
        x = np.random.default_rng(3).normal(size=MINI_SHAPE)
        monkeypatch.setattr(ReLU, "backward", lambda self, dy, mask: (dy * mask * 1.001, {}))
        assert gradient_check(net, x, 2, epsilon=1e-4, num_params=60, seed=7) > 1e-4

    def test_wrong_pool_backward_still_fails(self, monkeypatch):
        backward = MaxPool2d.backward

        def scaled(self, dy, cache):
            return backward(self, dy, cache)[0] * 1.001, {}

        net = _mini(seed=1, precision="high")
        x = np.random.default_rng(3).normal(size=MINI_SHAPE)
        monkeypatch.setattr(MaxPool2d, "backward", scaled)
        assert gradient_check(net, x, 2, epsilon=1e-4, num_params=60, seed=7) > 1e-4

    def test_smooth_network(self):
        # no rectifier, no pooling: conv -> fc -> fc, then the loss's softmax, stays smooth
        rng = np.random.default_rng(2)
        layers = [
            Conv2d("conv1", 3, 4, 3, 2, 1, dtype=np.float64, rng=rng),
            Linear("fc1", 4 * 5 * 4, 16, dtype=np.float64, rng=rng),
            Linear("fc2", 16, 6, dtype=np.float64, rng=rng),
        ]
        net = Network(layers, (3, 9, 7), precision="high")
        x = np.random.default_rng(6).normal(size=(3, 9, 7))
        err = gradient_check(net, x, 4, epsilon=1e-5, num_params=200, seed=9)
        assert err < 1e-7

    def test_smooth_network_with_a_wide_conv(self):
        # conv2 has COLUMNS_CACHED_BELOW output channels, so its backward rebuilds its columns
        rng = np.random.default_rng(4)
        layers = [
            Conv2d("conv1", 3, 4, 3, 1, 1, dtype=np.float64, rng=rng),
            Conv2d("conv2", 4, COLUMNS_CACHED_BELOW, 3, 2, 0, dtype=np.float64, rng=rng),
            Linear("fc1", COLUMNS_CACHED_BELOW * 3 * 2, 6, dtype=np.float64, rng=rng),
        ]
        net = Network(layers, (3, 7, 6), precision="high")
        assert not net.layer_named("conv2").caches_columns
        x = np.random.default_rng(6).normal(size=(3, 7, 6))
        err = gradient_check(net, x, 1, epsilon=1e-5, num_params=400, seed=9)
        assert err < 1e-7

    def test_memory_stays_near_one_gradient_copy(self):
        # 3.6 M parameters: a list of every (name, index) pair would hold about 360 MB
        import tracemalloc

        rng = np.random.default_rng(0)
        layers = [Linear("fc1", 48, 1 << 16, dtype=np.float64, rng=rng),
                  Linear("fc2", 1 << 16, 6, dtype=np.float64, rng=rng)]
        net = Network(layers, (3, 4, 4), precision="high")
        param_bytes = sum(a.nbytes for a in net.params().values())
        x = np.random.default_rng(1).normal(size=(3, 4, 4))
        tracemalloc.start()
        try:
            err = gradient_check(net, x, 2, num_params=20, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err < 1e-5
        assert peak < 2 * param_bytes, f"peak {peak / 2**20:.0f} MB"


class TestPredict:
    def test_argmax(self):
        net = _mini()
        label, scores = predict(net, _x32())
        assert label.index == int(np.argmax(scores))

    def test_tie_breaks_to_lowest_index(self):
        # zero the output layer: logits all equal, probabilities exactly 1/6
        net = _mini()
        fc2 = net.layer_named("fc2")
        fc2.W[...] = 0.0
        fc2.b[...] = 0.0
        net.bump_version()
        label, scores = predict(net, _x32())
        np.testing.assert_array_equal(scores, np.full(6, np.float32(1 / 6), dtype=np.float32))
        assert label is VehicleClass.CAR

    def test_constant_logit_shift_invariance(self):
        net = _mini()
        x = _x32(4)
        label1, s1 = predict(net, x)
        fc2 = net.layer_named("fc2")
        fc2.b += np.float32(3.0)   # shifts all logits equally
        net.bump_version()
        label2, s2 = predict(net, x)
        assert label1 == label2
        np.testing.assert_allclose(s1, s2, atol=1e-6)

    def test_nan_scores_refused(self):
        x = _x32()
        x[0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            predict(_mini(), x)


class TestWeightPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = _mini(seed=7)
        path = tmp_path / "w.rdw"
        save_weights(net, path)
        other = _mini(seed=8)
        load_weights(other, path)
        for name, arr in net.params().items():
            np.testing.assert_array_equal(arr, other.params()[name])
        save_weights(other, tmp_path / "w2.rdw")
        assert path.read_bytes() == (tmp_path / "w2.rdw").read_bytes()

    def test_shape_mismatch_names_layer(self, tmp_path):
        net = _mini(seed=7)
        path = tmp_path / "w.rdw"
        save_weights(net, path)
        mismatched = build_network("mini", (3, 129, 32), seed=0)
        with pytest.raises(WeightShapeError, match="fc1"):
            load_weights(mismatched, path)

    def test_conv_shape_mismatch_names_conv1(self, tmp_path):
        import struct as st

        net = _mini(seed=7)
        # hand-build a file whose conv1.W record has a wrong shape
        records = {name: arr for name, arr in net.params().items()}
        blob = [b"RDW1", st.pack("<I", len(records))]
        for name in sorted(records):
            arr = np.ascontiguousarray(records[name], dtype="<f4")
            if name == "conv1.W":
                arr = arr[:, :, :3, :3].copy()
            enc = name.encode()
            blob += [st.pack("<I", len(enc)), enc, st.pack("<I", arr.ndim),
                     st.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
        path = tmp_path / "bad.rdw"
        path.write_bytes(b"".join(blob))
        with pytest.raises(WeightShapeError, match="conv1"):
            load_weights(_mini(seed=1), path)

    def test_records_matching_no_parameter_rejected(self, tmp_path):
        net = _mini(seed=7)
        save_weights(net, tmp_path / "w.rdw")
        extra = Linear("fc9", 2, 3, rng=np.random.default_rng(0))
        save_weights(Network([*net.layers, extra], MINI_SHAPE), tmp_path / "extra.rdw")
        target = _mini(seed=8)
        before = target.snapshot()
        with pytest.raises(WeightShapeError, match=r"fc9\.W, fc9\.b"):
            load_weights(target, tmp_path / "extra.rdw")
        for name, arr in target.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_refused_file_leaves_every_parameter_unchanged(self, tmp_path):
        # every record but fc1's fits the target; none of them may be loaded
        save_weights(build_network("mini", (3, 129, 32), seed=0), tmp_path / "w.rdw")
        target = _mini(seed=8)
        before = target.snapshot()
        with pytest.raises(WeightShapeError, match="fc1"):
            load_weights(target, tmp_path / "w.rdw")
        for name, arr in target.params().items():
            assert arr.tobytes() == before[name].tobytes(), name

    def test_bad_magic(self, tmp_path):
        (tmp_path / "w.rdw").write_bytes(b"ZZZZ betrayal")
        with pytest.raises(WeightsFormatError):
            load_weights(_mini(), tmp_path / "w.rdw")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "w.rdw"
        save_weights(_mini(seed=7), path)
        path.write_bytes(path.read_bytes() + b"\0" * 7)
        with pytest.raises(WeightsFormatError, match="7 trailing bytes"):
            read_weight_records(path)

    def test_duplicate_record_rejected(self, tmp_path):
        import struct as st

        path = tmp_path / "w.rdw"
        save_weights(_mini(seed=7), path)
        blob = path.read_bytes()
        (count,) = st.unpack("<I", blob[4:8])
        name = b"conv1.b"      # a second record of a name the file already holds
        again = st.pack("<I", len(name)) + name + st.pack("<II", 1, 16) + np.zeros(16, "<f4").tobytes()
        path.write_bytes(blob[:4] + st.pack("<I", count + 1) + blob[8:] + again)
        target = _mini(seed=8)
        before = target.snapshot()
        with pytest.raises(WeightsFormatError, match=r"duplicate record 'conv1\.b'"):
            load_weights(target, path)
        for name, arr in target.params().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_non_utf8_record_name_rejected(self, tmp_path):
        import struct as st

        path = tmp_path / "w.rdw"
        save_weights(_mini(seed=7), path)
        blob = bytearray(path.read_bytes())
        (name_len,) = st.unpack("<I", blob[8:12])
        blob[12 : 12 + name_len] = b"\xff" * name_len     # never valid UTF-8
        path.write_bytes(bytes(blob))
        with pytest.raises(WeightsFormatError, match="UTF-8"):
            read_weight_records(path)

    def test_every_truncation_raises_typed_error(self, tmp_path):
        rng = np.random.default_rng(0)
        layers = [Conv2d("c", 1, 2, 1, 1, 0, rng=rng), Linear("f", 8, 3, rng=rng)]
        save_weights(Network(layers, (1, 2, 2)), tmp_path / "w.rdw")
        blob = (tmp_path / "w.rdw").read_bytes()
        assert len(read_weight_records(tmp_path / "w.rdw")) == 4
        cut = tmp_path / "cut.rdw"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(WeightsFormatError):
                read_weight_records(cut)


class TestTrainingSanity:
    def test_loss_monotone_on_fixed_batch(self):
        # deterministic full-batch descent: dropout off, no momentum, no decay
        net = build_network("mini", MINI_SHAPE, seed=3, dropout_rate=0.0)
        rng = np.random.default_rng(12)
        batch = [(rng.normal(size=MINI_SHAPE).astype(np.float32) * 5, i) for i in range(6)]
        cfg = TrainConfig(learning_rate=1e-4, momentum=0.0, weight_decay=0.0)
        velocity = {}

        def batch_loss_and_grads():
            total, grads_acc = 0.0, None
            for x, label in batch:
                logits, cache = net.forward(x[None], rng=[0])
                loss, dlogits = loss_and_grad(logits, [label])
                total += loss / len(batch)
                g = net.backward(cache, dlogits)
                if grads_acc is None:
                    grads_acc = {k: np.asarray(v) / len(batch) for k, v in g.items()}
                else:
                    for k in grads_acc:
                        grads_acc[k] += np.asarray(g[k]) / len(batch)
            return total, grads_acc

        losses = []
        for _ in range(50):
            loss, grads = batch_loss_and_grads()
            losses.append(loss)
            sgd_step(net.params(), grads, velocity, cfg)
            net.bump_version()
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12), f"loss increased: {losses}"
