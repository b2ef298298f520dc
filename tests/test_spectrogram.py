"""Ramp segmentation, FFT modulus, tensor construction and PGM export."""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from radarnet import fourier
from radarnet.radar import (
    BeatSignal,
    PointTarget,
    RadarParams,
    RampPolarity,
    VehicleClass,
    synthesize_point_targets,
)
from radarnet.spectrogram import (
    PadOverflowError,
    RdTensor,
    _ramps,
    build_spectrograms,
    build_tensor,
    compute_mean_tensor,
    export_pgm,
    fft_modulus,
    mean_normalize,
    tensor_shape,
    signal_to_tensor,
)

from _oracles import four_step_fft, naive_dft, naive_dft_modulus_onesided, parseval_one_sided

P = RadarParams()


def _signal(n_samples, first=RampPolarity.UP, fill=None):
    rng = np.random.default_rng(9)
    samples = rng.normal(size=n_samples) if fill is None else np.full(n_samples, fill, float)
    return BeatSignal(samples=samples, radar=P, first_ramp=first)


def _up_down_windows(sig):
    windows, up, down = _ramps(sig)
    return windows[up], windows[down]


class TestSegmentRamps:
    def test_even_split(self):
        windows, _, _ = _ramps(_signal(5120))
        assert windows.shape == (10, 512)
        up, down = _up_down_windows(_signal(5120))
        assert up.shape == (5, 512)
        assert down.shape == (5, 512)

    def test_trailing_partial_discarded(self):
        sig = _signal(5220)
        windows, _, _ = _ramps(sig)
        np.testing.assert_array_equal(windows, sig.samples[:5120].reshape(10, 512))
        up, down = _up_down_windows(sig)
        assert up.shape == (5, 512)
        assert down.shape == (5, 512)
        np.testing.assert_array_equal(up, sig.samples[:5120].reshape(10, 512)[0::2])
        # the spectrograms ignore the partial window too
        whole = BeatSignal(samples=sig.samples[:5120], radar=P, first_ramp=sig.first_ramp)
        for spect, ref in zip(build_spectrograms(sig, P), build_spectrograms(whole, P)):
            np.testing.assert_array_equal(spect, ref)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="need at least one up/down pair"):
            _ramps(_signal(600))
        with pytest.raises(ValueError, match="need at least one up/down pair"):
            build_spectrograms(_signal(600), P)

    def test_first_ramp_down_swaps_assignment(self):
        sig_up = _signal(2048, RampPolarity.UP)
        sig_down = _signal(2048, RampPolarity.DOWN)
        u1, d1 = _up_down_windows(sig_up)
        u2, d2 = _up_down_windows(sig_down)
        np.testing.assert_array_equal(u1, d2)
        np.testing.assert_array_equal(d1, u2)
        su1, sd1 = build_spectrograms(sig_up, P)
        su2, sd2 = build_spectrograms(sig_down, P)
        np.testing.assert_array_equal(su1, sd2)
        np.testing.assert_array_equal(sd1, su2)

    def test_windows_cover_signal_in_order(self):
        sig = _signal(2048)
        up, down = _up_down_windows(sig)
        np.testing.assert_array_equal(up[0], sig.samples[:512])
        np.testing.assert_array_equal(down[0], sig.samples[512:1024])
        np.testing.assert_array_equal(up[1], sig.samples[1024:1536])


class TestFftModulus:
    def test_cosine_peak_at_bin_100(self):
        n = np.arange(512)
        x = np.cos(2 * np.pi * 100 * n / 512)
        mod = fft_modulus(x, 512)
        assert mod.shape == (257,)
        assert int(np.argmax(mod)) == 100
        assert mod[100] == pytest.approx(256.0, rel=1e-9)
        oracle = naive_dft_modulus_onesided(x, 512)
        assert np.max(np.abs(mod - oracle)) / np.max(oracle) < 1e-6

    def test_zero_window(self):
        assert np.all(fft_modulus(np.zeros(512), 512) == 0.0)

    def test_dc_window(self):
        mod = fft_modulus(np.ones(512), 512)
        assert mod[0] == pytest.approx(512.0)
        assert np.max(mod[1:]) < 1e-9

    def test_zero_padding_short_window(self):
        x = np.ones(100)
        mod = fft_modulus(x, 512)
        oracle = naive_dft_modulus_onesided(x, 512)
        np.testing.assert_allclose(mod, oracle, atol=1e-9)

    def test_overlong_window_rejected(self):
        with pytest.raises(ValueError):
            fft_modulus(np.zeros(513), 512)

    def test_keeps_the_leading_shape(self):
        x = np.random.default_rng(33).normal(size=(2, 512))
        assert fft_modulus(x[0], 512).shape == (257,)
        assert fft_modulus(x[:1], 512).shape == (1, 257)
        both = fft_modulus(x, 512)
        assert both.shape == (2, 257)
        np.testing.assert_array_equal(both[1], fft_modulus(x[1], 512))
        short = fft_modulus(np.ones((2, 3, 100)), 512)    # padded along the last axis only
        assert short.shape == (2, 3, 257)
        np.testing.assert_allclose(short[1, 2], naive_dft_modulus_onesided(np.ones(100), 512), atol=1e-9)

    def test_matches_naive_dft_on_random_windows(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.normal(size=512)
            mod = fft_modulus(x, 512)
            oracle = naive_dft_modulus_onesided(x, 512)
            assert np.max(np.abs(mod - oracle)) / np.max(np.abs(oracle)) < 1e-6

    def test_parseval_on_one_sided_transform(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            x = rng.normal(size=512)
            assert parseval_one_sided(fourier.fft(x), x) < 1e-6

    def test_fft_requires_power_of_two(self):
        with pytest.raises(ValueError):
            fourier.fft(np.zeros(500))

    def test_fft_refuses_complex_input(self):
        with pytest.raises(ValueError, match="real"):
            fourier.fft(np.ones(64) + 1j)

    def test_fft_matches_naive_on_other_sizes(self):
        # both split shapes: n1 = n2 (n an even power of two) and n2 = 2*n1
        rng = np.random.default_rng(33)
        for n in (1, 2, 4, 8, 32, 64, 256, 512, 1024, 2048):
            x = rng.normal(size=n)
            spectrum = fourier.fft(x)
            assert spectrum.shape == (n // 2 + 1,)
            np.testing.assert_allclose(spectrum, naive_dft(x)[: n // 2 + 1], atol=1e-8 * max(n, 1))

    @pytest.mark.parametrize("rows", [1, 38, 454])
    def test_fft_is_the_complex_four_step_transform_cut_to_half(self, rows):
        rng = np.random.default_rng(37)
        for n in (1 << e for e in range(13)):
            x = rng.normal(size=(rows, n))
            assert fourier.fft(x).tobytes() == four_step_fft(x)[..., : n // 2 + 1].tobytes(), n

    def test_fft_of_a_stack_is_the_fft_of_each_row(self):
        x = np.random.default_rng(34).normal(size=(2, 3, 64))
        spectrum = fourier.fft(x)
        assert spectrum.shape == (2, 3, 33)
        assert fourier.fft(x[:0]).shape == (0, 3, 33)
        for wide in (x.astype(np.longdouble), x.tolist()):     # transformed as float64
            assert fourier.fft(wide).tobytes() == spectrum.tobytes()
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(spectrum[i, j], naive_dft(x[i, j])[:33], atol=1e-8 * 64)

    def test_fft_plans_built_by_racing_threads(self, monkeypatch):
        # 8 threads, switching every microsecond, all filling the same empty plan cache
        sizes = (64, 128, 256, 512, 1024)
        x = np.random.default_rng(36).normal(size=(4, 1024))
        expected = [fourier.fft(x[:, :n]).tobytes() for n in sizes]
        monkeypatch.setattr(fourier, "_PLANS", {})

        def work(shift):
            order = sizes[shift:] + sizes[:shift]
            return [fourier.fft(x[:, :n]).tobytes() for n in order], order

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(work, i % len(sizes)) for i in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for spectra, order in results:
            assert spectra == [expected[sizes.index(n)] for n in order]
        assert sorted(fourier._PLANS) == list(sizes)

    def test_fft_bytes_do_not_depend_on_blas_threads(self):
        child = (
            "import hashlib, numpy as np\n"
            "from radarnet import fourier\n"
            "x = np.random.default_rng(35).normal(size=(454, 512))\n"
            "for rows in (1, 38, 454):\n"
            "    print(hashlib.sha256(fourier.fft(x[:rows]).tobytes()).hexdigest())\n"
        )
        src = str(Path(fourier.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = [
            subprocess.run(
                [sys.executable, "-c", child],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout.split()
            for threads in ("1", "2")
        ]
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]


class TestBuildSpectrograms:
    def test_shapes_and_column_definition(self):
        sig = _signal(5120)
        up, down = build_spectrograms(sig, P)
        assert up.shape == (257, 5)
        assert down.shape == (257, 5)
        up_w, down_w = _up_down_windows(sig)
        for j in range(5):
            np.testing.assert_array_equal(up[:, j], fft_modulus(up_w[j], 512))
            np.testing.assert_array_equal(down[:, j], fft_modulus(down_w[j], 512))

    def test_zero_signal(self):
        up, down = build_spectrograms(_signal(2048, fill=0.0), P)
        assert np.all(up == 0.0)
        assert np.all(down == 0.0)

    def test_nonnegative(self):
        up, down = build_spectrograms(_signal(4096), P)
        assert np.all(up >= 0.0)
        assert np.all(down >= 0.0)

    # another framing at the same rate, another sample rate, another sweep
    @pytest.mark.parametrize("radar, words", [
        (RadarParams(samples_per_ramp=256, fft_size=256, t_ramp=0.02), "signal of another radar"),
        (RadarParams(t_ramp=0.08), "signal of another radar"),
        (RadarParams(delta_f=150e6), "signal of another radar"),
    ])
    def test_signal_of_another_radar_refused(self, radar, words):
        sig = synthesize_point_targets([PointTarget(30.0)], 4, radar)
        with pytest.raises(ValueError) as exc:
            build_spectrograms(sig, P)
        assert str(exc.value) == f"{words}: swept by {radar}, expected {P}"


def _spect(width, height=257, fill=1.0):
    return np.full((height, width), fill)


class TestBuildTensor:
    def test_padding_layout(self):
        rng = np.random.default_rng(40)
        up, down = rng.random((257, 12)), rng.random((257, 12))
        t = build_tensor(up, down, 32)
        assert t.shape == (3, 257, 32) and t.dtype == np.float32
        np.testing.assert_allclose(t[0, :, :12], up, rtol=1e-6)
        np.testing.assert_allclose(t[1, :, :12], down, rtol=1e-6)
        assert np.all(t[:, :, 12:] == 0.0)

    def test_average_channel(self):
        rng = np.random.default_rng(41)
        t = build_tensor(rng.random((257, 8)), rng.random((257, 8)), 16)
        np.testing.assert_array_equal(t[2], (t[0] + t[1]) / 2)

    def test_overflow_without_crop(self):
        with pytest.raises(PadOverflowError):
            build_tensor(_spect(40), _spect(40), 32)

    def test_explicit_crop(self):
        t = build_tensor(_spect(40), _spect(40), 32, allow_crop=True)
        assert t.shape == (3, 257, 32)

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_rejected(self, width):
        with pytest.raises(ValueError, match=f"target width must be at least 1, got {width}"):
            build_tensor(_spect(4), _spect(4), width, allow_crop=True)

    def test_width_mismatch_by_one_padded(self):
        t = build_tensor(_spect(5), _spect(4), 8)
        assert np.all(t[1, :, 4] == 0.0)
        assert np.all(t[0, :, 4] == 1.0)

    def test_width_mismatch_beyond_one_rejected(self):
        with pytest.raises(ValueError):
            build_tensor(_spect(6), _spect(4), 8)

    def test_roundtrip_of_unpadded_region(self):
        sig = synthesize_point_targets([PointTarget(30.0, 20.0)], 10, P)
        up, down = build_spectrograms(sig, P)
        t = build_tensor(up, down, 8)
        np.testing.assert_array_equal(t[0, :, :5], up.astype(np.float32))
        np.testing.assert_array_equal(t[1, :, :5], down.astype(np.float32))

    def test_signal_label_carried(self):
        sig = synthesize_point_targets([PointTarget(30.0, 20.0)], 10, P)
        sig.label = VehicleClass.BUS
        t = signal_to_tensor(sig, P, 8)
        assert isinstance(t, RdTensor) and t.label is VehicleClass.BUS
        np.testing.assert_array_equal(t.values, build_tensor(*build_spectrograms(sig, P), 8))

    def test_pipeline_determinism(self):
        sig = synthesize_point_targets([PointTarget(30.0, 20.0)], 10, P, noise_sigma=0.1, seed=4)
        a = signal_to_tensor(sig, P, 8)
        b = signal_to_tensor(sig, P, 8)
        np.testing.assert_array_equal(a.values, b.values)

    def test_frequency_window_yields_square_input(self):
        # the full-preset shape: crop to 227 bins, pad time to 227 columns
        sig = synthesize_point_targets([PointTarget(30.0, 20.0)], 10, P)
        t = signal_to_tensor(sig, P, 227, freq_range=(0, 227))
        assert t.values.shape == (3, 227, 227)
        up, down = build_spectrograms(sig, P)
        np.testing.assert_array_equal(t.values[0, :, :5], up[:227].astype(np.float32))

    @pytest.mark.parametrize("width, freq_range", [(8, None), (227, (0, 227)), (30, (10, 210))])
    def test_tensor_shape_is_the_built_shape(self, width, freq_range):
        sig = synthesize_point_targets([PointTarget(30.0, 20.0)], 10, P)
        t = signal_to_tensor(sig, P, width, freq_range=freq_range)
        assert t.values.shape == tensor_shape(P, width, freq_range)

    @pytest.mark.parametrize("width, freq_range, words", [
        (0, None, "target width must be at least 1, got 0"),
        (32, (0, 258), "frequency window (0, 258) outside 0..257"),
        (32, (5, 5), "frequency window (5, 5) outside 0..257"),
        (32, (-1, 10), "frequency window (-1, 10) outside 0..257"),
    ])
    def test_tensor_shape_of_no_tensor_rejected(self, width, freq_range, words):
        # the rule load_dataset applies to a manifest's settings, with build_tensor's words
        with pytest.raises(ValueError) as exc:
            tensor_shape(P, width, freq_range)
        assert str(exc.value) == words

    def test_frequency_window_validated(self):
        with pytest.raises(ValueError):
            build_tensor(_spect(4), _spect(4), 8, freq_range=(0, 300))
        with pytest.raises(ValueError):
            build_tensor(_spect(4), _spect(4), 8, freq_range=(10, 10))


class TestMeanNormalization:
    def _tensor(self, fill):
        return np.full((3, 4, 5), fill, dtype=np.float32)

    def test_single_element_mean(self):
        t = self._tensor(3.5)
        np.testing.assert_array_equal(compute_mean_tensor(t[None], [0]), t)

    def test_symmetric_pair_cancels(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 4, 5)).astype(np.float32)
        neg = -x
        assert np.all(np.abs(compute_mean_tensor(np.stack([x, neg]), [0, 1])) < 1e-7)

    def test_constant_mean(self):
        mean = compute_mean_tensor(np.stack([self._tensor(2.0), self._tensor(2.0)]), [0, 1])
        np.testing.assert_array_equal(mean, self._tensor(2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_mean_tensor(np.zeros((0, 3, 4, 5), dtype=np.float32), [])

    def test_shape_mismatch_rejected(self):
        a = RdTensor(self._tensor(1.0))
        b = np.zeros((3, 4, 6), dtype=np.float32)
        with pytest.raises(ValueError):
            mean_normalize(a, b)

    def test_normalize_by_own_mean_is_zero(self):
        t = self._tensor(4.25)
        assert np.all(mean_normalize(RdTensor(t), t).values == 0.0)

    def test_zero_mean_is_identity(self):
        rng = np.random.default_rng(44)
        t = RdTensor(rng.normal(size=(3, 4, 5)).astype(np.float32))
        zero = np.zeros((3, 4, 5), dtype=np.float32)
        np.testing.assert_array_equal(mean_normalize(t, zero).values, t.values)

    def test_train_set_zero_mean_after_normalization(self):
        rng = np.random.default_rng(45)
        tensors = np.stack([(rng.random((3, 8, 6)) * 200).astype(np.float32) for _ in range(40)])
        mean = compute_mean_tensor(tensors, range(40))
        normalized = [mean_normalize(RdTensor(t), mean) for t in tensors]
        residual = np.mean([t.values.astype(np.float64) for t in normalized], axis=0)
        assert np.max(np.abs(residual)) < 1e-5

    def test_asarray_is_the_values(self):
        t = RdTensor(self._tensor(1.5))
        assert np.asarray(t) is t.values
        assert np.asarray(t, dtype=np.float32) is t.values
        assert np.asarray(t, dtype=np.float64).dtype == np.float64
        assert not np.shares_memory(np.array(t), t.values)

    def test_label_preserved(self):
        from radarnet.radar import VehicleClass

        t = RdTensor(np.zeros((3, 4, 5), dtype=np.float32), label=VehicleClass.BUS)
        out = mean_normalize(t, self._tensor(0.0))
        assert out.label is VehicleClass.BUS


class TestExportPgm:
    def test_linear_scaling_pixels(self):
        data = export_pgm(np.array([[0.0, 1.0], [2.0, 3.0]]))
        header = b"P5\n2 2\n255\n"
        assert data.startswith(header)
        pixels = data[len(header):]
        # bin 0 row renders at the bottom: top row is [2,3]
        assert list(pixels) == [170, 255, 0, 85]

    def test_constant_matrix_black(self):
        data = export_pgm(np.full((3, 4), 7.0))
        assert set(data[len(b"P5\n4 3\n255\n"):]) == {0}

    def test_header_exact(self):
        data = export_pgm(np.zeros((5, 7)))
        assert data[:13] == b"P5\n7 5\n255\n\x00\x00"
        assert len(data) == len(b"P5\n7 5\n255\n") + 35

    def test_log_mode_changes_pixels_not_shape(self):
        rng = np.random.default_rng(50)
        m = rng.random((6, 9)) * 100
        lin = export_pgm(m, log_scale=False)
        log = export_pgm(m, log_scale=True)
        header = b"P5\n9 6\n255\n"
        assert lin[: len(header)] == header
        assert log[: len(header)] == header
        assert len(lin) == len(log)
        assert lin != log

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            export_pgm(np.array([[1.0, np.nan]]))

    def test_log_mode_refuses_negative_entries_and_takes_zeros(self):
        with pytest.raises(ValueError, match=r"log-scaled PGM export needs entries >= 0, the minimum is -0\.5$"):
            export_pgm(np.array([[1.0, -0.5], [2.0, 0.0]]), log_scale=True)
        with np.errstate(all="raise"):      # no log of a value <= 0
            data = export_pgm(np.array([[0.0, 1.0], [10.0, 100.0]]), log_scale=True)
        assert data.endswith(bytes([237, 255, 0, 219]))    # -240, 0, 20 and 40 dB on a 280 dB span

    def test_spectrogram_accepted(self):
        data = export_pgm(_spect(4, height=8))
        assert data.startswith(b"P5\n4 8\n255\n")
