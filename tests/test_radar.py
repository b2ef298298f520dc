"""Waveform physics, beat-frequency algebra and scenario synthesis."""

import math

import numpy as np
import pytest

from radarnet.radar import (
    ClassProfile,
    NyquistError,
    PointTarget,
    ProfileTable,
    RadarParams,
    SPEED_OF_LIGHT,
    RampPolarity,
    Scenario,
    VehicleClass,
    beat_frequencies,
    invert_beat,
    radar_params_hash,
    sample_vehicle_scenario,
    synthesize_beat_signal,
    synthesize_point_targets,
)

from _oracles import naive_beat_signal, spectrogram_peak_frequencies

P = RadarParams()


class TestRadarParams:
    def test_derived_quantities(self):
        assert P.sample_rate == pytest.approx(12800.0)
        assert P.wavelength == pytest.approx(299792458.0 / 24e9)
        assert P.bin_hz == pytest.approx(25.0)
        assert P.mount_height == 5.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"f0": 0.0},
            {"delta_f": -1.0},
            {"t_ramp": 0.0},
            {"samples_per_ramp": 1},
            {"fft_size": 256},
            {"fft_size": 600},
            {"f0": float("nan")},
            {"delta_f": float("inf")},
            {"t_ramp": float("nan")},
            {"samples_per_ramp": 512.0},
            {"fft_size": 512.0},
            {"mount_height": 0.0},
            {"mount_height": float("nan")},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RadarParams(**kwargs)

    def test_equal_radars_hash_alike(self):
        assert radar_params_hash(P) == "db8eff3b1afb826e"    # what manifests and model metas record
        spelled = RadarParams(f0=24000000000, delta_f=np.float32(120e6), t_ramp=0.04,
                              samples_per_ramp=np.int64(512), fft_size=512, mount_height=5.3)
        assert spelled == P
        assert radar_params_hash(spelled) == radar_params_hash(P)
        assert [type(v) for v in vars(spelled).values()] == [float, float, float, int, int, float]


class TestBeatFrequencies:
    def test_static_50m(self):
        up, down = beat_frequencies(50.0, 0.0, P)
        assert up == pytest.approx(1000.69, abs=0.01)
        assert down == pytest.approx(up)

    def test_moving_target(self):
        up, down = beat_frequencies(10.0, 30.0, P)
        assert up == pytest.approx(5003.5, abs=0.1)
        assert down == pytest.approx(-4603.2, abs=0.1)

    def test_origin(self):
        assert beat_frequencies(0.0, 0.0, P) == (0.0, 0.0)

    def test_negative_range_rejected(self):
        with pytest.raises(ValueError):
            beat_frequencies(-1.0, 0.0, P)

    def test_sign_of_velocity_irrelevant(self):
        assert beat_frequencies(20.0, 15.0, P) == beat_frequencies(20.0, -15.0, P)

    def test_zero_speed_equal_beats(self):
        rng = np.random.default_rng(5)
        for r in rng.uniform(0, 100, 50):
            up, down = beat_frequencies(r, 0.0, P)
            assert up == down


class TestInvertBeat:
    def test_documented_pair(self):
        r, v = invert_beat(5003.5, -4603.2, P)
        assert r == pytest.approx(10.0, abs=0.01)
        assert v == pytest.approx(30.0, abs=0.01)

    def test_equal_beats_zero_doppler(self):
        f = 777.0
        r, v = invert_beat(f, f, P)
        assert v == 0.0
        assert r == pytest.approx((P.t_ramp / P.delta_f) * f * SPEED_OF_LIGHT / 2)

    def test_origin(self):
        assert invert_beat(0.0, 0.0, P) == (0.0, 0.0)

    def test_negative_implied_range_rejected(self):
        with pytest.raises(ValueError):
            invert_beat(-10.0, -20.0, P)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(21)
        r = rng.uniform(0.0, 100.0, 1000)
        v = rng.uniform(0.0, 38.0, 1000)
        up, down = beat_frequencies(r, v, P)
        r2, v2 = invert_beat(up, down, P)
        np.testing.assert_allclose(r2, r, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(v2, v, rtol=1e-9, atol=1e-9)


class TestPointTargetSynthesis:
    def test_static_target_peaks_at_predicted_bin(self):
        sig = synthesize_point_targets([PointTarget(50.0)], 10, P)
        up_f, down_f = spectrogram_peak_frequencies(sig, P)
        expected, _ = beat_frequencies(50.0, 0.0, P)
        assert np.all(np.abs(up_f - expected) <= P.bin_hz)
        assert np.all(np.abs(down_f - expected) <= P.bin_hz)

    def test_two_static_targets_two_peaks(self):
        sig = synthesize_point_targets([PointTarget(20.0), PointTarget(50.0)], 6, P)
        from _oracles import naive_dft_modulus_onesided

        f20, _ = beat_frequencies(20.0, 0.0, P)
        f50, _ = beat_frequencies(50.0, 0.0, P)
        b20, b50 = round(f20 / P.bin_hz), round(f50 / P.bin_hz)
        window = sig.samples[: P.samples_per_ramp]
        mod = naive_dft_modulus_onesided(window, P.fft_size)
        # each predicted bin dominates its neighborhood
        for b in (b20, b50):
            lo, hi = max(b - 8, 0), b + 9
            assert abs(int(np.argmax(mod[lo:hi])) + lo - b) <= 1

    def test_moving_target_signed_recovery(self):
        sig = synthesize_point_targets([PointTarget(10.0, 30.0)], 8, P)
        up_f, down_f = spectrogram_peak_frequencies(sig, P)
        f_up, f_down = beat_frequencies(10.0, 30.0, P)
        assert np.all(np.abs(up_f - f_up) <= P.bin_hz)
        assert np.all(np.abs(down_f - abs(f_down)) <= P.bin_hz)

    def test_nyquist_guard(self):
        with pytest.raises(NyquistError):
            synthesize_point_targets([PointTarget(100.0, 38.0)], 4, P)

    def test_needs_targets_and_ramps(self):
        with pytest.raises(ValueError):
            synthesize_point_targets([], 4, P)
        with pytest.raises(ValueError):
            synthesize_point_targets([PointTarget(10.0)], 1, P)


def _single_scatterer_scenario(**overrides):
    base = dict(
        class_label=VehicleClass.CAR,
        speed=25.0,
        entry_distance=5.0,
        footprint_length=30.0,
        offsets=(0.0,),
        amplitudes=(1.0,),
        noise_sigma=0.0,
        seed=3,
    )
    base.update(overrides)
    return Scenario(**base)


_THREE_SCATTERERS = {"offsets": (0.0, 2.0, 4.0), "amplitudes": (1.0, 0.5, 0.25)}


class TestSynthesizeBeatSignal:
    def test_even_ramps_exact_multiple(self):
        sig = synthesize_beat_signal(_single_scatterer_scenario(), P)
        assert sig.num_full_ramps % 2 == 0
        assert sig.samples.size == sig.num_full_ramps * P.samples_per_ramp
        assert sig.radar == P
        assert sig.label is VehicleClass.CAR
        from radarnet.spectrogram import build_spectrograms

        up, down = build_spectrograms(sig, P)
        assert up.shape[1] == down.shape[1]

    def test_duration_covers_pass(self):
        s = _single_scatterer_scenario(speed=20.0)
        sig = synthesize_beat_signal(s, P)
        expected = math.ceil((30.0 / 20.0) / P.t_ramp)
        expected += expected % 2
        assert sig.num_full_ramps == expected

    def test_zero_amplitudes_zero_signal(self):
        s = _single_scatterer_scenario(offsets=(0.0, 2.0), amplitudes=(0.0, 0.0))
        sig = synthesize_beat_signal(s, P)
        assert np.all(sig.samples == 0.0)

    def test_deterministic_under_seed(self):
        s = _single_scatterer_scenario(noise_sigma=0.05)
        a = synthesize_beat_signal(s, P)
        b = synthesize_beat_signal(s, P)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_ramp_peaks_track_predicted_beats(self):
        # moving single scatterer: every window's spectral peak must match
        # the geometry-predicted beat at that ramp's midpoint
        s = _single_scatterer_scenario(speed=25.0)
        sig = synthesize_beat_signal(s, P)
        up_f, down_f = spectrogram_peak_frequencies(sig, P)
        h = P.mount_height
        for i in range(sig.num_full_ramps):
            t_mid = (i + 0.5) * P.t_ramp
            d = 5.0 + 25.0 * t_mid
            slant = math.hypot(h, d)
            v_r = 25.0 * d / slant
            f_up, f_down = beat_frequencies(slant, v_r, P)
            w = i // 2
            env = 0.5 - 0.5 * math.cos(2 * math.pi * (d - 5.0) / 30.0)
            if env < 0.05:
                continue  # peak ill-defined when the envelope is nearly closed
            if i % 2 == 0:
                assert abs(up_f[w] - f_up) <= 2 * P.bin_hz
            else:
                assert abs(down_f[w] - abs(f_down)) <= 2 * P.bin_hz

    def test_nyquist_guard_on_fast_wide_scene(self):
        s = _single_scatterer_scenario(speed=37.0, footprint_length=120.0, entry_distance=40.0)
        with pytest.raises(NyquistError):
            synthesize_beat_signal(s, P)

    # (scenario, first ramp, radar): every class with its noise, a down-first
    # pass, the 2-ramp minimum, ramp lengths whose sample index split
    # (n = a*B + b, B a power of two >= sqrt(spr)) leaves a partial last row:
    # 300 samples (B = 32) and the prime 37 (B = 8), and a front entering
    # right under the radar, the nearest scatterer a Scenario accepts
    ORACLE_CASES = [
        *[(lambda c=c: sample_vehicle_scenario(c, 41, ProfileTable()), RampPolarity.UP, P)
          for c in "ABCDEG"],
        (lambda: sample_vehicle_scenario("B", 42, ProfileTable()), RampPolarity.DOWN, P),
        (lambda: _single_scatterer_scenario(footprint_length=1.0), RampPolarity.UP, P),
        (lambda: _single_scatterer_scenario(footprint_length=1.0), RampPolarity.DOWN, P),
        (lambda: _single_scatterer_scenario(footprint_length=5.5, noise_sigma=0.1), RampPolarity.UP, P),
        (lambda: _single_scatterer_scenario(footprint_length=8.0), RampPolarity.DOWN, P),
        (lambda: _single_scatterer_scenario(speed=10.0, **_THREE_SCATTERERS, noise_sigma=0.05),
         RampPolarity.UP, RadarParams(samples_per_ramp=300, fft_size=512)),
        (lambda: _single_scatterer_scenario(speed=2.0, footprint_length=1.0, **_THREE_SCATTERERS),
         RampPolarity.DOWN, RadarParams(samples_per_ramp=37, fft_size=64)),
        (lambda: _single_scatterer_scenario(entry_distance=0.0, footprint_length=2.0), RampPolarity.DOWN, P),
    ]

    @pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
    def test_matches_one_shot_oracle_bit_for_bit(self, case):
        make, first, params = self.ORACLE_CASES[case]
        scenario = make()
        sig = synthesize_beat_signal(scenario, params, first_ramp=first)
        expected = naive_beat_signal(scenario, params, first_ramp_up=first is RampPolarity.UP)
        assert sig.samples.shape == expected.shape
        # Kept under its old name; the check is a bound, not equality.  The
        # phase split moves a sample by a few ulps of its phase per unit of
        # amplitude, and 1e-11 is about 30x the largest move on the desk data.
        bound = 1e-11 * sum(scenario.amplitudes)
        assert np.max(np.abs(sig.samples - expected)) <= bound

    def test_oracle_cases_cover_partial_split_rows(self):
        sprs = {params.samples_per_ramp for _, _, params in self.ORACLE_CASES}
        assert {P.samples_per_ramp, 300, 37} <= sprs
        counts = {
            synthesize_beat_signal(make(), params).num_full_ramps
            for make, _, params in self.ORACLE_CASES
        }
        assert 2 in counts

    def test_scenario_invariants(self):
        with pytest.raises(ValueError):
            _single_scatterer_scenario(speed=0.0)
        with pytest.raises(ValueError):
            _single_scatterer_scenario(offsets=(), amplitudes=())
        with pytest.raises(ValueError, match="amplitude"):
            _single_scatterer_scenario(amplitudes=(-1.0,))
        with pytest.raises(ValueError, match="one amplitude per offset"):
            _single_scatterer_scenario(offsets=(0.0, 2.0), amplitudes=(1.0,))

    @pytest.mark.parametrize("overrides", [
        {"entry_distance": -20.0},
        {"entry_distance": -0.5, "offsets": (0.0, 1.0), "amplitudes": (1.0, 1.0)},
        {"offsets": (0.0, -0.1), "amplitudes": (1.0, 1.0)},
    ])
    def test_scatterer_ahead_of_the_radar_rejected(self, overrides):
        with pytest.raises(ValueError, match="at or behind the radar"):
            _single_scatterer_scenario(**overrides)

    def test_arrays_stored_as_float_tuples(self):
        s = _single_scatterer_scenario(offsets=np.array([0.0, 2.0]), amplitudes=[1, 0.5])
        assert s.offsets == (0.0, 2.0) and s.amplitudes == (1.0, 0.5)
        assert s == _single_scatterer_scenario(offsets=(0.0, 2.0), amplitudes=(1.0, 0.5))
        assert all(type(v) is float for v in s.offsets + s.amplitudes)


class TestScenarioSampling:
    def test_deterministic(self):
        a = sample_vehicle_scenario("G", 7)
        b = sample_vehicle_scenario("G", 7)
        assert a == b

    def test_speed_within_clamped_profile_range(self):
        table = ProfileTable()
        for label in "ABCDEG":
            prof = table.profiles[VehicleClass(label)]
            for seed in range(25):
                s = sample_vehicle_scenario(label, seed, table)
                lo = max(prof.speed_range[0], table.v_min)
                hi = min(prof.speed_range[1], table.v_max)
                assert lo <= s.speed <= hi

    def test_length_within_profile(self):
        table = ProfileTable()
        max_len = table.profiles[VehicleClass.MOTORCYCLE].length_range[1]
        for seed in range(25):
            s = sample_vehicle_scenario("G", seed, table)
            length = max(s.offsets)
            assert length <= max_len + 1e-9

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            sample_vehicle_scenario("Z", 0)

    def test_distinct_classes_distinct_scenes(self):
        assert sample_vehicle_scenario("A", 3) != sample_vehicle_scenario("B", 3)

    def test_global_clamp_applies(self):
        table = ProfileTable(
            profiles={VehicleClass.CAR: ClassProfile((3.5, 5.0), (50.0, 60.0), (0.1, 0.2))}
        )
        s = sample_vehicle_scenario("A", 1, table)
        assert s.speed == table.v_max

    @pytest.mark.parametrize("fields, words", [
        ({"entry_range": (-20.0, -18.0)}, "scatterers must sit at or behind the radar"),
        ({"entry_range": (2.0, -1.0)}, "scatterers must sit at or behind the radar"),
        ({"entry_range": (8.0, 3.0)}, "lo <= hi"),
        ({"entry_range": (3.0, float("inf"))}, "entry_range must be two finite numbers"),
        ({"entry_range": (3.0,)}, "entry_range must be two finite numbers"),
        ({"entry_range": 3.0}, "entry_range must be two finite numbers"),
        ({"footprint_length": 0.0}, "footprint_length"),
        ({"footprint_length": float("nan")}, "footprint_length"),
        ({"v_min": 0.0}, "v_min"),
        ({"v_min": 40.0}, "v_min <= v_max"),
        ({"v_max": float("inf")}, "v_max"),
        ({"snr_db": float("nan")}, "snr_db"),
    ])
    def test_profile_table_ranges_checked_when_built(self, fields, words):
        with pytest.raises(ValueError, match=words):
            ProfileTable(**fields)

    def test_profile_table_edges_accepted(self):
        table = ProfileTable(entry_range=(0.0, 0.0), v_min=20.0, v_max=20.0, snr_db=-5.0)
        assert sample_vehicle_scenario("A", 1, table).entry_distance == 0.0

    @pytest.mark.parametrize("spacing", [0.0, -1.0, float("nan")])
    def test_nonpositive_scatterer_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="scatterer_spacing"):
            ClassProfile((3.5, 5.0), (25.0, 36.0), (0.1, 0.2), spacing)


class TestSingleTargetRecovery:
    def test_peak_bins_recover_range_and_speed(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            r = rng.uniform(5.0, 100.0)
            v = rng.uniform(0.0, 38.0)
            f_up, f_down = beat_frequencies(r, v, P)
            if max(abs(f_up), abs(f_down)) >= P.sample_rate / 2 * 0.98:
                continue
            sig = synthesize_point_targets([PointTarget(r, v)], 4, P, seed=int(rng.integers(1 << 31)))
            up_f, down_f = spectrogram_peak_frequencies(sig, P)
            f_up_est = up_f[0]
            f_down_est = math.copysign(down_f[0], f_down)
            r_est, v_est = invert_beat(f_up_est, f_down_est, P)
            assert abs(r_est - r) <= 1.25
            assert abs(v_est - v) <= 0.16
