"""Tensor/signal file formats, generation, fold splitting and batching."""

import hashlib
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import radarnet.dataset as dataset_mod
from radarnet.config import RunConfig
from radarnet.dataset import (
    DATA_KEYS,
    BadMagicError,
    Dataset,
    DimensionOverflowError,
    HeaderFieldError,
    MANIFEST_VERSION,
    MAX_DIM,
    ManifestError,
    SampleRecord,
    TensorFormatError,
    TrailingBytesError,
    TruncatedFileError,
    balanced_batches,
    generate_dataset,
    load_dataset,
    load_signal,
    load_tensor,
    save_signal,
    save_tensor,
    stratified_fold_split,
    tensor_to_bytes,
)
from radarnet.radar import (
    DEFAULT_PROFILES,
    BeatSignal,
    ClassProfile,
    NyquistError,
    ProfileTable,
    RadarParams,
    RampPolarity,
    VehicleClass,
    sample_vehicle_scenario,
    synthesize_beat_signal,
)
from radarnet.spectrogram import signal_to_tensor

P = RadarParams()


def _random_tensor(seed=0, shape=(3, 7, 5)):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape).astype(np.float32)


class TestTensorFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        t = _random_tensor()
        path = tmp_path / "t.rdt"
        save_tensor(t, path)
        back = load_tensor(path)
        np.testing.assert_array_equal(back, t)
        save_tensor(back, tmp_path / "t2.rdt")
        assert (tmp_path / "t.rdt").read_bytes() == (tmp_path / "t2.rdt").read_bytes()

    def test_layout_is_little_endian_f32(self):
        t = np.arange(30, dtype=np.float32).reshape(3, 2, 5)
        blob = tensor_to_bytes(t)
        assert blob[:4] == b"RDT1"
        assert struct.unpack("<III", blob[4:16]) == (3, 2, 5)
        vals = np.frombuffer(blob, dtype="<f4", offset=16)
        np.testing.assert_array_equal(vals, np.arange(30, dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rdt"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        t = _random_tensor()
        blob = tensor_to_bytes(t)
        path = tmp_path / "short.rdt"
        path.write_bytes(blob[:-8])
        with pytest.raises(TruncatedFileError):
            load_tensor(path)

    def test_every_truncation_raises_typed_error(self, tmp_path):
        blob = tensor_to_bytes(_random_tensor())
        for n in range(len(blob)):
            (tmp_path / "cut.rdt").write_bytes(blob[:n])
            with pytest.raises(TruncatedFileError):
                load_tensor(tmp_path / "cut.rdt")

    def test_dimension_overflow(self, tmp_path):
        path = tmp_path / "huge.rdt"
        path.write_bytes(b"RDT1" + struct.pack("<III", 3, 1 << 24, 1 << 24))
        with pytest.raises(DimensionOverflowError):
            load_tensor(path)

    def test_channel_count_other_than_three_rejected(self, tmp_path):
        path = tmp_path / "two.rdt"
        path.write_bytes(b"RDT1" + struct.pack("<III", 2, 7, 5) + bytes(2 * 7 * 5 * 4))
        with pytest.raises(HeaderFieldError):
            load_tensor(path)
        with pytest.raises(ValueError):
            tensor_to_bytes(np.zeros((2, 7, 5), dtype=np.float32))

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "extra.rdt"
        path.write_bytes(tensor_to_bytes(_random_tensor()) + b"junk")
        with pytest.raises(TensorFormatError):
            load_tensor(path)


class TestSignalFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        radar = RadarParams(f0=24.125e9, delta_f=150e6, t_ramp=0.02, samples_per_ramp=256,
                            fft_size=512, mount_height=6.1)
        sig = BeatSignal(
            samples=rng.normal(size=2048),
            radar=radar,
            first_ramp=RampPolarity.DOWN,
            label=VehicleClass.BUS,
        )
        path = tmp_path / "sig.rbs"
        save_signal(sig, path)
        back = load_signal(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.radar == radar
        assert back.first_ramp is RampPolarity.DOWN
        assert back.label is VehicleClass.BUS

    def test_unlabeled_roundtrip(self, tmp_path):
        sig = BeatSignal(np.zeros(1024), P)
        save_signal(sig, tmp_path / "s.rbs")
        assert load_signal(tmp_path / "s.rbs").label is None

    def test_bad_magic(self, tmp_path):
        (tmp_path / "s.rbs").write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(BadMagicError):
            load_signal(tmp_path / "s.rbs")

    @staticmethod
    def _small_rbs(tmp_path):
        sig = BeatSignal(np.arange(8.0), RadarParams(samples_per_ramp=4, fft_size=4), label=VehicleClass.CAR)
        save_signal(sig, tmp_path / "s.rbs")
        return (tmp_path / "s.rbs").read_bytes()

    @pytest.mark.parametrize("offset, field, value", [
        (4, "<I", 0),           # samples per ramp
        (8, "<B", 2),           # first ramp
        (8, "<B", 255),
        (9, "<b", 6),           # class index
        (9, "<b", -2),
        (10, "<I", 600),        # fft size
        (14, "<d", float("nan")),   # f0
    ])
    def test_bad_header_field(self, tmp_path, offset, field, value):
        blob = bytearray(self._small_rbs(tmp_path))
        struct.pack_into(field, blob, offset, value)
        (tmp_path / "bad.rbs").write_bytes(bytes(blob))
        with pytest.raises(HeaderFieldError):
            load_signal(tmp_path / "bad.rbs")

    def test_trailing_garbage(self, tmp_path):
        (tmp_path / "extra.rbs").write_bytes(self._small_rbs(tmp_path) + b"\x00")
        with pytest.raises(TrailingBytesError):
            load_signal(tmp_path / "extra.rbs")

    def test_every_truncation_raises_typed_error(self, tmp_path):
        blob = self._small_rbs(tmp_path)
        for n in range(len(blob)):
            (tmp_path / "cut.rbs").write_bytes(blob[:n])
            with pytest.raises(TruncatedFileError):
                load_signal(tmp_path / "cut.rbs")


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "ds"
    ds = generate_dataset(
        {c: 10 for c in "ABCDEG"}, 1, ProfileTable(), P, root, target_width=32
    )
    return ds


class TestGenerateDataset:
    def test_counts_and_manifest(self, small_dataset):
        assert len(small_dataset) == 60
        assert small_dataset.counts_per_class == {c: 10 for c in "ABCDEG"}
        assert small_dataset.tensor_shape == (3, 257, 32)
        reloaded = load_dataset(small_dataset.root)
        assert len(reloaded) == 60
        assert (reloaded.radar, reloaded.profiles, reloaded.target_width, reloaded.freq_range) == (
            P, ProfileTable(), 32, None)

    def test_every_sample_rebuilds_from_the_recorded_settings(self, tmp_path):
        # settings other than the defaults, so only the manifest can supply them
        profiles = ProfileTable(
            profiles={**DEFAULT_PROFILES, VehicleClass.CAR: ClassProfile((3.0, 4.5), (26.0, 30.0), (0.2, 0.3))},
            entry_range=(4.0, 6.0), snr_db=12.5,
        )
        radar = RadarParams(delta_f=150e6, mount_height=6.1)
        generate_dataset({"A": 3, "G": 2}, 9, profiles, radar, tmp_path / "ds", target_width=30,
                         freq_range=(5, 205))
        ds = load_dataset(tmp_path / "ds")
        assert (ds.radar, ds.profiles, ds.target_width, ds.freq_range) == (radar, profiles, 30, (5, 205))
        assert ds.tensor_shape == (3, 200, 30)
        assert (ds.counts_per_class, ds.base_seed) == ({"A": 3, "G": 2}, 9)
        for rec in ds.records:
            scenario = sample_vehicle_scenario(rec.class_label, rec.seed, ds.profiles)
            tensor = signal_to_tensor(synthesize_beat_signal(scenario, ds.radar), ds.radar, ds.target_width,
                                      freq_range=ds.freq_range).values
            assert ds.tensor_file(rec.sample_id).read_bytes() == tensor_to_bytes(tensor), rec.sample_id

    def test_regeneration_byte_identical(self, small_dataset, tmp_path):
        again = generate_dataset(
            {c: 10 for c in "ABCDEG"}, 1, ProfileTable(), P, tmp_path / "ds2", target_width=32
        )
        for rec in small_dataset.records:
            a = small_dataset.tensor_file(rec.sample_id).read_bytes()
            b = again.tensor_file(rec.sample_id).read_bytes()
            assert a == b, rec.sample_id
        assert (small_dataset.root / "manifest.json").read_text() == (
            tmp_path / "ds2" / "manifest.json"
        ).read_text()

    @pytest.mark.parametrize("cores", [1, 8])
    def test_files_match_serial_reference(self, tmp_path, monkeypatch, cores):
        # the thread count follows the affinity mask; 8 threads, switching
        # every microsecond, is more than the cores of a usual test host
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        saved = []

        def save_once(values, path):
            saved.append(Path(path).name)
            save_tensor(values, path)

        monkeypatch.setattr(dataset_mod, "save_tensor", save_once)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        run = RunConfig(counts_per_class={c: 3 for c in "ABCDEG"}, base_seed=5)
        try:
            ds = generate_dataset(run.counts_per_class, run.base_seed, run.profiles, run.radar, tmp_path / "ds",
                                  target_width=run.target_width, freq_range=run.freq_range, keep_signals=True)
        finally:
            sys.setswitchinterval(interval)
        ids = [f"{c}{k:04d}" for c in "ABCDEG" for k in range(3)]
        # the loaded data names the samples generation made, and the run it was made from
        loaded = load_dataset(tmp_path / "ds")
        assert [(r.sample_id, r.class_label.value, r.seed) for r in loaded.records] == [
            (sample_id, sample_id[0], 5 + i) for i, sample_id in enumerate(ids)]
        assert RunConfig(**loaded.settings) == RunConfig(**ds.settings) == run
        made, manifest = RunConfig.read_record(tmp_path / "ds" / "manifest.json", MANIFEST_VERSION, DATA_KEYS)
        record = json.loads(json.dumps(made.to_record(DATA_KEYS)))
        assert record == {key: value for key, value in manifest.items() if key != "format_version"}
        for i, sample_id in enumerate(ids):
            scenario = sample_vehicle_scenario(VehicleClass(sample_id[0]), 5 + i, ProfileTable())
            sig = synthesize_beat_signal(scenario, P)
            tensor = signal_to_tensor(sig, P, 32).values
            assert (tmp_path / "ds" / f"tensors/{sample_id}.rdt").read_bytes() == tensor_to_bytes(tensor)
            save_signal(sig, tmp_path / "ref.rbs")
            assert (tmp_path / "ds" / f"signals/{sample_id}.rbs").read_bytes() == (
                tmp_path / "ref.rbs"
            ).read_bytes()
        assert sorted(saved) == sorted(f"{sample_id}.rdt" for sample_id in ids)
        assert len(ds) == 18

    def test_failing_sample_stops_generation(self, tmp_path, monkeypatch):
        def synthesize(scenario, radar):
            if scenario.seed == 2:
                raise NyquistError("sample 2 fails")
            return synthesize_beat_signal(scenario, radar)

        saved = []

        def save_counted(values, path):
            saved.append(path)
            save_tensor(values, path)

        monkeypatch.setattr(dataset_mod, "synthesize_beat_signal", synthesize)
        monkeypatch.setattr(dataset_mod, "save_tensor", save_counted)
        with pytest.raises(NyquistError, match="sample 2"):
            generate_dataset({"A": 300}, 0, ProfileTable(), P, tmp_path / "ds")
        assert len(saved) < 30
        assert list(tmp_path.iterdir()) == []   # neither ds nor its partial sibling

    def test_existing_out_dir_must_be_empty(self, tmp_path):
        (tmp_path / "ds").mkdir()
        ds = generate_dataset({"A": 1}, 0, ProfileTable(), P, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds").records == ds.records
        with pytest.raises(FileExistsError, match="not an empty directory"):
            generate_dataset({"A": 1}, 0, ProfileTable(), P, tmp_path / "ds")
        assert [p.name for p in tmp_path.iterdir()] == ["ds"]

    def test_every_id_loads_with_manifest_shape(self, small_dataset):
        for rec in small_dataset.records:
            t = small_dataset.load(rec.sample_id)
            assert t.values.shape == small_dataset.tensor_shape
            assert t.label is rec.class_label

    def test_missing_parent_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            generate_dataset({"A": 1}, 0, ProfileTable(), P, tmp_path / "no" / "such" / "dir")

    def test_zero_count_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset({"A": 0}, 0, ProfileTable(), P, tmp_path / "ds")

    def test_empty_count_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            generate_dataset({}, 0, ProfileTable(), P, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("kwargs", [
        {"target_width": 0},
        {"target_width": -3},
        {"freq_range": (10, 5)},
        {"freq_range": (4, 4)},
        {"freq_range": (-1, 5)},
        {"freq_range": (0, P.fft_size // 2 + 2)},
    ])
    def test_bad_tensor_shape_rejected_before_any_directory(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            generate_dataset({"A": 1}, 0, ProfileTable(), P, tmp_path / "ds", **kwargs)
        assert not (tmp_path / "ds").exists()

    def test_full_frequency_window_accepted(self, tmp_path):
        ds = generate_dataset({"A": 1}, 0, ProfileTable(), P, tmp_path / "ds",
                              freq_range=(0, P.fft_size // 2 + 1))
        assert ds.tensor_shape == (3, P.fft_size // 2 + 1, 32)

    def test_unknown_class_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            generate_dataset({"Q": 3}, 0, ProfileTable(), P, tmp_path / "ds")

    def test_skewed_preset_dominant_classes(self):
        from radarnet.config import SKEWED_COUNTS

        counts = SKEWED_COUNTS
        top3 = sorted(counts, key=counts.get, reverse=True)[:3]
        assert set(top3) == {"A", "D", "E"}


class TestStackedTensors:
    @staticmethod
    def _dataset(root, shapes):
        _, height, width = shapes[0]
        ds = Dataset(root, {"A": len(shapes)}, 0, P, ProfileTable(), width, freq_range=(0, height))
        (root / "tensors").mkdir()
        for rec, shape in zip(ds.records, shapes):
            save_tensor(_random_tensor(rec.seed, shape), ds.tensor_file(rec.sample_id))
        return ds

    def test_rows_are_the_files_in_record_order(self, tmp_path):
        ds = self._dataset(tmp_path, [(3, 7, 5)] * 3)
        assert ds.tensors.shape == (3, 3, 7, 5) and ds.tensors.dtype == np.float32
        for row, rec in enumerate(ds.records):
            values = load_tensor(tmp_path / "tensors" / f"A{row:04d}.rdt")
            np.testing.assert_array_equal(ds.tensors[row], values)
            np.testing.assert_array_equal(ds.load(rec.sample_id).values, values)

    def test_shape_differing_from_manifest_rejected(self, tmp_path):
        # a (3, 7, 1) file would broadcast silently into a (3, 7, 5) row
        ds = self._dataset(tmp_path, [(3, 7, 5), (3, 7, 1)])
        with pytest.raises(TensorFormatError, match="A0001"):
            ds.load("A0000")

    def test_loaded_values_read_only(self, tmp_path):
        ds = self._dataset(tmp_path, [(3, 7, 5)])
        with pytest.raises(ValueError):
            ds.load("A0000").values[0, 0, 0] = 1.0


def _manifest(**fields):
    """A manifest of one (3, 7, 5) sample, A0000, at the default radar and profiles."""
    made = RunConfig(target_width=5, freq_range=(0, 7), counts_per_class={"A": 1}, base_seed=1)
    return {"format_version": 4, **made.to_record(DATA_KEYS), **fields}


class TestManifest:
    @staticmethod
    def _load(root, manifest):
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return load_dataset(root)

    def test_valid_manifest_loads(self, tmp_path):
        ds = self._load(tmp_path, _manifest())
        assert ds.tensor_shape == (3, 7, 5)
        assert ds.records == [SampleRecord("A0000", VehicleClass.CAR, 1)]

    def test_valid_manifest_loads_its_settings(self, tmp_path):
        wide = RunConfig(radar=RadarParams(delta_f=150e6)).to_dict()["radar"]
        ds = self._load(tmp_path, _manifest(radar=wide, freq_range=None, target_width=40))
        assert ds.radar == RadarParams(delta_f=150e6)
        assert ds.profiles == ProfileTable()
        assert ds.tensor_shape == (3, P.fft_size // 2 + 1, 40)

    @pytest.mark.parametrize("fields", [
        {"samples": 5},                                     # a leftover of format 3
        {"class_counts": {"A": 1}},                         # a leftover of format 3
        {"target_width": "x"},
        {"target_width": 0},
        {"target_width": 5.0},
        {"target_width": 1 << 20, "freq_range": None},     # a shape over MAX_ELEMENTS
        {"freq_range": [0, P.fft_size // 2 + 2]},          # outside the bins
        {"freq_range": [-1, 7]},
        {"format_version": "zz"},
        {"format_version": 2},
        {"radar": {"no_such_field": 1}},
        {"format_version": 3},
        {"counts_per_class": [1]},
        {"counts_per_class": {"A": 0}},
        {"counts_per_class": {"A": -1}},
        {"counts_per_class": {"Q": 1}},
        {"counts_per_class": {}},                           # names no class
        {"base_seed": "1"},
        {"counts_per_class": {"A": MAX_DIM + 1}},           # a total above the bound
        {"profiles": 5},
        {"profiles": {"classes": {"Q": RunConfig().to_dict()["profiles"]["classes"]["A"]}}},   # no class Q
        {"radar": {"fft_size": 600}},
        {"freq_range": [0]},
        {"counts_per_class": {c: MAX_DIM // 4 for c in "ABCDEG"}},   # each count below the bound, the total above
        {"counts_per_class": {"A": True}},
        {"counts_per_class": {"A": 1.0}},
        {"counts_per_class": {"a": 1}},                     # not as the run config spells it
        {"base_seed": True},
        {"base_seed": 1.5},
    ])
    def test_malformed_manifest_rejected(self, tmp_path, fields):
        with pytest.raises(ManifestError):
            self._load(tmp_path, _manifest(**fields))

    def test_version_2_manifest_refused(self, tmp_path):
        old = {"format_version": 2, "radar_params_hash": "db8eff3b1afb826e", "tensor_shape": [3, 7, 5],
               "class_counts": {"A": 1}, "samples": [{"id": "A0000", "class": "A", "path": "tensors/A0000.rdt",
                                                      "speed": 25.0, "seed": 1}]}
        with pytest.raises(ManifestError, match="format version 2, expected 4"):
            self._load(tmp_path, old)

    def test_version_3_manifest_refused(self, tmp_path):
        # format 3 listed every sample beside the settings that made the data
        old = {**_manifest(), "format_version": 3, "class_counts": {"A": 1}, "samples": [
            {"id": "A0000", "class": "A", "path": "tensors/A0000.rdt", "speed": 25.0, "seed": 1}]}
        del old["counts_per_class"], old["base_seed"]
        with pytest.raises(ManifestError, match="format version 3, expected 4"):
            self._load(tmp_path, old)

    @pytest.mark.parametrize("key", ["samples", "class_counts", "tensor_shape"])
    def test_unknown_field_named(self, tmp_path, key):
        with pytest.raises(ManifestError, match=f"unknown field '{key}'"):
            self._load(tmp_path, _manifest(**{key: 1}))

    @pytest.mark.parametrize("key", DATA_KEYS)
    def test_manifest_without_a_setting_rejected(self, tmp_path, key):
        manifest = _manifest()
        del manifest[key]
        with pytest.raises(ManifestError, match=f"field '{key}' is missing"):
            self._load(tmp_path, manifest)

    @pytest.mark.parametrize("key, edit", [
        ("radar", lambda m: {**m, "radar": {"delta_f": 150e6}}),
        ("profiles", lambda m: {**m, "profiles": {**m["profiles"], "classes": {
            label: p for label, p in m["profiles"]["classes"].items() if label != "B"}}}),
        ("profiles", lambda m: {**m, "profiles": {k: v for k, v in m["profiles"].items() if k != "snr_db"}}),
    ], ids=["radar-delta-f-only", "profiles-without-class-B", "profiles-without-snr-db"])
    def test_manifest_leaving_a_value_to_the_defaults_rejected(self, tmp_path, key, edit):
        # the loaded settings would be whole, but a default could move under them
        with pytest.raises(ManifestError, match=f"field '{key}' does not name every value"):
            self._load(tmp_path, edit(_manifest()))

    def test_non_object_manifest_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            self._load(tmp_path, [])

    def test_every_truncation_raises_manifest_error(self, tmp_path):
        root = tmp_path / "ds"
        generate_dataset({c: 1 for c in "ABCDEG"}, 1, ProfileTable(), P, root, target_width=32)
        text = (root / "manifest.json").read_text(encoding="utf-8")
        assert load_dataset(root).counts_per_class == {c: 1 for c in "ABCDEG"}
        for n in range(len(text.rstrip())):   # every cut inside the JSON object
            (root / "manifest.json").write_text(text[:n], encoding="utf-8")
            with pytest.raises(ManifestError):
                load_dataset(root)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(json.dumps(_manifest()).encode() + b"\xff")
        with pytest.raises(ManifestError):
            load_dataset(tmp_path)

    def test_symlink_out_of_the_root_rejected(self, tmp_path):
        outside = tmp_path / "outside.rdt"
        save_tensor(_random_tensor(0, (3, 7, 5)), outside)
        root = tmp_path / "ds"
        (root / "tensors").mkdir(parents=True)
        (root / "tensors" / "A0000.rdt").symlink_to(outside)
        ds = self._load(root, _manifest())
        with pytest.raises(ManifestError, match="A0000.*leaves the dataset root"):
            ds.tensors

    def test_symlink_within_the_root_accepted(self, tmp_path):
        (tmp_path / "tensors").mkdir()
        values = _random_tensor(0, (3, 7, 5))
        save_tensor(values, tmp_path / "real.rdt")
        (tmp_path / "tensors" / "A0000.rdt").symlink_to(tmp_path / "real.rdt")
        np.testing.assert_array_equal(self._load(tmp_path, _manifest()).tensors[0], values)


def _fake_dataset(per_class):
    """Dataset with no files: enough for split logic."""
    return Dataset(Path("."), per_class, 0, P, ProfileTable(), 32)


class TestStratifiedFoldSplit:
    def test_quota_arithmetic(self):
        ds = _fake_dataset({c: 100 for c in "ABCDEG"})
        folds = stratified_fold_split(ds, 6, 40, 10, seed=3)
        assert len(folds) == 6
        for f in folds:
            assert len(f.train_ids) == 240
            assert len(f.val_ids) == 60
            assert len(f.test_ids) == 300

    def test_disjoint_and_complete(self):
        ds = _fake_dataset({c: 60 for c in "ABCDEG"})
        all_ids = {r.sample_id for r in ds.records}
        for f in stratified_fold_split(ds, 4, 30, 10, seed=0):
            train, val, test = set(f.train_ids), set(f.val_ids), set(f.test_ids)
            assert not (train & val) and not (train & test) and not (val & test)
            assert train | val | test == all_ids

    def test_full_protocol_quotas(self):
        counts = {"A": 3100, "B": 1100, "C": 1200, "D": 2000, "E": 1700, "G": 881}
        assert sum(counts.values()) == 9981
        ds = _fake_dataset(counts)
        folds = stratified_fold_split(ds, 2, 400, 45, seed=1)
        for f in folds:
            assert len(f.train_ids) == 2400
            assert len(f.val_ids) == 270
            assert len(f.test_ids) == 7311

    def test_deterministic(self):
        ds = _fake_dataset({c: 50 for c in "ABCDEG"})
        a = stratified_fold_split(ds, 3, 20, 5, seed=9)
        b = stratified_fold_split(ds, 3, 20, 5, seed=9)
        assert a == b

    def test_folds_differ(self):
        ds = _fake_dataset({c: 50 for c in "ABCDEG"})
        folds = stratified_fold_split(ds, 2, 20, 5, seed=9)
        assert set(folds[0].train_ids) != set(folds[1].train_ids)

    def test_insufficient_class_named(self):
        ds = _fake_dataset({"A": 50, "B": 50, "C": 50, "D": 50, "E": 50, "G": 12})
        with pytest.raises(ValueError, match="class G"):
            stratified_fold_split(ds, 1, 10, 2, seed=0)

    @pytest.mark.parametrize("k, train, val", [(0, 10, 2), (2, 0, 2), (2, -3, 2), (2, 10, -1), (2, 10, 0)])
    def test_quotas_below_one_rejected(self, k, train, val):
        # a negative quota would put samples in two sets; no validation set scores every epoch 0
        ds = _fake_dataset({c: 100 for c in "ABCDEG"})
        with pytest.raises(ValueError, match="at least 1"):
            stratified_fold_split(ds, k, train, val, seed=0)

    def test_per_class_quota_in_train(self):
        ds = _fake_dataset({"A": 30, "B": 24, "C": 25, "D": 40, "E": 22, "G": 21})
        folds = stratified_fold_split(ds, 2, 15, 5, seed=2)
        for f in folds:
            for label in "ABCDEG":
                assert sum(1 for i in f.train_ids if i.startswith(label)) == 15
                assert sum(1 for i in f.val_ids if i.startswith(label)) == 5


class TestBalancedBatches:
    LABELS = [VehicleClass(c) for c, n in zip("ABCDEG", [10, 7, 8, 12, 9, 7]) for _ in range(n)]

    def test_each_batch_covers_all_classes(self):
        for batch in balanced_batches(self.LABELS, seed=0):
            labels = {self.LABELS[pos].value for pos in batch}
            assert labels == set("ABCDEG")
            assert len(batch) == 6

    def test_epoch_length_is_min_class_count(self):
        assert len(balanced_batches(self.LABELS, seed=0)) == 7

    def test_no_replacement_within_epoch(self):
        batches = balanced_batches(self.LABELS, seed=1)
        for label in "ABCDEG":
            seen = [pos for b in batches for pos in b if self.LABELS[pos].value == label]
            assert len(seen) == len(set(seen))

    def test_deterministic_and_epoch_dependent(self):
        assert balanced_batches(self.LABELS, seed=5) == balanced_batches(self.LABELS, seed=5)
        assert balanced_batches(self.LABELS, seed=5) != balanced_batches(self.LABELS, seed=6)

    def test_missing_class_rejected(self):
        partial = [label for label in self.LABELS if label is not VehicleClass.BUS]
        with pytest.raises(ValueError, match="E"):
            balanced_batches(partial, seed=0)


class TestPinnedDraws:
    """The draws of the fold split and of the batches, as computed once and written down, so a
    change to how they are made that moves any of them shows here."""

    def test_split_ids(self):
        ds = _fake_dataset({"A": 4, "B": 5, "C": 4, "D": 6, "E": 4, "G": 5})
        folds = stratified_fold_split(ds, 2, 2, 1, seed=3)
        assert [(f.train_ids, f.val_ids, f.test_ids) for f in folds] == [
            (("A0003", "A0002", "B0003", "B0000", "C0001", "C0000", "D0004", "D0003", "E0002", "E0000",
              "G0002", "G0003"),
             ("A0001", "B0002", "C0002", "D0000", "E0001", "G0001"),
             ("A0000", "B0001", "B0004", "C0003", "D0005", "D0002", "D0001", "E0003", "G0004", "G0000")),
            (("A0000", "A0001", "B0002", "B0001", "C0003", "C0000", "D0002", "D0003", "E0002", "E0001",
              "G0001", "G0003"),
             ("A0002", "B0004", "C0001", "D0000", "E0003", "G0002"),
             ("A0003", "B0000", "B0003", "C0002", "D0004", "D0005", "D0001", "E0000", "G0004", "G0000")),
        ]

    def test_split_permutes_ids_sorted_as_strings(self):
        # A10000 sorts between A1000 and A1001, so generation order would draw other ids
        ds = _fake_dataset({"A": 10001, "B": 4, "C": 4, "D": 4, "E": 4, "G": 4})
        (fold,) = stratified_fold_split(ds, 1, 2, 1, seed=3)
        assert fold.train_ids == ("A3193", "A8925", "B0003", "B0001", "C0003", "C0000", "D0002", "D0003",
                                  "E0003", "E0000", "G0003", "G0001")
        assert fold.val_ids == ("A0096", "B0002", "C0001", "D0000", "E0001", "G0002")
        assert len(fold.test_ids) == 10003 and fold.test_ids[:3] == ("A3088", "A5106", "A3178")
        assert hashlib.sha256(" ".join(fold.test_ids).encode()).hexdigest() == (
            "626f497c5458948dbfbb16e0f8d2faca0e8172721b1f2c32150fc943afa82be1")

    def test_batch_positions(self):
        # classes A..G of 4, 4, 3, 3, 2 and 3 positions, interleaved
        labels = [VehicleClass(c) for c in "GABDCAEBDGACBEDAGCB"]
        assert balanced_batches(labels, [0, 1, 2]) == [(5, 7, 17, 8, 6, 16), (1, 12, 4, 3, 13, 0)]
