"""Tensor/signal file formats, generation, fold splitting and batching."""

import json
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

import radarnet.dataset as dataset_mod
from radarnet.dataset import (
    BadMagicError,
    Dataset,
    DimensionOverflowError,
    HeaderFieldError,
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
    BeatSignal,
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
        sig = BeatSignal(
            samples=rng.normal(size=2048),
            sample_rate=P.sample_rate,
            first_ramp=RampPolarity.DOWN,
            samples_per_ramp=512,
            label=VehicleClass.BUS,
        )
        path = tmp_path / "sig.rbs"
        save_signal(sig, path)
        back = load_signal(path)
        np.testing.assert_array_equal(back.samples, sig.samples)
        assert back.sample_rate == sig.sample_rate
        assert back.first_ramp is RampPolarity.DOWN
        assert back.samples_per_ramp == 512
        assert back.label is VehicleClass.BUS

    def test_unlabeled_roundtrip(self, tmp_path):
        sig = BeatSignal(np.zeros(1024), P.sample_rate)
        save_signal(sig, tmp_path / "s.rbs")
        assert load_signal(tmp_path / "s.rbs").label is None

    def test_bad_magic(self, tmp_path):
        (tmp_path / "s.rbs").write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(BadMagicError):
            load_signal(tmp_path / "s.rbs")

    @staticmethod
    def _small_rbs(tmp_path):
        sig = BeatSignal(np.arange(8.0), P.sample_rate, samples_per_ramp=4, label=VehicleClass.CAR)
        save_signal(sig, tmp_path / "s.rbs")
        return (tmp_path / "s.rbs").read_bytes()

    @pytest.mark.parametrize("offset, field, value", [
        (4, "<I", 0),           # samples per ramp
        (8, "<B", 2),           # first ramp
        (8, "<B", 255),
        (9, "<b", 6),           # class index
        (9, "<b", -2),
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
        assert small_dataset.class_counts == {c: 10 for c in "ABCDEG"}
        assert small_dataset.tensor_shape == (3, 257, 32)
        reloaded = load_dataset(small_dataset.root)
        assert len(reloaded) == 60
        assert reloaded.radar_hash == small_dataset.radar_hash

    def test_regeneration_byte_identical(self, small_dataset, tmp_path):
        again = generate_dataset(
            {c: 10 for c in "ABCDEG"}, 1, ProfileTable(), P, tmp_path / "ds2", target_width=32
        )
        for rec in small_dataset.records:
            a = (small_dataset.root / rec.path).read_bytes()
            b = (tmp_path / "ds2" / rec.path).read_bytes()
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
        try:
            ds = generate_dataset({c: 3 for c in "ABCDEG"}, 5, ProfileTable(), P, tmp_path / "ds",
                                  target_width=32, keep_signals=True)
        finally:
            sys.setswitchinterval(interval)
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        ids = [s["id"] for s in manifest["samples"]]
        assert ids == [f"{c}{k:04d}" for c in "ABCDEG" for k in range(3)]
        for i, sample_id in enumerate(ids):
            scenario = sample_vehicle_scenario(sample_id[0], 5 + i, ProfileTable())
            sig = synthesize_beat_signal(scenario, P)
            tensor = signal_to_tensor(sig, P, 32).values
            assert (tmp_path / "ds" / f"tensors/{sample_id}.rdt").read_bytes() == tensor_to_bytes(tensor)
            save_signal(sig, tmp_path / "ref.rbs")
            assert (tmp_path / "ds" / f"signals/{sample_id}.rbs").read_bytes() == (
                tmp_path / "ref.rbs"
            ).read_bytes()
            assert manifest["samples"][i]["seed"] == 5 + i
            assert manifest["samples"][i]["speed"] == scenario.speed
        assert sorted(saved) == sorted(f"{sample_id}.rdt" for sample_id in ids)
        assert len(ds) == 18

    def test_failing_sample_stops_generation(self, tmp_path, monkeypatch):
        def synthesize(scenario, radar):
            if scenario.seed == 2:
                raise NyquistError("sample 2 fails")
            return synthesize_beat_signal(scenario, radar)

        monkeypatch.setattr(dataset_mod, "synthesize_beat_signal", synthesize)
        with pytest.raises(NyquistError, match="sample 2"):
            generate_dataset({"A": 300}, 0, ProfileTable(), P, tmp_path / "ds")
        assert len(list((tmp_path / "ds" / "tensors").iterdir())) < 30
        assert not (tmp_path / "ds" / "manifest.json").exists()

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
        records = []
        for i, shape in enumerate(shapes):
            save_tensor(_random_tensor(i, shape), root / f"{i}.rdt")
            records.append(SampleRecord(f"A{i:04d}", VehicleClass.CAR, f"{i}.rdt", 25.0, i))
        return Dataset(root=root, records=records, radar_hash="x", tensor_shape=shapes[0])

    def test_rows_are_the_files_in_record_order(self, tmp_path):
        ds = self._dataset(tmp_path, [(3, 7, 5)] * 3)
        assert ds.tensors.shape == (3, 3, 7, 5) and ds.tensors.dtype == np.float32
        for row, rec in enumerate(ds.records):
            values = load_tensor(tmp_path / rec.path)
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
    sample = {"id": "A0000", "class": "A", "path": "tensors/A0000.rdt", "speed": 25.0, "seed": 1}
    manifest = {
        "format_version": 1,
        "radar_params_hash": "x",
        "tensor_shape": [3, 7, 5],
        "class_counts": {"A": 1},
        "samples": [sample],
    }
    for key, value in fields.items():
        if key in sample:
            sample[key] = value
        else:
            manifest[key] = value
    return manifest


class TestManifest:
    @staticmethod
    def _load(root, manifest):
        (root / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        return load_dataset(root)

    def test_valid_manifest_loads(self, tmp_path):
        ds = self._load(tmp_path, _manifest())
        assert ds.tensor_shape == (3, 7, 5)
        assert ds.record("A0000").class_label is VehicleClass.CAR

    @pytest.mark.parametrize("fields", [
        {"samples": 5},
        {"samples": [5]},
        {"tensor_shape": "x"},
        {"tensor_shape": [3, 7]},
        {"tensor_shape": [2, 7, 5]},
        {"tensor_shape": [3, 0, 5]},
        {"tensor_shape": [3, 7.0, 5]},
        {"tensor_shape": [3, 1 << 20, 1 << 20]},
        {"format_version": "zz"},
        {"format_version": 2},
        {"radar_params_hash": None},
        {"class": "Q"},
        {"class": "AB"},
        {"id": 7},
        {"speed": "fast"},
        {"seed": True},
        {"path": "../../x"},
        {"path": "tensors/../../x"},
        {"path": "/etc/hostname"},
    ])
    def test_malformed_manifest_rejected(self, tmp_path, fields):
        with pytest.raises(ManifestError):
            self._load(tmp_path, _manifest(**fields))

    def test_non_object_manifest_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            self._load(tmp_path, [])

    def test_every_truncation_raises_manifest_error(self, tmp_path):
        root = tmp_path / "ds"
        generate_dataset({c: 1 for c in "ABCDEG"}, 1, ProfileTable(), P, root, target_width=32)
        text = (root / "manifest.json").read_text(encoding="utf-8")
        assert load_dataset(root).class_counts == {c: 1 for c in "ABCDEG"}
        for n in range(len(text.rstrip())):   # every cut inside the JSON object
            (root / "manifest.json").write_text(text[:n], encoding="utf-8")
            with pytest.raises(ManifestError):
                load_dataset(root)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_bytes(json.dumps(_manifest()).encode() + b"\xff")
        with pytest.raises(ManifestError):
            load_dataset(tmp_path)

    def test_repeated_sample_id_rejected(self, tmp_path):
        manifest = _manifest()
        manifest["samples"].append(dict(manifest["samples"][0], path="tensors/other.rdt"))
        with pytest.raises(ManifestError, match="repeat"):
            self._load(tmp_path, manifest)

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
    """In-memory dataset, no files: enough for split logic."""
    records = []
    for label, count in per_class.items():
        for i in range(count):
            records.append(
                SampleRecord(f"{label}{i:05d}", VehicleClass(label), f"tensors/{label}{i:05d}.rdt", 25.0, i)
            )
    return Dataset(root=Path("."), records=records, radar_hash="x", tensor_shape=(3, 257, 32))


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
    IDS = {
        VehicleClass(c): [f"{c}{i}" for i in range(n)]
        for c, n in zip("ABCDEG", [10, 7, 8, 12, 9, 7])
    }

    def test_each_batch_covers_all_classes(self):
        for batch in balanced_batches(self.IDS, seed=0):
            labels = {i[0] for i in batch}
            assert labels == set("ABCDEG")
            assert len(batch) == 6

    def test_epoch_length_is_min_class_count(self):
        assert len(balanced_batches(self.IDS, seed=0)) == 7

    def test_no_replacement_within_epoch(self):
        batches = balanced_batches(self.IDS, seed=1)
        for label in "ABCDEG":
            seen = [i for b in batches for i in b if i.startswith(label)]
            assert len(seen) == len(set(seen))

    def test_deterministic_and_epoch_dependent(self):
        assert balanced_batches(self.IDS, seed=5) == balanced_batches(self.IDS, seed=5)
        assert balanced_batches(self.IDS, seed=5) != balanced_batches(self.IDS, seed=6)

    def test_missing_class_rejected(self):
        partial = {k: v for k, v in self.IDS.items() if k is not VehicleClass.BUS}
        with pytest.raises(ValueError, match="E"):
            balanced_batches(partial, seed=0)
