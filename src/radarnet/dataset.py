"""Synthetic dataset generation, persistence, fold splitting and batching.

Tensors live on disk as .rdt files (magic "RDT1", little-endian u32 dims,
float32 payload) indexed by a JSON manifest; beat signals can optionally be
kept alongside as .rbs files.  Folds follow the repeated-shuffle protocol:
each fold independently reshuffles every class and takes fixed train and
validation quotas, the remainder becoming that fold's test set (so test sets
overlap across folds by construction).
"""

from __future__ import annotations

import hashlib
import json
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .radar import (
    CLASS_ORDER,
    BeatSignal,
    ProfileTable,
    RadarParams,
    RampPolarity,
    VehicleClass,
    sample_vehicle_scenario,
    synthesize_beat_signal,
)
from .spectrogram import RdTensor, signal_to_tensor

TENSOR_MAGIC = b"RDT1"
SIGNAL_MAGIC = b"RBS1"

MAX_DIM = 1 << 20
MAX_ELEMENTS = 1 << 26


class TensorFormatError(ValueError):
    """Malformed .rdt/.rbs payload."""


class BadMagicError(TensorFormatError):
    pass


class TruncatedFileError(TensorFormatError):
    pass


class DimensionOverflowError(TensorFormatError):
    pass


def tensor_to_bytes(tensor: RdTensor) -> bytes:
    c, h, w = tensor.values.shape
    payload = np.ascontiguousarray(tensor.values, dtype="<f4").tobytes()
    return TENSOR_MAGIC + struct.pack("<III", c, h, w) + payload


def save_tensor(tensor: RdTensor, path) -> None:
    Path(path).write_bytes(tensor_to_bytes(tensor))


def tensor_from_bytes(data: bytes, label: VehicleClass | None = None) -> RdTensor:
    if len(data) < 4:
        raise TruncatedFileError("file shorter than the magic")
    if data[:4] != TENSOR_MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {TENSOR_MAGIC!r}")
    if len(data) < 16:
        raise TruncatedFileError("header truncated")
    c, h, w = struct.unpack("<III", data[4:16])
    if min(c, h, w) == 0 or max(c, h, w) > MAX_DIM or c * h * w > MAX_ELEMENTS:
        raise DimensionOverflowError(f"unreasonable dimensions {(c, h, w)}")
    expected = 16 + c * h * w * 4
    if len(data) < expected:
        raise TruncatedFileError(
            f"header promises {expected} bytes, file has {len(data)}"
        )
    if len(data) > expected:
        raise TensorFormatError(f"{len(data) - expected} trailing bytes")
    values = np.frombuffer(data, dtype="<f4", count=c * h * w, offset=16)
    return RdTensor(values=values.reshape(c, h, w).copy(), label=label)


def load_tensor(path, label: VehicleClass | None = None) -> RdTensor:
    return tensor_from_bytes(Path(path).read_bytes(), label=label)


def save_signal(sig: BeatSignal, path) -> None:
    label_idx = -1 if sig.label is None else sig.label.index
    header = SIGNAL_MAGIC + struct.pack(
        "<IBbdQ",
        sig.samples_per_ramp,
        0 if sig.first_ramp is RampPolarity.UP else 1,
        label_idx,
        sig.sample_rate,
        sig.samples.size,
    )
    Path(path).write_bytes(header + np.ascontiguousarray(sig.samples, dtype="<f8").tobytes())


def load_signal(path) -> BeatSignal:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise TruncatedFileError("file shorter than the magic")
    if data[:4] != SIGNAL_MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {SIGNAL_MAGIC!r}")
    header_size = 4 + struct.calcsize("<IBbdQ")
    if len(data) < header_size:
        raise TruncatedFileError("header truncated")
    spr, first, label_idx, rate, count = struct.unpack("<IBbdQ", data[4:header_size])
    expected = header_size + count * 8
    if len(data) < expected:
        raise TruncatedFileError(f"header promises {expected} bytes, file has {len(data)}")
    samples = np.frombuffer(data, dtype="<f8", count=count, offset=header_size).copy()
    label = None if label_idx < 0 else VehicleClass(CLASS_ORDER[label_idx])
    return BeatSignal(
        samples=samples,
        sample_rate=rate,
        first_ramp=RampPolarity.UP if first == 0 else RampPolarity.DOWN,
        samples_per_ramp=spr,
        label=label,
    )


def radar_params_hash(p: RadarParams) -> str:
    blob = json.dumps(p.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class SampleRecord:
    sample_id: str
    class_label: VehicleClass
    path: str           # tensor file, relative to the dataset root
    speed: float
    seed: int


@dataclass
class Dataset:
    """Manifest-backed collection of labeled tensors."""

    root: Path
    records: list
    radar_hash: str
    tensor_shape: tuple
    format_version: int = 1
    _cache: dict = field(default_factory=dict, repr=False)
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {r.sample_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    @property
    def class_counts(self) -> dict:
        counts = {c: 0 for c in CLASS_ORDER}
        for rec in self.records:
            counts[rec.class_label.value] += 1
        return {c: n for c, n in counts.items() if n}

    def ids_by_class(self) -> dict:
        out = {}
        for rec in self.records:
            out.setdefault(rec.class_label, []).append(rec.sample_id)
        return out

    def record(self, sample_id: str) -> SampleRecord:
        return self._index[sample_id]

    def load(self, sample_id: str) -> RdTensor:
        cached = self._cache.get(sample_id)
        if cached is None:
            rec = self.record(sample_id)
            cached = load_tensor(self.root / rec.path, label=rec.class_label)
            if cached.values.shape != self.tensor_shape:
                raise TensorFormatError(
                    f"sample {sample_id} has shape {cached.values.shape}, "
                    f"manifest says {self.tensor_shape}"
                )
            self._cache[sample_id] = cached
        return cached

    def manifest_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "radar_params_hash": self.radar_hash,
            "tensor_shape": list(self.tensor_shape),
            "class_counts": self.class_counts,
            "samples": [
                {
                    "id": r.sample_id,
                    "class": r.class_label.value,
                    "path": r.path,
                    "speed": r.speed,
                    "seed": r.seed,
                }
                for r in self.records
            ],
        }


def save_manifest(ds: Dataset) -> None:
    text = json.dumps(ds.manifest_dict(), indent=2, sort_keys=True) + "\n"
    (ds.root / "manifest.json").write_text(text, encoding="utf-8")


def load_dataset(root) -> Dataset:
    root = Path(root)
    manifest = json.loads((root / "manifest.json").read_text(encoding="utf-8"))
    records = [
        SampleRecord(
            sample_id=s["id"],
            class_label=VehicleClass(s["class"]),
            path=s["path"],
            speed=s["speed"],
            seed=s["seed"],
        )
        for s in manifest["samples"]
    ]
    return Dataset(
        root=root,
        records=records,
        radar_hash=manifest["radar_params_hash"],
        tensor_shape=tuple(manifest["tensor_shape"]),
        format_version=manifest["format_version"],
    )


def _make_sample(args):
    vclass, seed, profiles, radar, target_width, freq_range, keep_signal = args
    scenario = sample_vehicle_scenario(vclass, seed, profiles)
    sig = synthesize_beat_signal(scenario, radar)
    tensor = signal_to_tensor(sig, radar, target_width, freq_range=freq_range)
    return scenario, (sig if keep_signal else None), tensor


def generate_dataset(
    counts_per_class: Mapping,
    base_seed: int,
    profiles: ProfileTable,
    radar: RadarParams,
    out_dir,
    *,
    target_width: int = 32,
    freq_range: tuple | None = None,
    workers: int = 1,
    keep_signals: bool = False,
) -> Dataset:
    """Simulate, tensorize and persist a labeled dataset.

    Sample i (class-major, classes in A..G order) uses seed base_seed + i, so
    regeneration under the same seed is byte-identical regardless of the
    worker count.
    """
    out_dir = Path(out_dir)
    if not out_dir.parent.exists():
        raise FileNotFoundError(f"parent directory {out_dir.parent} does not exist")
    (out_dir / "tensors").mkdir(parents=True, exist_ok=True)
    if keep_signals:
        (out_dir / "signals").mkdir(parents=True, exist_ok=True)

    counts = {VehicleClass.from_label(k).value: int(v) for k, v in counts_per_class.items()}
    requested = []
    for label in CLASS_ORDER:
        if label in counts:
            if counts[label] < 1:
                raise ValueError(f"class {label} requested with count {counts[label]}")
            requested.append((VehicleClass(label), counts[label]))

    jobs = []
    i = 0
    for vclass, count in requested:
        for k in range(count):
            sample_id = f"{vclass.value}{k:04d}"
            jobs.append(
                (sample_id, (vclass, base_seed + i, profiles, radar, target_width, freq_range, keep_signals))
            )
            i += 1

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_make_sample, [j[1] for j in jobs]))
    else:
        results = [_make_sample(j[1]) for j in jobs]

    records = []
    tensor_shape = None
    for (sample_id, (vclass, seed, *_)), (scenario, sig, tensor) in zip(jobs, results):
        rel = f"tensors/{sample_id}.rdt"
        save_tensor(tensor, out_dir / rel)
        if keep_signals and sig is not None:
            save_signal(sig, out_dir / f"signals/{sample_id}.rbs")
        records.append(
            SampleRecord(
                sample_id=sample_id,
                class_label=vclass,
                path=rel,
                speed=scenario.speed,
                seed=seed,
            )
        )
        tensor_shape = tensor.values.shape

    ds = Dataset(
        root=out_dir,
        records=records,
        radar_hash=radar_params_hash(radar),
        tensor_shape=tensor_shape,
    )
    save_manifest(ds)
    return ds


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_ids: tuple
    val_ids: tuple
    test_ids: tuple


def stratified_fold_split(
    ds: Dataset,
    k: int,
    train_per_class: int,
    val_per_class: int,
    seed: int,
) -> list:
    """k independently shuffled stratified draws with fixed per-class quotas.

    Each fold reshuffles every class (seeded by (seed, fold)), takes
    train_per_class then val_per_class samples, and sends the remainder to
    test.  Test sets of different folds therefore overlap.
    """
    by_class = ds.ids_by_class()
    folds = []
    need = train_per_class + val_per_class + 1
    for fold in range(k):
        rng = np.random.default_rng([int(seed), fold])
        train, val, test = [], [], []
        for label in CLASS_ORDER:
            vclass = VehicleClass(label)
            ids = sorted(by_class.get(vclass, []))
            if len(ids) < need:
                raise ValueError(
                    f"class {label} has {len(ids)} samples; "
                    f"need at least {need} for quotas {train_per_class}+{val_per_class}"
                )
            perm = rng.permutation(len(ids))
            shuffled = [ids[j] for j in perm]
            train.extend(shuffled[:train_per_class])
            val.extend(shuffled[train_per_class : train_per_class + val_per_class])
            test.extend(shuffled[train_per_class + val_per_class :])
        folds.append(
            FoldSplit(
                fold_index=fold,
                train_ids=tuple(train),
                val_ids=tuple(val),
                test_ids=tuple(test),
            )
        )
    return folds


def balanced_batches(ids_by_class: Mapping, seed) -> list:
    """One epoch of class-balanced batches: each batch holds exactly one
    sample of every class, in A..G order.

    The epoch spans min-class-count batches; every class is drawn without
    replacement within the epoch, larger classes being subsampled.  Reshuffle
    by calling again with a fresh (per-epoch) seed.
    """
    normalized = {}
    for label, ids in ids_by_class.items():
        normalized[VehicleClass.from_label(label)] = list(ids)
    missing = [c for c in CLASS_ORDER if not normalized.get(VehicleClass(c))]
    if missing:
        raise ValueError(f"training set is missing class(es) {', '.join(missing)}")

    rng = np.random.default_rng(seed)
    shuffled = {}
    for label in CLASS_ORDER:
        vclass = VehicleClass(label)
        ids = normalized[vclass]
        shuffled[vclass] = [ids[j] for j in rng.permutation(len(ids))]
    n_batches = min(len(v) for v in shuffled.values())
    return [
        tuple(shuffled[VehicleClass(label)][b] for label in CLASS_ORDER)
        for b in range(n_batches)
    ]
