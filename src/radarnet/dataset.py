"""Synthetic dataset generation, persistence, fold splitting and batching.

Tensors live on disk as .rdt files (magic "RDT1", little-endian u32 dims,
float32 payload) indexed by a JSON manifest; beat signals can optionally be
kept alongside as .rbs files.  A loaded dataset holds all its tensors in one
read-only [N, 3, H, W] array, rows in manifest order.  Folds follow the
repeated-shuffle protocol: each fold independently reshuffles every class and
takes fixed train and validation quotas, the remainder becoming that fold's
test set (so test sets overlap across folds by construction).
"""

from __future__ import annotations

import json
import math
import shutil
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from typing import Mapping

import numpy as np

from .cores import run_on_cores
from .radar import (
    CLASS_ORDER,
    BeatSignal,
    ProfileTable,
    RadarParams,
    RampPolarity,
    VehicleClass,
    radar_params_hash,
    sample_vehicle_scenario,
    synthesize_beat_signal,
)
from .spectrogram import RdTensor, signal_to_tensor

TENSOR_MAGIC = b"RDT1"
SIGNAL_MAGIC = b"RBS2"
# samples per ramp, first ramp, class index, fft size, f0, delta_f, t_ramp, mount height, sample count
SIGNAL_HEADER = "<IBbIddddQ"
# of manifest.json and of a model's meta.json
FORMAT_VERSION = 2

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


class TrailingBytesError(TensorFormatError):
    pass


class HeaderFieldError(TensorFormatError):
    """A header field outside its valid range."""


class ManifestError(ValueError):
    """A manifest.json that does not describe a dataset."""


def tensor_to_bytes(values: np.ndarray) -> bytes:
    """A [3, H, W] array as an .rdt file."""
    if values.ndim != 3 or values.shape[0] != 3:
        raise ValueError(f"tensor must have shape [3, height, width], got {values.shape}")
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    return TENSOR_MAGIC + struct.pack("<III", *values.shape) + payload


def save_tensor(values: np.ndarray, path) -> None:
    Path(path).write_bytes(tensor_to_bytes(values))


def _check_header(data: bytes, magic: bytes, header_size: int) -> None:
    if len(data) < 4:
        raise TruncatedFileError("file shorter than the magic")
    if data[:4] != magic:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {magic!r}")
    if len(data) < header_size:
        raise TruncatedFileError("header truncated")


def _check_size(data: bytes, expected: int) -> None:
    if len(data) < expected:
        raise TruncatedFileError(f"header promises {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise TrailingBytesError(f"{len(data) - expected} trailing bytes")


def tensor_from_bytes(data: bytes) -> np.ndarray:
    """The float32 [3, H, W] array an .rdt file holds."""
    _check_header(data, TENSOR_MAGIC, 16)
    c, h, w = struct.unpack("<III", data[4:16])
    if min(c, h, w) == 0 or max(c, h, w) > MAX_DIM or c * h * w > MAX_ELEMENTS:
        raise DimensionOverflowError(f"unreasonable dimensions {(c, h, w)}")
    if c != 3:
        raise HeaderFieldError(f"{c} channels, expected 3 (up, down, average)")
    _check_size(data, 16 + c * h * w * 4)
    return np.frombuffer(data, dtype="<f4", count=c * h * w, offset=16).reshape(c, h, w).copy()


def load_tensor(path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


def save_signal(sig: BeatSignal, path) -> None:
    r = sig.radar
    header = SIGNAL_MAGIC + struct.pack(
        SIGNAL_HEADER,
        r.samples_per_ramp,
        0 if sig.first_ramp is RampPolarity.UP else 1,
        -1 if sig.label is None else sig.label.index,
        r.fft_size, r.f0, r.delta_f, r.t_ramp, r.mount_height,
        sig.samples.size,
    )
    Path(path).write_bytes(header + np.ascontiguousarray(sig.samples, dtype="<f8").tobytes())


def load_signal(path) -> BeatSignal:
    data = Path(path).read_bytes()
    header_size = 4 + struct.calcsize(SIGNAL_HEADER)
    _check_header(data, SIGNAL_MAGIC, header_size)
    spr, first, label_idx, fft_size, f0, delta_f, t_ramp, height, count = struct.unpack(
        SIGNAL_HEADER, data[4:header_size])
    if first not in (0, 1):
        raise HeaderFieldError(f"first-ramp byte {first}, expected 0 (up) or 1 (down)")
    if not -1 <= label_idx < len(CLASS_ORDER):
        raise HeaderFieldError(f"class index {label_idx}, expected -1..{len(CLASS_ORDER) - 1}")
    try:
        radar = RadarParams(f0, delta_f, t_ramp, spr, fft_size, height)
    except ValueError as exc:
        raise HeaderFieldError(f"header radar: {exc}") from None
    _check_size(data, header_size + count * 8)
    samples = np.frombuffer(data, dtype="<f8", count=count, offset=header_size).copy()
    label = None if label_idx < 0 else VehicleClass(CLASS_ORDER[label_idx])
    return BeatSignal(
        samples=samples,
        radar=radar,
        first_ramp=RampPolarity.UP if first == 0 else RampPolarity.DOWN,
        label=label,
    )


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
    _index: dict = field(init=False, repr=False)     # sample id -> row

    def __post_init__(self):
        self._index = {r.sample_id: row for row, r in enumerate(self.records)}

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
        return self.records[self._index[sample_id]]

    def rows(self, sample_ids) -> np.ndarray:
        """Row of each sample id in `tensors`."""
        return np.array([self._index[sid] for sid in sample_ids], dtype=np.intp)

    @cached_property
    def tensors(self) -> np.ndarray:
        """Every sample as one read-only float32 [N, *tensor_shape] array, rows
        in record order, read from the .rdt files on first use; ManifestError if a
        file resolves, through a symlink, to a place outside the root."""
        out = np.empty((len(self.records), *self.tensor_shape), dtype=np.float32)
        root = self.root.resolve()
        for row, rec in enumerate(self.records):
            path = (root / rec.path).resolve()
            if not path.is_relative_to(root):
                raise ManifestError(f"sample {rec.sample_id}: path {rec.path!r} leaves the dataset root")
            values = load_tensor(path)
            if values.shape != self.tensor_shape:
                raise TensorFormatError(
                    f"sample {rec.sample_id} has shape {values.shape}, "
                    f"manifest says {self.tensor_shape}"
                )
            out[row] = values
        out.flags.writeable = False
        return out

    def load(self, sample_id: str) -> RdTensor:
        """Read-only view of one sample's row of `tensors`."""
        row = self._index[sample_id]
        return RdTensor(values=self.tensors[row], label=self.records[row].class_label)

    def manifest_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
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


def _manifest_field(obj, key: str, kinds, where: str):
    """obj[key], which must be one of the given JSON types (never a bool)."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ManifestError(f"{where}: field {key!r} is missing or of the wrong type")
    return value


def _manifest_record(s, where: str) -> SampleRecord:
    label = _manifest_field(s, "class", str, where)
    try:
        vclass = VehicleClass(label)
    except ValueError:
        raise ManifestError(f"{where}: unknown class {label!r}") from None
    path = _manifest_field(s, "path", str, where)
    # lexical, so loading costs no filesystem call per sample
    if PurePath(path).is_absolute() or ".." in PurePath(path).parts:
        raise ManifestError(f"{where}: path {path!r} leaves the dataset root")
    return SampleRecord(
        sample_id=_manifest_field(s, "id", str, where),
        class_label=vclass,
        path=path,
        speed=_manifest_field(s, "speed", (int, float), where),
        seed=_manifest_field(s, "seed", int, where),
    )


def load_dataset(root) -> Dataset:
    """The dataset a manifest.json describes; ManifestError if it describes none."""
    root = Path(root)
    path = root / "manifest.json"
    where = str(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{where}: not a UTF-8 JSON document ({exc})") from exc
    version = _manifest_field(manifest, "format_version", int, where)
    if version != FORMAT_VERSION:
        raise ManifestError(f"{where}: format version {version}, expected {FORMAT_VERSION}")
    shape = _manifest_field(manifest, "tensor_shape", list, where)
    if (
        len(shape) != 3
        or shape[0] != 3
        or not all(type(d) is int and d > 0 for d in shape)
        or math.prod(shape) > MAX_ELEMENTS
    ):
        raise ManifestError(f"{where}: tensor shape {shape} is not a valid [3, height, width]")
    samples = _manifest_field(manifest, "samples", list, where)
    ds = Dataset(
        root=root,
        records=[_manifest_record(s, f"{where}, sample {i}") for i, s in enumerate(samples)],
        radar_hash=_manifest_field(manifest, "radar_params_hash", str, where),
        tensor_shape=tuple(shape),
    )
    if len(ds._index) != len(ds):
        raise ManifestError(f"{where}: sample ids repeat")
    return ds


def generate_dataset(
    counts_per_class: Mapping,
    base_seed: int,
    profiles: ProfileTable,
    radar: RadarParams,
    out_dir,
    *,
    target_width: int = 32,
    freq_range: tuple | None = None,
    keep_signals: bool = False,
) -> Dataset:
    """Simulate, tensorize and persist a labeled dataset.

    Sample i (class-major, classes in A..G order) uses seed base_seed + i, so
    regeneration under the same seed is byte-identical on any number of
    cores.  Each sample is simulated, tensorized and written as one job of
    run_on_cores, so the first failure stops the rest and is raised.  Files go
    to a hidden sibling, renamed to out_dir when complete, removed on failure.
    """
    out_dir = Path(out_dir)
    counts = {VehicleClass.from_label(k).value: int(v) for k, v in counts_per_class.items()}
    if not counts:
        raise ValueError("no class requested: the class-count table is empty")
    requested = []
    for label in CLASS_ORDER:
        if label in counts:
            if counts[label] < 1:
                raise ValueError(f"class {label} requested with count {counts[label]}")
            requested.append((VehicleClass(label), counts[label]))
    if not out_dir.parent.exists():
        raise FileNotFoundError(f"parent directory {out_dir.parent} does not exist")
    if out_dir.exists() and not (out_dir.is_dir() and not any(out_dir.iterdir())):
        raise FileExistsError(f"{out_dir} exists and is not an empty directory")
    partial = out_dir.with_name(f".{out_dir.name}.partial")

    jobs = [(f"{vclass.value}{k:04d}", vclass) for vclass, count in requested for k in range(count)]

    def write_sample(i):
        # each thread writes its own files, so no sample's arrays outlive its job
        sample_id, vclass = jobs[i]
        seed = base_seed + i
        scenario = sample_vehicle_scenario(vclass, seed, profiles)
        sig = synthesize_beat_signal(scenario, radar)
        tensor = signal_to_tensor(sig, radar, target_width, freq_range=freq_range).values
        rel = f"tensors/{sample_id}.rdt"
        save_tensor(tensor, partial / rel)
        if keep_signals:
            save_signal(sig, partial / f"signals/{sample_id}.rbs")
        return SampleRecord(sample_id, vclass, rel, scenario.speed, seed), tensor.shape

    partial.mkdir()
    try:
        (partial / "tensors").mkdir()
        if keep_signals:
            (partial / "signals").mkdir()
        written = run_on_cores(len(jobs), write_sample)
        ds = Dataset(
            root=out_dir,
            records=[record for record, _ in written],
            radar_hash=radar_params_hash(radar),
            tensor_shape=written[-1][1],
        )
        manifest = json.dumps(ds.manifest_dict(), indent=2, sort_keys=True) + "\n"
        (partial / "manifest.json").write_text(manifest, encoding="utf-8")
        partial.rename(out_dir)     # replaces an empty directory
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
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
    test.  Test sets of different folds therefore overlap.  A negative quota
    would put samples in two sets and an empty validation set scores every epoch 0,
    so k and both quotas must be at least 1.
    """
    if min(k, train_per_class, val_per_class) < 1:
        raise ValueError(f"folds and quotas must be at least 1, got k={k}, "
                         f"train_per_class={train_per_class}, val_per_class={val_per_class}")
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
