"""Synthetic dataset generation, persistence, fold splitting and batching.

Tensors live on disk as .rdt files (magic "RDT1", little-endian u32 dims,
float32 payload) beside a JSON manifest that records only the settings that
made them (radar, profiles, width, crop, class counts and base seed): each
sample's id, class, seed and file follow from the counts and the base seed.
Beat signals can optionally be kept alongside as .rbs files.  A loaded dataset
holds all its tensors in one read-only [N, 3, H, W] array, rows in generation
order.  Folds and batches are drawn by one rule: group by class in A..G order,
then permute each class with one seeded generator, one class after another.
Folds follow the repeated-shuffle protocol: each fold independently reshuffles
every class's ids and takes fixed train and validation quotas, the remainder
becoming that fold's test set (so test sets overlap across folds by
construction).  An epoch's batches reshuffle positions into a fold's training
split and take one per class per batch.
"""

from __future__ import annotations

import math
import shutil
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

from .config import RunConfig
from .cores import run_on_cores
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
from .spectrogram import RdTensor, signal_to_tensor, tensor_shape

TENSOR_MAGIC = b"RDT1"
SIGNAL_MAGIC = b"RBS2"
# samples per ramp, first ramp, class index, fft size, f0, delta_f, t_ramp, mount height, sample count
SIGNAL_HEADER = "<IBbIddddQ"
MANIFEST_VERSION = 4
# the RunConfig fields a manifest records, and all it records: the settings that made the data
DATA_KEYS = ("radar", "profiles", "target_width", "freq_range", "counts_per_class", "base_seed")

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


def load_tensor(path) -> np.ndarray:
    """The float32 [3, H, W] array an .rdt file holds."""
    data = Path(path).read_bytes()
    _check_header(data, TENSOR_MAGIC, 16)
    c, h, w = struct.unpack("<III", data[4:16])
    if min(c, h, w) == 0 or max(c, h, w) > MAX_DIM or c * h * w > MAX_ELEMENTS:
        raise DimensionOverflowError(f"unreasonable dimensions {(c, h, w)}")
    if c != 3:
        raise HeaderFieldError(f"{c} channels, expected 3 (up, down, average)")
    _check_size(data, 16 + c * h * w * 4)
    return np.frombuffer(data, dtype="<f4", count=c * h * w, offset=16).reshape(c, h, w).copy()


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
    seed: int


def sample_records(counts_per_class: Mapping, base_seed: int) -> list:
    """Every sample of data made with these class counts and base seed, in generation order:
    sample i (class-major, classes in A..G order) is the k-th of its class, id {class}{k:04d},
    with seed base_seed + i, and its tensor is tensors/{id}.rdt under the dataset root."""
    order = [(VehicleClass(c), k) for c in CLASS_ORDER for k in range(counts_per_class.get(c, 0))]
    return [SampleRecord(f"{vclass.value}{k:04d}", vclass, base_seed + i) for i, (vclass, k) in enumerate(order)]


@dataclass
class Dataset:
    """Labeled tensors under root and the settings that made them (DATA_KEYS): sample r of
    sample_records(counts_per_class, base_seed) is sample_vehicle_scenario(r.class_label, r.seed,
    profiles), swept by radar and tensorized at target_width and freq_range."""

    root: Path
    counts_per_class: dict
    base_seed: int
    radar: RadarParams
    profiles: ProfileTable
    target_width: int
    freq_range: tuple | None = None

    def __post_init__(self):
        # the settings pass the run's rules, before any record is built or file written
        made = RunConfig(**self.settings)
        self.counts_per_class, self.freq_range = made.counts_per_class, made.freq_range
        if len(self) > MAX_DIM:     # so a small manifest cannot ask for billions of records
            raise ValueError(f"{len(self)} samples requested, more than {MAX_DIM}")

    @cached_property
    def records(self) -> list:
        return sample_records(self.counts_per_class, self.base_seed)

    @cached_property
    def _index(self) -> dict:
        """Sample id -> row."""
        return {r.sample_id: row for row, r in enumerate(self.records)}

    @property
    def tensor_shape(self) -> tuple:
        return tensor_shape(self.radar, self.target_width, self.freq_range)

    def __len__(self) -> int:
        return sum(self.counts_per_class.values())

    @property
    def settings(self) -> dict:
        """The RunConfig values this data fixes: the settings that made it."""
        return {key: getattr(self, key) for key in DATA_KEYS}

    def tensor_file(self, sample_id: str) -> Path:
        return self.root / "tensors" / f"{sample_id}.rdt"

    def rows(self, sample_ids) -> np.ndarray:
        """Row of each sample id in `tensors`."""
        return np.array([self._index[sid] for sid in sample_ids], dtype=np.intp)

    @cached_property
    def tensors(self) -> np.ndarray:
        """Every sample as one read-only float32 [N, *tensor_shape] array, rows
        in record order, read from the .rdt files on first use; ManifestError if a
        file resolves, through a symlink, to a place outside the root."""
        shape = self.tensor_shape
        out = np.empty((len(self), *shape), dtype=np.float32)
        root = self.root.resolve()
        for row, rec in enumerate(self.records):
            path = self.tensor_file(rec.sample_id).resolve()
            if not path.is_relative_to(root):
                raise ManifestError(f"sample {rec.sample_id}: its tensor file leaves the dataset root for {path}")
            values = load_tensor(path)
            if values.shape != shape:
                raise TensorFormatError(f"sample {rec.sample_id} has shape {values.shape}, manifest says {shape}")
            out[row] = values
        out.flags.writeable = False
        return out

    def load(self, sample_id: str) -> RdTensor:
        """Read-only view of one sample's row of `tensors`."""
        row = self._index[sample_id]
        return RdTensor(values=self.tensors[row], label=self.records[row].class_label)


def load_dataset(root) -> Dataset:
    """The dataset a manifest.json describes; ManifestError if it describes none."""
    root = Path(root)
    path = root / "manifest.json"
    try:
        made, _ = RunConfig.read_record(path, MANIFEST_VERSION, DATA_KEYS)
    except ValueError as exc:     # its message begins with the path
        raise ManifestError(str(exc)) from None
    try:
        shape = tensor_shape(made.radar, made.target_width, made.freq_range)
        if math.prod(shape) > MAX_ELEMENTS:
            raise ValueError(f"tensor shape {shape} exceeds {MAX_ELEMENTS} elements")
        return Dataset(root, **{key: getattr(made, key) for key in DATA_KEYS})
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None


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

    Sample i of sample_records uses seed base_seed + i, so regeneration under
    the same seed is byte-identical on any number of cores.  Each sample is
    simulated, tensorized and written as one job of run_on_cores, so the first
    failure stops the rest and is raised.  Files go to a hidden sibling,
    renamed to out_dir when complete, removed on failure.
    """
    out_dir = Path(out_dir)
    partial = out_dir.with_name(f".{out_dir.name}.partial")
    ds = Dataset(partial, counts_per_class, base_seed, radar, profiles, target_width, freq_range)
    if not out_dir.parent.exists():
        raise FileNotFoundError(f"parent directory {out_dir.parent} does not exist")
    if out_dir.exists() and not (out_dir.is_dir() and not any(out_dir.iterdir())):
        raise FileExistsError(f"{out_dir} exists and is not an empty directory")
    records = ds.records    # built here, not by the first threads at once

    def write_sample(i):
        # each thread writes its own files, so no sample's arrays outlive its job
        rec = records[i]
        sig = synthesize_beat_signal(sample_vehicle_scenario(rec.class_label, rec.seed, profiles), radar)
        save_tensor(signal_to_tensor(sig, radar, target_width, freq_range=freq_range).values,
                    ds.tensor_file(rec.sample_id))
        if keep_signals:
            save_signal(sig, partial / "signals" / f"{rec.sample_id}.rbs")

    partial.mkdir()
    try:
        (partial / "tensors").mkdir()
        if keep_signals:
            (partial / "signals").mkdir()
        run_on_cores(len(records), write_sample)
        RunConfig(**ds.settings).write_record(partial / "manifest.json", MANIFEST_VERSION, DATA_KEYS)
        partial.rename(out_dir)     # replaces an empty directory
    except BaseException:
        shutil.rmtree(partial, ignore_errors=True)
        raise
    return replace(ds, root=out_dir)


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train_ids: tuple
    val_ids: tuple
    test_ids: tuple


def _shuffled_by_class(items, classes, seeds):
    """For each seed, the items grouped by class in A..G order, each group in item order and
    then permuted by one generator seeded with that seed, one class after another.  This one
    rule draws both the folds and the batches; the groups are formed once for all seeds."""
    groups = {VehicleClass(label): [] for label in CLASS_ORDER}
    for item, vclass in zip(items, classes):
        groups[vclass].append(item)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        yield [[group[j] for j in rng.permutation(len(group))] for group in groups.values()]


def stratified_fold_split(
    ds: Dataset,
    k: int,
    train_per_class: int,
    val_per_class: int,
    seed: int,
) -> list:
    """k independently shuffled stratified draws with fixed per-class quotas.

    Each fold reshuffles every class's ids, sorted as strings, with generator
    [seed, fold], takes train_per_class then val_per_class samples, and sends
    the remainder to test.  Test sets of different folds therefore overlap.  A
    negative quota would put samples in two sets and an empty validation set
    scores every epoch 0, so k and both quotas must be at least 1.
    """
    if min(k, train_per_class, val_per_class) < 1:
        raise ValueError(f"folds and quotas must be at least 1, got k={k}, "
                         f"train_per_class={train_per_class}, val_per_class={val_per_class}")
    records = sorted(ds.records, key=lambda r: r.sample_id)
    draws = _shuffled_by_class([r.sample_id for r in records], [r.class_label for r in records],
                               [[int(seed), fold] for fold in range(k)])
    folds = []
    need = train_per_class + val_per_class + 1
    for fold, by_class in enumerate(draws):
        train, val, test = [], [], []
        for label, shuffled in zip(CLASS_ORDER, by_class):
            if len(shuffled) < need:
                raise ValueError(
                    f"class {label} has {len(shuffled)} samples; "
                    f"need at least {need} for quotas {train_per_class}+{val_per_class}"
                )
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


def balanced_batches(labels, seed) -> list:
    """One epoch of class-balanced batches over a training split whose position i
    holds class labels[i]: each batch is a tuple of positions, one of every class,
    in A..G order.

    The epoch spans min-class-count batches; every class is drawn without
    replacement within the epoch, larger classes being subsampled.  Reshuffle
    by calling again with a fresh (per-epoch) seed.
    """
    (shuffled,) = _shuffled_by_class(range(len(labels)), labels, [seed])
    missing = [label for label, positions in zip(CLASS_ORDER, shuffled) if not positions]
    if missing:
        raise ValueError(f"training set is missing class(es) {', '.join(missing)}")
    return list(zip(*shuffled))
