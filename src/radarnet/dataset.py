"""Synthetic dataset generation, the three binary formats, fold splitting and batching.

This module holds every binary layout of the package: tensors as .rdt files
(magic "RDT1", little-endian u32 dims, float32 payload), beat signals as .rbs
files and network weights as .rdw files (named float32 records).  One bounded
reader takes each file's fields from the front, and each refusal is a
FormatError whose message begins with the file's path.  A dataset's tensors sit
beside a JSON manifest that records only the settings that made them (radar,
profiles, width, crop, class counts and base seed): each sample's id, class,
seed and file follow from the counts and the base seed.  Beat signals can
optionally be kept alongside as .rbs files.  A loaded dataset
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
from .network import Network
from .spectrogram import RdTensor, signal_to_tensor, tensor_shape

TENSOR_MAGIC = b"RDT1"
SIGNAL_MAGIC = b"RBS2"
WEIGHTS_MAGIC = b"RDW1"
# samples per ramp, first ramp, class index, fft size, f0, delta_f, t_ramp, mount height, sample count
SIGNAL_HEADER = "IBbIddddQ"
MANIFEST_VERSION = 4
# the RunConfig fields a manifest records, and all it records: the settings that made the data
DATA_KEYS = ("radar", "profiles", "target_width", "freq_range", "counts_per_class", "base_seed")

MAX_DIM = 1 << 20
MAX_ELEMENTS = 1 << 26
MAX_RANK = 32       # the most dimensions NumPy 1.25 gives an array


class FormatError(ValueError):
    """A malformed .rdt, .rbs or .rdw file; the message begins with the file's path."""


class BadMagicError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class DimensionOverflowError(FormatError):
    pass


class TrailingBytesError(FormatError):
    pass


class HeaderFieldError(FormatError):
    """A header field outside its valid range."""


class NonFiniteValueError(FormatError):
    """A NaN or an infinity in a payload; no file the package writes holds one."""


class WeightShapeError(FormatError):
    """Stored record shapes disagree with the network; names the layers."""


class ManifestError(ValueError):
    """A manifest.json that does not describe a dataset."""


def _check_finite(values, path, what) -> None:
    """Refuse values holding a NaN or an infinity, on write and on read alike."""
    if not np.isfinite(values).all():
        raise NonFiniteValueError(f"{path}: {what} holds a NaN or infinite value")


class _Reader:
    """The one reader of the three formats: a file's bytes, its magic checked, then taken field
    by field from the front.  Every refusal is a FormatError that begins with the file's path."""

    def __init__(self, path, magic: bytes):
        self.path, self.data, self.pos = path, memoryview(Path(path).read_bytes()), 0
        found = self.take(4, "magic")
        if found != magic:
            raise self.refusal(BadMagicError, f"bad magic {bytes(found)!r}, expected {magic!r}")

    def refusal(self, cls, message: str) -> FormatError:
        return cls(f"{self.path}: {message}")

    def take(self, n: int, what: str) -> memoryview:
        """The next n bytes, field `what`; refuses before it slices past the end."""
        if n > len(self.data) - self.pos:
            raise self.refusal(TruncatedFileError, f"file truncated in {what} at byte {self.pos}: "
                                                   f"{self.pos + n} bytes promised, file has {len(self.data)}")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def unpack(self, fields: str, what: str) -> tuple:
        """The next little-endian struct fields."""
        return struct.unpack("<" + fields, self.take(struct.calcsize("<" + fields), what))

    def floats(self, dtype: str, count: int, what: str) -> np.ndarray:
        """A read-only view of the next count float values, refused unless all are finite."""
        values = np.frombuffer(self.take(count * np.dtype(dtype).itemsize, what), dtype=dtype)
        _check_finite(values, self.path, what)
        return values

    def end(self) -> None:
        if self.pos != len(self.data):
            raise self.refusal(TrailingBytesError, f"{len(self.data) - self.pos} trailing bytes")


def tensor_to_bytes(values: np.ndarray) -> bytes:
    """A [3, H, W] array as an .rdt file."""
    if values.ndim != 3 or values.shape[0] != 3:
        raise ValueError(f"tensor must have shape [3, height, width], got {values.shape}")
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    return TENSOR_MAGIC + struct.pack("<III", *values.shape) + payload


def save_tensor(values: np.ndarray, path) -> None:
    blob = tensor_to_bytes(values)
    _check_finite(np.frombuffer(blob, dtype="<f4", offset=16), path, "payload")     # the float32 values as written
    Path(path).write_bytes(blob)


def load_tensor(path) -> np.ndarray:
    """The float32 [3, H, W] array an .rdt file holds, a read-only view of its bytes."""
    file = _Reader(path, TENSOR_MAGIC)
    c, h, w = dims = file.unpack("III", "header")
    if min(dims) == 0 or max(dims) > MAX_DIM or c * h * w > MAX_ELEMENTS:
        raise file.refusal(DimensionOverflowError, f"unreasonable dimensions {dims}")
    if c != 3:
        raise file.refusal(HeaderFieldError, f"{c} channels, expected 3 (up, down, average)")
    values = file.floats("<f4", c * h * w, "payload").reshape(dims)
    file.end()
    return values


def save_signal(sig: BeatSignal, path) -> None:
    _check_finite(sig.samples, path, "payload")
    r = sig.radar
    header = SIGNAL_MAGIC + struct.pack(
        "<" + SIGNAL_HEADER,
        r.samples_per_ramp,
        0 if sig.first_ramp is RampPolarity.UP else 1,
        -1 if sig.label is None else sig.label.index,
        r.fft_size, r.f0, r.delta_f, r.t_ramp, r.mount_height,
        sig.samples.size,
    )
    Path(path).write_bytes(header + np.ascontiguousarray(sig.samples, dtype="<f8").tobytes())


def load_signal(path) -> BeatSignal:
    file = _Reader(path, SIGNAL_MAGIC)
    spr, first, label_idx, fft_size, f0, delta_f, t_ramp, height, count = file.unpack(SIGNAL_HEADER, "header")
    if first not in (0, 1):
        raise file.refusal(HeaderFieldError, f"first-ramp byte {first}, expected 0 (up) or 1 (down)")
    if not -1 <= label_idx < len(CLASS_ORDER):
        raise file.refusal(HeaderFieldError, f"class index {label_idx}, expected -1..{len(CLASS_ORDER) - 1}")
    try:
        radar = RadarParams(f0, delta_f, t_ramp, spr, fft_size, height)
    except ValueError as exc:
        raise file.refusal(HeaderFieldError, f"header radar: {exc}") from None
    # an aligned copy: the payload starts at byte 54, and the FFT takes over twice as long on an unaligned view
    samples = file.floats("<f8", count, "payload").copy()
    file.end()
    label = None if label_idx < 0 else VehicleClass(CLASS_ORDER[label_idx])
    return BeatSignal(
        samples=samples,
        radar=radar,
        first_ramp=RampPolarity.UP if first == 0 else RampPolarity.DOWN,
        label=label,
    )


def save_weights(net: Network, path) -> None:
    """Write all parameters as named float32 records from their own buffers; a non-finite one writes nothing."""
    params = net.params()
    records = {name: np.ascontiguousarray(params[name], dtype="<f4") for name in sorted(params)}
    for name, arr in records.items():
        _check_finite(arr, path, f"record {name!r}")
    with open(path, "wb") as f:
        f.write(WEIGHTS_MAGIC + struct.pack("<I", len(records)))
        for name, arr in records.items():
            encoded = name.encode("utf-8")
            f.write(struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape))
            f.write(arr)


def read_weight_records(path) -> dict:
    """Each record of an .rdw file, name -> read-only float32 view of the file's bytes."""
    file = _Reader(path, WEIGHTS_MAGIC)
    (count,) = file.unpack("I", "record count")
    records = {}
    for _ in range(count):
        (name_len,) = file.unpack("I", "name length")
        try:
            name = str(file.take(name_len, "record name"), "utf-8")
        except UnicodeDecodeError:
            raise file.refusal(HeaderFieldError, f"record name ending at byte {file.pos} is not UTF-8") from None
        if name in records:
            raise file.refusal(HeaderFieldError, f"duplicate record {name!r}")
        (rank,) = file.unpack("I", f"rank of {name!r}")
        dims = file.unpack(f"{rank}I", f"shape of {name!r}")
        if rank > MAX_RANK or 0 in dims:     # shapes NumPy may refuse: a zero lets the other dims overflow
            raise file.refusal(DimensionOverflowError, f"record {name!r} has unreasonable dimensions {dims}")
        records[name] = file.floats("<f4", math.prod(dims), f"record {name!r}").reshape(dims)
    file.end()
    return records


def load_weights(net: Network, path) -> None:
    """Load parameters in place through set_params.  A record that names no parameter of the
    network, or a parameter without a record of its shape, raises WeightShapeError before
    anything is loaded.
    """
    records = read_weight_records(path)
    params = net.params()
    extra = sorted(set(records) - set(params))
    if extra:
        raise WeightShapeError(f"{path}: weight records matching no parameter: " + ", ".join(extra))
    bad = {name.split(".")[0] for name, arr in params.items()
           if name not in records or records[name].shape != arr.shape}
    if bad:
        raise WeightShapeError(f"{path}: missing or mismatched weight records for layer(s): "
                               + ", ".join(sorted(bad)))
    net.set_params(records)


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
        if math.prod(self.tensor_shape) > MAX_ELEMENTS:     # a tensor no reader would take
            raise ValueError(f"tensor shape {self.tensor_shape} exceeds {MAX_ELEMENTS} elements")

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
                raise HeaderFieldError(f"{path}: sample {rec.sample_id} has shape {values.shape}, "
                                       f"manifest says {shape}")
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
