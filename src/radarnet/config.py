"""Run configuration: one JSON-serializable object wiring every knob.

Command-line flags override file values which override the built-in
defaults; no state comes from the environment, so a config plus a seed fully
reproduces any run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .network import PRESETS, ConfigError, TrainConfig
from .radar import CLASS_ORDER, ClassProfile, ProfileTable, RadarParams, VehicleClass
from .spectrogram import tensor_shape

DESK_COUNTS = {c: 100 for c in "ABCDEG"}
# Imbalanced highway mix: car, cargo truck and bus dominate.
SKEWED_COUNTS = {"A": 250, "B": 70, "C": 80, "D": 180, "E": 140, "G": 60}

COUNT_PRESETS = {"desk": DESK_COUNTS, "skewed": SKEWED_COUNTS}

# Full-protocol quotas (400/45 per class) need a correspondingly large dataset.
QUOTA_PRESETS = {
    "desk": {"train_per_class": 40, "val_per_class": 10},
    "full": {"train_per_class": 400, "val_per_class": 45},
}


def dump_json(obj) -> str:
    """obj as every artifact spells JSON: indented two spaces, keys sorted, one closing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def read_json(path):
    """The JSON document in the file at path; a file that is not UTF-8 JSON is a ConfigError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:   # a UnicodeDecodeError or a JSONDecodeError
        raise ConfigError(f"{path}: not a UTF-8 JSON document ({exc})") from None


def _check_object(key, value):
    """Reject a value that is not a JSON object."""
    if not isinstance(value, dict):
        raise ConfigError(f"config field {key!r} must be dict, got {value!r}")


def _check_whole(key, value, low):
    """Reject a value that is not an integer >= low; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{key} must be an integer >= {low}, got {value!r}")


def _build(cls, path, value, **given):
    """cls from the JSON object at path, its lists as tuples."""
    _check_object(path, value)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}, **given)
    except TypeError as exc:    # a field that is unknown or of the wrong type
        raise ConfigError(f"bad config field: {exc}") from exc


def canonical_classes(table, path) -> dict:
    """The values of the table at path keyed by class letter, in A..G order; a key that is not a
    string whose upper case is one class letter, or names the class of another key, is a
    ConfigError naming it."""
    _check_object(path, table)
    keys = {}   # class letter -> the key naming it
    for key in table:
        label = key.upper() if isinstance(key, str) else None
        if label not in tuple(CLASS_ORDER):     # whole letters: "" and "AB" are substrings of CLASS_ORDER
            raise ConfigError(f"{path}: unknown vehicle class {key!r}, expected one of {CLASS_ORDER}")
        if label in keys:
            raise ConfigError(f"{path} names class {label} twice, as {keys[label]!r} and {key!r}")
        keys[label] = key
    return {label: table[keys[label]] for label in CLASS_ORDER if label in keys}


def canonical_counts(counts) -> dict:
    """counts keyed by class letter, in A..G order: at least one class, each counted by an integer
    >= 1, under the class-key rule of canonical_classes."""
    counts = canonical_classes(counts, "counts_per_class")
    if not counts:
        raise ConfigError("no class requested: the class-count table is empty")
    for label, count in counts.items():
        _check_whole(f"counts_per_class.{label}", count, 1)
    return counts


@dataclass
class RunConfig:
    """Every setting of a run, from the radar to the split and the training; each way of building
    one (a JSON file, the flags, a manifest, a model meta or Python) passes __post_init__."""

    radar: RadarParams = field(default_factory=RadarParams)
    profiles: ProfileTable = field(default_factory=ProfileTable)
    counts_per_class: dict = field(default_factory=lambda: dict(DESK_COUNTS))
    target_width: int = 32
    freq_range: tuple | None = None   # (lo, hi) bin crop; None keeps all bins
    preset: str = "mini"            # network preset
    train: TrainConfig = field(default_factory=TrainConfig)
    folds: int = 10
    train_per_class: int = 40
    val_per_class: int = 10
    base_seed: int = 1              # dataset generation
    split_seed: int = 0

    def __post_init__(self):
        """Every rule on the run's own values, however it is built: a value of the wrong type or out
        of range is a ConfigError naming its field, a crop outside the radar's bins a ValueError."""
        for key, cls in (("radar", RadarParams), ("profiles", ProfileTable), ("train", TrainConfig)):
            if not isinstance(getattr(self, key), cls):
                raise ConfigError(f"{key} must be a {cls.__name__}, got {getattr(self, key)!r}")
        if not (isinstance(self.preset, str) and self.preset in PRESETS):
            raise ConfigError(f"preset must be one of {sorted(PRESETS)}, got {self.preset!r}")
        for key in ("target_width", "folds", "train_per_class", "val_per_class"):
            _check_whole(key, getattr(self, key), 1)
        for key in ("base_seed", "split_seed"):
            _check_whole(key, getattr(self, key), 0)
        if self.freq_range is not None:
            crop = self.freq_range
            if not (isinstance(crop, (list, tuple)) and len(crop) == 2
                    and all(isinstance(b, int) and not isinstance(b, bool) for b in crop)):
                raise ConfigError(f"freq_range must be None or two integer bins, got {crop!r}")
            self.freq_range = tuple(crop)
        tensor_shape(self.radar, self.target_width, self.freq_range)   # the crop fits the radar's bins
        self.counts_per_class = canonical_counts(self.counts_per_class)

    def to_dict(self) -> dict:
        d = asdict(self)
        # the profile table is keyed by VehicleClass; JSON keys are the class letters
        d["profiles"]["classes"] = {vc.value: p for vc, p in d["profiles"].pop("profiles").items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The run a JSON object names; its nested objects are built here, every value is checked
        by the constructor."""
        if not isinstance(d, dict):
            raise ConfigError(f"a run config is a JSON object, not {type(d).__name__}")
        values = dict(d)
        for key in d:
            if key not in RUN_FIELDS:
                raise ConfigError(f"unknown config field {key!r}")
        if "radar" in d:
            values["radar"] = _build(RadarParams, "radar", d["radar"])
        if "profiles" in d:
            _check_object("profiles", d["profiles"])
            table = dict(d["profiles"])
            profs = dict(ProfileTable().profiles)
            for label, spec in canonical_classes(table.pop("classes", {}), "profiles.classes").items():
                profs[VehicleClass(label)] = _build(ClassProfile, f"profiles.classes.{label}", spec)
            values["profiles"] = _build(ProfileTable, "profiles", table, profiles=profs)
        if "train" in d:
            values["train"] = _build(TrainConfig, "train", d["train"])
        return cls(**values)

    def to_record(self, keys) -> dict:
        """The keys' slice of to_dict: what an artifact records of its run."""
        d = self.to_dict()
        return {key: d[key] for key in keys}

    def write_record(self, path, version, keys, **extra) -> None:
        """Write at path the record of this run an artifact keeps: its format version, the extra
        fields and the keys' slice of to_dict."""
        Path(path).write_text(dump_json({"format_version": version, **extra, **self.to_record(keys)}),
                              encoding="utf-8")

    @classmethod
    def read_record(cls, path, version, keys, extra=()) -> tuple:
        """The run the record at path names, and the record.  The record is a JSON object of
        format_version, an int equal to version, and of the extra fields and the keys, each
        present and no other; every key's value must read back through to_record and JSON as
        written, so a value left to a default is refused.  Each refusal is a ConfigError that
        begins with the path."""
        record = read_json(path)
        try:
            if not isinstance(record, dict):
                raise ConfigError("not a JSON object")
            found = record.get("format_version")
            if type(found) is not int or found != version:
                raise ConfigError(f"format version {found!r}, expected {version}")
            for key in record:
                if key != "format_version" and key not in extra and key not in keys:
                    raise ConfigError(f"unknown field {key!r}")
            for key in (*extra, *keys):
                if key not in record:
                    raise ConfigError(f"field {key!r} is missing")
            cfg = cls.from_dict({key: record[key] for key in keys})
            spelled = json.loads(json.dumps(cfg.to_record(keys)))
            for key in keys:
                if spelled[key] != record[key]:
                    raise ConfigError(f"field {key!r} does not name every value; it reads as {spelled[key]}")
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return cfg, record


RUN_FIELDS = {f.name for f in fields(RunConfig)}


def apply_count_preset(cfg: RunConfig, name: str) -> RunConfig:
    """A new run: cfg with the named preset's class counts; cfg is left as it is."""
    if name not in COUNT_PRESETS:
        raise ValueError(f"unknown count preset {name!r}, expected one of {sorted(COUNT_PRESETS)}")
    return replace(cfg, counts_per_class=dict(COUNT_PRESETS[name]))
