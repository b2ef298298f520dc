"""Run configuration: one JSON-serializable object wiring every knob.

Command-line flags override file values which override the built-in
defaults; no state comes from the environment, so a config plus a seed fully
reproduces any run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .network import ConfigError, TrainConfig
from .radar import CLASS_ORDER, ClassProfile, ProfileTable, RadarParams, VehicleClass

DESK_COUNTS = {c: 100 for c in "ABCDEG"}
# Imbalanced highway mix: car, cargo truck and bus dominate.
SKEWED_COUNTS = {"A": 250, "B": 70, "C": 80, "D": 180, "E": 140, "G": 60}

COUNT_PRESETS = {"desk": DESK_COUNTS, "skewed": SKEWED_COUNTS}

# Full-protocol quotas (400/45 per class) need a correspondingly large dataset.
QUOTA_PRESETS = {
    "desk": {"train_per_class": 40, "val_per_class": 10},
    "full": {"train_per_class": 400, "val_per_class": 45},
}


# The JSON type of each top-level field.  The nested objects (radar, profiles,
# train) check their own fields when they are built.
JSON_TYPES = {
    "radar": dict,
    "profiles": dict,
    "counts_per_class": dict,
    "target_width": int,
    "freq_range": (list, type(None)),
    "preset": str,
    "train": dict,
    "folds": int,
    "train_per_class": int,
    "val_per_class": int,
    "base_seed": int,
    "split_seed": int,
}
NESTED = {"radar", "profiles", "train"}


def _check_type(key, value, types):
    """Reject a JSON value of the wrong type; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, types):
        names = " or ".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise ConfigError(f"config field {key!r} must be {names}, got {value!r}")


def _build(cls, path, value, **given):
    """cls from the JSON object at path, its lists as tuples."""
    _check_type(path, value, dict)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in value.items()}, **given)
    except TypeError as exc:    # a field that is unknown or of the wrong type
        raise ConfigError(f"bad config field: {exc}") from exc


def canonical_counts(counts) -> dict:
    """counts keyed by class letter, in A..G order; a count that is not an integer, or a key
    that is no class or names the class of another key, is a ConfigError naming it."""
    keys = {}   # class letter -> the key naming it
    for key, count in counts.items():
        _check_type(f"counts_per_class.{key}", count, int)
        try:
            label = VehicleClass.from_label(key).value
        except ValueError as exc:
            raise ConfigError(f"counts_per_class: {exc}") from None
        if label in keys:
            raise ConfigError(f"counts_per_class names class {label} twice, as {keys[label]!r} and {key!r}")
        keys[label] = key
    return {label: counts[keys[label]] for label in CLASS_ORDER if label in keys}


@dataclass
class RunConfig:
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

    def to_dict(self) -> dict:
        d = asdict(self)
        # the profile table is keyed by VehicleClass; JSON keys are the class letters
        d["profiles"]["classes"] = {vc.value: p for vc, p in d["profiles"].pop("profiles").items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"a run config is a JSON object, not {type(d).__name__}")
        for key, value in d.items():
            if key not in JSON_TYPES:
                raise ConfigError(f"unknown config field {key!r}")
            _check_type(key, value, JSON_TYPES[key])
        if d.get("freq_range") is not None:
            if len(d["freq_range"]) != 2:
                raise ConfigError(f"config field 'freq_range' must hold two bins, got {d['freq_range']!r}")
            for bound in d["freq_range"]:
                _check_type("freq_range", bound, int)
        cfg = cls()
        if "radar" in d:
            cfg.radar = _build(RadarParams, "radar", d["radar"])
        if "profiles" in d:
            table = dict(d["profiles"])
            classes = table.pop("classes", {})
            _check_type("profiles.classes", classes, dict)
            profs = dict(cfg.profiles.profiles)
            for label, values in classes.items():
                profs[VehicleClass.from_label(label)] = _build(ClassProfile, f"profiles.classes.{label}", values)
            cfg.profiles = _build(ProfileTable, "profiles", table, profiles=profs)
        if "train" in d:
            cfg.train = _build(TrainConfig, "train", d["train"])
        for key, value in d.items():
            if key not in NESTED:
                setattr(cfg, key, tuple(value) if key == "freq_range" and value is not None else value)
        cfg.counts_per_class = canonical_counts(cfg.counts_per_class)
        return cfg

    def to_record(self, keys) -> dict:
        """The keys' slice of to_dict: what an artifact records of its run."""
        d = self.to_dict()
        return {key: d[key] for key in keys}

    @classmethod
    def from_record(cls, record: dict, keys) -> "RunConfig":
        """The run a record names, which must give every key and spell each value whole: a value
        that does not read back through to_record and JSON as written (one left to a default) is
        a ConfigError naming its key."""
        for key in keys:
            if key not in record:
                raise ConfigError(f"field {key!r} is missing")
        cfg = cls.from_dict({key: record[key] for key in keys})
        spelled = json.loads(json.dumps(cfg.to_record(keys)))
        for key in keys:
            if spelled[key] != record[key]:
                raise ConfigError(f"field {key!r} does not name every value; it reads as {spelled[key]}")
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def apply_count_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in COUNT_PRESETS:
        raise ValueError(f"unknown count preset {name!r}, expected one of {sorted(COUNT_PRESETS)}")
    cfg.counts_per_class = dict(COUNT_PRESETS[name])
    return cfg
