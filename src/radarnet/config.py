"""Run configuration: one JSON-serializable object wiring every knob.

Command-line flags override file values which override the built-in
defaults; no state comes from the environment, so a config plus a seed fully
reproduces any run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .network import TrainConfig
from .radar import ClassProfile, ProfileTable, RadarParams, VehicleClass

DESK_COUNTS = {c: 100 for c in "ABCDEG"}
# Imbalanced highway mix: car, cargo truck and bus dominate.
SKEWED_COUNTS = {"A": 250, "B": 70, "C": 80, "D": 180, "E": 140, "G": 60}

COUNT_PRESETS = {"desk": DESK_COUNTS, "skewed": SKEWED_COUNTS}

# Full-protocol quotas (400/45 per class) need a correspondingly large dataset.
QUOTA_PRESETS = {
    "desk": {"train_per_class": 40, "val_per_class": 10},
    "full": {"train_per_class": 400, "val_per_class": 45},
}


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
        profs = {
            vc.value: {
                "length_range": list(p.length_range),
                "speed_range": list(p.speed_range),
                "reflectivity_range": list(p.reflectivity_range),
                "height_range": list(p.height_range),
                "scatterer_spacing": p.scatterer_spacing,
                "cluster_gap": p.cluster_gap,
                "trailer_gain": p.trailer_gain,
            }
            for vc, p in self.profiles.profiles.items()
        }
        return {
            "radar": asdict(self.radar),
            "profiles": {
                "classes": profs,
                "entry_range": list(self.profiles.entry_range),
                "footprint_length": self.profiles.footprint_length,
                "v_min": self.profiles.v_min,
                "v_max": self.profiles.v_max,
                "snr_db": self.profiles.snr_db,
            },
            "counts_per_class": dict(self.counts_per_class),
            "target_width": self.target_width,
            "freq_range": list(self.freq_range) if self.freq_range else None,
            "preset": self.preset,
            "train": asdict(self.train),
            "folds": self.folds,
            "train_per_class": self.train_per_class,
            "val_per_class": self.val_per_class,
            "base_seed": self.base_seed,
            "split_seed": self.split_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls()
        known = {
            "counts_per_class", "target_width", "freq_range", "preset", "folds",
            "train_per_class", "val_per_class", "base_seed", "split_seed",
        }
        for key in d:
            if key not in known | {"radar", "profiles", "train"}:
                raise ValueError(f"unknown config field {key!r}")
        if "radar" in d:
            cfg.radar = RadarParams.from_dict(d["radar"])
        if "profiles" in d:
            pd = {
                k: tuple(v) if isinstance(v, list) else v
                for k, v in d["profiles"].items()
            }
            classes = pd.pop("classes", None)
            profs = dict(cfg.profiles.profiles)
            if classes:
                for label, fields in classes.items():
                    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()}
                    profs[VehicleClass.from_label(label)] = ClassProfile(**fields)
            cfg.profiles = ProfileTable(profiles=profs, **pd)
        if "train" in d:
            cfg.train = TrainConfig(**d["train"])
        for key in known:
            if key in d:
                value = d[key]
                if key == "freq_range" and value is not None:
                    value = tuple(value)
                setattr(cfg, key, value)
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def load_config(path=None) -> RunConfig:
    if path is None:
        return RunConfig()
    text = Path(path).read_text(encoding="utf-8")
    return RunConfig.from_dict(json.loads(text))


def apply_count_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in COUNT_PRESETS:
        raise ValueError(f"unknown count preset {name!r}, expected one of {sorted(COUNT_PRESETS)}")
    cfg.counts_per_class = dict(COUNT_PRESETS[name])
    return cfg


def apply_quota_preset(cfg: RunConfig, name: str) -> RunConfig:
    if name not in QUOTA_PRESETS:
        raise ValueError(f"unknown quota preset {name!r}, expected one of {sorted(QUOTA_PRESETS)}")
    cfg.train_per_class = QUOTA_PRESETS[name]["train_per_class"]
    cfg.val_per_class = QUOTA_PRESETS[name]["val_per_class"]
    return cfg
