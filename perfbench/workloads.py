"""The four benchmark workloads, from signal to label.

Each workload calls radarnet the way its command-line front end does: the
run configuration's defaults, public entry points only, and no optional
knob the command line would not pass.  A workload has

- setup(seed, root): makes its inputs from the seed and returns them as a
  state; it is timed as set-up, and every set-up gives an equal state;
- op(state, i): one timed operation;
- check(state, result): True when the operation's output is correct;
  untimed and untraced, it keeps on the workload object what report needs,
  so checks compare operations across set-ups;
- report(durations): the end-to-end figures under the names a user of the
  command line would look for, as (name, value, unit, samples).

Functions are always reached through their module (evaluation.train_fold,
not a bare train_fold) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import time
from pathlib import Path

import numpy as np

from radarnet import dataset, evaluation, network, spectrogram
from radarnet.config import RunConfig, apply_count_preset

import metrics

# test accuracy a mini-net fold must reach; criterion 6 asks 0.90 on the mean of ten folds
TRAIN_MINI_ACCURACY_FLOOR = 0.85
# The predict model only has to be a trained mini net: a small fold keeps the
# three set-ups short, as `radarnet train --train-per-class 20
# --val-per-class 5 --epochs 3` on a dataset of PREDICT_PER_CLASS per class.
PREDICT_PER_CLASS = 35
PREDICT_QUOTAS = {"train_per_class": 20, "val_per_class": 5}
PREDICT_EPOCHS = 3
# full-preset fold: FULL_TRAIN_PER_CLASS balanced batch(es) of six 3x227x227 tensors
FULL_TRAIN_PER_CLASS = 1
FULL_WIDTH = 227


def _desk_config(seed: int) -> RunConfig:
    cfg = apply_count_preset(RunConfig(), "desk")
    cfg.base_seed = seed
    cfg.split_seed = seed
    return cfg


def _generate(cfg: RunConfig, out_dir: Path, **kwargs):
    return dataset.generate_dataset(
        cfg.counts_per_class, cfg.base_seed, cfg.profiles, cfg.radar, out_dir,
        target_width=cfg.target_width, freq_range=cfg.freq_range, **kwargs,
    )


def _fold0(ds, cfg: RunConfig):
    return dataset.stratified_fold_split(
        ds, cfg.folds, cfg.train_per_class, cfg.val_per_class, cfg.split_seed
    )[0]


def _train(ds, fold, cfg: RunConfig):
    """As `radarnet train`: fold f trains with net seed cfg.train.seed + f."""
    return evaluation.train_fold(
        ds, fold, cfg.train, preset=cfg.preset, net_seed=cfg.train.seed + fold.fold_index
    )


def _test_matrix(ds, fold, trained):
    """As `radarnet eval`: the fold's test split, normalized by the fold mean."""
    tensors, labels = [], []
    for sid in fold.test_ids:
        t = spectrogram.mean_normalize(ds.load(sid), trained.mean_tensor)
        tensors.append(t)
        labels.append(t.label)
    return evaluation.evaluate(trained.net, tensors, labels)


class TrainMini:
    """One desk-protocol fold of the mini net, as `radarnet train` then `eval`."""

    name = "train-mini"
    min_ops = 2     # the determinism check compares two trainings

    def __init__(self):
        self.first = None
        self.train_s = []

    def setup(self, seed, root):
        cfg = _desk_config(seed)
        _generate(cfg, root / "data")
        return {"cfg": cfg, "root": root / "data"}

    def op(self, state, i):
        cfg = state["cfg"]
        ds = dataset.load_dataset(state["root"])
        fold = _fold0(ds, cfg)
        t0 = time.perf_counter()
        trained = _train(ds, fold, cfg)
        train_s = time.perf_counter() - t0
        matrix = _test_matrix(ds, fold, trained)
        return {"matrix": matrix, "train_s": train_s,
                "samples": len(fold.train_ids) * len(trained.history)}

    def check(self, state, result):
        if self.first is None:
            self.first = result
        self.train_s.append(result["train_s"])
        matrix = result["matrix"]
        return (np.array_equal(matrix.counts, self.first["matrix"].counts)
                and matrix.accuracy >= TRAIN_MINI_ACCURACY_FLOOR)

    def report(self, durations):
        n = len(durations)
        return {
            "op": ("fold_s", metrics.median(durations), "s", n),
            "samples_per_s": ("train_samples_per_s",
                              self.first["samples"] / metrics.median(self.train_s), "1/s", n),
            "extra": [("test_accuracy", self.first["matrix"].accuracy, "ratio", n)],
        }


class TrainFull:
    """One balanced batch of six 3x227x227 tensors through the full preset,
    as `radarnet train --net-preset full --epochs 1 --train-per-class 1`."""

    name = "train-full"
    min_ops = 2     # the loss must repeat exactly across repetitions

    def __init__(self):
        self.first = None

    def setup(self, seed, root):
        cfg = RunConfig(
            counts_per_class={c: FULL_TRAIN_PER_CLASS + 2 for c in "ABCDEG"},
            target_width=FULL_WIDTH, freq_range=(0, FULL_WIDTH), preset="full",
            folds=1, train_per_class=FULL_TRAIN_PER_CLASS, val_per_class=1,
            base_seed=seed, split_seed=seed,
        )
        cfg.train = dataclasses.replace(cfg.train, epochs=1)
        _generate(cfg, root / "data")
        return {"cfg": cfg, "root": root / "data"}

    def op(self, state, i):
        cfg = state["cfg"]
        ds = dataset.load_dataset(state["root"])
        fold = _fold0(ds, cfg)
        trained = _train(ds, fold, cfg)
        return {"losses": [h.train_loss for h in trained.history],
                "samples": len(fold.train_ids) * len(trained.history)}

    def check(self, state, result):
        if self.first is None:
            self.first = result
        return bool(np.all(np.isfinite(result["losses"]))) and result["losses"] == self.first["losses"]

    def report(self, durations):
        n = len(durations)
        op_s = metrics.median(durations)
        return {
            "op": ("train_fold_s", op_s, "s", n),
            "samples_per_s": ("train_samples_per_s", self.first["samples"] / op_s, "1/s", n),
            "extra": [],
        }


class PredictSignal:
    """Closed loop, one client: in-memory beat signal -> tensor -> normalize
    -> predict with a mini model trained in setup, as `radarnet predict`
    on a .rbs file without the file I/O."""

    name = "predict-signal"
    min_ops = 1

    def __init__(self):
        self.true_label = {}    # request signal -> stored-tensor label is the true class

    def setup(self, seed, root):
        cfg = RunConfig(counts_per_class={c: PREDICT_PER_CLASS for c in "ABCDEG"},
                        base_seed=seed, split_seed=seed, **PREDICT_QUOTAS)
        cfg.train = dataclasses.replace(cfg.train, epochs=PREDICT_EPOCHS)
        _generate(cfg, root / "data", keep_signals=True)
        ds = dataset.load_dataset(root / "data")
        fold = _fold0(ds, cfg)
        trained = _train(ds, fold, cfg)
        order = np.random.default_rng(seed).permutation(len(fold.test_ids))
        ids = [fold.test_ids[j] for j in order]
        signals = [dataset.load_signal(root / "data" / "signals" / f"{sid}.rbs") for sid in ids]
        return {"cfg": cfg, "ds": ds, "ids": ids, "signals": signals,
                "net": trained.net, "mean": trained.mean_tensor, "reference": {}}

    def op(self, state, i):
        cfg = state["cfg"]
        k = i % len(state["signals"])
        tensor = spectrogram.signal_to_tensor(
            state["signals"][k], cfg.radar, cfg.target_width, freq_range=cfg.freq_range
        )
        label, _ = network.predict(state["net"], spectrogram.mean_normalize(tensor, state["mean"]))
        return k, label

    def check(self, state, result):
        """The signal path must give the label of the stored-tensor path."""
        k, label = result
        reference = state["reference"]
        if k not in reference:
            stored = state["ds"].load(state["ids"][k])
            reference[k] = network.predict(state["net"], spectrogram.mean_normalize(stored, state["mean"]))[0]
            self.true_label[state["ids"][k]] = reference[k] == state["signals"][k].label
        return label == reference[k]

    def report(self, durations):
        n = len(durations)
        extra = []
        p99 = metrics.percentile(durations, 99)
        if p99 is not None:
            extra.append(("predict_p99_ms", 1e3 * p99, "ms", n))
        served = len(self.true_label)
        extra.append(("test_accuracy", sum(self.true_label.values()) / served, "ratio", served))
        return {
            "op": ("predict_p50_ms", 1e3 * metrics.median(durations), "ms", n),
            "samples_per_s": ("predict_per_s", n / sum(durations), "1/s", n),
            "extra": extra,
        }


class GenerateDesk:
    """`radarnet generate --preset desk --keep-signals` into a fresh
    directory, then load_dataset and a load of every tensor."""

    name = "generate-desk"
    min_ops = 1

    def __init__(self):
        self.first = None
        self.samples = 0

    def setup(self, seed, root):
        """The reference generation that the byte-identity check compares
        every operation's output with."""
        cfg = _desk_config(seed)
        _generate(cfg, root / "reference", keep_signals=True)
        return {"cfg": cfg, "root": root, "reference": _tree_digest(root / "reference")}

    def op(self, state, i):
        out = state["root"] / f"gen{i}"
        _generate(state["cfg"], out, keep_signals=True)
        ds = dataset.load_dataset(out)
        tensors = [ds.load(r.sample_id).values for r in ds.records]
        return out, tuple(ds.tensor_shape), tensors

    def check(self, state, result):
        out, shape, tensors = result
        ok = all(t.shape == shape and bool(np.all(np.isfinite(t))) and bool(np.all(t >= 0))
                 for t in tensors)
        digest = _tree_digest(out)
        shutil.rmtree(out)
        self.first = self.first or state["reference"]
        self.samples = len(tensors)
        return ok and digest == state["reference"] == self.first

    def report(self, durations):
        n = len(durations)
        op_s = metrics.median(durations)
        return {
            "op": ("generate_s", op_s, "s", n),
            "samples_per_s": ("gen_samples_per_s", self.samples / op_s, "1/s", n),
            "extra": [],
        }


def _tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (TrainMini, TrainFull, PredictSignal, GenerateDesk)}
