"""Per-fold training, model selection and cross-validated reporting.

Each fold computes its own mean tensor from its training samples, normalizes
train/validation/test with it, trains on class-balanced batches and keeps the
parameter snapshot with the best validation accuracy (earliest epoch on
ties).  Cross-validation aggregates per-fold confusion matrices into a mean
accuracy and a mean row-normalized matrix.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import Dataset, FoldSplit, balanced_batches, stratified_fold_split
from .network import Network, TrainConfig, build_network, load_weights, loss_and_grad, predict, sgd_step
from .radar import CLASS_ORDER, VehicleClass
from .spectrogram import compute_mean_tensor


@dataclass
class ConfusionMatrix:
    """6x6 counts, rows = true class, columns = predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (6, 6):
            raise ValueError("confusion matrix must be 6x6")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        if self.total == 0:
            return 0.0
        return float(np.trace(self.counts)) / self.total

    @property
    def row_rates(self) -> np.ndarray:
        """Row-normalized rates; empty rows stay zero."""
        sums = self.counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            rates = np.where(sums > 0, self.counts / np.maximum(sums, 1), 0.0)
        return rates

    @property
    def per_class_accuracy(self) -> dict:
        diag = self.row_rates.diagonal()
        return {label: float(diag[i]) for i, label in enumerate(CLASS_ORDER)}

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "counts": self.counts.tolist(), "row_rates": self.row_rates.tolist()}


def confusion_matrix(preds, labels) -> ConfusionMatrix:
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels):
        raise ValueError(f"{len(preds)} predictions vs {len(labels)} labels")
    counts = np.zeros((6, 6), dtype=np.int64)
    if not preds:
        warnings.warn("confusion matrix over zero samples; accuracy defined as 0")
    for p, t in zip(preds, labels):
        pi = VehicleClass.from_label(p).index
        ti = VehicleClass.from_label(t).index
        counts[ti, pi] += 1
    return ConfusionMatrix(counts=counts)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


@dataclass
class FoldTraining:
    net: Network
    mean_tensor: np.ndarray     # float32 [3, H, W]
    history: list
    best_epoch: int     # 0 when no epoch ran


def evaluate(net: Network, tensors, labels) -> ConfusionMatrix:
    """One predict (dropout off) per normalized tensor, tallied against the labels."""
    return confusion_matrix([predict(net, t)[0] for t in tensors], labels)


def _normalized(ds: Dataset, ids, mean: np.ndarray):
    """The samples' tensors as one [N, C, H, W] copy with the mean subtracted, and their labels."""
    rows = ds.rows(ids)
    x = ds.tensors[rows]
    x -= mean
    return x, [ds.records[r].class_label for r in rows]


def train_fold(
    ds: Dataset,
    fold: FoldSplit,
    cfg: TrainConfig,
    *,
    preset: str = "mini",
    net_seed: int | None = None,
    init_weights=None,
    reinit_fc: bool = False,
) -> FoldTraining:
    """Train one fold and return the best-validation snapshot.

    The mean tensor comes from this fold's training samples only and is
    applied to every split.  Batch order, dropout masks and initialization
    all derive from (cfg.seed, fold index), so identical calls produce
    bit-identical networks.  init_weights warm-starts from a saved .rdw
    (optionally keeping the fully connected layers at random init).
    """
    net_seed = cfg.seed if net_seed is None else net_seed

    train_rows = ds.rows(fold.train_ids)
    mean = compute_mean_tensor(ds.tensors, train_rows)
    val_tensors, val_labels = _normalized(ds, fold.val_ids, mean)

    # batches hold positions within the training split
    train_labels = [ds.records[r].class_label for r in train_rows]
    positions_by_class = {}
    for pos, label in enumerate(train_labels):
        positions_by_class.setdefault(label, []).append(pos)

    net = build_network(
        preset,
        input_shape=ds.tensor_shape,
        seed=net_seed,
        dropout_rate=cfg.dropout_rate,
    )
    if init_weights is not None:
        load_weights(net, init_weights, reinit_fc=reinit_fc)
    velocity = {}
    history = []
    # every epoch beats -1, so the init is never restored; the last epoch's parameters stay live
    best_acc, best_epoch, best_params = -1.0, 0, None

    for epoch in range(1, cfg.epochs + 1):
        batches = balanced_batches(positions_by_class, [cfg.seed, fold.fold_index, epoch])
        losses = []
        for b_i, batch in enumerate(batches):
            x = ds.tensors[train_rows[list(batch)]]
            x -= mean
            # row j keeps the dropout stream it had as the batch's j-th sample
            seeds = [[cfg.seed, fold.fold_index, epoch, b_i, j] for j in range(len(batch))]
            scores, cache = net.forward(x, rng=seeds)
            loss, dlogits = loss_and_grad(scores, [train_labels[pos] for pos in batch])
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at fold {fold.fold_index} epoch {epoch} batch {b_i}"
                )
            losses.append(loss)
            sgd_step(net.params(), net.backward(cache, dlogits), velocity, cfg)
            net.bump_version()
        val_acc = evaluate(net, val_tensors, val_labels).accuracy
        history.append(EpochStats(epoch=epoch, train_loss=float(np.mean(losses)), val_accuracy=val_acc))
        if val_acc > best_acc:
            best_acc, best_epoch = val_acc, epoch
            best_params = None      # free the old snapshot before taking the new one
            best_params = net.snapshot() if epoch < cfg.epochs else None

    if best_params is not None:
        net.set_params(best_params)
    return FoldTraining(net=net, mean_tensor=mean, history=history, best_epoch=best_epoch)


@dataclass
class CvReport:
    """Cross-validation outcome plus everything needed to reproduce it."""

    fold_matrices: list
    fold_best_epochs: list
    cfg: TrainConfig
    preset: str
    split_seed: int
    train_per_class: int
    val_per_class: int
    histories: list = field(default_factory=list)

    @property
    def fold_accuracies(self) -> list:
        return [m.accuracy for m in self.fold_matrices]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def mean_row_rates(self) -> np.ndarray:
        return np.mean([m.row_rates for m in self.fold_matrices], axis=0)

    @property
    def per_class_accuracy(self) -> dict:
        diag = self.mean_row_rates.diagonal()
        return {label: float(diag[i]) for i, label in enumerate(CLASS_ORDER)}

    def to_dict(self) -> dict:
        return {
            "class_order": list(CLASS_ORDER),
            "preset": self.preset,
            "hyperparameters": asdict(self.cfg),
            "split_seed": self.split_seed,
            "train_per_class": self.train_per_class,
            "val_per_class": self.val_per_class,
            "folds": [
                {"fold_index": i, "best_epoch": self.fold_best_epochs[i], **m.to_dict()}
                for i, m in enumerate(self.fold_matrices)
            ],
            "mean_accuracy": self.mean_accuracy,
            "mean_row_rates": self.mean_row_rates.tolist(),
            "per_class_accuracy": self.per_class_accuracy,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def cross_validate(
    ds: Dataset,
    k: int = 10,
    train_per_class: int = 40,
    val_per_class: int = 10,
    cfg: TrainConfig | None = None,
    *,
    split_seed: int = 0,
    preset: str = "mini",
    progress=None,
) -> CvReport:
    """Run the full k-fold protocol and aggregate confusion matrices.

    Fold f trains with net seed cfg.seed + f.  The emitted report is a
    deterministic function of the dataset and the seeds.
    """
    cfg = cfg if cfg is not None else TrainConfig()
    folds = stratified_fold_split(ds, k, train_per_class, val_per_class, split_seed)
    matrices, best_epochs, histories = [], [], []
    for fold in folds:
        trained = train_fold(ds, fold, cfg, preset=preset, net_seed=cfg.seed + fold.fold_index)
        test_tensors, test_labels = _normalized(ds, fold.test_ids, trained.mean_tensor)
        matrix = evaluate(trained.net, test_tensors, test_labels)
        matrices.append(matrix)
        best_epochs.append(trained.best_epoch)
        histories.append(trained.history)
        if progress is not None:
            progress(fold.fold_index, matrix.accuracy)
    report = CvReport(
        fold_matrices=matrices,
        fold_best_epochs=best_epochs,
        cfg=cfg,
        preset=preset,
        split_seed=split_seed,
        train_per_class=train_per_class,
        val_per_class=val_per_class,
        histories=histories,
    )
    return report
