"""Per-fold training, model selection and cross-validated reporting.

Each fold computes its own mean tensor from its training samples, normalizes
train/validation/test with it, trains on class-balanced batches and keeps the
parameter snapshot with the best validation accuracy (earliest epoch on
ties).  Cross-validation aggregates per-fold confusion matrices into a mean
accuracy and a mean row-normalized matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import RunConfig, TrainConfig
from .dataset import Dataset, FoldSplit, balanced_batches, stratified_fold_split
from .network import Network, build_network, loss_and_grad, predict, sgd_step
from .radar import CLASS_ORDER
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

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "counts": self.counts.tolist(), "row_rates": self.row_rates.tolist()}


def confusion_matrix(preds, labels) -> ConfusionMatrix:
    """Counts of (true, predicted) VehicleClass pairs."""
    preds = list(preds)
    labels = list(labels)
    if len(preds) != len(labels):
        raise ValueError(f"{len(preds)} predictions vs {len(labels)} labels")
    counts = np.zeros((6, 6), dtype=np.int64)
    if not preds:
        warnings.warn("confusion matrix over zero samples; accuracy defined as 0")
    for p, t in zip(preds, labels):
        counts[t.index, p.index] += 1
    return ConfusionMatrix(counts=counts)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def epoch_records(history) -> list:
    """A fold's EpochStats as the JSON records of model.history.json and the cv report."""
    return [asdict(h) for h in history]


@dataclass
class FoldTraining:
    net: Network
    mean_tensor: np.ndarray     # float32 [3, H, W]
    history: list
    best_epoch: int     # 0 when no epoch ran


def evaluate(net: Network, tensors, labels) -> ConfusionMatrix:
    """One predict (dropout off) per normalized tensor, tallied against the labels."""
    return confusion_matrix([predict(net, t)[0] for t in tensors], labels)


def normalized(ds: Dataset, ids, mean: np.ndarray):
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
) -> FoldTraining:
    """Train one fold and return the best-validation snapshot.

    The mean tensor comes from this fold's training samples only and is
    applied to every split.  Batch order, dropout masks and initialization
    all derive from (cfg.seed, fold index): fold f initializes from net seed
    cfg.seed + f unless net_seed says otherwise, so identical calls produce
    bit-identical networks.  A fold holds one batch's activations at a time: a
    batch's forward cache goes after the next batch is gathered, and the epoch's
    last before its update, so the update and the validation pass hold none.
    """
    net_seed = cfg.seed + fold.fold_index if net_seed is None else net_seed

    train_rows = ds.rows(fold.train_ids)
    mean = compute_mean_tensor(ds.tensors, train_rows)
    val_tensors, val_labels = normalized(ds, fold.val_ids, mean)

    # batches hold positions within the training split
    train_labels = [ds.records[r].class_label for r in train_rows]

    net = build_network(
        preset,
        input_shape=ds.tensor_shape,
        seed=net_seed,
        dropout_rate=cfg.dropout_rate,
    )
    velocity = {}
    history = []
    # every epoch beats -1, so the init is never restored; the last epoch's parameters stay live
    best_acc, best_epoch, best_params = -1.0, 0, None

    for epoch in range(1, cfg.epochs + 1):
        batches = balanced_batches(train_labels, [cfg.seed, fold.fold_index, epoch])
        losses = []
        for b_i, batch in enumerate(batches):
            x = ds.tensors[train_rows[list(batch)]]
            x -= mean
            # row j keeps the dropout stream it had as the batch's j-th sample
            seeds = [[cfg.seed, fold.fold_index, epoch, b_i, j] for j in range(len(batch))]
            # freed after the gather, the previous cache lies below x on glibc's heap, and the forward reuses it
            logits = cache = None
            logits, cache = net.forward(x, rng=seeds)
            loss, dlogits = loss_and_grad(logits, [train_labels[pos].index for pos in batch])
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at fold {fold.fold_index} epoch {epoch} batch {b_i}"
                )
            losses.append(loss)
            grads = net.backward(cache, dlogits)
            if b_i == len(batches) - 1:
                cache = None    # the epoch's update and validation hold no activations
            sgd_step(net.params(), grads, velocity, cfg)
            del grads
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
    """Cross-validation outcome plus the run that produced it: the data's settings and the
    protocol, all a RunConfig holds, so the run as a --config file reproduces the report."""

    run: RunConfig
    fold_matrices: list
    fold_best_epochs: list
    histories: list

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
            "run": self.run.to_dict(),
            "folds": [
                {"fold_index": i, "best_epoch": self.fold_best_epochs[i],
                 "epochs": epoch_records(self.histories[i]), **m.to_dict()}
                for i, m in enumerate(self.fold_matrices)
            ],
            "mean_accuracy": self.mean_accuracy,
            "mean_row_rates": self.mean_row_rates.tolist(),
            "per_class_accuracy": self.per_class_accuracy,
        }


def cross_validate(ds: Dataset, run: RunConfig, *, progress=None) -> CvReport:
    """Run the run's k-fold protocol (its folds, quotas, split seed, preset and train
    settings) on ds and aggregate confusion matrices.

    The report's run holds ds's settings in place of run's data values, so it names
    the data it scored; it is a deterministic function of the dataset and the seeds.
    """
    run = replace(run, **ds.settings)
    folds = stratified_fold_split(ds, run.folds, run.train_per_class, run.val_per_class, run.split_seed)
    matrices, best_epochs, histories = [], [], []
    for fold in folds:
        trained = train_fold(ds, fold, run.train, preset=run.preset)
        test_tensors, test_labels = normalized(ds, fold.test_ids, trained.mean_tensor)
        matrix = evaluate(trained.net, test_tensors, test_labels)
        matrices.append(matrix)
        best_epochs.append(trained.best_epoch)
        histories.append(trained.history)
        if progress is not None:
            progress(fold.fold_index, matrix.accuracy)
        # the next fold builds its network with none of this fold's arrays held
        trained = test_tensors = None
    return CvReport(run=run, fold_matrices=matrices, fold_best_epochs=best_epochs, histories=histories)
