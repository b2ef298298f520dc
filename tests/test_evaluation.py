"""Confusion matrices, fold training, model selection and cross-validation."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from radarnet import evaluation
from radarnet.config import RunConfig
from radarnet.dataset import (
    Dataset,
    balanced_batches,
    load_tensor,
    save_tensor,
    stratified_fold_split,
)
from radarnet.evaluation import (
    confusion_matrix,
    cross_validate,
    evaluate,
    train_fold,
)
from radarnet.network import Network, TrainConfig
from radarnet.radar import CLASS_ORDER, ProfileTable, RadarParams, VehicleClass

A, B, C = VehicleClass.CAR, VehicleClass.CAR_TRAILER, VehicleClass.TRUCK


class TestConfusionMatrix:
    def test_perfect_diagonal(self):
        m = confusion_matrix([A, B, C], [A, B, C])
        assert m.accuracy == 1.0
        assert np.trace(m.counts) == 3
        assert m.total == 3

    def test_counts_and_accuracy(self):
        m = confusion_matrix([A, A, B], [A, B, B])
        assert m.accuracy == pytest.approx(2 / 3)
        assert m.counts[B.index, A.index] == 1

    def test_empty_input_warns(self):
        with pytest.warns(UserWarning):
            m = confusion_matrix([], [])
        assert m.accuracy == 0.0
        assert np.all(m.counts == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([A], [A, B])

    def test_row_rates_sum_to_one_for_nonempty_rows(self):
        m = confusion_matrix([A, B, A, C, C], [A, A, A, C, B])
        sums = m.row_rates.sum(axis=1)
        rows_present = m.counts.sum(axis=1) > 0
        np.testing.assert_allclose(sums[rows_present], 1.0)
        np.testing.assert_array_equal(sums[~rows_present], 0.0)

    def test_total_matches_sample_count(self):
        preds = [A, B, C, A, B, C, A]
        labels = [A, A, C, B, B, C, A]
        assert confusion_matrix(preds, labels).total == len(preds)


def _marker_tensor(label, seed, shape=(3, 257, 32)):
    """Trivially separable sample: class-specific block position + noise."""
    rng = np.random.default_rng(seed)
    values = rng.normal(0.0, 0.05, shape).astype(np.float32)
    idx = label.index
    values[:, 40 * idx : 40 * idx + 30, :] += 8.0
    return values


@pytest.fixture(scope="module")
def marker_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("markers") / "ds"
    (root / "tensors").mkdir(parents=True)
    ds = Dataset(root, {c: 8 for c in CLASS_ORDER}, 0, RadarParams(), ProfileTable(), 32)
    for rec in ds.records:
        save_tensor(_marker_tensor(rec.class_label, seed=1000 + rec.seed), ds.tensor_file(rec.sample_id))
    return ds


class TestTrainFold:
    def test_zero_epochs_returns_initial(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        cfg = TrainConfig(epochs=0)
        trained = train_fold(marker_dataset, fold, cfg)
        assert trained.history == []
        assert trained.best_epoch == 0
        from radarnet.network import build_network

        fresh = build_network("mini", marker_dataset.tensor_shape, seed=cfg.seed,
                              dropout_rate=cfg.dropout_rate)
        for name, arr in fresh.params().items():
            np.testing.assert_array_equal(arr, trained.net.params()[name])

    def test_best_epoch_restore_equals_training_only_that_far(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        cfg = TrainConfig(learning_rate=1e-3, epochs=4, seed=1)
        full = train_fold(marker_dataset, fold, cfg)
        assert full.best_epoch < cfg.epochs     # the fixture keeps an earlier epoch
        upto_best = train_fold(marker_dataset, fold, dataclasses.replace(cfg, epochs=full.best_epoch))
        assert upto_best.best_epoch == full.best_epoch
        for name, arr in upto_best.net.params().items():
            assert arr.tobytes() == full.net.params()[name].tobytes(), name

    def test_best_epoch_is_earliest_of_tied_maxima(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        trained = train_fold(marker_dataset, fold, TrainConfig(learning_rate=1e-3, epochs=4, seed=0))
        accs = [h.val_accuracy for h in trained.history]
        assert accs.count(max(accs)) >= 2       # the fixture ties two epochs at the maximum
        assert trained.best_epoch == 1 + int(np.argmax(accs))

    def test_batches_are_mean_normalized_training_samples(self, marker_dataset, monkeypatch):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        cfg = TrainConfig(epochs=2)
        inputs = []
        forward = Network.forward

        def spy(net, x, rng=None):
            if rng is not None:
                inputs.append(np.array(x))
            return forward(net, x, rng=rng)

        monkeypatch.setattr(Network, "forward", spy)
        trained = train_fold(marker_dataset, fold, cfg)
        train_labels = [marker_dataset.load(sid).label for sid in fold.train_ids]
        mean = trained.mean_tensor
        expected = [
            np.stack([marker_dataset.load(fold.train_ids[pos]).values - mean for pos in batch])
            for epoch in range(1, cfg.epochs + 1)
            for batch in balanced_batches(train_labels, [cfg.seed, fold.fold_index, epoch])
        ]
        assert len(inputs) == len(expected)
        for got, want in zip(inputs, expected):
            assert got.tobytes() == want.tobytes()

    def test_one_batch_of_activations_at_a_time(self, marker_dataset, monkeypatch):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        caches = []     # weak references: a ForwardCache is an unhashable dataclass, so no WeakSet
        events = []     # (call, training caches alive when it starts)
        forward, evaluate_ = Network.forward, evaluation.evaluate

        def spy_forward(net, x, rng=None):
            if rng is None:
                return forward(net, x)
            events.append(("forward", sum(c() is not None for c in caches)))
            logits, cache = forward(net, x, rng=rng)
            caches.append(weakref.ref(cache))
            return logits, cache

        def spy_evaluate(net, tensors, labels):
            events.append(("evaluate", sum(c() is not None for c in caches)))
            return evaluate_(net, tensors, labels)

        monkeypatch.setattr(Network, "forward", spy_forward)
        monkeypatch.setattr(evaluation, "evaluate", spy_evaluate)
        train_fold(marker_dataset, fold, TrainConfig(epochs=2))
        assert events == ([("forward", 0)] * 4 + [("evaluate", 0)]) * 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap behaviour")
    def test_cache_releases_cost_few_page_faults(self, tmp_path):
        # a fresh process, so glibc's malloc thresholds are at their start values; about 450
        # faults per step (256 when each cache lived until the next forward), against
        # 2600-2900 when a cache is released before the next batch is gathered, or before
        # every update
        child = (
            "import resource, sys\n"
            "from radarnet.dataset import generate_dataset, stratified_fold_split\n"
            "from radarnet.evaluation import train_fold\n"
            "from radarnet.network import TrainConfig\n"
            "from radarnet.radar import CLASS_ORDER, ProfileTable, RadarParams\n"
            "ds = generate_dataset({c: 12 for c in CLASS_ORDER}, 1, ProfileTable(), RadarParams(), sys.argv[1])\n"
            "fold = stratified_fold_split(ds, 1, 8, 3, 0)[0]\n"
            "ds.tensors\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "train_fold(ds, fold, TrainConfig(epochs=5))\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / (5 * 8))\n"
        )
        src = str(Path(evaluation.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", child, str(tmp_path / "ds")],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        assert float(out) < 1500

    def test_dataset_tensors_unchanged(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        before = marker_dataset.tensors.tobytes()
        train_fold(marker_dataset, fold, TrainConfig(epochs=1))
        assert marker_dataset.tensors.tobytes() == before

    def test_deterministic(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        cfg = TrainConfig(epochs=2)
        a = train_fold(marker_dataset, fold, cfg)
        b = train_fold(marker_dataset, fold, cfg)
        for name, arr in a.net.params().items():
            np.testing.assert_array_equal(arr, b.net.params()[name])
        assert [h.val_accuracy for h in a.history] == [h.val_accuracy for h in b.history]

    def test_mean_from_train_only(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        trained = train_fold(marker_dataset, fold, TrainConfig(epochs=1))
        # float64 sum of the training files, one at a time in fold order
        acc = np.zeros(marker_dataset.tensor_shape, dtype=np.float64)
        for sid in fold.train_ids:
            acc += load_tensor(marker_dataset.tensor_file(sid))
        expected = (acc / len(fold.train_ids)).astype(np.float32)
        assert trained.mean_tensor.dtype == np.float32
        assert trained.mean_tensor.tobytes() == expected.tobytes()

    def test_batches_never_touch_val_or_test(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        cfg = TrainConfig(epochs=3)
        train_labels = [marker_dataset.load(sid).label for sid in fold.train_ids]
        forbidden = set(fold.val_ids) | set(fold.test_ids)
        for epoch in range(1, cfg.epochs + 1):
            for batch in balanced_batches(train_labels, [cfg.seed, fold.fold_index, epoch]):
                ids = {fold.train_ids[pos] for pos in batch}
                assert not (ids & forbidden)
                assert ids <= set(fold.train_ids)


class TestCrossValidate:
    def test_separable_dataset_reaches_full_accuracy(self, marker_dataset):
        run = RunConfig(folds=1, train_per_class=4, val_per_class=2,
                        train=TrainConfig(learning_rate=0.01, epochs=6, seed=0))
        report = cross_validate(marker_dataset, run)
        assert report.mean_accuracy == 1.0

    def test_mean_is_arithmetic_mean(self, marker_dataset):
        run = RunConfig(folds=3, train_per_class=4, val_per_class=2,
                        train=TrainConfig(learning_rate=0.01, epochs=2, seed=0))
        report = cross_validate(marker_dataset, run)
        assert report.mean_accuracy == pytest.approx(np.mean(report.fold_accuracies), abs=1e-12)
        assert len(report.fold_matrices) == 3

    def test_report_reproducible_byte_for_byte(self, marker_dataset):
        run = RunConfig(folds=2, train_per_class=4, val_per_class=2, split_seed=5,
                        train=TrainConfig(learning_rate=0.01, epochs=2, seed=3))
        a = cross_validate(marker_dataset, run)
        b = cross_validate(marker_dataset, run)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_fold_f_is_train_fold_with_its_default_seed(self, marker_dataset):
        cfg = TrainConfig(learning_rate=0.01, epochs=2, seed=3)
        report = cross_validate(marker_dataset, RunConfig(folds=2, train_per_class=4, val_per_class=2,
                                                          split_seed=5, train=cfg))
        fold = stratified_fold_split(marker_dataset, 2, 4, 2, seed=5)[1]
        assert train_fold(marker_dataset, fold, cfg).history == report.histories[1]

    def test_a_fold_is_freed_before_the_next_network_is_built(self, marker_dataset, monkeypatch):
        nets, alive = [], []    # weak references to each fold's network; which were alive at each build
        build = evaluation.build_network

        def spy(*args, **kwargs):
            alive.append([net() is not None for net in nets])
            net = build(*args, **kwargs)
            nets.append(weakref.ref(net))
            return net

        monkeypatch.setattr(evaluation, "build_network", spy)
        cross_validate(marker_dataset, RunConfig(folds=2, train_per_class=4, val_per_class=2,
                                                 train=TrainConfig(epochs=1)))
        assert alive == [[], [False]]

    def test_report_carries_per_class_rows(self, marker_dataset):
        run = RunConfig(folds=1, train_per_class=4, val_per_class=2,
                        train=TrainConfig(learning_rate=0.01, epochs=2, seed=0))
        report = cross_validate(marker_dataset, run)
        d = report.to_dict()
        assert set(d["per_class_accuracy"]) == set(CLASS_ORDER)
        assert "G" in d["per_class_accuracy"]
        assert d["mean_accuracy"] == report.mean_accuracy
        assert len(d["folds"][0]["counts"]) == 6

    def test_report_names_the_data_it_scored(self, marker_dataset):
        # a run of default radar and profiles records the data's, with its class counts and base seed
        wide = RadarParams(delta_f=150e6)
        quiet = ProfileTable(snr_db=30.0)
        ds = dataclasses.replace(marker_dataset, radar=wide, profiles=quiet)
        run = RunConfig(folds=1, train_per_class=4, val_per_class=2, split_seed=2, train=TrainConfig(epochs=1))
        recorded = cross_validate(ds, run).to_dict()["run"]
        assert recorded == RunConfig(radar=wide, profiles=quiet, counts_per_class={c: 8 for c in CLASS_ORDER},
                                     base_seed=0, folds=1, train_per_class=4, val_per_class=2, split_seed=2,
                                     train=TrainConfig(epochs=1)).to_dict()
        assert recorded["radar"]["delta_f"] == 150e6 and recorded["profiles"]["snr_db"] == 30.0


class TestEvaluate:
    def test_matrix_invariants_on_live_model(self, marker_dataset):
        fold = stratified_fold_split(marker_dataset, 1, 4, 2, seed=0)[0]
        trained = train_fold(marker_dataset, fold, TrainConfig(epochs=1))
        from radarnet.evaluation import normalized

        tensors, labels = normalized(marker_dataset, fold.test_ids, trained.mean_tensor)
        m = evaluate(trained.net, tensors, labels)
        assert m.total == len(fold.test_ids)
        assert 0.0 <= m.accuracy <= 1.0
