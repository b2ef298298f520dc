"""Acceptance suite: the eight exit criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines; the
end-to-end benchmark (criterion 6) trains 10 folds and takes a few minutes.
"""

import math
import time

import numpy as np
import pytest

from radarnet import fourier
from radarnet.config import RunConfig, TrainConfig
from radarnet.dataset import (
    generate_dataset,
    load_tensor,
    load_weights,
    save_tensor,
    save_weights,
    stratified_fold_split,
)
from radarnet.evaluation import cross_validate, train_fold
from radarnet.network import build_network, predict, softmax
from radarnet.radar import (
    PointTarget,
    ProfileTable,
    RadarParams,
    VehicleClass,
    beat_frequencies,
    invert_beat,
    synthesize_point_targets,
)
from radarnet.spectrogram import (
    RdTensor,
    build_spectrograms,
    build_tensor,
    compute_mean_tensor,
    export_pgm,
    fft_modulus,
    mean_normalize,
)

from _oracles import gradient_check, naive_dft_modulus_onesided, parseval_one_sided

P = RadarParams()
BIN = P.bin_hz                      # 25 Hz at the default waveform
RANGE_TOL = 1.25                    # one bin through the delay-to-range map [m]
SPEED_TOL = 0.16                    # one bin through the Doppler-to-speed map [m/s]


def _passline(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_static_beat_physics_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        r = rng.uniform(5.0, 100.0)
        sig = synthesize_point_targets([PointTarget(r)], 2, P, seed=int(rng.integers(1 << 31)))
        up, down = build_spectrograms(sig, P)
        f_up = np.argmax(up[:, 0]) * BIN
        f_down = np.argmax(down[:, 0]) * BIN
        r_est, _ = invert_beat(f_up, f_down, P)
        worst = max(worst, abs(r_est - r))
        assert abs(r_est - r) <= RANGE_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(1, f"100 static targets recovered, worst |dR| = {worst:.3f} m <= {RANGE_TOL} m ({elapsed:.1f}s)")


def test_criterion_2_moving_target_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_r, worst_v = 0.0, 0.0
    accepted = 0
    while accepted < 100:
        r = rng.uniform(5.0, 100.0)
        v = rng.uniform(10.0, 38.0)
        f_up, f_down = beat_frequencies(r, v, P)
        if max(abs(f_up), abs(f_down)) >= 0.98 * P.sample_rate / 2:
            continue  # keep the tone below Nyquist; redraw
        accepted += 1
        sig = synthesize_point_targets(
            [PointTarget(r, v)], 2, P, seed=int(rng.integers(1 << 31))
        )
        up, down = build_spectrograms(sig, P)
        f_up_est = np.argmax(up[:, 0]) * BIN
        f_down_est = math.copysign(np.argmax(down[:, 0]) * BIN, f_down)
        r_est, v_est = invert_beat(f_up_est, f_down_est, P)
        worst_r = max(worst_r, abs(r_est - r))
        worst_v = max(worst_v, abs(v_est - v))
        assert abs(r_est - r) <= RANGE_TOL
        assert abs(v_est - v) <= SPEED_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passline(2, f"100 moving targets recovered, worst |dR| = {worst_r:.3f} m, "
                 f"worst |dv| = {worst_v:.4f} m/s ({elapsed:.1f}s)")


def test_criterion_3_dft_equivalence_and_parseval():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=512)
        mine = fft_modulus(x, 512)
        oracle = naive_dft_modulus_onesided(x, 512)
        rel = np.max(np.abs(mine - oracle)) / np.max(np.abs(oracle))
        worst = max(worst, rel)
        assert rel < 1e-6
        assert parseval_one_sided(fourier.fft(x), x) < 1e-6
    _passline(3, f"fft_modulus vs naive DFT on 100 windows, worst rel err = {worst:.2e}; Parseval holds")


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    x = np.random.default_rng(3).normal(size=(3, 257, 32))
    net_hi = build_network("mini", (3, 257, 32), seed=1, precision="high")
    err_hi = gradient_check(net_hi, x, 2, epsilon=1e-4, num_params=200, seed=5)
    assert err_hi < 1e-5
    net_std = build_network("mini", (3, 257, 32), seed=1, precision="standard")
    err_std = gradient_check(net_std, x.astype(np.float32), 2, epsilon=1e-4, num_params=200, seed=5)
    assert err_std < 1e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passline(4, f"gradient check: high precision {err_hi:.2e} < 1e-5, "
                 f"standard {err_std:.2e} < 1e-3 ({elapsed:.1f}s)")


def test_criterion_5_architecture_fidelity():
    start = time.perf_counter()
    net = build_network("full", (3, 227, 227), seed=0)
    expected = {
        "conv1": (96, 55, 55),
        "pool1": (96, 27, 27),
        "conv2": (256, 27, 27),
        "pool2": (256, 13, 13),
        "conv3": (384, 13, 13),
        "conv4": (384, 13, 13),
        "conv5": (256, 13, 13),
        "pool5": (256, 6, 6),
        "fc6": (4096,),
        "fc7": (4096,),
        "fc8": (6,),
    }
    # walk a real forward pass and record each layer's actual output shape
    x = np.random.default_rng(0).normal(size=(3, 227, 227)).astype(np.float32)[None]
    shapes = {}
    for layer in net.layers:
        x, _ = layer.forward(x)
        shapes[layer.name] = x.shape[1:]
    for name, shape in expected.items():
        assert shapes[name] == shape, f"{name}: {shapes[name]} != {shape}"
    named = {layer.name: layer for layer in net.layers}
    kernels = [named[f"conv{i}"].out_channels for i in range(1, 6)]
    assert kernels == [96, 256, 384, 384, 256]
    assert [named[n].out_features for n in ("fc6", "fc7", "fc8")] == [4096, 4096, 6]
    assert x.shape[1:] == (6,) and abs(float(softmax(x).sum()) - 1.0) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(5, f"full-preset forward reproduces the published shape chain and "
                 f"kernel counts (96, 256, 384, 384, 256) ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def desk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk") / "ds"
    return generate_dataset(
        {c: 100 for c in "ABCDEG"}, 1, ProfileTable(), P, root, target_width=32
    )


@pytest.mark.slow
def test_criterion_6_end_to_end_benchmark(desk_dataset):
    start = time.perf_counter()
    cfg = TrainConfig()   # lr 0.0001, momentum 0.9, weight decay 0.0005, 15 epochs
    report = cross_validate(
        desk_dataset, RunConfig(folds=10, train_per_class=40, val_per_class=10, split_seed=0, train=cfg)
    )
    mean_acc = report.mean_accuracy
    g_row = report.per_class_accuracy["G"]
    assert mean_acc >= 0.90, f"mean accuracy {mean_acc:.4f} < 0.90"
    assert g_row >= 0.95, f"class-G row accuracy {g_row:.4f} < 0.95"

    # determinism spot check: retraining fold 0 reproduces its matrix exactly
    fold0 = stratified_fold_split(desk_dataset, 10, 40, 10, 0)[0]
    trained = train_fold(desk_dataset, fold0, cfg, net_seed=cfg.seed + 0)
    from radarnet.evaluation import evaluate, normalized

    tensors, labels = normalized(desk_dataset, fold0.test_ids, trained.mean_tensor)
    matrix = evaluate(trained.net, tensors, labels)
    assert np.array_equal(matrix.counts, report.fold_matrices[0].counts)

    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    fold_accs = ", ".join(f"{a:.3f}" for a in report.fold_accuracies)
    _passline(6, f"10-fold benchmark: mean accuracy {mean_acc:.4f} >= 0.90, "
                 f"class-G row {g_row:.4f} >= 0.95, deterministic; folds [{fold_accs}] "
                 f"({elapsed/60:.1f} min)")


def test_criterion_7_pipeline_invariant_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(707)

    # tensor channel-2 definition and zero padding
    t = build_tensor(rng.random((257, 9)), rng.random((257, 9)), 32)
    np.testing.assert_array_equal(t[2], (t[0] + t[1]) / 2)
    assert np.all(t[:, :, 9:] == 0.0)

    # mean normalization leaves a zero-mean training set
    tensors = np.stack([(rng.random((3, 16, 8)) * 100).astype(np.float32) for _ in range(32)])
    mean = compute_mean_tensor(tensors, range(32))
    residual = np.mean(
        [mean_normalize(RdTensor(x), mean).values.astype(np.float64) for x in tensors], axis=0
    )
    assert np.max(np.abs(residual)) < 1e-5

    # softmax normalization and shift invariance
    net = build_network("mini", (3, 257, 32), seed=0)
    x = rng.normal(size=(3, 257, 32)).astype(np.float32)
    _, scores = predict(net, x)
    assert abs(float(scores.sum()) - 1.0) < 1e-6 and np.all(scores > 0)
    logits = rng.normal(size=6)
    np.testing.assert_allclose(softmax(logits), softmax(logits + 57.0), atol=1e-6)

    # fold disjointness/quotas and balanced-batch class coverage
    from radarnet.dataset import Dataset, balanced_batches
    from pathlib import Path

    ds = Dataset(Path("."), {c: 50 for c in "ABCDEG"}, 0, P, ProfileTable(), 32)
    all_ids = {r.sample_id for r in ds.records}
    assert len(all_ids) == len(ds) == 300
    for fold in stratified_fold_split(ds, 4, 30, 10, seed=1):
        tr, va, te = set(fold.train_ids), set(fold.val_ids), set(fold.test_ids)
        assert not (tr & va) and not (tr & te) and not (va & te)
        assert tr | va | te == all_ids
        for c in "ABCDEG":
            assert sum(1 for i in fold.train_ids if i.startswith(c)) == 30
            assert sum(1 for i in fold.val_ids if i.startswith(c)) == 10
    labels = [VehicleClass(c) for c in "ABCDEG" for _ in range(7 + ord(c) % 3)]
    batches = balanced_batches(labels, seed=3)
    assert len(batches) == min(labels.count(VehicleClass(c)) for c in "ABCDEG")
    for batch in batches:
        assert {labels[pos].value for pos in batch} == set("ABCDEG")

    # confusion-matrix totals
    from radarnet.evaluation import confusion_matrix

    preds = [VehicleClass(c) for c in "AABCDEGGG"]
    labels = [VehicleClass(c) for c in "ABBCDEGGA"]
    m = confusion_matrix(preds, labels)
    assert m.total == len(preds)
    assert m.accuracy == np.trace(m.counts) / len(preds)
    rows = m.counts.sum(axis=1) > 0
    np.testing.assert_allclose(m.row_rates[rows].sum(axis=1), 1.0)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passline(7, f"pipeline invariants (channels, padding, normalization, softmax, "
                 f"folds, batches, confusion totals) all hold ({elapsed:.1f}s)")


def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(808)
    tensor = rng.normal(size=(3, 31, 17)).astype(np.float32)
    save_tensor(tensor, tmp_path / "t.rdt")
    back = load_tensor(tmp_path / "t.rdt")
    np.testing.assert_array_equal(back, tensor)
    save_tensor(back, tmp_path / "t2.rdt")
    assert (tmp_path / "t.rdt").read_bytes() == (tmp_path / "t2.rdt").read_bytes()

    net = build_network("mini", (3, 257, 32), seed=11)
    save_weights(net, tmp_path / "w.rdw")
    clone = build_network("mini", (3, 257, 32), seed=12)
    load_weights(clone, tmp_path / "w.rdw")
    for name, arr in net.params().items():
        np.testing.assert_array_equal(arr, clone.params()[name])
    save_weights(clone, tmp_path / "w2.rdw")
    assert (tmp_path / "w.rdw").read_bytes() == (tmp_path / "w2.rdw").read_bytes()

    pgm = export_pgm(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert pgm.startswith(b"P5\n2 2\n255\n")
    assert len(pgm) == len(b"P5\n2 2\n255\n") + 4

    _passline(8, "rdt and rdw roundtrips bit-exact; PGM header byte-exact")
