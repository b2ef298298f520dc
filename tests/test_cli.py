"""Subcommand behavior, exit codes and artifact reproducibility."""

import argparse
import dataclasses
import functools
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import radarnet
from radarnet import evaluation
from radarnet.cli import RUN_FIELDS, TRAIN_FIELDS, _load_run_config, build_parser, main
from radarnet.config import DESK_COUNTS, SKEWED_COUNTS, ConfigError, RunConfig, TrainConfig, apply_count_preset
from radarnet.dataset import (
    DATA_KEYS,
    MANIFEST_VERSION,
    load_dataset,
    load_tensor,
    save_signal,
    save_tensor,
    stratified_fold_split,
    tensor_to_bytes,
)
from radarnet.radar import (
    PointTarget,
    RadarParams,
    beat_frequencies,
    synthesize_point_targets,
)

P = RadarParams()

# a radar of half the ramp length and sample count: the same rate, another framing
FOREIGN = RadarParams(samples_per_ramp=256, fft_size=256, t_ramp=0.02)
FOREIGN_WORDS = f"signal of another radar: swept by {FOREIGN}, expected {P}"
# the default framing at another sweep bandwidth
WIDE_SWEEP = RadarParams(delta_f=150e6)

GEN_ARGS = ["--counts", "A=8,B=8,C=8,D=8,E=8,G=8", "--seed", "1"]
SPLIT_ARGS = ["--folds", "2", "--train-per-class", "4", "--val-per-class", "2"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    assert main(["generate", "-o", str(root / "ds"), *GEN_ARGS, "--keep-signals"]) == 0
    assert (
        main(
            ["train", "-d", str(root / "ds"), "-o", str(root / "model.rdw"),
             "--fold", "0", *SPLIT_ARGS, "--epochs", "2"]
        )
        == 0
    )
    return root


@pytest.fixture(scope="module")
def cropped(tmp_path_factory):
    """A dataset of 3x200x30 tensors with its signals, beside crop.json, the config that made it."""
    root = tmp_path_factory.mktemp("crop")
    (root / "crop.json").write_text(json.dumps({"target_width": 30, "freq_range": [0, 200]}))
    assert main(["generate", "-o", str(root / "ds"), "--config", str(root / "crop.json"),
                 *GEN_ARGS, "--keep-signals"]) == 0
    return root


@pytest.fixture(scope="module")
def wide_sweep_signal(tmp_path_factory):
    """An .rbs generated by a radar of another sweep bandwidth."""
    root = tmp_path_factory.mktemp("wide")
    (root / "radar.json").write_text(json.dumps({"radar": {"delta_f": WIDE_SWEEP.delta_f}}))
    assert main(["generate", "-o", str(root / "ds"), "--config", str(root / "radar.json"),
                 "--counts", "C=1", "--keep-signals"]) == 0
    return root / "ds" / "signals" / "C0000.rbs"


class TestGenerate:
    def test_outputs_exist(self, workspace):
        ds_dir = workspace / "ds"
        assert (ds_dir / "manifest.json").exists()
        assert len(list((ds_dir / "tensors").glob("*.rdt"))) == 48
        assert len(list((ds_dir / "signals").glob("*.rbs"))) == 48

    def test_rerun_byte_identical(self, workspace, tmp_path):
        assert main(["generate", "-o", str(tmp_path / "ds"), *GEN_ARGS]) == 0
        for f in sorted((workspace / "ds" / "tensors").glob("*.rdt")):
            assert f.read_bytes() == (tmp_path / "ds" / "tensors" / f.name).read_bytes()
        assert (workspace / "ds" / "manifest.json").read_text() == (
            tmp_path / "ds" / "manifest.json"
        ).read_text()

    def test_missing_parent_exits_1(self, tmp_path, capsys):
        rc = main(["generate", "-o", str(tmp_path / "a" / "b" / "ds"), *GEN_ARGS])
        assert rc == 1
        assert str(tmp_path / "a" / "b") in capsys.readouterr().err

    @pytest.mark.parametrize("args, words", [
        (["--target-width", "0"], ["target_width", "0"]),
        (["--freq-range", "10:5"], ["(10, 5)"]),
        (["--freq-range", "0:258"], ["(0, 258)"]),
        (["--freq-range", "5"], ["--freq-range", "'5'"]),
        (["--freq-range", "a:9"], ["--freq-range", "'a:9'"]),
        (["--counts", "A"], ["--counts", "'A'"]),
        (["--counts", "A=1,B=x"], ["--counts", "'B=x'"]),
        (["--counts", "A=1,a=2"], ["counts_per_class", "class A", "twice"]),
        (["--counts", "A=1,A=2"], ["--counts", "class A", "twice"]),
    ])
    def test_bad_argument_exits_1_before_writing(self, tmp_path, capsys, args, words):
        out = tmp_path / "ds"
        assert main(["generate", "-o", str(out), *GEN_ARGS, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(w in err for w in words), err
        assert not out.exists()

    def test_scatterers_ahead_of_the_radar_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "neg.json"
        cfg.write_text('{"profiles": {"entry_range": [-20, -18]}}')
        rc = main(["generate", "-o", str(tmp_path / "g"), "--counts", "A=2", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: scatterers must sit at or behind the radar"), err
        assert not (tmp_path / "g").exists()

    def test_nyquist_failure_leaves_no_directory(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"radar": {"samples_per_ramp": 256}}')
        rc = main(["generate", "-o", str(tmp_path / "g"), "--counts", "A=2", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: up-ramp beat")
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]   # neither g nor a partial sibling

    def test_desk_preset_writes_600(self, tmp_path):
        rc = main(["generate", "-o", str(tmp_path / "desk"), "--preset", "desk", "--seed", "1"])
        assert rc == 0
        assert len(list((tmp_path / "desk" / "tensors").glob("*.rdt"))) == 600
        manifest = json.loads((tmp_path / "desk" / "manifest.json").read_text())
        assert manifest["counts_per_class"] == {c: 100 for c in "ABCDEG"}
        assert sorted(manifest) == ["base_seed", "counts_per_class", "format_version", "freq_range", "profiles",
                                    "radar", "target_width"]
        assert len((tmp_path / "desk" / "manifest.json").read_bytes()) <= 4096


class TestPlot:
    def test_static_target_bright_line_at_predicted_bin(self, tmp_path):
        sig = synthesize_point_targets([PointTarget(50.0)], 8, P)
        save_signal(sig, tmp_path / "cal.rbs")
        out = tmp_path / "cal.pgm"
        assert main(["plot", str(tmp_path / "cal.rbs"), "-o", str(out), "--channels", "up"]) == 0
        data = out.read_bytes()
        header, pixels = data.split(b"\n255\n", 1)
        w, h = (int(v) for v in header.split(b"\n")[1].split())
        img = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)
        img = img[::-1]  # undo bottom-up flip: row = frequency bin
        row_energy = img[:, :4].astype(int).sum(axis=1)  # unpadded columns
        f_expected, _ = beat_frequencies(50.0, 0.0, P)
        expected_bin = round(f_expected / P.bin_hz)
        assert abs(int(np.argmax(row_energy)) - expected_bin) <= 1

    def test_zero_tensor_uniform_black(self, tmp_path):
        save_tensor(np.zeros((3, 16, 8), dtype=np.float32), tmp_path / "z.rdt")
        assert main(["plot", str(tmp_path / "z.rdt"), "-o", str(tmp_path / "z.pgm")]) == 0
        data = (tmp_path / "z.pgm").read_bytes()
        pixels = data.split(b"\n255\n", 1)[1]
        assert set(pixels) == {0}

    def test_log_flag_keeps_dimensions(self, workspace, tmp_path):
        src = next((workspace / "ds" / "tensors").glob("*.rdt"))
        a, b = tmp_path / "lin.pgm", tmp_path / "log.pgm"
        assert main(["plot", str(src), "-o", str(a)]) == 0
        assert main(["plot", str(src), "-o", str(b), "--log"]) == 0
        assert a.read_bytes()[:20].split(b"\n")[1] == b.read_bytes()[:20].split(b"\n")[1]
        assert len(a.read_bytes()) == len(b.read_bytes())

    def test_log_plot_of_negative_entries_exits_1(self, tmp_path, capsys):
        tensor = np.ones((3, 16, 8), dtype=np.float32)
        tensor[0, 3, 2] = -1.5
        save_tensor(tensor, tmp_path / "neg.rdt")
        rc = main(["plot", str(tmp_path / "neg.rdt"), "-o", str(tmp_path / "x.pgm"), "--log", "--channels", "up"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == "error: log-scaled PGM export needs entries >= 0, the minimum is -1.5\n"
        assert not (tmp_path / "x.pgm").exists()

    def test_bad_input_exits_1(self, tmp_path):
        missing = tmp_path / "none.rdt"
        assert main(["plot", str(missing), "-o", str(tmp_path / "x.pgm")]) == 1

    def test_signal_of_another_radar_exits_1(self, tmp_path, capsys):
        save_signal(synthesize_point_targets([PointTarget(30.0)], 8, FOREIGN), tmp_path / "foreign.rbs")
        assert main(["plot", str(tmp_path / "foreign.rbs"), "-o", str(tmp_path / "x.pgm")]) == 1
        assert capsys.readouterr().err == f"error: {FOREIGN_WORDS}\n"
        assert not (tmp_path / "x.pgm").exists()

    def test_crop_to_width_zero_exits_1(self, tmp_path, capsys):
        save_signal(synthesize_point_targets([PointTarget(50.0)], 8, P), tmp_path / "cal.rbs")
        rc = main(["plot", str(tmp_path / "cal.rbs"), "-o", str(tmp_path / "x.pgm"),
                   "--crop", "--target-width", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: target_width must be an integer >= 1, got 0\n"
        assert not (tmp_path / "x.pgm").exists()

    def test_sweep_of_another_bandwidth_exits_1(self, wide_sweep_signal, tmp_path, capsys):
        assert main(["plot", str(wide_sweep_signal), "-o", str(tmp_path / "x.pgm")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: signal of another radar: swept by {WIDE_SWEEP}, expected {P}\n"
        assert not (tmp_path / "x.pgm").exists()


class TestTrainEvalPredict:
    def test_model_bundle_written(self, workspace):
        assert (workspace / "model.rdw").exists()
        assert (workspace / "model.mean.rdt").exists()
        assert (workspace / "model.meta.json").exists()
        assert (workspace / "model.history.json").exists()

    def test_eval_reports_accuracy(self, workspace, tmp_path, capsys):
        rc = main(
            ["eval", "-d", str(workspace / "ds"), "-w", str(workspace / "model.rdw"),
             "-o", str(tmp_path / "report.json")]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "accuracy" in report
        assert np.array(report["counts"]).sum() == 12  # 2/class remain for test

    def test_eval_scores_the_test_split_of_the_models_fold(self, workspace, tmp_path, monkeypatch):
        model = str(tmp_path / "m.rdw")
        assert main(["train", "-d", str(workspace / "ds"), "-o", model, "--fold", "1", "--split-seed", "5",
                     *SPLIT_ARGS, "--epochs", "1"]) == 0
        meta = json.loads((tmp_path / "m.meta.json").read_text())
        assert (meta["format_version"], meta["fold"], meta["split_seed"], meta["folds"]) == (4, 1, 5, 2)
        assert (meta["counts_per_class"], meta["base_seed"]) == ({c: 8 for c in "ABCDEG"}, 1)
        assert "input_shape" not in meta
        scored = []

        def spy(ds, ids, mean, normalized=evaluation.normalized):
            scored.append(ids)
            return normalized(ds, ids, mean)

        monkeypatch.setattr(evaluation, "normalized", spy)
        assert main(["eval", "-d", str(workspace / "ds"), "-w", model, "-o", str(tmp_path / "r.json")]) == 0
        expected = stratified_fold_split(load_dataset(workspace / "ds"), 2, 4, 2, 5)[1]
        assert scored == [list(expected.test_ids)]
        assert sum(map(sum, json.loads((tmp_path / "r.json").read_text())["counts"])) == 12
        # --all scores every sample, whatever the model's split
        assert main(["eval", "-d", str(workspace / "ds"), "-w", model, "--all"]) == 0
        assert scored[1] == [r.sample_id for r in load_dataset(workspace / "ds").records]

    @pytest.mark.parametrize("flag", [["--config", "run.json"], ["--fold", "1"], ["--folds", "2"],
                                      ["--split-seed", "5"], ["--train-per-class", "4"], ["--val-per-class", "2"],
                                      ["--preset", "desk"]], ids=lambda flag: flag[0])
    def test_eval_takes_no_split_flag(self, workspace, flag):
        # the split and fold come from the model; another fold's test split holds its training samples
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-d", str(workspace / "ds"), "-w", str(workspace / "model.rdw"), *flag])
        assert exc.value.code == 2

    def test_predict_tensor_and_signal_agree(self, workspace, capsys):
        sid = "C0003"
        rc = main(["predict", "-w", str(workspace / "model.rdw"),
                   str(workspace / "ds" / "tensors" / f"{sid}.rdt")])
        assert rc == 0
        out_tensor = capsys.readouterr().out
        rc = main(["predict", "-w", str(workspace / "model.rdw"),
                   str(workspace / "ds" / "signals" / f"{sid}.rbs")])
        assert rc == 0
        out_signal = capsys.readouterr().out
        assert out_tensor == out_signal
        scores = [float(line.split(":")[1]) for line in out_tensor.strip().splitlines()[1:]]
        assert math.isclose(sum(scores), 1.0, abs_tol=1e-6)
        assert len(scores) == 6

    def test_predict_takes_no_config(self, workspace, tmp_path):
        # a model's radar, width and crop come from its meta alone
        (tmp_path / "crop.json").write_text(json.dumps({"freq_range": [0, 100]}))
        with pytest.raises(SystemExit) as exc:
            main(["predict", "-w", str(workspace / "model.rdw"), "--config", str(tmp_path / "crop.json"),
                  str(workspace / "ds" / "signals" / "C0003.rbs")])
        assert exc.value.code == 2

    def test_model_of_cropped_data_predicts_its_own_signal(self, cropped, tmp_path, capsys):
        model = str(tmp_path / "m.rdw")
        assert main(["train", "-d", str(cropped / "ds"), "-o", model, "--config", str(cropped / "crop.json"),
                     *SPLIT_ARGS, "--epochs", "1"]) == 0
        assert main(["eval", "-d", str(cropped / "ds"), "-w", model]) == 0
        capsys.readouterr()
        rc = main(["predict", "-w", model, str(cropped / "ds" / "signals" / "C0003.rbs")])
        assert rc == 0, capsys.readouterr().err
        # the signal went through the model's crop: it scores as its stored tensor does
        assert main(["predict", "-w", model, str(cropped / "ds" / "tensors" / "C0003.rdt")]) == 0
        out_signal, out_tensor = capsys.readouterr().out.split("predicted", 2)[1:]
        assert out_signal == out_tensor

    @pytest.mark.parametrize("data, words", [
        ("wide", [f"sets radar {P}", f"made with radar {WIDE_SWEEP}"]),
        ("cropped", ["sets target_width 32,", "made with target_width 30"]),
    ])
    def test_train_refuses_data_of_other_settings(self, request, tmp_path, capsys, data, words):
        # the data's settings are the run's; a --config naming another value is refused, not ignored
        if data == "wide":
            ds = request.getfixturevalue("wide_sweep_signal").parent.parent
            (tmp_path / "run.json").write_text(json.dumps({"radar": {"delta_f": P.delta_f}}))
        else:
            ds = request.getfixturevalue("cropped") / "ds"
            (tmp_path / "run.json").write_text(json.dumps({"target_width": 32, "freq_range": [0, 200]}))
        capsys.readouterr()   # what generate printed
        rc = main(["train", "-d", str(ds), "-o", str(tmp_path / "m.rdw"), "--config", str(tmp_path / "run.json"),
                   *SPLIT_ARGS, "--epochs", "1"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert all(w in err for w in words), err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_data_larger_than_memory_exits_1(self, tmp_path, capsys):
        # a valid manifest whose 360 tensors of 3x257x80000 need 82.7 GiB at once; where the host grants
        # that much address space, the first missing tensor file stops the read instead
        (tmp_path / "ds").mkdir()
        run = RunConfig(counts_per_class={c: 60 for c in "ABCDEG"}, target_width=80000)
        run.write_record(tmp_path / "ds" / "manifest.json", MANIFEST_VERSION, DATA_KEYS)
        rc = main(["train", "-d", str(tmp_path / "ds"), "-o", str(tmp_path / "m.rdw"), *SPLIT_ARGS, "--epochs", "1"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert not (tmp_path / "m.rdw").exists()

    @pytest.mark.parametrize("key, value", [("base_seed", 5), ("counts_per_class", {"A": 1})])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_train_and_cv_refuse_a_config_of_another_generation(self, workspace, tmp_path, capsys, command, key,
                                                                 value):
        # the data's class counts and base seed are the run's, as its radar is
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        rc = main([command, "-d", str(workspace / "ds"), "-o", str(tmp_path / "out"),
                   "--config", str(tmp_path / "run.json"), *SPLIT_ARGS, "--epochs", "1"])
        assert rc == 1
        theirs = {"base_seed": 1, "counts_per_class": {c: 8 for c in "ABCDEG"}}[key]
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: {tmp_path / 'run.json'} sets {key} {value}, "
                                     f"but {workspace / 'ds'} was made with {key} {theirs}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_a_config_repeating_the_generation_is_accepted(self, workspace, tmp_path):
        ds = load_dataset(workspace / "ds")
        for named in [{}, {"base_seed": 1, "counts_per_class": ds.counts_per_class}]:
            (tmp_path / "run.json").write_text(json.dumps(named))
            args = build_parser().parse_args(["train", "-d", str(workspace / "ds"), "-o", "m.rdw",
                                              "--config", str(tmp_path / "run.json")])
            cfg = _load_run_config(args, ds)
            assert (cfg.base_seed, cfg.counts_per_class) == (1, {c: 8 for c in "ABCDEG"})

    @pytest.mark.parametrize("command", ["cv"])
    def test_eval_and_cv_refuse_a_config_of_another_radar(self, workspace, tmp_path, capsys, command):
        (tmp_path / "wide.json").write_text(json.dumps({"radar": {"delta_f": WIDE_SWEEP.delta_f}}))
        rc = main([command, "-d", str(workspace / "ds"), "--epochs", "1", "--config", str(tmp_path / "wide.json"),
                   "-o", str(tmp_path / "report.json"), *SPLIT_ARGS])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {tmp_path / 'wide.json'} sets radar {WIDE_SWEEP}, "
                       f"but {workspace / 'ds'} was made with radar {P}\n")
        assert not (tmp_path / "report.json").exists()

    def test_train_takes_the_settings_of_its_data(self, wide_sweep_signal, cropped, tmp_path, capsys):
        # wide data, no --config: the model is one of wide's radar and predicts wide's signal
        wide = wide_sweep_signal.parent.parent
        assert main(["generate", "-o", str(tmp_path / "wide"), "--config", str(wide.parent / "radar.json"),
                     *GEN_ARGS, "--keep-signals"]) == 0
        assert main(["train", "-d", str(tmp_path / "wide"), "-o", str(tmp_path / "w.rdw"),
                     *SPLIT_ARGS, "--epochs", "1"]) == 0
        meta = json.loads((tmp_path / "w.meta.json").read_text())
        assert RadarParams(**meta["radar"]) == WIDE_SWEEP
        assert (meta["target_width"], meta["freq_range"]) == (32, None)
        assert main(["predict", "-w", str(tmp_path / "w.rdw"), str(wide_sweep_signal)]) == 0
        # a config that repeats the data's values is accepted; cv reads the crop from the data
        assert main(["cv", "-d", str(cropped / "ds"), "--config", str(cropped / "crop.json"),
                     *SPLIT_ARGS, "--epochs", "1"]) == 0
        assert main(["cv", "-d", str(cropped / "ds"), *SPLIT_ARGS, "--epochs", "1"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("fold", [-1, 2])
    @pytest.mark.parametrize("command", ["train"])
    def test_fold_out_of_range_exits_1(self, workspace, tmp_path, capsys, command, fold):
        rc = main([command, "-d", str(workspace / "ds"), "-o", str(tmp_path / "m.rdw"), "--fold", str(fold),
                   *SPLIT_ARGS])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"fold {fold} " in err and "2 folds" in err
        assert not (tmp_path / "m.rdw").exists()

    def test_predict_rejects_tensor_of_another_width(self, workspace, tmp_path, capsys):
        # a (3, 257, 1) tensor would broadcast silently against the (3, 257, 32) mean
        save_tensor(np.ones((3, 257, 1), dtype=np.float32), tmp_path / "narrow.rdt")
        rc = main(["predict", "-w", str(workspace / "model.rdw"), str(tmp_path / "narrow.rdt")])
        assert rc == 1
        assert "shape" in capsys.readouterr().err

    def test_predict_refuses_signal_of_another_radar(self, workspace, tmp_path, capsys):
        save_signal(synthesize_point_targets([PointTarget(30.0)], 8, FOREIGN), tmp_path / "foreign.rbs")
        rc = main(["predict", "-w", str(workspace / "model.rdw"), str(tmp_path / "foreign.rbs")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {FOREIGN_WORDS}\n"

    def test_predict_refuses_sweep_of_another_bandwidth(self, workspace, wide_sweep_signal, capsys):
        rc = main(["predict", "-w", str(workspace / "model.rdw"), str(wide_sweep_signal)])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: signal of another radar: swept by {WIDE_SWEEP}, expected {P}\n"

    def test_predict_refuses_version_1_signal(self, workspace, tmp_path, capsys):
        # the v1 header: samples per ramp, first ramp, class index, sample rate, sample count
        header = b"RBS1" + struct.pack("<IBbdQ", 512, 0, -1, 12800.0, 1024)
        (tmp_path / "old.rbs").write_bytes(header + bytes(8 * 1024))
        rc = main(["predict", "-w", str(workspace / "model.rdw"), str(tmp_path / "old.rbs")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {tmp_path / 'old.rbs'}: bad magic b'RBS1', expected b'RBS2'\n"

    def test_predict_refuses_nan_scores(self, workspace, tmp_path, capsys):
        tensor = load_tensor(workspace / "ds" / "tensors" / "C0003.rdt").copy()
        tensor[0, 0, 0] = np.nan
        (tmp_path / "nan.rdt").write_bytes(tensor_to_bytes(tensor))     # save_tensor refuses it
        rc = main(["predict", "-w", str(workspace / "model.rdw"), str(tmp_path / "nan.rdt")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {tmp_path / 'nan.rdt'}: payload holds a NaN or infinite value\n"

    def test_negative_epochs_exit_1(self, workspace, tmp_path, capsys):
        rc = main(["train", "-d", str(workspace / "ds"), "-o", str(tmp_path / "m.rdw"),
                   "--fold", "0", *SPLIT_ARGS, "--epochs", "-3"])
        assert rc == 1
        assert capsys.readouterr().err == "error: epochs must be an integer >= 0, got -3\n"
        assert not (tmp_path / "m.rdw").exists()

    @pytest.mark.parametrize("flag, value, words", [
        ("--lr", "nan", "learning_rate must be positive and finite, got nan"),
        ("--weight-decay", "inf", "weight_decay must be >= 0 and finite, got inf"),
    ])
    def test_non_finite_rate_exits_1_before_training(self, workspace, tmp_path, capsys, flag, value, words):
        rc = main(["train", "-d", str(workspace / "ds"), "-o", str(tmp_path / "m.rdw"),
                   "--fold", "0", *SPLIT_ARGS, flag, value])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {words}\n"
        assert not (tmp_path / "m.rdw").exists()

    def test_predict_missing_mean_exits_1(self, workspace, tmp_path, capsys):
        orphan = tmp_path / "orphan.rdw"
        orphan.write_bytes((workspace / "model.rdw").read_bytes())
        rc = main(["predict", "-w", str(orphan),
                   str(workspace / "ds" / "tensors" / "A0000.rdt")])
        assert rc == 1
        assert "orphan.mean.rdt" in capsys.readouterr().err

    def test_missing_meta_exits_1(self, workspace, tmp_path, capsys):
        for suffix in (".rdw", ".mean.rdt"):
            (tmp_path / f"bare{suffix}").write_bytes((workspace / f"model{suffix}").read_bytes())
        rc = main(["eval", "-d", str(workspace / "ds"), "-w", str(tmp_path / "bare.rdw")])
        assert rc == 1
        assert "bare.meta.json" in capsys.readouterr().err

    def test_eval_refuses_data_from_another_radar(self, workspace, tmp_path, capsys):
        config = tmp_path / "radar.json"
        config.write_text(json.dumps({"radar": {"f0": 24.125e9, "delta_f": 150e6}}))
        assert main(["generate", "-o", str(tmp_path / "ds"), "--config", str(config), *GEN_ARGS]) == 0
        capsys.readouterr()
        rc = main(["eval", "-d", str(tmp_path / "ds"), "-w", str(workspace / "model.rdw")])
        assert rc == 1
        assert "radar" in capsys.readouterr().err

    def test_eval_refuses_data_of_another_tensor_shape(self, workspace, cropped, capsys):
        capsys.readouterr()
        rc = main(["eval", "-d", str(cropped / "ds"), "-w", str(workspace / "model.rdw")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(w in err for w in ["made with target_width 30",
                                                                    "the model's target_width is 32"]), err

    def test_eval_refuses_data_of_the_same_shape_cropped_elsewhere(self, cropped, tmp_path, capsys):
        model = str(tmp_path / "m.rdw")
        assert main(["train", "-d", str(cropped / "ds"), "-o", model, *SPLIT_ARGS, "--epochs", "1"]) == 0
        (tmp_path / "shifted.json").write_text(json.dumps({"target_width": 30, "freq_range": [10, 210]}))
        assert main(["generate", "-o", str(tmp_path / "ds"), "--config", str(tmp_path / "shifted.json"),
                     *GEN_ARGS]) == 0
        capsys.readouterr()
        rc = main(["eval", "-d", str(tmp_path / "ds"), "-w", model])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: {tmp_path / 'ds'} was made with freq_range (10, 210), "
                                     f"but the model's freq_range is (0, 200)\n")

    @pytest.mark.parametrize("gen, key, theirs, ours", [
        (["--counts", "A=10,B=10,C=10,D=10,E=10,G=10", "--seed", "1"], "counts_per_class",
         {c: 10 for c in "ABCDEG"}, {c: 8 for c in "ABCDEG"}),
        (["--counts", "A=8,B=8,C=8,D=8,E=8,G=8", "--seed", "2"], "base_seed", 2, 1),
    ], ids=["other-counts", "other-base-seed"])
    def test_eval_refuses_data_it_would_re_split(self, workspace, tmp_path, capsys, gen, key, theirs, ours):
        # another generation gives the model's split other seeds, so its test split could hold the
        # scenario of a training sample; --all scores every sample and needs only the model's input
        assert main(["generate", "-o", str(tmp_path / "ds"), *gen]) == 0
        capsys.readouterr()
        weights = ["-w", str(workspace / "model.rdw")]
        assert main(["eval", "-d", str(tmp_path / "ds"), *weights]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: {tmp_path / 'ds'} was made with {key} {theirs}, "
                                     f"but the model's {key} is {ours}\n")
        assert main(["eval", "-d", str(tmp_path / "ds"), *weights, "--all"]) == 0

    def test_closed_stdout_exits_1_quietly(self, workspace):
        # the reader of stdout is gone before eval prints; buffered, the write fails only at exit
        for env in [{"PYTHONUNBUFFERED": "1"}, {}]:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "radarnet.cli", "eval", "-d", str(workspace / "ds"),
                     "-w", str(workspace / "model.rdw")],
                    stdout=write, stderr=subprocess.PIPE, timeout=120,
                    env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, **env,
                         "PYTHONPATH": str(Path(radarnet.__file__).parents[1])})
            finally:
                os.close(write)
            assert (proc.returncode, proc.stderr) == (1, b""), env

    def test_eval_accepts_the_default_radar_spelled_in_integers(self, workspace, tmp_path, capsys):
        config = tmp_path / "radar.json"
        config.write_text('{"radar": {"f0": 24000000000, "delta_f": 120000000}}')
        assert main(["generate", "-o", str(tmp_path / "ds"), "--config", str(config), *GEN_ARGS]) == 0
        capsys.readouterr()
        rc = main(["eval", "-d", str(tmp_path / "ds"), "-w", str(workspace / "model.rdw")])
        assert rc == 0, capsys.readouterr().err

    def test_train_deterministic(self, workspace, tmp_path):
        args = ["train", "-d", str(workspace / "ds"), "--fold", "0", *SPLIT_ARGS, "--epochs", "2"]
        assert main([*args, "-o", str(tmp_path / "m1.rdw")]) == 0
        assert main([*args, "-o", str(tmp_path / "m2.rdw")]) == 0
        assert (tmp_path / "m1.rdw").read_bytes() == (tmp_path / "m2.rdw").read_bytes()


class TestMalformedModelMeta:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    @pytest.mark.parametrize("edit, words", [
        (lambda m: {**m, "radar": {**m["radar"], "no_such_field": 1}}, ["no_such_field"]),
        (lambda m: {**m, "radar": {**m["radar"], "samples_per_ramp": "512"}}, ["bad config field"]),
        (lambda m: {**m, "freq_range": 5}, ["freq_range"]),
        (lambda m: [m], ["JSON object"]),
        (lambda m: {k: v for k, v in m.items() if k != "preset"}, ["preset"]),
        (lambda m: {k: v for k, v in m.items() if k != "format_version"}, ["format version None, expected 4"]),
        (lambda m: {**m, "format_version": 1}, ["format version 1, expected 4"]),
        (lambda m: {**m, "format_version": 2}, ["format version 2, expected 4"]),
        # version 3 named no class counts or base seed, so eval could not tell re-split data
        (lambda m: {**{k: v for k, v in m.items() if k not in ("counts_per_class", "base_seed")},
                    "format_version": 3}, ["format version 3, expected 4"]),
        (lambda m: {**m, "radar": {**m["radar"], "amplitude": 1.0, "geometry": {"h": 5.3}}},
         ["bad config field", "amplitude"]),
        (lambda m: {**m, "class_order": m["class_order"][::-1]}, ["class order ['G', 'E'", "expected ['A', 'B'"]),
        (lambda m: {k: v for k, v in m.items() if k != "split_seed"}, ["split_seed"]),
        (lambda m: {**m, "fold": 2}, ["fold 2 is not one of its 2 folds"]),
        (lambda m: {**m, "fold": "0"}, ["fold '0' is not one of its 2 folds"]),
        # the other five radar values would come from the defaults, which may move under the model
        (lambda m: {**m, "radar": {"delta_f": 120e6}}, ["field 'radar' does not name every value"]),
        (lambda m: {k: v for k, v in m.items() if k != "base_seed"}, ["field 'base_seed' is missing"]),
        # the manifest's rule: the version is the integer 4, and no key beyond the record's
        (lambda m: {**m, "format_version": 4.0}, ["format version 4.0, expected 4"]),
        (lambda m: {**m, "format_version": True}, ["format version True, expected 4"]),
        (lambda m: {**m, "typo_fold": 7}, ["unknown field 'typo_fold'"]),
    ], ids=["unknown-radar-field", "string-samples-per-ramp", "scalar-freq-range", "list", "no-preset",
            "no-format-version", "format-version-1", "format-version-2", "format-version-3", "old-radar-keys",
            "class-order", "no-split-seed", "fold-out-of-range", "string-fold", "radar-without-every-value",
            "no-base-seed", "float-format-version", "bool-format-version", "unknown-key"])
    def test_exits_1(self, workspace, tmp_path, capsys, command, edit, words):
        for suffix in (".rdw", ".mean.rdt"):
            (tmp_path / f"model{suffix}").write_bytes((workspace / f"model{suffix}").read_bytes())
        meta = json.loads((workspace / "model.meta.json").read_text())
        (tmp_path / "model.meta.json").write_text(json.dumps(edit(meta)))
        weights = ["-w", str(tmp_path / "model.rdw")]
        if command == "predict":
            rc = main(["predict", *weights, str(workspace / "ds" / "tensors" / "A0000.rdt")])
        else:
            rc = main(["eval", "-d", str(workspace / "ds"), *weights])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model.meta.json" in err
        assert all(w in err for w in words), err

    @pytest.mark.parametrize("text", [b'{"format_version": 4, ', b'{"format_version": 4}\xff'],
                             ids=["truncated", "not-utf8"])
    def test_undecodable_meta_exits_1(self, workspace, tmp_path, capsys, text):
        for suffix in (".rdw", ".mean.rdt"):
            (tmp_path / f"model{suffix}").write_bytes((workspace / f"model{suffix}").read_bytes())
        (tmp_path / "model.meta.json").write_bytes(text)
        rc = main(["predict", "-w", str(tmp_path / "model.rdw"), str(workspace / "ds" / "tensors" / "A0000.rdt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: model meta {tmp_path / 'model.meta.json'}: not a UTF-8 JSON document"), err

    def test_mean_of_another_width_exits_1(self, workspace, tmp_path, capsys):
        # an input as wide as the mean would pass mean_normalize, and the net would take it
        for suffix in (".rdw", ".meta.json"):
            (tmp_path / f"model{suffix}").write_bytes((workspace / f"model{suffix}").read_bytes())
        save_tensor(np.zeros((3, 257, 33), dtype=np.float32), tmp_path / "model.mean.rdt")
        save_tensor(np.ones((3, 257, 33), dtype=np.float32), tmp_path / "wide.rdt")
        rc = main(["predict", "-w", str(tmp_path / "model.rdw"), str(tmp_path / "wide.rdt")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "model.meta.json" in err
        assert "(3, 257, 33)" in err and "(3, 257, 32)" in err


class TestMalformedManifest:
    @pytest.mark.parametrize("key, value", [
        ("samples", 5),     # a leftover of format 3
        ("target_width", "x"),
        ("format_version", "zz"),
        ("format_version", 1),
        ("format_version", 2),
        ("format_version", 3),
        ("radar", {"no_such_field": 1}),
        ("target_width", 0),
        ("freq_range", [0, 300]),
        ("profiles", 5),
        ("class_counts", {"A": 8}),     # a leftover of format 3
        ("counts_per_class", {"A": 0}),
        ("counts_per_class", {"Q": 8}),
        ("counts_per_class", 8),
        ("counts_per_class", {"A": 1 << 21}),
        ("base_seed", "1"),
    ])
    def test_train_exits_1(self, workspace, tmp_path, capsys, key, value):
        manifest = json.loads((workspace / "ds" / "manifest.json").read_text())
        manifest[key] = value
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["train", "-d", str(tmp_path / "ds"), "-o", str(tmp_path / "m.rdw"), *SPLIT_ARGS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest.json" in err and "Traceback" not in err

    def test_train_on_a_symlink_out_of_the_root_exits_1(self, workspace, tmp_path, capsys):
        src = workspace / "ds"
        (tmp_path / "ds" / "tensors").mkdir(parents=True)
        (tmp_path / "ds" / "manifest.json").write_bytes((src / "manifest.json").read_bytes())
        for f in (src / "tensors").glob("*.rdt"):
            (tmp_path / "ds" / "tensors" / f.name).symlink_to(f)
        rc = main(["train", "-d", str(tmp_path / "ds"), "-o", str(tmp_path / "m.rdw"), *SPLIT_ARGS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "leaves the dataset root" in err
        assert not (tmp_path / "m.rdw").exists()


class TestCv:
    def test_cv_runs_and_reports(self, workspace, tmp_path, capsys):
        rc = main(
            ["cv", "-d", str(workspace / "ds"), "-o", str(tmp_path / "cv.json"),
             "--matrix-pgm", str(tmp_path / "cv.pgm"), *SPLIT_ARGS, "--epochs", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean accuracy" in out
        report = json.loads((tmp_path / "cv.json").read_text())
        assert len(report["folds"]) == 2
        assert (tmp_path / "cv.pgm").read_bytes().startswith(b"P5\n6 6\n255\n")
        # a standalone train of fold 1 repeats the cv fold's epochs
        assert main(["train", "-d", str(workspace / "ds"), "-o", str(tmp_path / "m.rdw"),
                     "--fold", "1", *SPLIT_ARGS, "--epochs", "1"]) == 0
        history = json.loads((tmp_path / "m.history.json").read_text())
        assert len(history["epochs"]) == 1
        assert report["folds"][1]["epochs"] == history["epochs"]

    def test_report_run_as_config_reproduces_the_report(self, cropped, tmp_path, capsys):
        # the run names the data's settings, counts and base seed, and the protocol; it is a whole --config
        ds = str(cropped / "ds")
        assert main(["cv", "-d", ds, "-o", str(tmp_path / "r1.json"), *SPLIT_ARGS, "--split-seed", "3",
                     "--epochs", "1", "--lr", "0.001"]) == 0
        run = json.loads((tmp_path / "r1.json").read_text())["run"]
        assert (run["target_width"], run["freq_range"], run["base_seed"]) == (30, [0, 200], 1)
        assert run["counts_per_class"] == {c: 8 for c in "ABCDEG"}
        assert RunConfig.from_dict(run) == RunConfig(**load_dataset(cropped / "ds").settings, folds=2,
                                                     train_per_class=4, val_per_class=2, split_seed=3,
                                                     train=TrainConfig(learning_rate=0.001, epochs=1))
        (tmp_path / "run.json").write_text(json.dumps(run))
        assert main(["cv", "-d", ds, "--config", str(tmp_path / "run.json"), "-o", str(tmp_path / "r2.json")]) == 0
        assert (tmp_path / "r2.json").read_bytes() == (tmp_path / "r1.json").read_bytes()
        capsys.readouterr()

    @pytest.mark.parametrize("quotas", [["--train-per-class", "-3"], ["--val-per-class", "-1"],
                                        ["--val-per-class", "0"], ["--folds", "0"]])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_quota_below_one_exits_1(self, workspace, tmp_path, capsys, command, quotas):
        rc = main([command, "-d", str(workspace / "ds"), "-o", str(tmp_path / "out"),
                   *SPLIT_ARGS, *quotas, "--epochs", "1"])
        assert rc == 1
        field = quotas[0].removeprefix("--").replace("-", "_")
        assert capsys.readouterr().err == f"error: {field} must be an integer >= 1, got {quotas[1]}\n"
        assert not (tmp_path / "out").exists()


class TestConfig:
    def test_dump_round_trips(self, tmp_path, capsys):
        assert main(["config", "--dump"]) == 0
        text = capsys.readouterr().out
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        assert main(["config", "--config", str(cfg_file), "--dump"]) == 0
        assert capsys.readouterr().out == text

    def test_defaults_match_module_defaults(self, capsys):
        assert main(["config", "--dump"]) == 0
        cfg = json.loads(capsys.readouterr().out)
        assert cfg["train"]["learning_rate"] == 0.0001
        assert cfg["train"]["momentum"] == 0.9
        assert cfg["train"]["weight_decay"] == 0.0005
        assert cfg["radar"]["f0"] == 24e9
        assert cfg["radar"]["delta_f"] == 120e6
        assert cfg["radar"]["t_ramp"] == 0.040
        assert cfg["radar"]["mount_height"] == 5.3
        assert len(cfg["radar"]) == 6
        assert cfg["target_width"] == 32
        assert cfg["folds"] == 10

    @pytest.mark.parametrize("text", [b'{"folds": ', b'{"folds": 2}\xff'], ids=["truncated", "not-utf8"])
    def test_undecodable_config_exits_1_naming_it(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["config", "--config", str(bad), "--dump"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: not a UTF-8 JSON document"), err

    @pytest.mark.parametrize("text, words", [
        ("[1]", "a run config is a JSON object, not list"),
        ('{"typo": 1}', "unknown config field 'typo'"),
        ('{"folds": 0}', "folds must be an integer >= 1, got 0"),
    ], ids=["list", "unknown-field", "zero-folds"])
    def test_refused_config_contents_name_the_file(self, tmp_path, capsys, text, words):
        bad = tmp_path / "arr.json"
        bad.write_text(text)
        assert main(["config", "--config", str(bad), "--dump"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {bad}: {words}\n"

    def test_count_preset_makes_a_new_run(self):
        cfg = RunConfig(counts_per_class={"A": 2})
        made = apply_count_preset(cfg, "desk")
        assert made == RunConfig(counts_per_class=DESK_COUNTS) and made is not cfg
        assert cfg == RunConfig(counts_per_class={"A": 2})
        with pytest.raises(ValueError, match="unknown count preset 'huge'"):
            apply_count_preset(cfg, "huge")

    def test_invalid_config_field_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"no_such_field": 1}')
        assert main(["config", "--config", str(bad), "--dump"]) == 1
        assert "no_such_field" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('{"target_width": "x"}', "target_width"),
        ('{"counts_per_class": 5}', "counts_per_class"),
        ('{"train": {"epochs": "3"}}', "epochs"),
        ('{"train": {"learning_rate": "x"}}', "learning_rate"),
        ('{"profiles": {"classes": {"A": 5}}}', "'profiles.classes.A' must be dict"),
        ('{"profiles": {"classes": [1]}}', "'profiles.classes' must be dict"),
        ('{"profiles": 5}', "'profiles' must be dict"),
    ])
    def test_mistyped_config_field_exits_1(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(bad), "-o", str(out), *GEN_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    # configs that no generation can run: refused as the config is built,
    # before any directory is made
    _PROFILE_A = ('{{"profiles": {{"classes": {{"A": {{"length_range": {length}, "speed_range": [25, 36], '
                  '"reflectivity_range": {reflectivity}, "scatterer_spacing": {spacing}}}}}}}}}')
    _PROFILE_B = ('{{"profiles": {{"classes": {{"B": {{"length_range": [8, 12], "speed_range": [22, 33], '
                  '"reflectivity_range": [0.15, 0.28], {field}}}}}}}}}')

    @pytest.mark.parametrize("text, words", [
        ('{"profiles": {"classes": {"A": {"length_range": [3.5, 5.0], "speed_range": [25, 36], '
         '"reflectivity_range": [0.1, 0.18], "scatterer_spacing": 0}}}}', "scatterer_spacing must be positive"),
        ('{"radar": {"fft_size": 600}}', "fft_size must be a power of two, got 600"),
        ('{"radar": {"f0": NaN}}', "radar f0 must be positive and finite, got nan"),
        ('{"radar": {"t_ramp": Infinity}}', "radar t_ramp must be positive and finite, got inf"),
        ('{"radar": {"mount_height": NaN}}', "radar mount_height must be positive and finite, got nan"),
        ('{"radar": {"c": -1}}', "bad config field: RadarParams.__init__() got an unexpected keyword argument 'c'"),
        ('{"radar": {"amplitude": 1.0}}', "bad config field: RadarParams.__init__() got an unexpected keyword "
                                          "argument 'amplitude'"),
        ('{"radar": {"geometry": {"h": 5.3}}}', "bad config field: RadarParams.__init__() got an unexpected "
                                                "keyword argument 'geometry'"),
        (_PROFILE_A.format(length="[3.5, 5.0]", reflectivity="[0.1, 0.18]", spacing="1e-9"),
         "scatterer_spacing must be positive and put at most 1024 scatterers on a 5.0 m vehicle, got 1e-09"),
        (_PROFILE_A.format(length="[0, 5.0]", reflectivity="[0.1, 0.18]", spacing="1.0"),
         "length_range must be positive, got (0, 5.0)"),
        (_PROFILE_A.format(length="[3.5, NaN]", reflectivity="[0.1, 0.18]", spacing="1.0"),
         "length_range must be two finite numbers, got (3.5, nan)"),
        (_PROFILE_A.format(length="[3.5, 5.0]", reflectivity="[-0.1, 0.18]", spacing="1.0"),
         "reflectivity_range must be >= 0, got (-0.1, 0.18)"),
        (_PROFILE_B.format(field='"cluster_gap": "x"'), "cluster_gap must lie in [0, 1], got 'x'"),
        (_PROFILE_B.format(field='"cluster_gap": 3.0'), "cluster_gap must lie in [0, 1], got 3.0"),
        (_PROFILE_B.format(field='"cluster_gap": -0.1'), "cluster_gap must lie in [0, 1], got -0.1"),
        (_PROFILE_B.format(field='"trailer_gain": -2'), "trailer_gain must be >= 0 and finite, got -2"),
        (_PROFILE_B.format(field='"trailer_gain": Infinity'), "trailer_gain must be >= 0 and finite, got inf"),
        (_PROFILE_B.format(field='"scatterer_spacing": true'),
         "scatterer_spacing must be positive and put at most 1024 scatterers on a 12 m vehicle, got True"),
        ('{"radar": {"delta_f": true}}', "radar delta_f must be positive and finite, got True"),
        ('{"radar": {"mount_height": true}}', "radar mount_height must be positive and finite, got True"),
        ('{"radar": {"f0": "24e9"}}', "radar f0 must be positive and finite, got 24e9"),
    ], ids=["zero-spacing", "fft-600", "nan-f0", "inf-t-ramp", "nan-mount-height", "c", "amplitude", "geometry",
            "dense-scatterers", "zero-length", "nan-length", "negative-reflectivity", "string-gap", "gap-above-1",
            "negative-gap", "negative-trailer-gain", "inf-trailer-gain", "bool-spacing", "bool-delta-f",
            "bool-mount-height", "string-f0"])
    def test_config_that_can_never_run_exits_1(self, tmp_path, capsys, text, words):
        cfg = tmp_path / "bad.json"
        cfg.write_text(text)
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(cfg), "-o", str(out), *GEN_ARGS]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {words}")
        assert not out.exists()
        assert main(["config", "--config", str(cfg), "--dump"]) == 1

    def test_non_finite_learning_rate_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"train": {"learning_rate": NaN}}')
        assert main(["config", "--config", str(cfg), "--dump"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {cfg}: learning_rate must be positive and finite, got nan\n"

    def test_empty_class_counts_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text('{"counts_per_class": {}}')
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty" in err
        assert not out.exists()

    def test_class_keys_repeating_after_case_folding_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "twice.json"
        cfg.write_text('{"counts_per_class": {"a": 2, "A": 3}}')
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: counts_per_class names class A twice, as 'a' and 'A'\n"
        assert not out.exists()

    def test_unknown_class_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "unknown.json"
        cfg.write_text('{"counts_per_class": {"A": 2, "q": 2}}')
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: counts_per_class: unknown vehicle class 'q'"), err
        assert not out.exists()

    def test_lowercase_class_keys_name_the_data_they_made(self, tmp_path, capsys):
        # the config's keys are read as class letters in A..G order, so the data it made is the data it names
        counts = {c: 3 for c in "gedcba"}
        assert list(RunConfig.from_dict({"counts_per_class": counts}).counts_per_class) == list("ABCDEG")
        (tmp_path / "lower.json").write_text(json.dumps({"counts_per_class": counts}))
        ds = tmp_path / "ds"
        assert main(["generate", "--config", str(tmp_path / "lower.json"), "-o", str(ds)]) == 0
        assert load_dataset(ds).counts_per_class == {c: 3 for c in "ABCDEG"}
        assert main(["cv", "-d", str(ds), "--config", str(tmp_path / "lower.json"), "--folds", "1",
                     "--train-per-class", "1", "--val-per-class", "1", "--epochs", "1"]) == 0
        capsys.readouterr()

    _PROFILE = {"length_range": [4.5, 5.0], "speed_range": [25, 36], "reflectivity_range": [0.1, 0.18]}

    # for every field, values of the wrong type or out of range
    _BAD_VALUES = [
        ("radar", 5), ("radar", {"f0": -1}),
        ("profiles", 5), ("profiles", {"snr_db": "x"}),
        ("counts_per_class", 5), ("counts_per_class", {}), ("counts_per_class", {"A": 0}),
        ("counts_per_class", {"A": 1.5}), ("counts_per_class", {"A": True}), ("counts_per_class", {"Q": 1}),
        ("counts_per_class", {1: 2}),
        ("target_width", "32"), ("target_width", 0), ("target_width", True), ("target_width", 2.0),
        ("freq_range", [0]), ("freq_range", "0:9"), ("freq_range", [0.0, 9]), ("freq_range", [-1, 9]),
        ("freq_range", [9, 9]), ("freq_range", [0, 258]),
        ("preset", "huge"), ("preset", 1), ("preset", ["mini"]),
        ("train", 5), ("train", {"seed": -1}),
        ("folds", 0), ("folds", "2"), ("folds", True),
        ("train_per_class", 0), ("train_per_class", 1.5),
        ("val_per_class", -1), ("val_per_class", None),
        ("base_seed", -1), ("base_seed", "1"), ("base_seed", False),
        ("split_seed", -1), ("split_seed", 2.5),
        # class keys are whole letters: "" and "AB" are substrings of ABCDEG, yet name no class
        ("counts_per_class", {"A": 1, "": 1}), ("counts_per_class", {"A": 1, "AB": 1}),
        ("counts_per_class", {"A": 1, "a ": 1}),
        ("profiles", {"classes": {"": _PROFILE}}), ("profiles", {"classes": {"AB": _PROFILE}}),
        ("profiles", {"classes": {"a ": _PROFILE}}),
    ]

    def test_bad_values_cover_every_field(self):
        assert {key for key, _ in self._BAD_VALUES} == {f.name for f in dataclasses.fields(RunConfig)}

    @pytest.mark.parametrize("key, value", _BAD_VALUES)
    def test_bad_value_refused_from_python_and_from_json(self, tmp_path, capsys, key, value):
        with pytest.raises(ValueError):
            RunConfig(**{key: value})
        (tmp_path / "bad.json").write_text(json.dumps({key: value}))
        assert main(["config", "--config", str(tmp_path / "bad.json"), "--dump"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    _UNRUNNABLE = {"preset": "huge", "folds": 0, "base_seed": -2, "target_width": -1, "train": {"seed": -5}}

    @pytest.mark.parametrize("key", [*_UNRUNNABLE, None])
    def test_dump_refuses_a_run_that_cannot_run(self, tmp_path, capsys, key):
        # each value alone is refused by its name, and the run of all five is refused
        run = self._UNRUNNABLE if key is None else {key: self._UNRUNNABLE[key]}
        (tmp_path / "bad.json").write_text(json.dumps(run))
        assert main(["config", "--config", str(tmp_path / "bad.json"), "--dump"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
        assert key is None or ("seed" if key == "train" else key) in err, err

    @pytest.mark.parametrize("command, flag, run, words", [
        ("generate", ["--seed", "-1"], {"base_seed": -1}, "base_seed must be an integer >= 0, got -1"),
        ("train", ["--split-seed", "-1"], {"split_seed": -1}, "split_seed must be an integer >= 0, got -1"),
        ("train", ["--train-seed", "-1"], {"train": {"seed": -1}}, "seed must be an integer >= 0, got -1"),
        ("cv", ["--split-seed", "-1"], {"split_seed": -1}, "split_seed must be an integer >= 0, got -1"),
    ], ids=["generate-seed", "train-split-seed", "train-train-seed", "cv-split-seed"])
    @pytest.mark.parametrize("given", ["flag", "json"])
    def test_negative_seed_exits_1_before_writing(self, workspace, tmp_path, capsys, command, flag, run, words,
                                                  given):
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "neg.json").write_text(json.dumps(run))
        out = tmp_path / "out" / "neg"
        (tmp_path / "out").mkdir()
        where = ["-o", str(out), "--counts", "A=2"] if command == "generate" else ["-d", str(workspace / "ds"),
                                                                                  "-o", str(out), *SPLIT_ARGS]
        source = flag if given == "flag" else ["--config", str(tmp_path / "cfg" / "neg.json")]
        assert main([command, *where, *source]) == 1
        named = "" if given == "flag" else f"{tmp_path / 'cfg' / 'neg.json'}: "     # a flag is in no file
        assert capsys.readouterr().err == f"error: {named}{words}\n"
        assert list((tmp_path / "out").iterdir()) == []     # neither the output nor a .partial sibling

    _TWO_A = {"length_range": [4.5, 5.0], "speed_range": [25, 36], "reflectivity_range": [0.1, 0.18]}

    def test_profile_class_named_twice_is_refused_by_from_dict(self):
        with pytest.raises(ConfigError, match="profiles.classes names class A twice, as 'A' and 'a'"):
            RunConfig.from_dict({"profiles": {"classes": {"A": self._TWO_A, "a": self._TWO_A}}})

    def test_profile_class_named_twice_exits_1(self, tmp_path, capsys):
        (tmp_path / "twice.json").write_text(json.dumps({"profiles": {"classes": {"A": self._TWO_A,
                                                                                  "a": self._TWO_A}}}))
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(tmp_path / "twice.json"), "-o", str(out), "--counts", "A=2"]) == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'twice.json'}: "
                                           "profiles.classes names class A twice, as 'A' and 'a'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["twice.json"]

    # a config file whose values differ from the defaults and from every flag value below
    _FILE = {"base_seed": 11, "target_width": 20, "freq_range": [0, 100], "counts_per_class": {"A": 1},
             "folds": 4, "split_seed": 6, "train_per_class": 8, "val_per_class": 3, "preset": "mini",
             "train": {"learning_rate": 0.002, "momentum": 0.8, "weight_decay": 0.001, "epochs": 3,
                       "seed": 2, "dropout_rate": 0.4}}
    _REQUIRED = {"generate": ["-o", "ds"], "plot": ["in.rdt", "-o", "x.pgm"], "train": ["-d", "ds", "-o", "m.rdw"],
                 "cv": ["-d", "ds"]}
    _SPLIT_ROWS = [
        (["--folds", "3"], "folds", 3),
        (["--split-seed", "5"], "split_seed", 5),
        (["--train-per-class", "7"], "train_per_class", 7),
        (["--val-per-class", "2"], "val_per_class", 2),
        (["--preset", "full"], "val_per_class", 45),
    ]

    @pytest.mark.parametrize("command, flag, field, value", [
        ("generate", ["--seed", "7"], "base_seed", 7),
        ("generate", ["--target-width", "30"], "target_width", 30),
        ("generate", ["--freq-range", "0:200"], "freq_range", (0, 200)),
        ("generate", ["--counts", "a=3,B=4"], "counts_per_class", {"A": 3, "B": 4}),
        ("generate", ["--preset", "skewed"], "counts_per_class", SKEWED_COUNTS),
        # explicit counts win over the preset, which sets counts_per_class first
        ("generate", ["--preset", "skewed", "--counts", "A=3"], "counts_per_class", {"A": 3}),
        ("plot", ["--target-width", "30"], "target_width", 30),
        *[("train", flag, field, value) for flag, field, value in _SPLIT_ROWS],
        # a quota preset sets both quotas, and a quota flag given with it wins in either order
        ("train", ["--preset", "full"], "train_per_class", 400),
        ("cv", ["--preset", "desk"], "train_per_class", 40),
        ("train", ["--preset", "full", "--train-per-class", "7"], "train_per_class", 7),
        ("cv", ["--val-per-class", "2", "--preset", "full"], "val_per_class", 2),
        ("train", ["--val-per-class", "2", "--preset", "desk"], "train_per_class", 40),
        *[("cv", flag, field, value) for flag, field, value in _SPLIT_ROWS],
        *[(command, flag, field, value) for command in ("train", "cv") for flag, field, value in [
            (["--lr", "0.01"], "train.learning_rate", 0.01),
            (["--momentum", "0.5"], "train.momentum", 0.5),
            (["--weight-decay", "0.1"], "train.weight_decay", 0.1),
            (["--epochs", "4"], "train.epochs", 4),
            (["--train-seed", "9"], "train.seed", 9),
            (["--dropout", "0.25"], "train.dropout_rate", 0.25),
            (["--net-preset", "full"], "preset", "full"),
        ]],
    ])
    def test_override_flag_sets_its_field(self, tmp_path, command, flag, field, value):
        (tmp_path / "run.json").write_text(json.dumps(self._FILE))
        argv = [command, *self._REQUIRED[command], "--config", str(tmp_path / "run.json")]

        def loaded(extra):
            return functools.reduce(getattr, field.split("."), _load_run_config(build_parser().parse_args(extra)))

        from_file = loaded(argv)
        assert from_file == functools.reduce(getattr, field.split("."), RunConfig.from_dict(self._FILE))
        assert from_file != value
        assert loaded([*argv, *flag]) == value

    def test_every_dest_is_a_config_field_or_listed(self):
        # a mistyped dest would set nothing, or end in a TypeError
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        dests = {a.dest for p in commands.values() for a in p._actions}
        assert dests - RUN_FIELDS - TRAIN_FIELDS == {
            "help", "config", "out_dir", "count_preset", "counts", "freq_crop", "keep_signals", "input", "output",
            "channels", "log", "crop", "data", "fold", "quota_preset", "weights",
            "all", "matrix_pgm", "dump",
        }

    def test_unknown_flag_exits_2(self):
        for flag in ["--frobnicate", "--workers"]:
            with pytest.raises(SystemExit) as exc:
                main(["generate", flag, "2"])
            assert exc.value.code == 2

    def test_help_available_for_all_subcommands(self, capsys):
        for cmd in ["generate", "plot", "train", "eval", "cv", "predict", "config"]:
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "usage" in capsys.readouterr().out
