"""Subcommand behavior, exit codes and artifact reproducibility."""

import dataclasses
import json
import math

import numpy as np
import pytest

from radarnet.cli import main
from radarnet.config import JSON_TYPES, RunConfig
from radarnet.dataset import save_signal, save_tensor
from radarnet.radar import (
    PointTarget,
    RadarParams,
    beat_frequencies,
    synthesize_point_targets,
)

P = RadarParams()

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
        (["--target-width", "0"], ["target width", "0"]),
        (["--freq-range", "10:5"], ["(10, 5)"]),
        (["--freq-range", "0:258"], ["(0, 258)"]),
        (["--freq-range", "5"], ["--freq-range", "'5'"]),
        (["--freq-range", "a:9"], ["--freq-range", "'a:9'"]),
        (["--counts", "A"], ["--counts", "'A'"]),
        (["--counts", "A=1,B=x"], ["--counts", "'B=x'"]),
        (["--counts", "A=1,a=2"], ["--counts", "class A", "twice"]),
    ])
    def test_bad_argument_exits_1_before_writing(self, tmp_path, capsys, args, words):
        out = tmp_path / "ds"
        assert main(["generate", "-o", str(out), *GEN_ARGS, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(w in err for w in words), err
        assert not out.exists()

    def test_desk_preset_writes_600(self, tmp_path):
        rc = main(["generate", "-o", str(tmp_path / "desk"), "--preset", "desk", "--seed", "1"])
        assert rc == 0
        assert len(list((tmp_path / "desk" / "tensors").glob("*.rdt"))) == 600
        manifest = json.loads((tmp_path / "desk" / "manifest.json").read_text())
        assert manifest["class_counts"] == {c: 100 for c in "ABCDEG"}


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

    def test_bad_input_exits_1(self, tmp_path):
        missing = tmp_path / "none.rdt"
        assert main(["plot", str(missing), "-o", str(tmp_path / "x.pgm")]) == 1


class TestTrainEvalPredict:
    def test_model_bundle_written(self, workspace):
        assert (workspace / "model.rdw").exists()
        assert (workspace / "model.mean.rdt").exists()
        assert (workspace / "model.meta.json").exists()
        assert (workspace / "model.history.json").exists()

    def test_eval_reports_accuracy(self, workspace, tmp_path, capsys):
        rc = main(
            ["eval", "-d", str(workspace / "ds"), "-w", str(workspace / "model.rdw"),
             "-o", str(tmp_path / "report.json"), "--fold", "0", *SPLIT_ARGS]
        )
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert "accuracy" in report
        assert np.array(report["counts"]).sum() == 12  # 2/class remain for test

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

    def test_predict_keeps_the_models_null_crop(self, workspace, tmp_path, capsys):
        # the model was trained on uncropped tensors, so a --config crop must not cut its input
        config = tmp_path / "crop.json"
        config.write_text(json.dumps({"freq_range": [0, 100]}))
        signal = str(workspace / "ds" / "signals" / "C0003.rbs")
        assert main(["predict", "-w", str(workspace / "model.rdw"), signal]) == 0
        plain = capsys.readouterr().out
        rc = main(["predict", "-w", str(workspace / "model.rdw"), "--config", str(config), signal])
        assert rc == 0, capsys.readouterr().err
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("fold", [-1, 2])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_fold_out_of_range_exits_1(self, workspace, tmp_path, capsys, command, fold):
        target = ["-o", str(tmp_path / "m.rdw")] if command == "train" else ["-w", str(workspace / "model.rdw")]
        rc = main([command, "-d", str(workspace / "ds"), *target, "--fold", str(fold), *SPLIT_ARGS])
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

    def test_predict_missing_mean_exits_1(self, workspace, tmp_path, capsys):
        orphan = tmp_path / "orphan.rdw"
        orphan.write_bytes((workspace / "model.rdw").read_bytes())
        rc = main(["predict", "-w", str(orphan),
                   str(workspace / "ds" / "tensors" / "A0000.rdt")])
        assert rc == 1
        assert "mean" in capsys.readouterr().err

    def test_missing_meta_exits_1(self, workspace, tmp_path, capsys):
        for suffix in (".rdw", ".mean.rdt"):
            (tmp_path / f"bare{suffix}").write_bytes((workspace / f"model{suffix}").read_bytes())
        rc = main(["eval", "-d", str(workspace / "ds"), "-w", str(tmp_path / "bare.rdw"),
                   "--fold", "0", *SPLIT_ARGS])
        assert rc == 1
        assert "bare.meta.json" in capsys.readouterr().err

    def test_eval_refuses_data_from_another_radar(self, workspace, tmp_path, capsys):
        config = tmp_path / "radar.json"
        config.write_text(json.dumps({"radar": {"f0": 24.125e9, "delta_f": 150e6}}))
        assert main(["generate", "-o", str(tmp_path / "ds"), "--config", str(config), *GEN_ARGS]) == 0
        capsys.readouterr()
        rc = main(["eval", "-d", str(tmp_path / "ds"), "-w", str(workspace / "model.rdw"),
                   "--fold", "0", *SPLIT_ARGS])
        assert rc == 1
        assert "radar" in capsys.readouterr().err

    def test_partial_weight_import(self, workspace, tmp_path):
        rc = main(
            ["train", "-d", str(workspace / "ds"), "-o", str(tmp_path / "warm.rdw"),
             "--fold", "1", *SPLIT_ARGS, "--epochs", "1",
             "--init-weights", str(workspace / "model.rdw"), "--reinit-fc"]
        )
        assert rc == 0
        assert (tmp_path / "warm.rdw").exists()

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
    ], ids=["unknown-radar-field", "string-samples-per-ramp", "scalar-freq-range", "list", "no-preset"])
    def test_exits_1(self, workspace, tmp_path, capsys, command, edit, words):
        for suffix in (".rdw", ".mean.rdt"):
            (tmp_path / f"model{suffix}").write_bytes((workspace / f"model{suffix}").read_bytes())
        meta = json.loads((workspace / "model.meta.json").read_text())
        (tmp_path / "model.meta.json").write_text(json.dumps(edit(meta)))
        weights = ["-w", str(tmp_path / "model.rdw")]
        if command == "predict":
            rc = main(["predict", *weights, str(workspace / "ds" / "tensors" / "A0000.rdt")])
        else:
            rc = main(["eval", "-d", str(workspace / "ds"), *weights, "--fold", "0", *SPLIT_ARGS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "model.meta.json" in err
        assert all(w in err for w in words), err


class TestMalformedManifest:
    @pytest.mark.parametrize("key, value", [
        ("samples", 5),
        ("tensor_shape", "x"),
        ("format_version", "zz"),
        ("path", "../../x"),
    ])
    def test_train_exits_1(self, workspace, tmp_path, capsys, key, value):
        manifest = json.loads((workspace / "ds" / "manifest.json").read_text())
        if key == "path":
            manifest["samples"][0]["path"] = value
        else:
            manifest[key] = value
        (tmp_path / "ds").mkdir()
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(manifest))
        rc = main(["train", "-d", str(tmp_path / "ds"), "-o", str(tmp_path / "m.rdw"), *SPLIT_ARGS])
        assert rc == 1
        assert "manifest.json" in capsys.readouterr().err

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

    @pytest.mark.parametrize("quotas", [["--train-per-class", "-3"], ["--val-per-class", "-1"],
                                        ["--val-per-class", "0"], ["--folds", "0"]])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_quota_below_one_exits_1(self, workspace, tmp_path, capsys, command, quotas):
        rc = main([command, "-d", str(workspace / "ds"), "-o", str(tmp_path / "out"),
                   *SPLIT_ARGS, *quotas, "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: folds and quotas must be at least 1")
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
        assert cfg["target_width"] == 32
        assert cfg["folds"] == 10

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
    ])
    def test_mistyped_config_field_exits_1(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(bad), "-o", str(out), *GEN_ARGS]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    def test_empty_class_counts_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "empty.json"
        cfg.write_text('{"counts_per_class": {}}')
        out = tmp_path / "ds"
        assert main(["generate", "--config", str(cfg), "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "empty" in err
        assert not out.exists()

    def test_config_types_cover_every_field(self):
        assert set(JSON_TYPES) == {f.name for f in dataclasses.fields(RunConfig)}

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
