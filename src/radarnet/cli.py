"""Command-line front end: generate, plot, train, eval, cv, predict, config.

Every subcommand is reproducible under its seeds; artifacts carry no
timestamps.  Exit codes: 0 success, 1 pipeline error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataset as ds_mod
from . import evaluation, network
from .config import (
    COUNT_PRESETS,
    QUOTA_PRESETS,
    RunConfig,
    apply_count_preset,
    apply_quota_preset,
    load_config,
)
from .radar import CLASS_ORDER
from .spectrogram import RdTensor, export_pgm, mean_normalize, signal_to_tensor


def _parse_counts(text):
    counts = {}
    for part in text.split(","):
        label, _, num = part.partition("=")
        label = label.strip().upper()
        if label in counts:
            raise ValueError(f"--counts: class {label} is given twice")
        try:
            counts[label] = int(num)
        except ValueError:
            raise ValueError(f"--counts: {part!r} is not CLASS=COUNT") from None
    return counts


def _load_run_config(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "counts", None):
        cfg.counts_per_class = _parse_counts(args.counts)
    if getattr(args, "count_preset", None):
        apply_count_preset(cfg, args.count_preset)
    if getattr(args, "quota_preset", None):
        apply_quota_preset(cfg, args.quota_preset)
    for flag, attr in [
        ("seed", "base_seed"),
        ("split_seed", "split_seed"),
        ("folds", "folds"),
        ("train_per_class", "train_per_class"),
        ("val_per_class", "val_per_class"),
        ("target_width", "target_width"),
        ("net_preset", "preset"),
    ]:
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    for flag in ["learning_rate", "momentum", "weight_decay", "epochs", "train_seed", "dropout_rate"]:
        value = getattr(args, flag, None)
        if value is not None:
            attr = "seed" if flag == "train_seed" else flag
            setattr(cfg.train, attr, value)
    cfg.train = dataclasses.replace(cfg.train)   # re-validate
    return cfg


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
    if args.freq_range:
        lo, _, hi = args.freq_range.partition(":")
        try:
            cfg.freq_range = (int(lo), int(hi))
        except ValueError:
            raise ValueError(f"--freq-range: {args.freq_range!r} is not LO:HI") from None
    ds = ds_mod.generate_dataset(
        cfg.counts_per_class,
        cfg.base_seed,
        cfg.profiles,
        cfg.radar,
        args.out_dir,
        target_width=cfg.target_width,
        freq_range=cfg.freq_range,
        keep_signals=args.keep_signals,
    )
    print(f"wrote {len(ds)} samples to {args.out_dir}")
    for label, count in sorted(ds.class_counts.items()):
        print(f"  class {label}: {count}")
    print(f"tensor shape: {ds.tensor_shape}, radar hash {ds.radar_hash}")
    return 0


def _plot_channels(values_by_name, out_path, log_scale):
    out_path = Path(out_path)
    names = list(values_by_name)
    for name, matrix in values_by_name.items():
        if len(names) == 1:
            target = out_path
        else:
            target = out_path.with_suffix(f".{name}{out_path.suffix or '.pgm'}")
        target.write_bytes(export_pgm(matrix, log_scale=log_scale))
        print(f"wrote {target}")


def _read_input(path, cfg: RunConfig, *, allow_crop: bool = False) -> RdTensor:
    """The network input in an .rbs beat signal (labelled as its header says) or
    an .rdt file (unlabelled)."""
    path = Path(path)
    if path.suffix == ".rbs":
        sig = ds_mod.load_signal(path)
        return signal_to_tensor(
            sig, cfg.radar, cfg.target_width, allow_crop=allow_crop, freq_range=cfg.freq_range
        )
    return RdTensor(ds_mod.load_tensor(path))


def cmd_plot(args) -> int:
    cfg = _load_run_config(args)
    wanted = [c.strip() for c in args.channels.split(",")]
    channel_index = {"up": 0, "down": 1, "avg": 2, "0": 0, "1": 1, "2": 2}
    for c in wanted:
        if c not in channel_index:
            raise ValueError(f"unknown channel {c!r}; pick from up, down, avg")
    tensor = _read_input(args.input, cfg, allow_crop=args.crop)
    plots = {c: tensor.values[channel_index[c]] for c in wanted}
    _plot_channels(plots, args.output, args.log)
    return 0


def _model_paths(weights_path):
    weights_path = Path(weights_path)
    return weights_path, weights_path.with_suffix(".mean.rdt"), weights_path.with_suffix(".meta.json")


def _save_model(weights_path, net, mean_tensor, cfg: RunConfig):
    wpath, mpath, metapath = _model_paths(weights_path)
    network.save_weights(net, wpath)
    ds_mod.save_tensor(mean_tensor, mpath)
    meta = {
        "preset": cfg.preset,
        "input_shape": list(net.input_shape),
        "target_width": cfg.target_width,
        "freq_range": list(cfg.freq_range) if cfg.freq_range else None,
        "radar": dataclasses.asdict(cfg.radar),
        "class_order": list(CLASS_ORDER),
    }
    metapath.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _split_fold(ds, cfg: RunConfig, index):
    """Fold index of the run's stratified split; an index outside it is a ValueError."""
    folds = ds_mod.stratified_fold_split(ds, cfg.folds, cfg.train_per_class, cfg.val_per_class, cfg.split_seed)
    if not 0 <= index < cfg.folds:
        raise ValueError(f"fold {index} does not exist: the split has {cfg.folds} folds, 0 to {cfg.folds - 1}")
    return folds[index]


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    ds = ds_mod.load_dataset(args.data)
    fold = _split_fold(ds, cfg, args.fold)
    trained = evaluation.train_fold(
        ds, fold, cfg.train, preset=cfg.preset, init_weights=args.init_weights, reinit_fc=args.reinit_fc
    )
    _save_model(args.output, trained.net, trained.mean_tensor, cfg)
    history_path = Path(args.output).with_suffix(".history.json")
    history_path.write_text(
        json.dumps(
            {
                "fold": fold.fold_index,
                "best_epoch": trained.best_epoch,
                "epochs": evaluation.epoch_records(trained.history),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    best = trained.history[trained.best_epoch - 1].val_accuracy if trained.history else float("nan")
    print(f"fold {fold.fold_index}: best epoch {trained.best_epoch}, val accuracy {best:.4f}")
    print(f"wrote {args.output}")
    return 0


def _load_model(weights_path, cfg: RunConfig):
    wpath, mpath, metapath = _model_paths(weights_path)
    if not mpath.exists():
        raise FileNotFoundError(f"mean tensor {mpath} not found beside the weights")
    if not metapath.exists():
        raise FileNotFoundError(f"model meta {metapath} not found beside the weights")
    meta = json.loads(metapath.read_text(encoding="utf-8"))
    keys = ("preset", "radar", "target_width", "freq_range")
    if not isinstance(meta, dict) or not all(key in meta for key in keys):
        raise ValueError(f"model meta {metapath} is not a JSON object holding {', '.join(keys)}")
    try:
        model = RunConfig.from_dict({key: meta[key] for key in keys})
    except network.ConfigError as exc:
        raise network.ConfigError(f"model meta {metapath}: {exc}") from None
    mean = ds_mod.load_tensor(mpath)
    net = network.build_network(model.preset, input_shape=mean.shape)
    network.load_weights(net, wpath)
    # the model's crop, or its lack of one, wins over a --config value
    cfg.radar, cfg.target_width, cfg.freq_range = model.radar, model.target_width, model.freq_range
    return net, mean


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    ds = ds_mod.load_dataset(args.data)
    net, mean = _load_model(args.weights, cfg)
    model_hash = ds_mod.radar_params_hash(cfg.radar)
    if model_hash != ds.radar_hash:
        raise ValueError(
            f"the model was trained on radar {model_hash}, but {args.data} holds data from radar {ds.radar_hash}"
        )
    if args.all:
        ids = [r.sample_id for r in ds.records]
    else:
        ids = list(_split_fold(ds, cfg, args.fold).test_ids)
    matrix = evaluation.evaluate(net, *evaluation._normalized(ds, ids, mean))
    print(f"samples: {matrix.total}  accuracy: {matrix.accuracy:.4f}")
    print("rows=true, cols=predicted, order " + " ".join(CLASS_ORDER))
    print(matrix.counts)
    if args.output:
        report = {**matrix.to_dict(), "class_order": list(CLASS_ORDER)}
        Path(args.output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    return 0


def cmd_cv(args) -> int:
    cfg = _load_run_config(args)
    ds = ds_mod.load_dataset(args.data)
    report = evaluation.cross_validate(
        ds,
        k=cfg.folds,
        train_per_class=cfg.train_per_class,
        val_per_class=cfg.val_per_class,
        cfg=cfg.train,
        split_seed=cfg.split_seed,
        preset=cfg.preset,
        progress=lambda i, acc: print(f"fold {i}: accuracy {acc:.4f}"),
    )
    print(f"mean accuracy over {cfg.folds} folds: {report.mean_accuracy:.4f}")
    for label, acc in report.per_class_accuracy.items():
        print(f"  class {label}: {acc:.4f}")
    if args.output:
        Path(args.output).write_text(report.to_json(), encoding="utf-8")
        print(f"wrote {args.output}")
    if args.matrix_pgm:
        Path(args.matrix_pgm).write_bytes(export_pgm(report.mean_row_rates))
        print(f"wrote {args.matrix_pgm}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load_run_config(args)
    net, mean = _load_model(args.weights, cfg)
    tensor = mean_normalize(_read_input(args.input, cfg), mean)
    label, scores = network.predict(net, tensor)
    print(f"predicted class: {label.value}")
    for i, c in enumerate(CLASS_ORDER):
        print(f"  {c}: {scores[i]:.6f}")
    return 0


def cmd_config(args) -> int:
    cfg = _load_run_config(args)
    if args.dump:
        sys.stdout.write(cfg.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarnet",
        description="FM-CW radar vehicle classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(p):
        p.add_argument("--config", help="JSON run-config file; flags override its values")

    p = sub.add_parser("generate", help="simulate and persist a labeled dataset")
    add_config_flag(p)
    p.add_argument("-o", "--out-dir", required=True, help="dataset directory to create")
    p.add_argument("--preset", dest="count_preset", choices=sorted(COUNT_PRESETS),
                   help="per-class sample counts preset")
    p.add_argument("--counts", help="explicit counts, e.g. A=100,B=50")
    p.add_argument("--seed", type=int, help="generation base seed")
    p.add_argument("--target-width", type=int, dest="target_width")
    p.add_argument("--freq-range", dest="freq_range",
                   help="crop frequency bins to LO:HI (e.g. 0:227 for square inputs)")
    p.add_argument("--keep-signals", action="store_true",
                   help="also write raw beat signals (.rbs)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("plot", help="render spectrogram channels as PGM images")
    add_config_flag(p)
    p.add_argument("input", help=".rdt tensor or .rbs beat-signal file")
    p.add_argument("-o", "--output", required=True, help="output PGM path")
    p.add_argument("--channels", default="avg", help="comma list of up,down,avg")
    p.add_argument("--log", action="store_true", help="20*log10 scaling before the pixel map")
    p.add_argument("--crop", action="store_true", help="crop overlong signals to the target width")
    p.add_argument("--target-width", type=int, dest="target_width")
    p.set_defaults(func=cmd_plot)

    def add_split_flags(p):
        p.add_argument("--folds", type=int)
        p.add_argument("--split-seed", type=int, dest="split_seed")
        p.add_argument("--train-per-class", type=int, dest="train_per_class")
        p.add_argument("--val-per-class", type=int, dest="val_per_class")
        p.add_argument("--preset", choices=sorted(QUOTA_PRESETS), dest="quota_preset",
                       help="per-class train/val quota preset")

    def add_train_flags(p):
        p.add_argument("--lr", type=float, dest="learning_rate")
        p.add_argument("--momentum", type=float)
        p.add_argument("--weight-decay", type=float, dest="weight_decay")
        p.add_argument("--epochs", type=int)
        p.add_argument("--train-seed", type=int, dest="train_seed")
        p.add_argument("--dropout", type=float, dest="dropout_rate")
        p.add_argument("--net-preset", choices=network.PRESETS, dest="net_preset")

    p = sub.add_parser("train", help="train one fold and save weights + mean tensor")
    add_config_flag(p)
    p.add_argument("-d", "--data", required=True, help="dataset directory")
    p.add_argument("-o", "--output", required=True, help="weights file (.rdw) to write")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--init-weights", help="warm-start from an existing .rdw")
    p.add_argument("--reinit-fc", action="store_true",
                   help="with --init-weights, keep fully connected layers randomly initialized")
    add_split_flags(p)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on a fold's test split")
    add_config_flag(p)
    p.add_argument("-d", "--data", required=True)
    p.add_argument("-w", "--weights", required=True)
    p.add_argument("-o", "--output", help="report JSON path")
    p.add_argument("--fold", type=int, default=0)
    p.add_argument("--all", action="store_true", help="evaluate every sample instead of a test split")
    add_split_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cv", help="k-fold cross-validation with a report")
    add_config_flag(p)
    p.add_argument("-d", "--data", required=True)
    p.add_argument("-o", "--output", help="report JSON path")
    p.add_argument("--matrix-pgm", help="render the mean row-normalized matrix")
    add_split_flags(p)
    add_train_flags(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("predict", help="classify one tensor or raw beat signal")
    add_config_flag(p)
    p.add_argument("-w", "--weights", required=True)
    p.add_argument("input", help=".rdt tensor or .rbs beat-signal file")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("config", help="inspect the effective configuration")
    add_config_flag(p)
    p.add_argument("--dump", action="store_true", help="print the effective config as JSON")
    p.set_defaults(func=cmd_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, IndexError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
