"""Command-line front end: generate, plot, train, eval, cv, predict, config.

Every subcommand is reproducible under its seeds; artifacts carry no
timestamps.  Exit codes: 0 success, 1 pipeline error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import dataset as ds_mod
from . import evaluation, network
from .config import COUNT_PRESETS, QUOTA_PRESETS, RUN_FIELDS, ConfigError, RunConfig, dump_json, read_json
from .radar import CLASS_ORDER
from .spectrogram import RdTensor, export_pgm, mean_normalize, signal_to_tensor, tensor_shape


def _parse_counts(text):
    counts = {}
    for part in text.split(","):
        label, _, num = part.partition("=")
        label = label.strip()
        if label in counts:
            raise ValueError(f"--counts: class {label} is given twice")
        try:
            counts[label] = int(num)
        except ValueError:
            raise ValueError(f"--counts: {part!r} is not CLASS=COUNT") from None
    return counts


TRAIN_FIELDS = {f"train.{f.name}" for f in dataclasses.fields(network.TrainConfig)}


def _load_run_config(args, data=None) -> RunConfig:
    """The --config file (or the defaults) over the settings of data, a loaded dataset, then the
    presets, then each override flag given, whose dest is the field it sets: a RunConfig field,
    or train.<field> of its TrainConfig.  A file that names a setting of data with another value
    is a ValueError naming both; every value meets RunConfig's checks, and a refusal of the
    file's contents names the file."""
    given = vars(args)
    named = {} if args.config is None else read_json(args.config)
    settings = {} if data is None else data.settings
    made = RunConfig(**settings).to_record(settings)
    try:
        cfg = RunConfig.from_dict({**made, **named} if isinstance(named, dict) else named)
    except ValueError as exc:   # the data's own settings passed these checks when it was read
        raise ConfigError(f"{args.config}: {exc}") from None
    for key, theirs in settings.items():
        ours = getattr(cfg, key)
        if ours != theirs:
            raise ValueError(f"{args.config} sets {key} {ours}, but {args.data} was made with {key} {theirs}")
    changes, train = {}, {}
    if "count_preset" in given:
        changes["counts_per_class"] = COUNT_PRESETS[args.count_preset]
    if "quota_preset" in given:
        changes.update(QUOTA_PRESETS[args.quota_preset])
    if "counts" in given:
        changes["counts_per_class"] = _parse_counts(args.counts)
    if "freq_crop" in given:
        lo, _, hi = args.freq_crop.partition(":")
        try:
            changes["freq_range"] = (int(lo), int(hi))
        except ValueError:
            raise ValueError(f"--freq-range: {args.freq_crop!r} is not LO:HI") from None
    for dest, value in given.items():
        if dest in RUN_FIELDS:
            changes[dest] = value
        elif dest in TRAIN_FIELDS:
            train[dest.removeprefix("train.")] = value
    return dataclasses.replace(cfg, **changes, train=dataclasses.replace(cfg.train, **train))


def cmd_generate(args) -> int:
    cfg = _load_run_config(args)
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
    for label, count in ds.counts_per_class.items():
        print(f"  class {label}: {count}")
    print(f"tensor shape: {ds.tensor_shape}")
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


def _write_json(path, obj):
    Path(path).write_text(dump_json(obj), encoding="utf-8")


def _model_paths(weights_path):
    weights_path = Path(weights_path)
    return weights_path, weights_path.with_suffix(".mean.rdt"), weights_path.with_suffix(".meta.json")


# the RunConfig fields a model meta records: its network, its input, and the split of its fold with
# the class counts and base seed of the data that split was drawn from
MODEL_KEYS = ("preset", "radar", "target_width", "freq_range", "folds", "train_per_class", "val_per_class",
              "split_seed", "counts_per_class", "base_seed")
MODEL_VERSION = 4


def _save_model(weights_path, net, mean_tensor, cfg: RunConfig, fold: int):
    wpath, mpath, metapath = _model_paths(weights_path)
    network.save_weights(net, wpath)
    ds_mod.save_tensor(mean_tensor, mpath)
    cfg.write_record(metapath, MODEL_VERSION, MODEL_KEYS, class_order=list(CLASS_ORDER), fold=fold)


def _split_fold(ds, cfg: RunConfig, index):
    """Fold index of the run's stratified split; an index outside it is a ValueError."""
    folds = ds_mod.stratified_fold_split(ds, cfg.folds, cfg.train_per_class, cfg.val_per_class, cfg.split_seed)
    if not 0 <= index < cfg.folds:
        raise ValueError(f"fold {index} does not exist: the split has {cfg.folds} folds, 0 to {cfg.folds - 1}")
    return folds[index]


def cmd_train(args) -> int:
    ds = ds_mod.load_dataset(args.data)
    cfg = _load_run_config(args, ds)
    fold = _split_fold(ds, cfg, args.fold)
    trained = evaluation.train_fold(ds, fold, cfg.train, preset=cfg.preset)
    _save_model(args.output, trained.net, trained.mean_tensor, cfg, fold.fold_index)
    _write_json(Path(args.output).with_suffix(".history.json"), {
        "fold": fold.fold_index,
        "best_epoch": trained.best_epoch,
        "epochs": evaluation.epoch_records(trained.history),
    })
    best = trained.history[trained.best_epoch - 1].val_accuracy if trained.history else float("nan")
    print(f"fold {fold.fold_index}: best epoch {trained.best_epoch}, val accuracy {best:.4f}")
    print(f"wrote {args.output}")
    return 0


def _load_model(weights_path):
    """The network, its fold mean, the run settings it is valid for (the MODEL_KEYS its meta
    holds) and the index of the fold of that split it was trained on."""
    wpath, mpath, metapath = _model_paths(weights_path)
    mean = ds_mod.load_tensor(mpath)
    try:
        model, meta = RunConfig.read_record(metapath, MODEL_VERSION, MODEL_KEYS, extra=("class_order", "fold"))
        if meta["class_order"] != list(CLASS_ORDER):
            raise ConfigError(f"{metapath}: class order {meta['class_order']}, expected {list(CLASS_ORDER)}")
        fold = meta["fold"]
        if isinstance(fold, bool) or not isinstance(fold, int) or not 0 <= fold < model.folds:
            raise ConfigError(f"{metapath}: fold {fold!r} is not one of its {model.folds} folds")
    except ValueError as exc:     # its message begins with the meta's path
        raise ConfigError(f"model meta {exc}") from None
    shape = tensor_shape(model.radar, model.target_width, model.freq_range)
    if mean.shape != shape:
        raise ConfigError(f"mean tensor {mpath} has shape {mean.shape}, "
                          f"but model meta {metapath} gives the input shape {shape}")
    net = network.build_network(model.preset, input_shape=shape)
    network.load_weights(net, wpath)
    return net, mean, model, fold


def cmd_eval(args) -> int:
    ds = ds_mod.load_dataset(args.data)
    net, mean, model, fold = _load_model(args.weights)
    keys = ["radar", "target_width", "freq_range"]     # the settings that fix the network input
    if not args.all:    # the split is drawn again; only data of the model's counts and seed keeps each id's scenario
        keys += ["counts_per_class", "base_seed"]
    for key in keys:
        if getattr(model, key) != getattr(ds, key):
            raise ValueError(f"{args.data} was made with {key} {getattr(ds, key)}, "
                             f"but the model's {key} is {getattr(model, key)}")
    if args.all:
        ids = [r.sample_id for r in ds.records]
    else:
        ids = list(_split_fold(ds, model, fold).test_ids)
    matrix = evaluation.evaluate(net, *evaluation.normalized(ds, ids, mean))
    print(f"samples: {matrix.total}  accuracy: {matrix.accuracy:.4f}")
    print("rows=true, cols=predicted, order " + " ".join(CLASS_ORDER))
    print(matrix.counts)
    if args.output:
        _write_json(args.output, {**matrix.to_dict(), "class_order": list(CLASS_ORDER)})
        print(f"wrote {args.output}")
    return 0


def cmd_cv(args) -> int:
    ds = ds_mod.load_dataset(args.data)
    cfg = _load_run_config(args, ds)
    report = evaluation.cross_validate(ds, cfg, progress=lambda i, acc: print(f"fold {i}: accuracy {acc:.4f}"))
    print(f"mean accuracy over {cfg.folds} folds: {report.mean_accuracy:.4f}")
    for label, acc in report.per_class_accuracy.items():
        print(f"  class {label}: {acc:.4f}")
    if args.output:
        _write_json(args.output, report.to_dict())
        print(f"wrote {args.output}")
    if args.matrix_pgm:
        Path(args.matrix_pgm).write_bytes(export_pgm(report.mean_row_rates))
        print(f"wrote {args.matrix_pgm}")
    return 0


def cmd_predict(args) -> int:
    net, mean, model, _ = _load_model(args.weights)
    tensor = mean_normalize(_read_input(args.input, model), mean)
    label, scores = network.predict(net, tensor)
    print(f"predicted class: {label.value}")
    for i, c in enumerate(CLASS_ORDER):
        print(f"  {c}: {scores[i]:.6f}")
    return 0


def cmd_config(args) -> int:
    cfg = _load_run_config(args)
    if args.dump:
        sys.stdout.write(dump_json(cfg.to_dict()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarnet",
        description="FM-CW radar vehicle classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(p):
        p.add_argument("--config", help="JSON run-config file; flags override its values")

    def override(p, *flags, **kwargs):
        """A flag that sets its run setting only when given."""
        p.add_argument(*flags, default=argparse.SUPPRESS, **kwargs)

    p = sub.add_parser("generate", help="simulate and persist a labeled dataset")
    add_config_flag(p)
    p.add_argument("-o", "--out-dir", required=True, help="dataset directory to create")
    override(p, "--preset", dest="count_preset", choices=sorted(COUNT_PRESETS),
             help="per-class sample counts preset")
    override(p, "--counts", help="explicit counts, e.g. A=100,B=50")
    override(p, "--seed", type=int, dest="base_seed", help="generation base seed")
    override(p, "--target-width", type=int)
    override(p, "--freq-range", dest="freq_crop", metavar="LO:HI",
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
    override(p, "--target-width", type=int)
    p.set_defaults(func=cmd_plot)

    def add_split_flags(p):
        override(p, "--folds", type=int)
        override(p, "--split-seed", type=int)
        override(p, "--train-per-class", type=int)
        override(p, "--val-per-class", type=int)
        override(p, "--preset", choices=sorted(QUOTA_PRESETS), dest="quota_preset",
                 help="per-class train/val quota preset")

    def add_train_flags(p):
        override(p, "--lr", type=float, dest="train.learning_rate")
        override(p, "--momentum", type=float, dest="train.momentum")
        override(p, "--weight-decay", type=float, dest="train.weight_decay")
        override(p, "--epochs", type=int, dest="train.epochs")
        override(p, "--train-seed", type=int, dest="train.seed")
        override(p, "--dropout", type=float, dest="train.dropout_rate")
        override(p, "--net-preset", choices=network.PRESETS, dest="preset")

    p = sub.add_parser("train", help="train one fold and save weights + mean tensor")
    add_config_flag(p)
    p.add_argument("-d", "--data", required=True, help="dataset directory")
    p.add_argument("-o", "--output", required=True, help="weights file (.rdw) to write")
    p.add_argument("--fold", type=int, default=0)
    add_split_flags(p)
    add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate saved weights on the test split of the fold they were trained on")
    p.add_argument("-d", "--data", required=True)
    p.add_argument("-w", "--weights", required=True)
    p.add_argument("-o", "--output", help="report JSON path")
    p.add_argument("--all", action="store_true", help="evaluate every sample instead of the test split")
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
        code = args.func(args)
        sys.stdout.flush()      # so a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # no reader is left to tell; stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, KeyError, IndexError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
