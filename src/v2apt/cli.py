"""Command-line entry points.

Thin wrappers over the library: each subcommand parses flags, calls the same
functions the tests call, and prints a few stable lines. Exit codes are part
of the interface:

    0  success
    2  usage or configuration error
    3  I/O error (missing, unreadable, or corrupt files)
    4  numeric failure (non-finite loss, failed gradient check)
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from .analysis import export_map, mean_similarity, model_similarity_map
from .checkpoint import load_checkpoint, restore_model, snapshot, save_checkpoint
from .config import ModelConfig, RunConfig, config_from_text, default_config
from .data import PRESETS, Dataset, generate, load_dataset, preset, save_dataset, split
from .errors import ConfigError, FormatError, NumericError, ValidationError
from .gradcheck import full_model_check
from .model import PromptedClassifier
from .rng import SeededStreams
from .trainer import Trainer, evaluate


_METRICS_SUFFIX = ".metrics.jsonl"  # a run's metrics go to <out> plus this


def _load_config(path: str | None) -> tuple[ModelConfig, RunConfig]:
    if path is None:
        return default_config(), RunConfig()
    with open(path, encoding="utf-8") as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise FormatError(f"config file {path} is not UTF-8 text") from None
    return config_from_text(text)


def _run_configs(args: argparse.Namespace) -> tuple[ModelConfig, RunConfig]:
    """The configs of `--config` with each run flag given on the command line;
    an invalid value fails here, before any other file is read."""
    cfg, run = _load_config(args.config)
    flags = ("steps", "seed", "batch_size", "train_frac")
    return cfg, dataclasses.replace(run, **{k: getattr(args, k) for k in flags
                                            if getattr(args, k, None) is not None})


def _load_data(path: str, cfg: ModelConfig) -> Dataset:
    ds = load_dataset(path)
    if ds.num_classes != cfg.num_classes:
        raise ConfigError(
            f"dataset has {ds.num_classes} classes but the model expects {cfg.num_classes}"
        )
    return ds


def _check_out(out: str) -> None:
    """Fail before training, not after it, when `out` or its metrics file is a
    directory or their directory is missing."""
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"--out directory {parent} does not exist")
    for path in (out, out + _METRICS_SUFFIX):
        if os.path.isdir(path):
            raise IsADirectoryError(f"--out {path} is a directory")


def cmd_gen_data(args: argparse.Namespace) -> int:
    ds = generate(preset(args.preset), args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {args.out}: {len(ds)} images, {ds.num_classes} classes ({args.preset})")
    return 0


def _train_and_save(model: PromptedClassifier, run: RunConfig, train_ds: Dataset, out: str,
                    eval_ds: Dataset | None = None) -> tuple[int, float]:
    """Train `model` and save it and `<out>.metrics.jsonl`; return the steps
    and the last step's accuracy on `eval_ds` (default: the training data)."""
    trainer = Trainer(model, run, train_ds)
    acc = trainer.train(eval_dataset=eval_ds)[-1].accuracy
    save_checkpoint(snapshot(model, run, trainer.optimizer), out)
    trainer.write_metrics(out + _METRICS_SUFFIX)
    return trainer.step, acc


def cmd_pretrain(args: argparse.Namespace) -> int:
    cfg, run = _run_configs(args)
    ds = _load_data(args.data, cfg)
    _check_out(args.out)
    # nothing frozen here: the backbone itself is being trained
    model = PromptedClassifier.init(cfg, SeededStreams(run.seed))
    steps, acc = _train_and_save(model, run, ds, args.out)
    print(f"pretrain: {steps} steps, train accuracy {acc:.6f}")
    print(f"wrote {args.out}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    cfg, run = _run_configs(args)
    if args.method == "vpt":
        cfg = dataclasses.replace(cfg, prompt_inst=0)
    pre, _ = restore_model(load_checkpoint(args.backbone_ckpt))
    ds = _load_data(args.data, cfg)
    _check_out(args.out)
    model = PromptedClassifier.from_pretrained(pre, cfg, SeededStreams(run.seed))
    train_ds, test_ds = split(ds, run.train_frac, run.seed)
    steps, acc = _train_and_save(model, run, train_ds, args.out, test_ds)
    print(f"tune [{args.method}]: {steps} steps, test accuracy {acc:.6f}")
    print(f"frozen digest {model.frozen_digest()}")
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    model, _ = restore_model(load_checkpoint(args.ckpt))
    ds = _load_data(args.data, model.cfg)
    print(f"accuracy {evaluate(model, ds):.6f}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if not 0 < args.tol < math.inf:  # NaN fails the range too
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    cfg = None
    if args.config is not None:
        cfg, _ = _load_config(args.config)
    report = full_model_check(cfg, seed=args.seed, tol=args.tol)
    print(report.summary())
    return 0 if report.passed else 4


def cmd_simmap(args: argparse.Namespace) -> int:
    model, _ = restore_model(load_checkpoint(args.ckpt))
    ds = load_dataset(args.data)
    sim = model_similarity_map(model, ds.images, args.index, layer=args.layer)
    export_map(sim, args.out, args.format)
    print(f"wrote {args.out}: {sim.shape[0]} prompts x {sim.shape[1]} patches, "
          f"mean similarity {mean_similarity(sim):.6f}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call reuses: building one takes about 1.5 ms."""
    p = argparse.ArgumentParser(
        prog="v2apt",
        description="train and probe prompt-tuned vision transformers on synthetic tasks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="render a preset task to a dataset file")
    g.add_argument("--preset", required=True, metavar="NAME",
                   help=f"one of: {', '.join(sorted(PRESETS))}")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    # the flags that pretrain and tune share
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="config text file (defaults apply if omitted)")
    run.add_argument("--data", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--steps", type=int, help="override the configured step budget")
    run.add_argument("--seed", type=int, help="override the configured seed")
    run.add_argument("--batch-size", type=int, dest="batch_size")

    pt = sub.add_parser("pretrain", parents=[run], help="train a backbone from scratch on a dataset")
    pt.set_defaults(func=cmd_pretrain)

    tn = sub.add_parser("tune", parents=[run], help="adapt a frozen pretrained backbone to a dataset")
    tn.add_argument("--backbone-ckpt", required=True, dest="backbone_ckpt")
    tn.add_argument("--method", required=True, choices=("vpt", "v2apt"),
                    help="vpt: static prompts only; v2apt: composed with generated prompts")
    tn.add_argument("--train-frac", type=float, dest="train_frac",
                    help="internal train/test split fraction (default from config)")
    tn.set_defaults(func=cmd_tune)

    ev = sub.add_parser("eval", help="report accuracy of a checkpoint on a dataset")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.set_defaults(func=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every trainable gradient")
    gc.add_argument("--config", help="config text file (tiny built-in model if omitted)")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--tol", type=float, default=1e-4)
    gc.set_defaults(func=cmd_gradcheck)

    sm = sub.add_parser("simmap", help="export a prompt/patch cosine similarity map")
    sm.add_argument("--ckpt", required=True)
    sm.add_argument("--data", required=True)
    sm.add_argument("--index", type=int, default=0, help="image index within the dataset")
    sm.add_argument("--layer", type=int, help="encoder layer to probe (default: last)")
    sm.add_argument("--out", required=True)
    sm.add_argument("--format", choices=("csv", "pgm"), default="csv")
    sm.set_defaults(func=cmd_simmap)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
