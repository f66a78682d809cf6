"""Command-line entry point.

Subcommands: synth, extract-mp, train, eval, report, gradcheck. Every
command writes a run manifest sufficient to replay it. Exit codes:
0 success, 1 usage error, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import synth
from .data import (
    DatasetFormatError,
    SplitError,
    ValidationError,
    Vocab,
    load_dataset,
    make_batches,
    preprocess,
    save_dataset,
    split,
)
from .models import ConfigError, ModelConfig, build_model
from .nn import load_checkpoint, save_checkpoint
from .pipeline import ChatParams, HttpChatClient, MockChatClient, run_pipeline
from .training import TrainConfig, evaluate, grid_search, train
from .verify import run_suite

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

# smallest accepted value of numeric flags, checked before any path is opened
FLAG_MINIMUMS = {"batch_size": 1, "epochs": 1, "patience": 1, "concurrency": 1,
                 "max_retries": 1, "max_len": 2, "embed_dim": 1, "alpha": 0.0}
# open interval that each of these float flags must lie in, checked likewise
FLAG_INTERVALS = {"test_frac": (0.0, 1.0), "val_frac": (0.0, 1.0), "lr": (0.0, float("inf"))}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def subseed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def read_config_file(path) -> dict[str, str]:
    """Simple ``key = value`` config format; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _hash_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_inputs(paths) -> dict[str, str]:
    hashes = {}
    for p in paths:
        p = Path(p)
        if p.is_file():
            hashes[str(p)] = _hash_file(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.is_file():
                    hashes[str(f)] = _hash_file(f)
    return hashes


def write_manifest(out_dir, command: str, config: dict, seed: int,
                   inputs, outputs, started_at: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "input_hashes": _hash_inputs(inputs),
        "started_at": started_at,
        "finished_at": time.time(),
        "outputs": [str(p) for p in outputs],
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


# -- subcommands ----------------------------------------------------------


def cmd_synth(args) -> int:
    started = time.time()
    overrides = read_config_file(args.config) if args.config else {}
    config = synth.SimConfig(seed=args.seed)
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise UsageError(f"unknown simulator config key {key!r}")
        kind = type(getattr(config, key))
        try:
            setattr(config, key, kind(value))
        except ValueError:
            raise ValidationError(f"simulator config key {key!r}: expected "
                                  f"{kind.__name__}, got {value!r}") from None
    try:
        config.__post_init__()
    except ValueError as exc:
        raise ValidationError(f"simulator config: {exc}") from None
    dataset = synth.generate(config)
    save_dataset(args.out, dataset)
    write_manifest(args.out, "synth", config.__dict__, config.seed,
                   [args.config] if args.config else [],
                   [Path(args.out) / "problems.json", Path(args.out) / "interactions.jsonl"],
                   started)
    print(f"wrote {dataset.num_interactions()} interactions for "
          f"{len(dataset.sequences)} students to {args.out}")
    return EXIT_OK


def cmd_extract_mp(args) -> int:
    started = time.time()
    dataset = load_dataset(args.data)
    if args.client == "mock":
        client = MockChatClient()
    else:
        client = HttpChatClient()
    annotated, report = run_pipeline(dataset, client, args.cache,
                                     concurrency=args.concurrency,
                                     params=ChatParams(max_retries=args.max_retries))
    save_dataset(args.out, annotated)
    with open(Path(args.out) / "pipeline_report.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=1)
    write_manifest(args.out, "extract-mp",
                   {"client": args.client, "concurrency": args.concurrency}, 0,
                   [args.data], [Path(args.out) / "interactions.jsonl"], started)
    print(f"annotated {report.annotated}, failed {report.failed} "
          f"({100 * report.failure_rate:.1f}%), cached {report.cached}")
    return EXIT_OK


def _prepare_splits(data_dir, seed, test_frac, val_frac, max_len, batch_size):
    dataset = load_dataset(data_dir)
    dataset, _report = preprocess(dataset)
    train_seqs, val_seqs, test_seqs = split(dataset.sequences, subseed(seed, "split"),
                                            test_frac, val_frac)
    vocab = Vocab.from_problems(dataset.problems)
    mk = lambda seqs: make_batches(seqs, dataset.problems, vocab, max_len, batch_size)
    return dataset, vocab, mk(train_seqs), mk(val_seqs), mk(test_seqs)


def cmd_train(args) -> int:
    started = time.time()
    tc = TrainConfig(alpha=args.alpha, lr=args.lr, batch_size=args.batch_size,
                     patience=args.patience, max_epochs=args.epochs, seed=args.seed)
    dataset, vocab, train_b, val_b, test_b = _prepare_splits(
        args.data, args.seed, args.test_frac, args.val_frac, args.max_len, tc.batch_size)

    def make(dropout: float):
        mc = ModelConfig(backbone=args.backbone, variant=args.variant,
                         num_questions=vocab.num_questions,
                         num_concepts=vocab.num_concepts,
                         max_len=args.max_len, embed_dim=args.embed_dim,
                         dropout=dropout, seed=subseed(args.seed, "init"))
        return build_model(mc)

    if args.grid:
        gr = grid_search(make, train_b, val_b, tc)
        model, result = gr.best_model, gr.best_result
        lr, dropout = gr.best_lr, gr.best_dropout
    else:
        model = make(args.dropout)
        result = train(model, train_b, val_b, tc)
        lr, dropout = args.lr, args.dropout

    val = evaluate(model, val_b)
    test = evaluate(model, test_b)
    metrics = {
        "variant": args.variant, "backbone": args.backbone,
        "lr": lr, "dropout": dropout, "alpha": args.alpha,
        "val_auc": val.auc, "val_acc": val.acc,
        "test_auc": test.auc, "test_acc": test.acc,
        "epochs_trained": result.epochs_trained,
    }
    os.makedirs(args.out, exist_ok=True)
    out = Path(args.out)
    meta = {"model_config": model.config.to_json(),
            "vocab": {"question_index": vocab.question_index,
                      "concept_index": vocab.concept_index}}
    save_checkpoint(out / "checkpoint.json", model.parameters(), meta)
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=1)
    with open(out / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_auc", "val_acc"])
        for st in result.history:
            writer.writerow([st.epoch, st.train_loss, st.val_auc, st.val_acc])
    write_manifest(args.out, "train", {**vars(args), "func": None}, args.seed,
                   [args.data], [out / "checkpoint.json", out / "metrics.json"], started)
    print(json.dumps(metrics))
    return EXIT_OK


def cmd_eval(args) -> int:
    params, meta = load_checkpoint(args.checkpoint)
    mc = ModelConfig.from_json(meta["model_config"])
    model = build_model(mc)
    model.load_params(params)
    vocab = Vocab(question_index=meta["vocab"]["question_index"],
                  concept_index=meta["vocab"]["concept_index"])
    dataset = load_dataset(args.data)
    dataset, _ = preprocess(dataset)
    batches = make_batches(dataset.sequences, dataset.problems, vocab,
                           mc.max_len, args.batch_size)
    metrics = evaluate(model, batches)
    doc = metrics.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
    print(json.dumps(doc))
    return EXIT_OK


def cmd_report(args) -> int:
    runs = []
    for path in sorted(Path(args.runs).rglob("metrics.json")):
        with open(path) as fh:
            runs.append(json.load(fh))
    by_backbone: dict[str, dict[str, dict]] = {}
    for m in runs:
        if "backbone" in m and "variant" in m:
            by_backbone.setdefault(m["backbone"], {})[m["variant"]] = m
    lines = ["| Backbone | AUC (original) | AUC (statuskt) | ACC (original) | ACC (statuskt) |",
             "|---|---|---|---|---|"]
    fmt = lambda m, k: f"{m[k]:.4f}" if m else "-"
    for backbone in sorted(by_backbone):
        orig = by_backbone[backbone].get("original")
        stat = by_backbone[backbone].get("statuskt")
        lines.append(f"| {backbone} | {fmt(orig, 'test_auc')} | {fmt(stat, 'test_auc')} "
                     f"| {fmt(orig, 'test_acc')} | {fmt(stat, 'test_acc')} |")
    table = "\n".join(lines)
    if args.out:
        Path(args.out).write_text(table + "\n")
    print(table)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    ok, lines = run_suite(op_seeds=range(args.seeds))
    for line in lines:
        print(line)
    return EXIT_OK if ok else EXIT_RUNTIME


# -- argument wiring ------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="prockt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", help="key = value simulator config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract-mp", help="annotate interactions with proficiency ratios")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--client", choices=("http", "mock"), default="mock")
    p.add_argument("--cache", required=True)
    p.add_argument("--concurrency", type=int, default=1)
    p.add_argument("--max-retries", type=int, default=3)
    p.set_defaults(func=cmd_extract_mp)

    p = sub.add_parser("train", help="train a model, write checkpoint and metrics")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--backbone", choices=("recurrent", "attention"), default="recurrent")
    p.add_argument("--variant", choices=("original", "statuskt"), default="statuskt")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--grid", action="store_true", help="search the (lr, dropout) grid")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--embed-dim", type=int, default=None)
    p.add_argument("--max-len", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--test-frac", type=float, default=0.2)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.add_argument("--batch-size", type=int, default=16)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="markdown comparison table over finished runs")
    p.add_argument("--runs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("PROCKT_LOG", "WARNING"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        for name, low in FLAG_MINIMUMS.items():
            value = getattr(args, name, None)
            if value is not None and not value >= low:
                raise ValidationError(f"--{name.replace('_', '-')} must be at least {low}, "
                                      f"got {value}")
        for name, (low, high) in FLAG_INTERVALS.items():
            value = getattr(args, name, None)
            if value is not None and not low < value < high:
                raise ValidationError(f"--{name.replace('_', '-')} must be in ({low}, {high}), "
                                      f"got {value}")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, DatasetFormatError, SplitError, ConfigError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("command failed")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
