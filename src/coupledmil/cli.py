"""Command-line surface: dataset generation, training, evaluation, and
per-instance attention export.

Exit codes: 0 success, 2 usage/config error, 3 runtime/metric error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bagdata import (
    DatasetParseError,
    DatasetSchemaError,
    SyntheticSpec,
    features_matrix,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .distill import convert_confidence, normalize_attention
from .metrics import MetricError
from .orchestrator import (
    CheckpointError,
    TrainConfig,
    evaluate,
    load_checkpoint,
    run_training,
    save_checkpoint,
    split_for_run,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_generate(args) -> int:
    try:
        k = args.k if args.k_max is None else (args.k, args.k_max)
        spec = SyntheticSpec(
            num_bags=args.bags,
            instances_per_bag=k,
            d_raw=args.d_raw,
            rho=args.rho,
            delta=args.delta,
            noise=args.noise,
            positive_fraction=args.pos_fraction,
            seed=args.seed,
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    ds = generate_synthetic(spec)
    try:
        save_dataset(ds, args.out)
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_RUNTIME)
    n_pos = sum(1 for b in ds.bags if int(np.argmax(b.label)) == 1)
    print(f"wrote {len(ds.bags)} records to {args.out} "
          f"({n_pos} positive, {len(ds.bags) - n_pos} negative)")
    return EXIT_OK


_OVERRIDE_KEYS = (
    "backbone", "mode", "iterations", "beta", "alpha_w", "seed",
    "classifier_epochs", "classifier_lr", "embedder_lr", "batch_size",
    "embedder_passes", "augment_ratio", "augment_n", "augment_alpha",
    "augment_gamma", "augment_label_mode", "noise_scale", "noise_dropout",
    "threshold",
)


def _build_train_config(args) -> TrainConfig:
    data: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config file {args.config}: expected a JSON object")
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    if args.augment is not None:
        data["augment"] = args.augment
    if args.full_scale:
        data["full_scale"] = True
    if args.warm_start:
        data["warm_start"] = True
    if args.fractions is not None:
        data["fractions"] = tuple(args.fractions)
    if args.hidden is not None:
        data["hidden"] = tuple(args.hidden)
    if args.embed_dim is not None:
        data["embed_dim"] = args.embed_dim
    if args.attn_dim is not None:
        data["attn_dim"] = args.attn_dim
    return TrainConfig.from_dict(data)


def cmd_train(args) -> int:
    try:
        config = _build_train_config(args)
    except (ValueError, TypeError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except FileNotFoundError as exc:
        return _fail(str(exc), EXIT_USAGE)
    try:
        dataset = load_dataset(args.dataset)
    except FileNotFoundError:
        return _fail(f"dataset not found: {args.dataset}", EXIT_USAGE)
    except (DatasetParseError, DatasetSchemaError) as exc:
        return _fail(str(exc), EXIT_USAGE)

    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        report, model = run_training(dataset, config)
        (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
        save_checkpoint(model, out_dir / "checkpoint.bin")
    except OSError as exc:
        return _fail(f"I/O error: {exc}", EXIT_RUNTIME)
    except MetricError as exc:
        return _fail(str(exc), EXIT_RUNTIME)

    final = report.evaluations[-1]
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'checkpoint.bin'}")
    print(f"final test metrics: auc={final['auc']:.4f} f1={final['f1']:.4f} "
          f"acc={final['acc']:.4f} ({len(report.evaluations)} evaluation points)")
    print(f"wall clock: {report.wall_clock_seconds:.2f}s")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        model = load_checkpoint(args.checkpoint)
    except FileNotFoundError:
        return _fail(f"checkpoint not found: {args.checkpoint}", EXIT_USAGE)
    except CheckpointError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    try:
        dataset = load_dataset(args.dataset)
    except FileNotFoundError:
        return _fail(f"dataset not found: {args.dataset}", EXIT_USAGE)
    except (DatasetParseError, DatasetSchemaError) as exc:
        return _fail(str(exc), EXIT_USAGE)

    bags = dataset.bags
    if args.split != "all":
        try:
            config = TrainConfig(seed=args.seed, fractions=tuple(args.fractions))
        except ValueError as exc:
            return _fail(str(exc), EXIT_USAGE)
        train, val, test = split_for_run(dataset, config)
        bags = {"train": train, "val": val, "test": test}[args.split].bags
    try:
        result = evaluate(model, bags, args.threshold)
    except MetricError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    except ValueError as exc:
        return _fail(str(exc), EXIT_RUNTIME)

    print(f"auc={result.auc!r} f1={result.f1!r} acc={result.acc!r} "
          f"count={result.count} threshold={result.threshold!r}")
    if args.out is not None:
        payload = json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
        Path(args.out).write_text(payload, encoding="utf-8")
    return EXIT_OK


def cmd_export_attention(args) -> int:
    try:
        model = load_checkpoint(args.checkpoint)
    except FileNotFoundError:
        return _fail(f"checkpoint not found: {args.checkpoint}", EXIT_USAGE)
    except CheckpointError as exc:
        return _fail(str(exc), EXIT_RUNTIME)
    try:
        dataset = load_dataset(args.dataset)
    except FileNotFoundError:
        return _fail(f"dataset not found: {args.dataset}", EXIT_USAGE)
    except (DatasetParseError, DatasetSchemaError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if dataset.d_raw != model.embedder.in_dim:
        return _fail(
            f"dataset d_raw={dataset.d_raw} does not match checkpoint input "
            f"dim {model.embedder.in_dim}", EXIT_RUNTIME,
        )

    lines = ["bag_id\tinstance_index\traw_attention\tnormalized_attention\tconfidence"]
    for bag in dataset.bags:
        trace = model.bag_forward(features_matrix(bag))
        a_norm = normalize_attention(trace.attention)
        # scalar path so the column is reproducible from the printed a_norm
        conf = [convert_confidence(float(v), args.beta) for v in a_norm]
        for i, (raw, nrm, c) in enumerate(zip(trace.attention, a_norm, conf)):
            lines.append(f"{bag.id}\t{i}\t{float(raw)!r}\t{float(nrm)!r}\t{float(c)!r}")
    try:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        return _fail(f"cannot write {args.out}: {exc}", EXIT_RUNTIME)
    print(f"wrote attention table for {len(dataset.bags)} bags to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledmil",
        description="Iteratively coupled MIL training on synthetic feature bags",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic bag dataset")
    gen.add_argument("--out", required=True)
    gen.add_argument("--bags", type=int, default=300)
    gen.add_argument("--k", type=int, default=50, help="instances per bag")
    gen.add_argument("--k-max", dest="k_max", type=int, default=None,
                     help="upper bound for a uniform bag-size range")
    gen.add_argument("--d-raw", dest="d_raw", type=int, default=16)
    gen.add_argument("--rho", type=float, default=0.10,
                     help="positive-instance ratio in positive bags")
    gen.add_argument("--delta", type=float, default=1.0,
                     help="class mean separation")
    gen.add_argument("--noise", type=float, default=1.0)
    gen.add_argument("--pos-fraction", dest="pos_fraction", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="run the two-phase training loop")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--config", default=None, help="JSON config file")
    tr.add_argument("--out-dir", dest="out_dir", default="run")
    tr.add_argument("--backbone", default=None,
                    choices=["mean", "max", "gated_attention", "abmil"])
    tr.add_argument("--mode", default=None,
                    choices=["naive", "vanilla", "confidence"])
    tr.add_argument("--iterations", type=int, default=None)
    tr.add_argument("--beta", type=float, default=None)
    tr.add_argument("--alpha-w", dest="alpha_w", type=float, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--classifier-epochs", dest="classifier_epochs",
                    type=int, default=None)
    tr.add_argument("--classifier-lr", dest="classifier_lr", type=float, default=None)
    tr.add_argument("--embedder-lr", dest="embedder_lr", type=float, default=None)
    tr.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    tr.add_argument("--embedder-passes", dest="embedder_passes",
                    type=int, default=None)
    aug = tr.add_mutually_exclusive_group()
    aug.add_argument("--augment", dest="augment", action="store_true", default=None)
    aug.add_argument("--no-augment", dest="augment", action="store_false")
    tr.add_argument("--augment-ratio", dest="augment_ratio", type=float, default=None)
    tr.add_argument("--augment-n", dest="augment_n", type=int, default=None)
    tr.add_argument("--augment-alpha", dest="augment_alpha", type=float, default=None)
    tr.add_argument("--augment-gamma", dest="augment_gamma", type=float, default=None)
    tr.add_argument("--label-mode", dest="augment_label_mode", default=None,
                    choices=["lambda_weighted", "kept_fraction"])
    tr.add_argument("--noise-scale", dest="noise_scale", type=float, default=None)
    tr.add_argument("--noise-dropout", dest="noise_dropout", type=float, default=None)
    tr.add_argument("--threshold", type=float, default=None)
    tr.add_argument("--fractions", type=float, nargs=3, default=None,
                    metavar=("TRAIN", "VAL", "TEST"))
    tr.add_argument("--hidden", type=int, nargs="+", default=None)
    tr.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    tr.add_argument("--attn-dim", dest="attn_dim", type=int, default=None)
    tr.add_argument("--full-scale", dest="full_scale", action="store_true",
                    help="restore the 200-epoch classifier-phase protocol")
    tr.add_argument("--warm-start", dest="warm_start", action="store_true")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--split", default="all",
                    choices=["all", "train", "val", "test"])
    ev.add_argument("--seed", type=int, default=0,
                    help="run seed whose split to reproduce")
    ev.add_argument("--fractions", type=float, nargs=3, default=(0.7, 0.1, 0.2),
                    metavar=("TRAIN", "VAL", "TEST"))
    ev.add_argument("--threshold", type=float, default=0.5)
    ev.add_argument("--out", default=None, help="also write the result as JSON")
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("export-attention",
                        help="per-instance attention/confidence table (TSV)")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--dataset", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--beta", type=float, default=6.0)
    ex.set_defaults(func=cmd_export_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
