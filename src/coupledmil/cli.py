"""Command-line surface: dataset generation, training, evaluation, and
per-instance attention export.

Exit codes: 0 success, 2 usage/config error, 3 runtime/metric error. `main`
assigns them from `EXIT_CODES` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .bagdata import (
    ConfigError,
    DatasetParseError,
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
    NonFiniteLossError,
    TrainConfig,
    evaluate,
    forward_bag,
    load_checkpoint,
    run_training,
    save_checkpoint,
    split_for_run,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RUNTIME = 3

# The one place an exception becomes an exit code. Any other exception is a
# bug and keeps its traceback.
EXIT_CODES = {
    ConfigError: EXIT_USAGE,  # also a missing input file
    DatasetParseError: EXIT_USAGE,
    CheckpointError: EXIT_RUNTIME,
    MetricError: EXIT_RUNTIME,
    NonFiniteLossError: EXIT_RUNTIME,
    OSError: EXIT_RUNTIME,
}

# path options that must name an existing file
INPUT_FILES = ("config", "checkpoint", "dataset")


def cmd_generate(args) -> None:
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
    ds = generate_synthetic(spec)
    save_dataset(ds, args.out)
    n_pos = sum(1 for b in ds.bags if int(np.argmax(b.label)) == 1)
    print(f"wrote {len(ds.bags)} records to {args.out} "
          f"({n_pos} positive, {len(ds.bags) - n_pos} negative)")


def _build_train_config(args) -> TrainConfig:
    """The config file's values (train only), overridden by every flag that
    was given; each config flag's `dest` is its TrainConfig field."""
    data: dict = {}
    if getattr(args, "config", None) is not None:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigError(f"config file {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
    for f in fields(TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    return TrainConfig.from_dict(data)


def cmd_train(args) -> None:
    config = _build_train_config(args)
    dataset = load_dataset(args.dataset)
    started = time.perf_counter()
    report, model = run_training(dataset, config)
    seconds = time.perf_counter() - started
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # a failed run leaves no directory
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    save_checkpoint(model, out_dir / "checkpoint.bin")

    final = report.evaluations[-1]
    print(f"wrote {out_dir / 'report.json'} and {out_dir / 'checkpoint.bin'}")
    print(f"final test metrics: auc={final['auc']:.4f} f1={final['f1']:.4f} "
          f"acc={final['acc']:.4f} ({len(report.evaluations)} evaluation points)")
    print(f"wall clock: {seconds:.2f}s")


def _load_model_and_dataset(args):
    """The checkpoint and dataset of `eval` and `export-attention`, checked
    to fit each other."""
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.dataset)
    if dataset.d_raw != model.embedder.in_dim:
        raise CheckpointError(
            f"dataset d_raw={dataset.d_raw} does not match checkpoint input "
            f"dim {model.embedder.in_dim}"
        )
    return model, dataset


def cmd_eval(args) -> None:
    config = _build_train_config(args)  # checked before any file is read
    model, dataset = _load_model_and_dataset(args)
    bags = dataset.bags
    if args.split != "all":
        train, val, test = split_for_run(dataset, config)
        bags = {"train": train, "val": val, "test": test}[args.split].bags
        if not bags:
            raise ConfigError(f"fractions {list(config.fractions)} leave no {args.split} "
                              f"bag among the dataset's {len(dataset.bags)}")
    result = evaluate(model, bags, config.threshold)

    print(f"auc={result.auc!r} f1={result.f1!r} acc={result.acc!r} "
          f"count={result.count} threshold={result.threshold!r}")
    if args.out is not None:
        payload = json.dumps(asdict(result), sort_keys=True, indent=2) + "\n"
        Path(args.out).write_text(payload, encoding="utf-8")


def cmd_export_attention(args) -> None:
    """Each bag's rows are written as soon as its forward pass is done, to
    `<out>.partial`, which replaces `<out>` once every bag is written. A
    failed export removes it, so it leaves `<out>` as it was."""
    beta = _build_train_config(args).beta  # checked before any file is read
    model, dataset = _load_model_and_dataset(args)
    partial = Path(args.out + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write("bag_id\tinstance_index\traw_attention\tnormalized_attention\t"
                     "confidence\n")
            for bag in dataset.bags:
                trace = forward_bag(model, bag.id, features_matrix(bag))
                a_norm = normalize_attention(trace.attention)
                conf = convert_confidence(a_norm, beta)
                rows = enumerate(zip(trace.attention.tolist(), a_norm.tolist(),
                                     conf.tolist()))
                fh.write("".join([f"{bag.id}\t{i}\t{raw!r}\t{nrm!r}\t{c!r}\n"
                                  for i, (raw, nrm, c) in rows]))
        partial.replace(args.out)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    print(f"wrote attention table for {len(dataset.bags)} bags to {args.out}")


# annotation of a TrainConfig field -> how its flag parses
_FLAG_KINDS = {
    "int": {"type": int},
    "float": {"type": float},
    "bool": {"action": argparse.BooleanOptionalAction},
    "str": {},
    "tuple[int, ...]": {"type": int, "nargs": "+"},
    "tuple[float, float, float]": {"type": float, "nargs": 3},
}


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    """`--field-name` for each named TrainConfig field; a flag not given
    stays None, so the field keeps its config-file or default value."""
    annotations = {f.name: f.type for f in fields(TrainConfig)}
    for name in names:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                            **_FLAG_KINDS[annotations[name]])


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
    _add_config_flags(tr, [f.name for f in fields(TrainConfig)])
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--split", default="all",
                    choices=["all", "train", "val", "test"])
    _add_config_flags(ev, ["seed", "fractions", "threshold"])
    ev.add_argument("--out", default=None, help="also write the result as JSON")
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("export-attention",
                        help="per-instance attention/confidence table (TSV)")
    ex.add_argument("--checkpoint", required=True)
    ex.add_argument("--dataset", required=True)
    ex.add_argument("--out", required=True)
    _add_config_flags(ex, ["beta"])
    ex.set_defaults(func=cmd_export_attention)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        for name in INPUT_FILES:
            path = getattr(args, name, None)
            if path is not None and not Path(path).is_file():
                raise ConfigError(f"{name} is not an existing file: {path}")
        args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
