"""Command-line surface: dataset generation, training, evaluation, and
per-instance attention export.

Exit codes: 0 success, 2 usage/config error, 3 runtime/metric error. `main`
assigns them from `EXIT_CODES` and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
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
    # both files are written whole as part files before either replaces its
    # old one, and the report goes last, so a failed write leaves no new
    # report beside an old or broken checkpoint
    report_path, checkpoint_path = out_dir / "report.json", out_dir / "checkpoint.bin"
    parts = [Path(f"{path}.partial") for path in (checkpoint_path, report_path)]
    try:
        save_checkpoint(model, parts[0])
        parts[1].write_text(report.to_json(), encoding="utf-8")
        parts[0].replace(checkpoint_path)
        parts[1].replace(report_path)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)

    final = report.evaluations[-1]
    print(f"wrote {report_path} and {checkpoint_path}")
    print(f"final test metrics: auc={final['auc']:.4f} f1={final['f1']:.4f} "
          f"acc={final['acc']:.4f} ({len(report.evaluations)} evaluation points)")
    print(f"wall clock: {seconds:.2f}s")


def _load_model_and_dataset(args):
    """The checkpoint and dataset of `eval` and `export-attention`, checked
    to fit each other."""
    model = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.dataset)
    if dataset.d_raw != model.embedder.dims[0]:
        raise CheckpointError(
            f"dataset d_raw={dataset.d_raw} does not match checkpoint input "
            f"dim {model.embedder.dims[0]}"
        )
    return model, dataset


def cmd_eval(args) -> None:
    config = _build_train_config(args)  # checked before any file is read
    model, dataset = _load_model_and_dataset(args)
    bags = dataset.bags
    if not bags:
        raise ConfigError(f"dataset {args.dataset} holds no bag to evaluate")
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


# Each export worker formats about this many spans, so that a worker that
# drew slow spans does not leave the others idle at the end.
SPANS_PER_WORKER = 4

# (model, bags, beta) of the export this process runs; forked workers
# inherit it, so none of it is pickled.
_export_job = None


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return 1


def _export_spans(bags, n: int) -> list[tuple[int, int]]:
    """At most `n` contiguous `(start, stop)` runs of `bags`, in order, none
    empty, each holding about the same number of instances."""
    ends = np.cumsum([len(bag) for bag in bags])
    n = min(n, len(bags))
    cuts = {int(np.searchsorted(ends, ends[-1] * i / n)) + 1 for i in range(1, n)}
    bounds = sorted(cuts | {0, len(bags)})
    return list(zip(bounds, bounds[1:]))


def _write_span(span: tuple[int, int, Path]) -> Path:
    """Write the table rows of the running export's bags `start` to `stop - 1`
    to the file `part`, one bag at a time, and return its path."""
    model, bags, beta = _export_job
    start, stop, part = span
    with open(part, "w", encoding="utf-8") as fh:
        for bag in bags[start:stop]:
            _, a, _ = forward_bag(model, bag.id, features_matrix(bag))
            a_norm = normalize_attention(a)
            conf = convert_confidence(a_norm, beta)
            keys = [f"{bag.id}\t{i}" for i in range(len(a))]
            columns = (map(repr, values.tolist()) for values in (a, a_norm, conf))
            fh.write("\n".join(map("\t".join, zip(keys, *columns))) + "\n")
    return part


@contextlib.contextmanager
def _span_map(workers: int):
    """A `map` that yields its results in order: the built-in one, or with
    more than one worker, that of a pool of `workers` forked processes, shut
    down and joined on exit. A span that raises is raised in order, after
    every earlier span's result; spans not yet started are cancelled. A
    worker that ends abruptly raises ChildProcessError."""
    if workers < 2:
        yield map
        return
    import multiprocessing  # not at module level: the imports cost about 25 ms
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # fork, not spawn: a spawned worker would import the package and load the
    # checkpoint and dataset again, which costs more than its share of spans
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    except BrokenProcessPool as exc:
        raise ChildProcessError("an export worker process ended abruptly") from exc
    finally:
        pool.shutdown(cancel_futures=True)


def cmd_export_attention(args) -> None:
    """The bags are cut into contiguous spans of about equal instance count,
    `SPANS_PER_WORKER` per usable CPU, and each span's rows are written by a
    forked worker to its own part file, `<out>.partial.<first bag index>`
    (in this process with one usable CPU or one span). The parts are
    appended to `<out>.partial` in bag order and deleted, so the table's
    bytes do not depend on the spans; it replaces `<out>` once every bag is
    written. A failed export removes the partial table and every part, so it
    leaves `<out>` as it was, and reports the first failing bag in file
    order."""
    global _export_job
    beta = _build_train_config(args).beta  # checked before any file is read
    model, dataset = _load_model_and_dataset(args)
    partial = Path(args.out + ".partial")
    workers = _usable_cpus()
    spans = [(start, stop, Path(f"{partial}.{start}"))
             for start, stop in _export_spans(dataset.bags, SPANS_PER_WORKER * workers)]
    _export_job = model, dataset.bags, beta
    try:
        with open(partial, "wb") as fh, _span_map(min(workers, len(spans))) as span_map:
            fh.write(b"bag_id\tinstance_index\traw_attention\tnormalized_attention\t"
                     b"confidence\n")
            for part in span_map(_write_span, spans):
                with open(part, "rb") as src:
                    shutil.copyfileobj(src, fh)
                part.unlink()
        partial.replace(args.out)
    except BaseException:
        for _, _, part in spans:
            part.unlink(missing_ok=True)
        partial.unlink(missing_ok=True)
        raise
    finally:
        _export_job = None
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
