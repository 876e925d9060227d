"""One workload in a fresh process: set-up, warm-up, the timed closed loop,
and the output checks. Started by run.py with the path of a job file.

Role "generate" writes a dataset during input preparation. Role "probe"
only times set-up and prints it. Role "measure" writes a result file. With
tracing on, untraced and traced operations alternate; the per-layer metrics
come from the traced ones only.

Every timing is paired with the time of a fixed reference kernel run
right after it (and, for operations, right before it), so run.py can
report it at a fixed machine speed: the shared host's speed drifts by a
fifth over tens of seconds, far more than a run can average out. After
each operation the kernel repeats for KERNEL_SHARE of that operation's
time, because a single short kernel run samples the drift too sparsely.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import resource
import statistics
import sys
import time
from pathlib import Path

clock = time.perf_counter
KERNEL_SHARE = 0.15


IDENTICAL = "outputs byte-identical across operations"
AUC_RANGE = "every AUC finite and in [0, 1]"
RELOAD = "reloaded checkpoint reproduces the final AUC"
EXIT_CODES = "every CLI call exits 0"
EXPORT_ROWS = "export has a header plus one row per instance"
RAISED = "no operation raised"
COUNTS = "call counts identical across traced operations"


def reference_kernel(steps: int = 1200) -> float:
    """Seconds taken by fixed work shaped like the package's hot paths:
    small-matrix numpy calls in a loop, and JSON parsing, float formatting
    and scalar arithmetic in plain Python. The kernel is part of the
    benchmark, so no change to the package moves it."""
    import numpy as np
    rng = np.random.default_rng(20231201)
    x = rng.standard_normal((50, 16))
    w = rng.standard_normal((16, 32)) / 4.0
    v = rng.standard_normal(32)
    line = json.dumps({"id": "bag", "x": x[:4].tolist()})
    start = clock()
    acc = 0.0
    for step in range(steps):
        h = np.tanh(x @ w)
        a = h @ v
        e = np.exp(a - a.max())
        p = e / e.sum()
        w -= 1e-4 * np.outer(x[step % 50], p[:32] - p.mean())
        row = json.loads(line)["x"][step % 4]
        text = "\t".join(f"{value!r}" for value in row)
        for value in a[:8].tolist():
            acc += value * 0.5 if value > 0 else -value
        acc += len(text) * 1e-9
    seconds = clock() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel diverged")
    return seconds


def kernel_runs(budget_s: float) -> list[float]:
    """Seconds of each reference kernel run, repeated until they last at
    least `budget_s` in all."""
    times = [reference_kernel()]
    while sum(times) < budget_s:
        times.append(reference_kernel())
    return times


def setup_kernel_time(session) -> float:
    """Median kernel run after set-up, over 0.3 s of runs at least (about
    three), so that the median skips a fresh process's first, slower one."""
    return statistics.median(kernel_runs(max(0.3, KERNEL_SHARE * session.setup_s)))


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _import_package(src: str) -> None:
    """Import the package from the checkout's source tree; the calls below
    look the modules up here, so patched attributes are seen."""
    global bagdata, cli, orchestrator
    sys.path.insert(0, src)
    from coupledmil import bagdata, cli, orchestrator


class Session:
    """Loaded inputs plus the operations of one workload."""

    def __init__(self, job, tracer=None):
        self.job = job
        self.work = Path(job["workdir"])
        start = clock()
        _import_package(job["src"])
        if tracer is not None:
            from layers import install
            install(tracer)
            tracer.active = True
        self.dataset = bagdata.load_dataset(job["dataset"])
        if job["kind"] == "inference":
            orchestrator.load_checkpoint(job["checkpoint"])
        if tracer is not None:
            tracer.active = False
        self.setup_s = clock() - start
        self.configs = {label: orchestrator.TrainConfig.from_dict(cfg)
                        for label, cfg in job["configs"].items()}
        self.n_instances = sum(len(bag) for bag in self.dataset.bags)
        self.problems: dict[str, list[str]] = {}

    def fail(self, check: str, message: str) -> None:
        self.problems.setdefault(check, []).append(message)

    # -- training workloads ------------------------------------------------

    def _paths(self, label):
        return self.work / f"report-{label}.json", self.work / f"checkpoint-{label}.bin"

    def train_op(self, configs) -> dict:
        start = clock()
        for label, config in configs.items():
            report, model = orchestrator.run_training(self.dataset, config)
            report_path, ckpt_path = self._paths(label)
            report_path.write_text(report.to_json(), encoding="utf-8")
            orchestrator.save_checkpoint(model, ckpt_path)
        return {"op": clock() - start}

    def train_outputs(self) -> dict:
        out = {}
        for label in self.configs:
            report_path, ckpt_path = self._paths(label)
            out[f"report_sha256.{label}"] = sha256_file(report_path)
            out[f"checkpoint_sha256.{label}"] = sha256_file(ckpt_path)
            evals = json.loads(report_path.read_text(encoding="utf-8"))["evaluations"]
            aucs = [e["auc"] for e in evals]
            if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in aucs):
                self.fail(AUC_RANGE, f"{label}: {aucs}")
            out[f"auc.{label}"] = aucs
        return out

    def reload_check(self, outputs) -> None:
        """Reloading each checkpoint and evaluating it on the run's test
        split reproduces the report's final AUC exactly."""
        for label, config in self.configs.items():
            try:
                model = orchestrator.load_checkpoint(self._paths(label)[1])
                _, _, test = orchestrator.split_for_run(self.dataset, config)
                auc = orchestrator.evaluate(model, test.bags, config.threshold).auc
            except Exception as exc:  # noqa: BLE001 - reported as a failed check
                self.fail(RELOAD, f"{label}: {exc!r}")
                continue
            if auc != outputs[f"auc.{label}"][-1]:
                self.fail(RELOAD, f"{label}: reloaded AUC {auc!r} != report "
                                  f"{outputs[f'auc.{label}'][-1]!r}")

    def expected_augment_calls(self) -> int:
        total = 0
        for config in self.configs.values():
            if config.augment:
                n_train = len(orchestrator.split_for_run(self.dataset, config)[0].bags)
                total += ((config.iterations + 1) * config.effective_classifier_epochs
                          * round(config.augment_ratio * n_train))
        return total

    # -- inference workload ------------------------------------------------

    def _cli(self, argv) -> tuple[int, str, float]:
        buf = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue(), clock() - start

    def eval_call(self):
        return self._cli(["eval", "--checkpoint", self.job["checkpoint"],
                          "--dataset", self.job["dataset"], "--split", "test",
                          "--seed", str(self.job["seed"])])

    def inference_op(self) -> dict:
        code_e, out_e, t_eval = self.eval_call()
        (self.work / "eval.txt").write_text(f"{code_e}\n{out_e}", encoding="utf-8")
        code_x, _, t_export = self._cli(
            ["export-attention", "--checkpoint", self.job["checkpoint"],
             "--dataset", self.job["dataset"], "--out", str(self.work / "attention.tsv"),
             "--beta", "6"])
        self.exit_codes = (code_e, code_x)
        return {"op": t_eval + t_export, "eval": t_eval, "export": t_export}

    def inference_outputs(self) -> dict:
        code_e, code_x = self.exit_codes
        if code_e != 0 or code_x != 0:
            self.fail(EXIT_CODES, f"eval={code_e} export={code_x}")
        eval_text = (self.work / "eval.txt").read_text(encoding="utf-8")
        match = re.search(r"auc=(\S+)", eval_text)
        auc = float(match.group(1)) if match else float("nan")
        if not (math.isfinite(auc) and 0.0 <= auc <= 1.0):
            self.fail(AUC_RANGE, f"eval: {auc!r}")
        tsv = self.work / "attention.tsv"
        with open(tsv, "rb") as fh:
            rows = sum(1 for _ in fh)
        if rows != 1 + self.n_instances:
            self.fail(EXPORT_ROWS, f"{rows} lines for {self.n_instances} instances")
        return {"eval_sha256": hashlib.sha256(eval_text.encode()).hexdigest(),
                "export_sha256": sha256_file(tsv), "auc.eval": [auc]}

    # -- common ------------------------------------------------------------

    def op(self) -> dict:
        if self.job["kind"] == "inference":
            return self.inference_op()
        return self.train_op(self.configs)

    def outputs(self) -> dict:
        if self.job["kind"] == "inference":
            return self.inference_outputs()
        return self.train_outputs()

    def warm_up(self) -> None:
        """One untimed operation: a full eval call, or each training run
        shortened to one epoch and at most one embedder pass."""
        if self.job["kind"] == "inference":
            code, _, _ = self.eval_call()
            if code != 0:
                self.fail(EXIT_CODES, f"warm-up eval exited {code}")
            return
        self.train_op({
            label: dataclasses.replace(c, classifier_epochs=1,
                                       embedder_passes=min(1, c.embedder_passes))
            for label, c in self.configs.items()})


def run_probe(job) -> None:
    session = Session(job)
    print(json.dumps({"setup_s": session.setup_s,
                      "kernel_s": setup_kernel_time(session)}))


def run_measure(job) -> dict:
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
    session = Session(job, tracer)
    setup_kernel_s = setup_kernel_time(session)
    untraced: dict[str, list[float]] = {}
    traced_s: list[float] = []
    traced_runs: list[int] = []
    attempted, failed = 1, 0
    try:
        session.warm_up()
    except Exception as exc:  # noqa: BLE001 - any failure counts as failed
        session.fail(RAISED, f"warm-up: {exc!r}")
    if session.problems:
        failed = 1

    reference = None
    counts_equal = True
    # mean kernel run before the first operation, then after each
    kernel_s = [statistics.mean(kernel_runs(0.5))]
    started = clock()
    while not failed:
        traced = tracer is not None and len(untraced.get("op", ())) > len(traced_runs)
        attempted += 1
        problems_before = sum(map(len, session.problems.values()))
        try:
            if traced:
                with tracer.run(len(traced_runs), f"op.{job['workload']}"):
                    times = session.op()
            else:
                times = session.op()
            kernel_s.append(statistics.mean(kernel_runs(KERNEL_SHARE * times["op"])))
            outputs = session.outputs()
        except Exception as exc:  # noqa: BLE001
            session.fail(RAISED, repr(exc))
            failed += 1
            break
        if reference is None:
            reference = outputs
        elif outputs != reference:
            session.fail(IDENTICAL, f"operation {attempted - 1} "
                                    f"({'traced' if traced else 'untraced'})")
        if sum(map(len, session.problems.values())) > problems_before:
            failed += 1
        if traced:
            traced_runs.append(len(traced_runs))
            traced_s.append(times["op"])
            counts_equal &= tracer.counts(traced_runs[-1]) == tracer.counts(0)
        else:
            times["kernel"] = (kernel_s[-2] + kernel_s[-1]) / 2
            for key, value in times.items():
                untraced.setdefault(key, []).append(value)
        # two operations at least, so that repeated outputs can be compared;
        # no operation is started that would end after the measuring time
        enough = len(traced_runs if tracer else untraced["op"]) >= 2
        elapsed = clock() - started
        if enough and elapsed + elapsed / (attempted - 1) > job["seconds"]:
            break

    checks = [RAISED, IDENTICAL, AUC_RANGE]
    checks += [EXIT_CODES, EXPORT_ROWS] if job["kind"] == "inference" else [RELOAD]
    if reference is not None and job["kind"] == "train":
        session.reload_check(reference)
        failed += RELOAD in session.problems
    result = {
        "setup_s": session.setup_s, "setup_kernel_s": setup_kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed, "samples": untraced,
        "traced_s": traced_s,
    }
    if reference is not None:
        result["fingerprints"] = {k: v for k, v in reference.items()
                                  if not k.startswith("auc.")}
        result["aucs"] = {k[4:]: v for k, v in reference.items() if k.startswith("auc.")}
    if len(traced_runs) >= 2:
        from layers import per_layer_metrics
        if not counts_equal:
            session.fail(COUNTS, "per-operation call counts differ")
        checks.append(COUNTS)
        result["layers"] = per_layer_metrics(
            tracer, traced_runs, traced_s, untraced["op"], job["save_dataset_s"])
        result["spans"] = tracer.write(job["spans"])
        if job["kind"] == "train":
            result["expected_augment_calls"] = session.expected_augment_calls()
    if tracer is not None:
        tracer.unpatch()
    result["checks"] = {name: name not in session.problems for name in checks}
    result["problems"] = session.problems
    return result


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if job["role"] == "probe":
        run_probe(job)
        return 0
    if job["role"] == "generate":
        _import_package(job["src"])
        from workloads import write_dataset
        save_s = write_dataset(job["spec"], job["data_seed"], job["dataset"],
                               job["instances"])
        print(json.dumps({"save_dataset_s": save_s}))
        return 0
    result = run_measure(job)
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
