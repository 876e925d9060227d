"""coupledmil benchmark: seeded synthetic inputs, one workload per run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 24 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. The parent process generates the inputs from the seed,
then starts fresh worker processes with BLAS and OpenMP threads fixed at 1:
a few that only time set-up, and one that sets up, warms up and runs the
workload's operation in a closed loop for `--seconds`. Times are reported
at a fixed machine speed measured alongside them (README, "Machine
speed"). The last line of standard output is one JSON object; `--trace 0` reports the end-to-end
metrics, `--trace 1` the per-layer metrics of an outside-in traced run.
`--workload all` runs the four workloads one after the other.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import PER_LAYER, attribution  # noqa: E402
from workloads import REFERENCE_SPEC, WORKLOADS, synthetic, write_dataset  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0   # a run must end within 180 s
# fresh processes that only time set-up: at least 2, and more while they
# have taken under 1.5 s, so that short set-ups get a steadier median
SETUP_PROBES = (2, 10)
SETUP_PROBE_S = 1.5

# median seconds of worker.reference_kernel on the reference host (README);
# every timing is reported at the machine speed at which the kernel takes
# this long, measured alongside the timing
REFERENCE_KERNEL_S = 0.1

# name -> unit; README.md defines each metric
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def prepare(workload, job: dict, deadline: float) -> dict:
    """Generate the workload's inputs into its work directory; the worker
    sees only the files."""
    from coupledmil import orchestrator

    seed = job["seed"]
    inputs = {"dataset": str(Path(job["workdir"]) / "dataset.jsonl"), "configs": {}}
    if workload.kind == "train":
        inputs["configs"] = {label: {**cfg, "seed": seed}
                             for label, cfg in workload.configs.items()}
        inputs["save_dataset_s"] = write_dataset(workload.spec, seed, inputs["dataset"])
        return inputs
    # a second process writes the evaluation set while this one trains the
    # checkpoint; nothing is timed here but the save itself
    generator = spawn({**job, **inputs, "role": "generate", "spec": workload.spec,
                       "instances": workload.instances, "data_seed": seed + 1})
    try:
        config = orchestrator.TrainConfig.from_dict(
            {**workload.configs["checkpoint"], "seed": seed})
        _, model = orchestrator.run_training(synthetic(REFERENCE_SPEC, seed), config)
        inputs["checkpoint"] = str(Path(job["workdir"]) / "checkpoint.bin")
        orchestrator.save_checkpoint(model, inputs["checkpoint"])
    except BaseException:
        generator.kill()
        generator.wait()
        raise
    inputs["save_dataset_s"] = json.loads(
        finish(generator, "generate", deadline))["save_dataset_s"]
    return inputs


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "loadavg": " ".join(f"{load:.2f}" for load in os.getloadavg())}


def spawn(job: dict) -> subprocess.Popen:
    path = Path(job["workdir"]) / f"job-{job['role']}.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(path)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)


def finish(proc: subprocess.Popen, role: str, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it if it runs over."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        proc.kill()
        proc.wait()
        raise BenchError(f"{role} worker passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited {proc.returncode}")
    return out


def start_worker(job: dict, deadline: float) -> str:
    return finish(spawn(job), job["role"], deadline)


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    workload = WORKLOADS[name]
    work = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job = {"workload": name, "kind": workload.kind, "seed": seed,
               "seconds": seconds, "trace": trace, "src": str(SRC),
               "workdir": str(work), "result": str(work / "result.json"),
               "spans": str(OUT / f"spans-{name}.tsv")}
        job.update(prepare(workload, job, deadline))
        setup, probing = [], time.monotonic()
        while len(setup) < SETUP_PROBES[1] and (
                len(setup) < SETUP_PROBES[0] or time.monotonic() - probing < SETUP_PROBE_S):
            probe = json.loads(start_worker({**job, "role": "probe"}, deadline))
            setup.append((probe["setup_s"], probe["kernel_s"]))
        start_worker({**job, "role": "measure"}, deadline)
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result["samples"].get("op") or (trace and "layers" not in result):
        raise BenchError(f"{name}: no complete measurement; problems: "
                         f"{result['problems']}")
    setup.append((result["setup_s"], result["setup_kernel_s"]))
    result["setup_samples"] = [s for s, _ in setup]
    samples = result["samples"]
    # each timing at the speed where the kernel takes REFERENCE_KERNEL_S,
    # then the median over the run
    result["scaled"] = {
        "setup": statistics.median(s * REFERENCE_KERNEL_S / k for s, k in setup),
        **{key: statistics.median(t * REFERENCE_KERNEL_S / k
                                  for t, k in zip(values, samples["kernel"]))
           for key, values in samples.items() if key != "kernel"}}
    result["spans_path"] = job["spans"]
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": result["scaled"]["setup"],
        "op_s": result["scaled"]["op"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(name: str, result: dict, trace: bool, env: dict, seed: int,
           seconds: int) -> dict:
    """Print the human-readable summary; return the metrics for the JSON
    line."""
    workload = WORKLOADS[name]
    print(f"== coupledmil benchmark: workload {name}, seed {seed}, "
          f"{seconds} s, trace {'on' if trace else 'off'}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"inputs: {json.dumps(workload.describe(), sort_keys=True)}")
    samples = result["samples"]
    e2e = end_to_end(result)
    print(f"reference kernel: median {statistics.median(samples['kernel']):.4f} s "
          f"around the operations; times below are at {REFERENCE_KERNEL_S} s per "
          "kernel, wall-clock beside them")
    print(f"{'metric':<34} {'value':>14} {'unit':<6} {'n':>3}  wall-clock median, range")
    rows = [("setup_s", e2e["setup_s"], result["setup_samples"])]
    sub = ("eval_s", "eval"), ("export_s", "export")
    if workload.kind == "train":
        sub = (("run_s", "op"),)
    rows.append(("op_s", e2e["op_s"], samples["op"]))
    for label, key in sub:
        rows.append((f"  {label}", result["scaled"][key], samples[key]))
    for metric, value, wall in rows:
        print(f"{metric:<34} {value:>14.6f} {'s':<6} {len(wall):>3}  "
              f"{statistics.median(wall):.4f}, {min(wall):.4f} .. {max(wall):.4f}")
    print(f"{'peak_rss_mb':<34} {e2e['peak_rss_mb']:>14.3f} {'MiB':<6} {1:>3}")
    for label, values in result.get("aucs", {}).items():
        print(f"{'test_auc.' + label:<34} {values[-1]:>14.6f} {'ratio':<6} {1:>3}  "
              "final AUC, deterministic at a fixed seed")
        if len(values) > 1:
            print(f"{'auc_gain.' + label:<34} {values[-1] - values[0]:>14.6f} "
                  f"{'ratio':<6} {1:>3}  final minus iteration 0: {values}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_ratio':<34} {failed / attempted:>14.6f} {'ratio':<6} "
          f"{attempted:>3}  {failed} of {attempted} operations")
    for check, ok in result["checks"].items():
        detail = "; ".join(result["problems"].get(check, []))
        print(f"check {'PASS' if ok else 'FAIL'}: {check}" + (f" ({detail})" if detail else ""))
    for key, value in result.get("fingerprints", {}).items():
        print(f"fingerprint {key} {value}")
    if not trace:
        return {m: {"value": e2e[m], "unit": unit} for m, unit in END_TO_END.items()}

    layers = result["layers"]
    print(f"trace: {result['spans']} spans written to "
          f"{Path(result['spans_path']).relative_to(ROOT)}; wall-clock op "
          f"{statistics.median(result['traced_s']):.4f} s traced vs "
          f"{statistics.median(samples['op']):.4f} s untraced")
    print(f"{'per-layer metric':<42} {'value':>16} {'unit':<10} should move")
    for metric, (unit, moves) in PER_LAYER.items():
        value = layers[metric]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"{metric:<42} {shown} {unit:<10} {moves}")
    for statement, ok in attribution(workload.kind, name, layers,
                                     result.get("expected_augment_calls")):
        print(f"attribution {'holds' if ok else 'DOES NOT hold'}: {statement}")
    return {m: {"value": layers[m], "unit": unit} for m, (unit, _) in PER_LAYER.items()}


def check_declared(metrics: dict, trace: bool) -> None:
    """The emitted names must be the ones BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    if wanted != set(metrics):
        raise BenchError(f"metrics {sorted(set(metrics) ^ wanted)} do not match "
                         "BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coupledmil" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result = run_workload(name, args.seed, args.seconds, trace, deadline)
            values = report(name, result, trace, env, args.seed, args.seconds)
            check_declared(values, trace)
            correct &= result["failed"] == 0 and all(result["checks"].values())
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in values.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
