"""Which package callables the tracer wraps, and the per-layer metrics
derived from their spans.

Layers are the package's modules. A name bound with `from .x import y` is a
copy of the binding, so it is wrapped in the module that calls it.
"""

from __future__ import annotations

import importlib
import statistics

LAYERS = ("gradcore", "milnet", "augment", "bagdata", "distill",
          "orchestrator", "metrics", "cli")


def _adam_bytes(optimizer) -> int:
    # param, grad, m and v arrays, each the size of the parameter
    return 4 * sum(p.value.nbytes for p in optimizer.params)


# (module, attribute path, span name, work counter)
PATCHES = (
    ("gradcore", "Adam.step", "gradcore.adam_step", _adam_bytes),
    ("milnet", "GatedAttention.forward", "milnet.gated_attention.fwd", None),
    ("milnet", "GatedAttention.backward", "milnet.gated_attention.bwd", None),
    ("milnet", "Embedder.forward", "milnet.embedder.fwd", None),
    ("milnet", "Embedder.backward", "milnet.embedder.bwd", None),
    ("milnet", "MilModel.head_forward", "milnet.head_forward", None),
    ("milnet", "MilModel.head_backward", "milnet.head_backward", None),
    ("milnet", "MilModel.bag_forward", "milnet.bag_forward", None),
    ("distill", "TeacherBranch.from_model", "distill.teacher_snapshot", None),
    ("orchestrator", "augment_pair", "augment.augment_pair", None),
    ("orchestrator", "features_matrix", "bagdata.features_matrix", None),
    ("cli", "features_matrix", "bagdata.features_matrix", None),
    ("bagdata", "load_dataset", "bagdata.load_dataset", None),
    ("cli", "load_dataset", "bagdata.load_dataset", None),
    ("orchestrator", "distill_step", "distill.distill_step", None),
    ("orchestrator", "naive_pseudolabel_step", "distill.naive_step", None),
    ("orchestrator", "noisy_augment", "distill.noisy_augment", None),
    ("orchestrator", "convert_confidence", "distill.convert_confidence", None),
    ("cli", "convert_confidence", "distill.convert_confidence", None),
    ("orchestrator", "run_training", "orchestrator.run_training", None),
    ("orchestrator", "run_classifier_phase", "orchestrator.classifier_phase", None),
    ("orchestrator", "run_embedder_phase", "orchestrator.embedder_phase", None),
    ("orchestrator", "params_checksum", "orchestrator.params_checksum", None),
    ("orchestrator", "evaluate", "orchestrator.evaluate", None),
    ("cli", "evaluate", "orchestrator.evaluate", None),
    ("orchestrator", "RunReport.to_json", "orchestrator.report_json", None),
    ("orchestrator", "save_checkpoint", "orchestrator.checkpoint_save", None),
    ("orchestrator", "load_checkpoint", "orchestrator.checkpoint_load", None),
    ("cli", "load_checkpoint", "orchestrator.checkpoint_load", None),
    ("orchestrator", "evaluate_scores", "metrics.evaluate_scores", None),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_export_attention", "cli.export", None),
)


def install(tracer) -> None:
    for module, path, name, work in PATCHES:
        owner = importlib.import_module(f"coupledmil.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.patch(owner, attr, name, work)


# name -> (unit, end-to-end metric it should move). "run_s" is op_s on the
# training workloads; "eval_s" and "export_s" are the two halves of op_s on
# inference.
PER_LAYER = {
    "gradcore.adam_step.us": ("us", "run_s"),
    "gradcore.adam_step.calls": ("count", "run_s"),
    "gradcore.adam_step.share": ("ratio", "run_s"),
    "gradcore.adam_step.bytes_computed": ("B", "run_s"),
    "milnet.gated_attention.fwd.us": ("us", "run_s, eval_s, export_s"),
    "milnet.gated_attention.bwd.us": ("us", "run_s"),
    "milnet.gated_attention.fwd.calls": ("count", "run_s, eval_s, export_s"),
    "milnet.gated_attention.share": ("ratio", "run_s, eval_s, export_s"),
    "milnet.head.glue.us": ("us", "run_s"),
    "milnet.embedder.fwd.us": ("us", "run_s"),
    "milnet.embedder.bwd.us": ("us", "run_s"),
    "milnet.embedder.fwd.calls": ("count", "run_s"),
    "milnet.embedder.bwd.calls": ("count", "run_s"),
    "milnet.embedder.fwd_per_distill_step": ("calls/step", "run_s"),
    "milnet.embedder.share": ("ratio", "run_s"),
    "milnet.bag_forward.us": ("us", "eval_s, export_s"),
    "milnet.bag_forward.calls": ("count", "eval_s, export_s"),
    "augment.augment_pair.us": ("us", "run_s"),
    "augment.augment_pair.calls": ("count", "run_s"),
    "augment.augment_pair.share": ("ratio", "run_s"),
    "bagdata.features_matrix.us": ("us", "run_s, eval_s"),
    "bagdata.features_matrix.calls": ("count", "run_s, eval_s"),
    "bagdata.load_dataset.s": ("s", "setup_s, eval_s, export_s, peak_rss_mb"),
    "bagdata.save_dataset.s": ("s", "input preparation"),
    "distill.distill_step.us": ("us", "run_s"),
    "distill.naive_step.us": ("us", "run_s"),
    "distill.noisy_augment.us": ("us", "run_s"),
    "distill.teacher_snapshot.us": ("us", "run_s"),
    "distill.convert_confidence.calls": ("count", "export_s"),
    "distill.convert_confidence.us": ("us", "export_s"),
    "cli.export.self_s": ("s", "export_s"),
    "orchestrator.classifier_phase.s": ("s", "run_s"),
    "orchestrator.classifier_phase.share": ("ratio", "run_s"),
    "orchestrator.classifier_phase.self_share": ("ratio", "run_s"),
    "orchestrator.embedder_phase.s": ("s", "run_s"),
    "orchestrator.embedder_phase.share": ("ratio", "run_s"),
    "orchestrator.embedder_phase.self_share": ("ratio", "run_s"),
    "orchestrator.params_checksum.us": ("us", "run_s"),
    "orchestrator.evaluate.s": ("s", "run_s, eval_s"),
    "orchestrator.checkpoint_save.ms": ("ms", "run_s"),
    "orchestrator.checkpoint_load.ms": ("ms", "setup_s, eval_s, export_s"),
    "metrics.evaluate_scores.us": ("us", "eval_s"),
    **{f"{layer}.self_share": ("ratio", "op_s") for layer in LAYERS},
    "trace.spans_per_op": ("count", "trace.overhead_s"),
    "trace.overhead_s": ("s", "none (tracing cost)"),
}


def per_layer_metrics(tracer, traced_runs, op_seconds, untraced_op_seconds,
                      save_dataset_s) -> dict:
    """Per-layer values from the traced runs. Times are self times unless the
    metric says otherwise; `.calls` are per operation and exact."""
    agg = tracer.summary(traced_runs)
    everywhere = tracer.summary({span[4] for span in tracer.spans})
    counts = tracer.counts(traced_runs[0])
    op_ns = sum(op_seconds) * 1e9
    zero = (0, 0, 0)

    def calls(name):
        return counts.get(name, 0)

    def n_spans(name):
        return agg.get(name, zero)[0]

    def self_ns(*names):
        return sum(agg.get(n, zero)[2] for n in names)

    def per_call(total, n, scale):
        return total / n / scale if n else 0.0

    def self_us(name):
        return per_call(self_ns(name), n_spans(name), 1e3)

    def incl(name, scale, table=agg):
        calls_, incl_ns, _ = table.get(name, zero)
        return per_call(incl_ns, calls_, scale)

    def share(*names):
        return self_ns(*names) / op_ns

    def incl_share(name):
        return agg.get(name, zero)[1] / op_ns

    adam_work = sum(v for (name, rid), v in tracer.work.items()
                    if name == "gradcore.adam_step" and rid in traced_runs)
    layer_self = dict.fromkeys(LAYERS, 0)
    for name, (_, _, ns) in agg.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += ns

    values = {
        "gradcore.adam_step.us": self_us("gradcore.adam_step"),
        "gradcore.adam_step.calls": calls("gradcore.adam_step"),
        "gradcore.adam_step.share": share("gradcore.adam_step"),
        "gradcore.adam_step.bytes_computed": per_call(
            adam_work, n_spans("gradcore.adam_step"), 1),
        "milnet.gated_attention.fwd.us": self_us("milnet.gated_attention.fwd"),
        "milnet.gated_attention.bwd.us": self_us("milnet.gated_attention.bwd"),
        "milnet.gated_attention.fwd.calls": calls("milnet.gated_attention.fwd"),
        "milnet.gated_attention.share": share("milnet.gated_attention.fwd",
                                              "milnet.gated_attention.bwd"),
        "milnet.head.glue.us": per_call(
            self_ns("milnet.head_forward", "milnet.head_backward"),
            n_spans("milnet.head_forward"), 1e3),
        "milnet.embedder.fwd.us": self_us("milnet.embedder.fwd"),
        "milnet.embedder.bwd.us": self_us("milnet.embedder.bwd"),
        "milnet.embedder.fwd.calls": calls("milnet.embedder.fwd"),
        "milnet.embedder.bwd.calls": calls("milnet.embedder.bwd"),
        "milnet.embedder.fwd_per_distill_step": per_call(
            calls("distill.distill_step>milnet.embedder.fwd"),
            calls("distill.distill_step"), 1),
        "milnet.embedder.share": share("milnet.embedder.fwd", "milnet.embedder.bwd"),
        "milnet.bag_forward.us": self_us("milnet.bag_forward"),
        "milnet.bag_forward.calls": calls("milnet.bag_forward"),
        "augment.augment_pair.us": self_us("augment.augment_pair"),
        "augment.augment_pair.calls": calls("augment.augment_pair"),
        "augment.augment_pair.share": share("augment.augment_pair"),
        "bagdata.features_matrix.us": self_us("bagdata.features_matrix"),
        "bagdata.features_matrix.calls": calls("bagdata.features_matrix"),
        "bagdata.load_dataset.s": incl("bagdata.load_dataset", 1e9, everywhere),
        "bagdata.save_dataset.s": save_dataset_s,
        "distill.distill_step.us": self_us("distill.distill_step"),
        "distill.naive_step.us": self_us("distill.naive_step"),
        "distill.noisy_augment.us": self_us("distill.noisy_augment"),
        "distill.teacher_snapshot.us": self_us("distill.teacher_snapshot"),
        "distill.convert_confidence.calls": calls("distill.convert_confidence"),
        "distill.convert_confidence.us": self_us("distill.convert_confidence"),
        "cli.export.self_s": per_call(self_ns("cli.export"),
                                      n_spans("cli.export"), 1e9),
        "orchestrator.classifier_phase.s": incl("orchestrator.classifier_phase", 1e9),
        "orchestrator.classifier_phase.share": incl_share(
            "orchestrator.classifier_phase"),
        "orchestrator.classifier_phase.self_share": share("orchestrator.classifier_phase"),
        "orchestrator.embedder_phase.s": incl("orchestrator.embedder_phase", 1e9),
        "orchestrator.embedder_phase.share": incl_share(
            "orchestrator.embedder_phase"),
        "orchestrator.embedder_phase.self_share": share("orchestrator.embedder_phase"),
        "orchestrator.params_checksum.us": self_us("orchestrator.params_checksum"),
        "orchestrator.evaluate.s": incl("orchestrator.evaluate", 1e9),
        "orchestrator.checkpoint_save.ms": incl("orchestrator.checkpoint_save", 1e6,
                                                everywhere),
        "orchestrator.checkpoint_load.ms": incl("orchestrator.checkpoint_load", 1e6,
                                                everywhere),
        "metrics.evaluate_scores.us": self_us("metrics.evaluate_scores"),
        **{f"{layer}.self_share": ns / op_ns for layer, ns in layer_self.items()},
        "trace.spans_per_op": sum(row[0] for row in agg.values()) // len(traced_runs),
        "trace.overhead_s": statistics.median(op_seconds)
        - statistics.median(untraced_op_seconds),
    }
    assert values.keys() == PER_LAYER.keys()
    return values


def attribution(kind: str, name: str, values: dict, expected_augment_calls) -> list:
    """Statements about where today's code spends its time, printed beside
    the trace. They describe the code, so they do not gate correctness."""
    out = []
    if kind == "train":
        out.append((f"augment.augment_pair.calls == {expected_augment_calls} "
                    "(phases x epochs x round(ratio x n_train))",
                    values["augment.augment_pair.calls"] == expected_augment_calls))
    else:
        out.append(("gradcore.adam_step.calls == 0",
                    values["gradcore.adam_step.calls"] == 0))
    if name == "finetune":
        embedder_side = values["distill.self_share"] + values["milnet.embedder.share"]
        out.append((f"distill + milnet.embedder self share {embedder_side:.3f} > "
                    "classifier-phase share "
                    f"{values['orchestrator.classifier_phase.share']:.3f}",
                    embedder_side > values["orchestrator.classifier_phase.share"]))
    return out
