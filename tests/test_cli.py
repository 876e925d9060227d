import json
import multiprocessing
import os
import struct
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from coupledmil import cli, distill
from coupledmil.bagdata import DatasetParseError, load_dataset
from coupledmil.cli import _build_train_config, build_parser, main
from coupledmil.distill import convert_confidence, normalize_attention
from coupledmil.metrics import MetricError
from coupledmil.milnet import MilModel, ModelConfig
from coupledmil.orchestrator import (
    RunReport,
    TrainConfig,
    load_checkpoint,
    run_embedder_phase,
    save_checkpoint,
)
from oracles import embedded_rows


def run(args):
    return main(args)


@pytest.fixture()
def dataset_file(tmp_path):
    path = tmp_path / "ds.jsonl"
    code = run([
        "generate", "--out", str(path), "--bags", "30", "--k", "8",
        "--d-raw", "6", "--rho", "0.3", "--delta", "3.0", "--noise", "0.8",
        "--seed", "7",
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "model.bin"
    cfg = ModelConfig(d_raw=2, hidden=(), embed_dim=2, attn_dim=1)
    save_checkpoint(MilModel.build(cfg, np.random.default_rng(0)), path)
    return path


TRAIN_FAST = [
    "--classifier-epochs", "4", "--embedder-passes", "1", "--batch-size", "32",
    "--hidden", "10", "--embed-dim", "8", "--attn-dim", "4",
]


class TestGenerate:
    def test_record_count_and_balance(self, tmp_path, capsys):
        path = tmp_path / "g.jsonl"
        assert run(["generate", "--out", str(path), "--bags", "300",
                    "--k", "5", "--d-raw", "4", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "300 records" in out
        assert "150 positive" in out
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["count"] == 300
        assert len(lines) == 301

    def test_same_flags_identical_files(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        flags = ["--bags", "20", "--k", "6", "--d-raw", "5", "--seed", "3"]
        assert run(["generate", "--out", str(a)] + flags) == 0
        assert run(["generate", "--out", str(b)] + flags) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_rho_exits_2(self, tmp_path, capsys):
        code = run(["generate", "--out", str(tmp_path / "x.jsonl"), "--rho", "0"])
        assert code == 2
        assert "rho" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        assert run(["generate", "--out", str(tmp_path / "x"), "--bogus"]) == 2


class TestTrain:
    def test_writes_report_and_checkpoint(self, dataset_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--backbone", "abmil", "--mode", "confidence",
                    "--iterations", "1", "--beta", "6", "--seed", "0"] + TRAIN_FAST)
        assert code == 0
        report = RunReport.from_json((out / "report.json").read_text())
        assert [e["iteration"] for e in report.evaluations] == [0, 1]
        assert (out / "checkpoint.bin").exists()
        assert "final test metrics" in capsys.readouterr().out

    def test_zero_iterations_baseline_only(self, dataset_file, tmp_path):
        out = tmp_path / "run0"
        code = run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--iterations", "0", "--seed", "0"] + TRAIN_FAST)
        assert code == 0
        report = RunReport.from_json((out / "report.json").read_text())
        assert [e["iteration"] for e in report.evaluations] == [0]

    def test_config_file_with_flag_override(self, dataset_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "classifier_epochs": 3, "embedder_passes": 1, "batch_size": 16,
            "hidden": [10], "embed_dim": 8, "attn_dim": 4,
            "iterations": 0, "seed": 5, "mode": "vanilla", "augment": True,
        }))
        out = tmp_path / "runc"
        code = run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--config", str(cfg), "--mode", "naive", "--no-augment"])
        assert code == 0
        report = RunReport.from_json((out / "report.json").read_text())
        assert report.config["mode"] == "naive"  # flag beats file
        assert report.config["augment"] is False
        assert report.config["classifier_epochs"] == 3

    def test_unknown_config_key_exits_2(self, dataset_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"optimiser": "adam"}))
        code = run(["train", "--dataset", str(dataset_file),
                    "--out-dir", str(tmp_path / "x"), "--config", str(cfg)])
        assert code == 2
        assert "optimiser" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path):
        assert run(["train", "--dataset", str(tmp_path / "nope.jsonl"),
                    "--out-dir", str(tmp_path / "x")] + TRAIN_FAST) == 2

    @pytest.mark.parametrize("fractions", [["0", "0", "1"], ["0.5", "0.5", "0.5"],
                                           ["1.2", "-0.1", "-0.1"]])
    def test_bad_fractions_exit_2(self, dataset_file, tmp_path, capsys, fractions):
        code = run(["train", "--dataset", str(dataset_file),
                    "--out-dir", str(tmp_path / "x"), "--fractions", *fractions]
                   + TRAIN_FAST)
        assert code == 2
        assert "fractions" in capsys.readouterr().err

    def test_identical_runs_byte_identical_outputs(self, dataset_file, tmp_path):
        args = ["train", "--dataset", str(dataset_file), "--iterations", "1",
                "--seed", "9", "--augment"] + TRAIN_FAST
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(args + ["--out-dir", str(out)]) == 0
            outs.append((
                (out / "report.json").read_bytes(),
                (out / "checkpoint.bin").read_bytes(),
            ))
        assert outs[0] == outs[1]


# a value other than the default for every TrainConfig field
NON_DEFAULT = {
    "backbone": "mean", "classifier_epochs": 7, "classifier_lr": 1e-3,
    "embedder_lr": 3e-4, "batch_size": 9, "embedder_passes": 0, "iterations": 2,
    "mode": "naive", "beta": 2.5, "augment": True,
    "augment_ratio": 0.5, "augment_n": 3, "augment_alpha": 2.0,
    "augment_gamma": 0.25,
    "noise_scale": 0.2, "noise_dropout": 0.0, "hidden": (8, 4), "embed_dim": 5,
    "attn_dim": 3, "fractions": (0.6, 0.2, 0.2),
    "threshold": 0.25, "seed": 11,
}


@pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig)])
def test_every_config_field_is_a_train_flag(name):
    value = NON_DEFAULT[name]
    assert value != getattr(TrainConfig(), name)
    argv = ["train", "--dataset", "d.jsonl", "--" + name.replace("_", "-")]
    if not isinstance(value, bool):
        argv += map(str, value if isinstance(value, tuple) else [value])
    config = _build_train_config(build_parser().parse_args(argv))
    assert config == TrainConfig.from_dict({name: value})


@pytest.mark.parametrize("argv", [["eval"], ["export-attention", "--out", "a.tsv"]])
def test_eval_and_export_defaults_are_train_config_defaults(argv):
    args = build_parser().parse_args(argv + ["--checkpoint", "c.bin", "--dataset", "d"])
    assert _build_train_config(args) == TrainConfig()


class TestEval:
    @pytest.fixture()
    def trained(self, dataset_file, tmp_path):
        out = tmp_path / "trained"
        assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--iterations", "1", "--seed", "4"] + TRAIN_FAST) == 0
        return out

    def test_matches_report_final_metrics_bitwise(self, dataset_file, trained, capsys):
        report = RunReport.from_json((trained / "report.json").read_text())
        final = report.evaluations[-1]
        code = run(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--dataset", str(dataset_file), "--split", "test",
                    "--seed", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert f"auc={final['auc']!r}" in out
        assert f"f1={final['f1']!r}" in out
        assert f"acc={final['acc']!r}" in out

    def test_eval_twice_identical_output(self, dataset_file, trained, tmp_path):
        blobs = []
        for name in ("e1.json", "e2.json"):
            path = tmp_path / name
            assert run(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                        "--dataset", str(dataset_file), "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_checkpoint_exits_2(self, dataset_file, tmp_path):
        assert run(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                    "--dataset", str(dataset_file)]) == 2

    def test_bad_split_fractions_exit_2(self, dataset_file, small_checkpoint, capsys):
        code = run(["eval", "--checkpoint", str(small_checkpoint),
                    "--dataset", str(dataset_file), "--split", "test",
                    "--fractions", "0.5", "0.5", "0.5"])
        assert code == 2
        assert "fractions" in capsys.readouterr().err

    def test_empty_split_exits_2(self, matching_dataset, small_checkpoint, capsys):
        code = run(["eval", "--checkpoint", str(small_checkpoint),
                    "--dataset", str(matching_dataset), "--split", "val",
                    "--fractions", "0.5", "0", "0.5"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: fractions [0.5, 0.0, 0.5] leave no val bag among the dataset's 4\n")

    @pytest.mark.parametrize("split", ["all", "test"])
    def test_dataset_without_bags_exits_2(self, small_checkpoint, tmp_path, capsys, split):
        # checked before any bag is evaluated, whatever the split
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"d_raw": 2, "C": 2, "count": 0}) + "\n")
        code = run(["eval", "--checkpoint", str(small_checkpoint),
                    "--dataset", str(path), "--split", split])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: dataset {path} holds no bag to evaluate\n")

    def test_truncated_checkpoint_exits_3(self, small_checkpoint, dataset_file, tmp_path):
        blob = small_checkpoint.read_bytes()
        path = tmp_path / "cut.bin"
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            assert run(["eval", "--checkpoint", str(path),
                        "--dataset", str(dataset_file)]) == 3, end

    def test_single_class_dataset_exits_3(self, trained, tmp_path):
        path = tmp_path / "single.jsonl"
        assert run(["generate", "--out", str(path), "--bags", "10", "--k", "4",
                    "--d-raw", "6", "--pos-fraction", "1.0", "--seed", "2"]) == 0
        code = run(["eval", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--dataset", str(path)])
        assert code == 3


class TestExportAttention:
    @pytest.fixture()
    def trained(self, dataset_file, tmp_path):
        out = tmp_path / "trained"
        assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                    "--iterations", "0", "--seed", "4"] + TRAIN_FAST) == 0
        return out

    def _rows(self, path):
        lines = path.read_text().splitlines()
        assert lines[0] == ("bag_id\tinstance_index\traw_attention\t"
                            "normalized_attention\tconfidence")
        return [line.split("\t") for line in lines[1:]]

    def test_raw_attention_sums_to_one_per_bag(self, dataset_file, trained, tmp_path):
        out = tmp_path / "attn.tsv"
        assert run(["export-attention", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--dataset", str(dataset_file), "--out", str(out)]) == 0
        sums: dict[str, float] = {}
        for bag_id, _, raw, _, _ in self._rows(out):
            sums[bag_id] = sums.get(bag_id, 0.0) + float(raw)
        assert sums
        for total in sums.values():
            assert abs(total - 1.0) <= 1e-6

    def test_confidence_recomputable_offline(self, dataset_file, trained, tmp_path):
        out = tmp_path / "attn.tsv"
        beta = 4.0
        assert run(["export-attention", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--dataset", str(dataset_file), "--out", str(out),
                    "--beta", str(beta)]) == 0
        for _, _, _, a_norm, conf in self._rows(out):
            assert float(conf) == convert_confidence(float(a_norm), beta)

    def test_export_prints_the_training_weights(self, tmp_path, monkeypatch):
        """Bags of 3 to 40 instances reach every SIMD tail length; each column
        must parse back to the exact floats training computes."""
        dataset, run_dir = tmp_path / "ds.jsonl", tmp_path / "run"
        assert run(["generate", "--out", str(dataset), "--bags", "40", "--k", "3",
                    "--k-max", "40", "--d-raw", "6", "--rho", "0.3", "--seed", "5"]) == 0
        assert run(["train", "--dataset", str(dataset), "--out-dir", str(run_dir),
                    "--iterations", "0", "--seed", "2"] + TRAIN_FAST) == 0
        beta = 6.0
        blobs = []
        for name in ("a1.tsv", "a2.tsv"):
            path = tmp_path / name
            assert run(["export-attention", "--checkpoint", str(run_dir / "checkpoint.bin"),
                        "--dataset", str(dataset), "--out", str(path),
                        "--beta", str(beta)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

        rows = self._rows(tmp_path / "a1.tsv")
        model = load_checkpoint(run_dir / "checkpoint.bin")
        bags = load_dataset(dataset).bags
        # the weights an embedder phase on these bags computes, one call per bag
        weights = []
        monkeypatch.setattr(distill, "convert_confidence", lambda a, b: (
            weights.append(convert_confidence(a, b)) or weights[-1]))
        run_embedder_phase(bags, embedded_rows(model, bags), model,
                           TrainConfig(beta=beta, embedder_passes=0),
                           np.random.default_rng(0), np.random.default_rng(0))
        assert len(weights) == len(bags)
        start = 0
        for bag, conf in zip(bags, weights):
            k = len(bag.features)
            bag_rows, start = rows[start:start + k], start + k
            assert [(row[0], int(row[1])) for row in bag_rows] == [(bag.id, i) for i in range(k)]
            got = np.array([[float(v) for v in row[2:]] for row in bag_rows])
            _, raw, _ = model.bag_forward(bag.features)
            assert np.array_equal(got[:, 0], raw)
            assert np.array_equal(got[:, 1], normalize_attention(raw))
            assert np.array_equal(got[:, 2], conf)
        assert start == len(rows)

    def test_mean_backbone_confidence_all_ones(self, dataset_file, tmp_path):
        trained = tmp_path / "mean_run"
        assert run(["train", "--dataset", str(dataset_file), "--out-dir", str(trained),
                    "--backbone", "mean", "--iterations", "0", "--seed", "1"]
                   + TRAIN_FAST) == 0
        out = tmp_path / "attn.tsv"
        assert run(["export-attention", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--dataset", str(dataset_file), "--out", str(out)]) == 0
        for _, _, _, a_norm, conf in self._rows(out):
            assert float(a_norm) == 1.0 and float(conf) == 1.0

    def test_export_twice_identical(self, dataset_file, trained, tmp_path):
        blobs = []
        for name in ("a1.tsv", "a2.tsv"):
            path = tmp_path / name
            assert run(["export-attention",
                        "--checkpoint", str(trained / "checkpoint.bin"),
                        "--dataset", str(dataset_file), "--out", str(path)]) == 0
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_dataset_without_bags_writes_the_header_only(self, small_checkpoint, tmp_path,
                                                          capsys):
        # `eval` exits 2 on such a dataset; the export writes an empty table
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"d_raw": 2, "C": 2, "count": 0}) + "\n")
        out = tmp_path / "attn.tsv"
        assert run(["export-attention", "--checkpoint", str(small_checkpoint),
                    "--dataset", str(path), "--out", str(out)]) == 0
        assert self._rows(out) == []
        assert out.read_text().count("\n") == 1
        assert not list(tmp_path.glob("attn.tsv.partial*"))
        assert capsys.readouterr().out == f"wrote attention table for 0 bags to {out}\n"

    def test_dimension_mismatch_exits_3(self, trained, tmp_path):
        other = tmp_path / "other.jsonl"
        assert run(["generate", "--out", str(other), "--bags", "4", "--k", "3",
                    "--d-raw", "9", "--seed", "0"]) == 0
        code = run(["export-attention", "--checkpoint", str(trained / "checkpoint.bin"),
                    "--dataset", str(other), "--out", str(tmp_path / "x.tsv")])
        assert code == 3


class TestParallelExport:
    """The table is cut into spans of bags formatted by forked workers, one
    per usable CPU; its bytes must not depend on how many there are."""

    @pytest.fixture(scope="class")
    def uneven(self, tmp_path_factory):
        # 12 bags of 2 to 40 instances, and a checkpoint per backbone
        root = tmp_path_factory.mktemp("uneven")
        dataset = root / "uneven.jsonl"
        assert run(["generate", "--out", str(dataset), "--bags", "12", "--k", "2",
                    "--k-max", "40", "--d-raw", "4", "--rho", "0.3", "--seed", "3"]) == 0
        checkpoints = {}
        for backbone in ("gated_attention", "mean"):
            assert run(["train", "--dataset", str(dataset), "--out-dir", str(root / backbone),
                        "--backbone", backbone, "--iterations", "0", "--seed", "1"]
                       + TRAIN_FAST) == 0
            checkpoints[backbone] = root / backbone / "checkpoint.bin"
        return dataset, checkpoints

    @staticmethod
    def _serial_table(checkpoint, dataset, beta):
        # the table's definition, one bag after another in this process
        model = load_checkpoint(checkpoint)
        lines = ["bag_id\tinstance_index\traw_attention\tnormalized_attention\t"
                 "confidence"]
        for bag in load_dataset(dataset).bags:
            _, raw, _ = model.bag_forward(bag.features)
            a_norm = normalize_attention(raw)
            columns = raw.tolist(), a_norm.tolist(), convert_confidence(a_norm, beta).tolist()
            lines += [f"{bag.id}\t{i}\t{r!r}\t{a!r}\t{c!r}"
                      for i, (r, a, c) in enumerate(zip(*columns))]
        return ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("backbone", ["gated_attention", "mean"])
    @pytest.mark.parametrize("cpus", [1, 2, 13, None],
                             ids=["one-cpu", "two-cpus", "more-cpus-than-bags",
                                  "no-affinity"])
    def test_table_bytes_do_not_depend_on_workers(self, uneven, tmp_path, monkeypatch,
                                                  backbone, cpus):
        dataset, checkpoints = uneven
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / "attention.tsv"
        assert run(["export-attention", "--checkpoint", str(checkpoints[backbone]),
                    "--dataset", str(dataset), "--out", str(out), "--beta", "6"]) == 0
        assert out.read_bytes() == self._serial_table(checkpoints[backbone], dataset, 6.0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["attention.tsv"]
        assert multiprocessing.active_children() == []

    def test_spans_cover_the_bags_in_order(self, uneven):
        bags = load_dataset(uneven[0]).bags
        for n in (1, 2, 8, 12, 52):
            spans = cli._export_spans(bags, n)
            assert 1 <= len(spans) <= min(n, len(bags))
            assert [start for start, _ in spans] == [0] + [stop for _, stop in spans[:-1]]
            assert spans[-1][1] == len(bags) and all(a < b for a, b in spans)
        assert cli._export_spans([], 8) == []

    def test_failure_reports_the_first_bad_bag_in_file_order(self, uneven, tmp_path,
                                                             monkeypatch, capsys):
        # two bags in different spans map to NaN; the earlier one fails last
        # in time, and is still the one reported
        dataset, checkpoints = uneven
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        bags = load_dataset(dataset).bags
        spans = cli._export_spans(bags, cli.SPANS_PER_WORKER * 2)
        early, late = bags[spans[1][0]].id, bags[spans[-1][0]].id
        forward_bag = cli.forward_bag

        def nan_forward(model, bag_id, x):
            if bag_id == early:
                time.sleep(0.5)
            return forward_bag(model, bag_id, x * np.nan if bag_id in (early, late) else x)

        monkeypatch.setattr(cli, "forward_bag", nan_forward)
        out = tmp_path / "attention.tsv"
        out.write_bytes(b"the previous table\n")
        code = run(["export-attention", "--checkpoint", str(checkpoints["gated_attention"]),
                    "--dataset", str(dataset), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: the model maps bag {early!r} to non-finite values\n")
        assert out.read_bytes() == b"the previous table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["attention.tsv"]
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_exits_3(self, uneven, tmp_path, monkeypatch, capsys):
        # a worker process ends without raising: one error line, not the
        # pool's traceback, and every part is removed
        dataset, checkpoints = uneven
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        victim = load_dataset(dataset).bags[-1].id
        forward_bag = cli.forward_bag

        def dying_forward(model, bag_id, x):
            if bag_id == victim:
                os._exit(1)
            return forward_bag(model, bag_id, x)

        monkeypatch.setattr(cli, "forward_bag", dying_forward)
        out = tmp_path / "attention.tsv"
        out.write_bytes(b"the previous table\n")
        code = run(["export-attention", "--checkpoint", str(checkpoints["gated_attention"]),
                    "--dataset", str(dataset), "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: an export worker process ended abruptly\n"
        assert out.read_bytes() == b"the previous table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["attention.tsv"]
        assert multiprocessing.active_children() == []


def test_import_loads_no_process_pool():
    # the export imports its pool lazily, which keeps about 25 ms out of the
    # start of every other command
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, coupledmil.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[]\n"


_MANIFEST = {"d_raw": 2, "C": 2, "count": 1}
_RECORD = {"id": "b", "label": [1.0, 0.0], "features": [[0.5, -0.5], [1.0, 2.0]]}
BAD_DATASETS = {
    "manifest-float-field": ({**_MANIFEST, "d_raw": 2.5}, _RECORD, 1),
    "manifest-string-field": ({**_MANIFEST, "count": "1"}, _RECORD, 1),
    "manifest-one-class": ({**_MANIFEST, "C": 1}, {**_RECORD, "label": [1.0]}, 1),
    "manifest-three-classes": ({**_MANIFEST, "C": 3}, {**_RECORD, "label": [1.0, 0.0, 0.0]}, 1),
    "features-empty": (_MANIFEST, {**_RECORD, "features": []}, 2),
    "features-scalar": (_MANIFEST, {**_RECORD, "features": 0.5}, 2),
    "features-non-numeric": (_MANIFEST, {**_RECORD, "features": [["a", "b"]]}, 2),
    "features-ragged": (_MANIFEST, {**_RECORD, "features": [[0.5, 1.0], [0.5]]}, 2),
    "features-nan": (_MANIFEST, {**_RECORD, "features": [[float("nan"), 1.0]]}, 2),
    "features-inf": (_MANIFEST, {**_RECORD, "features": [[0.5, float("-inf")]]}, 2),
    "label-outside-unit": (_MANIFEST, {**_RECORD, "label": [1.5, -0.5]}, 2),
    "label-sum": (_MANIFEST, {**_RECORD, "label": [0.5, 0.4]}, 2),
}


@pytest.mark.parametrize("manifest,record,line", BAD_DATASETS.values(),
                         ids=BAD_DATASETS.keys())
def test_malformed_dataset_typed_error_and_exit_2(tmp_path, small_checkpoint, capsys,
                                                  manifest, record, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(manifest) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(DatasetParseError, match=f"line {line}"):
        load_dataset(path)
    code = run(["eval", "--checkpoint", str(small_checkpoint), "--dataset", str(path)])
    assert code == 2
    assert f"line {line}" in capsys.readouterr().err


# Every malformed train input is rejected before any phase runs.
BAD_TRAIN_INPUTS = {
    "augment-n": (["--augment-n", "0"], "augment_n"),
    "augment-gamma": (["--augment-gamma", "2"], "augment_gamma"),
    "augment-ratio": (["--augment-ratio", "-2"], "augment_ratio"),
    "noise-scale": (["--noise-scale", "-1"], "noise_scale"),
    "noise-scale-unused": (["--iterations", "0", "--noise-scale", "-1"], "noise_scale"),
    "noise-dropout": (["--noise-dropout", "2"], "noise_dropout"),
    "beta": (["--beta", "0"], "beta"),
    "beta-unused": (["--mode", "vanilla", "--beta", "0"], "beta"),
    "alpha-w": (["--alpha-w", "1"], "--alpha-w"),
    "seed": (["--seed", "-1"], "seed"),
    "embed-dim": (["--embed-dim", "0"], "embed_dim"),
    "hidden": (["--hidden", "0"], "hidden"),
    "attn-dim": (["--attn-dim", "-1"], "attn_dim"),
    "threshold": (["--threshold", "1.5"], "threshold"),
    "config-float-epochs": (["--config", "{cfg}"], "classifier_epochs"),
    "config-missing": (["--config", "{missing}"], "config"),
    "backbone": (["--backbone", "cnn"], "backbone"),
    "mode": (["--mode", "softlabel"], "mode"),
    "augment-label-mode": (["--augment-label-mode", "kept_fraction"],
                           "--augment-label-mode"),
    "warm-start": (["--warm-start"], "--warm-start"),
    "config-warm-start": (["--config", "{warm_start}"], "warm_start"),
    "full-scale": (["--full-scale"], "--full-scale"),
    "config-full-scale": (["--config", "{full_scale}"], "full_scale"),
}


@pytest.mark.parametrize("flags,field", BAD_TRAIN_INPUTS.values(),
                         ids=BAD_TRAIN_INPUTS.keys())
def test_bad_train_input_exits_2_before_training(dataset_file, tmp_path, capsys,
                                                 flags, field):
    files = {"cfg": {"classifier_epochs": 1.5}, "full_scale": {"full_scale": True},
             "warm_start": {"warm_start": True}}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    flags = [f.format(missing=tmp_path / "missing.json",
                      **{name: tmp_path / f"{name}.json" for name in files})
             for f in flags]
    out = tmp_path / "run"
    code = run(["train", "--dataset", str(dataset_file), "--out-dir", str(out)] + flags)
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:stratum")
def test_empty_training_split_exits_2(tmp_path, capsys):
    path = tmp_path / "two.jsonl"
    assert run(["generate", "--out", str(path), "--bags", "2", "--k", "3",
                "--d-raw", "2", "--seed", "0"]) == 0
    code = run(["train", "--dataset", str(path), "--out-dir", str(tmp_path / "x"),
                "--fractions", "0.2", "0.4", "0.4"] + TRAIN_FAST)
    assert code == 2
    assert "no training bag" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # a failed run leaves no output directory


def test_empty_test_split_exits_2(dataset_file, tmp_path, capsys):
    out = tmp_path / "run"
    code = run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                "--fractions", "0.8", "0.2", "0.0"] + TRAIN_FAST)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: fractions [0.8, 0.2, 0.0] leave no test bag among the dataset's 30\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_loss_exits_3(dataset_file, tmp_path, capsys):
    # the first epoch overflows the head; its loss check reports it, and
    # numpy warns about nothing
    out = tmp_path / "run"
    code = run(["train", "--dataset", str(dataset_file), "--out-dir", str(out),
                "--classifier-lr", "1e300"] + TRAIN_FAST)
    assert code == 3
    assert capsys.readouterr().err == (
        "error: classifier phase: non-finite loss nan in epoch 1\n")
    assert not out.exists()


def test_repeated_bag_ids_exit_2(dataset_file, tmp_path, capsys):
    # export rows and error messages name bags by id, so a file whose ids
    # repeat is rejected at the record that repeats one
    same = tmp_path / "same.jsonl"
    manifest, *records = dataset_file.read_text().splitlines()
    same.write_text("\n".join([manifest] + [json.dumps({**json.loads(r), "id": "same"})
                                            for r in records]) + "\n")
    out = tmp_path / "run"
    code = run(["train", "--dataset", str(same), "--out-dir", str(out), "--augment",
                "--classifier-epochs", "2"] + TRAIN_FAST[2:])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: line 3: repeated bag id 'same' (first on line 2)\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_embedder_exits_3(tmp_path, capsys):
    # one step with a huge rate: its loss is finite, the weights it leaves
    # are finite too, and the next embedding overflows, with the error and
    # no numpy warning
    dataset, out = tmp_path / "b.jsonl", tmp_path / "r"
    assert run(["generate", "--out", str(dataset), "--bags", "40", "--k", "6",
                "--d-raw", "4", "--rho", "0.3", "--delta", "3", "--seed", "1"]) == 0
    code = run(["train", "--dataset", str(dataset), "--out-dir", str(out),
                "--classifier-epochs", "2", "--embedder-passes", "1",
                "--batch-size", "1000", "--embedder-lr", "1e308"])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def _train_diverging(tmp_path, capsys, mode, embedder_lr):
    """The exit code of a default-batch run at `embedder_lr`, and its stderr."""
    dataset, out = tmp_path / "b.jsonl", tmp_path / "r"
    assert run(["generate", "--out", str(dataset), "--bags", "40", "--k", "6",
                "--d-raw", "4", "--rho", "0.3", "--delta", "3", "--seed", "1"]) == 0
    capsys.readouterr()
    code = run(["train", "--dataset", str(dataset), "--out-dir", str(out),
                "--classifier-epochs", "2", "--embedder-passes", "1",
                "--embedder-lr", embedder_lr, "--mode", mode])
    assert not out.exists()
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["confidence", "naive", "vanilla"])
def test_diverging_embedder_phase_exits_3(tmp_path, capsys, mode):
    # under the fixed head the hidden layer's tanh saturates, so the phase's
    # loss stays finite and its weights end near 1e300; the next classifier
    # phase's gradients then overflow Adam's second moment, and its epoch
    # check reports it with one error line and no numpy warning
    assert _train_diverging(tmp_path, capsys, mode, "1e300") == (
        3, "error: classifier phase: non-finite Adam moments in epoch 1\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["confidence", "naive", "vanilla"])
def test_embedder_step_overflowing_mid_pass_exits_3(tmp_path, capsys, mode):
    # a rate near the float maximum: the first step's weights make the next
    # step's embeddings overflow, and the pass-loss check reports it
    assert _train_diverging(tmp_path, capsys, mode, "1e308") == (
        3, "error: embedder phase: non-finite loss nan in epoch 1\n")


@pytest.fixture()
def overflowing(tmp_path):
    """A 6-bag dataset and a checkpoint whose every parameter is 1e300: it
    loads, and its forward pass overflows on the first bag."""
    dataset, checkpoint = tmp_path / "six.jsonl", tmp_path / "huge.bin"
    assert run(["generate", "--out", str(dataset), "--bags", "6", "--k", "5",
                "--d-raw", "4", "--rho", "0.3", "--delta", "3", "--seed", "1"]) == 0
    model = MilModel(ModelConfig(d_raw=4, hidden=(8,), embed_dim=4, attn_dim=2))
    model.arena.value[:] = 1e300
    save_checkpoint(model, checkpoint)
    return ["--checkpoint", str(checkpoint), "--dataset", str(dataset)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "export-attention"])
def test_overflowing_checkpoint_exits_3(overflowing, tmp_path, capsys, command):
    # one error line naming the bag, no numpy warning, and no table
    out = tmp_path / "attention.tsv"
    code = run([command, *overflowing, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: the model maps bag 'bag0000' to non-finite values\n")
    assert not out.exists()
    assert not (tmp_path / "attention.tsv.partial").exists()


def test_failed_export_leaves_existing_table(tmp_path, capsys):
    # the third bag overflows the embedder after two bags' rows are written:
    # the partial table is removed and the old one stays byte for byte
    cfg = ModelConfig(d_raw=2, hidden=(), embed_dim=2, attn_dim=1)
    model = MilModel(cfg)
    model.arena.value[:] = 1.0
    checkpoint, dataset = tmp_path / "ones.bin", tmp_path / "three.jsonl"
    save_checkpoint(model, checkpoint)
    bags = [[[0.5, -0.5], [1.0, 2.0]], [[0.1, 0.2]], [[1e308, 1e308], [0.0, 1.0]]]
    dataset.write_text("\n".join(
        [json.dumps({"d_raw": 2, "C": 2, "count": 3})]
        + [json.dumps({"id": f"b{i}", "label": [1.0, 0.0], "features": f})
           for i, f in enumerate(bags)]) + "\n")
    out = tmp_path / "attention.tsv"
    out.write_bytes(b"the previous table\r\n")
    code = run(["export-attention", "--checkpoint", str(checkpoint),
                "--dataset", str(dataset), "--out", str(out)])
    assert code == 3
    assert "bag 'b2'" in capsys.readouterr().err
    assert out.read_bytes() == b"the previous table\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "attention.tsv", "ones.bin", "three.jsonl", "three.jsonl.cache"]


def test_generate_negative_seed_exits_2(tmp_path, capsys):
    assert run(["generate", "--out", str(tmp_path / "x.jsonl"), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_eval_dimension_mismatch_exits_3(dataset_file, small_checkpoint, capsys):
    code = run(["eval", "--checkpoint", str(small_checkpoint),
                "--dataset", str(dataset_file)])
    assert code == 3
    assert "d_raw" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export-attention"])
def test_class_count_mismatch_exits_3(matching_dataset, tmp_path, capsys, command):
    # a checkpoint whose header's class count reads 3: no metric, no table
    checkpoint = tmp_path / "three.bin"
    cfg = ModelConfig(d_raw=2, hidden=(), embed_dim=2, attn_dim=1)
    save_checkpoint(MilModel.build(cfg, np.random.default_rng(0)), checkpoint)
    blob = bytearray(checkpoint.read_bytes())
    blob[24:28] = struct.pack("<I", 3)  # after the magic, version and three fields
    checkpoint.write_bytes(bytes(blob))
    out = tmp_path / "out.tsv"
    code = run([command, "--checkpoint", str(checkpoint), "--dataset", str(matching_dataset),
                "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: activation code 0, positive class 1 and class count 3: "
                            "only 0 (tanh), 1 and 2 are written\n")
    assert not out.exists()
    assert not (tmp_path / "out.tsv.partial").exists()


@pytest.fixture()
def matching_dataset(tmp_path):
    # fits small_checkpoint's input dim
    path = tmp_path / "d2.jsonl"
    assert run(["generate", "--out", str(path), "--bags", "4", "--k", "3",
                "--d-raw", "2", "--seed", "0"]) == 0
    return path


def test_export_into_missing_directory_exits_3(matching_dataset, small_checkpoint,
                                               tmp_path):
    code = run(["export-attention", "--checkpoint", str(small_checkpoint),
                "--dataset", str(matching_dataset),
                "--out", str(tmp_path / "missing" / "attn.tsv")])
    assert code == 3


@pytest.mark.parametrize("argv,field", [
    (["export-attention", "--out", "out", "--beta", "0"], "beta"),
    (["eval", "--threshold", "nan"], "threshold"),
    (["eval", "--seed", "-1"], "seed"),
    # past either end of [0, 1] every bag would be predicted one class
    (["eval", "--out", "out", "--threshold", "1.5"], "threshold"),
    (["eval", "--out", "out", "--threshold", "-3"], "threshold"),
])
def test_bad_eval_or_export_option_exits_2(matching_dataset, small_checkpoint,
                                           tmp_path, capsys, argv, field):
    # rejected in one line, before anything is written
    out = tmp_path / "out"
    argv = [str(out) if a == "out" else a for a in argv]
    code = run(argv + ["--checkpoint", str(small_checkpoint),
                       "--dataset", str(matching_dataset)])
    assert code == 2
    err = capsys.readouterr().err
    assert field in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("ids,line", [(("a\tb", "ok"), 2), (("ok", "c\nd"), 3)],
                         ids=["tab", "newline"])
def test_bag_id_with_a_tab_or_line_break_exits_2(tmp_path, small_checkpoint, capsys, ids,
                                                  line):
    # such an id would break the export table's rows and lines
    path = tmp_path / "ids.jsonl"
    path.write_text("\n".join(
        [json.dumps({"d_raw": 2, "C": 2, "count": 2})]
        + [json.dumps({"id": bag_id, "label": [1.0, 0.0], "features": [[0.5, 1.0]]})
           for bag_id in ids]) + "\n")
    out = tmp_path / "attention.tsv"
    code = run(["export-attention", "--checkpoint", str(small_checkpoint),
                "--dataset", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: line {line}: bag id {ids[line - 2]!r} holds a tab or a line break\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ids.jsonl"]


def test_eval_sees_a_regenerated_dataset(tmp_path, small_checkpoint):
    # the first eval writes the sidecar; after the file is generated anew, an
    # eval gives what it gives on a copy that has no sidecar
    path = tmp_path / "bags.jsonl"

    def evaluated(dataset, out):
        assert run(["eval", "--checkpoint", str(small_checkpoint), "--dataset",
                    str(dataset), "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out).read_bytes()

    generate = ["generate", "--out", str(path), "--bags", "20", "--k", "3",
                "--d-raw", "2", "--seed"]
    assert run(generate + ["1"]) == 0
    first = evaluated(path, "first.json")
    assert (tmp_path / "bags.jsonl.cache").is_file()
    assert run(generate + ["2"]) == 0
    second = evaluated(path, "second.json")
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    (fresh / "bags.jsonl").write_bytes(path.read_bytes())
    assert second == evaluated(fresh / "bags.jsonl", "fresh.json")
    assert second != first
