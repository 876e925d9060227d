import copy
import struct

import numpy as np
import pytest

from coupledmil import orchestrator
from coupledmil.augment import AugmentConfig, augment_pair
from coupledmil.bagdata import (
    ConfigError,
    SyntheticSpec,
    features_matrix,
    generate_synthetic,
)
from coupledmil.gradcore import cross_entropy
from coupledmil.milnet import MilModel, ModelConfig
from coupledmil.orchestrator import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    NonFiniteLossError,
    RunReport,
    TrainConfig,
    evaluate,
    load_checkpoint,
    params_checksum,
    run_classifier_phase,
    run_embedder_phase,
    run_training,
    save_checkpoint,
    split_for_run,
)
from coupledmil.seeding import rng_stream
from oracles import ReferenceAdam


def small_dataset(seed=0, num_bags=30, k=8, d_raw=6, delta=3.0):
    return generate_synthetic(SyntheticSpec(
        num_bags=num_bags, instances_per_bag=k, d_raw=d_raw, rho=0.3,
        delta=delta, noise=0.8, positive_fraction=0.5, seed=seed,
    ))


def small_config(**overrides):
    base = dict(
        classifier_epochs=5, embedder_passes=2, batch_size=32,
        iterations=1, mode="confidence", hidden=(12,), embed_dim=8,
        attn_dim=4, seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def build_model(config, d_raw=6, seed=0):
    cfg = ModelConfig(d_raw=d_raw, hidden=config.hidden, embed_dim=config.embed_dim,
                      attn_dim=config.attn_dim, backbone=config.backbone)
    return MilModel.build(cfg, np.random.default_rng(seed))


class TestTrainConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key: 'learning_rate'"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    def test_round_trip_dict(self):
        cfg = small_config(augment=True, beta=4.0)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_abmil_alias(self):
        assert TrainConfig(backbone="abmil").backbone == "gated_attention"

    def test_full_scale_restores_200_epochs(self):
        assert small_config(full_scale=True).effective_classifier_epochs == 200
        assert small_config().effective_classifier_epochs == 5

    @pytest.mark.parametrize("field,value", [
        ("mode", "softlabel"), ("backbone", "cnn"), ("iterations", -1),
        ("classifier_lr", 0.0), ("embedder_lr", -1e-5), ("classifier_epochs", 0),
        ("batch_size", 0), ("fractions", (0.0, 0.0, 1.0)),
        ("fractions", (0.5, 0.5, 0.5)), ("fractions", (0.5, 0.5)),
        ("fractions", (-0.1, 0.6, 0.5)), ("fractions", (float("nan"), 0.5, 0.5)),
        ("seed", -1), ("beta", 0.0), ("alpha_w", -5.0), ("augment_ratio", -2.0),
        ("hidden", (0,)), ("hidden", 5), ("embed_dim", 0), ("attn_dim", -1),
        ("augment_n", 0), ("augment_alpha", 0.0), ("augment_gamma", 2.0),
        ("augment_label_mode", "mean"), ("noise_scale", -1.0), ("noise_dropout", 2.0),
        ("classifier_epochs", 1.5), ("batch_size", True), ("augment", "yes"),
        ("classifier_lr", float("inf")), ("threshold", float("nan")), ("mode", 3),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    def test_sub_configs_built_once(self):
        cfg = small_config(augment_n=3, noise_scale=0.2)
        assert cfg.augment_config.n == 3
        assert cfg.noise_config.scale == 0.2


class TestClassifierPhase:
    def test_separable_data_trains_to_high_accuracy(self):
        ds = small_dataset(seed=3, num_bags=40, k=10, d_raw=8, delta=6.0)
        config = small_config(classifier_epochs=200)
        model = build_model(config, d_raw=8, seed=1)
        losses = run_classifier_phase(
            ds.bags, model, config,
            rng_stream(0, "augment"), rng_stream(0, "shuffle"),
        )
        assert len(losses) == 200
        assert losses[-1] < losses[0]
        assert evaluate(model, ds.bags).acc >= 0.95

    def test_embedder_bits_frozen(self):
        ds = small_dataset()
        config = small_config(augment=True)
        model = build_model(config)
        before = params_checksum(model.embedder.params)
        run_classifier_phase(ds.bags, model, config,
                             rng_stream(1, "augment"), rng_stream(1, "shuffle"))
        assert params_checksum(model.embedder.params) == before

    @pytest.mark.parametrize("backbone", ["mean", "gated_attention"])
    def test_matches_per_tensor_adam(self, monkeypatch, backbone):
        # the optimizer over the head's arena run against one update per
        # tensor, through the whole phase
        ds = small_dataset()
        config = small_config(backbone=backbone, augment=True, classifier_epochs=3)
        models = []
        for per_tensor in (False, True):
            model = build_model(config, seed=6)
            if per_tensor:
                monkeypatch.setattr(orchestrator, "Adam",
                                    lambda _, lr, m=model: ReferenceAdam(m.head_params, lr))
            run_classifier_phase(ds.bags, model, config,
                                 rng_stream(3, "augment"), rng_stream(3, "shuffle"))
            models.append(model)
        arena, reference = models
        assert not np.array_equal(arena.head_group.value,
                                  build_model(config, seed=6).head_group.value)
        for pa, pref in zip(arena.all_params, reference.all_params):
            assert np.array_equal(pa.value, pref.value)

    def test_empty_dataset_rejected(self):
        config = small_config()
        model = build_model(config)
        with pytest.raises(ValueError, match="non-empty"):
            run_classifier_phase([], model, config,
                                 rng_stream(0, "augment"), rng_stream(0, "shuffle"))

    def test_degenerate_augmentation_matches_plain_bag_gradients(self):
        # n=1 and gamma=1 forces the whole source bag back out of the
        # augmenter, so one training step must produce identical gradients
        ds = small_dataset()
        config = small_config()
        model_a = build_model(config, seed=7)
        model_b = copy.deepcopy(model_a)

        bag_a, bag_b = ds.bags[0], ds.bags[1]
        h_b = model_a.embedder.forward(features_matrix(bag_b))[0]

        def head_grads(model, h, label):
            for p in model.head_params:
                p.zero_grad()
            bag_rep, _, logits, probs, agg_cache = model.head_forward(h)
            model.head_backward(h, bag_rep, agg_cache, (probs - label)[None, :])
            return [p.grad.copy() for p in model.head_params]

        grads_plain = head_grads(model_a, h_b, bag_b.label)

        from coupledmil.orchestrator import _embedded_bag
        emb_a = _embedded_bag(model_b, bag_a)
        emb_b = _embedded_bag(model_b, bag_b)
        fused = augment_pair(emb_a, emb_b, AugmentConfig(n=1, gamma=1.0),
                             np.random.default_rng(0))
        grads_aug = head_grads(model_b, features_matrix(fused), fused.label)

        for ga, gb in zip(grads_plain, grads_aug):
            assert np.array_equal(ga, gb)


class TestEmbedderPhase:
    def test_mean_backbone_confidence_equals_vanilla(self):
        # constant attention means unit confidence everywhere, so both modes
        # must walk the exact same trajectory
        ds = small_dataset()
        results = {}
        for mode in ("confidence", "vanilla"):
            config = small_config(backbone="mean", mode=mode, embedder_passes=3)
            model = build_model(config, seed=4)
            losses = run_embedder_phase(ds.bags, model, config,
                                        rng_stream(2, "noise"), rng_stream(2, "distill"))
            results[mode] = (losses, params_checksum(model.embedder.params))
        assert results["confidence"][1] == results["vanilla"][1]
        for lc, lv in zip(results["confidence"][0], results["vanilla"][0]):
            assert abs(lc - lv) <= 1e-12

    def test_zero_passes_leaves_embedder_unchanged(self):
        ds = small_dataset()
        config = small_config(embedder_passes=0)
        model = build_model(config)
        before = params_checksum(model.embedder.params)
        losses = run_embedder_phase(ds.bags, model, config,
                                    rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert losses == []
        assert params_checksum(model.embedder.params) == before

    def test_same_seed_bitwise_identical(self):
        ds = small_dataset()
        sums = []
        for _ in range(2):
            config = small_config()
            model = build_model(config, seed=9)
            run_embedder_phase(ds.bags, model, config,
                               rng_stream(5, "noise"), rng_stream(5, "distill"))
            sums.append(params_checksum(model.embedder.params))
        assert sums[0] == sums[1]

    def test_embedder_actually_moves(self):
        ds = small_dataset()
        config = small_config()
        model = build_model(config)
        before = params_checksum(model.embedder.params)
        run_embedder_phase(ds.bags, model, config,
                           rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert params_checksum(model.embedder.params) != before

    def test_unknown_mode_rejected_at_config(self):
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="distil")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_phase_and_epoch(self):
        ds = small_dataset()
        config = small_config(embedder_lr=1e300)
        model = build_model(config)
        with pytest.raises(NonFiniteLossError, match="embedder phase.*epoch 1"):
            run_embedder_phase(ds.bags, model, config,
                               rng_stream(0, "noise"), rng_stream(0, "distill"))

    @pytest.mark.parametrize("mode", ["naive", "vanilla", "confidence"])
    def test_all_modes_run(self, mode):
        ds = small_dataset()
        config = small_config(mode=mode, embedder_passes=1)
        model = build_model(config)
        losses = run_embedder_phase(ds.bags, model, config,
                                    rng_stream(1, "noise"), rng_stream(1, "distill"))
        assert len(losses) == 1 and losses[0] >= 0.0


class TestRunTraining:
    def test_zero_iterations_is_baseline_only(self):
        ds = small_dataset()
        report, model = run_training(ds, small_config(iterations=0))
        assert [e["iteration"] for e in report.evaluations] == [0]
        assert len(report.classifier_losses) == 1
        assert report.embedder_losses == []

    def test_two_iterations_report_all_points(self):
        ds = small_dataset()
        report, _ = run_training(ds, small_config(iterations=2, classifier_epochs=3,
                                                  embedder_passes=1))
        assert [e["iteration"] for e in report.evaluations] == [0, 1, 2]
        assert len(report.classifier_losses) == 3
        assert len(report.embedder_losses) == 2

    def test_metrics_in_unit_interval(self):
        ds = small_dataset()
        report, _ = run_training(ds, small_config())
        for ev in report.evaluations:
            for key in ("auc", "f1", "acc"):
                assert 0.0 <= ev[key] <= 1.0

    def test_full_run_determinism(self, tmp_path):
        ds = small_dataset()
        blobs = []
        for run in range(2):
            report, model = run_training(ds, small_config(augment=True))
            ckpt = tmp_path / f"ckpt{run}.bin"
            save_checkpoint(model, ckpt)
            blobs.append((report.to_json(), ckpt.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]

    def test_report_json_round_trip(self):
        ds = small_dataset()
        report, _ = run_training(ds, small_config(iterations=0, classifier_epochs=2))
        again = RunReport.from_json(report.to_json())
        assert again.to_json() == report.to_json()
        assert report.wall_clock_seconds > 0.0
        assert "wall_clock" not in report.to_json()

    def test_warm_start_differs_from_reinit(self):
        ds = small_dataset()
        r1, _ = run_training(ds, small_config())
        r2, _ = run_training(ds, small_config(warm_start=True))
        assert r1.evaluations[0] == r2.evaluations[0]  # same baseline
        assert r1.to_json() != r2.to_json()

    @pytest.mark.filterwarnings("ignore:stratum")
    def test_empty_training_split_is_a_config_error(self):
        ds = small_dataset(num_bags=2)
        with pytest.raises(ConfigError, match="no training bag"):
            run_training(ds, small_config(fractions=(0.2, 0.4, 0.4)))

    def test_to_json_rejects_nan(self):
        report = RunReport(config={}, seed=0, classifier_losses=[[float("nan")]])
        with pytest.raises(ValueError):
            report.to_json()

    def test_split_is_deterministic_given_config(self):
        ds = small_dataset()
        cfg = small_config(seed=13)
        ids1 = [b.id for b in split_for_run(ds, cfg)[2].bags]
        ids2 = [b.id for b in split_for_run(ds, cfg)[2].bags]
        assert ids1 == ids2


class TestCheckpoint:
    def test_round_trip_identical_outputs(self, tmp_path):
        ds = small_dataset()
        config = small_config()
        model = build_model(config, seed=11)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        x = features_matrix(ds.bags[0])
        assert np.array_equal(model.bag_forward(x).probs, loaded.bag_forward(x).probs)
        assert params_checksum(model.all_params) == params_checksum(loaded.all_params)

    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    def test_round_trip_all_backbones(self, tmp_path, backbone):
        config = small_config(backbone=backbone)
        model = build_model(config, seed=2)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.backbone == backbone
        assert params_checksum(model.all_params) == params_checksum(loaded.all_params)

    def test_corrupted_magic(self, tmp_path):
        config = small_config()
        model = build_model(config)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        config = small_config()
        model = build_model(config)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        m = len(CHECKPOINT_MAGIC)
        blob[m:m + 4] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    @pytest.mark.parametrize("offset,value", [(4, 1), (8, 0)])
    def test_only_tanh_and_positive_class_one_load(self, tmp_path, offset, value):
        # header fields after the backbone code: activation, positive class
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(small_config()), path)
        blob = bytearray(path.read_bytes())
        at = len(CHECKPOINT_MAGIC) + 4 + offset
        blob[at:at + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="activation code"):
            load_checkpoint(path)

    def test_truncated_blocks(self, tmp_path):
        config = small_config()
        model = build_model(config)
        path = tmp_path / "m.bin"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("backbone", ["mean", "gated_attention"])
    def test_every_proper_prefix_rejected(self, tmp_path, backbone):
        cfg = ModelConfig(d_raw=2, hidden=(3,), embed_dim=2, attn_dim=2,
                          backbone=backbone)
        path = tmp_path / "m.bin"
        save_checkpoint(MilModel.build(cfg, np.random.default_rng(0)), path)
        blob = path.read_bytes()
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)

    def test_oversized_dims_rejected_before_allocation(self, tmp_path):
        # a header promising a 2^31 x 2^31 layer must fail on the size check
        config = small_config()
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(config), path)
        blob = bytearray(path.read_bytes())
        dims_at = len(CHECKPOINT_MAGIC) + 4 + 24
        blob[dims_at:dims_at + 8] = struct.pack("<2I", 2**31, 2**31)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_non_finite_parameters_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_checkpoint(build_model(small_config()), path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="non-finite"):
            load_checkpoint(path)

