import copy
import struct

import numpy as np
import pytest

from coupledmil import distill, orchestrator
from coupledmil.augment import augment_pair
from coupledmil.bagdata import (
    Bag,
    ConfigError,
    SyntheticSpec,
    features_matrix,
    generate_synthetic,
)
from coupledmil.distill import TeacherBranch
from coupledmil.milnet import BACKBONES, Embedder, MilModel, ModelConfig
from coupledmil.orchestrator import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    NonFiniteLossError,
    RunReport,
    TrainConfig,
    classifier_schedule,
    embed_instances,
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
from oracles import (
    ReferenceAdam,
    embedded_rows,
    reference_classifier_phase,
    reference_embedder_phase,
)


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
    return TrainConfig.from_dict(base)


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

    @pytest.mark.parametrize("field,value", [
        ("mode", "softlabel"), ("backbone", "cnn"), ("iterations", -1),
        ("classifier_lr", 0.0), ("embedder_lr", -1e-5), ("classifier_epochs", 0),
        ("batch_size", 0), ("fractions", (0.0, 0.0, 1.0)),
        ("fractions", (0.5, 0.5, 0.5)), ("fractions", (0.5, 0.5)),
        ("fractions", (-0.1, 0.6, 0.5)), ("fractions", (float("nan"), 0.5, 0.5)),
        ("seed", -1), ("beta", 0.0),
        ("alpha_w", -5.0),  # a removed option: an unknown config key
        ("augment_ratio", -2.0),
        ("hidden", (0,)), ("hidden", 5), ("embed_dim", 0), ("attn_dim", -1),
        ("augment_n", 0), ("augment_alpha", 0.0), ("augment_gamma", 2.0),
        ("augment_label_mode", "mean"),  # a removed option: an unknown config key
        ("noise_scale", -1.0), ("noise_dropout", 2.0),
        ("augment_gamma", -0.1), ("noise_dropout", -0.1),
        ("classifier_epochs", 1.5), ("batch_size", True), ("augment", "yes"),
        ("classifier_lr", float("inf")), ("threshold", float("nan")), ("mode", 3),
        ("threshold", 1.5), ("threshold", -3.0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_ends_accepted(self, threshold):
        assert small_config(threshold=threshold).threshold == threshold


class TestClassifierPhase:
    def test_separable_data_trains_to_high_accuracy(self):
        ds = small_dataset(seed=3, num_bags=40, k=10, d_raw=8, delta=6.0)
        config = small_config(classifier_epochs=200)
        model = build_model(config, d_raw=8, seed=1)
        losses = run_classifier_phase(classifier_schedule(ds.bags, config),
                                      embedded_rows(model, ds.bags), model, config)
        assert len(losses) == 200
        assert losses[-1] < losses[0]
        assert evaluate(model, ds.bags).acc >= 0.95

    def test_embedder_bits_frozen(self):
        ds = small_dataset()
        config = small_config(augment=True)
        model = build_model(config)
        before = params_checksum(model.embedder.params)
        run_classifier_phase(classifier_schedule(ds.bags, config),
                             embedded_rows(model, ds.bags), model, config)
        assert params_checksum(model.embedder.params) == before

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_moments_name_phase_and_epoch(self):
        # finite rows whose gradients square past the float maximum: the loss
        # stays finite, and the epoch check reports the infinite second
        # moment, with the error and no numpy warning
        ds = small_dataset()
        config = small_config()
        model = build_model(config)
        h_all = embedded_rows(model, ds.bags) * 1e300
        with pytest.raises(NonFiniteLossError,
                           match="classifier phase: non-finite Adam moments in epoch 1"):
            run_classifier_phase(classifier_schedule(ds.bags, config), h_all, model, config)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_embedding_names_phase_and_bag(self):
        # finite weights that overflow: the embedding stops at the first bag,
        # with the error and no numpy warning
        ds = small_dataset()
        config = small_config()
        model = build_model(config)
        model.embedder_group.value[:] = 1e308
        with pytest.raises(NonFiniteLossError,
                           match=f"classifier phase: .* bag {ds.bags[0].id!r}"):
            embedded_rows(model, ds.bags)

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
            run_classifier_phase(classifier_schedule(ds.bags, config),
                                 embedded_rows(model, ds.bags), model, config)
            models.append(model)
        arena, reference = models
        assert not np.array_equal(arena.head_group.value,
                                  build_model(config, seed=6).head_group.value)
        for pa, pref in zip(arena.all_params, reference.all_params):
            assert np.array_equal(pa.value, pref.value)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            classifier_schedule([], small_config())

    @pytest.mark.parametrize("augment", [False, True])
    def test_replays_its_draws_from_the_same_head(self, augment):
        # every schedule opens the run's augment and shuffle streams afresh
        ds = small_dataset()
        config = small_config(augment=augment)
        first = build_model(config, seed=5)
        second = copy.deepcopy(first)
        h_all = embedded_rows(first, ds.bags)
        losses = [run_classifier_phase(classifier_schedule(ds.bags, config), h_all,
                                       model, config)
                  for model in (first, second)]
        assert losses[0] == losses[1]
        assert np.array_equal(first.arena.value, second.arena.value)

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize(
        "augment,augment_n,head_scale",
        [(False, 4, 1.0), (True, 1, 1.0), (True, 3, 1.0), (True, 4, 1.0),
         (False, 4, 1e4), (True, 4, 1e4)],
        ids=["False-4", "True-1", "True-3", "True-4", "False-4-underflow", "True-4-underflow"])
    def test_matches_the_reference_loop(self, backbone, augment, augment_n, head_scale):
        # the schedule drawn up front on row indices, the in-place step and
        # the loss taken once per epoch against the loop that draws while it
        # trains, on feature rows, with the plain step: equal losses and a
        # bit-identical arena; a head scaled by 1e4 gives some bags a label
        # probability of exactly 0, so their loss terms take LOG_FLOOR
        ds = generate_synthetic(SyntheticSpec(
            num_bags=20, instances_per_bag=(2, 11), d_raw=6, rho=0.3, delta=3.0,
            noise=0.8, positive_fraction=0.5, seed=2))
        config = small_config(backbone=backbone, augment=augment, augment_n=augment_n,
                              augment_gamma=0.3, classifier_epochs=4)
        self._check_against_reference(ds, config, classifier_schedule(ds.bags, config),
                                      head_scale)

    def test_wide_indices_match_the_reference_loop(self):
        # past 256 rows and 256 samples an epoch, the schedule's row indices
        # and step order no longer fit in uint8
        ds = generate_synthetic(SyntheticSpec(
            num_bags=150, instances_per_bag=(2, 5), d_raw=6, rho=0.3, delta=3.0,
            noise=0.8, positive_fraction=0.5, seed=3))
        config = small_config(augment=True, augment_gamma=0.3, classifier_epochs=2)
        schedule = classifier_schedule(ds.bags, config)
        order, rows, _, _ = schedule.epochs[0]
        assert (order.dtype, rows.dtype) == (np.uint16, np.uint16)
        self._check_against_reference(ds, config, schedule)

    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("augment", [False, True])
    def test_desk_dims_match_the_reference_loop(self, backbone, augment):
        # the benchmark's model shapes, and bags of 1 to 69 instances: numpy
        # hands a one-row product to other BLAS kernels than a larger one
        ds = generate_synthetic(SyntheticSpec(
            num_bags=40, instances_per_bag=(1, 69), d_raw=6, rho=0.3, delta=3.0,
            noise=0.8, positive_fraction=0.5, seed=8))
        sizes = [len(bag) for bag in ds.bags]
        assert (sizes.count(1), max(sizes)) == (2, 69)
        config = small_config(backbone=backbone, augment=augment, hidden=(64,),
                              embed_dim=32, attn_dim=16, classifier_epochs=2)
        self._check_against_reference(ds, config, classifier_schedule(ds.bags, config))

    def test_epoch_losses_are_python_floats(self):
        # a failed epoch check prints the loss's repr, which must read `nan`,
        # not `np.float64(nan)`
        ds = small_dataset()
        config = small_config(augment=True)
        model = build_model(config)
        losses = run_classifier_phase(classifier_schedule(ds.bags, config),
                                      embedded_rows(model, ds.bags), model, config)
        assert [type(loss) for loss in losses] == [float] * config.classifier_epochs

    @staticmethod
    def _check_against_reference(ds, config, schedule, head_scale=1.0):
        model = build_model(config, seed=8)
        for param in model.classifier.params:
            param.value *= head_scale
        reference = copy.deepcopy(model)
        h_all = embedded_rows(model, ds.bags)
        label_probs = [model.head_forward(h_all[rows])[2] @ label
                       for rows, label in schedule.bases]
        assert (0.0 in label_probs) == (head_scale != 1.0)
        losses = run_classifier_phase(schedule, h_all, model, config)
        assert losses == reference_classifier_phase(ds.bags, h_all, reference, config)
        assert model.arena.value.tobytes() == reference.arena.value.tobytes()
        assert not np.array_equal(model.head_group.value,
                                  build_model(config, seed=8).head_group.value)

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
                p.grad[:] = 0.0
            bag_rep, _, probs, agg_cache = model.head_forward(h)
            model.head_backward(bag_rep, agg_cache, (probs - label)[None, :])
            return [p.grad.copy() for p in model.head_params]

        grads_plain = head_grads(model_a, h_b, bag_b.label)

        # the classifier phase's samples: views of the rows of the shared
        # buffer, with their bags' labels
        h_all = embedded_rows(model_b, [bag_a, bag_b])
        fused = augment_pair((h_all[:len(bag_a)], bag_a.label),
                             (h_all[len(bag_a):], bag_b.label),
                             small_config(augment_n=1, augment_gamma=1.0),
                             np.random.default_rng(0))
        grads_aug = head_grads(model_b, *fused)

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
            losses = run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model,
                                        config, rng_stream(2, "noise"),
                                        rng_stream(2, "distill"))
            results[mode] = (losses, params_checksum(model.embedder.params))
        assert results["confidence"][1] == results["vanilla"][1]
        for lc, lv in zip(results["confidence"][0], results["vanilla"][0]):
            assert abs(lc - lv) <= 1e-12

    def test_zero_passes_leaves_embedder_unchanged(self):
        ds = small_dataset()
        config = small_config(embedder_passes=0)
        model = build_model(config)
        before = params_checksum(model.embedder.params)
        losses = run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                                    rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert losses == []
        assert params_checksum(model.embedder.params) == before

    def test_same_seed_bitwise_identical(self):
        ds = small_dataset()
        sums = []
        for _ in range(2):
            config = small_config()
            model = build_model(config, seed=9)
            run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                               rng_stream(5, "noise"), rng_stream(5, "distill"))
            sums.append(params_checksum(model.embedder.params))
        assert sums[0] == sums[1]

    def test_embedder_actually_moves(self):
        ds = small_dataset()
        config = small_config()
        model = build_model(config)
        before = params_checksum(model.embedder.params)
        run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                           rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert params_checksum(model.embedder.params) != before

    def test_unknown_mode_rejected_at_config(self):
        with pytest.raises(ValueError, match="mode"):
            small_config(mode="distil")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_phase_and_epoch(self):
        # under the fixed head the phase's loss stays finite and its weights
        # end near 1e300; the run stops in the next classifier phase, whose
        # gradients overflow Adam's second moment
        ds = small_dataset()
        config = small_config(embedder_lr=1e300)
        model = build_model(config)
        run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                           rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert np.isfinite(model.embedder_group.value).all()
        with pytest.raises(NonFiniteLossError,
                           match="classifier phase: non-finite Adam moments in epoch 1"):
            run_training(ds, config)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_step_names_phase_and_epoch(self):
        # the first step's weights of about 1e308 make the next step's
        # embeddings overflow
        ds = small_dataset()
        config = small_config(embedder_lr=1e308)
        model = build_model(config)
        with pytest.raises(NonFiniteLossError,
                           match="embedder phase: non-finite loss nan in epoch 1"):
            run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                               rng_stream(0, "noise"), rng_stream(0, "distill"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_embedder_is_rejected(self):
        ds = small_dataset()
        config = small_config(mode="naive", embedder_passes=0)
        model = build_model(config)
        h_all = embedded_rows(model, ds.bags)
        model.embedder.layers[-1].w.value[0, 0] = np.inf
        before = model.arena.value.copy()
        with pytest.raises(NonFiniteLossError,
                           match="embedder phase: non-finite embedder parameters"):
            run_embedder_phase(ds.bags, h_all, model, config,
                               rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert np.array_equal(model.arena.value, before)

    @pytest.mark.parametrize("data", [
        # bags of 3 to 17 instances (238 in all), a batch size that leaves a
        # short last batch of 6 rows
        dict(k=(3, 17), batch_size=29, dims=dict(hidden=(12,), embed_dim=8, attn_dim=4)),
        # the protocol's batch size, last batch 38 rows, no hidden layer
        dict(k=(3, 17), batch_size=100, dims=dict(hidden=(), embed_dim=8, attn_dim=4)),
        # one batch of every row, through two hidden layers
        dict(k=(3, 17), batch_size=1000, dims=dict(hidden=(12, 5), embed_dim=8, attn_dim=4)),
        # the desk model; every batch a multiple of 4 rows (see below)
        dict(k=10, batch_size=32, dims=dict(hidden=(64,), embed_dim=32, attn_dim=16)),
    ], ids=["ragged", "batch-100", "one-batch", "desk-dims"])
    @pytest.mark.parametrize("backbone", ["mean", "max", "gated_attention"])
    @pytest.mark.parametrize("mode", ["naive", "vanilla", "confidence"])
    def test_matches_per_batch_teacher(self, monkeypatch, mode, backbone, data):
        # the phase gives the model and the per-pass losses of the oracle's
        # phase bit for bit: its step and its per-tensor Adam written as
        # plain expressions, the classifier fixed, and the teacher run on
        # every batch instead of once per phase. Two groupings round
        # differently on OpenBLAS, so the data avoids them: a bag of one
        # instance (embedded by gemv, not by a gemm), and at embed_dim 32 a
        # batch that is not a multiple of 4 rows (the 32 x 2 logits product
        # rounds the rows past the last multiple of 4 differently)
        ds = generate_synthetic(SyntheticSpec(
            num_bags=24, instances_per_bag=data["k"], d_raw=6, rho=0.3, delta=2.0,
            noise=0.8, positive_fraction=0.5, seed=4))
        config = small_config(mode=mode, backbone=backbone, batch_size=data["batch_size"],
                              embedder_passes=3, embedder_lr=1e-3, **data["dims"])
        model = build_model(config, seed=6)
        expected, expected_losses = reference_embedder_phase(
            ds.bags, model, config, rng_stream(3, "noise"), rng_stream(3, "distill"))
        h_all = embedded_rows(model, ds.bags)
        built = []  # the phase trains the model in place and builds none
        init = MilModel.__init__
        monkeypatch.setattr(MilModel, "__init__",
                            lambda self, cfg: built.append(cfg) or init(self, cfg))
        losses = run_embedder_phase(ds.bags, h_all, model, config,
                                    rng_stream(3, "noise"), rng_stream(3, "distill"))
        assert built == []
        assert losses == expected_losses
        assert np.array_equal(model.arena.value, expected.arena.value)

    @pytest.mark.parametrize("mode", ["naive", "confidence"])
    def test_teacher_ties_go_to_the_lower_class(self, monkeypatch, mode):
        # a zeroed classifier gives the teacher exactly [0.5, 0.5] on every
        # row, so every step's target is class 0
        ds = small_dataset()
        config = small_config(mode=mode, embedder_passes=2, batch_size=7)
        model = build_model(config)
        model.classifier.w.value[:] = 0.0
        model.classifier.b.value[:] = 0.0
        targets = []
        step = orchestrator.distill_step
        # the name orchestrator calls, and the one naive_pseudolabel_step calls
        for module in (orchestrator, distill):
            monkeypatch.setattr(module, "distill_step", lambda student, target, *rest: (
                targets.append(target) or step(student, target, *rest)))
        run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                           rng_stream(0, "noise"), rng_stream(0, "distill"))
        n = sum(len(bag) for bag in ds.bags)
        assert len(targets) == 2 * -(-n // 7)
        assert not np.concatenate(targets).any()

    @pytest.mark.parametrize("mode", ["naive", "confidence"])
    def test_teacher_embeds_each_bag_once(self, monkeypatch, mode):
        # the teacher's rows are the run's one embedding per embedder state,
        # so the phase itself embeds no training bag: the teacher's outputs
        # come from those rows before any embedder forward, and the only
        # forwards are the model's own, one per step
        ds = generate_synthetic(SyntheticSpec(
            num_bags=20, instances_per_bag=(2, 9), d_raw=6, rho=0.3, delta=2.0,
            seed=1))
        config = small_config(mode=mode, batch_size=7, embedder_passes=3)
        n = sum(len(bag.features) for bag in ds.bags)
        model = build_model(config)
        h_all = embedded_rows(model, ds.bags)
        teachers, inputs = [], []
        from_model = TeacherBranch.from_model
        monkeypatch.setattr(TeacherBranch, "from_model", classmethod(
            lambda cls, *args: teachers.append((args, len(inputs))) or from_model(*args)))
        forward = Embedder.forward
        monkeypatch.setattr(Embedder, "forward", lambda self, x: (
            inputs.append(self) or forward(self, x)))
        run_embedder_phase(ds.bags, h_all, model, config,
                           rng_stream(0, "noise"), rng_stream(0, "distill"))
        ((args, forwards_before),) = teachers
        assert args[0] is model and args[2] is h_all
        assert forwards_before == 0
        assert all(embedder is model.embedder for embedder in inputs)
        assert len(inputs) == 3 * -(-n // 7)

    @pytest.mark.parametrize("mode", ["naive", "vanilla", "confidence"])
    def test_all_modes_run(self, mode):
        ds = small_dataset()
        config = small_config(mode=mode, embedder_passes=1)
        model = build_model(config)
        losses = run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                                    rng_stream(1, "noise"), rng_stream(1, "distill"))
        assert len(losses) == 1 and losses[0] >= 0.0


@pytest.mark.parametrize("backbone", BACKBONES)
def test_no_gradient_is_left_in_the_arena(backbone):
    # a left-over gradient would enter the next phase's first Adam step
    ds = small_dataset()
    config = small_config(backbone=backbone, augment=True, classifier_epochs=2,
                          embedder_passes=1)
    model = build_model(config)
    h_all = embedded_rows(model, ds.bags)
    run_classifier_phase(classifier_schedule(ds.bags, config), h_all, model, config)
    assert not model.arena.grad.any()
    for mode in ("naive", "vanilla", "confidence"):
        head = model.head_group.value.tobytes()
        run_embedder_phase(ds.bags, h_all, model, small_config(mode=mode, backbone=backbone),
                           rng_stream(0, "noise"), rng_stream(0, "distill"))
        assert not model.arena.grad.any()
        assert model.head_group.value.tobytes() == head
    _, model = run_training(ds, config)
    assert not model.arena.grad.any()


@pytest.mark.parametrize("part", [0, -1], ids=["aggregator", "classifier"])
def test_a_head_written_in_the_embedder_phase_is_rejected(monkeypatch, part):
    # the head is frozen for the whole phase; a step that writes into it
    # (here the first aggregator value or the last classifier bias) fails
    # the phase's checksum of the head taken before and after it
    ds = small_dataset()
    config = small_config(embedder_passes=1)
    model = build_model(config)
    step = orchestrator.distill_step

    def writing_step(model, *rest):
        model.head_group.value[0, part] += 1.0
        return step(model, *rest)

    monkeypatch.setattr(orchestrator, "distill_step", writing_step)
    with pytest.raises(RuntimeError, match="embedder phase modified the frozen classifier"):
        run_embedder_phase(ds.bags, embedded_rows(model, ds.bags), model, config,
                           rng_stream(0, "noise"), rng_stream(0, "distill"))


class TestRunTraining:
    @pytest.mark.parametrize("mode", ["confidence", "naive"])
    def test_embeds_each_bag_once_per_embedder_state(self, monkeypatch, mode):
        # once at the start and once after each embedder phase; both phases
        # read those rows
        ds = small_dataset()
        config = small_config(mode=mode, iterations=2, classifier_epochs=2,
                              embedder_passes=1)
        train = split_for_run(ds, config)[0].bags
        inputs = []
        forward = Embedder.forward
        monkeypatch.setattr(Embedder, "forward",
                            lambda self, x: inputs.append(x) or forward(self, x))
        run_training(ds, config)
        for bag in train:
            assert sum(x is bag.features for x in inputs) == config.iterations + 1

    def test_embedded_rows_equal_each_bags_forward(self):
        rng = np.random.default_rng(3)
        bags = [Bag(id=f"b{i}", features=rng.uniform(-2, 2, size=(k, 6)),
                    label=[1.0, 0.0]) for i, k in enumerate([1, 5, 3, 1, 12, 2])]
        model = build_model(small_config())
        h_all = np.full((24, 8), np.nan)
        embed_instances(model, bags, h_all)
        start = 0
        for bag in bags:
            h, _ = model.embedder.forward(bag.features)
            assert np.array_equal(h_all[start:start + len(bag)], h)
            start += len(bag)
        assert start == len(h_all)

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

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("backbone", ["gated_attention", "mean", "max"])
    def test_zero_passes_repeat_the_baseline(self, backbone, augment):
        # the embedder never changes, so every iteration replays iteration 0
        ds = small_dataset()
        report, _ = run_training(ds, small_config(
            backbone=backbone, augment=augment, embedder_passes=0, iterations=2))
        baseline = {**report.evaluations[0], "iteration": None}
        assert len(report.evaluations) == len(report.classifier_losses) == 3
        for losses, evaluation in zip(report.classifier_losses, report.evaluations):
            assert losses == report.classifier_losses[0]
            assert {**evaluation, "iteration": None} == baseline

    @pytest.mark.parametrize("backbone", ["gated_attention", "mean", "max"])
    def test_clean_vanilla_equals_naive(self, backbone, tmp_path):
        # without input noise, vanilla is the naive step: the same loss on
        # the same rows with unit weights
        ds = small_dataset()
        runs = []
        for mode in ("naive", "vanilla"):
            report, model = run_training(ds, small_config(
                backbone=backbone, mode=mode, noise_scale=0.0, noise_dropout=0.0,
                iterations=2, classifier_epochs=3))
            ckpt = tmp_path / f"{mode}.bin"
            save_checkpoint(model, ckpt)
            runs.append((report.evaluations, report.classifier_losses,
                         report.embedder_losses, ckpt.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][2][0] != runs[0][2][1]  # the embedder phases trained

    @pytest.mark.parametrize("iterations", [1, 2])
    def test_draws_the_augmentations_once_per_run(self, monkeypatch, iterations):
        ds = small_dataset()
        config = small_config(augment=True, augment_ratio=0.5, iterations=iterations,
                              classifier_epochs=3, embedder_passes=1)
        calls = []
        pair = orchestrator.augment_pair
        monkeypatch.setattr(orchestrator, "augment_pair",
                            lambda *args: calls.append(args) or pair(*args))
        run_training(ds, config)
        n_train = len(split_for_run(ds, config)[0].bags)
        assert len(calls) == config.classifier_epochs * round(
            config.augment_ratio * n_train)

    def test_every_classifier_phase_starts_from_the_initial_head(self, monkeypatch):
        ds = small_dataset()
        config = small_config(iterations=2, classifier_epochs=2, embedder_passes=1)
        heads = []
        phase = orchestrator.run_classifier_phase
        monkeypatch.setattr(
            orchestrator, "run_classifier_phase",
            lambda schedule, h_all, model, *rest: heads.append(
                model.head_group.value.copy()) or phase(schedule, h_all, model, *rest))
        _, model = run_training(ds, config)
        initial = MilModel.build(model.config, rng_stream(config.seed, "init"))
        assert len(heads) == 3
        for head in heads:
            assert np.array_equal(head, initial.head_group.value)
        assert not np.array_equal(model.head_group.value, initial.head_group.value)

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
        assert again == report
        assert again.to_json() == report.to_json()
        assert "wall_clock" not in report.to_json()

    @pytest.mark.filterwarnings("ignore:stratum")
    def test_empty_training_split_is_a_config_error(self):
        ds = small_dataset(num_bags=2)
        with pytest.raises(ConfigError, match="no training bag"):
            run_training(ds, small_config(fractions=(0.2, 0.4, 0.4)))

    def test_empty_test_split_is_a_config_error(self, monkeypatch):
        def no_phase(*args):
            raise AssertionError("a phase ran before the split was checked")

        monkeypatch.setattr(orchestrator, "run_classifier_phase", no_phase)
        with pytest.raises(ConfigError,
                           match=r"fractions \[0.8, 0.2, 0.0\] leave no test bag"):
            run_training(small_dataset(), small_config(fractions=(0.8, 0.2, 0.0)))

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
        assert all(np.array_equal(a, b)
                   for a, b in zip(model.bag_forward(x), loaded.bag_forward(x)))
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

    @pytest.mark.parametrize("offset,value", [(4, 1), (8, 0), (12, 1), (12, 3)])
    def test_only_tanh_and_positive_class_one_load(self, tmp_path, offset, value):
        # header fields after the backbone code: activation, positive class,
        # class count
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

