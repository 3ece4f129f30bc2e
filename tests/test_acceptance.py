"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete. The two training criteria dominate the runtime (a few minutes
on one desktop core).
"""

import hashlib
import time

import numpy as np

from oracles import auc_concordance, fd_gradient, fsl_two_loop, metrics_brute_force, pca_eigh, \
    rel_err

from pfnn.autodiff import (
    BatchNormState,
    Tensor,
    add,
    backward,
    batch_norm,
    concat_last,
    conv2d,
    dropout,
    global_avg_pool,
    global_max_pool,
    matmul,
    mul,
    reduce_sum,
    relu,
    sigmoid,
    softmax,
)
from pfnn.checkpoint import load_checkpoint, save_checkpoint
from pfnn.cli import main
from pfnn.datagen import GenSpec, augment_to_share, class_distribution, generate, \
    read_dataset, write_dataset
from pfnn.evalkit import build_report, classification_report, confusion, roc_curve
from pfnn.interpret import grad_cam, pca
from pfnn.layers import ModelConfig, build_model
from pfnn.losses import cross_entropy, feature_smoothing_loss, total_loss
from pfnn.trainer import TrainConfig, fit, predict, stratified_split

GRAD_TOL = 1e-4
FD_STEP = 1e-5


def verdict(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}{suffix}", flush=True)
    return ok


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity for every op and the composite loss


def _op_builders():
    """One ``(forward, params)`` builder per op in the library."""
    builders = {}

    def simple(name, make, shape=(3, 4)):
        def builder(rng):
            t = Tensor(rng.uniform(-2, 2, shape), requires_grad=True)
            aux = Tensor(rng.uniform(-2, 2, shape))
            weights = Tensor(rng.uniform(-1, 1, make(t, aux).shape))

            def forward():
                return reduce_sum(mul(make(t, aux), weights))

            return forward, {name: t}

        builders[name] = builder

    simple("add", lambda t, a: add(t, a))
    simple("add_broadcast", lambda t, a: add(t, Tensor(a.data[0])))
    simple("mul", lambda t, a: mul(t, a))
    simple("mul_broadcast", lambda t, a: mul(t, Tensor(a.data[0])))
    simple("relu", lambda t, a: relu(t))
    simple("sigmoid", lambda t, a: sigmoid(t))
    simple("softmax", lambda t, a: softmax(t))
    simple("reduce_sum", lambda t, a: reduce_sum(t))
    simple("concat_last", lambda t, a: concat_last(t, mul(a, t)))

    def builder_matmul(rng):
        t = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
        m = Tensor(rng.uniform(-1, 1, (3, 5)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 5)))

        def forward():
            return reduce_sum(mul(matmul(t, m), w))

        return forward, {"a": t, "b": m}

    builders["matmul"] = builder_matmul

    def builder_conv(rng):
        x = Tensor(rng.uniform(-1, 1, (2, 5, 5, 2)), requires_grad=True)
        k = Tensor(rng.uniform(-1, 1, (3, 3, 2, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 5, 5, 3)))

        def forward():
            return reduce_sum(mul(conv2d(x, k), w))

        return forward, {"x": x, "kernel": k}

    builders["conv2d"] = builder_conv

    def builder_pools(rng):
        x = Tensor(rng.uniform(-1, 1, (2, 4, 5, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (2, 6)))

        def forward():
            fused = concat_last(global_avg_pool(x), global_max_pool(x))
            return reduce_sum(mul(fused, w))

        return forward, {"x": x}

    builders["global_pools"] = builder_pools

    def builder_dropout(rng):
        x = Tensor(rng.uniform(-1, 1, (4, 6)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (4, 6)))
        mask_seed = int(rng.integers(0, 2**31))

        def forward():
            # fresh generator with a fixed seed freezes the mask across FD probes
            out = dropout(x, 0.4, np.random.default_rng(mask_seed), training=True)
            return reduce_sum(mul(out, w))

        return forward, {"x": x}

    builders["dropout"] = builder_dropout

    def builder_batchnorm(rng):
        x = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
        beta = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (6, 3)))

        def forward():
            out = batch_norm(x, gamma, beta, BatchNormState(3), training=True)
            return reduce_sum(mul(out, w))

        return forward, {"x": x, "gamma": gamma, "beta": beta}

    builders["batch_norm"] = builder_batchnorm

    def batchnorm_relu_builder(training):
        def builder(rng):
            x = Tensor(rng.uniform(-2, 2, (2, 3, 4, 3)), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
            beta = Tensor(rng.uniform(-0.5, 0.5, 3), requires_grad=True)
            w = Tensor(rng.uniform(-1, 1, (2, 3, 4, 3)))
            running_mean, running_var = rng.uniform(-0.5, 0.5, 3), rng.uniform(0.5, 2.0, 3)

            def forward():
                state = BatchNormState(3)
                state.running_mean, state.running_var = running_mean.copy(), running_var.copy()
                out = batch_norm(x, gamma, beta, state, training=training, relu=True)
                return reduce_sum(mul(out, w))

            return forward, {"x": x, "gamma": gamma, "beta": beta}

        return builder

    builders["batch_norm_relu_training"] = batchnorm_relu_builder(True)
    builders["batch_norm_relu_inference"] = batchnorm_relu_builder(False)

    def builder_cross_entropy(rng):
        logits = Tensor(rng.uniform(-2, 2, (6, 3)), requires_grad=True)
        labels = rng.integers(0, 3, 6)

        def forward():
            return cross_entropy(softmax(logits), labels)

        return forward, {"logits": logits}

    builders["cross_entropy"] = builder_cross_entropy

    def builder_feature_smoothing(rng):
        features = Tensor(rng.uniform(-2, 2, (7, 4)), requires_grad=True)
        labels = rng.integers(0, 3, 7)

        def forward():
            return feature_smoothing_loss(features, labels)

        return forward, {"features": features}

    builders["feature_smoothing_loss"] = builder_feature_smoothing
    return builders


def _composite_builder(rng):
    config = ModelConfig(conv_widths=(2, 3), kernel=3, head_units=6, dropout_rate=0.0,
                         classes=3, enable_gagm=True, enable_sevector=True,
                         reduction_ratio=16, seed=int(rng.integers(0, 2**31)))
    model = build_model(config)
    images = rng.uniform(0, 1, (4, 5, 5, 1))
    labels = rng.integers(0, 3, 4)

    def forward():
        result = model.forward(Tensor(images), training=True)
        return total_loss(result.probs, labels, result.captures[model.feature_layer], 0.1)

    return forward, model.params


def _grad_error(site, builder, seed):
    """Largest relative error between ``backward``'s gradient and central
    finite differences over every parameter of ``builder``'s loss."""
    forward, params = builder(np.random.default_rng(seed))
    backward(forward())
    worst = 0.0
    for p in params.values():
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = fd_gradient(forward, p.data, FD_STEP)
        # rel_err is nan on a nan gradient, and nan > worst is False
        assert np.isfinite(analytic).all() and np.isfinite(numeric).all(), \
            f"non-finite gradients in {site}"
        worst = max(worst, rel_err(analytic, numeric))
    return worst


def test_criterion_01_gradient_integrity():
    start = time.perf_counter()
    worst = 0.0
    worst_site = ""
    sites = [(f"{name}/seed{seed}", builder, seed)
             for name, builder in _op_builders().items() for seed in range(20)]
    sites += [(f"composite/seed{seed}", _composite_builder, 1000 + seed) for seed in range(20)]
    for site, builder, seed in sites:
        err = _grad_error(site, builder, seed)
        if err > worst:
            worst, worst_site = err, site
    elapsed = time.perf_counter() - start
    ok = worst < GRAD_TOL and elapsed < 60.0
    assert verdict(1, "gradient integrity", ok,
                   f"max rel err {worst:.2e} at {worst_site}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: feature smoothing loss vs the two-loop oracle


def test_criterion_02_fsl_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        d = int(rng.integers(1, 6))
        features = rng.uniform(-3, 3, (n, d))
        labels = rng.integers(0, 3, n)
        ours = float(feature_smoothing_loss(Tensor(features), labels).data)
        worst = max(worst, abs(ours - fsl_two_loop(features, labels)))

    same = Tensor(np.array([[1.0, -2.0]] * 4 + [[0.5, 0.5]] * 3))
    zero_a = float(feature_smoothing_loss(same, np.array([0] * 4 + [2] * 3)).data)
    singletons = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    zero_b = float(feature_smoothing_loss(singletons, np.array([0, 1, 2])).data)

    features = rng.uniform(-2, 2, (10, 4))
    labels = rng.integers(0, 3, 10)
    base = float(feature_smoothing_loss(Tensor(features), labels).data)
    shifted = float(feature_smoothing_loss(Tensor(features + rng.uniform(-9, 9, (1, 4))), labels).data)
    scaled = float(feature_smoothing_loss(Tensor(2.5 * features), labels).data)

    ok = (worst <= 1e-12 and zero_a == 0.0 and zero_b == 0.0
          and abs(base - shifted) <= 1e-9 and abs(scaled - 2.5**2 * base) <= 1e-9)
    assert verdict(2, "feature smoothing loss oracle", ok,
                   f"max |diff| {worst:.1e}, trivial zeros ({zero_a}, {zero_b})")


# ---------------------------------------------------------------------------
# criterion 3: metric battery vs brute force; AUC vs all-pairs concordance


def test_criterion_03_metric_oracles():
    rng = np.random.default_rng(3033)
    worst_stats = 0.0
    for _ in range(500):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(1, 21))
        labels = rng.integers(0, c, n)
        preds = rng.integers(0, c, n)
        raw = rng.uniform(0.01, 1, (n, c))
        probs = raw / raw.sum(axis=1, keepdims=True)
        report = build_report("x", "t", labels, preds, probs, 0.0, [str(i) for i in range(c)])
        ref = metrics_brute_force(labels, preds, c)
        for key in ("precision", "recall", "f1"):
            worst_stats = max(worst_stats, float(np.max(np.abs(
                np.asarray(getattr(report, key)) - np.asarray(ref[key])))) if n else 0.0)
        for key in ("accuracy", "macro_f1", "f1_mean", "f1_std",
                    "recall_mean", "recall_min", "recall_std"):
            worst_stats = max(worst_stats, abs(getattr(report, key) - ref[key]))
        assert report.support == tuple(ref["support"])

    worst_auc = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 51))
        scores = np.round(rng.uniform(0, 1, n), 1)
        positives = rng.integers(0, 2, n).astype(bool)
        if positives.all() or not positives.any():
            positives[0] = ~positives[0]
        ours = roc_curve(scores, positives).auc
        worst_auc = max(worst_auc, abs(ours - auc_concordance(scores, positives)))

    ok = worst_stats <= 1e-12 and worst_auc <= 1e-12
    assert verdict(3, "metric oracle equivalence", ok,
                   f"stats {worst_stats:.1e}, auc {worst_auc:.1e}")


# ---------------------------------------------------------------------------
# criterion 4: fit's LR cuts and early stopping on scripted validation losses


LR0 = 1e-6


def _fit_scripted(monkeypatch, losses, rlrop_patience, early_stop_patience, min_delta):
    """``fit`` on a tiny model, one step per epoch, whose validation losses
    are ``losses`` in turn."""
    scripted = iter(losses)
    monkeypatch.setattr("pfnn.trainer._eval_split", lambda *args: (next(scripted), 0.0))
    model = build_model(ModelConfig(conv_widths=(2,), head_units=4, seed=4))
    config = TrainConfig(learning_rate=LR0, batch_size=32, max_epochs=len(losses),
                         rlrop_patience=rlrop_patience, early_stop_patience=early_stop_patience,
                         min_delta=min_delta, seed=4)
    return fit(model, generate(GenSpec(counts=(6, 6, 6), side=8, seed=4)), config)


def test_criterion_04_callback_schedules(monkeypatch):
    D = 1e-4  # min_delta

    # (val losses, LR-cut patience, min_delta, lr of each epoch / LR0); factor 0.5
    plateau_cases = [
        # flat forever: reductions at the end of epochs 6 and 11
        ([1.0] * 12, 5, D, [1.0] * 6 + [0.5] * 5 + [0.25]),
        # strictly decreasing: never reduces
        ([1.0 - 0.01 * i for i in range(10)], 5, D, [1.0] * 10),
        # improvement at 3 restarts the window
        ([1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], 5, D,
         [1.0] * 8 + [0.5]),
        # double plateau of exactly 2*patience after the first improvement
        ([1.0] * 11, 5, D, [1.0] * 6 + [0.5] * 5),
        # drop of exactly min_delta is a tie, counts toward the plateau
        ([1.0, 1.0 - D, 1.0 - D, 1.0 - D, 1.0 - D, 1.0 - D, 1.0 - D], 5, D,
         [1.0] * 6 + [0.5]),
        # drop just past min_delta resets the wait counter
        ([1.0, 1.0 - 2 * D, 1.0 - 2 * D, 1.0 - 2 * D, 1.0 - 2 * D, 1.0 - 2 * D, 1.0 - 2 * D], 5, D,
         [1.0] * 7),
        # rebound after reduction improves on the stale best: no second cut
        ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.2, 0.2, 0.2, 0.2], 5, D,
         [1.0] * 6 + [0.5] * 4),
        # improvements below min_delta count toward the plateau
        ([1.0, 1.0 - 5e-5, 1.0 - 6e-5, 1.0 - 6e-5], 2, D, [1.0] * 3 + [0.5]),
    ]
    # (val losses, early-stop patience, min_delta, (stop epoch or None, best epoch))
    stopping_cases = [
        # the worked example: stop at 4, best at 2
        ([1.0, 0.9, 0.95, 0.96, 0.96], 2, D, (4, 2)),
        # monotone decreasing: no stop, best is last
        ([1.0 - 0.05 * i for i in range(8)], 3, D, (None, 8)),
        # immediate flatline with patience 1
        ([0.7, 0.7, 0.7], 1, D, (2, 1)),
        # tie at exactly min_delta never counts as improvement
        ([1.0, 1.0 - D, 1.0 - D, 1.0 - D], 3, D, (4, 2)),
        # recovery before patience runs out
        ([1.0, 0.9, 0.95, 0.8, 0.85, 0.86, 0.87], 3, D, (7, 4)),
        # stop exactly at the horizon
        ([0.5, 0.6, 0.6, 0.6, 0.6, 0.6], 5, D, (6, 1)),
        # the best epoch is the first of equal minima
        ([0.5, 0.4, 0.4, 0.4], 3, D, (None, 2)),
        # min_delta 0: an equal loss is no improvement
        ([1.0, 1.0, 1.0], 2, 0.0, (3, 1)),
    ]

    failed = []
    for losses, patience, min_delta, expected in plateau_cases:
        run = _fit_scripted(monkeypatch, losses, patience, len(losses) + 1, min_delta)
        got = ([r.lr for r in run.history], run.stopped_early, len(run.history), run.best_epoch)
        if got != ([LR0 * e for e in expected], False, len(losses), int(np.argmin(losses)) + 1):
            failed.append(losses)
    for losses, patience, min_delta, (stop, best) in stopping_cases:
        run = _fit_scripted(monkeypatch, losses, len(losses) + 1, patience, min_delta)
        got = ([r.lr for r in run.history], run.stopped_early, len(run.history), run.best_epoch)
        epochs = stop or len(losses)
        if got != ([LR0] * epochs, stop is not None, epochs, best):
            failed.append(losses)

    assert verdict(4, "callback schedules", not failed,
                   f"{len(plateau_cases)} plateau + {len(stopping_cases)} stopping sequences "
                   f"through fit, failed: {failed}")


# ---------------------------------------------------------------------------
# criterion 5: desk-scale training run


def test_criterion_05_desk_scale_training():
    start = time.perf_counter()
    data = generate(GenSpec(counts=(152, 820, 1028), side=32, seed=7))
    data = augment_to_share(data, target_class=0, target_share=0.331, seed=7)
    _, shares = class_distribution(data)
    assert 0.33 <= shares[0] < 0.34
    pool, test = stratified_split(data, 0.2, seed=11, names=("pool", "test"))

    model = build_model(ModelConfig(conv_widths=(8, 16), kernel=3, head_units=256,
                                    dropout_rate=0.2, classes=3, enable_gagm=True,
                                    enable_sevector=True, seed=5))
    config = TrainConfig(learning_rate=1e-4, batch_size=16, max_epochs=30,
                         lambda_fs=0.1, seed=5, val_fraction=0.15)
    run = fit(model, pool, config)

    probs, _ = predict(model, test.images)
    preds = probs.argmax(axis=1)
    stats = classification_report(confusion(test.labels.astype(int), preds, 3))
    elapsed = time.perf_counter() - start

    ok = (len(run.history) <= 30 and stats.accuracy >= 0.95
          and stats.recall_min >= 0.90 and elapsed < 600.0)
    assert verdict(5, "desk-scale training", ok,
                   f"acc {stats.accuracy:.4f}, recall_min {stats.recall_min:.4f}, "
                   f"{len(run.history)} epochs, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 6: pooling-fusion ablation over paired seeds


def test_criterion_06_ablation_direction():
    accs = {"fusion": [], "baseline": []}
    malignant_recall = {"fusion": [], "baseline": []}
    recall_min = {"fusion": [], "baseline": []}
    for seed in range(5):
        data = generate(GenSpec(counts=(60, 160, 180), side=24, seed=100 + seed))
        pool, test = stratified_split(data, 0.2, seed=200 + seed, names=("pool", "test"))
        for arm, enabled in (("fusion", True), ("baseline", False)):
            model = build_model(ModelConfig(conv_widths=(6, 12), head_units=64,
                                            dropout_rate=0.2, enable_gagm=enabled,
                                            enable_sevector=enabled, seed=300 + seed))
            config = TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=12,
                                 lambda_fs=0.1, seed=300 + seed, val_fraction=0.15)
            fit(model, pool, config)
            probs, _ = predict(model, test.images)
            stats = classification_report(confusion(test.labels.astype(int),
                                                    probs.argmax(axis=1), 3))
            accs[arm].append(stats.accuracy)
            malignant_recall[arm].append(stats.recall[2])
            recall_min[arm].append(stats.recall_min)

    acc_delta = float(np.mean(accs["fusion"]) - np.mean(accs["baseline"]))
    mal_delta = float(np.mean(malignant_recall["fusion"]) - np.mean(malignant_recall["baseline"]))
    rmin_delta = float(np.mean(recall_min["fusion"]) - np.mean(recall_min["baseline"]))
    ok = acc_delta >= 0.05 and mal_delta > 0 and rmin_delta > 0
    assert verdict(6, "pooling-fusion ablation", ok,
                   f"acc delta {acc_delta:+.4f}, malignant recall {mal_delta:+.4f}, "
                   f"recall_min {rmin_delta:+.4f}")


# ---------------------------------------------------------------------------
# criterion 7: analytic Grad-CAM fixtures


def _selector_model(sign):
    model = build_model(ModelConfig(conv_widths=(3,), head_units=3, dropout_rate=0.0,
                                    enable_gagm=False, enable_sevector=False, seed=0))
    head = np.zeros((3, 3))
    head[1, 1] = 1.0
    model.params["head/weight"].data = head
    model.params["head/bias"].data = np.zeros(3)
    out = np.zeros((3, 3))
    out[1, 2] = sign
    model.params["out/weight"].data = out
    model.params["out/bias"].data = np.zeros(3)
    return model


def test_criterion_07_grad_cam_fixture():
    rng = np.random.default_rng(7)
    image = rng.uniform(0, 1, (10, 10, 1))

    positive = _selector_model(+1.0)
    cam = grad_cam(positive, image, target_class=2)
    activation = positive.forward(image[None]).captures["conv1_relu"].data[0]
    channel = np.maximum(activation[:, :, 1], 0.0)
    cosine = float(cam.raw.ravel() @ channel.ravel()
                   / (np.linalg.norm(cam.raw) * np.linalg.norm(channel)))

    negative = grad_cam(_selector_model(-1.0), image, target_class=2)
    all_zero = bool(np.all(negative.raw == 0.0) and np.all(negative.upsampled == 0.0))

    ok = abs(cosine - 1.0) <= 1e-6 and all_zero
    assert verdict(7, "grad-cam analytic fixture", ok,
                   f"cosine {cosine:.8f}, negative map zero: {all_zero}")


# ---------------------------------------------------------------------------
# criterion 8: PCA against the covariance eigen-oracle


def test_criterion_08_pca_correctness():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(4, 201))
        d = int(rng.integers(2, 65))
        x = rng.normal(0, rng.uniform(0.3, 4.0), (n, d))
        k = int(min(n - 1, d, rng.integers(1, 7)))
        ours = pca(x, k)
        _, ref_ratios, _ = pca_eigh(x, k)
        worst = max(worst, float(np.max(np.abs(ours.ratios - ref_ratios))))
        ortho = float(np.max(np.abs(ours.components.T @ ours.components - np.eye(k))))
        worst = max(worst, ortho)

    x = rng.normal(0, 2, (80, 6))
    q, _ = np.linalg.qr(rng.normal(0, 1, (6, 6)))
    rotation_gap = float(np.max(np.abs(pca(x @ q, 6).eigenvalues - pca(x, 6).eigenvalues)))

    n = 600
    a = rng.normal(0, 1, n)
    a = (a - a.mean()) / a.std()
    b = rng.normal(0, 1, n)
    b -= (b @ a) / (a @ a) * a
    b = (b - b.mean()) / b.std()
    fixture = pca(np.stack([2 * a, b, np.zeros(n)], axis=1), 3)
    fixture_gap = float(np.max(np.abs(fixture.ratios - np.array([0.8, 0.2, 0.0]))))

    ok = worst <= 1e-9 and rotation_gap <= 1e-9 and fixture_gap <= 1e-9
    assert verdict(8, "pca correctness", ok,
                   f"oracle gap {worst:.1e}, rotation {rotation_gap:.1e}, fixture {fixture_gap:.1e}")


# ---------------------------------------------------------------------------
# criterion 9: bit-identical reruns from a config snapshot


def test_criterion_09_reproducibility(tmp_path):
    data = tmp_path / "d.mids"
    assert main(["gen-data", "--counts", "18,24,30", "--side", "12", "--seed", "5",
                 "--out", str(data)]) == 0
    first = tmp_path / "first"
    assert main(["train", "--data", str(data), "--out", str(first), "--seed", "5",
                 "--conv-widths", "3", "--head-units", "8", "--max-epochs", "3",
                 "--learning-rate", "1e-3", "--batch-size", "8",
                 "--val-fraction", "0.25", "--dropout-rate", "0.1"]) == 0
    second = tmp_path / "second"
    assert main(["train", "--data", str(data), "--out", str(second),
                 "--config", str(first / "config.snapshot")]) == 0

    history_same = (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    ckpt_same = digest(first / "checkpoint.pfnn") == digest(second / "checkpoint.pfnn")
    ok = history_same and ckpt_same
    assert verdict(9, "snapshot reproducibility", ok,
                   f"history identical: {history_same}, checkpoint hash identical: {ckpt_same}")


# ---------------------------------------------------------------------------
# criterion 10: container formats round-trip byte-identically


def test_criterion_10_format_round_trips(tmp_path):
    data = generate(GenSpec(counts=(6, 7, 8), side=11, seed=10))
    first, second = tmp_path / "a.mids", tmp_path / "b.mids"
    write_dataset(first, data)
    write_dataset(second, read_dataset(first))
    mids_ok = first.read_bytes() == second.read_bytes()

    model = build_model(ModelConfig(conv_widths=(2, 3), head_units=5, seed=6))
    ck_first, ck_second = tmp_path / "a.pfnn", tmp_path / "b.pfnn"
    save_checkpoint(ck_first, model.state_arrays())
    save_checkpoint(ck_second, load_checkpoint(ck_first))
    pfnn_ok = ck_first.read_bytes() == ck_second.read_bytes()

    ok = mids_ok and pfnn_ok
    assert verdict(10, "format round-trips", ok,
                   f"MIDS1: {mids_ok}, PFNN1: {pfnn_ok}")
