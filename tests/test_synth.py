import tracemalloc

import numpy as np
import pytest

from landmarklab import smoothing, synth
from landmarklab.losses import MarginKind, MarginSpec, StructuredLossConfig, structured_batch
from landmarklab.metrics import nme
from landmarklab.seeding import derive_seed
from landmarklab.smoothing import (
    SmoothingConfig,
    polyline_segments,
    segment_distance_field,
)
from landmarklab.synth import (
    CENTER_RANGE,
    MAJOR_RANGE,
    RENDER_SIGMA,
    ROTATION_RANGE,
    SynthData,
    TrainConfig,
    TrainingDiverged,
    _ellipse_contour,
    compare_convergence,
    features,
    first_epoch_at_target,
    fit_sample_labels,
    generate_dataset,
    split_dataset,
    train,
)

from reference import LinearScorer, dataset_objective, evaluate_nme, tune_learning_rate

STRUCT_CFG = StructuredLossConfig(
    epsilon=1.0, margin=MarginSpec(kind=MarginKind.SMOOTH_L1, s=0.01, alpha=1.0)
)
# (objective, learning rate, with_smoothing): every training path.
ARMS = [
    ("structured", 0.5, False),
    ("softargmax", 0.1, False),
    ("heatmap_mse", 0.002, False),
    ("structured", 0.5, True),
]


def single_sample(width=16, height=16):
    """One hand-built, noiselessly rendered sample with integer landmarks."""
    contour = _ellipse_contour((8.0, 8.0), 4.0, 3.0, 0.3)
    dist = segment_distance_field(polyline_segments(contour), width, height)
    return SynthData(
        pixels=np.exp(-(dist**2) / (2.0 * RENDER_SIGMA**2))[None],
        points=np.array([[[4.0, 8.0], [12.0, 8.0]]]),
        norm=np.array([8.0]),
        distance=dist[None],
    )


class TestGenerateDataset:
    def test_determinism(self):
        a = generate_dataset(5, 16, 16, 2, 0.05, seed=3)
        b = generate_dataset(5, 16, 16, 2, 0.05, seed=3)
        for name in ("pixels", "points", "norm", "distance"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        c = generate_dataset(5, 16, 16, 2, 0.05, seed=4)
        assert a.pixels[0].tobytes() != c.pixels[0].tobytes()

    def test_landmarks_sit_on_bright_contour(self):
        ds = generate_dataset(10, 24, 24, 3, 0.0, seed=1)
        for pixels, points in zip(ds.pixels, ds.points):
            for u, v in points:
                assert pixels[int(round(v)), int(round(u))] >= 0.9
        # Without noise each image is the rendering of its stored distance field.
        np.testing.assert_array_equal(
            ds.pixels, np.exp(-(ds.distance**2) / (2.0 * RENDER_SIGMA**2))
        )

    def test_pixels_clipped_to_unit_range(self):
        ds = generate_dataset(5, 16, 16, 2, 0.5, seed=2)
        assert ds.pixels.min() >= 0.0 and ds.pixels.max() <= 1.0

    def test_indexing_selects_samples(self):
        ds = generate_dataset(5, 16, 16, 2, 0.05, seed=3)
        picked = ds[np.array([3, 0, 3])]
        assert len(picked) == 3 and len(ds[1:4]) == 3
        for name in ("pixels", "points", "norm", "distance"):
            np.testing.assert_array_equal(getattr(picked, name), getattr(ds, name)[[3, 0, 3]])

    def test_randomization_spread(self):
        # With two landmarks the pair is diametral: |p0 - p1| = 2a and the
        # midpoint is the ellipse center, so the draw ranges are observable.
        size = 24
        ds = generate_dataset(500, size, size, 2, 0.0, seed=5)
        pts = ds.points
        assert np.all((pts >= 0) & (pts <= size - 1))  # landmarks in bounds
        assert np.all(ds.norm > 0)
        np.testing.assert_allclose(ds.norm, np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1))
        semi_major = np.linalg.norm(pts[:, 0] - pts[:, 1], axis=1) / 2.0
        centers = pts.mean(axis=1)
        diffs = pts[:, 0] - pts[:, 1]
        angles = np.arctan2(diffs[:, 1], diffs[:, 0])

        def covers(values, lo, hi, slack=0.10):
            width = hi - lo
            assert values.min() >= lo - 1e-9 and values.max() <= hi + 1e-9
            assert values.min() <= lo + slack * width
            assert values.max() >= hi - slack * width

        covers(semi_major, MAJOR_RANGE[0] * size, MAJOR_RANGE[1] * size)
        covers(centers[:, 0], CENTER_RANGE[0] * size, CENTER_RANGE[1] * size)
        covers(centers[:, 1], CENTER_RANGE[0] * size, CENTER_RANGE[1] * size)
        covers(angles, ROTATION_RANGE[0], ROTATION_RANGE[1])

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            generate_dataset(0, 16, 16, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_dataset(1, 8, 16, 2, 0.0, seed=0)
        with pytest.raises(ValueError):
            generate_dataset(1, 16, 16, 1, 0.0, seed=0)
        with pytest.raises(ValueError, match="noise sigma"):
            generate_dataset(1, 16, 16, 2, -0.5, seed=0)


class TestLinearScorer:
    def test_zero_scorer_predicts_flat_maps(self):
        s = single_sample()
        scorer = LinearScorer.zeros(2, 16, 16)
        scores = scorer.scores(features(s))
        assert scores.shape == (1, 2, 256)
        assert np.all(scores == 0.0)

    def test_predict_matches_manual_matvec(self):
        rng = np.random.default_rng(0)
        s = single_sample()
        scorer = LinearScorer(rng.normal(size=(2, 256, 257)), 16, 16)
        phi = np.concatenate([s.pixels[0].ravel(), [1.0]])
        scores = scorer.scores(features(s))
        np.testing.assert_allclose(scores[0, 1], scorer.weights[1] @ phi, rtol=1e-12)


class TestTrainConfig:
    @pytest.mark.parametrize("sigma", [0.0, -1.5])
    def test_rejects_nonpositive_mse_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            TrainConfig(objective="heatmap_mse", mse_sigma=sigma)


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        ds = generate_dataset(8, 16, 16, 2, 0.02, seed=6)
        cfg = TrainConfig(objective="structured", learning_rate=0.0, epochs=3,
                          batch_size=8, seed=0)
        hist = train(ds[:6], cfg, eval_dataset=ds[6:])
        # Every epoch sees the zero scorer.
        zero = LinearScorer.zeros(2, 16, 16)
        loss, _ = dataset_objective(ds[:6], zero, cfg)
        for stats in hist:
            assert stats.train_loss == pytest.approx(loss, rel=1e-12)
            assert stats.eval_nme == evaluate_nme(zero, ds[6:])

    def test_single_sample_structured_reaches_target_cell(self):
        s = single_sample()
        cfg = TrainConfig(objective="structured", learning_rate=2.0, epochs=60,
                          batch_size=1, seed=0, structured=STRUCT_CFG)
        hist = train(s, cfg, eval_dataset=s)
        assert hist[-1].eval_nme == 0.0

    def test_single_sample_mse_reaches_target_cell(self):
        s = single_sample()
        phi_sq = float(np.concatenate([s.pixels[0].ravel(), [1.0]]) ** 2 @ np.ones(257))
        cfg = TrainConfig(objective="heatmap_mse", learning_rate=0.3 / phi_sq,
                          epochs=40, batch_size=1, seed=0, mse_sigma=1.5)
        hist = train(s, cfg, eval_dataset=s)
        assert hist[-1].eval_nme == 0.0

    def test_deterministic_per_seed(self):
        ds = generate_dataset(12, 16, 16, 2, 0.02, seed=8)
        cfg = TrainConfig(objective="softargmax", learning_rate=0.1, epochs=3,
                          batch_size=4, seed=5)
        hist1 = train(ds[:10], cfg, eval_dataset=ds[10:])
        hist2 = train(ds[:10], cfg, eval_dataset=ds[10:])
        assert [(h.train_loss, h.eval_nme) for h in hist1] == [
            (h.train_loss, h.eval_nme) for h in hist2
        ]

    def test_divergence_is_reported(self):
        s = single_sample()
        cfg = TrainConfig(objective="heatmap_mse", learning_rate=1e12, epochs=40,
                          batch_size=1, seed=0)
        with pytest.raises(TrainingDiverged) as exc:
            train(s, cfg, eval_dataset=s)
        assert exc.value.epoch >= 1

    def test_smoothing_gamma_to_zero_matches_unsmoothed(self):
        ds = generate_dataset(10, 16, 16, 2, 0.02, seed=9)
        plain = TrainConfig(objective="structured", learning_rate=1.0, epochs=3,
                            batch_size=10, seed=0, structured=STRUCT_CFG)
        from dataclasses import replace

        smoothed = replace(
            plain,
            with_smoothing=True,
            smoothing=SmoothingConfig(gamma=1e-15),
        )
        hist_plain = train(ds[:8], plain, eval_dataset=ds[8:])
        hist_smooth = train(ds[:8], smoothed, eval_dataset=ds[8:])
        for a, b in zip(hist_plain, hist_smooth):
            assert abs(a.train_loss - b.train_loss) < 1e-9
            assert abs(a.eval_nme - b.eval_nme) < 1e-9

    @pytest.mark.parametrize("objective, lr, smoothed", ARMS)
    def test_history_independent_of_block_size(self, monkeypatch, objective, lr, smoothed):
        # Batches of 4, 4 and 2 rows, walked one row per block and in one
        # block; weight decay must shrink coef once per batch either way.
        ds = generate_dataset(12, 16, 16, 2, 0.02, seed=19)
        cfg = TrainConfig(objective=objective, learning_rate=lr, weight_decay=0.05,
                          epochs=3, batch_size=4, seed=0, structured=STRUCT_CFG,
                          with_smoothing=smoothed)
        histories = []
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(synth, "BLOCK_BYTES", block_bytes)
            histories.append(train(ds[:10], cfg, eval_dataset=ds[10:]))
        assert histories[0] == histories[1]


class TestDualForm:
    """train descends in dual form from zero; primal descent is the reference."""

    C = 0.05

    def split(self):
        ds = generate_dataset(12, 16, 16, 2, 0.02, seed=19)
        return ds[:10], ds[10:]

    @pytest.mark.parametrize(
        "objective, lr", [("structured", 0.5), ("softargmax", 0.1), ("heatmap_mse", 0.002)]
    )
    def test_full_batch_matches_primal_descent(self, objective, lr):
        self.check_primal_descent(objective, lr, with_smoothing=False)

    def test_smoothed_full_batch_matches_primal_descent(self):
        # Fixed cubature targets: every epoch descends the same objective.
        self.check_primal_descent("structured", 0.5, with_smoothing=True)

    def check_primal_descent(self, objective, lr, with_smoothing):
        train_set, eval_set = self.split()
        cfg = TrainConfig(objective=objective, learning_rate=lr, weight_decay=self.C,
                          epochs=3, batch_size=10, seed=0, structured=STRUCT_CFG,
                          with_smoothing=with_smoothing,
                          smoothing=SmoothingConfig(gamma=4.0))
        hist = train(train_set, cfg, eval_dataset=eval_set)
        primal = LinearScorer.zeros(2, 16, 16)
        for stats in hist:
            value, grad = dataset_objective(train_set, primal, cfg)
            penalty = 0.5 * self.C * float((primal.weights**2).sum())
            assert stats.train_loss == pytest.approx(value - penalty, rel=1e-9)
            primal.weights -= lr * grad
            assert stats.eval_nme == evaluate_nme(primal, eval_set)

    def test_mini_batches_match_primal_loop(self):
        train_set, eval_set = self.split()
        lr, batch = 0.5, 4
        cfg = TrainConfig(objective="structured", learning_rate=lr, weight_decay=self.C,
                          epochs=3, batch_size=batch, seed=0, structured=STRUCT_CFG)
        hist = train(train_set, cfg, eval_dataset=eval_set)

        feats = features(train_set)
        cells = np.clip(np.rint(train_set.points), 0, 15).astype(int)
        primal = LinearScorer.zeros(2, 16, 16)
        rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
        for stats in hist:
            order = rng.permutation(len(train_set))
            epoch_loss = 0.0
            for start in range(0, len(train_set), batch):
                idx = order[start : start + batch]
                xb = feats[idx]
                values, g = structured_batch(primal.scores(xb), cells[idx], (16, 16), STRUCT_CFG)
                epoch_loss += values.sum()
                for n in range(2):
                    w = primal.weights[n]
                    w -= lr * (g[:, n].T @ xb / len(idx) + self.C * w)
            assert stats.train_loss == pytest.approx(epoch_loss / len(train_set), rel=1e-9)
            assert stats.eval_nme == evaluate_nme(primal, eval_set)


class TestWeightGradients:
    @pytest.mark.parametrize("objective", ["structured", "softargmax", "heatmap_mse"])
    def test_matches_finite_differences(self, objective):
        rng = np.random.default_rng(10)
        ds = generate_dataset(3, 16, 16, 2, 0.02, seed=11)
        scorer = LinearScorer(rng.normal(scale=0.01, size=(2, 256, 257)), 16, 16)
        cfg = TrainConfig(objective=objective, learning_rate=1.0, epochs=1,
                          batch_size=3, seed=0, weight_decay=0.01,
                          structured=STRUCT_CFG)
        value, grad = dataset_objective(ds, scorer, cfg)
        assert np.isfinite(value)
        step = 1e-5
        for _ in range(20):
            n = rng.integers(0, 2)
            k = rng.integers(0, 256)
            j = rng.integers(0, 257)
            bumped = LinearScorer(scorer.weights.copy(), 16, 16)
            bumped.weights[n, k, j] += step
            hi, _ = dataset_objective(ds, bumped, cfg)
            bumped.weights[n, k, j] -= 2 * step
            lo, _ = dataset_objective(ds, bumped, cfg)
            fd = (hi - lo) / (2 * step)
            diff = abs(grad[n, k, j] - fd)
            assert diff <= 1e-8 or diff <= 1e-5 * max(abs(fd), abs(grad[n, k, j]))


class TestConvergenceComparison:
    def test_identical_arms_speedup_one(self):
        ds = generate_dataset(30, 16, 16, 2, 0.02, seed=12)
        cfg = TrainConfig(objective="structured", learning_rate=2.0, epochs=6,
                          batch_size=30, seed=0)
        result, hist_a, hist_b = compare_convergence(ds, cfg, cfg, target_nme=0.5)
        assert result.epochs_a == result.epochs_b
        assert result.speedup == 1.0
        assert [h.eval_nme for h in hist_a] == [h.eval_nme for h in hist_b]

    def test_unreachable_target_flags_undefined(self):
        ds = generate_dataset(20, 16, 16, 2, 0.02, seed=13)
        cfg = TrainConfig(objective="structured", learning_rate=0.5, epochs=2,
                          batch_size=20, seed=0)
        result, _, _ = compare_convergence(ds, cfg, cfg, target_nme=1e-12)
        assert result.epochs_a is None and result.epochs_b is None
        assert result.speedup is None

    def test_structured_beats_softargmax_small_bench(self):
        ds = generate_dataset(60, 16, 16, 2, 0.02, seed=14)
        cfg_a = TrainConfig(objective="structured", learning_rate=2.0, epochs=6,
                            batch_size=60, seed=0)
        cfg_b = TrainConfig(objective="softargmax", learning_rate=0.2, epochs=25,
                            batch_size=60, seed=0)
        result, _, _ = compare_convergence(ds, cfg_a, cfg_b, target_nme=0.4)
        assert result.epochs_a is not None and result.epochs_b is not None
        assert result.epochs_a < result.epochs_b
        assert result.speedup > 1.0

    def test_holds_no_weight_tensor(self):
        # The [N, H*W, H*W + 1] weights on this grid take 3 * 1024 * 1025
        # * 8 B (about 24 MB); training keeps [S, N*H*W] coefficients.
        ds = generate_dataset(20, 32, 32, 3, 0.02, seed=21)
        cfg_a = TrainConfig(objective="structured", epochs=2, batch_size=20, seed=0)
        cfg_b = TrainConfig(objective="softargmax", learning_rate=0.2, epochs=2,
                            batch_size=20, seed=0)
        tracemalloc.start()
        try:
            compare_convergence(ds, cfg_a, cfg_b, target_nme=0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1024 * 1025 * 8

    @pytest.mark.parametrize("objective, lr, smoothed", ARMS)
    def test_peak_memory_in_score_slabs(self, objective, lr, smoothed):
        # A slab is one batch of score rows [B, N*H*W]; coef takes one more,
        # and the MSE targets a third.  Scoring into buffers allocated once
        # peaks at 2.5-2.7 slabs (3.6 for MSE); a fresh score array per
        # epoch peaked at 3.9-4.0 (4.9 for MSE), and batch-sized
        # temporaries in the loss and update at 5.7 (structured), 6.8
        # (soft-argmax and smoothed) and 7.7 (MSE).
        ds = generate_dataset(130, 32, 32, 3, 0.02, seed=22)
        train_set, eval_set = split_dataset(ds)
        assert len(train_set) > 100
        cfg = TrainConfig(objective=objective, learning_rate=lr, epochs=2,
                          batch_size=len(train_set), seed=0,
                          with_smoothing=smoothed)
        tracemalloc.start()
        try:
            train(train_set, cfg, eval_dataset=eval_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.4 * len(train_set) * 3 * 32 * 32 * 8

    def test_working_set_does_not_grow_with_epochs(self):
        # The synth-default shape on the soft-argmax arm: 80 train rows in
        # one batch, so coef and the batch's score buffer take 1.97 MB
        # each.  Beyond those and the eval scores, only the Gram matrices
        # and block temporaries come and go: 5.2 MB in all, where a fresh
        # score array per epoch and five temporaries per block peaked at
        # 7.75 MB.
        ds = generate_dataset(100, 32, 32, 3, 0.02, seed=1)
        train_set, eval_set = split_dataset(ds)
        cfg = TrainConfig(objective="softargmax", learning_rate=0.2, epochs=3, seed=0)
        coef_bytes = len(train_set) * 3 * 32 * 32 * 8
        eval_bytes = len(eval_set) * 3 * 32 * 32 * 8
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            train(train_set, cfg, eval_dataset=eval_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - entry < 2 * coef_bytes + eval_bytes + 2**20

    def test_mismatched_seeds_rejected(self):
        ds = generate_dataset(10, 16, 16, 2, 0.02, seed=15)
        a = TrainConfig(objective="structured", seed=0)
        b = TrainConfig(objective="softargmax", seed=1)
        with pytest.raises(ValueError):
            compare_convergence(ds, a, b, target_nme=0.5)

    def test_first_epoch_helper(self):
        from landmarklab.synth import EpochStats

        hist = [EpochStats(1, 1.0, 0.5), EpochStats(2, 0.5, 0.2), EpochStats(3, 0.4, 0.25)]
        assert first_epoch_at_target(hist, 0.3) == 2
        assert first_epoch_at_target(hist, 0.1) is None


class TestLearningRateTuning:
    def test_picks_reasonable_rate(self):
        ds = generate_dataset(40, 16, 16, 2, 0.02, seed=16)
        cfg = TrainConfig(objective="structured", epochs=3, batch_size=40, seed=0)
        lr = tune_learning_rate(ds, cfg, [1e-6, 2.0], 0.30, probe_epochs=3, probe_samples=30)
        assert lr == 2.0

    def test_all_rates_diverging_raises(self):
        ds = single_sample()[np.zeros(6, dtype=int)]
        cfg = TrainConfig(objective="heatmap_mse", epochs=2, batch_size=6, seed=0)
        with pytest.raises(TrainingDiverged):
            tune_learning_rate(ds, cfg, [1e14], 0.30, probe_epochs=30, probe_samples=None)


class TestSmoothedLabels:
    def test_labels_follow_contour_direction(self):
        # Landmark 0 sits on the rightmost contour point of an axis-aligned
        # ellipse, where the boundary runs vertically.
        contour = _ellipse_contour((8.0, 8.0), 5.0, 3.0, 0.0)
        dist = segment_distance_field(polyline_segments(contour), 16, 16)
        points = np.array([[13.0, 8.0], [3.0, 8.0]])
        covs = fit_sample_labels(dist, points, SmoothingConfig(patch_half=4))
        assert covs.shape == (2, 2, 2)
        assert np.linalg.eigvalsh(covs).min() > 0
        cov = covs[0]
        assert cov[1, 1] > cov[0, 0]  # spread along v (the edge direction)

    def test_targets_follow_the_sample_not_the_batch(self, monkeypatch):
        # At learning rate 0 the scores stay zero, so an epoch's train loss
        # depends on the target cells alone.  At gamma = 4 a label's
        # standard deviation is a few pixels, so its cells leave the
        # landmark's cell.
        ds = generate_dataset(12, 16, 16, 2, 0.02, seed=19)
        names = []

        def recorded(seed, name):
            names.append(name)
            return derive_seed(seed, name)

        def no_draws(*args):
            raise AssertionError("train drew random target cells")

        monkeypatch.setattr(synth, "derive_seed", recorded)
        monkeypatch.setattr(smoothing, "sample_label", no_draws)
        assert not hasattr(synth, "sample_label")
        losses = []
        for batch in (1, 3, 10):
            cfg = TrainConfig(objective="structured", learning_rate=0.0, epochs=2,
                              batch_size=batch, seed=0, structured=STRUCT_CFG,
                              with_smoothing=True, smoothing=SmoothingConfig(gamma=4.0))
            losses.append([h.train_loss for h in train(ds[:10], cfg, eval_dataset=ds[10:])])
        assert losses[0] == losses[1] == losses[2]
        # The targets do not change between epochs; only the summation order does.
        assert losses[0][1] == pytest.approx(losses[0][0], rel=1e-12)
        # The shuffle is the only random stream train draws from.
        assert names == ["shuffle"] * 3

    def test_training_reuses_stored_distance_fields(self, monkeypatch):
        ds = generate_dataset(10, 16, 16, 2, 0.02, seed=9)

        def recompute(*args, **kwargs):
            raise AssertionError("contour distance field computed again")

        monkeypatch.setattr(synth, "segment_distance_field", recompute)
        cfg = TrainConfig(objective="structured", epochs=1, batch_size=10, seed=0,
                          with_smoothing=True)
        assert len(train(ds[:8], cfg, eval_dataset=ds[8:])) == 1


class TestEvaluateNme:
    def test_perfect_scorer_scores_zero(self):
        s = single_sample()
        scorer = LinearScorer.zeros(2, 16, 16)
        # Bias channel alone puts the peak on each true cell.
        for n, (u, v) in enumerate(s.points[0]):
            scorer.weights[n, int(v) * 16 + int(u), -1] = 1.0
        assert evaluate_nme(scorer, s) == 0.0

    def test_matches_per_sample_metric(self):
        ds = generate_dataset(12, 16, 16, 3, 0.02, seed=20)
        scorer = LinearScorer(np.random.default_rng(1).normal(size=(3, 256, 257)), 16, 16)
        cells = scorer.scores(features(ds)).argmax(axis=-1)
        per_sample = [
            nme(np.stack([c % 16, c // 16], axis=-1), p, d)
            for c, p, d in zip(cells, ds.points, ds.norm)
        ]
        assert evaluate_nme(scorer, ds) == np.mean(per_sample)

    def test_split_dataset_shapes(self):
        ds = generate_dataset(10, 16, 16, 2, 0.0, seed=18)
        tr, ev = split_dataset(ds)
        assert len(tr) == 8 and len(ev) == 2
        with pytest.raises(ValueError):
            split_dataset(ds[:1])
