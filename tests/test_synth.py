import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from landmarklab import synth
from landmarklab.losses import StructuredLossConfig, structured_batch
from landmarklab.metrics import nme
from landmarklab.seeding import derive_seed
from landmarklab.smoothing import (
    SmoothingConfig,
    edge_heatmap,
    fit_gaussian_label,
    polyline_segments,
    refine_edge_heatmap,
    segment_distance_field,
)
from landmarklab.synth import (
    CENTER_RANGE,
    MAJOR_RANGE,
    RENDER_SIGMA,
    ROTATION_RANGE,
    SynthConfig,
    SynthData,
    TrainingDiverged,
    _ellipse_contour,
    compare_convergence,
    features,
    generate_dataset,
    prepare,
    split_dataset,
    train,
)

import reference
from reference import LinearScorer, dataset_objective, evaluate_nme, tune_learning_rate

STRUCT_CFG = StructuredLossConfig(
    epsilon=1.0, margin="smooth_l1", margin_s=0.01, margin_alpha=1.0
)
# (objective, learning rate, with_smoothing): every training path.  A
# smoothed arm trains on data that carries its labels' covariances.
ARMS = [
    ("structured", 0.5, False),
    ("softargmax", 0.1, False),
    ("heatmap_mse", 0.002, False),
    ("structured", 0.5, True),
]


def arm_a(objective, lr, epochs, **keys):
    """A ``[synth]`` config whose arm a trains ``objective`` at rate ``lr``
    for ``epochs``, with the other keys at their defaults or in ``keys``."""
    return SynthConfig(objective_a=objective, lr_a=lr, epochs_a=epochs, **keys)


def dataset(samples, width, height, landmarks, noise_sigma, seed, **keys):
    """``generate_dataset`` of the ``[synth]`` config with these keys."""
    synth = SynthConfig(samples=samples, width=width, height=height,
                        landmarks=landmarks, noise_sigma=noise_sigma, **keys)
    return generate_dataset(synth, seed)


def single_sample(width=16, height=16):
    """One hand-built, noiselessly rendered sample with integer landmarks."""
    contour = _ellipse_contour((8.0, 8.0), 4.0, 3.0, 0.3)
    dist = segment_distance_field(polyline_segments(contour), width, height)
    return SynthData(
        pixels=np.exp(-(dist**2) / (2.0 * RENDER_SIGMA**2))[None],
        points=np.array([[[4.0, 8.0], [12.0, 8.0]]]),
        norm=np.array([8.0]),
        covs=None,
    )


def reference_covs(distance, points, gamma=SmoothingConfig.gamma):
    """The label covariances fitted from distance fields [S, H, W] at gamma."""
    scfg = SmoothingConfig(gamma=gamma)
    return fit_gaussian_label(refine_edge_heatmap(edge_heatmap(distance, scfg.sigma_b), scfg),
                              points, scfg)


class TestGenerateDataset:
    def test_determinism(self):
        a = dataset(5, 16, 16, 2, 0.05, seed=3, with_smoothing=True)
        b = dataset(5, 16, 16, 2, 0.05, seed=3, with_smoothing=True)
        for name in ("pixels", "points", "norm", "covs"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        c = dataset(5, 16, 16, 2, 0.05, seed=4)
        assert a.pixels[0].tobytes() != c.pixels[0].tobytes()

    def test_landmarks_sit_on_bright_contour(self):
        ds = dataset(10, 24, 24, 3, 0.0, seed=1)
        _, distance = reference.generate_dataset(10, 24, 24, 3, 0.0, seed=1)
        for pixels, points in zip(ds.pixels, ds.points):
            for u, v in points:
                assert pixels[int(round(v)), int(round(u))] >= 0.9
        # Without noise each image is the rendering of its contour's distance field.
        np.testing.assert_array_equal(
            ds.pixels, np.exp(-(distance**2) / (2.0 * RENDER_SIGMA**2))
        )

    @pytest.mark.parametrize("args", [
        (5, 16, 16, 2, 0.05, 3), (7, 20, 13, 4, 0.0, 1), (3, 32, 32, 3, 0.02, 0),
        (4, 12, 17, 5, 0.5, 11),
    ])
    def test_matches_per_sample_reference_bit_for_bit(self, args):
        # Array-level contours and landmarks, noise drawn into the pixels,
        # and labels fitted from the reference's distance fields.
        found = dataset(*args, with_smoothing=True)
        expected, distance = reference.generate_dataset(*args)
        expected = replace(expected, covs=reference_covs(distance, expected.points))
        for name in ("pixels", "points", "norm", "covs"):
            a, b = getattr(found, name), getattr(expected, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_pixels_clipped_to_unit_range(self):
        ds = dataset(5, 16, 16, 2, 0.5, seed=2)
        assert ds.pixels.min() >= 0.0 and ds.pixels.max() <= 1.0

    def test_indexing_selects_samples(self):
        ds = dataset(5, 16, 16, 2, 0.05, seed=3, with_smoothing=True)
        picked = ds[np.array([3, 0, 3])]
        assert len(picked) == 3 and len(ds[1:4]) == 3
        for name in ("pixels", "points", "norm", "covs"):
            np.testing.assert_array_equal(getattr(picked, name), getattr(ds, name)[[3, 0, 3]])
        # Without smoothing there are no labels to select.
        assert dataset(5, 16, 16, 2, 0.05, seed=3)[np.array([3, 0, 3])].covs is None

    def test_randomization_spread(self):
        # With two landmarks the pair is diametral: |p0 - p1| = 2a and the
        # midpoint is the ellipse center, so the draw ranges are observable.
        size = 24
        ds = dataset(500, size, size, 2, 0.0, seed=5)
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
        # SynthConfig checks the keys in this order, so of several bad keys
        # the first row's is named.
        for keys, message in [
            ({"samples": 0}, "samples must be at least 2"),
            ({"width": 8, "landmarks": 1}, "width must be at least 12, got 8"),
            ({"height": 11}, "height must be at least 12, got 11"),
            ({"landmarks": 1, "noise_sigma": -0.5}, "landmarks must be at least 2, got 1"),
            ({"noise_sigma": -0.5}, "noise_sigma must be nonnegative, got -0.5"),
        ]:
            with pytest.raises(ValueError, match=message):
                SynthConfig(**{"samples": 2, "width": 16, "height": 16, **keys})


def usable_cpus(monkeypatch, n):
    """Make generate_dataset see n usable CPUs: its helper thread renders
    half of the fields only when n is at least 2."""
    monkeypatch.setattr(synth.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def fields_replaced(monkeypatch, n_samples, size, replace):
    """Patch synth.segment_distance_field so that the field of sample i of
    n_samples is ``replace[i](segments, w, h)`` for each key i of
    ``replace``, swapped in after the real batched call.  The helper
    thread renders the last sample, the caller the first."""
    calls = []
    monkeypatch.setattr(synth, "segment_distance_field", lambda segs, w, h, out=None: (
        calls.extend(segs) or segment_distance_field(segs, w, h, out=out)))
    usable_cpus(monkeypatch, 1)
    dataset(n_samples, size, size, 2, 0.02, seed=4)
    assert len(calls) == n_samples
    replaced = [(calls[i], fn) for i, fn in replace.items()]

    def patched(segs, w, h, out=None):
        fields = segment_distance_field(segs, w, h, out=out)
        for i, one in enumerate(segs):
            for known, fn in replaced:
                if np.array_equal(one, known):
                    fields[i] = fn(one, w, h)
        return fields

    monkeypatch.setattr(synth, "segment_distance_field", patched)


class TestGenerateDatasetThreads:
    @pytest.mark.parametrize("n_samples", [2, 3, 17])
    @pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
    @pytest.mark.parametrize("size", [16, 32])
    def test_helper_thread_changes_no_bit(self, monkeypatch, n_samples, noise_sigma, size):
        threads = []  # one thread id per field rendered
        monkeypatch.setattr(synth, "segment_distance_field", lambda segs, w, h, out=None: (
            threads.extend([threading.get_ident()] * len(segs))
            or segment_distance_field(segs, w, h, out=out)))
        runs = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            threads.clear()
            runs[cpus] = dataset(n_samples, size, size, 3, noise_sigma, seed=n_samples,
                                 with_smoothing=True)
            assert len(threads) == n_samples
            assert len(set(threads)) == cpus
        for name in ("pixels", "points", "norm", "covs"):
            a, b = getattr(runs[2], name), getattr(runs[1], name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        def fail(segs, w, h):
            raise ZeroDivisionError("the last sample's field")

        fields_replaced(monkeypatch, 5, 16, {-1: fail})
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="^the last sample's field$"):
            dataset(5, 16, 16, 2, 0.02, seed=4)
        assert threading.active_count() == before

    def test_helper_is_joined_when_the_caller_raises(self, monkeypatch):
        def fail(segs, w, h):
            raise ZeroDivisionError("the first sample's field")

        def slow(segs, w, h):
            time.sleep(0.1)
            return segment_distance_field(segs, w, h)

        fields_replaced(monkeypatch, 2, 16, {0: fail, 1: slow})
        usable_cpus(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match="^the first sample's field$"):
            dataset(2, 16, 16, 2, 0.02, seed=4)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_helper_keeps_the_callers_error_state(self, monkeypatch, cpus):
        # A field of 1e3 everywhere underflows exp; the real 16x16 fields do not.
        fields_replaced(monkeypatch, 4, 16, {-1: lambda segs, w, h: np.full((h, w), 1e3)})
        usable_cpus(monkeypatch, cpus)
        dataset(4, 16, 16, 2, 0.02, seed=4)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            dataset(4, 16, 16, 2, 0.02, seed=4)


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


class TestSynthConfig:
    @pytest.mark.parametrize("sigma", [0.0, -1.5])
    def test_rejects_nonpositive_mse_sigma(self, sigma):
        # Checked whichever objective the arms train.
        with pytest.raises(ValueError, match=rf"^mse_sigma must be positive, got {sigma}$"):
            SynthConfig(objective_b="heatmap_mse", mse_sigma=sigma)
        with pytest.raises(ValueError, match=rf"^mse_sigma must be positive, got {sigma}$"):
            SynthConfig(mse_sigma=sigma)

    def test_replaced_config_is_checked_like_a_section(self):
        # A sweep row varies a config with replace, which runs the same
        # checks as a [synth] section.
        with pytest.raises(ValueError, match=r"^lr_a must be nonnegative, got -1\.0$"):
            replace(SynthConfig(), lr_a=-1.0)


class TestTrain:
    def test_zero_learning_rate_is_noop(self):
        ds = dataset(8, 16, 16, 2, 0.02, seed=6)
        cfg = arm_a("structured", 0.0, 3, batch_size=8)
        train_loss, eval_nme = train(prepare(ds[:6], ds[6:]), cfg, "a", 0)
        # Every epoch sees the zero scorer.
        zero = LinearScorer.zeros(2, 16, 16)
        loss, _ = dataset_objective(ds[:6], zero, cfg, "a")
        assert train_loss == pytest.approx([loss] * 3, rel=1e-12)
        assert (eval_nme == evaluate_nme(zero, ds[6:])).all()

    def test_single_sample_structured_reaches_target_cell(self):
        s = single_sample()
        cfg = arm_a("structured", 2.0, 60, batch_size=1, structured=STRUCT_CFG)
        _, eval_nme = train(prepare(s, s), cfg, "a", 0)
        assert eval_nme[-1] == 0.0

    def test_single_sample_mse_reaches_target_cell(self):
        s = single_sample()
        phi_sq = float(np.concatenate([s.pixels[0].ravel(), [1.0]]) ** 2 @ np.ones(257))
        cfg = arm_a("heatmap_mse", 0.3 / phi_sq, 40, batch_size=1, mse_sigma=1.5)
        _, eval_nme = train(prepare(s, s), cfg, "a", 0)
        assert eval_nme[-1] == 0.0

    def test_deterministic_per_seed(self):
        ds = dataset(12, 16, 16, 2, 0.02, seed=8)
        cfg = arm_a("softargmax", 0.1, 3, batch_size=4)
        problem = prepare(ds[:10], ds[10:])
        hist1 = train(problem, cfg, "a", 5)
        hist2 = train(problem, cfg, "a", 5)
        np.testing.assert_array_equal(hist1, hist2)

    def test_divergence_is_reported(self):
        s = single_sample()
        cfg = arm_a("heatmap_mse", 1e12, 40, batch_size=1)
        with pytest.raises(TrainingDiverged) as exc:
            train(prepare(s, s), cfg, "a", 0)
        assert exc.value.epoch >= 1

    def test_smoothing_gamma_to_zero_matches_unsmoothed(self):
        ds = dataset(10, 16, 16, 2, 0.02, seed=9)
        smoothed = dataset(10, 16, 16, 2, 0.02, seed=9, with_smoothing=True, gamma=1e-15)
        cfg = arm_a("structured", 1.0, 3, batch_size=10, structured=STRUCT_CFG)
        hist_plain = train(prepare(ds[:8], ds[8:]), cfg, "a", 0)
        hist_smooth = train(prepare(smoothed[:8], smoothed[8:]), cfg, "a", 0)
        for a, b in zip(hist_plain, hist_smooth):  # train losses, then eval NMEs
            assert (abs(a - b) < 1e-9).all()

    @pytest.mark.parametrize("objective, lr, smoothed", ARMS)
    def test_history_independent_of_block_size(self, monkeypatch, objective, lr, smoothed):
        # Batches of 4, 4 and 2 rows, walked one row per block and in one
        # block; weight decay must shrink coef once per batch either way.
        ds = dataset(12, 16, 16, 2, 0.02, seed=19, with_smoothing=smoothed)
        cfg = arm_a(objective, lr, 3, weight_decay=0.05, batch_size=4, structured=STRUCT_CFG)
        problem = prepare(ds[:10], ds[10:])
        histories = []
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(synth, "BLOCK_BYTES", block_bytes)
            histories.append(train(problem, cfg, "a", 0))
        np.testing.assert_array_equal(histories[0], histories[1])


class TestDualForm:
    """train descends in dual form from zero; primal descent is the reference."""

    C = 0.05

    def split(self, **keys):
        ds = dataset(12, 16, 16, 2, 0.02, seed=19, **keys)
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
        train_set, eval_set = self.split(with_smoothing=with_smoothing, gamma=4.0)
        cfg = arm_a(objective, lr, 3, weight_decay=self.C, batch_size=10, structured=STRUCT_CFG)
        hist = train(prepare(train_set, eval_set), cfg, "a", 0)
        primal = LinearScorer.zeros(2, 16, 16)
        for train_loss, eval_nme in zip(*hist):
            value, grad = dataset_objective(train_set, primal, cfg, "a")
            penalty = 0.5 * self.C * float((primal.weights**2).sum())
            assert train_loss == pytest.approx(value - penalty, rel=1e-9)
            primal.weights -= lr * grad
            assert eval_nme == evaluate_nme(primal, eval_set)

    def test_mini_batches_match_primal_loop(self):
        self.check_mini_batches(4)

    def test_batch_smaller_than_eval_split_matches_primal_loop(self):
        # One train row per batch against two held-out rows: the shared
        # score buffer must be sized for the evaluation.
        self.check_mini_batches(1)

    def check_mini_batches(self, batch):
        train_set, eval_set = self.split()
        lr = 0.5
        cfg = arm_a("structured", lr, 3, weight_decay=self.C, batch_size=batch,
                    structured=STRUCT_CFG)
        hist = train(prepare(train_set, eval_set), cfg, "a", 0)

        feats = features(train_set)
        cells = np.clip(np.rint(train_set.points), 0, 15).astype(int)
        primal = LinearScorer.zeros(2, 16, 16)
        rng = np.random.default_rng(derive_seed(0, "shuffle"))
        for train_loss, eval_nme in zip(*hist):
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
            assert train_loss == pytest.approx(epoch_loss / len(train_set), rel=1e-9)
            assert eval_nme == evaluate_nme(primal, eval_set)


class TestWeightGradients:
    @pytest.mark.parametrize("objective", ["structured", "softargmax", "heatmap_mse"])
    def test_matches_finite_differences(self, objective):
        rng = np.random.default_rng(10)
        ds = dataset(3, 16, 16, 2, 0.02, seed=11)
        scorer = LinearScorer(rng.normal(scale=0.01, size=(2, 256, 257)), 16, 16)
        cfg = arm_a(objective, 1.0, 1, weight_decay=0.01, batch_size=3, structured=STRUCT_CFG)
        value, grad = dataset_objective(ds, scorer, cfg, "a")
        assert np.isfinite(value)
        step = 1e-5
        for _ in range(20):
            n = rng.integers(0, 2)
            k = rng.integers(0, 256)
            j = rng.integers(0, 257)
            bumped = LinearScorer(scorer.weights.copy(), 16, 16)
            bumped.weights[n, k, j] += step
            hi, _ = dataset_objective(ds, bumped, cfg, "a")
            bumped.weights[n, k, j] -= 2 * step
            lo, _ = dataset_objective(ds, bumped, cfg, "a")
            fd = (hi - lo) / (2 * step)
            diff = abs(grad[n, k, j] - fd)
            assert diff <= 1e-8 or diff <= 1e-5 * max(abs(fd), abs(grad[n, k, j]))


def compared(ds, synth):
    """compare_convergence's arms at seed 0, after checking that each arm's
    epochs are the first row of its eval NMEs at or below the target, and
    that its history arrays are float64 [epochs]."""
    arms = compare_convergence(prepare(*split_dataset(ds)), synth, 0)
    for (epochs, train_loss, eval_nme), length in zip(arms, (synth.epochs_a, synth.epochs_b)):
        for history in (train_loss, eval_nme):
            assert history.dtype == np.float64 and history.shape == (length,)
        reached = [e for e, v in enumerate(eval_nme.tolist(), 1) if v <= synth.target_nme]
        assert epochs == (reached[0] if reached else None)
    return arms


class TestConvergenceComparison:
    def test_identical_arms_speedup_one(self):
        ds = dataset(30, 16, 16, 2, 0.02, seed=12)
        synth = SynthConfig(target_nme=0.5, batch_size=30, objective_a="structured", lr_a=2.0,
                            epochs_a=6, objective_b="structured", lr_b=2.0, epochs_b=6)
        (epochs_a, *hist_a), (epochs_b, *hist_b) = compared(ds, synth)
        assert epochs_a is not None and epochs_a == epochs_b
        np.testing.assert_array_equal(hist_a, hist_b)

    def test_unreachable_target_flags_undefined(self):
        ds = dataset(20, 16, 16, 2, 0.02, seed=13)
        synth = SynthConfig(target_nme=1e-12, batch_size=20, objective_a="structured",
                            lr_a=0.5, epochs_a=2, objective_b="structured", lr_b=0.5, epochs_b=2)
        assert [epochs for epochs, _, _ in compared(ds, synth)] == [None, None]

    def test_structured_beats_softargmax_small_bench(self):
        ds = dataset(60, 16, 16, 2, 0.02, seed=14)
        synth = SynthConfig(target_nme=0.4, batch_size=60, objective_a="structured", lr_a=2.0,
                            epochs_a=6, objective_b="softargmax", lr_b=0.2, epochs_b=25)
        (epochs_a, _, _), (epochs_b, _, _) = compared(ds, synth)
        assert epochs_a is not None and epochs_b is not None
        assert epochs_a < epochs_b

    def test_one_comparison_builds_one_gram_pair(self, monkeypatch):
        # Both arms share the problem's Gram matrices: the train and the
        # held-out features are formed once each, and never inside train.
        ds = dataset(20, 16, 16, 2, 0.02, seed=12)
        cfg = SynthConfig(batch_size=16, epochs_a=1, epochs_b=1)
        calls, training = [], []

        def counted(data):
            calls.append(bool(training))
            return features(data)

        def traced(*args, **kwargs):
            training.append(True)
            try:
                return train(*args, **kwargs)
            finally:
                training.pop()

        monkeypatch.setattr(synth, "features", counted)
        monkeypatch.setattr(synth, "train", traced)
        compare_convergence(prepare(*split_dataset(ds)), cfg, 0)
        assert calls == [False, False]

    def test_holds_no_weight_tensor(self):
        # The [N, H*W, H*W + 1] weights on this grid take 3 * 1024 * 1025
        # * 8 B (about 24 MB); training keeps [S, N*H*W] coefficients.
        ds = dataset(20, 32, 32, 3, 0.02, seed=21)
        synth = SynthConfig(batch_size=20, objective_a="structured", lr_a=1.0, epochs_a=2,
                            objective_b="softargmax", lr_b=0.2, epochs_b=2)
        tracemalloc.start()
        try:
            compare_convergence(prepare(*split_dataset(ds)), synth, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 1024 * 1025 * 8

    @pytest.mark.parametrize("objective, lr, smoothed", ARMS)
    def test_peak_memory_in_score_slabs(self, objective, lr, smoothed):
        # A slab is one batch of score rows [B, N*H*W]; coef takes one more,
        # and the MSE targets a third.  Scoring into buffers allocated once
        # peaks at 2.2-2.3 slabs (3.3 for MSE) with the Gram matrices built
        # beforehand by prepare; a fresh score array per
        # epoch peaked at 3.9-4.0 (4.9 for MSE), and batch-sized
        # temporaries in the loss and update at 5.7 (structured), 6.8
        # (soft-argmax and smoothed) and 7.7 (MSE).
        ds = dataset(130, 32, 32, 3, 0.02, seed=22, with_smoothing=smoothed)
        train_set, eval_set = split_dataset(ds)
        assert len(train_set) > 100
        cfg = arm_a(objective, lr, 2, batch_size=len(train_set))
        problem = prepare(train_set, eval_set)
        tracemalloc.start()
        try:
            train(problem, cfg, "a", 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.4 * len(train_set) * 3 * 32 * 32 * 8

    def test_working_set_does_not_grow_with_epochs(self):
        # The synth-default shape on the soft-argmax arm: 80 train rows in
        # one batch, so coef and the score buffer, which the eval scores
        # share, take 1.97 MB each.  Beyond those only block temporaries
        # come and go (the Gram matrices come with the problem), where a
        # fresh score array per epoch and five temporaries per block
        # peaked at 7.75 MB.
        ds = dataset(100, 32, 32, 3, 0.02, seed=1)
        problem = prepare(*split_dataset(ds))
        cfg = arm_a("softargmax", 0.2, 3)
        coef_bytes = len(problem.points) * 3 * 32 * 32 * 8
        tracemalloc.start()
        try:
            entry, _ = tracemalloc.get_traced_memory()
            train(problem, cfg, "a", 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - entry < 2 * coef_bytes + 2**20


class TestLearningRateTuning:
    def test_picks_reasonable_rate(self):
        ds = dataset(40, 16, 16, 2, 0.02, seed=16)
        lr = tune_learning_rate(ds, SynthConfig(batch_size=40), "a", [1e-6, 2.0], 0.30,
                                probe_epochs=3, probe_samples=30)
        assert lr == 2.0

    def test_all_rates_diverging_raises(self):
        ds = single_sample()[np.zeros(6, dtype=int)]
        cfg = SynthConfig(objective_a="heatmap_mse", batch_size=6)
        with pytest.raises(TrainingDiverged):
            tune_learning_rate(ds, cfg, "a", [1e14], 0.30, probe_epochs=30, probe_samples=None)


class TestSmoothedLabels:
    def test_labels_follow_contour_direction(self):
        # Landmark 0 sits on the rightmost contour point of an axis-aligned
        # ellipse, where the boundary runs vertically.
        contour = _ellipse_contour((8.0, 8.0), 5.0, 3.0, 0.0)
        dist = segment_distance_field(polyline_segments(contour), 16, 16)
        points = np.array([[13.0, 8.0], [3.0, 8.0]])
        scfg = SmoothingConfig(patch_half=4)
        covs = fit_gaussian_label(refine_edge_heatmap(edge_heatmap(dist, scfg.sigma_b), scfg),
                                  points, scfg)
        assert covs.shape == (2, 2, 2)
        assert np.linalg.eigvalsh(covs).min() > 0
        cov = covs[0]
        assert cov[1, 1] > cov[0, 0]  # spread along v (the edge direction)

    def test_targets_follow_the_sample_not_the_batch(self, monkeypatch):
        # At learning rate 0 the scores stay zero, so an epoch's train loss
        # depends on the target cells alone.  At gamma = 4 a label's
        # standard deviation is a few pixels, so its cells leave the
        # landmark's cell.
        ds = dataset(12, 16, 16, 2, 0.02, seed=19, with_smoothing=True, gamma=4.0)
        names = []

        def recorded(seed, name):
            names.append(name)
            return derive_seed(seed, name)

        monkeypatch.setattr(synth, "derive_seed", recorded)
        problem = prepare(ds[:10], ds[10:])
        losses = []
        for batch in (1, 3, 10):
            cfg = arm_a("structured", 0.0, 2, batch_size=batch, structured=STRUCT_CFG)
            losses.append(train(problem, cfg, "a", 0)[0].tolist())
        assert losses[0] == losses[1] == losses[2]
        # The targets do not change between epochs; only the summation order does.
        assert losses[0][1] == pytest.approx(losses[0][0], rel=1e-12)
        # The shuffle is the only random stream train draws from.
        assert names == ["shuffle"] * 3

    # The smoothed golden shapes: synth-smoothed-mse at seed 1 and
    # smoothed-minibatch at seed 3.
    @pytest.mark.parametrize("samples, size, seed", [(20, 32, 1), (24, 16, 3)])
    @pytest.mark.parametrize("gamma", [0.01, 4.0])
    def test_stack_fit_equals_train_split_fit(self, samples, size, seed, gamma):
        # Each sample's label depends on its own edge map alone, so fitting
        # every rendered sample at once changes no bit of the train rows'.
        seed = derive_seed(seed, "synth")
        train_set, _ = split_dataset(dataset(samples, size, size, 3, 0.02, seed,
                                             with_smoothing=True, gamma=gamma))
        _, distance = reference.generate_dataset(samples, size, size, 3, 0.02, seed)
        expected = reference_covs(distance[: len(train_set)], train_set.points, gamma)
        assert train_set.covs.tobytes() == expected.tobytes()

    def test_training_fits_no_labels(self, monkeypatch):
        # The labels come fitted with the dataset: training renders no
        # distance field and fits no covariance.
        ds = dataset(10, 16, 16, 2, 0.02, seed=9, with_smoothing=True)

        def refit(*args, **kwargs):
            raise AssertionError("labels fitted again")

        monkeypatch.setattr(synth, "segment_distance_field", refit)
        monkeypatch.setattr(synth, "fit_gaussian_label", refit)
        cfg = arm_a("structured", 1.0, 1, batch_size=10)
        assert len(train(prepare(ds[:8], ds[8:]), cfg, "a", 0)[0]) == 1


class TestEvaluateNme:
    def test_perfect_scorer_scores_zero(self):
        s = single_sample()
        scorer = LinearScorer.zeros(2, 16, 16)
        # Bias channel alone puts the peak on each true cell.
        for n, (u, v) in enumerate(s.points[0]):
            scorer.weights[n, int(v) * 16 + int(u), -1] = 1.0
        assert evaluate_nme(scorer, s) == 0.0

    def test_matches_per_sample_metric(self):
        ds = dataset(12, 16, 16, 3, 0.02, seed=20)
        scorer = LinearScorer(np.random.default_rng(1).normal(size=(3, 256, 257)), 16, 16)
        cells = scorer.scores(features(ds)).argmax(axis=-1)
        per_sample = [
            nme(np.stack([c % 16, c // 16], axis=-1), p, d)
            for c, p, d in zip(cells, ds.points, ds.norm)
        ]
        assert evaluate_nme(scorer, ds) == np.mean(per_sample)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_readout_matches_reference_bit_for_bit(self, seed):
        # Rounded scores tie often; both go through divmod cells and sum / N.
        ds = dataset(9, 16, 12, 3, 0.02, seed=seed)
        scores = np.random.default_rng(seed).normal(0.0, 2.0, (9, 3, 16 * 12))
        for s in (scores, np.rint(scores)):
            readout = synth._argmax_nme(s, ds.grid, ds.points, ds.norm)
            assert readout == reference.argmax_nme(s, ds)

    def test_split_dataset_shapes(self):
        ds = dataset(10, 16, 16, 2, 0.0, seed=18)
        tr, ev = split_dataset(ds)
        assert len(tr) == 8 and len(ev) == 2
        with pytest.raises(ValueError):
            split_dataset(ds[:1])
