"""Synthetic 2-D localization bench with a linear heatmap scorer.

Samples are noisy renderings of random ellipse contours; the landmarks are
analytically known points on each contour, so ground truth is exact.  The
scorer maps the flattened image (plus a bias) linearly to one heatmap per
landmark, which keeps every gradient closed-form while exercising the full
loss / inference / metric stack, and lets the three training objectives be
compared on equal footing by epochs-to-target-error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from landmarklab.heatmap import argmax, gaussian_bumps
from landmarklab.losses import (
    MarginKind,
    MarginSpec,
    StructuredLossConfig,
    heatmap_mse_batch,
    smoothed_structured_batch,
    soft_argmax_l2_batch,
    structured_batch,
)
from landmarklab.metrics import nme
from landmarklab.seeding import derive_seed
from landmarklab.smoothing import (
    SmoothingConfig,
    edge_heatmap,
    fit_gaussian_label,
    label_cells,
    polyline_segments,
    refine_edge_heatmap,
    segment_distance_field,
)

OBJECTIVES = ("structured", "softargmax", "heatmap_mse")

# Contour rendering falloff: wide enough that the nearest pixel center to
# any on-contour point keeps >= 0.9 of the peak brightness.
RENDER_SIGMA = 1.6
CONTOUR_POINTS = 128
# Share of a dataset that split_dataset holds out for evaluation.
EVAL_FRACTION = 0.2

# Randomization ranges, as fractions of the image size.
CENTER_RANGE = (0.40, 0.60)   # of width / height
MAJOR_RANGE = (0.18, 0.28)    # semi-major axis, of min(width, height)
MINOR_RANGE = (0.55, 0.95)    # semi-minor axis, of the major axis
# Tilt range (radians).  Kept moderate so each landmark's identity stays
# spatially coherent across the dataset; a linear scorer has no mechanism
# to factor out arbitrary rotations.
ROTATION_RANGE = (-0.26, 0.26)


# An epoch whose train loss exceeds this multiple of the epoch-1 loss (the
# loss at zero weights, for full batches) has diverged.  Healthy arms peak
# at 8.82x over the synth perfbench workloads at seeds 1, 7 and 101, at
# 8.57x in the test suite (criterion 5's probes: 8.10x), and at 9.6x for
# the structured arm at lr 8 on the default bench; the heatmap MSE arm at
# lr 0.1 on 60 samples at 16x16 reaches 58.6x at epoch 2 and 4,880x at 3.
LOSS_GROWTH_LIMIT = 1e3

# Bytes of score rows that train turns into losses and updates at once.
# Rests on a sweep over the perfbench synth-default data (80 train rows of
# 3 x 32 x 32 cells, 1 BLAS thread, 2 cores): compare_convergence took
# 0.223, 0.202 and 0.191 s (medians of 25) at 128, 256 and 512 KiB, and
# one soft-argmax train call peaked at 4.90, 5.15 and 5.71 MB traced.
# 256 KiB keeps most of 128 KiB's smaller working set without its 10%
# longer run.  A sweep before the soft-argmax kernel had one work buffer
# found larger blocks slower: 0.253 s at 1 MiB and 0.323 s with the batch
# in one block, against 0.228 s at 512 KiB.
BLOCK_BYTES = 256 * 1024


class TrainingDiverged(RuntimeError):
    """Raised when an objective's training turns non-finite, overflows, or
    its train loss grows past LOSS_GROWTH_LIMIT times the epoch-1 loss."""

    def __init__(self, objective: str, epoch: int,
                 reason: str = "non-finite or overflowing values"):
        super().__init__(f"{objective} diverged: {reason} at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class SynthData:
    """S samples as arrays: grayscale pixels [S, H, W] in [0, 1], landmark
    points [S, N, 2], normalizing distances [S], and each pixel's distance
    to its sample's contour [S, H, W].

    Slices and index arrays select sub-datasets.
    """

    pixels: np.ndarray
    points: np.ndarray
    norm: np.ndarray
    distance: np.ndarray

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, idx) -> "SynthData":
        return SynthData(self.pixels[idx], self.points[idx], self.norm[idx], self.distance[idx])

    @property
    def grid(self) -> tuple[int, int]:
        """(width, height) of every image."""
        return self.pixels.shape[2], self.pixels.shape[1]


def features(data: SynthData) -> np.ndarray:
    """Feature rows [S, H*W + 1]: flattened pixels with a trailing bias feature."""
    return np.concatenate([data.pixels.reshape(len(data), -1), np.ones((len(data), 1))], axis=1)


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "structured"
    learning_rate: float = 1.0
    weight_decay: float = 0.0
    epochs: int = 40
    # Batches at least as large as the train split give full-batch descent,
    # which keeps the non-convex soft-argmax arm off mini-batch noise.
    batch_size: int = 500
    seed: int = 0
    structured: StructuredLossConfig = StructuredLossConfig(
        epsilon=1.0,
        margin=MarginSpec(kind=MarginKind.SMOOTH_L1, s=0.01, alpha=1.0),
    )
    with_smoothing: bool = False
    smoothing: SmoothingConfig = SmoothingConfig()
    mse_sigma: float = 1.5

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be nonnegative")
        if self.epochs < 1:
            raise ValueError("need at least one epoch")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.mse_sigma <= 0:
            raise ValueError("MSE target sigma must be positive")
        if 2.0 * self.mse_sigma * self.mse_sigma == 0:  # gaussian_bumps divides by it
            raise ValueError(f"MSE target sigma {self.mse_sigma:g} is too small: "
                             f"2 sigma^2 underflows to 0")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    eval_nme: float


@dataclass
class ConvergenceResult:
    epochs_a: int | None
    epochs_b: int | None
    speedup: float | None  # epochs_b / epochs_a; None when either never converged


def _ellipse_contour(center, a, b, phi) -> np.ndarray:
    t = np.linspace(0.0, 2.0 * np.pi, CONTOUR_POINTS, endpoint=False)
    t = np.append(t, 0.0)  # close the loop
    return np.stack(_contour_point(center, a, b, phi, t), axis=1)


def _contour_point(center, a, b, phi, t):
    c, s = np.cos(phi), np.sin(phi)
    x, y = a * np.cos(t), b * np.sin(t)
    return center[0] + c * x - s * y, center[1] + s * x + c * y


def generate_dataset(
    n_samples: int,
    width: int = 32,
    height: int = 32,
    n_landmarks: int = 3,
    noise_sigma: float = 0.02,
    seed: int = 0,
) -> SynthData:
    """Random ellipse-contour samples with exact landmark ground truth.

    Each image is exp(-D^2 / (2 RENDER_SIGMA^2)) of the contour's distance
    field D, which is kept for label fitting, plus Gaussian noise, clipped
    to [0, 1].  Landmarks sit at evenly spaced parameter angles on the
    contour; the normalizing distance of a sample is the gap between its
    first two landmarks.  Deterministic per seed.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if min(width, height) < 12:
        raise ValueError("image sides must be at least 12 pixels")
    if n_landmarks < 2:
        raise ValueError("need at least two landmarks (for the normalizing pair)")
    if not noise_sigma >= 0:
        raise ValueError("noise sigma must be nonnegative")
    rng = np.random.default_rng(derive_seed(seed, "synth-data"))
    size = min(width, height)
    angles = 2.0 * np.pi * np.arange(n_landmarks) / n_landmarks
    data = SynthData(
        pixels=np.empty((n_samples, height, width)),
        points=np.empty((n_samples, n_landmarks, 2)),
        norm=np.empty(n_samples),
        distance=np.empty((n_samples, height, width)),
    )
    for i in range(n_samples):
        center = (
            rng.uniform(CENTER_RANGE[0] * width, CENTER_RANGE[1] * width),
            rng.uniform(CENTER_RANGE[0] * height, CENTER_RANGE[1] * height),
        )
        a = rng.uniform(MAJOR_RANGE[0] * size, MAJOR_RANGE[1] * size)
        b = rng.uniform(MINOR_RANGE[0] * a, MINOR_RANGE[1] * a)
        phi = rng.uniform(ROTATION_RANGE[0], ROTATION_RANGE[1])
        contour = _ellipse_contour(center, a, b, phi)
        dist = segment_distance_field(polyline_segments(contour), width, height)
        pixels = np.exp(-(dist**2) / (2.0 * RENDER_SIGMA**2))
        if noise_sigma > 0:
            pixels = pixels + rng.normal(0.0, noise_sigma, pixels.shape)
        pts = np.stack(_contour_point(center, a, b, phi, angles), axis=1)
        data.pixels[i] = np.clip(pixels, 0.0, 1.0)
        data.points[i] = pts
        data.norm[i] = np.linalg.norm(pts[0] - pts[1])
        data.distance[i] = dist
    return data


def fit_sample_labels(distance, points, cfg: SmoothingConfig) -> np.ndarray:
    """Label covariances [N, 2, 2] for one sample's points [N, 2], the edge
    map taken from its contour's distance field [H, W]."""
    refined = refine_edge_heatmap(edge_heatmap(distance, cfg.sigma_b), cfg)
    return fit_gaussian_label(refined, points, cfg)


def _targets(data: SynthData, cfg: TrainConfig) -> tuple[np.ndarray, ...]:
    """Every sample's targets for the objective, as a tuple of arrays with
    one row per sample.

    These are the clipped true cells [S, N, 2] (structured), the landmark
    points [S, N, 2] (soft-argmax), the Gaussian target rows [S, N, H*W]
    (heatmap MSE), or the cubature cells [S, N, K, 2] and weights
    [S, N, K] of ``label_cells`` (smoothed structured).
    """
    w, h = data.grid
    if cfg.objective == "structured" and cfg.with_smoothing:
        covs = [fit_sample_labels(d, p, cfg.smoothing) for d, p in zip(data.distance, data.points)]
        return label_cells(data.points, np.array(covs), data.grid)
    if cfg.objective == "structured":
        return (np.clip(np.rint(data.points), 0, [w - 1, h - 1]).astype(int),)
    if cfg.objective == "softargmax":
        return (data.points,)
    return (gaussian_bumps(data.points, w, h, cfg.mse_sigma).reshape(len(data), -1, w * h),)


def _batch_loss(scores, targets, grid, cfg: TrainConfig):
    """Per-sample losses [B] and heatmap gradients [B, N, H*W] for heatmaps
    scores [B, N, H*W] and their samples' rows of the arrays ``_targets``
    returned.  A sample's loss sums its landmark terms in landmark order."""
    if cfg.objective == "structured" and cfg.with_smoothing:
        values, grads = smoothed_structured_batch(scores, *targets, grid, cfg.structured)
    elif cfg.objective == "structured":
        values, grads = structured_batch(scores, *targets, grid, cfg.structured)
    elif cfg.objective == "softargmax":
        values, grads = soft_argmax_l2_batch(scores, *targets, grid)
    else:
        values, grads = heatmap_mse_batch(scores, *targets)
    losses = np.zeros(len(scores))
    for n in range(values.shape[1]):
        losses += values[:, n]
    return losses, grads


def _argmax_nme(scores: np.ndarray, data: SynthData) -> float:
    """Mean per-sample NME of argmax inference from scores [B, N, H*W]."""
    return float(nme(argmax(scores, data.grid), data.points, data.norm).mean())


def split_dataset(dataset):
    """Deterministic head/tail split: the tail EVAL_FRACTION is held out."""
    n_eval = max(1, int(round(len(dataset) * EVAL_FRACTION)))
    if n_eval >= len(dataset):
        raise ValueError("dataset too small to split")
    return dataset[:-n_eval], dataset[-n_eval:]


def train(dataset, cfg: TrainConfig, eval_dataset) -> list[EpochStats]:
    """Mini-batch gradient descent from zero weights; returns the history.

    The scorer is linear and every update adds G^T X_b over rows of
    the fixed train features X [S, H*W + 1], so the weights of landmark n
    always equal C_n^T X, with C_n the n-th block of H*W columns of the
    coefficients coef [S, N*H*W].
    Scores then need only the Gram matrices X X^T and X_eval X^T: a batch
    is scored by one [B, S] x [S, N*H*W] GEMM, after which its heatmap
    gradients [B, N*H*W] are subtracted from its coef rows.  Batches
    average gradients; weight decay C first scales coef by (1 - lr * C),
    which equals adding C * theta.  The weights are never built.

    The working set is fixed for the call and does not grow with the
    epochs.  The features are dropped once the two Gram matrices are
    formed.  Every batch is scored into one buffer [min(batch_size, S),
    N*H*W] and every evaluation into one buffer [S_eval, N*H*W], both
    allocated once.  After the batch's one GEMM, its rows are taken
    BLOCK_BYTES at a time: each block's losses, gradients and coef update
    are done before the next block's, so besides coef and the two buffers
    only block-sized temporaries come and go, and they reuse the same
    memory where batch-sized ones would cost the allocator fresh,
    zero-filled pages.  The block size cannot change any output bit, since
    the scores all come before the first update and a sample's loss,
    gradient and coef row depend on its own score row alone.  Every
    objective's targets are fixed arrays, computed once per call, so
    neither the epoch, the batch size nor the shuffle order changes them.

    An epoch costs O(S^2 H W) against O(S (H W)^2) in primal form, so the
    dual form does less work while the train split S is smaller than about
    the heatmap size H*W (S = 400 against H*W = 1024 on the default bench).

    History records the held-out argmax-inference NME after each epoch.
    Raises TrainingDiverged on a non-finite loss, a floating-point overflow
    or invalid operation, or a train loss above LOSS_GROWTH_LIMIT times the
    epoch-1 loss.
    """
    feats, targets = features(dataset), _targets(dataset, cfg)
    gram = feats @ feats.T
    eval_gram = features(eval_dataset) @ feats.T
    del feats
    n_landmarks = dataset.points.shape[1]
    grid = dataset.grid
    n = len(dataset)
    coef = np.zeros((n, n_landmarks * grid[0] * grid[1]))
    score_buf = np.empty((min(cfg.batch_size, n), coef.shape[1]))
    eval_buf = np.empty((len(eval_dataset), coef.shape[1]))
    block_rows = max(1, BLOCK_BYTES // coef[0].nbytes)
    shrink = 1.0 - cfg.learning_rate * cfg.weight_decay
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    history = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(1, cfg.epochs + 1):
                order = rng.permutation(n)
                epoch_loss = 0.0
                for start in range(0, n, cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    scores = np.matmul(gram[idx], coef, out=score_buf[: len(idx)])
                    scores = scores.reshape(len(idx), n_landmarks, -1)
                    if cfg.weight_decay > 0:
                        coef *= shrink
                    step = cfg.learning_rate / len(idx)
                    for lo in range(0, len(idx), block_rows):
                        block = idx[lo : lo + block_rows]
                        block_scores = scores[lo : lo + block_rows]
                        if not np.isfinite(block_scores).all():
                            raise TrainingDiverged(cfg.objective, epoch)
                        block_targets = [t[block] for t in targets]
                        losses, grads = _batch_loss(block_scores, block_targets, grid, cfg)
                        for loss in losses:  # sample by sample: this order fixes the output bits
                            epoch_loss += loss
                        grads *= step
                        coef[block] -= grads.reshape(len(block), -1)
                        del grads  # freed before the next block's kernel allocates
                train_loss = epoch_loss / n
                if not np.isfinite(train_loss):
                    raise TrainingDiverged(cfg.objective, epoch)
                if epoch == 1:
                    first_loss = train_loss
                elif train_loss > LOSS_GROWTH_LIMIT * first_loss:
                    raise TrainingDiverged(
                        cfg.objective, epoch,
                        f"train loss {train_loss:.6g} above {LOSS_GROWTH_LIMIT:g}x "
                        f"the epoch-1 loss {first_loss:.6g}",
                    )
                eval_scores = np.matmul(eval_gram, coef, out=eval_buf)
                eval_scores = eval_scores.reshape(len(eval_dataset), n_landmarks, -1)
                history.append(
                    EpochStats(
                        epoch=epoch,
                        train_loss=float(train_loss),
                        eval_nme=_argmax_nme(eval_scores, eval_dataset),
                    )
                )
    except FloatingPointError as err:
        raise TrainingDiverged(cfg.objective, epoch) from err
    return history


def first_epoch_at_target(history, target_nme: float):
    for stats in history:
        if stats.eval_nme <= target_nme:
            return stats.epoch
    return None


def compare_convergence(
    dataset, cfg_a: TrainConfig, cfg_b: TrainConfig, target_nme: float
) -> tuple[ConvergenceResult, list[EpochStats], list[EpochStats]]:
    """Epochs-to-target for two objectives on the same data, split, and seed.

    speedup is epochs_b / epochs_a (how many times faster arm a converges);
    None when either arm never reaches the target.
    """
    if cfg_a.seed != cfg_b.seed:
        raise ValueError("both arms must share the seed")
    train_set, eval_set = split_dataset(dataset)
    hist_a = train(train_set, cfg_a, eval_dataset=eval_set)
    hist_b = train(train_set, cfg_b, eval_dataset=eval_set)
    ea = first_epoch_at_target(hist_a, target_nme)
    eb = first_epoch_at_target(hist_b, target_nme)
    speedup = (eb / ea) if (ea is not None and eb is not None) else None
    return ConvergenceResult(epochs_a=ea, epochs_b=eb, speedup=speedup), hist_a, hist_b
