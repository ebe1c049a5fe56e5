"""Synthetic 2-D localization bench with a linear heatmap scorer.

Samples are noisy renderings of random ellipse contours; the landmarks are
analytically known points on each contour, so ground truth is exact.  The
scorer maps the flattened image (plus a bias) linearly to one heatmap per
landmark, which keeps every gradient closed-form while exercising the full
loss / inference / metric stack, and lets the three training objectives be
compared on equal footing by epochs-to-target-error.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from landmarklab.heatmap import argmax, gaussian_bumps
from landmarklab.losses import (
    StructuredLossConfig,
    _margin_windows,
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
# longer run.  With the batch in one block the same comparison on 100
# samples took 0.33-0.38 s against 0.19-0.22 s (medians of 15, two
# rounds), and its process peaked at 46.3 MB against 42.9 MB.
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
    points [S, N, 2], normalizing distances [S], and the covariances
    [S, N, 2, 2] of the landmarks' smoothed labels, None without smoothing.

    Slices and index arrays select sub-datasets.
    """

    pixels: np.ndarray
    points: np.ndarray
    norm: np.ndarray
    covs: np.ndarray | None

    def __len__(self) -> int:
        return len(self.pixels)

    def __getitem__(self, idx) -> "SynthData":
        return SynthData(self.pixels[idx], self.points[idx], self.norm[idx],
                         None if self.covs is None else self.covs[idx])

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
    structured: StructuredLossConfig = StructuredLossConfig(margin="smooth_l1")
    mse_sigma: float = 1.5

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.learning_rate < 0:
            raise ValueError("learning rate must be nonnegative")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be nonnegative")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.mse_sigma <= 0:
            raise ValueError("MSE target sigma must be positive")
        if 2.0 * self.mse_sigma * self.mse_sigma == 0:  # gaussian_bumps divides by it
            raise ValueError(f"MSE target sigma {self.mse_sigma:g} is too small: "
                             f"2 sigma^2 underflows to 0")


@dataclass(frozen=True)
class SynthConfig:
    """The ``[synth]`` config section: its keys are the fields, in order,
    with the loss keys held in ``structured``.  Defaults shared with
    TrainConfig are TrainConfig's."""

    samples: int = 500
    width: int = 32
    height: int = 32
    landmarks: int = 3
    noise_sigma: float = 0.02
    target_nme: float = 0.30
    batch_size: int = TrainConfig.batch_size
    weight_decay: float = TrainConfig.weight_decay
    objective_a: str = "structured"
    lr_a: float = 4.0
    epochs_a: int = 12
    objective_b: str = "softargmax"
    lr_b: float = 0.2
    epochs_b: int = 25
    structured: StructuredLossConfig = TrainConfig.structured
    with_smoothing: bool = False
    gamma: float = SmoothingConfig.gamma
    mse_sigma: float = TrainConfig.mse_sigma

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("samples must be at least 2 (one to train on, one held out)")
        if self.target_nme <= 0:
            raise ValueError(f"target_nme must be positive, got {self.target_nme}")
        for name in "ab":  # raises on a setting that the arm's TrainConfig rejects
            self.arm(name, 0)
        objectives = self.objective_a, self.objective_b
        if "structured" in objectives:  # raises on a table that overflows
            _margin_windows(self.structured, self.width, self.height)
        if self.with_smoothing and "structured" not in objectives:
            raise ValueError(
                f"synth.with_smoothing applies to the structured objective only, "
                f"but the arms are {self.objective_a} and {self.objective_b}"
            )
        # gaussian_bumps divides the squared distances from each landmark,
        # inside the grid, to its cells, none above far, by 2 sigma^2.
        far = (self.width - 1) ** 2 + (self.height - 1) ** 2
        two_var = 2.0 * self.mse_sigma * self.mse_sigma
        if "heatmap_mse" in objectives and math.isinf(far / two_var):
            raise ValueError(
                f"MSE target sigma {self.mse_sigma:g} is too small for a "
                f"{self.width}x{self.height} grid: distance^2 / (2 sigma^2) overflows"
            )
        if min(self.width, self.height) < 12:
            raise ValueError("image sides must be at least 12 pixels")
        if self.landmarks < 2:
            raise ValueError("need at least two landmarks (for the normalizing pair)")
        if not self.noise_sigma >= 0:
            raise ValueError("noise sigma must be nonnegative")
        if "structured" in objectives:
            # At zero weights an epoch's loss is at most N S (largest margin +
            # eps ln(W H)).  The margin is even in both offsets, so the first
            # window, all offsets of one sign, holds the largest.
            largest = float(_margin_windows(self.structured, self.width, self.height)[0, 0].max())
            eps, cells = self.structured.epsilon, self.width * self.height
            if not math.isfinite(self.landmarks * self.samples * (largest + eps * math.log(cells))):
                raise ValueError(
                    f"structured loss with margin_alpha {self.structured.margin_alpha:g} and "
                    f"epsilon {eps:g} overflows when summed over {self.landmarks} landmarks "
                    f"and {self.samples} samples on a {self.width}x{self.height} grid")

    def arm(self, name: str, seed: int) -> TrainConfig:
        """The TrainConfig of arm ``a`` or ``b``, shuffling from ``seed``."""
        return TrainConfig(
            objective=getattr(self, f"objective_{name}"),
            learning_rate=getattr(self, f"lr_{name}"),
            weight_decay=self.weight_decay,
            epochs=getattr(self, f"epochs_{name}"),
            batch_size=self.batch_size,
            seed=seed,
            structured=self.structured,
            mse_sigma=self.mse_sigma,
        )


# Parameter angles of the contour vertices; the last closes the loop.
_CONTOUR_T = np.append(np.linspace(0.0, 2.0 * np.pi, CONTOUR_POINTS, endpoint=False), 0.0)


def _ellipse_contour(center, a, b, phi) -> np.ndarray:
    """Closed contour vertices [..., CONTOUR_POINTS + 1, 2] of ellipses."""
    return _contour_point(center, a, b, phi, _CONTOUR_T)


def _contour_point(center, a, b, phi, t) -> np.ndarray:
    """Points [..., T, 2] at parameter angles t [T] on ellipses with centers
    [..., 2], semi-axes a and b [...] and tilts phi [...]."""
    center = np.asarray(center, dtype=np.float64)[..., None, :]
    a, b, phi = (np.asarray(x, dtype=np.float64)[..., None] for x in (a, b, phi))
    c, s = np.cos(phi), np.sin(phi)
    x, y = a * np.cos(t), b * np.sin(t)
    return np.stack([center[..., 0] + c * x - s * y, center[..., 1] + s * x + c * y], axis=-1)


def _render(ellipses, pixels, distance, start: int, stop: int) -> None:
    """Write the distance fields of samples start..stop-1 into ``distance``
    in one kernel call and add their contours' brightness to ``pixels``.

    The brightness is taken one sample at a time: over the whole range its
    temporaries would be range-sized arrays."""
    height, width = pixels.shape[1:]
    own = ellipses[start:stop]
    contours = _ellipse_contour(own[:, :2], *own.T[2:])
    segment_distance_field(polyline_segments(contours), width, height,
                           out=distance[start:stop])
    for i in range(start, stop):
        pixels[i] += np.exp(-(distance[i] ** 2) / (2.0 * RENDER_SIGMA**2))


def _split_on_two_threads(work, n: int) -> None:
    """Run ``work(start, stop)`` over 0..n-1, n at least 2: the caller
    takes the first half and one helper thread the rest when the process
    may use at least two CPUs, else the caller takes all of it.

    The helper runs in a copy of the caller's context, so it sees the
    caller's ``np.errstate``.  It is joined before this returns or raises,
    and an exception it raised is raised again here.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if cpus < 2:
        work(0, n)
        return
    half = (n + 1) // 2
    errors = []

    def helper():
        try:
            work(half, n)
        except BaseException as err:
            errors.append(err)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(helper,))
    thread.start()
    try:
        work(0, half)
    finally:
        thread.join()
    if errors:
        raise errors[0]


def generate_dataset(synth: SynthConfig, seed: int) -> SynthData:
    """Random ellipse-contour samples of ``synth`` with exact landmark ground truth.

    Each image is exp(-D^2 / (2 RENDER_SIGMA^2)) of the contour's distance
    field D plus Gaussian noise, clipped to [0, 1].  Landmarks sit at evenly
    spaced parameter angles on the contour; the normalizing distance of a
    sample is the gap between its first two landmarks.  With smoothing, the
    labels are fitted from the fields, which are then dropped; a covariance
    that overflows raises FloatingPointError.  Deterministic per seed.

    The caller makes every random draw in stream order, one sample at a
    time: its ellipse, then its noise, straight into its pixel rows.  Only
    then are the fields rendered, by ``_split_on_two_threads`` and bit for
    bit as on one thread.  Landmarks, norms and labels are computed for
    all samples at once.
    """
    n_samples, width, height = synth.samples, synth.width, synth.height
    rng = np.random.default_rng(derive_seed(seed, "synth-data"))
    size = min(width, height)
    pixels = np.zeros((n_samples, height, width))
    distance = np.empty((n_samples, height, width))
    ellipses = np.empty((n_samples, 5))  # center u, center v, a, b, phi
    for i in range(n_samples):
        center = (
            rng.uniform(CENTER_RANGE[0] * width, CENTER_RANGE[1] * width),
            rng.uniform(CENTER_RANGE[0] * height, CENTER_RANGE[1] * height),
        )
        a = rng.uniform(MAJOR_RANGE[0] * size, MAJOR_RANGE[1] * size)
        b = rng.uniform(MINOR_RANGE[0] * a, MINOR_RANGE[1] * a)
        phi = rng.uniform(ROTATION_RANGE[0], ROTATION_RANGE[1])
        ellipses[i] = *center, a, b, phi
        if synth.noise_sigma > 0:
            # rng.normal(0, sigma) scales these same standard normal draws.
            # A huge sigma overflows draws to +-inf, which the clip takes to 0 or 1.
            rng.standard_normal(out=pixels[i])
            with np.errstate(over="ignore"):
                pixels[i] *= synth.noise_sigma
    _split_on_two_threads(partial(_render, ellipses, pixels, distance), n_samples)
    np.clip(pixels, 0.0, 1.0, out=pixels)
    angles = 2.0 * np.pi * np.arange(synth.landmarks) / synth.landmarks
    points = _contour_point(ellipses[:, :2], *ellipses.T[2:], angles)
    # One norm per sample: norm(..., axis=-1) over all of them rounds differently.
    norm = np.array([np.linalg.norm(p[0] - p[1]) for p in points])
    covs = None
    if synth.with_smoothing:
        scfg = SmoothingConfig(gamma=synth.gamma)
        with np.errstate(over="raise", invalid="raise"):
            covs = fit_gaussian_label(
                refine_edge_heatmap(edge_heatmap(distance, scfg.sigma_b), scfg), points, scfg)
    return SynthData(pixels, points, norm, covs)


def _objective(data: SynthData, cfg: TrainConfig):
    """The objective's batch kernel, its grid and loss config bound, and
    its targets: a tuple of arrays with one row per sample.

    These are the clipped true cells [S, N, 2] (structured), the landmark
    points [S, N, 2] (soft-argmax), the Gaussian target rows [S, N, H*W]
    (heatmap MSE), or the cubature cells [S, N, K, 2] and weights
    [S, N, K] of ``label_cells`` (smoothed structured).
    """
    grid = w, h = data.grid
    if cfg.objective == "structured" and data.covs is not None:
        return (partial(smoothed_structured_batch, grid=grid, cfg=cfg.structured),
                label_cells(data.points, data.covs, grid))
    if cfg.objective == "structured":
        return (partial(structured_batch, grid=grid, cfg=cfg.structured),
                (np.clip(np.rint(data.points), 0, [w - 1, h - 1]).astype(int),))
    if cfg.objective == "softargmax":
        return partial(soft_argmax_l2_batch, grid=grid), (data.points,)
    return heatmap_mse_batch, (
        gaussian_bumps(data.points, w, h, cfg.mse_sigma).reshape(len(data), -1, w * h),)


def _batch_loss(kernel, scores, targets):
    """Per-sample losses [B] and heatmap gradients [B, N, H*W] of an ``_objective``
    kernel for heatmaps scores [B, N, H*W] and their samples' rows of its
    targets.  A sample's loss sums its landmark terms in landmark order."""
    values, grads = kernel(scores, *targets)
    losses = np.zeros(len(scores))
    for n in range(values.shape[1]):
        losses += values[:, n]
    return losses, grads


def _argmax_nme(scores: np.ndarray, data: SynthData) -> float:
    """Mean per-sample NME of argmax inference from scores [B, N, H*W]."""
    return float(nme(argmax(scores, data.grid), data.points, data.norm).sum() / len(data))


def split_dataset(dataset):
    """Deterministic head/tail split: the tail EVAL_FRACTION is held out."""
    n_eval = max(1, int(round(len(dataset) * EVAL_FRACTION)))
    if n_eval >= len(dataset):
        raise ValueError("dataset too small to split")
    return dataset[:-n_eval], dataset[-n_eval:]


def train(dataset, cfg: TrainConfig, eval_dataset) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch gradient descent from zero weights; returns the history:
    the mean train loss and the held-out argmax-inference NME of each
    epoch, two float64 arrays [cfg.epochs] whose row e - 1 holds epoch e.

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
    formed.  Every batch and every evaluation is scored into one buffer
    [max(min(batch_size, S), S_eval), N*H*W], allocated once: the held-out
    split is scored after the epoch's last update, when no batch's score
    rows are still read.  After the batch's one GEMM, its rows are taken
    BLOCK_BYTES at a time: each block's losses, gradients and coef update
    are done before the next block's, so besides coef and the buffer
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

    Raises TrainingDiverged on a non-finite loss, a floating-point overflow
    or invalid operation, or a train loss above LOSS_GROWTH_LIMIT times the
    epoch-1 loss.
    """
    feats, (kernel, targets) = features(dataset), _objective(dataset, cfg)
    gram = feats @ feats.T
    eval_gram = features(eval_dataset) @ feats.T
    del feats
    n_landmarks = dataset.points.shape[1]
    grid = dataset.grid
    n = len(dataset)
    coef = np.zeros((n, n_landmarks * grid[0] * grid[1]))
    n_eval = len(eval_dataset)
    score_buf = np.empty((max(min(cfg.batch_size, n), n_eval), coef.shape[1]))
    block_rows = max(1, BLOCK_BYTES // coef[0].nbytes)
    shrink = 1.0 - cfg.learning_rate * cfg.weight_decay
    rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    train_loss, eval_nme = np.empty(cfg.epochs), np.empty(cfg.epochs)
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
                        losses, grads = _batch_loss(kernel, block_scores, block_targets)
                        for loss in losses:  # sample by sample: this order fixes the output bits
                            epoch_loss += loss
                        grads *= step
                        coef[block] -= grads.reshape(len(block), -1)
                        del grads  # freed before the next block's kernel allocates
                epoch_loss /= n
                if not np.isfinite(epoch_loss):
                    raise TrainingDiverged(cfg.objective, epoch)
                if epoch > 1 and epoch_loss > LOSS_GROWTH_LIMIT * train_loss[0]:
                    raise TrainingDiverged(
                        cfg.objective, epoch,
                        f"train loss {epoch_loss:.6g} above {LOSS_GROWTH_LIMIT:g}x "
                        f"the epoch-1 loss {train_loss[0]:.6g}",
                    )
                train_loss[epoch - 1] = epoch_loss
                eval_scores = np.matmul(eval_gram, coef, out=score_buf[:n_eval])
                eval_scores = eval_scores.reshape(n_eval, n_landmarks, -1)
                eval_nme[epoch - 1] = _argmax_nme(eval_scores, eval_dataset)
    except FloatingPointError as err:
        raise TrainingDiverged(cfg.objective, epoch) from err
    return train_loss, eval_nme


def compare_convergence(
    dataset, synth: SynthConfig, seed: int
) -> list[tuple[int | None, np.ndarray, np.ndarray]]:
    """Train arms a and b of ``synth``, each shuffling from ``seed``, on
    one split of ``dataset``.

    Returns one ``(epochs, train_loss, eval_nme)`` per arm, a then b:
    its ``train`` history and its first epoch with an eval NME at or
    below ``synth.target_nme``, None when it never gets there.  A
    TrainingDiverged names the arm that diverged.
    """
    train_set, eval_set = split_dataset(dataset)
    arms = []
    for name in "ab":
        try:
            train_loss, eval_nme = train(train_set, synth.arm(name, seed), eval_dataset=eval_set)
        except TrainingDiverged as err:
            err.args = (f"arm {name}: {err}",)
            raise
        at_target = eval_nme <= synth.target_nme
        epochs = int(at_target.argmax()) + 1 if at_target.any() else None
        arms.append((epochs, train_loss, eval_nme))
    return arms
