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
class Problem:
    """What ``train`` reads of a train and a held-out split, built once by
    ``prepare`` and shared by every arm: the Gram matrices X X^T [S, S]
    and X_eval X^T [S_eval, S] of the feature rows, the train split's
    landmark points [S, N, 2], label covariances [S, N, 2, 2] (None
    without smoothing) and grid (width, height), and the held-out points
    [S_eval, N, 2] and normalizing distances [S_eval].  It holds no
    pixels: the dual form scores from the Gram matrices alone."""

    gram: np.ndarray
    eval_gram: np.ndarray
    points: np.ndarray
    covs: np.ndarray | None
    grid: tuple[int, int]
    eval_points: np.ndarray
    eval_norm: np.ndarray


def prepare(train_set: SynthData, eval_set: SynthData) -> Problem:
    """The ``Problem`` of ``train_set`` held out on ``eval_set``.  The
    features are formed here and dropped once both Gram matrices exist, so
    the splits' pixels can go with them."""
    feats = features(train_set)
    return Problem(feats @ feats.T, features(eval_set) @ feats.T, train_set.points,
                   train_set.covs, train_set.grid, eval_set.points, eval_set.norm)


@dataclass(frozen=True)
class SynthConfig:
    """The ``[synth]`` config section: its keys are the fields, in order,
    with the loss keys held in ``structured``.  Arm a trains
    ``objective_a`` at ``lr_a`` for ``epochs_a``, arm b likewise; the other
    training keys are shared by both arms.  Every key is checked here, and
    each error names its key."""

    samples: int = 500
    width: int = 32
    height: int = 32
    landmarks: int = 3
    noise_sigma: float = 0.02
    target_nme: float = 0.30
    # Batches at least as large as the train split give full-batch descent,
    # which keeps the non-convex soft-argmax arm off mini-batch noise.
    batch_size: int = 500
    weight_decay: float = 0.0
    objective_a: str = "structured"
    lr_a: float = 4.0
    epochs_a: int = 12
    objective_b: str = "softargmax"
    lr_b: float = 0.2
    epochs_b: int = 25
    structured: StructuredLossConfig = StructuredLossConfig(margin="smooth_l1")
    with_smoothing: bool = False
    gamma: float = SmoothingConfig.gamma
    mse_sigma: float = 1.5

    def __post_init__(self):
        # samples: one to train on, one held out; landmarks: the normalizing pair.
        for key, least in (("samples", 2), ("width", 12), ("height", 12), ("landmarks", 2),
                           ("batch_size", 1), ("epochs_a", 1), ("epochs_b", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be at least {least}, got {getattr(self, key)}")
        for key in ("noise_sigma", "weight_decay", "lr_a", "lr_b"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be nonnegative, got {getattr(self, key)}")
        for key in ("target_nme", "gamma", "mse_sigma"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        objectives = self.objective_a, self.objective_b
        for key, objective in zip(("objective_a", "objective_b"), objectives):
            if objective not in OBJECTIVES:
                raise ValueError(f"{key} must be one of {OBJECTIVES}, got {objective!r}")
        # gaussian_bumps divides the squared distances from each landmark,
        # inside the grid, to its cells, none above far, by 2 sigma^2.
        two_var = 2.0 * self.mse_sigma * self.mse_sigma
        if two_var == 0:
            raise ValueError(f"mse_sigma {self.mse_sigma:g} is too small: "
                             f"2 sigma^2 underflows to 0")
        if "structured" in objectives:  # raises on a table that overflows
            _margin_windows(self.structured, self.width, self.height)
        if self.with_smoothing and "structured" not in objectives:
            raise ValueError(
                f"synth.with_smoothing applies to the structured objective only, "
                f"but the arms are {self.objective_a} and {self.objective_b}"
            )
        far = (self.width - 1) ** 2 + (self.height - 1) ** 2
        if "heatmap_mse" in objectives and math.isinf(far / two_var):
            raise ValueError(
                f"mse_sigma {self.mse_sigma:g} is too small for a "
                f"{self.width}x{self.height} grid: distance^2 / (2 sigma^2) overflows"
            )
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


def _objective(data: Problem | SynthData, objective: str, synth: SynthConfig):
    """The batch kernel of ``objective``, its grid and ``synth``'s loss
    config bound, and its targets: a tuple of arrays with one row per
    sample of ``data``, read from its points, covariances and grid.

    These are the clipped true cells [S, N, 2] (structured), the landmark
    points [S, N, 2] (soft-argmax), the Gaussian target rows [S, N, H*W]
    (heatmap MSE), or the cubature cells [S, N, K, 2] and weights
    [S, N, K] of ``label_cells`` (smoothed structured).
    """
    grid = w, h = data.grid
    if objective == "structured" and data.covs is not None:
        return (partial(smoothed_structured_batch, grid=grid, cfg=synth.structured),
                label_cells(data.points, data.covs, grid))
    if objective == "structured":
        return (partial(structured_batch, grid=grid, cfg=synth.structured),
                (np.clip(np.rint(data.points), 0, [w - 1, h - 1]).astype(int),))
    if objective == "softargmax":
        return partial(soft_argmax_l2_batch, grid=grid), (data.points,)
    return heatmap_mse_batch, (
        gaussian_bumps(data.points, w, h, synth.mse_sigma).reshape(len(data.points), -1, w * h),)


def _batch_loss(kernel, scores, targets):
    """Per-sample losses [B] and heatmap gradients [B, N, H*W] of an ``_objective``
    kernel for heatmaps scores [B, N, H*W] and their samples' rows of its
    targets.  A sample's loss sums its landmark terms in landmark order."""
    values, grads = kernel(scores, *targets)
    losses = np.zeros(len(scores))
    for n in range(values.shape[1]):
        losses += values[:, n]
    return losses, grads


def _argmax_nme(scores: np.ndarray, grid, points: np.ndarray, norm: np.ndarray) -> float:
    """Mean per-sample NME of argmax inference from scores [B, N, H*W] on
    ``grid`` against points [B, N, 2] with normalizing distances [B]."""
    return float(nme(argmax(scores, grid), points, norm).sum() / len(points))


def split_dataset(dataset):
    """Deterministic head/tail split: the tail EVAL_FRACTION is held out."""
    n_eval = max(1, int(round(len(dataset) * EVAL_FRACTION)))
    if n_eval >= len(dataset):
        raise ValueError("dataset too small to split")
    return dataset[:-n_eval], dataset[-n_eval:]


def train(problem: Problem, synth: SynthConfig, arm: str,
          seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Mini-batch gradient descent of arm ``arm`` (``"a"`` or ``"b"``) of
    ``synth`` from zero weights, shuffling from ``seed``; returns the
    history: the mean train loss and the held-out argmax-inference NME of
    each epoch, two float64 arrays [epochs] whose row e - 1 holds epoch e.
    The arm's ``objective_*``, ``lr_*`` and ``epochs_*`` and the shared
    training keys are read from ``synth``.

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
    epochs.  It starts from the problem's Gram matrices, with no features
    and no pixels.  Every batch and every evaluation is scored into one buffer
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
    They are not kept on the problem: the heatmap MSE targets [S, N, H*W]
    would then outlive their arm.

    An epoch costs O(S^2 H W) against O(S (H W)^2) in primal form, so the
    dual form does less work while the train split S is smaller than about
    the heatmap size H*W (S = 400 against H*W = 1024 on the default bench).

    Raises TrainingDiverged on a non-finite loss, a floating-point overflow
    or invalid operation, or a train loss above LOSS_GROWTH_LIMIT times the
    epoch-1 loss.
    """
    objective = getattr(synth, f"objective_{arm}")
    lr, epochs = getattr(synth, f"lr_{arm}"), getattr(synth, f"epochs_{arm}")
    batch_size, weight_decay = synth.batch_size, synth.weight_decay
    kernel, targets = _objective(problem, objective, synth)
    gram, eval_gram, grid = problem.gram, problem.eval_gram, problem.grid
    n, n_landmarks = problem.points.shape[:2]
    coef = np.zeros((n, n_landmarks * grid[0] * grid[1]))
    n_eval = len(eval_gram)
    score_buf = np.empty((max(min(batch_size, n), n_eval), coef.shape[1]))
    block_rows = max(1, BLOCK_BYTES // coef[0].nbytes)
    shrink = 1.0 - lr * weight_decay
    rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    train_loss, eval_nme = np.empty(epochs), np.empty(epochs)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(1, epochs + 1):
                order = rng.permutation(n)
                epoch_loss = 0.0
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    scores = np.matmul(gram[idx], coef, out=score_buf[: len(idx)])
                    scores = scores.reshape(len(idx), n_landmarks, -1)
                    if weight_decay > 0:
                        coef *= shrink
                    step = lr / len(idx)
                    for lo in range(0, len(idx), block_rows):
                        block = idx[lo : lo + block_rows]
                        block_scores = scores[lo : lo + block_rows]
                        if not np.isfinite(block_scores).all():
                            raise TrainingDiverged(objective, epoch)
                        block_targets = [t[block] for t in targets]
                        losses, grads = _batch_loss(kernel, block_scores, block_targets)
                        for loss in losses:  # sample by sample: this order fixes the output bits
                            epoch_loss += loss
                        grads *= step
                        coef[block] -= grads.reshape(len(block), -1)
                        del grads  # freed before the next block's kernel allocates
                epoch_loss /= n
                if not np.isfinite(epoch_loss):
                    raise TrainingDiverged(objective, epoch)
                if epoch > 1 and epoch_loss > LOSS_GROWTH_LIMIT * train_loss[0]:
                    raise TrainingDiverged(
                        objective, epoch,
                        f"train loss {epoch_loss:.6g} above {LOSS_GROWTH_LIMIT:g}x "
                        f"the epoch-1 loss {train_loss[0]:.6g}",
                    )
                train_loss[epoch - 1] = epoch_loss
                eval_scores = np.matmul(eval_gram, coef, out=score_buf[:n_eval])
                eval_scores = eval_scores.reshape(n_eval, n_landmarks, -1)
                eval_nme[epoch - 1] = _argmax_nme(eval_scores, grid, problem.eval_points,
                                                  problem.eval_norm)
    except FloatingPointError as err:
        raise TrainingDiverged(objective, epoch) from err
    return train_loss, eval_nme


def compare_convergence(
    problem: Problem, synth: SynthConfig, seed: int
) -> list[tuple[int | None, np.ndarray, np.ndarray]]:
    """Train arms a and b of ``synth``, each shuffling from ``seed``, on
    ``problem``: both arms share its split and its Gram matrices.

    Returns one ``(epochs, train_loss, eval_nme)`` per arm, a then b:
    its ``train`` history and its first epoch with an eval NME at or
    below ``synth.target_nme``, None when it never gets there.  A
    TrainingDiverged names the arm that diverged.
    """
    arms = []
    for name in "ab":
        try:
            train_loss, eval_nme = train(problem, synth, name, seed)
        except TrainingDiverged as err:
            err.args = (f"arm {name}: {err}",)
            raise
        at_target = eval_nme <= synth.target_nme
        epochs = int(at_target.argmax()) + 1 if at_target.any() else None
        arms.append((epochs, train_loss, eval_nme))
    return arms
