"""Training objectives over heatmaps, each with its closed-form gradient.

Each objective is written once, as a ``*_batch`` kernel over score rows
``[..., H*W]`` with array targets; the per-heatmap functions check one
heatmap's target and call the kernel on a single row.

* ``structured_loss`` -- a margin-augmented log-sum-exp over all grid
  cells minus the score at the true cell.  Convex in the heatmap values;
  its gradient is softmax-minus-one-hot.
* ``soft_argmax_l2_loss`` -- squared coordinate error of the softmax
  expectation of the grid coordinates.
* ``heatmap_mse_loss`` -- plain squared error against a target grid.

``smoothed_structured_loss`` averages the structured objective over grid
cells drawn from a per-landmark Gaussian, for uncertainty-aware targets.

Gradients are with respect to the heatmap values only; margins never
receive gradient (the candidate cells are a fixed grid, so the margin
table is a constant per call).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from landmarklab.heatmap import Heatmap, coordinate_grids
from landmarklab.smoothing import GaussianLabel, sample_label


class MarginKind(enum.Enum):
    NONE = "none"
    L1 = "l1"
    L2 = "l2"
    SMOOTH_L1 = "smooth_l1"


@dataclass(frozen=True)
class MarginSpec:
    """Distance penalty added to every candidate cell's score.

    With ``normalize_coords`` set, coordinates are divided by
    max(width, height) before the distance is taken, which keeps the
    smooth-l1 threshold ``s`` meaningful on any grid size.
    """

    kind: MarginKind = MarginKind.NONE
    s: float = 0.01
    alpha: float = 1.0
    normalize_coords: bool = True

    def __post_init__(self):
        if not isinstance(self.kind, MarginKind):
            raise ValueError(f"unknown margin kind {self.kind!r}")
        if self.kind is MarginKind.SMOOTH_L1 and self.s <= 0:
            raise ValueError(f"smooth-l1 threshold must be positive, got {self.s}")
        if self.alpha < 0:
            raise ValueError(f"margin weight must be nonnegative, got {self.alpha}")


@dataclass(frozen=True)
class StructuredLossConfig:
    epsilon: float = 1.0
    margin: MarginSpec = MarginSpec()

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"temperature must be positive, got {self.epsilon}")


@dataclass
class LossGrad:
    """Loss value plus its gradient with respect to the heatmap values."""

    value: float
    grad: np.ndarray


def _margin_from_diffs(delta: MarginSpec, du, dv):
    """Margin for coordinate differences; du/dv may be scalars or arrays."""
    d1 = np.abs(du) + np.abs(dv)
    if delta.kind is MarginKind.NONE:
        return np.zeros_like(d1)
    if delta.kind is MarginKind.L1:
        return delta.alpha * d1
    if delta.kind is MarginKind.L2:
        return delta.alpha * np.sqrt(du * du + dv * dv)
    d2sq = du * du + dv * dv
    quad = 0.5 / delta.s * d2sq
    lin = d1 - 0.5 * delta.s
    return delta.alpha * np.where(d1 < delta.s, quad, lin)


@functools.lru_cache(maxsize=32)
def _margin_windows(delta: MarginSpec, width: int, height: int) -> np.ndarray:
    """H x W windows of the margin table over all (2H-1) x (2W-1) offsets.

    Built once per (margin, grid) and shared by every call, so the table is
    read-only: no caller can write through the cache.
    """
    scale = float(max(width, height)) if delta.normalize_coords else 1.0
    du = np.arange(1 - width, width) / scale
    dv = np.arange(1 - height, height)[:, None] / scale
    table = _margin_from_diffs(delta, du, dv)
    table.flags.writeable = False
    return sliding_window_view(table, (height, width))


def _cell_margins(delta: MarginSpec, cells: np.ndarray, width: int, height: int) -> np.ndarray:
    """Margin of every grid cell against integer target cells [..., 2], shape [..., H*W].

    The margin depends only on the offset between a cell and the target, so
    it is tabulated once over all (2H-1) x (2W-1) offsets and each target's
    H x W window is gathered from that table.
    """
    windows = _margin_windows(delta, width, height)
    # Index arrays (never scalars) so the gather always returns a fresh, writable array.
    rows = np.atleast_1d(height - 1 - cells[..., 1])
    cols = np.atleast_1d(width - 1 - cells[..., 0])
    return windows[rows, cols].reshape(*cells.shape[:-1], height * width)


def structured_batch(scores, cells, grid, cfg: StructuredLossConfig):
    """Structured loss over score rows [..., H*W] with integer target cells [..., 2].

    ``grid`` is (width, height).  Returns the values [...] and the gradients
    [..., H*W]; each row is computed exactly as ``structured_loss`` does for
    one heatmap.  Targets are not bounds-checked here.
    """
    width, height = grid
    cells = np.asarray(cells)
    eps = cfg.epsilon
    k = (cells[..., 1] * width + cells[..., 0])[..., None]  # linear index of the target
    z = _cell_margins(cfg.margin, cells, width, height)
    z += scores
    m = z.max(axis=-1, keepdims=True)
    z -= m
    z /= eps
    np.exp(z, out=z)
    total = z.sum(axis=-1, keepdims=True)
    value = eps * np.log(total[..., 0]) + m[..., 0] - np.take_along_axis(scores, k, -1)[..., 0]
    z /= total
    np.put_along_axis(z, k, np.take_along_axis(z, k, -1) - 1.0, -1)
    return value, z


def smoothed_structured_batch(scores, draws, grid, cfg: StructuredLossConfig):
    """Mean structured loss over target draws [..., D, 2], accumulated draw by draw."""
    draws = np.asarray(draws)
    value = np.zeros(scores.shape[:-1])
    grad = np.zeros_like(scores)
    for d in range(draws.shape[-2]):
        v, g = structured_batch(scores, draws[..., d, :], grid, cfg)
        value += v
        grad += g
    return value / draws.shape[-2], grad / draws.shape[-2]


def soft_argmax_l2_batch(scores, targets, grid):
    """Soft-argmax L2 loss over score rows [..., H*W] with (u, v) targets [..., 2]."""
    uu, vv = (c.ravel() for c in coordinate_grids(*grid))
    targets = np.asarray(targets, dtype=np.float64)
    p = scores - scores.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    su = (uu * p).sum(axis=-1, keepdims=True)
    sv = (vv * p).sum(axis=-1, keepdims=True)
    ru = su - targets[..., :1]
    rv = sv - targets[..., 1:]
    value = (ru * ru + rv * rv)[..., 0]
    # grad = 2 p (ru (uu - su) + rv (vv - sv)), built in place to bound the
    # number of [..., H*W] temporaries.
    grad = uu - su
    grad *= ru
    dv = vv - sv
    dv *= rv
    grad += dv
    p *= 2.0
    grad *= p
    return value, grad


def heatmap_mse_batch(scores, targets):
    """Summed squared error of score rows [..., H*W] against target rows of the same shape."""
    diff = scores - targets
    value = (diff * diff).sum(axis=-1)
    diff *= 2.0
    return value, diff


def structured_loss(h: Heatmap, y, cfg: StructuredLossConfig = StructuredLossConfig()) -> LossGrad:
    """Margin-augmented soft-max-margin objective at the true cell y.

    value = eps * ln sum_k exp((margin_k + h_k) / eps) - h[y], computed with
    max subtraction; grad = p - onehot(y) where p is the tempered softmax of
    the augmented scores, so the gradient sums to zero and grad[y] <= 0.
    As eps -> 0 the value tends to the hinge max_k(margin_k + h_k) - h[y].
    """
    yu, yv = int(y[0]), int(y[1])
    if not (0 <= yu < h.width and 0 <= yv < h.height):
        raise ValueError(f"target cell {(yu, yv)} outside {h.width}x{h.height} grid")
    value, grad = structured_batch(h.values.ravel(), (yu, yv), (h.width, h.height), cfg)
    return LossGrad(value=float(value), grad=grad.reshape(h.values.shape))


def soft_argmax_l2_loss(h: Heatmap, y: tuple[float, float]) -> LossGrad:
    """Squared error of the softmax coordinate expectation against y.

    grad_k = 2 (ytilde - y) . p_k (coord_k - ytilde), by the chain rule
    through the expectation.  Can vanish while the argmax is wrong: any
    score grid whose probability mass balances around y has zero loss.
    """
    if not (0 <= y[0] <= h.width - 1 and 0 <= y[1] <= h.height - 1):
        raise ValueError(f"target {y} outside {h.width}x{h.height} grid")
    value, grad = soft_argmax_l2_batch(h.values.ravel(), y, (h.width, h.height))
    return LossGrad(value=float(value), grad=grad.reshape(h.values.shape))


def heatmap_mse_loss(h_pred: Heatmap, h_target: Heatmap) -> LossGrad:
    """Summed squared error between two grids; grad = 2 * (pred - target)."""
    if h_pred.values.shape != h_target.values.shape:
        raise ValueError(
            f"shape mismatch: {h_pred.values.shape} vs {h_target.values.shape}"
        )
    value, grad = heatmap_mse_batch(h_pred.values.ravel(), h_target.values.ravel())
    return LossGrad(value=float(value), grad=grad.reshape(h_pred.values.shape))


def smoothed_structured_loss(
    h: Heatmap,
    label: GaussianLabel,
    cfg: StructuredLossConfig,
    n_samples: int,
    rng_seed: int,
) -> LossGrad:
    """Monte Carlo average of the structured loss over jittered target cells.

    Targets are drawn from the label's Gaussian, rounded to the nearest
    in-bounds cell; value and gradient are averaged over the draws.
    """
    grid = (h.width, h.height)
    cells = sample_label(label, n_samples, rng_seed, grid)
    value, grad = smoothed_structured_batch(h.values.ravel(), cells, grid, cfg)
    return LossGrad(value=float(value), grad=grad.reshape(h.values.shape))
