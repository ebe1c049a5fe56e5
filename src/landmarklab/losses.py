"""Training objectives over heatmaps, each with its closed-form gradient.

Each objective is written once, as a ``*_batch`` kernel over score rows
``[..., H*W]`` with array targets; one heatmap is a single row.  Targets
are not checked here: every caller validates or clips its own.

* ``structured_batch`` -- a margin-augmented log-sum-exp over all grid
  cells minus the score at the true cell.  Convex in the heatmap values;
  its gradient is softmax-minus-one-hot.  Its temperature and margin are
  one flat ``StructuredLossConfig``, whose fields are the loss keys of the
  config file, so a sweep varies one with ``dataclasses.replace``.
* ``smoothed_structured_batch`` -- the structured objective as a weighted
  sum over several target cells, for uncertainty-aware targets.
* ``soft_argmax_l2_batch`` -- squared coordinate error of the softmax
  expectation of the grid coordinates.
* ``heatmap_mse_batch`` -- plain squared error against a target grid.

Gradients are with respect to the heatmap values only; margins never
receive gradient (the candidate cells are a fixed grid, so the margin
table is a constant per call).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from landmarklab.heatmap import coordinate_grids, softmax


MARGINS = ("none", "l1", "l2", "smooth_l1")


@dataclass(frozen=True)
class StructuredLossConfig:
    """Temperature and margin of the structured objective; the fields are
    the loss keys of the ``[toy]`` and ``[synth]`` config sections.

    ``margin`` is the distance penalty added to every candidate cell's
    score, one of ``MARGINS``, weighted by ``margin_alpha``.  ``margin_s``
    is the smooth-l1 threshold.  With ``margin_normalize`` set, coordinates
    are divided by max(width, height) before the distance is taken, which
    keeps ``margin_s`` meaningful on any grid size.
    """

    epsilon: float = 1.0
    margin: str = "none"
    margin_s: float = 0.01
    margin_alpha: float = 1.0
    margin_normalize: bool = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"temperature must be positive, got {self.epsilon}")
        if self.margin not in MARGINS:
            raise ValueError(f"margin must be one of {MARGINS}, got {self.margin!r}")
        if self.margin == "smooth_l1" and self.margin_s <= 0:
            raise ValueError(f"smooth-l1 threshold must be positive, got {self.margin_s}")
        if self.margin_alpha < 0:
            raise ValueError(f"margin weight must be nonnegative, got {self.margin_alpha}")


def _margin_from_diffs(cfg: StructuredLossConfig, du, dv):
    """Margin for coordinate differences; du/dv may be scalars or arrays."""
    d1 = np.abs(du) + np.abs(dv)
    if cfg.margin == "none":
        return np.zeros_like(d1)
    if cfg.margin == "l1":
        return cfg.margin_alpha * d1
    if cfg.margin == "l2":
        return cfg.margin_alpha * np.sqrt(du * du + dv * dv)
    s = cfg.margin_s
    d2sq = du * du + dv * dv
    quad = 0.5 / s * d2sq
    lin = d1 - 0.5 * s
    return cfg.margin_alpha * np.where(d1 < s, quad, lin)


@functools.lru_cache(maxsize=32)
def _margin_windows(cfg: StructuredLossConfig, width: int, height: int) -> np.ndarray:
    """H x W windows of the margin table over all (2H-1) x (2W-1) offsets.

    Built once per (config, grid) and shared by every call, so the table is
    read-only: no caller can write through the cache.  Raises ValueError
    when the table is not finite, so a config can be checked against its
    grid before any training.
    """
    scale = float(max(width, height)) if cfg.margin_normalize else 1.0
    du = np.arange(1 - width, width) / scale
    dv = np.arange(1 - height, height)[:, None] / scale
    with np.errstate(over="ignore", invalid="ignore"):
        table = _margin_from_diffs(cfg, du, dv)
    if not np.isfinite(table).all():
        keys = f"margin_alpha {cfg.margin_alpha:g}"
        if cfg.margin == "smooth_l1":
            keys += f" and margin_s {cfg.margin_s:g}"
        raise ValueError(f"{cfg.margin} margin with {keys} overflows on a {width}x{height} grid")
    table.flags.writeable = False
    return sliding_window_view(table, (height, width))


def _cell_margins(cfg: StructuredLossConfig, cells: np.ndarray, width: int,
                  height: int) -> np.ndarray:
    """Margin of every grid cell against integer target cells [..., 2], shape [..., H*W].

    The margin depends only on the offset between a cell and the target, so
    it is tabulated once over all (2H-1) x (2W-1) offsets and each target's
    H x W window is gathered from that table.
    """
    windows = _margin_windows(cfg, width, height)
    # Index arrays (never scalars) so the gather always returns a fresh, writable array.
    rows = np.atleast_1d(height - 1 - cells[..., 1])
    cols = np.atleast_1d(width - 1 - cells[..., 0])
    return windows[rows, cols].reshape(*cells.shape[:-1], height * width)


def structured_batch(scores, cells, grid, cfg: StructuredLossConfig):
    """Structured loss over score rows [..., H*W] with integer target cells [..., 2].

    ``grid`` is (width, height).  Returns the values [...] and the gradients
    [..., H*W].  Per row, value = eps * ln sum_k exp((margin_k + h_k) / eps)
    - h[y], computed with max subtraction; grad = p - onehot(y) with p the
    tempered softmax of the augmented scores, so it sums to zero and
    grad[y] <= 0.  As eps -> 0 the value tends to the hinge
    max_k(margin_k + h_k) - h[y].
    """
    width, height = grid
    cells = np.asarray(cells)
    eps = cfg.epsilon
    z = _cell_margins(cfg, cells, width, height)
    z += scores
    m = z.max(axis=-1, keepdims=True)
    z -= m
    if eps != 1.0:  # x / 1.0 == x, so skipping the division keeps every bit
        z /= eps
    np.exp(z, out=z)
    total = z.sum(axis=-1, keepdims=True)
    # The target entries as one [rows, k] gather, k the target's linear index.
    rows = np.arange(total.size)
    k = (cells[..., 1] * width + cells[..., 0]).ravel()
    target = scores.reshape(rows.size, -1)[rows, k].reshape(total.shape[:-1])
    value = eps * np.log(total[..., 0]) + m[..., 0] - target
    z /= total
    z.reshape(rows.size, -1)[rows, k] -= 1.0
    return value, z


def smoothed_structured_batch(scores, cells, weights, grid, cfg: StructuredLossConfig):
    """Structured loss over score rows [..., H*W] summed over target cells
    [..., K, 2] with weights [..., K], one kernel call per cell slot."""
    cells, weights = np.asarray(cells), np.asarray(weights)
    value = np.zeros(scores.shape[:-1])
    grad = np.zeros_like(scores)
    for k in range(cells.shape[-2]):
        v, g = structured_batch(scores, cells[..., k, :], grid, cfg)
        w = weights[..., k]
        value += w * v
        g *= w[..., None]
        grad += g
    return value, grad


def soft_argmax_l2_batch(scores, targets, grid):
    """Soft-argmax L2 loss over score rows [..., H*W] with (u, v) targets [..., 2].

    Zero whenever a row's softmax mass balances around the target, even
    with the argmax on a wrong cell.
    """
    uu, vv = coordinate_grids(*grid)
    targets = np.asarray(targets, dtype=np.float64)
    p = softmax(scores)
    # p and this one work buffer are the only [..., H*W] temporaries.
    work = np.multiply(uu.ravel(), p)
    su = work.sum(axis=-1, keepdims=True)
    sv = np.multiply(vv.ravel(), p, out=work).sum(axis=-1, keepdims=True)
    ru = su - targets[..., :1]
    rv = sv - targets[..., 1:]
    value = (ru * ru + rv * rv)[..., 0]
    # grad = 2 p (ru (uu - su) + rv (vv - sv)); the first term varies along
    # columns only and the second along rows only, so each is a [..., 1, W]
    # or [..., H, 1] array broadcast into the work buffer.
    cols = (uu[0] - su[..., None]) * ru[..., None]
    rows = (vv[:, :1] - sv[..., None]) * rv[..., None]
    np.add(cols, rows, out=work.reshape(*work.shape[:-1], *uu.shape))
    p *= 2.0
    work *= p
    return value, work


def heatmap_mse_batch(scores, targets):
    """Summed squared error of score rows [..., H*W] against target rows of the same shape."""
    diff = scores - targets
    value = (diff * diff).sum(axis=-1)
    diff *= 2.0
    return value, diff
