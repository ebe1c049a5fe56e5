"""Score grids, landmark coordinates, and the inference operators on them.

A heatmap is a ``height x width`` grid of real scores for one landmark.
Coordinates are ``(u, v)`` pairs with ``u`` the column index and ``v`` the
row index, so the score of pixel ``(u, v)`` lives at ``values[v, u]`` and
the row-major linear index of a cell is ``v * width + u``.  Multi-landmark
stacks are ordered lists of heatmaps, one channel per landmark.

All operations here are pure functions of immutable inputs; treat the
wrapped arrays as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GridCoord(NamedTuple):
    """Integer pixel location on a heatmap grid."""

    u: int
    v: int


@dataclass(frozen=True)
class Heatmap:
    """A grid of per-pixel scores, stored as a float64 array of shape (height, width)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"heatmap must be a non-empty 2-D grid, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("heatmap values must all be finite")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LandmarkSet:
    """Ordered continuous 2-D landmark coordinates, shape (N, 2) with columns (u, v)."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 1:
            raise ValueError(f"landmarks must have shape (N, 2) with N >= 1, got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("landmark coordinates must be finite")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


def coordinate_grids(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (U, V) index grids of shape (height, width)."""
    v, u = np.mgrid[0:height, 0:width]
    return u.astype(np.float64), v.astype(np.float64)


def argmax(h: Heatmap) -> tuple[GridCoord, bool]:
    """Coordinate of the maximum score, plus a flag for exact ties.

    Ties are broken toward the lowest row-major linear index; ``tied`` is
    True iff more than one cell attains the maximum exactly.
    """
    flat = h.values.ravel()
    k = int(np.argmax(flat))
    top = flat[k]
    tied = int(np.count_nonzero(flat == top)) > 1
    return GridCoord(u=k % h.width, v=k // h.width), tied


def softmax_tempered(h: Heatmap, epsilon: float = 1.0) -> Heatmap:
    """Normalize scores into a probability grid, exp(h/eps) / sum exp(h/eps).

    The maximum is subtracted before exponentiation so the result is exactly
    invariant under adding a constant to all scores.
    """
    if epsilon <= 0:
        raise ValueError(f"temperature must be positive, got {epsilon}")
    shifted = (h.values - h.values.max()) / epsilon
    e = np.exp(shifted)
    return Heatmap(e / e.sum())


def soft_argmax(h: Heatmap, epsilon: float = 1.0) -> tuple[float, float]:
    """Expected (u, v) coordinate under the tempered softmax of the scores."""
    p = softmax_tempered(h, epsilon).values
    uu, vv = coordinate_grids(h.width, h.height)
    return float((uu * p).sum()), float((vv * p).sum())


def gaussian_bumps(centers, width: int, height: int, sigma: float) -> np.ndarray:
    """Unnormalized Gaussian bumps exp(-|p - c|^2 / (2 sigma^2)) for centers c
    [..., 2], shape [..., H, W]; unchecked, and 1.0 at a center on a grid point."""
    c = np.asarray(centers, dtype=np.float64)[..., None, None, :]
    uu, vv = coordinate_grids(width, height)
    sq = (uu - c[..., 0]) ** 2 + (vv - c[..., 1]) ** 2
    return np.exp(-sq / (2.0 * sigma * sigma))


def save_heatmap_pgm(h: Heatmap, path) -> None:
    """Dump as binary P5 graymap, linearly rescaled to 0-255.

    Visualization only: the rescaling is lossy and never round-tripped.
    """
    lo, hi = h.values.min(), h.values.max()
    if hi > lo:
        gray = np.round((h.values - lo) / (hi - lo) * 255.0)
    else:
        gray = np.zeros_like(h.values)
    data = gray.astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{h.width} {h.height}\n255\n".encode("ascii"))
        f.write(data)
