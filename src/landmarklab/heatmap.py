"""Score grids and the inference operators on them.

A heatmap is a plain float array of shape ``(height, width)``, one per
landmark.  Coordinates are ``(u, v)`` pairs with ``u`` the column index and
``v`` the row index, so the score of pixel ``(u, v)`` lives at ``h[v, u]``
and the row-major linear index of a cell is ``v * width + u``.  The
readouts take score rows ``[..., H*W]``, flattened in that order, with
``grid = (width, height)``; one heatmap is a single row.

All operations here are pure functions; treat their inputs as read-only.
"""

from __future__ import annotations

import functools

import numpy as np


@functools.lru_cache(maxsize=32)
def coordinate_grids(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (U, V) float index grids of shape (height, width).

    Built once per grid and shared by every call, so both are read-only.
    """
    v, u = np.mgrid[0:height, 0:width]
    grids = u.astype(np.float64), v.astype(np.float64)
    for g in grids:
        g.flags.writeable = False
    return grids


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax of score rows [..., H*W], exp(s) / sum exp(s) along the last axis.

    The row maximum is subtracted before exponentiation so the result is
    exactly invariant under adding a constant to a row.  A temperature eps
    is applied by passing ``scores / eps``.
    """
    p = scores - scores.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def soft_argmax(scores: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Expected (u, v) coordinates [..., 2] under the softmax of score rows [..., H*W].

    ``grid`` is (width, height).
    """
    uu, vv = (c.ravel() for c in coordinate_grids(*grid))
    p = softmax(scores)
    return np.stack([(uu * p).sum(axis=-1), (vv * p).sum(axis=-1)], axis=-1)


def argmax(scores: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """Integer (u, v) cells [..., 2] of the maximum of score rows [..., H*W].

    ``grid`` is (width, height).  Ties go to the lowest row-major index.
    """
    k = scores.argmax(axis=-1)
    cells = np.empty((*k.shape, 2), dtype=k.dtype)
    np.divmod(k, grid[0], out=(cells[..., 1], cells[..., 0]))
    return cells


def gaussian_bumps(centers, width: int, height: int, sigma: float) -> np.ndarray:
    """Unnormalized Gaussian bumps exp(-|p - c|^2 / (2 sigma^2)) for centers c
    [..., 2], shape [..., H, W]; unchecked, and 1.0 at a center on a grid point."""
    c = np.asarray(centers, dtype=np.float64)[..., None, None, :]
    uu, vv = coordinate_grids(width, height)
    sq = (uu - c[..., 0]) ** 2 + (vv - c[..., 1]) ** 2
    return np.exp(-sq / (2.0 * sigma * sigma))


def save_heatmap_pgm(h: np.ndarray, path) -> None:
    """Dump a heatmap [H, W] as binary P5 graymap, linearly rescaled to 0-255.

    Visualization only: the rescaling is lossy and never round-tripped.
    """
    lo, hi = h.min(), h.max()
    if hi > lo:
        gray = np.round((h - lo) / (hi - lo) * 255.0)
    else:
        gray = np.zeros_like(h)
    data = gray.astype(np.uint8).tobytes()
    with open(path, "wb") as f:
        f.write(f"P5\n{h.shape[1]} {h.shape[0]}\n255\n".encode("ascii"))
        f.write(data)
