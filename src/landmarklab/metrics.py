"""Localization quality metrics: normalized mean error, failure rate, CED/AUC.

Each function maps arrays to numbers; the ``eval`` command is the one
place that turns per-sample errors into a report and its CSVs.
Boundary conventions: the failure rate counts samples with error strictly
above the threshold, while the cumulative error distribution counts errors
less than or equal to each threshold, so FR(t) = 1 - CED(t) away from ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalConfig:
    fr_threshold: float = 0.10
    auc_threshold: float = 0.10
    ced_points: int = 1001
    norm_distance: float = 1.0

    def __post_init__(self):
        if self.fr_threshold <= 0 or self.auc_threshold <= 0:
            raise ValueError("thresholds must be positive")
        if self.ced_points < 2:
            raise ValueError("need at least two CED points")
        if self.norm_distance <= 0:
            raise ValueError("norm_distance must be positive")


def nme(pred: np.ndarray, gt: np.ndarray, d) -> np.ndarray:
    """Mean Euclidean landmark error divided by the normalizing distance.

    ``pred`` and ``gt`` hold points [..., N, 2] and ``d`` the distances
    [...]; the result is one NME per landmark set, shape [...].
    """
    if pred.shape[-2] != gt.shape[-2]:
        raise ValueError(f"landmark count mismatch: {pred.shape[-2]} vs {gt.shape[-2]}")
    if pred.shape != gt.shape:
        raise ValueError(f"landmark set shape mismatch: {pred.shape} vs {gt.shape}")
    if np.shape(d) != pred.shape[:-2]:
        raise ValueError(
            f"normalizing distances have shape {np.shape(d)}, expected {pred.shape[:-2]}"
        )
    if not np.greater(d, 0).all():
        raise ValueError(f"normalizing distance must be positive, got {d}")
    # np.linalg.norm's sum of squares, taken in place: the same bits with
    # one [..., N, 2] temporary instead of three.  The mean is written as
    # sum / N, the two steps np.mean takes, without its Python wrapper.
    sq = np.subtract(pred, gt, dtype=np.float64)
    sq *= sq
    err = sq.sum(-1)
    return np.sqrt(err, out=err).sum(-1) / err.shape[-1] / d


def failure_rate(nmes, threshold: float) -> float:
    """Fraction of errors strictly greater than the threshold."""
    arr = np.asarray(nmes, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty error list")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return float(np.count_nonzero(arr > threshold) / arr.size)


def auc_ced(nmes, threshold: float, n_points: int = 1001):
    """Area under the cumulative error distribution over [0, threshold].

    CED(t) is the fraction of errors <= t on a uniform grid of n_points
    thresholds, counted by binary search in the sorted errors; the area is
    the trapezoidal integral divided by the threshold, so the result lies
    in [0, 1].
    Returns (auc, [(threshold, fraction), ...]).
    """
    arr = np.asarray(nmes, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty error list")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if n_points < 2:
        raise ValueError("need at least two integration points")
    ts = np.linspace(0.0, threshold, n_points)
    ced = np.searchsorted(np.sort(arr), ts, side="right") / arr.size
    auc = float(np.trapezoid(ced, ts) / threshold)
    return auc, list(zip(ts.tolist(), ced.tolist()))

