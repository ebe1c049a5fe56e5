"""Desk-scale laboratory for heatmap-based landmark localization.

Implements and contrasts three training objectives over score heatmaps
(heatmap mean-squared error, soft-argmax coordinate regression, and a
margin-augmented log-sum-exp objective), an edge-aware label smoothing
pipeline, standard localization metrics, and two synthetic experiments
that exercise the whole stack with analytic gradients.
"""

from landmarklab.heatmap import argmax, soft_argmax, softmax
from landmarklab.losses import StructuredLossConfig
from landmarklab.smoothing import (
    SmoothingConfig,
    build_edge_heatmap,
    fit_gaussian_label,
    refine_edge_heatmap,
)

__version__ = "0.1.0"

__all__ = [
    "argmax",
    "soft_argmax",
    "softmax",
    "StructuredLossConfig",
    "SmoothingConfig",
    "build_edge_heatmap",
    "fit_gaussian_label",
    "refine_edge_heatmap",
]
