"""Desk-scale laboratory for heatmap-based landmark localization.

Implements and contrasts three training objectives over score heatmaps
(heatmap mean-squared error, soft-argmax coordinate regression, and a
margin-augmented log-sum-exp objective), an edge-aware label smoothing
pipeline, standard localization metrics, and two synthetic experiments
that exercise the whole stack with analytic gradients.
"""

from landmarklab.heatmap import (
    GridCoord,
    Heatmap,
    LandmarkSet,
    argmax,
    soft_argmax,
    softmax_tempered,
)
from landmarklab.losses import MarginKind, MarginSpec, StructuredLossConfig
from landmarklab.smoothing import (
    BoundaryDef,
    GaussianLabel,
    SmoothingConfig,
    build_edge_heatmap,
    fit_gaussian_label,
    refine_edge_heatmap,
    sample_label,
)

__version__ = "0.1.0"

__all__ = [
    "GridCoord",
    "Heatmap",
    "LandmarkSet",
    "argmax",
    "soft_argmax",
    "softmax_tempered",
    "MarginKind",
    "MarginSpec",
    "StructuredLossConfig",
    "BoundaryDef",
    "GaussianLabel",
    "SmoothingConfig",
    "build_edge_heatmap",
    "fit_gaussian_label",
    "refine_edge_heatmap",
    "sample_label",
]
