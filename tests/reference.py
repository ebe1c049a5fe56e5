"""Test oracles that no command reaches.

The primal ``LinearScorer``, ``dataset_objective`` and ``evaluate_nme`` are
what the dual-form ``synth.train`` must reproduce; ``margin_table`` is the
margin evaluated on the grid; ``tune_learning_rate`` picks the learning
rates of acceptance criterion 5.  ``dense_auc_ced`` and ``per_id_nmes``
are what ``metrics.auc_ced`` and the grouped ``eval`` must reproduce;
``annotation_samples`` splits what ``read_annotations`` returns into one
``(id, points)`` pair per sample for them and the per-landmark oracles.
``row_distance_field`` is the row-by-row distance field that
``smoothing.segment_distance_field`` must reproduce bit for bit.
``extract_patch``, ``joint_patch`` and ``fit_gaussian_label`` fit one
landmark at a time, and ``label_panels`` builds one landmark's PGM panels
from them, its raw-map panel cut from the raw edge map and the rest from
the refined one; the array functions of ``smoothing`` and the PGMs of
``smooth --dump-intermediates`` must reproduce them bit for bit.
``soft_argmax_l2_batch`` builds the gradient from full-size coordinate
differences; ``losses.soft_argmax_l2_batch`` must reproduce its values
and gradients bit for bit.
``generate_dataset`` renders one sample at a time from scalar ellipse
parameters and returns its distance fields beside the data, ``argmax`` stacks the column and row of each maximum,
``structured_batch`` reads and writes its target entries with
``take_along_axis`` and ``put_along_axis``, ``nme_mean`` averages
with ``mean`` and ``argmax_nme`` is the held-out readout built from
those two; ``synth.generate_dataset``, ``heatmap.argmax``,
``losses.structured_batch``, ``metrics.nme`` and ``synth._argmax_nme``
must reproduce them bit for bit.
"""

from dataclasses import dataclass, replace

import numpy as np

from landmarklab.heatmap import coordinate_grids, softmax
from landmarklab.losses import StructuredLossConfig, _cell_margins, _margin_from_diffs
from landmarklab.metrics import nme
from landmarklab.seeding import derive_seed
from landmarklab.smoothing import (
    SmoothingConfig,
    polyline_segments,
    read_annotations,
    segment_distance_field,
)
from landmarklab.synth import (
    CENTER_RANGE,
    CONTOUR_POINTS,
    MAJOR_RANGE,
    MINOR_RANGE,
    RENDER_SIGMA,
    ROTATION_RANGE,
    SynthData,
    TrainConfig,
    TrainingDiverged,
    _argmax_nme,
    _batch_loss,
    _objective,
    features,
    split_dataset,
    train,
)


def margin_table(cfg: StructuredLossConfig, y: tuple[float, float], width: int,
                 height: int) -> np.ndarray:
    """Margin against every grid cell, shape (height, width)."""
    uu, vv = coordinate_grids(width, height)
    scale = float(max(width, height)) if cfg.margin_normalize else 1.0
    du = (uu - float(y[0])) / scale
    dv = (vv - float(y[1])) / scale
    return _margin_from_diffs(cfg, du, dv)


@dataclass
class LinearScorer:
    """Per-landmark linear map from flattened image (plus bias) to a heatmap.

    ``train`` never builds one: this is the primal form that
    ``dataset_objective`` and ``evaluate_nme`` take, the reference the tests
    check ``train``'s history against.
    """

    weights: np.ndarray  # (n_landmarks, H*W, H*W + 1)
    width: int
    height: int

    @classmethod
    def zeros(cls, n_landmarks: int, width: int, height: int) -> "LinearScorer":
        hw = width * height
        return cls(
            weights=np.zeros((n_landmarks, hw, hw + 1)), width=width, height=height
        )

    @property
    def n_landmarks(self) -> int:
        return self.weights.shape[0]

    def scores(self, feats: np.ndarray) -> np.ndarray:
        """Scores [B, N, H*W] for feature rows [B, H*W + 1], one GEMM per landmark."""
        out = np.empty((len(feats), self.n_landmarks, self.width * self.height))
        for n in range(self.n_landmarks):
            np.matmul(feats, self.weights[n].T, out=out[:, n])
        return out


def evaluate_nme(scorer: LinearScorer, data: SynthData) -> float:
    """Mean per-sample NME of argmax inference over a dataset."""
    return _argmax_nme(scorer.scores(features(data)), data)


def dataset_objective(dataset, scorer: LinearScorer, cfg: TrainConfig):
    """Full-dataset objective value and weight gradient, in primal form.

    objective = mean over samples of the summed per-landmark loss, plus
    C/2 * |theta|^2.  The reference for gradient checks and for the dual
    form ``train`` keeps.
    """
    feats = features(dataset)
    kernel, targets = _objective(dataset, cfg)
    losses, grads = _batch_loss(kernel, scorer.scores(feats), targets)
    total = 0.0
    for loss in losses:  # sample by sample, in the order train sums them
        total += loss
    total /= len(dataset)
    grad = grads.transpose(1, 2, 0) @ feats / len(dataset)
    if cfg.weight_decay > 0:
        total += 0.5 * cfg.weight_decay * float((scorer.weights**2).sum())
        grad += cfg.weight_decay * scorer.weights
    return total, grad


def tune_learning_rate(
    dataset,
    base_cfg: TrainConfig,
    grid,
    target_nme: float,
    probe_epochs: int = 8,
    probe_samples: int | None = 200,
) -> float:
    """Pick the grid learning rate that converges fastest on a short probe.

    Rates are ranked by first probe epoch reaching ``target_nme``
    (never-reaching ranks last), then by the best NME seen anywhere in
    the probe; ties keep the earlier grid entry.  Diverging rates are
    skipped.  Probes run on a head subset of the dataset.
    """
    subset = dataset[:probe_samples] if probe_samples else dataset
    train_set, eval_set = split_dataset(subset)
    best_lr, best_key = None, (np.inf, np.inf)
    for lr in grid:
        cfg = replace(base_cfg, learning_rate=lr, epochs=probe_epochs)
        try:
            _, eval_nme = train(train_set, cfg, eval_dataset=eval_set)
        except TrainingDiverged:
            continue
        reached = np.flatnonzero(eval_nme <= target_nme)
        key = (reached[0] + 1 if len(reached) else np.inf, eval_nme.min())
        if key < best_key:
            best_lr, best_key = lr, key
    if best_lr is None:
        raise TrainingDiverged(base_cfg.objective, 0)
    return best_lr


def dense_auc_ced(nmes, threshold: float, n_points: int):
    """``metrics.auc_ced`` by a [n_points, S] comparison matrix."""
    arr = np.asarray(nmes, dtype=np.float64)
    ts = np.linspace(0.0, threshold, n_points)
    ced = (arr[None, :] <= ts[:, None]).mean(axis=1)
    auc = float(np.trapezoid(ced, ts) / threshold)
    return auc, list(zip(ts.tolist(), ced.tolist()))


def annotation_samples(path) -> list:
    """(id, points [N, 2]) of each sample of an annotation file, in file order."""
    ids, offsets, points = read_annotations(path)
    return [(sid, points[offsets[s] : offsets[s + 1]]) for s, sid in enumerate(ids)]


def per_id_nmes(preds: dict, gts: dict, norm_distance: float) -> list:
    """One ``nme`` call per id, in sorted id order."""
    return [float(nme(preds[i], gts[i], norm_distance)) for i in sorted(preds)]


def row_distance_field(segments, width: int, height: int) -> np.ndarray:
    """``smoothing.segment_distance_field`` one pixel row at a time, over
    ``[M, W]`` arrays with the segments on the first axis."""
    segs = np.asarray(segments, dtype=np.float64)
    if segs.size == 0:
        raise ValueError("no segments given")
    if segs.ndim != 3 or segs.shape[1:] != (2, 2):
        raise ValueError(f"segments must have shape (M, 2, 2), got {segs.shape}")
    au, av = segs[:, 0, 0, None], segs[:, 0, 1, None]  # [M, 1]
    abu, abv = segs[:, 1, 0, None] - au, segs[:, 1, 1, None] - av
    denom = abu * abu + abv * abv
    # ab = 0 on a zero-length segment, so dividing by 1 there gives t = 0.
    denom[denom == 0.0] = 1.0
    u = np.arange(width, dtype=np.float64)
    proj_u = (u - au) * abu  # [M, W], the same on every row
    proj_v = (np.arange(height) - av) * abv  # [M, H], one column per row
    best = np.empty((height, width))
    for v in range(height):
        t = proj_u + proj_v[:, v, None]
        t /= denom
        np.clip(t, 0.0, 1.0, out=t)
        # Offset from the pixel to the nearest point of each segment.
        du = t * abu
        du += au
        du -= u
        dv = t * abv
        dv += av
        dv -= v
        du *= du
        dv *= dv
        du += dv
        du.min(axis=0, out=best[v])
    return np.sqrt(best, out=best)


def extract_patch(values: np.ndarray, center: tuple[int, int], half: int) -> np.ndarray:
    """(2*half+1)^2 patch around cell (u, v), zero-padded where it leaves the grid."""
    size = 2 * half + 1
    patch = np.zeros((size, size), dtype=np.float64)
    h, w = values.shape
    u0, v0 = center[0] - half, center[1] - half
    su0, sv0 = max(u0, 0), max(v0, 0)
    su1, sv1 = min(u0 + size, w), min(v0 + size, h)
    if su0 < su1 and sv0 < sv1:
        patch[sv0 - v0 : sv1 - v0, su0 - u0 : su1 - u0] = values[sv0:sv1, su0:su1]
    return patch


def _normalize_max(arr: np.ndarray) -> np.ndarray:
    m = arr.max()
    return arr / m if m > 0 else arr


def joint_patch(
    e_refined: np.ndarray, y: tuple[float, float], cfg: SmoothingConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge patch, center bump, and their blend around landmark y on edge map [H, W].

    Returns (edge_patch, center_patch, blended), each (2k+1) x (2k+1) and
    the first two normalized to peak 1.  The blend is
    ``blend * edge_patch + center_patch``.
    """
    height, width = e_refined.shape
    if not (0 <= y[0] <= width - 1 and 0 <= y[1] <= height - 1):
        raise ValueError(
            f"landmark ({y[0]:g}, {y[1]:g}) outside the {width}x{height} edge map"
        )
    k = cfg.patch_half
    size = 2 * k + 1
    cu, cv = int(np.rint(y[0])), int(np.rint(y[1]))
    edge = _normalize_max(extract_patch(e_refined, (cu, cv), k))
    # Bump evaluated in absolute coordinates so a fractional landmark stays centered.
    du = np.arange(size, dtype=np.float64) + (cu - k) - y[0]
    dv = np.arange(size, dtype=np.float64) + (cv - k) - y[1]
    bump = np.exp(-(du[None, :] ** 2 + dv[:, None] ** 2) / (2.0 * cfg.center_sigma**2))
    bump = _normalize_max(bump)
    return edge, bump, cfg.blend * edge + bump


def fit_gaussian_label(
    e_refined: np.ndarray, y: tuple[float, float], cfg: SmoothingConfig
) -> np.ndarray:
    """Covariance [2, 2] of the directional smoothing Gaussian for landmark
    y on edge map [H, W]; the Gaussian's mean is y itself.

    The covariance is the weighted second moment of the blended patch about
    its own weighted mean, ridged by cov_reg and scaled by gamma.
    """
    _, _, m = joint_patch(e_refined, y, cfg)
    total = m.sum()
    if total <= 0:
        raise ValueError("joint patch has no mass")
    w = m / total
    size = m.shape[0]
    coords_u = np.arange(size, dtype=np.float64)[None, :]
    coords_v = np.arange(size, dtype=np.float64)[:, None]
    mu_u = float((w * coords_u).sum())
    mu_v = float((w * coords_v).sum())
    du = coords_u - mu_u
    dv = coords_v - mu_v
    cov = np.array(
        [
            [(w * du * du).sum(), (w * du * dv).sum()],
            [(w * du * dv).sum(), (w * dv * dv).sum()],
        ]
    )
    cov = cfg.gamma * (cov + cfg.cov_reg * np.eye(2))
    if not (np.isfinite(cov).all() and np.linalg.eigvalsh(cov).min() > 0):
        raise ValueError("label covariance must be finite and positive definite")
    return cov


def label_panels(
    raw: np.ndarray, refined: np.ndarray, y, cov: np.ndarray, cfg: SmoothingConfig
) -> dict:
    """The five PGM panels of landmark y, cropped around it from the raw
    and refined edge maps, by name."""
    k = cfg.patch_half
    cu, cv = int(np.rint(y[0])), int(np.rint(y[1]))
    edge_patch, bump, blended = joint_patch(refined, y, cfg)
    # Density of the fitted Gaussian on the same patch, peak-normalized.
    size = 2 * k + 1
    uu = np.arange(size, dtype=np.float64)[None, :] + cu - k - y[0]
    vv = np.arange(size, dtype=np.float64)[:, None] + cv - k - y[1]
    inv = np.linalg.inv(cov)
    quad = inv[0, 0] * uu**2 + 2.0 * inv[0, 1] * uu * vv + inv[1, 1] * vv**2
    fitted = np.exp(-0.5 * quad)
    fitted /= fitted.max()
    raw_patch = extract_patch(raw, (cu, cv), k)
    return {
        "edge_raw_patch": raw_patch,
        "edge_refined_patch": edge_patch,
        "center": bump,
        "joint": blended,
        "fitted": fitted,
    }


def soft_argmax_l2_batch(scores, targets, grid):
    """Soft-argmax L2 values [...] and gradients [..., H*W] over score rows
    [..., H*W] with (u, v) targets [..., 2], one [..., H*W] array per term."""
    uu, vv = (c.ravel() for c in coordinate_grids(*grid))
    targets = np.asarray(targets, dtype=np.float64)
    p = softmax(scores)
    su = (uu * p).sum(axis=-1, keepdims=True)
    sv = (vv * p).sum(axis=-1, keepdims=True)
    ru = su - targets[..., :1]
    rv = sv - targets[..., 1:]
    value = (ru * ru + rv * rv)[..., 0]
    grad = uu - su
    grad *= ru
    dv = vv - sv
    dv *= rv
    grad += dv
    p *= 2.0
    grad *= p
    return value, grad


def _contour_point(center, a, b, phi, t):
    c, s = np.cos(phi), np.sin(phi)
    x, y = a * np.cos(t), b * np.sin(t)
    return center[0] + c * x - s * y, center[1] + s * x + c * y


def generate_dataset(n_samples: int, width: int = 32, height: int = 32, n_landmarks: int = 3,
                     noise_sigma: float = 0.02, seed: int = 0) -> tuple[SynthData, np.ndarray]:
    """``synth.generate_dataset`` of a valid config without smoothing, one
    sample at a time: scalar ellipse parameters, the sample's own contour,
    segments, noise array and landmark stack.  Returns the data and the
    contours' distance fields [S, H, W]."""
    rng = np.random.default_rng(derive_seed(seed, "synth-data"))
    size = min(width, height)
    angles = 2.0 * np.pi * np.arange(n_landmarks) / n_landmarks
    t = np.append(np.linspace(0.0, 2.0 * np.pi, CONTOUR_POINTS, endpoint=False), 0.0)
    data = SynthData(
        pixels=np.empty((n_samples, height, width)),
        points=np.empty((n_samples, n_landmarks, 2)),
        norm=np.empty(n_samples),
        covs=None,
    )
    distance = np.empty((n_samples, height, width))
    for i in range(n_samples):
        center = (
            rng.uniform(CENTER_RANGE[0] * width, CENTER_RANGE[1] * width),
            rng.uniform(CENTER_RANGE[0] * height, CENTER_RANGE[1] * height),
        )
        a = rng.uniform(MAJOR_RANGE[0] * size, MAJOR_RANGE[1] * size)
        b = rng.uniform(MINOR_RANGE[0] * a, MINOR_RANGE[1] * a)
        phi = rng.uniform(ROTATION_RANGE[0], ROTATION_RANGE[1])
        contour = np.stack(_contour_point(center, a, b, phi, t), axis=1)
        dist = segment_distance_field(polyline_segments(contour), width, height)
        pixels = np.exp(-(dist**2) / (2.0 * RENDER_SIGMA**2))
        if noise_sigma > 0:
            pixels = pixels + rng.normal(0.0, noise_sigma, pixels.shape)
        pts = np.stack(_contour_point(center, a, b, phi, angles), axis=1)
        data.pixels[i] = np.clip(pixels, 0.0, 1.0)
        data.points[i] = pts
        data.norm[i] = np.linalg.norm(pts[0] - pts[1])
        distance[i] = dist
    return data, distance


def argmax(scores: np.ndarray, grid: tuple[int, int]) -> np.ndarray:
    """``heatmap.argmax``: the (u, v) cells [..., 2] of each row's maximum."""
    k = scores.argmax(axis=-1)
    return np.stack([k % grid[0], k // grid[0]], axis=-1)


def structured_batch(scores, cells, grid, cfg: StructuredLossConfig):
    """``losses.structured_batch``, its target entries taken and put along the last axis."""
    width, height = grid
    cells = np.asarray(cells)
    eps = cfg.epsilon
    k = (cells[..., 1] * width + cells[..., 0])[..., None]
    z = _cell_margins(cfg, cells, width, height)
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


def nme_mean(pred: np.ndarray, gt: np.ndarray, d) -> np.ndarray:
    """``metrics.nme`` for valid arguments, averaging with ``mean``."""
    sq = np.subtract(pred, gt, dtype=np.float64)
    sq *= sq
    err = sq.sum(-1)
    return np.sqrt(err, out=err).mean(-1) / d


def argmax_nme(scores: np.ndarray, data: SynthData) -> float:
    """``synth._argmax_nme`` from the ``argmax`` and ``nme_mean`` above."""
    return float(nme_mean(argmax(scores, data.grid), data.points, data.norm).mean())
