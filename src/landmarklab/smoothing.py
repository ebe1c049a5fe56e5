"""Edge-aware label smoothing: landmarks -> pseudo edge map -> directional Gaussian.

The pipeline rasterizes annotated boundary polylines into a soft edge
heatmap, cleans it up with blur + sharpen, blends a small Gaussian bump at
each landmark into the local edge patch, and fits a 2x2 covariance to the
blended mass.  A label is that covariance [2, 2]: a Gaussian centred on
its landmark whose spread follows the local edge direction.  Training
targets are the grid cells of a fixed cubature rule through each label;
seeded draws from it are available as well.  Boundaries are tuples of
landmark indices, one per polyline.

Everything is deterministic: sampling takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SmoothingConfig:
    edge_map_size: int = 64       # pixels, square edge heatmap
    sigma_b: float = 1.5          # edge falloff (px)
    blur_kernel: int = 9          # odd
    blur_sigma: float = 1.7       # 0.3*((k-1)/2 - 1) + 0.8 for k = 9
    sharpness_factor: float = 5.0
    patch_half: int = 8           # patch is (2k+1) x (2k+1)
    center_sigma: float = 1.0     # bump at the landmark, ~5 px support
    blend: float = 0.01           # edge weight in the joint patch
    gamma: float = 0.01           # covariance scale of the fitted label
    cov_reg: float = 1e-4         # ridge keeping the covariance SPD

    def __post_init__(self):
        if self.edge_map_size < 1:
            raise ValueError("edge_map_size must be positive")
        if self.blur_kernel < 1 or self.blur_kernel % 2 == 0:
            raise ValueError(f"blur_kernel must be odd and positive, got {self.blur_kernel}")
        for name in ("sigma_b", "blur_sigma", "center_sigma", "gamma", "cov_reg"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("sharpness_factor", "blend"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.patch_half < 1:
            raise ValueError("patch_half must be positive")


# Bytes of one block's [R, W, M] float64 arrays.  Rendering the 100
# 32x32, 128-segment contours of synth-default (2 cores, medians of 9 in
# three runs) took 144-170 ms at 64 KiB, 126-154 at 128 KiB, 125-148 at
# 256 KiB, 120-147 at 512 KiB and 196-248 at 1 MiB, where the blocks fall
# out of cache, against 160-214 ms one row at a time.
FIELD_BLOCK_BYTES = 256 * 1024


def segment_distance_field(segments, width: int, height: int) -> np.ndarray:
    """Euclidean distance from every pixel center to the nearest segment.

    ``segments`` is an array ``[M, 2, 2]`` of endpoint pairs
    ``((u0, v0), (u1, v1))``.  The field is built in blocks of R whole
    pixel rows, each an ``[R, W, M]`` array with the segments on the last,
    contiguous axis; R keeps a block near ``FIELD_BLOCK_BYTES`` rather
    than a whole ``[H, W, M]`` array.  Every (pixel, segment) value takes
    the same float operations in the same order whatever the block, and
    the minimum over segments is exact, so the block size cannot change
    a bit of the output.  The minimum is taken over squared distances and
    one ``sqrt`` ends the call; that is exact too, because a correctly
    rounded ``sqrt`` is monotone.  A zero-length segment is its first
    endpoint.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid sides must be positive, got {width}x{height}")
    segs = np.asarray(segments, dtype=np.float64)
    if segs.size == 0:
        raise ValueError("no segments given")
    if segs.ndim != 3 or segs.shape[1:] != (2, 2):
        raise ValueError(f"segments must have shape (M, 2, 2), got {segs.shape}")
    if not np.isfinite(segs).all():
        raise ValueError("segment endpoints must be finite")
    au, av = segs[:, 0, 0], segs[:, 0, 1]  # [M]
    abu, abv = segs[:, 1, 0] - au, segs[:, 1, 1] - av
    denom = abu * abu + abv * abv
    # ab = 0 on a zero-length segment, so dividing by 1 there gives t = 0.
    denom[denom == 0.0] = 1.0
    u = np.arange(width, dtype=np.float64)[:, None]
    v = np.arange(height, dtype=np.float64)[:, None, None]
    proj_u = (u - au) * abu  # [W, M], the same on every row
    proj_v = (v - av) * abv  # [H, 1, M]
    rows = max(1, FIELD_BLOCK_BYTES // proj_u.nbytes)
    best = np.empty((height, width))
    for lo in range(0, height, rows):
        t = proj_u + proj_v[lo : lo + rows]
        t /= denom
        np.clip(t, 0.0, 1.0, out=t)
        # Offset from the pixel to the nearest point of each segment; the
        # v offset reuses t once the u offset is taken.
        du = t * abu
        du += au
        du -= u
        t *= abv
        t += av
        t -= v[lo : lo + rows]
        du *= du
        t *= t
        du += t
        du.min(axis=2, out=best[lo : lo + rows])
    return np.sqrt(best, out=best)


def polyline_segments(vertices: np.ndarray) -> np.ndarray:
    """Consecutive vertex pairs of an open polyline, vertices (M, 2) -> [M-1, 2, 2]."""
    pts = np.asarray(vertices, dtype=np.float64)
    return np.stack([pts[:-1], pts[1:]], 1)


def build_edge_heatmap(points: np.ndarray, curves, cfg: SmoothingConfig) -> np.ndarray:
    """Rasterize the boundary polylines through points [N, 2] into a soft
    edge map [size, size] in [0, 1].

    ``curves`` holds one tuple of landmark indices per polyline.  Each
    pixel gets ``edge_heatmap`` of its distance to the nearest boundary
    segment.
    """
    n = len(points)
    for curve in curves:
        for i in curve:
            if not 0 <= i < n:
                raise ValueError(f"boundary index {i} out of range for {n} landmarks")
    size = cfg.edge_map_size
    pieces = [polyline_segments(points[list(c)]) for c in curves]
    segments = np.concatenate(pieces) if pieces else np.empty((0, 2, 2))
    return edge_heatmap(segment_distance_field(segments, size, size), cfg.sigma_b)


def edge_heatmap(dist: np.ndarray, sigma_b: float) -> np.ndarray:
    """exp(-D^2 / (2 sigma_b^2)) of distances D, cut to zero beyond 3 sigma_b."""
    e = np.exp(-(dist**2) / (2.0 * sigma_b**2))
    e[dist >= 3.0 * sigma_b] = 0.0
    return e


def _gaussian_kernel_1d(size: int, sigma: float) -> np.ndarray:
    half = size // 2
    x = np.arange(size, dtype=np.float64) - half
    k = np.exp(-(x**2) / (2.0 * sigma * sigma))
    return k / k.sum()


def _convolve_replicate_1d(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    pad = len(kernel) // 2
    pad_width = [(0, 0), (0, 0)]
    pad_width[axis] = (pad, pad)
    padded = np.pad(arr, pad_width, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=axis)
    return windows @ kernel


# Center-weighted smoothing kernel used inside the sharpness adjustment,
# matching the common image-library convention.
_SMOOTH3 = np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 1.0]]) / 13.0


def _smooth3x3(arr: np.ndarray) -> np.ndarray:
    padded = np.pad(arr, 1, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3))
    return np.einsum("ijkl,kl->ij", windows, _SMOOTH3)


def refine_edge_heatmap(e: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Gaussian-blur then sharpen the raw edge map [H, W].

    Sharpening blends a 3x3-smoothed copy with the blurred map at factor f:
    out = (1 - f) * smooth(x) + f * x, so f = 1 is the identity and f > 1
    amplifies detail.  The result is clamped back into [0, max(x)].
    """
    k = _gaussian_kernel_1d(cfg.blur_kernel, cfg.blur_sigma)
    blurred = _convolve_replicate_1d(e, k, axis=1)
    blurred = _convolve_replicate_1d(blurred, k, axis=0)
    f = cfg.sharpness_factor
    sharp = (1.0 - f) * _smooth3x3(blurred) + f * blurred
    return np.clip(sharp, 0.0, blurred.max())


def _check_on_grid(points: np.ndarray, shape, what: str, grid: str) -> None:
    """Raise naming the first of points [..., 2] off a grid (H, W); NaN is off."""
    height, width = shape
    off = ~((points >= 0) & (points <= (width - 1, height - 1))).all(axis=-1)
    if off.any():
        u, v = points[off][0]
        raise ValueError(f"{what} ({u:g}, {v:g}) outside the {width}x{height} {grid}")


def extract_patch(values: np.ndarray, centers, half: int) -> np.ndarray:
    """Fresh patches [..., 2*half+1, 2*half+1] of grid [H, W] around cells
    centers [..., 2] of (u, v), zero-padded where they leave the grid."""
    c = np.asarray(centers)
    _check_on_grid(c, values.shape, "center", "grid")
    size = 2 * half + 1
    padded = np.pad(np.asarray(values, dtype=np.float64), half)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (size, size))
    return windows[c[..., 1], c[..., 0]]


def _normalize_max(arr: np.ndarray) -> np.ndarray:
    """Each patch of arr [..., P, P] over its peak, unless the peak is not positive."""
    m = arr.max(axis=(-2, -1), keepdims=True)
    return arr / np.where(m > 0, m, 1.0)


def joint_patch(
    e_refined: np.ndarray, points, cfg: SmoothingConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge patches, center bumps, and their blends around landmarks
    points [..., 2] on edge map [H, W].

    Returns (edge_patch, center_patch, blended), each [..., 2k+1, 2k+1]
    and the first two normalized to peak 1.  The blend is
    ``blend * edge_patch + center_patch``.
    """
    y = np.asarray(points, dtype=np.float64)
    _check_on_grid(y, e_refined.shape, "landmark", "edge map")
    k = cfg.patch_half
    c = np.rint(y).astype(int)
    edge = _normalize_max(extract_patch(e_refined, c, k))
    # Cell offsets [..., 2, P] from the landmark, so a fractional landmark stays centered.
    d = np.arange(2 * k + 1, dtype=np.float64) + (c - k)[..., None] - y[..., None]
    du, dv = d[..., 0, None, :], d[..., 1, :, None]
    bump = np.exp(-(du**2 + dv**2) / (2.0 * cfg.center_sigma**2))
    bump = _normalize_max(bump)
    return edge, bump, cfg.blend * edge + bump


def fit_gaussian_label(e_refined: np.ndarray, points, cfg: SmoothingConfig) -> np.ndarray:
    """Covariances [..., 2, 2] of the directional smoothing Gaussians for
    landmarks points [..., 2] on edge map [H, W]; each mean is its landmark.

    A covariance is the weighted second moment of its landmark's blended
    patch about the patch's weighted mean, ridged by cov_reg and scaled by gamma.
    """
    _, _, m = joint_patch(e_refined, points, cfg)
    total = m.sum(axis=(-2, -1), keepdims=True)
    if (total <= 0).any():
        raise ValueError("joint patch has no mass")
    w = m / total
    coords = np.arange(m.shape[-1], dtype=np.float64)
    du = coords - (w * coords).sum(axis=(-2, -1), keepdims=True)
    dv = coords[:, None] - (w * coords[:, None]).sum(axis=(-2, -1), keepdims=True)
    uu, uv, vv = ((w * a * b).sum(axis=(-2, -1)) for a, b in ((du, du), (du, dv), (dv, dv)))
    cov = np.stack([uu, uv, uv, vv], axis=-1).reshape(*uu.shape, 2, 2)
    cov = cfg.gamma * (cov + cfg.cov_reg * np.eye(2))
    if not (np.isfinite(cov).all() and (np.linalg.eigvalsh(cov).min(axis=-1) > 0).all()):
        raise ValueError("label covariance must be finite and positive definite")
    return cov


def _gaussian_cells(mean, cov: np.ndarray, z: np.ndarray, bounds: tuple[int, int]) -> np.ndarray:
    """Standard normal points z [..., K, 2] mapped through each Gaussian, means
    [..., 2] and covariances [..., 2, 2], as grid cells [..., K, 2] rounded and
    clamped in bounds (w, h)."""
    width, height = bounds
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as err:
        raise ValueError("label covariance is not positive definite") from err
    pts = np.asarray(mean)[..., None, :] + z @ np.swapaxes(chol, -1, -2)
    return np.clip(np.rint(pts), 0, [width - 1, height - 1]).astype(int)


def sample_label(
    mean, cov: np.ndarray, n: int, rng_seed: int, bounds: tuple[int, int]
) -> np.ndarray:
    """Draw n grid cells [..., n, 2] of (u, v) per Gaussian, means [..., 2] and
    covariances [..., 2, 2] or one [2, 2], rounded and clamped in bounds (w, h).

    Deterministic per seed: one generator's standard normals [..., n, 2] are
    colored by each Cholesky factor, so a single mean takes the first n pairs.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    shape = (*np.shape(mean)[:-1], n, 2)
    return _gaussian_cells(mean, cov, np.random.default_rng(rng_seed).standard_normal(shape),
                           bounds)


# The 3x3 probabilists' Gauss-Hermite product rule: nodes [9, 2] in row-major
# order of (u, v) node pairs, and weights [9] summing to 1.  Its weighted
# nodes have a standard normal's mean and covariance.  The 1-D rule (nodes
# 0 and +-sqrt(3), weights 2/3 and 1/6) is written out: importing
# numpy.polynomial for it would add 0.8 MB to every command's peak RSS.
_Z = np.sqrt(3.0) * np.array([-1.0, 0.0, 1.0])
_W = np.array([1.0, 4.0, 1.0]) / 6.0
_CUBATURE_NODES = np.stack(np.meshgrid(_Z, _Z, indexing="ij"), -1).reshape(-1, 2)
_CUBATURE_WEIGHTS = np.outer(_W, _W).ravel()


def label_cells(points, covs: np.ndarray, grid: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Target cells [..., K, 2] and weights [..., K] of the Gaussian labels with
    means points [..., 2] and covariances covs [..., 2, 2] on grid (w, h).

    The 9 nodes of a 3x3 Gauss-Hermite product rule go through each label's
    Cholesky factor, are rounded and clamped like ``sample_label``'s draws,
    and merge with summed weights where they share a cell.  A row lists its
    distinct cells in order of first node, then zero-weight cells up to K,
    the most distinct cells of any row.  Before rounding the nodes have each
    label's mean and covariance, but the targets, though deterministic, only
    approximate the expectation over the Gaussian's rounded cells.
    """
    cells = _gaussian_cells(points, covs, _CUBATURE_NODES, grid)
    same = (cells[..., :, None, :] == cells[..., None, :, :]).all(axis=-1)
    # A node leads its cell when no earlier node has the cell.
    lead = ~np.tril(same, -1).any(axis=-1)
    weights = np.where(lead, np.where(same, _CUBATURE_WEIGHTS, 0.0).sum(axis=-1), 0.0)
    k = lead.sum(axis=-1).max()
    order = np.argsort(~lead, axis=-1, kind="stable")[..., :k]
    return (np.take_along_axis(cells, order[..., None], -2),
            np.take_along_axis(weights, order, -1))


def read_annotations(path) -> list[tuple[str, np.ndarray]]:
    """Parse annotation lines ``id u1 v1 u2 v2 ...`` into (id, points [N, 2]) pairs.

    Ids are unique and hold no ``/`` or ``,``.
    """
    samples = []
    first_line = {}
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise ValueError(
                    f"{path}:{lineno}: expected 'id u1 v1 ...' with N >= 1 pairs"
                )
            try:
                coords = [float(t) for t in tokens[1:]]
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: malformed coordinate token") from err
            sid = tokens[0]
            # Ids name output files and fill CSV cells.
            if "/" in sid or "," in sid:
                raise ValueError(f"{path}:{lineno}: sample id {sid!r} contains '/' or ','")
            if sid in first_line:
                raise ValueError(
                    f"{path}:{lineno}: duplicate sample id {sid!r}, "
                    f"first given on line {first_line[sid]}"
                )
            first_line[sid] = lineno
            if not all(map(math.isfinite, coords)):
                raise ValueError(f"{path}:{lineno}: landmark coordinates must be finite")
            samples.append((sid, np.array(coords).reshape(-1, 2)))
    if not samples:
        raise ValueError(f"{path}: no annotation lines found")
    return samples


def read_boundaries(path) -> tuple[tuple[int, ...], ...]:
    """Parse boundary lines, one comma-separated index sequence per curve."""
    curves = []
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                curve = tuple(int(tok) for tok in line.split(","))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: malformed boundary index") from err
            if len(curve) < 2:
                raise ValueError(f"{path}:{lineno}: boundary curve needs >= 2 indices")
            curves.append(curve)
    if not curves:
        raise ValueError(f"{path}: no boundary curves found")
    return tuple(curves)
