"""Edge-aware label smoothing: landmarks -> pseudo edge map -> directional Gaussian.

The pipeline rasterizes annotated boundary polylines into a soft edge
heatmap, cleans it up with blur + sharpen, blends a small Gaussian bump at
each landmark into the local edge patch, and fits a 2x2 covariance to the
blended mass.  A label is that covariance [2, 2]: a Gaussian centred on
its landmark whose spread follows the local edge direction.  Training
targets are the grid cells of a fixed cubature rule through each label.
Boundaries are tuples of landmark indices, one per polyline.
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
        # Each Gaussian divides squared offsets, none above far on its grid,
        # by 2 sigma^2 as its kernel computes it; far / 0.0 would raise.
        for name, two_var, far in (
            ("sigma_b", 2.0 * self.sigma_b**2, 2 * (self.edge_map_size - 1) ** 2),
            ("blur_sigma", 2.0 * self.blur_sigma * self.blur_sigma, (self.blur_kernel // 2) ** 2),
            ("center_sigma", 2.0 * self.center_sigma**2, 2 * (self.patch_half + 0.5) ** 2),
        ):
            if two_var == 0 or math.isinf(far / two_var):
                raise ValueError(f"{name} {getattr(self, name):g} is too small for its grid: "
                                 f"distance^2 / (2 sigma^2) overflows")


# Bytes of one block's [R, W, M] float64 arrays.  Rendering 32x32,
# 128-segment contours between training runs (2 cores, two render threads,
# 10 alternating rounds, median of each round's renders, median and
# quartiles over rounds): 100 samples took 124 (117-131) ms at 128 KiB,
# 95 (87-103) at 256 KiB and 87 (76-89) at 512 KiB; 20 samples took 25.7
# (24.1-27.9), 20.8 (19.3-23.1) and 20.7 (18.4-21.4) ms.  512 KiB beat
# 256 in 9 and 6 of the 10 rounds, 128 KiB in none.  Earlier sweeps saw
# 1 MiB blocks fall out of cache.
FIELD_BLOCK_BYTES = 256 * 1024


def segment_distance_field(segments, width: int, height: int, out=None) -> np.ndarray:
    """Euclidean distance from every pixel center to the nearest segment of
    each polyline: segments ``[..., M, 2, 2]`` -> fields ``[..., H, W]``.

    A segment is an endpoint pair ``((u0, v0), (u1, v1))``.  Each field is
    built in blocks of R whole pixel rows, each an ``[R, W, M]`` array with
    the segments on the last, contiguous axis; R keeps a block near
    ``FIELD_BLOCK_BYTES`` rather than a whole ``[H, W, M]`` array.  The two
    block buffers are allocated once per call and serve every block of
    every field, so a stack of fields costs no more scratch memory than
    one.  Every (pixel, segment) value takes the same float operations in
    the same order whatever the block or the stack, and the minimum over
    segments is exact, so neither can change a bit of the output.  The
    minimum is taken over squared distances and one ``sqrt`` ends each
    field; that is exact too, because a correctly rounded ``sqrt`` is
    monotone.  A zero-length segment is its first endpoint.  The fields are
    written into ``out`` when it is given, a float64 array of the result's
    shape, and returned.
    """
    if width < 1 or height < 1:
        raise ValueError(f"grid sides must be positive, got {width}x{height}")
    segs = np.asarray(segments, dtype=np.float64)
    if segs.size == 0:
        raise ValueError("no segments given")
    if segs.ndim < 3 or segs.shape[-2:] != (2, 2):
        raise ValueError(f"segments must have shape (..., M, 2, 2), got {segs.shape}")
    if not np.isfinite(segs).all():
        raise ValueError("segment endpoints must be finite")
    shape = segs.shape[:-3] + (height, width)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    n_segments = segs.shape[-3]
    u = np.arange(width, dtype=np.float64)[:, None]
    v = np.arange(height, dtype=np.float64)[:, None, None]
    rows = min(height, max(1, FIELD_BLOCK_BYTES // (width * n_segments * 8)))
    t_block = np.empty((rows, width, n_segments))
    du_block = np.empty((rows, width, n_segments))
    for idx in np.ndindex(segs.shape[:-3]):
        seg, best = segs[idx], out[idx]
        au, av = seg[:, 0, 0], seg[:, 0, 1]  # [M]
        abu, abv = seg[:, 1, 0] - au, seg[:, 1, 1] - av
        denom = abu * abu + abv * abv
        # ab = 0 on a zero-length segment, so dividing by 1 there gives t = 0.
        denom[denom == 0.0] = 1.0
        proj_u = (u - au) * abu  # [W, M], the same on every row
        proj_v = (v - av) * abv  # [H, 1, M]
        for lo in range(0, height, rows):
            hi = min(lo + rows, height)
            t, du = t_block[: hi - lo], du_block[: hi - lo]
            np.add(proj_u, proj_v[lo:hi], out=t)
            t /= denom
            np.clip(t, 0.0, 1.0, out=t)
            # Offset from the pixel to the nearest point of each segment;
            # the v offset reuses t once the u offset is taken.
            np.multiply(t, abu, out=du)
            du += au
            du -= u
            t *= abv
            t += av
            t -= v[lo:hi]
            du *= du
            t *= t
            du += t
            du.min(axis=2, out=best[lo:hi])
        np.sqrt(best, out=best)
    return out


def polyline_segments(vertices: np.ndarray) -> np.ndarray:
    """Consecutive vertex pairs of open polylines, vertices [..., P, 2] -> [..., P-1, 2, 2]."""
    pts = np.asarray(vertices, dtype=np.float64)
    return np.stack([pts[..., :-1, :], pts[..., 1:, :]], -2)


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
    pad_width = [(0, 0)] * arr.ndim
    pad_width[axis] = (pad, pad)
    padded = np.pad(arr, pad_width, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, len(kernel), axis=axis)
    return windows @ kernel


# Center-weighted smoothing kernel used inside the sharpness adjustment,
# matching the common image-library convention.
_SMOOTH3 = np.array([[1.0, 1.0, 1.0], [1.0, 5.0, 1.0], [1.0, 1.0, 1.0]]) / 13.0


def _smooth3x3(arr: np.ndarray) -> np.ndarray:
    padded = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, (3, 3), axis=(-2, -1))
    return np.einsum("...ijkl,kl->...ij", windows, _SMOOTH3)


def refine_edge_heatmap(e: np.ndarray, cfg: SmoothingConfig) -> np.ndarray:
    """Gaussian-blur then sharpen each raw edge map of e [..., H, W].

    Sharpening blends a 3x3-smoothed copy with the blurred map at factor f:
    out = (1 - f) * smooth(x) + f * x, so f = 1 is the identity and f > 1
    amplifies detail.  Each map is clamped back into [0, max(x)] of its x.
    """
    k = _gaussian_kernel_1d(cfg.blur_kernel, cfg.blur_sigma)
    blurred = _convolve_replicate_1d(e, k, axis=-1)
    blurred = _convolve_replicate_1d(blurred, k, axis=-2)
    f = cfg.sharpness_factor
    sharp = (1.0 - f) * _smooth3x3(blurred) + f * blurred
    return np.clip(sharp, 0.0, blurred.max(axis=(-2, -1), keepdims=True))


def _check_on_grid(points: np.ndarray, shape, what: str, grid: str) -> None:
    """Raise naming the first of points [..., 2] in C order off grids [..., H, W]; NaN is off."""
    height, width = shape[-2:]
    off = ~((points >= 0) & (points <= (width - 1, height - 1))).all(axis=-1)
    if off.any():
        u, v = points[off][0]
        raise ValueError(f"{what} ({u:g}, {v:g}) outside the {width}x{height} {grid}")


def extract_patch(values: np.ndarray, centers, half: int) -> np.ndarray:
    """Fresh patches [..., N, 2*half+1, 2*half+1] of grids [..., H, W] around
    their cells centers [..., N, 2] of (u, v), zero-padded where they leave
    the grid; one grid [H, W] takes centers of any shape [..., 2]."""
    values = np.asarray(values, dtype=np.float64)
    c = np.asarray(centers)
    _check_on_grid(c, values.shape, "center", "grid")
    size = 2 * half + 1
    padded = np.pad(values, [(0, 0)] * (values.ndim - 2) + [(half, half)] * 2)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (size, size), axis=(-2, -1))
    maps = (i[..., None] for i in np.indices(values.shape[:-2], sparse=True))
    return windows[(*maps, c[..., 1], c[..., 0])]


def _normalize_max(arr: np.ndarray) -> np.ndarray:
    """Each patch of arr [..., P, P] over its peak, unless the peak is not positive."""
    m = arr.max(axis=(-2, -1), keepdims=True)
    return arr / np.where(m > 0, m, 1.0)


def joint_patch(
    e_refined: np.ndarray, points, cfg: SmoothingConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge patches, center bumps, and their blends around landmarks
    points on edge maps, shaped as ``extract_patch`` takes them.

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
    """Covariances [..., 2, 2] of the directional smoothing Gaussians for landmarks
    points on edge maps, shaped as ``extract_patch`` takes them; each mean is its landmark.

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
    Cholesky factor, are rounded and clamped to the grid, and merge with
    summed weights where they share a cell.  A row lists its distinct cells
    in order of first node, then zero-weight cells up to K, the most
    distinct cells of any row.  Before rounding the nodes have each label's
    mean and covariance, but the targets, though deterministic, only
    approximate the expectation over the Gaussian's rounded cells.
    """
    width, height = grid
    try:
        chol = np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as err:
        raise ValueError("label covariance is not positive definite") from err
    nodes = np.asarray(points)[..., None, :] + _CUBATURE_NODES @ np.swapaxes(chol, -1, -2)
    cells = np.clip(np.rint(nodes), 0, [width - 1, height - 1]).astype(int)
    same = (cells[..., :, None, :] == cells[..., None, :, :]).all(axis=-1)
    # A node leads its cell when no earlier node has the cell.
    lead = ~np.tril(same, -1).any(axis=-1)
    weights = np.where(lead, np.where(same, _CUBATURE_WEIGHTS, 0.0).sum(axis=-1), 0.0)
    k = lead.sum(axis=-1).max()
    order = np.argsort(~lead, axis=-1, kind="stable")[..., :k]
    return (np.take_along_axis(cells, order[..., None], -2),
            np.take_along_axis(weights, order, -1))


def _text_lines(path):
    """(line number, stripped text) of each line of the UTF-8 file ``path``
    that is neither blank nor a ``#`` comment; a leading BOM is dropped.

    A byte that is not UTF-8 raises ValueError naming its line.  It is
    decoded to a lone surrogate first, so the error can name the line and
    not the decoder's whole chunk.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as f:
        for lineno, raw in enumerate(f, start=1):
            if not raw.isascii():
                try:
                    raw.encode()
                except UnicodeEncodeError:
                    raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def read_annotations(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Parse annotation lines ``id u1 v1 u2 v2 ...`` into (ids, offsets, points).

    ``ids`` lists the sample ids in file order; they are unique and hold no
    ``/``, ``,`` or control character.  Sample ``s`` has the rows
    ``points[offsets[s]:offsets[s + 1]]`` of one C-contiguous float64 array
    points [P, 2], and offsets [S + 1] starts at 0.  A coordinate is an
    ASCII Python float literal without ``_``; the part of a line after its
    id is ASCII.  The first bad line in the file is reported.
    """
    # Imported here, not at module level: loading the extension module adds
    # about 0.1 MB to the peak RSS of synth and toy, which read no annotations.
    from array import array

    ids = []
    lines = array("q")  # line of each id
    seen = set()
    offsets = array("q", [0])
    coords = array("d")
    try:
        for lineno, line in _text_lines(path):
            tokens = line.split()
            if len(tokens) < 3 or len(tokens) % 2 == 0:
                raise ValueError(f"{path}:{lineno}: expected 'id u1 v1 ...' with N >= 1 pairs")
            sid = tokens[0]
            try:
                # float() would read 1_0 as 10, and any Unicode digit as its value.
                if line.find("_", len(sid)) >= 0:
                    raise ValueError("'_' in a coordinate")
                if not (line.isascii() or line[len(sid):].isascii()):
                    raise ValueError("non-ASCII coordinate")
                coords.extend(map(float, tokens[1:]))
            except ValueError as err:
                raise ValueError(f"{path}:{lineno}: malformed coordinate token") from err
            # Ids name output files and fill CSV cells.
            if "/" in sid or "," in sid:
                raise ValueError(f"{path}:{lineno}: sample id {sid!r} contains '/' or ','")
            # isprintable() is one C call that passes the common id.  It is also
            # False for some Unicode that ids may hold, so it only gates the scan.
            if not sid.isprintable() and any(c < " " or c == "\x7f" for c in sid):
                raise ValueError(
                    f"{path}:{lineno}: sample id {sid!r} contains a control character")
            if sid in seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate sample id {sid!r}, "
                    f"first given on line {lines[ids.index(sid)]}"
                )
            seen.add(sid)
            ids.append(sid)
            lines.append(lineno)
            offsets.append(len(coords) // 2)
    except ValueError:
        # Finiteness is checked once at array level, so an earlier line's
        # non-finite coordinate comes before this error.
        _check_finite(path, lines, offsets, coords)
        raise
    _check_finite(path, lines, offsets, coords)
    if not ids:
        raise ValueError(f"{path}: no annotation lines found")
    return ids, np.frombuffer(offsets, dtype=np.int64), np.frombuffer(coords).reshape(-1, 2)


def _check_finite(path, lines, offsets, coords) -> None:
    """Raise naming the line of the first sample with a non-finite coordinate,
    among the samples with offsets [S + 1] and coordinates coords[:2 * P]."""
    bad = ~np.isfinite(np.frombuffer(coords, count=2 * offsets[-1]))
    if bad.any():
        sample = np.searchsorted(offsets, bad.argmax() // 2, side="right") - 1
        raise ValueError(f"{path}:{lines[sample]}: landmark coordinates must be finite")


def read_boundaries(path) -> tuple[tuple[int, ...], ...]:
    """Parse boundary lines, one comma-separated index sequence per curve.

    An index is an ASCII Python int literal without ``_``.
    """
    curves = []
    for lineno, line in _text_lines(path):
        try:
            # int() would read 1_0 as 10, and any Unicode digit as its value.
            if "_" in line or not line.isascii():
                raise ValueError("index not ASCII without '_'")
            curve = tuple(int(tok) for tok in line.split(","))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: malformed boundary index") from err
        if len(curve) < 2:
            raise ValueError(f"{path}:{lineno}: boundary curve needs >= 2 indices")
        curves.append(curve)
    if not curves:
        raise ValueError(f"{path}: no boundary curves found")
    return tuple(curves)
