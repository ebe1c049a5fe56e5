import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from landmarklab import smoothing, synth
from landmarklab.cli import main
from landmarklab.smoothing import (
    SmoothingConfig,
    build_edge_heatmap,
    edge_heatmap,
    extract_patch,
    fit_gaussian_label,
    joint_patch,
    polyline_segments,
    read_annotations,
    read_boundaries,
    refine_edge_heatmap,
    sample_label,
    segment_distance_field,
)

import reference
from reference import row_distance_field

CFG = SmoothingConfig()


def horizontal_setup(size=64, row=32.0):
    """A straight horizontal boundary spanning the grid through one landmark."""
    landmarks = np.array([[2.0, row], [size / 2.0, row], [size - 3.0, row]])
    return landmarks, ((0, 1, 2),)


class TestBoundaryDef:
    def test_rejects_short_curves(self, tmp_path):
        path = tmp_path / "bnd.txt"
        path.write_text("0,1\n2\n")
        with pytest.raises(ValueError, match=r":2: boundary curve needs >= 2 indices"):
            read_boundaries(path)


class TestEdgeHeatmap:
    def test_on_segment_pixels_are_one(self):
        landmarks, boundaries = horizontal_setup()
        e = build_edge_heatmap(landmarks, boundaries, CFG)
        assert np.all(e[32, 2:62] == 1.0)

    def test_cutoff_beyond_three_sigma(self):
        landmarks, boundaries = horizontal_setup()
        e = build_edge_heatmap(landmarks, boundaries, CFG)
        offset = int(np.ceil(3 * CFG.sigma_b)) + 1  # 5.5 px -> row 32 +- 6
        assert np.all(e[32 + offset, :] == 0.0)
        assert np.all(e[32 - offset, :] == 0.0)

    def test_falloff_value_one_pixel_away(self):
        landmarks, boundaries = horizontal_setup()
        e = build_edge_heatmap(landmarks, boundaries, CFG)
        expected = np.exp(-1.0 / (2.0 * 1.5**2))
        np.testing.assert_allclose(e[33, 30], expected, rtol=1e-12)
        assert abs(expected - 0.8007) < 1e-4

    def test_rejects_empty_boundaries(self):
        landmarks, _ = horizontal_setup()
        with pytest.raises(ValueError):
            build_edge_heatmap(landmarks, (), CFG)

    def test_rejects_out_of_range_index(self):
        landmarks = np.array([[1.0, 1.0], [2.0, 2.0]])
        build_edge_heatmap(landmarks, ((0, 1),), CFG)
        with pytest.raises(ValueError, match="boundary index 2 out of range for 2 landmarks"):
            build_edge_heatmap(landmarks, ((0, 2),), CFG)

    def test_distance_field_point_segment(self):
        d = segment_distance_field([((1.0, 1.0), (3.0, 1.0))], 5, 3)
        np.testing.assert_allclose(d[1, 2], 0.0, atol=1e-12)
        np.testing.assert_allclose(d[0, 0], np.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(d[1, 4], 1.0, rtol=1e-12)


def reference_distance_field(segments, width, height):
    """Per-segment loop the array kernel replaced, kept as its oracle."""
    segs = [(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)) for a, b in segments]
    v, u = np.mgrid[0:height, 0:width]
    pts = np.stack([u.ravel(), v.ravel()], axis=1).astype(np.float64)
    best = np.full(pts.shape[0], np.inf)
    for a, b in segs:
        ab = b - a
        denom = float(ab @ ab)
        if denom == 0.0:
            closest = a[None, :]
        else:
            t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
            closest = a + t[:, None] * ab
        d = np.linalg.norm(pts - closest, axis=1)
        np.minimum(best, d, out=best)
    return best.reshape(height, width)


def random_segment_cases():
    """60 (segments, width, height) cases on non-square grids of 1-39 px."""
    rng = np.random.default_rng(31)
    for case in range(60):
        width, height = (int(x) for x in rng.integers(1, 40, size=2))
        segs = rng.uniform(-15.0, 55.0, size=(int(rng.integers(1, 24)), 2, 2))
        # Zero-length segments, some of them off the grid.
        segs[: case % 4, 1] = segs[: case % 4, 0]
        yield segs, width, height


def check_every_field(monkeypatch, module):
    """Make ``module``'s distance-field calls assert bit identity with the
    row-by-row oracle; returns the list of (M, width, height) calls seen."""
    kernel = module.segment_distance_field
    calls = []

    def checked(segments, width, height):
        field = kernel(segments, width, height)
        assert np.array_equal(field, row_distance_field(segments, width, height))
        calls.append((len(segments), width, height))
        return field

    monkeypatch.setattr(module, "segment_distance_field", checked)
    return calls


def ellipse_segments(size):
    """A closed 128-segment ellipse across a size x size grid."""
    t = np.linspace(0, 2 * np.pi, 129)
    return polyline_segments(np.stack([size * (0.5 + 0.31 * np.cos(t)),
                                       size * (0.5 + 0.19 * np.sin(t))], axis=1))


class TestSegmentDistanceField:
    def test_matches_per_segment_loop(self):
        for segs, width, height in random_segment_cases():
            d = segment_distance_field(segs, width, height)
            assert d.shape == (height, width)
            np.testing.assert_allclose(d, reference_distance_field(segs, width, height),
                                       rtol=0, atol=1e-12)
            assert np.array_equal(d, row_distance_field(segs, width, height))

    @pytest.mark.parametrize("size", [32, 16])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_rendered_contours_bit_identical_to_row_kernel(self, monkeypatch, size, seed):
        calls = check_every_field(monkeypatch, synth)
        synth.generate_dataset(100, size, size, 3, 0.02, seed=seed)
        assert calls == [(128, size, size)] * 100

    def test_face_edge_maps_bit_identical_to_row_kernel(self, monkeypatch):
        calls = check_every_field(monkeypatch, smoothing)
        data = Path(__file__).resolve().parents[1] / "sample_data"
        curves = read_boundaries(data / "boundaries.txt")
        rng = np.random.default_rng(33)
        for _, points in read_annotations(data / "annotations.txt"):
            for _ in range(10):
                moved = points + rng.uniform(-4.0, 4.0, 2) + rng.normal(0.0, 1.5, points.shape)
                build_edge_heatmap(moved, curves, CFG)
        assert set(calls) == {(6, 64, 64)}

    def test_field_independent_of_block_size(self, monkeypatch):
        cases = [*random_segment_cases(), (ellipse_segments(32), 32, 32),
                 (ellipse_segments(64), 64, 64), (ellipse_segments(48), 48, 22)]
        fields = []
        for block_bytes in (1, 1 << 40):
            monkeypatch.setattr(smoothing, "FIELD_BLOCK_BYTES", block_bytes)
            fields.append([segment_distance_field(*case) for case in cases])
        for one_row, whole in zip(*fields):
            assert np.array_equal(one_row, whole)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (-2, 4), (4, -1)])
    def test_rejects_non_positive_sides(self, width, height):
        with pytest.raises(ValueError, match="grid sides must be positive"):
            segment_distance_field([((1.0, 1.0), (3.0, 1.0))], width, height)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_endpoints(self, bad):
        segs = np.array([[[1.0, 1.0], [3.0, 1.0]], [[2.0, 2.0], [5.0, 4.0]]])
        segs[1, 1, 0] = bad
        with pytest.raises(ValueError, match="segment endpoints must be finite"):
            segment_distance_field(segs, 8, 6)

    def test_only_zero_length_segments_are_points(self):
        segs = np.array([[[2.0, 1.0], [2.0, 1.0]], [[-3.0, 7.5], [-3.0, 7.5]]])
        v, u = np.mgrid[0:6, 0:9]
        expected = np.minimum(np.hypot(u - 2.0, v - 1.0), np.hypot(u + 3.0, v - 7.5))
        np.testing.assert_allclose(segment_distance_field(segs, 9, 6), expected,
                                   rtol=0, atol=1e-12)

    def test_several_curves_through_edge_heatmap(self):
        rng = np.random.default_rng(32)
        landmarks = rng.uniform(-4.0, 36.0, size=(9, 2))
        boundaries = ((0, 1, 2, 3), (4, 5), (6, 7, 8, 6), (2, 2, 5))
        cfg = SmoothingConfig(edge_map_size=32)
        segments = []
        for curve in boundaries:
            pts = landmarks[list(curve)]
            segments.extend(zip(pts[:-1], pts[1:]))
        expected = edge_heatmap(reference_distance_field(segments, 32, 32), cfg.sigma_b)
        np.testing.assert_allclose(build_edge_heatmap(landmarks, boundaries, cfg),
                                   expected, rtol=0, atol=1e-12)

    def test_rejects_empty_or_misshapen_segments(self):
        for bad in ([], np.empty((0, 2, 2)), np.zeros((3, 4)), np.zeros((2, 3, 2))):
            with pytest.raises(ValueError):
                segment_distance_field(bad, 4, 4)

    def test_memory_stays_below_one_full_field(self):
        # Row by row, the kernel never holds an [M, H*W] array.
        segs = polyline_segments(
            np.stack([32 + 20 * np.cos(np.linspace(0, 2 * np.pi, 129)),
                      32 + 12 * np.sin(np.linspace(0, 2 * np.pi, 129))], axis=1))
        assert len(segs) == 128
        tracemalloc.start()
        try:
            segment_distance_field(segs, 64, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 64 * 64 * 8


class TestRefineEdgeHeatmap:
    def test_constant_map_fixed_point(self):
        e = np.full((16, 16), 0.37)
        out = refine_edge_heatmap(e, CFG)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_factor_one_is_blur_only(self):
        rng = np.random.default_rng(1)
        e = rng.random((20, 20))
        cfg = SmoothingConfig(sharpness_factor=1.0)
        out = refine_edge_heatmap(e, cfg)
        # Independent blur oracle; radius 4 at sigma 1.7 needs this truncate.
        blurred = ndimage.gaussian_filter(
            e, sigma=cfg.blur_sigma, mode="nearest", truncate=4.0 / cfg.blur_sigma
        )
        np.testing.assert_allclose(out, np.clip(blurred, 0, blurred.max()),
                                   atol=1e-12)

    def test_impulse_blur_center_weight(self):
        e = np.zeros((9, 9))
        e[4, 4] = 1.0
        cfg = SmoothingConfig(sharpness_factor=1.0)
        out = refine_edge_heatmap(e, cfg)
        k = np.exp(-((np.arange(9) - 4.0) ** 2) / (2 * cfg.blur_sigma**2))
        k /= k.sum()
        np.testing.assert_allclose(out[4, 4], k[4] ** 2, rtol=1e-12)
        # Full map equals the direct outer-product convolution.
        np.testing.assert_allclose(out, np.outer(k, k), atol=1e-12)

    def test_sharpening_amplifies_contrast(self):
        e = np.zeros((15, 15))
        e[7, :] = 1.0
        out = refine_edge_heatmap(e, CFG)
        blur_only = refine_edge_heatmap(e, SmoothingConfig(sharpness_factor=1.0))
        # Ridge flanks get pushed down, and the crest cannot exceed the clamp.
        assert out[5, 7] < blur_only[5, 7]
        assert out[7, 7] <= blur_only.max()
        crest_contrast = out[7, 7] - out[5, 7]
        assert crest_contrast > blur_only[7, 7] - blur_only[5, 7]

    def test_output_clamped(self):
        rng = np.random.default_rng(2)
        e = rng.random((12, 12))
        out = refine_edge_heatmap(e, CFG)
        assert out.min() >= 0.0


class TestFitGaussianLabel:
    def test_isotropic_without_edge_content(self):
        refined = np.zeros((33, 33))
        cfg = SmoothingConfig(blend=0.0)
        cov = fit_gaussian_label(refined, (16.0, 16.0), cfg)
        assert abs(cov[0, 1]) < 1e-12
        assert abs(cov[0, 0] / cov[1, 1] - 1.0) < 0.05

    def test_gamma_scaling_is_exact(self):
        landmarks, boundaries = horizontal_setup()
        refined = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, CFG), CFG)
        y = (32.0, 32.0)
        cov1 = fit_gaussian_label(refined, y, SmoothingConfig(gamma=0.01))
        cov2 = fit_gaussian_label(refined, y, SmoothingConfig(gamma=0.02))
        np.testing.assert_array_equal(cov2, 2.0 * cov1)
        w1, v1 = np.linalg.eigh(cov1)
        w2, v2 = np.linalg.eigh(cov2)
        np.testing.assert_allclose(np.abs(v1), np.abs(v2), atol=1e-12)

    def test_horizontal_edge_elongates_horizontally(self):
        landmarks, boundaries = horizontal_setup()
        refined = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, CFG), CFG)
        cov = fit_gaussian_label(refined, (32.0, 32.0), CFG)
        evals, evecs = np.linalg.eigh(cov)
        dominant = evecs[:, np.argmax(evals)]
        assert abs(dominant[0]) > 0.99  # |cosine| with the u axis
        assert evals.max() / evals.min() > 1.5

    def test_spd_floor(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            refined = rng.random((40, 40))
            y = (float(rng.uniform(0, 39)), float(rng.uniform(0, 39)))
            cov = fit_gaussian_label(refined, y, CFG)
            assert np.linalg.eigvalsh(cov).min() >= CFG.gamma * CFG.cov_reg
            np.testing.assert_allclose(cov[0, 1], cov[1, 0], atol=1e-15)

    def test_rejects_non_finite_covariance(self):
        refined = np.zeros((33, 33))
        refined[16, 16] = np.nan
        with pytest.raises(ValueError, match="must be finite and positive definite"):
            fit_gaussian_label(refined, (16.0, 16.0), CFG)

    def test_rotation_equivariance(self):
        # Rotating the refined edge map by 90 deg swaps the covariance
        # diagonal and flips the correlation sign.
        landmarks = np.array([[10.0, 10.0], [54.0, 54.0]])
        boundaries = ((0, 1),)  # diagonal line, nonzero correlation
        refined = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, CFG), CFG)
        y = (32.0, 32.0)
        base = fit_gaussian_label(refined, y, CFG)
        size = refined.shape[1]
        rotated = np.rot90(refined)
        # rot90 maps (u, v) -> (v, size-1-u), so the landmark lands on (32, 31).
        rot_cov = fit_gaussian_label(rotated, (y[1], size - 1 - y[0]), CFG)
        np.testing.assert_allclose(rot_cov[0, 0], base[1, 1], rtol=1e-9)
        np.testing.assert_allclose(rot_cov[1, 1], base[0, 0], rtol=1e-9)
        np.testing.assert_allclose(rot_cov[0, 1], -base[0, 1], rtol=1e-9)
        assert abs(base[0, 1]) > 1e-4

    def test_far_from_boundary_is_near_isotropic(self):
        landmarks, boundaries = horizontal_setup(row=5.0)
        refined = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, CFG), CFG)
        cov = fit_gaussian_label(refined, (32.0, 50.0), CFG)
        evals = np.linalg.eigvalsh(cov)
        assert evals.max() / evals.min() < 1.1

    def test_patch_extraction_zero_pads(self):
        values = np.arange(16.0).reshape(4, 4)
        patch = extract_patch(values, (0, 0), 1)
        assert patch.shape == (3, 3)
        assert patch[0, 0] == 0.0 and patch[1, 1] == values[0, 0]
        assert patch[2, 2] == values[1, 1]

    def test_joint_patch_components(self):
        refined = np.zeros((33, 33))
        edge, bump, blended = joint_patch(refined, (16.0, 16.0), CFG)
        k = CFG.patch_half
        assert edge.shape == bump.shape == blended.shape == (2 * k + 1, 2 * k + 1)
        assert bump[k, k] == 1.0
        np.testing.assert_allclose(blended, CFG.blend * edge + bump, atol=1e-15)

    @pytest.mark.parametrize("center", [(-1, 2), (2, -1), (5, 0), (0, 4), (-3, -3)])
    def test_extract_patch_rejects_off_grid_center(self, center):
        # A negative index would wrap to the far side of the grid unchecked.
        values = np.ones((4, 5))
        match = rf"center \({center[0]}, {center[1]}\) outside the 5x4 grid"
        with pytest.raises(ValueError, match=match):
            extract_patch(values, [(1, 1), center, (9, 9)], 1)

    def test_first_outside_landmark_is_named(self):
        points = np.array([[1.0, 1.0], [40.5, 2.0], [3.0, 3.0], [-2.0, 7.0]])
        with pytest.raises(ValueError, match=r"landmark \(40.5, 2\) outside the 33x33 edge map"):
            fit_gaussian_label(np.zeros((33, 33)), points, CFG)

    def test_patches_are_fresh_arrays(self):
        values = np.arange(25.0).reshape(5, 5)
        patches = extract_patch(values, [(0, 0), (2, 2)], 1)
        assert patches.shape == (2, 3, 3) and patches.flags.writeable
        patches[...] = -1.0
        assert values.min() == 0.0


def border_coords(rng, side, n):
    """n coordinates in [0, side - 1], most of them on, next to or half a
    pixel from a border."""
    near = np.array([0.0, 0.3, 0.5, 1.0, side - 2.0, side - 1.5, side - 1.2, side - 1.0])
    return np.where(rng.random(n) < 0.75, rng.choice(near, n), rng.uniform(0, side - 1, n))


class TestLandmarkArrays:
    """The array functions against the per-landmark reference, bit for bit."""

    @pytest.mark.parametrize("seed, kind", enumerate(["random", "no_blend", "zero_map"]))
    def test_matches_per_landmark_reference(self, seed, kind):
        rng = np.random.default_rng(seed)
        for half in range(1, 13):
            for n in range(1, 9):
                height, width = rng.integers(3, 40, 2)
                values = rng.random((height, width))
                if kind == "zero_map":
                    values[...] = 0.0
                blend = 0.0 if kind == "no_blend" else rng.uniform(0.0, 2.0)
                cfg = SmoothingConfig(patch_half=half, blend=blend)
                points = np.stack([border_coords(rng, width, n), border_coords(rng, height, n)], 1)
                centers = np.rint(points).astype(int)
                patches = extract_patch(values, centers, half)
                joint = joint_patch(values, points, cfg)
                covs = fit_gaussian_label(values, points, cfg)
                for i, y in enumerate(points):
                    ref = reference.extract_patch(values, tuple(centers[i]), half)
                    assert np.array_equal(patches[i], ref)
                    for new, old in zip(joint, reference.joint_patch(values, tuple(y), cfg)):
                        assert np.array_equal(new[i], old)
                    ref = reference.fit_gaussian_label(values, tuple(y), cfg)
                    assert np.array_equal(covs[i], ref)

    def test_leading_axes_and_single_landmark(self):
        rng = np.random.default_rng(5)
        values = rng.random((20, 30))
        points = np.stack([border_coords(rng, 30, 6), border_coords(rng, 20, 6)], 1)
        covs = fit_gaussian_label(values, points.reshape(2, 3, 2), CFG)
        assert covs.shape == (2, 3, 2, 2)
        flat = fit_gaussian_label(values, points, CFG)
        np.testing.assert_array_equal(covs.reshape(6, 2, 2), flat)
        assert fit_gaussian_label(values, tuple(points[4]), CFG).shape == (2, 2)
        np.testing.assert_array_equal(fit_gaussian_label(values, points[4], CFG), covs[1, 1])


class TestSampleLabel:
    def test_degenerate_covariance(self):
        mean, cov = (3.4, 6.6), 1e-12 * np.eye(2)
        cells = sample_label(mean, cov, 50, 0, (10, 10))
        np.testing.assert_array_equal(cells, np.tile([3, 7], (50, 1)))

    def test_seed_determinism(self):
        mean, cov = (5.0, 5.0), np.array([[2.0, 0.5], [0.5, 1.0]])
        a = sample_label(mean, cov, 100, 42, (11, 11))
        b = sample_label(mean, cov, 100, 42, (11, 11))
        assert a.shape == (100, 2)
        assert a.tobytes() == b.tobytes()
        c = sample_label(mean, cov, 100, 43, (11, 11))
        assert not np.array_equal(a, c)

    def test_sample_variance_matches_covariance(self):
        mean, cov = (100.0, 100.0), np.diag([4.0, 1.0])
        cells = np.array(sample_label(mean, cov, 10_000, 7, (201, 201)), dtype=float)
        var_u = cells[:, 0].var()
        var_v = cells[:, 1].var()
        assert 3.5 <= var_u <= 4.5
        assert 0.8 <= var_v <= 1.2

    def test_clamping_keeps_cells_in_bounds(self):
        mean, cov = (0.0, 0.0), 25.0 * np.eye(2)
        cells = sample_label(mean, cov, 500, 9, (4, 4))
        arr = np.array(cells)
        assert arr.min() >= 0 and arr[:, 0].max() <= 3 and arr[:, 1].max() <= 3

    def test_rejects_bad_args(self):
        mean, cov = (1.0, 1.0), np.eye(2)
        with pytest.raises(ValueError):
            sample_label(mean, cov, 0, 0, (5, 5))


class TestSampleLabelArrays:
    """One call draws for a stack of Gaussians; the per-landmark reference
    draws for one."""

    BOUNDS = (9, 7)

    @staticmethod
    def gaussians(lead, seed=31):
        """Means in and around a 9x7 grid with covariances from 1e-3 to 1e2 px^2."""
        rng = np.random.default_rng(seed)
        means = rng.uniform(-2.0, 10.0, lead + (2,))
        a = rng.normal(size=lead + (2, 2))
        covs = a @ np.swapaxes(a, -1, -2) + 1e-3 * np.eye(2)
        return means, covs * 10.0 ** rng.uniform(-3.0, 2.0, lead + (1, 1))

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_single_mean_matches_per_landmark_reference(self, n):
        means, covs = self.gaussians((40,))
        for seed, (mean, cov) in enumerate(zip(means, covs)):
            expected = reference.sample_label(mean, cov, n, seed, self.BOUNDS)
            for m in (mean, tuple(mean)):
                cells = sample_label(m, cov, n, seed, self.BOUNDS)
                assert cells.shape == (n, 2) and cells.dtype == expected.dtype
                np.testing.assert_array_equal(cells, expected)

    @pytest.mark.parametrize("lead", [(1, 1), (4, 3), (5, 1), (2, 6)])
    def test_stack_colors_one_stream(self, lead):
        means, covs = self.gaussians(lead)
        n, seed = 4, 77
        cells = sample_label(means, covs, n, seed, self.BOUNDS)
        assert cells.shape == lead + (n, 2)
        z = np.random.default_rng(seed).standard_normal(lead + (n, 2))
        for s in range(lead[0]):
            for k in range(lead[1]):
                pts = means[s, k] + z[s, k] @ np.linalg.cholesky(covs[s, k]).T
                expected = np.clip(np.rint(pts), 0, [8, 6]).astype(int)
                np.testing.assert_array_equal(cells[s, k], expected)

    def test_one_covariance_serves_every_mean(self):
        means, covs = self.gaussians((3, 4))
        shared = np.broadcast_to(covs[1, 2], covs.shape)
        np.testing.assert_array_equal(sample_label(means, covs[1, 2], 5, 8, self.BOUNDS),
                                      sample_label(means, shared, 5, 8, self.BOUNDS))

    @pytest.mark.parametrize("at", [(0, 0), (2, 1), (3, 2)])
    def test_non_positive_definite_anywhere_raises(self, at):
        means, covs = self.gaussians((4, 3))
        covs[at] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError, match="not positive definite"):
            sample_label(means, covs, 3, 0, self.BOUNDS)


class TestLabelCells:
    """The fixed cubature targets: a 3x3 Gauss-Hermite product rule through
    each label, merged to distinct cells."""

    BOUNDS = TestSampleLabelArrays.BOUNDS

    @staticmethod
    def rule():
        """Nodes [9, 2] in row-major order of (u, v) pairs and weights [9],
        built from numpy's probabilists' Gauss-Hermite rule."""
        z, w = np.polynomial.hermite_e.hermegauss(3)
        nodes = np.array([(zu, zv) for zu in z for zv in z])
        weights = np.array([wu * wv for wu in w for wv in w]) / (2.0 * np.pi)
        return nodes, weights

    def test_nodes_reproduce_mean_and_covariance(self):
        nodes, weights = self.rule()
        means, covs = TestSampleLabelArrays.gaussians((40,))
        for mean, cov in zip(means, covs):
            pts = mean + nodes @ np.linalg.cholesky(cov).T
            centered = pts - mean
            np.testing.assert_allclose(weights @ pts, mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose((weights * centered.T) @ centered, cov,
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("lead", [(40,), (4, 3), (1, 1)])
    def test_rows_list_distinct_cells_in_node_order(self, lead):
        nodes, weights = self.rule()
        means, covs = TestSampleLabelArrays.gaussians(lead)
        cells, cell_weights = smoothing.label_cells(means, covs, self.BOUNDS)
        k = cells.shape[-2]
        assert cells.shape == lead + (k, 2) and cell_weights.shape == lead + (k,)
        assert (cells >= 0).all() and (cells <= [8, 6]).all()
        np.testing.assert_allclose(cell_weights.sum(axis=-1), 1.0, rtol=0, atol=1e-15)
        widths = []
        for idx in np.ndindex(lead):
            expected = {}
            pts = means[idx] + nodes @ np.linalg.cholesky(covs[idx]).T
            for (u, v), w in zip(np.clip(np.rint(pts), 0, [8, 6]).astype(int), weights):
                expected[u, v] = expected.get((u, v), 0.0) + w
            m = len(expected)
            widths.append(m)
            assert [tuple(c) for c in cells[idx][:m]] == list(expected)
            np.testing.assert_allclose(cell_weights[idx][:m], list(expected.values()),
                                       rtol=1e-15)
            assert (cell_weights[idx][m:] == 0).all()
        assert k == max(widths)

    def test_near_zero_gamma_gives_one_cell(self):
        ds = synth.generate_dataset(6, 16, 16, 3, 0.02, seed=5)
        scfg = SmoothingConfig(gamma=1e-15)
        covs = np.array([synth.fit_sample_labels(d, p, scfg)
                         for d, p in zip(ds.distance, ds.points)])
        cells, weights = smoothing.label_cells(ds.points, covs, ds.grid)
        assert cells.shape == (6, 3, 1, 2)
        np.testing.assert_array_equal(cells[..., 0, :],
                                      np.clip(np.rint(ds.points), 0, 15).astype(int))
        np.testing.assert_array_equal(weights, 1.0)

    def test_non_positive_definite_raises(self):
        means, covs = TestSampleLabelArrays.gaussians((4, 3))
        covs[2, 1] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError, match="not positive definite"):
            smoothing.label_cells(means, covs, self.BOUNDS)


class TestPipelineDeterminism:
    def test_bit_identical_runs(self):
        landmarks, boundaries = horizontal_setup()
        outs = []
        for _ in range(2):
            refined = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, CFG), CFG)
            cov = fit_gaussian_label(refined, (31.0, 32.0), CFG)
            cells = sample_label((31.0, 32.0), cov, 10, 1234, (64, 64))
            outs.append((refined.tobytes(), cov.tobytes(), cells.tobytes()))
        assert outs[0] == outs[1]


class TestAnnotationIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("s0 1.5 2 3 4\ns1 5 6 7 8\n")
        samples = read_annotations(path)
        assert [sid for sid, _ in samples] == ["s0", "s1"]
        np.testing.assert_allclose(samples[0][1], [[1.5, 2.0], [3.0, 4.0]])

    def test_malformed_coordinate_cites_line(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("s0 1 2\ns1 3 4\ns2 5 oops\n")
        with pytest.raises(ValueError, match=r":3"):
            read_annotations(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_cites_line(self, tmp_path, token):
        path = tmp_path / "ann.txt"
        path.write_text(f"s0 1 2\ns1 3 {token}\n")
        with pytest.raises(ValueError, match=r"ann\.txt:2: landmark coordinates must be finite"):
            read_annotations(path)

    @pytest.mark.parametrize("line", ["s0 1 2 3", "s0"], ids=["odd_count", "id_only"])
    def test_wrong_token_count_rejected(self, tmp_path, line):
        path = tmp_path / "ann.txt"
        path.write_text(f"{line}\n")
        with pytest.raises(ValueError, match=r":1"):
            read_annotations(path)

    def test_boundary_parsing(self, tmp_path):
        path = tmp_path / "bnd.txt"
        path.write_text("0,1,2\n# comment\n3,4\n")
        assert read_boundaries(path) == ((0, 1, 2), (3, 4))

    def test_boundary_errors(self, tmp_path):
        path = tmp_path / "bnd.txt"
        path.write_text("0,x\n")
        with pytest.raises(ValueError, match=r":1"):
            read_boundaries(path)

    def test_labels_csv(self, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("s0 20 32 32 32 44 32\n")
        bnd = tmp_path / "bnd.txt"
        bnd.write_text("0,1,2\n")
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out)]) == 0
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv"
        [(_, landmarks)] = read_annotations(ann)
        refined = refine_edge_heatmap(
            build_edge_heatmap(landmarks, read_boundaries(bnd), CFG), CFG)
        expected = ["sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv"]
        for n, (u, v) in enumerate(landmarks):
            cov = fit_gaussian_label(refined, (u, v), CFG)
            cells = (u, v, cov[0, 0], cov[0, 1], cov[1, 1])
            expected.append(",".join(["s0", str(n), *(format(float(x), ".12g") for x in cells)]))
        assert lines == expected
        assert lines[1].startswith("s0,0,20,32,")  # 20.0 is written as 20
