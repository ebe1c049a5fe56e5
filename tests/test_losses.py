from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from landmarklab.heatmap import argmax, softmax
from landmarklab.losses import (
    StructuredLossConfig,
    _cell_margins,
    _margin_windows,
    heatmap_mse_batch,
    smoothed_structured_batch,
    soft_argmax_l2_batch,
    structured_batch,
)
from landmarklab.smoothing import label_cells

from reference import margin_table

RAW_L1 = StructuredLossConfig(margin="l1", margin_alpha=1.0, margin_normalize=False)
RAW_L2 = StructuredLossConfig(margin="l2", margin_alpha=1.0, margin_normalize=False)
RAW_SMOOTH = StructuredLossConfig(margin="smooth_l1", margin_s=0.01, margin_alpha=1.0,
                                  margin_normalize=False)
NONE_SPEC = StructuredLossConfig(margin="none")

ALL_MARGIN_SPECS = [NONE_SPEC, RAW_L1, RAW_L2, RAW_SMOOTH,
                    StructuredLossConfig(margin="smooth_l1", margin_s=0.01, margin_alpha=1.0,
                                         margin_normalize=True)]


def finite_difference_grad(fn, values, step=1e-5):
    """Central-difference gradient of a scalar function of a grid."""
    grad = np.zeros_like(values)
    it = np.nditer(values, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = values.copy()
        bumped[idx] += step
        hi = fn(bumped)
        bumped[idx] -= 2 * step
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2 * step)
    return grad


def assert_grad_close(analytic, fd, rel_tol=1e-6, abs_floor=1e-8):
    """Componentwise: pass on tiny absolute difference, else on relative error."""
    diff = np.abs(analytic - fd)
    denom = np.maximum(np.abs(analytic), np.abs(fd))
    bad = (diff > abs_floor) & (diff > rel_tol * denom)
    assert not bad.any(), (
        f"gradient mismatch at {np.argwhere(bad)[:5]}: "
        f"analytic {analytic[bad][:5]} vs fd {fd[bad][:5]}"
    )


class TestMargin:
    # The margin depends on the offset only through |du| and |dv|: a fractional
    # offset d from the truth is read at cell (0, 0) with the truth at d.
    @pytest.mark.parametrize("spec", ALL_MARGIN_SPECS)
    def test_zero_at_truth(self, spec):
        assert margin_table(spec, (3.0, 4.0), 10, 10)[4, 3] == 0.0

    def test_smooth_l1_branch_continuity(self):
        # At the breakpoint |d|_1 = s both branches give 0.5 * s.
        spec = RAW_SMOOTH
        at_break = margin_table(spec, (0.01, 0.0), 10, 10)[0, 0]
        quad_limit = 0.5 / 0.01 * 0.01**2
        lin_limit = 0.01 - 0.5 * 0.01
        assert quad_limit == lin_limit == 0.005
        np.testing.assert_allclose(at_break, 0.005, rtol=1e-12)

    def test_smooth_l1_linear_branch_value(self):
        got = margin_table(RAW_SMOOTH, (0.3, 0.4), 10, 10)[0, 0]
        np.testing.assert_allclose(got, 0.7 - 0.005, rtol=1e-12)

    def test_smooth_l1_quadratic_branch_value(self):
        got = margin_table(RAW_SMOOTH, (0.002, 0.003), 10, 10)[0, 0]
        np.testing.assert_allclose(got, 0.5 / 0.01 * (0.002**2 + 0.003**2), rtol=1e-12)

    def test_l1_l2_values(self):
        np.testing.assert_allclose(margin_table(RAW_L1, (0, 0), 10, 10)[4, 3], 7.0)
        np.testing.assert_allclose(margin_table(RAW_L2, (0, 0), 10, 10)[4, 3], 5.0)

    def test_normalized_coordinates(self):
        spec = StructuredLossConfig(margin="l2", margin_alpha=2.0, margin_normalize=True)
        got = margin_table(spec, (0.0, 0.0), 20, 10)[4, 3]
        np.testing.assert_allclose(got, 2.0 * 5.0 / 20.0, rtol=1e-12)

    def test_alpha_scales(self):
        spec = StructuredLossConfig(margin="l1", margin_alpha=3.0, margin_normalize=False)
        np.testing.assert_allclose(margin_table(spec, (0, 0), 4, 4)[1, 1], 6.0)

    def test_rejects_invalid_spec(self):
        with pytest.raises(ValueError):
            StructuredLossConfig(margin="smooth_l1", margin_s=0.0)
        with pytest.raises(ValueError):
            StructuredLossConfig(margin="l1", margin_alpha=-0.5)
        with pytest.raises(ValueError):
            StructuredLossConfig(margin="manhattan")

    def test_table_matches_pointwise(self):
        # The structured kernel gathers each integer target's margins from
        # one offset table; every target must see margin_table's values.
        for spec in ALL_MARGIN_SPECS:
            for v in range(4):
                for u in range(5):
                    gathered = _cell_margins(spec, np.array([u, v]), 5, 4)
                    np.testing.assert_allclose(
                        gathered.reshape(4, 5), margin_table(spec, (u, v), 5, 4), rtol=1e-12
                    )


class TestStructuredLoss:
    def test_uniform_heatmap_value_and_grad(self):
        scores = np.zeros(4)
        cfg = replace(NONE_SPEC, epsilon=1.0)
        for y in range(4):
            value, _ = structured_batch(scores, (y, 0), (4, 1), cfg)
            np.testing.assert_allclose(value, np.log(4.0), rtol=1e-12)
        _, grad = structured_batch(scores, (0, 0), (4, 1), cfg)
        np.testing.assert_allclose(grad.reshape(1, 4), [[-0.75, 0.25, 0.25, 0.25]], rtol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(21)
        cfg = replace(RAW_L1, epsilon=0.8)
        h = rng.normal(size=(3, 4))
        base, _ = structured_batch(h.ravel(), (2, 1), (4, 3), cfg)
        for c in (-17.0, 0.5, 1234.0):
            shifted, _ = structured_batch((h + c).ravel(), (2, 1), (4, 3), cfg)
            assert abs(shifted - base) < 1e-9

    def test_bimodal_value_brute_force(self):
        # Margins |k - 2| added to the scores, then a plain log-sum-exp.
        scores = np.array([0.4, 0.1, 0.0, 0.1, 0.4])
        aug = np.abs(np.arange(5) - 2) + scores
        expected = np.log(np.exp(aug).sum()) - scores[2]
        cfg = replace(RAW_L1, epsilon=1.0)
        value, _ = structured_batch(scores, (2, 0), (5, 1), cfg)
        np.testing.assert_allclose(value, expected, rtol=1e-12)
        # Small-temperature limit tends to the worst augmented score.
        cfg0 = replace(RAW_L1, epsilon=1e-6)
        value0, _ = structured_batch(scores, (2, 0), (5, 1), cfg0)
        np.testing.assert_allclose(value0, aug.max() - scores[2], atol=1e-5)
        assert abs(value0 - 2.4) < 1e-5

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        for spec in ALL_MARGIN_SPECS:
            cfg = replace(spec, epsilon=1.3)
            values = rng.normal(size=(4, 5))
            y = (3, 2)
            _, grad = structured_batch(values.ravel(), y, (5, 4), cfg)
            grad = grad.reshape(4, 5)
            assert abs(grad.sum()) < 1e-10
            assert -1.0 <= grad[2, 3] <= 0.0
            fd = finite_difference_grad(
                lambda x: structured_batch(x.ravel(), y, (5, 4), cfg)[0], values
            )
            assert_grad_close(grad, fd)

    def test_convexity_in_heatmap(self):
        rng = np.random.default_rng(4)
        cfg = replace(RAW_SMOOTH, epsilon=0.5)
        for _ in range(50):
            h1 = rng.normal(size=(3, 5))
            h2 = rng.normal(size=(3, 5))
            t = rng.uniform()
            y = (int(rng.integers(0, 5)), int(rng.integers(0, 3)))
            mix, _ = structured_batch((t * h1 + (1 - t) * h2).ravel(), y, (5, 3), cfg)
            bound = (
                t * structured_batch(h1.ravel(), y, (5, 3), cfg)[0]
                + (1 - t) * structured_batch(h2.ravel(), y, (5, 3), cfg)[0]
            )
            assert mix <= bound + 1e-9

    def test_no_margin_reduces_to_tempered_cross_entropy(self):
        rng = np.random.default_rng(6)
        for eps in (0.25, 1.0, 3.0):
            values = rng.normal(size=(4, 4))
            y = (1, 2)
            cfg = replace(NONE_SPEC, epsilon=eps)
            value, _ = structured_batch(values.ravel(), y, (4, 4), cfg)
            ce = -eps * np.log(softmax(values.ravel() / eps)[2 * 4 + 1])
            assert abs(value - ce) < 1e-10

    def test_small_temperature_hinge_limit(self):
        rng = np.random.default_rng(8)
        cfg = replace(RAW_L2, epsilon=1e-4)
        for _ in range(20):
            values = rng.normal(size=(4, 6))
            y = (2, 1)
            value, _ = structured_batch(values.ravel(), y, (6, 4), cfg)
            aug = margin_table(RAW_L2, (2, 1), 6, 4) + values
            hinge = aug.max() - values[1, 2]
            assert abs(value - hinge) < 1e-3

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            StructuredLossConfig(epsilon=0.0)

    def test_cached_margin_windows_are_read_only(self):
        windows = _margin_windows(RAW_L2, 6, 4)
        assert _margin_windows(RAW_L2, 6, 4) is windows
        with pytest.raises(ValueError):
            windows[0, 0, 0, 0] = 1.0
        # The gradient is built in a fresh gather, so writing it leaves the cache alone.
        cfg = replace(RAW_L2, epsilon=1.0)
        scores = np.random.default_rng(3).normal(size=(2, 24))
        cells = np.array([[0, 0], [5, 3]])
        value, grad = structured_batch(scores, cells, (6, 4), cfg)
        grad[...] = np.nan
        again = structured_batch(scores, cells, (6, 4), cfg)
        np.testing.assert_array_equal(again[0], value)
        assert np.isfinite(again[1]).all()


class TestSoftArgmaxL2Loss:
    def test_bimodal_zero_loss_wrong_argmax(self):
        # Balanced two-peak scores: zero coordinate loss, argmax far off.
        probs = np.array([0.4, 0.1, 1e-300, 0.1, 0.4])
        h = np.log(probs)
        value, _ = soft_argmax_l2_batch(h, (2.0, 0.0), (5, 1))
        assert value < 1e-18
        assert tuple(argmax(h, (5, 1))) == (0, 0)
        # The structured objective still penalizes this heatmap.
        cfg = RAW_L1
        structured_value, _ = structured_batch(h, (2, 0), (5, 1), cfg)
        assert structured_value > 0.5

    def test_concentrated_mass_zero_loss_and_grad(self):
        values = np.zeros((1, 5))
        values[0, 2] = 40.0
        value, grad = soft_argmax_l2_batch(values.ravel(), (2.0, 0.0), (5, 1))
        assert abs(value) < 1e-12
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(1, 7))
        _, grad = soft_argmax_l2_batch(values.ravel(), (3.0, 0.0), (7, 1))
        fd = finite_difference_grad(
            lambda x: soft_argmax_l2_batch(x.ravel(), (3.0, 0.0), (7, 1))[0], values
        )
        assert_grad_close(grad.reshape(1, 7), fd)

    def test_gradient_2d(self):
        rng = np.random.default_rng(10)
        values = rng.normal(size=(5, 6))
        y = (2.5, 3.5)
        _, grad = soft_argmax_l2_batch(values.ravel(), y, (6, 5))
        fd = finite_difference_grad(
            lambda x: soft_argmax_l2_batch(x.ravel(), y, (6, 5))[0], values
        )
        assert_grad_close(grad.reshape(5, 6), fd)


class TestHeatmapMseLoss:
    def test_identical_maps(self):
        h = np.arange(6.0).reshape(2, 3)
        value, grad = heatmap_mse_batch(h.ravel(), h.ravel())
        assert value == 0.0
        np.testing.assert_array_equal(grad.reshape(2, 3), np.zeros((2, 3)))

    def test_constant_offset(self):
        base = np.zeros((1, 4))
        value, grad = heatmap_mse_batch((base + 1.0).ravel(), base.ravel())
        assert value == 4.0
        np.testing.assert_array_equal(grad.reshape(1, 4), np.full((1, 4), 2.0))

    def test_random_pair_brute_force(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3))
        expected = sum((a[i, j] - b[i, j]) ** 2 for i in range(3) for j in range(3))
        value, _ = heatmap_mse_batch(a.ravel(), b.ravel())
        np.testing.assert_allclose(value, expected, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        _, grad = heatmap_mse_batch(a.ravel(), b.ravel())
        fd = finite_difference_grad(lambda x: heatmap_mse_batch(x.ravel(), b.ravel())[0], a)
        assert_grad_close(grad.reshape(4, 4), fd)


class TestSmoothedStructuredLoss:
    CFG = replace(RAW_L1, epsilon=1.0)

    def test_degenerate_covariance_collapses_to_mean_cell(self):
        rng = np.random.default_rng(15)
        values = rng.normal(size=(7, 7)).ravel()
        mean, cov = (4.2, 3.1), 1e-18 * np.eye(2)
        direct_value, direct_grad = structured_batch(values, (4, 3), (7, 7), self.CFG)
        one, weights = label_cells(mean, cov, (7, 7))
        assert one.shape == (1, 2) and weights.tolist() == [1.0]
        one_value, one_grad = smoothed_structured_batch(values, one, weights, (7, 7), self.CFG)
        assert one_value == direct_value
        np.testing.assert_array_equal(one_grad, direct_grad)
        # Averaging n identical cells only adds float round-off.
        many = np.repeat(one, 25, axis=0)
        many_value, many_grad = smoothed_structured_batch(values, many, np.full(25, 1.0 / 25),
                                                          (7, 7), self.CFG)
        np.testing.assert_allclose(many_value, direct_value, rtol=1e-13)
        np.testing.assert_allclose(many_grad, direct_grad, atol=1e-15)

    def test_is_mean_over_drawn_cells(self):
        rng = np.random.default_rng(16)
        values = rng.normal(size=(6, 6)).ravel()
        mean, cov = (2.5, 2.5), np.array([[2.0, 0.3], [0.3, 1.0]])
        cells, weights = label_cells(mean, cov, (6, 6))
        assert len(cells) > 1
        expected = sum(w * structured_batch(values, c, (6, 6), self.CFG)[0]
                       for c, w in zip(cells, weights))
        value, _ = smoothed_structured_batch(values, cells, weights, (6, 6), self.CFG)
        assert abs(value - expected) < 1e-12

    def test_zero_weight_padding_is_inert(self):
        # label_cells pads each row with zero-weight cells up to the widest row.
        rng = np.random.default_rng(26)
        means = rng.uniform(0.0, 4.0, (3, 2, 2))
        a = rng.normal(size=(3, 2, 2, 2))
        scale = 10.0 ** rng.uniform(-2.0, 0.5, (3, 2, 1, 1))
        covs = a @ np.swapaxes(a, -1, -2) * scale + 1e-3 * np.eye(2)
        cells, weights = label_cells(means, covs, (5, 5))
        assert (weights == 0).sum() == 9
        scores = rng.normal(size=(3, 2, 25))
        value, grad = smoothed_structured_batch(scores, cells, weights, (5, 5), self.CFG)
        for idx in np.ndindex(3, 2):
            live = weights[idx] > 0
            row_value, row_grad = smoothed_structured_batch(
                scores[idx], cells[idx][live], weights[idx][live], (5, 5), self.CFG)
            assert row_value.tobytes() == value[idx].tobytes()
            assert row_grad.tobytes() == grad[idx].tobytes()

    # Independent oracle for a diagonal covariance: the expectation over
    # rounded-and-clamped cells factorizes into per-axis normal masses.
    ENUM_MEAN, ENUM_SIGMA = (4.6, 3.9), (1.3, 0.8)

    def exact_enumeration(self, values):
        """Expected loss over the rounded, clamped cells on a 9 x 9 grid."""
        def axis_masses(mean, sigma, n_cells):
            edges = np.arange(n_cells - 1) + 0.5
            cdf = stats.norm.cdf(edges, loc=mean, scale=sigma)
            return np.diff(np.concatenate([[0.0], cdf, [1.0]]))

        pu = axis_masses(self.ENUM_MEAN[0], self.ENUM_SIGMA[0], 9)
        pv = axis_masses(self.ENUM_MEAN[1], self.ENUM_SIGMA[1], 9)
        exact = 0.0
        for u in range(9):
            for v in range(9):
                lv, _ = structured_batch(values, (u, v), (9, 9), self.CFG)
                exact += pu[u] * pv[v] * lv
        return exact

    def test_cubature_near_exact_enumeration(self):
        """The cubature cells give a deterministic expected loss, not the exact one.

        Its nine nodes match the Gaussian's mean and covariance, but the loss
        of a rounded cell is not a low-order polynomial of the node.  At sigma
        (1.3, 0.8) the rule gives 13.501 against the exact 12.508, an error
        of 0.993 (7.9%).  The bound of 1.0 sits just above that.
        """
        values = np.random.default_rng(17).normal(size=(9, 9)).ravel()
        exact = self.exact_enumeration(values)
        cells, weights = label_cells(self.ENUM_MEAN, np.diag(np.square(self.ENUM_SIGMA)), (9, 9))
        value, _ = smoothed_structured_batch(values, cells, weights, (9, 9), self.CFG)
        assert abs(value - exact) < 1.0

    def test_grad_averages_and_matches_fd(self):
        rng = np.random.default_rng(18)
        values = rng.normal(size=(5, 5))
        mean, cov = (2.0, 2.0), np.array([[1.5, -0.4], [-0.4, 0.9]])
        cells, weights = label_cells(mean, cov, (5, 5))
        _, grad = smoothed_structured_batch(values.ravel(), cells, weights, (5, 5), self.CFG)
        grad = grad.reshape(5, 5)
        fd = finite_difference_grad(
            lambda x: smoothed_structured_batch(x.ravel(), cells, weights, (5, 5), self.CFG)[0],
            values,
        )
        assert_grad_close(grad, fd)
        assert abs(grad.sum()) < 1e-10
