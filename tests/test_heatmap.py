import numpy as np
import pytest

import landmarklab
from landmarklab.heatmap import (
    argmax,
    coordinate_grids,
    gaussian_bumps,
    save_heatmap_pgm,
    soft_argmax,
    softmax,
)

# Score rows whose softmax reproduces the unimodal / bimodal probability
# tables: log of the target probabilities (tiny floor instead of -inf).
UNIMODAL_P = [0.0, 0.0, 1.0, 0.0, 0.0]
BIMODAL_P = [0.4, 0.1, 0.0, 0.1, 0.4]


def scores_for_probs(probs):
    return np.log(np.maximum(np.array(probs, dtype=float), 1e-300))


def test_star_import_resolves_all_exports():
    namespace = {}
    exec("from landmarklab import *", namespace)
    missing = [name for name in landmarklab.__all__ if name not in namespace]
    assert not missing


class TestCoordinateGrids:
    def test_values(self):
        uu, vv = coordinate_grids(4, 3)
        v, u = np.mgrid[0:3, 0:4]
        assert uu.dtype == vv.dtype == np.float64
        assert np.array_equal(uu, u) and np.array_equal(vv, v)

    def test_repeat_calls_share_read_only_grids(self):
        uu, vv = coordinate_grids(5, 2)
        again = coordinate_grids(5, 2)
        assert again[0] is uu and again[1] is vv
        for grid in (uu, vv, uu.ravel(), vv[0]):
            assert not grid.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            uu += 1.0
        assert coordinate_grids(5, 2)[0][0, 0] == 0.0
        assert coordinate_grids(2, 5)[0].shape == (5, 2)


class TestArgmax:
    def test_bimodal_ties_to_lowest_index(self):
        assert tuple(argmax(np.array([0.4, 0.1, 0.0, 0.1, 0.4]), (5, 1))) == (0, 0)

    def test_all_zero_full_tie(self):
        assert tuple(argmax(np.zeros(9), (3, 3))) == (0, 0)

    def test_unique_maximum(self):
        values = np.zeros((3, 3))
        values[1, 2] = 7.0  # (u=2, v=1)
        assert tuple(argmax(values.ravel(), (3, 3))) == (2, 1)

    def test_row_major_tie_break(self):
        values = np.zeros((2, 2))
        values[0, 1] = values[1, 0] = 5.0  # linear indices 1 and 2
        assert tuple(argmax(values.ravel(), (2, 2))) == (1, 0)

    def test_row_major_tie_break_on_batch(self):
        # Scores drawn from {0, 1, 2} tie in most rows.
        rng = np.random.default_rng(23)
        width, height = 4, 3
        scores = rng.integers(0, 3, size=(6, 5, height * width)).astype(float)
        cells = argmax(scores, (width, height))
        assert cells.shape == (6, 5, 2)
        for b, n in np.ndindex(6, 5):
            k = np.flatnonzero(scores[b, n] == scores[b, n].max())[0]
            assert tuple(cells[b, n]) == (k % width, k // width)

    def test_shift_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            values = rng.normal(size=20)
            coord = argmax(values, (4, 5))
            for c in (-3.0, 0.25, 1e4):
                np.testing.assert_array_equal(argmax(values + c, (4, 5)), coord)


class TestSoftmaxTempered:
    # A temperature eps is the softmax of scores / eps.
    def test_uniform_input(self):
        for eps in (0.1, 1.0, 7.0):
            p = softmax(np.full(4, 3.3) / eps)
            np.testing.assert_allclose(p, 0.25, rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=15)
        for c in (-100.0, 1e-3, 42.0):
            a = softmax(h / 0.7)
            b = softmax((h + c) / 0.7)
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_hand_value(self):
        p = softmax(np.array([np.log(3.0), 0.0]))
        np.testing.assert_allclose(p, [0.75, 0.25], rtol=0, atol=1e-15)

    def test_is_distribution_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w, h = rng.integers(1, 17, size=2)
            eps = float(rng.uniform(0.05, 5.0))
            p = softmax(rng.normal(size=h * w) * 10 / eps)
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) <= 1e-12


class TestSoftArgmax:
    def test_unimodal_expectation(self):
        u, v = soft_argmax(scores_for_probs(UNIMODAL_P), (5, 1))
        assert abs(u - 2.0) < 1e-9
        assert v == 0.0

    def test_bimodal_expectation_matches_center(self):
        # 0*0.4 + 1*0.1 + 3*0.1 + 4*0.4 = 2, even though the argmax set is {0, 4}
        h = scores_for_probs(BIMODAL_P)
        u, _ = soft_argmax(h, (5, 1))
        assert abs(u - 2.0) < 1e-9
        assert tuple(argmax(h, (5, 1))) == (0, 0)
        assert h[0] == h[4]

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=24)
        for c in (-5.0, 0.123, 300.0):
            a = soft_argmax(h, (6, 4))
            b = soft_argmax(h + c, (6, 4))
            assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9

    def test_small_temperature_approaches_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.normal(size=36)
            k = rng.integers(0, values.size)
            values[k] = values.max() + 1.0  # unique max with gap >= 1
            coord = argmax(values, (6, 6))
            assert (values == values.max()).sum() == 1
            u, v = soft_argmax(values / 1e-3, (6, 6))
            assert abs(u - coord[0]) < 1e-2 and abs(v - coord[1]) < 1e-2


class TestGaussianTarget:
    def test_peak_at_center(self):
        values = gaussian_bumps((2.0, 2.0), 5, 5, 1.0)
        assert values[2, 2] == 1.0

    def test_radial_symmetry(self):
        values = gaussian_bumps((2.0, 2.0), 5, 5, 1.3)
        assert values[2, 1] == values[2, 3]
        assert values[1, 2] == values[3, 2]

    def test_known_value(self):
        values = gaussian_bumps((2.0, 2.0), 5, 5, 1.0)
        np.testing.assert_allclose(values[2, 1], np.exp(-0.5), rtol=1e-12)


class TestSerialization:
    def test_pgm_bytes(self, tmp_path):
        h = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "map.pgm"
        save_heatmap_pgm(h, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 255, 128, 64])

    def test_pgm_constant_map(self, tmp_path):
        path = tmp_path / "flat.pgm"
        save_heatmap_pgm(np.full((2, 3), 4.2), path)
        assert path.read_bytes()[-6:] == bytes(6)
