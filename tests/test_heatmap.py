import numpy as np
import pytest

from landmarklab.heatmap import (
    GridCoord,
    Heatmap,
    LandmarkSet,
    argmax,
    gaussian_bumps,
    save_heatmap_pgm,
    soft_argmax,
    softmax_tempered,
)

# Score rows whose softmax reproduces the unimodal / bimodal probability
# tables: log of the target probabilities (tiny floor instead of -inf).
UNIMODAL_P = [0.0, 0.0, 1.0, 0.0, 0.0]
BIMODAL_P = [0.4, 0.1, 0.0, 0.1, 0.4]


def scores_for_probs(probs):
    return Heatmap(np.log(np.maximum(np.array(probs, dtype=float), 1e-300)).reshape(1, -1))


class TestHeatmapType:
    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            Heatmap(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            Heatmap(np.zeros(5))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(ValueError):
            Heatmap(bad)
        bad[0, 1] = np.inf
        with pytest.raises(ValueError):
            Heatmap(bad)

    def test_shape_accessors(self):
        h = Heatmap(np.zeros((3, 7)))
        assert h.width == 7 and h.height == 3


class TestLandmarkSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            LandmarkSet(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            LandmarkSet(np.array([[0.0, np.inf]]))


class TestArgmax:
    def test_bimodal_ties_to_lowest_index(self):
        coord, tied = argmax(Heatmap(np.array([[0.4, 0.1, 0.0, 0.1, 0.4]])))
        assert coord == GridCoord(0, 0)
        assert tied

    def test_all_zero_full_tie(self):
        coord, tied = argmax(Heatmap(np.zeros((3, 3))))
        assert coord == GridCoord(0, 0)
        assert tied

    def test_unique_maximum(self):
        values = np.zeros((3, 3))
        values[1, 2] = 7.0  # (u=2, v=1)
        coord, tied = argmax(Heatmap(values))
        assert coord == GridCoord(2, 1)
        assert not tied

    def test_row_major_tie_break(self):
        values = np.zeros((2, 2))
        values[0, 1] = values[1, 0] = 5.0  # linear indices 1 and 2
        coord, tied = argmax(Heatmap(values))
        assert coord == GridCoord(1, 0)
        assert tied

    def test_shift_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            values = rng.normal(size=(5, 4))
            coord, _ = argmax(Heatmap(values))
            for c in (-3.0, 0.25, 1e4):
                shifted, _ = argmax(Heatmap(values + c))
                assert shifted == coord


class TestSoftmaxTempered:
    def test_uniform_input(self):
        for eps in (0.1, 1.0, 7.0):
            p = softmax_tempered(Heatmap(np.full((1, 4), 3.3)), eps)
            np.testing.assert_allclose(p.values, 0.25, rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(3, 5))
        for c in (-100.0, 1e-3, 42.0):
            a = softmax_tempered(Heatmap(h), 0.7).values
            b = softmax_tempered(Heatmap(h + c), 0.7).values
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_hand_value(self):
        p = softmax_tempered(Heatmap(np.array([[np.log(3.0), 0.0]])), 1.0)
        np.testing.assert_allclose(p.values, [[0.75, 0.25]], rtol=0, atol=1e-15)

    def test_is_distribution_random_shapes(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w, h = rng.integers(1, 17, size=2)
            eps = float(rng.uniform(0.05, 5.0))
            p = softmax_tempered(Heatmap(rng.normal(size=(h, w)) * 10), eps).values
            assert (p >= 0).all()
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax_tempered(Heatmap(np.zeros((1, 2))), 0.0)
        with pytest.raises(ValueError):
            softmax_tempered(Heatmap(np.zeros((1, 2))), -1.0)


class TestSoftArgmax:
    def test_unimodal_expectation(self):
        u, v = soft_argmax(scores_for_probs(UNIMODAL_P), 1.0)
        assert abs(u - 2.0) < 1e-9
        assert v == 0.0

    def test_bimodal_expectation_matches_center(self):
        # 0*0.4 + 1*0.1 + 3*0.1 + 4*0.4 = 2, even though the argmax set is {0, 4}
        h = scores_for_probs(BIMODAL_P)
        u, _ = soft_argmax(h, 1.0)
        assert abs(u - 2.0) < 1e-9
        coord, tied = argmax(h)
        assert tied and coord.u == 0
        assert h.values[0, 0] == h.values[0, 4]

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        h = rng.normal(size=(4, 6))
        for c in (-5.0, 0.123, 300.0):
            a = soft_argmax(Heatmap(h), 1.0)
            b = soft_argmax(Heatmap(h + c), 1.0)
            assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9

    def test_small_temperature_approaches_argmax(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = rng.normal(size=(6, 6))
            k = rng.integers(0, values.size)
            flat = values.ravel()
            flat[k] = flat.max() + 1.0  # unique max with gap >= 1
            h = Heatmap(values)
            coord, tied = argmax(h)
            assert not tied
            u, v = soft_argmax(h, 1e-3)
            assert abs(u - coord.u) < 1e-2 and abs(v - coord.v) < 1e-2


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
        h = Heatmap(np.array([[0.0, 1.0], [0.5, 0.25]]))
        path = tmp_path / "map.pgm"
        save_heatmap_pgm(h, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 255, 128, 64])

    def test_pgm_constant_map(self, tmp_path):
        path = tmp_path / "flat.pgm"
        save_heatmap_pgm(Heatmap(np.full((2, 3), 4.2)), path)
        assert path.read_bytes()[-6:] == bytes(6)
