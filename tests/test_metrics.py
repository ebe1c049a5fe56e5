import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from landmarklab.cli import main
from landmarklab.metrics import (
    EvalConfig,
    auc_ced,
    failure_rate,
    nme,
)

from reference import dense_auc_ced, nme_mean


def pts(*pairs):
    return np.array(pairs, dtype=float)


class TestNme:
    def test_perfect_prediction(self):
        p = pts((1.0, 2.0), (3.0, 4.0))
        assert nme(p, p, 5.0) == 0.0

    def test_worked_example(self):
        # Per-landmark errors 5 and 0 with N = 2, d = 10.
        pred = pts((3.0, 4.0), (10.0, 10.0))
        gt = pts((0.0, 0.0), (10.0, 10.0))
        assert nme(pred, gt, 10.0) == 0.25

    def test_normalization_scaling(self):
        pred = pts((3.0, 4.0), (1.0, 1.0))
        gt = pts((0.0, 0.0), (2.0, 1.0))
        assert nme(pred, gt, 20.0) == nme(pred, gt, 10.0) / 2.0

    def test_rejects_mismatch_and_bad_d(self):
        with pytest.raises(ValueError, match="landmark count mismatch: 1 vs 2"):
            nme(pts((0, 0)), pts((0, 0), (1, 1)), 1.0)
        with pytest.raises(ValueError, match="landmark count mismatch: 1 vs 2"):
            nme(np.zeros((3, 1, 2)), np.zeros((3, 2, 2)), np.ones(3))
        with pytest.raises(ValueError, match=r"shape mismatch: \(4, 3, 2\) vs \(5, 3, 2\)"):
            nme(np.zeros((4, 3, 2)), np.zeros((5, 3, 2)), np.ones(4))
        with pytest.raises(ValueError, match=r"have shape \(5,\), expected \(4,\)"):
            nme(np.zeros((4, 3, 2)), np.zeros((4, 3, 2)), np.ones(5))
        with pytest.raises(ValueError, match=r"have shape \(\), expected \(4,\)"):
            nme(np.zeros((4, 3, 2)), np.zeros((4, 3, 2)), 1.0)
        with pytest.raises(ValueError, match="normalizing distance must be positive"):
            nme(pts((0, 0)), pts((0, 0)), 0.0)
        with pytest.raises(ValueError, match="normalizing distance must be positive"):
            nme(np.zeros((3, 2, 2)), np.ones((3, 2, 2)), np.array([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e200])
    def test_matches_linalg_norm_bit_for_bit(self, scale):
        # nme squares in place; np.linalg.norm is the reference.
        rng = np.random.default_rng(4)
        pred, gt = rng.normal(0.0, scale, (2, 50, 7, 2))
        d = rng.uniform(0.5, 2.0, 50)
        with np.errstate(over="ignore"):
            expected = np.linalg.norm(pred - gt, axis=-1).mean(-1) / d
            assert nme(pred, gt, d).tobytes() == expected.tobytes()
        ints = rng.integers(-50, 50, (2, 5, 3, 2))
        assert nme(*ints, np.ones(5)).tobytes() == np.linalg.norm(
            ints[0] - ints[1], axis=-1).mean(-1).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), max_size=2), n=st.integers(1, 9),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_matches_mean_reference_bit_for_bit(self, lead, n, scale, seed):
        # sum / N against np.mean, on float and integer points.
        rng = np.random.default_rng(seed)
        pred, gt = rng.normal(0.0, scale, (2, *lead, n, 2))
        d = rng.uniform(0.5, 2.0, tuple(lead))
        ints = np.rint(pred).astype(int), np.rint(gt).astype(int)
        for args in ((pred, gt, d), (*ints, d)):
            found, expected = nme(*args), nme_mean(*args)
            assert np.shape(found) == np.shape(expected)
            assert np.asarray(found).tobytes() == np.asarray(expected).tobytes()

    def test_batch_equals_single_set_calls_bit_for_bit(self):
        rng = np.random.default_rng(3)
        pred = rng.uniform(0.0, 32.0, size=(6, 5, 2))
        gt = rng.uniform(0.0, 32.0, size=(6, 5, 2))
        d = rng.uniform(1.0, 20.0, size=6)
        batch = nme(pred, gt, d)
        assert batch.shape == (6,)
        single = np.array([nme(p, g, di) for p, g, di in zip(pred, gt, d)])
        assert batch.tobytes() == single.tobytes()


class TestFailureRate:
    def test_half_exceed(self):
        assert failure_rate([0.02, 0.20], 0.10) == 0.5

    def test_none_exceed(self):
        assert failure_rate([0.01, 0.05, 0.09], 0.10) == 0.0

    def test_boundary_is_strict(self):
        assert failure_rate([0.10], 0.10) == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(0)
        nmes = rng.uniform(0, 0.2, size=20)
        count = sum(1 for x in nmes if x > 0.1)
        assert failure_rate(nmes, 0.1) == count / 20

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            failure_rate([], 0.1)


@st.composite
def ced_problems(draw):
    """Errors drawn from a small pool, so values repeat: grid thresholds,
    0.0 and values on either side of the threshold."""
    threshold = draw(st.floats(1e-3, 10.0))
    n_points = draw(st.integers(2, 300))
    grid = np.linspace(0.0, threshold, n_points)
    value = st.one_of(
        st.integers(0, n_points - 1).map(lambda k: float(grid[k])),
        st.just(0.0),
        st.floats(0.0, 3.0 * threshold),
    )
    pool = draw(st.lists(value, min_size=1, max_size=20))
    errs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    return errs, threshold, n_points


class TestAucCed:
    @settings(max_examples=200, deadline=None)
    @given(ced_problems())
    def test_matches_dense_oracle_bit_for_bit(self, problem):
        auc, ced = auc_ced(*problem)
        want_auc, want_ced = dense_auc_ced(*problem)
        assert np.float64(auc).tobytes() == np.float64(want_auc).tobytes()
        assert np.array(ced).tobytes() == np.array(want_ced).tobytes()

    def test_all_zero_errors(self):
        auc, ced = auc_ced([0.0, 0.0, 0.0], 0.10, 101)
        assert auc == 1.0
        assert all(frac == 1.0 for _, frac in ced)

    def test_all_above_threshold(self):
        auc, ced = auc_ced([0.5, 0.9], 0.10, 101)
        assert auc == 0.0
        assert all(frac == 0.0 for _, frac in ced)

    def test_step_function_integral(self):
        # Single error at 0.05 with threshold 0.10: area approaches 1/2.
        auc, _ = auc_ced([0.05], 0.10, 10_001)
        assert abs(auc - 0.5) < 1e-3

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(1)
        nmes = rng.uniform(0, 0.3, size=50)
        _, ced = auc_ced(nmes, 0.1, 301)
        fracs = [f for _, f in ced]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        nmes = list(rng.uniform(0, 0.3, size=31))
        a1, _ = auc_ced(nmes, 0.1, 201)
        a2, _ = auc_ced(list(reversed(nmes)), 0.1, 201)
        assert a1 == a2

    def test_complements_failure_rate(self):
        rng = np.random.default_rng(3)
        nmes = rng.uniform(0, 0.2, size=40)
        # Probe between sample values so strict/non-strict boundaries agree.
        for t in (0.0501234, 0.1009876, 0.1505):
            ced_t = float(np.mean(nmes <= t))
            assert abs(failure_rate(nmes, t) - (1.0 - ced_t)) < 1e-12


class TestEvaluate:
    def test_report_consistency(self):
        errs = np.array([0.0, 0.05, 0.15, 0.25])
        cfg = EvalConfig(fr_threshold=0.10, auc_threshold=0.10)
        assert failure_rate(errs, cfg.fr_threshold) == 0.5
        auc, ced = auc_ced(errs, cfg.auc_threshold, cfg.ced_points)
        fracs = [f for _, f in ced]
        assert fracs == sorted(fracs)
        # Away from ties FR(t) = 1 - CED(t), and the AUC lies in [0, 1].
        assert fracs[-1] == 1.0 - failure_rate(errs, cfg.auc_threshold)
        assert 0.0 <= auc <= 1.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            EvalConfig(fr_threshold=0.0)
        with pytest.raises(ValueError):
            EvalConfig(ced_points=1)


class TestReportIo:
    """The per-sample and CED CSVs that the eval command writes."""

    def run_eval(self, tmp_path):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        pred.write_text("b 1 1 2 2\na 3 4 10 10\n")
        gt.write_text("a 0 0 10 10\nb 1 1 2 2\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("[eval]\nnorm_distance = 10\nced_points = 3\n")
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--config", str(cfg),
                     "--out", str(out)]) == 0
        return out

    def test_report_csv(self, tmp_path):
        out = self.run_eval(tmp_path)
        # Samples in id order, then the mean.
        assert (out / "per_sample.csv").read_text().splitlines() == [
            "sample_id,nme", "a,0.25", "b,0", f"mean,{format(np.mean([0.25, 0.0]), '.12g')}"]

    def test_ced_csv(self, tmp_path):
        out = self.run_eval(tmp_path)
        # One row per CED point.
        assert (out / "ced.csv").read_text().splitlines() == [
            "threshold,fraction", "0,0.5", "0.05,0.5", "0.1,0.5"]
