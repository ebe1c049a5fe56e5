import numpy as np
import pytest

from landmarklab.cli import main
from landmarklab.heatmap import argmax, soft_argmax
from landmarklab.toy import (
    ToyConfig,
    default_init,
    run_toy,
)

ALL_STEPS = tuple(range(51))
GRID = (11, 1)


class TestToyConfig:
    def test_default_init_shape(self):
        init = default_init()
        assert init[9] == 2.0 and init[1] == 1.5
        assert init.sum() == 3.5

    def test_rejects_bad_configs(self):
        with pytest.raises(ValueError):
            ToyConfig(target=11)
        with pytest.raises(ValueError):
            ToyConfig(init_values=tuple(np.zeros(5)), length=11)
        with pytest.raises(ValueError):
            ToyConfig(init_values=tuple(np.zeros(11)))  # not bimodal
        with pytest.raises(ValueError):
            ToyConfig(objective="argmax")
        with pytest.raises(ValueError):
            ToyConfig(learning_rate=0.0)
        bad = np.zeros(11)
        bad[5] = 2.0
        bad[1] = 1.5
        with pytest.raises(ValueError):
            ToyConfig(init_values=tuple(bad))  # mode sits on the target


class TestStructuredDynamics:
    def test_sign_pattern_every_step(self):
        _, _, grad, _ = run_toy(ToyConfig(objective="structured", record_at=ALL_STEPS))
        for row in grad:
            assert row[5] < 0.0
            others = np.delete(row, 5)
            assert (others > 0.0).all()
            assert abs(row.sum()) < 1e-10

    def test_recovers_target_with_gap(self):
        steps, theta, _, _ = run_toy(ToyConfig(objective="structured"))
        assert steps[-1] == 50
        assert argmax(theta, GRID)[-1, 0] == 5
        gap = theta[-1, 5] - np.delete(theta[-1], 5).max()
        assert gap > 0.0

    def test_loss_monotone_for_small_steps(self):
        for lr in (0.05, 0.1, 0.3, 0.5):
            _, _, _, losses = run_toy(
                ToyConfig(objective="structured", learning_rate=lr, record_at=ALL_STEPS)
            )
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_snapshot_selection(self):
        steps, theta, grad, loss = run_toy(ToyConfig(objective="structured"))
        assert steps.dtype.kind == "i"
        assert steps.tolist() == [0, 10, 20, 50]
        assert len(theta) == len(grad) == len(loss) == len(steps)


class TestSoftArgmaxDynamics:
    def test_converged_loss_wrong_argmax(self):
        _, theta, _, loss = run_toy(ToyConfig(objective="softargmax"))
        assert loss[-1] < 1e-2
        assert argmax(theta, GRID)[-1, 0] != 5

    def test_soft_estimate_approaches_target(self):
        _, theta, _, _ = run_toy(ToyConfig(objective="softargmax", record_at=ALL_STEPS))
        dist = np.abs(soft_argmax(theta, GRID)[..., 0] - 5.0).tolist()
        assert all(b <= a + 1e-12 for a, b in zip(dist[1:], dist[2:]))
        assert dist[-1] < dist[1]


class TestDeterminism:
    def test_bit_identical_traces(self):
        cfg = ToyConfig(objective="structured", record_at=ALL_STEPS)
        for a, b in zip(run_toy(cfg), run_toy(cfg)):
            assert a.tobytes() == b.tobytes()


class TestTraceExport:
    """The trace and summary CSVs that the toy command writes."""

    def test_trace_csv(self, tmp_path):
        steps, _, _, _ = run_toy(ToyConfig(objective="structured"))
        assert main(["toy", "--objective", "structured", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "toy_trace.csv").read_text().splitlines()
        assert lines[0] == "step,k,theta_k,grad_k"
        assert len(lines) == 1 + len(steps) * 11
        # One row per (recorded step, cell), steps in increasing order.
        keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert keys == [(str(step), str(k)) for step in steps for k in range(11)]

    def test_summary_csv_mismatch_flag(self, tmp_path):
        assert main(["toy", "--objective", "softargmax", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "toy_summary.csv").read_text().splitlines()
        assert lines[0] == "step,loss,argmax,soft_argmax,mismatch"
        assert lines[-1].endswith(",1")  # wrong argmax at the final step
        # The structured objective recovers the target: the flag clears.
        out = tmp_path / "structured"
        assert main(["toy", "--objective", "structured", "--out", str(out)]) == 0
        lines = (out / "toy_summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "10", "20", "50"]
        assert [line.split(",")[-1] for line in lines[1:]] == ["1", "1", "0", "0"]
