"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Budgets are asserted, so a pathologically slow machine
fails loudly rather than silently degrading.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from landmarklab.heatmap import argmax, soft_argmax, softmax
from landmarklab.losses import (
    StructuredLossConfig,
    heatmap_mse_batch,
    soft_argmax_l2_batch,
    structured_batch,
)
from landmarklab.metrics import auc_ced, failure_rate, nme
from landmarklab.smoothing import (
    SmoothingConfig,
    build_edge_heatmap,
    fit_gaussian_label,
    label_cells,
    refine_edge_heatmap,
)
from landmarklab.synth import SynthConfig, TrainConfig, compare_convergence, generate_dataset
from landmarklab.toy import ToyConfig, run_toy

from reference import margin_table, tune_learning_rate


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed <= budget_seconds
    verdict = "PASS" if within else "FAIL"
    print(f"[acceptance] criterion {number} ({description}): {verdict} "
          f"[{elapsed:.3f}s / {budget_seconds}s]")
    assert within, f"criterion {number} runtime {elapsed:.3f}s over {budget_seconds}s budget"


def grad_check(analytic, values, fn, step=1e-5, rel_tol=1e-6, abs_floor=1e-8):
    """Max-relative-error style check against central finite differences."""
    it = np.nditer(values, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = values.copy()
        bumped[idx] += step
        hi = fn(bumped)
        bumped[idx] -= 2 * step
        lo = fn(bumped)
        fd = (hi - lo) / (2 * step)
        diff = abs(analytic[idx] - fd)
        assert diff <= abs_floor or diff <= rel_tol * max(abs(fd), abs(analytic[idx])), (
            f"gradient mismatch at {idx}: analytic {analytic[idx]} vs fd {fd}"
        )


MARGIN_KINDS = [
    StructuredLossConfig(margin="none"),
    StructuredLossConfig(margin="l1", margin_alpha=1.0, margin_normalize=True),
    StructuredLossConfig(margin="l2", margin_alpha=1.0, margin_normalize=True),
    StructuredLossConfig(margin="smooth_l1", margin_s=0.01, margin_alpha=1.0,
                         margin_normalize=True),
]


def test_criterion_1_soft_argmax_counterexample():
    unimodal = np.log(np.maximum([0.0, 0.0, 1.0, 0.0, 0.0], 1e-300))
    bimodal = np.log(np.maximum([0.4, 0.1, 0.0, 0.1, 0.4], 1e-300))
    grid = (5, 1)
    soft_argmax(unimodal, grid)  # warm-up outside the timed window
    with criterion(1, "soft-argmax counterexample", budget_seconds=300.0):
        t0 = time.perf_counter()
        u1, _ = soft_argmax(unimodal, grid)
        u2, _ = soft_argmax(bimodal, grid)
        coord = argmax(bimodal, grid)
        compute = time.perf_counter() - t0
        assert abs(u1 - 2.0) < 1e-9
        assert abs(u2 - 2.0) < 1e-9
        assert tuple(coord) == (0, 0)
        assert bimodal[0] == bimodal[4]  # argmax set is {0, 4}
        assert compute < 1e-3, f"counterexample took {compute * 1e3:.3f} ms"


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(2024)
    with criterion(2, "finite-difference gradient suite", budget_seconds=5.0):
        for _ in range(50):
            w = int(rng.integers(2, 17))
            h = int(rng.integers(2, 17))
            values = rng.normal(size=(h, w))
            y_cell = (int(rng.integers(0, w)), int(rng.integers(0, h)))
            grid = (w, h)
            for spec in MARGIN_KINDS:
                cfg = replace(spec, epsilon=1.0)
                _, grad = structured_batch(values.ravel(), y_cell, grid, cfg)
                grad_check(
                    grad.reshape(h, w), values,
                    lambda x, c=cfg: structured_batch(x.ravel(), y_cell, grid, c)[0],
                )
            y_cont = (float(rng.uniform(0, w - 1)), float(rng.uniform(0, h - 1)))
            _, grad = soft_argmax_l2_batch(values.ravel(), y_cont, grid)
            grad_check(
                grad.reshape(h, w), values,
                lambda x: soft_argmax_l2_batch(x.ravel(), y_cont, grid)[0],
            )
            target = rng.normal(size=(h, w)).ravel()
            _, grad = heatmap_mse_batch(values.ravel(), target)
            grad_check(
                grad.reshape(h, w), values,
                lambda x: heatmap_mse_batch(x.ravel(), target)[0],
            )


def test_criterion_3_structured_loss_identities():
    rng = np.random.default_rng(3)
    with criterion(3, "structured-loss identities", budget_seconds=5.0):
        for _ in range(200):
            w = int(rng.integers(2, 13))
            h = int(rng.integers(2, 13))
            values = rng.normal(size=(h, w))
            u, v = y = (int(rng.integers(0, w)), int(rng.integers(0, h)))
            spec = MARGIN_KINDS[int(rng.integers(0, 4))]
            cfg = replace(spec, epsilon=1.0)
            grid = (w, h)
            value, grad = structured_batch(values.ravel(), y, grid, cfg)
            grad = grad.reshape(h, w)
            assert abs(grad.sum()) <= 1e-10
            assert -1.0 <= grad[v, u] <= 0.0
            shift = float(rng.uniform(-50, 50))
            shifted, _ = structured_batch((values + shift).ravel(), y, grid, cfg)
            assert abs(shifted - value) <= 1e-9
            other = rng.normal(size=(h, w))
            t = float(rng.uniform(0, 1))
            mixed, _ = structured_batch((t * values + (1 - t) * other).ravel(), y, grid, cfg)
            bound = t * value + (1 - t) * structured_batch(other.ravel(), y, grid, cfg)[0]
            assert mixed <= bound + 1e-9
            cold, _ = structured_batch(
                values.ravel(), y, grid, replace(spec, epsilon=1e-4)
            )
            hinge = (margin_table(spec, y, w, h) + values).max() - values[v, u]
            assert abs(cold - hinge) < 1e-3
            eps = float(rng.uniform(0.2, 3.0))
            plain = StructuredLossConfig(epsilon=eps, margin="none")
            ce = -eps * np.log(softmax(values.ravel() / eps)[v * w + u])
            assert abs(structured_batch(values.ravel(), y, grid, plain)[0] - ce) <= 1e-10


def test_criterion_4_toy_dynamics_grid():
    every_step = tuple(range(51))
    with criterion(4, "1-D toy dynamics over (lr, gap) grid", budget_seconds=1.0):
        for lr in (0.05, 0.1, 0.2):
            for gap in (0.25, 0.5, 0.75):
                init = np.zeros(11)
                init[9] = 2.0
                init[1] = 2.0 - gap
                steps, theta, grad, _ = run_toy(
                    ToyConfig(objective="structured", learning_rate=lr,
                              init_values=tuple(init), record_at=every_step)
                )
                assert steps[-1] == 50
                assert argmax(theta, (11, 1))[-1, 0] == 5
                assert theta[-1, 5] - np.delete(theta[-1], 5).max() > 0.0
                assert (grad[:, 5] <= 0.0).all()
                _, soft_theta, _, soft_loss = run_toy(
                    ToyConfig(objective="softargmax", learning_rate=lr,
                              init_values=tuple(init), record_at=every_step)
                )
                assert soft_loss[-1] < 1e-2
                assert argmax(soft_theta, (11, 1))[-1, 0] != 5


def test_criterion_5_synthetic_convergence_ordering():
    with criterion(5, "convergence ordering on the synthetic bench",
                   budget_seconds=300.0):
        target_nme = 0.30
        base_structured = TrainConfig(objective="structured", epochs=12)
        base_softargmax = TrainConfig(objective="softargmax", epochs=25)
        tuning_set = generate_dataset(SynthConfig(), seed=0)
        lr_structured = tune_learning_rate(
            tuning_set, base_structured, [2.0, 4.0, 8.0], target_nme, probe_epochs=5
        )
        lr_softargmax = tune_learning_rate(
            tuning_set, base_softargmax, [0.1, 0.2, 0.4], target_nme, probe_epochs=10
        )
        synth = SynthConfig(target_nme=target_nme, lr_a=lr_structured, lr_b=lr_softargmax)
        assert synth.arm("a", 1) == replace(base_structured, learning_rate=lr_structured, seed=1)
        assert synth.arm("b", 1) == replace(base_softargmax, learning_rate=lr_softargmax, seed=1)
        for seed in (0, 1, 2):
            dataset = (
                tuning_set if seed == 0
                else generate_dataset(SynthConfig(), seed=seed)
            )
            (epochs_a, _, _), (epochs_b, _, _) = compare_convergence(dataset, synth, seed)
            assert epochs_a is not None, f"structured never converged (seed {seed})"
            assert epochs_b is not None, f"soft-argmax never converged (seed {seed})"
            assert epochs_a < epochs_b, (
                f"seed {seed}: structured {epochs_a} vs soft-argmax {epochs_b} epochs"
            )


def test_criterion_6_label_smoothing():
    cfg = SmoothingConfig()
    with criterion(6, "edge-aware label smoothing", budget_seconds=10.0):
        rng = np.random.default_rng(6)
        for _ in range(10):
            refined = rng.random((48, 48))
            y = (float(rng.uniform(0, 47)), float(rng.uniform(0, 47)))
            cov = fit_gaussian_label(refined, y, cfg)
            assert np.linalg.eigvalsh(cov).min() >= cfg.gamma * cfg.cov_reg

        landmarks = np.array([[2.0, 32.0], [32.0, 32.0], [61.0, 32.0]])
        boundaries = ((0, 1, 2),)
        refined = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, cfg), cfg)
        cov = fit_gaussian_label(refined, (32.0, 32.0), cfg)
        evals, evecs = np.linalg.eigh(cov)
        dominant = evecs[:, np.argmax(evals)]
        angle = np.degrees(np.arctan2(abs(dominant[1]), abs(dominant[0])))
        assert angle < 8.0
        assert evals.max() / evals.min() > 1.5

        doubled = fit_gaussian_label(refined, (32.0, 32.0), replace(cfg, gamma=2 * cfg.gamma))
        np.testing.assert_array_equal(doubled, 2.0 * cov)

        runs = []
        for _ in range(2):
            e = refine_edge_heatmap(build_edge_heatmap(landmarks, boundaries, cfg), cfg)
            fitted = fit_gaussian_label(e, (32.0, 32.0), cfg)
            cells, weights = label_cells((32.0, 32.0), fitted, (64, 64))
            runs.append((e.tobytes(), fitted.tobytes(), cells.tobytes(), weights.tobytes()))
        assert runs[0] == runs[1]


def test_criterion_7_metrics():
    with criterion(7, "metric definitions", budget_seconds=1.0):
        pred = np.array([[3.0, 4.0], [10.0, 10.0]])
        gt = np.array([[0.0, 0.0], [10.0, 10.0]])
        assert nme(pred, gt, 10.0) == 0.25

        auc_best, ced = auc_ced([0.0, 0.0], 0.10, 501)
        assert auc_best == 1.0
        auc_worst, _ = auc_ced([0.2, 0.9], 0.10, 501)
        assert auc_worst == 0.0
        fracs = [f for _, f in ced]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert all(0.0 <= f <= 1.0 for f in fracs)

        rng = np.random.default_rng(7)
        errs = rng.uniform(0, 0.2, size=60)
        for t in (0.0503, 0.1001, 0.1507):
            assert abs(failure_rate(errs, t) - (1.0 - float(np.mean(errs <= t)))) < 1e-12


def test_criterion_8_cli_determinism(tmp_path):
    from landmarklab.cli import main

    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text(
        "[synth]\nsamples = 40\nwidth = 16\nheight = 16\nlandmarks = 2\n"
        "lr_a = 4.0\nepochs_a = 3\nlr_b = 0.2\nepochs_b = 6\n"
        "batch_size = 40\ntarget_nme = 0.5\n"
    )
    ann = tmp_path / "ann.txt"
    ann.write_text("s0 20 32 32 32 44 32\n")
    bnd = tmp_path / "bnd.txt"
    bnd.write_text("0,1,2\n")
    gt = tmp_path / "gt.txt"
    gt.write_text("a 1 2 3 4\nb 5 6 7 8\n")

    commands = {
        "toy": lambda out: ["toy", "--out", out, "--seed", "11"],
        "synth": lambda out: ["synth", "--config", str(synth_cfg), "--out", out,
                              "--seed", "11"],
        "smooth": lambda out: ["smooth", str(ann), str(bnd), "--out", out,
                               "--dump-intermediates"],
        "eval": lambda out: ["eval", str(gt), str(gt), "--out", out],
    }
    with criterion(8, "CLI byte-level determinism", budget_seconds=120.0):
        for name, argv in commands.items():
            snapshots = []
            for tag in ("a", "b"):
                out = tmp_path / f"{name}_{tag}"
                assert main(argv(str(out))) == 0
                snapshots.append(
                    {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                )
            assert snapshots[0].keys() == snapshots[1].keys()
            for fname in snapshots[0]:
                assert snapshots[0][fname] == snapshots[1][fname], (
                    f"{name}: {fname} differs between identical runs"
                )
