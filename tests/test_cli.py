import os
import subprocess
import sys

import numpy as np
import pytest

import landmarklab
from landmarklab import cli
from landmarklab.cli import _write_csv, main
from landmarklab.heatmap import save_heatmap_pgm
from landmarklab.smoothing import (
    SmoothingConfig,
    build_edge_heatmap,
    read_annotations,
    read_boundaries,
    refine_edge_heatmap,
)
from landmarklab.toy import ToyConfig, run_toy

from reference import dense_auc_ced, label_panels, per_id_nmes
from reference import fit_gaussian_label as fit_one_label

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAMPLE_DATA = os.path.join(REPO_ROOT, "sample_data")

SMALL_SYNTH_CFG = """
[synth]
samples = 40
width = 16
height = 16
landmarks = 2
lr_a = 4.0
epochs_a = 4
lr_b = 0.2
epochs_b = 12
batch_size = 40
target_nme = 0.5
"""

DIVERGING_ARM_CFG = """
[synth]
samples = 20
width = 16
height = 16
landmarks = 2
epochs_a = 1
objective_b = heatmap_mse
lr_b = 1e14
epochs_b = 4
batch_size = 2
"""

# The heatmap MSE arm at lr 0.1 stays finite while its train loss grows
# 58.6x by epoch 2 and 4,880x by epoch 3.
LOSS_GROWTH_CFG = """
[synth]
samples = 60
width = 16
height = 16
epochs_a = 1
objective_b = heatmap_mse
lr_b = 0.1
"""

IDENTICAL_ARMS_CFG = """
[synth]
samples = 40
width = 16
height = 16
landmarks = 2
objective_a = structured
objective_b = structured
lr_a = 2.0
lr_b = 2.0
epochs_a = 3
epochs_b = 2
batch_size = 40
target_nme = 0.6
"""


# 16x16 grid and 16 samples: shapes at which the training GEMMs round the
# same on any BLAS thread count (larger ones need not).
BLAS_THREADS_CFG = """
[synth]
samples = 16
width = 16
height = 16
landmarks = 2
epochs_a = 8
epochs_b = 8
batch_size = 4
target_nme = 0.5
"""


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def write_annotations(path, rows):
    path.write_text("".join(f"{rid} {coords}\n" for rid, coords in rows))


def assert_12g(cell):
    # A float cell holds the value to 12 significant digits, no more.
    assert cell == format(float(cell), ".12g"), cell


# Sample ids that would name files outside --out or split a CSV cell.
UNSAFE_IDS = ("a/b", "../esc", "a,b")
MARGINS = "('none', 'l1', 'l2', 'smooth_l1')"
SYNTH_OBJECTIVES = "('structured', 'softargmax', 'heatmap_mse')"


def test_write_csv_cells(tmp_path):
    path = tmp_path / "cells.csv"
    _write_csv(path, "epoch,objective,train_loss,eval_nme,sum,missing", [
        (1, "structured", 2.5, np.float64(0.75), np.float64(0.1) + np.float64(0.2),
         float("nan")),
        (2, "softargmax", 1e-20, np.float64(2.0), 1 / 3, np.float64("nan")),
    ])
    assert path.read_bytes() == (
        b"epoch,objective,train_loss,eval_nme,sum,missing\n"
        b"1,structured,2.5,0.75,0.3,nan\n"
        b"2,softargmax,1e-20,2,0.333333333333,nan\n"
    )


def csv_command(command, tmp_path):
    if command == "synth":
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG)
        return ["synth", "--config", str(cfg)]
    if command == "smooth":
        return ["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"),
                os.path.join(SAMPLE_DATA, "boundaries.txt")]
    if command == "eval":
        gt = os.path.join(SAMPLE_DATA, "annotations.txt")
        return ["eval", gt, gt]
    return [command]


@pytest.mark.parametrize("command, headers", [
    ("toy", {"toy_trace.csv": "step,k,theta_k,grad_k",
             "toy_summary.csv": "step,loss,argmax,soft_argmax,mismatch"}),
    ("synth", {"history_structured.csv": "epoch,objective,train_loss,eval_nme",
               "history_softargmax.csv": "epoch,objective,train_loss,eval_nme",
               "convergence.csv": "objective_a,objective_b,target_nme,epochs_a,epochs_b,speedup"}),
    ("smooth", {"labels.csv": "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv"}),
    ("eval", {"per_sample.csv": "sample_id,nme", "ced.csv": "threshold,fraction"}),
], ids=["toy", "synth", "smooth", "eval"])
def test_csv_headers(tmp_path, command, headers):
    out = tmp_path / "out"
    assert main([*csv_command(command, tmp_path), "--out", str(out)]) == 0
    written = {p.name: p.read_text().split("\n", 1)[0] for p in out.glob("*.csv")}
    assert written == headers


@pytest.mark.parametrize("command, section, key, value", [
    ("eval", "eval", "norm_distance", "nan"),
    ("synth", "synth", "target_nme", "nan"),
    ("toy", "toy", "learning_rate", "inf"),
])
def test_non_finite_config_value_rejected(tmp_path, capsys, command, section, key, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    gt = tmp_path / "gt.txt"
    write_annotations(gt, [("a", "1 2 3 4")])
    inputs = [str(gt), str(gt)] if command == "eval" else []
    out = tmp_path / "out"
    assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"bad value for {section}.{key}: '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[toy]\nobjective = 50%\n", "objective must be one of"),
    ("[toy]\nlearning_rate = %(steps)s\n", "bad value for toy.learning_rate: '%(steps)s'"),
    ("[DEFAULT]\nsteps = 5\n[toy]\nlength = 11\n", "unknown config section [DEFAULT]"),
], ids=["percent", "interpolation", "default-section"])
def test_config_is_plain_ini(tmp_path, capsys, text, message):
    # No interpolation, and [DEFAULT] is no section that leaks into others.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["toy", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_unreadable_config_names_path(tmp_path, capsys):
    # A directory: a file without read permission cannot be made when
    # the tests run as root, which reads any file.
    out = tmp_path / "out"
    assert main(["toy", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert f"cannot read config file {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


def test_undecodable_config_names_path(tmp_path, capsys):
    cfg = tmp_path / "bin.cfg"
    cfg.write_bytes(b"[toy]\nsteps = \xff\n")
    out = tmp_path / "out"
    assert main(["toy", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot read config file {cfg}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [("toy", "margin_normalize"),
                                          ("synth", "with_smoothing")])
@pytest.mark.parametrize("raw, value", [
    ("1", True), ("yes", True), ("True", True), ("ON", True), ("yEs", True),
    ("0", False), ("No", False), ("false", False), ("OFF", False), ("oFf", False),
])
def test_boolean_config_values(tmp_path, section, key, raw, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{key} = {raw}\n")
    assert cli.load_config(str(cfg))[section][key] is value


def test_bad_boolean_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SMALL_SYNTH_CFG + "with_smoothing = maybe\n")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert "bad value for synth.with_smoothing: 'maybe'" in capsys.readouterr().err
    assert not out.exists()


def help_page(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command, own", [
    ("toy", ["--objective"]),
    ("synth", ["--epochs"]),
    ("smooth", ["annotations", "boundaries", "--dump-intermediates"]),
    ("eval", ["pred", "gt"]),
])
def test_subcommand_help_lists_its_arguments(capsys, command, own):
    page = help_page(capsys, [command])
    assert page.startswith(f"usage: landmarklab {command} ")
    listed = page.split()
    for arg in ("--config", "--out", "--seed", *own):
        assert arg in listed, arg


def test_root_help_names_every_config_key(capsys):
    page = help_page(capsys, [])
    for command in ("toy", "synth", "smooth", "eval"):
        assert command in page.split()
    lines = {line.split("] ", 1)[0].strip() + "]": line.split("] ", 1)[1]
             for line in page.splitlines() if line.startswith("  [")}
    assert {section: value.split(", ") for section, value in lines.items()} == {
        f"[{section}]": list(keys) for section, keys in cli.DEFAULTS.items()}


class TestToyCommand:
    def test_default_run_recovers_target(self, tmp_path, capsys):
        assert main(["toy", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "toy_trace.csv").exists()
        rows = read_csv_rows(tmp_path / "toy_summary.csv")
        assert rows[-1]["argmax"] == "5"
        assert rows[-1]["mismatch"] == "0"
        assert "final_argmax=5" in capsys.readouterr().out

    def test_softargmax_override_records_mismatch(self, tmp_path, capsys):
        assert main(["toy", "--out", str(tmp_path), "--objective", "softargmax"]) == 0
        rows = read_csv_rows(tmp_path / "toy_summary.csv")
        assert rows[-1]["mismatch"] == "1"
        assert float(rows[-1]["loss"]) < 1e-2
        assert "mismatch=1" in capsys.readouterr().out

    @pytest.mark.parametrize("setting, message", [
        ("objective = foo",
         "toy.objective must be one of ('structured', 'softargmax'), got 'foo'"),
        ("margin = foo", f"toy.margin must be one of {MARGINS}, got 'foo'"),
        ("length = 5\ntarget = 2",
         "invalid toy config: the default bimodal start needs length >= 10, got 5"),
        ("record_at = 60", "invalid toy config: record_at step 60 outside [0, 50]"),
        ("steps = 20\nrecord_at = 10,-1", "invalid toy config: record_at step -1 outside [0, 20]"),
    ])
    def test_invalid_setting_rejected(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"[toy]\n{setting}\n")
        out = tmp_path / "out"
        assert main(["toy", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_run_names_objective_and_step(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[toy]\nlearning_rate = 1.7e308\n")
        out = tmp_path / "out"
        argv = ["toy", "--config", str(cfg), "--out", str(out), "--objective", "softargmax"]
        assert main(argv) == 2
        assert "toy softargmax diverged: non-finite theta at step 1" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_structured_run_is_a_divergence(self, tmp_path, capsys):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[toy]\nlearning_rate = 1.7e308\n")
        out = tmp_path / "out"
        argv = ["toy", "--config", str(cfg), "--out", str(out), "--objective", "structured"]
        assert main(argv) == 2
        assert "toy structured diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_defaults_equal_toy_config_defaults(self, tmp_path, monkeypatch):
        captured = []

        def capture(toy_cfg):
            captured.append(toy_cfg)
            return run_toy(toy_cfg)

        monkeypatch.setattr(cli, "run_toy", capture)
        assert main(["toy", "--out", str(tmp_path)]) == 0
        assert captured == [ToyConfig()]

    def test_missing_config_names_path(self, tmp_path, capsys):
        rc = main(["toy", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
        assert rc != 0
        assert "nope.cfg" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[toy]\nwarp_speed = 9\n")
        assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) != 0
        assert "warp_speed" in capsys.readouterr().err

    def test_out_is_regular_file_rejected(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert main(["toy", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "cannot create output directory" in err and str(taken) in err
        assert taken.read_text() == "not a directory\n"


class TestSynthCommand:
    def test_small_bench_produces_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "history_structured.csv").exists()
        assert (tmp_path / "history_softargmax.csv").exists()
        rows = read_csv_rows(tmp_path / "convergence.csv")
        assert rows[0]["objective_a"] == "structured"
        assert float(rows[0]["speedup"]) > 1.0
        assert "speedup" in capsys.readouterr().out
        for objective, epochs in (("structured", 4), ("softargmax", 12)):
            hist = read_csv_rows(tmp_path / f"history_{objective}.csv")
            assert [r["epoch"] for r in hist] == [str(e) for e in range(1, epochs + 1)]
            assert {r["objective"] for r in hist} == {objective}
            for row in hist:
                assert_12g(row["train_loss"])
                assert_12g(row["eval_nme"])

    def test_removed_mc_samples_key_rejected(self, tmp_path, capsys):
        # The smoothed arm's targets are fixed cubature cells, so the number
        # of Monte Carlo draws is no longer a setting.
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG + "with_smoothing = true\nmc_samples = 10\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}: unknown key 'mc_samples' in [synth]" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_epochs_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG)
        rc = main(["synth", "--config", str(cfg), "--out", str(tmp_path), "--epochs", "0"])
        assert rc != 0
        assert "epochs" in capsys.readouterr().err

    def test_diverging_arm_names_objective(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(DIVERGING_ARM_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "heatmap_mse diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_label_fit_is_a_cli_error(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\nsamples = 20\nwidth = 16\nheight = 16\nlandmarks = 2\n"
                       "epochs_a = 1\nepochs_b = 1\nwith_smoothing = true\ngamma = 1e308\n")
        out = tmp_path / "out"
        # The suite turns warnings into errors, so the overflow must not warn.
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot fit smoothing labels: overflow")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 1.49 PiB for an array", ""])
    def test_allocation_failure_is_a_cli_error(self, tmp_path, capsys, monkeypatch, message):
        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate_dataset", fail)
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: out of memory: {message or 'an allocation failed'}\n"
        assert not out.exists()

    def test_growing_loss_is_a_divergence(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(LOSS_GROWTH_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "heatmap_mse diverged: train loss" in err and err.rstrip().endswith("at epoch 3")
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("samples = 1", "samples must be at least 2"),
        ("samples = 40\nmse_sigma = 0", "MSE target sigma must be positive"),
        ("samples = 40\nmse_sigma = -1.5", "MSE target sigma must be positive"),
        ("samples = 40\nobjective_b = heatmap_mse\nmse_sigma = 1e-170",
         "MSE target sigma 1e-170 is too small: 2 sigma^2 underflows to 0"),
        ("samples = 40\nnoise_sigma = -0.5", "noise sigma must be nonnegative"),
        ("samples = 40\nobjective_a = foo",
         f"synth.objective_a must be one of {SYNTH_OBJECTIVES}, got 'foo'"),
        ("samples = 40\nobjective_b = foo",
         f"synth.objective_b must be one of {SYNTH_OBJECTIVES}, got 'foo'"),
        ("samples = 40\nmargin = foo", f"synth.margin must be one of {MARGINS}, got 'foo'"),
    ])
    def test_invalid_setting_rejected(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG.replace("samples = 40", setting))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["0", "-0.1"])
    def test_nonpositive_target_rejected(self, tmp_path, capsys, target):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG.replace("target_nme = 0.5", f"target_nme = {target}"))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "target_nme must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_smoothing_without_structured_arm_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG + "objective_a = softargmax\nobjective_b = heatmap_mse\n"
                       "with_smoothing = true\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "synth.with_smoothing" in err
        assert "softargmax and heatmap_mse" in err
        assert not out.exists()

    def test_identical_arms_speedup_is_one(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(IDENTICAL_ARMS_CFG)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "convergence.csv")
        assert float(rows[0]["speedup"]) == 1.0
        # Each arm keeps its own history file.
        assert not (tmp_path / "history_structured.csv").exists()
        for arm, epochs in (("a", 3), ("b", 2)):
            hist = read_csv_rows(tmp_path / f"history_structured_{arm}.csv")
            assert [int(r["epoch"]) for r in hist] == list(range(1, epochs + 1))

    def test_default_bench_orders_objectives(self, tmp_path):
        # Full default configuration; the slowest CLI test (~20 s).
        assert main(["synth", "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "convergence.csv")
        assert rows[0]["objective_a"] == "structured"
        assert rows[0]["objective_b"] == "softargmax"
        assert int(rows[0]["epochs_a"]) >= 1
        assert float(rows[0]["speedup"]) > 1.0


class TestSmoothCommand:
    def setup_inputs(self, tmp_path, bad_line=False):
        ann = tmp_path / "ann.txt"
        rows = [("s0", "20 32 32 32 44 32"), ("s1", "16 16 32 24 48 16")]
        if bad_line:
            rows.append(("s2", "10 oops"))
        write_annotations(ann, rows)
        bnd = tmp_path / "bnd.txt"
        bnd.write_text("0,1,2\n")
        return ann, bnd

    def test_label_count(self, tmp_path):
        ann, bnd = self.setup_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out)]) == 0
        lines = (out / "labels.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 3  # header, then samples x landmarks
        # The label mean is the landmark itself: 20.0 is written as 20.
        cells = lines[1].split(",")
        assert cells[:4] == ["s0", "0", "20", "32"]
        for cell in cells[4:]:
            assert_12g(cell)

    def test_landmark_outside_map_leaves_no_output(self, tmp_path, capsys):
        ann = tmp_path / "ann.txt"
        write_annotations(ann, [("a", "20 32 32 32 44 32"), ("b", "90 12 32 32 44 32")])
        bnd = tmp_path / "bnd.txt"
        bnd.write_text("0,1,2\n")
        out = tmp_path / "so"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out),
                     "--dump-intermediates"]) == 2
        assert "sample b: landmark (90, 12) outside the 64x64" in capsys.readouterr().err
        assert not out.exists()

    def test_boundary_index_out_of_range_leaves_no_output(self, tmp_path, capsys):
        ann, bnd = self.setup_inputs(tmp_path)
        bnd.write_text("0,1,3\n")
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sample s0: boundary index 3 out of range for 3 landmarks" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["center_sigma", "blur_sigma", "sigma_b"])
    def test_underflowing_sigma_is_an_error(self, tmp_path, capsys, key):
        # The sigma's square underflows to zero, so a Gaussian divides by it.
        ann, bnd = self.setup_inputs(tmp_path)
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text(f"[smooth]\n{key} = 1e-300\n")
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--config", str(cfg),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sample s0: ") and err.count("\n") == 1
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("blend", "-0.5"), ("sharpness_factor", "-1e300")])
    def test_negative_weight_is_rejected(self, tmp_path, capsys, key, value):
        # Unchecked, blend = -0.5 failed as "joint patch has no mass" and
        # sharpness_factor = -1e300 exited 0 with widened covariances.
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text(f"[smooth]\n{key} = {value}\n")
        out = tmp_path / "out"
        assert main(["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"),
                     os.path.join(SAMPLE_DATA, "boundaries.txt"),
                     "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid smooth config: {key} must be nonnegative")
        assert not out.exists()

    def test_dump_intermediates(self, tmp_path):
        ann, bnd = self.setup_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out),
                     "--dump-intermediates"]) == 0
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        # 2 whole-map dumps per sample plus 5 per-landmark panels.
        assert len(pgms) == 2 * (2 + 3 * 5)
        assert "s0_lm0_fitted.pgm" in pgms
        assert "s0_edge_raw.pgm" in pgms

    @pytest.mark.parametrize("gamma", [SmoothingConfig().gamma, 4.0])
    def test_dumped_pgms_match_per_landmark_reference(self, tmp_path, gamma):
        # Every PGM of the shipped sample data, byte for byte, against
        # panels built one landmark at a time.  At the default gamma a
        # fitted panel lights only the landmark's own pixel; at 4 it shows
        # the Gaussian's shape.
        ann = os.path.join(SAMPLE_DATA, "annotations.txt")
        bnd = os.path.join(SAMPLE_DATA, "boundaries.txt")
        config = tmp_path / "smooth.cfg"
        config.write_text(f"[smooth]\ngamma = {gamma!r}\n")
        out, ref = tmp_path / "out", tmp_path / "ref"
        assert main(["smooth", ann, bnd, "--config", str(config), "--out", str(out),
                     "--dump-intermediates"]) == 0
        ref.mkdir()
        cfg = SmoothingConfig(gamma=gamma)
        for sid, points in read_annotations(ann):
            raw = build_edge_heatmap(points, read_boundaries(bnd), cfg)
            refined = refine_edge_heatmap(raw, cfg)
            save_heatmap_pgm(raw, ref / f"{sid}_edge_raw.pgm")
            save_heatmap_pgm(refined, ref / f"{sid}_edge_refined.pgm")
            for n, y in enumerate(points):
                cov = fit_one_label(refined, tuple(y), cfg)
                for name, panel in label_panels(raw, refined, tuple(y), cov, cfg).items():
                    save_heatmap_pgm(panel, ref / f"{sid}_lm{n}_{name}.pgm")
        names = sorted(p.name for p in out.glob("*.pgm"))
        assert names == sorted(p.name for p in ref.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    def test_raw_patches_are_cut_from_the_raw_map(self, tmp_path):
        out = tmp_path / "out"
        assert main(["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"),
                     os.path.join(SAMPLE_DATA, "boundaries.txt"), "--out", str(out),
                     "--dump-intermediates"]) == 0
        raw = sorted(out.glob("*_edge_raw_patch.pgm"))
        assert len(raw) == 24
        for path in raw:
            refined = path.with_name(path.name.replace("_raw_", "_refined_"))
            assert path.read_bytes() != refined.read_bytes(), path.name

    def test_write_error_is_a_cli_error(self, tmp_path, capsys):
        # A 240-character id fits labels.csv, but its per-landmark PGM
        # names pass the file system's 255-byte limit.
        ann, bnd = self.setup_inputs(tmp_path)
        write_annotations(ann, [("s" * 240, "20 32 32 32 44 32")])
        assert main(["smooth", str(ann), str(bnd), "--out", str(tmp_path / "out"),
                     "--dump-intermediates"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    def test_malformed_line_cites_lineno(self, tmp_path, capsys):
        ann, bnd = self.setup_inputs(tmp_path, bad_line=True)
        rc = main(["smooth", str(ann), str(bnd), "--out", str(tmp_path / "out")])
        assert rc != 0
        assert ":3" in capsys.readouterr().err

    def test_duplicate_id_names_both_lines(self, tmp_path, capsys):
        ann, bnd = self.setup_inputs(tmp_path)
        with open(ann, "a") as f:
            f.write("s0 21 33 33 33 45 33\n")
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'s0'" in err and ":3" in err and "line 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("sid", UNSAFE_IDS)
    def test_unsafe_sample_id_rejected(self, tmp_path, capsys, sid):
        ann, bnd = self.setup_inputs(tmp_path)
        write_annotations(ann, [("s0", "20 32 32 32 44 32"), (sid, "16 16 32 24 48 16")])
        inputs = sorted(tmp_path.rglob("*"))
        out = tmp_path / "work" / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out),
                     "--dump-intermediates"]) == 2
        assert f"ann.txt:2: sample id {sid!r} contains '/' or ','" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == inputs

    def test_shipped_sample_data(self, tmp_path):
        ann = os.path.join(SAMPLE_DATA, "annotations.txt")
        bnd = os.path.join(SAMPLE_DATA, "boundaries.txt")
        out = tmp_path / "out"
        assert main(["smooth", ann, bnd, "--out", str(out)]) == 0
        rows = read_csv_rows(out / "labels.csv")
        assert len(rows) == 3 * 8  # samples x landmarks


class TestEvalCommand:
    def test_perfect_prediction(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        write_annotations(gt, [("a", "1 2 3 4"), ("b", "5 6 7 8")])
        out = tmp_path / "out"
        assert main(["eval", str(gt), str(gt), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "NME=0" in printed and "FR=0" in printed and "AUC=1" in printed
        rows = read_csv_rows(out / "per_sample.csv")
        assert rows[-1]["sample_id"] == "mean"

    def test_worked_example(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_annotations(pred, [("a", "3 4 10 10")])
        write_annotations(gt, [("a", "0 0 10 10")])
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("[eval]\nnorm_distance = 10\n")
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "NME=0.25" in capsys.readouterr().out

    def test_id_mean_is_rejected(self, tmp_path, capsys):
        # per_sample.csv ends with the summary row "mean", which an id of
        # that name would duplicate.
        gt = tmp_path / "gt.txt"
        write_annotations(gt, [("a", "1 2"), ("mean", "3 4")])
        out = tmp_path / "out"
        assert main(["eval", str(gt), str(gt), "--out", str(out)]) == 2
        assert "sample id 'mean'" in capsys.readouterr().err
        assert not out.exists()

    def test_id_mismatch_names_offender(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_annotations(pred, [("a", "1 2"), ("stray", "3 4")])
        write_annotations(gt, [("a", "1 2")])
        assert main(["eval", str(pred), str(gt), "--out", str(tmp_path)]) != 0
        assert "stray" in capsys.readouterr().err

    def test_landmark_count_mismatch_names_sample(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_annotations(pred, [("a", "1 2 3 4"), ("s7", "1 2")])
        write_annotations(gt, [("a", "1 2 3 4"), ("s7", "1 2 3 4")])
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--out", str(out)]) == 2
        assert "sample s7: landmark count mismatch: 1 vs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_first_mismatching_id_in_sorted_order_is_named(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_annotations(pred, [("z", "1 2"), ("s7", "1 2"), ("m", "1 2 3 4 5 6"), ("a", "1 2")])
        write_annotations(gt, [("a", "1 2"), ("m", "1 2"), ("s7", "1 2 3 4"), ("z", "1 2 3 4")])
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--out", str(out)]) == 2
        assert "sample m: landmark count mismatch: 3 vs 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_ids, counts", [(10, (2, 3)), (500, (1, 2, 3, 4))],
                             ids=["interleaved_2_3", "500_ids"])
    def test_matches_per_id_reference(self, tmp_path, n_ids, counts):
        # Ids in sorted order cycle through the landmark counts, and each
        # file lists them in its own order.  Predictions lie about 1 px off,
        # so the errors straddle the AUC threshold.
        rng = np.random.default_rng(n_ids)
        ids = [f"s{k:04d}" for k in range(n_ids)]
        truth = [rng.uniform(0.0, 64.0, 2 * counts[k % len(counts)]) for k in range(n_ids)]
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        for path, noise in ((pred, 1.0), (gt, 0.0)):
            rows = []
            for k in rng.permutation(n_ids):
                coords = truth[k] + rng.normal(0.0, noise, truth[k].shape)
                rows.append((ids[k], " ".join(map(repr, coords.tolist()))))
            write_annotations(path, rows)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("[eval]\nnorm_distance = 12.5\n")
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--config", str(cfg), "--out", str(out)]) == 0

        errs = per_id_nmes(dict(read_annotations(pred)), dict(read_annotations(gt)), 12.5)
        ref = tmp_path / "ref"
        ref.mkdir()
        _write_csv(ref / "per_sample.csv", "sample_id,nme",
                   [*zip(ids, errs), ("mean", float(np.mean(errs)))])
        _write_csv(ref / "ced.csv", "threshold,fraction", dense_auc_ced(errs, 0.10, 1001)[1])
        for name in ("per_sample.csv", "ced.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.parametrize("pred_rows, gt_rows, norm_distance, named", [
        ([("z", "1e200 0"), ("a", "1 2"), ("m", "1e200 0")],
         [("a", "1 2"), ("m", "-1e200 0"), ("z", "-1e200 0")], 1.0, "m"),
        ([("b", "1 2"), ("a", "0 0")], [("a", "0 0"), ("b", "0 0")], 1e-320, "b"),
    ], ids=["huge_error", "tiny_norm_distance"])
    def test_overflowing_nme_is_an_error(self, tmp_path, capsys, pred_rows, gt_rows,
                                         norm_distance, named):
        # Every NME but a's overflows to inf; the first such id in sorted
        # order is named.
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        write_annotations(pred, pred_rows)
        write_annotations(gt, gt_rows)
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"[eval]\nnorm_distance = {norm_distance!r}\n")
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: sample {named}: NME overflows")
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("fr_threshold = 0", "thresholds must be positive"),
        ("auc_threshold = -0.1", "thresholds must be positive"),
        ("ced_points = 1", "need at least two CED points"),
        ("norm_distance = 0", "eval.norm_distance must be positive"),
    ])
    def test_config_checked_before_inputs(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"[eval]\n{setting}\n")
        out = tmp_path / "out"
        argv = ["eval", str(tmp_path / "missing_pred.txt"), str(tmp_path / "missing_gt.txt"),
                "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: invalid eval config: {message}\n"
        assert not out.exists()

    def test_duplicate_id_names_both_lines(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_annotations(pred, [("a", "1 2"), ("b", "3 4"), ("a", "5 6")])
        write_annotations(gt, [("a", "1 2"), ("b", "3 4")])
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'a'" in err and "pred.txt:3" in err and "line 1" in err
        assert not out.exists()


    @pytest.mark.parametrize("sid", UNSAFE_IDS)
    def test_unsafe_sample_id_rejected(self, tmp_path, capsys, sid):
        pred = tmp_path / "pred.txt"
        gt = tmp_path / "gt.txt"
        write_annotations(pred, [("a", "1 2"), (sid, "3 4")])
        write_annotations(gt, [("a", "1 2"), (sid, "3 4")])
        inputs = sorted(tmp_path.rglob("*"))
        out = tmp_path / "work" / "out"
        assert main(["eval", str(pred), str(gt), "--out", str(out)]) == 2
        assert f"pred.txt:2: sample id {sid!r} contains '/' or ','" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == inputs


class TestDeterminism:
    def run_twice(self, argv_builder, tmp_path):
        outputs = []
        for tag in ("first", "second"):
            out = tmp_path / tag
            assert main(argv_builder(str(out))) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            )
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"

    def test_toy_byte_identical(self, tmp_path):
        self.run_twice(lambda out: ["toy", "--out", out, "--seed", "3"], tmp_path)

    def test_synth_byte_identical(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG)
        self.run_twice(
            lambda out: ["synth", "--config", str(cfg), "--out", out, "--seed", "3"],
            tmp_path,
        )

    def test_synth_same_bytes_on_one_and_two_blas_threads(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(BLAS_THREADS_CFG)
        src = os.path.dirname(os.path.dirname(os.path.abspath(landmarklab.__file__)))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run(
                [sys.executable, "-m", "landmarklab.cli", "synth", "--config", str(cfg),
                 "--out", str(out), "--seed", "3"],
                env=env, capture_output=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            runs.append((proc.stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert runs[0][1].keys() == {"convergence.csv", "history_structured.csv",
                                     "history_softargmax.csv"}
        assert runs[0] == runs[1]

    def test_smooth_byte_identical(self, tmp_path):
        ann = tmp_path / "ann.txt"
        write_annotations(ann, [("s0", "20 32 32 32 44 32")])
        bnd = tmp_path / "bnd.txt"
        bnd.write_text("0,1,2\n")
        self.run_twice(
            lambda out: ["smooth", str(ann), str(bnd), "--out", out,
                         "--dump-intermediates"],
            tmp_path,
        )
