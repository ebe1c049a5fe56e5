import gc
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import landmarklab
from landmarklab import cli
from landmarklab.cli import _write_csv, main
from landmarklab.heatmap import save_heatmap_pgm
from landmarklab.losses import StructuredLossConfig
from landmarklab.seeding import derive_seed
from landmarklab.smoothing import (
    SmoothingConfig,
    build_edge_heatmap,
    fit_gaussian_label,
    read_boundaries,
    refine_edge_heatmap,
)
from landmarklab.synth import SynthConfig, generate_dataset, train
from landmarklab.toy import ToyConfig, run_toy

from reference import annotation_samples, dense_auc_ced, label_panels, per_id_nmes
from reference import fit_gaussian_label as fit_one_label
from reference import save_heatmap_pgm as save_one_pgm
from test_golden_digests import DEFAULT_SYNTH, check, digests

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


def loss_keys(normalize: bool):
    """Config lines setting every loss key of [toy] or [synth] off its
    default, and the StructuredLossConfig they must build.  Only the
    default of margin_normalize differs between the two sections."""
    keys = {"epsilon": 0.7, "margin": "l1", "margin_s": 0.2, "margin_alpha": 0.5,
            "margin_normalize": normalize}
    lines = "".join(f"{k} = {str(v).lower()}\n" for k, v in keys.items())
    return lines, StructuredLossConfig(**keys)


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


@pytest.mark.parametrize("command, section, key, value", [
    ("eval", "eval", "norm_distance", "1_0"),
    ("eval", "eval", "ced_points", "1_001"),
    ("synth", "synth", "samples", "4_0"),
    ("toy", "toy", "learning_rate", "0.1_5"),
])
def test_underscore_numeral_config_value_rejected(tmp_path, capsys, command, section, key,
                                                  value):
    # int() and float() read 1_0 as 10.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    gt = tmp_path / "gt.txt"
    write_annotations(gt, [("a", "1 2 3 4")])
    inputs = [str(gt), str(gt)] if command == "eval" else []
    out = tmp_path / "out"
    assert main([command, *inputs, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: bad value for {section}.{key}: '{value}'\n"
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
    ("synth", []),
    ("smooth", ["annotations", "boundaries", "--dump-intermediates"]),
    ("eval", ["pred", "gt"]),
])
def test_subcommand_help_lists_its_arguments(capsys, command, own):
    """The usage line names exactly the command's ``--`` options, so a
    removed flag cannot come back unnoticed."""
    page = help_page(capsys, [command])
    assert page.startswith(f"usage: landmarklab {command} ")
    usage = page.split("\n\n", 1)[0]
    options = [arg for arg in own if arg.startswith("--")]
    assert sorted(re.findall(r"--[\w-]+", usage)) == sorted(["--config", "--out", "--seed", *options])
    for arg in own:
        assert arg in options or arg in usage.split(), arg


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
         "invalid toy config: objective must be one of ('structured', 'softargmax'), got 'foo'"),
        ("margin = foo", f"invalid toy config: margin must be one of {MARGINS}, got 'foo'"),
        ("length = 5\ntarget = 2",
         "invalid toy config: the default bimodal start needs length >= 10, got 5"),
        ("record_at = 60", "invalid toy config: record_at step 60 outside [0, 50]"),
        ("steps = 20\nrecord_at = 10,-1", "invalid toy config: record_at step -1 outside [0, 20]"),
        ("record_at = 10, 2_0", "bad value for toy.record_at: '10, 2_0'"),
        ("record_at = \u0661\u0660,20", "bad value for toy.record_at: '\u0661\u0660,20'"),
        ("record_at = 5.0", "bad value for toy.record_at: '5.0'"),
        ("record_at = x", "bad value for toy.record_at: 'x'"),
    ])
    def test_invalid_setting_rejected(self, tmp_path, capsys, setting, message):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"[toy]\n{setting}\n", encoding="utf-8")
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

    def test_overflowing_margin_table_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        for setting, message in [
            ("margin_alpha = 1e308",
             "invalid toy config: l2 margin with margin_alpha 1e+308 overflows on a 11x1 grid"),
            ("margin = smooth_l1\nmargin_s = 1e-310",
             "invalid toy config: smooth_l1 margin with margin_alpha 1 and margin_s 1e-310 "
             "overflows on a 11x1 grid"),
        ]:
            cfg = tmp_path / "toy.cfg"
            cfg.write_text(f"[toy]\n{setting}\n")
            assert main(["toy", "--config", str(cfg), "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
        # The soft-argmax objective builds no margin table, so it still runs.
        cfg.write_text("[toy]\nobjective = softargmax\nmargin_alpha = 1e308\n")
        assert main(["toy", "--config", str(cfg), "--out", str(out)]) == 0
        assert "final_loss=" in capsys.readouterr().out

    def test_defaults_equal_toy_config_defaults(self, tmp_path, monkeypatch):
        captured = []

        def capture(toy_cfg):
            captured.append(toy_cfg)
            return run_toy(toy_cfg)

        monkeypatch.setattr(cli, "run_toy", capture)
        assert main(["toy", "--out", str(tmp_path)]) == 0
        assert captured == [ToyConfig()]

    def test_loss_keys_reach_the_config(self, tmp_path, monkeypatch):
        lines, expected = loss_keys(normalize=True)
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[toy]\n" + lines)
        captured = []

        def capture(toy_cfg):
            captured.append(toy_cfg.structured)
            return run_toy(toy_cfg)

        monkeypatch.setattr(cli, "run_toy", capture)
        assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert captured == [expected]

    def test_every_key_reaches_the_config(self, tmp_path, monkeypatch):
        lines, structured = loss_keys(normalize=True)
        text = ("length = 12\ntarget = 4\nlearning_rate = 0.2\nsteps = 40\n"
                "objective = softargmax\nrecord_at = 5,15\n" + lines)
        cfg = tmp_path / "toy.cfg"
        cfg.write_text("[toy]\n" + text)
        section = cli.load_config(str(cfg))["toy"]
        assert {line.split(" = ")[0] for line in text.splitlines()} == section.keys()
        assert all(section[key] != value for key, value in cli.DEFAULTS["toy"].items())
        captured = []

        def capture(toy_cfg):
            captured.append(toy_cfg)
            return run_toy(toy_cfg)

        monkeypatch.setattr(cli, "run_toy", capture)
        assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert captured == [ToyConfig(length=12, target=4, learning_rate=0.2, steps=40,
                                      objective="softargmax", record_at=(5, 15),
                                      structured=structured)]

    # Forms of record_at that read as integer lists: a sign, spaces around
    # a step, empty items and an empty value, which records no extra step.
    @pytest.mark.parametrize("raw, steps", [
        ("+10", (10,)),
        ("10 , 20", (10, 20)),
        ("010,  +20 ,50", (10, 20, 50)),
        ("10,20,", (10, 20)),
        (",10,,20", (10, 20)),
        ("", ()),
        ("20,10,10", (20, 10, 10)),
    ])
    def test_record_at_forms(self, tmp_path, raw, steps):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(f"[toy]\nrecord_at = {raw}\n")
        assert cli.load_config(str(cfg))["toy"]["record_at"] == steps
        assert main(["toy", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        recorded = [int(row["step"]) for row in read_csv_rows(tmp_path / "toy_summary.csv")]
        assert recorded == sorted({0, 50, *steps})

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

    def test_loss_keys_reach_both_arms(self, tmp_path, monkeypatch):
        lines, expected = loss_keys(normalize=False)
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG + lines)
        arms = []

        def capture(problem, synth, arm, seed):
            arms.append((arm, synth.structured))
            return train(problem, synth, arm, seed)

        monkeypatch.setattr(landmarklab.synth, "train", capture)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert arms == [("a", expected), ("b", expected)]

    def test_every_key_reaches_both_arms_and_the_data(self, tmp_path, monkeypatch):
        lines, structured = loss_keys(normalize=False)
        text = ("samples = 11\nwidth = 13\nheight = 14\nlandmarks = 4\nnoise_sigma = 0.03\n"
                "target_nme = 0.4\nbatch_size = 7\nweight_decay = 0.001\n"
                "objective_a = heatmap_mse\nlr_a = 0.05\nepochs_a = 2\n"
                "objective_b = structured\nlr_b = 3.0\nepochs_b = 3\n"
                "with_smoothing = true\ngamma = 0.02\nmse_sigma = 2.0\n" + lines)
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\n" + text)
        loaded = cli.load_config(str(cfg))
        assert {line.split(" = ")[0] for line in text.splitlines()} == loaded["synth"].keys()
        assert all(loaded["synth"][key] != value for key, value in cli.DEFAULTS["synth"].items())
        expected = SynthConfig(
            samples=11, width=13, height=14, landmarks=4, noise_sigma=0.03, target_nme=0.4,
            batch_size=7, weight_decay=0.001,
            objective_a="heatmap_mse", lr_a=0.05, epochs_a=2,
            objective_b="structured", lr_b=3.0, epochs_b=3,
            structured=structured, with_smoothing=True, gamma=0.02, mse_sigma=2.0)
        assert cli._section(loaded, "synth", SynthConfig) == expected
        calls = {"train": []}

        def data(*args, **kwargs):
            calls["data"] = args, kwargs
            calls["dataset"] = generate_dataset(*args, **kwargs)
            return calls["dataset"]

        def arm(problem, synth, name, seed):
            calls["train"].append((synth, name, seed))
            return train(problem, synth, name, seed)

        monkeypatch.setattr(cli, "generate_dataset", data)
        monkeypatch.setattr(landmarklab.synth, "train", arm)
        argv = ["synth", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path)]
        assert main(argv) == 0
        seed = derive_seed(5, "synth")
        assert calls["data"] == ((expected,), {"seed": seed})
        assert calls["dataset"].covs.shape == (11, 4, 2, 2)
        # Each arm trains from the loaded config, by its letter, at the sub-seed.
        assert calls["train"] == [(expected, "a", seed), (expected, "b", seed)]

    def test_pixels_are_freed_before_training(self, tmp_path, monkeypatch):
        # Training reads the problem's Gram matrices alone, so no rendered
        # pixel is alive once the first arm starts.
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG)
        pixels, arms = [], []

        def data(*args, **kwargs):
            dataset = generate_dataset(*args, **kwargs)
            pixels.append(weakref.ref(dataset.pixels))
            return dataset

        def arm(*args, **kwargs):
            gc.collect()
            assert pixels[0]() is None, "the rendered pixels outlive the problem"
            arms.append(args[2])
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_dataset", data)
        monkeypatch.setattr(landmarklab.synth, "train", arm)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert len(pixels) == 1 and arms == ["a", "b"]

    def test_huge_noise_gives_clipped_images(self, tmp_path, monkeypatch):
        # Draws scaled past the largest float overflow to +-inf, which the
        # clip takes to 0 and 1 without a warning (the suite makes it an error).
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(SMALL_SYNTH_CFG + "noise_sigma = 1e308\n")
        datasets = []

        def data(*args, **kwargs):
            datasets.append(generate_dataset(*args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(cli, "generate_dataset", data)
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert np.isin(datasets[0].pixels, (0.0, 1.0)).all()

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
        cfg.write_text(SMALL_SYNTH_CFG.replace("epochs_a = 4", "epochs_a = 0"))
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid synth config: epochs_a must be at least 1, got 0" in err
        assert not out.exists()

    def test_diverging_arm_names_objective(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(DIVERGING_ARM_CFG)
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        assert "heatmap_mse diverged" in capsys.readouterr().err
        assert not out.exists()

    def test_diverging_arm_is_named_when_objectives_are_shared(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\nsamples = 20\nwidth = 16\nheight = 16\n"
                       "objective_a = heatmap_mse\nlr_a = 0.01\nepochs_a = 3\n"
                       "objective_b = heatmap_mse\nlr_b = 0.1\nepochs_b = 4\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: arm b: heatmap_mse diverged: train loss ")
        assert err.rstrip().endswith("at epoch 3")
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

    def test_smallest_gamma_fits_labels(self, tmp_path, capsys):
        # The labels of the smallest subnormal gamma are still positive definite.
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\nsamples = 20\nwidth = 16\nheight = 16\nlandmarks = 2\n"
                       "epochs_a = 1\nepochs_b = 1\nwith_smoothing = true\ngamma = 5e-324\n")
        out = tmp_path / "out"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("synth: epochs_a[structured]=")
        assert sorted(os.listdir(out)) == [
            "convergence.csv", "history_softargmax.csv", "history_structured.csv"]

    def test_smoothed_labels_are_fitted_once(self, tmp_path, monkeypatch):
        # Both structured arms train on the labels the dataset carries,
        # fitted over every rendered sample.
        fitted = []

        def fit(refined, points, scfg):
            fitted.append(len(points))
            return fit_gaussian_label(refined, points, scfg)

        monkeypatch.setattr(landmarklab.synth, "fit_gaussian_label", fit)
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("[synth]\nsamples = 24\nwidth = 16\nheight = 16\nwith_smoothing = true\n"
                       "objective_b = structured\nlr_b = 0.5\nepochs_a = 2\nepochs_b = 2\n")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert fitted == [24]

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
        ("samples = 40\nmse_sigma = 0",
         "invalid synth config: mse_sigma must be positive, got 0.0"),
        ("samples = 40\nmse_sigma = -1.5",
         "invalid synth config: mse_sigma must be positive, got -1.5"),
        ("samples = 40\nobjective_b = heatmap_mse\nmse_sigma = 1e-170",
         "invalid synth config: mse_sigma 1e-170 is too small: 2 sigma^2 underflows to 0"),
        ("samples = 40\nobjective_b = heatmap_mse\nmse_sigma = 1e-160",
         "invalid synth config: mse_sigma 1e-160 is too small for a 16x16 grid: "
         "distance^2 / (2 sigma^2) overflows"),
        ("samples = 20\nmargin_alpha = 1e308",
         "invalid synth config: smooth_l1 margin with margin_alpha 1e+308 and margin_s 0.01 "
         "overflows on a 16x16 grid"),
        ("samples = 20\nmargin = l2\nmargin_alpha = 1e308",
         "invalid synth config: structured loss with margin_alpha 1e+308 and epsilon 1 "
         "overflows when summed over 2 landmarks and 20 samples on a 16x16 grid"),
        ("samples = 20\nmargin_s = 1e-310",
         "invalid synth config: smooth_l1 margin with margin_alpha 1 and margin_s 1e-310 "
         "overflows on a 16x16 grid"),
        ("samples = 40\nnoise_sigma = -0.5", "noise_sigma must be nonnegative, got -0.5"),
        ("samples = 40\nobjective_a = foo",
         f"invalid synth config: objective_a must be one of {SYNTH_OBJECTIVES}, got 'foo'"),
        ("samples = 40\nobjective_b = foo",
         f"invalid synth config: objective_b must be one of {SYNTH_OBJECTIVES}, got 'foo'"),
        ("samples = 40\nmargin = foo",
         f"invalid synth config: margin must be one of {MARGINS}, got 'foo'"),
        ("width = -3", "invalid synth config: width must be at least 12, got -3"),
        ("lr_a = -1", "invalid synth config: lr_a must be nonnegative, got -1.0"),
        ("lr_b = -1", "invalid synth config: lr_b must be nonnegative, got -1.0"),
        ("epochs_b = 0", "invalid synth config: epochs_b must be at least 1, got 0"),
        ("batch_size = 0", "invalid synth config: batch_size must be at least 1, got 0"),
        ("weight_decay = -0.1",
         "invalid synth config: weight_decay must be nonnegative, got -0.1"),
        ("gamma = 0", "invalid synth config: gamma must be positive, got 0.0"),
        ("with_smoothing = true\ngamma = 0",
         "invalid synth config: gamma must be positive, got 0.0"),
    ])
    def test_invalid_setting_rejected(self, tmp_path, capsys, monkeypatch, setting, message):
        # Every [synth] key is checked before anything is rendered.
        def render(*args, **kwargs):
            raise AssertionError("a bad setting reached the render")

        monkeypatch.setattr(cli, "generate_dataset", render)
        # The setting's keys take the place of the small config's.
        keys = {line.split(" = ")[0] for line in setting.splitlines()}
        lines = [line for line in SMALL_SYNTH_CFG.splitlines() if line.split(" = ")[0] not in keys]
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("\n".join([*lines, *setting.splitlines()]) + "\n")
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

    def test_default_bench_orders_objectives(self, tmp_path, capsys):
        # Full default configuration; the slowest CLI test (about 1.6 s).
        code = main(["synth", "--out", str(tmp_path)])
        assert code == 0
        # Its bytes are golden too, checked here to spare a second run.
        check(DEFAULT_SYNTH, digests(tmp_path, [capsys.readouterr().out], [code], tmp_path))
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
        # The sigma's square underflows to zero (1e-300, 1e-200), or the
        # largest squared offset on its grid over 2 sigma^2 overflows
        # (1e-160): the config's fault, where a sample used to be blamed.
        ann, bnd = self.setup_inputs(tmp_path)
        for value in ("1e-300", "1e-200", "1e-160"):
            cfg = tmp_path / "smooth.cfg"
            cfg.write_text(f"[smooth]\n{key} = {value}\n")
            out = tmp_path / "out"
            assert main(["smooth", str(ann), str(bnd), "--config", str(cfg),
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: invalid smooth config: {key} {value} is too small for its grid: "
                f"distance^2 / (2 sigma^2) overflows\n")
            assert not out.exists()

    def test_tiny_edge_sigma_runs(self, tmp_path):
        # The largest squared distance on the 64x64 map over 2 sigma^2 is finite.
        cfg = tmp_path / "smooth.cfg"
        cfg.write_text("[smooth]\nsigma_b = 1e-150\n")
        out = tmp_path / "out"
        assert main(["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"),
                     os.path.join(SAMPLE_DATA, "boundaries.txt"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "labels.csv").exists()

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

    @staticmethod
    def check_dumps_match_reference(out, ref, ann, bnd, cfg):
        """Every PGM in out, byte for byte, against panels built and
        encoded one landmark and one map at a time into ref."""
        ref.mkdir()
        for sid, points in annotation_samples(ann):
            raw = build_edge_heatmap(points, read_boundaries(bnd), cfg)
            refined = refine_edge_heatmap(raw, cfg)
            save_one_pgm(raw, ref / f"{sid}_edge_raw.pgm")
            save_one_pgm(refined, ref / f"{sid}_edge_refined.pgm")
            for n, y in enumerate(points):
                cov = fit_one_label(refined, tuple(y), cfg)
                for name, panel in label_panels(raw, refined, tuple(y), cov, cfg).items():
                    save_one_pgm(panel, ref / f"{sid}_lm{n}_{name}.pgm")
        names = sorted(p.name for p in out.glob("*.pgm"))
        assert names == sorted(p.name for p in ref.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name

    @pytest.mark.parametrize("gamma", [SmoothingConfig().gamma, 4.0])
    def test_dumped_pgms_match_per_landmark_reference(self, tmp_path, gamma):
        # Every PGM of the shipped sample data.  At the default gamma a
        # fitted panel lights only the landmark's own pixel; at 4 it shows
        # the Gaussian's shape.
        ann = os.path.join(SAMPLE_DATA, "annotations.txt")
        bnd = os.path.join(SAMPLE_DATA, "boundaries.txt")
        config = tmp_path / "smooth.cfg"
        config.write_text(f"[smooth]\ngamma = {gamma!r}\n")
        out = tmp_path / "out"
        assert main(["smooth", ann, bnd, "--config", str(config), "--out", str(out),
                     "--dump-intermediates"]) == 0
        self.check_dumps_match_reference(out, tmp_path / "ref", ann, bnd, SmoothingConfig(gamma=gamma))

    def test_dumps_of_mixed_landmark_counts(self, tmp_path, monkeypatch):
        # Samples of 3 and 4 landmarks in one file: each writes 2 + 5 N
        # PGMs in two writer calls, its edge maps and its panel stack.
        ann, bnd = self.setup_inputs(tmp_path)
        write_annotations(ann, [("s0", "20 32 32 32 44 32"), ("s1", "16 16 32 24 48 16 40 44")])
        calls = []

        def save(maps, paths):
            calls.append(maps.shape)
            save_heatmap_pgm(maps, paths)

        monkeypatch.setattr(cli, "save_heatmap_pgm", save)
        out = tmp_path / "out"
        assert main(["smooth", str(ann), str(bnd), "--out", str(out), "--dump-intermediates"]) == 0
        p = 2 * SmoothingConfig().patch_half + 1
        assert calls == [(2, 64, 64), (3, 5, p, p), (2, 64, 64), (4, 5, p, p)]
        assert len(list(out.glob("s0_*.pgm"))) == 2 + 5 * 3
        assert len(list(out.glob("s1_*.pgm"))) == 2 + 5 * 4
        self.check_dumps_match_reference(out, tmp_path / "ref", ann, bnd, SmoothingConfig())

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

        errs = per_id_nmes(dict(annotation_samples(pred)), dict(annotation_samples(gt)), 12.5)
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
        ("norm_distance = 0", "norm_distance must be positive"),
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


class TestInputText:
    """Annotation and boundary files are UTF-8, and numerals have no ``_``."""

    @pytest.mark.parametrize("command", ["eval", "smooth"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, capsys, command):
        ann = tmp_path / "ann.txt"
        ann.write_bytes(b"s0 20 32 32 32 44 32\ns1 \xff 1 2 3 4 5\n")
        bnd = tmp_path / "bnd.txt"
        bnd.write_text("0,1,2\n")
        argv = [str(ann), str(ann)] if command == "eval" else [str(ann), str(bnd)]
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {ann}:2: not valid UTF-8\n"
        assert not out.exists()

    def test_undecodable_boundary_file(self, tmp_path, capsys):
        bnd = tmp_path / "bnd.txt"
        bnd.write_bytes(b"# \xe9dge\n0,1,2\n")
        out = tmp_path / "out"
        assert main(["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"), str(bnd),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bnd}:1: not valid UTF-8\n"
        assert not out.exists()

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # With the mark read as text, the ids were "s0" and "\ufeffs0".
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        write_annotations(pred, [("s0", "3 4 10 10")])
        gt.write_bytes(b"\xef\xbb\xbfs0 0 0 10 10\n")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("[eval]\nnorm_distance = 10\n")
        assert main(["eval", str(pred), str(gt), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert "NME=0.25" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "smooth"])
    def test_nul_in_id_rejected(self, tmp_path, capsys, command):
        # smooth ended in an "embedded null byte" traceback at its first PGM,
        # and eval wrote the NUL, or any other control character, into
        # per_sample.csv.
        ann, bnd = tmp_path / "ann.txt", tmp_path / "bnd.txt"
        bnd.write_text("0,1,2\n")
        argv = [str(ann), str(ann)] if command == "eval" else [
            str(ann), str(bnd), "--dump-intermediates"]
        out = tmp_path / "out"
        for char in ("\x00", "\x01", "\x7f"):
            ann.write_text(f"s{char}x 20 32 32 32 44 32\n")
            assert main([command, *argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: {ann}:1: sample id 's\\x{ord(char):02x}x' contains a control character\n")
            assert not out.exists()

    @pytest.mark.parametrize("digit", ["\u0661", "\uff11"], ids=["arabic_indic", "full_width"])
    def test_non_ascii_digits_rejected(self, tmp_path, capsys, digit):
        # Read as 1, "a <digit> 2 3 4" scored NME 0 against "a 1 2 3 4" with exit 0.
        pred, gt, bnd = tmp_path / "pred.txt", tmp_path / "gt.txt", tmp_path / "bnd.txt"
        pred.write_text(f"a {digit} 2 3 4\n", encoding="utf-8")
        write_annotations(gt, [("a", "1 2 3 4")])
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {pred}:1: malformed coordinate token\n"
        bnd.write_text(f"0,{digit}\n", encoding="utf-8")
        assert main(["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"), str(bnd),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bnd}:1: malformed boundary index\n"
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(f"[eval]\nnorm_distance = {digit}0\n", encoding="utf-8")
        assert main(["eval", str(gt), str(gt), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: bad value for eval.norm_distance: '{digit}0'\n")
        assert not out.exists()

    def test_config_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # The mark was read as text: "File contains no section headers".
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        write_annotations(pred, [("s0", "3 4 10 10")])
        write_annotations(gt, [("s0", "0 0 10 10")])
        cfg = tmp_path / "eval.cfg"
        cfg.write_bytes(b"\xef\xbb\xbf[eval]\nnorm_distance = 10\n")
        assert main(["eval", str(pred), str(gt), "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 0
        assert "NME=0.25" in capsys.readouterr().out

    def test_underscore_coordinate_rejected(self, tmp_path, capsys):
        # Read as 10, it scored NME 4.5 with exit 0.
        pred, gt = tmp_path / "pred.txt", tmp_path / "gt.txt"
        write_annotations(pred, [("s0", "1_0 2 3 4")])
        write_annotations(gt, [("s0", "1 2 3 4")])
        out = tmp_path / "out"
        assert main(["eval", str(pred), str(gt), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {pred}:1: malformed coordinate token\n"
        assert not out.exists()

    def test_underscore_boundary_index_rejected(self, tmp_path, capsys):
        # Read as 10, it failed as "boundary index 10 out of range".
        bnd = tmp_path / "bnd.txt"
        bnd.write_text("0,1_0\n")
        out = tmp_path / "out"
        assert main(["smooth", os.path.join(SAMPLE_DATA, "annotations.txt"), str(bnd),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bnd}:1: malformed boundary index\n"
        assert not out.exists()


class TestMemory:
    def test_eval_peak_over_many_ids(self, tmp_path):
        # The benchmark's eval shape: 4,000 ids of 4 landmarks.  Reading
        # one [N, 2] array per id and stacking them again peaked at 4.7 MB;
        # one points array per file and gathered groups peak at 2.4-2.6 MB.
        rng = np.random.default_rng(1)
        ids = [f"id{k:06d}" for k in range(4000)]
        gt = rng.uniform(0.0, 64.0, (4000, 8))
        for path, points in ((tmp_path / "gt.txt", gt),
                             (tmp_path / "pred.txt", gt + rng.normal(0.0, 0.08, gt.shape))):
            write_annotations(path, [(i, " ".join(f"{x:.4f}" for x in row))
                                     for i, row in zip(ids, points)])
        argv = ["eval", str(tmp_path / "pred.txt"), str(tmp_path / "gt.txt"),
                "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_commands_import_neither_random_nor_polynomial(self, tmp_path):
        # numpy loads both lazily; they would add about 2 MB and 0.8 MB of RSS.
        ann = os.path.join(SAMPLE_DATA, "annotations.txt")
        bnd = os.path.join(SAMPLE_DATA, "boundaries.txt")
        script = (
            "import sys\n"
            "from landmarklab.cli import main\n"
            f"assert main(['eval', {ann!r}, {ann!r}, '--out', {str(tmp_path / 'eval')!r}]) == 0\n"
            f"assert main(['smooth', {ann!r}, {bnd!r}, '--dump-intermediates',\n"
            f"             '--out', {str(tmp_path / 'smooth')!r}]) == 0\n"
            f"assert main(['toy', '--out', {str(tmp_path / 'toy')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('numpy.random', 'numpy.polynomial'))))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(landmarklab.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


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
