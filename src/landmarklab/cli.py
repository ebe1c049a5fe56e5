"""Experiment runner: config parsing, subcommands, seeding, CSV/PGM artifacts.

Subcommands
-----------
``toy``     gradient-descent dynamics of one directly parameterized 1-D grid
``synth``   two-arm convergence comparison on the synthetic ellipse bench
``smooth``  fit edge-aware Gaussian labels for annotated landmarks
``eval``    NME / FR / AUC report for prediction vs ground-truth files

Configs are flat ``key = value`` files with ``[section]`` headers (INI).
Every run is deterministic given the config and the single global seed;
randomness reaches each module through a named sub-seed.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from landmarklab.heatmap import GridCoord, Heatmap, save_heatmap_pgm
from landmarklab.losses import MarginKind, MarginSpec, StructuredLossConfig
from landmarklab.metrics import EvalConfig, evaluate, nme, write_ced_csv, write_report_csv
from landmarklab.seeding import derive_seed
from landmarklab.smoothing import (
    SmoothingConfig,
    build_edge_heatmap,
    extract_patch,
    fit_gaussian_label,
    joint_patch,
    read_annotations,
    read_boundaries,
    refine_edge_heatmap,
    write_labels_csv,
)
from landmarklab.synth import (
    TrainConfig,
    TrainingDiverged,
    compare_convergence,
    generate_dataset,
    write_history_csv,
)
from landmarklab.toy import ToyConfig, run_toy, write_summary_csv, write_trace_csv


class CliError(Exception):
    """User-facing failure: bad config, bad input file, or a diverged run."""


DEFAULTS = {
    "run": {"seed": 0},
    "toy": {
        "length": 11,
        "target": 5,
        "learning_rate": 0.1,
        "steps": 50,
        "objective": "structured",
        "record_at": "10,20,50",
        "epsilon": 1.0,
        "margin": "l2",
        "margin_alpha": 1.0,
        "margin_s": 0.01,
        "margin_normalize": False,
    },
    "synth": {
        "samples": 500,
        "width": 32,
        "height": 32,
        "landmarks": 3,
        "noise_sigma": 0.02,
        "target_nme": 0.30,
        "batch_size": 500,
        "weight_decay": 0.0,
        "objective_a": "structured",
        "lr_a": 4.0,
        "epochs_a": 12,
        "objective_b": "softargmax",
        "lr_b": 0.2,
        "epochs_b": 25,
        "epsilon": 1.0,
        "margin": "smooth_l1",
        "margin_alpha": 1.0,
        "margin_s": 0.01,
        "margin_normalize": True,
        "with_smoothing": False,
        "mc_samples": 10,
        "gamma": 0.01,
        "mse_sigma": 1.5,
    },
    "smooth": {
        "edge_map_size": 64,
        "sigma_b": 1.5,
        "blur_kernel": 9,
        "blur_sigma": 1.7,
        "sharpness_factor": 5.0,
        "patch_half": 8,
        "center_sigma": 1.0,
        "blend": 0.01,
        "gamma": 0.01,
        "cov_reg": 1e-4,
    },
    "eval": {
        "norm_distance": 1.0,
        "fr_threshold": 0.10,
        "auc_threshold": 0.10,
        "ced_points": 1001,
    },
}


def _parse_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the config file; unknown keys are errors."""
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is None:
        return cfg
    # Plain INI: no interpolation, and no section name is special, so a
    # [DEFAULT] section is rejected as unknown rather than merged into all.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as f:
            parser.read_file(f)
    except OSError as err:
        raise CliError(f"cannot read config file {path}: {err.strerror}") from err
    except configparser.Error as err:
        raise CliError(f"malformed config {path}: {err}") from err
    for section in parser.sections():
        if section not in cfg:
            raise CliError(f"{path}: unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in cfg[section]:
                raise CliError(f"{path}: unknown key '{key}' in [{section}]")
            default = DEFAULTS[section][key]
            try:
                if isinstance(default, bool):
                    cfg[section][key] = _parse_bool(raw)
                elif isinstance(default, int):
                    cfg[section][key] = int(raw)
                elif isinstance(default, float):
                    value = float(raw)
                    if not math.isfinite(value):
                        raise ValueError(f"not finite: {raw!r}")
                    cfg[section][key] = value
                else:
                    cfg[section][key] = raw
            except ValueError as err:
                raise CliError(f"{path}: bad value for {section}.{key}: {raw!r}") from err
    return cfg


def _margin_spec(section: dict) -> MarginSpec:
    try:
        kind = MarginKind(section["margin"])
    except ValueError as err:
        raise CliError(f"unknown margin kind {section['margin']!r}") from err
    return MarginSpec(
        kind=kind,
        s=section["margin_s"],
        alpha=section["margin_alpha"],
        normalize_coords=section["margin_normalize"],
    )


def _ensure_outdir(out: str) -> str:
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as err:
        raise CliError(f"cannot create output directory {out}: {err.strerror}") from err
    if not os.access(out, os.W_OK):
        raise CliError(f"output directory not writable: {out}")
    return out


def _check_csv(path: str, header: str) -> None:
    with open(path) as f:
        first = f.readline().rstrip("\n")
    if first != header:
        raise CliError(f"{path}: expected header {header!r}, found {first!r}")


def cmd_toy(config_path, out, objective=None) -> int:
    cfg = load_config(config_path)
    section = cfg["toy"]
    if objective is not None:
        section["objective"] = objective
    try:
        record_at = tuple(int(t) for t in str(section["record_at"]).split(",") if t.strip())
        toy_cfg = ToyConfig(
            length=section["length"],
            target=section["target"],
            learning_rate=section["learning_rate"],
            steps=section["steps"],
            objective=section["objective"],
            structured=StructuredLossConfig(
                epsilon=section["epsilon"], margin=_margin_spec(section)
            ),
            record_at=record_at,
        )
    except ValueError as err:
        raise CliError(f"invalid toy config: {err}") from err
    trace = run_toy(toy_cfg)
    out = _ensure_outdir(out)
    trace_path = os.path.join(out, "toy_trace.csv")
    summary_path = os.path.join(out, "toy_summary.csv")
    write_trace_csv(trace, trace_path)
    write_summary_csv(trace, toy_cfg.target, summary_path)
    _check_csv(trace_path, "step,k,theta_k,grad_k")
    _check_csv(summary_path, "step,loss,argmax,soft_argmax,mismatch")
    last = trace.snapshots[-1]
    mismatch = int(last.argmax_index != toy_cfg.target)
    print(
        f"toy[{toy_cfg.objective}]: final_argmax={last.argmax_index} "
        f"final_loss={last.loss:.6g} mismatch={mismatch}"
    )
    return 0


def _train_cfg(section: dict, objective: str, lr: float, epochs: int, seed: int) -> TrainConfig:
    try:
        return TrainConfig(
            objective=objective,
            learning_rate=lr,
            weight_decay=section["weight_decay"],
            epochs=epochs,
            batch_size=section["batch_size"],
            seed=seed,
            structured=StructuredLossConfig(
                epsilon=section["epsilon"], margin=_margin_spec(section)
            ),
            with_smoothing=section["with_smoothing"],
            smoothing=SmoothingConfig(gamma=section["gamma"]),
            mc_samples=section["mc_samples"],
            mse_sigma=section["mse_sigma"],
        )
    except ValueError as err:
        raise CliError(f"invalid synth config: {err}") from err


def cmd_synth(config_path, out, seed=None, epochs=None) -> int:
    cfg = load_config(config_path)
    section = cfg["synth"]
    root_seed = cfg["run"]["seed"] if seed is None else seed
    if epochs is not None:
        section["epochs_a"] = section["epochs_b"] = epochs
    synth_seed = derive_seed(root_seed, "synth")
    if section["samples"] < 2:
        raise CliError("invalid synth config: samples must be at least 2 "
                       "(one to train on, one held out)")
    if section["target_nme"] <= 0:
        raise CliError(f"invalid synth config: target_nme must be positive, "
                       f"got {section['target_nme']}")
    try:
        dataset = generate_dataset(
            section["samples"],
            section["width"],
            section["height"],
            section["landmarks"],
            section["noise_sigma"],
            seed=synth_seed,
        )
    except ValueError as err:
        raise CliError(f"invalid synth config: {err}") from err
    cfg_a = _train_cfg(section, section["objective_a"], section["lr_a"],
                       section["epochs_a"], synth_seed)
    cfg_b = _train_cfg(section, section["objective_b"], section["lr_b"],
                       section["epochs_b"], synth_seed)
    try:
        result, hist_a, hist_b = compare_convergence(
            dataset, cfg_a, cfg_b, section["target_nme"]
        )
    except TrainingDiverged as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(out)
    # Arms sharing an objective tag their history files with the arm.
    shared = cfg_a.objective == cfg_b.objective
    paths = []
    for arm, objective, hist in (("a", cfg_a.objective, hist_a), ("b", cfg_b.objective, hist_b)):
        path = os.path.join(out, f"history_{objective}_{arm}.csv" if shared
                            else f"history_{objective}.csv")
        write_history_csv(hist, objective, path)
        paths.append(path)
    ea, eb = result.epochs_a, result.epochs_b
    speedup = float("nan") if result.speedup is None else result.speedup
    conv_path = os.path.join(out, "convergence.csv")
    with open(conv_path, "w", newline="\n") as f:
        f.write("objective_a,objective_b,target_nme,epochs_a,epochs_b,speedup\n")
        f.write(
            f"{cfg_a.objective},{cfg_b.objective},{format(section['target_nme'], '.12g')},"
            f"{-1 if ea is None else ea},{-1 if eb is None else eb},"
            f"{format(speedup, '.12g')}\n"
        )
    for path in paths:
        _check_csv(path, "epoch,objective,train_loss,eval_nme")
    _check_csv(conv_path, "objective_a,objective_b,target_nme,epochs_a,epochs_b,speedup")
    print(
        f"synth: epochs_a[{cfg_a.objective}]={ea} epochs_b[{cfg_b.objective}]={eb} "
        f"speedup={speedup:.6g}"
    )
    return 0


def _dump_label_pgms(out, sample_id, n, refined, y, label, scfg) -> list:
    """Per-landmark PGMs of every smoothing stage, cropped around the landmark."""
    k = scfg.patch_half
    center = GridCoord(int(np.rint(y[0])), int(np.rint(y[1])))
    edge_patch, bump, blended = joint_patch(refined, y, scfg)
    # Density of the fitted Gaussian on the same patch, peak-normalized.
    size = 2 * k + 1
    uu = np.arange(size, dtype=np.float64)[None, :] + center.u - k - label.mean[0]
    vv = np.arange(size, dtype=np.float64)[:, None] + center.v - k - label.mean[1]
    inv = np.linalg.inv(label.cov)
    quad = inv[0, 0] * uu**2 + 2.0 * inv[0, 1] * uu * vv + inv[1, 1] * vv**2
    fitted = np.exp(-0.5 * quad)
    fitted /= fitted.max()
    raw_patch = extract_patch(refined.values, center, k)
    panels = {
        "edge_raw_patch": raw_patch,
        "edge_refined_patch": edge_patch,
        "center": bump,
        "joint": blended,
        "fitted": fitted,
    }
    paths = []
    for name, arr in panels.items():
        path = os.path.join(out, f"{sample_id}_lm{n}_{name}.pgm")
        save_heatmap_pgm(Heatmap(arr), path)
        paths.append(path)
    return paths


def cmd_smooth(annotations_path, boundaries_path, config_path, out,
               dump_intermediates=False) -> int:
    cfg = load_config(config_path)
    section = cfg["smooth"]
    try:
        scfg = SmoothingConfig(**section)
    except (TypeError, ValueError) as err:
        raise CliError(f"invalid smooth config: {err}") from err
    try:
        samples = read_annotations(annotations_path)
        boundaries = read_boundaries(boundaries_path)
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except ValueError as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(out)
    rows = []
    for sample_id, landmarks in samples:
        try:
            raw = build_edge_heatmap(landmarks, boundaries, scfg)
            refined = refine_edge_heatmap(raw, scfg)
            labels = [
                fit_gaussian_label(refined, (u, v), scfg)
                for u, v in landmarks.points
            ]
        except ValueError as err:
            raise CliError(f"sample {sample_id}: {err}") from err
        for n, label in enumerate(labels):
            rows.append((sample_id, n, label))
        if dump_intermediates:
            save_heatmap_pgm(raw, os.path.join(out, f"{sample_id}_edge_raw.pgm"))
            save_heatmap_pgm(refined, os.path.join(out, f"{sample_id}_edge_refined.pgm"))
            for n, ((u, v), label) in enumerate(zip(landmarks.points, labels)):
                _dump_label_pgms(out, sample_id, n, refined, (u, v), label, scfg)
    labels_path = os.path.join(out, "labels.csv")
    write_labels_csv(rows, labels_path)
    _check_csv(labels_path, "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv")
    print(f"smooth: {len(samples)} samples, {len(rows)} labels -> {labels_path}")
    return 0


def cmd_eval(pred_path, gt_path, config_path, out) -> int:
    cfg = load_config(config_path)
    section = cfg["eval"]
    try:
        preds = dict(read_annotations(pred_path))
        gts = dict(read_annotations(gt_path))
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except ValueError as err:
        raise CliError(str(err)) from err
    missing = sorted(set(preds) ^ set(gts))
    if missing:
        raise CliError(f"sample ids do not match between files: {' '.join(missing)}")
    if section["norm_distance"] <= 0:
        raise CliError("eval.norm_distance must be positive")
    ids = sorted(preds)
    errs = []
    for i in ids:
        try:
            errs.append(nme(preds[i], gts[i], section["norm_distance"]))
        except ValueError as err:
            raise CliError(f"sample {i}: {err}") from err
    try:
        report = evaluate(
            errs,
            EvalConfig(
                fr_threshold=section["fr_threshold"],
                auc_threshold=section["auc_threshold"],
                ced_points=section["ced_points"],
            ),
        )
    except ValueError as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(out)
    per_sample = os.path.join(out, "per_sample.csv")
    ced = os.path.join(out, "ced.csv")
    write_report_csv(report, ids, per_sample)
    write_ced_csv(report, ced)
    _check_csv(per_sample, "sample_id,nme")
    _check_csv(ced, "threshold,fraction")
    print(f"eval: NME={report.nme_mean:.6g} FR={report.fr:.6g} AUC={report.auc:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="landmarklab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="Config keys per section:\n"
        + "\n".join(
            f"  [{section}] " + ", ".join(keys) for section, keys in DEFAULTS.items()
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    no_draws = "accepted for a uniform command line; this command draws nothing"

    toy = sub.add_parser("toy", help="1-D gradient-descent dynamics")
    toy.add_argument("--config", default=None)
    toy.add_argument("--out", default=".")
    toy.add_argument("--seed", type=int, default=None, help=no_draws)
    toy.add_argument("--objective", choices=("structured", "softargmax"), default=None)

    synth = sub.add_parser("synth", help="synthetic convergence comparison")
    synth.add_argument("--config", default=None)
    synth.add_argument("--out", default=".")
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--epochs", type=int, default=None)

    smooth = sub.add_parser("smooth", help="fit edge-aware Gaussian labels")
    smooth.add_argument("annotations")
    smooth.add_argument("boundaries")
    smooth.add_argument("--config", default=None)
    smooth.add_argument("--out", default=".")
    smooth.add_argument("--seed", type=int, default=None, help=no_draws)
    smooth.add_argument("--dump-intermediates", action="store_true")

    ev = sub.add_parser("eval", help="NME / FR / AUC report")
    ev.add_argument("pred")
    ev.add_argument("gt")
    ev.add_argument("--config", default=None)
    ev.add_argument("--out", default=".")
    ev.add_argument("--seed", type=int, default=None, help=no_draws)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "toy":
            return cmd_toy(args.config, args.out, objective=args.objective)
        if args.command == "synth":
            if args.epochs is not None and args.epochs < 1:
                raise CliError("--epochs must be at least 1")
            return cmd_synth(args.config, args.out, seed=args.seed, epochs=args.epochs)
        if args.command == "smooth":
            return cmd_smooth(
                args.annotations,
                args.boundaries,
                args.config,
                args.out,
                dump_intermediates=args.dump_intermediates,
            )
        if args.command == "eval":
            return cmd_eval(args.pred, args.gt, args.config, args.out)
        raise CliError(f"unknown command {args.command}")
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
