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
from dataclasses import asdict

import numpy as np

from landmarklab.heatmap import GridCoord, Heatmap, save_heatmap_pgm
from landmarklab.losses import MarginKind, MarginSpec, StructuredLossConfig
from landmarklab.metrics import EvalConfig, evaluate, nme
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
)
from landmarklab.synth import OBJECTIVES as SYNTH_OBJECTIVES
from landmarklab.synth import TrainConfig, TrainingDiverged, compare_convergence, generate_dataset
from landmarklab.toy import OBJECTIVES as TOY_OBJECTIVES
from landmarklab.toy import ToyConfig, ToyDiverged, run_toy


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
    "smooth": asdict(SmoothingConfig()),
    "eval": {"norm_distance": 1.0, **asdict(EvalConfig())},
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
    except UnicodeDecodeError as err:
        raise CliError(f"cannot read config file {path}: {err}") from err
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


def _choice(name: str, section: dict, key: str, choices: tuple) -> str:
    """The value of ``[name] key``, which must be one of ``choices``."""
    value = section[key]
    if value not in choices:
        raise CliError(f"{name}.{key} must be one of {choices}, got {value!r}")
    return value


def _margin_spec(name: str, section: dict) -> MarginSpec:
    return MarginSpec(
        kind=MarginKind(_choice(name, section, "margin", tuple(k.value for k in MarginKind))),
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


def _write_csv(path: str, header: str, rows) -> None:
    """Write one CSV artifact: floats to 12 significant digits, LF line ends."""
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(format(x, ".12g") if isinstance(x, float) else str(x)
                             for x in row) + "\n")


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
            objective=_choice("toy", section, "objective", TOY_OBJECTIVES),
            structured=StructuredLossConfig(
                epsilon=section["epsilon"], margin=_margin_spec("toy", section)
            ),
            record_at=record_at,
        )
    except ValueError as err:
        raise CliError(f"invalid toy config: {err}") from err
    try:
        trace = run_toy(toy_cfg)
    except ToyDiverged as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(out)
    _write_csv(os.path.join(out, "toy_trace.csv"), "step,k,theta_k,grad_k", (
        (snap.step, k, t, g)
        for snap in trace.snapshots
        for k, (t, g) in enumerate(zip(snap.theta, snap.grad))
    ))
    summary = [
        (snap.step, snap.loss, snap.argmax_index, snap.soft_argmax_value,
         int(snap.argmax_index != toy_cfg.target))
        for snap in trace.snapshots
    ]
    _write_csv(os.path.join(out, "toy_summary.csv"), "step,loss,argmax,soft_argmax,mismatch",
               summary)
    _, loss, final_argmax, _, mismatch = summary[-1]
    print(
        f"toy[{toy_cfg.objective}]: final_argmax={final_argmax} "
        f"final_loss={loss:.6g} mismatch={mismatch}"
    )
    return 0


def _train_cfg(section: dict, arm: str, seed: int) -> TrainConfig:
    """The TrainConfig of arm ``a`` or ``b`` of the ``[synth]`` section."""
    try:
        return TrainConfig(
            objective=_choice("synth", section, f"objective_{arm}", SYNTH_OBJECTIVES),
            learning_rate=section[f"lr_{arm}"],
            weight_decay=section["weight_decay"],
            epochs=section[f"epochs_{arm}"],
            batch_size=section["batch_size"],
            seed=seed,
            structured=StructuredLossConfig(
                epsilon=section["epsilon"], margin=_margin_spec("synth", section)
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
    cfg_a = _train_cfg(section, "a", synth_seed)
    cfg_b = _train_cfg(section, "b", synth_seed)
    try:
        result, hist_a, hist_b = compare_convergence(
            dataset, cfg_a, cfg_b, section["target_nme"]
        )
    except TrainingDiverged as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(out)
    # Arms sharing an objective tag their history files with the arm.
    shared = cfg_a.objective == cfg_b.objective
    for arm, objective, hist in (("a", cfg_a.objective, hist_a), ("b", cfg_b.objective, hist_b)):
        name = f"history_{objective}_{arm}.csv" if shared else f"history_{objective}.csv"
        _write_csv(os.path.join(out, name), "epoch,objective,train_loss,eval_nme",
                   ((st.epoch, objective, st.train_loss, st.eval_nme) for st in hist))
    ea, eb = result.epochs_a, result.epochs_b
    speedup = float("nan") if result.speedup is None else result.speedup
    _write_csv(os.path.join(out, "convergence.csv"),
               "objective_a,objective_b,target_nme,epochs_a,epochs_b,speedup",
               [(cfg_a.objective, cfg_b.objective, section["target_nme"],
                 -1 if ea is None else ea, -1 if eb is None else eb, speedup)])
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
    # Every label is fitted before the first file is written, so a sample
    # that fails leaves no output behind.
    fits = []
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
        fits.append((sample_id, landmarks, labels, (raw, refined) if dump_intermediates else None))
    out = _ensure_outdir(out)
    for sample_id, landmarks, labels, maps in fits:
        if maps is not None:
            raw, refined = maps
            save_heatmap_pgm(raw, os.path.join(out, f"{sample_id}_edge_raw.pgm"))
            save_heatmap_pgm(refined, os.path.join(out, f"{sample_id}_edge_refined.pgm"))
            for n, ((u, v), label) in enumerate(zip(landmarks.points, labels)):
                _dump_label_pgms(out, sample_id, n, refined, (u, v), label, scfg)
    rows = [
        (sample_id, n, *label.mean, label.cov[0, 0], label.cov[0, 1], label.cov[1, 1])
        for sample_id, _, labels, _ in fits
        for n, label in enumerate(labels)
    ]
    labels_path = os.path.join(out, "labels.csv")
    _write_csv(labels_path, "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv", rows)
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
    norm_distance = section.pop("norm_distance")
    if norm_distance <= 0:
        raise CliError("eval.norm_distance must be positive")
    ids = sorted(preds)
    errs = []
    for i in ids:
        try:
            errs.append(nme(preds[i], gts[i], norm_distance))
        except ValueError as err:
            raise CliError(f"sample {i}: {err}") from err
    try:
        report = evaluate(errs, EvalConfig(**section))
    except ValueError as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(out)
    _write_csv(os.path.join(out, "per_sample.csv"), "sample_id,nme",
               [*zip(ids, report.per_sample_nme), ("mean", report.nme_mean)])
    _write_csv(os.path.join(out, "ced.csv"), "threshold,fraction", report.ced_points)
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
