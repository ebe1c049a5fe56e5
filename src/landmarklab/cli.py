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

from landmarklab.heatmap import save_heatmap_pgm
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
        "gamma": 0.01,
        "mse_sigma": 1.5,
    },
    "smooth": asdict(SmoothingConfig()),
    "eval": {"norm_distance": 1.0, **asdict(EvalConfig())},
}


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
                    cfg[section][key] = parser.getboolean(section, key)
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


def cmd_toy(args) -> int:
    cfg = load_config(args.config)
    section = cfg["toy"]
    if args.objective is not None:
        section["objective"] = args.objective
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
        snapshots = run_toy(toy_cfg)
    except ToyDiverged as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(args.out)
    _write_csv(os.path.join(out, "toy_trace.csv"), "step,k,theta_k,grad_k", (
        (snap.step, k, t, g)
        for snap in snapshots
        for k, (t, g) in enumerate(zip(snap.theta, snap.grad))
    ))
    summary = [
        (snap.step, snap.loss, snap.argmax_index, snap.soft_argmax_value,
         int(snap.argmax_index != toy_cfg.target))
        for snap in snapshots
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
            mse_sigma=section["mse_sigma"],
        )
    except ValueError as err:
        raise CliError(f"invalid synth config: {err}") from err


def cmd_synth(args) -> int:
    if args.epochs is not None and args.epochs < 1:
        raise CliError("--epochs must be at least 1")
    cfg = load_config(args.config)
    section = cfg["synth"]
    root_seed = cfg["run"]["seed"] if args.seed is None else args.seed
    if args.epochs is not None:
        section["epochs_a"] = section["epochs_b"] = args.epochs
    synth_seed = derive_seed(root_seed, "synth")
    if section["samples"] < 2:
        raise CliError("invalid synth config: samples must be at least 2 "
                       "(one to train on, one held out)")
    if section["target_nme"] <= 0:
        raise CliError(f"invalid synth config: target_nme must be positive, "
                       f"got {section['target_nme']}")
    cfg_a = _train_cfg(section, "a", synth_seed)
    cfg_b = _train_cfg(section, "b", synth_seed)
    if section["with_smoothing"] and "structured" not in (cfg_a.objective, cfg_b.objective):
        raise CliError(
            f"invalid synth config: synth.with_smoothing applies to the structured "
            f"objective only, but the arms are {cfg_a.objective} and {cfg_b.objective}"
        )
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
    # Of the steps below only label fitting raises ValueError, and an
    # overflowing covariance raises here rather than warn.
    try:
        with np.errstate(over="raise", invalid="raise"):
            result, hist_a, hist_b = compare_convergence(dataset, cfg_a, cfg_b,
                                                         section["target_nme"])
    except TrainingDiverged as err:
        raise CliError(str(err)) from err
    except (ValueError, FloatingPointError) as err:
        raise CliError(f"cannot fit smoothing labels: {err}") from err
    out = _ensure_outdir(args.out)
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


def _dump_label_pgms(out, sample_id, raw, refined, points, covs, scfg) -> None:
    """PGMs of a sample's edge maps and of every smoothing stage for each
    landmark of points [N, 2] with covariances [N, 2, 2], cropped around it."""
    save_heatmap_pgm(raw, os.path.join(out, f"{sample_id}_edge_raw.pgm"))
    save_heatmap_pgm(refined, os.path.join(out, f"{sample_id}_edge_refined.pgm"))
    k = scfg.patch_half
    centers = np.rint(points).astype(int)
    edge_patch, bump, blended = joint_patch(refined, points, scfg)
    # Density of each fitted Gaussian on its landmark's patch, peak-normalized.
    d = np.arange(2 * k + 1, dtype=np.float64) + centers[..., None] - k - points[..., None]
    uu, vv = d[:, 0, None, :], d[:, 1, :, None]
    inv = np.linalg.inv(covs)[..., None, None]
    quad = inv[:, 0, 0] * uu**2 + 2.0 * inv[:, 0, 1] * uu * vv + inv[:, 1, 1] * vv**2
    fitted = np.exp(-0.5 * quad)
    fitted /= fitted.max(axis=(-2, -1), keepdims=True)
    panels = {
        "edge_raw_patch": extract_patch(raw, centers, k),
        "edge_refined_patch": edge_patch,
        "center": bump,
        "joint": blended,
        "fitted": fitted,
    }
    for n in range(len(points)):
        for name, arr in panels.items():
            save_heatmap_pgm(arr[n], os.path.join(out, f"{sample_id}_lm{n}_{name}.pgm"))


def cmd_smooth(args) -> int:
    cfg = load_config(args.config)
    section = cfg["smooth"]
    try:
        scfg = SmoothingConfig(**section)
    except (TypeError, ValueError) as err:
        raise CliError(f"invalid smooth config: {err}") from err
    try:
        samples = read_annotations(args.annotations)
        boundaries = read_boundaries(args.boundaries)
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except ValueError as err:
        raise CliError(str(err)) from err
    # Every label is fitted before the first file is written, so a sample
    # that fails leaves no output behind.  A sigma whose square underflows
    # fails here as a floating-point error, not as a warning.
    fits = []
    for sample_id, points in samples:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                raw = build_edge_heatmap(points, boundaries, scfg)
                refined = refine_edge_heatmap(raw, scfg)
                covs = fit_gaussian_label(refined, points, scfg)
        except (ValueError, FloatingPointError) as err:
            raise CliError(f"sample {sample_id}: {err}") from err
        fits.append((sample_id, points, covs, (raw, refined) if args.dump_intermediates else None))
    out = _ensure_outdir(args.out)
    for sample_id, points, covs, maps in fits:
        if maps is not None:
            _dump_label_pgms(out, sample_id, *maps, points, covs, scfg)
    rows = [
        (sample_id, n, u, v, cov[0, 0], cov[0, 1], cov[1, 1])
        for sample_id, points, covs, _ in fits
        for n, ((u, v), cov) in enumerate(zip(points, covs))
    ]
    labels_path = os.path.join(out, "labels.csv")
    _write_csv(labels_path, "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv", rows)
    print(f"smooth: {len(samples)} samples, {len(rows)} labels -> {labels_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    section = cfg["eval"]
    norm_distance = section.pop("norm_distance")
    if norm_distance <= 0:
        raise CliError("invalid eval config: eval.norm_distance must be positive")
    try:
        eval_cfg = EvalConfig(**section)
    except ValueError as err:
        raise CliError(f"invalid eval config: {err}") from err
    try:
        preds = dict(read_annotations(args.pred))
        gts = dict(read_annotations(args.gt))
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except ValueError as err:
        raise CliError(str(err)) from err
    missing = sorted(set(preds) ^ set(gts))
    if missing:
        raise CliError(f"sample ids do not match between files: {' '.join(missing)}")
    if "mean" in preds:
        raise CliError("sample id 'mean' is taken by the summary row of per_sample.csv")
    ids = sorted(preds)
    # One nme call per (pred, gt) landmark count pair, in order of each
    # group's first id, so a mismatch names the first mismatching id.
    groups = {}
    for row, i in enumerate(ids):
        groups.setdefault((len(preds[i]), len(gts[i])), []).append(row)
    errs = np.empty(len(ids))
    for rows in groups.values():
        group = [ids[row] for row in rows]
        try:
            # Finite inputs overflow only to inf, which is reported below.
            with np.errstate(over="ignore"):
                errs[rows] = nme(np.stack([preds[i] for i in group]),
                                 np.stack([gts[i] for i in group]),
                                 np.full(len(rows), norm_distance))
        except ValueError as err:
            raise CliError(f"sample {group[0]}: {err}") from err
    finite = np.isfinite(errs)
    if not finite.all():
        raise CliError(f"sample {ids[finite.argmin()]}: NME overflows to inf")
    report = evaluate(errs, eval_cfg)
    out = _ensure_outdir(args.out)
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

    # Each subcommand: its positionals, the options every command takes, its handler.
    def command(name, run, summary, *positionals, seed_help=no_draws):
        cmd = sub.add_parser(name, help=summary)
        for positional in positionals:
            cmd.add_argument(positional)
        cmd.add_argument("--config", default=None)
        cmd.add_argument("--out", default=".")
        cmd.add_argument("--seed", type=int, default=None, help=seed_help)
        cmd.set_defaults(run=run)
        return cmd

    command("toy", cmd_toy, "1-D gradient-descent dynamics").add_argument(
        "--objective", choices=TOY_OBJECTIVES, default=None)
    command("synth", cmd_synth, "synthetic convergence comparison", seed_help=None).add_argument(
        "--epochs", type=int, default=None)
    command("smooth", cmd_smooth, "fit edge-aware Gaussian labels",
            "annotations", "boundaries").add_argument("--dump-intermediates", action="store_true")
    command("eval", cmd_eval, "NME / FR / AUC report", "pred", "gt")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    # Configs and inputs are read under handlers that raise CliError, so an
    # OSError that gets here came from writing an output.
    except (CliError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # A config that asks for more memory than the machine has, such as a
    # huge synth.samples, fails in an allocation.
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
