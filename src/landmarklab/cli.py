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
import itertools
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from landmarklab.heatmap import argmax, save_heatmap_pgm, soft_argmax
from landmarklab.losses import StructuredLossConfig
from landmarklab.metrics import EvalConfig, auc_ced, failure_rate, nme
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
from landmarklab.synth import (
    SynthConfig,
    TrainingDiverged,
    compare_convergence,
    generate_dataset,
    prepare,
    split_dataset,
)
from landmarklab.toy import OBJECTIVES as TOY_OBJECTIVES
from landmarklab.toy import ToyConfig, ToyDiverged, run_toy


class CliError(Exception):
    """User-facing failure: bad config, bad input file, or a diverged run."""


def _keys(cls, *not_keys) -> dict:
    """The config keys of dataclass ``cls``, less ``not_keys``, with their
    defaults: its fields, with a ``structured`` field spread into the loss
    keys.

    The defaults are read off the class: building a ToyConfig here would
    sort its bimodal start, and numpy's first argsort adds 0.2-0.3 MB to
    the peak RSS of every command.
    """
    keys = {}
    for f in fields(cls):
        if f.name == "structured":
            keys.update(asdict(f.default))
        elif f.name not in not_keys:
            keys[f.name] = f.default
    return keys


DEFAULTS = {
    "run": {"seed": 0},
    "toy": _keys(ToyConfig, "init_values"),
    "synth": _keys(SynthConfig),
    "smooth": _keys(SmoothingConfig),
    "eval": _keys(EvalConfig),
}


def load_config(path: str | None) -> dict:
    """Defaults overlaid with the UTF-8 config file, whose leading BOM is
    dropped; unknown keys are errors.  A key whose default is a tuple
    takes a comma-separated list of integers."""
    cfg = {section: dict(values) for section, values in DEFAULTS.items()}
    if path is None:
        return cfg
    # Plain INI: no interpolation, and no section name is special, so a
    # [DEFAULT] section is rejected as unknown rather than merged into all.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, encoding="utf-8-sig") as f:
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
                elif not isinstance(default, str) and ("_" in raw or not raw.isascii()):
                    # int() and float() would read 1_0 as 10, and any Unicode digit.
                    raise ValueError(f"not ASCII without '_': {raw!r}")
                elif isinstance(default, int):
                    cfg[section][key] = int(raw)
                elif isinstance(default, tuple):
                    cfg[section][key] = tuple(int(t) for t in raw.split(",") if t.strip())
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


def _section(cfg: dict, name: str, cls):
    """``[name]`` of ``cfg`` as a ``cls``: its keys fill the fields of that
    name and its loss keys a ``structured`` field.  The dataclasses check
    the values."""
    section = cfg[name]
    values = {f.name: section[f.name] for f in fields(cls) if f.name in section}
    try:
        if "margin" in section:
            values["structured"] = StructuredLossConfig(
                **{f.name: section[f.name] for f in fields(StructuredLossConfig)})
        return cls(**values)
    except ValueError as err:
        raise CliError(f"invalid {name} config: {err}") from err


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
    if args.objective is not None:
        cfg["toy"]["objective"] = args.objective
    toy_cfg = _section(cfg, "toy", ToyConfig)
    try:
        steps, theta, grad, loss = run_toy(toy_cfg)
    except ToyDiverged as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(args.out)
    _write_csv(os.path.join(out, "toy_trace.csv"), "step,k,theta_k,grad_k", (
        (step, k, t, g)
        for step, theta_row, grad_row in zip(steps, theta, grad)
        for k, (t, g) in enumerate(zip(theta_row, grad_row))
    ))
    grid = (toy_cfg.length, 1)
    cells = argmax(theta, grid)[:, 0]
    mismatch = (cells != toy_cfg.target).astype(int)
    _write_csv(os.path.join(out, "toy_summary.csv"), "step,loss,argmax,soft_argmax,mismatch",
               zip(steps, loss, cells, soft_argmax(theta, grid)[:, 0], mismatch))
    print(
        f"toy[{toy_cfg.objective}]: final_argmax={cells[-1]} "
        f"final_loss={loss[-1]:.6g} mismatch={mismatch[-1]}"
    )
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    synth = _section(cfg, "synth", SynthConfig)
    root_seed = cfg["run"]["seed"] if args.seed is None else args.seed
    synth_seed = derive_seed(root_seed, "synth")
    try:
        # No name holds the dataset or its splits, so the pixels are freed
        # once the Gram matrices exist, before either arm allocates.
        problem = prepare(*split_dataset(generate_dataset(synth, seed=synth_seed)))
    except (ValueError, FloatingPointError) as err:
        raise CliError(f"cannot fit smoothing labels: {err}") from err
    try:
        arms = compare_convergence(problem, synth, synth_seed)
    except TrainingDiverged as err:
        raise CliError(str(err)) from err
    out = _ensure_outdir(args.out)
    objectives = synth.objective_a, synth.objective_b
    # Arms sharing an objective tag their history files with the arm.
    shared = objectives[0] == objectives[1]
    for arm, objective, (_, train_loss, eval_nme) in zip("ab", objectives, arms):
        name = f"history_{objective}_{arm}.csv" if shared else f"history_{objective}.csv"
        _write_csv(os.path.join(out, name), "epoch,objective,train_loss,eval_nme",
                   zip(range(1, len(train_loss) + 1), itertools.repeat(objective),
                       train_loss.tolist(), eval_nme.tolist()))
    (ea, _, _), (eb, _, _) = arms
    speedup = float("nan") if ea is None or eb is None else eb / ea
    _write_csv(os.path.join(out, "convergence.csv"),
               "objective_a,objective_b,target_nme,epochs_a,epochs_b,speedup",
               [(*objectives, synth.target_nme,
                 -1 if ea is None else ea, -1 if eb is None else eb, speedup)])
    print(
        f"synth: epochs_a[{objectives[0]}]={ea} epochs_b[{objectives[1]}]={eb} "
        f"speedup={speedup:.6g}"
    )
    return 0


def _dump_label_pgms(out, sample_id, raw, refined, points, covs, scfg) -> None:
    """PGMs of a sample's edge maps and of every smoothing stage for each
    landmark of points [N, 2] with covariances [N, 2, 2], cropped around it."""
    save_heatmap_pgm(np.stack([raw, refined]),
                     [os.path.join(out, f"{sample_id}_edge_{m}.pgm") for m in ("raw", "refined")])
    k = scfg.patch_half
    centers = np.rint(points).astype(int)
    # Density of each fitted Gaussian on its landmark's patch, peak-normalized.
    d = np.arange(2 * k + 1, dtype=np.float64) + centers[..., None] - k - points[..., None]
    uu, vv = d[:, 0, None, :], d[:, 1, :, None]
    inv = np.linalg.inv(covs)[..., None, None]
    quad = inv[:, 0, 0] * uu**2 + 2.0 * inv[:, 0, 1] * uu * vv + inv[:, 1, 1] * vv**2
    fitted = np.exp(-0.5 * quad)
    fitted /= fitted.max(axis=(-2, -1), keepdims=True)
    panels = np.stack([extract_patch(raw, centers, k), *joint_patch(refined, points, scfg), fitted],
                      axis=1)
    names = ("edge_raw_patch", "edge_refined_patch", "center", "joint", "fitted")
    save_heatmap_pgm(panels, [os.path.join(out, f"{sample_id}_lm{n}_{name}.pgm")
                              for n in range(len(points)) for name in names])


def cmd_smooth(args) -> int:
    scfg = _section(load_config(args.config), "smooth", SmoothingConfig)
    try:
        ids, offsets, points = read_annotations(args.annotations)
        boundaries = read_boundaries(args.boundaries)
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except ValueError as err:
        raise CliError(str(err)) from err
    # Every label is fitted before the first file is written, so a sample
    # that fails leaves no output behind.  A covariance that overflows
    # fails here as a floating-point error, not as a warning.
    fits = []
    for s, sample_id in enumerate(ids):
        sample = points[offsets[s] : offsets[s + 1]]
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                raw = build_edge_heatmap(sample, boundaries, scfg)
                refined = refine_edge_heatmap(raw, scfg)
                covs = fit_gaussian_label(refined, sample, scfg)
        except (ValueError, FloatingPointError) as err:
            raise CliError(f"sample {sample_id}: {err}") from err
        fits.append((sample_id, sample, covs, (raw, refined) if args.dump_intermediates else None))
    out = _ensure_outdir(args.out)
    for sample_id, sample, covs, maps in fits:
        if maps is not None:
            _dump_label_pgms(out, sample_id, *maps, sample, covs, scfg)
    labels_path = os.path.join(out, "labels.csv")
    _write_csv(labels_path, "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv", (
        (sample_id, n, u, v, cov[0, 0], cov[0, 1], cov[1, 1])
        for sample_id, sample, covs, _ in fits
        for n, ((u, v), cov) in enumerate(zip(sample, covs))
    ))
    print(f"smooth: {len(ids)} samples, {len(points)} labels -> {labels_path}")
    return 0


def cmd_eval(args) -> int:
    eval_cfg = _section(load_config(args.config), "eval", EvalConfig)
    try:
        pred_ids, pred_offsets, pred_points = read_annotations(args.pred)
        gt_ids, gt_offsets, gt_points = read_annotations(args.gt)
    except OSError as err:
        raise CliError(f"cannot read input: {err}") from err
    except ValueError as err:
        raise CliError(str(err)) from err
    # Each file's sample indices in sorted id order.  Ids are unique within
    # a file, so the files hold the same ids exactly when the sorted lists
    # are equal.
    pred_order = sorted(range(len(pred_ids)), key=pred_ids.__getitem__)
    gt_order = sorted(range(len(gt_ids)), key=gt_ids.__getitem__)
    ids = [pred_ids[k] for k in pred_order]
    if ids != [gt_ids[k] for k in gt_order]:
        missing = sorted(set(pred_ids) ^ set(gt_ids))
        raise CliError(f"sample ids do not match between files: {' '.join(missing)}")
    if "mean" in ids:
        raise CliError("sample id 'mean' is taken by the summary row of per_sample.csv")
    pred_order, gt_order = np.array(pred_order), np.array(gt_order)
    pred_starts, gt_starts = pred_offsets[pred_order], gt_offsets[gt_order]
    counts, gt_counts = np.diff(pred_offsets)[pred_order], np.diff(gt_offsets)[gt_order]
    differ = counts != gt_counts
    if differ.any():
        k = differ.argmax()
        raise CliError(f"sample {ids[k]}: landmark count mismatch: {counts[k]} vs {gt_counts[k]}")
    # One nme call per landmark count that occurs, on each file's points
    # [G, N, 2] gathered by index.  (np.unique would import numpy.ma, which
    # adds 1 MB to the peak RSS.)
    errs = np.empty(len(ids))
    for n in np.flatnonzero(np.bincount(counts)):
        rows = np.flatnonzero(counts == n)
        pred = pred_points[pred_starts[rows, None] + np.arange(n)]
        gt = gt_points[gt_starts[rows, None] + np.arange(n)]
        # Finite inputs overflow only to inf, which is reported below.
        with np.errstate(over="ignore"):
            errs[rows] = nme(pred, gt, np.full(len(rows), eval_cfg.norm_distance))
    finite = np.isfinite(errs)
    if not finite.all():
        raise CliError(f"sample {ids[finite.argmin()]}: NME overflows to inf")
    nme_mean = float(np.mean(errs))
    fr = failure_rate(errs, eval_cfg.fr_threshold)
    auc, ced = auc_ced(errs, eval_cfg.auc_threshold, eval_cfg.ced_points)
    out = _ensure_outdir(args.out)
    # Python floats format faster than numpy scalars; 1024 at a time keeps no per-id list.
    floats = itertools.chain.from_iterable(
        errs[lo : lo + 1024].tolist() for lo in range(0, len(errs), 1024))
    _write_csv(os.path.join(out, "per_sample.csv"), "sample_id,nme",
               itertools.chain(zip(ids, floats), [("mean", nme_mean)]))
    _write_csv(os.path.join(out, "ced.csv"), "threshold,fraction", ced)
    print(f"eval: NME={nme_mean:.6g} FR={fr:.6g} AUC={auc:.6g}")
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
        "--objective", choices=TOY_OBJECTIVES, default=None, help="overrides [toy] objective")
    command("synth", cmd_synth, "synthetic convergence comparison", seed_help=None)
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
