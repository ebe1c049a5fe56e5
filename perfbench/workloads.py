"""The benchmark's workloads: generated inputs, CLI commands, output checks.

Each workload turns the benchmark seed into input files and a list of
``landmarklab`` command lines; the seed shapes only those inputs.  After
every run the workload reads the outputs back and raises ``CheckFailed``
if they are wrong.  See README.md for why each workload exists.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


class CheckFailed(Exception):
    """A run produced outputs that are missing, malformed or wrong."""


HEADERS = {
    "history": "epoch,objective,train_loss,eval_nme",
    "convergence": "objective_a,objective_b,target_nme,epochs_a,epochs_b,speedup",
    "labels": "sample_id,landmark_id,mean_u,mean_v,cov_uu,cov_uv,cov_vv",
    "per_sample": "sample_id,nme",
    "ced": "threshold,fraction",
    "toy_trace": "step,k,theta_k,grad_k",
    "toy_summary": "step,loss,argmax,soft_argmax,mismatch",
}


def _read_csv(path: str, kind: str) -> list[list[str]]:
    try:
        with open(path, newline="") as f:
            lines = f.read().split("\n")
    except OSError as err:
        raise CheckFailed(f"missing output {os.path.basename(path)}: {err}") from err
    if lines[0] != HEADERS[kind]:
        raise CheckFailed(f"{os.path.basename(path)}: header {lines[0]!r}")
    if lines[-1] != "":
        raise CheckFailed(f"{os.path.basename(path)}: no trailing newline")
    return [line.split(",") for line in lines[1:-1]]


@dataclass(frozen=True)
class SynthWorkload:
    """One ``synth`` comparison of two arms on a generated config."""

    name: str
    why: str
    config: dict
    require_ordering: bool = False

    def prepare(self, inputs: str, seed: int) -> None:
        lines = ["[synth]"] + [f"{k} = {v}" for k, v in self.config.items()]
        with open(os.path.join(inputs, "synth.cfg"), "w") as f:
            f.write("\n".join(lines) + "\n")

    def commands(self, inputs: str, out: str, seed: int) -> list[list[str]]:
        return [["synth", "--config", os.path.join(inputs, "synth.cfg"),
                 "--out", out, "--seed", str(seed)]]

    def check(self, out: str) -> dict:
        """Validate the outputs; return the arms' quality figures."""
        cfg = self.config
        (row,) = _read_csv(os.path.join(out, "convergence.csv"), "convergence")
        quality = {}
        for arm in ("a", "b"):
            objective, epochs = cfg[f"objective_{arm}"], cfg[f"epochs_{arm}"]
            history = _read_csv(os.path.join(out, f"history_{objective}.csv"), "history")
            if [int(r[0]) for r in history] != list(range(1, epochs + 1)):
                raise CheckFailed(f"history_{objective}.csv: expected epochs 1..{epochs}")
            nmes = [float(r[3]) for r in history]
            if not all(math.isfinite(v) for v in nmes):
                raise CheckFailed(f"history_{objective}.csv: non-finite eval NME")
            reached = [e for e, v in zip(range(1, epochs + 1), nmes) if v <= cfg["target_nme"]]
            first = reached[0] if reached else -1
            if int(row[3 if arm == "a" else 4]) != first:
                raise CheckFailed(f"convergence.csv: epochs_{arm} disagrees with history")
            # An arm that never reaches the target counts as epochs + 1.
            quality[f"epochs_to_target_{arm}"] = first if reached else epochs + 1
            quality[f"final_nme_{arm}"] = nmes[-1]
        if self.require_ordering and not (
            quality["epochs_to_target_a"] < quality["epochs_to_target_b"]
        ):
            raise CheckFailed(
                "paper ordering violated: epochs_to_target_a="
                f"{quality['epochs_to_target_a']} >= epochs_to_target_b="
                f"{quality['epochs_to_target_b']}"
            )
        return quality


# Landmark template on the 64x64 edge map: 0-4 trace a lower contour and
# 5-7 an upper ridge, as in the sample data shipped with the package.
_FACE = ((12, 20), (14, 34), (24, 46), (40, 46), (50, 30), (18, 14), (30, 10), (44, 14))
_BOUNDARIES = "0,1,2,3,4\n5,6,7\n"
_PGMS_PER_SAMPLE = 2 + 5 * len(_FACE)


def _format_rows(ids, points) -> str:
    return "".join(
        f"{i} " + " ".join(f"{x:.4f}" for x in p.ravel()) + "\n"
        for i, p in zip(ids, points)
    )


@dataclass(frozen=True)
class FilesWorkload:
    """``smooth --dump-intermediates``, ``eval`` and both ``toy`` objectives."""

    name: str
    why: str
    smooth_samples: int
    eval_ids: int

    def prepare(self, inputs: str, seed: int) -> None:
        import numpy as np  # after the benchmark has pinned the BLAS threads

        rng = np.random.default_rng(seed)
        shift = rng.uniform(-4.0, 4.0, (self.smooth_samples, 1, 2))
        jitter = rng.normal(0.0, 1.5, (self.smooth_samples, len(_FACE), 2))
        faces = np.clip(np.array(_FACE, dtype=np.float64) + shift + jitter, 1.0, 62.0)
        with open(os.path.join(inputs, "annotations.txt"), "w") as f:
            f.write(_format_rows([f"face{i:04d}" for i in range(self.smooth_samples)], faces))
        with open(os.path.join(inputs, "boundaries.txt"), "w") as f:
            f.write(_BOUNDARIES)
        ids = [f"id{i:06d}" for i in range(self.eval_ids)]
        gt = rng.uniform(0.0, 64.0, (self.eval_ids, 4, 2))
        pred = gt + rng.normal(0.0, 0.08, gt.shape)
        with open(os.path.join(inputs, "gt.txt"), "w") as f:
            f.write(_format_rows(ids, gt))
        with open(os.path.join(inputs, "pred.txt"), "w") as f:
            f.write(_format_rows(ids, pred))

    def commands(self, inputs: str, out: str, seed: int) -> list[list[str]]:
        def path(name):
            return os.path.join(inputs, name)

        return [
            ["smooth", path("annotations.txt"), path("boundaries.txt"),
             "--out", os.path.join(out, "smooth"), "--dump-intermediates"],
            ["eval", path("pred.txt"), path("gt.txt"), "--out", os.path.join(out, "eval")],
            ["toy", "--out", os.path.join(out, "toy-structured"), "--objective", "structured"],
            ["toy", "--out", os.path.join(out, "toy-softargmax"), "--objective", "softargmax"],
        ]

    def check(self, out: str) -> dict:
        labels = _read_csv(os.path.join(out, "smooth", "labels.csv"), "labels")
        if len(labels) != self.smooth_samples * len(_FACE):
            raise CheckFailed(f"labels.csv: {len(labels)} rows")
        pgms = [n for n in os.listdir(os.path.join(out, "smooth")) if n.endswith(".pgm")]
        if len(pgms) != self.smooth_samples * _PGMS_PER_SAMPLE:
            raise CheckFailed(f"smooth: {len(pgms)} PGM files")
        per_sample = _read_csv(os.path.join(out, "eval", "per_sample.csv"), "per_sample")
        if len(per_sample) != self.eval_ids + 1 or per_sample[-1][0] != "mean":
            raise CheckFailed("per_sample.csv: wrong rows")
        ced = _read_csv(os.path.join(out, "eval", "ced.csv"), "ced")
        if [float(r[1]) for r in ced] != sorted(float(r[1]) for r in ced):
            raise CheckFailed("ced.csv: fraction decreases")
        # The toy's contract: structured ends on the target, soft-argmax does not.
        for objective, mismatch in (("structured", "0"), ("softargmax", "1")):
            toy = os.path.join(out, f"toy-{objective}")
            _read_csv(os.path.join(toy, "toy_trace.csv"), "toy_trace")
            summary = _read_csv(os.path.join(toy, "toy_summary.csv"), "toy_summary")
            if summary[-1][4] != mismatch:
                raise CheckFailed(f"toy[{objective}]: final mismatch {summary[-1][4]}")
        return {}


# The CLI's [synth] defaults, pinned here so that the inputs stay the same
# if the defaults change.  synth-default changes only the sample count, so
# the loss calls per render stay as in the full run; below about 100
# samples the per-epoch weight update and evaluation outgrow both.
_SYNTH_DEFAULTS = {
    "width": 32, "height": 32, "landmarks": 3, "target_nme": 0.30,
    "objective_a": "structured", "lr_a": 4.0,
    "objective_b": "softargmax", "lr_b": 0.2,
}

WORKLOADS = {
    w.name: w
    for w in (
        SynthWorkload(
            "synth-default",
            "the default synth comparison on fewer samples: 32x32 renders, 1024-cell "
            "GEMMs, both paper arms; the mixed case",
            {**_SYNTH_DEFAULTS, "samples": 100, "epochs_a": 12, "epochs_b": 25},
            require_ordering=True,
        ),
        SynthWorkload(
            "synth-small-grid",
            "16x16 grid over many epochs: per-heatmap loss calls dominate, GEMMs are small",
            {**_SYNTH_DEFAULTS, "width": 16, "height": 16, "samples": 16,
             "epochs_a": 50, "epochs_b": 50},
        ),
        SynthWorkload(
            "synth-smoothed-mse",
            "edge-aware Monte Carlo structured arm against heatmap MSE: the only "
            "label-fitting, MC and MSE paths",
            {**_SYNTH_DEFAULTS, "samples": 20, "with_smoothing": "true",
             "objective_b": "heatmap_mse", "lr_b": 0.01, "epochs_a": 4, "epochs_b": 3},
        ),
        FilesWorkload(
            "cli-files",
            "smooth with PGM dumps, eval over many ids and the toy: file writing, "
            "no rendering or training",
            smooth_samples=10,
            eval_ids=4000,
        ),
    )
}
