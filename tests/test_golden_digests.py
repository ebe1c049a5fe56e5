"""Byte identity across commits: every output file, stdout and exit code
of fixed command runs against the digests in ``golden_digests.json``.

The cases are each benchmark workload (``perfbench/workloads.py``) at
seeds 1 and 7, ``smooth --dump-intermediates`` and ``eval`` on
``sample_data/``, and the default ``synth`` at seed 0, which
``test_cli.py`` checks inside the test that already runs it, and a
16x16 ``synth`` whose two structured arms are both smoothed and trained
in mini-batches of 5, with labels wide enough (``gamma = 0.1``) that
their cubature rows pad to K = 9 cells.  The file
also records the Python, numpy and BLAS build the digests were taken
with; elsewhere every case fails and names the key that differs.  A
change that alters output bytes on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden_digests.py --rewrite

and lists every changed digest with its reason.  Without ``--rewrite``
the script compares every case and prints the first difference of each.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from landmarklab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_digests.json")
SAMPLE = ROOT / "sample_data"
DEFAULT_SYNTH = "default-synth@0"


def _load_workloads():
    # By file path: the test command puts only src/ on the import path.
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _workload_case(workload, seed):
    def commands(inputs, out):
        workload.prepare(inputs, seed)
        return workload.commands(inputs, out, seed)
    return commands


def _sample_data(inputs, out):
    ann, bnd = str(SAMPLE / "annotations.txt"), str(SAMPLE / "boundaries.txt")
    return [["smooth", ann, bnd, "--out", os.path.join(out, "smooth"), "--dump-intermediates"],
            ["eval", ann, ann, "--out", os.path.join(out, "eval")]]


def _smoothed_minibatch(inputs, out):
    config = os.path.join(inputs, "synth.ini")
    with open(config, "w") as f:
        f.write("[synth]\nwidth = 16\nheight = 16\nsamples = 24\nbatch_size = 5\n"
                "with_smoothing = true\ngamma = 0.1\nobjective_b = structured\nlr_b = 0.5\n"
                "epochs_a = 3\nepochs_b = 3\n")
    return [["synth", "--config", config, "--out", out, "--seed", "3"]]


# Each case: (inputs dir, out dir) -> its command lines, after writing its inputs.
CASES = {
    **{f"{name}@{seed}": _workload_case(workload, seed)
       for name, workload in _load_workloads().items() for seed in (1, 7)},
    "sample_data": _sample_data,
    "smoothed-minibatch@3": _smoothed_minibatch,
    DEFAULT_SYNTH: lambda inputs, out: [["synth", "--out", out]],
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_configuration": blas.get("openblas configuration"),
    }


def digests(out, stdouts, codes, tmp) -> dict:
    """sha256 of each file under ``out`` by its relative path, and of each
    command's stdout with ``tmp`` replaced by a fixed token; exit codes as is."""
    entries = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                entries[Path(os.path.relpath(path, out)).as_posix()] = (
                    hashlib.sha256(f.read()).hexdigest())
    for i, (text, code) in enumerate(zip(stdouts, codes)):
        entries[f"{i}:stdout"] = hashlib.sha256(
            text.replace(str(tmp), "<tmp>").encode()).hexdigest()
        entries[f"{i}:exit"] = code
    return entries


def run_case(case, tmp) -> dict:
    """Run a case's commands in-process under ``tmp``; return its digests."""
    inputs, out = os.path.join(tmp, "inputs"), os.path.join(tmp, "out")
    os.makedirs(inputs)
    stdouts, codes = [], []
    for argv in CASES[case](inputs, out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes.append(main(argv))
        stdouts.append(buf.getvalue())
    return digests(out, stdouts, codes, tmp)


def mismatch(case, entries) -> str | None:
    """The first recorded key, environment first, that ``entries`` breaks."""
    recorded = json.loads(GOLDEN.read_text())
    here = environment()
    for key in sorted(recorded["environment"].keys() | here.keys()):
        if recorded["environment"].get(key) != here.get(key):
            return (f"environment differs at {key!r}: recorded "
                    f"{recorded['environment'].get(key)!r}, here {here.get(key)!r}")
    golden = recorded["cases"][case]
    for name in sorted(golden.keys() | entries.keys()):
        if name not in entries:
            return f"{case}: {name} is missing"
        if name not in golden:
            return f"{case}: {name} is not recorded"
        if entries[name] != golden[name]:
            return f"{case}: {name} differs from its recorded digest"
    return None


def check(case, entries) -> None:
    problem = mismatch(case, entries)
    assert problem is None, problem


@pytest.mark.parametrize("case", [c for c in CASES if c != DEFAULT_SYNTH])
def test_outputs_match_golden_digests(case, tmp_path):
    check(case, run_case(case, tmp_path))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rewrite", action="store_true",
                        help=f"record every case into {GOLDEN.name}")
    args = parser.parse_args()
    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(case, tmp)
    if args.rewrite:
        GOLDEN.write_text(json.dumps({"environment": environment(), "cases": cases},
                                     indent=1, sort_keys=True) + "\n")
    else:
        for case, entries in cases.items():
            print(f"{case}: {mismatch(case, entries) or 'ok'}")
