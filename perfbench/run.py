#!/usr/bin/env python3
"""landmarklab benchmark: end-to-end timings and a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload synth-default --seed 1 --seconds 25 --trace 0

One process imports ``landmarklab.cli`` from ``./src`` and calls
``landmarklab.cli.main`` for the workload's commands as a closed loop: one
caller, runs back to back, for ``--seconds`` seconds after one untimed
warm-up run.  Every run's outputs are checked and hashed; a run fails if a
command exits non-zero, an output differs from the other runs of the seed,
or the workload check fails.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics from the traced
ones, plus the tracing overhead.  Metrics are printed one per line with
their unit; the last line of standard output is one JSON object.  Results
and spans are written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from tracing import CONSTRUCTIONS, TARGETS, Tracer
from workloads import WORKLOADS, CheckFailed

# Pinned before numpy loads, here and in the set-up probes; at most nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 30
WORK = ".perfbench"
COMMANDS = ("synth", "smooth", "eval", "toy")
SETUP_CODE = "from landmarklab.cli import build_parser; build_parser()"

END_TO_END = {
    "run_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and kept in the results file, but not bounded: the host's speed
# swings move them between processes by more than a bound could allow
# (see README.md).
END_TO_END_UNBOUNDED = {
    "run_s_median": "s",
    "run_s_min": "s",
}


def layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for target in TARGETS:
        units[f"{target.name}.calls"] = "count"
        units[f"{target.name}.self_s"] = "s"
        if target.work_name:
            units[target.work_name] = "GFLOP" if target.work_name.endswith("_gflop") else "count"
    units[CONSTRUCTIONS] = "count"
    for command in COMMANDS:
        units[f"cli.{command}.self_s"] = "s"
    units.update({
        "cli.files_written": "count",
        "cli.bytes_written": "B",
        "synth.epochs_to_target_a": "epochs",
        "synth.epochs_to_target_b": "epochs",
        "synth.final_nme_a": "NME",
        "synth.final_nme_b": "NME",
        "trace.run_s": "s",
        "trace.untraced_run_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _tail(samples: list) -> tuple:
    """Highest order statistic with at least ten samples above it, and its percentile.

    Below 21 samples that statistic would not lie above the median, so the
    maximum is reported instead.
    """
    ordered = sorted(samples)
    if len(ordered) < 21:
        return ordered[-1], 100
    k = len(ordered) - 11
    return ordered[k], int(100 * (k + 1) / len(ordered))


def _source_digest(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "landmarklab")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository of its own."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_runtime_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: str, src: str, workload: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": _blas_runtime_threads(),
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(src),
        "machine": platform.machine(),
    }


def setup_probe(src: str) -> float:
    """Wall time of one fresh interpreter importing landmarklab.cli from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import landmarklab.cli failed: {proc.stderr.decode()[-500:]}")
    return elapsed


def _digest(out: str, since_ns: int = 0) -> tuple:
    """sha256 of every file (relative path -> hex), bytes, and files not written since ``since_ns``."""
    digests, size, stale = {}, 0, []
    for dirpath, dirnames, filenames in os.walk(out):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out)
            if os.stat(path).st_mtime_ns <= since_ns:
                stale.append(rel)
            with open(path, "rb") as f:
                data = f.read()
            digests[rel] = hashlib.sha256(data).hexdigest()
            size += len(data)
    return digests, size, stale


class Runner:
    """Runs one workload back to back and checks every run."""

    def __init__(self, cli, workload, seed: int, work: str):
        self.cli, self.workload = cli, workload
        self.inputs = os.path.join(work, "inputs")
        self.out = os.path.join(work, "out")
        self.reference = None
        self.attempted = self.failed = 0
        self.failures: list = []
        self.quality: dict = {}
        self.files = self.bytes = 0
        # Runs overwrite one output tree in place: deleting thousands of files
        # between runs stalls the next run's writes on the file system.  The
        # tree starts empty, and a file the last run did not rewrite fails.
        self.last_end_ns = 0
        for path in (self.inputs, self.out):
            shutil.rmtree(path, ignore_errors=True)
        os.makedirs(self.inputs)
        workload.prepare(self.inputs, seed)
        self.commands = workload.commands(self.inputs, self.out, seed)
        digests, _, _ = _digest(self.inputs)
        self.inputs_digest = hashlib.sha256(
            json.dumps([digests, self.commands], sort_keys=True).encode()).hexdigest()

    def run(self, tracer=None) -> float | None:
        """One run of every command; its wall time, or None if it failed."""
        os.makedirs(self.out, exist_ok=True)
        gc.collect()  # no garbage from earlier runs in this run's time or peak RSS
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        codes = []
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                t0 = time.perf_counter()
                for argv in self.commands:
                    if tracer is None:
                        codes.append(self.cli.main(argv))
                    else:
                        with tracer.span(f"cli.{argv[0]}"):
                            codes.append(self.cli.main(argv))
                elapsed = time.perf_counter() - t0
            since_ns, self.last_end_ns = self.last_end_ns, time.time_ns()
            if any(code != 0 for code in codes):
                raise CheckFailed(f"exit codes {codes}: {stderr.getvalue().strip()[-300:]}")
            quality = self.workload.check(self.out)
            digests, size, stale = _digest(self.out, since_ns)
            if stale:
                raise CheckFailed(f"outputs not rewritten by this run: {stale[:5]}")
            digests["<stdout>"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                changed = sorted(k for k in set(digests) | set(self.reference)
                                 if digests.get(k) != self.reference.get(k))
                raise CheckFailed(f"outputs differ from other runs of this seed: {changed[:5]}")
        except (CheckFailed, OSError, ValueError) as err:
            return self._failure(str(err))
        except SystemExit as err:  # argparse inside the CLI rejected the command line
            return self._failure(f"SystemExit({err.code}): {stderr.getvalue().strip()[-300:]}")
        except Exception:  # a crash inside the program is a failed run, not a dead benchmark
            return self._failure(traceback.format_exc(limit=3))
        self.quality, self.files, self.bytes = quality, len(digests) - 1, size
        return elapsed

    def _failure(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        print(f"perfbench: run {self.attempted} failed: {message}", file=sys.stderr)
        return None


def measure(runner: Runner, tracer, seconds: float, trace: int, probe=None) -> tuple:
    """Warm up, then run back to back until the deadline.

    With ``probe``, SETUP_PROBES set-up probes are spread evenly over the
    measurement, between runs, so they see the same host as the runs.
    Returns the untraced and traced run times (every run failed: ``[0.0]``),
    the set-up times, and the number of spans the first traced run recorded.
    """
    runner.run()  # warm-up: checked, not timed
    untraced, traced, setup = [], [], []
    first_spans = None
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline or (trace and i < 2):
        use_trace = bool(trace) and i % 2 == 1
        i += 1
        if use_trace:
            tracer.install()
            try:
                elapsed = runner.run(tracer)
            finally:
                tracer.uninstall()
            if first_spans is None:
                first_spans = len(tracer.spans)
        else:
            elapsed = runner.run()
        if elapsed is not None:
            (traced if use_trace else untraced).append(elapsed)
        # Probe k is due k/SETUP_PROBES of the way through; take all that are due.
        while (probe is not None and len(setup) < SETUP_PROBES
               and time.perf_counter() >= start + seconds * len(setup) / SETUP_PROBES):
            setup.append(probe())
    while probe is not None and len(setup) < SETUP_PROBES:
        setup.append(probe())
    return untraced or [0.0], traced or [0.0], setup, first_spans


def end_to_end_values(untraced: list, setup: list) -> tuple:
    tail, level = _tail(untraced)
    notes = {
        "run_s_min": f"fastest of {len(untraced)} runs",
        "run_s_median": f"median of {len(untraced)} runs",
        "run_s_tail": (f"p{level} of {len(untraced)} runs" if level < 100
                       else f"maximum; only {len(untraced)} runs"),
        "setup_s": f"p90 of {len(setup)} fresh interpreters",
    }
    values = {
        "run_s_min": min(untraced),
        "run_s_median": statistics.median(untraced),
        "run_s_tail": tail,
        # The host's slow state, unlike its fast one, shows up in nearly
        # every measurement, so a high quantile is steadier than the median.
        "setup_s": statistics.quantiles(setup, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, notes


def layer_values(runner: Runner, tracer, untraced: list, traced: list) -> tuple:
    values = tracer.summary(len(traced))
    notes = dict(tracer.notes)
    values["cli.files_written"] = runner.files
    values["cli.bytes_written"] = runner.bytes
    for key in ("epochs_to_target_a", "epochs_to_target_b", "final_nme_a", "final_nme_b"):
        if key in runner.quality:
            values[f"synth.{key}"] = runner.quality[key]
        else:
            notes[f"synth.{key}"] = "no synth command in this workload"
    values["trace.run_s"] = statistics.fmean(traced)
    values["trace.untraced_run_s"] = statistics.fmean(untraced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    if min(untraced + traced) > 0:
        values["trace.overhead_share"] = values["trace.overhead_s"] / statistics.median(untraced)
    notes["trace.run_s"] = (f"mean of {len(traced)} traced runs, alternating with "
                            f"{len(untraced)} untraced; per-layer figures are per run")
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "landmarklab", "cli.py")):
        return _fail("no ./src/landmarklab/cli.py; run from the repository root")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    workload = WORKLOADS[args.workload]

    probe = None
    if not args.trace:
        probe = functools.partial(setup_probe, src)
        try:
            probe()  # warm-up, and proof that a fresh interpreter can import the package
        except (OSError, RuntimeError) as err:
            return _fail(f"set-up probe failed: {err}")
    try:
        import landmarklab.cli as cli
    except ImportError as err:
        return _fail(f"cannot import landmarklab.cli: {err}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        return _fail(f"landmarklab.cli imported from {cli.__file__}, not from {src}")
    env = environment(root, src, args.workload, args.seed)
    work = os.path.join(WORK, "work", args.workload)
    runner = Runner(cli, workload, args.seed, work)
    # Outputs of earlier processes on the same program, inputs, interpreter,
    # numpy and BLAS must match too; a new numpy or BLAS may change the bytes.
    key = hashlib.sha256(json.dumps(
        [env["source_sha256"], runner.inputs_digest, env["python"], env["numpy"],
         env["blas"], env["machine"]]).encode()).hexdigest()
    digest_path = os.path.join(WORK, "digests", f"{args.workload}-{key[:24]}.json")
    if os.path.exists(digest_path):
        with open(digest_path) as f:
            runner.reference = json.load(f)
    tracer = Tracer()
    try:
        untraced, traced, setup, first_spans = measure(
            runner, tracer, args.seconds, args.trace, probe)
    except (OSError, RuntimeError) as err:
        return _fail(f"set-up probe failed: {err}")
    if args.trace:
        values, notes = layer_values(runner, tracer, untraced, traced)
        units, extra_units = layer_units(), {}
    else:
        values, notes = end_to_end_values(untraced, setup)
        units, extra_units = END_TO_END, END_TO_END_UNBOUNDED
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    extra = {name: {"value": float(values[name]), "unit": unit}
             for name, unit in extra_units.items()}

    quality_line = ", ".join(f"{k}={v:.6g}" for k, v in sorted(runner.quality.items()))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{runner.attempted} runs, {runner.failed} failed"
          + (f"; {quality_line}" if quality_line else ""))
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"error_rate = {runner.failed / runner.attempted:.6g} ratio "
          f"({runner.failed} of {runner.attempted} runs)")
    for name, m in {**metrics, **extra}.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    for name, note in notes.items():
        if name not in metrics and name not in extra:
            print(f"note {name}: {note}")

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as f:
        json.dump({"environment": env, "metrics": metrics, "unbounded": extra, "notes": notes,
                   "error_rate": runner.failed / runner.attempted,
                   "attempted": runner.attempted, "failed": runner.failed,
                   "failures": runner.failures, "quality": runner.quality,
                   "untraced_run_s": untraced, "traced_run_s": traced,
                   "setup_s": setup}, f, indent=1)
    if args.trace:
        # The first traced run's spans; all traced runs are aggregated above.
        spans = tracer.spans[:first_spans]
        origin = spans[0][1] if spans else 0.0
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        with open(os.path.join(WORK, "spans", f"{tag}.tsv"), "w") as f:
            f.write("id\tparent\tname\tstart_s\tend_s\n")
            for idx, (name, start, end, parent) in enumerate(spans):
                f.write(f"{idx}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")
    if runner.failed == 0 and runner.reference is not None and not os.path.exists(digest_path):
        os.makedirs(os.path.dirname(digest_path), exist_ok=True)
        with open(digest_path, "w") as f:
            json.dump(runner.reference, f, indent=0, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
