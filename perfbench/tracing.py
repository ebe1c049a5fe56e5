"""Outside-in span tracer for the landmarklab modules.

The tracer replaces a module-level function with a wrapper wherever a
landmarklab module binds it (``landmarklab.synth.structured_loss`` and
``landmarklab.losses.structured_loss`` are the same object under two
names, and both are replaced), so calls are caught as their callers make
them.  Each call records a span ``(name, start, end, parent)`` in memory;
self time is a span's duration minus the time its direct children cover.

A target that no longer exists, or that is never called, reports zero
calls with a note instead of failing, so the trace keeps working when a
later refactor removes or renames the function.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field


def _heatmap_cells(args, kwargs):
    heatmap = args[0] if args else next(iter(kwargs.values()))
    return heatmap.values.size


def _segment_pixels(args, kwargs):
    segments, width, height = (list(args) + [None] * 3)[:3]
    segments = kwargs.get("segments", segments)
    width = kwargs.get("width", width)
    height = kwargs.get("height", height)
    return len(segments) * int(width) * int(height)


def _train_gemm_gflop(args, kwargs):
    """Multiply-add GFLOP of the scorer GEMMs one ``train`` call makes.

    Per epoch and landmark: the forward and backward GEMM over the train
    split (2 * 2 * n * HW * (HW + 1)) plus the held-out forward GEMM in
    the per-epoch evaluation (2 * n_eval * HW * (HW + 1)).
    """
    names = ("dataset", "scorer", "cfg", "eval_dataset")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    dataset, scorer, cfg = bound["dataset"], bound["scorer"], bound["cfg"]
    eval_dataset = bound.get("eval_dataset")
    n_train = len(dataset)
    if eval_dataset is None:
        n_eval = max(1, int(round(n_train * 0.2)))
        n_train -= n_eval
    else:
        n_eval = len(eval_dataset)
    landmarks, hw, hw1 = scorer.weights.shape
    return cfg.epochs * landmarks * hw * hw1 * (4 * n_train + 2 * n_eval) * 1e-9


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr``, plus an optional work counter.

    ``work`` maps the call's arguments to an amount of work, added to the
    layer metric ``work_name``.
    """

    module: str
    attr: str
    work_name: str | None = None
    work: object = None

    @property
    def name(self) -> str:
        return f"{self.module.rsplit('.', 1)[-1]}.{self.attr}"


# Every public function the benchmark attributes time to.  The loss work
# counter sums H*W over per-heatmap loss calls; smoothed_structured_loss
# is left out of it because its draws call structured_loss, which counts.
TARGETS = (
    Target("landmarklab.seeding", "derive_seed"),
    Target("landmarklab.heatmap", "argmax"),
    Target("landmarklab.heatmap", "save_heatmap_pgm"),
    Target("landmarklab.losses", "structured_loss", "losses.cells", _heatmap_cells),
    Target("landmarklab.losses", "soft_argmax_l2_loss", "losses.cells", _heatmap_cells),
    Target("landmarklab.losses", "heatmap_mse_loss", "losses.cells", _heatmap_cells),
    Target("landmarklab.losses", "smoothed_structured_loss"),
    Target("landmarklab.smoothing", "segment_distance_field",
           "smoothing.segment_distance_field.pixel_segments", _segment_pixels),
    Target("landmarklab.smoothing", "sample_label"),
    Target("landmarklab.smoothing", "refine_edge_heatmap"),
    Target("landmarklab.smoothing", "fit_gaussian_label"),
    Target("landmarklab.smoothing", "read_annotations"),
    Target("landmarklab.smoothing", "build_edge_heatmap"),
    Target("landmarklab.metrics", "nme"),
    Target("landmarklab.metrics", "evaluate"),
    Target("landmarklab.toy", "run_toy"),
    Target("landmarklab.synth", "train", "synth.train.gemm_gflop", _train_gemm_gflop),
    Target("landmarklab.synth", "generate_dataset"),
    Target("landmarklab.synth", "evaluate_nme"),
    Target("landmarklab.synth", "fit_sample_labels"),
)

# Heatmap constructions are counted without spans: they are cheap and many.
CONSTRUCTIONS = "heatmap.Heatmap.constructions"


@dataclass
class Tracer:
    """Installs wrappers, records spans, and aggregates them per layer."""

    spans: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _work: dict = field(default_factory=dict)
    _constructions: int = 0

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "landmarklab" or n.startswith("landmarklab.")]
        for target in TARGETS:
            try:
                original = getattr(importlib.import_module(target.module), target.attr)
            except (ImportError, AttributeError):
                self.notes[target.name] = "not found; reported as zero"
                continue
            wrapper = self._wrap(original, target)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)
        try:
            cls = importlib.import_module("landmarklab.heatmap").Heatmap
        except (ImportError, AttributeError):
            self.notes[CONSTRUCTIONS] = "class not found; reported as zero"
        else:
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._count(cls.__init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's root spans)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, end, parent)

    def _wrap(self, fn, target: Target):
        name, work_name, work = target.name, target.work_name, target.work
        tracer = self

        def traced(*args, **kwargs):
            if work is not None:
                try:
                    tracer._work[work_name] = (
                        tracer._work.get(work_name, 0) + work(args, kwargs)
                    )
                except (AttributeError, IndexError, KeyError, StopIteration,
                        TypeError, ValueError):
                    tracer.notes[work_name] = f"cannot compute from {name} arguments"
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _count(self, init):
        tracer = self

        def counted(obj, *args, **kwargs):
            tracer._constructions += 1
            return init(obj, *args, **kwargs)

        return counted

    def summary(self, runs: int) -> dict:
        """Per-run layer metrics: calls, self_s, work counts, root self time.

        Every figure is the total over the traced runs divided by ``runs``.
        The self times of nested spans sum to the duration of their roots,
        so all self times, roots included, add up to the mean traced run time.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = {}
        self_s: dict = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[idx])
        out = {}
        for target in TARGETS:
            out[f"{target.name}.calls"] = calls.get(target.name, 0) / runs
            out[f"{target.name}.self_s"] = self_s.get(target.name, 0.0) / runs
            if target.name not in calls and target.name not in self.notes:
                self.notes[target.name] = "never called; reported as zero"
            if target.work_name:
                out[target.work_name] = self._work.get(target.work_name, 0) / runs
        out[CONSTRUCTIONS] = self._constructions / runs
        for name, s in self_s.items():
            if name.startswith("cli."):
                out[f"{name}.self_s"] = s / runs
        return out

