"""Directly parameterized 1-D heatmap trained by plain gradient descent.

A single row of scores theta doubles as the heatmap, so the loss gradient
with respect to the heatmap IS the parameter gradient.  Starting from a
bimodal initialization with both modes off-target, this isolates how each
objective moves mass: the structured loss pushes the target cell up and
every other cell down at every step, while soft-argmax regression balances
the expectation and can converge with the argmax still on a wrong mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from landmarklab.heatmap import argmax, soft_argmax
from landmarklab.losses import (
    StructuredLossConfig,
    soft_argmax_l2_batch,
    structured_batch,
)

OBJECTIVES = ("structured", "softargmax")


def default_init(length: int = 11) -> np.ndarray:
    """Bimodal start: a tall wrong mode at index 9 and a second at index 1."""
    if length < 10:
        raise ValueError(f"the default bimodal start needs length >= 10, got {length}")
    init = np.zeros(length)
    init[9] = 2.0
    init[1] = 1.5
    return init


class ToyDiverged(RuntimeError):
    """Raised when gradient descent drives theta non-finite or overflows the loss."""


@dataclass(frozen=True)
class ToyConfig:
    """The ``[toy]`` config section: the fields are its keys, in order,
    except that ``structured`` holds the loss keys and ``init_values``,
    empty for the default bimodal start, is no key."""

    length: int = 11
    target: int = 5
    init_values: tuple = ()
    learning_rate: float = 0.1
    steps: int = 50
    objective: str = "structured"
    record_at: tuple = (10, 20, 50)
    # Margins on raw cell indices: the grid is a bare parameter vector, so
    # the distances are hand-checkable integers.
    structured: StructuredLossConfig = StructuredLossConfig(margin="l2", margin_normalize=False)

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("toy heatmap needs at least two cells")
        if not 0 <= self.target < self.length:
            raise ValueError(f"target {self.target} outside length {self.length}")
        init = np.asarray(
            self.init_values if len(self.init_values) else default_init(self.length),
            dtype=np.float64,
        )
        if init.shape != (self.length,):
            raise ValueError(f"init_values must have length {self.length}")
        order = np.argsort(init)[::-1]
        top, second = int(order[0]), int(order[1])
        if self.target in (top, second):
            raise ValueError("bimodal start must put both modes off the target cell")
        rest_max = init[[k for k in range(self.length) if k not in (top, second)]].max()
        if not (init[top] > init[second] > rest_max):
            raise ValueError("init must be strictly bimodal (top > second > rest)")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")
        for step in self.record_at:
            if not 0 <= step <= self.steps:
                raise ValueError(f"record_at step {step} outside [0, {self.steps}]")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        object.__setattr__(self, "init_values", tuple(float(x) for x in init))


@dataclass
class ToySnapshot:
    step: int
    theta: np.ndarray
    loss: float
    argmax_index: int
    soft_argmax_value: float
    grad: np.ndarray


def _evaluate(theta: np.ndarray, cfg: ToyConfig):
    grid = (cfg.length, 1)
    if cfg.objective == "structured":
        value, grad = structured_batch(theta, (cfg.target, 0), grid, cfg.structured)
    else:
        value, grad = soft_argmax_l2_batch(theta, (float(cfg.target), 0.0), grid)
    return float(value), grad, int(argmax(theta, grid)[0]), float(soft_argmax(theta, grid)[0])


def run_toy(cfg: ToyConfig) -> list[ToySnapshot]:
    """Gradient-descend theta under the chosen objective; returns the snapshots.

    Snapshots are taken at step 0, every step listed in record_at, and the
    final step; loss and gradient in a snapshot describe the recorded
    iterate, before its update is applied.  Raises ToyDiverged once an
    update leaves theta non-finite or evaluating it overflows.
    """
    theta = np.array(cfg.init_values, dtype=np.float64)
    record = {0, cfg.steps, *cfg.record_at}
    snapshots = []
    for step in range(cfg.steps + 1):
        if not np.isfinite(theta).all():
            raise ToyDiverged(f"toy {cfg.objective} diverged: non-finite theta at step {step}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                loss, grad, arg, soft = _evaluate(theta, cfg)
        except FloatingPointError as err:
            raise ToyDiverged(f"toy {cfg.objective} diverged: {err} at step {step}") from err
        if step in record:
            snapshots.append(
                ToySnapshot(
                    step=step,
                    theta=theta.copy(),
                    loss=loss,
                    argmax_index=arg,
                    soft_argmax_value=soft,
                    grad=grad.copy(),
                )
            )
        if step < cfg.steps:
            # An update that overflows leaves theta non-finite, which the
            # next step reports.
            with np.errstate(over="ignore"):
                theta = theta - cfg.learning_rate * grad
    return snapshots
