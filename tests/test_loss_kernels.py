"""Property tests for the array-level loss kernels and readouts over score rows [..., H*W]."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from landmarklab.heatmap import argmax, soft_argmax, softmax
from landmarklab.losses import (
    MARGINS,
    StructuredLossConfig,
    heatmap_mse_batch,
    smoothed_structured_batch,
    soft_argmax_l2_batch,
    structured_batch,
)
from landmarklab.smoothing import label_cells

import reference

PROPERTY = settings(max_examples=60, deadline=None)
LABEL_COV = np.array([[1.5, 0.4], [0.4, 0.8]])


@st.composite
def problems(draw, magnitude=5.0):
    """A batch of score rows on a random grid, with targets for every objective."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lead = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    values = st.floats(-magnitude, magnitude, allow_nan=False, allow_infinity=False)
    scores = draw(arrays(np.float64, lead + (height * width,), elements=values))
    cells = np.stack([
        draw(arrays(np.int64, lead, elements=st.integers(0, width - 1))),
        draw(arrays(np.int64, lead, elements=st.integers(0, height - 1))),
    ], axis=-1)
    unit = st.floats(0.0, 1.0)
    points = draw(arrays(np.float64, lead + (2,), elements=unit)) * [width - 1, height - 1]
    maps = draw(arrays(np.float64, scores.shape, elements=st.floats(0.0, 1.0)))
    # Rows whose label covers fewer cells than the widest are padded with
    # zero-weight slots, as in training.
    label, weights = label_cells(points, LABEL_COV, (width, height))
    cfg = StructuredLossConfig(
        epsilon=draw(st.floats(0.2, 3.0)),
        margin=draw(st.sampled_from(MARGINS)),
        margin_s=draw(st.floats(0.05, 1.0)),
        margin_alpha=draw(st.floats(0.0, 2.0)),
        margin_normalize=draw(st.booleans()),
    )
    return {"grid": (width, height), "scores": scores, "cells": cells,
            "points": points, "maps": maps, "label": label, "weights": weights, "cfg": cfg}


def kernels(p):
    """Each objective as a function of the score rows alone."""
    grid, cfg = p["grid"], p["cfg"]
    return {
        "structured": lambda s: structured_batch(s, p["cells"], grid, cfg),
        "smoothed": lambda s: smoothed_structured_batch(s, p["label"], p["weights"], grid, cfg),
        "softargmax": lambda s: soft_argmax_l2_batch(s, p["points"], grid),
        "mse": lambda s: heatmap_mse_batch(s, p["maps"]),
    }


@PROPERTY
@given(problems())
def test_gradients_match_finite_differences(p):
    step = 1e-5
    for name, fn in kernels(p).items():
        _, grad = fn(p["scores"])
        # Rows are independent, so bumping cell k in every row at once gives
        # d value[row] / d score[row, k] for all rows in one call.
        fd = np.empty_like(grad)
        for k in range(grad.shape[-1]):
            bumped = p["scores"].copy()
            bumped[..., k] += step
            hi, _ = fn(bumped)
            bumped[..., k] -= 2 * step
            lo, _ = fn(bumped)
            fd[..., k] = (hi - lo) / (2 * step)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6, err_msg=name)


@PROPERTY
@given(problems())
def test_structured_gradient_sums_to_zero(p):
    for name in ("structured", "smoothed"):
        _, grad = kernels(p)[name](p["scores"])
        np.testing.assert_allclose(grad.sum(axis=-1), 0.0, atol=1e-12, err_msg=name)


@PROPERTY
@given(problems(), st.floats(-100.0, 100.0))
def test_softmax_objectives_are_shift_invariant(p, shift):
    for name in ("structured", "smoothed", "softargmax"):
        fn = kernels(p)[name]
        value, grad = fn(p["scores"])
        shifted_value, shifted_grad = fn(p["scores"] + shift)
        np.testing.assert_allclose(shifted_value, value, rtol=1e-9, atol=1e-9, err_msg=name)
        np.testing.assert_allclose(shifted_grad, grad, rtol=1e-9, atol=1e-9, err_msg=name)


READOUTS = {"soft_argmax": soft_argmax, "argmax": argmax}


@PROPERTY
@given(problems())
def test_batch_equals_single_heatmap_calls_bit_for_bit(p):
    # The toy scores one row and ``train`` a batch: both must see the same bits.
    results = {name: fn(p["scores"]) for name, fn in kernels(p).items()}
    coords = {name: fn(p["scores"], p["grid"]) for name, fn in READOUTS.items()}
    for b, n in np.ndindex(p["scores"].shape[:-1]):
        row = {key: p[key][b, n]
               for key in ("scores", "cells", "points", "maps", "label", "weights")}
        for name, fn in kernels({**p, **row}).items():
            single_value, single_grad = fn(row["scores"])
            value, grad = results[name]
            assert single_value == value[b, n], name
            np.testing.assert_array_equal(single_grad, grad[b, n], err_msg=name)
        for name, fn in READOUTS.items():
            single = fn(row["scores"], p["grid"])
            assert single.dtype == coords[name].dtype, name
            assert single.tobytes() == coords[name][b, n].tobytes(), name


@PROPERTY
@given(problems(magnitude=1e6))
def test_large_scores_stay_finite(p):
    for name, fn in kernels(p).items():
        value, grad = fn(p["scores"])
        assert np.isfinite(value).all(), name
        assert np.isfinite(grad).all(), name


@pytest.mark.parametrize("grid", [(32, 32), (16, 16), (20, 12), (11, 1)])
@pytest.mark.parametrize("scale", [0.1, 3.0, 30.0])
@pytest.mark.parametrize("lead", [(), (4, 3)])
def test_soft_argmax_matches_reference_bit_for_bit(grid, scale, lead):
    width, height = grid
    rng = np.random.default_rng(width * height)
    scores = scale * rng.uniform(-30.0, 30.0, lead + (width * height,))
    # Rows spread over 1800 at scale 30, so part of each softmax underflows to zero.
    assert (softmax(scores) == 0.0).any() == (scale == 30.0)
    targets = rng.uniform(0.0, 1.0, lead + (2,)) * [width - 1, height - 1]
    value, grad = soft_argmax_l2_batch(scores, targets, grid)
    ref_value, ref_grad = reference.soft_argmax_l2_batch(scores, targets, grid)
    assert np.array_equal(value, ref_value)
    assert np.array_equal(grad, ref_grad)


@PROPERTY
@given(problems())
def test_structured_and_argmax_match_reference_bit_for_bit(p):
    # Rounded scores tie often, and epsilon 1 skips the division by the temperature.
    grid = p["grid"]
    for scores in (p["scores"], np.rint(p["scores"])):
        for s, cells in ((scores, p["cells"]), (scores[0, 0], p["cells"][0, 0])):
            for cfg in (p["cfg"], replace(p["cfg"], epsilon=1.0)):
                value, grad = structured_batch(s, cells, grid, cfg)
                ref_value, ref_grad = reference.structured_batch(s, cells, grid, cfg)
                assert np.shape(value) == np.shape(ref_value)
                assert np.asarray(value).tobytes() == np.asarray(ref_value).tobytes()
                assert grad.tobytes() == ref_grad.tobytes()
            found, expected = argmax(s, grid), reference.argmax(s, grid)
            assert found.dtype == expected.dtype and found.shape == expected.shape
            assert found.tobytes() == expected.tobytes()
