"""Mesh bookkeeping and the counter-based noise stream policy."""

import math
import re

import numpy as np
import pytest

from memsfde.adjoint import SegmentFunctional
from memsfde.engine import JumpModel
from memsfde.grid import BROWNIAN, JUMPS, SimGrid, step_generator, trapezoid_weights
from memsfde.measures import MeasureSegment


def test_mesh_counts():
    grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=3, seed=0)
    assert grid.n_steps == 100
    assert grid.delta == pytest.approx(0.1)
    times = grid.times()
    assert times.shape == (101,)
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    full = grid.times_full()
    assert full.shape == (111,)
    assert full[0] == pytest.approx(-0.1)
    assert full[grid.delta_steps] == 0.0


@pytest.mark.parametrize(
    "call, named",
    [
        pytest.param(lambda: SegmentFunctional.evaluation(-math.inf, 0.1), "point=-inf", id="evaluation-minus-inf"),
        pytest.param(lambda: SegmentFunctional.evaluation(math.nan, 0.1), "point=nan", id="evaluation-nan"),
        pytest.param(
            lambda: SegmentFunctional.evaluation(0.33, 0.1), "point=0.33 is not on the mesh", id="evaluation-off-mesh"
        ),
        pytest.param(lambda: SegmentFunctional.evaluation(-0.1, 0.1), "point=-0.1 is before time 0", id="evaluation-negative"),
        pytest.param(lambda: SegmentFunctional.evaluation(math.inf, 0.1), "point=inf", id="evaluation-inf"),
        pytest.param(lambda: SegmentFunctional.evaluation(0.3, 0.0), "dt=0.0", id="evaluation-zero-dt"),
        pytest.param(lambda: SegmentFunctional.averaging(1.0, -1, 0.1), "delta_steps=-1", id="averaging-negative"),
        pytest.param(
            lambda: SegmentFunctional.averaging(np.array([1.0, math.nan, 1.0]), 2, 0.1), "kernel", id="averaging-nan"
        ),
        pytest.param(lambda: SegmentFunctional.averaging(1.0, 2, -0.1), "dt=-0.1", id="averaging-negative-dt"),
        pytest.param(lambda: SegmentFunctional.averaging(1.0, 2, math.nan), "dt=nan", id="averaging-nan-dt"),
        pytest.param(lambda: MeasureSegment(np.zeros((1, 1)), math.nan), "dt=nan", id="MeasureSegment-nan-dt"),
        pytest.param(lambda: MeasureSegment(np.zeros((1, 1)), math.inf), "dt=inf", id="MeasureSegment-inf-dt"),
        pytest.param(
            lambda: MeasureSegment(np.array([1.0, 2.0]), 0.1), "window", id="MeasureSegment-one-dimensional-window"
        ),
        pytest.param(lambda: MeasureSegment(np.zeros((3, 0)), 0.1), "window", id="MeasureSegment-empty-window"),
    ],
)
def test_bad_mesh_inputs_are_refused_by_name(call, named):
    # each raised OverflowError, ZeroDivisionError, Python's NaN-to-integer
    # error or an error naming another input, or was accepted
    with pytest.raises(ValueError, match=re.escape(named)):
        call()


def test_grid_validation():
    with pytest.raises(ValueError):
        SimGrid(dt=0.0, delta_steps=1, horizon=1.0, n_particles=1, seed=0)
    with pytest.raises(ValueError):
        SimGrid(dt=0.3, delta_steps=1, horizon=1.0, n_particles=1, seed=0)  # T not a multiple
    with pytest.raises(ValueError):
        SimGrid(dt=0.1, delta_steps=-1, horizon=1.0, n_particles=1, seed=0)


GRID = dict(dt=0.1, delta_steps=2, horizon=1.0, n_particles=3, seed=0)


@pytest.mark.parametrize(
    "make, named",
    [
        pytest.param(lambda: SimGrid(**{**GRID, "horizon": math.inf}), "horizon", id="horizon=inf"),
        pytest.param(lambda: SimGrid(**{**GRID, "horizon": math.nan}), "horizon", id="horizon=nan"),
        pytest.param(lambda: SimGrid(**{**GRID, "dt": math.nan}), "dt", id="dt=nan"),
        pytest.param(lambda: SimGrid(**{**GRID, "delta_steps": 2.5}), "delta_steps", id="delta_steps=2.5"),
        pytest.param(lambda: SimGrid(**{**GRID, "n_particles": 2.5}), "n_particles", id="n_particles=2.5"),
        pytest.param(lambda: SimGrid(**{**GRID, "seed": -1}), "seed", id="seed=-1"),
        pytest.param(lambda: SimGrid(**{**GRID, "seed": 2**64}), "seed", id="seed=2**64"),
        pytest.param(lambda: SimGrid(**{**GRID, "seed": 1.5}), "seed", id="seed=1.5"),
        pytest.param(lambda: JumpModel(intensity=math.nan), "intensity", id="intensity=nan"),
        pytest.param(lambda: JumpModel(intensity=math.inf), "intensity", id="intensity=inf"),
        pytest.param(lambda: JumpModel(intensity=1.0, probs=(math.nan,)), "probabilities", id="probs=nan"),
        pytest.param(lambda: JumpModel(intensity=1.0, marks=(math.inf,)), "marks", id="marks=inf"),
        pytest.param(lambda: JumpModel(intensity=1.0, marks=(math.nan,)), "marks", id="marks=nan"),
    ],
)
def test_invalid_mesh_and_jump_inputs_are_refused_on_construction(make, named):
    # each was accepted, or refused by an error that does not name it, and
    # failed or silently misbehaved later
    with pytest.raises(ValueError, match=named):
        make()


def test_horizon_must_span_at_least_one_step():
    # 1e-12 passes the multiple-of-dt tolerance but rounds to zero steps
    with pytest.raises(ValueError, match="at least one step"):
        SimGrid(dt=1.0, delta_steps=0, horizon=1e-12, n_particles=3, seed=0)
    assert SimGrid(dt=1.0, delta_steps=0, horizon=1.0, n_particles=3, seed=0).n_steps == 1


def test_streams_are_reproducible_and_separated():
    a = step_generator(123, step=7, substream=BROWNIAN).standard_normal(16)
    b = step_generator(123, step=7, substream=BROWNIAN).standard_normal(16)
    np.testing.assert_array_equal(a, b)

    other_step = step_generator(123, step=8, substream=BROWNIAN).standard_normal(16)
    other_sub = step_generator(123, step=7, substream=JUMPS).standard_normal(16)
    other_seed = step_generator(124, step=7, substream=BROWNIAN).standard_normal(16)
    assert not np.array_equal(a, other_step)
    assert not np.array_equal(a, other_sub)
    assert not np.array_equal(a, other_seed)


def test_trapezoid_weights():
    w = trapezoid_weights(5, 0.25)
    np.testing.assert_allclose(w, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert w.sum() == pytest.approx(1.0)  # span of the window
    assert trapezoid_weights(1, 0.25).tolist() == [0.0]
