"""Simulation mesh and reproducible noise streams.

All solvers in this package share one uniform mesh: step ``dt``, memory window
``delta = delta_steps * dt``, horizon ``T = n_steps * dt``.  State paths live on
``[-delta, T]``, adjoint paths on ``[0, T + delta]``.

Noise is drawn from counter-based Philox streams keyed by ``(master seed,
substream, step)``.  Each step's draws are a single vectorized call, and
particle ``i`` always reads slot ``i`` of that step's array, so results do not
depend on scheduling or on how the particle loop is partitioned.  Re-running
with the same seed and grid is bit-identical, and any step's increments can be
drawn in any order.  Each step's streams are drawn once per problem: the noise
is drawn over all steps, marked read-only and shared by every simulation and
fixed-point solve of that problem (``engine.draw_noise``), so all of them see
the same increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SimGrid", "step_generator", "trapezoid_weights"]

# substream tags for step_generator
BROWNIAN = 0
JUMPS = 1


def step_generator(seed: int, step: int, substream: int = 0) -> np.random.Generator:
    """Generator for one mesh step, independent across (seed, step, substream)."""
    if step < 0 or substream < 0:
        raise ValueError("step and substream must be non-negative")
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, np.uint64(substream), np.uint64(step)])
    return np.random.Generator(bitgen)


def _check_multiple(value: float, dt: float, name: str) -> int:
    steps = int(round(value / dt))
    if steps < 0 or abs(steps * dt - value) > 1e-9 * max(1.0, abs(value)):
        raise ValueError(f"{name}={value} is not a non-negative multiple of dt={dt}")
    return steps


@dataclass(frozen=True)
class SimGrid:
    """Uniform mesh plus ensemble size and master seed.

    ``delta_steps`` is the number of mesh steps in the memory window; the
    horizon must be an exact multiple of ``dt`` (validated on construction).
    """

    dt: float
    delta_steps: int
    horizon: float
    n_particles: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("delta_steps", "n_particles", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name}={value!r} must be an integer")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed={self.seed} must be an unsigned 64-bit integer")
        if not (math.isfinite(self.dt) and math.isfinite(self.horizon)):
            raise ValueError(f"dt={self.dt} and horizon={self.horizon} must be finite")
        if self.dt <= 0.0:
            raise ValueError(f"dt={self.dt} must be positive")
        if self.delta_steps < 0:
            raise ValueError(f"delta_steps={self.delta_steps} must be >= 0")
        if self.n_particles < 1:
            raise ValueError(f"n_particles={self.n_particles} must be >= 1")
        _check_multiple(self.horizon, self.dt, "horizon")
        if self.n_steps < 1:
            raise ValueError(f"horizon={self.horizon} must span at least one step of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        """Number of steps covering [0, T]."""
        return int(round(self.horizon / self.dt))

    @property
    def delta(self) -> float:
        return self.delta_steps * self.dt

    def times(self) -> np.ndarray:
        """Mesh of [0, T], length n_steps + 1."""
        return np.arange(self.n_steps + 1) * self.dt

    def times_full(self) -> np.ndarray:
        """Mesh of [-delta, T], length delta_steps + n_steps + 1."""
        return (np.arange(self.delta_steps + self.n_steps + 1) - self.delta_steps) * self.dt

    def index_of(self, t: float) -> int:
        """Mesh index of time t on [0, T] (0 at t=0). Off-mesh times are an error."""
        k = int(round(t / self.dt))
        if abs(k * self.dt - t) > 1e-6 * self.dt:
            raise ValueError(f"t={t} is not on the mesh (dt={self.dt})")
        if k < 0 or k > self.n_steps:
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        return k


def trapezoid_weights(n_points: int, dt: float) -> np.ndarray:
    """Trapezoid quadrature weights for ``n_points`` mesh values spaced ``dt``."""
    if n_points < 1:
        raise ValueError("need at least one point")
    if n_points == 1:
        return np.zeros(1)
    w = np.full(n_points, dt)
    w[0] = w[-1] = 0.5 * dt
    return w
