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

``mesh_index`` is the one lookup of a mesh time's step index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SimGrid", "mesh_index", "step_generator", "trapezoid_weights"]

# substream tags for step_generator
BROWNIAN = 0
JUMPS = 1


def step_generator(seed: int, step: int, substream: int = 0) -> np.random.Generator:
    """Generator for one mesh step, independent across (seed, step, substream)."""
    if step < 0 or substream < 0:
        raise ValueError("step and substream must be non-negative")
    bitgen = np.random.Philox(key=np.uint64(seed), counter=[0, 0, np.uint64(substream), np.uint64(step)])
    return np.random.Generator(bitgen)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a bool not counted."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_step(dt: float) -> None:
    """Refuse a mesh step that is not positive and finite, by name."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt={dt} must be positive and finite")


def mesh_index(t: float, dt: float, name: str = "t") -> int:
    """Index k >= 0 of the mesh time ``t = k dt``, to within 1e-6 dt.

    ``dt`` must be positive.  A non-finite, off-mesh or negative ``t`` is a
    ``ValueError`` naming it.
    """
    steps = t / dt
    if not math.isfinite(steps):
        raise ValueError(f"{name}={t} is not a finite mesh time")
    k = int(round(steps))
    if abs(k * dt - t) > 1e-6 * dt:
        raise ValueError(f"{name}={t} is not on the mesh (dt={dt})")
    if k < 0:
        raise ValueError(f"{name}={t} is before time 0")
    return k


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
            if not _is_integer(value):
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


def trapezoid_weights(n_points: int, dt: float) -> np.ndarray:
    """Trapezoid quadrature weights for ``n_points`` mesh values spaced ``dt``."""
    if n_points < 1:
        raise ValueError("need at least one point")
    if n_points == 1:
        return np.zeros(1)
    w = np.full(n_points, dt)
    w[0] = w[-1] = 0.5 * dt
    return w
