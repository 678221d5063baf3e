"""Mesh paths and their memory-window segments.

A :class:`GridPath` is a scalar path sampled on a uniform mesh starting at
``t0`` (state paths start at ``-delta``, adjoint paths at ``0``).  A
:class:`Segment` is a window of ``delta_steps + 1`` values indexed by the lag
variable ``s = 0, dt, ..., delta``:

* backward segment at t: entry k is ``path(t - k dt)`` (the memory read);
* forward segment at t:  entry k is ``path(t + k dt)`` (used by the advanced
  adjoint machinery).

Reversing a forward segment taken at ``t - delta`` gives the backward segment
at ``t``; tests rely on that mirror identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from memsfde.grid import _is_integer, mesh_index, trapezoid_weights

__all__ = [
    "GridPath",
    "Segment",
    "backward_segment",
    "forward_segment",
    "sup_norm",
    "l2_norm_sq",
]


@dataclass(frozen=True)
class Segment:
    """Values on the segment mesh [0, delta], spacing dt."""

    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("segment values must be a non-empty 1-d array")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "values", values)

    @property
    def delta(self) -> float:
        return (self.values.size - 1) * self.dt

    def reversed(self) -> "Segment":
        return Segment(self.values[::-1].copy(), self.dt)


@dataclass(frozen=True)
class GridPath:
    """Scalar path on the uniform mesh ``t0, t0 + dt, ...``.

    ``delta_steps`` fixes the segment length produced by the segment readers.
    """

    values: np.ndarray
    dt: float
    t0: float
    delta_steps: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("path values must be a non-empty 1-d array")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt={self.dt} must be positive and finite")
        if not _is_integer(self.delta_steps) or self.delta_steps < 0:
            raise ValueError(f"delta_steps={self.delta_steps!r} must be an integer >= 0")
        object.__setattr__(self, "values", values)

    @property
    def t_end(self) -> float:
        return self.t0 + (self.values.size - 1) * self.dt

    def index_of(self, t: float) -> int:
        return mesh_index(t, self.dt, self.t0, self.values.size)

    def value_at(self, t: float) -> float:
        return float(self.values[self.index_of(t)])


def backward_segment(path: GridPath, t: float) -> Segment:
    """Segment of values looking back from t: entry k is path(t - k dt)."""
    idx = path.index_of(t)
    d = path.delta_steps
    if idx - d < 0:
        raise ValueError(f"backward segment at t={t} reaches before the path start")
    window = path.values[idx - d : idx + 1][::-1].copy()
    return Segment(window, path.dt)


def forward_segment(path: GridPath, t: float) -> Segment:
    """Segment of values looking forward from t: entry k is path(t + k dt)."""
    idx = path.index_of(t)
    d = path.delta_steps
    if idx + d >= path.values.size:
        raise ValueError(f"forward segment at t={t} reaches past the path end")
    return Segment(path.values[idx : idx + d + 1].copy(), path.dt)


def sup_norm(seg: Segment) -> float:
    return float(np.max(np.abs(seg.values)))


def l2_norm_sq(seg: Segment) -> float:
    """Trapezoid approximation of ``integral_0^delta seg(s)**2 ds``."""
    if seg.values.size == 1:
        return 0.0
    w = trapezoid_weights(seg.values.size, seg.dt)
    return float(w @ seg.values**2)
