"""N-particle Euler scheme for one-dimensional controlled dynamics with
path-segment memory, interaction through the running empirical law, and
compensated compound-Poisson jumps.

Coefficients are plain callables evaluated vectorized across the ensemble:

    drift(t, x, x_seg, law, law_seg, u, u_seg)            -> (N,) or scalar
    diffusion(t, x, x_seg, law, law_seg, u, u_seg)        -> (N,) or scalar
    jump(t, x, x_seg, law, law_seg, u, u_seg, mark)       -> (N,) or scalar
    running_cost(t, x, x_seg, law, law_seg, u, u_seg)     -> (N,) or scalar
    terminal_cost(x, law)                                 -> (N,) or scalar

where ``x`` is the (N,) state, ``x_seg`` the (N, delta_steps + 1) backward
window with column k equal to the state at lag ``k * dt``, ``law`` the current
empirical law of the ensemble, ``law_seg`` its backward segment, and ``u`` /
``u_seg`` the control and its backward window.  ``None`` stands for zero.

All array inputs are views into the arrays being integrated, and ``law_seg``
builds its d + 1 laws only when read.  They are valid only during the
coefficient call: the fixed-point solver overwrites the array they view on its
next sweep, so a coefficient that needs them later must copy them.

One Euler step with law inputs frozen at the step's left endpoint:

    X[k+1] = X[k] + drift dt + diffusion dW
             + sum over realized jump marks of jump(mark)
             - (integral of jump against the jump measure) dt

The law the particles interact through is the ensemble's own empirical law, so
all mean-field quantities carry the usual O(1/sqrt(N)) particle-approximation
error on top of the Euler bias.

Every per-step reader takes these inputs from ``ParticleEnsemble.step_inputs``.
The window integrator ``_euler_window(coeffs, read_ens, write_paths, ring, k0,
k1)`` serves the direct scheme (``write_paths`` is ``read_ens.paths``) and the
fixed-point solver in :mod:`memsfde.picard` (``read_ens`` is the frozen
previous iterate, sharing the solve's control, control window and noise,
while increments accumulate on the new paths).

No ensemble records its control.  It keeps the control itself and its
history before time zero; the applied value at step k is the control
evaluated on the stored state, backward window and law of step k, so a
reader replays it (``ParticleEnsemble.control_at``, or
``ParticleEnsemble.coefficient_inputs`` for a forward pass) from the paths
the Euler step read, and gets the same bits.  Only while it integrates does
a pass hold a ``_ControlRing`` of the last d + 1 applied values, from which
it hands out the control window ``u_seg``.  A fixed-point ensemble replays
its control on its final paths: that is the applied value of the last sweep
once the solve has converged exactly, and differs from it by the residual
of the iteration otherwise.

The noise of a problem depends only on its grid, its jump model and which
noise kinds its coefficients use, never on the control.  ``draw_noise`` draws
it once over all steps and marks it read-only; ``ControlProblem`` caches that
draw and passes it to every ``simulate`` call, so all ensembles of one problem
share one read-only ``(brownian, jump_counts)`` pair instead of each drawing
and holding its own.  The fixed-point solver builds its ensemble on the same
draw, so it too draws each step's noise once however many sweeps it makes.

Every per-step array is stored time-major and handed out particle-major:
``paths``, ``brownian`` and ``jump_counts`` are transposed views with public
shapes (N, ·), and the state, control and noise of one step, like every law
of a law segment, are one contiguous row.  ``paths`` (and the fixed-point
solver's frozen iterate) keep the newest time first (``_mesh_array``), and so
does the control ring, so a step's backward windows ``x_seg`` and ``u_seg``
are bands of d + 1 rows in ascending memory order that a product such as
``x_seg @ w`` hands to BLAS without a copy; the noise, read one step at a
time, is stored in time order.  The zero control from a +0.0 history can
apply nothing but +0.0, so its window is a read-only zero view and no ring
is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from memsfde.grid import BROWNIAN, JUMPS, SimGrid, step_generator, trapezoid_weights
from memsfde.measures import EmpiricalMeasure, MeasureSegment

__all__ = [
    "MeshMismatchError",
    "SimulationBlowupError",
    "FixedPointDivergence",
    "JumpModel",
    "CoefficientSet",
    "ParticleEnsemble",
    "ControlProblem",
    "draw_noise",
    "simulate",
    "law_at",
    "law_segment",
    "performance",
    "pathwise_cost",
    "as_control",
    "combine_controls",
]


class MeshMismatchError(ValueError):
    """Operands live on incompatible meshes."""


class SimulationBlowupError(RuntimeError):
    """State became non-finite during integration."""

    def __init__(self, step: int, time: float, n_bad: int):
        self.step = step
        self.time = time
        self.n_bad = n_bad
        super().__init__(
            f"non-finite state for {n_bad} particle(s) at step {step} (t={time:g}); "
            "reduce dt or check coefficient growth"
        )


class FixedPointDivergence(RuntimeError):
    """Control changes grew for several consecutive fixed-point sweeps."""


@dataclass(frozen=True)
class JumpModel:
    """Finite-activity compound Poisson noise with a discrete mark law.

    ``intensity`` is the total jump rate per unit time; a realized jump carries
    mark ``marks[a]`` with probability ``probs[a]``.  Keeping the mark law
    discrete makes every integral against the jump measure a finite sum
    (``nu_integral``), so compensators and moment formulas are exact, and lets
    the per-step draw be a vector of Poisson counts per mark.
    """

    intensity: float = 0.0
    marks: tuple = (1.0,)
    probs: tuple = (1.0,)

    def __post_init__(self) -> None:
        if self.intensity < 0.0:
            raise ValueError("intensity must be >= 0")
        if not math.isfinite(self.intensity):
            raise ValueError(f"intensity={self.intensity} must be finite")
        marks = tuple(float(z) for z in self.marks)
        probs = tuple(float(p) for p in self.probs)
        if len(marks) != len(probs) or not marks:
            raise ValueError("marks and probs must be non-empty and match")
        if not all(math.isfinite(z) for z in marks):
            raise ValueError(f"marks={self.marks} must be finite")
        if not (all(p >= 0.0 for p in probs) and abs(sum(probs) - 1.0) <= 1e-9):
            raise ValueError("mark probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "probs", probs)

    @staticmethod
    def none() -> "JumpModel":
        return JumpModel(0.0)

    @property
    def active(self) -> bool:
        return self.intensity > 0.0

    def nu_integral(self, fn):
        """Integral of ``fn(mark)`` against the jump measure (rate included)."""
        total = 0.0
        for z, p in zip(self.marks, self.probs):
            total = total + p * fn(z)
        return self.intensity * total


@dataclass(frozen=True)
class CoefficientSet:
    """Dynamics and cost of one problem; ``None`` entries mean zero."""

    drift: Callable | None = None
    diffusion: Callable | None = None
    jump: Callable | None = None
    running_cost: Callable | None = None
    terminal_cost: Callable | None = None


# ---------------------------------------------------------------------------
# controls


@dataclass(frozen=True)
class _Control:
    """A control normalized to ``value(k, t, x, x_seg, law) -> (N,)``;
    ``shapes`` are the shapes of the mesh arrays it reads."""

    value: Callable
    shapes: tuple = ()


# the control of uncontrolled dynamics; from a +0.0 control history its
# window is a read-only zero view (see _ControlRing)
_ZERO_CONTROL = _Control(lambda k, t, x, x_seg, law: np.zeros_like(x))


def as_control(obj) -> _Control:
    """Normalize scalars, mesh arrays, and feedback callables to a control.

    Arrays hold open-loop values on the [0, T] mesh, shape (K+1,) shared or
    (N, K+1) per particle (``simulate`` and ``picard_solve`` reject any
    other shape, bare or inside :func:`combine_controls`); a float64 array
    is referenced, not copied, and an ensemble replays its values from it,
    so it must not change while the ensemble is read.  Callables receive
    ``(t, x, x_seg, law)`` and return per-particle values.  ``None`` is the
    zero control, one shared instance.
    """
    if obj is None:
        return _ZERO_CONTROL
    if isinstance(obj, _Control):
        return obj
    if np.isscalar(obj):
        c = float(obj)
        return _Control(lambda k, t, x, x_seg, law: np.full_like(x, c))
    if isinstance(obj, np.ndarray):
        values = np.asarray(obj, dtype=float)
        if values.ndim == 1:
            return _Control(lambda k, t, x, x_seg, law: np.full_like(x, values[k]), (values.shape,))
        return _Control(lambda k, t, x, x_seg, law: values[:, k], (values.shape,))
    if callable(obj):
        return _Control(
            lambda k, t, x, x_seg, law: np.broadcast_to(np.asarray(obj(t, x, x_seg, law), dtype=float), x.shape)
        )
    raise TypeError(f"cannot interpret {type(obj).__name__} as a control")


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a bool not counted."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_time_fn(v) -> Callable[[float], float]:
    """A deterministic coefficient of time: callables pass through, constants
    become constant functions."""
    if callable(v):
        return v
    c = float(v)
    return lambda t: c


def combine_controls(base, direction, scale: float) -> _Control:
    """Control ``base + scale * direction`` (both may be feedback rules)."""
    base, direction, scale = as_control(base), as_control(direction), float(scale)

    def value(k, t, x, x_seg, law):
        # summed onto zeros, so a -0.0 base value comes out as +0.0
        out = np.zeros_like(x) + base.value(k, t, x, x_seg, law)
        return out + scale * direction.value(k, t, x, x_seg, law)

    return _Control(value, base.shapes + direction.shapes)


def _grid_control(control, grid: SimGrid) -> _Control:
    """``as_control(control)``, with every array it reads checked against
    the mesh: each shape must be (K+1,) or (N, K+1)."""
    ctrl = as_control(control)
    N, K = grid.n_particles, grid.n_steps
    for shape in ctrl.shapes:
        if shape not in ((K + 1,), (N, K + 1)):
            raise MeshMismatchError(f"control array has shape {shape}; the mesh needs ({K + 1},) or ({N}, {K + 1})")
    return ctrl


# ---------------------------------------------------------------------------
# ensemble


@dataclass
class ParticleEnsemble:
    """Simulated particle system plus the noise that drove it.

    ``paths`` covers ``[-delta, T]`` (column ``delta_steps + k`` is time
    ``k dt``).  Brownian increments ``brownian`` (N, K) and per-mark jump
    counts ``jump_counts`` (N, K, marks; ``uint8``, or int64 when a count
    exceeds 255, see :func:`draw_noise`) are kept so the adjoint solver can
    build regression features from the same noise that moved the particles.
    They are the noise of the ensemble's problem, drawn once and shared
    read-only by every ensemble simulated or solved on it.  ``paths`` and the
    noise are (N, ·) views of time-major storage, so column k of each is one
    contiguous row; ``paths`` stores the newest time first, which makes
    ``backward_window`` a band of rows in ascending memory order.

    The ensemble keeps its ``control`` and its ``control_history`` (the
    values before time zero: ``None`` without a memory window, else a scalar
    or (d,) float array) instead of a record of the applied control, which
    is fixed by the stored paths.  ``control_at(k)`` replays the value
    applied at step k, and ``coefficient_inputs()`` replays every step's
    coefficient inputs with the control and its window, through a ring of
    d + 1 values like the one :func:`simulate` integrates with.  After
    :func:`simulate` both give the applied bits.  On a :func:`memsfde.picard.picard_solve` ensemble
    they evaluate the control on the final paths, which is what the last
    sweep applied once the solve has converged exactly.  An array control
    is referenced, so replays read it as it is at the time.

    ``controls_full`` is always ``None``: there is no full-mesh control
    array, and the attribute is kept so that code which sums the bytes of
    ``(paths, controls_full, brownian, jump_counts)`` and skips ``None``
    (``perfbench/tracer.py``) counts the bytes the ensemble holds.
    """

    grid: SimGrid
    paths: np.ndarray
    brownian: np.ndarray
    jump_counts: np.ndarray | None
    jumps: JumpModel
    control: _Control
    control_history: np.ndarray | None

    controls_full = None

    @property
    def n_particles(self) -> int:
        return self.paths.shape[0]

    @property
    def noise(self) -> tuple:
        """``(brownian, jump_counts)``, the form ``simulate(noise=)`` takes."""
        return self.brownian, self.jump_counts

    @property
    def states(self) -> np.ndarray:
        """State on the [0, T] mesh, shape (N, n_steps + 1)."""
        return self.paths[:, self.grid.delta_steps :]

    def state_column(self, k: int) -> np.ndarray:
        return self.paths[:, self.grid.delta_steps + k]

    def backward_window(self, k: int) -> np.ndarray:
        """State window (N, delta_steps + 1); column j is the state at lag j dt."""
        return self.paths[:, k : self.grid.delta_steps + k + 1][:, ::-1]

    def step_inputs(self, k: int) -> tuple:
        """Coefficient inputs at step k read from ``paths``: the state, its
        backward window, its empirical law and the (lazy) law segment."""
        x = self.state_column(k)
        return x, self.backward_window(k), EmpiricalMeasure(x), _LazyLawSegment(self, k)

    def _control_value(self, k: int, x, x_seg, law):
        """The control at step k on the given state inputs; the horizon step
        is evaluated at ``grid.horizon``."""
        t = self.grid.horizon if k == self.grid.n_steps else k * self.grid.dt
        return self.control.value(k, t, x, x_seg, law)

    def control_at(self, k: int):
        """The control applied at step k in [0, K], replayed on the stored
        state, backward window and law of step k (see the class notes)."""
        x, x_seg, law, _ = self.step_inputs(k)
        return self._control_value(k, x, x_seg, law)

    def coefficient_inputs(self):
        """Yield ``(x, x_seg, law, law_seg, u, u_seg)`` for steps 0..K in
        order: the step's inputs, the replayed control as its ring row, and
        the control window; ``u`` and ``u_seg`` are valid until the next
        step is yielded."""
        d = self.grid.delta_steps
        ring = _ControlRing(self, d + 1)
        for k in range(self.grid.n_steps + 1):
            x, x_seg, law, law_seg = self.step_inputs(k)
            u_seg = ring.push(d + k, self._control_value(k, x, x_seg, law))
            yield x, x_seg, law, law_seg, u_seg[:, 0], u_seg


def _materialize_history(xi, grid: SimGrid) -> np.ndarray:
    """Initial data on the mesh of [-delta, 0], time-ordered, shape (d + 1,),
    checked to be finite."""
    d = grid.delta_steps
    ts = grid.times_full()[: d + 1]
    if xi is None:
        return np.zeros(d + 1)
    if np.isscalar(xi):
        arr = np.full(d + 1, float(xi))
    elif callable(xi):
        arr = np.array([float(xi(t)) for t in ts])
    else:
        arr = np.asarray(xi, dtype=float)
        if arr.shape != (d + 1,):
            raise MeshMismatchError(
                f"initial history must have delta_steps + 1 = {d + 1} values, got shape {arr.shape}"
            )
    if not np.isfinite(arr).all():
        raise ValueError(f"initial history xi must be finite on the mesh of [-delta, 0], got {arr}")
    return arr


class _LazyLawSegment(MeasureSegment):
    """Backward law segment of an ensemble at step k (entry j is the law at
    lag ``j * dt``) whose measures are built on first access.

    Most coefficients never read ``law_seg``, so the d + 1 empirical laws of
    every step are only materialized when one does.  The measures are views
    into the ensemble's ``paths``.
    """

    def __init__(self, ens: ParticleEnsemble, k: int):
        d = ens.grid.delta_steps
        object.__setattr__(self, "dt", ens.grid.dt)
        object.__setattr__(self, "_source", (ens.paths, d + k, d))
        object.__setattr__(self, "_measures", None)

    @property
    def measures(self) -> tuple:
        if self._measures is None:
            paths, idx, d = self._source
            built = tuple(EmpiricalMeasure(paths[:, idx - j]) for j in range(d + 1))
            object.__setattr__(self, "_measures", built)
        return self._measures

    def __len__(self) -> int:
        return self._source[2] + 1


def _mesh_array(grid: SimGrid) -> np.ndarray:
    """Zeroed (N, d + K + 1) array over the mesh of [-delta, T], stored
    time-major with the newest time first: column k is one contiguous row,
    and a backward window ``[:, k : k + d + 1][:, ::-1]`` is a band of rows
    in ascending memory order, which matrix products hand to BLAS as is."""
    d, K, N = grid.delta_steps, grid.n_steps, grid.n_particles
    return np.zeros((d + K + 1, N))[::-1].T


def _control_history(grid: SimGrid, control_history) -> np.ndarray | None:
    """The control's values before time zero, a copied finite scalar or (d,)
    float array; ``None`` when there is no memory window, which reads none."""
    d = grid.delta_steps
    if d == 0:
        return None
    hist = np.array(control_history, dtype=float)
    if hist.ndim != 0 and hist.shape != (d,):
        raise MeshMismatchError(f"control history must be scalar or shape ({d},)")
    if not np.isfinite(hist).all():
        raise ValueError(f"control_history must be finite, got {control_history!r}")
    return hist


class _ControlRing:
    """The newest applied values of an ensemble's control, newest first.

    Mesh column i (time ``(i - d) dt``) is stored in row ``(-i) % period``
    of a (period + d, N) array, and rows 0..d-1 are mirrored at
    ``row + period``.  So the window that ends at column i, lags 0..d, is
    the band of rows ``p .. p + d`` from ``p = (-i) % period`` in ascending
    memory order, which :meth:`push` hands out as an F-contiguous
    (N, d + 1) view without a copy.  A period of d + 1 keeps exactly one
    window; the fixed-point solver's longer period also keeps the d values
    before a window while its sweeps rewrite the window.  The history fills
    the columns before time zero.

    The zero control from a +0.0 history (a scalar or a (d,) array, all
    +0.0; any history when d = 0) applies nothing but +0.0: its ring holds
    no rows, and every window is one read-only zero view.
    """

    def __init__(self, ens: ParticleEnsemble, period: int):
        d, N = ens.grid.delta_steps, ens.grid.n_particles
        hist = ens.control_history
        self.d, self.period = d, period
        if ens.control is _ZERO_CONTROL and (hist is None or not (np.any(hist) or np.any(np.signbit(hist)))):
            self.rows = None
            self.zero = np.broadcast_to(np.zeros(()), (N, d + 1))
            return
        self.rows = np.zeros((period + d, N))
        if hist is not None:
            for i, value in enumerate(np.broadcast_to(hist, (d,))):
                self.push(i, value)

    def push(self, i: int, u) -> np.ndarray:
        """Store ``u`` as the value at mesh column i and return the window
        that ends there; it stays valid until the next push."""
        if self.rows is None:
            return self.zero
        p = (-i) % self.period
        self.rows[p] = u
        if p < self.d:
            self.rows[p + self.period] = u
        return self.rows[p : p + self.d + 1].T


def _new_ensemble(
    coeffs: CoefficientSet, grid: SimGrid, jumps: JumpModel | None, xi, ctrl: _Control, control_history=0.0, noise=None
) -> ParticleEnsemble:
    """Ensemble with the state history filled in and the rest of ``paths``
    zero (a :func:`_mesh_array` array), driven by ``ctrl`` from
    ``control_history``, over ``noise`` (referenced, not copied; drawn here
    when ``None``).  Both histories are checked before any noise is drawn.
    ``jumps=None`` means no jumps.
    """
    history = _materialize_history(xi, grid)
    control_history = _control_history(grid, control_history)
    if noise is None:
        noise = draw_noise(coeffs, grid, jumps)
    else:
        shapes = tuple(None if arr is None else arr.shape for arr in noise)
        expected = _noise_shapes(coeffs, grid, jumps)
        if shapes != expected:
            raise MeshMismatchError(f"noise shapes {shapes} do not match the problem's {expected}")
    jumps = jumps if jumps is not None else JumpModel.none()
    d = grid.delta_steps
    paths = _mesh_array(grid)
    paths[:, : d + 1] = history

    brownian, jump_counts = noise
    return ParticleEnsemble(
        grid=grid,
        paths=paths,
        brownian=brownian,
        jump_counts=jump_counts,
        jumps=jumps,
        control=ctrl,
        control_history=control_history,
    )


def _noise_shapes(coeffs: CoefficientSet, grid: SimGrid, jumps: JumpModel | None) -> tuple:
    """Shapes of ``(brownian, jump_counts)``; ``jump_counts`` is ``None``
    unless jumps are active and the dynamics have a jump coefficient."""
    N, K = grid.n_particles, grid.n_steps
    if jumps is not None and jumps.active and coeffs.jump is not None:
        return (N, K), (N, K, len(jumps.marks))
    return (N, K), None


def draw_noise(coeffs: CoefficientSet, grid: SimGrid, jumps: JumpModel | None = None) -> tuple:
    """The noise ``(brownian, jump_counts)`` of a problem over steps
    ``[0, K)``, marked read-only and stored time-major behind (N, K) and
    (N, K, marks) views.

    It depends on the grid (including its seed), the jump model and which
    noise kinds ``coeffs`` use, not on any control, so every simulation of
    one problem can share it (``simulate(noise=)``).  Without a diffusion
    coefficient the Brownian increments stay zero.

    The jump counts are ``uint8``, an eighth of an int64 array; if any
    step draws a count above 255 the whole array is widened to int64 once,
    so every count stays exact.  Readers promote the counts to float
    before using them, so the dtype moves no bit of any result.
    """
    (N, K), j_shape = _noise_shapes(coeffs, grid, jumps)
    brownian = np.zeros((K, N))
    if coeffs.diffusion is not None:
        sq = math.sqrt(grid.dt)
        for k in range(K):
            brownian[k] = step_generator(grid.seed, k, BROWNIAN).standard_normal(N) * sq
    brownian.setflags(write=False)
    if j_shape is None:
        return brownian.T, None
    mark_rates = np.array(jumps.probs) * jumps.intensity * grid.dt
    counts = np.zeros((K, mark_rates.size, N), dtype=np.uint8)
    for k in range(K):
        drawn = step_generator(grid.seed, k, JUMPS).poisson(mark_rates, size=(N, mark_rates.size))
        if counts.dtype == np.uint8 and drawn.max() > np.iinfo(np.uint8).max:
            counts = counts.astype(np.int64)
        counts[k].T[...] = drawn
    counts.setflags(write=False)
    return brownian.T, counts.transpose(2, 0, 1)


def _euler_window(
    coeffs: CoefficientSet,
    read_ens: ParticleEnsemble,
    write_paths: np.ndarray,
    ring: _ControlRing,
    k_start: int,
    k_stop: int,
) -> None:
    """Advance ``write_paths`` over steps ``k_start..k_stop-1``.

    Coefficient inputs (state, segments, laws, control) are read from
    ``read_ens.paths``; increments accumulate on ``write_paths``.  Passing the
    ensemble's own ``paths`` gives the ordinary explicit scheme.  Each
    applied control value is pushed to ``ring``, which must already hold the
    d values before ``k_start`` and hands out the step's control window, and
    the noise is read from ``read_ens.brownian`` / ``jump_counts`` (see
    :func:`draw_noise`).
    """
    d, dt = read_ens.grid.delta_steps, read_ens.grid.dt
    jumps, jump_counts = read_ens.jumps, read_ens.jump_counts

    for k in range(k_start, k_stop):
        idx = d + k
        t = k * dt
        x, x_seg, law, law_seg = read_ens.step_inputs(k)
        u = read_ens._control_value(k, x, x_seg, law)
        u_seg = ring.push(idx, u)

        # the step accumulates in its own row of write_paths; every input
        # above is a view of columns up to idx, which it leaves alone
        nxt = write_paths[:, idx + 1]
        if coeffs.drift is not None:
            np.add(write_paths[:, idx], dt * np.asarray(coeffs.drift(t, x, x_seg, law, law_seg, u, u_seg)), out=nxt)
        else:
            nxt[...] = write_paths[:, idx]
        if coeffs.diffusion is not None:
            nxt += np.asarray(coeffs.diffusion(t, x, x_seg, law, law_seg, u, u_seg)) * read_ens.brownian[:, k]
        if jump_counts is not None:
            counts = jump_counts[:, k, :]
            for a, (z, p) in enumerate(zip(jumps.marks, jumps.probs)):
                g = np.asarray(coeffs.jump(t, x, x_seg, law, law_seg, u, u_seg, z))
                # a float64 product whatever the counts' integer dtype
                nxt += np.multiply(counts[:, a], g, dtype=float) - jumps.intensity * p * g * dt

        if not np.isfinite(nxt).all():
            raise SimulationBlowupError(step=k, time=t, n_bad=int(np.count_nonzero(~np.isfinite(nxt))))


def simulate(
    coeffs: CoefficientSet,
    grid: SimGrid,
    jumps: JumpModel | None = None,
    xi=0.0,
    control=None,
    control_history=0.0,
    noise: tuple | None = None,
) -> ParticleEnsemble:
    """Run the N-particle scheme over [0, T] from initial history ``xi``.

    ``xi`` may be a scalar, a callable of time, or a time-ordered array on the
    mesh of [-delta, 0].  ``control_history`` fills the control's memory window
    before time zero (scalar or (delta_steps,) array).  Identical ``grid``
    (including seed) and inputs reproduce the ensemble bit for bit.

    ``noise`` is the ``(brownian, jump_counts)`` of the same problem, from
    :func:`draw_noise` or another ensemble's ``noise``; it is used as is and
    referenced by the ensemble.  Without it the noise is drawn here.

    The integration holds the control window in a ring of d + 1 values; the
    ensemble keeps no control array (see :class:`ParticleEnsemble`).
    """
    ens = _new_ensemble(coeffs, grid, jumps, xi, _grid_control(control, grid), control_history, noise)
    _euler_window(coeffs, ens, ens.paths, _ControlRing(ens, grid.delta_steps + 1), 0, grid.n_steps)
    # no step starts at the horizon, but its control is evaluated, so a
    # control that fails there fails here rather than in a later reader
    ens.control_at(grid.n_steps)
    return ens


def law_at(ens: ParticleEnsemble, t: float) -> EmpiricalMeasure:
    """Empirical law of the ensemble at mesh time t in [0, T]."""
    k = ens.grid.index_of(t)
    return EmpiricalMeasure(ens.state_column(k))


def law_segment(ens: ParticleEnsemble, t: float) -> MeasureSegment:
    """Backward law segment at t: entry j is the law at lag j dt."""
    return _LazyLawSegment(ens, ens.grid.index_of(t))


def pathwise_cost(ens: ParticleEnsemble, coeffs: CoefficientSet) -> np.ndarray:
    """Per-particle cost: trapezoid of the running cost over [0, T] plus the
    terminal cost, evaluated along the stored states.  The running cost sees
    the control replayed step by step (:meth:`ParticleEnsemble.coefficient_inputs`),
    with its window in a ring of d + 1 values; without a running cost the
    control is not evaluated."""
    grid = ens.grid
    K, dt = grid.n_steps, grid.dt
    total = np.zeros(ens.n_particles)
    if coeffs.running_cost is not None:
        w = trapezoid_weights(K + 1, dt)
        for k, inputs in enumerate(ens.coefficient_inputs()):
            total += w[k] * np.asarray(coeffs.running_cost(k * dt, *inputs))
    if coeffs.terminal_cost is not None:
        xT = ens.state_column(K)
        total += np.asarray(coeffs.terminal_cost(xT, EmpiricalMeasure(xT)))
    return total


def _mean_and_stderr(values) -> tuple[float, float]:
    """Sample mean and its Monte Carlo standard error (0 for one sample)."""
    values = np.asarray(values)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se


def performance(ens: ParticleEnsemble, coeffs: CoefficientSet) -> tuple[float, float]:
    """Monte Carlo estimate of the cost functional: ``(mean, standard error)``."""
    return _mean_and_stderr(pathwise_cost(ens, coeffs))


@dataclass(frozen=True)
class ControlProblem:
    """Bundle of dynamics, mesh, noise and initial data; controls vary.

    The histories are checked when the problem is built, so a bad one
    fails before any noise is drawn.  The noise is drawn on first use and
    every simulation of the problem shares it (common random numbers at no
    extra draw).
    """

    coeffs: CoefficientSet
    grid: SimGrid
    jumps: JumpModel = field(default_factory=JumpModel.none)
    xi: object = 0.0
    control_history: object = 0.0

    def __post_init__(self) -> None:
        _materialize_history(self.xi, self.grid)
        _control_history(self.grid, self.control_history)

    @cached_property
    def noise(self) -> tuple:
        """The problem's read-only ``(brownian, jump_counts)``."""
        return draw_noise(self.coeffs, self.grid, self.jumps)

    def simulate(self, control=None) -> ParticleEnsemble:
        return simulate(
            self.coeffs,
            self.grid,
            jumps=self.jumps,
            xi=self.xi,
            control=control,
            control_history=self.control_history,
            noise=self.noise,
        )

    def costs(self, controls) -> list:
        """Per-particle cost of each control, in order, under common random
        numbers: each is simulated on the problem's noise and costed with
        its coefficients, and its ensemble is dropped before the next
        control is simulated."""
        return [pathwise_cost(self.simulate(control), self.coeffs) for control in controls]

    def performance(self, control=None) -> tuple[float, float]:
        return _mean_and_stderr(self.costs([control])[0])
