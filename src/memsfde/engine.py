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
is the law segment of ``x_seg``, which builds its d + 1 laws only when read.
They are valid only during the coefficient call: the fixed-point solver
overwrites the rows they view on its next sweep, so a coefficient that needs
them later must copy them.

One Euler step with law inputs frozen at the step's left endpoint:

    X[k+1] = X[k] + drift dt + diffusion dW
             + sum over realized jump marks of jump(mark)
             - (integral of jump against the jump measure) dt

The law the particles interact through is the ensemble's own empirical law, so
all mean-field quantities carry the usual O(1/sqrt(N)) particle-approximation
error on top of the Euler bias.

Every per-step reader takes these inputs from ``ParticleEnsemble.step_inputs``,
through one loop, ``_replay``, which also evaluates each step's control and
pushes it to a band of the newest applied values, the source of the control
window ``u_seg``.  Every forward pass is one loop, ``_euler_window``, which
advances an ensemble's state over ``_replay`` and hands each step's inputs
to a per-step hook: for ``simulate``, for the cost pass of
``ControlProblem.costs``, for the fixed-point solver in
:mod:`memsfde.picard` (which reads the frozen previous iterate and
accumulates increments on the new paths) and for its consistency check.

One store, ``_Band``, holds every time row of a forward pass: mesh columns,
the newest first.  A simulated or solved ensemble's state is a band of all
d + K + 1 columns that never moves, with ``paths`` its view.  The
coefficients read the state only on the memory window, so a pass that
keeps nothing but a cost or a gap writes a short band instead:
``_euler_window`` makes room for the next column once a step is done with
its inputs, which moves a short band's d + 1 newest columns back to its
last rows when it runs out of rows and does nothing on a whole-mesh band.
No view is live during a move, so a band that a pass both reads and
writes needs only d + 2 rows.  The cost pass runs on 2(d + 2) columns,
which moves once every d + 3 steps; the consistency check's direct scheme
on d + 2 + s, with s = (d + 4) // 4, which moves once every s + 1 steps;
and the solver's frozen iterate is a band of its memory span and window.

No ensemble records its control: the value applied at step k is the control
evaluated on the stored inputs of step k, so a reader replays it
(``ParticleEnsemble.control_at`` or ``coefficient_inputs``) with the same
bits.  Nor is a simulated control replayed to be costed: ``simulate`` also
reads the horizon step and sums each particle's cost as it integrates, into
``ParticleEnsemble.cost``, and ``ControlProblem.costs`` sums the same bits
on a short band.  A fixed-point ensemble has no ``cost``; it
replays its control on its final paths, which gives the last sweep's applied
value once the solve has converged exactly.

The noise of a problem depends only on its grid, its jump model and which
noise kinds its coefficients use, never on the control.  ``draw_noise`` draws
it once over all steps and marks it read-only; ``ControlProblem`` caches that
draw and passes it to every pass it runs, so all ensembles of one problem
share one read-only ``(brownian, jump_counts)`` pair instead of each drawing
and holding its own.  The fixed-point solver builds its ensemble on the same
draw, so it too draws each step's noise once however many sweeps it makes.

Every per-step array is stored time-major and handed out particle-major:
``paths``, ``brownian`` and ``jump_counts`` are transposed views with public
shapes (N, ·), and the state, control and noise of one step, like every law
of a law segment, are one contiguous row.  A band keeps the newest time
first, so a step's backward windows ``x_seg`` and ``u_seg`` are d + 1 rows
in ascending memory order that a product such as ``x_seg @ w`` hands to
BLAS without a copy.  The noise, read one step at a time, is stored in
time order.

The control reads +0.0 before time zero.  So the zero control applies
nothing but +0.0: its window is a read-only zero view and no control band
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
    """Control changes grew for several consecutive fixed-point sweeps, or a
    sweep left a non-finite control."""


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


# the control of uncontrolled dynamics; its window is a read-only zero view
# (see _control_band)
_ZERO_CONTROL = _Control(lambda k, t, x, x_seg, law: np.zeros_like(x))


def as_control(obj) -> _Control:
    """Normalize scalars, mesh arrays, and feedback callables to a control.

    Arrays hold open-loop values on the [0, T] mesh, shape (K+1,) shared or
    (N, K+1) per particle (``simulate`` and ``picard_solve`` reject any
    other shape, bare or inside :func:`combine_controls`); a float64 array
    is referenced, not copied, and an ensemble replays its values from it,
    so it must not change while the ensemble is read.  A scalar or an array
    must be finite.  Callables receive ``(t, x, x_seg, law)`` and return
    per-particle values.  ``None`` is the zero control, one shared instance.
    """
    if obj is None:
        return _ZERO_CONTROL
    if isinstance(obj, _Control):
        return obj
    if np.isscalar(obj):
        c = float(obj)
        if not math.isfinite(c):
            raise ValueError(f"a control value must be finite, got {c}")
        return _Control(lambda k, t, x, x_seg, law: np.full_like(x, c))
    if isinstance(obj, np.ndarray):
        values = np.asarray(obj, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"a control array must be finite; shape {values.shape} holds a non-finite value")
        if values.ndim == 1:
            return _Control(lambda k, t, x, x_seg, law: np.full_like(x, values[k]), (values.shape,))
        return _Control(lambda k, t, x, x_seg, law: values[:, k], (values.shape,))
    if callable(obj):
        return _Control(
            lambda k, t, x, x_seg, law: np.broadcast_to(np.asarray(obj(t, x, x_seg, law), dtype=float), x.shape)
        )
    raise TypeError(f"cannot interpret {type(obj).__name__} as a control")


def _as_time_fn(v) -> Callable[[float], float]:
    """A deterministic coefficient of time: callables pass through, constants
    become constant functions."""
    if callable(v):
        return v
    c = float(v)
    return lambda t: c


def _check_finite(owner, *names) -> None:
    """Refuse a non-callable field of ``owner`` holding a non-finite value,
    naming the field."""
    for name in names:
        value = getattr(owner, name)
        if not callable(value) and not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_finite_on_mesh(owner, grid: SimGrid, *names) -> None:
    """Refuse a callable coefficient of time, a field of ``owner``, that is
    not finite at some time of ``grid.times()``, naming the field and the
    time, so it fails before any noise is drawn."""
    for name in names:
        fn = getattr(owner, name)
        if callable(fn):
            for t in grid.times():
                value = float(fn(t))
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite on the mesh, got {value} at t={t:g}")


def combine_controls(base, direction, scale: float) -> _Control:
    """Control ``base + scale * direction`` (both may be feedback rules);
    ``scale`` must be finite."""
    base, direction, scale = as_control(base), as_control(direction), float(scale)
    if not math.isfinite(scale):
        raise ValueError(f"scale must be finite, got {scale}")

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


class _Band:
    """A band of the mesh columns of one (N,) quantity, stored newest first.

    Mesh column i (time ``(i - d) dt``) sits in row ``top - i`` of an
    (n_rows, N) array.  So ``column(i)`` is one contiguous row, and
    ``window(i)``, columns i - d..i in lag order, is an F-contiguous
    (N, d + 1) view of d + 1 rows in ascending memory order, which BLAS
    takes as is.  A band of d + K + 1 rows holds the whole mesh of
    [-delta, T] and never moves.  A shorter band holds the newest columns:
    when the next column would not fit, ``make_room`` moves the d + 1
    newest to the last rows, so every window that ends at a later column
    stays readable.  Only the columns a band holds may be read or written.
    A band needs a row beside those d + 1 columns, so one of fewer than
    d + 2 rows is refused.
    """

    def __init__(self, grid: SimGrid, n_rows: int):
        self.d = grid.delta_steps
        if n_rows < self.d + 2:
            raise ValueError(f"a band needs at least d + 2 = {self.d + 2} rows with d = {self.d}, got {n_rows}")
        self.rows = np.zeros((n_rows, grid.n_particles))
        self.top = n_rows - 1

    def column(self, i: int) -> np.ndarray:
        return self.rows[self.top - i]

    def window(self, i: int) -> np.ndarray:
        """Columns i - d..i as an (N, d + 1) view; its column j is lag j."""
        r = self.top - i
        return self.rows[r : r + self.d + 1].T

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``lo..hi-1`` as time-ordered rows, a view."""
        return self.rows[self.top - hi + 1 : self.top - lo + 1][::-1]

    def make_room(self, i: int) -> None:
        """Free a row for column i + 1 and keep columns i - d..i: when
        column i sits in row 0, those d + 1 columns move to the last rows,
        oldest first, in blocks that do not overlap their targets, so no
        temporary copy is made."""
        if self.top == i:
            keep, shift = self.d + 1, len(self.rows) - self.d - 1
            for hi in range(keep, 0, -shift):
                lo = max(hi - shift, 0)
                self.rows[lo + shift : hi + shift] = self.rows[lo:hi]
            self.top = i + shift

    def push(self, i: int, value) -> np.ndarray:
        """Write ``value`` as column i, after making room for it, and return
        the window that ends there; it stays valid until the next push."""
        self.make_room(i - 1)
        self.rows[self.top - i] = value
        return self.window(i)


@dataclass
class ParticleEnsemble:
    """Simulated particle system plus the noise that drove it.

    ``state`` is a band of mesh columns (:class:`_Band`); a simulated or
    solved ensemble's holds all d + K + 1 columns of ``[-delta, T]``, and
    ``paths`` is its (N, d + K + 1) view (column ``delta_steps + k`` is
    time ``k dt``).  An ensemble on a shorter band, like the fixed-point
    solver's frozen iterate or a cost pass of ``ControlProblem.costs``,
    has no ``paths``.  Brownian increments
    ``brownian`` (N, K) and per-mark jump counts ``jump_counts`` (N, K,
    marks; ``uint8``, or int64 when a count exceeds 255, see
    :func:`draw_noise`) are kept so the adjoint solver can build regression
    features from the same noise that moved the particles.  They are the
    noise of the ensemble's problem, drawn once and shared read-only by
    every ensemble simulated or solved on it.  ``paths`` and the noise are
    (N, ·) views of time-major storage, so column k of each is one
    contiguous row.

    The ensemble keeps its ``control`` instead of a record of the applied
    control, which is fixed by the stored paths; the control reads +0.0
    before time zero.  ``control_at(k)`` replays the value applied at step
    k, and ``coefficient_inputs()`` every step's inputs with
    the control and its window; after :func:`simulate` both give the applied
    bits, on a :func:`memsfde.picard.picard_solve` ensemble the control on
    the final paths.  An array control is referenced, so replays read it as
    it is at the time.  ``cost`` is the (N,) per-particle cost that
    :func:`simulate` summed as it integrated (``None`` on a fixed-point
    ensemble), the bits :func:`pathwise_cost` replays for its coefficients.

    ``controls_full`` is always ``None``: there is no full-mesh control
    array, and the attribute is kept so that code which sums the bytes of
    ``(paths, controls_full, brownian, jump_counts)`` and skips ``None``
    (``perfbench/tracer.py``) counts the bytes the ensemble holds.
    """

    grid: SimGrid
    state: _Band
    brownian: np.ndarray
    jump_counts: np.ndarray | None
    jumps: JumpModel
    control: _Control
    cost: np.ndarray | None = None

    controls_full = None

    @property
    def paths(self) -> np.ndarray:
        """State on the mesh of [-delta, T], shape (N, d + K + 1), a view of
        ``state``; a ``ValueError`` when ``state`` holds fewer columns."""
        n_rows, n_mesh = len(self.state.rows), self.grid.delta_steps + self.grid.n_steps + 1
        if n_rows != n_mesh:
            raise ValueError(f"the state is a band of {n_rows} of the {n_mesh} mesh columns, so it has no paths")
        return self.state.rows[::-1].T

    @property
    def states(self) -> np.ndarray:
        """State on the [0, T] mesh, shape (N, n_steps + 1)."""
        return self.paths[:, self.grid.delta_steps :]

    def state_column(self, k: int) -> np.ndarray:
        return self.state.column(self.grid.delta_steps + k)

    def backward_window(self, k: int) -> np.ndarray:
        """State window (N, delta_steps + 1); column j is the state at lag j dt."""
        return self.state.window(self.grid.delta_steps + k)

    def step_inputs(self, k: int) -> tuple:
        """Coefficient inputs at step k read from ``state``: the state, its
        backward window, its empirical law and the law segment of that
        window, whose d + 1 laws are built only when read."""
        x, x_seg = self.state_column(k), self.backward_window(k)
        return x, x_seg, EmpiricalMeasure(x), MeasureSegment(x_seg, self.grid.dt)

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
        order: the step's inputs, the replayed control as its band row, and
        the control window; ``u`` and ``u_seg`` are valid until the next
        step is yielded."""
        for _, x, x_seg, law, law_seg, _, u_seg in _replay(self, _control_band(self), 0, self.grid.n_steps + 1):
            yield x, x_seg, law, law_seg, u_seg[:, 0], u_seg


def _materialize_history(xi, grid: SimGrid) -> np.ndarray:
    """Initial data on the mesh of [-delta, 0], time-ordered, shape (d + 1,),
    checked to be finite."""
    d = grid.delta_steps
    if xi is None:
        return np.zeros(d + 1)
    if np.isscalar(xi):
        arr = np.full(d + 1, float(xi))
    elif callable(xi):
        arr = np.array([float(xi(t)) for t in grid.times_full()[: d + 1]])
    else:
        arr = np.asarray(xi, dtype=float)
        if arr.shape != (d + 1,):
            raise MeshMismatchError(
                f"initial history must have delta_steps + 1 = {d + 1} values, got shape {arr.shape}"
            )
    if not np.isfinite(arr).all():
        raise ValueError(f"initial history xi must be finite on the mesh of [-delta, 0], got {arr}")
    return arr


def _control_band(ens: ParticleEnsemble, n_rows: int | None = None) -> _Band | None:
    """The band an integration pushes the ensemble's applied control values
    to, so each push hands out the window ``u_seg`` that ends at the pushed
    column; its mesh columns 0..d-1, the control before time zero, are the
    band's initial +0.0.

    ``n_rows`` defaults to 2(d + 1), which moves d + 1 rows once every
    d + 1 pushes.  The zero control applies nothing but +0.0: it has no
    band (``None``), and every window is one read-only zero view.
    """
    if ens.control is _ZERO_CONTROL:
        return None
    return _Band(ens.grid, 2 * (ens.grid.delta_steps + 1) if n_rows is None else n_rows)


def _new_ensemble(
    coeffs: CoefficientSet, grid: SimGrid, jumps, xi, ctrl: _Control, noise=None, n_rows=None
) -> ParticleEnsemble:
    """Ensemble with the state history filled in and the rest of its state
    zero, driven by ``ctrl``, over ``noise`` (referenced, not copied; drawn
    here when ``None``).  The state is a band of ``n_rows`` mesh columns,
    by default all d + K + 1 of them; a shorter band must hold at least
    d + 2.  The history is checked before any noise is drawn.
    ``jumps=None`` means no jumps.
    """
    history = _materialize_history(xi, grid)
    if noise is None:
        noise = draw_noise(coeffs, grid, jumps)
    else:
        shapes = tuple(None if arr is None else arr.shape for arr in noise)
        expected = _noise_shapes(coeffs, grid, jumps)
        if shapes != expected:
            raise MeshMismatchError(f"noise shapes {shapes} do not match the problem's {expected}")
    jumps = jumps if jumps is not None else JumpModel.none()
    d = grid.delta_steps
    state = _Band(grid, d + grid.n_steps + 1 if n_rows is None else n_rows)
    state.columns(0, d + 1)[...] = history[:, None]
    brownian, jump_counts = noise
    return ParticleEnsemble(grid, state, brownian, jump_counts, jumps, ctrl)


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


def _replay(ens: ParticleEnsemble, controls: _Band | None, k_start: int, k_stop: int):
    """Yield ``(k, x, x_seg, law, law_seg, u, u_seg)`` for steps
    ``k_start..k_stop-1``: the step's inputs, its control ``u`` and the
    window the control band (:func:`_control_band`; ``None`` for the zero
    control) hands out once ``u`` is pushed.  A step is read from
    ``ens.state`` only when asked for, after the caller wrote the column
    before it."""
    d = ens.grid.delta_steps
    zero = np.broadcast_to(np.zeros(()), (ens.grid.n_particles, d + 1))
    for k in range(k_start, k_stop):
        x, x_seg, law, law_seg = ens.step_inputs(k)
        u = ens._control_value(k, x, x_seg, law)
        yield k, x, x_seg, law, law_seg, u, zero if controls is None else controls.push(d + k, u)


class _PathCost:
    """Per-particle cost of a pass over steps 0..K, summed onto zeros in step
    order: the running cost at ``t = k dt`` with its trapezoid weight, the
    control as the band row ``u_seg[:, 0]``; then the terminal cost."""

    def __init__(self, coeffs: CoefficientSet, grid: SimGrid):
        self.coeffs, self.dt, self.total = coeffs, grid.dt, np.zeros(grid.n_particles)
        self.weights = trapezoid_weights(grid.n_steps + 1, grid.dt)

    def add_step(self, k, x, x_seg, law, law_seg, u, u_seg) -> None:
        if self.coeffs.running_cost is not None:
            running = self.coeffs.running_cost(k * self.dt, x, x_seg, law, law_seg, u_seg[:, 0], u_seg)
            self.total += self.weights[k] * np.asarray(running)

    def finish(self, xT: np.ndarray) -> np.ndarray:
        if self.coeffs.terminal_cost is not None:
            self.total += np.asarray(self.coeffs.terminal_cost(xT, EmpiricalMeasure(xT)))
        return self.total


def _euler_window(
    coeffs: CoefficientSet,
    read_ens: ParticleEnsemble,
    write: ParticleEnsemble,
    controls: _Band | None,
    k_start: int,
    k_stop: int,
    on_step: Callable | None = None,
) -> None:
    """Advance the state of ``write`` (written through ``state_column``)
    over steps ``k_start..k_stop-1``, reading every input from ``read_ens``
    through :func:`_replay` and ``controls`` (which must hold the d values
    before ``k_start``).  Writing what is read gives the explicit scheme.

    The band of ``write`` makes room (see :meth:`_Band.make_room`) for
    column k_start + 1 before the first step, and for column k + 2 once
    step k is done with its inputs, ``on_step`` included, so a move never
    copies rows that a live view still points at: a whole-mesh band never
    moves, and a short one, read or written or both, needs only d + 2
    rows.  Room is made only for a column a later step of the pass
    writes; the horizon step K advances nothing.  Each step hands
    ``(k, x, x_seg, law, law_seg, u, u_seg)`` to ``on_step``, if given,
    after its update; the inputs are then still valid.
    """
    dt, K, d = read_ens.grid.dt, read_ens.grid.n_steps, read_ens.grid.delta_steps
    jumps, jump_counts = read_ens.jumps, read_ens.jump_counts
    last = min(k_stop, K) - 1  # the last step that writes a column

    if k_start <= last:
        write.state.make_room(d + k_start)
    for k, x, x_seg, law, law_seg, u, u_seg in _replay(read_ens, controls, k_start, k_stop):
        if k < K:
            t = k * dt
            # the step accumulates in its own row of write; every input is a
            # view of columns up to the step's, which it leaves alone
            cur, nxt = write.state_column(k), write.state_column(k + 1)
            if coeffs.drift is not None:
                np.add(cur, dt * np.asarray(coeffs.drift(t, x, x_seg, law, law_seg, u, u_seg)), out=nxt)
            else:
                nxt[...] = cur
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
        if on_step is not None:
            on_step(k, x, x_seg, law, law_seg, u, u_seg)
        if k < last:
            write.state.make_room(d + k + 1)


def _integrate(coeffs, grid, jumps, xi, ctrl: _Control, noise, n_rows=None) -> ParticleEnsemble:
    """The ensemble of ``ctrl`` integrated over steps 0..K, with its state
    on a band of ``n_rows`` columns (default: the whole mesh) and its cost
    summed in the same pass."""
    ens = _new_ensemble(coeffs, grid, jumps, xi, ctrl, noise, n_rows)
    cost = _PathCost(coeffs, grid)
    # the pass reads the horizon step too: its running cost is summed, and
    # a control that fails there fails here rather than in a later reader
    _euler_window(coeffs, ens, ens, _control_band(ens), 0, grid.n_steps + 1, cost.add_step)
    ens.cost = cost.finish(ens.state_column(grid.n_steps))
    return ens


def simulate(
    coeffs: CoefficientSet,
    grid: SimGrid,
    jumps: JumpModel | None = None,
    xi=0.0,
    control=None,
    noise: tuple | None = None,
) -> ParticleEnsemble:
    """Run the N-particle scheme over [0, T] from initial history ``xi``.

    ``xi`` may be a scalar, a callable of time, or a time-ordered array on the
    mesh of [-delta, 0].  The control reads +0.0 before time zero, so its
    memory window ``u_seg`` holds +0.0 at every lag before it.  Identical
    ``grid`` (including seed) and inputs reproduce the ensemble bit for bit.

    ``noise`` is the ``(brownian, jump_counts)`` of the same problem, from
    :func:`draw_noise` or another ensemble's two arrays; it is used as is
    and referenced by the ensemble.  Without it the noise is drawn here.

    The ensemble keeps no control array, but the per-particle cost under
    ``coeffs`` summed on the way (see :class:`ParticleEnsemble`).
    """
    return _integrate(coeffs, grid, jumps, xi, _grid_control(control, grid), noise)


def pathwise_cost(ens: ParticleEnsemble, coeffs: CoefficientSet) -> np.ndarray:
    """Per-particle cost along the stored states: the sum :func:`simulate`
    stores in ``ens.cost``, for any coefficients and any ensemble, with the
    control replayed (:meth:`ParticleEnsemble.coefficient_inputs`) only if
    there is a running cost."""
    cost = _PathCost(coeffs, ens.grid)
    if coeffs.running_cost is not None:
        for k, (x, x_seg, law, law_seg, u, u_seg) in enumerate(ens.coefficient_inputs()):
            cost.add_step(k, x, x_seg, law, law_seg, u, u_seg)
    return cost.finish(ens.state_column(ens.grid.n_steps))


def _mean_and_stderr(values) -> tuple[float, float]:
    """Sample mean and its Monte Carlo standard error (0 for one sample)."""
    values = np.asarray(values)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(values.mean()), se


@dataclass(frozen=True)
class ControlProblem:
    """Bundle of dynamics, mesh, noise and initial data; controls vary.

    The history is checked when the problem is built, and a control
    before the noise is read, so a bad one fails before any noise is drawn.
    The noise is drawn on first use and every simulation and cost pass of
    the problem shares it (common random numbers at no extra draw).
    """

    coeffs: CoefficientSet
    grid: SimGrid
    jumps: JumpModel = field(default_factory=JumpModel.none)
    xi: object = 0.0

    def __post_init__(self) -> None:
        _materialize_history(self.xi, self.grid)

    @cached_property
    def noise(self) -> tuple:
        """The problem's read-only ``(brownian, jump_counts)``."""
        return draw_noise(self.coeffs, self.grid, self.jumps)

    def simulate(self, control=None) -> ParticleEnsemble:
        # checked here, before the noise is read
        ctrl = _grid_control(control, self.grid)
        return simulate(self.coeffs, self.grid, self.jumps, self.xi, ctrl, self.noise)

    def costs(self, controls) -> list:
        """Per-particle cost of each control, in order, under common random
        numbers.  Every control is checked before the noise is read.  Each
        is then integrated on the problem's noise in one pass that sums its
        cost, with its state on a band of 2(d + 2) mesh columns rather than
        the whole mesh, and its ensemble is dropped before the next control
        is integrated.  The costs are the bits ``simulate`` sums."""
        ctrls = [_grid_control(control, self.grid) for control in controls]
        n_rows = 2 * (self.grid.delta_steps + 2)
        return [
            _integrate(self.coeffs, self.grid, self.jumps, self.xi, ctrl, self.noise, n_rows).cost for ctrl in ctrls
        ]

    def performance(self, control=None) -> tuple[float, float]:
        return _mean_and_stderr(self.costs([control])[0])
