"""Hamiltonian and adjoint machinery for memory mean-field control problems.

Four pieces live here:

* ``hamiltonian`` — the scalar pairing of dynamics with adjoint variables,
  ``running_cost + p0*drift + q0*diffusion + integral(r0*jump)``, zero past the
  horizon.  No implemented problem has law-dependent coefficients, so the
  pairing against the law's time derivative is identically zero and omitted.
* ``SegmentFunctional`` / ``riesz_advanced`` / ``riesz_duality_check`` — bounded
  linear functionals on memory segments (an averaging kernel on [0, delta], or
  evaluation at a fixed lag) and the change-of-variables identity that converts
  "functional applied to the forward window of p, integrated against Y" into
  "p(t) times the functional applied to the backward window of Y".  Both sides
  use zero extension outside [0, T]; the identity is exact in continuous time
  and O(dt) on the mesh.
* ``solve_absde`` — least-squares Monte Carlo backward sweep for the adjoint
  triple (p0, q0, r0).  The equation is *advanced*: the driver at time t may
  read the (already computed) solution on [t, t+delta], read as zero past the
  horizon: the convention under which the duality identity above is exact.
  Conditioning on the time-t information is done by regression onto a state
  basis; the Brownian and compensated-jump loadings come out as the regression
  coefficients of the basis interacted with the corresponding noise increments.
* ``max_condition_gap`` / ``stationarity_gap`` — numerical optimality tests:
  how much the Hamiltonian can be improved over a candidate control grid, and
  the common-random-number central difference of the performance functional in
  a perturbation direction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    JumpModel,
    ParticleEnsemble,
    _mean_and_stderr,
    combine_controls,
    pathwise_cost,
)
from memsfde.grid import SimGrid, trapezoid_weights
from memsfde.measures import EmpiricalMeasure, MeasureSegment, dirac
from memsfde.segments import GridPath

__all__ = [
    "SegmentFunctional",
    "AdjointTriple",
    "HamiltonianInputs",
    "hamiltonian",
    "riesz_advanced",
    "riesz_duality_check",
    "solve_absde",
    "default_basis",
    "SweepContext",
    "max_condition_gap",
    "stationarity_gap",
]

log = logging.getLogger("memsfde.adjoint")


# ---------------------------------------------------------------------------
# segment functionals and the advanced Riesz representation


@dataclass(frozen=True)
class SegmentFunctional:
    """Bounded linear functional on segments over [0, delta].

    ``averaging``: seg -> integral of kernel(r) * seg(r) dr (trapezoid on the
    mesh).  ``evaluation``: seg -> seg(point).  These are the two concrete
    functional derivatives the solved problems need.
    """

    kind: str
    dt: float
    kernel: np.ndarray | None = None  # (delta_steps + 1,) mesh values
    point_steps: int | None = None

    @staticmethod
    def averaging(kernel, delta_steps: int, dt: float) -> "SegmentFunctional":
        """The kernel is a callable of the lag, a constant, or its
        ``delta_steps + 1`` mesh values."""
        if callable(kernel):
            vals = np.array([float(kernel(j * dt)) for j in range(delta_steps + 1)])
        else:
            vals = np.asarray(kernel, dtype=float)
            if vals.ndim == 0:
                vals = np.full(delta_steps + 1, float(vals))
            elif vals.shape != (delta_steps + 1,):
                raise ValueError(
                    f"kernel needs delta_steps + 1 = {delta_steps + 1} mesh values, got {vals.shape}"
                )
        return SegmentFunctional(kind="averaging", dt=float(dt), kernel=vals)

    @staticmethod
    def evaluation(point: float, dt: float) -> "SegmentFunctional":
        steps = point / dt
        if abs(steps - round(steps)) > 1e-6:
            raise ValueError(f"evaluation point {point} is not on the dt={dt} mesh")
        if point < 0.0:
            raise ValueError("evaluation point must lie in [0, delta]")
        return SegmentFunctional(kind="evaluation", dt=float(dt), point_steps=int(round(steps)))

    @property
    def delta_steps(self) -> int:
        if self.kind == "averaging":
            return len(self.kernel) - 1
        return self.point_steps

    @cached_property
    def weights(self) -> np.ndarray:
        """Quadrature-folded kernel of an averaging functional: the trapezoid
        weights times the kernel, so ``seg_values @ weights`` is its value."""
        return trapezoid_weights(len(self.kernel), self.dt) * self.kernel

    def apply(self, seg_values: np.ndarray) -> np.ndarray | float:
        """Apply to segment values laid out along the last axis."""
        vals = np.asarray(seg_values, dtype=float)
        if self.kind == "evaluation":
            if vals.shape[-1] <= self.point_steps:
                raise ValueError("segment too short for the evaluation point")
            return vals[..., self.point_steps]
        if vals.shape[-1] != len(self.kernel):
            raise ValueError(
                f"segment has {vals.shape[-1]} mesh values, kernel expects {len(self.kernel)}"
            )
        return vals @ self.weights


def _forward_values(path: GridPath, t: float, n_ahead: int) -> np.ndarray:
    """path(t + k dt) for k = 0..n_ahead, zero-extended past the path's end."""
    k0 = path.index_of(t)
    out = np.zeros(n_ahead + 1)
    last = len(path.values) - 1
    stop = min(n_ahead, last - k0)
    if stop >= 0:
        out[: stop + 1] = path.values[k0 : k0 + stop + 1]
    return out


def riesz_advanced(f: SegmentFunctional, p_path: GridPath, t: float) -> float:
    """Apply the functional to the forward window of ``p_path`` at time t.

    Reads past the stored path use zero extension, matching the convention
    that adjoint loadings vanish beyond the horizon; paths that already carry
    a terminal extension simply get read as stored.
    """
    vals = _forward_values(p_path, t, f.delta_steps)
    return float(f.apply(vals))


def riesz_duality_check(
    f: SegmentFunctional, p_path: GridPath, y_path: GridPath
) -> tuple[float, float]:
    """Both sides of the forward/backward pairing identity.

    lhs = integral over [0, T] of (f applied to p's forward window) * Y(t);
    rhs = integral over [0, T] of p(t) * (f applied to Y's backward window),
    with Y treated as zero outside [0, T] and p as zero past its stored end.
    The two agree exactly in continuous time and to O(dt) under the trapezoid
    rule used here.
    """
    if abs(p_path.dt - y_path.dt) > 1e-12:
        raise ValueError("paths must share the mesh step")
    if abs(y_path.t0) > 1e-12 or abs(p_path.t0) > 1e-12:
        raise ValueError("duality check expects paths starting at t = 0")
    y = y_path.values
    n = len(y)  # mesh of [0, T]
    dt = y_path.dt
    d = f.delta_steps
    w = trapezoid_weights(n, dt)

    lhs = 0.0
    for k in range(n):
        lhs += w[k] * y[k] * float(f.apply(_forward_values(p_path, k * dt, d)))

    p = np.zeros(n)
    m = min(n, len(p_path.values))
    p[:m] = p_path.values[:m]
    rhs = 0.0
    for k in range(n):
        back = np.zeros(d + 1)
        stop = min(d, k)
        back[: stop + 1] = y[k - stop : k + 1][::-1]
        rhs += w[k] * p[k] * float(f.apply(back))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Hamiltonian


@dataclass
class HamiltonianInputs:
    """Arguments of the Hamiltonian at one (t, state, control, adjoint) point.

    Scalars or (N,) arrays are accepted throughout; ``law`` defaults to the
    Dirac mass at ``x`` and segments default to constant extensions, which is
    what pointwise evaluations want.  ``r0`` is a scalar/array: a loading
    constant in the jump mark.
    """

    t: float
    x: object
    p0: object
    q0: object = 0.0
    r0: object = 0.0
    x_seg: np.ndarray | None = None
    law: EmpiricalMeasure | None = None
    law_seg: MeasureSegment | None = None
    u: object = 0.0
    u_seg: np.ndarray | None = None


def hamiltonian(
    coeffs: CoefficientSet,
    inputs: HamiltonianInputs,
    jumps: JumpModel | None = None,
    horizon: float = math.inf,
) -> float | np.ndarray:
    """Running cost plus adjoint-weighted dynamics; identically 0 past the
    horizon.  A scalar state gives a float, an (N,) state an (N,) array."""
    scalar_in = np.isscalar(inputs.x)
    x = np.atleast_1d(np.asarray(inputs.x, dtype=float))
    if inputs.t > horizon + 1e-12:
        return 0.0 if scalar_in else np.zeros(x.shape[0])
    jumps = jumps if jumps is not None else JumpModel.none()

    n = x.shape[0]

    if inputs.x_seg is not None:
        x_seg = np.asarray(inputs.x_seg, dtype=float)
        if x_seg.ndim == 1:
            x_seg = np.broadcast_to(x_seg, (n, x_seg.shape[0]))
    else:
        x_seg = x[:, None]
    d = x_seg.shape[1] - 1

    if inputs.law is not None:
        law = inputs.law
    else:
        law = dirac(float(x[0])) if n == 1 else EmpiricalMeasure(x)
    # constant-extension default (unit lag mesh); pointwise evaluations only
    law_seg = inputs.law_seg if inputs.law_seg is not None else MeasureSegment([law] * (d + 1), 1.0)

    u = np.broadcast_to(np.asarray(inputs.u, dtype=float), x.shape)
    if inputs.u_seg is not None:
        u_seg = np.asarray(inputs.u_seg, dtype=float)
        if u_seg.ndim == 1:
            u_seg = np.broadcast_to(u_seg, (n, u_seg.shape[0]))
    else:
        u_seg = np.broadcast_to(u[:, None], (n, d + 1))

    t = inputs.t
    total = np.zeros(n)
    if coeffs.running_cost is not None:
        total = total + np.asarray(coeffs.running_cost(t, x, x_seg, law, law_seg, u, u_seg))
    if coeffs.drift is not None:
        total = total + np.asarray(inputs.p0) * np.asarray(
            coeffs.drift(t, x, x_seg, law, law_seg, u, u_seg)
        )
    if coeffs.diffusion is not None:
        total = total + np.asarray(inputs.q0) * np.asarray(
            coeffs.diffusion(t, x, x_seg, law, law_seg, u, u_seg)
        )
    if coeffs.jump is not None and jumps.active:
        total = total + np.asarray(inputs.r0) * jumps.nu_integral(
            lambda z: np.asarray(coeffs.jump(t, x, x_seg, law, law_seg, u, u_seg, z))
        )
    return float(total[0]) if scalar_in else total


# ---------------------------------------------------------------------------
# advanced BSDE backward solver (least-squares Monte Carlo)


@dataclass
class AdjointTriple:
    """Regression-valued adjoint processes on the simulation mesh.

    ``p0``, ``q0`` and ``r0`` cover the [0, T] mesh only; past the horizon
    all three read as zero (see :class:`SweepContext`).  ``q0`` and ``r0``
    are per-step noise loadings whose final column is zero.  Each is an
    (N, n_steps + 1) view of time-major storage in time order, so column k
    is one contiguous row and the forward window a driver reads is a band
    of rows in ascending memory order.  A solve that does not keep the
    whole triple (``solve_absde(keep=...)``) holds the rest only as long as
    its driver can read it: with ``keep="p0"`` its ``q0`` and ``r0`` are
    ``None``, and with ``keep="initial_p0"`` so are they and ``p0`` is the
    (N, 1) column of step 0.  ``mean_stderr[k]`` is the Monte Carlo
    standard error of the regression target's mean at step k, the right
    yardstick for drift/level tests.
    """

    grid: SimGrid
    p0: np.ndarray  # (N, n_steps + 1), or (N, 1) for step 0 only
    q0: np.ndarray | None  # (N, n_steps + 1)
    r0: np.ndarray | None  # (N, n_steps + 1)
    mean_stderr: np.ndarray  # (n_steps + 1,)
    deficient_steps: tuple = ()

    def check_terminal_conventions(self) -> bool:
        """The noise loadings vanish at the horizon.  A solve that did not
        keep them cannot be checked."""
        if self.q0 is None:
            raise ValueError("the loadings were not kept after the sweep; solve with keep='all'")
        K = self.grid.n_steps
        return bool(np.all(self.q0[:, K] == 0.0) and np.all(self.r0[:, K] == 0.0))


def _regress(design: np.ndarray, target: np.ndarray, step: int | None = None) -> tuple[np.ndarray, int]:
    """Least-norm least-squares coefficients of ``target`` on ``design``.

    Solves the normal equations through a symmetric eigensolve of the Gram
    matrix ``XᵀX`` with its columns scaled to unit diagonal (all-zero
    columns keep scale 1, so they come out as zero eigenvalues).  An
    eigenvalue counts as zero when it is at most ``max(N, n) * eps`` times
    the largest: numpy's default least-squares rank cutoff, applied to the
    scaled Gram's eigenvalues (squared singular values) instead of to
    singular values, because that is the rounding level of a Gram entry
    summed over N rows.  The pseudo-inverse on the surviving eigenspace is
    projected so that it returns the least-norm unscaled coefficients (the
    solution an SVD least-squares solver returns at the same rank), and the
    solution is refined once against its own residual.
    ``target`` may be (N,) or (N, c); returns ``(beta, rank)``.  A Gram
    matrix that overflows raises ``LinAlgError`` naming the backward ``step``.
    """
    n_rows, n = design.shape
    gram = design.T @ design
    if not np.isfinite(gram).all():
        where = f"backward step {step}: " if step is not None else ""
        raise np.linalg.LinAlgError(f"{where}the regression design is too large to square: its Gram matrix overflows")
    scale = np.sqrt(gram.diagonal())
    scale[scale == 0.0] = 1.0
    evals, evecs = np.linalg.eigh(gram / np.outer(scale, scale))
    keep = evals > max(n_rows, n) * np.finfo(float).eps * evals[-1]
    rank = int(keep.sum())
    kept = evecs[:, keep] / scale[:, None]
    # maps Xᵀy to the least-norm coefficients
    solve = (kept / evals[keep]) @ kept.T
    if rank < n:
        # project out the null space of the unscaled design, orthonormalised
        null, _ = np.linalg.qr(evecs[:, ~keep] / scale[:, None])
        solve -= null @ (null.T @ solve)
    y = target.reshape(n_rows, -1)
    beta = solve @ (design.T @ y)
    # one refinement step on the residual wins back the accuracy that the
    # squared condition number of the normal equations costs
    beta += solve @ (design.T @ (y - design @ beta))
    return beta.reshape((n,) + target.shape[1:]), rank


def _polynomial_rows(ens: ParticleEnsemble, k: int, out: np.ndarray) -> None:
    """Write the five :func:`default_basis` features into rows ``out[:5]``
    of a feature-major (m, N) buffer, for bases that extend it."""
    x = ens.state_column(k)
    xd = ens.backward_window(k)[:, -1]
    out[0] = 1.0
    out[1] = x
    out[2] = xd
    np.multiply(x, x, out=out[3])
    np.multiply(x, xd, out=out[4])


def default_basis(ens: ParticleEnsemble, k: int) -> np.ndarray:
    """Polynomial regression features {1, X(t), X(t - delta), X^2, X * X_delta}.

    Returned as the (N, 5) transposed view of a feature-major buffer, so each
    feature is one contiguous row.
    """
    rows = np.empty((5, ens.grid.n_particles))
    _polynomial_rows(ens, k, rows)
    return rows.T


class SweepContext:
    """Backward-sweep state handed to ABSDE drivers.

    Drivers may read the solution strictly ahead of the current step and at
    most one memory window ahead (that is what makes the equation advanced).
    Everything past the horizon reads as zero — the convention under which
    the duality identity behind the driver is exact.

    Each array is an (N, width) view whose column ``j % width`` holds step
    j.  A full array has width n_steps + 1, so that is column j; what
    :func:`solve_absde` does not keep lives in a ring of fewer columns, in
    which every step a driver may still read has its own column.
    """

    def __init__(self, ens: ParticleEnsemble, p0: np.ndarray, q0: np.ndarray, r0: np.ndarray):
        self.grid = ens.grid
        self._p0 = p0
        self._q0 = q0
        self._r0 = r0

    def _check_ahead(self, k: int, ahead: int, name: str) -> None:
        if ahead < 1:
            raise ValueError(f"{name} at step {k}: drivers may only read strictly ahead (got offset {ahead})")
        if ahead > self.grid.delta_steps:
            raise ValueError(f"{name} at step {k}: read offset {ahead} exceeds the memory window")

    def _future(self, arr, k: int, ahead: int, name: str):
        self._check_ahead(k, ahead, name)
        j = k + ahead
        if j > self.grid.n_steps:
            return np.zeros(arr.shape[0])
        return arr[:, j % arr.shape[1]]

    def p0_future(self, k: int, ahead: int) -> np.ndarray:
        return self._future(self._p0, k, ahead, "p0")

    def q0_future(self, k: int, ahead: int) -> np.ndarray:
        return self._future(self._q0, k, ahead, "q0")

    def r0_future(self, k: int, ahead: int) -> np.ndarray:
        return self._future(self._r0, k, ahead, "r0")

    def advanced_average(self, k: int, f: SegmentFunctional) -> np.ndarray:
        """Kernel-weighted integral of future p0 over the memory window.

        Trapezoid in the lag variable; the lag-0 endpoint is read one step
        ahead to keep the sweep explicit (an O(dt^3) perturbation of the
        step's integral).  Computed as one matrix-vector product over the
        live band ``p0[:, k+1 : min(k+d, K)+1]``: the lag-0 weight is folded
        onto lag 1, and lags past the horizon read zero, so their weights
        are dropped.  The band cannot wrap around a ring, so an averaging
        functional needs p0 kept in full (``keep="all"`` or ``"p0"``).
        """
        if f.kind == "evaluation":
            return self.p0_future(k, f.point_steps)
        if self._p0.shape[1] <= self.grid.n_steps:
            raise ValueError("advanced_average reads a band of p0, which a ring cannot hold; keep p0 in full")
        d = f.delta_steps
        lags = max(d, 1)
        self._check_ahead(k, lags, "p0")
        w = f.weights
        folded = np.zeros(lags)
        folded[:d] = w[1:]
        folded[0] += w[0]
        live = min(lags, self.grid.n_steps - k)
        return self._p0[:, k + 1 : k + 1 + live] @ folded[:live]


def solve_absde(
    ens: ParticleEnsemble,
    terminal,
    driver=None,
    basis=None,
    warn: bool = True,
    keep: str = "all",
) -> AdjointTriple:
    """Backward least-squares sweep for the adjoint triple along an ensemble.

    ``terminal(x_T, law_T)`` gives p0 at the horizon.  ``driver(ctx, k)``
    returns the per-particle dt-coefficient at step k; it may read the
    already-computed future of (p0, q0, r0) through ``ctx``.  Each step
    regresses ``p0[k+1] + dt * driver`` onto the basis augmented by basis
    interactions with the step's Brownian and compensated-jump increments;
    the plain-basis fit is p0 at k and the interaction fits are the noise
    loadings q0, r0.  The ``[φ, φ·ΔW, φ·ΔÑ]`` design is stored feature-major:
    one C-contiguous (n_blocks·m, N) buffer reused by every step, whose row
    blocks hold the basis and its products with the step's noise rows, so
    every write and every fitted value is a contiguous row.  Its (N, n)
    transposed view is solved by ``_regress``: a symmetric eigensolve of
    its column-scaled Gram matrix, with eigenvalues at most
    ``max(N, n) * eps`` times the largest counted as zero, plus one
    residual refinement step.  Rank-deficient designs fall back to the
    least-norm solution (for a collapsed basis that is exactly the ensemble
    mean) and are reported via ``deficient_steps`` plus, unless ``warn`` is
    false, a logged warning.

    ``keep`` names what survives the sweep: ``"all"`` keeps the whole
    triple, ``"p0"`` keeps p0 only and ``"initial_p0"`` keeps p0 at step 0
    only.  What is not kept lives in a ring of max(d, 1) + 1 rows (d the
    grid's delay steps): step k overwrites the row of a step beyond the
    driver's reach and beyond step k + 1, whose p0 is the step's target.
    The returned triple's ``q0`` and ``r0`` are then ``None``, and with
    ``"initial_p0"`` its ``p0`` is the (N, 1) column of step 0.  Every value
    a driver reads, p0 at the steps kept, ``mean_stderr`` and
    ``deficient_steps`` are the same bits in all three modes; each ring
    saves an (N, n_steps + 1) array.  A driver that calls
    :meth:`SweepContext.advanced_average` needs p0 in full.
    """
    if keep not in ("all", "p0", "initial_p0"):
        raise ValueError(f"keep must be 'all', 'p0' or 'initial_p0', got {keep!r}")
    grid = ens.grid
    K, N, dt = grid.n_steps, grid.n_particles, grid.dt
    basis = basis if basis is not None else default_basis

    # time-major storage behind (N, ·) views: each step writes one row, and
    # step k goes to row k % width (see SweepContext)
    ring = min(max(grid.delta_steps, 1), K) + 1
    p_width = ring if keep == "initial_p0" else K + 1
    width = K + 1 if keep == "all" else ring
    p0 = np.zeros((p_width, N)).T
    q0 = np.zeros((width, N)).T
    r0 = np.zeros((width, N)).T
    mean_stderr = np.zeros(K + 1)

    xT = ens.state_column(K)
    p0[:, K % p_width] = np.asarray(terminal(xT, EmpiricalMeasure(xT)), dtype=float)

    use_jumps = ens.jump_counts is not None
    lam_dt = ens.jumps.intensity * dt if use_jumps else 0.0
    n_blocks = 3 if use_jumps else 2
    ctx = SweepContext(ens, p0, q0, r0)
    deficient: list[int] = []
    rows = None

    for k in range(K - 1, -1, -1):
        target = p0[:, (k + 1) % p_width]
        if driver is not None:
            target = target + dt * np.asarray(driver(ctx, k))
        phi = basis(ens, k)
        m = phi.shape[1]
        if rows is None:
            # feature-major design: block b is rows [b*m, (b+1)*m)
            rows = np.empty((n_blocks * m, N))
        basis_rows = rows[:m]
        basis_rows[...] = phi.T
        np.multiply(basis_rows, ens.brownian[:, k], out=rows[m : 2 * m])
        if use_jumps:
            dn = ens.jump_counts[:, k, :].sum(axis=1) - lam_dt
            np.multiply(basis_rows, dn, out=rows[2 * m :])
        beta, rank = _regress(rows.T, target, step=k)
        if rank < rows.shape[0]:
            deficient.append(k)
        np.matmul(beta[:m], basis_rows, out=p0[:, k % p_width])
        np.matmul(beta[m : 2 * m], basis_rows, out=q0[:, k % width])
        if use_jumps:
            np.matmul(beta[2 * m :], basis_rows, out=r0[:, k % width])
        _, mean_stderr[k] = _mean_and_stderr(target)

    if deficient and warn:
        log.warning(
            "rank-deficient regression at %d of %d steps; least-norm/ensemble-mean fallback used",
            len(deficient),
            K,
        )
    return AdjointTriple(
        grid=grid,
        p0=p0[:, :1].copy() if keep == "initial_p0" else p0,
        q0=q0 if keep == "all" else None,
        r0=r0 if keep == "all" else None,
        mean_stderr=mean_stderr,
        deficient_steps=tuple(reversed(deficient)),
    )


# ---------------------------------------------------------------------------
# optimality checkers


def max_condition_gap(
    coeffs: CoefficientSet,
    ens: ParticleEnsemble,
    adj: AdjointTriple,
    candidate_grid,
    jumps: JumpModel | None = None,
    filtration: str = "trivial",
    basis=None,
) -> tuple[float, float]:
    """Worst improvement of the conditional Hamiltonian over a control grid.

    For each mesh time, each candidate value replaces the applied control in
    the Hamiltonian (the control's memory segment stays at its realized
    values) and the conditional expectation is taken under the trivial
    filtration (plain ensemble mean of the paired difference) or the full
    one (per-particle regression-fitted difference, maximized pointwise).
    Returns the largest mean gap over times and candidates together with the
    standard error at the maximizing pair — for an optimal control the gap
    should vanish within noise; a genuinely improvable control yields a gap
    many standard errors above zero.  The applied control and its segment
    are replayed from the ensemble's paths
    (:meth:`~memsfde.engine.ParticleEnsemble.coefficient_inputs`).
    """
    candidates = [float(c) for c in candidate_grid]
    if not candidates:
        raise ValueError("candidate grid must be non-empty")
    jumps = jumps if jumps is not None else ens.jumps
    basis = basis if basis is not None else default_basis
    grid = ens.grid
    best_gap, best_se = -math.inf, 0.0

    # the ensemble's inputs and replayed control, one step at a time
    for k, (x, x_seg, law, law_seg, u, u_seg) in zip(range(grid.n_steps), ens.coefficient_inputs()):
        common = dict(
            t=k * grid.dt,
            x=x,
            x_seg=x_seg,
            law=law,
            law_seg=law_seg,
            u_seg=u_seg,
            p0=adj.p0[:, k],
            q0=adj.q0[:, k],
            r0=adj.r0[:, k],
        )
        h_used = hamiltonian(coeffs, HamiltonianInputs(u=u, **common), jumps, grid.horizon)
        if filtration == "trivial":
            for c in candidates:
                diff = hamiltonian(coeffs, HamiltonianInputs(u=c, **common), jumps, grid.horizon) - h_used
                gap, se = _mean_and_stderr(diff)
                if gap > best_gap:
                    best_gap, best_se = gap, se
        elif filtration == "full":
            phi = basis(ens, k)
            diffs = np.column_stack(
                [hamiltonian(coeffs, HamiltonianInputs(u=c, **common), jumps, grid.horizon) - h_used for c in candidates]
            )
            beta, _ = _regress(phi, diffs)
            gap, se = _mean_and_stderr(np.max(phi @ beta, axis=1))
            if gap > best_gap:
                best_gap, best_se = gap, se
        else:
            raise ValueError("filtration must be 'trivial' or 'full'")
    return best_gap, best_se


def stationarity_gap(
    problem: ControlProblem,
    control,
    direction,
    eps: float = 1e-3,
) -> tuple[float, float]:
    """Central difference of the performance in a perturbation direction.

    Both perturbed controls are simulated under common random numbers (the
    per-step counter streams depend only on the grid seed), so the paired
    per-particle cost difference has tiny variance and the returned standard
    error is an honest yardstick: at an optimum |gap| should be within a few
    standard errors of zero (plus an O(eps^2) curvature remainder).
    ``eps`` must be a positive finite number.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")
    # each ensemble is costed and freed before the next one is simulated
    plus = pathwise_cost(problem.simulate(combine_controls(control, direction, +eps)), problem.coeffs)
    minus = pathwise_cost(problem.simulate(combine_controls(control, direction, -eps)), problem.coeffs)
    return _mean_and_stderr((plus - minus) / (2.0 * eps))
