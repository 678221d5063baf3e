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
  read the (already computed) p0 on [t, t+delta], read as zero past the
  horizon: the convention under which the duality identity above is exact.
  Every row goes to one ``on_row`` hook as it is solved, so a caller that
  needs q0 or r0 ahead, or a streamed combination, takes them there.
  Conditioning on the time-t information is done by regression onto a state
  basis; the Brownian and compensated-jump loadings come out as the regression
  coefficients of the basis interacted with the corresponding noise increments.
* ``max_condition_gap`` / ``stationarity_gap`` — numerical optimality tests:
  how much the Hamiltonian can be improved over a candidate control grid, and
  the common-random-number central difference of the performance functional in
  a perturbation direction; ``stationarity_rows`` runs the probes that every
  verification battery shares, then the battery's own.
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
    MeshMismatchError,
    ParticleEnsemble,
    _Band,
    _mean_and_stderr,
    combine_controls,
)
from memsfde.grid import GridPath, SimGrid, _check_step, _is_integer, mesh_index, trapezoid_weights
from memsfde.measures import EmpiricalMeasure, MeasureSegment, dirac

__all__ = [
    "SegmentFunctional",
    "AdjointTriple",
    "hamiltonian",
    "riesz_advanced",
    "riesz_duality_check",
    "solve_absde",
    "default_basis",
    "SweepContext",
    "max_condition_gap",
    "stationarity_gap",
    "stationarity_rows",
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
        ``delta_steps + 1`` mesh values; its mesh values must be finite."""
        _check_step(dt)
        if not _is_integer(delta_steps) or delta_steps < 0:
            raise ValueError(f"delta_steps={delta_steps!r} must be an integer >= 0")
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
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"kernel must be finite, got {vals[bad[0]]} at lag step {bad[0]}")
        return SegmentFunctional(kind="averaging", dt=float(dt), kernel=vals)

    @staticmethod
    def evaluation(point: float, dt: float) -> "SegmentFunctional":
        _check_step(dt)
        return SegmentFunctional(kind="evaluation", dt=float(dt), point_steps=mesh_index(point, dt, name="point"))

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
        lhs += w[k] * y[k] * riesz_advanced(f, p_path, k * dt)

    p = _forward_values(p_path, 0.0, n - 1)
    rhs = 0.0
    for k in range(n):
        back = np.zeros(d + 1)
        stop = min(d, k)
        back[: stop + 1] = y[k - stop : k + 1][::-1]
        rhs += w[k] * p[k] * float(f.apply(back))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Hamiltonian


def _per_particle(seg, n: int) -> np.ndarray:
    """A segment argument as (n, length) rows: one shared (length,) segment
    is broadcast to every particle."""
    seg = np.asarray(seg, dtype=float)
    return np.broadcast_to(seg, (n, seg.shape[0])) if seg.ndim == 1 else seg


def hamiltonian(
    coeffs: CoefficientSet,
    t: float,
    x,
    p0,
    q0=0.0,
    r0=0.0,
    x_seg: np.ndarray | None = None,
    law: EmpiricalMeasure | None = None,
    law_seg: MeasureSegment | None = None,
    u=0.0,
    u_seg: np.ndarray | None = None,
    jumps: JumpModel | None = None,
    horizon: float = math.inf,
) -> float | np.ndarray:
    """Running cost plus adjoint-weighted dynamics at one (t, state, control,
    adjoint) point; identically 0 past the horizon.

    Scalars or (N,) arrays are accepted throughout: a scalar state gives a
    float, an (N,) state an (N,) array.  ``law`` defaults to the Dirac mass
    at ``x`` and segments default to constant extensions, which is what
    pointwise evaluations want.  ``r0`` is a scalar/array: a loading
    constant in the jump mark.
    """
    scalar_in = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t > horizon + 1e-12:
        return 0.0 if scalar_in else np.zeros(x.shape[0])
    jumps = jumps if jumps is not None else JumpModel.none()

    n = x.shape[0]

    x_seg = _per_particle(x_seg, n) if x_seg is not None else x[:, None]
    d = x_seg.shape[1] - 1

    if law is None:
        law = dirac(float(x[0])) if n == 1 else EmpiricalMeasure(x)
    # constant-extension default (unit lag mesh); pointwise evaluations only
    if law_seg is None:
        law_seg = MeasureSegment(np.broadcast_to(law.atoms[:, None], (law.atoms.size, d + 1)), 1.0)

    u = np.broadcast_to(np.asarray(u, dtype=float), x.shape)
    u_seg = _per_particle(u_seg, n) if u_seg is not None else np.broadcast_to(u[:, None], (n, d + 1))

    total = np.zeros(n)
    if coeffs.running_cost is not None:
        total = total + np.asarray(coeffs.running_cost(t, x, x_seg, law, law_seg, u, u_seg))
    if coeffs.drift is not None:
        total = total + np.asarray(p0) * np.asarray(coeffs.drift(t, x, x_seg, law, law_seg, u, u_seg))
    if coeffs.diffusion is not None:
        total = total + np.asarray(q0) * np.asarray(coeffs.diffusion(t, x, x_seg, law, law_seg, u, u_seg))
    if coeffs.jump is not None and jumps.active:
        total = total + np.asarray(r0) * jumps.nu_integral(
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
    (N, n_steps + 1) view of one time-major (3, n_steps + 1, N) array, so
    column k is one contiguous row, and a caller that keeps only one of the
    three keeps the memory of all three.  A solve that hands its rows to the
    caller's ``on_row`` (see :func:`solve_absde`) keeps none of them, and
    all three are ``None``.  ``mean_stderr[k]`` is the Monte Carlo standard
    error of the regression target's mean at step k, the right yardstick
    for drift/level tests.
    """

    grid: SimGrid
    p0: np.ndarray | None  # (N, n_steps + 1)
    q0: np.ndarray | None  # (N, n_steps + 1)
    r0: np.ndarray | None  # (N, n_steps + 1)
    mean_stderr: np.ndarray  # (n_steps + 1,)
    deficient_steps: tuple = ()


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


def _sweep_band(grid: SimGrid) -> _Band:
    """A band for the rows of a backward sweep that a driver may still read:
    d + 1 + s rows, s = ceil((d + 1) / 4).  It moves its d + 1 newest rows
    once every s steps, about four rows a step."""
    d = grid.delta_steps
    return _Band(grid, d + 1 + (d + 4) // 4)


class SweepContext:
    """Backward-sweep state handed to ABSDE drivers.

    Drivers may read p0 strictly ahead of the current step and at most one
    memory window ahead (that is what makes the equation advanced).
    Everything past the horizon reads as zero — the convention under which
    the duality identity behind the driver is exact.  A driver that needs
    q0 or r0 ahead takes them from the rows :func:`solve_absde` hands to
    ``on_row``.

    ``p0`` is a band (``engine._Band``) indexed by reversed time: step j of
    an n_steps mesh with d lag steps is column d + n_steps - j.  So the d
    zero history columns of the band are the steps past the horizon, and
    the window ending at step k + 1 holds steps k + 1..k + d + 1 in lead
    order, an F-contiguous (N, d + 1) view.
    """

    def __init__(self, ens: ParticleEnsemble, p0: _Band):
        self.grid = ens.grid
        self._p0 = p0

    def _column(self, k: int) -> int:
        """The band column of step k."""
        return self.grid.delta_steps + self.grid.n_steps - k

    def _check_ahead(self, k: int, ahead: int) -> None:
        if ahead < 1:
            raise ValueError(f"p0 at step {k}: drivers may only read strictly ahead (got offset {ahead})")
        if ahead > self.grid.delta_steps:
            raise ValueError(f"p0 at step {k}: read offset {ahead} exceeds the memory window")

    def p0_future(self, k: int, ahead: int) -> np.ndarray:
        self._check_ahead(k, ahead)
        return self._p0.column(self._column(k + ahead))

    def advanced_average(self, k: int, f: SegmentFunctional) -> np.ndarray:
        """Kernel-weighted integral of future p0 over the memory window.

        Trapezoid in the lag variable; the lag-0 endpoint is read one step
        ahead to keep the sweep explicit (an O(dt^3) perturbation of the
        step's integral).  Computed as one matrix-vector product over the
        live part of the window that ends at step k + 1, p0 at steps
        k + 1..min(k + d, K): the lag-0 weight is folded onto lag 1, and
        lags past the horizon read zero, so their weights are dropped.
        ``f`` must live on the sweep's mesh step.
        """
        if f.dt != self.grid.dt:
            raise MeshMismatchError(f"the functional has dt={f.dt!r}, the sweep's mesh dt={self.grid.dt!r}")
        if f.kind == "evaluation":
            return self.p0_future(k, f.point_steps)
        d = f.delta_steps
        lags = max(d, 1)
        self._check_ahead(k, lags)
        w = f.weights
        folded = np.zeros(lags)
        folded[:d] = w[1:]
        folded[0] += w[0]
        live = min(lags, self.grid.n_steps - k)
        return self._p0.window(self._column(k + 1))[:, :live] @ folded[:live]


def solve_absde(
    ens: ParticleEnsemble,
    terminal,
    driver=None,
    basis=None,
    warn: bool = True,
    on_row=None,
) -> AdjointTriple:
    """Backward least-squares sweep for the adjoint triple along an ensemble.

    ``terminal(x_T, law_T)`` gives p0 at the horizon.  ``driver(ctx, k)``
    returns the per-particle dt-coefficient at step k; it may read the
    already-computed future of p0 through ``ctx``.  Each step
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

    p0 lives in a band of a few more rows than the memory window (see
    :class:`SweepContext`), q0 and r0 in one row each.  ``on_row(k, p0,
    q0, r0)`` receives the rows of every step as they are solved, the
    horizon first (its loadings are zero rows): views that are valid
    during the call only and must not be written.  The returned triple
    then holds no process.  Without ``on_row`` the solve copies every row
    into one time-major array and returns the whole triple.

    A terminal value must be finite and a scalar or (N,) array, a driver
    value a scalar or (N,) array, and every basis (N, m) with the first
    step's m; a bad value raises ``ValueError`` naming its step.
    """
    grid = ens.grid
    K, N, dt, d = grid.n_steps, grid.n_particles, grid.dt, grid.delta_steps
    basis = basis if basis is not None else default_basis
    use_jumps = ens.jump_counts is not None

    # a plain solve's own hook keeps the triple; r0 stays unwritten zeros,
    # which take no memory, when there are no jumps
    kept = np.zeros((3, K + 1, N)) if on_row is None else None
    if kept is not None:
        def on_row(k, p, q, r):
            kept[0, k], kept[1, k] = p, q
            if use_jumps:
                kept[2, k] = r

    p0, q_row, r_row = _sweep_band(grid), np.zeros(N), np.zeros(N)
    mean_stderr = np.zeros(K + 1)
    ctx = SweepContext(ens, p0)

    xT = ens.state_column(K)
    pT = _row_value(terminal(xT, EmpiricalMeasure(xT)), N, "terminal")
    if not np.isfinite(pT).all():
        raise ValueError("terminal must be finite")
    p0.push(d, pT)
    on_row(K, p0.column(d), q_row, r_row)

    lam_dt = ens.jumps.intensity * dt if use_jumps else 0.0
    n_blocks = 3 if use_jumps else 2
    deficient: list[int] = []
    rows = None

    for k in range(K - 1, -1, -1):
        i = d + K - k  # the band column of step k
        target = p0.column(i - 1)
        if driver is not None:
            target = target + dt * _row_value(driver(ctx, k), N, f"driver at step {k}")
        # read before step k's row is written: a short band that moves every
        # step (d <= 3) writes it to the row the target was read from
        _, mean_stderr[k] = _mean_and_stderr(target)
        phi = basis(ens, k)
        shape = np.shape(phi)
        if len(shape) != 2 or shape[0] != N or (rows is not None and shape[1] != m):
            raise ValueError(f"basis at step {k} has shape {shape}, not ({N}, {'m' if rows is None else m})")
        m = shape[1]
        if rows is None:
            # feature-major design: block b is rows [b*m, (b+1)*m)
            rows = np.empty((n_blocks * m, N))
        basis_rows = rows[:m]
        basis_rows[...] = phi.T
        del phi  # so that two steps' bases are never held at once
        np.multiply(basis_rows, ens.brownian[:, k], out=rows[m : 2 * m])
        if use_jumps:
            dn = ens.jump_counts[:, k, :].sum(axis=1) - lam_dt
            np.multiply(basis_rows, dn, out=rows[2 * m :])
        beta, rank = _regress(rows.T, target, step=k)
        if rank < rows.shape[0]:
            deficient.append(k)
        p0.make_room(i - 1)
        p = np.matmul(beta[:m], basis_rows, out=p0.column(i))
        np.matmul(beta[m : 2 * m], basis_rows, out=q_row)
        if use_jumps:
            np.matmul(beta[2 * m :], basis_rows, out=r_row)
        on_row(k, p, q_row, r_row)

    if warn:
        _log_rank_deficiency(log, (len(deficient),), K)
    triple = (None, None, None) if kept is None else kept.transpose(0, 2, 1)
    return AdjointTriple(grid, *triple, mean_stderr, tuple(reversed(deficient)))


def _row_value(value, n: int, what: str) -> np.ndarray:
    """``value`` as a float array of shape () or (n,); a ``ValueError``
    naming ``what`` for any other shape."""
    value = np.asarray(value, dtype=float)
    if value.shape not in ((), (n,)):
        raise ValueError(f"{what} has shape {value.shape}, not () or ({n},)")
    return value


def _log_rank_deficiency(logger: logging.Logger, counts, n_steps: int) -> None:
    """One warning line on ``logger`` for the rank-deficient regression
    steps of one or more backward solves, given each solve's count; nothing
    when no solve had any.  Several solves share a line because the steps
    are expected wherever the lagged features are constant."""
    hit = [c for c in counts if c]
    if not hit:
        return
    if len(counts) == 1:
        where = f"{hit[0]} of {n_steps} steps"
    elif len(hit) == len(counts) and min(hit) == max(hit):
        where = f"{hit[0]} of {n_steps} steps in each of {len(counts)} solves"
    else:
        where = f"{min(hit)} to {max(hit)} of {n_steps} steps in {len(hit)} of {len(counts)} solves"
    logger.warning("rank-deficient regression at %s; least-norm/ensemble-mean fallback used", where)


# ---------------------------------------------------------------------------
# optimality checkers


def max_condition_gap(
    coeffs: CoefficientSet,
    ens: ParticleEnsemble,
    adj: AdjointTriple,
    candidate_grid,
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
    (:meth:`~memsfde.engine.ParticleEnsemble.coefficient_inputs`), and the
    jump term integrates against the ensemble's jump model, ``ens.jumps``.
    The candidates must be finite, and ``adj`` must be solved on the
    ensemble's mesh: the same particles, steps, ``dt`` and lag steps, and
    hold all three arrays (a solve with ``on_row`` keeps none).
    """
    candidates = [float(c) for c in candidate_grid]
    if not candidates or not all(map(math.isfinite, candidates)):
        raise ValueError(f"candidate grid must be non-empty and finite, got {candidates}")
    if filtration not in ("trivial", "full"):
        raise ValueError(f"filtration must be 'trivial' or 'full', got {filtration!r}")
    basis = basis if basis is not None else default_basis
    grid = ens.grid
    mesh = (grid.n_particles, grid.n_steps, grid.dt, grid.delta_steps)
    adj_mesh = (adj.grid.n_particles, adj.grid.n_steps, adj.grid.dt, adj.grid.delta_steps)
    if mesh != adj_mesh:
        raise MeshMismatchError(
            f"the adjoint was solved on (particles, steps, dt, lag steps) = {adj_mesh}, the ensemble lives on {mesh}"
        )
    missing = [name for name in ("p0", "q0", "r0") if getattr(adj, name) is None]
    if missing:
        raise ValueError(f"the triple holds no {' or '.join(missing)}: a solve with on_row keeps none; solve without it")
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
            jumps=ens.jumps,
            horizon=grid.horizon,
        )
        h_used = hamiltonian(coeffs, u=u, **common)
        if filtration == "trivial":
            for c in candidates:
                diff = hamiltonian(coeffs, u=c, **common) - h_used
                gap, se = _mean_and_stderr(diff)
                if gap > best_gap:
                    best_gap, best_se = gap, se
        else:
            phi = basis(ens, k)
            diffs = np.column_stack([hamiltonian(coeffs, u=c, **common) - h_used for c in candidates])
            beta, _ = _regress(phi, diffs)
            gap, se = _mean_and_stderr(np.max(phi @ beta, axis=1))
            if gap > best_gap:
                best_gap, best_se = gap, se
    return best_gap, best_se


def stationarity_gap(
    problem: ControlProblem,
    control,
    direction,
    eps: float = 1e-3,
) -> tuple[float, float]:
    """Central difference of the performance in a perturbation direction.

    Both perturbed controls are costed by ``problem.costs`` under common
    random numbers (the problem's one noise draw), so the paired
    per-particle cost difference has tiny variance and the returned standard
    error is an honest yardstick: at an optimum |gap| should be within a few
    standard errors of zero (plus an O(eps^2) curvature remainder).
    ``eps`` must be a positive finite number.
    """
    _check_eps(eps)
    plus, minus = problem.costs([combine_controls(control, direction, eps), combine_controls(control, direction, -eps)])
    return _mean_and_stderr((plus - minus) / (2.0 * eps))


def _check_eps(eps: float) -> None:
    """Refuse a perturbation size that is not a positive finite number."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite number, got {eps!r}")


def stationarity_rows(problem: ControlProblem, control, directions, eps: float = 1e-3) -> list:
    """Rows ``(label, gap, stderr)`` of :func:`stationarity_gap` at
    ``control``: first in the two probes every verification battery shares,
    a unit shift (``const_1``) and a unit shift over the second half of the
    horizon (``late_half``), then in each ``(label, direction)`` of
    ``directions``, the battery's own."""
    half = problem.grid.horizon / 2.0
    shared = (("const_1", 1.0), ("late_half", lambda t, x, x_seg, law: 1.0 if t >= half else 0.0))
    return [
        (label, *stationarity_gap(problem, control, direction, eps=eps))
        for label, direction in (*shared, *directions)
    ]


def _paired_rows(base_label: str, base_cost: np.ndarray, labels, costs) -> list:
    """Rows ``(label, J, stderr, gap, gap_stderr)`` of a base control and
    its variants, from per-particle costs on common noise: J and its
    standard error, then the paired gap J(base) - J(variant) with its own
    (0, 0 on the base row)."""
    rows = [(base_label, *_mean_and_stderr(base_cost), 0.0, 0.0)]
    for label, cost in zip(labels, costs):
        rows.append((label, *_mean_and_stderr(cost), *_mean_and_stderr(base_cost - cost)))
    return rows
