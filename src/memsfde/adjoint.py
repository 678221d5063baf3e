"""Adjoint machinery for memory mean-field control problems.

Three pieces live here:

* ``SegmentFunctional`` / ``riesz_advanced`` / ``riesz_duality_check`` — bounded
  linear functionals on memory segments (an averaging kernel on [0, delta], or
  evaluation at a fixed lag) and the change-of-variables identity that converts
  "functional applied to the forward window of p, integrated against Y" into
  "p(t) times the functional applied to the backward window of Y".  Paths are
  1-D arrays of values on the functional's own mesh, from t = 0.  Both sides
  use zero extension outside [0, T]; the identity is exact in continuous time
  and O(dt) on the mesh.
* ``solve_absde`` — least-squares Monte Carlo backward sweep for the adjoint
  triple (p0, q0, r0).  The equation is *advanced*: the driver at time t may
  read the (already computed) p0 on [t, t+delta], read as zero past the
  horizon: the convention under which the duality identity above is exact.
  The solve keeps p0 in two rows and hands every row to one ``on_row`` hook
  as it is solved; a caller whose driver reads p0 ahead, or a combination
  of the triple, writes it there into a ``SweepContext``, the one store of
  a sweep's rows ahead, which its driver reads.
  Conditioning on the time-t information is done by regression onto a state
  basis; the Brownian and compensated-jump loadings come out as the regression
  coefficients of the basis interacted with the corresponding noise increments.
* ``stationarity_gap`` — a numerical optimality test: the
  common-random-number central difference of the performance functional in
  a perturbation direction.  The maximum condition on the Hamiltonian is
  checked per problem, by each battery in its own module.
"""

from __future__ import annotations

import inspect
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from memsfde.engine import (
    ControlProblem,
    MeshMismatchError,
    ParticleEnsemble,
    _Band,
    _mean_and_stderr,
    combine_controls,
)
from memsfde.grid import SimGrid, _check_step, _is_integer, mesh_index, trapezoid_weights
from memsfde.measures import EmpiricalMeasure

__all__ = [
    "SegmentFunctional",
    "AdjointTriple",
    "riesz_advanced",
    "riesz_duality_check",
    "solve_absde",
    "default_basis",
    "SweepContext",
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


def _path_values(path) -> np.ndarray:
    """A path's mesh values as a float array; a path that is empty, not
    1-D or not finite is refused."""
    values = np.asarray(path, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError(f"a path must be a non-empty 1-d array of mesh values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("path values must be finite")
    return values


def riesz_advanced(f: SegmentFunctional, p, k: int) -> float:
    """Apply the functional to the forward window of the path ``p`` at step k.

    ``p`` holds the path's values on the functional's mesh (step ``f.dt``)
    from t = 0, and ``k`` indexes one of them.  Reads past the stored path
    use zero extension, matching the convention that adjoint loadings vanish
    beyond the horizon; paths that already carry a terminal extension simply
    get read as stored.
    """
    p = _path_values(p)
    if not (_is_integer(k) and 0 <= k < p.size):
        raise ValueError(f"step k={k!r} is not one of the path's {p.size} mesh steps")
    window = np.zeros(f.delta_steps + 1)
    ahead = p[k : k + f.delta_steps + 1]
    window[: ahead.size] = ahead
    return float(f.apply(window))


def riesz_duality_check(f: SegmentFunctional, p, y) -> tuple[float, float]:
    """Both sides of the forward/backward pairing identity.

    ``p`` and ``y`` hold values on the functional's mesh (step ``f.dt``)
    from t = 0; ``y``'s length fixes the horizon T.
    lhs = integral over [0, T] of (f applied to p's forward window) * Y(t);
    rhs = integral over [0, T] of p(t) * (f applied to Y's backward window),
    with Y treated as zero outside [0, T] and p as zero past its stored end.
    ``p`` must hold at least ``y``'s number of values.  The two agree
    exactly in continuous time and to O(dt) under the trapezoid rule used
    here.
    """
    p, y = _path_values(p), _path_values(y)
    n = len(y)  # mesh of [0, T]
    d = f.delta_steps
    w = trapezoid_weights(n, f.dt)

    lhs = 0.0
    for k in range(n):
        lhs += w[k] * y[k] * riesz_advanced(f, p, k)

    rhs = 0.0
    for k in range(n):
        back = np.zeros(d + 1)
        stop = min(d, k)
        back[: stop + 1] = y[k - stop : k + 1][::-1]
        rhs += w[k] * p[k] * float(f.apply(back))
    return lhs, rhs


# ---------------------------------------------------------------------------
# advanced BSDE backward solver (least-squares Monte Carlo)


@dataclass
class AdjointTriple:
    """Regression-valued adjoint processes on the simulation mesh.

    ``p0``, ``q0`` and ``r0`` cover the [0, T] mesh only; past the horizon
    all three read as zero, as a driver's :class:`SweepContext` reads them.
    ``q0`` and ``r0`` are per-step noise loadings whose final column is
    zero.  Each is an (N, n_steps + 1) view of one time-major (3, n_steps +
    1, N) array, so column k is one contiguous row, and a caller that keeps
    only one of the three keeps the memory of all three.  A solve that hands its rows to the
    caller's ``on_row`` (see :func:`solve_absde`) keeps none of them, and
    all three are ``None``.  ``deficient_steps`` are the steps whose
    regression was rank-deficient, in time order.
    """

    grid: SimGrid
    p0: np.ndarray | None  # (N, n_steps + 1)
    q0: np.ndarray | None  # (N, n_steps + 1)
    r0: np.ndarray | None  # (N, n_steps + 1)
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


def default_basis(ens: ParticleEnsemble, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Polynomial regression features {1, X(t), X(t - delta), X^2, X * X_delta}.

    Written into the feature-major (5, N) buffer ``out``, a new one when
    ``out`` is None, and returned as its (N, 5) transposed view, so each
    feature is one contiguous row.  That is the basis protocol of
    :func:`solve_absde`.
    """
    rows = np.empty((5, ens.grid.n_particles)) if out is None else out
    _polynomial_rows(ens, k, rows)
    return rows.T


class SweepContext:
    """The rows of one (N,) quantity that a backward sweep may still read
    ahead, for an ABSDE driver to read.

    A driver may read strictly ahead of the current step and at most one
    memory window ahead (that is what makes the equation advanced).
    Everything past the horizon reads as zero — the convention under which
    the duality identity behind the driver is exact.  The caller whose
    driver reads a store writes it from the rows :func:`solve_absde` hands
    to ``on_row``: p0 for a driver of p0 ahead, or a combination of the
    triple.

    Rows are written horizon first through ``row(k)``; ``future(k, ahead)``
    and ``advanced_average`` read the rows ahead of step k.  All three
    refuse, with a ``ValueError`` naming it, a step k that is not an integer
    in 0..K (a bool is not one), so no write lands past the horizon, and
    ``future`` refuses an offset that is not an integer.  ``row`` also
    refuses a step asked for out of order.  Only this class
    knows the layout: a band (``engine._Band``) of d + 1 + s rows, s =
    ceil((d + 1) / 4), indexed by reversed time, so step j of an n_steps
    mesh with d lag steps is column d + n_steps - j.  The d zero history
    columns of the band are the steps past the horizon, and the window
    ending at step k + 1 holds steps k + 1..k + d + 1 in lead order, an
    F-contiguous (N, d + 1) view.  The band moves its d + 1 newest rows once
    every s steps, about four rows a step.
    """

    def __init__(self, grid: SimGrid):
        self.grid = grid
        d = grid.delta_steps
        self._band = _Band(grid, d + 1 + (d + 4) // 4)
        self._next = grid.n_steps  # the step whose row is asked for next

    def _column(self, k: int) -> int:
        """The band column of step k; a step that is not an integer in
        0..K is refused."""
        if not (_is_integer(k) and 0 <= k <= self.grid.n_steps):
            raise ValueError(f"step {k!r} is not an integer in 0..{self.grid.n_steps}")
        return self.grid.delta_steps + self.grid.n_steps - k

    def row(self, k: int) -> np.ndarray:
        """The row of step k, for the caller to write.  Rows are asked for
        horizon first, one step at a time, and asking for step k's keeps
        the rows of steps k + 1..k + d + 1, all that a driver at step k or
        k - 1 may read.  Any step but the expected one, K first and then
        the step before the last one asked for, is refused."""
        i = self._column(k)
        if k != self._next:
            expected = f"step {self._next}" if self._next >= 0 else "no step, every row was asked for"
            raise ValueError(f"row of step {k!r} asked for out of order; expected {expected}")
        self._next = k - 1
        self._band.make_room(i - 1)
        return self._band.column(i)

    def _check_ahead(self, k: int, ahead: int) -> None:
        """Refuse a read at step k that is not 1..d steps ahead."""
        if not _is_integer(ahead):
            raise ValueError(f"row at step {k}: read offset {ahead!r} is not an integer")
        if ahead < 1:
            raise ValueError(f"row at step {k}: drivers may only read strictly ahead (got offset {ahead})")
        if ahead > self.grid.delta_steps:
            raise ValueError(f"row at step {k}: read offset {ahead} exceeds the memory window")

    def future(self, k: int, ahead: int) -> np.ndarray:
        """The row of step k + ahead, zero past the horizon; ``ahead`` must
        be in 1..d."""
        self._check_ahead(k, ahead)
        return self._band.column(self._column(k) - ahead)

    def advanced_average(self, k: int, f: SegmentFunctional) -> np.ndarray:
        """Kernel-weighted integral of the future rows over the memory window.

        Trapezoid in the lag variable; the lag-0 endpoint is read one step
        ahead to keep the sweep explicit (an O(dt^3) perturbation of the
        step's integral).  Computed as one matrix-vector product over the
        live part of the window that ends at step k + 1, the rows of steps
        k + 1..min(k + d, K): the lag-0 weight is folded onto lag 1, and
        lags past the horizon read zero, so their weights are dropped.
        ``f`` must live on the sweep's mesh step.
        """
        if f.dt != self.grid.dt:
            raise MeshMismatchError(f"the functional has dt={f.dt!r}, the sweep's mesh dt={self.grid.dt!r}")
        if f.kind == "evaluation":
            return self.future(k, f.point_steps)
        d = f.delta_steps
        lags = max(d, 1)
        i = self._column(k)
        self._check_ahead(k, lags)
        w = f.weights
        folded = np.zeros(lags)
        folded[:d] = w[1:]
        folded[0] += w[0]
        live = min(lags, self.grid.n_steps - k)
        return self._band.window(i - 1)[:, :live] @ folded[:live]


def solve_absde(
    ens: ParticleEnsemble,
    terminal,
    driver=None,
    basis=None,
    warn: bool = True,
    on_row=None,
) -> AdjointTriple:
    """Backward least-squares sweep for the adjoint triple along an ensemble.

    ``terminal(x_T, law_T)`` gives p0 at the horizon.  ``driver(k)``
    returns the per-particle dt-coefficient at step k.  A driver that reads
    the solved future, p0 or a combination of the triple on [t, t+delta],
    reads it from a :class:`SweepContext` that the caller writes from the
    rows handed to ``on_row``.  Each step
    regresses ``p0[k+1] + dt * driver`` onto the basis augmented by basis
    interactions with the step's Brownian and compensated-jump increments;
    the plain-basis fit is p0 at k and the interaction fits are the noise
    loadings q0, r0.  The ``[φ, φ·ΔW, φ·ΔÑ]`` design is stored feature-major:
    one C-contiguous (n_blocks·m, N) buffer reused by every step, whose row
    blocks hold the basis and its products with the step's noise rows, so
    every write and every fitted value is a contiguous row.
    ``basis(ens, k, out=None)`` returns step k's (N, m) features.  The
    solve passes ``out``, the design's (m, N) first block: a basis that
    writes its features there and returns ``out.T``, as
    :func:`default_basis` and :func:`memsfde.lq_memory.lq_basis` do, is not
    copied, and any other (N, m) array is copied in.  The first step calls
    the basis once more, without ``out``, to learn m before the design is
    made.  The design's (N, n) transposed view is solved by ``_regress``:
    a symmetric eigensolve of its column-scaled Gram matrix, with
    eigenvalues at most ``max(N, n) * eps`` times the largest counted as
    zero, plus one residual refinement step.  Rank-deficient designs fall
    back to the least-norm solution (for a collapsed basis that is exactly
    the ensemble mean) and are reported via ``deficient_steps`` plus,
    unless ``warn`` is false, a logged warning.

    p0 takes two (N,) rows: step k + 1's, the target, and step k's, which
    the step writes.  q0 and r0 take one row each.
    ``on_row(k, p0, q0, r0)`` receives the rows of every step as they are
    solved, the horizon first (its loadings are zero rows): views that are
    valid during the call only and must not be written.  A hook that takes
    ``(k, p0)`` alone gets p0 alone, and the solve fits no loadings for it.
    The returned triple then holds no process.  Without ``on_row`` the
    solve copies every row into one time-major array and returns the whole
    triple.  The solve keeps no statistic of its targets: without a driver,
    step k's target is p0 at step k + 1, so its Monte Carlo standard error
    is that row's.

    A terminal value must be finite and a scalar or (N,) array, a driver
    value a scalar or (N,) array, and every basis (N, m) with the first
    step's m; a bad value raises ``ValueError`` naming its step.
    """
    grid = ens.grid
    K, N, dt = grid.n_steps, grid.n_particles, grid.dt
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

    # the q0 and r0 rows handed to the hook after p0; none for a hook of p0 alone
    loadings = (np.zeros(N), np.zeros(N)) if _takes_loadings(on_row) else ()
    # p0 at step k + 1, the step's target, and the row step k writes
    p, spare = np.empty(N), np.empty(N)

    xT = ens.state_column(K)
    p[...] = _row_value(terminal(xT, EmpiricalMeasure(xT)), N, "terminal")
    if not np.isfinite(p).all():
        raise ValueError("terminal must be finite")
    on_row(K, p, *loadings)

    lam_dt = ens.jumps.intensity * dt if use_jumps else 0.0
    n_blocks = 3 if use_jumps else 2
    deficient: list[int] = []
    rows = basis_rows = None

    for k in range(K - 1, -1, -1):
        target = p
        if driver is not None:
            target = target + dt * _row_value(driver(k), N, f"driver at step {k}")
        if rows is None:
            # the first step learns the width m from a basis of its own,
            # freed before the design is made
            shape = np.shape(basis(ens, k))
            if len(shape) != 2 or shape[0] != N:
                raise ValueError(f"basis at step {k} has shape {shape}, not ({N}, m)")
            m = shape[1]
            # feature-major design: block b is rows [b*m, (b+1)*m)
            rows = np.empty((n_blocks * m, N))
            basis_rows = rows[:m]
        phi = basis(ens, k, out=basis_rows)
        if np.shape(phi) != (N, m):
            raise ValueError(f"basis at step {k} has shape {np.shape(phi)}, not ({N}, {m})")
        if not np.may_share_memory(phi, basis_rows):
            basis_rows[...] = phi.T
        del phi  # so that two steps' bases are never held at once
        np.multiply(basis_rows, ens.brownian[:, k], out=rows[m : 2 * m])
        if use_jumps:
            # the counts sum exactly in floats, so dn holds one row
            dn = ens.jump_counts[:, k, :].sum(axis=1, dtype=float)
            dn -= lam_dt
            np.multiply(basis_rows, dn, out=rows[2 * m :])
            del dn
        beta, rank = _regress(rows.T, target, step=k)
        del target  # neither row is held through the hook
        if rank < rows.shape[0]:
            deficient.append(k)
        p, spare = np.matmul(beta[:m], basis_rows, out=spare), p
        if loadings:
            np.matmul(beta[m : 2 * m], basis_rows, out=loadings[0])
            if use_jumps:
                np.matmul(beta[2 * m :], basis_rows, out=loadings[1])
        on_row(k, p, *loadings)

    if warn:
        _log_rank_deficiency(log, (len(deficient),), K)
    triple = (None, None, None) if kept is None else kept.transpose(0, 2, 1)
    return AdjointTriple(grid, *triple, tuple(reversed(deficient)))


def _takes_loadings(hook) -> bool:
    """Whether ``hook`` takes a step's loadings, ``(k, p0, q0, r0)``; a
    hook that cannot take four arguments is handed ``(k, p0)``."""
    try:
        inspect.signature(hook).bind(None, None, None, None)
    except TypeError:
        return False
    return True


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


def _paired_rows(base_label: str, base_cost: np.ndarray, labels, costs) -> list:
    """Rows ``(label, J, stderr, gap, gap_stderr)`` of a base control and
    its variants, from per-particle costs on common noise: J and its
    standard error, then the paired gap J(base) - J(variant) with its own
    (0, 0 on the base row)."""
    rows = [(base_label, *_mean_and_stderr(base_cost), 0.0, 0.0)]
    for label, cost in zip(labels, costs):
        rows.append((label, *_mean_and_stderr(cost), *_mean_and_stderr(base_cost - cost)))
    return rows


# the paired-dominance allowance: a variant may beat the base by this many
# paired standard errors before the base is judged dominated
DOMINANCE_STDERRS = 3.0


def dominates(row) -> bool:
    """The paired-dominance rule for a row ``(label, J, stderr, gap,
    gap_stderr)`` of :func:`_paired_rows`: the gap J(base) - J(variant) is
    at least -``DOMINANCE_STDERRS`` paired standard errors.  The base row's
    gap and its standard error are 0, so it passes."""
    *_, gap, gap_stderr = row
    return gap >= -DOMINANCE_STDERRS * gap_stderr
