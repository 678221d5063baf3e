"""Linear-quadratic control of a state with distributed-delay feedback.

Dynamics and objective:

    dX(t) = [ integral over [0, delta] of kernel(s) X(t - s) ds + u(t) ] dt
            + alpha0(t) dB(t) + beta0(t) z JUMPS,
    J(u)  = -E[ X(T)^2 + integral of u(t)^2 dt ] / 2   (maximize).

The first-order condition couples the control to the adjoint, u = p0, where
p0 solves an advanced backward equation: its driver at time t is the
conditional expectation of the kernel-weighted integral of p0 over [t, t+delta]
(zero past the horizon), with terminal value -X(T).  No closed form exists in
general, so ``solve_lq`` runs a damped fixed-point iteration — forward
simulate with the current control, backward least-squares solve, blend the
control toward the new p0 — and ``verify_lq`` interrogates the result:
coupling residual, idempotence, first-order stationarity in several
directions, paired performance comparisons, and an exact-quadratic parabola
fit in the perturbation size.

Two sanity anchors have hand-computable solutions: with no kernel and no
noise the optimal control for x0 = 1, T = 1 is the constant u = -0.5 with
J = -0.25 exactly, and with no kernel but unit Brownian noise the optimal
control satisfies u(0) = -x0/(1 + T).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from memsfde.adjoint import (
    DOMINANCE_STDERRS,
    SegmentFunctional,
    SweepContext,
    _check_eps,
    _log_rank_deficiency,
    _paired_rows,
    _polynomial_rows,
    dominates,
    solve_absde,
    stationarity_gap,
)
from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    FixedPointDivergence,
    JumpModel,
    _as_time_fn,
    _check_finite,
    _check_finite_on_mesh,
    combine_controls,
    simulate,
)
from memsfde.grid import SimGrid, _is_integer, trapezoid_weights

__all__ = [
    "LQSpec",
    "FBSDEIterationReport",
    "FixedPointDivergence",
    "LQVerification",
    "LQSolution",
    "solve_lq",
    "verify_lq",
    "control_problem",
    "lq_basis",
]


log = logging.getLogger("memsfde.lq_memory")


def _is_zero_const(v) -> bool:
    return not callable(v) and float(v) == 0.0


@dataclass(frozen=True)
class LQSpec:
    """Delay kernel on [0, delta], additive noise loadings, initial history.

    The default is a noise-excited regulator (zero initial history): the
    state law is then symmetric under flipping the driving noise, which the
    optimality diagnostics inherit, so their estimates carry no systematic
    offset for deterministic perturbation directions.  The constant
    coefficients and the kernel's values must be finite.
    """

    kernel: object = 1.0  # constant, callable(s), or mesh array (delta_steps+1,)
    alpha0: object = 0.3
    beta0: object = 0.0
    xi: object = 0.0
    jumps: JumpModel = field(default_factory=JumpModel.none)

    def __post_init__(self):
        _check_finite(self, "kernel", "alpha0", "beta0")

    def delay_functional(self, grid: SimGrid) -> SegmentFunctional:
        """The kernel as an averaging functional on the grid's memory window;
        its ``weights`` turn a backward window into the delay integral."""
        return SegmentFunctional.averaging(self.kernel, grid.delta_steps, grid.dt)


def control_problem(spec: LQSpec, grid: SimGrid) -> ControlProblem:
    """The problem every sweep and check of ``spec`` simulates on ``grid``.
    The kernel and the noise loadings must be finite on the mesh."""
    _check_finite_on_mesh(spec, grid, "alpha0", "beta0")
    dw = spec.delay_functional(grid).weights
    a0 = _as_time_fn(spec.alpha0)
    b0 = _as_time_fn(spec.beta0)

    def drift(t, x, x_seg, law, law_seg, u, u_seg):
        return x_seg @ dw + u

    def diffusion(t, x, x_seg, law, law_seg, u, u_seg):
        return np.full_like(x, a0(t))

    def jump(t, x, x_seg, law, law_seg, u, u_seg, z):
        return np.full_like(x, b0(t) * z)

    coeffs = CoefficientSet(
        drift=drift,
        diffusion=None if _is_zero_const(spec.alpha0) else diffusion,
        jump=None if (_is_zero_const(spec.beta0) or not spec.jumps.active) else jump,
        running_cost=lambda t, x, x_seg, law, law_seg, u, u_seg: -0.5 * u * u,
        terminal_cost=lambda x, law: -0.5 * x * x,
    )
    return ControlProblem(coeffs=coeffs, grid=grid, jumps=spec.jumps, xi=spec.xi)


def lq_basis(spec: LQSpec, grid: SimGrid):
    """Regression basis: the default polynomial features plus the running
    delay integral — the statistic that drives the dynamics.  Like
    :func:`~memsfde.adjoint.default_basis`, it writes its (6, N) features
    into ``out`` when given one."""
    dw = spec.delay_functional(grid).weights

    def basis(ens, k, out=None):
        rows = np.empty((6, ens.grid.n_particles)) if out is None else out
        _polynomial_rows(ens, k, rows)
        np.matmul(ens.backward_window(k), dw, out=rows[5])
        return rows.T

    return basis


def _on_mesh(spec: LQSpec, grid: SimGrid) -> LQSpec:
    """``spec`` with its kernel replaced by its values on the grid's memory
    window, the same floats, so that the problem, the basis and the driver
    built from it on ``grid`` evaluate a callable kernel once, not each."""
    return replace(spec, kernel=spec.delay_functional(grid).kernel)


def _damped_sweep(ens, spec: LQSpec, control: np.ndarray, damping: float, residual=None) -> tuple[float, int]:
    """One LQ sweep: the backward solve of the adjoint along ``ens`` and the
    damped update of ``control`` toward its p0.  ``spec`` is on the mesh
    (:func:`_on_mesh`); from it the sweep builds the basis
    (:func:`lq_basis`), the kernel functional and the
    :class:`~memsfde.adjoint.SweepContext` of p0 that its hook writes and
    its driver, the kernel-weighted average of future p0 (zero past the
    horizon), reads.  A kernel that vanishes, or a window [0, delta] of one
    mesh point, integrates to zero: then there is no driver and no store.
    The update is formed one time row at a time as the solve hands each p0
    row over (the hook takes p0 alone, so the solve fits no loadings): the
    new row is (1 - damping) c + damping p, and the change new - c is
    squared and summed per particle with the mesh's trapezoid weights.
    Given ``residual``, the new row overwrites the control's and
    ``residual[k]`` takes the row's coupling residual ``|mean(p - new)|``;
    the solve reads no control, so the rows it has passed may change.
    Returns the change norm, the root mean over particles of that sum, and
    the solve's number of rank-deficient steps.  The update allocates three
    (N,) rows."""
    grid = ens.grid
    wq = trapezoid_weights(grid.n_steps + 1, grid.dt)
    new_row, gap_row, change_sq = np.empty(grid.n_particles), np.empty(grid.n_particles), np.zeros(grid.n_particles)
    functional = spec.delay_functional(grid)
    store = SweepContext(grid) if grid.delta_steps and np.any(functional.kernel != 0.0) else None

    def on_row(k, p):
        if store is not None:
            store.row(k)[...] = p
        c = control[:, k]
        np.multiply(c, 1.0 - damping, out=new_row)
        np.multiply(p, damping, out=gap_row)
        np.add(new_row, gap_row, out=new_row)
        if residual is not None:
            np.subtract(p, new_row, out=gap_row)
            residual[k] = abs(gap_row.mean())
        np.subtract(new_row, c, out=gap_row)
        if residual is not None:
            c[...] = new_row
        np.multiply(gap_row, gap_row, out=gap_row)
        np.multiply(gap_row, wq[k], out=gap_row)
        np.add(change_sq, gap_row, out=change_sq)

    driver = None if store is None else lambda k: store.advanced_average(k, functional)
    basis = lq_basis(spec, grid)
    adjoint = solve_absde(ens, terminal=lambda x, law: -x, driver=driver, basis=basis, warn=False, on_row=on_row)
    return float(np.sqrt(np.mean(change_sq))), len(adjoint.deficient_steps)


@dataclass(frozen=True)
class FBSDEIterationReport:
    """Trace of the damped control iteration: per-sweep control change
    (root-mean-square over particles of the mesh-L2 norm of the update) and
    per-sweep number of rank-deficient regression steps.  ``iterations`` is
    the number of sweeps, and ``converged`` says whether the last change
    fell below ``tol``, the solve's stopping rule."""

    changes: tuple
    damping: float
    tol: float
    deficient_counts: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.changes)

    @property
    def converged(self) -> bool:
        return bool(self.changes) and self.changes[-1] < self.tol


class LQSolution(NamedTuple):
    """A solved control with the problem it was solved on.

    ``control`` is the per-particle control on the [0, T] mesh (shape
    (N, n_steps + 1)), ``coupling_residual`` the (n_steps + 1,) gap
    ``|mean over particles of (p0 - control)|`` between the final backward
    solve and the returned control, and ``report`` the iteration trace.
    The final backward solve itself is not kept.
    ``problem`` is the solve's own :class:`~memsfde.engine.ControlProblem`,
    whose frozen noise every later simulation of the control shares, so
    checks draw nothing new.
    """

    control: np.ndarray
    coupling_residual: np.ndarray
    report: FBSDEIterationReport
    spec: LQSpec
    problem: ControlProblem


def solve_lq(
    spec: LQSpec,
    grid: SimGrid,
    damping: float = 0.5,
    tol: float = 1e-4,
    max_iter: int = 50,
) -> LQSolution:
    """Damped fixed-point solve of the coupled forward-backward system.

    Builds the problem once and returns it in the :class:`LQSolution`; a
    callable kernel is evaluated once, on the memory window's mesh.
    Noise is frozen across sweeps (counter-based streams), so the iteration
    is a deterministic map on control arrays; the sweeps simulate without
    the cost, which none reads.  Five consecutive growing sweeps, or one
    that leaves a non-finite control, abort with
    :class:`FixedPointDivergence`.  Rank-deficient regressions are
    summarised in one warning for all sweeps.  The damped update runs in
    place, one time row at a time, as the backward solve hands each p0 row
    over: the new row overwrites the control's, the row's coupling
    residual ``|mean(p0 - new)|`` is kept, and the squared change is
    summed per particle into the change norm.  So no sweep holds p0
    beyond the rows its driver reads.  The residual of the returned
    control is that of the last sweep, and no sweep's arrays outlive the
    solve.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    meshed = _on_mesh(spec, grid)
    problem = control_problem(meshed, grid)
    # the sweeps' dynamics, on the problem's noise; no sweep sums a cost
    dynamics = replace(problem.coeffs, running_cost=None, terminal_cost=None)
    K, N = grid.n_steps, grid.n_particles

    # time-major like the ensemble, so each step reads its control as a row
    control = np.zeros((K + 1, N)).T
    coupling_residual = np.zeros(K + 1)
    changes: list[float] = []
    deficient: list[int] = []
    growing = 0

    for _ in range(max_iter):
        # only one sweep's ensemble and adjoint are alive at a time
        ens = simulate(dynamics, grid, problem.jumps, problem.xi, control, problem.noise)
        change, n_deficient = _damped_sweep(ens, meshed, control, damping, coupling_residual)
        del ens
        deficient.append(n_deficient)
        if not np.isfinite(control).all():
            # no later sweep or check could simulate it
            sweep = len(changes) + 1
            raise FixedPointDivergence(f"the control is not finite after sweep {sweep}; check coefficient growth")
        if changes and change > changes[-1]:
            growing += 1
            if growing >= 5:
                raise FixedPointDivergence(
                    f"control change grew for {growing} consecutive sweeps (last: {change:g})"
                )
        else:
            growing = 0
        changes.append(change)
        if change < tol:
            break

    _log_rank_deficiency(log, deficient, K)

    report = FBSDEIterationReport(changes=tuple(changes), damping=damping, tol=tol, deficient_counts=tuple(deficient))
    return LQSolution(control, coupling_residual, report, spec, problem)


# the battery's thresholds: the largest coupling residual |mean(p0 - u)|
# over the mesh, and the largest |vertex| of the performance parabola
COUPLING_TOL = 1e-3
VERTEX_TOL = 0.05


@dataclass(frozen=True)
class LQVerification:
    coupling_residual_max: float
    idempotence_change: float
    stationarity: tuple  # (label, gap, stderr)
    j_rows: tuple  # (label, J, stderr, gap_vs_solution, gap_stderr)
    parabola_quad: float
    parabola_vertex: float
    parabola_rel_residual: float
    parabola_points: tuple = ()  # (lambda, J) ordinates of the fit

    def rows(self):
        yield "coupling_residual_max", self.coupling_residual_max
        yield "idempotence_change", self.idempotence_change
        for label, gap, se in self.stationarity:
            yield f"stationarity_{label}", gap
            yield f"stationarity_{label}_stderr", se
        for label, j, se, gap, gse in self.j_rows:
            yield f"J_{label}", j
            yield f"J_{label}_gap", gap
        yield "parabola_quad", self.parabola_quad
        yield "parabola_vertex", self.parabola_vertex
        yield "parabola_rel_residual", self.parabola_rel_residual

    def checks(self):
        """The battery's checks ``(name, passed, detail)``: the coupling
        residual below ``COUPLING_TOL``, a concave performance parabola
        whose vertex lies within ``VERTEX_TOL`` of zero, and the solution
        dominating every shifted control (:func:`~memsfde.adjoint.dominates`)."""
        residual, quad, vertex = self.coupling_residual_max, self.parabola_quad, self.parabola_vertex
        yield "coupling_residual", residual < COUPLING_TOL, f"max_t |mean(p - u)| = {residual:.3e}"
        yield "performance_concave", quad < 0.0, f"quadratic coefficient {quad:.4f}"
        yield "performance_vertex_near_zero", abs(vertex) < VERTEX_TOL, f"vertex at lambda = {vertex:.3e}"
        dominance = f"J(solution) >= J(shifted) - {DOMINANCE_STDERRS:g} paired stderr"
        yield "performance_dominance", all(map(dominates, self.j_rows)), dominance


def verify_lq(solution: LQSolution, eps: float = 1e-3) -> LQVerification:
    """First-order and pairwise optimality interrogation of a solved control.

    ``solution`` is what :func:`solve_lq` returns.  Every simulation runs on
    ``solution.problem``, so on the solve's noise, which is not drawn again;
    the idempotence sweep is damped like the solve's (``report.damping``)
    and its change is formed by the same update, which leaves the control
    as it is here.
    The coupling residual is the maximum of ``solution.coupling_residual``,
    which the solve formed from its last backward solve.
    The parabola diagnostics exploit that for frozen noise the performance is
    exactly quadratic in the size of an additive perturbation, so a quadratic
    fit over five sizes must be essentially interpolation: its curvature is
    negative and its vertex sits at the distance of the solved control from
    the true discrete optimizer in that direction.
    ``eps``, the stationarity probes' size, must be a positive finite number;
    it is checked before anything is simulated.
    """
    _check_eps(eps)
    control, coupling_residual, report, spec, problem = solution
    grid = problem.grid
    coupling_residual_max = float(coupling_residual.max())

    # idempotence: one more forward+backward sweep barely moves the control
    ens = problem.simulate(control)
    idempotence_change, n_deficient = _damped_sweep(ens, _on_mesh(spec, grid), control, report.damping)
    if n_deficient > max(report.deficient_counts, default=0):
        _log_rank_deficiency(log, (n_deficient,), grid.n_steps)
    # the unshifted cost is the idempotence ensemble's, which is not needed after
    base_cost = ens.cost
    del ens

    # a unit shift, a unit shift over the second half of the horizon and
    # the delayed state, each a central difference of the performance
    half = grid.horizon / 2.0
    directions = (
        ("const_1", 1.0),
        ("late_half", lambda t, x, x_seg, law: 1.0 if t >= half else 0.0),
        ("delayed_state", lambda t, x, x_seg, law: x_seg[:, -1]),
    )
    stationarity = tuple(
        (label, *stationarity_gap(problem, control, direction, eps=eps)) for label, direction in directions
    )

    # pathwise cost per shift size, each simulated once: the compared shifts
    # first, then the parabola's other sizes
    compared = (0.2, -0.2, 0.5, -0.5)
    sizes = (*compared, -0.25, 0.25)
    shifted = problem.costs([combine_controls(control, 1.0, s) for s in sizes])
    j_rows = _paired_rows("solution", base_cost, [f"shift_{s:+g}" for s in compared], shifted[: len(compared)])

    lam_grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    costs = {0.0: base_cost, **dict(zip(sizes, shifted))}
    js = np.array([float(costs[float(l)].mean()) for l in lam_grid])
    coefs = np.polyfit(lam_grid, js, 2)
    fit = np.polyval(coefs, lam_grid)
    scale = max(float(np.max(js) - np.min(js)), 1e-300)
    rel_residual = float(np.max(np.abs(fit - js)) / scale)
    quad = float(coefs[0])
    vertex = float(-coefs[1] / (2.0 * coefs[0])) if coefs[0] != 0.0 else math.inf

    return LQVerification(
        coupling_residual_max=coupling_residual_max,
        idempotence_change=idempotence_change,
        stationarity=stationarity,
        j_rows=tuple(j_rows),
        parabola_quad=quad,
        parabola_vertex=vertex,
        parabola_rel_residual=rel_residual,
        parabola_points=tuple(zip(lam_grid.tolist(), js.tolist())),
    )
