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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from memsfde.adjoint import (
    AdjointTriple,
    SegmentFunctional,
    _polynomial_rows,
    solve_absde,
    stationarity_gap,
)
from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    JumpModel,
    _as_time_fn,
    _mean_and_stderr,
    combine_controls,
    pathwise_cost,
)
from memsfde.grid import SimGrid, trapezoid_weights

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


class FixedPointDivergence(RuntimeError):
    """Control changes grew for several consecutive fixed-point sweeps."""


def _is_zero_const(v) -> bool:
    return not callable(v) and float(v) == 0.0


@dataclass(frozen=True)
class LQSpec:
    """Delay kernel on [0, delta], additive noise loadings, initial history.

    The default is a noise-excited regulator (zero initial history): the
    state law is then symmetric under flipping the driving noise, which the
    optimality diagnostics inherit, so their estimates carry no systematic
    offset for deterministic perturbation directions.
    """

    kernel: object = 1.0  # constant, callable(s), or mesh array (delta_steps+1,)
    alpha0: object = 0.3
    beta0: object = 0.0
    xi: object = 0.0
    jumps: JumpModel = field(default_factory=JumpModel.none)

    def delay_functional(self, grid: SimGrid) -> SegmentFunctional:
        """The kernel as an averaging functional on the grid's memory window;
        its ``weights`` turn a backward window into the delay integral."""
        return SegmentFunctional.averaging(self.kernel, grid.delta_steps, grid.dt)


def control_problem(spec: LQSpec, grid: SimGrid) -> ControlProblem:
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
    delay integral — the statistic that drives the dynamics."""
    dw = spec.delay_functional(grid).weights

    def basis(ens, k):
        rows = np.empty((6, ens.grid.n_particles))
        _polynomial_rows(ens, k, rows)
        np.matmul(ens.backward_window(k), dw, out=rows[5])
        return rows.T

    return basis


def _adjoint_driver(spec: LQSpec, grid: SimGrid):
    """Advanced driver of the adjoint equation: the kernel-weighted average of
    future p0, zero past the horizon; ``None`` when the kernel vanishes or
    the window [0, delta] is a single mesh point (its integral is zero)."""
    functional = spec.delay_functional(grid)
    if grid.delta_steps == 0 or not np.any(functional.kernel != 0.0):
        return None

    def driver(ctx, k):
        return ctx.advanced_average(k, functional)

    return driver


def _solve_adjoint(ens, driver, basis_fn) -> AdjointTriple:
    """The adjoint of one sweep.  The solve and its checks read only p0, so
    the loadings are kept only while the driver can read them."""
    return solve_absde(ens, terminal=lambda x, law: -x, driver=driver, basis=basis_fn, warn=False, loadings="window")


def _warn_deficient(counts, n_steps: int) -> None:
    """One warning line for the rank-deficient regression steps of several
    backward solves (expected at steps whose lagged features are constant)."""
    hit = [c for c in counts if c]
    if not hit:
        return
    if len(hit) == len(counts) and min(hit) == max(hit):
        where = f"{hit[0]} of {n_steps} steps in each of {len(counts)} solves"
    else:
        where = f"{min(hit)} to {max(hit)} of {n_steps} steps in {len(hit)} of {len(counts)} solves"
    log.warning("rank-deficient regression at %s; least-norm/ensemble-mean fallback used", where)


@dataclass(frozen=True)
class FBSDEIterationReport:
    """Trace of the damped control iteration: per-sweep control change
    (root-mean-square over particles of the mesh-L2 norm of the update) and
    per-sweep number of rank-deficient regression steps."""

    changes: tuple
    damping: float
    tol: float
    converged: bool
    deficient_counts: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.changes)


class LQSolution(NamedTuple):
    """A solved control with the problem it was solved on.

    ``control`` is the per-particle control on the [0, T] mesh (shape
    (N, n_steps + 1)), ``adjoint`` the final backward solve (its loadings
    are windowed, so it keeps p0 only) and ``report`` the iteration trace.
    ``problem`` is the solve's own :class:`~memsfde.engine.ControlProblem`,
    whose frozen noise every later simulation of the control shares, so
    checks draw nothing new.
    """

    control: np.ndarray
    adjoint: AdjointTriple
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

    Builds the problem once and returns it in the :class:`LQSolution`.
    Noise is frozen across sweeps (counter-based streams), so the iteration
    is a deterministic map on control arrays.  Five consecutive growing
    sweeps abort with :class:`FixedPointDivergence`.  Rank-deficient
    regressions are summarised in one warning for all sweeps.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    problem = control_problem(spec, grid)
    K, N = grid.n_steps, grid.n_particles
    wq = trapezoid_weights(K + 1, grid.dt)
    basis_fn = lq_basis(spec, grid)
    driver = _adjoint_driver(spec, grid)

    # time-major like the ensemble, so each step reads its control as a row
    control = np.zeros((K + 1, N)).T
    changes: list[float] = []
    deficient: list[int] = []
    converged = False
    growing = 0

    for _ in range(max_iter):
        # only one sweep's ensemble and adjoint are alive at a time
        adjoint: AdjointTriple | None = None
        ens = problem.simulate(control)
        adjoint = _solve_adjoint(ens, driver, basis_fn)
        del ens
        deficient.append(len(adjoint.deficient_steps))
        new_control = (1.0 - damping) * control + damping * adjoint.p0
        delta = new_control - control
        change = float(np.sqrt(np.mean((delta * delta) @ wq)))
        if changes and change > changes[-1]:
            growing += 1
            if growing >= 5:
                raise FixedPointDivergence(
                    f"control change grew for {growing} consecutive sweeps (last: {change:g})"
                )
        else:
            growing = 0
        changes.append(change)
        control = new_control
        if change < tol:
            converged = True
            break

    _warn_deficient(deficient, K)

    report = FBSDEIterationReport(
        changes=tuple(changes),
        damping=damping,
        tol=tol,
        converged=converged,
        deficient_counts=tuple(deficient),
    )
    return LQSolution(control, adjoint, report, spec, problem)


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


def verify_lq(solution: LQSolution, eps: float = 1e-3) -> LQVerification:
    """First-order and pairwise optimality interrogation of a solved control.

    ``solution`` is what :func:`solve_lq` returns.  Every simulation runs on
    ``solution.problem``, so on the solve's noise, which is not drawn again;
    the idempotence sweep is damped like the solve's (``report.damping``).
    The parabola diagnostics exploit that for frozen noise the performance is
    exactly quadratic in the size of an additive perturbation, so a quadratic
    fit over five sizes must be essentially interpolation: its curvature is
    negative and its vertex sits at the distance of the solved control from
    the true discrete optimizer in that direction.
    """
    control, adjoint, report, spec, problem = solution
    grid = problem.grid
    K = grid.n_steps
    wq = trapezoid_weights(K + 1, grid.dt)

    residual = np.abs((adjoint.p0 - control).mean(axis=0))
    coupling_residual_max = float(residual.max())

    # idempotence: one more forward+backward sweep barely moves the control
    ens = problem.simulate(control)
    adj2 = _solve_adjoint(ens, _adjoint_driver(spec, grid), lq_basis(spec, grid))
    if len(adj2.deficient_steps) > max(report.deficient_counts, default=0):
        _warn_deficient((len(adj2.deficient_steps),), K)
    delta = report.damping * (adj2.p0 - control)
    idempotence_change = float(np.sqrt(np.mean((delta * delta) @ wq)))
    # pathwise cost per shift size; each size is simulated once and the
    # unshifted ensemble is the idempotence one, which is not needed after
    costs = {0.0: pathwise_cost(ens, problem.coeffs)}
    del ens, adj2, delta

    half = grid.horizon / 2.0
    directions = (
        ("const_1", 1.0),
        ("late_half", lambda t, x, x_seg, law: 1.0 if t >= half else 0.0),
        ("delayed_state", lambda t, x, x_seg, law: x_seg[:, -1]),
    )
    stationarity = tuple(
        (label, *stationarity_gap(problem, control, direction, eps=eps))
        for label, direction in directions
    )

    def cost_at(lam: float) -> np.ndarray:
        if lam not in costs:
            costs[lam] = pathwise_cost(problem.simulate(combine_controls(control, 1.0, lam)), problem.coeffs)
        return costs[lam]

    base_cost = costs[0.0]
    j_rows = [("solution", *_mean_and_stderr(base_cost), 0.0, 0.0)]
    for lam in (0.2, -0.2, 0.5, -0.5):
        cost = cost_at(lam)
        j_rows.append((f"shift_{lam:+g}", *_mean_and_stderr(cost), *_mean_and_stderr(base_cost - cost)))

    lam_grid = np.array([-0.5, -0.25, 0.0, 0.25, 0.5])
    js = np.array([float(cost_at(float(l)).mean()) for l in lam_grid])
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
