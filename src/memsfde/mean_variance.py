"""Mean-variance target tracking with a delayed gearing state.

The controlled state is

    dX(t) = X(t - delta) u(t) [ b0(t) dt + sigma0(t) dB(t) + loading(t) z JUMPS ],

the objective is to maximize J(u) = E[-(X(T) - target)^2 / 2], and the initial
history sits strictly above the target.  The problem has a closed-form
solution: with

    rate(t)   = b0(t)^2 / (sigma0(t)^2 + jump second moment(t)),
    phi(t)    = -exp(-integral of rate over [t, T]),
    psi(t)    = -target * phi(t),

the optimal control is the feedback rule

    u*(t) = rate(t) * (target - X(t)) / (b0(t) * X(t - delta)),

for which Y = X - target follows a linear equation whose sign it keeps, the
adjoint is the affine function p0 = phi X + psi with Brownian loading
q0 = phi X(t-delta) u* sigma0 and jump loading proportional to the mark, and
the first-order condition

    b0 p0 + sigma0 q0 + (jump integral of the r0 loading)  =  0

holds as an algebraic identity along every path.  ``verify_adjoint`` checks
that identity at machine precision, the martingale property of p0, and an
independent least-squares backward solve; ``j_comparison`` plays the optimal
control against scaled and shifted variants under common random numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from memsfde.adjoint import SweepContext, _paired_rows, default_basis, solve_absde
from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    JumpModel,
    ParticleEnsemble,
    _as_time_fn,
    _check_finite,
    _check_finite_on_mesh,
    _materialize_history,
    combine_controls,
)
from memsfde.grid import SimGrid

__all__ = [
    "MeanVarSpec",
    "MeanVarSolution",
    "MeanVarVerification",
    "solve_closed_form",
    "control_problem",
    "simulate_optimal",
    "verify_adjoint",
    "j_comparison",
    "PERTURBATION_FAMILY",
]


@dataclass(frozen=True)
class MeanVarSpec:
    """Problem data: deterministic coefficient functions (constants allowed),
    the tracking target, initial history, and optional jump noise.

    ``gamma0`` is the jump loading; the jump coefficient is loading(t) times
    the mark, so the second-moment integral is loading^2 * intensity * E[z^2].
    The constant coefficients and the target must be finite.
    """

    b0: object = 0.1
    sigma0: object = 0.2
    gamma0: object = 0.05
    target: float = 1.0
    xi: object = 2.0
    jumps: JumpModel = field(default_factory=JumpModel.none)

    def __post_init__(self):
        _check_finite(self, "b0", "sigma0", "gamma0", "target")

    def jump_m2(self) -> float:
        """intensity * E[z^2], the mark part of the jump second moment."""
        if not self.jumps.active:
            return 0.0
        return self.jumps.nu_integral(lambda z: z * z)

    def jump_m1(self) -> float:
        if not self.jumps.active:
            return 0.0
        return self.jumps.nu_integral(lambda z: z)

    def rate_fn(self):
        """Squared signal-to-noise rate entering every closed-form formula."""
        b0, s0, g0 = _as_time_fn(self.b0), _as_time_fn(self.sigma0), _as_time_fn(self.gamma0)
        m2 = self.jump_m2()

        def rate(t: float) -> float:
            noise = s0(t) ** 2 + g0(t) ** 2 * m2
            if abs(b0(t)) <= 0.0 or noise <= 0.0:
                raise ValueError(
                    f"degenerate coefficients at t={t:g}: need |b0|>0 and positive noise variance"
                )
            return b0(t) ** 2 / noise

        return rate


@dataclass(frozen=True)
class MeanVarSolution:
    """Closed-form solution sampled on the mesh, plus the feedback rule.

    ``problem`` is the simulation problem the solution is checked on, built
    once by :func:`solve_closed_form`.  Its noise is drawn on the first
    simulation, and the optimal ensemble and its variants share that one
    draw.  ``grid`` is the problem's grid.
    """

    spec: MeanVarSpec
    rate: np.ndarray  # (n_steps + 1,)
    phi: np.ndarray
    psi: np.ndarray
    feedback: Callable  # (t, x, x_seg, law) -> per-particle control
    problem: ControlProblem

    @property
    def grid(self) -> SimGrid:
        return self.problem.grid

    def p0_closed(self, x: np.ndarray, k: int) -> np.ndarray:
        """Affine adjoint phi X + psi at step k, along the states ``x``."""
        return self.phi[k] * x + self.psi[k]

    def rows(self):
        ts = self.grid.times()
        for k in range(len(ts)):
            yield ts[k], self.rate[k], self.phi[k], self.psi[k]


def solve_closed_form(spec: MeanVarSpec, grid: SimGrid) -> MeanVarSolution:
    """Sample rate/phi/psi on the mesh and build the optimal feedback rule.

    The reverse cumulative integral of the rate uses the trapezoid rule, so
    phi and psi satisfy their defining one-step relations to O(dt^2) and the
    terminal values phi(T) = -1, psi(T) = target exactly.  The grid needs a
    lag of at least one step: the adjoint driver reads p0 strictly ahead.
    """
    if grid.delta_steps < 1:
        raise ValueError(f"the delay problem needs a lag of at least one step (got delta_steps={grid.delta_steps})")
    rate_fn = spec.rate_fn()
    b0_fn = _as_time_fn(spec.b0)
    ts = grid.times()
    rate = np.array([rate_fn(t) for t in ts])
    steps = 0.5 * (rate[1:] + rate[:-1]) * grid.dt
    tail = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])  # integral over [t, T]
    phi = -np.exp(-tail)
    psi = spec.target * np.exp(-tail)

    if spec.jumps.active:
        g0, m = _as_time_fn(spec.gamma0), max(abs(z) for z in spec.jumps.marks)
        worst = max((rate_fn(t) / abs(b0_fn(t))) * abs(g0(t)) * m for t in ts)
        if worst >= 1.0:
            raise ValueError(
                "jump loading too large: a single jump could push the optimal state across the target"
            )

    target = spec.target

    def feedback(t, x, x_seg, law):
        x_del = x_seg[:, -1]
        if np.any(x_del == 0.0):
            raise ValueError(
                f"optimal feedback undefined at t={t:g}: delayed state hit exactly zero"
            )
        return rate_fn(t) * (target - x) / (b0_fn(t) * x_del)

    return MeanVarSolution(spec, rate, phi, psi, feedback, control_problem(spec, grid))


def control_problem(spec: MeanVarSpec, grid: SimGrid) -> ControlProblem:
    """The simulation problem shared by the optimal and perturbed controls.
    The coefficients must be finite on the mesh."""
    _check_finite_on_mesh(spec, grid, "b0", "sigma0", "gamma0")
    b0, s0, g0 = _as_time_fn(spec.b0), _as_time_fn(spec.sigma0), _as_time_fn(spec.gamma0)
    target = spec.target

    def drift(t, x, x_seg, law, law_seg, u, u_seg):
        return x_seg[:, -1] * u * b0(t)

    def diffusion(t, x, x_seg, law, law_seg, u, u_seg):
        return x_seg[:, -1] * u * s0(t)

    def jump(t, x, x_seg, law, law_seg, u, u_seg, z):
        return x_seg[:, -1] * u * g0(t) * z

    coeffs = CoefficientSet(
        drift=drift,
        diffusion=diffusion,
        jump=jump if spec.jumps.active else None,
        terminal_cost=lambda x, law: -0.5 * (x - target) ** 2,
    )
    return ControlProblem(coeffs=coeffs, grid=grid, jumps=spec.jumps, xi=spec.xi)


def simulate_optimal(sol: MeanVarSolution) -> ParticleEnsemble:
    """Simulate the ensemble that the closed form ``sol`` controls optimally,
    on ``sol.problem``."""
    hist = _materialize_history(sol.spec.xi, sol.grid)
    # equality is the degenerate-but-legal case (zero control, X constant);
    # the pathwise positivity claim needs strict inequality
    if np.min(hist) < sol.spec.target:
        raise ValueError("initial history must not fall below the target")
    return sol.problem.simulate(sol.feedback)


# the battery's thresholds: the first-order bracket must vanish to rounding,
# and the LSMC p0(0) must match the closed form's to this relative error
FOC_TOL = 1e-12
LSMC_P0_REL_TOL = 0.02


@dataclass(frozen=True)
class MeanVarVerification:
    foc_residual_max: float
    p0_drift_z: float  # pooled |mean increment| / stderr over all steps
    p0_drift_max_step_z: float
    lsmc_p0: float
    closed_p0: float
    lsmc_p0_rel_err: float
    positivity_fraction: float
    min_abs_delayed_state: float
    lsmc_deficient_steps: int

    def rows(self):
        """``(name, value)`` of every field, in declaration order."""
        for f in fields(self):
            yield f.name, getattr(self, f.name)

    def checks(self):
        """The battery's checks ``(name, passed, detail)``: the first-order
        bracket below ``FOC_TOL``, every path above the floor, and the LSMC
        p0(0) within ``LSMC_P0_REL_TOL`` of the closed form's."""
        yield "first_order_condition", self.foc_residual_max < FOC_TOL, f"max |bracket| = {self.foc_residual_max:.3e}"
        fraction = self.positivity_fraction
        yield "path_positivity", fraction == 1.0, f"fraction above floor = {fraction:.6f}"
        rel = self.lsmc_p0_rel_err
        yield "adjoint_regression_match", rel < LSMC_P0_REL_TOL, f"initial adjoint relative error = {rel:.4f}"


def verify_adjoint(ens: ParticleEnsemble, sol: MeanVarSolution) -> MeanVarVerification:
    """Three independent checks of the candidate optimum, run on the
    ensemble that :func:`simulate_optimal` returns for ``sol``; the problem
    and its grid are ``sol.spec`` and ``sol.grid``.

    (1) The first-order-condition bracket, assembled from the closed-form
    adjoint loadings along every simulated path, must vanish to rounding.
    (2) p0 = phi X + psi must be a martingale: the pooled mean increment is
    compared against its Monte Carlo standard error (increments of a
    martingale are uncorrelated, so pooling across steps is legitimate).
    (3) A least-squares backward solve of the adjoint equation — whose driver
    reads the triple one memory-window ahead, weighted by the control there
    and zeroed past the horizon — must reproduce p0(0) within regression
    tolerance.  Positivity of Y = X - target and the smallest |X(t - delta)|
    (the denominator of the feedback rule) are monitored alongside.

    The checks make one backward pass: the solve hands each step's rows to
    a hook, the horizon first, which runs checks (1) and (2) and the
    monitors for that step, keeps p0 at step 0 and writes the one row the
    driver reads d steps ahead into a :class:`~memsfde.adjoint.SweepContext`
    of its own: the control there times the combination of the triple.
    The control is replayed once a step from the ensemble's paths
    (:meth:`~memsfde.engine.ParticleEnsemble.control_at`), which gives the
    applied bits.  The driver reads only that store, the solve keeps p0 in
    two rows, and the hook forms its terms in one scratch row.  So the
    checks hold no (N, n_steps + 1) array on top of the ensemble.  The
    pooled increment statistics are combined from the per-step means and
    standard deviations.
    """
    spec, grid = sol.spec, sol.grid
    K, d, N = grid.n_steps, grid.delta_steps, grid.n_particles
    ts = grid.times()
    b0, s0, g0 = (np.array([f(t) for t in ts]) for f in map(_as_time_fn, (spec.b0, spec.sigma0, spec.gamma0)))
    m2 = spec.jump_m2()
    m1 = spec.jump_m1()
    noise_var = s0**2 + g0**2 * m2
    target = spec.target

    foc = np.empty(K + 1)  # max |bracket| per step
    abs_delayed = np.empty(K + 1)  # min |X(t - delta)| per step
    step_means, step_sds = np.empty(K), np.empty(K)  # of the p0 increments
    lowest = np.full(N, np.inf)  # per-path min of X - target
    # (3) the driver reads the future triple at lag delta (strictly ahead,
    # zero past the horizon) through the one row u (b0 p0 + sigma0 q0 +
    # gamma0 m1 r0), formed as each step is solved
    weighted = SweepContext(grid)
    scratch = np.empty(N)  # the hook's one temporary row, reused term by term
    p_next = closed_p0 = lsmc_p0 = None  # closed-form p0 of the step after; both p0(0)

    def on_row(k, p_lsmc, q, r):
        nonlocal p_next, closed_p0, lsmc_p0
        x = ens.state_column(k)
        delayed = ens.paths[:, k]  # X(t - delta)
        u = ens.control_at(k)
        w = weighted.row(k)
        np.multiply(p_lsmc, b0[k], out=w)
        w += np.multiply(q, s0[k], out=scratch)
        w += np.multiply(r, g0[k] * m1, out=scratch)
        w *= u
        p = sol.p0_closed(x, k)
        # (1) first-order condition along paths: b0 p0 + sigma0 q0 + jump term
        bracket = np.multiply(delayed, sol.phi[k], out=scratch)
        bracket *= u
        del u
        bracket *= noise_var[k]
        bracket += b0[k] * p
        foc[k] = np.max(np.abs(bracket, out=scratch))
        # (2) martingale increments of the closed-form adjoint
        if k < K:
            incr = np.subtract(p_next, p, out=scratch)
            step_means[k] = incr.mean()
            # one particle has no spread (0, as in _mean_and_stderr); the
            # pooled statistics below treat N = 1 on their own
            step_sds[k] = incr.std(ddof=1) if N > 1 else 0.0
        p_next = p
        if k == 0:
            closed_p0, lsmc_p0 = float(p.mean()), float(p_lsmc.mean())
        np.minimum(lowest, np.subtract(x, target, out=scratch), out=lowest)
        abs_delayed[k] = np.min(np.abs(delayed, out=scratch))

    def driver(k):
        return weighted.future(k, d)

    adj = solve_absde(ens, terminal=lambda x, law: -(x - target), driver=driver, basis=default_basis, on_row=on_row)
    foc_residual_max = float(np.max(foc))
    min_abs_delayed = float(np.min(abs_delayed))
    above = lowest > 0.0

    # pooled over all n = N * K increments: the within-step sums of squares
    # plus the spread of the step means around the pooled mean
    n = N * K
    pooled_mean = step_means.mean()
    within = (N - 1) * np.sum(step_sds**2) if N > 1 else 0.0
    sum_sq = within + N * np.sum((step_means - pooled_mean) ** 2)
    pooled_se = math.sqrt(sum_sq / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    p0_drift_z = float(abs(pooled_mean) / pooled_se) if pooled_se > 0 else 0.0
    step_se = step_sds / math.sqrt(N)
    with np.errstate(divide="ignore", invalid="ignore"):
        zs = np.where(step_se > 0, np.abs(step_means) / step_se, 0.0)
    p0_drift_max_step_z = float(np.max(zs))

    rel = abs(lsmc_p0 - closed_p0) / max(abs(closed_p0), 1e-300)

    return MeanVarVerification(
        foc_residual_max=foc_residual_max,
        p0_drift_z=p0_drift_z,
        p0_drift_max_step_z=p0_drift_max_step_z,
        lsmc_p0=lsmc_p0,
        closed_p0=closed_p0,
        lsmc_p0_rel_err=float(rel),
        positivity_fraction=float(above.mean()),
        min_abs_delayed_state=min_abs_delayed,
        lsmc_deficient_steps=len(adj.deficient_steps),
    )


# scale factors and additive shifts applied to the optimal feedback rule
PERTURBATION_FAMILY = (
    ("scale_0.5", "scale", 0.5),
    ("scale_0.9", "scale", 0.9),
    ("scale_1.1", "scale", 1.1),
    ("scale_2.0", "scale", 2.0),
    ("shift_+0.5", "shift", 0.5),
    ("shift_-0.5", "shift", -0.5),
    ("shift_+1.0", "shift", 1.0),
    ("shift_-1.0", "shift", -1.0),
)


def j_comparison(optimal_cost: np.ndarray, sol: MeanVarSolution):
    """Performance of the optimal control against its perturbation family.

    ``optimal_cost`` is the per-particle cost of the ensemble that
    :func:`simulate_optimal` returns for ``sol``, its ``cost``, summed as it
    was simulated; the optimal control is not simulated again, and
    its ensemble may be freed before the comparison, which then holds one
    variant ensemble at a time.  All variants run under common random
    numbers: ``sol.problem.costs`` simulates each on the noise the optimal
    ensemble was simulated on, so each row's gap J(optimal) - J(variant)
    comes with a paired standard error.  Returns rows (label, J, stderr,
    gap, gap_stderr); optimality means that every row passes
    :func:`~memsfde.adjoint.dominates`.
    """
    controls = [
        combine_controls(None, sol.feedback, amount) if kind == "scale" else combine_controls(sol.feedback, 1.0, amount)
        for _, kind, amount in PERTURBATION_FAMILY
    ]
    labels = [label for label, _, _ in PERTURBATION_FAMILY]
    return _paired_rows("optimal", optimal_cost, labels, sol.problem.costs(controls))

