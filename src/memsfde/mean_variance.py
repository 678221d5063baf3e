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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from memsfde.adjoint import default_basis, solve_absde, stationarity_gap
from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    JumpModel,
    ParticleEnsemble,
    _as_time_fn,
    _materialize_history,
    _mean_and_stderr,
    combine_controls,
    pathwise_cost,
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
    "stationarity_suite",
    "PERTURBATION_FAMILY",
]


@dataclass(frozen=True)
class MeanVarSpec:
    """Problem data: deterministic coefficient functions (constants allowed),
    the tracking target, initial history, and optional jump noise.

    ``gamma0`` is the jump loading; the jump coefficient is loading(t) times
    the mark, so the second-moment integral is loading^2 * intensity * E[z^2].
    """

    b0: object = 0.1
    sigma0: object = 0.2
    gamma0: object = 0.05
    target: float = 1.0
    xi: object = 2.0
    jumps: JumpModel = field(default_factory=JumpModel.none)

    def b0_fn(self):
        return _as_time_fn(self.b0)

    def sigma0_fn(self):
        return _as_time_fn(self.sigma0)

    def gamma0_fn(self):
        return _as_time_fn(self.gamma0)

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
        b0, s0, g0 = self.b0_fn(), self.sigma0_fn(), self.gamma0_fn()
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
    simulation, and the optimal ensemble, its variants and the stationarity
    probes all share that one draw.
    """

    spec: MeanVarSpec
    grid: SimGrid
    rate: np.ndarray  # (n_steps + 1,)
    phi: np.ndarray
    psi: np.ndarray
    feedback: Callable  # (t, x, x_seg, law) -> per-particle control
    problem: ControlProblem

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
    b0_fn = spec.b0_fn()
    ts = grid.times()
    rate = np.array([rate_fn(t) for t in ts])
    steps = 0.5 * (rate[1:] + rate[:-1]) * grid.dt
    tail = np.concatenate([np.cumsum(steps[::-1])[::-1], [0.0]])  # integral over [t, T]
    phi = -np.exp(-tail)
    psi = spec.target * np.exp(-tail)

    if spec.jumps.active:
        g0, m = spec.gamma0_fn(), max(abs(z) for z in spec.jumps.marks)
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

    return MeanVarSolution(spec, grid, rate, phi, psi, feedback, control_problem(spec, grid))


def control_problem(spec: MeanVarSpec, grid: SimGrid) -> ControlProblem:
    """The simulation problem shared by the optimal and perturbed controls."""
    b0, s0, g0 = spec.b0_fn(), spec.sigma0_fn(), spec.gamma0_fn()
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
        yield "foc_residual_max", self.foc_residual_max
        yield "p0_drift_z", self.p0_drift_z
        yield "p0_drift_max_step_z", self.p0_drift_max_step_z
        yield "lsmc_p0", self.lsmc_p0
        yield "closed_p0", self.closed_p0
        yield "lsmc_p0_rel_err", self.lsmc_p0_rel_err
        yield "positivity_fraction", self.positivity_fraction
        yield "min_abs_delayed_state", self.min_abs_delayed_state
        yield "lsmc_deficient_steps", self.lsmc_deficient_steps


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

    Checks (1) and (2) and the monitors run one contiguous time row at a
    time, and the backward solve keeps only p0 at step 0: the rest of the
    triple lives in rings of d + 1 rows, because the driver reads exactly
    d steps ahead.  The control the checks and the driver weigh by is
    replayed step by step from the ensemble's paths
    (:meth:`~memsfde.engine.ParticleEnsemble.control_at`), which gives the
    applied bits.  So the checks hold no (N, n_steps + 1) array on top of
    the ensemble.  The pooled increment statistics are combined from the
    per-step means and standard deviations.
    """
    spec, grid = sol.spec, sol.grid
    K, d, N = grid.n_steps, grid.delta_steps, grid.n_particles
    ts = grid.times()
    b0 = np.array([spec.b0_fn()(t) for t in ts])
    s0 = np.array([spec.sigma0_fn()(t) for t in ts])
    g0 = np.array([spec.gamma0_fn()(t) for t in ts])
    m2 = spec.jump_m2()
    m1 = spec.jump_m1()
    noise_var = s0**2 + g0**2 * m2
    target = spec.target

    foc = np.empty(K + 1)  # max |bracket| per step
    abs_delayed = np.empty(K + 1)  # min |X(t - delta)| per step
    step_means, step_sds = np.empty(K), np.empty(K)  # of the p0 increments
    lowest = np.full(N, np.inf)  # per-path min of X - target
    for k in range(K + 1):
        x = ens.state_column(k)
        delayed = ens.paths[:, k]  # X(t - delta)
        p = sol.p0_closed(x, k)
        # (1) first-order condition along paths: b0 p0 + sigma0 q0 + jump term
        bracket = sol.phi[k] * delayed
        bracket *= ens.control_at(k)
        bracket *= noise_var[k]
        bracket += b0[k] * p
        foc[k] = np.max(np.abs(bracket))
        # (2) martingale increments of the closed-form adjoint
        if k == 0:
            closed_p0 = float(p.mean())
        else:
            incr = p - p_prev
            step_means[k - 1] = incr.mean()
            # one particle has no spread (0, as in _mean_and_stderr); the
            # pooled statistics below treat N = 1 on their own
            step_sds[k - 1] = incr.std(ddof=1) if N > 1 else 0.0
        p_prev = p
        np.minimum(lowest, x - target, out=lowest)
        abs_delayed[k] = np.min(np.abs(delayed))
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

    # (3) independent LSMC backward solve; the driver reads the future triple
    # at lag delta (strictly ahead, zero past the horizon)
    def driver(ctx, k):
        j = k + d
        if j > K:
            return np.zeros(N)
        p = ctx.p0_future(k, d)
        q = ctx.q0_future(k, d)
        r = ctx.r0_future(k, d)
        w = b0[j] * p + s0[j] * q + g0[j] * m1 * r
        return ens.control_at(j) * w

    adj = solve_absde(
        ens, terminal=lambda x, law: -(x - target), driver=driver, basis=default_basis, keep="initial_p0"
    )
    lsmc_p0 = float(adj.p0[:, 0].mean())
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

    ``optimal_cost`` is the pathwise cost of the ensemble that
    :func:`simulate_optimal` returns for ``sol``, ``pathwise_cost(ens,
    sol.problem.coeffs)``; the optimal control is not simulated again, and
    its ensemble may be freed before the comparison, which then holds one
    variant ensemble at a time.  All variants run under common random
    numbers: each is simulated on ``sol.problem``, whose noise the optimal
    ensemble was simulated on, so each row's gap J(optimal) - J(variant)
    comes with a paired standard error.  Returns rows (label, J, stderr,
    gap, gap_stderr); optimality means every gap is no less than -3
    gap_stderr.
    """
    problem = sol.problem
    rows = [("optimal", *_mean_and_stderr(optimal_cost), 0.0, 0.0)]
    for label, kind, amount in PERTURBATION_FAMILY:
        if kind == "scale":
            control = combine_controls(None, sol.feedback, amount)
        else:
            control = combine_controls(sol.feedback, 1.0, amount)
        # the variant ensemble is not kept, so it is freed before the next
        # one is simulated
        cost = pathwise_cost(problem.simulate(control), problem.coeffs)
        rows.append((label, *_mean_and_stderr(cost), *_mean_and_stderr(optimal_cost - cost)))
    return rows


def stationarity_suite(sol: MeanVarSolution, eps: float = 1e-3):
    """First-order gaps of J at the optimal feedback in bounded directions.

    Every probe is simulated on ``sol.problem``, so after
    :func:`simulate_optimal` the suite shares the optimal ensemble's noise
    and draws nothing.
    """
    grid = sol.grid
    half = grid.horizon / 2.0

    directions = (
        ("const_1", 1.0),
        ("late_half", lambda t, x, x_seg, law: 1.0 if t >= half else 0.0),
        ("sin_wave", lambda t, x, x_seg, law: math.sin(2.0 * math.pi * t / grid.horizon)),
    )
    rows = []
    for label, direction in directions:
        gap, se = stationarity_gap(sol.problem, sol.feedback, direction, eps=eps)
        rows.append((label, gap, se))
    return rows
