"""Final acceptance gate: one test per release criterion, in order.

Each test evaluates its criterion end to end, prints exactly one
``criterion N: PASS|FAIL — detail (wall time)`` line, and asserts the same
condition, so ``pytest -v`` shows one verdict per criterion and ``-s`` shows
the sign-off sheet.  Tolerances, meshes, sample sizes, and seeds are pinned
here on purpose — the module test files carry the finer-grained diagnostics
and the rationale behind every number; this file is only the gate.

Statistical gates (criteria 6-8) fix their seeds: each was measured well
inside its 3-stderr allowance on the pinned seed, so a failure here means a
code change, not an unlucky draw.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from memsfde.adjoint import SegmentFunctional, riesz_duality_check, solve_absde
from memsfde.cli import EXIT_OK, main
from memsfde.engine import CoefficientSet, pathwise_cost, simulate
from memsfde.grid import SimGrid
from memsfde.segments import GridPath
from memsfde import lq_memory
from memsfde import mean_variance
from memsfde.measures import dirac, gauss_weight_rule, law_dist_l2_bound, m_dist_sq, m_norm_sq
from memsfde.picard import consistency_check, picard_solve

SQRT_PI = math.sqrt(math.pi)


def report(n: int, ok: bool, detail: str, started: float, budget: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    if budget is not None:
        ok = ok and elapsed <= budget
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s)"
    print(line)
    assert ok, line


def test_criterion_1_measure_norm_closed_forms():
    """Weighted norm of a point mass and the two-atom distance, 64-node rule."""
    started = time.perf_counter()
    rule = gauss_weight_rule(64)
    errs = [abs(m_norm_sq(dirac(0.0), rule) - SQRT_PI)]
    for a, b in ((1.0, -1.0), (0.7, -0.3), (2.5, 0.25)):
        exact = 2.0 * SQRT_PI * (1.0 - math.exp(-((a - b) ** 2) / 4.0))
        errs.append(abs(m_dist_sq(dirac(a), dirac(b), rule) - exact))
    worst = max(errs)
    report(1, worst <= 1e-6, f"max closed-form error {worst:.2e} (tol 1e-6)", started, budget=1.0)


def test_criterion_2_coupled_sample_inequality():
    """Empirical-law distance bounded by the mean squared sample gap."""
    started = time.perf_counter()
    rule = gauss_weight_rule(64)
    rng = np.random.Generator(np.random.Philox(key=2026))
    worst = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 512))
        base = rng.standard_normal(n) * rng.uniform(0.2, 2.0) + rng.uniform(-1.0, 1.0)
        other = base + rng.standard_normal(n) * rng.uniform(0.0, 1.5)
        lhs, rhs = law_dist_l2_bound(base, other, rule)
        worst = max(worst, lhs - rhs)
    report(2, worst <= 1e-8, f"max(lhs - rhs) {worst:.2e} over 100 sets (allowance 1e-8)", started, budget=10.0)


def test_criterion_3_delay_scheme_error_halves():
    """Pure delay drift, unit history: terminal error vs 3.5 is O(dt)."""
    started = time.perf_counter()
    drift = CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: xs[:, -1])
    errs = []
    for dt in (0.02, 0.01, 0.005):
        grid = SimGrid(dt=dt, delta_steps=round(1.0 / dt), horizon=2.0, n_particles=1, seed=0)
        ens = simulate(drift, grid, xi=1.0)
        errs.append(abs(float(ens.states[0, -1]) - 3.5))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(1.8 <= r <= 2.2 for r in ratios)
    report(3, ok, f"error ratios {ratios[0]:.3f}, {ratios[1]:.3f} (want 2 +/- 0.2)", started, budget=10.0)


def test_criterion_4_window_iteration_contracts():
    """Linear-drift family: contraction on every window, faster on half windows,
    and the fixed point agrees with the direct scheme under shared noise."""
    started = time.perf_counter()
    grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=2000, seed=3)
    details = []
    ok = True
    for rate in (0.5, 1.0, 2.0):
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us, rate=rate: rate * x,
            diffusion=lambda *a: 0.2,
        )
        ens, wide = picard_solve(coeffs, grid, xi=1.0, t0_steps=10)
        _, narrow = picard_solve(coeffs, grid, xi=1.0, t0_steps=5)
        gap = consistency_check(coeffs, ens, xi=1.0)
        ok = (
            ok
            and wide.converged
            and wide.worst_final_ratio < 1.0
            and narrow.initial_contraction_ratio < wide.initial_contraction_ratio
            and gap < 1e-10
        )
        details.append(f"L={rate:g}: ratio {wide.worst_final_ratio:.3f}, gap {gap:.1e}")
    report(4, ok, "; ".join(details), started, budget=60.0)


def test_criterion_5_forward_backward_pairing():
    """Duality of the advanced representation on random smooth path pairs."""
    started = time.perf_counter()
    dt, n, d = 0.01, 100, 20
    rng = np.random.Generator(np.random.Philox(key=7))

    def smooth():
        t = dt * np.arange(n + 1)
        vals = np.zeros(n + 1)
        for j in range(1, 5):
            a, b = rng.uniform(-0.5, 0.5, 2) / j
            vals += a * np.cos(j * math.pi * t) + b * np.sin(j * math.pi * t)
        return GridPath(values=vals, dt=dt, t0=0.0, delta_steps=0)

    worst = 0.0
    for kind in ("averaging", "evaluation"):
        for _ in range(20):
            if kind == "averaging":
                f = SegmentFunctional.averaging(rng.uniform(0.0, 1.0, d + 1), delta_steps=d, dt=dt)
            else:
                f = SegmentFunctional.evaluation(dt * rng.integers(1, d + 1), dt=dt)
            lhs, rhs = riesz_duality_check(f, smooth(), smooth())
            worst = max(worst, abs(lhs - rhs))
    report(5, worst < 5.0 * dt, f"max |lhs - rhs| {worst:.2e} over 2x20 pairs (tol {5.0 * dt:g})", started, budget=5.0)


def test_criterion_6_driverless_backward_recovery():
    """Terminal -X(T) on a Brownian state: fitted mean tracks -1 within
    3 stderr at every regression step and the noise loading recovers -1."""
    started = time.perf_counter()
    grid = SimGrid(dt=0.02, delta_steps=5, horizon=1.0, n_particles=100_000, seed=5)
    coeffs = CoefficientSet(drift=None, diffusion=lambda t, x, xs, m, ms, u, us: np.ones_like(x))
    ens = simulate(coeffs, grid, xi=1.0)
    adj = solve_absde(ens, terminal=lambda x, law: -x)
    K = grid.n_steps
    z = np.abs(adj.p0[:, :K].mean(axis=0) + 1.0) / adj.mean_stderr[:K]
    q_err = float(np.abs(adj.q0[:, :K].mean(axis=0) + 1.0).max())
    ok = float(z.max()) < 3.0 and q_err < 0.05
    report(
        6,
        ok,
        f"max |mean p + 1| z-score {z.max():.2f} (want < 3), max |mean q + 1| {q_err:.4f} (want < 0.05)",
        started,
        budget=60.0,
    )


def test_criterion_7_delayed_wealth_battery():
    """Variance-minimizing wealth control at N = 100000: algebraic first-order
    condition, adjoint drift, paired dominance over 8 perturbations, positivity."""
    started = time.perf_counter()
    grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=100_000, seed=1)
    spec = mean_variance.MeanVarSpec()  # unit-excess history above a unit floor
    sol = mean_variance.solve_closed_form(spec, grid)
    ens = mean_variance.simulate_optimal(sol)
    ver = mean_variance.verify_adjoint(ens, sol)
    rows = mean_variance.j_comparison(ens, sol)
    variants = rows[1:]
    dominance = all(gap >= -3.0 * gse for _, _, _, gap, gse in variants)
    ok = (
        ver.foc_residual_max < 1e-12
        and ver.p0_drift_z < 3.0
        and len(variants) == 8
        and dominance
        and ver.positivity_fraction == 1.0
    )
    report(
        7,
        ok,
        (
            f"(a) foc {ver.foc_residual_max:.1e} (b) drift z {ver.p0_drift_z:.2f} "
            f"(c) min gap/se {min(gap / gse for _, _, _, gap, gse in variants):.2f} over 8 controls "
            f"(d) positivity {ver.positivity_fraction:.0%}"
        ),
        started,
        budget=300.0,
    )


def test_criterion_8_distributed_delay_energy():
    """Energy problem: hand-solved sub-case, default convergence, stationarity
    in all three probe directions on a refined mesh, performance parabola."""
    started = time.perf_counter()

    # (a) no kernel, no noise, unit history: u = -1/2 and J = -1/4 exactly
    grid_a = SimGrid(dt=0.01, delta_steps=20, horizon=1.0, n_particles=4, seed=0)
    spec_a = lq_memory.LQSpec(kernel=0.0, alpha0=0.0, beta0=0.0, xi=1.0)
    control_a, _, report_a, _, problem_a = lq_memory.solve_lq(spec_a, grid_a, tol=1e-10)
    j_a = float(pathwise_cost(problem_a.simulate(control_a), problem_a.coeffs).mean())
    u_err = float(np.abs(control_a + 0.5).max())
    ok_a = report_a.converged and u_err < 1e-6 and abs(j_a + 0.25) < 1e-6

    # (b) stochastic default at production scale
    spec = lq_memory.LQSpec()
    grid_b = SimGrid(dt=0.01, delta_steps=20, horizon=1.0, n_particles=50_000, seed=2)
    sol_b = lq_memory.solve_lq(spec, grid_b, tol=1e-4, max_iter=50)
    rep_b = sol_b.report
    ok_b = rep_b.converged and rep_b.iterations <= 50 and rep_b.changes[-1] < 1e-4

    # (d) frozen-noise performance is exactly quadratic in an additive shift;
    # its fitted vertex locates the solved control's optimality error
    ver_b = lq_memory.verify_lq(sol_b)
    ok_d = ver_b.parabola_quad < 0.0 and abs(ver_b.parabola_vertex) < 0.05

    # (c) stationarity on a refined mesh, where the endpoint-quadrature bias
    # of the state-dependent direction is far below the Monte Carlo noise
    grid_c = SimGrid(dt=0.005, delta_steps=40, horizon=1.0, n_particles=12_500, seed=2)
    sol_c = lq_memory.solve_lq(spec, grid_c, tol=1e-4, max_iter=50)
    ver_c = lq_memory.verify_lq(sol_c)
    worst_z = max(abs(gap) / se for _, gap, se in ver_c.stationarity)
    ok_c = all(abs(gap) <= 3.0 * se for _, gap, se in ver_c.stationarity)

    ok = ok_a and ok_b and ok_c and ok_d
    report(
        8,
        ok,
        (
            f"(a) u err {u_err:.1e}, J err {abs(j_a + 0.25):.1e} "
            f"(b) {rep_b.iterations} iterations, last change {rep_b.changes[-1]:.1e} "
            f"(c) worst stationarity z {worst_z:.2f} over 3 directions "
            f"(d) vertex {ver_b.parabola_vertex:+.1e}"
        ),
        started,
        budget=600.0,
    )


def test_criterion_9_byte_identical_reruns(tmp_path):
    """Every subcommand, run twice with the same config, emits byte-identical
    CSV artifacts and manifest."""
    started = time.perf_counter()
    configs_dir = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    meanvar_tiny = tmp_path / "meanvar_tiny.cfg"
    meanvar_tiny.write_text(
        "problem = meanvar\n\n[grid]\nhorizon = 1.0\ndelta = 0.1\ndt = 0.02\n"
        "particles = 4000\nseed = 1\n\n[meanvar]\nb0 = 0.1\nsigma0 = 0.2\n"
        "target = 1.0\nxi = 2.0\n",
        encoding="utf-8",
    )
    jobs = (
        ("norms", os.path.join(configs_dir, "norms.cfg")),
        ("simulate", os.path.join(configs_dir, "simulate_delay.cfg")),
        ("picard", os.path.join(configs_dir, "picard_linear.cfg")),
        ("lq", os.path.join(configs_dir, "lq_det.cfg")),
        ("meanvar", str(meanvar_tiny)),
    )
    compared = 0
    ok = True
    for sub, cfg in jobs:
        out_a = tmp_path / f"{sub}_a"
        out_b = tmp_path / f"{sub}_b"
        ok = ok and main([sub, "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        ok = ok and main([sub, "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        for name in sorted(os.listdir(out_a)):
            if name == "timing.txt":  # wall time is quarantined there by design
                continue
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            ok = ok and same
            compared += 1
    report(9, ok, f"{compared} artifacts byte-identical across 5 subcommands", started)
