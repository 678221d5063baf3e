"""Distributed-delay LQ regulator: fixed-point solver and optimality audit."""

import logging
import math
import weakref

import numpy as np
import pytest

from memsfde import engine, lq_memory
from memsfde.adjoint import SegmentFunctional, SweepContext, solve_absde
from memsfde.engine import JumpModel
from memsfde.grid import BROWNIAN, JUMPS, SimGrid, trapezoid_weights
from memsfde.lq_memory import (
    FixedPointDivergence,
    LQSpec,
    control_problem,
    lq_basis,
    solve_lq,
    verify_lq,
)

DESK_GRID = SimGrid(dt=0.02, delta_steps=10, horizon=1.0, n_particles=8_000, seed=3)


class TestHandSolvableCases:
    def test_deterministic_energy_regulator(self):
        # no delay, no noise, x0 = 1, T = 1: the scalar fixed point
        # c = -x0 - cT gives u = -1/2 and J = -((1+c)^2 + c^2)/2 = -1/4
        grid = SimGrid(dt=0.01, delta_steps=20, horizon=1.0, n_particles=4, seed=0)
        spec = LQSpec(kernel=0.0, alpha0=0.0, xi=1.0)
        control, adjoint, report, _, problem = solve_lq(spec, grid, tol=1e-10)
        assert report.converged
        assert report.iterations == 2  # one productive sweep, one confirming
        assert np.max(np.abs(control + 0.5)) < 1e-6
        j, se = problem.performance(control)
        assert abs(j + 0.25) < 1e-6
        assert se == 0.0
        assert adjoint.q0 is None and adjoint.r0 is None  # windowed: p0 only

    def test_zero_history_zero_noise_stays_at_rest(self):
        grid = SimGrid(dt=0.02, delta_steps=10, horizon=1.0, n_particles=4, seed=0)
        spec = LQSpec(kernel=1.0, alpha0=0.0, xi=0.0)
        control, _, report, _, problem = solve_lq(spec, grid, tol=1e-12)
        assert report.converged
        assert report.iterations == 1
        np.testing.assert_array_equal(control, 0.0)
        j, _ = problem.performance(control)
        assert j == 0.0

    def test_brownian_no_delay_matches_classical_relation(self):
        # dX = u dt + dB from x0 = 1: u(0) should be -x0/(1+T) = -1/2.
        # Triangulate with an independent oracle: under frozen noise the cost
        # over constant controls is an exact parabola whose vertex estimates
        # the same number.
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=1.0, n_particles=10_000, seed=12)
        spec = LQSpec(kernel=0.0, alpha0=1.0, xi=1.0)
        control, _, report, _, problem = solve_lq(spec, grid, tol=1e-5)
        assert report.converged
        u0 = float(control[:, 0].mean())
        assert abs(u0 + 0.5) < 0.02

        cs = np.array([-0.7, -0.6, -0.5, -0.4, -0.3])
        js = np.array([problem.performance(float(c))[0] for c in cs])
        quad, lin, _ = np.polyfit(cs, js, 2)
        vertex = -lin / (2.0 * quad)
        assert quad < 0.0
        assert abs(vertex + 0.5) < 0.02
        assert abs(u0 - vertex) < 0.02


class TestSolverBehaviour:
    def test_default_problem_converges(self):
        control, adjoint, report, *_ = solve_lq(LQSpec(), DESK_GRID)
        assert report.converged
        assert report.changes[-1] < report.tol
        assert report.iterations <= 50
        assert adjoint.q0 is None and adjoint.r0 is None  # windowed: p0 only
        assert control.shape == (DESK_GRID.n_particles, DESK_GRID.n_steps + 1)
        # stored time-major: each sweep reads a step's control as one row
        assert all(control[:, k].flags.c_contiguous for k in range(DESK_GRID.n_steps + 1))

    def test_runaway_feedback_aborts(self):
        # an aggressive delay kernel iterated without damping blows the
        # control update up; the solver must refuse rather than loop
        grid = SimGrid(dt=0.02, delta_steps=10, horizon=1.0, n_particles=50, seed=0)
        spec = LQSpec(kernel=8.0, alpha0=0.0, xi=1.0)
        with pytest.raises(FixedPointDivergence):
            solve_lq(spec, grid, damping=1.0)

    def test_non_convergence_reported(self):
        report = solve_lq(LQSpec(), DESK_GRID, max_iter=2).report
        assert not report.converged
        assert report.iterations == 2

    def test_damping_validated(self):
        with pytest.raises(ValueError):
            solve_lq(LQSpec(), DESK_GRID, damping=0.0)
        with pytest.raises(ValueError):
            solve_lq(LQSpec(), DESK_GRID, damping=1.5)

    def test_max_iter_validated(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve_lq(LQSpec(), DESK_GRID, max_iter=0)

    def test_kernel_forms_agree(self):
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.2, n_particles=3, seed=1)
        by_const = LQSpec(kernel=2.0).delay_functional(grid).kernel
        by_fn = LQSpec(kernel=lambda s: 2.0).delay_functional(grid).kernel
        by_arr = LQSpec(kernel=np.full(5, 2.0)).delay_functional(grid).kernel
        np.testing.assert_allclose(by_const, by_fn)
        np.testing.assert_allclose(by_const, by_arr)
        with pytest.raises(ValueError):
            LQSpec(kernel=np.ones(3)).delay_functional(grid)


class TestAdvancedDriverContract:
    def test_driver_reads_stay_in_the_window_and_zero_out(self):
        spec = LQSpec()
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.5, n_particles=300, seed=7)
        ens = control_problem(spec, grid).simulate(0.0)
        K, d = grid.n_steps, grid.delta_steps
        f = spec.delay_functional(grid)
        w = trapezoid_weights(d + 1, grid.dt) * f.kernel
        steps = []

        def driver(ctx, k):
            steps.append(k)
            return ctx.advanced_average(k, f)

        adj = solve_absde(ens, terminal=lambda x, law: -x, driver=driver, basis=lq_basis(spec, grid))
        # every step calls the driver once, latest step first
        assert steps == list(range(K - 1, -1, -1))
        assert adj.check_terminal_conventions()
        # at step k only p0 on k+1..min(k+d, K) is read (NaN elsewhere would
        # show), lag 0 is read one step ahead and lags past the horizon are 0
        for k in range(K):
            live = np.arange(k + 1, min(k + d, K) + 1)
            p0 = np.full_like(adj.p0, np.nan)
            p0[:, live] = adj.p0[:, live]
            ctx = SweepContext(ens, p0, adj.q0, adj.r0)
            expected = w[0] * adj.p0[:, k + 1]
            for j in range(1, d + 1):
                if k + j <= K:
                    expected = expected + w[j] * adj.p0[:, k + j]
            np.testing.assert_allclose(ctx.advanced_average(k, f), expected, rtol=1e-13, atol=1e-15)


@pytest.fixture(scope="module")
def desk_solution():
    spec = LQSpec()
    solution = solve_lq(spec, DESK_GRID)
    return spec, solution, verify_lq(solution)


class TestRunEconomy:
    GRID = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=500, seed=5)

    def test_rank_deficiency_is_one_warning_per_run(self, caplog):
        spec = LQSpec()
        with caplog.at_level(logging.WARNING):
            solution = solve_lq(spec, self.GRID)
            verify_lq(solution)
        report = solution.report
        assert report.iterations > 1
        assert len(set(report.deficient_counts)) == 1 and report.deficient_counts[0] > 0
        messages = [rec.getMessage() for rec in caplog.records if "rank-deficient" in rec.getMessage()]
        assert messages == [
            f"rank-deficient regression at {report.deficient_counts[0]} of {self.GRID.n_steps} steps "
            f"in each of {report.iterations} solves; least-norm/ensemble-mean fallback used"
        ]

    def test_idempotence_is_damped_like_the_solve(self):
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID, damping=0.25)
        control, _, report, _, problem = solution
        ver = verify_lq(solution)
        # the undamped update of one more forward-backward sweep
        grid = self.GRID
        f = SegmentFunctional.averaging(spec.kernel, grid.delta_steps, grid.dt)
        ens = problem.simulate(control)
        adj = solve_absde(
            ens, terminal=lambda x, law: -x, driver=lambda c, k: c.advanced_average(k, f), basis=lq_basis(spec, grid)
        )
        update = adj.p0 - control
        norm = math.sqrt(np.mean((update * update) @ trapezoid_weights(grid.n_steps + 1, grid.dt)))
        assert report.damping == 0.25
        assert ver.idempotence_change == pytest.approx(report.damping * norm, rel=1e-12)

    def test_verification_simulates_each_shift_once(self, monkeypatch):
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID)
        calls = []
        original = engine.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "simulate", counting)
        ver = verify_lq(solution)
        # idempotence 1, stationarity 3 x 2, shifts +-0.2 and +-0.5, parabola +-0.25
        assert len(calls) == 13
        ordinates = dict(ver.parabola_points)
        j_by_label = {row[0]: row[1] for row in ver.j_rows}
        assert j_by_label["shift_+0.5"] == ordinates[0.5]
        assert j_by_label["shift_-0.5"] == ordinates[-0.5]
        assert j_by_label["solution"] == ordinates[0.0]

    def test_solve_and_verification_each_draw_the_noise_once(self, monkeypatch):
        # the solve draws each stream once; verification shares its problem
        calls = []
        step_generator = engine.step_generator

        def counting(seed, step, substream=0):
            calls.append((step, substream))
            return step_generator(seed, step, substream)

        monkeypatch.setattr(engine, "step_generator", counting)
        jumps = JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        for spec, substreams in ((LQSpec(), (BROWNIAN,)), (LQSpec(beta0=0.2, jumps=jumps), (BROWNIAN, JUMPS))):
            calls.clear()
            solution = solve_lq(spec, self.GRID)
            assert solution.report.iterations > 1
            assert sorted(calls) == sorted((k, s) for k in range(self.GRID.n_steps) for s in substreams)
            calls.clear()
            verify_lq(solution)
            assert calls == []

    def test_the_solution_carries_the_problem_it_was_solved_on(self):
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID)
        assert solution.spec is spec
        assert solution.problem.grid is self.GRID
        assert solution.problem.jumps is spec.jumps and solution.problem.xi == spec.xi

    @staticmethod
    def track_lifetimes(monkeypatch):
        """Weak references to every ensemble and backward solve, in order."""
        ensembles, solves = [], []
        simulate, solve = engine.ControlProblem.simulate, lq_memory.solve_absde

        def tracked_simulate(self, *args, **kwargs):
            ens = simulate(self, *args, **kwargs)
            ensembles.append(weakref.ref(ens))
            return ens

        def tracked_solve(*args, **kwargs):
            adj = solve(*args, **kwargs)
            solves.append(weakref.ref(adj))
            return adj

        monkeypatch.setattr(engine.ControlProblem, "simulate", tracked_simulate)
        monkeypatch.setattr(lq_memory, "solve_absde", tracked_solve)
        return ensembles, solves

    def test_solve_keeps_one_sweep_alive(self, monkeypatch):
        ensembles, solves = self.track_lifetimes(monkeypatch)
        alive_at_simulate = []
        simulate = engine.ControlProblem.simulate

        def checking(self, *args, **kwargs):
            alive_at_simulate.append(sum(r() is not None for r in ensembles + solves))
            return simulate(self, *args, **kwargs)

        monkeypatch.setattr(engine.ControlProblem, "simulate", checking)
        spec = LQSpec()
        _, adjoint, report, *_ = solve_lq(spec, self.GRID)
        assert report.iterations > 1
        assert alive_at_simulate == [0] * report.iterations
        assert [r() is not None for r in solves] == [False] * (report.iterations - 1) + [True]
        assert solves[-1]() is adjoint

    def test_verification_frees_the_idempotence_sweep(self, monkeypatch):
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID)
        ensembles, solves = self.track_lifetimes(monkeypatch)
        alive_at_stationarity = []
        gap = lq_memory.stationarity_gap

        def checking(*args, **kwargs):
            alive_at_stationarity.append(sum(r() is not None for r in ensembles + solves))
            return gap(*args, **kwargs)

        monkeypatch.setattr(lq_memory, "stationarity_gap", checking)
        verify_lq(solution)
        assert len(ensembles) == 13 and len(solves) == 1
        assert alive_at_stationarity == [0, 0, 0]


class TestVerification:
    def test_coupling_and_idempotence(self, desk_solution):
        _, solution, ver = desk_solution
        report = solution.report
        assert ver.coupling_residual_max < 1e-3
        assert ver.idempotence_change < report.tol

    def test_stationarity_in_all_directions(self, desk_solution):
        _, _, ver = desk_solution
        by_label = {label: (gap, se) for label, gap, se in ver.stationarity}
        assert set(by_label) == {"const_1", "late_half", "delayed_state"}
        # deterministic directions are exactly unbiased here (zero initial
        # history makes the whole diagnostic odd under a noise sign flip)
        for label in ("const_1", "late_half"):
            gap, se = by_label[label]
            assert abs(gap) <= 3.0 * se, f"{label}: gap {gap} vs se {se}"
        # the state-fed direction picks up an O(dt) endpoint-quadrature bias
        gap, se = by_label["delayed_state"]
        assert abs(gap) <= 3.0 * se + 1e-3

    def test_no_shift_beats_the_solution(self, desk_solution):
        _, _, ver = desk_solution
        assert ver.j_rows[0][0] == "solution"
        labels = [row[0] for row in ver.j_rows[1:]]
        assert labels == ["shift_+0.2", "shift_-0.2", "shift_+0.5", "shift_-0.5"]
        for label, j, se, gap, gap_se in ver.j_rows[1:]:
            assert gap > 3.0 * gap_se, f"{label} should lose clearly"

    def test_cost_is_exactly_quadratic_in_the_perturbation(self, desk_solution):
        _, _, ver = desk_solution
        assert ver.parabola_rel_residual < 1e-8
        assert ver.parabola_quad < 0.0
        assert abs(ver.parabola_vertex) < 0.05

    def test_report_rows_are_complete(self, desk_solution):
        _, _, ver = desk_solution
        names = [name for name, _ in ver.rows()]
        assert names[0] == "coupling_residual_max"
        assert "stationarity_delayed_state" in names
        assert "J_solution" in names
        assert names[-1] == "parabola_rel_residual"
