"""Distributed-delay LQ regulator: fixed-point solver and optimality audit."""

import dataclasses
import functools
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from memsfde import adjoint, engine, lq_memory
from memsfde.adjoint import SegmentFunctional, SweepContext, solve_absde
from memsfde.engine import JumpModel, _Band
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
        control, residual, report, _, problem = solve_lq(spec, grid, tol=1e-10)
        assert report.converged
        assert report.iterations == 2  # one productive sweep, one confirming
        assert np.max(np.abs(control + 0.5)) < 1e-6
        j, se = problem.performance(control)
        assert abs(j + 0.25) < 1e-6
        assert se == 0.0
        assert residual.shape == (grid.n_steps + 1,)
        assert np.max(residual) < 1e-6

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
        control, residual, report, *_ = solve_lq(LQSpec(), DESK_GRID)
        assert report.converged
        assert report.changes[-1] < report.tol
        assert report.iterations <= 50
        assert residual.shape == (DESK_GRID.n_steps + 1,)
        assert np.all(np.isfinite(residual)) and np.all(residual >= 0.0)
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

    def test_a_non_finite_control_aborts_after_its_sweep(self):
        # a delay kernel of 1e5 overflows p0 in the second sweep; the third
        # then failed as a non-finite state at step 0, which blames the mesh
        grid = SimGrid(dt=0.05, delta_steps=2, horizon=0.5, n_particles=200, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FixedPointDivergence, match="the control is not finite after sweep 2"):
                solve_lq(LQSpec(kernel=1e5), grid)

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

    @pytest.mark.parametrize(
        "name, value", [("tol", 0.0), ("tol", -1e-4), ("tol", math.nan), ("max_iter", 2.5), ("max_iter", "3")]
    )
    def test_stopping_rule_validated_before_any_sweep(self, name, value, monkeypatch):
        # a non-positive or NaN tol ran every sweep and returned unconverged;
        # a non-integer max_iter failed in range() with a TypeError
        route_simulations(monkeypatch, lambda *a, **k: pytest.fail("a sweep ran"))
        with pytest.raises(ValueError, match=name):
            solve_lq(LQSpec(), DESK_GRID, **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("kernel", math.nan), ("kernel", [1.0, math.inf, 1.0]), ("alpha0", math.inf), ("beta0", -math.inf)]
    )
    def test_non_finite_constants_refused(self, name, value):
        # they were accepted, and the first sweep died in SimulationBlowupError
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            LQSpec(**{name: value})

    @pytest.mark.parametrize(
        "name, value",
        [
            ("kernel", lambda s: math.nan),
            ("kernel", lambda s: math.inf if s > 0.1 else 1.0),
            ("alpha0", lambda t: math.inf),
            ("beta0", lambda t: math.nan),
        ],
    )
    def test_non_finite_callables_refused_before_any_noise(self, name, value, monkeypatch):
        # they were accepted: the first sweep drew the noise and died in
        # SimulationBlowupError
        monkeypatch.setattr(engine, "draw_noise", lambda *a, **k: pytest.fail("drew noise"))
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=0.5, n_particles=50, seed=1)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            solve_lq(LQSpec(**{name: value}), grid)

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
        assert not (adj.q0[:, -1].any() or adj.r0[:, -1].any())  # zero loadings at the horizon
        # at step k only p0 on k+1..min(k+d, K) is read (NaN elsewhere would
        # show), lag 0 is read one step ahead and lags past the horizon are 0
        for k in range(K):
            live = np.arange(k + 1, min(k + d, K) + 1)
            # a band of the whole mesh: row j is step j, zero past the horizon
            p0 = _Band(grid, d + K + 1)
            p0.rows[: K + 1] = np.nan
            p0.rows[live] = adj.p0[:, live].T
            ctx = SweepContext(ens, p0)
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


def route_simulations(monkeypatch, wrapper):
    """Send every forward pass through ``wrapper(integrate, *args,
    **kwargs)``: the solve's sweeps and a problem's simulations call
    ``engine.simulate``, and a problem's costs ``engine._integrate``, the
    pass ``simulate`` runs."""
    monkeypatch.setattr(engine, "_integrate", functools.partial(wrapper, engine._integrate))


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
        original = engine._integrate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, "_integrate", counting)
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

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
    def test_a_bad_eps_is_refused_before_the_sweep(self, monkeypatch, desk_solution, eps):
        # the idempotence sweep ran, forward and backward, before the
        # stationarity probes refused eps
        monkeypatch.setattr(lq_memory, "_damped_sweep", lambda *a, **k: pytest.fail("the sweep ran"))
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            verify_lq(desk_solution[1], eps=eps)

    def test_the_solution_carries_the_problem_it_was_solved_on(self):
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID)
        assert solution.spec is spec
        assert solution.problem.grid is self.GRID
        assert solution.problem.jumps is spec.jumps and solution.problem.xi == spec.xi

    def test_a_callable_kernel_is_sampled_once_per_solve_and_per_verification(self):
        # the problem, the basis and the driver share one sampling of the
        # kernel on the memory window
        lags = []

        def kernel(s):
            lags.append(s)
            return 1.0

        solution = solve_lq(LQSpec(kernel=kernel), self.GRID)
        assert lags == [j * self.GRID.dt for j in range(self.GRID.delta_steps + 1)]
        lags.clear()
        verify_lq(solution)
        assert lags == [j * self.GRID.dt for j in range(self.GRID.delta_steps + 1)]

    def test_sweeps_sum_no_cost(self, monkeypatch):
        # no sweep reads a cost, so the solve evaluates none; the solution
        # keeps the costed problem, whose simulations still sum it
        calls = []
        control_problem = lq_memory.control_problem

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        def counting_problem(spec, grid):
            problem = control_problem(spec, grid)
            coeffs = problem.coeffs
            costs = {name: counted(name, getattr(coeffs, name)) for name in ("running_cost", "terminal_cost")}
            return dataclasses.replace(problem, coeffs=dataclasses.replace(coeffs, **costs))

        monkeypatch.setattr(lq_memory, "control_problem", counting_problem)
        solution = solve_lq(LQSpec(), self.GRID)
        assert solution.report.iterations > 1
        assert calls == []
        solution.problem.simulate(solution.control)
        assert calls == ["running_cost"] * (self.GRID.n_steps + 1) + ["terminal_cost"]

    @staticmethod
    def track_lifetimes(monkeypatch):
        """Weak references to every ensemble and backward solve, in order."""
        ensembles, solves = [], []
        solve = lq_memory.solve_absde

        def tracked_simulate(integrate, *args, **kwargs):
            ens = integrate(*args, **kwargs)
            ensembles.append(weakref.ref(ens))
            return ens

        def tracked_solve(*args, **kwargs):
            adj = solve(*args, **kwargs)
            solves.append(weakref.ref(adj))
            return adj

        route_simulations(monkeypatch, tracked_simulate)
        monkeypatch.setattr(lq_memory, "solve_absde", tracked_solve)
        return ensembles, solves

    def test_solve_keeps_one_sweep_alive(self, monkeypatch):
        ensembles, solves = self.track_lifetimes(monkeypatch)
        alive_at_simulate = []

        def checking(integrate, *args, **kwargs):
            alive_at_simulate.append(sum(r() is not None for r in ensembles + solves))
            return integrate(*args, **kwargs)

        route_simulations(monkeypatch, checking)
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID)
        report = solution.report
        assert report.iterations > 1
        assert alive_at_simulate == [0] * report.iterations
        # the last solve is dropped once its coupling residual is formed, so
        # the solution holds no sweep's arrays
        assert len(solves) == report.iterations
        assert all(r() is None for r in ensembles + solves)

    def test_coupling_residual_is_formed_from_the_last_solve(self, monkeypatch):
        # the residual the solve carries has the bits of |mean(p0 - control)|
        # over the last backward solve and the returned control; the solve
        # keeps no p0, so each row is copied as the solve hands it over
        solve = lq_memory.solve_absde
        kept = []

        def keeping(*args, on_row, **kwargs):
            rows = {}

            def copying(k, p, q, r):
                rows[k] = p.copy()
                on_row(k, p, q, r)

            adj = solve(*args, on_row=copying, **kwargs)
            kept.append((adj, np.array([rows[k] for k in sorted(rows)]).T))  # time-major, like p0
            return adj

        monkeypatch.setattr(lq_memory, "solve_absde", keeping)
        solution = solve_lq(LQSpec(), self.GRID)
        assert len(kept) == solution.report.iterations
        assert all(a.p0 is None and a.q0 is None and a.r0 is None for a, _ in kept)  # handed over, not kept
        expected = np.abs((kept[-1][1] - solution.control).mean(axis=0))
        np.testing.assert_array_equal(solution.coupling_residual, expected)
        assert verify_lq(solution).coupling_residual_max == float(expected.max())

    def test_verification_frees_the_idempotence_sweep(self, monkeypatch):
        spec = LQSpec()
        solution = solve_lq(spec, self.GRID)
        ensembles, solves = self.track_lifetimes(monkeypatch)
        alive_at_stationarity = []
        gap = adjoint.stationarity_gap

        def checking(*args, **kwargs):
            alive_at_stationarity.append(sum(r() is not None for r in ensembles + solves))
            return gap(*args, **kwargs)

        monkeypatch.setattr(adjoint, "stationarity_gap", checking)
        verify_lq(solution)
        assert len(ensembles) == 13 and len(solves) == 1
        assert alive_at_stationarity == [0, 0, 0]


    def test_update_and_idempotence_check_hold_at_most_one_temporary(self, monkeypatch):
        # the traced peak of each backward solve with its damped update (of
        # every sweep, then of the idempotence check) against that of the
        # same solve with a hook that does nothing: the update runs in
        # place, on (N,) rows
        grid = SimGrid(dt=0.02, delta_steps=4, horizon=1.0, n_particles=4_000, seed=5)
        sweep = lq_memory._damped_sweep
        extra = []

        def peak_of(fn, *args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1] - base

        def comparing(ens, driver, basis_fn, *args):
            _, bare = peak_of(
                solve_absde, ens, lambda x, law: -x, driver=driver, basis=basis_fn, warn=False, on_row=lambda *row: None
            )
            result, updating = peak_of(sweep, ens, driver, basis_fn, *args)
            extra.append(updating - bare)
            return result

        monkeypatch.setattr(lq_memory, "_damped_sweep", comparing)
        tracemalloc.start()
        try:
            solution = solve_lq(LQSpec(), grid)
            verify_lq(solution)
        finally:
            tracemalloc.stop()
        # the update's three rows and a temporary
        assert len(extra) == solution.report.iterations + 1 > 2
        assert max(extra) <= 4 * grid.n_particles * 8


def full_buffer_solve(spec, grid, damping=0.5, tol=1e-4, max_iter=50):
    """Reference damped iteration: the update is built in two full-size
    buffers and the last backward solve is kept until the coupling residual
    of the returned control is formed from it.  Returns the control, the
    coupling residual and the per-sweep changes."""
    problem = control_problem(spec, grid)
    K, N = grid.n_steps, grid.n_particles
    wq = trapezoid_weights(K + 1, grid.dt)
    basis, driver = lq_basis(spec, grid), lq_memory._adjoint_driver(spec, grid)
    control = np.zeros((K + 1, N)).T
    changes = []
    for _ in range(max_iter):
        adjoint = solve_absde(problem.simulate(control), terminal=lambda x, law: -x, driver=driver, basis=basis)
        new_control = np.multiply(control, 1.0 - damping)
        delta = np.multiply(adjoint.p0, damping)
        new_control += delta
        np.subtract(new_control, control, out=delta)
        delta *= delta
        changes.append(float(np.sqrt(np.mean(delta @ wq))))
        control = new_control
        if changes[-1] < tol:
            break
    return control, np.abs((adjoint.p0 - control).mean(axis=0)), tuple(changes)


class TestInPlaceUpdate:
    GRID = SimGrid(dt=0.02, delta_steps=3, horizon=1.0, n_particles=2_000, seed=5)
    JUMPS = JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6))

    @pytest.mark.parametrize("spec", [LQSpec(), LQSpec(beta0=0.2, jumps=JUMPS)], ids=["brownian", "jumps"])
    def test_matches_the_full_buffer_update(self, spec):
        # the row-wise update keeps the bits of the whole-array one; its
        # change norm sums the squared changes per particle one step at a
        # time, not in the order of a matrix-vector product
        solution = solve_lq(spec, self.GRID, damping=0.4)
        control, residual, changes = full_buffer_solve(spec, self.GRID, damping=0.4)
        assert solution.report.iterations == len(changes) > 2
        assert solution.control.tobytes() == control.tobytes()
        assert solution.control.strides == control.strides
        assert solution.coupling_residual.tobytes() == residual.tobytes()
        np.testing.assert_allclose(solution.report.changes, changes, rtol=1e-14, atol=0.0)

    def test_a_sweep_holds_no_row_per_step_beyond_the_ensemble(self):
        # one sweep at K = 50 and at K = 200 steps, with N and d fixed: its
        # traced peak grows by a row per step of the ensemble's state, of
        # its noise and of the control, and by no row of p0 (measured after
        # an untraced sweep, so one-time set-up is not)
        N = 2_000

        def sweep_peak(n_steps):
            grid = SimGrid(dt=0.01, delta_steps=4, horizon=n_steps * 0.01, n_particles=N, seed=5)
            assert grid.n_steps == n_steps
            tracemalloc.start()
            try:
                solve_lq(LQSpec(), grid, max_iter=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep_peak(50)
        growth = 3 * (200 - 50) * N * 8
        assert sweep_peak(200) - sweep_peak(50) <= growth + 4 * N * 8

    def test_peak_is_one_sweep(self):
        # the update holds nothing of full size beyond the control and the
        # sweep's p0, so the solve's traced peak is that of one sweep on the
        # same problem: its noise draw, a simulation and a backward solve
        # (measured after an untraced sweep, so one-time set-up is not)
        spec = LQSpec()
        grid = SimGrid(dt=0.01, delta_steps=3, horizon=1.0, n_particles=2_000, seed=5)
        K, N = grid.n_steps, grid.n_particles

        def sweep():
            problem = control_problem(spec, grid)
            ens = problem.simulate(np.zeros((K + 1, N)).T)
            driver, basis = lq_memory._adjoint_driver(spec, grid), lq_basis(spec, grid)
            solve_absde(ens, terminal=lambda x, law: -x, driver=driver, basis=basis, on_row=lambda *row: None)

        sweep()
        tracemalloc.start()
        try:
            sweep()
            sweep_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solution = solve_lq(spec, grid)
            solve_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert solution.report.iterations > 2
        slack = 8 * N * 8  # a few (N,) rows
        assert solve_peak <= sweep_peak + slack


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
