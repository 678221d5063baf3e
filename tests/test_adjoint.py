"""Adjoint machinery: segment functionals, backward LSMC solver, optimality tests."""

import dataclasses
import logging
import math
import re

import numpy as np
import pytest

from memsfde import adjoint
from memsfde.adjoint import (
    SegmentFunctional,
    SweepContext,
    _regress,
    default_basis,
    hamiltonian,
    max_condition_gap,
    riesz_advanced,
    riesz_duality_check,
    solve_absde,
    stationarity_gap,
)
from memsfde.engine import CoefficientSet, ControlProblem, JumpModel, MeshMismatchError, _Band, simulate
from memsfde.grid import GridPath, SimGrid, trapezoid_weights
from memsfde.lq_memory import LQSpec, control_problem, lq_basis


def smooth_path(rng, n_steps, dt, t0=0.0, amplitude=0.5):
    """Random low-frequency trigonometric path on the mesh."""
    t = t0 + dt * np.arange(n_steps + 1)
    vals = np.zeros(n_steps + 1)
    for j in range(1, 5):
        a, b = rng.uniform(-amplitude, amplitude, 2) / j
        vals += a * np.cos(j * math.pi * t) + b * np.sin(j * math.pi * t)
    return GridPath(values=vals, dt=dt, t0=t0)


class TestRieszAdvanced:
    def test_unit_kernel_on_constant_path(self):
        f = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=10, dt=0.1)
        p = GridPath(np.full(21, 4.0), dt=0.1, t0=0.0)
        assert riesz_advanced(f, p, 0.5) == pytest.approx(4.0)

    def test_evaluation_reads_ahead(self):
        # p(t) = t and a half-unit lag: value at t = 1 is p(1.5)
        f = SegmentFunctional.evaluation(0.5, dt=0.25)
        p = GridPath(0.25 * np.arange(9), dt=0.25, t0=0.0)
        assert riesz_advanced(f, p, 1.0) == pytest.approx(1.5)

    def test_linear_kernel_integral(self):
        # kernel r against p(r) = r over [0, 1]: integral r^2 dr = 1/3
        dt = 0.01
        f = SegmentFunctional.averaging(lambda r: r, delta_steps=100, dt=dt)
        p = GridPath(dt * np.arange(201), dt=dt, t0=0.0)
        assert riesz_advanced(f, p, 0.0) == pytest.approx(1.0 / 3.0, abs=dt**2)

    def test_zero_extension_past_path_end(self):
        f = SegmentFunctional.evaluation(0.5, dt=0.25)
        p = GridPath(np.ones(5), dt=0.25, t0=0.0)  # ends at t = 1
        assert riesz_advanced(f, p, 1.0) == 0.0
        avg = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=2, dt=0.25)
        # window [1, 1.5] has support only at the left endpoint
        assert riesz_advanced(avg, p, 1.0) == pytest.approx(0.125)

    def test_off_mesh_point_rejected(self):
        with pytest.raises(ValueError):
            SegmentFunctional.evaluation(0.3, dt=0.25)
        with pytest.raises(ValueError):
            SegmentFunctional.averaging(np.ones(3), delta_steps=4, dt=0.25)


class TestRieszDuality:
    def test_zero_y_path(self):
        f = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=4, dt=0.1)
        p = GridPath(np.ones(11), dt=0.1, t0=0.0)
        y = GridPath(np.zeros(11), dt=0.1, t0=0.0)
        assert riesz_duality_check(f, p, y) == (0.0, 0.0)

    def test_evaluation_at_zero_lag_is_exact(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        dt = 0.05
        f = SegmentFunctional.evaluation(0.0, dt=dt)
        p = smooth_path(rng, 20, dt)
        y = smooth_path(rng, 20, dt)
        lhs, rhs = riesz_duality_check(f, p, y)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    @pytest.mark.parametrize("kind", ["averaging", "evaluation"])
    def test_random_pairs_agree_to_mesh_order(self, kind):
        dt, n, d = 0.01, 100, 20
        rng = np.random.Generator(np.random.Philox(key=7))
        for _ in range(20):
            if kind == "averaging":
                kernel = rng.uniform(0.0, 1.0, d + 1)
                f = SegmentFunctional.averaging(kernel, delta_steps=d, dt=dt)
            else:
                f = SegmentFunctional.evaluation(dt * rng.integers(1, d + 1), dt=dt)
            p = smooth_path(rng, n, dt)
            y = smooth_path(rng, n, dt)
            lhs, rhs = riesz_duality_check(f, p, y)
            assert abs(lhs - rhs) < 5.0 * dt

    def test_mismatched_meshes_rejected(self):
        f = SegmentFunctional.evaluation(0.1, dt=0.1)
        p = GridPath(np.ones(11), dt=0.1, t0=0.0)
        y = GridPath(np.ones(11), dt=0.05, t0=0.0)
        with pytest.raises(ValueError):
            riesz_duality_check(f, p, y)


class TestHamiltonian:
    def test_single_drift_term(self):
        coeffs = CoefficientSet(drift=lambda *a: 1.0)
        h = hamiltonian(coeffs, t=0.0, x=0.0, p0=3.0)
        assert h == pytest.approx(3.0)

    def test_control_scaled_memory_product(self):
        # all three noise channels read u * x(t - delta); the Hamiltonian then
        # factors as u * lagged state * (p0 + q0 + r0-integral)
        scaled = lambda t, x, xs, m, ms, u, us: u * xs[..., -1]
        coeffs = CoefficientSet(drift=scaled, diffusion=scaled, jump=lambda *a: a[5] * a[2][..., -1])
        jumps = JumpModel(intensity=2.0, marks=(1.0,), probs=(1.0,))
        h = hamiltonian(
            coeffs,
            t=0.5,
            x=9.0,  # current state does not enter
            x_seg=np.array([9.0, 2.0, 1.5]),
            u=2.0,
            p0=0.1,
            q0=0.1,
            r0=0.1,
            jumps=jumps,
        )
        # bracket = 0.1 + 0.1 + 0.1 * 2 = 0.4; u * lag * bracket = 2 * 1.5 * 0.4
        assert h == pytest.approx(1.2)

    def test_vanishes_past_horizon(self):
        coeffs = CoefficientSet(drift=lambda *a: 1.0)
        h = hamiltonian(coeffs, t=1.01, x=0.0, p0=5.0, horizon=1.0)
        assert h == 0.0

    def test_past_horizon_keeps_the_shape_of_the_state(self):
        coeffs = CoefficientSet(drift=lambda *a: 1.0)
        x = np.array([1.0, 2.0, 3.0])
        inside = hamiltonian(coeffs, t=0.5, x=x, p0=5.0, horizon=1.0)
        past = hamiltonian(coeffs, t=1.5, x=x, p0=5.0, horizon=1.0)
        assert isinstance(past, np.ndarray) and past.shape == inside.shape == (3,)
        np.testing.assert_array_equal(past, 0.0)

    def test_vector_inputs_broadcast(self):
        coeffs = CoefficientSet(running_cost=lambda t, x, xs, m, ms, u, us: x * u)
        out = hamiltonian(coeffs, t=0.0, x=np.array([1.0, 2.0]), p0=0.0, u=3.0)
        np.testing.assert_allclose(out, [3.0, 6.0])


def brownian_ensemble(n, seed, dt=0.01, delta_steps=10):
    grid = SimGrid(dt=dt, delta_steps=delta_steps, horizon=1.0, n_particles=n, seed=seed)
    return simulate(CoefficientSet(diffusion=lambda *a: 1.0), grid, xi=1.0)


class TestBackwardSolver:
    def test_deterministic_terminal_is_constant(self):
        ens = brownian_ensemble(2_000, seed=13)
        adj = solve_absde(ens, terminal=lambda x, law: 4.0)
        np.testing.assert_allclose(adj.p0, 4.0, atol=1e-10)
        np.testing.assert_allclose(adj.q0, 0.0, atol=1e-10)
        np.testing.assert_allclose(adj.r0, 0.0)
        assert not (adj.q0[:, -1].any() or adj.r0[:, -1].any())  # zero loadings at the horizon

    def test_brownian_martingale_recovery(self):
        # state 1 + B(t), terminal -X(T): the time-t value is -X(t) and the
        # Brownian loading is the constant -1
        ens = brownian_ensemble(20_000, seed=29)
        adj = solve_absde(ens, terminal=lambda x, law: -x)
        K = ens.grid.n_steps
        for k in (0, K // 2, K - 1):
            err = abs(adj.p0[:, k].mean() + ens.states[:, k].mean())
            assert err < 3.0 * max(adj.mean_stderr[k], 1e-12) + 1e-3
        q_means = adj.q0[:, :K].mean(axis=0)
        assert np.max(np.abs(q_means + 1.0)) < 0.05
        np.testing.assert_allclose(adj.r0, 0.0)
        assert not (adj.q0[:, -1].any() or adj.r0[:, -1].any())  # zero loadings at the horizon

    def test_column_means_follow_zero_driver_martingale(self):
        ens = brownian_ensemble(5_000, seed=3)
        adj = solve_absde(ens, terminal=lambda x, law: -x)
        means = adj.p0.mean(axis=0)
        steps = np.abs(np.diff(means))
        assert np.max(steps) < 3.0 * np.max(adj.mean_stderr) + 1e-4

    def test_rank_deficient_fallback_warns(self, caplog):
        # deterministic state collapses every basis column to a constant
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=0.5, n_particles=16, seed=0)
        ens = simulate(CoefficientSet(drift=lambda *a: 1.0), grid, xi=1.0)
        with caplog.at_level(logging.WARNING, logger="memsfde.adjoint"):
            adj = solve_absde(ens, terminal=lambda x, law: x)
        assert len(adj.deficient_steps) == grid.n_steps
        assert any("rank-deficient" in rec.message for rec in caplog.records)
        # the fallback is still exact here: target stays the constant X(T)
        np.testing.assert_allclose(adj.p0, 1.5, atol=1e-12)

    def test_driver_runs_once_per_step_backwards(self):
        ens = brownian_ensemble(500, seed=5)
        f = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=ens.grid.delta_steps, dt=ens.grid.dt)
        steps = []

        def driver(ctx, k):
            steps.append(k)
            return ctx.advanced_average(k, f)

        adj = solve_absde(ens, terminal=lambda x, law: -x, driver=driver)
        assert steps == list(range(ens.grid.n_steps - 1, -1, -1))
        assert not (adj.q0[:, -1].any() or adj.r0[:, -1].any())  # zero loadings at the horizon

    def test_driver_cannot_read_current_or_far_future(self):
        ens = brownian_ensemble(100, seed=5)
        with pytest.raises(ValueError):
            solve_absde(ens, terminal=lambda x, law: x, driver=lambda c, k: c.p0_future(k, 0))
        too_far = ens.grid.delta_steps + 1
        with pytest.raises(ValueError):
            solve_absde(ens, terminal=lambda x, law: x, driver=lambda c, k: c.p0_future(k, too_far))

    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "terminal must be finite"),
            (np.array([1.0, 2.0, -math.inf, 0.0, 1.0]), "terminal must be finite"),
            (np.zeros(7), r"terminal has shape \(7,\), not \(\) or \(5,\)"),
            (np.zeros((5, 1)), r"terminal has shape \(5, 1\)"),
        ],
        ids=["nan", "inf_entry", "too_long", "column"],
    )
    def test_a_bad_terminal_is_refused_before_the_sweep(self, value, message):
        # NaN gave an all-NaN triple with no error, and a wrong shape a
        # numpy broadcast error
        ens = brownian_ensemble(5, seed=2, dt=0.1, delta_steps=2)
        fail = lambda *a: pytest.fail("the sweep ran")  # noqa: E731
        for on_row in (None, fail):
            with pytest.raises(ValueError, match=message):
                solve_absde(ens, terminal=lambda x, law: value, driver=fail, basis=fail, on_row=on_row)

    @pytest.mark.parametrize("shape", [(7,), (5, 1), (1,)])
    def test_a_bad_driver_value_is_refused_naming_its_step(self, shape):
        # each failed as a numpy broadcast error, or broadcast silently
        ens = brownian_ensemble(5, seed=2, dt=0.1, delta_steps=2)
        K = ens.grid.n_steps
        driver = lambda ctx, k: np.zeros(shape) if k == K - 3 else 0.5  # noqa: E731
        with pytest.raises(ValueError, match=rf"driver at step {K - 3} has shape {re.escape(str(shape))}"):
            solve_absde(ens, terminal=lambda x, law: -x, driver=driver)

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 5), (5, 2)])
    def test_a_bad_basis_is_refused_naming_its_step(self, shape):
        # a 1-D basis failed as an IndexError, a wrong N or width as a numpy
        # broadcast error; the first step's width m is what later steps need
        ens = brownian_ensemble(5, seed=2, dt=0.1, delta_steps=2)
        K = ens.grid.n_steps
        basis = lambda e, k: np.zeros(shape) if k == K - 2 else default_basis(e, k)  # noqa: E731
        expected = rf"basis at step {K - 2} has shape {re.escape(str(shape))}, not \(5, 5\)"
        with pytest.raises(ValueError, match=expected):
            solve_absde(ens, terminal=lambda x, law: -x, basis=basis, warn=False)
        first = lambda e, k: np.zeros(shape) if k == K - 1 else default_basis(e, k)  # noqa: E731
        if len(shape) != 2 or shape[0] != 5:
            with pytest.raises(ValueError, match=rf"basis at step {K - 1} has shape .*, not \(5, m\)"):
                solve_absde(ens, terminal=lambda x, law: -x, basis=first, warn=False)

    def test_zero_extension_convention_in_context(self):
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=200, seed=8)
        jumps = JumpModel(intensity=3.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        coeffs = CoefficientSet(diffusion=lambda *a: 0.3, jump=lambda t, x, xs, m, ms, u, us, z: 0.2 * z)
        ens = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        K = grid.n_steps
        seen = {}

        def probe(ctx, k):
            if k == K - 2:
                seen["p_at_horizon"] = ctx.p0_future(k, 2).copy()
            if k == K - 1:
                seen["p_tail"] = ctx.p0_future(k, 2).copy()
            return np.zeros(ens.grid.n_particles)

        adj = solve_absde(ens, terminal=lambda x, law: -x, driver=probe)
        # reads up to the horizon see the stored solution, reads past it zero
        np.testing.assert_array_equal(seen["p_at_horizon"], -ens.states[:, K])
        np.testing.assert_array_equal(seen["p_tail"], 0.0)
        assert not (adj.q0[:, -1].any() or adj.r0[:, -1].any())  # zero loadings at the horizon

    @staticmethod
    def full_and_hooked_solves(delta_steps):
        # a jump problem whose driver reads p0 through the kernel average and
        # records its reads at every lag: in a plain solve, which keeps the
        # whole triple, and in a solve that hands its rows to the caller's
        # hook.  Both are also solved by the lstsq reference sweep.  With
        # d = 0 there is no driver
        grid = SimGrid(dt=0.05, delta_steps=delta_steps, horizon=1.0, n_particles=200, seed=8)
        jumps = JumpModel(intensity=3.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        coeffs = CoefficientSet(diffusion=lambda *a: 0.3, jump=lambda t, x, xs, m, ms, u, us, z: 0.2 * z)
        ens = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        d = grid.delta_steps
        kernel = np.linspace(1.0, 0.5, d + 1)
        f = SegmentFunctional.averaging(kernel, d, grid.dt)

        def solve(hook):
            reads, rows = {}, {}

            def driver(ctx, k):
                for ahead in range(1, d + 1):
                    reads[k, ahead] = ctx.p0_future(k, ahead).copy()
                return ctx.advanced_average(k, f)

            def on_row(k, p, q, r):
                rows[k] = {"p": p.copy(), "q": q.copy(), "r": r.copy()}

            triple = solve_absde(
                ens, terminal=lambda x, law: np.sin(x), driver=driver if d else None, on_row=on_row if hook else None
            )
            return triple, reads, rows

        full, full_reads, _ = solve(hook=False)
        hooked, hooked_reads, rows = solve(hook=True)
        reference = reference_sweep(ens, np.sin, kernel if d else None)
        return ens, full, full_reads, hooked, hooked_reads, rows, reference

    @staticmethod
    def assert_rows_match_the_reference(rows, reference, n_steps):
        # the hook's rows against the per-step lstsq sweep, to 1e-10
        for name, ref in zip("pqr", reference[:3]):
            assert rel_err(np.column_stack([rows[k][name] for k in range(n_steps + 1)]), ref) <= 1e-10

    def test_windowed_loadings_match_the_full_solve(self):
        # a hook solve keeps p0 in a band of the rows a driver may still
        # read; what the driver reads there is the row the hook received at
        # every lag, and the hook receives the plain solve's bits
        ens, full, full_reads, hooked, hooked_reads, rows, reference = self.full_and_hooked_solves(4)
        K, d = ens.grid.n_steps, ens.grid.delta_steps
        assert hooked.p0 is None and hooked.q0 is None and hooked.r0 is None
        # the hook received every step's rows, horizon first
        assert list(rows) == list(range(K, -1, -1))
        for k, row in rows.items():
            for name, value in row.items():
                np.testing.assert_array_equal(value, getattr(full, f"{name}0")[:, k])
        # the driver read the same bits at every lag, zero past the horizon
        assert hooked_reads.keys() == full_reads.keys()
        assert len(full_reads) == K * d
        for (k, ahead), value in hooked_reads.items():
            np.testing.assert_array_equal(value, full_reads[k, ahead])
            if k + ahead > K:
                np.testing.assert_array_equal(value, 0.0)
            else:
                np.testing.assert_array_equal(value, rows[k + ahead]["p"])
        assert np.any(full.r0 != 0.0) and not (full.q0[:, -1].any() or full.r0[:, -1].any())
        self.assert_rows_match_the_reference(rows, reference, K)

    @pytest.mark.parametrize("delta_steps", [4, 0])
    def test_a_ring_held_p0_keeps_the_initial_step_bits(self, delta_steps):
        # p0 of a hook solve lives in a band that moves as the sweep goes
        # back; the initial step's row, the standard errors and the
        # deficient steps are the plain solve's bits, and every row is the
        # lstsq reference's.  With d = 0 each step's target is p0 at step
        # k + 1 in a band of two rows, which the step's own row overwrites:
        # it must not do so before mean_stderr reads it
        ens, full, _, hooked, _, rows, reference = self.full_and_hooked_solves(delta_steps)
        np.testing.assert_array_equal(rows[0]["p"], full.p0[:, 0])
        np.testing.assert_array_equal(hooked.mean_stderr, full.mean_stderr)
        assert hooked.deficient_steps == full.deficient_steps
        assert np.all(full.mean_stderr[:-1] > 0.0)
        self.assert_rows_match_the_reference(rows, reference, ens.grid.n_steps)


def rel_err(a, b) -> float:
    """Largest absolute difference relative to the largest reference entry."""
    scale = float(np.max(np.abs(b)))
    diff = float(np.max(np.abs(np.asarray(a) - b)))
    return diff / scale if scale > 0.0 else diff


def lstsq_regress(design, target):
    beta, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    return beta, int(rank)


def reference_sweep(ens, terminal, kernel=None, basis=default_basis):
    """Backward LSMC sweep as a per-step ``np.linalg.lstsq`` on a stacked
    design, with the advanced average (zero past the horizon) summed lag by
    lag; returns ``(p0, q0, r0, deficient_steps)``."""
    grid = ens.grid
    d, K, N, dt = grid.delta_steps, grid.n_steps, grid.n_particles, grid.dt
    p0, q0, r0 = np.zeros((N, K + 1)), np.zeros((N, K + 1)), np.zeros((N, K + 1))
    p0[:, K] = terminal(ens.state_column(K))
    w = None if kernel is None else trapezoid_weights(d + 1, dt) * kernel
    use_jumps = ens.jump_counts is not None
    deficient = []
    for k in range(K - 1, -1, -1):
        target = p0[:, k + 1].copy()
        if w is not None:
            avg = w[0] * p0[:, k + 1]
            for j in range(1, d + 1):
                if k + j <= K:
                    avg = avg + w[j] * p0[:, k + j]
            target = target + dt * avg
        phi = basis(ens, k)
        m = phi.shape[1]
        blocks = [phi, phi * ens.brownian[:, k][:, None]]
        if use_jumps:
            dn = ens.jump_counts[:, k, :].sum(axis=1) - ens.jumps.intensity * dt
            blocks.append(phi * dn[:, None])
        design = np.hstack(blocks)
        beta, rank = lstsq_regress(design, target)
        if rank < design.shape[1]:
            deficient.append(k)
        p0[:, k] = phi @ beta[:m]
        q0[:, k] = phi @ beta[m : 2 * m]
        if use_jumps:
            r0[:, k] = phi @ beta[2 * m :]
    return p0, q0, r0, tuple(reversed(deficient))


def block_design(phi, *noises):
    return np.hstack([phi] + [phi * z[:, None] for z in noises])


def regression_designs():
    rng = np.random.Generator(np.random.Philox(key=11))
    n = 400
    x, dw, dn = rng.normal(size=n), 0.1 * rng.normal(size=n), rng.poisson(0.2, size=n) - 0.2
    ones = np.ones(n)
    spec = LQSpec()
    grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.5, n_particles=n, seed=7)
    ens = control_problem(spec, grid).simulate(0.0)
    few = rng.normal(size=(5, 4))
    # wealth-like state near 2 with a constant lagged history: exactly
    # collinear columns next to a badly conditioned polynomial basis
    w = 2.0 + 0.02 * x
    history = np.column_stack([ones, w, 2.0 * ones, w * w, 2.0 * w])
    return {
        "collinear_history": (block_design(history, dw, dn), 5),
        "full_rank": (block_design(np.column_stack([ones, x, x * x]), dw, dn), 3),
        "zero_column": (block_design(np.column_stack([ones, x, np.zeros(n)]), dw, dn), 3),
        "duplicated_column": (block_design(np.column_stack([ones, x, x]), dw, dn), 3),
        "lq_first_step": (block_design(lq_basis(spec, grid)(ens, 0), ens.brownian[:, 0]), 6),
        "fewer_rows_than_columns": (block_design(few, rng.normal(size=5), rng.normal(size=5)), 4),
        "all_zero": (np.zeros((n, 6)), 2),
    }


class TestRegression:
    """The Gram/eigh routine reproduces the least-norm SVD solution."""

    @pytest.mark.parametrize("name", sorted(regression_designs()))
    def test_matches_lstsq(self, name):
        design, m = regression_designs()[name]
        rng = np.random.Generator(np.random.Philox(key=5))
        target = design @ rng.normal(size=design.shape[1]) + rng.normal(size=design.shape[0])
        beta, rank = _regress(design, target)
        ref, ref_rank = lstsq_regress(design, target)
        assert rank == ref_rank
        assert rel_err(design @ beta, design @ ref) <= 1e-10
        phi = design[:, :m]
        for b in range(0, design.shape[1], m):
            assert rel_err(phi @ beta[b : b + m], phi @ ref[b : b + m]) <= 1e-10

    def test_matrix_target_solves_each_column(self):
        design, _ = regression_designs()["duplicated_column"]
        targets = np.column_stack([np.arange(design.shape[0]) % 7, design[:, 1]])
        beta, _ = _regress(design, targets)
        for j in range(2):
            np.testing.assert_allclose(beta[:, j], _regress(design, targets[:, j])[0], rtol=1e-12, atol=1e-14)

    def test_jump_sweep_matches_lstsq_reference(self):
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=2_000, seed=21)
        jumps = JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: 0.3 * xs[:, -1] - 0.2 * x,
            diffusion=lambda *a: 0.3,
            jump=lambda t, x, xs, m, ms, u, us, z: 0.1 * z,
        )
        ens = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        kernel = np.linspace(1.0, 0.5, grid.delta_steps + 1)
        f = SegmentFunctional.averaging(kernel, grid.delta_steps, grid.dt)
        adj = solve_absde(ens, terminal=lambda x, law: -x, driver=lambda c, k: c.advanced_average(k, f))
        p0, q0, r0, deficient = reference_sweep(ens, lambda x: -x, kernel)
        assert adj.deficient_steps == deficient
        assert deficient  # the constant history collapses the lagged features
        assert rel_err(adj.p0, p0) <= 1e-10
        assert rel_err(adj.q0, q0) <= 1e-10
        assert rel_err(adj.r0, r0) <= 1e-10
        assert np.any(r0 != 0.0)


def jump_sweep_inputs():
    grid = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=2_000, seed=21)
    jumps = JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
    coeffs = CoefficientSet(
        drift=lambda t, x, xs, m, ms, u, us: 0.3 * xs[:, -1] - 0.2 * x,
        diffusion=lambda *a: 0.3,
        jump=lambda t, x, xs, m, ms, u, us, z: 0.1 * z,
    )
    ens = simulate(coeffs, grid, jumps=jumps, xi=1.0)
    f = SegmentFunctional.averaging(np.linspace(1.0, 0.5, grid.delta_steps + 1), grid.delta_steps, grid.dt)
    return ens, lambda c, k: c.advanced_average(k, f)


class TestFeatureMajorDesign:
    """The regression design and the bases are stored one feature per row."""

    def test_bases_are_views_of_feature_major_rows(self):
        spec = LQSpec()
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.5, n_particles=300, seed=7)
        ens = control_problem(spec, grid).simulate(0.0)
        for basis, m in ((default_basis, 5), (lq_basis(spec, grid), 6)):
            for k in (0, grid.delta_steps, grid.n_steps - 1):
                phi = basis(ens, k)
                assert phi.shape == (300, m)
                assert phi.T.flags.c_contiguous

    def test_c_ordered_user_basis_gives_the_same_sweep(self):
        ens, driver = jump_sweep_inputs()
        adj = solve_absde(ens, terminal=lambda x, law: -x, driver=driver)
        ref = solve_absde(
            ens,
            terminal=lambda x, law: -x,
            driver=driver,
            basis=lambda e, k: np.ascontiguousarray(default_basis(e, k)),
        )
        assert adj.deficient_steps == ref.deficient_steps
        assert adj.deficient_steps  # the constant history collapses the lagged features
        for name in ("p0", "q0", "r0"):
            assert rel_err(getattr(adj, name), getattr(ref, name)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(regression_designs()))
    def test_regress_on_transposed_rows_matches_c_order(self, name):
        design, _ = regression_designs()[name]
        rows = np.ascontiguousarray(design.T)
        rng = np.random.Generator(np.random.Philox(key=5))
        target = design @ rng.normal(size=design.shape[1]) + rng.normal(size=design.shape[0])
        beta, rank = _regress(rows.T, target)
        ref, ref_rank = _regress(np.ascontiguousarray(design), target)
        assert rank == ref_rank
        assert rel_err(design @ beta, design @ ref) <= 1e-12


class TestAdvancedAverage:
    def test_matvec_equals_lag_by_lag_sum(self):
        ens = brownian_ensemble(50, seed=4, dt=0.05, delta_steps=6)
        K, d = ens.grid.n_steps, ens.grid.delta_steps
        rng = np.random.Generator(np.random.Philox(key=3))
        # a band of the whole mesh, whose row j is step j and whose rows
        # past the horizon are zero
        p0 = _Band(ens.grid, K + d + 1)
        p0.rows[: K + 1] = rng.normal(size=(K + 1, 50))
        ctx = SweepContext(ens, p0)
        f = SegmentFunctional.averaging(rng.uniform(size=d + 1), d, ens.grid.dt)
        w = trapezoid_weights(d + 1, ens.grid.dt) * f.kernel
        for k in (0, K - d - 1, K - d, K - 3, K - 1):
            loop = w[0] * ctx.p0_future(k, 1)
            for j in range(1, d + 1):
                loop = loop + w[j] * ctx.p0_future(k, j)
            np.testing.assert_allclose(ctx.advanced_average(k, f), loop, rtol=1e-13, atol=1e-15)


    @pytest.mark.parametrize("kind", ["averaging", "evaluation"])
    def test_a_functional_from_another_mesh_is_refused(self, kind):
        # a kernel sampled at 2 dt, or a point counted in steps of 2 dt, was
        # read on the sweep's mesh with no error
        ens = brownian_ensemble(50, seed=4, dt=0.05, delta_steps=4)
        if kind == "averaging":
            f = SegmentFunctional.averaging(1.0, 4, 0.1)
        else:
            f = SegmentFunctional.evaluation(0.2, 0.1)
        with pytest.raises(MeshMismatchError, match=r"dt=0\.1, the sweep's mesh dt=0\.05"):
            solve_absde(ens, terminal=lambda x, law: -x, driver=lambda c, k: c.advanced_average(k, f))


class TestRankDeficiencySummary:
    """Every backward solve's rank-deficient steps are reported by one helper,
    on the caller's logger."""

    @pytest.mark.parametrize(
        "counts, where",
        [
            ((3,), "3 of 10 steps"),
            ((3, 3, 3), "3 of 10 steps in each of 3 solves"),
            ((0, 2, 5), "2 to 5 of 10 steps in 2 of 3 solves"),
        ],
    )
    def test_message_forms(self, counts, where, caplog):
        logger = logging.getLogger("memsfde.lq_memory")
        with caplog.at_level(logging.WARNING, logger=logger.name):
            adjoint._log_rank_deficiency(logger, counts, 10)
        assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [
            (logger.name, f"rank-deficient regression at {where}; least-norm/ensemble-mean fallback used")
        ]

    @pytest.mark.parametrize("counts", [(), (0,), (0, 0)])
    def test_no_deficient_step_logs_nothing(self, counts, caplog):
        with caplog.at_level(logging.WARNING):
            adjoint._log_rank_deficiency(adjoint.log, counts, 10)
        assert caplog.records == []


class TestMaxCondition:
    def test_zero_bracket_means_no_improvement(self):
        # terminal cost is constant, so the whole adjoint triple vanishes and
        # the Hamiltonian cannot be improved by any candidate
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.5, n_particles=200, seed=2)
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: u * xs[:, -1],
            terminal_cost=lambda x, law: 0.0,
        )
        ens = simulate(coeffs, grid, xi=1.0, control=0.0)
        adj = solve_absde(ens, terminal=lambda x, law: 0.0)
        gap, se = max_condition_gap(coeffs, ens, adj, [-1.0, 0.3, 2.0])
        assert gap == 0.0
        assert se == 0.0

    @pytest.mark.parametrize("filtration", ["trivial", "full"])
    def test_improvable_control_has_positive_gap(self, filtration):
        # with p0 = 1 the Hamiltonian is u * lag: candidate 0.5 beats u = 0
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.5, n_particles=200, seed=2)
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: u * xs[:, -1],
            terminal_cost=lambda x, law: x,
        )
        ens = simulate(coeffs, grid, xi=1.0, control=0.0)
        adj = solve_absde(ens, terminal=lambda x, law: np.ones_like(x))
        gap, se = max_condition_gap(coeffs, ens, adj, [-1.0, 0.0, 0.5], filtration=filtration)
        assert gap == pytest.approx(0.5, abs=1e-10)
        assert gap > 3.0 * se

    def test_full_filtration_matches_lstsq(self, monkeypatch):
        spec = LQSpec()
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.5, n_particles=300, seed=7)
        problem = control_problem(spec, grid)
        ens = problem.simulate(0.0)
        basis = lq_basis(spec, grid)
        adj = solve_absde(ens, terminal=lambda x, law: -x, basis=basis)
        args = (problem.coeffs, ens, adj, [-0.5, 0.0, 0.5])
        gap, se = max_condition_gap(*args, filtration="full", basis=basis)
        monkeypatch.setattr(adjoint, "_regress", lstsq_regress)
        ref_gap, ref_se = max_condition_gap(*args, filtration="full", basis=basis)
        assert abs(gap - ref_gap) <= 1e-10 * abs(ref_gap)
        assert abs(se - ref_se) <= 1e-10 * abs(ref_se)

    def test_bad_arguments_rejected(self):
        ens = brownian_ensemble(10, seed=1)
        adj = solve_absde(ens, terminal=lambda x, law: x)
        with pytest.raises(ValueError):
            max_condition_gap(CoefficientSet(), ens, adj, [])
        with pytest.raises(ValueError):
            max_condition_gap(CoefficientSet(), ens, adj, [0.0], filtration="partial")

    def test_a_bad_filtration_is_refused_before_the_step_loop(self, monkeypatch):
        # it was refused only after step 0's Hamiltonian was evaluated
        ens = brownian_ensemble(10, seed=1)
        adj = solve_absde(ens, terminal=lambda x, law: x)
        monkeypatch.setattr(adjoint, "hamiltonian", lambda *a, **k: pytest.fail("the Hamiltonian was evaluated"))
        with pytest.raises(ValueError, match="filtration must be 'trivial' or 'full', got 'partial'"):
            max_condition_gap(CoefficientSet(), ens, adj, [0.0], filtration="partial")

    @pytest.mark.parametrize("candidates", [[math.nan], [0.0, math.nan], [math.inf], [0.5, -math.inf]])
    def test_non_finite_candidates_refused(self, candidates):
        # a nan gap compared false and read as no improvement, and an
        # infinite candidate gave a nan gap
        ens = brownian_ensemble(10, seed=1)
        adj = solve_absde(ens, terminal=lambda x, law: x)
        with pytest.raises(ValueError, match="finite"):
            max_condition_gap(CoefficientSet(), ens, adj, candidates)

    @pytest.mark.parametrize(
        "change", [dict(horizon=0.5), dict(n_particles=30), dict(dt=0.025), dict(delta_steps=2)]
    )
    def test_a_triple_from_another_mesh_is_refused(self, change):
        # a triple from a 10-step grid failed with an IndexError at step 11,
        # and one from a mesh with other particles, dt or lag steps was read
        base = dict(dt=0.05, delta_steps=4, horizon=1.0, n_particles=20, seed=2)
        ens, other = (
            simulate(CoefficientSet(diffusion=lambda *a: 1.0), SimGrid(**kwargs), xi=1.0)
            for kwargs in (base, {**base, **change})
        )
        adj = solve_absde(other, terminal=lambda x, law: x)
        with pytest.raises(MeshMismatchError, match="adjoint was solved on"):
            max_condition_gap(CoefficientSet(), ens, adj, [0.0])

    @pytest.mark.parametrize("keep", ["p0", "initial_p0"])
    @pytest.mark.parametrize("filtration", ["trivial", "full"])
    def test_a_triple_without_its_loadings_is_refused(self, keep, filtration):
        # a solve with on_row returns a triple without arrays; one whose p0
        # is rebuilt from the hook's rows (every step, or step 0 alone)
        # still has no q0 or r0 for the Hamiltonian.  Both are refused by
        # name before the step loop (they raised TypeError in it)
        ens = brownian_ensemble(10, seed=1)
        rows = {}
        adj = solve_absde(ens, terminal=lambda x, law: x, on_row=lambda k, p, q, r: rows.setdefault(k, p.copy()))
        steps = range(ens.grid.n_steps + 1) if keep == "p0" else [0]
        rebuilt = dataclasses.replace(adj, p0=np.column_stack([rows[k] for k in steps]))
        for triple in (adj, rebuilt):
            with pytest.raises(ValueError, match="on_row"):
                max_condition_gap(CoefficientSet(), ens, triple, [0.0, 0.5], filtration=filtration)


class TestStationarityGap:
    @staticmethod
    def quadratic_problem(n=1, seed=0):
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: u,
            running_cost=lambda t, x, xs, m, ms, u, us: -(u**2) / 2.0,
            terminal_cost=lambda x, law: -(x**2) / 2.0,
        )
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=n, seed=seed)
        return ControlProblem(coeffs=coeffs, grid=grid, xi=1.0)

    def test_known_quadratic_optimum(self):
        problem = self.quadratic_problem()
        gap, se = stationarity_gap(problem, control=-0.5, direction=1.0, eps=1e-3)
        assert abs(gap) < 1e-3

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.inf, math.nan])
    def test_eps_must_be_positive_and_finite(self, eps):
        problem = self.quadratic_problem()
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            stationarity_gap(problem, control=-0.5, direction=1.0, eps=eps)

    def test_zero_direction_is_exact_zero(self):
        problem = self.quadratic_problem()
        gap, se = stationarity_gap(problem, control=-0.5, direction=0.0, eps=1e-3)
        assert (gap, se) == (0.0, 0.0)

    def test_off_optimum_sign_matches_concavity(self):
        problem = self.quadratic_problem()
        above, _ = stationarity_gap(problem, control=0.0, direction=1.0, eps=1e-3)
        below, _ = stationarity_gap(problem, control=-1.0, direction=1.0, eps=1e-3)
        assert above < 0.0 < below

    def test_common_noise_shrinks_the_error_bar(self):
        # same quadratic problem but with Brownian noise: the paired difference
        # cancels almost all of the cost variance
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: u,
            diffusion=lambda *a: 0.2,
            running_cost=lambda t, x, xs, m, ms, u, us: -(u**2) / 2.0,
            terminal_cost=lambda x, law: -(x**2) / 2.0,
        )
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=1.0, n_particles=4_000, seed=17)
        problem = ControlProblem(coeffs=coeffs, grid=grid, xi=1.0)
        gap, se = stationarity_gap(problem, control=-0.5, direction=1.0, eps=1e-2)
        cost_sd = float(np.std(problem.simulate(-0.5).states[:, -1]))
        assert se < cost_sd  # paired CRN differencing beats naive MC by far
        assert abs(gap) < 3.0 * se + 1e-3
