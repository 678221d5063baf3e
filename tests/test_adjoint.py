"""Adjoint machinery: segment functionals, backward LSMC solver, optimality tests."""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memsfde import adjoint
from memsfde.adjoint import (
    SegmentFunctional,
    SweepContext,
    _regress,
    default_basis,
    riesz_advanced,
    riesz_duality_check,
    solve_absde,
    stationarity_gap,
)
from memsfde.engine import CoefficientSet, ControlProblem, JumpModel, MeshMismatchError, _mean_and_stderr, simulate
from memsfde.grid import SimGrid, trapezoid_weights
from memsfde.lq_memory import LQSpec, control_problem, lq_basis


def smooth_path(rng, n_steps, dt, amplitude=0.5):
    """Random low-frequency trigonometric path's values on the mesh from t = 0."""
    t = dt * np.arange(n_steps + 1)
    vals = np.zeros(n_steps + 1)
    for j in range(1, 5):
        a, b = rng.uniform(-amplitude, amplitude, 2) / j
        vals += a * np.cos(j * math.pi * t) + b * np.sin(j * math.pi * t)
    return vals


class TestRieszAdvanced:
    def test_unit_kernel_on_constant_path(self):
        f = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=10, dt=0.1)
        assert riesz_advanced(f, np.full(21, 4.0), 5) == pytest.approx(4.0)

    def test_evaluation_reads_ahead(self):
        # p(t) = t and a half-unit lag: value at t = 1 is p(1.5)
        f = SegmentFunctional.evaluation(0.5, dt=0.25)
        assert riesz_advanced(f, 0.25 * np.arange(9), 4) == pytest.approx(1.5)

    def test_linear_kernel_integral(self):
        # kernel r against p(r) = r over [0, 1]: integral r^2 dr = 1/3
        dt = 0.01
        f = SegmentFunctional.averaging(lambda r: r, delta_steps=100, dt=dt)
        assert riesz_advanced(f, dt * np.arange(201), 0) == pytest.approx(1.0 / 3.0, abs=dt**2)

    def test_zero_extension_past_path_end(self):
        f = SegmentFunctional.evaluation(0.5, dt=0.25)
        p = np.ones(5)  # ends at t = 1, step 4
        assert riesz_advanced(f, p, 4) == 0.0
        avg = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=2, dt=0.25)
        # window [1, 1.5] has support only at the left endpoint
        assert riesz_advanced(avg, p, 4) == pytest.approx(0.125)

    def test_off_mesh_point_rejected(self):
        with pytest.raises(ValueError):
            SegmentFunctional.evaluation(0.3, dt=0.25)
        with pytest.raises(ValueError):
            SegmentFunctional.averaging(np.ones(3), delta_steps=4, dt=0.25)

    @pytest.mark.parametrize("k", [5, -1, 2.0, True])
    def test_a_step_outside_the_path_is_refused(self, k):
        f = SegmentFunctional.evaluation(0.25, dt=0.25)
        with pytest.raises(ValueError, match=rf"step k={k!r} is not one of the path's 5 mesh steps"):
            riesz_advanced(f, np.ones(5), k)


BAD_PATHS = {
    "2-d": (np.ones((5, 1)), r"non-empty 1-d array of mesh values, got shape \(5, 1\)"),
    "empty": (np.ones(0), r"non-empty 1-d array of mesh values, got shape \(0,\)"),
    "nan": (np.array([0.0, math.nan, 1.0, 1.0, 1.0]), "path values must be finite"),
    "inf": (np.array([0.0, 1.0, math.inf, 1.0, 1.0]), "path values must be finite"),
    "-inf": (np.array([0.0, 1.0, 1.0, 1.0, -math.inf]), "path values must be finite"),
}


class TestRieszDuality:
    def test_zero_y_path(self):
        f = SegmentFunctional.averaging(lambda r: 1.0, delta_steps=4, dt=0.1)
        assert riesz_duality_check(f, np.ones(11), np.zeros(11)) == (0.0, 0.0)

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

    @pytest.mark.parametrize("bad", sorted(BAD_PATHS))
    def test_a_bad_path_is_refused(self, bad):
        # the values of a path are read as given; a malformed one is refused
        # whichever argument it is
        path, message = BAD_PATHS[bad]
        f = SegmentFunctional.averaging(1.0, delta_steps=2, dt=0.1)
        with pytest.raises(ValueError, match=message):
            riesz_advanced(f, path, 0)
        for p, y in ((path, np.ones(5)), (np.ones(5), path)):
            with pytest.raises(ValueError, match=message):
                riesz_duality_check(f, p, y)

    def test_a_p_path_shorter_than_y_is_refused(self):
        f = SegmentFunctional.evaluation(0.1, dt=0.1)
        with pytest.raises(ValueError, match="step k=5 is not one of the path's 5 mesh steps"):
            riesz_duality_check(f, np.ones(5), np.ones(11))


def brownian_ensemble(n, seed, dt=0.01, delta_steps=10):
    grid = SimGrid(dt=dt, delta_steps=delta_steps, horizon=1.0, n_particles=n, seed=seed)
    return simulate(CoefficientSet(diffusion=lambda *a: 1.0), grid, xi=1.0)


def reading_store(grid, read, hook=None):
    """A driver that reads the solved future of p0 and the hook that keeps
    it: ``driver(k)`` returns ``read(store, k)`` from a
    :class:`SweepContext` that ``on_row`` writes each step's p0 into before
    it hands the step's rows on to ``hook``."""
    store = SweepContext(grid)

    def on_row(k, p, q, r):
        store.row(k)[...] = p
        if hook is not None:
            hook(k, p, q, r)

    return (lambda k: read(store, k)), on_row


def stacked(rows, n_steps):
    """The (3, N, n_steps + 1) triple of the rows a hook kept as ``rows[k] =
    (p0, q0, r0)``."""
    return np.stack([rows[k] for k in range(n_steps + 1)], axis=-1)


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
            # the driverless target at step k is p0 at step k + 1
            assert err < 3.0 * max(_mean_and_stderr(adj.p0[:, k + 1])[1], 1e-12) + 1e-3
        q_means = adj.q0[:, :K].mean(axis=0)
        assert np.max(np.abs(q_means + 1.0)) < 0.05
        np.testing.assert_allclose(adj.r0, 0.0)
        assert not (adj.q0[:, -1].any() or adj.r0[:, -1].any())  # zero loadings at the horizon

    def test_column_means_follow_zero_driver_martingale(self):
        ens = brownian_ensemble(5_000, seed=3)
        adj = solve_absde(ens, terminal=lambda x, law: -x)
        means = adj.p0.mean(axis=0)
        steps = np.abs(np.diff(means))
        target_stderr = [_mean_and_stderr(adj.p0[:, k + 1])[1] for k in range(ens.grid.n_steps)]
        assert np.max(steps) < 3.0 * np.max(target_stderr) + 1e-4

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
        steps, rows = [], {}

        def read(store, k):
            steps.append(k)
            return store.advanced_average(k, f)

        driver, on_row = reading_store(ens.grid, read, lambda k, p, q, r: rows.setdefault(k, (q.copy(), r.copy())))
        solve_absde(ens, terminal=lambda x, law: -x, driver=driver, on_row=on_row)
        assert steps == list(range(ens.grid.n_steps - 1, -1, -1))
        q, r = rows[ens.grid.n_steps]
        assert not (q.any() or r.any())  # zero loadings at the horizon

    def test_driver_cannot_read_current_or_far_future(self):
        ens = brownian_ensemble(100, seed=5)
        too_far = ens.grid.delta_steps + 1
        for ahead in (0, too_far):
            driver, on_row = reading_store(ens.grid, lambda store, k: store.future(k, ahead))
            with pytest.raises(ValueError):
                solve_absde(ens, terminal=lambda x, law: x, driver=driver, on_row=on_row)

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
        driver = lambda k: np.zeros(shape) if k == K - 3 else 0.5  # noqa: E731
        with pytest.raises(ValueError, match=rf"driver at step {K - 3} has shape {re.escape(str(shape))}"):
            solve_absde(ens, terminal=lambda x, law: -x, driver=driver)

    @pytest.mark.parametrize("shape", [(5,), (4, 3), (3, 5), (5, 2)])
    def test_a_bad_basis_is_refused_naming_its_step(self, shape):
        # a 1-D basis failed as an IndexError, a wrong N or width as a numpy
        # broadcast error; the first step's width m is what later steps need
        ens = brownian_ensemble(5, seed=2, dt=0.1, delta_steps=2)
        K = ens.grid.n_steps
        basis = lambda e, k, out=None: np.zeros(shape) if k == K - 2 else default_basis(e, k, out)  # noqa: E731
        expected = rf"basis at step {K - 2} has shape {re.escape(str(shape))}, not \(5, 5\)"
        with pytest.raises(ValueError, match=expected):
            solve_absde(ens, terminal=lambda x, law: -x, basis=basis, warn=False)
        first = lambda e, k, out=None: np.zeros(shape) if k == K - 1 else default_basis(e, k, out)  # noqa: E731
        if len(shape) != 2 or shape[0] != 5:
            with pytest.raises(ValueError, match=rf"basis at step {K - 1} has shape .*, not \(5, m\)"):
                solve_absde(ens, terminal=lambda x, law: -x, basis=first, warn=False)

    def test_zero_extension_convention_in_context(self):
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=200, seed=8)
        jumps = JumpModel(intensity=3.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        coeffs = CoefficientSet(diffusion=lambda *a: 0.3, jump=lambda t, x, xs, m, ms, u, us, z: 0.2 * z)
        ens = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        K = grid.n_steps
        seen, rows = {}, {}

        def probe(store, k):
            if k == K - 2:
                seen["p_at_horizon"] = store.future(k, 2).copy()
            if k == K - 1:
                seen["p_tail"] = store.future(k, 2).copy()
            return np.zeros(ens.grid.n_particles)

        driver, on_row = reading_store(grid, probe, lambda k, p, q, r: rows.setdefault(k, (q.copy(), r.copy())))
        solve_absde(ens, terminal=lambda x, law: -x, driver=driver, on_row=on_row)
        # reads up to the horizon see the stored solution, reads past it zero
        np.testing.assert_array_equal(seen["p_at_horizon"], -ens.states[:, K])
        np.testing.assert_array_equal(seen["p_tail"], 0.0)
        q, r = rows[K]
        assert not (q.any() or r.any())  # zero loadings at the horizon

    @staticmethod
    def full_and_hooked_solves(delta_steps):
        # a jump problem whose driver reads p0 through the kernel average,
        # from a store its hook writes, and records its reads at every lag:
        # in the copying sweep, the solve's layout before it kept p0 in two
        # rows, whose hook keeps the whole triple, and in the solve, whose
        # hook keeps every step's rows.  Both are also solved by the lstsq
        # reference sweep.  With d = 0 there is no driver
        grid = SimGrid(dt=0.05, delta_steps=delta_steps, horizon=1.0, n_particles=200, seed=8)
        jumps = JumpModel(intensity=3.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        coeffs = CoefficientSet(diffusion=lambda *a: 0.3, jump=lambda t, x, xs, m, ms, u, us, z: 0.2 * z)
        ens = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        d = grid.delta_steps
        kernel = np.linspace(1.0, 0.5, d + 1)
        f = SegmentFunctional.averaging(kernel, d, grid.dt)

        def solve(sweep, **kwargs):
            reads, rows = {}, {}

            def read(store, k):
                for ahead in range(1, d + 1):
                    reads[k, ahead] = store.future(k, ahead).copy()
                return store.advanced_average(k, f)

            def keep(k, p, q, r):
                rows[k] = {"p": p.copy(), "q": q.copy(), "r": r.copy()}

            driver, on_row = reading_store(grid, read, keep)
            result = sweep(ens, driver=driver if d else None, basis=default_basis, on_row=on_row, **kwargs)
            return result, reads, rows

        deficient, full_reads, full_rows = solve(copying_sweep, terminal=np.sin)
        arrays = (np.column_stack([full_rows[k][name] for k in range(grid.n_steps + 1)]) for name in "pqr")
        full = adjoint.AdjointTriple(grid, *arrays, deficient)
        hooked, hooked_reads, rows = solve(solve_absde, terminal=lambda x, law: np.sin(x))
        reference = reference_sweep(ens, np.sin, kernel if d else None)
        return ens, full, full_reads, hooked, hooked_reads, rows, reference

    @staticmethod
    def assert_rows_match_the_reference(rows, reference, n_steps):
        # the hook's rows against the per-step lstsq sweep, to 1e-10
        for name, ref in zip("pqr", reference[:3]):
            assert rel_err(np.column_stack([rows[k][name] for k in range(n_steps + 1)]), ref) <= 1e-10

    def test_windowed_loadings_match_the_full_solve(self):
        # the driver reads p0 from a band of the rows it may still read,
        # which the hook writes; what it reads there is the row the hook
        # received at every lag, and the hook receives the bits of the
        # copying sweep, which keeps the whole triple
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
        # the solve keeps p0 in two rows, and the driver reads it from a
        # band that moves as the sweep goes back; the initial step's row,
        # the standard errors of the rows and the deficient steps are the
        # copying sweep's bits, and every row is the lstsq reference's.
        # Each step's target is p0 at step k + 1, whose row the step after
        # overwrites: it must not do so before the regression reads it
        ens, full, _, hooked, _, rows, reference = self.full_and_hooked_solves(delta_steps)
        np.testing.assert_array_equal(rows[0]["p"], full.p0[:, 0])
        for k in range(1, ens.grid.n_steps + 1):
            stderr = _mean_and_stderr(rows[k]["p"])[1]
            assert stderr == _mean_and_stderr(full.p0[:, k])[1] and stderr > 0.0
        assert hooked.deficient_steps == full.deficient_steps
        self.assert_rows_match_the_reference(rows, reference, ens.grid.n_steps)

    def test_a_solve_takes_no_statistic_of_its_targets(self, monkeypatch):
        # every step of every solve took its target's mean and standard
        # error, which no hook solve's caller reads
        monkeypatch.setattr(adjoint, "_mean_and_stderr", lambda *a: pytest.fail("a statistic was taken"))
        ens, read = jump_sweep_inputs()
        driver, on_row = reading_store(ens.grid, read)
        solve_absde(ens, terminal=lambda x, law: -x, driver=driver, on_row=on_row, warn=False)
        solve_absde(ens, terminal=lambda x, law: -x, warn=False)


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
        rows = {}
        driver, on_row = reading_store(
            grid, lambda store, k: store.advanced_average(k, f), lambda k, *row: rows.setdefault(k, np.stack(row))
        )
        adj = solve_absde(ens, terminal=lambda x, law: -x, driver=driver, on_row=on_row)
        p0, q0, r0, deficient = reference_sweep(ens, lambda x: -x, kernel)
        assert adj.deficient_steps == deficient
        assert deficient  # the constant history collapses the lagged features
        for solved, ref in zip(stacked(rows, grid.n_steps), (p0, q0, r0)):
            assert rel_err(solved, ref) <= 1e-10
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
    return ens, lambda store, k: store.advanced_average(k, f)


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
        ens, read = jump_sweep_inputs()

        def solved(basis):
            rows = {}
            driver, on_row = reading_store(ens.grid, read, lambda k, *row: rows.setdefault(k, np.stack(row)))
            adj = solve_absde(ens, terminal=lambda x, law: -x, driver=driver, basis=basis, on_row=on_row)
            return adj.deficient_steps, stacked(rows, ens.grid.n_steps)

        deficient, triple = solved(default_basis)
        # a basis that leaves ``out`` alone is copied into the design
        ref_deficient, ref = solved(lambda e, k, out=None: np.ascontiguousarray(default_basis(e, k)))
        assert deficient == ref_deficient
        assert deficient  # the constant history collapses the lagged features
        for solved_rows, ref_rows in zip(triple, ref):
            assert rel_err(solved_rows, ref_rows) <= 1e-12

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


def copying_sweep(ens, terminal, driver, basis, on_row):
    """The backward sweep with every step's basis built in a new array and
    copied into the design, and p0 kept in a store of the rows ahead: the
    layout and operations of the solve before bases wrote into the design
    and before it kept p0 in two rows.  Hands ``on_row`` every step's
    ``(k, p0, q0, r0)`` and returns the rank-deficient steps in time
    order."""
    grid = ens.grid
    K, N, dt = grid.n_steps, grid.n_particles, grid.dt
    store, q, r = SweepContext(grid), np.zeros(N), np.zeros(N)
    p = store.row(K)
    p[...] = terminal(ens.state_column(K))
    on_row(K, p, q, r)
    use_jumps = ens.jump_counts is not None
    deficient = []
    for k in range(K - 1, -1, -1):
        target = p if driver is None else p + dt * driver(k)
        phi = basis(ens, k).T
        m = phi.shape[0]
        blocks = [phi, phi * ens.brownian[:, k]]
        if use_jumps:
            blocks.append(phi * (ens.jump_counts[:, k, :].sum(axis=1) - ens.jumps.intensity * dt))
        rows = np.concatenate(blocks)
        beta, rank = _regress(rows.T, target, step=k)
        if rank < rows.shape[0]:
            deficient.append(k)
        p = np.matmul(beta[:m], rows[:m], out=store.row(k))
        np.matmul(beta[m : 2 * m], rows[:m], out=q)
        if use_jumps:
            np.matmul(beta[2 * m :], rows[:m], out=r)
        on_row(k, p, q, r)
    return tuple(reversed(deficient))


class TestRowsInPlace:
    """A solve that writes its basis into the design and keeps p0 in two
    rows hands ``on_row`` the bits of the copying sweep."""

    @staticmethod
    def rows_of(solve, ens, read, **kwargs):
        # the rows a solve hands over when its driver reads p0 through
        # ``read`` from a store its hook writes
        rows = {}
        driver, on_row = reading_store(ens.grid, read, lambda k, *row: rows.setdefault(k, np.stack(row)))
        solve(ens, driver=driver, on_row=on_row, **kwargs)
        return rows

    @staticmethod
    def counting_bands(monkeypatch):
        made = []
        band = adjoint._Band

        def counting(grid, n_rows):
            made.append(n_rows)
            return band(grid, n_rows)

        monkeypatch.setattr(adjoint, "_Band", counting)
        return made

    def test_default_basis_with_a_driver_that_reads_its_own_store(self, monkeypatch):
        # as in the mean-variance check: the driver reads d steps ahead a
        # combination of the triple, kept in its own store by the hook, and
        # the solve makes no store of its own
        ens, _ = jump_sweep_inputs()
        grid, d = ens.grid, ens.grid.delta_steps
        terminal = lambda x: -x  # noqa: E731

        def solved(solve, **kwargs):
            own = SweepContext(grid)
            rows = {}

            def on_row(k, p, q, r):
                rows[k] = np.stack([p, q, r])
                w = own.row(k)
                np.multiply(q, 0.5, out=w)
                w += p - 0.25 * r

            solve(ens, driver=lambda k: own.future(k, d), basis=default_basis, on_row=on_row, **kwargs)
            return rows

        reference = solved(copying_sweep, terminal=terminal)
        made = self.counting_bands(monkeypatch)
        rows = solved(solve_absde, terminal=lambda x, law: terminal(x), warn=False)
        assert made == [d + 1 + (d + 4) // 4]  # the driver's own store, and none for p0
        assert list(rows) == list(reference) == list(range(grid.n_steps, -1, -1))
        for k in rows:
            assert rows[k].tobytes() == reference[k].tobytes(), k
        assert np.any(rows[0][2] != 0.0)

    @pytest.mark.parametrize("jumps", [False, True])
    def test_lq_basis_with_the_advanced_average(self, jumps):
        # the driver reads p0 ahead from a store its hook writes; the basis
        # writes its six features into the design
        model = JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        spec = LQSpec(beta0=0.2, jumps=model) if jumps else LQSpec()
        grid = SimGrid(dt=0.02, delta_steps=4, horizon=0.6, n_particles=1_000, seed=9)
        ens = control_problem(spec, grid).simulate(0.3)
        f = spec.delay_functional(grid)
        read = lambda store, k: store.advanced_average(k, f)  # noqa: E731
        basis = lq_basis(spec, grid)
        outs = []

        def writing(e, k, out=None):
            phi = basis(e, k, out)
            outs.append(out is not None and np.shares_memory(phi, out))
            return phi

        reference = self.rows_of(copying_sweep, ens, read, terminal=lambda x: -x, basis=basis)
        rows = self.rows_of(solve_absde, ens, read, terminal=lambda x, law: -x, basis=writing, warn=False)
        # one call learns the width, then every step writes into the design
        assert outs == [False] + [True] * grid.n_steps
        for k in range(grid.n_steps + 1):
            assert rows[k].tobytes() == reference[k].tobytes(), k

    def test_a_hook_of_p0_alone_gets_the_same_p0(self):
        ens, read = jump_sweep_inputs()
        full, alone = self.rows_of(solve_absde, ens, read, terminal=lambda x, law: -x), {}
        store = SweepContext(ens.grid)

        def on_row(k, p):
            store.row(k)[...] = p
            alone[k] = p.copy()

        solve_absde(ens, terminal=lambda x, law: -x, driver=lambda k: read(store, k), on_row=on_row)
        assert list(alone) == list(full)
        for k, p in alone.items():
            assert p.tobytes() == full[k][0].tobytes()


@st.composite
def sweep_cases(draw):
    """A small problem on the property sizes of ``tests/test_engine.py``
    (N <= 7, K <= 12), with or without jumps, a lag of 1-4 steps (d >= K
    included, so that some reads fall past the horizon), a drawn kernel,
    and what the driver reads: nothing, p0 through the kernel average, or a
    combination of the triple d steps ahead."""
    n, k, d = draw(st.integers(1, 7)), draw(st.integers(1, 12)), draw(st.integers(1, 4))
    grid = SimGrid(dt=0.1, delta_steps=d, horizon=0.1 * k, n_particles=n, seed=draw(st.integers(0, 2**64 - 1)))
    jumps = JumpModel(intensity=draw(st.sampled_from([0.0, 2.0])), marks=(1.0, -0.5), probs=(0.4, 0.6))
    coeffs = CoefficientSet(
        drift=lambda t, x, xs, m, ms, u, us: 0.3 * xs[:, -1] - 0.5 * x,
        diffusion=lambda t, x, *rest: 0.2 + 0.1 * np.tanh(x),
        jump=lambda t, x, xs, m, ms, u, us, mark: 0.1 * mark * np.tanh(xs[:, -1]),
    )
    ens = simulate(coeffs, grid, jumps=jumps, xi=draw(st.floats(-2.0, 2.0)))
    kernel = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d + 1, max_size=d + 1)))
    return ens, kernel, draw(st.sampled_from(["nothing", "average", "combination"]))


class TestHookedRows:
    """A solve with ``on_row`` hands over the rows the plain solve returns;
    with a driver that reads its caller's store, the copying sweep's."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=sweep_cases())
    def test_every_step_hands_on_row_the_reference_bits(self, case):
        ens, kernel, reads = case
        grid = ens.grid
        K, d = grid.n_steps, grid.delta_steps
        f = SegmentFunctional.averaging(kernel, d, grid.dt)

        def rows_of(sweep, **kwargs):
            rows = {}

            def keep(k, p, q, r):
                rows[k] = np.stack([p, q, r])

            if reads == "nothing":
                driver, on_row = None, keep
            elif reads == "average":
                driver, on_row = reading_store(grid, lambda store, k: store.advanced_average(k, f), keep)
            else:
                own = SweepContext(grid)

                def on_row(k, p, q, r):
                    keep(k, p, q, r)
                    w = own.row(k)
                    np.multiply(q, 0.5, out=w)
                    w += p - 0.25 * r

                def driver(k):
                    return own.future(k, d)

            sweep(ens, driver=driver, basis=default_basis, on_row=on_row, **kwargs)
            return rows

        reference = rows_of(copying_sweep, terminal=np.sin)
        rows = rows_of(solve_absde, terminal=lambda x, law: np.sin(x), warn=False)
        assert list(rows) == list(reference) == list(range(K, -1, -1))
        for k in rows:
            assert rows[k].tobytes() == reference[k].tobytes(), k
        if reads == "nothing":
            plain = solve_absde(ens, terminal=lambda x, law: np.sin(x), warn=False)
            for k in rows:
                assert rows[k].tobytes() == np.stack([plain.p0[:, k], plain.q0[:, k], plain.r0[:, k]]).tobytes(), k


class TestAdvancedAverage:
    def test_matvec_equals_lag_by_lag_sum(self):
        grid = SimGrid(dt=0.05, delta_steps=6, horizon=1.0, n_particles=50, seed=4)
        K, d = grid.n_steps, grid.delta_steps
        rng = np.random.Generator(np.random.Philox(key=3))
        rows = rng.normal(size=(K + 1, 50))
        f = SegmentFunctional.averaging(rng.uniform(size=d + 1), d, grid.dt)
        w = trapezoid_weights(d + 1, grid.dt) * f.kernel
        ctx = SweepContext(grid)
        ctx.row(K)[...] = rows[K]
        for k in range(K - 1, -1, -1):
            loop = w[0] * ctx.future(k, 1)
            for j in range(1, d + 1):
                loop = loop + w[j] * ctx.future(k, j)
            np.testing.assert_allclose(ctx.advanced_average(k, f), loop, rtol=1e-13, atol=1e-15)
            ctx.row(k)[...] = rows[k]


class TestSweepContext:
    """The one store of a backward sweep's rows ahead, written horizon first."""

    @pytest.mark.parametrize("d", range(5))
    def test_rows_read_back_ahead_and_zero_past_the_horizon(self, d):
        # d <= 3 gives a store that moves every step, d = 4 one that moves
        # every other step
        grid = SimGrid(dt=0.05, delta_steps=d, horizon=0.6, n_particles=7, seed=1)
        K = grid.n_steps
        rng = np.random.Generator(np.random.Philox(key=d))
        rows = rng.normal(size=(K + 1, 7))
        f = SegmentFunctional.averaging(rng.uniform(size=d + 1), d, grid.dt)
        w = trapezoid_weights(d + 1, grid.dt) * f.kernel
        ctx = SweepContext(grid)
        ctx.row(K)[...] = rows[K]
        for k in range(K - 1, -1, -1):
            for ahead in range(1, d + 1):
                expected = rows[k + ahead] if k + ahead <= K else np.zeros(7)
                np.testing.assert_array_equal(ctx.future(k, ahead), expected)
            for ahead in (-1, 0, d + 1):
                with pytest.raises(ValueError, match=f"row at step {k}"):
                    ctx.future(k, ahead)
            if d == 0:
                with pytest.raises(ValueError, match="exceeds the memory window"):
                    ctx.advanced_average(k, f)
            else:
                loop = w[0] * ctx.future(k, 1)
                for j in range(1, d + 1):
                    loop = loop + w[j] * ctx.future(k, j)
                np.testing.assert_allclose(ctx.advanced_average(k, f), loop, rtol=1e-13, atol=1e-15)
            ctx.row(k)[...] = rows[k]

    @pytest.mark.parametrize(
        "method, args, bad",
        [
            ("row", (6,), "step 6"),
            ("row", (-1,), "step -1"),
            ("row", (True,), "step True"),
            ("row", (5.0,), "step 5.0"),
            ("future", (4, True), "row at step 4: read offset True"),
            ("future", (6, 1), "step 6"),
            ("future", (np.True_, 1), f"step {np.True_!r}"),
            ("advanced_average", (4.0,), "step 4.0"),
            ("advanced_average", (-1,), "step -1"),
        ],
        ids=lambda value: repr(value) if isinstance(value, tuple) else None,
    )
    def test_a_step_outside_the_mesh_is_refused(self, method, args, bad):
        # a step past the horizon wrote into the zero columns that later
        # reads past the horizon return, a bool was read as a step or an
        # offset, and a float step raised a numpy IndexError or TypeError
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=0.5, n_particles=3, seed=1)
        ctx = SweepContext(grid)
        ctx.row(5)[...] = 1.0
        ctx.row(4)[...] = 2.0
        if method == "advanced_average":
            args += (SegmentFunctional.averaging(1.0, 2, grid.dt),)
        expected = " is not an integer" if "offset" in bad else " is not an integer in 0..5"
        with pytest.raises(ValueError, match=re.escape(bad + expected)):
            getattr(ctx, method)(*args)
        np.testing.assert_array_equal(ctx.future(4, 2), np.zeros(3))
        np.testing.assert_array_equal(ctx.future(4, 1), np.ones(3))

    @pytest.mark.parametrize(
        "d, horizon, written, asked, expected",
        [
            (1, 1.0, (10, 9, 8), 5, "step 7"),
            (2, 0.5, (5, 4), 5, "step 3"),
            (2, 0.5, (), 4, "step 5"),
            (2, 0.5, (5, 4, 3, 2, 1, 0), 0, "no step, every row was asked for"),
        ],
        ids=["skips_ahead", "rewrites_the_horizon", "starts_below_the_horizon", "asks_past_step_0"],
    )
    def test_a_step_out_of_order_is_refused(self, d, horizon, written, asked, expected):
        # with d = 1 and K = 10, rows 10, 9, 8 and then 5 made future(5, 1),
        # step 6 that no row held, read step 9's row; with d = 2 and K = 5,
        # row(5) after row(4) was taken silently
        grid = SimGrid(dt=0.1, delta_steps=d, horizon=horizon, n_particles=3, seed=1)
        ctx = SweepContext(grid)
        for k in written:
            ctx.row(k)[...] = float(k)
        band, top = ctx._band.rows.copy(), ctx._band.top
        with pytest.raises(ValueError, match=f"row of step {asked} asked for out of order; expected {expected}$"):
            ctx.row(asked)
        # the refused step moved nothing
        assert ctx._band.rows.tobytes() == band.tobytes() and ctx._band.top == top

    @pytest.mark.parametrize("kind", ["averaging", "evaluation"])
    def test_a_functional_from_another_mesh_is_refused(self, kind):
        # a kernel sampled at 2 dt, or a point counted in steps of 2 dt, was
        # read on the sweep's mesh with no error
        ens = brownian_ensemble(50, seed=4, dt=0.05, delta_steps=4)
        if kind == "averaging":
            f = SegmentFunctional.averaging(1.0, 4, 0.1)
        else:
            f = SegmentFunctional.evaluation(0.2, 0.1)
        driver, on_row = reading_store(ens.grid, lambda store, k: store.advanced_average(k, f))
        with pytest.raises(MeshMismatchError, match=r"dt=0\.1, the sweep's mesh dt=0\.05"):
            solve_absde(ens, terminal=lambda x, law: -x, driver=driver, on_row=on_row)


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


class TestDominance:
    """The paired-dominance rule of both batteries, at its boundary of 3
    paired standard errors (a literal here, so that a changed allowance
    fails)."""

    @pytest.mark.parametrize("gap, passed", [(-2.99, True), (-3.01, False)])
    def test_a_variant_may_win_by_less_than_3_paired_stderr(self, gap, passed):
        assert adjoint.dominates(("variant", -1.0, 0.1, gap * 0.01, 0.01)) == passed

    def test_the_base_row_passes(self):
        assert adjoint.dominates(("base", -1.0, 0.1, 0.0, 0.0))
