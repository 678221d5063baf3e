"""Delayed-gearing target tracking: closed form, optimality, and adjoint checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from memsfde import engine, mean_variance
from memsfde.engine import JumpModel, pathwise_cost
from memsfde.grid import SimGrid
from memsfde.mean_variance import (
    MeanVarSpec,
    PERTURBATION_FAMILY,
    j_comparison,
    simulate_optimal,
    solve_closed_form,
    stationarity_suite,
    verify_adjoint,
)

DESK_GRID = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=20_000, seed=6)


def optimal(spec, grid):
    """The optimally controlled ensemble and the closed form it follows."""
    sol = solve_closed_form(spec, grid)
    return simulate_optimal(sol), sol


def costed(spec, grid):
    """The optimal ensemble's pathwise cost and the closed form it follows,
    the arguments of :func:`j_comparison`."""
    ens, sol = optimal(spec, grid)
    return pathwise_cost(ens, sol.problem.coeffs), sol


class TestClosedForm:
    def test_rate_constant_coefficients(self):
        sol = solve_closed_form(MeanVarSpec(), DESK_GRID)
        np.testing.assert_allclose(sol.rate, 0.25)

    def test_rate_with_jump_noise(self):
        # unit marks at intensity 1 add gamma0^2 to the noise variance:
        # 0.1^2 / (0.2^2 + 0.05^2) = 4/17
        spec = MeanVarSpec(jumps=JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,)))
        sol = solve_closed_form(spec, DESK_GRID)
        np.testing.assert_allclose(sol.rate, 4.0 / 17.0)

    def test_discount_endpoints(self):
        sol = solve_closed_form(MeanVarSpec(), DESK_GRID)
        assert sol.phi[0] == pytest.approx(-math.exp(-0.25), abs=1e-9)
        assert sol.phi[0] == pytest.approx(-0.7788007830714049, abs=1e-9)
        assert sol.psi[0] == pytest.approx(0.7788007830714049, abs=1e-9)
        assert sol.phi[-1] == -1.0
        assert sol.psi[-1] == MeanVarSpec().target

    def test_discount_shape_invariants(self):
        spec = MeanVarSpec(b0=lambda t: 0.1 * (1.0 + 0.5 * t), target=2.0)
        sol = solve_closed_form(spec, DESK_GRID)
        assert np.all(sol.phi < 0.0)
        np.testing.assert_allclose(sol.psi / sol.phi, -2.0)

    def test_discount_ode_residual_is_second_order(self):
        # (phi' = rate * phi) discretized at midpoints: residual O(dt^2) per step
        spec = MeanVarSpec(b0=lambda t: 0.1 * (1.0 + 0.5 * t))
        for dt, steps in ((0.01, 100), (0.005, 200)):
            grid = SimGrid(dt=dt, delta_steps=1, horizon=1.0, n_particles=1, seed=0)
            sol = solve_closed_form(spec, grid)
            mid_rate = 0.5 * (sol.rate[1:] + sol.rate[:-1])
            for series in (sol.phi, sol.psi):
                resid = np.diff(series) / dt - mid_rate * 0.5 * (series[1:] + series[:-1])
                assert np.max(np.abs(resid)) < dt**2

    def test_feedback_rule_value(self):
        # state above target gears down: rate (a - x) / (b0 x_lag) at the
        # worked point is -25/24
        sol = solve_closed_form(MeanVarSpec(), DESK_GRID)
        u = sol.feedback(0.3, np.array([1.5]), np.array([[1.5, 1.3, 1.2]]), None)
        assert u[0] == pytest.approx(-25.0 / 24.0, abs=1e-12)
        assert abs(u[0]) == pytest.approx(1.04167, abs=1e-5)

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(ValueError):
            solve_closed_form(MeanVarSpec(b0=0.0), DESK_GRID)
        with pytest.raises(ValueError):
            solve_closed_form(MeanVarSpec(sigma0=0.0, gamma0=0.0), DESK_GRID)

    def test_oversized_jump_loading_rejected(self):
        # tiny noise makes the gearing rate huge; one unit-mark jump would
        # then throw the optimally controlled state across the target
        spec = MeanVarSpec(
            sigma0=0.001,
            gamma0=0.001,
            jumps=JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,)),
        )
        with pytest.raises(ValueError, match="jump loading"):
            solve_closed_form(spec, DESK_GRID)

    def test_zero_lag_rejected_before_simulating(self, monkeypatch):
        grid = SimGrid(dt=0.01, delta_steps=0, horizon=1.0, n_particles=500, seed=1)
        with pytest.raises(ValueError, match="lag of at least one step"):
            solve_closed_form(MeanVarSpec(), grid)
        monkeypatch.setattr(engine, "simulate", lambda *a, **k: pytest.fail("simulated a zero-lag grid"))
        with pytest.raises(ValueError, match="lag of at least one step"):
            optimal(MeanVarSpec(), grid)


class TestOptimalSimulation:
    def test_history_at_target_freezes_everything(self):
        spec = MeanVarSpec(xi=1.0, target=1.0)
        ens, sol = optimal(spec, DESK_GRID)
        np.testing.assert_array_equal(ens.states, 1.0)
        np.testing.assert_array_equal(ens.controls, 0.0)
        from memsfde.engine import performance

        j, se = performance(ens, sol.problem.coeffs)
        assert (j, se) == (0.0, 0.0)

    def test_history_below_target_rejected(self):
        with pytest.raises(ValueError):
            optimal(MeanVarSpec(xi=0.5, target=1.0), DESK_GRID)

    def test_paths_stay_above_target(self):
        ens, _ = optimal(MeanVarSpec(), DESK_GRID)
        assert np.min(ens.states - 1.0) > 0.0

    def test_zero_delayed_state_raises_in_feedback(self):
        # legal history (above a target of -5) that passes through zero makes
        # the gearing denominator vanish
        spec = MeanVarSpec(target=-5.0, xi=np.array([1.0, 0.0, 1.0]))
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=0.5, n_particles=2, seed=0)
        with pytest.raises(ValueError, match="delayed state"):
            optimal(spec, grid)

    @pytest.mark.parametrize(
        "spec",
        [
            MeanVarSpec(),
            MeanVarSpec(jumps=JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,))),
        ],
        ids=["diffusive", "with_jumps"],
    )
    def test_log_gap_drift_matches_linear_sde(self, spec):
        # Y = X - target is a geometric-type process; its log drift is
        # -rate - vol^2/2 plus the jump corrections of the exact solution
        ens, sol = optimal(spec, DESK_GRID)
        rate = sol.rate[0]
        vol = rate * 0.2 / 0.1
        drift = -rate - 0.5 * vol**2
        if spec.jumps.active:
            c = rate * 0.05 / 0.1
            drift += spec.jumps.nu_integral(lambda z: math.log(1.0 - c * z) + c * z)
        log_y = np.log(ens.states[:, -1] - spec.target)
        se = log_y.std(ddof=1) / math.sqrt(DESK_GRID.n_particles)
        assert abs(log_y.mean() - drift) < 3.0 * se + DESK_GRID.dt


@pytest.fixture(scope="module")
def verified():
    spec = MeanVarSpec()
    ens, sol = optimal(spec, DESK_GRID)
    return spec, verify_adjoint(ens, sol)


class TestAdjointVerification:
    def test_first_order_condition_is_algebraic(self, verified):
        _, ver = verified
        assert ver.foc_residual_max < 1e-12

    def test_adjoint_is_a_martingale(self, verified):
        _, ver = verified
        assert ver.p0_drift_z < 3.0
        assert ver.p0_drift_max_step_z < 3.0

    def test_backward_solver_recovers_the_affine_adjoint(self, verified):
        _, ver = verified
        assert ver.closed_p0 == pytest.approx(-0.7788007830714049, abs=1e-6)
        assert ver.lsmc_p0_rel_err < 0.02

    def test_monitored_quantities(self, verified):
        _, ver = verified
        assert ver.positivity_fraction == 1.0
        assert ver.min_abs_delayed_state > 1.0  # history starts at 2, target 1
        names = [name for name, _ in ver.rows()]
        assert names[0] == "foc_residual_max"
        assert len(names) == 9

    def test_full_size_temporaries_are_freed_before_the_backward_solve(self, monkeypatch):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=2_000, seed=6)
        spec = MeanVarSpec()
        ens, sol = optimal(spec, grid)
        at_solve = []
        solve_absde = mean_variance.solve_absde

        def recording(*args, **kwargs):
            at_solve.append(tracemalloc.get_traced_memory()[0])
            return solve_absde(*args, **kwargs)

        monkeypatch.setattr(mean_variance, "solve_absde", recording)
        tracemalloc.start()
        try:
            at_entry = tracemalloc.get_traced_memory()[0]
            verify_adjoint(ens, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_array = grid.n_particles * (grid.n_steps + 1) * 8
        assert len(at_solve) == 1
        assert at_solve[0] - at_entry < one_array
        # the checks run row by row and the solve keeps only p0 at step 0,
        # so the whole verification peaks below one full-size array
        assert peak - at_entry <= one_array

    def test_jump_variant_passes_the_same_checks(self):
        spec = MeanVarSpec(jumps=JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,)))
        ver = verify_adjoint(*optimal(spec, DESK_GRID))
        assert ver.foc_residual_max < 1e-12
        assert ver.p0_drift_z < 3.0
        assert ver.lsmc_p0_rel_err < 0.02
        assert ver.positivity_fraction == 1.0


class TestOptimality:
    def test_perturbation_family_never_beats_the_optimum(self):
        rows = j_comparison(*costed(MeanVarSpec(), DESK_GRID))
        assert rows[0][0] == "optimal"
        assert len(rows) == 1 + len(PERTURBATION_FAMILY)
        for label, j, se, gap, gap_se in rows[1:]:
            assert gap >= -3.0 * gap_se, f"{label} beat the optimum: gap {gap}"

    def test_coarse_perturbations_lose_decisively(self):
        rows = {r[0]: r for r in j_comparison(*costed(MeanVarSpec(), DESK_GRID))}
        for label in ("scale_0.5", "scale_2.0", "shift_+1.0", "shift_-1.0"):
            _, _, _, gap, gap_se = rows[label]
            assert gap > 3.0 * gap_se, f"{label} should be clearly sub-optimal"

    def test_one_particle_reports_zero_stderr(self):
        grid = SimGrid(dt=0.05, delta_steps=2, horizon=0.5, n_particles=1, seed=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = j_comparison(*costed(MeanVarSpec(), grid))
        for label, j, se, gap, gap_se in rows:
            assert math.isfinite(j) and math.isfinite(gap), label
            assert se == 0.0 and gap_se == 0.0, label

    def test_variants_run_on_the_optimal_ensembles_noise(self, monkeypatch):
        spec = MeanVarSpec(jumps=JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,)))
        grid = SimGrid(dt=0.05, delta_steps=2, horizon=0.5, n_particles=200, seed=6)
        cost, sol = costed(spec, grid)
        drawn = []
        step_generator = engine.step_generator

        def counting(*args):
            drawn.append(args)
            return step_generator(*args)

        monkeypatch.setattr(engine, "step_generator", counting)
        j_comparison(cost, sol)
        assert drawn == []

    @pytest.mark.parametrize("jumps", [None, JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,))])
    def test_comparison_holds_one_variant_ensemble(self, jumps):
        spec = MeanVarSpec(jumps=jumps or JumpModel.none())
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=2_000, seed=6)
        cost, sol = costed(spec, grid)
        tracemalloc.start()
        try:
            at_entry = tracemalloc.get_traced_memory()[0]
            j_comparison(cost, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a variant ensemble is its paths and controls over [-delta, T]; it
        # shares the optimal ensemble's noise.  The slack covers a few
        # per-step (N,) temporaries of the simulation and the costs.
        n_points = grid.delta_steps + grid.n_steps + 1
        variant = 2 * grid.n_particles * n_points * 8
        slack = 16 * grid.n_particles * 8
        assert peak - at_entry <= variant + slack

    def test_stationarity_suite_draws_nothing_after_the_optimal_simulation(self, monkeypatch):
        spec = MeanVarSpec(jumps=JumpModel(intensity=1.0, marks=(1.0,), probs=(1.0,)))
        grid = SimGrid(dt=0.05, delta_steps=2, horizon=0.5, n_particles=200, seed=6)
        _, sol = optimal(spec, grid)
        monkeypatch.setattr(engine, "step_generator", lambda *a: pytest.fail("noise drawn again"))
        assert [r[0] for r in stationarity_suite(sol)] == ["const_1", "late_half", "sin_wave"]

    def test_stationarity_in_bounded_directions(self):
        rows = stationarity_suite(solve_closed_form(MeanVarSpec(), DESK_GRID), eps=1e-3)
        assert [r[0] for r in rows] == ["const_1", "late_half", "sin_wave"]
        for label, gap, se in rows:
            assert abs(gap) < 3.0 * se + 1e-3, f"{label}: gap {gap} vs se {se}"


class TestOracleSensitivity:
    def test_selftest_catches_a_tampered_rate(self, monkeypatch):
        # guard the guard: a 1% error in the gearing rate must trip the
        # built-in closed-form checks
        from memsfde import cli, mean_variance

        baseline = {c["name"]: c["passed"] for c in cli.selftest_checks()}
        assert all(baseline.values())

        original = mean_variance.MeanVarSpec.rate_fn

        def tampered(self):
            rate = original(self)
            return lambda t: rate(t) * 1.01

        monkeypatch.setattr(mean_variance.MeanVarSpec, "rate_fn", tampered)
        tainted = {c["name"]: c["passed"] for c in cli.selftest_checks()}
        assert not tainted["wealth_rate_closed_form"]
        assert not tainted["wealth_discount_closed_form"]
