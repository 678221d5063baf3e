"""Frozen-noise fixed-point solver: exactness, contraction ratios, consistency."""

import numpy as np
import pytest

from memsfde import engine
from memsfde.engine import CoefficientSet, JumpModel, simulate
from memsfde.grid import SimGrid
from memsfde.picard import consistency_check, picard_solve

CONST_DRIFT = CoefficientSet(drift=lambda *a: 1.0)
LAG_DRIFT = CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: xs[:, -1])


MEAN_FIELD_JUMPS = CoefficientSet(
    drift=lambda t, x, xs, m, ms, u, us: 0.5 * (m.mean() - x) + xs[:, -1],
    diffusion=lambda *a: 0.3,
    jump=lambda t, x, xs, m, ms, u, us, mark: 0.1 * mark,
)
TWO_MARKS = JumpModel(intensity=1.0, marks=(1.0, -1.0), probs=(0.5, 0.5))


def linear_drift(rate: float, noise: float = 0.2) -> CoefficientSet:
    return CoefficientSet(
        drift=lambda t, x, xs, m, ms, u, us: rate * x,
        diffusion=lambda *a: noise,
    )


def solved_gap(coeffs: CoefficientSet, grid: SimGrid, xi: float, **kwargs) -> float:
    """Consistency gap of a fresh fixed-point solve; ``kwargs`` go to the solve."""
    ens, _ = picard_solve(coeffs, grid, xi=xi, **kwargs)
    return consistency_check(coeffs, ens, xi=xi)


class TestDegenerateMaps:
    def test_zero_coefficients_fixed_immediately(self):
        # the constant extension of xi already is the solution
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=1.0, n_particles=3, seed=0)
        ens, report = picard_solve(CoefficientSet(), grid, xi=1.0)
        assert report.converged
        assert report.iterations == (1,)
        assert report.distances[0][0] == 0.0
        np.testing.assert_array_equal(ens.states, 1.0)

    def test_state_free_coefficients_take_one_productive_sweep(self):
        # the update map does not depend on its input, so its first image is
        # the fixed point and the follow-up sweep measures exactly zero
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=1.0, n_particles=5, seed=4)
        coeffs = CoefficientSet(drift=lambda *a: 1.0, diffusion=lambda *a: 0.5)
        _, report = picard_solve(coeffs, grid, xi=0.0)
        assert report.converged
        assert report.iterations == (2,)
        assert report.distances[0][1] == 0.0

    def test_pure_memory_drift_with_short_windows(self):
        # windows shorter than the lag only ever read frozen earlier values,
        # so every window converges after its first productive sweep
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.6, n_particles=2, seed=0)
        ens, report = picard_solve(LAG_DRIFT, grid, xi=1.0, t0_steps=2)
        assert report.converged
        assert report.iterations == tuple([2] * 6)
        assert all(d[-1] == 0.0 for d in report.distances)
        # and the result is the method-of-steps solution
        direct = simulate(LAG_DRIFT, grid, xi=1.0)
        np.testing.assert_array_equal(ens.paths, direct.paths)


class TestContraction:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_linear_family_contracts(self, rate):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=0.5, n_particles=200, seed=9)
        _, report = picard_solve(linear_drift(rate), grid, xi=1.0, t0_steps=10)
        assert report.converged
        assert report.worst_final_ratio < 1.0

    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_ratio_shrinks_with_window(self, rate):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=0.5, n_particles=200, seed=9)
        _, wide = picard_solve(linear_drift(rate), grid, xi=1.0, t0_steps=10)
        _, narrow = picard_solve(linear_drift(rate), grid, xi=1.0, t0_steps=5)
        assert narrow.initial_contraction_ratio < wide.initial_contraction_ratio

    def test_window_size_does_not_change_the_solution(self):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=0.4, n_particles=50, seed=2)
        coarse, _ = picard_solve(linear_drift(1.0), grid, xi=1.0, t0_steps=10)
        fine, _ = picard_solve(linear_drift(1.0), grid, xi=1.0, t0_steps=5)
        assert np.max(np.abs(coarse.paths - fine.paths)) < 1e-10

    def test_non_convergence_is_reported_not_raised(self):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=0.2, n_particles=20, seed=1)
        _, report = picard_solve(linear_drift(2.0), grid, xi=1.0, max_iter=1)
        assert not report.converged
        assert report.iterations == (1,)

    def test_converged_implies_tolerance_met(self):
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=0.4, n_particles=30, seed=6)
        _, report = picard_solve(linear_drift(1.0), grid, xi=0.5, tol=1e-14, t0_steps=10)
        assert report.converged
        for dists in report.distances:
            assert dists[-1] <= report.tol


class TestConsistencyWithDirectScheme:
    def test_deterministic_delay_exact(self):
        grid = SimGrid(dt=0.05, delta_steps=20, horizon=2.0, n_particles=1, seed=0)
        assert solved_gap(LAG_DRIFT, grid, 1.0, t0_steps=10) == 0.0

    def test_pure_brownian_exact(self):
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=1.0, n_particles=100, seed=3)
        coeffs = CoefficientSet(diffusion=lambda *a: 1.0)
        assert solved_gap(coeffs, grid, 0.0, t0_steps=10) == 0.0

    def test_linear_drift_below_tolerance(self):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=0.5, n_particles=100, seed=5)
        gap = solved_gap(linear_drift(1.0), grid, 1.0, t0_steps=10)
        assert gap < 1e-10

    def test_mean_field_and_jump_terms_round_trip(self):
        # coefficients that read the empirical law and carry jumps still land
        # exactly on the direct scheme once the iteration has settled
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=0.4, n_particles=64, seed=8)
        gap = solved_gap(MEAN_FIELD_JUMPS, grid, 1.0, jumps=TWO_MARKS, t0_steps=5)
        assert gap < 1e-10


class TestNoiseReuse:
    def test_short_windows_reproduce_the_direct_ensemble(self):
        # windows shorter than the lag with state-free noise coefficients: the
        # solve is exact, so paths, the replayed controls with their windows
        # and the stored noise match bit for bit, for no control, a
        # per-particle open-loop array and a feedback rule
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=0.6, n_particles=8, seed=3)
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: xs[:, -1] + u,
            diffusion=lambda *a: 0.3,
            jump=lambda t, x, xs, m, ms, u, us, mark: 0.1 * mark,
        )
        per_particle = np.random.default_rng(0).standard_normal((grid.n_particles, grid.n_steps + 1))
        feedback = lambda t, x, xs, law: 0.2 * xs[:, -1] - 0.5 * x + 0.1 * law.mean()
        for control in (None, per_particle, feedback):
            ens, report = picard_solve(coeffs, grid, jumps=TWO_MARKS, xi=1.0, control=control, t0_steps=2)
            direct = simulate(coeffs, grid, jumps=TWO_MARKS, xi=1.0, control=control)
            assert report.converged
            np.testing.assert_array_equal(ens.paths, direct.paths)
            for k, (solved, simulated) in enumerate(zip(ens.coefficient_inputs(), direct.coefficient_inputs())):
                np.testing.assert_array_equal(solved[-2], simulated[-2])  # the control
                np.testing.assert_array_equal(solved[-1], simulated[-1])  # its window
                np.testing.assert_array_equal(ens.control_at(k), direct.control_at(k))
            np.testing.assert_array_equal(ens.brownian, direct.brownian)
            np.testing.assert_array_equal(ens.jump_counts, direct.jump_counts)
            assert np.any(ens.brownian != 0.0) and np.any(ens.jump_counts != 0)
            uncontrolled = all(np.all(ens.control_at(k) == 0.0) for k in range(grid.n_steps + 1))
            assert (control is None) == uncontrolled

    def test_solved_ensemble_gives_the_recomputed_gap(self):
        # stop short of convergence so the gap is not trivially zero; a
        # second solve reproduces the ensemble, so the gap too
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=0.4, n_particles=64, seed=8)
        args = dict(jumps=TWO_MARKS, t0_steps=5, max_iter=2)
        gap = solved_gap(MEAN_FIELD_JUMPS, grid, 1.0, **args)
        assert gap > 0.0
        assert solved_gap(MEAN_FIELD_JUMPS, grid, 1.0, **args) == gap

    def test_direct_scheme_of_the_check_reuses_the_solved_noise(self, monkeypatch):
        grid = SimGrid(dt=0.02, delta_steps=5, horizon=0.4, n_particles=64, seed=8)
        ens, _ = picard_solve(MEAN_FIELD_JUMPS, grid, jumps=TWO_MARKS, xi=1.0, t0_steps=5)
        monkeypatch.setattr(engine, "step_generator", lambda *a: pytest.fail("noise drawn again"))
        assert consistency_check(MEAN_FIELD_JUMPS, ens, xi=1.0) == 0.0


class TestValidation:
    def test_window_must_divide_horizon(self):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=1, seed=0)
        with pytest.raises(ValueError):
            picard_solve(CONST_DRIFT, grid, t0_steps=7)
        with pytest.raises(ValueError):
            picard_solve(CONST_DRIFT, grid, t0_steps=0)

    def test_max_iter_must_be_positive(self):
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=1, seed=0)
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve(CONST_DRIFT, grid, max_iter=0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_tol_must_be_non_negative(self, tol):
        # no distance falls to such a tol, and the sweeps after a zero
        # distance would record no contraction ratio
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=1, seed=0)
        with pytest.raises(ValueError, match="tol"):
            picard_solve(CONST_DRIFT, grid, tol=tol)
