"""Particle simulator: deterministic delay oracles, noise moments, determinism."""

import dataclasses
import math

import numpy as np
import pytest

from memsfde import engine
from memsfde.adjoint import solve_absde
from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    JumpModel,
    MeshMismatchError,
    SimulationBlowupError,
    as_control,
    combine_controls,
    draw_noise,
    law_at,
    law_segment,
    performance,
    simulate,
)
from memsfde.grid import BROWNIAN, JUMPS, SimGrid, step_generator
from memsfde.measures import EmpiricalMeasure, MeasureSegment, cf_dist_sq, m_segment_dist_sq
from memsfde.picard import picard_solve

LAGGED_DRIFT = CoefficientSet(drift=lambda t, x, x_seg, law, law_seg, u, u_seg: x_seg[:, -1])


def delay_grid(dt, n=1, seed=0):
    d = int(round(1.0 / dt))
    return SimGrid(dt=dt, delta_steps=d, horizon=2.0, n_particles=n, seed=seed)


class TestDeterministicDelay:
    """drift = x(t - 1), unit history: X(t) = 1 + t then 2 + (t^2 - 1)/2."""

    def test_first_window_is_scheme_exact(self):
        ens = simulate(LAGGED_DRIFT, delay_grid(0.01), xi=1.0)
        mid = ens.grid.index_of(1.0)
        assert ens.states[0, mid] == pytest.approx(2.0, abs=1e-12)

    def test_second_window_left_endpoint_bias(self):
        # Euler integrates the linear memory read with the left-endpoint rule,
        # so the computed X(2) is exactly 3.5 - dt/2
        for dt in (0.02, 0.01):
            ens = simulate(LAGGED_DRIFT, delay_grid(dt), xi=1.0)
            assert ens.states[0, -1] == pytest.approx(3.5 - dt / 2.0, abs=1e-12)

    def test_error_halves_with_dt(self):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            ens = simulate(LAGGED_DRIFT, delay_grid(dt), xi=1.0)
            errs.append(abs(ens.states[0, -1] - 3.5))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


class TestDegenerateDynamics:
    def test_no_coefficients_means_frozen_state(self):
        grid = SimGrid(dt=0.1, delta_steps=3, horizon=1.0, n_particles=4, seed=1)
        ens = simulate(CoefficientSet(), grid, xi=2.5)
        np.testing.assert_array_equal(ens.states, 2.5)

    def test_history_array_and_callable_agree(self):
        grid = SimGrid(dt=0.25, delta_steps=2, horizon=0.5, n_particles=1, seed=0)
        from_fn = simulate(LAGGED_DRIFT, grid, xi=lambda t: 1.0 + t)
        from_arr = simulate(LAGGED_DRIFT, grid, xi=np.array([0.5, 0.75, 1.0]))
        np.testing.assert_allclose(from_fn.paths, from_arr.paths)

    def test_bad_history_shape_rejected(self):
        grid = SimGrid(dt=0.25, delta_steps=2, horizon=0.5, n_particles=1, seed=0)
        with pytest.raises(MeshMismatchError):
            simulate(LAGGED_DRIFT, grid, xi=np.array([1.0, 2.0]))


class TestNoiseMoments:
    def test_brownian_variance(self):
        n = 100_000
        grid = SimGrid(dt=0.01, delta_steps=1, horizon=1.0, n_particles=n, seed=42)
        coeffs = CoefficientSet(diffusion=lambda *a: 1.0)
        ens = simulate(coeffs, grid, xi=0.0)
        var = ens.states[:, -1].var(ddof=1)
        assert abs(var - 1.0) < 3.0 * math.sqrt(2.0 / n)

    def test_brownian_law_matches_normal_reference(self):
        n = 100_000
        grid = SimGrid(dt=0.01, delta_steps=1, horizon=1.0, n_particles=n, seed=42)
        ens = simulate(CoefficientSet(diffusion=lambda *a: 1.0), grid, xi=0.0)
        law = law_at(ens, 1.0)
        assert cf_dist_sq(law, lambda y: np.exp(-(y**2) / 2.0)) < 5e-3

    def test_compensated_jumps_are_centered(self):
        # pure-jump dynamics: X(T) - X(0) is a compensated compound Poisson sum
        n = 20_000
        grid = SimGrid(dt=0.02, delta_steps=1, horizon=1.0, n_particles=n, seed=11)
        jumps = JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6))
        coeffs = CoefficientSet(jump=lambda t, x, xs, m, ms, u, us, mark: mark)
        ens = simulate(coeffs, grid, jumps=jumps, xi=0.0)
        drift_est = ens.states[:, -1].mean()
        stderr = ens.states[:, -1].std(ddof=1) / math.sqrt(n)
        assert abs(drift_est) < 3.0 * stderr

    def test_jump_moment_accessor(self):
        jm = JumpModel(intensity=2.0, marks=(1.0, 2.0), probs=(0.5, 0.5))
        assert jm.nu_integral(lambda z: z**2) == pytest.approx(5.0)
        assert not JumpModel.none().active


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        grid = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=64, seed=7)
        jumps = JumpModel(intensity=1.5, marks=(0.3,), probs=(1.0,))
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: -x + xs[:, -1],
            diffusion=lambda *a: 0.5,
            jump=lambda t, x, xs, m, ms, u, us, mark: mark,
        )
        a = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        b = simulate(coeffs, grid, jumps=jumps, xi=1.0)
        np.testing.assert_array_equal(a.paths, b.paths)
        np.testing.assert_array_equal(a.brownian, b.brownian)
        np.testing.assert_array_equal(a.jump_counts, b.jump_counts)

        other = simulate(coeffs, grid_with_seed(grid, 8), jumps=jumps, xi=1.0)
        assert not np.array_equal(a.paths, other.paths)

    def test_particles_decouple_without_law_terms(self):
        # coefficients that ignore the law: increment streams of distinct
        # particles should be empirically uncorrelated
        grid = SimGrid(dt=0.001, delta_steps=1, horizon=1.0, n_particles=2, seed=3)
        ens = simulate(CoefficientSet(diffusion=lambda *a: 1.0), grid, xi=0.0)
        inc = np.diff(ens.states, axis=1)
        corr = np.corrcoef(inc[0], inc[1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(inc.shape[1])

    def test_blowup_aborts_with_step_diagnostics(self):
        grid = SimGrid(dt=0.1, delta_steps=1, horizon=1.0, n_particles=2, seed=0)
        hot = CoefficientSet(drift=lambda t, x, *rest: 1e200 * x)
        with np.errstate(over="ignore"), pytest.raises(SimulationBlowupError) as exc:
            simulate(hot, grid, xi=1.0)
        assert exc.value.step == 1
        assert exc.value.n_bad == 2
        assert "t=0.1" in str(exc.value)


def grid_with_seed(grid: SimGrid, seed: int) -> SimGrid:
    return SimGrid(grid.dt, grid.delta_steps, grid.horizon, grid.n_particles, seed)


class TestLawViews:
    def test_deterministic_law_is_a_point_mass(self):
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=1.0, n_particles=50, seed=0)
        ens = simulate(CoefficientSet(drift=lambda *a: 1.0), grid, xi=0.0)
        law = law_at(ens, 0.5)
        assert np.ptp(law.atoms) == 0.0
        assert law.mean() == pytest.approx(0.5, abs=1e-12)

    def test_single_particle_law(self):
        grid = SimGrid(dt=0.1, delta_steps=1, horizon=0.5, n_particles=1, seed=5)
        ens = simulate(CoefficientSet(diffusion=lambda *a: 1.0), grid, xi=0.0)
        law = law_at(ens, 0.5)
        assert law.n_atoms == 1
        assert law.atoms[0] == ens.states[0, -1]

    def test_law_segment_reads_history(self):
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=0.5, n_particles=3, seed=0)
        ens = simulate(CoefficientSet(), grid, xi=np.array([5.0, 6.0, 7.0]))
        seg = law_segment(ens, 0.0)
        assert [m.mean() for m in seg.measures] == [7.0, 6.0, 5.0]
        with pytest.raises(ValueError):
            law_at(ens, 0.75)  # off mesh


def segment_reading_drift(seen: list):
    """Drift that reads the law segment and records what it saw: the segment
    length and, per lag, whether the law's atoms equal the state window."""

    def drift(t, x, x_seg, law, law_seg, u, u_seg):
        seen.append(
            (len(law_seg), all(np.array_equal(m.atoms, x_seg[:, j]) for j, m in enumerate(law_seg.measures)))
        )
        return 0.5 * law_seg.measures[-1].mean()

    return CoefficientSet(drift=drift, diffusion=lambda *a: 0.3)


class TestLazyLawSegment:
    GRID = SimGrid(dt=0.05, delta_steps=4, horizon=0.6, n_particles=16, seed=2)

    def test_simulate_passes_the_backward_law_window(self):
        seen = []
        ens = simulate(segment_reading_drift(seen), self.GRID, xi=1.0)
        d, K = self.GRID.delta_steps, self.GRID.n_steps
        assert seen == [(d + 1, True)] * K
        # the window's laws are the stored states at lags 0..d
        seg = law_segment(ens, 0.3)
        idx = d + 6
        for j, m in enumerate(seg.measures):
            np.testing.assert_array_equal(m.atoms, ens.paths[:, idx - j])

    def test_picard_solve_passes_the_frozen_law_window(self):
        # the drift reads only the law at lag delta, which a window shorter
        # than delta never changes, so the solve is exact and equals simulate
        seen = []
        coeffs = segment_reading_drift(seen)
        ens, report = picard_solve(coeffs, self.GRID, xi=1.0, t0_steps=2)
        assert report.converged
        assert seen == [(self.GRID.delta_steps + 1, True)] * len(seen)
        assert len(seen) == 2 * sum(report.iterations)
        np.testing.assert_array_equal(ens.paths, simulate(coeffs, self.GRID, xi=1.0).paths)

    def test_unread_segment_builds_no_laws(self, monkeypatch):
        built = []

        class CountingMeasure(EmpiricalMeasure):
            def __post_init__(self):
                built.append(1)
                super().__post_init__()

        monkeypatch.setattr(engine, "EmpiricalMeasure", CountingMeasure)
        simulate(CoefficientSet(drift=lambda *a: 1.0), self.GRID, xi=1.0)
        # one law per step plus the one for the horizon control
        assert len(built) == self.GRID.n_steps + 1

    def test_law_segment_matches_an_eager_segment(self):
        grid = self.GRID
        ens = simulate(CoefficientSet(diffusion=lambda *a: 1.0), grid, xi=0.0)
        d, idx = grid.delta_steps, grid.delta_steps + 5
        seg = law_segment(ens, 5 * grid.dt)
        eager = MeasureSegment([EmpiricalMeasure(ens.paths[:, idx - j]) for j in range(d + 1)], grid.dt)
        assert isinstance(seg, MeasureSegment)
        assert len(seg) == len(eager) == d + 1
        assert (seg.dt, seg.delta) == (eager.dt, eager.delta)
        assert m_segment_dist_sq(seg, eager) == 0.0
        assert m_segment_dist_sq(seg, law_segment(ens, 0.0)) > 0.0


class TestPerformance:
    def test_terminal_only_deterministic(self):
        grid = SimGrid(dt=0.1, delta_steps=1, horizon=1.0, n_particles=8, seed=0)
        coeffs = CoefficientSet(terminal_cost=lambda x, law: x)
        j, se = performance(simulate(coeffs, grid, xi=3.0), coeffs)
        assert (j, se) == (pytest.approx(3.0), 0.0)

    def test_unit_running_cost(self):
        grid = SimGrid(dt=0.1, delta_steps=1, horizon=2.0, n_particles=4, seed=0)
        coeffs = CoefficientSet(running_cost=lambda *a: 1.0)
        j, se = performance(simulate(coeffs, grid), coeffs)
        assert j == pytest.approx(2.0, abs=1e-12)
        assert se == 0.0

    def test_constant_control_quadratic_cost(self):
        # dX = u dt from 1 with u = -1/2: X(1) = 1/2 and the quadratic costs
        # add up to -(u^2/2 + X(1)^2/2) = -1/4, Euler-exact
        grid = SimGrid(dt=0.05, delta_steps=2, horizon=1.0, n_particles=4, seed=0)
        coeffs = CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: u,
            running_cost=lambda t, x, xs, m, ms, u, us: -(u**2) / 2.0,
            terminal_cost=lambda x, law: -(x**2) / 2.0,
        )
        problem = ControlProblem(coeffs=coeffs, grid=grid, xi=1.0)
        j, se = problem.performance(-0.5)
        assert j == pytest.approx(-0.25, abs=1e-12)
        assert se == 0.0


class TestControls:
    def test_scalar_array_callable_agree(self):
        grid = SimGrid(dt=0.25, delta_steps=1, horizon=1.0, n_particles=2, seed=0)
        coeffs = CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: u)
        by_scalar = simulate(coeffs, grid, xi=0.0, control=0.7)
        by_array = simulate(coeffs, grid, xi=0.0, control=np.full(5, 0.7))
        by_rule = simulate(coeffs, grid, xi=0.0, control=lambda t, x, xs, m: 0.7)
        np.testing.assert_allclose(by_scalar.paths, by_array.paths)
        np.testing.assert_allclose(by_scalar.paths, by_rule.paths)

    def test_combined_control_is_affine(self):
        base = as_control(0.5)
        bump = lambda t, x, xs, m: t
        combo = combine_controls(base, bump, 2.0)
        x = np.zeros(3)
        got = combo.value(0, 0.25, x, None, None)
        np.testing.assert_allclose(got, 0.5 + 2.0 * 0.25)

    def test_combined_control_sums_onto_zero(self):
        # a -0.0 base value comes out as +0.0, as a sum started from zeros does
        combo = combine_controls(lambda t, x, xs, m: -0.0 * x, None, 1.0)
        got = combo.value(0, 0.0, np.ones(3), None, None)
        assert not np.signbit(got).any()

    def test_normalized_control_is_not_callable(self):
        # feedback rules are recognized by being callable; a normalized
        # control must not be mistaken for one
        assert not callable(as_control(0.5))
        assert not callable(combine_controls(0.5, None, 1.0))

    def test_control_memory_window(self):
        # drift reads the lag-delta control; the pre-horizon window is supplied
        # via control_history, so the state climbs at rate 3 for delta time
        grid = SimGrid(dt=0.1, delta_steps=3, horizon=1.0, n_particles=1, seed=0)
        coeffs = CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: us[:, -1])
        ens = simulate(coeffs, grid, xi=0.0, control=0.0, control_history=3.0)
        assert ens.states[0, 3] == pytest.approx(0.9, abs=1e-12)
        assert ens.states[0, -1] == pytest.approx(0.9, abs=1e-12)
        with pytest.raises(MeshMismatchError):
            simulate(coeffs, grid, control_history=np.array([1.0, 2.0]))

    def test_unknown_control_type_rejected(self):
        with pytest.raises(TypeError):
            as_control({"not": "a control"})


class TestSharedNoise:
    """A problem draws its noise once; its ensembles share it read-only."""

    GRID = SimGrid(dt=0.05, delta_steps=4, horizon=1.0, n_particles=32, seed=11)
    DIFFUSION_ONLY = (
        CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: xs[:, -1] + u, diffusion=lambda *a: 0.4),
        JumpModel.none(),
    )
    WITH_JUMPS = (
        CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: 0.5 * (m.mean() - x) + u,
            diffusion=lambda t, x, *rest: 0.2 + 0.1 * x,
            jump=lambda t, x, xs, m, ms, u, us, mark: 0.1 * mark * xs[:, -1],
        ),
        JumpModel(intensity=2.0, marks=(1.0, -0.5), probs=(0.4, 0.6)),
    )
    MEAN_FIELD_JUMPS = (
        CoefficientSet(
            drift=lambda t, x, xs, m, ms, u, us: 0.5 * (m.mean() - x) + xs[:, -1],
            diffusion=lambda *a: 0.3,
            jump=lambda t, x, xs, m, ms, u, us, mark: 0.1 * mark,
        ),
        JumpModel(intensity=1.0, marks=(1.0, -1.0), probs=(0.5, 0.5)),
    )
    CONTROLS = (None, 0.3, lambda t, x, xs, law: -0.5 * x + 0.1 * law.mean())

    def problem(self, kind):
        coeffs, jumps = kind
        return ControlProblem(coeffs=coeffs, grid=self.GRID, jumps=jumps, xi=1.0)

    @pytest.mark.parametrize("kind", [DIFFUSION_ONLY, WITH_JUMPS], ids=["diffusion", "jumps"])
    def test_simulations_share_one_read_only_draw(self, kind):
        problem = self.problem(kind)
        a, b = problem.simulate(None), problem.simulate(0.3)
        arrays = [(a.brownian, b.brownian)]
        if kind[1].active:
            arrays.append((a.jump_counts, b.jump_counts))
        else:
            assert a.jump_counts is None and b.jump_counts is None
        for x, y in arrays:
            assert np.shares_memory(x, y)
            for arr in (x, y):
                with pytest.raises(ValueError):
                    arr[0, 0] = 1
                with pytest.raises(ValueError):
                    arr += 1

    @pytest.mark.parametrize("kind", [DIFFUSION_ONLY, WITH_JUMPS], ids=["diffusion", "jumps"])
    def test_shared_noise_gives_the_freshly_drawn_ensemble(self, kind):
        problem = self.problem(kind)
        coeffs, jumps = kind
        for control in self.CONTROLS:
            shared = problem.simulate(control)
            fresh = simulate(coeffs, self.GRID, jumps=jumps, xi=1.0, control=control)
            np.testing.assert_array_equal(shared.paths, fresh.paths)
            np.testing.assert_array_equal(shared.controls_full, fresh.controls_full)
            np.testing.assert_array_equal(shared.brownian, fresh.brownian)
            if jumps.active:
                np.testing.assert_array_equal(shared.jump_counts, fresh.jump_counts)
                assert np.any(fresh.jump_counts != 0)
            assert np.any(fresh.brownian != 0.0)

    def test_each_step_stream_is_drawn_once_per_problem(self, monkeypatch):
        calls = []
        step_generator = engine.step_generator

        def counting(seed, step, substream=0):
            calls.append((step, substream))
            return step_generator(seed, step, substream)

        monkeypatch.setattr(engine, "step_generator", counting)
        problem = self.problem(self.WITH_JUMPS)
        for control in self.CONTROLS:
            problem.simulate(control)
        assert len(calls) == len(set(calls)) == 2 * self.GRID.n_steps

    @pytest.mark.parametrize(
        "kind", [DIFFUSION_ONLY, WITH_JUMPS, MEAN_FIELD_JUMPS], ids=["diffusion", "jumps", "mean_field_jumps"]
    )
    def test_picard_solve_draws_the_problems_noise_once(self, monkeypatch, kind):
        coeffs, jumps = kind
        calls = []
        step_generator = engine.step_generator

        def counting(seed, step, substream=0):
            calls.append((step, substream))
            return step_generator(seed, step, substream)

        monkeypatch.setattr(engine, "step_generator", counting)
        ens, report = picard_solve(coeffs, self.GRID, jumps=jumps, xi=1.0, control=0.3, t0_steps=5)
        monkeypatch.undo()
        assert min(report.iterations) > 1  # several sweeps per window
        substreams = (BROWNIAN, JUMPS) if jumps.active else (BROWNIAN,)
        assert sorted(calls) == sorted((k, s) for k in range(self.GRID.n_steps) for s in substreams)
        brownian, jump_counts = draw_noise(coeffs, self.GRID, jumps)
        for got, drawn in ((ens.brownian, brownian), (ens.jump_counts, jump_counts)):
            if drawn is None:
                assert got is None
                continue
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, drawn)

    @pytest.mark.parametrize(
        "intensity, n_particles", [(2.0, 32), (7500.0, 3)], ids=["uint8", "widened_at_step_3"]
    )
    def test_jump_counts_are_the_int64_draw_value_for_value(self, intensity, n_particles):
        coeffs, _ = self.WITH_JUMPS
        jumps = JumpModel(intensity=intensity, marks=(1.0, -0.5), probs=(0.4, 0.6))
        grid = dataclasses.replace(self.GRID, n_particles=n_particles)
        brownian, counts = draw_noise(coeffs, grid, jumps)
        rates = np.array(jumps.probs) * jumps.intensity * grid.dt
        reference = np.stack(
            [step_generator(grid.seed, k, JUMPS).poisson(rates, size=(n_particles, 2)) for k in range(grid.n_steps)],
            axis=1,
        )
        assert reference.dtype == np.int64
        np.testing.assert_array_equal(counts, reference)
        # narrow unless a count does not fit; then every step is widened
        assert counts.dtype == (np.uint8 if reference.max() <= 255 else np.int64)
        assert not counts.flags.writeable
        # the count dtype moves no bit of an ensemble or of its adjoint
        narrow = simulate(coeffs, grid, jumps=jumps, xi=1.0, control=0.3, noise=(brownian, counts))
        wide = simulate(coeffs, grid, jumps=jumps, xi=1.0, control=0.3, noise=(brownian, reference))
        np.testing.assert_array_equal(narrow.paths, wide.paths)
        narrow_adj, wide_adj = (solve_absde(ens, terminal=lambda x, law: -x, warn=False) for ens in (narrow, wide))
        for name in ("p0", "q0", "r0"):
            np.testing.assert_array_equal(getattr(narrow_adj, name), getattr(wide_adj, name))

    def test_no_diffusion_means_zero_brownian_increments(self):
        jumps = JumpModel(intensity=2.0, marks=(1.0,), probs=(1.0,))
        coeffs = CoefficientSet(drift=lambda *a: 1.0, jump=lambda t, x, xs, m, ms, u, us, mark: mark)
        ens = ControlProblem(coeffs=coeffs, grid=self.GRID, jumps=jumps).simulate()
        np.testing.assert_array_equal(ens.brownian, 0.0)
        assert ens.brownian.shape == (self.GRID.n_particles, self.GRID.n_steps)
        assert np.any(ens.jump_counts != 0)

    def test_problems_do_not_share_noise(self):
        problem = self.problem(self.WITH_JUMPS)
        reseeded = dataclasses.replace(problem, grid=grid_with_seed(self.GRID, 12))
        a, b = problem.simulate(), reseeded.simulate()
        assert not np.shares_memory(a.brownian, b.brownian)
        assert not np.array_equal(a.brownian, b.brownian)
        assert problem.simulate().brownian is a.brownian

    def test_noise_of_another_problem_is_rejected(self):
        coeffs, jumps = self.WITH_JUMPS
        noise = self.problem(self.WITH_JUMPS).noise
        longer = SimGrid(dt=0.05, delta_steps=4, horizon=2.0, n_particles=32, seed=11)
        with pytest.raises(MeshMismatchError):
            simulate(coeffs, longer, jumps=jumps, noise=noise)
        with pytest.raises(MeshMismatchError):
            simulate(coeffs, self.GRID, jumps=JumpModel.none(), noise=noise)


class TestTimeMajorLayout:
    """Per-step arrays are stored time-major behind (N, ·) views: every
    per-step read and write is one contiguous row, and the public shapes
    stay particle-major."""

    GRID = TestSharedNoise.GRID
    COEFFS, JUMPS = TestSharedNoise.WITH_JUMPS

    def ensemble(self, how):
        control = lambda t, x, xs, law: -0.5 * x + 0.1 * xs[:, -1]
        if how == "simulate":
            return simulate(self.COEFFS, self.GRID, jumps=self.JUMPS, xi=1.0, control=control)
        if how == "problem":
            return ControlProblem(coeffs=self.COEFFS, grid=self.GRID, jumps=self.JUMPS, xi=1.0).simulate(control)
        ens, _ = picard_solve(self.COEFFS, self.GRID, jumps=self.JUMPS, xi=1.0, control=control, t0_steps=5)
        return ens

    @pytest.mark.parametrize("how", ["simulate", "problem", "picard"])
    def test_per_step_reads_are_contiguous_rows(self, how):
        ens = self.ensemble(how)
        d, K = self.GRID.delta_steps, self.GRID.n_steps
        assert ens.jump_counts is not None
        for k in range(K + 1):
            assert ens.state_column(k).flags.c_contiguous
            # newest time first: the backward window is a band of rows in
            # ascending memory order
            assert ens.backward_window(k).flags.f_contiguous
            assert ens.control_window(k).flags.f_contiguous
            assert all(law.atoms.flags.c_contiguous for law in law_segment(ens, k * self.GRID.dt).measures)
        for k in range(d + K + 1):
            assert ens.controls_full[:, k].flags.c_contiguous
        for k in range(K):
            assert ens.brownian[:, k].flags.c_contiguous
            assert ens.jump_counts[:, k, :].T.flags.c_contiguous

    @pytest.mark.parametrize("how", ["simulate", "problem", "picard"])
    def test_public_shapes_stay_particle_major(self, how):
        ens = self.ensemble(how)
        N, d, K = self.GRID.n_particles, self.GRID.delta_steps, self.GRID.n_steps
        assert ens.paths.shape == ens.controls_full.shape == (N, d + K + 1)
        assert ens.states.shape == ens.controls.shape == (N, K + 1)
        assert ens.brownian.shape == (N, K)
        assert ens.jump_counts.shape == (N, K, len(self.JUMPS.marks))
        for k in range(K + 1):
            window = ens.backward_window(k)
            assert window.shape == ens.control_window(k).shape == (N, d + 1)
            for j in range(d + 1):
                lagged = ens.state_column(k - j) if k >= j else np.ones(N)  # unit history
                np.testing.assert_array_equal(window[:, j], lagged)

    def test_adjoint_columns_are_contiguous_rows(self):
        ens = self.ensemble("problem")
        N, K = self.GRID.n_particles, self.GRID.n_steps
        adj = solve_absde(ens, terminal=lambda x, law: -x, warn=False)
        for arr in (adj.p0, adj.q0, adj.r0):
            assert arr.shape == (N, K + 1)
            assert arr.flags.f_contiguous  # time order: forward windows are row bands
            assert all(arr[:, k].flags.c_contiguous for k in range(K + 1))
