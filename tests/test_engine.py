"""Particle simulator: deterministic delay oracles, noise moments, determinism."""

import dataclasses
import math
import re
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    pathwise_cost,
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

    @pytest.mark.parametrize(
        "name, value",
        [
            ("control_history", None),
            ("control_history", math.nan),
            ("control_history", np.array([0.0, math.inf])),
            ("xi", math.nan),
            ("xi", -math.inf),
            ("xi", np.array([1.0, math.nan, 1.0])),
            ("xi", lambda t: math.inf),
        ],
    )
    def test_non_finite_histories_are_refused_before_the_noise_is_drawn(self, name, value):
        # each reached step 0 and failed there as a non-finite state, which
        # blames the mesh; at d = 0 the control history is never read.  A
        # problem draws its noise on first use, so it checks its histories
        # when it is built
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=0.5, n_particles=3, seed=1)
        coeffs = CoefficientSet(drift=lambda *a: pytest.fail("a step ran"), diffusion=lambda *a: 0.3)
        runs = [
            lambda: simulate(coeffs, grid, **{name: value}),
            lambda: ControlProblem(coeffs, grid, **{name: value}).simulate(),
        ]
        if name == "xi":
            runs.append(lambda: picard_solve(coeffs, grid, xi=value))
        with mock.patch.object(engine, "draw_noise", side_effect=AssertionError("the noise was drawn")) as draw:
            for run in runs:
                with pytest.raises(ValueError, match=name):
                    run()
        assert draw.call_count == 0
        if name == "control_history":
            no_lag = SimGrid(dt=0.1, delta_steps=0, horizon=0.5, n_particles=3, seed=1)
            simulate(LAGGED_DRIFT, no_lag, xi=1.0, control_history=value)


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
        # each window takes two sweeps: the first runs both steps, the second
        # only the step that reads the column the first one changed
        assert report.iterations == (2,) * (self.GRID.n_steps // 2)
        assert len(seen) == (2 + 1) * len(report.iterations)
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


FINITE = st.floats(-2.0, 2.0, allow_nan=False, width=64)


@st.composite
def cost_cases(draw):
    """A small problem with a drawn history and jump model, and 1-4
    controls of every kind ``as_control`` takes."""
    n, k, d = draw(st.integers(1, 7)), draw(st.integers(1, 12)), draw(st.integers(0, 4))
    grid = SimGrid(dt=0.1, delta_steps=d, horizon=0.1 * k, n_particles=n, seed=draw(st.integers(0, 2**64 - 1)))
    intensity = draw(st.sampled_from([0.0, 0.5, 2.0]))
    jumps = JumpModel(intensity=intensity, marks=(1.0, -0.5), probs=(0.4, 0.6))
    running = draw(st.booleans())
    coeffs = CoefficientSet(
        drift=lambda t, x, xs, m, ms, u, us: 0.3 * xs[:, -1] - 0.5 * x + 0.2 * m.mean() + u + 0.1 * us[:, -1],
        diffusion=lambda t, x, *rest: 0.2 + 0.1 * np.tanh(x),
        jump=lambda t, x, xs, m, ms, u, us, mark: 0.1 * mark * np.tanh(xs[:, -1]),
        running_cost=(lambda t, x, xs, m, ms, u, us: -0.5 * u * u + 0.1 * us[:, -1] * x) if running else None,
        terminal_cost=lambda x, law: -0.5 * x * x + 0.1 * law.mean(),
    )
    xi = draw(st.one_of(FINITE, st.lists(FINITE, min_size=d + 1, max_size=d + 1).map(np.array)))
    history = draw(st.one_of(st.sampled_from([0.0, -0.0]), FINITE, st.lists(FINITE, min_size=d, max_size=d).map(np.array)))

    def feedback(a, b):
        return lambda t, x, xs, law: a * xs[:, -1] + b * x - 0.1 * law.mean() + np.sin(t)

    simple = st.one_of(
        st.sampled_from([None, 0.0, -0.0]),
        FINITE,
        st.lists(FINITE, min_size=k + 1, max_size=k + 1).map(np.array),
        st.lists(FINITE, min_size=n * (k + 1), max_size=n * (k + 1)).map(lambda v: np.array(v).reshape(n, k + 1)),
        st.builds(feedback, FINITE, FINITE),
    )
    control = st.one_of(simple, st.builds(combine_controls, simple, simple, FINITE))
    problem = ControlProblem(coeffs=coeffs, grid=grid, jumps=jumps, xi=xi, control_history=history)
    return problem, draw(st.lists(control, min_size=1, max_size=4))


class TestControlCosts:
    """``ControlProblem.costs`` is the one place that costs controls."""

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(case=cost_cases())
    def test_costs_are_the_fresh_pathwise_costs_one_ensemble_at_a_time(self, case):
        problem, controls = case
        alive = []

        def tracked(*args, **kwargs):
            # every ensemble this call simulated before is already freed
            assert all(ref() is None for ref in alive)
            ens = simulate(*args, **kwargs)
            alive.append(weakref.ref(ens))
            return ens

        with mock.patch.object(engine, "simulate", tracked):
            costs = problem.costs(controls)
        assert len(alive) == len(controls)
        assert all(ref() is None for ref in alive)
        # each control on its own freshly drawn noise, bit for bit
        expected = [
            pathwise_cost(
                simulate(
                    problem.coeffs,
                    problem.grid,
                    jumps=problem.jumps,
                    xi=problem.xi,
                    control=control,
                    control_history=problem.control_history,
                ),
                problem.coeffs,
            )
            for control in controls
        ]
        assert [c.tobytes() for c in costs] == [e.tobytes() for e in expected]


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

    @pytest.mark.parametrize("shape", [(10,), (5, 10), (12,), (1, 11), (3, 11), (5, 12)])
    def test_array_controls_must_fit_the_mesh(self, shape):
        # K = 10 steps and N = 5 particles: only (11,) and (5, 11) fit, and
        # any other array is refused before a step runs, bare or as either
        # operand of combine_controls
        grid = SimGrid(dt=0.1, delta_steps=2, horizon=1.0, n_particles=5, seed=0)
        coeffs = CoefficientSet(drift=lambda *a: pytest.fail("a step ran"))
        array = np.zeros(shape)
        fitting = np.zeros(11)
        for control in (
            array,
            combine_controls(array, None, 1.0),
            combine_controls(fitting, array, -0.5),
            combine_controls(combine_controls(0.5, fitting, 1.0), combine_controls(None, array, 2.0), 1.0),
        ):
            runs = (
                lambda: simulate(coeffs, grid, control=control),
                lambda: ControlProblem(coeffs=coeffs, grid=grid).simulate(control),
                lambda: picard_solve(coeffs, grid, control=control),
            )
            for run in runs:
                with pytest.raises(MeshMismatchError, match=re.escape(str(shape))) as err:
                    run()
                assert "(11,)" in str(err.value) and "(5, 11)" in str(err.value)


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
            for a, b in zip(shared.coefficient_inputs(), fresh.coefficient_inputs()):
                np.testing.assert_array_equal(a[-1], b[-1])  # the replayed control windows
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
        for k, (*_, u, u_seg) in enumerate(ens.coefficient_inputs()):
            assert ens.state_column(k).flags.c_contiguous
            # newest time first: the backward windows are bands of rows in
            # ascending memory order
            assert ens.backward_window(k).flags.f_contiguous
            assert u_seg.flags.f_contiguous
            assert all(law.atoms.flags.c_contiguous for law in law_segment(ens, k * self.GRID.dt).measures)
            # every control value, history included, is one contiguous row
            assert u.flags.c_contiguous
            assert all(u_seg[:, j].flags.c_contiguous for j in range(d + 1))
        for k in range(K):
            assert ens.brownian[:, k].flags.c_contiguous
            assert ens.jump_counts[:, k, :].T.flags.c_contiguous

    @pytest.mark.parametrize("how", ["simulate", "problem", "picard"])
    def test_public_shapes_stay_particle_major(self, how):
        ens = self.ensemble(how)
        N, d, K = self.GRID.n_particles, self.GRID.delta_steps, self.GRID.n_steps
        assert ens.paths.shape == (N, d + K + 1)
        assert ens.controls_full is None  # no full-mesh control array
        assert ens.states.shape == (N, K + 1)
        assert ens.brownian.shape == (N, K)
        assert ens.jump_counts.shape == (N, K, len(self.JUMPS.marks))
        for k, (*_, u, u_seg) in enumerate(ens.coefficient_inputs()):
            assert u.shape == ens.control_at(k).shape == (N,)
            window = ens.backward_window(k)
            assert window.shape == u_seg.shape == (N, d + 1)
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


def _buffer_owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns the memory ``arr`` views."""
    while arr.base is not None:
        arr = arr.base
    return arr


class TestUncontrolledRecord:
    """The zero control from a +0.0 history applies nothing but +0.0, so its
    ensemble holds no control storage: every control window it hands out,
    integrating or replaying, is one read-only zero view that owns no buffer
    of its size.  Any other control or history is held in a ring."""

    GRID = TestSharedNoise.GRID
    COEFFS, JUMPS = TestSharedNoise.WITH_JUMPS

    def ensemble(self, how, control=None, coeffs=None, **kwargs):
        coeffs = coeffs if coeffs is not None else self.COEFFS
        if how == "simulate":
            return simulate(coeffs, self.GRID, jumps=self.JUMPS, xi=1.0, control=control, **kwargs)
        if how == "problem":
            problem = ControlProblem(coeffs=coeffs, grid=self.GRID, jumps=self.JUMPS, xi=1.0, **kwargs)
            return problem.simulate(control)
        ens, _ = picard_solve(coeffs, self.GRID, jumps=self.JUMPS, xi=1.0, control=control, t0_steps=5)
        return ens

    def integration_windows(self, how, control=None, **kwargs):
        """The ensemble and the control windows its Euler steps were handed,
        each as ``(copy, writeable, bytes of the buffer it views)``."""
        seen = []

        def drift(t, x, xs, m, ms, u, us):
            seen.append((us.copy(), us.flags.writeable, _buffer_owner(us).nbytes))
            return self.COEFFS.drift(t, x, xs, m, ms, u, us)

        coeffs = dataclasses.replace(self.COEFFS, drift=drift)
        return self.ensemble(how, control=control, coeffs=coeffs, **kwargs), seen

    @pytest.mark.parametrize("how", ["simulate", "problem", "picard"])
    def test_uncontrolled_record_is_a_read_only_zero_view(self, how):
        ens, seen = self.integration_windows(how)
        N, d, K = self.GRID.n_particles, self.GRID.delta_steps, self.GRID.n_steps
        assert ens.controls_full is None
        replayed = [(u_seg, u_seg.flags.writeable, _buffer_owner(u_seg).nbytes) for *_, u_seg in ens.coefficient_inputs()]
        assert len(replayed) == K + 1
        for window, writeable, owned in seen + replayed:
            assert isinstance(window, np.ndarray) and window.shape == (N, d + 1)
            assert not writeable
            assert owned < N * (d + 1) * 8
            assert np.all(window == 0.0) and not np.signbit(window).any()
        # every reader sees +0.0, as on a 0.0 control held in a ring
        recorded = self.ensemble(how, control=0.0)
        np.testing.assert_array_equal(ens.paths, recorded.paths)
        for k, (a, b) in enumerate(zip(ens.coefficient_inputs(), recorded.coefficient_inputs())):
            assert b[-1].flags.writeable
            assert a[-2].tobytes() == b[-2].tobytes()  # the control
            assert a[-1].tobytes() == b[-1].tobytes()  # its window
            assert ens.control_at(k).tobytes() == recorded.control_at(k).tobytes()
        cost = CoefficientSet(running_cost=lambda t, x, xs, m, ms, u, us: u * u + us.sum(axis=1) + x)
        assert pathwise_cost(ens, cost).tobytes() == pathwise_cost(recorded, cost).tobytes()

    @pytest.mark.parametrize("how", ["simulate", "problem"])
    def test_signed_and_non_zero_histories_are_recorded(self, how):
        N, d = self.GRID.n_particles, self.GRID.delta_steps
        # the same history shapes at +0.0 are held nowhere
        for zero in (0.0, np.zeros(d)):
            ens = self.ensemble(how, control_history=zero)
            assert all(not u_seg.flags.writeable for *_, u_seg in ens.coefficient_inputs())
        minus_zero = np.zeros(d)
        minus_zero[1] = -0.0
        for hist in (-0.0, 0.25, minus_zero, np.linspace(-1.0, 1.0, d)):
            ens, seen = self.integration_windows(how, control_history=hist)
            expected = np.broadcast_to(np.asarray(hist, dtype=float), (N, d))
            replayed = [(u_seg.copy(), u_seg.flags.writeable) for *_, u_seg in ens.coefficient_inputs()]
            steps = [(k, w, writeable) for k, (w, writeable, _) in enumerate(seen)]
            steps += [(k, w, writeable) for k, (w, writeable) in enumerate(replayed)]
            for k, window, writeable in steps:
                assert writeable
                # lag j at step k is history column d + k - j up to time zero
                for j in range(k + 1, d + 1):
                    column, held = window[:, j], expected[:, d + k - j]
                    assert column.tobytes() == np.ascontiguousarray(held).tobytes()
                    assert np.array_equal(np.signbit(column), np.signbit(held))
                applied = window[:, : min(k, d) + 1]
                assert np.all(applied == 0.0) and not np.signbit(applied).any()

    def test_without_a_memory_window_the_history_is_ignored(self):
        grid = SimGrid(dt=0.1, delta_steps=0, horizon=1.0, n_particles=4, seed=0)
        coeffs = CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: 1.0 + u)
        for hist in (0.0, -0.0, 2.0, np.arange(5.0)):
            ens = simulate(coeffs, grid, xi=0.0, control_history=hist)
            assert ens.control_history is None
            windows = [u_seg for *_, u_seg in ens.coefficient_inputs()]
            assert len(windows) == grid.n_steps + 1
            assert all(w.shape == (4, 1) and not w.flags.writeable for w in windows)
            np.testing.assert_allclose(ens.states[:, -1], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("how", ["simulate", "problem", "picard"])
    def test_controlled_records_stay_writable(self, how):
        ens, seen = self.integration_windows(how, control=lambda t, x, xs, law: -0.5 * x)
        N, d = self.GRID.n_particles, self.GRID.delta_steps
        # views of a ring of 2d + 1 rows (2d + t0_steps for the fixed-point
        # solve), not of a full-mesh array
        period = 5 + d if how == "picard" else d + 1
        for _, writeable, owned in seen:
            assert writeable
            assert owned == (period + d) * N * 8
        for *_, u_seg in ens.coefficient_inputs():
            assert u_seg.flags.writeable
            assert _buffer_owner(u_seg).nbytes == (2 * d + 1) * N * 8

    @pytest.mark.parametrize("how", ["simulate", "picard"])
    def test_uncontrolled_runs_allocate_no_control_array(self, how):
        # a simulation on shared noise allocates its paths, and the
        # fixed-point solve also its frozen iterate and the noise it draws;
        # no (N, d + K + 1) control array beside them.  A controlled run
        # adds only its control ring: 2d + 1 rows in a simulation, and
        # 2d + t0_steps in the fixed-point solve
        grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=4_000, seed=3)
        coeffs = CoefficientSet(drift=lambda t, x, xs, m, ms, u, us: xs[:, -1] - x + u, diffusion=lambda *a: 0.3)
        noise = draw_noise(coeffs, grid)
        N, d, K = grid.n_particles, grid.delta_steps, grid.n_steps
        mesh = N * (d + K + 1) * 8
        slack = 16 * N * 8  # (N,)-sized temporaries of the steps
        feedback = lambda t, x, xs, law: 0.2 * xs[:, -1] - 0.5 * x + 0.1 * law.mean()
        controls = [None, feedback]
        if how == "simulate":
            controls.append(np.random.default_rng(0).standard_normal((N, K + 1)))
        for control in controls:
            tracemalloc.start()
            try:
                if how == "simulate":
                    simulate(coeffs, grid, xi=1.0, control=control, noise=noise)
                    ring = (2 * d + 1) * N * 8
                    allowed = mesh + slack
                else:
                    picard_solve(coeffs, grid, xi=1.0, control=control, t0_steps=5)
                    ring = (2 * d + 5) * N * 8
                    # plus the sweep distance over a 5-step window
                    allowed = 2 * mesh + N * K * 8 + 2 * N * 5 * 8 + slack
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= allowed + (0 if control is None else ring)


class TestControlReplay:
    """No ensemble records its control: the window a coefficient sees is the
    history followed by the applied values, held in a ring while the
    ensemble integrates, and readers replay the applied values from the
    stored paths with the same bits."""

    @staticmethod
    def logged(coeffs, control, grid, log):
        """``coeffs`` and ``control`` that append, in call order, each
        applied control value and each window the drift is handed."""
        dt = grid.dt

        def applied(t, x, xs, law):
            value = control(t, x, xs, law)
            log.append(("u", int(round(t / dt)), np.broadcast_to(np.asarray(value, dtype=float), x.shape).copy()))
            return value

        def drift(t, x, xs, m, ms, u, us):
            log.append(("window", int(round(t / dt)), us.copy()))
            return coeffs.drift(t, x, xs, m, ms, u, us)

        return dataclasses.replace(coeffs, drift=drift), applied

    @staticmethod
    def check_windows(log, history, grid):
        """Every logged window is bit for bit the history before time zero
        and the values applied since, newest first."""
        N, d = grid.n_particles, grid.delta_steps
        held = {}
        if d:
            held.update(enumerate(np.broadcast_to(np.asarray(history, dtype=float)[..., None], (d, N))))
        windows = 0
        for kind, k, value in log:
            if kind == "u":
                held[d + k] = value
                continue
            expected = np.column_stack([held[d + k - j] for j in range(d + 1)])
            assert value.shape == (N, d + 1)
            assert value.tobytes() == expected.tobytes()
            assert np.array_equal(np.signbit(value), np.signbit(expected))
            windows += 1
        return windows

    # the drift reads the control at the largest lag and at lag 1 (lag 0
    # without a memory window)
    COEFFS = CoefficientSet(
        drift=lambda t, x, xs, m, ms, u, us: 0.5 * us[:, -1] + us[:, 1 % us.shape[1]] - x,
        diffusion=lambda *a: 0.3,
    )
    FEEDBACK = staticmethod(lambda t, x, xs, law: 0.2 * xs[:, -1] - 0.5 * x + 0.1 * law.mean() + 0.3)

    @pytest.mark.parametrize(
        "d, history, t0_steps",
        [(4, -0.0, None), (4, np.array([0.5, -0.0, -1.25, 2.0]), None), (0, 1.0, None), (3, 0.0, 6)],
        ids=["minus_zero_history", "non_zero_history", "no_memory", "picard_window_longer_than_d_plus_one"],
    )
    def test_windows_are_the_history_and_the_applied_values(self, d, history, t0_steps):
        grid = SimGrid(dt=0.05, delta_steps=d, horizon=0.6, n_particles=16, seed=4)
        log = []
        coeffs, control = self.logged(self.COEFFS, self.FEEDBACK, grid, log)
        if t0_steps is None:
            ens = simulate(coeffs, grid, xi=1.0, control=control, control_history=history)
            assert self.check_windows(log, history, grid) == grid.n_steps
        else:
            # every sweep restarts inside its window and must find the d
            # values before its first step, which its writes leave alone
            assert t0_steps > d + 1
            ens, report = picard_solve(coeffs, grid, xi=1.0, control=control, t0_steps=t0_steps)
            assert min(report.iterations) > 1
            assert all(dists[-1] == 0.0 for dists in report.distances)  # converged exactly
            # sweep m of a window starts at its step m: each sweep makes
            # one more column final, and the next restarts at the first
            # step that reads it
            executed = sum(t0_steps - m for n in report.iterations for m in range(n))
            assert self.check_windows(log, history, grid) == executed
        last_applied = {k: value for kind, k, value in log if kind == "u"}
        assert sorted(last_applied) == list(range(grid.n_steps + 1))
        # the replay gives the last applied values and their windows, bit
        # for bit (a fixed-point solve that converged exactly included)
        del log[:]
        for k, (*_, u, u_seg) in enumerate(ens.coefficient_inputs()):
            assert u.tobytes() == last_applied[k].tobytes()
            log.append(("window", k, u_seg.copy()))
        assert self.check_windows(log, history, grid) == grid.n_steps + 1

    @pytest.mark.parametrize("kind", ["feedback", "per_particle", "shared", "combined"])
    def test_control_at_gives_the_applied_bits_at_every_step(self, kind):
        grid = SimGrid(dt=0.05, delta_steps=3, horizon=0.55, n_particles=16, seed=9)
        N, K = grid.n_particles, grid.n_steps
        rng = np.random.default_rng(1)
        control = {
            "feedback": self.FEEDBACK,
            "per_particle": rng.standard_normal((N, K + 1)),
            "shared": rng.standard_normal(K + 1),
            "combined": combine_controls(self.FEEDBACK, lambda t, x, xs, law: np.sin(t) * xs[:, 1], 0.7),
        }[kind]
        applied = {}

        def drift(t, x, xs, m, ms, u, us):
            applied[int(round(t / grid.dt))] = np.array(u, dtype=float)
            return self.COEFFS.drift(t, x, xs, m, ms, u, us)

        ens = simulate(dataclasses.replace(self.COEFFS, drift=drift), grid, xi=1.0, control=control)
        assert sorted(applied) == list(range(K))
        # the horizon value enters no step; it is the control at T
        x, x_seg, law, _ = ens.step_inputs(K)
        applied[K] = np.broadcast_to(engine.as_control(control).value(K, grid.horizon, x, x_seg, law), (N,))
        for k in range(K + 1):
            assert np.asarray(ens.control_at(k), dtype=float).tobytes() == np.ascontiguousarray(applied[k]).tobytes()
