"""Weighted-Fourier measure norm: closed-form oracles and exact inequalities.

The point-mass identities used here follow from one Gaussian integral:

    integral |exp(-iay) - exp(-iby)|**2 exp(-y**2) dy
        = 2 integral (1 - cos((a-b) y)) exp(-y**2) dy
        = 2 sqrt(pi) (1 - exp(-(a-b)**2 / 4))

so every assertion below is independent of the quadrature implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsfde.measures import (
    EmpiricalMeasure,
    MeasureSegment,
    QuadratureRule,
    cf_dist_sq,
    dirac,
    ecf,
    gauss_weight_rule,
    law_dist_l2_bound,
    m_dist_sq,
    m_norm_sq,
    m_segment_dist_sq,
)

SQRT_PI = math.sqrt(math.pi)


def dirac_dist_sq_exact(a: float, b: float) -> float:
    return 2.0 * SQRT_PI * (1.0 - math.exp(-((a - b) ** 2) / 4.0))


class TestClosedForms:
    def test_dirac_norm_is_sqrt_pi(self):
        for point in (0.0, 1.0, -3.7):
            assert m_norm_sq(dirac(point)) == pytest.approx(SQRT_PI, abs=1e-6)

    def test_dirac_pair_distance(self):
        # |a - b| = 2 gives 2 sqrt(pi) (1 - 1/e) = 2.24073...
        got = m_dist_sq(dirac(0.7), dirac(-1.3))
        assert got == pytest.approx(dirac_dist_sq_exact(0.7, -1.3), abs=1e-6)
        assert got == pytest.approx(2.24073, abs=1e-4)

    def test_dirac_sequence_converges_to_zero_distance(self):
        gaps = [1.0, 0.1, 0.01]
        vals = [m_dist_sq(dirac(0.0), dirac(g)) for g in gaps]
        assert vals[0] > vals[1] > vals[2]
        # small-gap expansion: dist_sq ~ sqrt(pi)/2 * gap**2
        assert vals[2] == pytest.approx(SQRT_PI / 2.0 * 0.01**2, rel=1e-3)

    def test_coupled_point_masses(self):
        # one-atom samples two apart: lhs is the Dirac distance, rhs = sqrt(pi) * 4
        lhs, rhs = law_dist_l2_bound(np.array([1.0]), np.array([-1.0]))
        assert lhs == pytest.approx(2.24073, abs=1e-4)
        assert rhs == pytest.approx(7.08982, abs=1e-4)
        assert lhs <= rhs


class TestCharacteristicFunction:
    def test_dirac_at_origin_is_one(self):
        assert ecf(dirac(0.0), 1.234) == pytest.approx(1.0)

    def test_symmetric_pair_at_pi(self):
        mu = EmpiricalMeasure(np.array([-1.0, 1.0]))
        assert ecf(mu, math.pi) == pytest.approx(-1.0)

    def test_vectorized_matches_scalar(self):
        # atoms weigh equally, so a repeated atom weighs 1/2 here
        mu = EmpiricalMeasure(np.array([0.3, 0.3, -0.8, 2.0]))
        ys = np.linspace(-2.0, 2.0, 7)
        vec = ecf(mu, ys)
        for y, v in zip(ys, vec):
            assert ecf(mu, float(y)) == pytest.approx(v)

    def test_standard_normal_reference(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        sample = EmpiricalMeasure(rng.standard_normal(100_000))
        assert cf_dist_sq(sample, lambda y: np.exp(-(y**2) / 2.0)) < 5e-3


class TestQuadrature:
    def test_rule_moment_invariants(self):
        rule = gauss_weight_rule(64)
        assert rule.weights.sum() == pytest.approx(SQRT_PI, abs=1e-12)
        assert (rule.weights * rule.nodes**2).sum() == pytest.approx(SQRT_PI / 2.0, abs=1e-12)

    def test_bad_rule_rejected(self):
        with pytest.raises(ValueError):
            QuadratureRule(nodes=np.array([0.0, 1.0]), weights=np.array([1.0, 1.0]))

    def test_doubling_nodes_changes_nothing(self):
        mu = EmpiricalMeasure(np.array([0.2, -1.1, 0.9]))
        nu = EmpiricalMeasure(np.repeat([1.5, 0.0, -0.4], [2, 3, 5]))
        d64 = m_dist_sq(mu, nu, gauss_weight_rule(64))
        d128 = m_dist_sq(mu, nu, gauss_weight_rule(128))
        assert abs(d64 - d128) < 1e-8

    def test_against_dense_trapezoid(self):
        # brute-force the weighted integral on [-10, 10] as an independent oracle
        mu = EmpiricalMeasure(np.array([0.7, -0.2]))
        nu = dirac(0.1)
        ys = np.linspace(-10.0, 10.0, 200_001)
        diff = np.abs(np.asarray(ecf(mu, ys)) - np.asarray(ecf(nu, ys))) ** 2
        brute = np.trapezoid(diff * np.exp(-(ys**2)), ys)
        assert m_dist_sq(mu, nu) == pytest.approx(float(brute), abs=1e-8)


atoms_strategy = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=1,
    max_size=12,
).map(lambda xs: np.asarray(xs))


class TestMetricProperties:
    @given(a=atoms_strategy, b=atoms_strategy)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_positivity(self, a, b):
        mu, nu = EmpiricalMeasure(a), EmpiricalMeasure(b)
        d_ab = m_dist_sq(mu, nu)
        d_ba = m_dist_sq(nu, mu)
        assert d_ab >= -1e-12
        assert d_ab == pytest.approx(d_ba, abs=1e-10)
        assert m_dist_sq(mu, mu) == pytest.approx(0.0, abs=1e-12)

    @given(a=atoms_strategy, b=atoms_strategy, c=atoms_strategy)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        mu, nu, rho = EmpiricalMeasure(a), EmpiricalMeasure(b), EmpiricalMeasure(c)
        d = lambda x, y: math.sqrt(max(m_dist_sq(x, y), 0.0))
        assert d(mu, rho) <= d(mu, nu) + d(nu, rho) + 1e-9


coupled_pair = st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n).map(np.asarray),
        st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n).map(np.asarray),
    )
)


class TestCoupledSampleBound:
    @given(pair=coupled_pair)
    @settings(max_examples=100, deadline=None)
    def test_inequality_holds_exactly(self, pair):
        x1, x2 = pair
        lhs, rhs = law_dist_l2_bound(x1, x2)
        assert lhs <= rhs + 1e-8

    @given(pair=coupled_pair, n_times=st.integers(min_value=2, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_segment_analogue(self, pair, n_times):
        # time-varying coupled samples: integrate both sides over a window
        x1, x2 = pair
        dt = 0.25
        segs1, segs2, rhs_vals = [], [], []
        for j in range(n_times):
            shift = 0.5 * j
            a, b = x1 + shift, x2 - shift
            segs1.append(EmpiricalMeasure(a))
            segs2.append(EmpiricalMeasure(b))
            rhs_vals.append(SQRT_PI * float(np.mean((a - b) ** 2)))
        lhs = m_segment_dist_sq(MeasureSegment(segs1, dt), MeasureSegment(segs2, dt))
        from memsfde.grid import trapezoid_weights

        rhs = float(trapezoid_weights(n_times, dt) @ np.asarray(rhs_vals))
        assert lhs <= rhs + 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            law_dist_l2_bound(np.zeros(3), np.zeros(4))


class TestEmpiricalMeasure:
    def test_segment_mesh_mismatch(self):
        a = MeasureSegment([dirac(0.0), dirac(1.0)], dt=0.1)
        b = MeasureSegment([dirac(0.0), dirac(1.0)], dt=0.2)
        with pytest.raises(ValueError):
            m_segment_dist_sq(a, b)
