"""Empirical laws on the line and a Gaussian-weighted Fourier distance.

A law is represented by equally weighted atoms.  Two laws are compared
through their characteristic functions, integrated against the weight
``exp(-y**2)``:

    dist_sq(mu, nu) = integral |mu_hat(y) - nu_hat(y)|**2 exp(-y**2) dy

The weight makes every pair of probability measures a finite distance apart and
the integral is evaluated exactly enough by Gauss-Hermite quadrature (the
integrand is entire, so 64 nodes are far beyond machine precision for the atom
ranges that occur here).  Handy closed forms used as test oracles:

    norm_sq(dirac(0))            = sqrt(pi)
    dist_sq(dirac(a), dirac(b))  = 2 sqrt(pi) (1 - exp(-(a-b)**2 / 4))

For two samples living on the same probability space, the distance between
their empirical laws is controlled by the coupled mean-square difference:
``dist_sq <= sqrt(pi) * mean((x1 - x2)**2)``.  ``law_dist_l2_bound`` returns
both sides; the inequality is exact (not asymptotic), which makes it a sharp
property test.

A segment of laws over the memory window holds an (N, n) window of samples,
one law per column on the segment mesh; the distance of two segments
integrates the pointwise distance with trapezoid weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from memsfde.grid import _check_step, trapezoid_weights

__all__ = [
    "QuadratureRule",
    "gauss_weight_rule",
    "EmpiricalMeasure",
    "MeasureSegment",
    "ecf",
    "m_norm_sq",
    "m_dist_sq",
    "cf_dist_sq",
    "m_segment_dist_sq",
    "law_dist_l2_bound",
]

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights for integrals of the form ``integral f(y) exp(-y**2) dy``.

    The weights absorb the Gaussian factor: ``sum w_k f(y_k)`` approximates the
    weighted integral of plain ``f``.  Exactness on constants and on ``y**2``
    (values sqrt(pi) and sqrt(pi)/2) is checked at construction.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if abs(weights.sum() - SQRT_PI) > 1e-10:
            raise ValueError("rule does not integrate 1 to sqrt(pi)")
        if abs((weights * nodes**2).sum() - SQRT_PI / 2.0) > 1e-10:
            raise ValueError("rule does not integrate y**2 to sqrt(pi)/2")


def gauss_weight_rule(n_nodes: int = 64) -> QuadratureRule:
    """Gauss-Hermite rule with ``n_nodes`` points for the exp(-y**2) weight."""
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    return QuadratureRule(nodes=nodes, weights=weights)


@functools.cache
def default_rule() -> QuadratureRule:
    """The 64-node rule, built once, that every distance uses by default."""
    return gauss_weight_rule(64)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """The empirical law of finitely many atoms, each weighing 1/n.

    The package realizes every law as the empirical law of N equally likely
    particles, so an atom carries no weight of its own.  The simulation
    engine builds one of these per mesh step, backed by a view into the
    ensemble state, so construction stays cheap.
    """

    atoms: np.ndarray

    def __post_init__(self) -> None:
        atoms = np.asarray(self.atoms, dtype=float)
        if atoms.ndim != 1 or atoms.size == 0:
            raise ValueError("atoms must be a non-empty 1-d array")
        object.__setattr__(self, "atoms", atoms)

    def mean(self) -> float:
        return float(self.atoms.mean())


def dirac(point: float) -> EmpiricalMeasure:
    return EmpiricalMeasure(np.array([point]))


def ecf(mu: EmpiricalMeasure, y: float | np.ndarray) -> complex | np.ndarray:
    """Characteristic function of the empirical law: ``mean_j exp(-i x_j y)``."""
    ys = np.asarray(y, dtype=float)
    phase = np.exp(-1j * np.multiply.outer(ys, mu.atoms))
    out = phase.mean(axis=-1)
    if np.isscalar(y) or (isinstance(y, np.ndarray) and y.ndim == 0):
        return complex(out)
    return out


def m_norm_sq(mu: EmpiricalMeasure, rule: QuadratureRule | None = None) -> float:
    """Squared weighted-Fourier norm of the measure itself: its distance
    from the zero function."""
    return cf_dist_sq(mu, lambda y: 0.0, rule)


def m_dist_sq(mu: EmpiricalMeasure, nu: EmpiricalMeasure, rule: QuadratureRule | None = None) -> float:
    """Squared distance between two laws in the weighted-Fourier norm."""
    return cf_dist_sq(mu, lambda y: ecf(nu, y), rule)


def cf_dist_sq(mu: EmpiricalMeasure, cf, rule: QuadratureRule | None = None) -> float:
    """Squared distance between an empirical law and an analytic characteristic
    function ``cf(y)`` (e.g. ``exp(-y**2 / 2)`` for the standard normal).

    The sign convention matches :func:`ecf`; real-valued references like the
    centered normal are unaffected by it.
    """
    rule = rule or default_rule()
    diff = ecf(mu, rule.nodes) - np.asarray(cf(rule.nodes))
    return float(rule.weights @ np.abs(diff) ** 2)


@dataclass(frozen=True)
class MeasureSegment:
    """The laws of the columns of an (N, n) ``window``, sampled on the
    segment mesh s = 0, dt, ..., (n - 1) dt.

    ``measures`` builds the n empirical laws on first read, each from one
    column of the window (a view, not a copy), so a segment that no
    coefficient reads costs no law.  Orientation is up to the producer; the
    simulation engine hands out the backward window (column j is the state
    at lag j*dt).  The segment distance below is orientation-agnostic as
    long as both operands agree.
    """

    window: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        window = np.asarray(self.window, dtype=float)
        if window.ndim != 2 or window.size == 0:
            raise ValueError(f"window must be a non-empty (N, n) array, got shape {window.shape}")
        _check_step(self.dt)
        object.__setattr__(self, "window", window)

    @functools.cached_property
    def measures(self) -> tuple:
        return tuple(EmpiricalMeasure(self.window[:, j]) for j in range(self.window.shape[1]))

    def __len__(self) -> int:
        return self.window.shape[1]


def m_segment_dist_sq(seg_a: MeasureSegment, seg_b: MeasureSegment, rule: QuadratureRule | None = None) -> float:
    """Trapezoid integral over the window of the pointwise squared distance."""
    if len(seg_a) != len(seg_b) or abs(seg_a.dt - seg_b.dt) > 1e-12:
        raise ValueError("segments live on different meshes")
    rule = rule or default_rule()
    vals = np.array([m_dist_sq(a, b, rule) for a, b in zip(seg_a.measures, seg_b.measures)])
    if len(seg_a) == 1:
        return 0.0
    return float(trapezoid_weights(len(seg_a), seg_a.dt) @ vals)


def law_dist_l2_bound(
    x1: np.ndarray,
    x2: np.ndarray,
    rule: QuadratureRule | None = None,
) -> tuple[float, float]:
    """Both sides of the coupled-sample inequality.

    For samples ``x1, x2`` defined slot-by-slot on the same probability space,
    returns ``(lhs, rhs)`` with

        lhs = dist_sq(law(x1), law(x2))
        rhs = sqrt(pi) * mean((x1 - x2)**2)

    and ``lhs <= rhs`` holds exactly.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ValueError("samples must be matching 1-d arrays")
    lhs = m_dist_sq(EmpiricalMeasure(x1), EmpiricalMeasure(x2), rule)
    rhs = SQRT_PI * float(np.mean((x1 - x2) ** 2))
    return lhs, rhs
