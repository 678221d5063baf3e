"""Monte Carlo toolkit for controlled stochastic systems with delay (path-segment)
memory, mean-field interaction through the running law, and compound-Poisson jumps.

The pieces fit together like this:

* :mod:`memsfde.measures` - empirical laws on the real line, a Gaussian-weighted
  Fourier distance between them, and segments of laws over the memory window.
* :mod:`memsfde.segments` - mesh paths and their backward/forward segments.
* :mod:`memsfde.engine` - the N-particle Euler scheme driving everything.
* :mod:`memsfde.picard` - fixed-point (iterate the solution map) solver with
  frozen noise, plus a consistency check against direct simulation.
* :mod:`memsfde.adjoint` - Hamiltonian evaluation, advanced (time-shifted)
  representation of segment gradients, and a least-squares Monte Carlo solver
  for the backward adjoint equation with an advanced driver.
* :mod:`memsfde.mean_variance` - delayed mean-variance targeting problem with a
  closed-form optimal control and a battery of optimality verifications.
* :mod:`memsfde.lq_memory` - linear-quadratic problem with distributed delay,
  solved by damped forward/backward fixed-point iteration.
* :mod:`memsfde.cli` - experiment runner (config file in, CSV + manifest out).
"""

import os

# A multi-threaded BLAS splits reductions over particles (a regression's
# X^T y) across its threads, so the bits of a result would depend on the
# machine's core count.  One thread keeps them fixed.  This only takes effect
# if numpy is not imported yet, and a caller's own setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from memsfde.grid import SimGrid, step_generator
from memsfde.measures import (
    EmpiricalMeasure,
    MeasureSegment,
    QuadratureRule,
    cf_dist_sq,
    ecf,
    gauss_weight_rule,
    law_dist_l2_bound,
    m_dist_sq,
    m_norm_sq,
    m_segment_dist_sq,
)
from memsfde.segments import (
    GridPath,
    Segment,
    backward_segment,
    forward_segment,
    l2_norm_sq,
    sup_norm,
)
from memsfde.engine import (
    CoefficientSet,
    ControlProblem,
    JumpModel,
    MeshMismatchError,
    ParticleEnsemble,
    SimulationBlowupError,
    law_at,
    law_segment,
    pathwise_cost,
    performance,
    simulate,
)
from memsfde.picard import PicardReport, consistency_check, picard_solve
from memsfde.adjoint import (
    AdjointTriple,
    HamiltonianInputs,
    SegmentFunctional,
    hamiltonian,
    max_condition_gap,
    riesz_advanced,
    riesz_duality_check,
    solve_absde,
    stationarity_gap,
)

__all__ = [
    "SimGrid",
    "step_generator",
    "EmpiricalMeasure",
    "MeasureSegment",
    "QuadratureRule",
    "gauss_weight_rule",
    "ecf",
    "m_norm_sq",
    "m_dist_sq",
    "m_segment_dist_sq",
    "cf_dist_sq",
    "law_dist_l2_bound",
    "GridPath",
    "Segment",
    "backward_segment",
    "forward_segment",
    "sup_norm",
    "l2_norm_sq",
    "CoefficientSet",
    "JumpModel",
    "ParticleEnsemble",
    "ControlProblem",
    "MeshMismatchError",
    "SimulationBlowupError",
    "simulate",
    "law_at",
    "law_segment",
    "performance",
    "pathwise_cost",
    "PicardReport",
    "picard_solve",
    "consistency_check",
    "AdjointTriple",
    "HamiltonianInputs",
    "SegmentFunctional",
    "hamiltonian",
    "riesz_advanced",
    "riesz_duality_check",
    "solve_absde",
    "max_condition_gap",
    "stationarity_gap",
]
