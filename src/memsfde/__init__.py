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

import importlib
import os
import sys

# A multi-threaded BLAS splits reductions over particles (a regression's
# X^T y) across its threads, so the bits of a result would depend on the
# machine's core count.  One thread keeps them fixed.  This only takes effect
# if numpy is not imported yet (recorded below), and a caller's own setting
# wins.
_NUMPY_PRELOADED = "numpy" in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

# Exported names by defining module.  Each is imported on first access
# (PEP 562), so a program that imports one module of the package, such as
# one CLI subcommand, loads only the modules that module needs.
_EXPORTS = {
    "memsfde.grid": ("SimGrid", "step_generator"),
    "memsfde.measures": (
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
    ),
    "memsfde.segments": ("GridPath", "Segment", "backward_segment", "forward_segment", "sup_norm", "l2_norm_sq"),
    "memsfde.engine": (
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
    ),
    "memsfde.picard": ("PicardReport", "picard_solve", "consistency_check"),
    "memsfde.adjoint": (
        "AdjointTriple",
        "HamiltonianInputs",
        "SegmentFunctional",
        "hamiltonian",
        "riesz_advanced",
        "riesz_duality_check",
        "solve_absde",
        "max_condition_gap",
        "stationarity_gap",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
