"""Fixed-point construction of the particle scheme by window-wise iteration.

The direct scheme in :mod:`memsfde.engine` is the fixed point of the map that
re-integrates every particle while reading all coefficient inputs (state,
memory segments, empirical laws, control) from a frozen previous iterate.
Iterating that map on a short window, with the driving noise held fixed,
converges; on a mesh it is in fact exact after as many sweeps as the window
has steps, because each sweep extends agreement with the fixed point by one
step.  The observed contraction factors are still informative: they estimate
the Lipschitz/window constant of the dynamics, and they are what the solver
reports.

Windows tile [0, T]; each window starts from the already-converged state, with
the new window's initial guess the constant extension of its starting value.
The solve runs on the problem's noise as :func:`memsfde.engine.draw_noise`
draws it for the direct scheme, once and before the first sweep; every sweep
reads those stored increments, so the converged result matches the direct
scheme exactly.  The frozen iterate is one array allocated per solve; a sweep
refreshes only the columns its window reads (the window plus the memory span
before it).  The applied control lives in one ring of d + t0_steps values
for the whole solve (see ``engine._ControlRing``): a sweep restarts at its
window's first step and still finds the d values before it.  The returned
ensemble, like any other, keeps no control array; it replays its control on
its final paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from memsfde.engine import (
    CoefficientSet,
    JumpModel,
    ParticleEnsemble,
    _ControlRing,
    _euler_window,
    _grid_control,
    _mesh_array,
    _new_ensemble,
    draw_noise,
    simulate,
)
from memsfde.grid import SimGrid

__all__ = ["PicardReport", "picard_solve", "consistency_check"]


@dataclass(frozen=True)
class PicardReport:
    """Per-window iteration record of the fixed-point solve.

    ``distances[w][m]`` is the mean over particles of the squared sup-distance
    (over the window mesh) between sweeps m and m+1 on window w;
    ``ratios[w]`` are successive distance quotients.
    """

    distances: tuple  # tuple of tuples, one per window
    ratios: tuple
    iterations: tuple
    converged: bool
    tol: float

    @property
    def initial_contraction_ratio(self) -> float:
        """First observed quotient on the first window (nan if degenerate)."""
        for rs in self.ratios:
            if rs:
                return rs[0]
        return float("nan")

    @property
    def worst_final_ratio(self) -> float:
        """Largest last-observed quotient across windows (nan if none)."""
        finals = [rs[-1] for rs in self.ratios if rs]
        return max(finals) if finals else float("nan")


def picard_solve(
    coeffs: CoefficientSet,
    grid: SimGrid,
    jumps: JumpModel | None = None,
    xi=0.0,
    control=None,
    t0_steps: int | None = None,
    tol: float = 1e-20,
    max_iter: int | None = None,
) -> tuple[ParticleEnsemble, PicardReport]:
    """Solve the particle system by frozen-noise fixed-point sweeps.

    ``t0_steps`` is the window length in mesh steps and must divide the number
    of steps (default: one window spanning [0, T]).  Iteration on a window
    stops when the mean squared sup-distance between consecutive sweeps falls
    to ``tol`` (non-negative); ``max_iter`` (at least 1) defaults to
    ``t0_steps + 5``, past the point where exactness is guaranteed.  An
    array control must have shape (K+1,) or (N, K+1).

    The returned ensemble's ``control_at`` and ``coefficient_inputs``
    evaluate the control on the final paths: the value the last sweep
    applied once its window has converged exactly (distance 0), and that
    value up to the iteration's residual otherwise.
    """
    d, K = grid.delta_steps, grid.n_steps
    if t0_steps is None:
        t0_steps = K
    if t0_steps <= 0 or K % t0_steps != 0:
        raise ValueError(f"t0_steps must be a positive divisor of n_steps={K}, got {t0_steps}")
    if max_iter is None:
        max_iter = t0_steps + 5
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    ctrl = _grid_control(control, grid)

    ens = _new_ensemble(grid, jumps, xi, draw_noise(coeffs, grid, jumps), ctrl)
    paths = ens.paths
    # the frozen iterate: its own paths, the solve's control and noise
    prev = _mesh_array(grid)
    frozen = replace(ens, paths=prev)
    # one ring for every sweep: a sweep rewrites the t0_steps values of its
    # window, which leaves the d values before the window in place
    ring = _ControlRing(ens, d + t0_steps)

    n_windows = K // t0_steps
    all_dists: list[tuple] = []
    all_ratios: list[tuple] = []
    iters: list[int] = []
    converged = True

    for w in range(n_windows):
        k0, k1 = w * t0_steps, (w + 1) * t0_steps
        lo, hi = d + k0, d + k1
        # initial guess: constant extension of the window's starting value
        paths[:, lo + 1 : hi + 1] = paths[:, lo][:, None]
        dists: list[float] = []
        ratios: list[float] = []
        window_done = False
        for _ in range(max_iter):
            # the sweep reads columns k0..hi-1 (memory span plus window) and
            # the distance below reads lo+1..hi
            prev[:, k0 : hi + 1] = paths[:, k0 : hi + 1]
            _euler_window(coeffs, frozen, paths, ring, k0, k1)
            diff = paths[:, lo + 1 : hi + 1] - prev[:, lo + 1 : hi + 1]
            dist = float(np.mean(np.max(diff * diff, axis=1)))
            if dists and dists[-1] > 0.0:
                ratios.append(dist / dists[-1])
            dists.append(dist)
            if dist <= tol:
                window_done = True
                break
        all_dists.append(tuple(dists))
        all_ratios.append(tuple(ratios))
        iters.append(len(dists))
        if not window_done:
            converged = False

    # evaluated and dropped, as in simulate
    ens.control_at(K)
    report = PicardReport(
        distances=tuple(all_dists),
        ratios=tuple(all_ratios),
        iterations=tuple(iters),
        converged=converged,
        tol=tol,
    )
    return ens, report


def consistency_check(coeffs: CoefficientSet, ens_fp: ParticleEnsemble, xi=0.0, control=None) -> float:
    """Sup over the [0, T] mesh of the mean squared gap between the
    fixed-point solve and the direct scheme (same grid, same noise).

    ``ens_fp`` is the ensemble :func:`picard_solve` returned for ``coeffs``,
    ``xi`` and ``control``; the direct scheme runs on its grid, jump model
    and noise, so nothing is solved or drawn again.  The gap is formed one
    contiguous time row at a time, so no full-size temporary is held.
    """
    ens_dir = simulate(coeffs, ens_fp.grid, jumps=ens_fp.jumps, xi=xi, control=control, noise=ens_fp.noise)
    gaps = np.empty(ens_fp.grid.n_steps + 1)
    for k in range(len(gaps)):
        diff = ens_fp.state_column(k) - ens_dir.state_column(k)
        diff *= diff
        gaps[k] = diff.mean()
    return float(np.max(gaps))
