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
scheme exactly.  The frozen iterate is one array allocated per solve.

A sweep redoes only what its predecessor changed.  The first sweep of a
window integrates every step from the initial guess, after the memory span
and the window are copied into the frozen iterate.  A later sweep starts at
the first step that reads the first window column whose bits (compared as
``uint64``, so -0.0 and +0.0 differ) the previous sweep changed: step k reads
columns k..d+k, so that is step ``first - d``.  A step before it would read
bit-identical inputs, push the same control value into the ring and write
the same column, so skipping it moves no bit.  The sweep refreshes only
columns ``first`` onwards of the frozen iterate and measures its distance
there, since an unchanged column adds an exact zero to the max.  Paths,
distances, ratios, iteration counts and the replayed controls are those of
re-integrating the whole window on every sweep.  Since each sweep makes one
more column final, a sweep typically runs one step fewer than the one before.

The applied control lives in one ring of d + t0_steps values for the whole
solve (see ``engine._ControlRing``): a sweep restarts inside its window and
still finds the d values before its first step, which are the window's
history or values an earlier sweep pushed with the same bits.  The returned
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
    _is_integer,
    _mesh_array,
    _new_ensemble,
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

    ``t0_steps`` is the window length in mesh steps, an integer that must
    divide the number of steps (default: one window spanning [0, T]).
    Iteration on a window stops when the mean squared sup-distance between
    consecutive sweeps falls to ``tol`` (non-negative); ``max_iter`` (an
    integer of at least 1) defaults to
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
    if not _is_integer(t0_steps) or t0_steps <= 0 or K % t0_steps != 0:
        raise ValueError(f"t0_steps must be a positive integer divisor of n_steps={K}, got {t0_steps!r}")
    if max_iter is None:
        max_iter = t0_steps + 5
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    ctrl = _grid_control(control, grid)

    ens = _new_ensemble(coeffs, grid, jumps, xi, ctrl)
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

    # time-major views: row c is mesh column c
    paths_t, prev_t = paths.T, prev.T
    for w in range(n_windows):
        k0, k1 = w * t0_steps, (w + 1) * t0_steps
        lo, hi = d + k0, d + k1
        # initial guess: constant extension of the window's starting value
        paths[:, lo + 1 : hi + 1] = paths[:, lo][:, None]
        # the first sweep reads the memory span and the whole window
        prev_t[k0 : hi + 1] = paths_t[k0 : hi + 1]
        start = k0
        dists: list[float] = []
        ratios: list[float] = []
        window_done = False
        for _ in range(max_iter):
            # steps before start read only columns that the previous sweep
            # left bit for bit as they were, so they would push the same
            # control values and write the same columns again
            _euler_window(coeffs, frozen, paths, ring, start, k1)
            # columns up to d + start were not written; the first one whose
            # bits changed is where the next sweep's reads first differ
            band = slice(d + start + 1, hi + 1)
            changed = np.flatnonzero(
                (paths_t[band].view(np.uint64) != prev_t[band].view(np.uint64)).any(axis=1)
            )
            if changed.size:
                first = d + start + 1 + int(changed[0])
                diff = paths_t[first : hi + 1] - prev_t[first : hi + 1]
                # the unchanged columns would add exact zeros to the max
                dist = float(np.mean(np.max(diff * diff, axis=0)))
            else:
                dist = 0.0
            if dists and dists[-1] > 0.0:
                ratios.append(dist / dists[-1])
            dists.append(dist)
            if dist <= tol:
                window_done = True
                break
            # the next sweep starts at the first step that reads column first
            prev_t[first : hi + 1] = paths_t[first : hi + 1]
            start = first - d
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


def consistency_check(coeffs: CoefficientSet, ens_fp: ParticleEnsemble) -> float:
    """Sup over the [0, T] mesh of the mean squared gap between the
    fixed-point solve and the direct scheme (same grid, same noise).

    ``ens_fp`` is the ensemble :func:`picard_solve` returned for ``coeffs``;
    the direct scheme runs on what it holds: its grid, jump model, noise,
    initial history (``paths`` before time zero), control and control
    history, so nothing is solved or drawn again.  The gap is formed one
    contiguous time row at a time, so no full-size temporary is held.
    """
    hist = ens_fp.paths[0, : ens_fp.grid.delta_steps + 1]
    ens_dir = simulate(coeffs, ens_fp.grid, ens_fp.jumps, hist, ens_fp.control, ens_fp.control_history, ens_fp.noise)
    gaps = np.empty(ens_fp.grid.n_steps + 1)
    for k in range(len(gaps)):
        diff = ens_fp.state_column(k) - ens_dir.state_column(k)
        diff *= diff
        gaps[k] = diff.mean()
    return float(np.max(gaps))
