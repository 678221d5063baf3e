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
scheme exactly.  The frozen iterate is not a second mesh: it is the
solve's ensemble on a band (``engine._Band``) of the d + t0_steps + 1
columns a sweep reads, the memory span and the window, refilled at each
window after it moves its newest d + 1 columns, the new span, to its end.

A sweep redoes only what its predecessor changed.  The first sweep of a
window integrates every step from the initial guess, after the memory span
and the window are copied into the frozen iterate.  A later sweep starts at
the first step that reads the first window column whose bits (compared as
``uint64``, so -0.0 and +0.0 differ) the previous sweep changed: step k reads
columns k..d+k, so that is step ``first - d``.  A step before it would read
bit-identical inputs, push the same control value and write the same
column, so skipping it moves no bit.  The sweep refreshes only
columns ``first`` onwards of the frozen iterate and measures its distance
there, since an unchanged column adds an exact zero to the max.  Paths,
distances, ratios, iteration counts and the replayed controls are those of
re-integrating the whole window on every sweep.  Since each sweep makes one
more column final, a sweep typically runs one step fewer than the one before.

The applied control is pushed to one band of d + t0_steps + 1 columns for
the whole solve, which moves only at a window's second push.  So a sweep
that restarts inside its window still finds the d values before its first
step: +0.0 before time zero, or values an earlier sweep pushed with the
same bits.  The returned ensemble, like any other, keeps no control array;
it replays its control on its final paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from memsfde.engine import (
    CoefficientSet,
    JumpModel,
    ParticleEnsemble,
    _Band,
    _control_band,
    _euler_window,
    _grid_control,
    _new_ensemble,
)
from memsfde.grid import SimGrid, _is_integer

__all__ = ["PicardReport", "picard_solve", "consistency_check"]

# the largest sup mean-square gap at which the solve matches the direct scheme
CONSISTENCY_TOL = 1e-8


@dataclass(frozen=True)
class PicardReport:
    """Per-window iteration record of the fixed-point solve.

    ``distances[w][m]`` is the mean over particles of the squared sup-distance
    (over the window mesh) between sweeps m and m+1 on window w, and ``tol``
    the distance at or below which a window stops.  The rest is derived
    from those two: ``ratios[w]`` are the successive distance quotients (a
    zero distance starts none), ``iterations[w]`` is the number of sweeps
    window w ran, and ``converged`` says whether every window's last
    distance fell to ``tol``.
    """

    distances: tuple  # tuple of tuples, one per window
    tol: float

    @property
    def ratios(self) -> tuple:
        return tuple(tuple(b / a for a, b in zip(ds, ds[1:]) if a > 0.0) for ds in self.distances)

    @property
    def iterations(self) -> tuple:
        return tuple(len(dists) for dists in self.distances)

    @property
    def converged(self) -> bool:
        return all(dists[-1] <= self.tol for dists in self.distances)

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

    def checks(self):
        """The solve's checks ``(name, passed, detail)``: every window
        converged, and every window's last quotient is below 1.  A window
        with no quotient passes; a distance or quotient that is not finite
        (an overflowed distance makes inf/inf) fails."""
        yield "converged", self.converged, f"iterations per window: {list(self.iterations)}"
        worst = self.worst_final_ratio
        finite = all(math.isfinite(v) for ds, rs in zip(self.distances, self.ratios) for v in (*ds, *rs))
        passed = finite and (math.isnan(worst) or worst < 1.0)
        detail = "" if finite else "; a distance or quotient is not finite"
        yield "final_contraction_ratio", passed, f"worst final ratio {worst:.6g}{detail}"


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
    t0_steps = K if t0_steps is None else t0_steps
    if not _is_integer(t0_steps) or t0_steps <= 0 or K % t0_steps != 0:
        raise ValueError(f"t0_steps must be a positive integer divisor of n_steps={K}, got {t0_steps!r}")
    max_iter = t0_steps + 5 if max_iter is None else max_iter
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer of at least 1, got {max_iter!r}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")

    ens = _new_ensemble(coeffs, grid, jumps, xi, _grid_control(control, grid))
    state = ens.state
    # the frozen iterate: the memory span and the window being solved, with
    # the solve's control and noise
    frozen = replace(ens, state=_Band(grid, d + t0_steps + 1))
    # one control band for every sweep: a sweep rewrites the t0_steps
    # values of its window, which leaves the d values before it in place
    controls = _control_band(ens, d + t0_steps + 1)

    all_dists: list[tuple] = []
    for w in range(K // t0_steps):
        k0, k1 = w * t0_steps, (w + 1) * t0_steps
        lo, hi = d + k0, d + k1
        # initial guess: constant extension of the window's starting value
        state.columns(lo + 1, hi + 1)[...] = state.column(lo)
        # the first sweep reads the memory span and the whole window, the
        # columns k0..hi the band now holds
        frozen.state.make_room(lo)
        frozen.state.columns(k0, hi + 1)[...] = state.columns(k0, hi + 1)
        start = k0
        dists: list[float] = []
        for _ in range(max_iter):
            # steps before start read only columns that the previous sweep
            # left bit for bit as they were, so they would push the same
            # control values and write the same columns again
            _euler_window(coeffs, frozen, ens, controls, start, k1)
            # columns up to d + start were not written; the first one whose
            # bits changed is where the next sweep's reads first differ
            written = d + start + 1
            new, held = state.columns(written, hi + 1), frozen.state.columns(written, hi + 1)
            changed = np.flatnonzero((new.view(np.uint64) != held.view(np.uint64)).any(axis=1))
            if changed.size:
                first = written + int(changed[0])
                new, held = new[changed[0] :], held[changed[0] :]
                # the unchanged columns would add exact zeros to the max; a
                # running maximum over the changed ones, in two (N,) rows,
                # has the bits of one over their (rows, N) squares
                sup, row = np.square(new[0] - held[0]), np.empty_like(held[0])
                for a, b in zip(new[1:], held[1:]):
                    np.maximum(sup, np.square(np.subtract(a, b, out=row), out=row), out=sup)
                dist = float(np.mean(sup))
            else:
                dist = 0.0
            dists.append(dist)
            if dist <= tol:
                break
            # the next sweep starts at the first step that reads column first
            held[...] = new
            start = first - d
        all_dists.append(tuple(dists))

    # evaluated and dropped: simulate evaluates the horizon's control too
    ens.control_at(K)
    return ens, PicardReport(distances=tuple(all_dists), tol=tol)


def consistency_check(coeffs: CoefficientSet, ens_fp: ParticleEnsemble) -> float:
    """Sup over the [0, T] mesh of the mean squared gap between the
    fixed-point solve and the direct scheme (same grid, same noise).

    ``ens_fp`` is the ensemble :func:`picard_solve` returned for ``coeffs``;
    the direct scheme runs on what it holds: its grid, jump model, noise,
    initial history (its state before time zero) and control, which reads
    +0.0 before time zero, so nothing is solved or drawn again.  The scheme is one
    ``engine._euler_window`` pass over steps 0..K on an ensemble whose
    state is a band of d + 2 + s mesh columns, s = (d + 4) // 4 as in
    ``adjoint.SweepContext``, not the full mesh: the pass reads and writes
    the band and makes room for the next column once a step is done with
    its inputs, which moves d + 1 rows once every s + 1 steps, and its
    per-step hook forms the gap of column k, one contiguous row, while the
    band still holds it.  The gaps are those of simulating the whole direct
    ensemble, bit for bit.
    """
    d, K = ens_fp.grid.delta_steps, ens_fp.grid.n_steps
    direct = replace(ens_fp, state=_Band(ens_fp.grid, d + 2 + (d + 4) // 4))
    direct.state.columns(0, d + 1)[...] = ens_fp.state.columns(0, d + 1)
    gaps = np.empty(K + 1)

    def gap(k, x, *_):
        gaps[k] = np.square(ens_fp.state_column(k) - x).mean()

    # steps 0..K, the horizon included: it advances nothing but evaluates
    # the control, as simulate does
    _euler_window(coeffs, direct, direct, _control_band(direct), 0, K + 1, gap)
    return float(np.max(gaps))
