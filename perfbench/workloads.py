"""Workload configs and the independent oracles that check their results.

Each workload is one ``memsfde`` subcommand run on a config that this module
writes from the benchmark's seed: the seed becomes ``[grid] seed`` and every
other value is fixed here, so the amount of work does not depend on the seed.
The values are copied from the shipped configs (``meanvar_jumps.cfg``,
``lq.cfg``) except for the particle counts, which are cut so that one CLI run
takes a few seconds; ``picard_meanfield`` has no shipped counterpart.

The oracles recompute, without importing ``memsfde``, quantities that the
program's artifacts must reproduce: closed forms for ``meanvar``, the exact
curvature of the frozen-noise performance parabola for ``lq`` and the linear
recursion of the ensemble mean for ``picard``.  Each ``check_*`` function
returns a list of mismatch descriptions; an empty list means the run agrees.
"""

from __future__ import annotations

import csv
import json
import math
import os

WORKLOADS = {
    "meanvar_jumps": {
        "command": "meanvar",
        "grid": {"horizon": 1.0, "delta": 0.1, "dt": 0.01, "particles": 20000},
        "sections": {
            "meanvar": {"b0": 0.1, "sigma0": 0.2, "gamma0": 0.05, "target": 1.0, "xi": 2.0},
            "jumps": {"intensity": 1.0, "marks": "1.0", "probs": "1.0"},
        },
    },
    "lq": {
        "command": "lq",
        "grid": {"horizon": 1.0, "delta": 0.2, "dt": 0.01, "particles": 5000},
        "sections": {
            "lq": {
                "kernel": 1.0,
                "alpha0": 0.3,
                "beta0": 0.0,
                "xi": 0.0,
                "damping": 0.5,
                "tol": 1e-4,
                "max_iter": 50,
                "verify": "true",
            },
        },
    },
    # Small N, long horizon, wide window (d = 50) and short fixed-point
    # windows: fixed per-step costs dominate, not memory bandwidth.
    "picard_meanfield": {
        "command": "picard",
        "grid": {"horizon": 2.0, "delta": 0.5, "dt": 0.01, "particles": 4000},
        "sections": {
            "picard": {
                "xi": 1.0,
                "drift_const": 0.1,
                "drift_x": -0.5,
                "drift_lag": 0.3,
                "drift_mean": -0.2,
                "diff_const": 0.2,
                "jump_scale": 0.1,
                "t0": 0.1,
                "consistency": "true",
            },
            "jumps": {"intensity": 2.0, "marks": "1.0, -0.5", "probs": "0.4, 0.6"},
        },
    },
}

# Allowed distance, in reported standard deviations, of a Monte Carlo
# estimate from its exact expectation.
Z_LIMIT = 4.0


def grid_seed(seed: int) -> int:
    """Map the benchmark seed onto the CLI's unsigned 64-bit grid seed."""
    return seed % 2**64


def config_text(name: str, seed: int) -> str:
    spec = WORKLOADS[name]
    lines = [f"problem = {spec['command']}", "", "[grid]"]
    lines += [f"{key} = {value!r}" for key, value in spec["grid"].items()]
    lines.append(f"seed = {grid_seed(seed)}")
    for section, values in spec["sections"].items():
        lines += ["", f"[{section}]"]
        lines += [f"{key} = {value if isinstance(value, str) else repr(value)}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reading artifacts


def read_rows(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def read_named_values(path: str) -> dict:
    return {row["name"]: float(row["value"]) for row in read_rows(path)}


def read_manifest(outdir: str) -> dict:
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _steps(span: float, dt: float) -> int:
    return int(round(span / dt))


def _trapezoid(n_points: int, dt: float) -> list:
    if n_points == 1:
        return [0.0]
    return [0.5 * dt] + [dt] * (n_points - 2) + [0.5 * dt]


def _close(value: float, expected: float, tol: float) -> bool:
    return abs(value - expected) <= tol * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# meanvar: closed-form rate, discount functions and optimal performance


def meanvar_rate(b0: float, sigma0: float, gamma0: float, intensity: float, marks, probs) -> float:
    """b0^2 / (sigma0^2 + gamma0^2 * intensity * E[z^2])."""
    m2 = intensity * sum(p * z * z for z, p in zip(marks, probs))
    return b0 * b0 / (sigma0 * sigma0 + gamma0 * gamma0 * m2)


def meanvar_exact_j(xi: float, target: float, rate: float, dt: float, n_steps: int) -> float:
    """Exact expected performance of the Euler-discretized optimal feedback.

    Under the optimal rule Y = X - target obeys Y[k+1] = Y[k] (1 - r dt - e_k)
    with zero-mean noise e_k of variance r dt, so
    E[Y_K^2] = (xi - target)^2 ((1 - r dt)^2 + r dt)^K.
    """
    factor = (1.0 - rate * dt) ** 2 + rate * dt
    return -0.5 * (xi - target) ** 2 * factor**n_steps


def check_meanvar(spec: dict, outdir: str) -> list:
    grid, mv, jumps = spec["grid"], spec["sections"]["meanvar"], spec["sections"]["jumps"]
    marks = [float(z) for z in jumps["marks"].split(",")]
    probs = [float(p) for p in jumps["probs"].split(",")]
    rate = meanvar_rate(mv["b0"], mv["sigma0"], mv["gamma0"], jumps["intensity"], marks, probs)
    horizon, dt = grid["horizon"], grid["dt"]
    problems = []

    rows = read_rows(os.path.join(outdir, "solution.csv"))
    worst = max(abs(float(r["rate"]) - rate) for r in rows)
    if worst > 1e-12:
        problems.append(f"rate differs from b0^2/(sigma0^2+gamma0^2*lambda*E[z^2]) = {rate!r} by {worst:.3e}")
    first, last = rows[0], rows[-1]
    for label, value, expected in (
        ("phi(T)", float(last["phi"]), -1.0),
        ("psi(T)", float(last["psi"]), mv["target"]),
        ("phi(0)", float(first["phi"]), -math.exp(-rate * horizon)),
    ):
        if abs(value - expected) > 1e-12:
            problems.append(f"{label} = {value!r}, expected {expected!r}")

    optimal = next(r for r in read_rows(os.path.join(outdir, "j_comparison.csv")) if r["control"] == "optimal")
    j_value, stderr = float(optimal["J"]), float(optimal["stderr"])
    j_exact = meanvar_exact_j(mv["xi"], mv["target"], rate, dt, _steps(horizon, dt))
    if not abs(j_value - j_exact) <= Z_LIMIT * stderr:
        problems.append(f"J_optimal = {j_value!r} is more than {Z_LIMIT} stderr ({stderr:.3e}) from {j_exact!r}")
    return problems


# ---------------------------------------------------------------------------
# lq: curvature of the frozen-noise performance parabola


def lq_unit_response(kernel: float, delta: float, dt: float, horizon: float) -> float:
    """Phi_K: Euler response of the state to a unit constant control.

    The state is linear in the control, so adding lambda to the control adds
    lambda * Phi to every path whatever the noise, with Phi zero before time 0
    and Phi[k+1] = Phi[k] + dt (delay integral of Phi + 1).
    """
    d, n_steps = _steps(delta, dt), _steps(horizon, dt)
    weights = [w * kernel for w in _trapezoid(d + 1, dt)]
    phi = [0.0] * (d + 1)  # index d + k holds step k; indices below d are history
    for k in range(n_steps):
        idx = d + k
        delay = sum(weights[j] * phi[idx - j] for j in range(d + 1))
        phi.append(phi[idx] + dt * (delay + 1.0))
    return phi[-1]


def lq_exact_curvature(kernel: float, delta: float, dt: float, horizon: float) -> float:
    """Quadratic coefficient of J(control + lambda): -(Phi_K^2 + T) / 2."""
    phi_k = lq_unit_response(kernel, delta, dt, horizon)
    return -0.5 * (phi_k * phi_k + sum(_trapezoid(_steps(horizon, dt) + 1, dt)))


def check_lq(spec: dict, outdir: str) -> list:
    grid, lq = spec["grid"], spec["sections"]["lq"]
    quad = lq_exact_curvature(lq["kernel"], grid["delta"], grid["dt"], grid["horizon"])
    problems = []

    ver = read_named_values(os.path.join(outdir, "verification.csv"))
    if not _close(ver["parabola_quad"], quad, 1e-9):
        problems.append(f"parabola_quad = {ver['parabola_quad']!r}, expected -(Phi_K^2+T)/2 = {quad!r}")
    second = (ver["J_shift_+0.5"] + ver["J_shift_-0.5"] - 2.0 * ver["J_solution"]) / (2.0 * 0.5**2)
    if not _close(second, quad, 1e-9):
        problems.append(f"second difference of J_shift_+-0.5 gives curvature {second!r}, expected {quad!r}")

    last = float(read_rows(os.path.join(outdir, "convergence.csv"))[-1]["change"])
    if not last < lq["tol"]:
        problems.append(f"last control change {last!r} is not below tol {lq['tol']!r}")
    return problems


# ---------------------------------------------------------------------------
# picard: linear recursion of the ensemble mean


def mean_recursion(const: float, rate: float, lag: float, xi: float, delta: float, dt: float, horizon: float):
    """Expected ensemble mean m[K] and the impulse response of the recursion.

    With the affine family every particle's drift is
    const + drift_x X + drift_lag X(t - delta) + drift_mean E[X], so the
    particle average obeys m[k+1] = m[k] + dt (const + rate m[k] + lag m[k-d])
    plus the averaged noise, where rate = drift_x + drift_mean.  Returns
    (m_K without noise, [h_0, ..., h_{K-1}]) where h_j is the effect on m_K of
    a unit shock entering j steps before the horizon.
    """
    d, n_steps = _steps(delta, dt), _steps(horizon, dt)
    mean = [xi] * (d + 1)
    shock = [0.0] * (d + 1) + [1.0]
    for k in range(n_steps):
        idx = d + k
        mean.append(mean[idx] + dt * (const + rate * mean[idx] + lag * mean[idx - d]))
        if k + 1 < n_steps:
            idx = d + k + 1
            shock.append(shock[idx] + dt * (rate * shock[idx] + lag * shock[idx - d]))
    return mean[-1], shock[d + 1 :]


def picard_terminal_mean(spec: dict) -> tuple:
    """(expected terminal ensemble mean, its standard deviation)."""
    grid, pc, jumps = spec["grid"], spec["sections"]["picard"], spec["sections"]["jumps"]
    dt = grid["dt"]
    expected, response = mean_recursion(
        pc["drift_const"],
        pc["drift_x"] + pc["drift_mean"],
        pc["drift_lag"],
        pc["xi"],
        grid["delta"],
        dt,
        grid["horizon"],
    )
    marks = [float(z) for z in jumps["marks"].split(",")]
    probs = [float(p) for p in jumps["probs"].split(",")]
    jump_var = pc["jump_scale"] ** 2 * jumps["intensity"] * sum(p * z * z for z, p in zip(marks, probs))
    step_var = (pc["diff_const"] ** 2 + jump_var) * dt / grid["particles"]
    return expected, math.sqrt(step_var * sum(h * h for h in response))


def check_picard(spec: dict, outdir: str) -> list:
    grid, pc = spec["grid"], spec["sections"]["picard"]
    problems = []
    expected, sd = picard_terminal_mean(spec)
    value = read_manifest(outdir)["scalars"]["terminal_mean"]
    if not abs(value - expected) <= Z_LIMIT * sd:
        problems.append(f"terminal_mean = {value!r} is more than {Z_LIMIT} sd ({sd:.3e}) from {expected!r}")

    limit = _steps(pc["t0"], grid["dt"]) + 1
    sweeps: dict = {}
    for row in read_rows(os.path.join(outdir, "picard_iters.csv")):
        sweeps[row["window"]] = max(sweeps.get(row["window"], 0), int(row["iter"]))
    over = {w: n for w, n in sweeps.items() if n > limit}
    if over:
        problems.append(f"windows taking more than t0_steps + 1 = {limit} sweeps: {over}")
    return problems


CHECKS = {"meanvar": check_meanvar, "lq": check_lq, "picard": check_picard}


def check_outputs(name: str, outdir: str) -> list:
    """Oracle mismatches of one run of workload ``name`` written to ``outdir``."""
    spec = WORKLOADS[name]
    try:
        return CHECKS[spec["command"]](spec, outdir)
    except (OSError, KeyError, ValueError, StopIteration, IndexError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
