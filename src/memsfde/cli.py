"""Experiment runner: config ingestion, orchestration, CSV/manifest emission.

Single-invocation design: one experiment per run, everything derived from one
key/value config file plus the subcommand name.  All floating-point output is
written with repr-faithful precision so identical configs give byte-identical
CSV and manifest files; wall-clock timing goes to a separate ``timing.txt``
so it never perturbs the comparable artifacts.

Every config key is declared once, in ``SCHEMA`` (parser, default, range
checks), and read through ``ConfigFile.section``; checks spanning keys stay
in code.

A runner returns its CSV tables, checks and scalars, and ``_emit`` writes
them with the manifest once the run has returned: exit 2 or 3 writes no file.
The output path is checked before the run, so a path that cannot be a
directory fails at once, with exit 2, rather than after the run.  A runner
imports the solver modules it uses when it runs, so a subcommand loads only
its own.

Exit codes: 0 all built-in checks passed, 1 at least one check failed,
2 invalid configuration (message anchored to file and line), 3 runtime abort
(non-finite state, diverging fixed point, or a least-squares fit that fails
on values too large to square).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import math
import os
import sys
import time

import numpy as np

from memsfde.engine import (
    CoefficientSet,
    FixedPointDivergence,
    JumpModel,
    SimulationBlowupError,
    simulate,
)
from memsfde.grid import SimGrid, trapezoid_weights
from memsfde.measures import (
    SQRT_PI,
    EmpiricalMeasure,
    MeasureSegment,
    cf_dist_sq,
    dirac,
    gauss_weight_rule,
    law_dist_l2_bound,
    m_dist_sq,
    m_norm_sq,
    m_segment_dist_sq,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_RUNTIME_ABORT = 3

SEED_ENV_VAR = "MEMSFDE_SEED"


class ConfigError(Exception):
    """Invalid configuration; rendered as ``path:line: [section] key: msg``
    on one line, every unprintable character escaped as in ``repr``."""

    def __init__(self, message, path=None, line=None, section=None, key=None):
        super().__init__(message)
        self.message = message
        self.path = path
        self.line = line
        self.section = section
        self.key = key

    def __str__(self) -> str:
        prefix = ""
        if self.path is not None:
            prefix = f"{self.path}:{self.line if self.line else 0}: "
        where = ""
        if self.section is not None:
            where = f"[{self.section}] "
        if self.key is not None:
            where += f"{self.key}: "
        text = f"{prefix}{where}{self.message}"
        return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class ConfigFile:
    """Parsed key/value file with per-entry line numbers for error anchoring."""

    def __init__(self, path: str):
        self.path = path
        self.entries: dict = {}  # (section, key) -> (raw string, line number)
        self.section_lines: dict = {}

    def line(self, section: str, key: str) -> int:
        return self.entries.get((section, key), ("", 0))[1]

    def _error(self, section, key, message):
        raise ConfigError(message, path=self.path, line=self.line(section, key), section=section, key=key)

    def section(self, name: str) -> dict:
        """The values of ``[name]`` by ``SCHEMA``: every key present is
        parsed and checked, whether or not the run uses it; an absent key
        takes its default or, without one, is left out."""
        schema = SCHEMA[name]
        for sec, key in self.entries:
            if sec == name and key not in schema:
                self._error(name, key, f"unknown key (expected one of: {', '.join(sorted(schema))})")
        values = {}
        for key, (parse, default, *checks) in schema.items():
            if (name, key) not in self.entries:
                if default is REQUIRED:
                    line = self.section_lines.get(name, 0)
                    raise ConfigError("missing required key", path=self.path, line=line, section=name, key=key)
                if default is not None:
                    values[key] = default
                continue
            try:
                value = parse(self.entries[(name, key)][0])
            except ValueError as exc:
                self._error(name, key, str(exc))
            for predicate, message in checks:
                if not predicate(value):
                    self._error(name, key, message)
            values[key] = value
        return values

    def echo(self) -> dict:
        """Raw config as nested dict, exactly as written (for the manifest)."""
        out: dict = {}
        for (sec, key), (raw, _) in sorted(self.entries.items()):
            out.setdefault(sec, {})[key] = raw
        return out


def parse_config_file(path: str) -> ConfigFile:
    """Read a UTF-8 config, a leading byte-order mark ignored.  Lines end at
    LF, CRLF or CR, as in text mode; a byte that is not UTF-8 is an error
    anchored at its line."""
    if not os.path.exists(path):
        raise ConfigError("config file not found", path=path, line=0)
    if not os.path.isfile(path):
        raise ConfigError("not a regular file", path=path, line=0)
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read the file ({exc.strerror})", path=path, line=0) from None
    cfg = ConfigFile(path)
    section = "run"
    for lineno, rawbytes in enumerate(data.removeprefix(b"\xef\xbb\xbf").splitlines(), start=1):
        try:
            rawline = rawbytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = rawbytes[exc.start]
            raise ConfigError(f"not UTF-8 text: byte 0x{bad:02x} at column {exc.start + 1}", path=path, line=lineno) from None
        line = rawline.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError("empty section name", path=path, line=lineno)
            cfg.section_lines.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", path=path, line=lineno, section=section)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", path=path, line=lineno, section=section)
        if (section, key) in cfg.entries:
            raise ConfigError("duplicate key", path=path, line=lineno, section=section, key=key)
        cfg.entries[(section, key)] = (value, lineno)
    return cfg


# ---------------------------------------------------------------------------
# config schema: section -> key -> (parser, default, *(predicate, message)).
# A parser returns the value or raises ValueError with the message to report.
# A key whose default is None is not passed on when absent, so the default of
# the library parameter it feeds applies and is written only there.


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _boolean(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _numbers(raw: str) -> tuple:
    try:
        values = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {raw!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"expected comma-separated finite numbers, got {raw!r}")
    return values


def _exceeded_memory(need: int) -> int | None:
    """The machine's physical memory in bytes if ``need`` bytes exceed it,
    else None, also when it cannot be read: the guards that refuse an
    allocation before making it ask this."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return memory if need > memory else None


REQUIRED = object()
_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")

# affine coefficient family of the simulate and picard subcommands
_LINEAR = {
    key: (_number, 0.0)
    for key in ("xi", "drift_const", "drift_x", "drift_lag", "drift_mean", "diff_const", "diff_x", "jump_scale")
}

SCHEMA = {
    "run": {"problem": (str, None), "threads": (_integer, 1, _AT_LEAST_1)},
    "output": {"dir": (str, None)},
    "grid": {
        "horizon": (_number, REQUIRED, _POSITIVE),
        "dt": (_number, REQUIRED, _POSITIVE),
        "delta": (_number, REQUIRED),
        "particles": (_integer, REQUIRED, _AT_LEAST_1),
        "seed": (_integer, REQUIRED),
    },
    "jumps": {"intensity": (_number, None), "marks": (_numbers, None), "probs": (_numbers, None)},
    "simulate": _LINEAR,
    "picard": {
        **_LINEAR,
        "t0": (_number, None),
        # a window stops once a distance falls to tol; below 0 none does
        "tol": (_number, None, (lambda v: v >= 0, "must be non-negative")),
        "max_iter": (_integer, None, _AT_LEAST_1),
        "consistency": (_boolean, True),
    },
    "norms": {
        "rule_points": (
            _integer,
            64,
            (lambda n: n >= 2, "must be at least 2"),
            # run_norms also builds the rule with 2 * rule_points nodes, whose
            # eigenproblem is a (2n, 2n) float matrix; refuse before allocating it
            (
                lambda n: _exceeded_memory((2 * n) ** 2 * 8) is None,
                "the doubled rule's (2n)^2 * 8-byte eigenproblem exceeds physical memory",
            ),
        ),
        "point_a": (_number, 0.7),
        "point_b": (_number, -0.3),
        "property_sets": (_integer, 100),
        "samples": (_integer, 256, _AT_LEAST_1),
    },
    "meanvar": {
        **{key: (_number, None) for key in ("b0", "sigma0", "gamma0", "target")},
        # the optimal feedback divides by the delayed wealth: on [0, delta], xi
        "xi": (_number, None, (lambda v: v != 0.0, "must be non-zero: the optimal feedback divides by it")),
    },
    "lq": {
        **{key: (_number, None) for key in ("kernel", "alpha0", "beta0", "xi")},
        # the sweeps stop once a change falls below tol, and the stationarity
        # probes divide by 2 eps
        "tol": (_number, None, _POSITIVE),
        "eps": (_number, None, _POSITIVE),
        "damping": (_number, None, (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")),
        "max_iter": (_integer, None, _AT_LEAST_1),
        "verify": (_boolean, True),
    },
}


def _subset(values: dict, *keys) -> dict:
    """The entries of ``values`` named by ``keys``; absent ones stay absent."""
    return {key: values[key] for key in keys if key in values}


# ---------------------------------------------------------------------------
# config -> domain objects

# numpy's Poisson sampler refuses a rate above int64 max - 10 * sqrt(int64 max)
POISSON_LAM_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _steps_of(cfg: ConfigFile, section: str, key: str, span: float, dt: float, what: str, positive=False) -> int:
    ratio = span / dt
    steps = int(round(ratio)) if math.isfinite(ratio) else -1
    if steps < 0 or abs(ratio - steps) > 1e-9 * max(1.0, abs(ratio)):
        cfg._error(section, key, f"{what} (got {key}={span!r}, dt={dt!r})")
    if positive and steps < 1:
        cfg._error(section, key, "must be at least one step")
    return steps


def build_grid(cfg: ConfigFile) -> SimGrid:
    values = cfg.section("grid")
    horizon, dt, delta, particles, seed = (values[k] for k in ("horizon", "dt", "delta", "particles", "seed"))
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = _integer(env_seed)
        except ValueError as exc:
            raise ConfigError(str(exc), path=f"${SEED_ENV_VAR}", line=0)
    if not 0 <= seed < 2**64:
        cfg._error("grid", "seed", "must be an unsigned 64-bit integer")

    delta_steps = _steps_of(cfg, "grid", "delta", delta, dt, "must be a non-negative integer multiple of dt")
    n_steps = _steps_of(cfg, "grid", "horizon", horizon, dt, "must be a positive integer multiple of dt", positive=True)
    # one (N, d + K + 1) float array per ensemble; refuse before allocating it
    points = delta_steps + n_steps + 1
    memory = _exceeded_memory(particles * points * 8)
    if memory is not None:
        cfg._error(
            "grid",
            "particles",
            f"{particles} particles on {points} mesh points need {particles * points * 8} bytes "
            "per state array, more than the machine's physical memory "
            f"({memory} bytes)",
        )
    return SimGrid(dt=dt, delta_steps=delta_steps, horizon=horizon, n_particles=particles, seed=seed)


def build_jumps(cfg: ConfigFile) -> JumpModel:
    """The jump model of ``[jumps]``; marks and probs are checked whatever
    the intensity, and an inactive model is the no-jump one."""
    values = cfg.section("jumps")
    try:
        jumps = JumpModel(**values)
    except ValueError as exc:
        key = "intensity" if "intensity" in str(exc) else "probs" if "probs" in values else "marks"
        cfg._error("jumps", key, str(exc))
    if not jumps.active:
        return JumpModel.none()
    # the largest per-step rate, formed as the engine forms it
    rate = max(jumps.probs) * jumps.intensity * cfg.section("grid")["dt"]
    if rate > POISSON_LAM_MAX:
        message = f"intensity * dt * max(probs) = {rate!r} exceeds numpy's Poisson limit {POISSON_LAM_MAX!r}"
        cfg._error("jumps", "intensity", message)
    return jumps


def build_linear_coefficients(values: dict, jumps: JumpModel):
    """Affine coefficient family used by the simulate/picard subcommands.

    drift     = drift_const + drift_x*X(t) + drift_lag*X(t-delta) + drift_mean*E[X(t)]
    diffusion = diff_const + diff_x*X(t)
    jump      = jump_scale * mark
    """
    b_const, b_x, b_lag, b_mean = (values[k] for k in ("drift_const", "drift_x", "drift_lag", "drift_mean"))
    s_const, s_x, g_scale = values["diff_const"], values["diff_x"], values["jump_scale"]

    def drift(t, x, x_seg, law, law_seg, u, u_seg):
        return b_const + b_x * x + b_lag * x_seg[:, -1] + b_mean * law.mean()

    diffusion = None
    if s_const != 0.0 or s_x != 0.0:

        def diffusion(t, x, x_seg, law, law_seg, u, u_seg):
            return s_const + s_x * x

    jump = None
    if jumps.active and g_scale != 0.0:

        def jump(t, x, x_seg, law, law_seg, u, u_seg, mark):
            return g_scale * mark

    coeffs = CoefficientSet(drift=drift, diffusion=diffusion, jump=jump)
    return coeffs, values["xi"]


# ---------------------------------------------------------------------------
# deterministic artifact emission


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def check(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


class RunResult:
    def __init__(self):
        self.checks: list = []
        self.scalars: dict = {}
        # artifact name -> (header, rows); ``_emit`` writes them
        self.tables: dict = {}

    def add_check(self, name, passed, detail):
        self.checks.append(check(name, passed, detail))

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


# ---------------------------------------------------------------------------
# subcommand bodies


def run_simulate(cfg: ConfigFile, grid: SimGrid, jumps: JumpModel) -> RunResult:
    res = RunResult()
    coeffs, xi = build_linear_coefficients(cfg.section("simulate"), jumps)
    ens = simulate(coeffs, grid, jumps=jumps, xi=xi)
    states = ens.states
    qs = np.quantile(states, [0.05, 0.25, 0.50, 0.75, 0.95], axis=0)
    times = grid.times()
    rows = []
    for k in range(states.shape[1]):
        col = states[:, k]
        var = float(col.var(ddof=1)) if grid.n_particles > 1 else 0.0
        rows.append((times[k], float(col.mean()), var) + tuple(float(q) for q in qs[:, k]))
    res.tables["law_stats.csv"] = (("t", "mean", "var", "q05", "q25", "q50", "q75", "q95"), rows)

    finite = bool(np.isfinite(states).all())
    res.add_check("finite_states", finite, f"max |X| = {np.abs(states).max():.6g}")
    res.scalars.update(
        terminal_mean=float(states[:, -1].mean()),
        terminal_var=float(states[:, -1].var(ddof=1)) if grid.n_particles > 1 else 0.0,
        path_min=float(states.min()),
        path_max=float(states.max()),
        n_steps=grid.n_steps,
    )
    return res


def run_picard(cfg: ConfigFile, grid: SimGrid, jumps: JumpModel) -> RunResult:
    from memsfde.picard import consistency_check, picard_solve

    res = RunResult()
    values = cfg.section("picard")
    coeffs, xi = build_linear_coefficients(values, jumps)
    t0 = values.get("t0", grid.delta if grid.delta > 0 else grid.horizon)
    t0_steps = _steps_of(cfg, "picard", "t0", t0, grid.dt, "must be a positive integer multiple of dt", positive=True)
    if grid.n_steps % t0_steps != 0:
        cfg._error("picard", "t0", f"horizon must be an integer multiple of t0 (t0={t0!r}, horizon={grid.horizon!r})")

    ens, report = picard_solve(
        coeffs, grid, jumps=jumps, xi=xi, t0_steps=t0_steps, **_subset(values, "tol", "max_iter")
    )
    rows = []
    for w, (dists, ratios) in enumerate(zip(report.distances, report.ratios)):
        for m, dist in enumerate(dists):
            rows.append((w, m + 1, dist, ratios[m - 1] if m >= 1 else float("nan")))
    res.tables["picard_iters.csv"] = (("window", "iter", "distance", "ratio"), rows)

    worst = report.worst_final_ratio
    res.add_check("converged", report.converged, f"iterations per window: {list(report.iterations)}")
    res.add_check(
        "final_contraction_ratio",
        (not math.isfinite(worst)) or worst < 1.0,
        f"worst final ratio {worst:.6g}",
    )
    if values["consistency"]:
        gap = consistency_check(coeffs, ens)
        res.add_check("matches_direct_scheme", gap < 1e-8, f"sup mean-square gap {gap:.3e}")
        res.scalars["consistency_gap"] = gap
    res.scalars.update(
        windows=len(report.distances),
        total_iterations=int(sum(report.iterations)),
        worst_final_ratio=worst,
        terminal_mean=float(ens.states[:, -1].mean()),
    )
    return res


def run_norms(cfg: ConfigFile, grid: SimGrid, jumps: JumpModel) -> RunResult:
    res = RunResult()
    values = cfg.section("norms")
    n_nodes, n_sets, n_samples = values["rule_points"], values["property_sets"], values["samples"]
    point_a, point_b = values["point_a"], values["point_b"]
    n_lags = grid.delta_steps + 1
    # per sample: a complex ecf phase entry per rule point, and a pair of
    # float (samples, lags) windows; refuse before drawing them
    need = n_samples * (16 * n_nodes + 2 * 8 * n_lags)
    if _exceeded_memory(need) is not None:
        cfg._error("norms", "samples", f"{n_samples} samples need {need} bytes, more than physical memory")
    rule = gauss_weight_rule(n_nodes)
    rng = np.random.Generator(np.random.Philox(key=grid.seed))

    rows = []

    def record(name, computed, expected, tol):
        err = abs(computed - expected)
        ok = err <= tol
        rows.append((name, computed, expected, err, tol, ok))
        res.add_check(name, ok, f"|{computed:.12g} - {expected:.12g}| = {err:.3e} (tol {tol:g})")

    record("dirac_norm_sq", m_norm_sq(dirac(0.0), rule), SQRT_PI, 1e-6)
    gap = point_a - point_b
    record(
        "dirac_pair_dist_sq",
        m_dist_sq(dirac(point_a), dirac(point_b), rule),
        2.0 * SQRT_PI * (1.0 - math.exp(-gap * gap / 4.0)),
        1e-6,
    )
    gauss = EmpiricalMeasure(rng.standard_normal(20_000))
    record("gaussian_cf_dist_sq", cf_dist_sq(gauss, lambda y: np.exp(-y * y / 2.0), rule), 0.0, 1e-3)

    worst_violation = -math.inf
    for _ in range(n_sets):
        base = rng.standard_normal(n_samples) * rng.uniform(0.2, 2.0) + rng.uniform(-1.0, 1.0)
        shift = rng.standard_normal(n_samples) * rng.uniform(0.0, 1.5)
        lhs, rhs = law_dist_l2_bound(base, base + shift, rule)
        worst_violation = max(worst_violation, lhs - rhs)
    ok = worst_violation <= 1e-8
    rows.append(("coupled_sample_violation_max", worst_violation, 0.0, max(worst_violation, 0.0), 1e-8, ok))
    res.add_check(
        "coupled_sample_inequality",
        ok,
        f"max(lhs - rhs) = {worst_violation:.3e} over {n_sets} sets",
    )

    # window variant: trapezoid-in-lag integral of the same inequality
    base = rng.standard_normal((n_samples, n_lags))
    other = base + rng.standard_normal((n_samples, n_lags)) * rng.uniform(0.0, 1.0, size=n_lags)
    lhs = m_segment_dist_sq(MeasureSegment(base, grid.dt), MeasureSegment(other, grid.dt), rule)
    rhs = SQRT_PI * float(trapezoid_weights(n_lags, grid.dt) @ np.mean((base - other) ** 2, axis=0))
    seg_violation = lhs - rhs
    ok = seg_violation <= 1e-8
    rows.append(("segment_violation", seg_violation, 0.0, max(seg_violation, 0.0), 1e-8, ok))
    res.add_check("segment_inequality", ok, f"lhs - rhs = {seg_violation:.3e}")

    pair = (EmpiricalMeasure(rng.standard_normal(256)), EmpiricalMeasure(rng.standard_normal(256)))
    refine = abs(m_dist_sq(*pair, gauss_weight_rule(n_nodes)) - m_dist_sq(*pair, gauss_weight_rule(2 * n_nodes)))
    record("quadrature_doubling_gap", refine, 0.0, 1e-8)

    res.tables["norms.csv"] = (("name", "computed", "expected", "abs_error", "tolerance", "passed"), rows)
    res.scalars["closed_form_max_abs_error"] = max(r[3] for r in rows[:2])
    return res


def _dominates(row) -> bool:
    """The paired-dominance rule for a row ``(label, J, stderr, gap,
    gap_stderr)`` of ``adjoint._paired_rows``: the gap J(base) - J(variant)
    is at least -3 paired standard errors.  The base row's gap and its
    standard error are 0, so it passes."""
    *_, gap, gap_stderr = row
    return gap >= -3.0 * gap_stderr


def run_meanvar(cfg: ConfigFile, grid: SimGrid, jumps: JumpModel) -> RunResult:
    from memsfde import mean_variance

    res = RunResult()
    spec = mean_variance.MeanVarSpec(**cfg.section("meanvar"), jumps=jumps)
    if grid.delta_steps < 1:
        # the adjoint driver reads p0 at lag delta, which must lie strictly ahead
        cfg._error("grid", "delta", f"meanvar needs a lag of at least one step (got delta={grid.delta!r})")
    if spec.xi <= spec.target:
        cfg._error("meanvar", "xi", f"initial history must exceed the floor (xi={spec.xi!r}, target={spec.target!r})")
    try:
        # degenerate or overflowing coefficients fail in the closed form
        sol = mean_variance.solve_closed_form(spec, grid)
    except (ValueError, OverflowError) as exc:
        message = "the closed-form rate overflows" if isinstance(exc, OverflowError) else str(exc)
        raise ConfigError(message, path=cfg.path, line=cfg.section_lines.get("meanvar", 0), section="meanvar")

    ens = mean_variance.simulate_optimal(sol)
    res.tables["solution.csv"] = (("t", "rate", "phi", "psi"), list(sol.rows()))

    ver = mean_variance.verify_adjoint(ens, sol)
    res.tables["verification.csv"] = (("name", "value"), list(ver.rows()))

    # the comparison reads only the optimal cost, so the ensemble is freed
    # before its variants are simulated
    optimal_cost = ens.cost
    del ens
    j_rows = mean_variance.j_comparison(optimal_cost, sol)
    out_rows = [(*row, _dominates(row)) for row in j_rows]
    dominance = all(passed for *_, passed in out_rows)
    res.tables["j_comparison.csv"] = (("control", "J", "stderr", "gap_vs_optimal", "gap_stderr", "passed"), out_rows)

    res.add_check(
        "first_order_condition",
        ver.foc_residual_max < 1e-12,
        f"max |bracket| = {ver.foc_residual_max:.3e}",
    )
    res.add_check(
        "path_positivity",
        ver.positivity_fraction == 1.0,
        f"fraction above floor = {ver.positivity_fraction:.6f}",
    )
    res.add_check(
        "adjoint_regression_match",
        ver.lsmc_p0_rel_err < 0.02,
        f"initial adjoint relative error = {ver.lsmc_p0_rel_err:.4f}",
    )
    res.add_check("performance_dominance", dominance, "J(optimal) >= J(variant) - 3 paired stderr for all variants")
    res.scalars.update(
        J_optimal=j_rows[0][1],
        rate_initial=float(sol.rate[0]),
        phi_initial=float(sol.phi[0]),
        psi_initial=float(sol.psi[0]),
        foc_residual_max=ver.foc_residual_max,
        p0_drift_z=ver.p0_drift_z,
        lsmc_p0_rel_err=ver.lsmc_p0_rel_err,
        positivity_fraction=ver.positivity_fraction,
    )
    return res


def run_lq(cfg: ConfigFile, grid: SimGrid, jumps: JumpModel) -> RunResult:
    from memsfde import lq_memory

    res = RunResult()
    values = cfg.section("lq")
    spec = lq_memory.LQSpec(**_subset(values, "kernel", "alpha0", "beta0", "xi"), jumps=jumps)
    solution = lq_memory.solve_lq(spec, grid, **_subset(values, "damping", "tol", "max_iter"))
    control, report = solution.control, solution.report
    res.tables["convergence.csv"] = (("iter", "change"), [(i + 1, c) for i, c in enumerate(report.changes)])
    res.tables["control_path.csv"] = (
        ("t", "mean", "std"),
        [
            (t, float(control[:, k].mean()), float(control[:, k].std(ddof=1)) if grid.n_particles > 1 else 0.0)
            for k, t in enumerate(grid.times())
        ],
    )

    res.add_check(
        "converged",
        report.converged,
        f"{report.iterations} iterations, last change {report.changes[-1]:.3e}" if report.changes else "no iterations",
    )
    res.scalars.update(
        iterations=report.iterations,
        last_change=report.changes[-1] if report.changes else float("nan"),
    )

    if values["verify"]:
        ver = lq_memory.verify_lq(solution, **_subset(values, "eps"))
        res.tables["verification.csv"] = (("name", "value"), list(ver.rows()))

        dominance = all(map(_dominates, ver.j_rows))
        res.add_check(
            "coupling_residual",
            ver.coupling_residual_max < 1e-3,
            f"max_t |mean(p - u)| = {ver.coupling_residual_max:.3e}",
        )
        res.add_check("performance_concave", ver.parabola_quad < 0.0, f"quadratic coefficient {ver.parabola_quad:.4f}")
        res.add_check(
            "performance_vertex_near_zero",
            abs(ver.parabola_vertex) < 0.05,
            f"vertex at lambda = {ver.parabola_vertex:.3e}",
        )
        res.add_check("performance_dominance", dominance, "J(solution) >= J(shifted) - 3 paired stderr")
        res.scalars.update(
            J=ver.j_rows[0][1],
            coupling_residual_max=ver.coupling_residual_max,
            parabola_quad=ver.parabola_quad,
            parabola_vertex=ver.parabola_vertex,
        )
    else:
        res.scalars["J"] = solution.problem.performance(control)[0]
    return res


# ---------------------------------------------------------------------------
# selftest: curated analytic oracles, fast and deterministic


def _bound(label: str, err: float, tol: float) -> str:
    """Detail of the test ``err <= tol``.  A pass names the tolerance, not
    the value, so rounding noise in ``err`` cannot move a manifest that
    reruns compare byte for byte; a failure prints the value."""
    return f"{label} <= {tol:g}" if err <= tol else f"{label} = {err:.3e} > {tol:g}"


def selftest_checks() -> list:
    from memsfde import lq_memory, mean_variance
    from memsfde.adjoint import solve_absde

    checks = []

    # closed-form values of the weighted measure norm
    rule = gauss_weight_rule(64)
    err = abs(m_norm_sq(dirac(0.0), rule) - SQRT_PI)
    checks.append(check("dirac_norm_closed_form", err <= 1e-9, _bound("error", err, 1e-9)))
    expected = 2.0 * SQRT_PI * (1.0 - math.exp(-1.0 * 1.0 / 4.0))
    err = abs(m_dist_sq(dirac(1.0), dirac(0.0), rule) - expected)
    checks.append(check("dirac_distance_closed_form", err <= 1e-9, _bound("error", err, 1e-9)))

    # pure delay drift: piecewise-polynomial solution known in closed form,
    # including the scheme's own discrete endpoint value
    grid = SimGrid(dt=0.01, delta_steps=100, horizon=2.0, n_particles=1, seed=0)

    def lag_drift(t, x, x_seg, law, law_seg, u, u_seg):
        return x_seg[:, -1]

    ens = simulate(CoefficientSet(drift=lag_drift), grid, xi=1.0)
    terminal = float(ens.states[0, -1])
    err = abs(terminal - (3.5 - grid.dt / 2.0))
    checks.append(check("delay_drift_terminal", err <= 1e-12, f"X(2) = {terminal:.6g}, {_bound('error', err, 1e-12)}"))

    # driverless backward recovery of (p, q) for a Brownian state
    grid = SimGrid(dt=0.02, delta_steps=5, horizon=1.0, n_particles=20_000, seed=5)

    def unit_diffusion(t, x, x_seg, law, law_seg, u, u_seg):
        return np.ones_like(x)

    ens = simulate(CoefficientSet(drift=None, diffusion=unit_diffusion), grid, xi=1.0)
    adj = solve_absde(ens, terminal=lambda x, law: -x)
    p_err = float(np.abs(adj.p0.mean(axis=0) + 1.0).max())
    q_err = abs(float(adj.q0[:, :-1].mean()) + 1.0)
    checks.append(check("backward_mean_recovery", p_err <= 0.05, f"max_t |mean p + 1| = {p_err:.4f}"))
    checks.append(check("backward_q_recovery", q_err <= 0.05, f"|mean q + 1| = {q_err:.4f}"))

    # deterministic energy problem: hand-solved fixed point
    grid = SimGrid(dt=0.01, delta_steps=20, horizon=1.0, n_particles=4, seed=1)
    spec = lq_memory.LQSpec(kernel=0.0, alpha0=0.0, beta0=0.0, xi=1.0)
    control, _, report, _, problem = lq_memory.solve_lq(spec, grid, tol=1e-12)
    u_err = float(np.abs(control + 0.5).max())
    j_err = abs(problem.performance(control)[0] + 0.25)
    checks.append(
        check(
            "deterministic_energy_fixed_point",
            report.converged and u_err <= 1e-6 and j_err <= 1e-6,
            f"{_bound('max |u + 0.5|', u_err, 1e-6)}, {_bound('|J + 0.25|', j_err, 1e-6)}",
        )
    )

    # delayed wealth problem: closed-form rate and discount factor
    grid = SimGrid(dt=0.01, delta_steps=10, horizon=1.0, n_particles=4, seed=1)
    mv_spec = mean_variance.MeanVarSpec()
    sol = mean_variance.solve_closed_form(mv_spec, grid)
    rate_err = abs(float(sol.rate[0]) - 0.25)
    phi_err = abs(float(sol.phi[0]) + math.exp(-0.25))
    checks.append(check("wealth_rate_closed_form", rate_err <= 1e-12, _bound("rate(0) error", rate_err, 1e-12)))
    checks.append(check("wealth_discount_closed_form", phi_err <= 1e-9, _bound("phi(0) error", phi_err, 1e-9)))

    return checks


# ---------------------------------------------------------------------------
# entry point


def _finite_or_none(value):
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def _unusable_output_dir(outdir: str) -> str | None:
    """Why ``outdir`` cannot take a run's files, or ``None`` when it is a
    directory or its nearest existing ancestor is one; nothing is created."""
    path = outdir
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if os.path.isdir(path or os.curdir):
        return None
    if path == outdir:
        return f"{outdir!r} is not a directory"
    return f"{outdir!r} lies under {path!r}, which is not a directory"


def _emit(outdir, problem, cfg, grid, threads, seed_overridden, result, started):
    os.makedirs(outdir, exist_ok=True)
    for name, (header, rows) in result.tables.items():
        write_csv(os.path.join(outdir, name), header, rows)
    manifest = {
        "problem": problem,
        "package": "memsfde",
        "config": cfg.echo(),
        "grid": None
        if grid is None
        else {
            "horizon": grid.horizon,
            "dt": grid.dt,
            "delta": grid.delta,
            "particles": grid.n_particles,
            "seed": grid.seed,
        },
        "effective_seed": None if grid is None else grid.seed,
        "seed_overridden": seed_overridden,
        "threads": threads,
        # strict JSON has no NaN or Infinity: a non-finite scalar is null
        "scalars": {k: _finite_or_none(result.scalars[k]) for k in sorted(result.scalars)},
        "checks": result.checks,
        "checks_passed": result.all_passed,
        "artifacts": sorted(result.tables),
        "timing_file": "timing.txt",
    }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    with open(os.path.join(outdir, "timing.txt"), "w", encoding="utf-8") as handle:
        handle.write(f"wall_seconds={time.perf_counter() - started:.3f}\n")


def _print_checks(result: RunResult) -> None:
    for c in result.checks:
        tag = "PASS" if c["passed"] else "FAIL"
        print(f"[{tag}] {c['name']}: {c['detail']}")


RUNNERS = {
    "simulate": run_simulate,
    "picard": run_picard,
    "norms": run_norms,
    "meanvar": run_meanvar,
    "lq": run_lq,
}


@contextlib.contextmanager
def _logs_held_until_return():
    """Hold the package's log records until the block returns, so a run that
    ends in exit 2 or 3 prints just its one anchored line."""
    logger = logging.getLogger("memsfde")
    records = []
    held = logging.Handler()
    held.emit = records.append  # keep each record as it is handed on
    propagate, logger.propagate = logger.propagate, False
    logger.addHandler(held)
    try:
        yield
    finally:
        logger.removeHandler(held)
        logger.propagate = propagate
    for record in records:
        logging.getLogger(record.name).handle(record)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one ``config error:``
    line and exit 2, like every other bad input; its subparsers share the
    class."""

    def error(self, message):
        self.exit(EXIT_BAD_CONFIG, f"config error: {ConfigError(message, key=self.prog)}\n")


def main(argv=None) -> int:
    parser = _Parser(
        prog="memsfde",
        description="Monte Carlo experiments for memory mean-field SFDE control problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "particle simulation of an affine memory SFDE; emits law statistics"),
        ("picard", "frozen-noise fixed-point solve with contraction diagnostics"),
        ("norms", "closed-form and property checks of the weighted measure distance"),
        ("meanvar", "delayed-wealth variance minimization and its verification battery"),
        ("lq", "distributed-delay energy problem solved by forward-backward iteration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key/value experiment configuration file")
        p.add_argument("--out", default=None, help="output directory (default: from config or out/<command>)")
        p.add_argument("--threads", type=int, default=None, help="worker threads (recorded; kernels are vectorized)")
    p = sub.add_parser("selftest", help="run the built-in analytic oracle suite")
    p.add_argument("--out", default=None, help="optional directory for a manifest of the results")
    p.add_argument("--threads", type=int, default=None)

    args = parser.parse_args(argv)
    started = time.perf_counter()

    if args.command == "selftest":
        threads = args.threads if args.threads is not None else 1
        if threads < 1:
            print(f"config error: {ConfigError('must be at least 1', key='--threads')}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        unusable = args.out and _unusable_output_dir(args.out)
        if unusable:
            print(f"config error: {ConfigError(unusable, key='--out')}", file=sys.stderr)
            return EXIT_BAD_CONFIG
        result = RunResult()
        result.checks = selftest_checks()
        _print_checks(result)
        if args.out:
            _emit(args.out, "selftest", ConfigFile("<selftest>"), None, threads, False, result, started)
            print(f"wrote {os.path.join(args.out, 'manifest.json')}")
        print(f"selftest: {'ok' if result.all_passed else 'FAILED'}")
        return EXIT_OK if result.all_passed else EXIT_CHECKS_FAILED

    try:
        cfg = parse_config_file(args.config)
        for sec in dict.fromkeys(s for s, _ in cfg.entries):
            if sec not in ("run", "grid", "jumps", "output", args.command):
                raise ConfigError(
                    f"section does not apply to subcommand {args.command!r}",
                    path=cfg.path,
                    line=cfg.section_lines.get(sec, 0),
                    section=sec,
                )
        run, output = cfg.section("run"), cfg.section("output")
        if run.get("problem", args.command) != args.command:
            cfg._error("run", "problem", f"config is for {run['problem']!r} but subcommand is {args.command!r}")
        threads = run["threads"] if args.threads is None else args.threads
        # [run] threads is checked where it is parsed, so only the flag is left
        if threads < 1:
            raise ConfigError("must be at least 1", key="--threads")
        grid = build_grid(cfg)
        seed_overridden = os.environ.get(SEED_ENV_VAR) is not None
        jumps = build_jumps(cfg)
        outdir = args.out or output.get("dir") or os.path.join("out", args.command)
        # refused before the run, which would otherwise fail only in _emit
        unusable = _unusable_output_dir(outdir)
        if unusable and not args.out and output.get("dir"):
            cfg._error("output", "dir", unusable)
        if unusable:
            raise ConfigError(unusable, key="--out" if args.out else None)

        # an overflow is reported once, by the non-finite-state abort, not
        # also as a numpy RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"), _logs_held_until_return():
            result = RUNNERS[args.command](cfg, grid, jumps)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (SimulationBlowupError, FixedPointDivergence) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ABORT
    except np.linalg.LinAlgError as exc:
        print(f"runtime abort: linear algebra failed ({exc}); check coefficient growth", file=sys.stderr)
        return EXIT_RUNTIME_ABORT

    _emit(outdir, args.command, cfg, grid, threads, seed_overridden, result, started)
    _print_checks(result)
    print(f"wrote {len(result.tables) + 2} files to {outdir}")
    print(f"status: {'ok' if result.all_passed else 'checks-failed'}")
    return EXIT_OK if result.all_passed else EXIT_CHECKS_FAILED


def console_main() -> None:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(main())


if __name__ == "__main__":
    console_main()
