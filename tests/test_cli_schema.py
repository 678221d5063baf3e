"""The CLI contract for every input, drawn from the config schema.

``cli.SCHEMA`` declares every section and key the CLI accepts.  The property
test below writes configs from it, one subcommand at a time, and mutates up
to three keys to values that are finite, huge, tiny, zero, negative,
``nan``, ``inf``, non-numeric or hex.  Whatever it draws, a run must exit
0, 1, 2 or 3 without a traceback; an exit 2 or 3 prints exactly one
``config error:`` or ``runtime abort:`` line and nothing else on stderr;
a finished run writes a strict-JSON manifest and reruns byte for byte.

Grids stay either small enough to run in milliseconds or so large that
``build_grid`` rejects them before allocating.  Keys that only bound the
work of a run (iteration caps and property-set counts) are drawn small: a
huge value there is valid input that simply runs long.  Sample counts and
rule sizes are also drawn huge, which the CLI rejects before allocating.

The inputs that used to end in a traceback, or to pass although malformed,
are pinned with their exact messages in ``TestProbedInputs`` and are
explicit examples of the property test.

A second property test edits the bytes of the file instead: at most two
inserted, deleted or replaced bytes, truncations, byte-order marks, CRLF
line ends, NULs or duplicated lines applied to the tiny configs of
``tests/test_fresh_process.py``.  Two edits grow no run past about a
hundredfold.  Whatever they make, a run exits 0, 1, 2 or 3 without a
traceback, and an exit 2 or 3 prints one line and creates no output
directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from memsfde import cli
from memsfde.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECKS_FAILED,
    EXIT_OK,
    EXIT_RUNTIME_ABORT,
    POISSON_LAM_MAX,
    SCHEMA,
    main,
)
from test_fresh_process import LQ_TINY, MEANVAR_JUMPS_TINY, PICARD_TINY

GRID = "[grid]\nhorizon = 0.2\ndelta = 0.04\ndt = 0.02\nparticles = 64\nseed = 3\n"

# the problem section of each subcommand's base config, kept tiny
BASE = {
    "simulate": {"xi": "1.0", "drift_lag": "0.5", "diff_const": "0.2", "jump_scale": "0.1"},
    "picard": {"xi": "1.0", "drift_x": "-0.5", "drift_lag": "0.5", "diff_const": "0.2", "t0": "0.04"},
    "norms": {"rule_points": "32", "property_sets": "3", "samples": "16"},
    "meanvar": {},
    "lq": {"tol": "1e-3"},
}

# huge, tiny, zero, negative and hex values of each kind
SPECIAL_NUMBERS = ["1e300", "-1e300", "1e200", "1e-300", "5e-324", "0", "-0.0", "-1"]
SPECIAL_INTEGERS = ["100000000000", "1" + "0" * 30, "0", "-3", "0x10", "1.5"]
MALFORMED = ["nan", "inf", "-inf", "1e999", "abc", "", "0x1p-2"]
# finite grid values stay on a small mesh
FINITE_GRID = {
    "horizon": ["0.2", "0.1", "0.04"],
    "dt": ["0.02", "0.04", "0.01"],
    "delta": ["0.04", "0.02", "0"],
    "particles": ["64", "1", "2", "0x10"],
}
# keys whose valid values only set how long a run takes: never drawn huge
# unless the schema rejects huge
BOUNDED = {
    "max_iter": ["1", "2", "0x3", "0", "-5", "abc", "nan"],
    "property_sets": ["1", "3", "0x2", "0", "-5", "abc", "nan"],
    "samples": ["1", "2", "16", "0", "-5", "100000000000", "abc", "nan"],
    "rule_points": ["2", "3", "16", "0", "1", "-3", "100000000000", "abc", "nan"],
}


def value_strategy(section: str, key: str) -> st.SearchStrategy:
    parse = SCHEMA[section][key][0]
    if parse is str:
        return st.sampled_from(["simulate", "lq", "elsewhere"])
    if parse is cli._boolean:
        return st.sampled_from(["true", "false", "yes", "0", "maybe", ""])
    if parse is cli._numbers:
        return st.sampled_from(["1.0", "0.3, -0.2", "1e300", "-1.0", "0.5, 0.5", "1.0, nan", "abc", ""])
    if key in BOUNDED:
        return st.sampled_from(BOUNDED[key])
    if key in FINITE_GRID:
        finite = st.sampled_from(FINITE_GRID[key])
    elif parse is cli._number:
        finite = st.floats(min_value=-3.0, max_value=3.0).map(repr)
    else:
        finite = st.integers(min_value=-3, max_value=9).map(str)
    special = SPECIAL_NUMBERS if parse is cli._number else SPECIAL_INTEGERS
    return st.one_of(finite, st.sampled_from(special + MALFORMED))


def render(sections: dict) -> str:
    parts = []
    for name, values in sections.items():
        parts.append(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return "\n".join(parts)


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(BASE)))
    sections = {
        "run": {"problem": command},
        "grid": dict(line.split(" = ") for line in GRID.splitlines()[1:]),
        command: dict(BASE[command]),
    }
    if draw(st.booleans()):
        sections["jumps"] = {"intensity": "1.0", "marks": "0.5, -0.2", "probs": "0.5, 0.5"}
    keys = [(sec, key) for sec in ("run", "grid", "jumps", command) for key in SCHEMA[sec]]
    for sec, key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        if draw(st.integers(0, 9)) == 0:
            sections.get(sec, {}).pop(key, None)  # an absent key, required or not
        else:
            sections.setdefault(sec, {})[key] = draw(value_strategy(sec, key))
    flag = draw(st.sampled_from([(), (), ("--threads", "2"), ("--threads", "0")]))
    return command, render(sections), flag


def run(command: str, text: str, flag, workdir: str, out: str):
    path = os.path.join(workdir, "exp.cfg")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", os.path.join(workdir, out), *flag])
    return code, stderr.getvalue(), [str(w.message) for w in caught]


def artifacts(outdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name != "timing.txt":
            with open(os.path.join(outdir, name), "rb") as handle:
                out[name] = handle.read()
    return out


def reject_constant(constant):
    raise AssertionError(f"manifest holds the non-JSON constant {constant}")


MEANVAR = GRID + "\n[meanvar]\n"
LQ = GRID + "\n[lq]\n"
NORMS = GRID + "\n[norms]\nproperty_sets = 3\nsamples = 16\n"
SIMULATE = GRID + "\n[simulate]\nxi = 1.0\njump_scale = 0.1\n"

GRAM_OVERFLOW = (
    "runtime abort: linear algebra failed (backward step 9: the regression design is too large to square: "
    "its Gram matrix overflows); check coefficient growth"
)

# (command, config, extra argv, exit code, stderr with {path} for the config)
PROBES = {
    "meanvar_b0_zero": (
        "meanvar",
        MEANVAR + "b0 = 0\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:8: [meanvar] degenerate coefficients at t=0: need |b0|>0 and positive noise variance",
    ),
    "meanvar_no_noise": (
        "meanvar",
        MEANVAR + "sigma0 = 0\ngamma0 = 0\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:8: [meanvar] degenerate coefficients at t=0: need |b0|>0 and positive noise variance",
    ),
    "meanvar_sigma0_overflows": (
        "meanvar",
        MEANVAR + "sigma0 = 1e200\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:8: [meanvar] the closed-form rate overflows",
    ),
    "meanvar_zero_history": (
        "meanvar",
        MEANVAR + "xi = 0\ntarget = -1\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:9: [meanvar] xi: must be non-zero: the optimal feedback divides by it",
    ),
    "meanvar_huge_history": ("meanvar", MEANVAR + "xi = 1e300\n", (), EXIT_RUNTIME_ABORT, GRAM_OVERFLOW),
    "lq_huge_alpha0": ("lq", LQ + "alpha0 = 1e200\n", (), EXIT_RUNTIME_ABORT, GRAM_OVERFLOW),
    "lq_huge_eps": (
        "lq",
        LQ + "eps = 1e200\n",
        (),
        EXIT_RUNTIME_ABORT,
        "runtime abort: non-finite state for 64 particle(s) at step 6 (t=0.12); reduce dt or check coefficient growth",
    ),
    "norms_zero_rule": (
        "norms",
        NORMS + "rule_points = 0\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:11: [norms] rule_points: must be at least 2",
    ),
    "norms_negative_rule": (
        "norms",
        NORMS + "rule_points = -3\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:11: [norms] rule_points: must be at least 2",
    ),
    "norms_one_point_rule": (
        "norms",
        NORMS + "rule_points = 1\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:11: [norms] rule_points: must be at least 2",
    ),
    "norms_huge_rule": (
        "norms",
        NORMS + "rule_points = 100000000000\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:11: [norms] rule_points: the doubled rule's (2n)^2 * 8-byte eigenproblem "
        "exceeds physical memory",
    ),
    "norms_zero_samples": (
        "norms",
        NORMS.replace("samples = 16", "samples = 0"),
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:10: [norms] samples: must be at least 1",
    ),
    "norms_negative_samples": (
        "norms",
        NORMS.replace("samples = 16", "samples = -5"),
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:10: [norms] samples: must be at least 1",
    ),
    "norms_huge_samples": (
        "norms",
        NORMS.replace("samples = 16", "samples = 1000000000000"),
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:10: [norms] samples: 1000000000000 samples need 1072000000000000 bytes, "
        "more than physical memory",
    ),
    "jumps_huge_intensity": (
        "simulate",
        SIMULATE + "\n[jumps]\nintensity = 1e300\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:13: [jumps] intensity: intensity * dt * max(probs) = "
        f"{1.0 * 1e300 * 0.02!r} exceeds numpy's Poisson limit 9.223372006484771e+18",
    ),
    "jumps_marks_without_intensity": (
        "simulate",
        SIMULATE + "\n[jumps]\nmarks = abc\n",
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:13: [jumps] marks: expected comma-separated numbers, got 'abc'",
    ),
    "threads_key_beside_flag": (
        "simulate",
        "[run]\nthreads = abc\n" + SIMULATE,
        ("--threads", "2"),
        EXIT_BAD_CONFIG,
        "config error: {path}:2: [run] threads: expected an integer, got 'abc'",
    ),
    "dt_subnormal": (
        "simulate",
        SIMULATE.replace("dt = 0.02", "dt = 5e-324"),
        (),
        EXIT_BAD_CONFIG,
        "config error: {path}:3: [grid] delta: must be a non-negative integer multiple of dt "
        "(got delta=0.04, dt=5e-324)",
    ),
}


class TestProbedInputs:
    """Each of these ended in a traceback, or ran although malformed."""

    @pytest.mark.parametrize("name", sorted(PROBES))
    def test_one_anchored_line(self, tmp_path, name):
        command, text, flag, code, message = PROBES[name]
        got, err, caught = run(command, text, flag, str(tmp_path), "out")
        assert got == code
        assert caught == []
        assert err == message.format(path=os.path.join(str(tmp_path), "exp.cfg")) + "\n"
        assert not os.path.exists(os.path.join(str(tmp_path), "out", "manifest.json"))

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(POISSON_LAM_MAX, np.inf))


class TestLoggedWarnings:
    """Through the console entry point, which logs to stderr: a run that
    aborts prints only its one line, a finished run keeps its warnings."""

    def run_console(self, tmp_path, command: str, text: str):
        path = tmp_path / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        package_root = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")]))
        argv = [sys.executable, "-m", "memsfde", command, "--config", str(path), "--out", str(tmp_path / "out")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        return proc.returncode, proc.stderr

    def test_an_abort_prints_no_warning_first(self, tmp_path):
        command, text, _, code, message = PROBES["lq_huge_eps"]
        got, err = self.run_console(tmp_path, command, text)
        assert got == code
        assert err == message + "\n"

    def test_a_finished_run_keeps_its_summary_warning(self, tmp_path):
        # no kernel and no noise: every regression step is rank-deficient
        got, err = self.run_console(tmp_path, "lq", LQ + "kernel = 0\nalpha0 = 0\nbeta0 = 0\nxi = 1\n")
        assert got == EXIT_OK
        assert err == (
            "WARNING memsfde.lq_memory: rank-deficient regression at 10 of 10 steps in each of 10 solves; "
            "least-norm/ensemble-mean fallback used\n"
        )


class TestSchema:
    def test_absent_keys_without_a_default_are_not_passed_on(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(LQ + "max_iter = 0x10\n", encoding="utf-8")
        cfg = cli.parse_config_file(str(path))
        # the library's own defaults of kernel, damping, tol, eps, ... apply
        assert cfg.section("lq") == {"max_iter": 16, "verify": True}
        assert cfg.section("jumps") == {}

    def test_every_section_reads_an_empty_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("", encoding="utf-8")
        cfg = cli.parse_config_file(str(path))
        for name in SCHEMA:
            if name == "grid":
                with pytest.raises(cli.ConfigError, match=r"\[grid\] horizon: missing required key"):
                    cfg.section(name)
            else:
                cfg.section(name)


class TestSelftestDetails:
    def test_passing_details_hold_no_rounding_noise(self):
        details = {c["name"]: c["detail"] for c in cli.selftest_checks() if c["passed"]}
        assert details["dirac_norm_closed_form"] == "error <= 1e-09"
        assert details["dirac_distance_closed_form"] == "error <= 1e-09"
        assert details["delay_drift_terminal"] == "X(2) = 3.495, error <= 1e-12"
        assert details["deterministic_energy_fixed_point"] == "max |u + 0.5| <= 1e-06, |J + 0.25| <= 1e-06"
        assert details["wealth_rate_closed_form"] == "rate(0) error <= 1e-12"
        assert details["wealth_discount_closed_form"] == "phi(0) error <= 1e-09"

    def test_a_failing_detail_prints_the_value(self, monkeypatch):
        monkeypatch.setattr(cli, "SQRT_PI", 2.0)
        check = next(c for c in cli.selftest_checks() if c["name"] == "dirac_norm_closed_form")
        assert not check["passed"]
        assert check["detail"] == f"error = {abs(np.sqrt(np.pi) - 2.0):.3e} > 1e-09"


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
@example(case=PROBES["meanvar_b0_zero"][:3])
@example(case=PROBES["meanvar_no_noise"][:3])
@example(case=PROBES["meanvar_sigma0_overflows"][:3])
@example(case=PROBES["meanvar_zero_history"][:3])
@example(case=PROBES["meanvar_huge_history"][:3])
@example(case=PROBES["lq_huge_alpha0"][:3])
@example(case=PROBES["lq_huge_eps"][:3])
@example(case=PROBES["norms_zero_rule"][:3])
@example(case=PROBES["norms_negative_rule"][:3])
@example(case=PROBES["norms_one_point_rule"][:3])
@example(case=PROBES["norms_huge_rule"][:3])
@example(case=PROBES["norms_zero_samples"][:3])
@example(case=PROBES["norms_negative_samples"][:3])
@example(case=PROBES["norms_huge_samples"][:3])
@example(case=PROBES["jumps_huge_intensity"][:3])
@example(case=PROBES["jumps_marks_without_intensity"][:3])
@example(case=PROBES["threads_key_beside_flag"][:3])
@example(case=PROBES["dt_subnormal"][:3])
def test_contract_holds_for_configs_drawn_from_the_schema(case):
    command, text, flag = case
    with tempfile.TemporaryDirectory() as workdir:
        code, err, caught = run(command, text, flag, workdir, "a")
        assert code in (EXIT_OK, EXIT_CHECKS_FAILED, EXIT_BAD_CONFIG, EXIT_RUNTIME_ABORT)
        assert "Traceback" not in err
        if code in (EXIT_BAD_CONFIG, EXIT_RUNTIME_ABORT):
            # no logged diagnostic (a rank-deficiency summary) precedes it
            prefix = "config error: " if code == EXIT_BAD_CONFIG else "runtime abort: "
            assert len(err.splitlines()) == 1, err
            assert err.startswith(prefix), err
            assert caught == []
            return
        with open(os.path.join(workdir, "a", "manifest.json"), encoding="utf-8") as handle:
            json.loads(handle.read(), parse_constant=reject_constant)
        again, _, _ = run(command, text, flag, workdir, "b")
        assert again == code
        assert artifacts(os.path.join(workdir, "b")) == artifacts(os.path.join(workdir, "a"))


# the tiny configs of the fresh-process tests, by subcommand
TINY = {"lq": LQ_TINY, "meanvar": MEANVAR_JUMPS_TINY, "picard": PICARD_TINY}


@st.composite
def byte_edit(draw, data: bytes) -> bytes:
    """One edit of ``data``: insert, delete or replace a byte, truncate,
    prepend a byte-order mark, end lines with CRLF, insert a NUL, or
    duplicate a line."""
    kind = draw(st.sampled_from(["insert", "delete", "replace", "truncate", "bom", "crlf", "nul", "duplicate"]))
    i = draw(st.integers(0, len(data)))
    if kind == "insert":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i:]
    if kind == "delete":
        return data[:i] + data[i + 1 :]
    if kind == "replace":
        return data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1 :]
    if kind == "truncate":
        return data[:i]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "crlf":
        return data.replace(b"\n", b"\r\n")
    if kind == "nul":
        return data[:i] + b"\0" + data[i:]
    lines = data.splitlines(keepends=True)
    j = draw(st.integers(0, len(lines)))
    return b"".join(lines[:j] + lines[j:][:1] + lines[j:])


@st.composite
def edited_configs(draw):
    command = draw(st.sampled_from(sorted(TINY)))
    data = TINY[command].encode()
    for _ in range(draw(st.integers(0, 2))):
        data = draw(byte_edit(data))
    return command, data


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=edited_configs())
def test_contract_holds_for_configs_two_byte_edits_away(case):
    command, data = case
    with tempfile.TemporaryDirectory() as workdir:
        path, out = os.path.join(workdir, "exp.cfg"), os.path.join(workdir, "out")
        with open(path, "wb") as handle:
            handle.write(data)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([command, "--config", path, "--out", out])
        err = stderr.getvalue()
        assert code in (EXIT_OK, EXIT_CHECKS_FAILED, EXIT_BAD_CONFIG, EXIT_RUNTIME_ABORT)
        assert "Traceback" not in err
        if code in (EXIT_BAD_CONFIG, EXIT_RUNTIME_ABORT):
            assert len(err.splitlines()) == 1, err
            assert not os.path.exists(out)
