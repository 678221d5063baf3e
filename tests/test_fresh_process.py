"""Behaviour that only a fresh interpreter shows.

The BLAS thread count is fixed when numpy is first imported, so its effect on
the output is checked on CLI runs in child processes; that this test process
got the pin too (``conftest.py`` imports ``memsfde`` first) is checked here.
The traced benchmark runner (``perfbench/tracer.py``) wraps the program's
functions by name, so a refactor that renames or reshapes one of them shows
here as a failed traced run or a missing span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from memsfde.cli import SEED_ENV_VAR

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SOURCE = os.path.join(ROOT, "src")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def test_numpy_was_imported_after_the_blas_pin():
    import memsfde

    assert not memsfde._NUMPY_PRELOADED


# above OpenBLAS's threading threshold, so a second BLAS thread would split
# the regression's reductions over particles
LQ_WIDE = """\
problem = lq

[grid]
horizon = 0.2
delta = 0.2
dt = 0.01
particles = 50000
seed = 3

[lq]
verify = false
"""

LQ_TINY = """\
problem = lq

[grid]
horizon = 0.5
delta = 0.1
dt = 0.05
particles = 300
seed = 3
"""

MEANVAR_JUMPS_TINY = """\
problem = meanvar

[grid]
horizon = 0.5
delta = 0.1
dt = 0.05
particles = 500
seed = 1

[meanvar]
b0 = 0.1
sigma0 = 0.2
gamma0 = 0.05
target = 1.0
xi = 2.0

[jumps]
intensity = 1.0
marks = 1.0
probs = 1.0
"""

PICARD_TINY = """\
problem = picard

[grid]
horizon = 0.4
delta = 0.1
dt = 0.02
particles = 200
seed = 4

[picard]
xi = 1.0
drift_x = -0.5
drift_lag = 0.3
drift_mean = -0.2
diff_const = 0.2
jump_scale = 0.1
t0 = 0.1
consistency = true

[jumps]
intensity = 2.0
marks = 1.0, -0.5
probs = 0.4, 0.6
"""


def child_env(**overrides) -> dict:
    """This process's environment without the variables a run must not
    inherit, plus ``overrides``."""
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", SEED_ENV_VAR)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH"))))
    env.update(overrides)
    return env


def run(argv, env) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_output_does_not_depend_on_the_blas_thread_setting(tmp_path):
    config = tmp_path / "lq_wide.cfg"
    config.write_text(LQ_WIDE, encoding="utf-8")
    outputs = {}
    for label, env in (("unset", child_env()), ("pinned", child_env(OPENBLAS_NUM_THREADS="1"))):
        out = tmp_path / label
        done = run([sys.executable, "-m", "memsfde.cli", "lq", "--config", str(config), "--out", str(out)], env)
        assert done.returncode == 0, done.stderr
        outputs[label] = {name: (out / name).read_bytes() for name in sorted(os.listdir(out)) if name != "timing.txt"}
    assert sorted(outputs["unset"]) == ["control_path.csv", "convergence.csv", "manifest.json"]
    for name, data in outputs["unset"].items():
        assert data == outputs["pinned"][name], f"{name} depends on the BLAS thread setting"


@pytest.mark.parametrize(
    "command, config, spans",
    [
        (
            "lq",
            LQ_TINY,
            {"lq_memory.solve_lq", "lq_memory.verify_lq", "adjoint.solve_absde", "engine.simulate"},
        ),
        (
            "meanvar",
            MEANVAR_JUMPS_TINY,
            {"mean_variance.j_comparison", "adjoint.solve_absde", "engine.simulate"},
        ),
        ("picard", PICARD_TINY, {"picard.picard_solve", "engine.simulate"}),
    ],
    ids=["lq", "meanvar_jumps", "picard"],
)
def test_traced_runs_succeed_and_record_their_spans(tmp_path, command, config, spans):
    path = tmp_path / f"{command}.cfg"
    path.write_text(config, encoding="utf-8")
    trace = tmp_path / "spans.json"
    argv = [sys.executable, TRACER, str(trace), command, "--config", str(path), "--out", str(tmp_path / "out")]
    done = run(argv, child_env())
    assert done.returncode == 0, done.stderr
    with open(trace, encoding="utf-8") as handle:
        recorded = json.load(handle)
    assert spans <= {span[0] for span in recorded["spans"]}
    if command == "lq":
        assert recorded["counts"]["lq_memory.sweeps"] > 0
