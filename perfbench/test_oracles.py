"""Checks of the benchmark's own oracles and span arithmetic.

    python3 -m pytest perfbench/test_oracles.py

The oracles are checked on small shipped configs whose answers are known by
hand, so a wrong oracle cannot pass or fail benchmark runs unnoticed.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import tracer
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(command: str, config: str, outdir) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("MEMSFDE_SEED", None)
    argv = [sys.executable, "-m", "memsfde.cli", command, "--config", os.path.join(ROOT, "configs", config)]
    subprocess.run(argv + ["--out", str(outdir)], env=env, check=True, capture_output=True)


def test_lq_curvature_oracle_on_deterministic_case(tmp_path):
    # no kernel: Phi_K = T = 1, so the curvature is -(1 + 1) / 2
    assert workloads.lq_exact_curvature(0.0, 0.2, 0.01, 1.0) == pytest.approx(-1.0, abs=1e-12)
    run_cli("lq", "lq_det.cfg", tmp_path)
    spec = {
        "grid": {"horizon": 1.0, "delta": 0.2, "dt": 0.01},
        "sections": {"lq": {"kernel": 0.0, "tol": 1e-10}},
    }
    assert workloads.check_lq(spec, str(tmp_path)) == []
    assert workloads.read_manifest(str(tmp_path))["scalars"]["J"] == pytest.approx(-0.25, abs=1e-6)


def test_mean_recursion_reproduces_pure_delay_endpoint(tmp_path):
    dt = 0.01
    terminal, response = workloads.mean_recursion(0.0, 0.0, 1.0, 1.0, 1.0, dt, 2.0)
    assert terminal == pytest.approx(3.5 - dt / 2.0, abs=1e-12)
    assert len(response) == 200 and response[0] == 1.0
    run_cli("simulate", "simulate_delay.cfg", tmp_path)
    last = workloads.read_rows(os.path.join(tmp_path, "law_stats.csv"))[-1]
    assert float(last["mean"]) == pytest.approx(terminal, abs=1e-12)


def test_meanvar_oracle_matches_shipped_closed_form():
    # shipped meanvar.cfg without jumps: rate = 0.1^2 / 0.2^2
    assert workloads.meanvar_rate(0.1, 0.2, 0.05, 0.0, [1.0], [1.0]) == pytest.approx(0.25, abs=1e-15)
    # with zero noise the discrete factor is (1 - r dt)^2 + r dt exactly
    assert workloads.meanvar_exact_j(2.0, 1.0, 0.0, 0.01, 100) == -0.5


def test_self_times_subtract_direct_children_only():
    spans = [
        ["engine.simulate", 0, 100, -1],
        ["grid.noise", 10, 30, 0],
        ["engine.coefficients", 40, 50, 0],
        ["adjoint.basis", 60, 90, 0],
        ["adjoint.basis", 70, 80, 3],
    ]
    assert tracer.self_times(spans) == [40, 20, 10, 20, 10]
    groups = tracer.outermost(spans)
    assert groups["adjoint.basis"] == [3]
    assert groups["engine.simulate"] == [0]
