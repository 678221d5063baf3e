"""End-to-end contract of the experiment runner, exercised in process.

Covers the four exit codes (0 ok, 1 checks failed, 2 bad config, 3 runtime
abort), the error anchoring ``path:line: [section] key: message``, the
artifact layout of every subcommand (CSV schemas plus ``manifest.json`` and
``timing.txt``), byte-identical re-runs, the seed override environment
variable, and output-directory precedence (--out flag, then the config's
[output] dir, then ``out/<command>``).
"""

from __future__ import annotations

import csv
import json
import os
import tracemalloc
import warnings

import pytest

from memsfde import engine, mean_variance
from memsfde.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECKS_FAILED,
    EXIT_OK,
    EXIT_RUNTIME_ABORT,
    SEED_ENV_VAR,
    main,
)

SIM_TINY = """\
problem = simulate

[grid]
horizon = 0.5
delta = 0.1
dt = 0.01
particles = 500
seed = 9

[simulate]
xi = 1.0
drift_lag = 0.5
diff_const = 0.2

[jumps]
intensity = 1.5
marks = 0.3, -0.2
probs = 0.5, 0.5
"""

PICARD_TINY = """\
problem = picard

[grid]
horizon = 0.5
delta = 0.1
dt = 0.01
particles = 400
seed = 4

[picard]
xi = 1.0
drift_x = -0.5
drift_lag = 1.0
diff_const = 0.2
t0 = 0.1
"""

NORMS_TINY = """\
problem = norms

[grid]
horizon = 0.1
delta = 0.05
dt = 0.01
particles = 64
seed = 7

[norms]
property_sets = 25
samples = 128
"""

MEANVAR_TINY = """\
problem = meanvar

[grid]
horizon = 1.0
delta = 0.1
dt = 0.02
particles = 4000
seed = 1

[meanvar]
b0 = 0.1
sigma0 = 0.2
target = 1.0
xi = 2.0
"""

LQ_TINY = """\
problem = lq

[grid]
horizon = 1.0
delta = 0.2
dt = 0.05
particles = 2000
seed = 3

[lq]
kernel = 1.0
tol = 1e-4
"""

MANIFEST_KEYS = {
    "artifacts",
    "checks",
    "checks_passed",
    "config",
    "effective_seed",
    "grid",
    "package",
    "problem",
    "scalars",
    "seed_overridden",
    "threads",
    "timing_file",
}


def write_cfg(tmp_path, text, name="exp.cfg") -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_manifest(outdir) -> dict:
    with open(os.path.join(str(outdir), "manifest.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_rows(outdir, name) -> list:
    with open(os.path.join(str(outdir), name), "r", encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def check_names(manifest) -> list:
    return [c["name"] for c in manifest["checks"]]


class TestConfigErrors:
    """Every malformed input exits 2 with a message anchored to its source."""

    def run_expecting_bad_config(self, argv, capsys) -> str:
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        return err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.cfg")
        err = self.run_expecting_bad_config(["simulate", "--config", missing], capsys)
        assert "config file not found" in err
        assert missing in err

    def test_non_numeric_value_is_anchored_to_file_and_line(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            "[grid]\nhorizon = 0.5\ndelta = 0.1\ndt = fast\nparticles = 4\nseed = 0\n",
        )
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"{path}:4: [grid] dt: expected a number, got 'fast'" in err

    @pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_number_is_rejected(self, tmp_path, capsys, literal):
        path = write_cfg(tmp_path, SIM_TINY.replace("dt = 0.01", f"dt = {literal}"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"{path}:6: [grid] dt: expected a finite number, got '{literal}'" in err

    def test_non_finite_number_in_a_list_is_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("marks = 0.3, -0.2", "marks = 1.0, nan"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"{path}:17: [jumps] marks: expected comma-separated finite numbers, got '1.0, nan'" in err

    def test_duplicate_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\ndt = 0.1\ndt = 0.2\n")
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"{path}:3: [grid] dt: duplicate key" in err

    def test_line_without_assignment(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\nhorizon\n")
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert "expected 'key = value'" in err

    def test_unknown_key_lists_the_allowed_ones(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("particles = 500", "particels = 500"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert "[grid] particels: unknown key" in err
        assert "particles" in err  # the suggestion list names the valid spelling

    def test_missing_required_key(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("seed = 9\n", ""))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert "[grid] seed: missing required key" in err

    def test_horizon_must_span_at_least_one_step(self, tmp_path, capsys):
        # within the multiple-of-dt tolerance, but zero steps
        text = SIM_TINY.replace("horizon = 0.5", "horizon = 1e-12").replace("delta = 0.1", "delta = 0")
        path = write_cfg(tmp_path, text.replace("dt = 0.01", "dt = 1"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"{path}:4: [grid] horizon: must be at least one step" in err

    def test_huge_particle_count_is_rejected_before_allocating(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("particles = 500", "particles = 10000000000000"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"{path}:7: [grid] particles: 10000000000000 particles on 61 mesh points" in err
        assert "physical memory" in err

    def test_lag_span_must_be_a_multiple_of_dt(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("delta = 0.1", "delta = 0.035"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert "[grid] delta:" in err
        assert "multiple of dt" in err

    def test_section_for_another_subcommand_is_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("problem = simulate", "") + "\n[meanvar]\nb0 = 0.1\n")
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert "[meanvar]" in err
        assert "section does not apply to subcommand 'simulate'" in err

    def test_problem_label_must_match_subcommand(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            "problem = simulate\n\n[grid]\nhorizon = 0.5\ndelta = 0.1\ndt = 0.01\nparticles = 4\nseed = 0\n",
        )
        err = self.run_expecting_bad_config(["picard", "--config", path], capsys)
        assert "config is for 'simulate' but subcommand is 'picard'" in err

    def test_jump_probabilities_must_sum_to_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY.replace("probs = 0.5, 0.5", "probs = 0.5, 0.7"))
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert "[jumps]" in err
        assert "sum to 1" in err

    def test_threads_must_be_positive(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY)
        err = self.run_expecting_bad_config(["simulate", "--config", path, "--threads", "0"], capsys)
        assert "threads: must be at least 1" in err

    def test_selftest_threads_must_be_positive(self, capsys):
        assert main(["selftest", "--threads", "0"]) == EXIT_BAD_CONFIG
        assert "--threads: must be at least 1" in capsys.readouterr().err

    def test_invalid_seed_override_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        path = write_cfg(tmp_path, SIM_TINY)
        err = self.run_expecting_bad_config(["simulate", "--config", path], capsys)
        assert f"${SEED_ENV_VAR}" in err
        assert "expected an integer" in err

    def test_picard_window_must_be_a_multiple_of_dt(self, tmp_path, capsys):
        path = write_cfg(tmp_path, PICARD_TINY.replace("t0 = 0.1", "t0 = 0.013"))
        err = self.run_expecting_bad_config(["picard", "--config", path], capsys)
        assert "[picard] t0:" in err

    def test_picard_window_must_divide_horizon(self, tmp_path, capsys):
        path = write_cfg(tmp_path, PICARD_TINY.replace("t0 = 0.1", "t0 = 0.07"))
        err = self.run_expecting_bad_config(["picard", "--config", path], capsys)
        assert "horizon must be an integer multiple of t0" in err

    def test_wealth_history_below_floor_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MEANVAR_TINY.replace("xi = 2.0", "xi = 0.5"))
        err = self.run_expecting_bad_config(["meanvar", "--config", path], capsys)
        assert "[meanvar] xi:" in err
        assert "exceed the floor" in err

    def test_relaxation_weight_out_of_range(self, tmp_path, capsys):
        path = write_cfg(tmp_path, LQ_TINY + "damping = 1.5\n")
        err = self.run_expecting_bad_config(["lq", "--config", path], capsys)
        assert "[lq] damping: must be in (0, 1]" in err

    def test_picard_max_iter_must_be_positive(self, tmp_path, capsys):
        path = write_cfg(tmp_path, PICARD_TINY + "max_iter = 0\n")
        err = self.run_expecting_bad_config(["picard", "--config", path], capsys)
        assert f"{path}:16: [picard] max_iter: must be at least 1" in err

    def test_lq_max_iter_must_be_positive(self, tmp_path, capsys):
        path = write_cfg(tmp_path, LQ_TINY + "max_iter = 0\n")
        err = self.run_expecting_bad_config(["lq", "--config", path], capsys)
        assert f"{path}:13: [lq] max_iter: must be at least 1" in err

    @pytest.mark.parametrize("value", ["0", "-1e-3"])
    def test_lq_eps_must_be_positive(self, tmp_path, capsys, value):
        # the stationarity probes divide by 2 eps, so eps = 0 would write nan rows
        path = write_cfg(tmp_path, LQ_TINY + f"eps = {value}\n")
        err = self.run_expecting_bad_config(["lq", "--config", path], capsys)
        assert f"{path}:13: [lq] eps: must be positive" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_lq_tol_must_be_positive(self, tmp_path, capsys, value):
        # no change falls below a tol <= 0, so every sweep would run in vain
        path = write_cfg(tmp_path, LQ_TINY.replace("tol = 1e-4", f"tol = {value}"))
        err = self.run_expecting_bad_config(["lq", "--config", path], capsys)
        assert f"{path}:12: [lq] tol: must be positive" in err

    def test_missing_config_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])
        assert exc.value.code == 2


class TestRuntimeAborts:
    def test_nonfinite_state_exits_3(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            "problem = simulate\n\n[grid]\nhorizon = 0.5\ndelta = 0.1\ndt = 0.1\n"
            "particles = 2\nseed = 0\n\n[simulate]\nxi = 1.0\ndrift_x = 1e200\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME_ABORT
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == (
            "runtime abort: non-finite state for 2 particle(s) at step 1 (t=0.1); "
            "reduce dt or check coefficient growth\n"
        )

    def test_diverging_fixed_point_exits_3(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            "problem = lq\n\n[grid]\nhorizon = 1.0\ndelta = 0.2\ndt = 0.02\n"
            "particles = 50\nseed = 3\n\n[lq]\nkernel = 8.0\nalpha0 = 0.0\n"
            "xi = 1.0\ndamping = 1.0\n",
        )
        assert main(["lq", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_RUNTIME_ABORT
        err = capsys.readouterr().err
        assert err.startswith("runtime abort:")
        assert "consecutive sweeps" in err

    @pytest.mark.parametrize(
        "text, code",
        [
            (MEANVAR_TINY.replace("xi = 2.0", "xi = 1e300"), EXIT_RUNTIME_ABORT),
            (MEANVAR_TINY.replace("delta = 0.1", "delta = 0"), EXIT_BAD_CONFIG),
        ],
        ids=["overflow", "zero_lag"],
    )
    def test_an_aborted_run_creates_no_output(self, tmp_path, capsys, text, code):
        # both fail inside the runner: the first after the optimal ensemble
        # and its solution table exist, the second at a cross-key check
        out = tmp_path / "fresh"
        assert main(["meanvar", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == code
        assert not out.exists()

    def test_an_aborted_run_leaves_an_earlier_run_untouched(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["meanvar", "--config", write_cfg(tmp_path, MEANVAR_TINY), "--out", str(out)]) == EXIT_OK
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        # another drift rate gives another solution table
        text = MEANVAR_TINY.replace("xi = 2.0", "xi = 1e300").replace("b0 = 0.1", "b0 = 0.3")
        path = write_cfg(tmp_path, text, name="overflow.cfg")
        assert main(["meanvar", "--config", path, "--out", str(out)]) == EXIT_RUNTIME_ABORT
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before


class TestFailedChecks:
    def test_unconverged_fixed_point_exits_1_and_reports_fail(self, tmp_path, capsys):
        path = write_cfg(tmp_path, PICARD_TINY + "max_iter = 1\n")
        out = tmp_path / "out"
        assert main(["picard", "--config", path, "--out", str(out)]) == EXIT_CHECKS_FAILED
        stdout = capsys.readouterr().out
        assert "[FAIL] converged:" in stdout
        assert "status: checks-failed" in stdout
        manifest = read_manifest(out)
        assert manifest["checks_passed"] is False
        # the manifest is still written in full so the failure can be audited
        assert (out / "picard_iters.csv").exists()


class TestZeroLag:
    """``[grid] delta = 0`` is a valid grid for every subcommand but meanvar."""

    def test_meanvar_rejects_it_at_config_time(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MEANVAR_TINY.replace("delta = 0.1", "delta = 0"))
        assert main(["meanvar", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err == f"config error: {path}:5: [grid] delta: meanvar needs a lag of at least one step (got delta=0.0)\n"
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("verify", ["true", "false"])
    def test_lq_runs_without_an_advanced_driver(self, tmp_path, capsys, verify):
        path = write_cfg(tmp_path, LQ_TINY.replace("delta = 0.2", "delta = 0") + f"verify = {verify}\n")
        out = tmp_path / "out"
        assert main(["lq", "--config", path, "--out", str(out)]) in (EXIT_OK, EXIT_CHECKS_FAILED)
        assert "Traceback" not in capsys.readouterr().err
        manifest = read_manifest(out)
        assert manifest["grid"]["delta"] == 0.0
        assert check_names(manifest)[0] == "converged"

    @pytest.mark.parametrize(
        "command,text",
        [
            ("simulate", SIM_TINY.replace("delta = 0.1", "delta = 0")),
            ("picard", PICARD_TINY.replace("delta = 0.1", "delta = 0")),
            ("norms", NORMS_TINY.replace("delta = 0.05", "delta = 0")),
        ],
    )
    def test_other_subcommands_accept_it(self, tmp_path, capsys, command, text):
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        assert capsys.readouterr().err == ""


class TestStrictManifest:
    def test_non_finite_scalar_is_written_as_null(self, tmp_path, capsys):
        # with tol = 1 no window iterates twice, so there is no contraction
        # ratio and the worst final ratio is NaN
        path = write_cfg(tmp_path, PICARD_TINY + "tol = 1.0\n")
        out = tmp_path / "out"
        assert main(["picard", "--config", path, "--out", str(out)]) in (EXIT_OK, EXIT_CHECKS_FAILED)
        text = (out / "manifest.json").read_text(encoding="utf-8")

        def reject(constant):
            raise AssertionError(f"manifest holds the non-JSON constant {constant}")

        manifest = json.loads(text, parse_constant=reject)
        assert manifest["scalars"]["worst_final_ratio"] is None
        assert manifest["scalars"]["total_iterations"] == manifest["scalars"]["windows"]


class TestHappyPaths:
    def test_simulate_layout(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "[PASS] finite_states:" in stdout
        assert "wrote 3 files" in stdout
        assert "status: ok" in stdout

        manifest = read_manifest(out)
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["problem"] == "simulate"
        assert manifest["package"] == "memsfde"
        assert manifest["grid"] == {"horizon": 0.5, "dt": 0.01, "delta": 0.1, "particles": 500, "seed": 9}
        assert manifest["effective_seed"] == 9
        assert manifest["seed_overridden"] is False
        assert manifest["threads"] == 1
        assert manifest["artifacts"] == ["law_stats.csv"]
        assert manifest["checks_passed"] is True
        assert manifest["timing_file"] == "timing.txt"
        assert set(manifest["scalars"]) == {"terminal_mean", "terminal_var", "path_min", "path_max", "n_steps"}
        # raw config echo preserves what was written, not parsed values
        assert manifest["config"]["grid"]["seed"] == "9"
        assert (out / "timing.txt").read_text().startswith("wall_seconds=")

        rows = read_rows(out, "law_stats.csv")
        assert rows[0] == ["t", "mean", "var", "q05", "q25", "q50", "q75", "q95"]
        assert len(rows) == 1 + 51  # header + one row per mesh time
        assert rows[1][0] == "0" and rows[1][1] == "1"  # deterministic start

    def test_picard_layout(self, tmp_path, capsys):
        path = write_cfg(tmp_path, PICARD_TINY)
        out = tmp_path / "out"
        assert main(["picard", "--config", path, "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["picard_iters.csv"]
        assert check_names(manifest) == ["converged", "final_contraction_ratio", "matches_direct_scheme"]
        assert all(c["passed"] for c in manifest["checks"])
        assert manifest["scalars"]["windows"] == 5
        assert manifest["scalars"]["consistency_gap"] < 1e-8
        rows = read_rows(out, "picard_iters.csv")
        assert rows[0] == ["window", "iter", "distance", "ratio"]
        assert rows[1][3] == "nan"  # no ratio before the second iterate

    def test_norms_layout(self, tmp_path, capsys):
        path = write_cfg(tmp_path, NORMS_TINY)
        out = tmp_path / "out"
        assert main(["norms", "--config", path, "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["norms.csv"]
        assert manifest["scalars"]["closed_form_max_abs_error"] <= 1e-6
        rows = read_rows(out, "norms.csv")
        assert rows[0] == ["name", "computed", "expected", "abs_error", "tolerance", "passed"]
        names = [r[0] for r in rows[1:]]
        assert names == [
            "dirac_norm_sq",
            "dirac_pair_dist_sq",
            "gaussian_cf_dist_sq",
            "coupled_sample_violation_max",
            "segment_violation",
            "quadrature_doubling_gap",
        ]
        assert all(r[5] == "true" for r in rows[1:])

    def test_meanvar_layout(self, tmp_path, capsys):
        path = write_cfg(tmp_path, MEANVAR_TINY)
        out = tmp_path / "out"
        assert main(["meanvar", "--config", path, "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "wrote 5 files" in stdout
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["j_comparison.csv", "solution.csv", "verification.csv"]
        assert check_names(manifest) == [
            "first_order_condition",
            "path_positivity",
            "adjoint_regression_match",
            "performance_dominance",
        ]
        assert manifest["checks_passed"] is True
        assert manifest["scalars"]["rate_initial"] == pytest.approx(0.25, abs=1e-12)
        assert manifest["scalars"]["positivity_fraction"] == 1.0
        sol = read_rows(out, "solution.csv")
        assert sol[0] == ["t", "rate", "phi", "psi"]
        comp = read_rows(out, "j_comparison.csv")
        assert comp[0] == ["control", "J", "stderr", "gap_vs_optimal", "gap_stderr", "passed"]
        assert comp[1][0] == "optimal"
        assert len(comp) == 1 + 9  # header + optimal + eight perturbations

    def test_one_particle_meanvar_prints_no_runtime_warning(self, tmp_path, capsys):
        # one particle has no sample spread; the martingale check must not
        # ask numpy for one (it would print "Degrees of freedom <= 0")
        path = write_cfg(tmp_path, MEANVAR_TINY.replace("particles = 4000", "particles = 1"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["meanvar", "--config", path, "--out", str(tmp_path / "out")])
        assert code in (EXIT_OK, EXIT_CHECKS_FAILED)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in capsys.readouterr().err
        rows = dict(read_rows(tmp_path / "out", "verification.csv")[1:])
        assert float(rows["p0_drift_max_step_z"]) == 0.0  # no per-step spread to compare against

    def test_meanvar_frees_the_optimal_ensemble_before_its_variants(self, tmp_path, monkeypatch):
        # the comparison reads only the optimal cost, so from before the
        # optimal simulation to the end of the comparison the run holds at
        # most one ensemble: paths over [-delta, T], N = 4000 particles on
        # 56 mesh points, and while it integrates the control ring of
        # 2d + 1 = 11 rows.  The noise is drawn before the mark, since every
        # ensemble of the run shares it.
        simulate_optimal, j_comparison = mean_variance.simulate_optimal, mean_variance.j_comparison
        marks = {}

        def marking_simulate(sol):
            sol.problem.noise
            marks["before"] = tracemalloc.get_traced_memory()[0]
            return simulate_optimal(sol)

        def peaking(*args):
            tracemalloc.reset_peak()
            rows = j_comparison(*args)
            marks["peak"] = tracemalloc.get_traced_memory()[1]
            return rows

        monkeypatch.setattr(mean_variance, "simulate_optimal", marking_simulate)
        monkeypatch.setattr(mean_variance, "j_comparison", peaking)
        path = write_cfg(tmp_path, MEANVAR_TINY)
        tracemalloc.start()
        try:
            assert main(["meanvar", "--config", path, "--out", str(tmp_path / "out")]) == EXIT_OK
        finally:
            tracemalloc.stop()
        n_particles, n_points, ring_rows = 4000, 56, 11
        ensemble = (n_points + ring_rows) * n_particles * 8
        assert marks["peak"] - marks["before"] <= ensemble + 16 * n_particles * 8

    def test_lq_layout(self, tmp_path, capsys):
        path = write_cfg(tmp_path, LQ_TINY)
        out = tmp_path / "out"
        assert main(["lq", "--config", path, "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["control_path.csv", "convergence.csv", "verification.csv"]
        assert check_names(manifest) == [
            "converged",
            "coupling_residual",
            "performance_concave",
            "performance_vertex_near_zero",
            "performance_dominance",
        ]
        assert manifest["checks_passed"] is True
        assert manifest["scalars"]["iterations"] >= 2
        conv = read_rows(out, "convergence.csv")
        assert conv[0] == ["iter", "change"]
        ctrl = read_rows(out, "control_path.csv")
        assert ctrl[0] == ["t", "mean", "std"]
        assert len(ctrl) == 1 + 21

    def test_unverified_lq_costs_the_control_on_the_solves_noise(self, tmp_path, monkeypatch):
        # the control is costed on the solve's own problem, so each per-step
        # stream is built once in the whole run
        calls = []
        step_generator = engine.step_generator

        def counting(seed, step, substream=0):
            calls.append((step, substream))
            return step_generator(seed, step, substream)

        monkeypatch.setattr(engine, "step_generator", counting)
        path = write_cfg(tmp_path, LQ_TINY + "verify = false\n")
        out = tmp_path / "out"
        assert main(["lq", "--config", path, "--out", str(out)]) == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["artifacts"] == ["control_path.csv", "convergence.csv"]
        assert "J" in manifest["scalars"]
        assert sorted(calls) == [(k, 0) for k in range(20)]

    def test_selftest_passes_and_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert main(["selftest", "--out", str(out)]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "selftest: ok" in stdout
        manifest = read_manifest(out)
        assert manifest["problem"] == "selftest"
        assert manifest["grid"] is None
        assert manifest["effective_seed"] is None
        assert manifest["checks_passed"] is True
        assert "delay_drift_terminal" in check_names(manifest)
        assert "backward_mean_recovery" in check_names(manifest)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = write_cfg(tmp_path, SIM_TINY)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", "--config", path, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "law_stats.csv").read_bytes() == (out_b / "law_stats.csv").read_bytes()
        # wall time lives in timing.txt, so the manifest itself is comparable
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    @pytest.mark.parametrize(
        "text",
        [MEANVAR_TINY + "\n[jumps]\nintensity = 1.0\nmarks = 1.0\nprobs = 1.0\n", LQ_TINY],
        ids=["meanvar_jumps", "lq"],
    )
    def test_reruns_in_one_process_stay_independent(self, tmp_path, capsys, text):
        # seed A, then B, then A again: no noise drawn for one run may leak
        # into a later one
        seed = text.split("seed = ")[1].split("\n")[0]
        command = text.split("problem = ")[1].split("\n")[0]
        outputs = []
        for run, s in enumerate((seed, "17", seed)):
            path = write_cfg(tmp_path, text.replace(f"seed = {seed}\n", f"seed = {s}\n"), name=f"{run}.cfg")
            out = tmp_path / f"run{run}"
            assert main([command, "--config", path, "--out", str(out)]) == EXIT_OK
            outputs.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "timing.txt"})
        first, other, again = outputs
        assert again == first
        assert first.keys() == other.keys()
        assert [name for name in first if first[name] != other[name] and name != "manifest.json"]

    def test_seed_env_var_overrides_config(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, SIM_TINY)
        base = tmp_path / "base"
        assert main(["simulate", "--config", path, "--out", str(base)]) == EXIT_OK

        monkeypatch.setenv(SEED_ENV_VAR, "77")
        other = tmp_path / "override"
        assert main(["simulate", "--config", path, "--out", str(other)]) == EXIT_OK
        manifest = read_manifest(other)
        assert manifest["effective_seed"] == 77
        assert manifest["seed_overridden"] is True
        assert manifest["config"]["grid"]["seed"] == "9"  # echo keeps the file's value
        assert (base / "law_stats.csv").read_bytes() != (other / "law_stats.csv").read_bytes()


class TestOutputLocations:
    CFG_WITH_DIR = SIM_TINY + "\n[output]\ndir = from_config\n"

    def test_flag_beats_config_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, self.CFG_WITH_DIR)
        assert main(["simulate", "--config", path, "--out", "from_flag"]) == EXIT_OK
        assert (tmp_path / "from_flag" / "manifest.json").exists()
        assert not (tmp_path / "from_config").exists()

    def test_config_dir_used_without_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, self.CFG_WITH_DIR)
        assert main(["simulate", "--config", path]) == EXIT_OK
        assert (tmp_path / "from_config" / "manifest.json").exists()

    def test_default_dir_is_out_subcommand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, SIM_TINY)
        assert main(["simulate", "--config", path]) == EXIT_OK
        assert (tmp_path / "out" / "simulate" / "manifest.json").exists()

    def test_threads_flag_and_config_key_are_recorded(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[run]\nthreads = 2\n\n" + SIM_TINY)
        out = tmp_path / "cfg_threads"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_OK
        assert read_manifest(out)["threads"] == 2

        out2 = tmp_path / "flag_threads"
        assert main(["simulate", "--config", path, "--out", str(out2), "--threads", "3"]) == EXIT_OK
        assert read_manifest(out2)["threads"] == 3
