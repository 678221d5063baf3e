"""Closed-loop benchmark of the ``memsfde`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark writes the workload's
config from ``--seed`` (see ``workloads.py``), then starts one CLI process at
a time, each only after the previous one has exited, until ``--seconds`` have
passed.  One operation is one CLI run.  It fails when the CLI exits non-zero,
when its own checks fail, when its artifacts disagree with the independent
oracles, or when any artifact other than ``timing.txt`` differs from the
first run of this invocation; the last two also make ``correct`` false.

``--trace 0`` reports the end-to-end metrics: medians over the runs of wall
time, CPU time and peak RSS of the CLI process, and the median of several
set-up probes (a fresh interpreter that imports ``memsfde.cli`` and builds
the grid and jump model from the config).  ``--trace 1`` alternates plain
runs with runs under ``tracer.py`` and reports the per-layer metrics of the
traced runs plus the tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 100.0  # a hung CLI run is killed, so a benchmark run still ends in time
UNTIMED_FILES = ("timing.txt",)

SETUP_SNIPPET = (
    "import sys\n"
    "from memsfde.cli import build_grid, build_jumps, parse_config_file\n"
    "cfg = parse_config_file(sys.argv[1])\n"
    "build_grid(cfg)\n"
    "build_jumps(cfg)\n"
)


class Process:
    """Wall time, CPU time and peak RSS of one child process."""

    def __init__(self, argv, env, log_path):
        with open(log_path, "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
            timer = threading.Timer(RUN_LIMIT_S, lambda: proc.returncode is None and proc.kill())
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                self.wall_s = time.perf_counter() - started
                timer.cancel()
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB


class Benchmark:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.dir = os.path.join(WORK, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "config.cfg")
        with open(self.config, "w", encoding="utf-8") as handle:
            handle.write(workloads.config_text(workload, seed))
        self.env = dict(os.environ)
        self.env.pop("MEMSFDE_SEED", None)  # the CLI must read the generated seed
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (SOURCE, os.environ.get("PYTHONPATH"))))
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def _cli_args(self, outdir):
        return [self.spec["command"], "--config", self.config, "--out", outdir]

    def setup_probe(self) -> float:
        probe = Process(
            [sys.executable, "-c", SETUP_SNIPPET, self.config], self.env, os.path.join(self.dir, "setup.log")
        )
        if probe.exit_code != 0:
            raise SystemExit(f"set-up probe exited with {probe.exit_code}; see {self.dir}/setup.log")
        return probe.wall_s

    def run_cli(self, traced: bool):
        """One operation: a CLI run, checked.  Returns the process record."""
        label = "traced" if traced else "plain"
        outdir = os.path.join(self.dir, f"out_{label}")
        shutil.rmtree(outdir, ignore_errors=True)
        if traced:
            if os.path.exists(self.spans_path):
                os.remove(self.spans_path)
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), self.spans_path] + self._cli_args(outdir)
        else:
            argv = [sys.executable, "-m", "memsfde.cli"] + self._cli_args(outdir)
        proc = Process(argv, self.env, os.path.join(self.dir, f"{label}.log"))
        self.attempted += 1
        problems = self._check(proc, outdir)
        if problems:
            self.failed += 1
            print(f"{self.workload} {label} run {self.attempted} failed: " + "; ".join(problems), file=sys.stderr)
        return proc

    def _check(self, proc: Process, outdir: str) -> list:
        if proc.exit_code != 0:
            return [f"exit code {proc.exit_code}"]
        try:
            if not workloads.read_manifest(outdir).get("checks_passed"):
                return ["the program's own checks failed"]
        except (OSError, ValueError) as exc:
            return [f"unreadable manifest: {exc}"]
        problems = workloads.check_outputs(self.workload, outdir)
        digests = artifact_digests(outdir)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in set(digests) | set(self.reference) if digests.get(k) != self.reference.get(k))
            problems.append(f"artifacts differ from the first run: {changed}")
        if problems:
            self.correct = False
        return problems

    @property
    def spans_path(self) -> str:
        return os.path.join(self.dir, "spans.json")


def artifact_digests(outdir: str) -> dict:
    digests = {}
    for name in sorted(os.listdir(outdir)):
        if name not in UNTIMED_FILES:
            with open(os.path.join(outdir, name), "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def end_to_end(bench: Benchmark, seconds: float) -> dict:
    setup, runs = [], []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        # a set-up probe per round samples the machine over the whole run
        setup.append(bench.setup_probe())
        runs.append(bench.run_cli(traced=False))
    return {
        "wall_s": statistics.median(p.wall_s for p in runs),
        "cpu_s": statistics.median(p.cpu_s for p in runs),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in runs),
        "setup_s": statistics.median(setup),
    }


def per_layer(bench: Benchmark, seconds: float) -> dict:
    plain, traced = [], []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        plain.append(bench.run_cli(traced=False))
        traced.append((bench.run_cli(traced=True), layers_of(bench.spans_path)))
    # a traced run that left no span file has failed; report zeros for it
    layers = [values for _, values in traced if values is not None] or [tracer.layer_metrics(tracer.EMPTY)]
    # counts repeat exactly between runs; times are summarised by their median
    metrics = {name: statistics.median(values[name] for values in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(p.wall_s for p, _ in traced) - statistics.median(
        p.wall_s for p in plain
    )
    return metrics


def layers_of(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return tracer.layer_metrics(json.load(handle))
    except (OSError, ValueError):
        return None


def declared_units() -> dict:
    """Metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SOURCE, "memsfde", "cli.py")):
        print(f"no memsfde sources under {SOURCE}; run from the root of a source checkout", file=sys.stderr)
        return 2

    units = declared_units()
    bench = Benchmark(args.workload, args.seed)
    bench.setup_probe()  # warm the file cache and byte-code; not timed
    values = per_layer(bench, args.seconds) if args.trace else end_to_end(bench, args.seconds)
    result = {
        "correct": bench.correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
