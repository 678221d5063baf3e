#!/usr/bin/env python3
"""Compare the CLI output of this checkout with that of a base git revision.

    python3 tools/compare_artifacts.py [--base REV] [--seeds 7 11 37]

The runs are the ones a pure refactor must leave byte-identical:

- every ``configs/*.cfg`` of this checkout, run with its ``problem``;
- ``selftest --out``;
- each benchmark workload's config (``perfbench/workloads.py``, imported
  read-only) at every ``--seeds`` value;
- three small edge configs that end in exit 1, 2 and 3, so the contract's
  failure paths are compared like its successes.

Each workload at the first ``--seeds`` value also runs once more in this
checkout under the benchmark's tracer, ``python3 perfbench/tracer.py SPANS
<cli arguments>``, which wraps program functions by name and reads ensemble
attributes.  Its row compares the plain run of this checkout with the traced
one: a non-zero exit of the traced run, or an exit code, stdout, stderr or
artifact that differs from the plain run's, is a difference.

Both trees run the same config files, one CLI process at a time, the base
first and then this checkout.  Each tree imports the program from its own
``src/`` with ``OPENBLAS_NUM_THREADS=1``, ``PYTHONDONTWRITEBYTECODE=1`` and
its own fresh, empty ``PYTHONPYCACHEPREFIX``, so both compile the package
from source on every run: a tree with a warm ``__pycache__`` starts tens of
milliseconds faster, which would bias any comparison of the two trees.

The base is checked out with ``git worktree add --detach`` into a temporary
directory (``--base REV``, default ``HEAD``) and removed afterwards.  The
script prints one line per run with both trees' exit codes and child peak RSS
(``ru_maxrss``), then every exit code, stdout, stderr and artifact
(``timing.txt`` excepted) that differs.  It exits 1 on any difference and 0
when everything is identical.  The work directory is deleted unless a run
differs.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNCOMPARED_FILES = ("timing.txt",)

_EDGE_GRID = "[grid]\nhorizon = 0.5\ndelta = {delta}\ndt = 0.05\nparticles = 200\nseed = 3\n\n"
# name -> (subcommand, config text)
EDGE_CONFIGS = {
    # one sweep per window cannot converge: a failed check
    "edge_exit1": (
        "picard",
        _EDGE_GRID.format(delta=0.1) + "[picard]\nxi = 1.0\ndrift_lag = 1.0\ndiff_const = 0.2\nt0 = 0.1\nmax_iter = 1\n",
    ),
    # the wealth problem needs a lag of at least one step: a config error
    # found inside the runner
    "edge_exit2": ("meanvar", _EDGE_GRID.format(delta=0) + "[meanvar]\nxi = 2.0\n"),
    # a history too large to square: a runtime abort after the optimal
    # ensemble is simulated
    "edge_exit3": ("meanvar", _EDGE_GRID.format(delta=0.1) + "[meanvar]\nxi = 1e300\n"),
}


def config_runs(root: str) -> list:
    """``(name, argv)`` for every shipped config, by its ``problem`` line."""
    runs = []
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.cfg"))):
        with open(path, encoding="utf-8") as handle:
            found = re.search(r"^\s*problem\s*=\s*(\w+)", handle.read(), re.MULTILINE)
        if found is None:
            raise SystemExit(f"{path}: no 'problem = ...' line")
        name = os.path.splitext(os.path.basename(path))[0]
        runs.append((name, [found.group(1), "--config", path]))
    return runs


def workload_runs(root: str, seeds, config_dir: str) -> list:
    """``(name, argv)`` for each benchmark workload at each seed; the configs
    are written into ``config_dir`` by ``perfbench/workloads.py``."""
    sys.path.insert(0, os.path.join(root, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    runs = []
    for name, spec in workloads.WORKLOADS.items():
        for seed in seeds:
            path = os.path.join(config_dir, f"{name}_seed{seed}.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(workloads.config_text(name, seed))
            runs.append((f"{name}@{seed}", [spec["command"], "--config", path]))
    return runs


def edge_runs(config_dir: str) -> list:
    """``(name, argv)`` for each of ``EDGE_CONFIGS``, written into
    ``config_dir``."""
    runs = []
    for name, (command, text) in EDGE_CONFIGS.items():
        path = os.path.join(config_dir, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"problem = {command}\n\n{text}")
        runs.append((name, [command, "--config", path]))
    return runs


class Tree:
    """One source tree and the directory its runs write into."""

    def __init__(self, label: str, root: str, work: str, traced: bool = False):
        self.root, self.traced = root, traced
        self.dir = os.path.join(work, label)
        os.makedirs(self.dir)
        self.env = dict(os.environ)
        self.env.pop("MEMSFDE_SEED", None)  # the configs' seeds must rule
        self.env.update(
            PYTHONPATH=os.path.join(root, "src"),
            OPENBLAS_NUM_THREADS="1",
            PYTHONDONTWRITEBYTECODE="1",
            PYTHONPYCACHEPREFIX=tempfile.mkdtemp(prefix=f"pycache_{label}_", dir=work),
        )

    def run(self, name: str, argv: list) -> dict:
        """Run ``memsfde.cli`` (under ``perfbench/tracer.py`` in a traced
        tree) with ``argv --out <name>`` in this tree's directory; the output
        path is relative, so all trees print it alike."""
        out = os.path.join(self.dir, name)
        stdout_path, stderr_path = out + ".stdout", out + ".stderr"
        if self.traced:
            command = [sys.executable, os.path.join(self.root, "perfbench", "tracer.py"), out + ".spans.json"]
        else:
            command = [sys.executable, "-m", "memsfde.cli"]
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                [*command, *argv, "--out", name],
                cwd=self.dir,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=stdout,
                stderr=stderr,
            )
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "exit": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
            "stdout": stdout_path,
            "stderr": stderr_path,
            "out": out,
        }


def _read(path: str):
    with open(path, "rb") as handle:
        return handle.read()


def _artifacts(outdir: str) -> set:
    found = set()
    for dirpath, _, files in os.walk(outdir):
        for f in files:
            if f not in UNCOMPARED_FILES:
                found.add(os.path.relpath(os.path.join(dirpath, f), outdir))
    return found


def differences(base: dict, change: dict) -> list:
    """What differs between two runs of the same command."""
    diffs = []
    if base["exit"] != change["exit"]:
        diffs.append(f"exit code {base['exit']} -> {change['exit']}")
    for stream in ("stdout", "stderr"):
        if _read(base[stream]) != _read(change[stream]):
            diffs.append(stream)
    base_files, change_files = _artifacts(base["out"]), _artifacts(change["out"])
    for rel in sorted(base_files | change_files):
        if rel not in change_files:
            diffs.append(f"{rel} missing in the change")
        elif rel not in base_files:
            diffs.append(f"{rel} missing in the base")
        elif _read(os.path.join(base["out"], rel)) != _read(os.path.join(change["out"], rel)):
            diffs.append(rel)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against (default HEAD)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 11, 37], help="benchmark workload seeds")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix="compare_artifacts_")
    worktree = os.path.join(work, "base_tree")
    keep = False
    try:
        subprocess.run(
            ["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach", worktree, args.base],
            check=True,
        )
        config_dir = os.path.join(work, "configs")
        os.makedirs(config_dir)
        runs = (
            config_runs(ROOT)
            + [("selftest", ["selftest"])]
            + workload_runs(ROOT, args.seeds, config_dir)
            + edge_runs(config_dir)
        )
        base, change = Tree("base", worktree, work), Tree("change", ROOT, work)
        traced = Tree("traced", ROOT, work, traced=True)
        traced_runs = [(name, cmd) for name, cmd in runs if name.endswith(f"@{args.seeds[0]}")]

        differing = []

        def report(name, b, c, diffs):
            verdict = "identical" if not diffs else "DIFFERS: " + ", ".join(diffs)
            print(f"{name:<28} {b['exit']:>9} {b['rss_mb']:>9.1f} {c['exit']:>11} {c['rss_mb']:>9.1f}  {verdict}")
            sys.stdout.flush()
            if diffs:
                differing.append(name)

        print(f"{'run':<28} {'base exit':>9} {'base MB':>9} {'change exit':>11} {'change MB':>9}  result")
        plain = {}
        for name, cmd in runs:
            b, plain[name] = base.run(name, cmd), change.run(name, cmd)
            report(name, b, plain[name], differences(b, plain[name]))
        # a traced row: this checkout's plain run against its traced run
        for name, cmd in traced_runs:
            t = traced.run(name, cmd)
            diffs = differences(plain[name], t)
            if t["exit"] != 0 and t["exit"] == plain[name]["exit"]:
                diffs.insert(0, f"traced exit {t['exit']}")  # both failed alike
            report(f"{name} traced", plain[name], t, diffs)
        total = len(runs) + len(traced_runs)
        if differing:
            print(f"{len(differing)} of {total} runs differ: {', '.join(differing)}")
        else:
            print(f"all {total} runs identical")
        keep = bool(differing)
        return 1 if differing else 0
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", worktree], check=False)
        if keep:
            print(f"outputs kept in {work}")
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
