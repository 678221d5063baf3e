#!/usr/bin/env python3
"""Compare the CLI output of this checkout with that of a base git revision.

    python3 tools/compare_artifacts.py [--base REV] [--seeds 7 11 37]

The runs are the ones a pure refactor must leave byte-identical:

- every ``configs/*.cfg`` of this checkout, run with its ``problem``;
- ``selftest --out``;
- each benchmark workload's config (``perfbench/workloads.py``, imported
  read-only) at every ``--seeds`` value.

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


class Tree:
    """One source tree and the directory its runs write into."""

    def __init__(self, label: str, root: str, work: str):
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
        """Run ``memsfde.cli`` with ``argv --out <name>`` in this tree's
        directory; the output path is relative, so both trees print it alike."""
        out = os.path.join(self.dir, name)
        stdout_path, stderr_path = out + ".stdout", out + ".stderr"
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "memsfde.cli", *argv, "--out", name],
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
        runs = config_runs(ROOT) + [("selftest", ["selftest"])] + workload_runs(ROOT, args.seeds, config_dir)
        base, change = Tree("base", worktree, work), Tree("change", ROOT, work)

        differing = []
        print(f"{'run':<24} {'base exit':>9} {'base MB':>9} {'change exit':>11} {'change MB':>9}  result")
        for name, cmd in runs:
            b, c = base.run(name, cmd), change.run(name, cmd)
            diffs = differences(b, c)
            verdict = "identical" if not diffs else "DIFFERS: " + ", ".join(diffs)
            print(f"{name:<24} {b['exit']:>9} {b['rss_mb']:>9.1f} {c['exit']:>11} {c['rss_mb']:>9.1f}  {verdict}")
            sys.stdout.flush()
            if diffs:
                differing.append(name)
        if differing:
            print(f"{len(differing)} of {len(runs)} runs differ: {', '.join(differing)}")
        else:
            print(f"all {len(runs)} runs identical")
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
