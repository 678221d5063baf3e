"""The magnitude report and the code-line table of ``tools/compare_artifacts.py``."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import compare_artifacts  # noqa: E402


def run_dir(tmp_path, name, files):
    """A run record of ``differences`` whose output holds ``files``."""
    out = tmp_path / name
    out.mkdir()
    for rel, text in files.items():
        (out / rel).write_text(text)
    for stream in ("stdout", "stderr"):
        (tmp_path / f"{name}.{stream}").write_text("")
    return {"exit": 0, "stdout": str(tmp_path / f"{name}.stdout"), "stderr": str(tmp_path / f"{name}.stderr"), "out": str(out)}


def test_differing_csv_and_manifest_report_how_far_each_value_moved(tmp_path):
    manifest = {"scalars": {"last_change": 2.0, "iterations": 3}, "checks": [{"detail": "3 iterations"}]}
    base = run_dir(
        tmp_path,
        "base",
        {
            "convergence.csv": "iter,change\n1,0.5\n2,4.0\n",
            "verification.csv": "name,value\na,1.0\nb,x\n",
            "manifest.json": json.dumps(manifest),
            "timing.txt": "1 s",
        },
    )
    manifest["scalars"]["last_change"] = 2.5
    manifest["checks"][0]["detail"] = "4 iterations"
    change = run_dir(
        tmp_path,
        "change",
        {
            "convergence.csv": "iter,change\n1,0.75\n2,4.5\n",
            "verification.csv": "name,value\na,1.0\nb,y\n",
            "manifest.json": json.dumps(manifest),
            "timing.txt": "2 s",
        },
    )
    assert compare_artifacts.differences(base, change) == [
        "convergence.csv (change abs 0.5 at row 2 (2), rel 0.333 at row 1 (1))",
        "manifest.json (scalars.last_change abs 0.5, rel 0.2; checks[0].detail text)",
        "verification.csv (value text)",
    ]
    assert compare_artifacts.differences(base, base) == []


def source_tree(root, files):
    """A tree whose ``src/memsfde`` holds ``files``, name -> source text."""
    package = root / "src" / "memsfde"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text)
    return str(root)


def test_the_code_line_table_counts_both_trees(tmp_path):
    # code lines leave out blank lines, comments and docstrings; a file in
    # one tree only reads "-" in the other
    documented = 'def f():\n    """Doc\n    string."""\n    # a comment\n\n    return 1\n'
    base = source_tree(tmp_path / "base", {"kept.py": documented + "x = 1\n", "gone.py": "a = 1\nb = 2\n"})
    change = source_tree(tmp_path / "change", {"kept.py": documented, "new.py": "c = 3  # code\n"})
    assert compare_artifacts.code_lines(base, change) == [
        "code lines            base change",
        "src/memsfde/gone.py      2      -",
        "src/memsfde/kept.py      3      2",
        "src/memsfde/new.py       -      1",
        "total                    5      3",
    ]
