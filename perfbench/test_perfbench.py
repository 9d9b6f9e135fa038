"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracing import Recorder

HERE = Path(__file__).resolve().parent


def test_self_time_excludes_children():
    rec = Recorder("t")

    def outer():
        rec.call("leaf", time.sleep, 0.01)
        rec.call("leaf", time.sleep, 0.01)

    rec.call("outer", outer)
    summary = rec.summary()
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["callers"] == {"outer": 2}
    assert summary["outer"]["callers"] == {"": 1}
    children = summary["leaf"]["total_s"]
    assert abs(summary["outer"]["self_s"] - (summary["outer"]["total_s"] - children)) < 1e-9
    assert {s.run_id for s in rec.spans} == {"t"}


def test_smoke_books_report_every_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke ok")


def test_refuses_to_run_without_the_source_tree():
    bare = HERE.parent / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gp_flat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60, check=False,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
