"""perfbench's smoke run: every workload at a tiny size, traced and untraced.

The benchmark calls and wraps names of the package (``World.step``,
``AirspaceGrid.obstacles_in_cell``, ...), so a refactor that breaks one of
them fails here and not only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert '"smoke_ok": true' in proc.stdout, proc.stdout
