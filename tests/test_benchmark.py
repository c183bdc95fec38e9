"""The benchmark harness against the library it traces.

The tracer reads the kernels and solvers by name, so a rename in the
library breaks traced runs; one short traced run guards that coupling.
Its outputs go to the git-ignored ``.bench_out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_design_audit_runs():
    argv = ["perfbench/run.py", "--workload", "design-audit", "--seed", "1", "--seconds", "1", "--trace", "1"]
    run = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
