"""Smoke test of the benchmark harness, so it cannot rot unnoticed.

Runs every workload at toy size, untraced and traced, and asserts only that
every output passes its check and that ops ran.  No timing gates.

    python -m pytest bench/test_smoke.py
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def test_every_workload_correct_at_toy_size():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        cwd=RUN.parent.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == '{"smoke": "ok"}'
