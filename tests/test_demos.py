"""Every script in ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxcorr as mx

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(mx.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
