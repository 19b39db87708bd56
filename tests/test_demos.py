"""The demo scripts run to completion and print their headline results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarsehom

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, line", [
    ("hexagon_walkthrough.py", "colimit stabilizes at scale 3"),
    ("flasque_half_line.py", "half_line(20) homology stabilizes at scale 20: Z, 0"),
    ("document_pipeline.py", "results.components[0]: [a1, a2, b1, b2, c1]"),
])
def test_demo_runs(script, line):
    # the child imports the same package this process imports, installed or not
    src = os.path.dirname(os.path.dirname(coarsehom.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
