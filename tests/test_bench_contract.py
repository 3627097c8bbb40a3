"""The benchmark's span tracer must find every function it wraps.

``perfbench/spans.py`` looks traced functions up by module and name; a
renamed or deleted one would only surface as a crash of a traced benchmark
run. Installing the tracer in a fresh interpreter catches that here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = f"""
import sys
import nlmagic
import nlmagic.cli
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import spans
spans.install(spans.Tracer())
"""


def test_span_tracer_installs_on_every_traced_function():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
