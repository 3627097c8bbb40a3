"""The benchmark's span tracer must find every function it wraps.

``perfbench/spans.py`` looks traced functions up by module and name, and
reads the mitigation solver's ``full_output`` diagnostics; a renamed or
deleted function, or a changed diagnostics shape, would only surface as a
crash of a traced benchmark run. Installing the tracer in a fresh
interpreter catches that here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = f"""
import sys
import nlmagic
import nlmagic.cli
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import spans
tracer = spans.Tracer()
spans.install(tracer)
"""


def run_traced(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL + code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_span_tracer_installs_on_every_traced_function():
    run_traced("")


def test_traced_batched_mitigation_records_its_iterations():
    rows = 30
    out = run_traced(
        f"""
import json
import numpy as np
from nlmagic import mitigation, synth_calibration_matrix
lam = synth_calibration_matrix([[0.2, 0.3], [0.25, 0.35]], 0.05)
batch = np.random.default_rng(0).dirichlet(np.full(4, 0.5), size={rows})
p = mitigation.mitigate_least_squares(batch, lam)
_, info = mitigation.mitigate_least_squares(batch, lam, full_output=True)
print(json.dumps({{
    "shape": list(p.shape),
    "type": type(info["iterations"]).__name__,
    "counters": [value for _, value in tracer.counters],
}}))
"""
    )
    result = json.loads(out)
    assert result["shape"] == [rows, 4]
    assert result["type"] == "int"
    assert len(result["counters"]) == 2
    for value in result["counters"]:
        assert value == int(value) and value >= rows
