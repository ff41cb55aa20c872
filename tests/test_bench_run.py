"""The benchmark's traced full-size run is correct, the check CI's benchmark step makes.

So a change that stops calling a stage function the benchmark's tracer
wraps, or that changes any output, fails here too. It takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_reads_correct():
    command = [sys.executable, "bench/run.py", "--seconds", "0", "--trace", "1", "--seed", "0"]
    result = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True, result.stderr
