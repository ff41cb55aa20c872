"""The benchmark's full-size runs are correct: two of the four checks CI's benchmark step makes.

One run is traced on the seed-0 corpora, the other untraced on the seed-1
corpora. So a change that stops calling a stage function the benchmark's
tracer wraps, or that changes any output, fails here too. Each takes a few
seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    """The last line's JSON object and the stderr of a ``bench/run.py`` run with ``args``."""
    command = [sys.executable, "bench/run.py", *args]
    result = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1]), result.stderr


def test_traced_run_reads_correct():
    last, stderr = _run("--seconds", "0", "--trace", "1", "--seed", "0")
    assert last["correct"] is True, stderr


def test_untraced_run_on_the_other_corpus_reads_correct():
    last, stderr = _run("--seconds", "0", "--trace", "0", "--seed", "1")
    assert last["correct"] is True, stderr
