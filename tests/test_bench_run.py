"""The benchmark's traced full-size runs are correct on the seed-0 and the seed-1 corpora.

A traced run alternates untraced commands with traced ones and checks each,
so a change that stops calling a stage the tracer wraps, or changes any
output, fails here. Only an untraced run starts ``--help`` children; CI runs one.
"""

import json
import subprocess
import sys

import pytest

from conftest import ROOT


@pytest.mark.parametrize("seed", [0, 1])
def test_traced_run_reads_correct(seed):
    command = [sys.executable, "bench/run.py", "--seconds", "0", "--trace", "1", "--seed", str(seed)]
    result = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True, result.stderr
