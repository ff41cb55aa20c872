"""Golden outputs: the seed-0 runs of ``tests/golden.py`` match ``tests/golden.json``."""

import os
import subprocess
import sys

import golden


def test_seed_0_runs_match_the_golden_file():
    problems = golden.differences(golden.outcomes(0), golden.load())
    assert not problems, "\n".join(problems)


def test_data_runs_through_the_entry_point_match_the_golden_file():
    problems = golden.differences(golden.outcomes(0, child=True), golden.load())
    assert not problems, "\n".join(problems)


def test_runs_from_a_checkout_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, golden.__file__, "--help"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("usage: golden.py")
