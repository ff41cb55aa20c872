"""Golden outputs: the seed-0 runs of ``tests/golden.py`` match ``tests/golden.json``.

They match in this process, through the entry point, and in a child pinned
to one CPU under a fixed hash seed.
"""

import os
import subprocess
import sys

import pytest

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


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity")
def test_seed_0_runs_on_one_cpu_under_a_fixed_hash_seed():
    """The path that scores every question in one process gives the golden outputs."""
    # the child pins itself, then becomes golden.py, which keeps the pin
    pin_then_run = (
        "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
        "os.execv(sys.executable, [sys.executable, *sys.argv[1:]])"
    )
    result = subprocess.run(
        [sys.executable, "-c", pin_then_run, golden.__file__, "--seed", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": "1"}, timeout=300,
    )
    assert (result.returncode, result.stderr) == (0, "")
