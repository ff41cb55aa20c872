"""Golden outputs: the seed-0 runs of ``tests/golden.py`` match ``tests/golden.json``."""

import golden


def test_seed_0_runs_match_the_golden_file():
    problems = golden.differences(golden.outcomes(0), golden.load())
    assert not problems, "\n".join(problems)


def test_data_runs_through_the_entry_point_match_the_golden_file():
    problems = golden.differences(golden.outcomes(0, child=True), golden.load())
    assert not problems, "\n".join(problems)
