"""Self-tests for the benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import random
import time

import pytest

from checks import check_oracle, load_oracle
from corpus import Shape, make_lexicon, surface, write_corpus
from essayscore import case_fold, clean_text
from run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, WORKLOADS, Launcher, Run, measure

@pytest.fixture
def launcher():
    with Launcher() as launcher:
        yield launcher


TINY = Shape(students=5, questions=3, answer_words=30, model_words=20, vocabulary=300)


def corpus_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_corpora(tmp_path):
    write_corpus(tmp_path / "a", TINY, seed=7)
    write_corpus(tmp_path / "b", TINY, seed=7)
    write_corpus(tmp_path / "c", TINY, seed=8)
    assert corpus_bytes(tmp_path / "a") == corpus_bytes(tmp_path / "b")
    different = corpus_bytes(tmp_path / "c")
    assert all(different[name] != data for name, data in corpus_bytes(tmp_path / "a").items())


def test_tokens_survive_cleaning_apart_from_capitals_and_punctuation():
    rng = random.Random(3)
    lexicon = make_lexicon(rng, TINY)
    words = lexicon.content + lexicon.stopwords + list(lexicon.slang)
    assert all(w.isascii() and w.isalpha() and w.islower() for w in words)
    tokens = [rng.choice(words) for _ in range(2000)]
    text = surface(rng, tokens)
    assert case_fold(clean_text(text)).split() == tokens
    # the surface noise is really there for the pipeline to remove
    assert text.lower() != text
    assert any(ch in text for ch in ",.;:!?()\"'\n")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_corpus_matches_oracle(name, tmp_path, launcher):
    run = Run(WORKLOADS[name], seed=1, work=tmp_path, deadline=time.monotonic() + 120, launcher=launcher)
    run.check_small()
    assert run.problems == []
    assert (run.attempted, run.failed) == (1, 0)


def test_oracle_check_catches_a_wrong_score(tmp_path, launcher):
    workload = WORKLOADS["score_short"]
    run = Run(workload, seed=1, work=tmp_path, deadline=time.monotonic() + 120, launcher=launcher)
    run.check_small()
    scores = tmp_path / "small_out" / "scores.csv"
    lines = scores.read_text(encoding="utf-8").splitlines(keepends=True)
    sid, qid, _, points = lines[1].rstrip("\r\n").split(",")
    lines[1] = f"{sid},{qid},0.9999,{points}\r\n"
    scores.write_text("".join(lines), encoding="utf-8")
    problems = check_oracle(load_oracle(ROOT), "score", workload.config, tmp_path / "small", scores.parent)
    assert problems and problems[0].startswith(f"{sid},{qid}")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(name, trace, tmp_path, launcher):
    workload = WORKLOADS[name]
    tiny = dataclasses.replace(workload, shape=workload.small)
    result, details = measure(tiny, seed=2, seconds=0.0, trace=trace, work=tmp_path, launcher=launcher)
    assert details["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["ingest.loads"] == (6 if workload.command == "compare" else 1)
        assert metrics["vsm.fit_vocabulary.calls"] == metrics["ingest.loads"] * workload.shape.questions


def test_traced_run_fails_when_a_span_records_no_calls(tmp_path, launcher):
    workload = WORKLOADS["score_short"]
    strict = dataclasses.replace(
        workload, shape=workload.small, spans=workload.spans | {"similarity.jaccard"}
    )
    result, details = measure(strict, seed=2, seconds=0.0, trace=True, work=tmp_path, launcher=launcher)
    assert not result["correct"]
    assert "similarity.jaccard" in details["problems"][0]


def test_peak_rss_is_the_commands_own(tmp_path):
    # a forked child's ru_maxrss starts at its parent's peak; the launcher
    # keeps the benchmark's own peak out of the figures
    ballast = b"x" * (150 * 2**20)
    with Launcher() as launcher:
        got = launcher.spawn(["-c", "pass"], tmp_path / "out", tmp_path / "err", timeout=60)
    del ballast
    assert got.status == 0
    assert got.peak_rss_mb < 100
