"""Shared fixtures: paths to the bundled corpus, common loads and forced workers."""

import os
from pathlib import Path

import pytest

from essayscore import load_answers, load_grades, load_lexicons, load_model, scoring

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus(data_dir):
    """(answers, questions, grades, lexicons) from the bundled corpus."""
    return (
        load_answers(data_dir / "answers.csv"),
        load_model(data_dir / "model.csv"),
        load_grades(data_dir / "grades.csv"),
        load_lexicons(data_dir / "stopwords.txt", data_dir / "normalization.csv"),
    )


def cli_args(data_dir: Path, out: Path, *extra: str, grades: bool = False) -> list[str]:
    """Standard CLI argument list pointing at the bundled corpus."""
    args = [
        "--answers", str(data_dir / "answers.csv"),
        "--model", str(data_dir / "model.csv"),
        "--stopwords", str(data_dir / "stopwords.txt"),
        "--normalization", str(data_dir / "normalization.csv"),
        "--out", str(out),
    ]
    if grades:
        args += ["--grades", str(data_dir / "grades.csv")]
    return args + list(extra)


class Workers:
    """Sets how many CPUs scoring sees, with no minimum of answer text, and counts forks."""

    def __init__(self, monkeypatch):
        self.forks = 0
        self._monkeypatch = monkeypatch
        fork = os.fork

        def counting():
            self.forks += 1
            return fork()

        monkeypatch.setattr(os, "fork", counting)
        monkeypatch.setattr(scoring, "_PARALLEL_MIN_CHARS", 0)

    def cpus(self, count: int) -> None:
        self._monkeypatch.setattr(scoring, "_usable_cpus", lambda: count)


@pytest.fixture
def workers(monkeypatch):
    """A ``Workers``; the test fails unless every child it forked has been reaped."""
    yield Workers(monkeypatch)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
