"""Loaders for the five input files.

All inputs are UTF-8 text. Tabular files are RFC-4180 CSV with a required
header row; both LF and CRLF line endings are accepted. Loading is
order-preserving and purely a function of file contents.

File formats:

* ``answers.csv``       header ``student_id,question_id,answer_text``
* ``model.csv``         header ``question_id,model_answer,weight``
* ``grades.csv``        header ``student_id,question_id,score``
* ``stopwords.txt``     one token per line, ``#`` starts a comment line
* ``normalization.csv`` header ``slang,formal``
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import EssayScoreError

ANSWERS_HEADER = ["student_id", "question_id", "answer_text"]
MODEL_HEADER = ["question_id", "model_answer", "weight"]
GRADES_HEADER = ["student_id", "question_id", "score"]
NORMALIZATION_HEADER = ["slang", "formal"]


@dataclass(frozen=True)
class RawEssay:
    """One student's unprocessed answer text to one question."""

    student_id: str
    question_id: str
    text: str


@dataclass(frozen=True)
class QuestionSpec:
    """A question's model answer and its weight (maximum points)."""

    question_id: str
    model_answer: str
    weight: float


@dataclass(frozen=True)
class HumanGrade:
    """The teacher's score for one (student, question) pair."""

    student_id: str
    question_id: str
    score: float


@dataclass(frozen=True)
class Lexicons:
    """Stopword set and slang-to-formal normalization map, all lowercase.

    The normalization map is applied once per token (no chaining), so a
    cycle among entries is harmless.
    """

    stopwords: frozenset[str] = field(default_factory=frozenset)
    normalization: dict[str, str] = field(default_factory=dict)


@contextmanager
def _open_input(path: Path):
    """Open an input file as UTF-8 text; a fault reading it raises an error naming it."""
    if not path.is_file():
        raise EssayScoreError(f"input file not found: {path}")
    # the csv module's default limit of 131,072 characters per field would
    # reject a long but legal essay (2**31 - 1 is the largest C long on every
    # platform); the limit is process-wide, so the caller's is restored
    old_limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except csv.Error as exc:
        raise EssayScoreError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise EssayScoreError(f"{path}: not valid UTF-8 ({exc})") from exc
    except OSError as exc:
        raise EssayScoreError(f"{path}: {exc.strerror}") from exc
    finally:
        csv.field_size_limit(old_limit)


def _data_rows(path: Path, header: list[str]) -> list[list[str]]:
    """Read a CSV file, check its header, and return the data rows."""
    with _open_input(path) as fh:
        rows = list(csv.reader(fh, strict=True))
    if not rows or rows[0] != header:
        raise EssayScoreError(
            f"{path}: expected header {','.join(header)!r}, "
            f"got {','.join(rows[0]) if rows else '<empty file>'!r}"
        )
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise EssayScoreError(
                f"{path}: line {i}: expected {len(header)} fields, got {len(row)}"
            )
    return rows[1:]


def _parse_number(text: str, path: Path, line: int, column: str) -> float:
    """A finite, nonnegative number from one cell, or an error naming its line."""
    try:
        value = float(text)
    except ValueError as exc:
        raise EssayScoreError(
            f"{path}: line {line}: {column} {text!r} is not a number"
        ) from exc
    if not math.isfinite(value):
        raise EssayScoreError(f"{path}: line {line}: {column} {text!r} is not finite")
    if value < 0:
        raise EssayScoreError(f"{path}: line {line}: {column} {value} is negative")
    return value


def _check_column_sum(values: list[float], path: Path, column: str) -> None:
    """Every value is finite; a column whose total is not would overflow the totals."""
    if math.isinf(sum(values)):
        raise EssayScoreError(f"{path}: {column} column sums past the largest float")


def load_answers(path: str | Path) -> list[RawEssay]:
    """Load the student answer corpus.

    Empty answer text is allowed (blank answers score zero downstream);
    empty identifiers and repeated (student_id, question_id) keys are not.
    """
    path = Path(path)
    essays: list[RawEssay] = []
    seen: set[tuple[str, str]] = set()
    for i, (student_id, question_id, text) in enumerate(
        _data_rows(path, ANSWERS_HEADER), start=2
    ):
        if not student_id or not question_id:
            raise EssayScoreError(f"{path}: line {i}: empty student_id or question_id")
        key = (student_id, question_id)
        if key in seen:
            raise EssayScoreError(f"{path}: line {i}: duplicate answer for {key}")
        seen.add(key)
        essays.append(RawEssay(student_id, question_id, text))
    return essays


def load_model(path: str | Path) -> list[QuestionSpec]:
    """Load the model answers and question weights."""
    path = Path(path)
    specs: list[QuestionSpec] = []
    seen: set[str] = set()
    for i, (question_id, model_answer, weight_text) in enumerate(
        _data_rows(path, MODEL_HEADER), start=2
    ):
        weight = _parse_number(weight_text, path, i, "weight")
        if not model_answer:
            raise EssayScoreError(f"{path}: line {i}: empty model answer")
        if question_id in seen:
            raise EssayScoreError(
                f"{path}: line {i}: duplicate question {question_id!r}"
            )
        seen.add(question_id)
        specs.append(QuestionSpec(question_id, model_answer, weight))
    _check_column_sum([q.weight for q in specs], path, "weight")
    return specs


def load_grades(path: str | Path) -> list[HumanGrade]:
    """Load the teacher's per-question grades."""
    path = Path(path)
    grades: list[HumanGrade] = []
    seen: set[tuple[str, str]] = set()
    for i, (student_id, question_id, score_text) in enumerate(
        _data_rows(path, GRADES_HEADER), start=2
    ):
        score = _parse_number(score_text, path, i, "score")
        key = (student_id, question_id)
        if key in seen:
            raise EssayScoreError(f"{path}: line {i}: duplicate grade for {key}")
        seen.add(key)
        grades.append(HumanGrade(student_id, question_id, score))
    _check_column_sum([g.score for g in grades], path, "score")
    return grades


def _check_single_token(entry: str, path: Path, line: int) -> str:
    if not entry or any(ch.isspace() for ch in entry):
        raise EssayScoreError(
            f"{path}: line {line}: {entry!r} must be a single whitespace-free token"
        )
    return entry.lower()


def load_lexicons(stopword_path: str | Path, normalization_path: str | Path) -> Lexicons:
    """Load the stopword list and the slang/typo normalization dictionary.

    All entries are case-folded to lowercase on load. Later normalization
    rows overwrite earlier ones with the same key.
    """
    stopword_path = Path(stopword_path)
    normalization_path = Path(normalization_path)
    stopwords: set[str] = set()
    with _open_input(stopword_path) as fh:
        for i, line in enumerate(fh, start=1):
            entry = line.strip()
            if not entry or entry.startswith("#"):
                continue
            stopwords.add(_check_single_token(entry, stopword_path, i))

    normalization: dict[str, str] = {}
    for i, (slang, formal) in enumerate(
        _data_rows(normalization_path, NORMALIZATION_HEADER), start=2
    ):
        key = _check_single_token(slang, normalization_path, i)
        normalization[key] = _check_single_token(formal, normalization_path, i)

    return Lexicons(stopwords=frozenset(stopwords), normalization=normalization)
