"""Turn per-question similarities into student scores.

For each question, the idf corpus is the model answer plus every student
answer to that same question, so idf reflects which terms discriminate
within the question and the model answer's terms are always in
vocabulary. A question's points are similarity times the question's
weight; a student's total is the sum over questions. No rounding happens
here - values stay full precision until report emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import EssayScoreError
from .ingest import Lexicons, QuestionSpec, RawEssay
from .ngrams import VALID_NGRAM_SIZES, extract_ngrams
from .preprocess import preprocess_pipeline
from .similarity import SIMILARITY_METRICS
from .vsm import _check_log_base, fit_vocabulary, transform


@dataclass(frozen=True)
class ScoreRecord:
    """System similarity and points for one (student, question) pair."""

    student_id: str
    question_id: str
    similarity: float
    points: float


@dataclass(frozen=True)
class StudentScore:
    """One student's total points over all scored questions."""

    student_id: str
    total: float


def score_corpus(
    answers: Sequence[RawEssay],
    questions: Sequence[QuestionSpec],
    lexicons: Lexicons,
    *,
    metric: str = "cosine",
    n: int = 1,
    log_base: float = math.e,
) -> list[ScoreRecord]:
    """Score every answer in a corpus, fitting one vocabulary per question.

    Records come back in the answers' original order. A model answer that
    preprocesses to no tokens is an error naming its question, since every
    answer to it would score 0. Each document is preprocessed once: a
    question's gram lists feed both its vocabulary fit and its transforms,
    and are released before the next question.
    """
    similarity = SIMILARITY_METRICS.get(metric)
    if similarity is None:
        raise EssayScoreError(f"metric must be one of {tuple(SIMILARITY_METRICS)}, got {metric!r}")
    if n not in VALID_NGRAM_SIZES:
        raise EssayScoreError(f"n-gram size must be one of {VALID_NGRAM_SIZES}, got {n!r}")
    _check_log_base(log_base)
    specs = {q.question_id: q for q in questions}
    by_question: dict[str, list[int]] = {}
    for i, answer in enumerate(answers):
        if answer.question_id not in specs:
            raise EssayScoreError(
                f"answer {answer.student_id!r} refers to unknown question "
                f"{answer.question_id!r}"
            )
        by_question.setdefault(answer.question_id, []).append(i)

    records: list[ScoreRecord] = [None] * len(answers)  # type: ignore[list-item]
    for question_id, indices in by_question.items():
        question = specs[question_id]
        model_tokens = preprocess_pipeline(question.model_answer, lexicons)
        if not model_tokens:
            raise EssayScoreError(
                f"question {question_id!r}: model answer has no terms after preprocessing"
            )
        docs = [
            extract_ngrams(model_tokens, n),
            *(extract_ngrams(preprocess_pipeline(answers[i].text, lexicons), n) for i in indices),
        ]
        vocab = fit_vocabulary(docs, log_base=log_base)
        q_vec = transform(docs[0], vocab)
        for i, grams in zip(indices, docs[1:]):
            sim = similarity(transform(grams, vocab), q_vec)
            answer = answers[i]
            records[i] = ScoreRecord(
                answer.student_id, question_id, sim, sim * question.weight
            )
        # drop this question's grams before the next question's are built
        del docs, vocab
    return records


def aggregate_totals(records: Sequence[ScoreRecord]) -> list[StudentScore]:
    """Per-student totals, in order of each student's first record."""
    grouped: dict[str, list[float]] = {}
    for record in records:
        grouped.setdefault(record.student_id, []).append(record.points)
    return [StudentScore(sid, math.fsum(points)) for sid, points in grouped.items()]
