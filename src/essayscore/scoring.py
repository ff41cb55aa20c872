"""Turn per-question similarities into student scores.

For each question, the idf corpus is the model answer plus every student
answer to that same question, so idf reflects which terms discriminate
within the question and the model answer's terms are always in
vocabulary. A question's points are similarity times the question's
weight; a student's total is the sum over questions. No rounding happens
here - values stay full precision until report emission.

Several (metric, n) cells are scored in one pass, one question at a time.
A question's documents are preprocessed once. At each n-gram size its
vocabulary is fitted once and each answer transformed once, and every
metric at that size reads the same vector. Across questions only one
similarity per answer per cell is kept; a cell's records are built when
they are read.

Each gram of a question goes through a per-size dict that maps it to its
first instance, so equal grams share one str and a repeated gram costs
one pointer; the dict is dropped before the fit. A question's tokens are
kept for its later sizes only when there are any, passed through such a
dict the same way. At its peak a question holds one pointer per gram and
kept token, one string per distinct gram and token, and one term table.
A dict is used rather than sys.intern because interned strings outlive
the question: after 200,000 of them are released, CPython 3.12.1 still
holds 21.8 of their 23.4 MiB, and 3.11 and 3.13 keep a 7.3 MiB table.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
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
    cells: Sequence[tuple[str, int]] | None = None,
) -> list[ScoreRecord] | Iterator[list[ScoreRecord]]:
    """Score every answer in a corpus, fitting one vocabulary per question.

    Records come back in the answers' original order. A model answer that
    preprocesses to no tokens is an error naming its question, since every
    answer to it would score 0.

    ``cells``, a sequence of (metric, n) pairs, scores all of them in one
    pass and returns an iterator that yields each cell's records in turn;
    without it the one cell ``metric``, ``n`` is scored and its records
    returned. Either way every cell is checked and every question scored
    before the call returns.
    """
    grid = cells is not None
    cells = list(cells) if grid else [(metric, n)]
    # each n-gram size maps to the (cell index, similarity) pairs scored at it
    by_size: dict[int, list[tuple[int, Callable]]] = {}
    for c, (cell_metric, size) in enumerate(cells):
        similarity = SIMILARITY_METRICS.get(cell_metric)
        if similarity is None:
            raise EssayScoreError(
                f"metric must be one of {tuple(SIMILARITY_METRICS)}, got {cell_metric!r}"
            )
        _check_ngram_size(size)
        by_size.setdefault(size, []).append((c, similarity))
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

    # one similarity per answer per cell; a cell's records are built when read
    sims = [array("d", bytes(8 * len(answers))) for _ in cells]
    for question_id, indices in by_question.items():
        model_tokens = preprocess_pipeline(specs[question_id].model_answer, lexicons)
        if not model_tokens:
            raise EssayScoreError(
                f"question {question_id!r}: model answer has no terms after preprocessing"
            )
        token_lists = chain(
            [model_tokens], (preprocess_pipeline(answers[i].text, lexicons) for i in indices)
        )
        if len(by_size) > 1:
            # every size reads the tokens, so equal tokens share one str
            first: dict[str, str] = {}
            token_lists = [list(map(first.setdefault, tokens, tokens)) for tokens in token_lists]
            del first
        for size, scorers in by_size.items():
            # each gram maps to its first instance, so equal grams share one str;
            # the table goes before the fit, which builds the question's term table
            first = {}
            docs = [
                list(map(first.setdefault, grams, grams))
                for grams in map(extract_ngrams, token_lists, repeat(size))
            ]
            del first
            vocab = fit_vocabulary(docs, log_base=log_base)
            # the model vector is scaled and normed once, not once per answer
            q_vec = _prepare_query(transform(docs[0], vocab))
            for i, grams in zip(indices, docs[1:]):
                d_vec = transform(grams, vocab)
                for c, similarity in scorers:
                    sims[c][i] = similarity(d_vec, q_vec)
            # drop these grams before the next size's or question's are built
            del docs, vocab
        del token_lists  # and any kept tokens before the next question's

    records = (
        [
            ScoreRecord(a.student_id, a.question_id, sim, sim * specs[a.question_id].weight)
            for a, sim in zip(answers, cell_sims)
        ]
        for cell_sims in sims
    )
    return records if grid else next(records)


def aggregate_totals(records: Sequence[ScoreRecord]) -> list[StudentScore]:
    """Per-student totals, in order of each student's first record."""
    grouped: dict[str, list[float]] = {}
    for record in records:
        grouped.setdefault(record.student_id, []).append(record.points)
    return [StudentScore(sid, math.fsum(points)) for sid, points in grouped.items()]
