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
similarity per answer per cell is kept, and each answer's index in its
question's packed array, 8 bytes an answer. A cell's records are built
when they are read, from the answers' ids and the question weights
alone, so a caller that drops the answers before reading the first cell
builds every record after the answer texts are gone.

Each gram of a question goes through a per-size dict that maps it to its
first instance, so equal grams share one str and a repeated gram costs
one pointer. The fit then counts into that same dict, which becomes the
vocabulary's idf table, so each size builds one term table, not two. A
question's tokens are kept for its later sizes only when there are any,
passed through such a dict the same way. At its peak a question holds one
pointer per gram and kept token, one string per distinct gram and token,
and one term table.
A dict is used rather than sys.intern because interned strings outlive
the question: after 200,000 of them are released, CPython 3.12.1 still
holds 21.8 of their 23.4 MiB, and 3.11 and 3.13 keep a 7.3 MiB table.

Questions share nothing once their model answers are checked, so they are
scored in parallel: one share of questions per CPU this process may use
(its affinity mask, capped by its cgroup's CPU quota), balanced by answer
text, the first scored here and each other one in a forked child. Every
similarity has its own slot in memory shared with the children, so each
process writes its values in place, bit for bit, and outputs do not depend
on the CPU count. A share whose fork fails is scored
here too. A corpus with less answer text than _PARALLEL_MIN_CHARS, a
platform without fork, and a process running other Python threads are
scored here alone.
Children are forked, not spawned: a fork shares the loaded corpus and costs
milliseconds, while a fresh interpreter would re-import the package and
receive every answer pickled.
"""

import math
import mmap
import os
import sys
import warnings
from array import array
from collections import defaultdict, namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, repeat
from pathlib import Path

from .errors import EssayScoreError
from .ingest import QuestionSpec, RawEssay, _where
from .ngrams import _check_ngram_size, extract_ngrams
from .preprocess import Lexicons, preprocess_pipeline
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

    Records come back in the answers' original order. An answer to a
    question not in ``questions`` is an error, as is an answered model
    answer that preprocesses to no tokens, since every answer to it would
    score 0; either names the row's file and line if a loader read it.

    ``cells``, a sequence of (metric, n) pairs, scores all of them in one
    pass and returns an iterator that yields each cell's records in turn;
    without it the one cell ``metric``, ``n`` is scored and its records
    returned. Either way every cell is checked and every question scored
    before the call returns. Questions may be scored in forked child
    processes (see the module docstring); the records are the same.
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
    # packed, an index costs 8 bytes, not a pointer and a 28-byte int
    by_question: defaultdict[str, array] = defaultdict(lambda: array("L"))
    for i, answer in enumerate(answers):
        if answer.question_id not in specs:
            source = _where(questions)
            raise EssayScoreError(
                f"{_where(answers, i)}answer {answer.student_id!r} refers to unknown question "
                f"{answer.question_id!r}" + (f" (not in {source})" if source else "")
            )
        by_question[answer.question_id].append(i)

    # every model answer is checked before any question is scored or any
    # child forked
    model_tokens = {}
    for question_id in by_question:
        tokens = preprocess_pipeline(specs[question_id].model_answer, lexicons)
        if not tokens:
            k = [q.question_id for q in questions].index(question_id)
            raise EssayScoreError(
                f"{_where(questions, k)}question {question_id!r}: "
                "model answer has no terms after preprocessing"
            )
        model_tokens[question_id] = tokens

    # one similarity per answer per cell, in an anonymous mapping, which a
    # forked child shares; a mapping may not be empty, so it has at least one
    # slot. A cell's records are built when read.
    count = len(answers)
    shared = memoryview(mmap.mmap(-1, 8 * max(len(cells) * count, 1))).cast("d")
    sims = [shared[c * count : (c + 1) * count] for c in range(len(cells))]

    def score_share(share: list[str]) -> None:
        """Write the similarities of the share's questions into ``sims``."""
        for q in share:
            _score_question(
                model_tokens.pop(q), answers, by_question[q], sims, lexicons, by_size, log_base
            )

    text_chars = {q: sum(len(answers[i].text) for i in ids) for q, ids in by_question.items()}
    _score_shares(
        _shares(text_chars, _worker_count(sum(text_chars.values()), len(text_chars))),
        score_share,
    )
    del by_question  # its answer indices go before the records are built

    # the records read only the answers' ids, so a caller that drops the
    # answers frees their texts before the first record is built
    student_ids = [a.student_id for a in answers]
    question_ids = [a.question_id for a in answers]
    records = (
        [
            ScoreRecord(student_id, question_id, sim, sim * specs[question_id].weight)
            for student_id, question_id, sim in zip(student_ids, question_ids, cell_sims)
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


# a corpus with less answer text than this is scored in one process; below
# it, forking costs more than the second CPU saves (measured on 2 CPUs)
_PARALLEL_MIN_CHARS = 150_000


def _score_question(
    model_tokens: list[str],
    answers: Sequence[RawEssay],
    ids: Sequence[int],
    sims: list[memoryview],
    lexicons: Lexicons,
    by_size: dict[int, list[tuple[int, Callable]]],
    log_base: float,
) -> None:
    """Score one question's answers, ``answers[i]`` for each ``i`` in ``ids``.

    The similarity of answer ``i`` in cell ``c`` goes to ``sims[c][i]``.
    ``by_size`` maps each n-gram size to the (cell index, similarity) pairs
    scored at it.
    """
    texts = (answers[i].text for i in ids)
    token_lists = chain([model_tokens], (preprocess_pipeline(text, lexicons) for text in texts))
    if len(by_size) > 1:
        # every size reads the tokens, so equal tokens share one str
        first: dict[str, str] = {}
        token_lists = [list(map(first.setdefault, tokens, tokens)) for tokens in token_lists]
    for size, scorers in by_size.items():
        # each gram maps to its first instance, so equal grams share one str;
        # the fit counts into this table, which lives on as vocab.idf
        first = {}
        docs = [
            list(map(first.setdefault, grams, grams))
            for grams in map(extract_ngrams, token_lists, repeat(size))
        ]
        vocab = fit_vocabulary(docs, log_base=log_base, _terms=first)
        # the model vector is scaled and normed once, not once per answer
        q_vec = _prepare_query(transform(docs[0], vocab))
        for i, grams in zip(ids, docs[1:]):
            d_vec = transform(grams, vocab)
            for c, similarity in scorers:
                sims[c][i] = similarity(d_vec, q_vec)
        # drop these grams before the next size's are built
        del docs, vocab


# where the cgroup file system is mounted; a container sees its own cgroup here
_CGROUP = Path("/sys/fs/cgroup")


def _usable_cpus() -> int:
    """How many CPUs this process may run on, capped by a cgroup CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return min(cpus, math.ceil(quota)) if quota else cpus


def _cpu_quota() -> float | None:
    """The CPUs' worth of time the cgroup allows per period; None if unlimited or unread.

    cgroup v2 keeps "quota period" in cpu.max, with quota "max" for none; v1
    keeps the quota in cpu/cpu.cfs_quota_us, -1 for none, and the period in
    cpu/cpu.cfs_period_us. The first version whose files read is parsed, and
    text that is not two integers gives None.
    """
    for names in (["cpu.max"], ["cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us"]):
        try:
            text = " ".join((_CGROUP / name).read_text() for name in names)
            quota, period = map(int, text.split())
        except OSError:  # not this cgroup version's files
            continue
        except ValueError:
            return None
        return quota / period if quota > 0 and period > 0 else None
    return None


def _worker_count(text_chars: int, questions: int) -> int:
    """How many processes score ``questions`` questions of ``text_chars`` answer text."""
    threading = sys.modules.get("threading")
    if (
        text_chars < _PARALLEL_MIN_CHARS
        or not hasattr(os, "fork")
        # another thread may hold a lock, such as stderr's, that a child needs
        or (threading is not None and threading.active_count() > 1)
    ):
        return 1
    return max(1, min(_usable_cpus(), questions))


def _shares(text_chars: dict[str, int], count: int) -> list[list[str]]:
    """Split the questions into ``count`` shares of about equal answer text.

    The longest question first, ties in the order given, each question joins
    the share with the least text so far, the first such share on a tie.
    """
    shares: list[list[str]] = [[] for _ in range(count)]
    loads = [0] * count
    for question_id in sorted(text_chars, key=text_chars.__getitem__, reverse=True):
        k = loads.index(min(loads))
        shares[k].append(question_id)
        loads[k] += text_chars[question_id]
    return shares


def _score_shares(shares: list[list[str]], score_share: Callable[[list[str]], None]) -> None:
    """Run ``score_share`` on each share: the first here, each other in a forked child.

    A share whose fork fails, as when no process is left, is scored here
    after the first. A child exits 0 only once its whole share is written,
    so any other exit status is an error. No child outlives the call: on
    any error, each one not yet reaped is killed and reaped.
    """
    here = shares[:1]
    children = []  # (pid, share) of each child not yet reaped
    try:
        for share in shares[1:]:
            try:
                with warnings.catch_warnings():
                    # CPython 3.12+ warns when any other thread exists; no other
                    # Python thread runs here (see _worker_count), so any other is
                    # native, such as a BLAS pool, and holds no lock a child takes
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                here.append(share)
                continue
            if pid == 0:
                _child(share, score_share)
            children.append((pid, share))
        for share in here:
            score_share(share)
        while children:
            pid, share = children[0]
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status:
                raise EssayScoreError(
                    f"scoring questions {', '.join(map(repr, share))} in a child process "
                    f"failed: exit status {status}"
                )
    finally:
        if children:
            import signal  # only a failed run needs it

            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(share: list[str], score_share: Callable[[list[str]], None]) -> None:
    """Score ``share`` in a forked child and exit; never returns."""
    status = 1
    try:
        try:
            score_share(share)
            status = 0
        except BaseException:
            import traceback  # only a failed child needs it

            traceback.print_exc()
            sys.stderr.flush()
    finally:
        # leave without running the caller's cleanup or flushing copied buffers
        os._exit(status)
