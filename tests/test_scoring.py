"""Scoring tests: per-question records, aggregation, and reproducibility."""

import errno
import faulthandler
import gc
import math
import os
import random
import signal
import string
import sys
import threading
import time
import tracemalloc
import warnings

import pytest

from essayscore import scoring, similarity
from essayscore import (
    EssayScoreError,
    Lexicons,
    QuestionSpec,
    RawEssay,
    ScoreRecord,
    StudentScore,
    aggregate_totals,
    extract_ngrams,
    load_answers,
    load_lexicons,
    load_model,
    preprocess_pipeline,
    score_corpus,
)

EMPTY = Lexicons()


def make_question(weight=20.0, text="pancasila dasar negara indonesia"):
    return QuestionSpec("q1", text, weight)


def score_one(answer, question, peers, metric="cosine", n=1):
    """The record of ``answer`` when its question's answers are scored."""
    records = score_corpus(peers, [question], EMPTY, metric=metric, n=n)
    return next(r for r in records if r.student_id == answer.student_id)


class TestOneQuestion:
    """Values for one question's answers, scored through score_corpus."""

    def test_identical_answer_earns_full_weight(self):
        question = make_question(weight=20.0)
        answer = RawEssay("s1", "q1", question.model_answer)
        peers = [answer, RawEssay("s2", "q1", "tidak tahu")]
        record = score_one(answer, question, peers, metric="cosine", n=1)
        assert record.similarity == pytest.approx(1.0, abs=1e-12)
        assert record.points == pytest.approx(20.0, abs=1e-9)

    def test_blank_answer_scores_zero(self):
        question = make_question(weight=20.0)
        answer = RawEssay("s1", "q1", "")
        peers = [answer, RawEssay("s2", "q1", "dasar negara")]
        for metric in ("cosine", "jaccard"):
            record = score_one(answer, question, peers, metric=metric)
            assert record.similarity == 0.0
            assert record.points == 0.0

    def test_cosine_matches_frozen_oracle_value(self):
        # Hand-checkable case, cross-computed with tests/oracle.py: corpus of
        # the model answer plus two answers; every term except "jakarta"
        # (which appears in all three documents) gets idf ln(3/2), leaving
        # cos = 2 / sqrt(6).
        question = QuestionSpec("q1", "ibu kota indonesia jakarta", 10.0)
        answer = RawEssay("s1", "q1", "jakarta ibu kota")
        peers = [answer, RawEssay("s2", "q1", "indonesia jakarta")]
        record = score_one(answer, question, peers, metric="cosine", n=1)
        assert record.similarity == pytest.approx(0.8164965809277261, abs=1e-12)
        assert record.similarity == pytest.approx(2 / math.sqrt(6), abs=1e-12)
        assert record.points == pytest.approx(8.16496580927726, abs=1e-12)

    def test_jaccard_matches_frozen_oracle_value(self):
        # Same corpus as above: key sets {ibu, kota} vs {ibu, kota, indonesia}.
        question = QuestionSpec("q1", "ibu kota indonesia jakarta", 10.0)
        answer = RawEssay("s1", "q1", "jakarta ibu kota")
        peers = [answer, RawEssay("s2", "q1", "indonesia jakarta")]
        record = score_one(answer, question, peers, metric="jaccard", n=1)
        assert record.similarity == pytest.approx(2 / 3, abs=1e-12)
        assert record.points == pytest.approx(20 / 3, abs=1e-12)

    def test_doubling_weight_doubles_points(self):
        answer = RawEssay("s1", "q1", "dasar negara")
        peers = [answer, RawEssay("s2", "q1", "pancasila")]
        single = score_one(answer, make_question(weight=10.0), peers)
        double = score_one(answer, make_question(weight=20.0), peers)
        assert double.similarity == single.similarity
        assert double.points == pytest.approx(2 * single.points, abs=1e-12)


class TestScoreCorpus:
    @pytest.mark.parametrize("model_answer", ["...", "yang dan", "2024"])
    def test_model_answer_without_terms_rejected(self, model_answer):
        lexicons = Lexicons(stopwords=frozenset({"yang", "dan"}))
        questions = [make_question(), QuestionSpec("q2", model_answer, 10.0)]
        answers = [RawEssay("s1", "q1", "dasar negara"), RawEssay("s1", "q2", "pancasila")]
        with pytest.raises(EssayScoreError) as exc:
            score_corpus(answers, questions, lexicons)
        assert str(exc.value) == "question 'q2': model answer has no terms after preprocessing"

    def test_model_answer_shorter_than_n_scores_zero(self):
        # one token has no bigram, but it is a term, so the question is scored
        question = make_question(text="pancasila")
        answers = [RawEssay("s1", "q1", "pancasila dasar"), RawEssay("s2", "q1", "pancasila")]
        records = score_corpus(answers, [question], EMPTY, n=2)
        assert [r.similarity for r in records] == [0.0, 0.0]

    def test_bit_identical_across_runs(self, corpus):
        answers, questions, _, lexicons = corpus
        first = score_corpus(answers, questions, lexicons, metric="cosine", n=2)
        second = score_corpus(answers, questions, lexicons, metric="cosine", n=2)
        assert first == second

    def test_unknown_question_rejected(self):
        with pytest.raises(EssayScoreError, match="unknown question 'q9'"):
            score_corpus(
                [RawEssay("s1", "q9", "x")], [make_question()], EMPTY
            )

    @pytest.mark.parametrize("loaded", [True, False], ids=["loaded", "plain"])
    def test_an_error_about_a_loaded_row_names_its_file_and_line(
        self, data_dir, tmp_path, loaded
    ):
        """Line 3 of each file is s1's answer to q2 and q2's model answer."""
        lexicons = load_lexicons(data_dir / "stopwords.txt", data_dir / "normalization.csv")
        answers_text = (data_dir / "answers.csv").read_text(encoding="utf-8")
        model_text = (data_dir / "model.csv").read_text(encoding="utf-8")
        a, m = tmp_path / "answers.csv", tmp_path / "model.csv"

        def error(answers_text, model_text):
            a.write_text(answers_text, encoding="utf-8")
            m.write_text(model_text, encoding="utf-8")
            answers, questions = load_answers(a), load_model(m)
            if not loaded:
                answers, questions = list(answers), list(questions)
            with pytest.raises(EssayScoreError) as exc:
                score_corpus(answers, questions, lexicons)
            return str(exc.value)

        unknown = error(answers_text.replace("\ns1,q2,", "\ns1,q9,", 1), model_text)
        tokenless = error(answers_text, model_text.replace(
            "\nq2,Ibu kota negara Indonesia adalah Jakarta,", "\nq2,...,", 1
        ))
        if loaded:
            assert unknown == (
                f"{a}: line 3: answer 's1' refers to unknown question 'q9' (not in {m})"
            )
            assert tokenless == (
                f"{m}: line 3: question 'q2': model answer has no terms after preprocessing"
            )
        else:
            assert unknown == "answer 's1' refers to unknown question 'q9'"
            assert tokenless == "question 'q2': model answer has no terms after preprocessing"

    def test_a_loaded_list_changed_in_length_names_no_line(self, data_dir):
        answers = load_answers(data_dir / "answers.csv")
        questions = load_model(data_dir / "model.csv")
        answers.append(RawEssay("s9", "q9", "x"))
        with pytest.raises(EssayScoreError) as exc:
            score_corpus(answers, questions, EMPTY)
        assert str(exc.value) == (
            f"answer 's9' refers to unknown question 'q9' (not in {data_dir / 'model.csv'})"
        )

    @pytest.fixture
    def q9_answers(self, data_dir, tmp_path):
        """A copy of ``data/answers.csv`` whose line 3, s1's answer to q2, answers q9."""
        a = tmp_path / "answers.csv"
        a.write_text(
            (data_dir / "answers.csv").read_text(encoding="utf-8").replace("\ns1,q2,", "\ns1,q9,", 1),
            encoding="utf-8",
        )
        return a

    @pytest.mark.parametrize(
        "change",
        [
            lambda a: a.sort(key=lambda r: r.question_id),
            lambda a: a.reverse(),
            lambda a: a.__setitem__(slice(0, 2), a[1::-1]),
            lambda a: list.sort(a, key=lambda r: r.question_id),
            lambda a: a.__init__(sorted(a, key=lambda r: r.question_id)),
        ],
        ids=["sort", "reverse", "item-assignment", "list.sort", "init"],
    )
    def test_a_loaded_list_reordered_in_place_names_no_line(self, data_dir, q9_answers, change):
        """s1's answer to q9 is on line 3; after the change no line is named, not a wrong one."""
        answers = load_answers(q9_answers)
        change(answers)
        with pytest.raises(EssayScoreError) as exc:
            score_corpus(answers, load_model(data_dir / "model.csv"), EMPTY)
        assert str(exc.value) == (
            f"answer 's1' refers to unknown question 'q9' (not in {data_dir / 'model.csv'})"
        )

    def test_a_record_still_where_it_was_loaded_names_its_line(self, data_dir, q9_answers):
        answers = load_answers(q9_answers)
        answers.append(answers[0])
        with pytest.raises(EssayScoreError) as exc:
            score_corpus(answers, load_model(data_dir / "model.csv"), EMPTY)
        assert str(exc.value) == (
            f"{q9_answers}: line 3: answer 's1' refers to unknown question 'q9' "
            f"(not in {data_dir / 'model.csv'})"
        )

    def test_a_reordered_model_list_names_no_file(self, data_dir, q9_answers):
        questions = load_model(data_dir / "model.csv")
        questions.reverse()
        with pytest.raises(EssayScoreError) as exc:
            score_corpus(load_answers(q9_answers), questions, EMPTY)
        assert str(exc.value) == f"{q9_answers}: line 3: answer 's1' refers to unknown question 'q9'"

    @pytest.mark.parametrize("answers", [[], [RawEssay("s1", "q1", "x")]], ids=["empty", "one"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"metric": "dice"}, r"metric must be one of \('cosine', 'jaccard'\), got 'dice'"),
            ({"n": 4}, r"n-gram size must be one of \(1, 2, 3\), got 4"),
            (
                {"cells": [("cosine", 1), ("dice", 1)]},
                r"metric must be one of \('cosine', 'jaccard'\), got 'dice'",
            ),
            ({"cells": [("cosine", 1), ("jaccard", 4)]}, r"n-gram size must be one of \(1, 2, 3\), got 4"),
            ({"n": 2.0}, r"n-gram size must be one of \(1, 2, 3\), got 2\.0"),
            ({"cells": [("cosine", 2.0)]}, r"n-gram size must be one of \(1, 2, 3\), got 2\.0"),
        ],
        ids=["metric", "n", "cell-metric", "cell-n", "n-float", "cell-n-float"],
    )
    def test_bad_metric_or_n_rejected(self, answers, config, message, monkeypatch):
        calls = []
        monkeypatch.setattr(scoring, "preprocess_pipeline", lambda *args: calls.append(args))
        with pytest.raises(EssayScoreError, match=message):
            score_corpus(answers, [make_question()], EMPTY, **config)
        assert calls == []  # rejected before any document is preprocessed

    def test_cells_yield_each_cell_in_order(self, corpus):
        answers, questions, _, lexicons = corpus
        cells = [("jaccard", 2), ("cosine", 1), ("jaccard", 2), ("cosine", 3)]
        grid = score_corpus(answers, questions, lexicons, cells=cells)
        assert list(grid) == [
            score_corpus(answers, questions, lexicons, metric=m, n=n) for m, n in cells
        ]

    def test_cells_score_every_question_before_returning(self):
        answers = [RawEssay("s1", "q1", "cat"), RawEssay("s1", "q2", "dog")]
        questions = [make_question(text="cat"), QuestionSpec("q2", "123 !?", 1.0)]
        with pytest.raises(EssayScoreError, match="question 'q2': model answer has no terms"):
            score_corpus(answers, questions, EMPTY, cells=[("cosine", 1)])

    def test_cells_iterator_holds_no_answers(self, corpus):
        # the records read only the answers' ids, so a caller that drops the
        # answers frees their texts before any record is built
        answers, questions, _, lexicons = corpus
        answers = list(answers)
        before = sys.getrefcount(answers)
        grid = score_corpus(answers, questions, lexicons, cells=[("jaccard", 2)])
        assert sys.getrefcount(answers) == before
        assert next(grid) == score_corpus(answers, questions, lexicons, metric="jaccard", n=2)

    @pytest.mark.parametrize("answers", [[], [RawEssay("s1", "q1", "cat sat mat")]], ids=["empty", "one"])
    @pytest.mark.parametrize("log_base", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
    def test_log_base_outside_one_to_infinity_rejected(self, answers, log_base):
        question = make_question(text="cat sat mat dog")
        with pytest.raises(EssayScoreError, match="log base must be finite and greater than 1"):
            score_corpus(answers, [question], EMPTY, log_base=log_base)

    def test_valid_log_bases_give_equal_similarity(self):
        question = make_question(text="cat sat mat dog")
        answers = [RawEssay("s1", "q1", "cat sat mat"), RawEssay("s2", "q1", "bird flew")]
        natural = score_corpus(answers, [question], EMPTY)[0].similarity
        assert natural > 0.0
        for base in (2.0, 10.0):
            record = score_corpus(answers, [question], EMPTY, log_base=base)[0]
            assert record.similarity == pytest.approx(natural, abs=1e-12)

    def test_perfect_student_scores_sum_of_weights(self, corpus):
        answers, questions, _, lexicons = corpus
        perfect = [
            RawEssay("s9", q.question_id, q.model_answer) for q in questions
        ]
        expected = sum(q.weight for q in questions)
        for metric in ("cosine", "jaccard"):
            records = score_corpus(
                list(answers) + perfect, questions, lexicons, metric=metric, n=1
            )
            totals = {t.student_id: t.total for t in aggregate_totals(records)}
            assert totals["s9"] == pytest.approx(expected, abs=1e-9)

    def test_preprocesses_each_document_once(self, corpus, monkeypatch):
        answers, questions, _, lexicons = corpus
        seen = []
        original = scoring.preprocess_pipeline

        def counting(raw, lex):
            seen.append(raw)
            return original(raw, lex)

        monkeypatch.setattr(scoring, "preprocess_pipeline", counting)
        score_corpus(answers, questions, lexicons, metric="cosine", n=2)
        assert len(seen) == len(questions) + len(answers)

    def test_scales_each_model_vector_once(self, corpus, monkeypatch):
        answers, questions, _, lexicons = corpus
        calls = []
        original = similarity._scale

        def counting(v):
            calls.append(v)
            return original(v)

        monkeypatch.setattr(similarity, "_scale", counting)
        score_corpus(answers, questions, lexicons, metric="cosine", n=1)
        # once per answer vector, and once per question for its model vector
        assert len(calls) == len(answers) + len(questions)

    @pytest.mark.parametrize("n", [1, 3])
    def test_equal_grams_share_one_string(self, corpus, monkeypatch, n):
        answers, questions, _, lexicons = corpus
        fitted = []
        original = scoring.fit_vocabulary

        def capturing(docs, log_base, **kwargs):
            fitted.append(docs)
            return original(docs, log_base=log_base, **kwargs)

        monkeypatch.setattr(scoring, "fit_vocabulary", capturing)
        score_corpus(answers, questions, lexicons, metric="cosine", n=n)
        assert len(fitted) == len(questions)
        repeats = 0
        for docs in fitted:
            first = {}
            for grams in docs:
                for gram in grams:
                    assert first.setdefault(gram, gram) is gram
            repeats += sum(map(len, docs)) - len(first)
        # the data corpus repeats grams across answers, so sharing is tested
        assert repeats > 0

    def test_equal_tokens_share_one_string_across_sizes(self, corpus, monkeypatch):
        answers, questions, _, lexicons = corpus
        question = questions[0]
        answers = [a for a in answers if a.question_id == question.question_id]
        read = []  # (n, tokens) of each extract_ngrams call
        original = scoring.extract_ngrams

        def capturing(tokens, n):
            read.append((n, tokens))
            return original(tokens, n)

        monkeypatch.setattr(scoring, "extract_ngrams", capturing)
        list(score_corpus(answers, [question], lexicons, cells=[("cosine", n) for n in (1, 2, 3)]))
        # the model answer and each answer, at each size
        assert [n for n, _ in read] == [n for n in (1, 2, 3) for _ in range(len(answers) + 1)]
        first = {}
        for _, tokens in read:
            for token in tokens:
                assert first.setdefault(token, token) is token
        # the question's answers repeat tokens, so sharing is tested
        assert sum(len(tokens) for n, tokens in read if n == 1) > len(first)

    def test_unanimous_corpus_collapses_to_zero(self):
        # When every answer equals the model answer, every term appears in
        # every document, all idf values are 0, and the all-empty vectors
        # score 0 by the zero-vector convention.
        question = make_question(weight=10.0)
        clones = [RawEssay(f"s{i}", "q1", question.model_answer) for i in (1, 2)]
        records = score_corpus(clones, [question], EMPTY, metric="cosine", n=1)
        assert all(r.similarity == 0.0 for r in records)


class TestParallel:
    """Questions scored in forked children give the records of one process."""

    def both_ways(self, workers, cpus, *args, **kwargs):
        workers.cpus(1)
        sequential = score_corpus(*args, **kwargs)
        workers.cpus(cpus)
        assert score_corpus(*args, **kwargs) == sequential
        return sequential

    def test_more_cpus_than_questions(self, corpus, workers):
        answers, questions, _, lexicons = corpus
        self.both_ways(workers, 8, answers, questions, lexicons, metric="jaccard", n=2)
        assert workers.forks == len(questions) - 1

    def test_one_question_is_scored_here(self, workers):
        answers = [RawEssay("s1", "q1", "dasar negara"), RawEssay("s2", "q1", "pancasila")]
        self.both_ways(workers, 4, answers, [make_question()], EMPTY)
        assert workers.forks == 0

    def test_question_with_only_blank_answers(self, workers):
        questions = [make_question(), QuestionSpec("q2", "ibu kota jakarta", 10.0)]
        answers = [
            RawEssay("s1", "q1", "dasar negara"),
            RawEssay("s1", "q2", ""),
            RawEssay("s2", "q1", "pancasila"),
            RawEssay("s2", "q2", " ... "),
        ]
        records = self.both_ways(workers, 2, answers, questions, EMPTY)
        assert workers.forks == 1
        assert [r.similarity for r in records if r.question_id == "q2"] == [0.0, 0.0]

    def test_tokenless_model_answer_in_last_question_forks_nothing(self, workers):
        questions = [make_question(), QuestionSpec("q2", "cat", 1.0), QuestionSpec("q3", "...", 1.0)]
        answers = [RawEssay("s1", q.question_id, "cat dasar") for q in questions]
        workers.cpus(4)
        with pytest.raises(EssayScoreError) as exc:
            score_corpus(answers, questions, EMPTY)
        assert str(exc.value) == "question 'q3': model answer has no terms after preprocessing"
        assert workers.forks == 0

    @pytest.mark.parametrize("where", ["child", "parent"])
    def test_a_fault_reaps_every_child(self, corpus, workers, monkeypatch, capfd, where):
        answers, questions, _, lexicons = corpus
        parent = os.getpid()
        original = scoring._score_question

        def failing(*args):
            if (os.getpid() == parent) == (where == "parent"):
                raise RuntimeError("planted fault")
            if where == "parent":
                time.sleep(60)  # a child still scoring is killed, not waited for
            return original(*args)

        monkeypatch.setattr(scoring, "_score_question", failing)
        workers.cpus(2)
        if where == "child":
            with pytest.raises(EssayScoreError, match=r"in a child process failed: exit status 1"):
                score_corpus(answers, questions, lexicons)
            # the child reports its own traceback
            assert "RuntimeError: planted fault" in capfd.readouterr().err
        else:
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="planted fault"):
                score_corpus(answers, questions, lexicons)
            assert time.monotonic() - started < 20
        assert workers.forks == 1

    def test_a_native_thread_gives_no_fork_warning(self, corpus, workers):
        # faulthandler's watchdog is a thread Python does not run. CPython 3.12+
        # warns on a fork while any other thread exists; it drops the warning
        # when a filter makes it an error, so the test records warnings instead
        answers, questions, _, lexicons = corpus
        faulthandler.dump_traceback_later(60)
        try:
            assert threading.active_count() == 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                self.both_ways(workers, 2, answers, questions, lexicons)
        finally:
            faulthandler.cancel_dump_traceback_later()
        assert workers.forks == 1
        assert [str(w.message) for w in caught] == []

    def test_a_child_killed_by_a_signal_is_an_error(self, corpus, workers, monkeypatch):
        answers, questions, _, lexicons = corpus
        parent = os.getpid()
        original = scoring._score_question

        def killed(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return original(*args)

        monkeypatch.setattr(scoring, "_score_question", killed)
        workers.cpus(2)
        with pytest.raises(EssayScoreError, match=r"in a child process failed: exit status -9"):
            score_corpus(answers, questions, lexicons)
        assert workers.forks == 1

    def test_a_refused_fork_scores_its_share_here(self, corpus, workers, monkeypatch):
        answers, questions, _, lexicons = corpus
        cells = [("cosine", 1), ("jaccard", 2)]
        workers.cpus(1)
        sequential = list(score_corpus(answers, questions, lexicons, cells=cells))
        fork = os.fork

        def second_refused():
            if workers.forks == 1:
                # what a full process table gives
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", second_refused)
        workers.cpus(3)
        assert list(score_corpus(answers, questions, lexicons, cells=cells)) == sequential
        assert workers.forks == 1

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_nothing_to_score(self, workers, cpus):
        questions = [make_question(), QuestionSpec("q2", "ibu kota jakarta", 10.0)]
        answers = [RawEssay("s1", "q1", "dasar negara"), RawEssay("s1", "q2", "jakarta")]
        workers.cpus(cpus)
        assert score_corpus([], questions, EMPTY) == []
        grid = score_corpus([], questions, EMPTY, cells=[("cosine", 1), ("jaccard", 2)])
        assert list(grid) == [[], []]
        assert list(score_corpus(answers, questions, EMPTY, cells=[])) == []
        assert workers.forks == (cpus > 1)

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(scoring, "_usable_cpus", lambda: 4)
        big = scoring._PARALLEL_MIN_CHARS
        assert scoring._worker_count(big, 3) == 3
        assert scoring._worker_count(big, 9) == 4
        assert scoring._worker_count(big - 1, 9) == 1
        assert scoring._worker_count(big, 0) == 1
        # another Python thread might hold a lock a child needs
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert scoring._worker_count(big, 9) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ({"cpu.max": "150000 100000\n"}, 2),  # 1.5 CPUs, rounded up
            ({"cpu.max": "100000 100000\n"}, 1),
            ({"cpu.max": "1600000 100000\n"}, 8),  # above the mask
            ({"cpu.max": "max 100000\n"}, 8),  # unlimited
            ({"cpu.max": "garbage\n"}, 8),
            ({"cpu/cpu.cfs_quota_us": "250000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
            ({"cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 8),
            ({"cpu/cpu.cfs_quota_us": "250000\n"}, 8),  # no period to read
            ({}, 8),
        ],
        ids=[
            "v2-fraction", "v2-one", "v2-above-mask", "v2-max", "v2-garbage",
            "v1-fraction", "v1-half", "v1-unlimited", "v1-no-period", "none",
        ],
    )
    def test_cpu_quota_caps_the_affinity_mask(self, tmp_path, monkeypatch, files, cpus):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.setattr(scoring, "_CGROUP", tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        assert scoring._usable_cpus() == cpus

    def test_usable_cpus_without_an_affinity_mask(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scoring, "_CGROUP", tmp_path)  # no quota file
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert scoring._usable_cpus() == os.cpu_count()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert scoring._usable_cpus() == 1

    def test_without_fork_every_question_is_scored_here(self, corpus, workers, monkeypatch):
        answers, questions, _, lexicons = corpus
        monkeypatch.delattr(os, "fork")
        workers.cpus(4)
        assert scoring._worker_count(scoring._PARALLEL_MIN_CHARS, 9) == 1
        self.both_ways(workers, 4, answers, questions, lexicons)

    def test_shares_take_the_longest_question_first(self):
        sizes = {"q1": 5, "q2": 9, "q3": 5, "q4": 1}
        assert scoring._shares(sizes, 2) == [["q2", "q4"], ["q1", "q3"]]
        assert scoring._shares(sizes, 1) == [["q2", "q1", "q3", "q4"]]


def long_essays():
    """One question and 40 answers of 1,500 words each, its trigrams mostly distinct."""
    rng = random.Random(0)
    words = ["".join(rng.choices(string.ascii_lowercase, k=6)) for _ in range(2000)]
    question = make_question(text=" ".join(rng.choices(words, k=300)))
    answers = [RawEssay(f"s{i}", "q1", " ".join(rng.choices(words, k=1500))) for i in range(40)]
    return question, answers


class TestScoreMemory:
    def test_trigram_peak_close_to_what_a_question_holds(self):
        # the fit counts into the table that shares equal grams, so a
        # question's mostly distinct trigrams are tabled once, not twice
        question, answers = long_essays()
        texts = [question.model_answer] + [a.text for a in answers]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # what the question must hold: each gram shared, and one table
            table = {}
            docs = [
                list(map(table.setdefault, grams, grams))
                for grams in (extract_ngrams(preprocess_pipeline(t, EMPTY), 3) for t in texts)
            ]
            held = tracemalloc.get_traced_memory()[0] - before
            del table, docs
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            records = score_corpus(answers, [question], EMPTY, metric="cosine", n=3)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(records) == 40
        # 1.04-1.05 on 3.11 to 3.13; a second term table made it 1.17-1.20
        assert peak <= 1.10 * held

    def test_a_grid_holds_one_ngram_sizes_tables_at_a_time(self):
        # each size's grams and term table go before the next size's are built
        question, answers = long_essays()

        def peak(cells):
            gc.collect()
            tracemalloc.start()
            try:
                list(score_corpus(answers, [question], EMPTY, cells=cells))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 1.11 on 3.11 to 3.13; 1.96 when each size's tables outlived it
        assert peak([("cosine", n) for n in (1, 2, 3)]) <= 1.3 * peak([("cosine", 3)])


class TestAggregation:
    def test_sum(self):
        records = [
            ScoreRecord("s1", f"q{i}", 0.0, p)
            for i, p in enumerate([20.0, 15.0, 10.0, 5.0, 0.0])
        ]
        assert aggregate_totals(records) == [StudentScore("s1", 50.0)]

    def test_empty(self):
        assert aggregate_totals([]) == []

    def test_fractional(self):
        records = [
            ScoreRecord("s1", "q1", 0.0, 18.5),
            ScoreRecord("s1", "q2", 0.0, 11.25),
        ]
        assert aggregate_totals(records) == [StudentScore("s1", 29.75)]

    def test_totals_grouping(self):
        records = [
            ScoreRecord("s2", "q1", 0.0, 1.0),
            ScoreRecord("s1", "q1", 0.0, 2.0),
            ScoreRecord("s2", "q2", 0.0, 3.0),
        ]
        # students appear in order of their first record
        assert aggregate_totals(records) == [
            StudentScore("s2", 4.0),
            StudentScore("s1", 2.0),
        ]
