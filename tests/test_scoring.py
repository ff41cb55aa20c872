"""Scoring tests: per-question records, aggregation, and reproducibility."""

import math

import pytest

from essayscore import scoring
from essayscore import (
    EssayScoreError,
    Lexicons,
    QuestionSpec,
    RawEssay,
    ScoreRecord,
    StudentScore,
    aggregate_totals,
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

    @pytest.mark.parametrize("answers", [[], [RawEssay("s1", "q1", "x")]], ids=["empty", "one"])
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"metric": "dice"}, r"metric must be one of \('cosine', 'jaccard'\), got 'dice'"),
            ({"n": 4}, r"n-gram size must be one of \(1, 2, 3\), got 4"),
        ],
        ids=["metric", "n"],
    )
    def test_bad_metric_or_n_rejected(self, answers, config, message):
        with pytest.raises(EssayScoreError, match=message):
            score_corpus(answers, [make_question()], EMPTY, **config)

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

    def test_unanimous_corpus_collapses_to_zero(self):
        # When every answer equals the model answer, every term appears in
        # every document, all idf values are 0, and the all-empty vectors
        # score 0 by the zero-vector convention.
        question = make_question(weight=10.0)
        clones = [RawEssay(f"s{i}", "q1", question.model_answer) for i in (1, 2)]
        records = score_corpus(clones, [question], EMPTY, metric="cosine", n=1)
        assert all(r.similarity == 0.0 for r in records)


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
