"""TF-IDF weighting tests: exact values, invariants, and the log-base law."""

import math
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from essayscore import (
    EssayScoreError,
    Vocabulary,
    cosine_similarity,
    fit_vocabulary,
    jaccard_similarity,
    term_frequency,
    transform,
)

docs_strategy = st.lists(
    st.lists(st.sampled_from("abcdefg"), max_size=12), min_size=1, max_size=8
)


class TestTermFrequency:
    def test_two_to_one(self):
        assert term_frequency(["a", "a", "b"]) == {"a": 2 / 3, "b": 1 / 3}

    def test_single_term(self):
        assert term_frequency(["x"]) == {"x": 1.0}

    def test_empty(self):
        assert term_frequency([]) == {}

    @given(st.lists(st.sampled_from("abcde"), min_size=1, max_size=60))
    def test_sums_to_one(self, grams):
        assert abs(sum(term_frequency(grams).values()) - 1.0) <= 1e-12


def document_frequencies(docs):
    return {term: sum(term in doc for doc in docs) for doc in docs for term in doc}


class TestFitVocabulary:
    def test_document_frequencies_and_idf(self):
        docs = [["a", "b"], ["a"], ["a", "c"], ["d"]]
        vocab = fit_vocabulary(docs)
        assert set(vocab.idf) == {"a", "b", "c", "d"}
        assert vocab.idf["b"] == vocab.idf["c"] == vocab.idf["d"]
        assert vocab.idf["a"] == pytest.approx(math.log(4 / 3), abs=1e-15)
        assert vocab.idf["a"] == pytest.approx(0.2877, abs=1e-4)
        assert vocab.idf["d"] == pytest.approx(math.log(4), abs=1e-15)
        assert vocab.idf["d"] == pytest.approx(1.3863, abs=1e-4)

    def test_ubiquitous_term_has_zero_idf(self):
        vocab = fit_vocabulary([["a"], ["a"]])
        assert vocab.idf["a"] == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(EssayScoreError, match="over zero documents"):
            fit_vocabulary([])

    def test_fit_holds_one_term_table(self):
        # 100 documents of 500 terms each, 50,000 distinct terms in all
        terms = [f"term{i}" for i in range(50_000)]
        docs = [terms[i::100] for i in range(100)]
        tracemalloc.start()
        try:
            vocab = fit_vocabulary(docs)
            table, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(vocab.idf) is dict
        assert len(vocab.idf) == 50_000
        # a second term table alive during the fit would reach 2.5 times
        assert peak < 2 * table

    @pytest.mark.parametrize(
        "docs",
        [
            [["a", "b"], ["a"], ["a", "c"], ["d"]],
            [["a"], ["a"]],  # every idf zero
            [["a", "b"], ["a", "a"], [], []],  # empty documents
            [[], []],  # no term at all
        ],
    )
    @pytest.mark.parametrize("value", ["first", 7])
    def test_fit_into_a_callers_terms_table(self, docs, value):
        # the table scoring holds maps each gram to its first instance;
        # whatever its values, they are reset before the counts go in
        table = {gram: gram if value == "first" else value for grams in docs for gram in grams}
        vocab = fit_vocabulary(docs, log_base=2.0, _terms=table)
        assert vocab.idf is table
        plain = fit_vocabulary(docs, log_base=2.0).idf
        assert table.keys() == plain.keys()
        assert {t: v.hex() for t, v in table.items()} == {t: v.hex() for t, v in plain.items()}

    @given(docs_strategy)
    def test_fit_into_every_term_of_the_docs_equals_a_plain_fit(self, docs):
        table = {gram: gram for grams in docs for gram in grams}
        vocab = fit_vocabulary(docs, _terms=table)
        assert vocab.idf is table
        assert table == fit_vocabulary(docs).idf

    def test_empty_documents_count_toward_corpus_size(self):
        vocab = fit_vocabulary([["a"], [], []])
        assert vocab.idf["a"] == pytest.approx(math.log(3), abs=1e-15)

    @given(docs_strategy)
    def test_idf_nonnegative_and_df_bounded(self, docs):
        vocab = fit_vocabulary(docs)
        dfs = document_frequencies(docs)
        assert vocab.idf.keys() == dfs.keys()
        for term, df in dfs.items():
            assert vocab.idf[term] == math.log(len(docs) / df)
            assert vocab.idf[term] >= 0.0
            assert (vocab.idf[term] == 0.0) == (df == len(docs))

    @given(docs_strategy)
    def test_idf_strictly_decreases_with_df(self, docs):
        vocab = fit_vocabulary(docs)
        dfs = document_frequencies(docs)
        terms = sorted(dfs)
        for t1 in terms:
            for t2 in terms:
                if dfs[t1] < dfs[t2]:
                    assert vocab.idf[t1] > vocab.idf[t2]

    @pytest.mark.parametrize("log_base", [1.0, 0.5, 0.0, -2.0, math.inf, math.nan])
    def test_log_base_outside_one_to_infinity_rejected(self, log_base):
        with pytest.raises(EssayScoreError, match="log base must be finite and greater than 1"):
            fit_vocabulary([["a"], ["b"]], log_base=log_base)

    @given(docs_strategy, st.sampled_from([math.e, 2.0, 10.0]))
    def test_every_idf_is_its_definition_bit_for_bit(self, docs, log_base):
        vocab = fit_vocabulary(docs, log_base=log_base)
        for term, df in document_frequencies(docs).items():
            expected = math.log(len(docs) / df, log_base)
            assert vocab.idf[term].hex() == expected.hex()


class TestTransform:
    def test_weights_multiply_tf_and_idf(self):
        vocab = Vocabulary(idf={"a": 0.2877, "b": 1.0})
        vec = transform(["a", "a", "b"], vocab)
        assert vec["a"] == pytest.approx((2 / 3) * 0.2877, abs=1e-12)
        assert vec["a"] == pytest.approx(0.1918, abs=1e-4)
        assert vec["b"] == pytest.approx(1 / 3, abs=1e-12)

    def test_zero_idf_term_vanishes(self):
        vocab = fit_vocabulary([["a"], ["a"]])
        assert transform(["a"], vocab) == {}

    def test_empty_document(self):
        vocab = fit_vocabulary([["a"], ["b"]])
        assert transform([], vocab) == {}

    def test_out_of_vocabulary_terms_dropped(self):
        vocab = fit_vocabulary([["a"], ["b"]])
        vec = transform(["a", "zzz"], vocab)
        assert "zzz" not in vec
        assert set(vec) == {"a"}

    @given(docs_strategy, st.lists(st.sampled_from("abcdefg"), max_size=12))
    def test_all_weights_strictly_positive(self, docs, grams):
        vocab = fit_vocabulary(docs)
        for weight in transform(grams, vocab).values():
            assert weight > 0.0

    @given(docs_strategy, st.lists(st.sampled_from("abcdefghij"), max_size=12))
    def test_equals_tf_times_idf_bit_for_bit(self, docs, grams):
        # grams may be empty, and "h".."j" are never in the vocabulary
        vocab = fit_vocabulary(docs)
        tf = term_frequency(grams)
        expected = {
            term: (tf[term] * vocab.idf[term]).hex()
            for term in tf
            if vocab.idf.get(term, 0.0) > 0.0
        }
        got = {term: weight.hex() for term, weight in transform(grams, vocab).items()}
        assert got == expected


class TestLogBaseInvariance:
    @given(docs_strategy)
    def test_similarities_unchanged_under_base_swap(self, docs):
        natural = fit_vocabulary(docs, log_base=math.e)
        base10 = fit_vocabulary(docs, log_base=10.0)
        for i in range(len(docs)):
            for j in range(len(docs)):
                d_e, q_e = transform(docs[i], natural), transform(docs[j], natural)
                d_10, q_10 = transform(docs[i], base10), transform(docs[j], base10)
                assert abs(
                    cosine_similarity(d_e, q_e) - cosine_similarity(d_10, q_10)
                ) <= 1e-12
                assert jaccard_similarity(d_e, q_e) == jaccard_similarity(d_10, q_10)

    def test_base_swap_rescales_weights_uniformly(self):
        docs = [["a", "b"], ["a"], ["c"]]
        natural = fit_vocabulary(docs, log_base=math.e)
        base10 = fit_vocabulary(docs, log_base=10.0)
        scale = math.log(10.0)
        for term, value in natural.idf.items():
            assert base10.idf[term] * scale == pytest.approx(value, abs=1e-12)

