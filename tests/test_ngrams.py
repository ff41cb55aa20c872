"""N-gram extraction: the four-token reference case and the count law."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from essayscore import EssayScoreError, extract_ngrams

tokens_strategy = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=5), max_size=50
)

FOUR = ["this", "is", "a", "sentence"]


class TestFourTokenSentence:
    def test_unigrams(self):
        assert extract_ngrams(FOUR, 1) == ["this", "is", "a", "sentence"]

    def test_bigrams(self):
        assert extract_ngrams(FOUR, 2) == ["this is", "is a", "a sentence"]

    def test_trigrams(self):
        assert extract_ngrams(FOUR, 3) == ["this is a", "is a sentence"]

    def test_counts_are_4_3_2(self):
        assert [len(extract_ngrams(FOUR, n)) for n in (1, 2, 3)] == [4, 3, 2]


def test_sequence_shorter_than_n():
    assert extract_ngrams(["solo"], 3) == []


@pytest.mark.parametrize("n", [0, 4, -1, 100, 3.0])
def test_invalid_n(n):
    with pytest.raises(EssayScoreError, match="n-gram size must be one of"):
        extract_ngrams(["a", "b"], n)


def test_numpy_integer_n():
    # ImportError, not only ModuleNotFoundError: numpy may be built for another Python
    np = pytest.importorskip("numpy", exc_type=ImportError)
    assert extract_ngrams(FOUR, np.int64(3)) == extract_ngrams(FOUR, 3)


@given(tokens_strategy, st.sampled_from([1, 2, 3]))
def test_count_law(tokens, n):
    assert len(extract_ngrams(tokens, n)) == max(0, len(tokens) - n + 1)


@given(tokens_strategy)
def test_unigrams_are_identity(tokens):
    assert extract_ngrams(tokens, 1) == tokens


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=2, max_size=30))
def test_bigram_first_word_matches_unigram(tokens):
    unigrams = extract_ngrams(tokens, 1)
    bigrams = extract_ngrams(tokens, 2)
    for i, bigram in enumerate(bigrams):
        assert bigram.split(" ")[0] == unigrams[i]


@given(tokens_strategy, st.sampled_from([1, 2, 3]))
def test_each_gram_has_n_minus_1_spaces(tokens, n):
    for gram in extract_ngrams(tokens, n):
        assert gram.count(" ") == n - 1


@given(tokens_strategy, st.sampled_from([1, 2, 3]))
def test_equals_sliding_window_definition(tokens, n):
    # includes len(tokens) < n, where both sides are empty
    expected = [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]
    assert extract_ngrams(tokens, n) == expected
