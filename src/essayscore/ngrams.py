"""N-gram feature extraction over token sequences.

A token sequence of length L yields max(0, L - n + 1) n-grams; each gram
is n consecutive tokens joined by a single space. Only n in {1, 2, 3}
(unigram, bigram, trigram) is supported. No padding or boundary markers
are added, so a sequence shorter than n yields no grams at all.
"""

from .errors import EssayScoreError

VALID_NGRAM_SIZES = (1, 2, 3)


def _check_ngram_size(n: int) -> None:
    """Reject an n-gram size outside VALID_NGRAM_SIZES, or one ``range`` refuses, as 2.0 is."""
    if not hasattr(type(n), "__index__") or n not in VALID_NGRAM_SIZES:
        raise EssayScoreError(f"n-gram size must be one of {VALID_NGRAM_SIZES}, got {n!r}")


def extract_ngrams(tokens: list[str], n: int) -> list[str]:
    """Return the n-grams of a token sequence, in order.

    For four tokens this gives 4 unigrams, 3 bigrams, or 2 trigrams.
    """
    _check_ngram_size(n)
    if n == 1:
        return list(tokens)
    # zip over the tokens shifted by 0..n-1 yields each window as a tuple
    return list(map(" ".join, zip(*(tokens[i:] for i in range(n)))))
