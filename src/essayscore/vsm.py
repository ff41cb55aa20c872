"""Vector space model: TF-IDF weighting over n-gram documents.

Term frequency is a term's count divided by the document's total gram
count, so every non-empty document's frequencies sum to one. Inverse
document frequency is log(N / df) over N documents, df of which hold the
term; the log base defaults to natural log and is configurable, which only
rescales every weight by the same positive constant and therefore cannot
change cosine or Jaccard similarity downstream.

Vectors are sparse dicts: a term carries an entry only when its weight is
strictly positive, so terms appearing in every document (idf 0) and terms
missing from a document are structurally absent.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import EssayScoreError
from .ngrams import NGramProfile

# Sparse mapping term -> positive TF-IDF weight.
TermVector = dict[str, float]


@dataclass(frozen=True)
class Vocabulary:
    """The idf of every term in one fitted corpus."""

    idf: dict[str, float]


def term_frequency(grams: NGramProfile) -> dict[str, float]:
    """Relative frequency of each gram; empty input gives an empty map."""
    if not grams:
        return {}
    total = len(grams)
    return {term: count / total for term, count in Counter(grams).items()}


def fit_vocabulary(docs: list[NGramProfile], log_base: float = math.e) -> Vocabulary:
    """Fit the idf of every term over a collection of gram profiles.

    Individual documents may be empty (they still count toward the corpus
    size); the collection itself must not be.
    """
    if not docs:
        raise EssayScoreError("cannot fit a vocabulary over zero documents")
    size = len(docs)
    df: Counter[str] = Counter()
    for grams in docs:
        df.update(set(grams))
    idf = {term: math.log(size / n_docs, log_base) for term, n_docs in df.items()}
    return Vocabulary(idf=idf)


def transform(grams: NGramProfile, vocab: Vocabulary) -> TermVector:
    """TF-IDF weights of one document under a fitted vocabulary.

    Out-of-vocabulary terms are dropped, as are terms whose idf is zero,
    keeping the vector strictly positive and sparse.
    """
    idf = vocab.idf
    return {
        term: freq * idf[term]
        for term, freq in term_frequency(grams).items()
        if term in idf and idf[term] > 0.0
    }

