"""Vector space model: TF-IDF weighting over n-gram documents.

Term frequency is a term's count divided by the document's total gram
count, so every non-empty document's frequencies sum to one. Inverse
document frequency is log(N / df) over N documents, df of which hold the
term. It is computed once for each distinct df, and every term with that
df shares the value. The df counts are kept in the dict that becomes the
idf table and are overwritten in place, so a fit holds one term table. A
caller that already holds a dict keyed by the corpus's terms, as scoring
does to share equal grams, can have the fit count into that dict, so the
corpus's terms are tabled once in all.
The log base defaults to natural log and is configurable. It must be
finite and greater than 1; such a base only rescales every weight by the
same positive constant and therefore cannot change cosine or Jaccard
similarity downstream.

Vectors are sparse dicts: a term carries an entry only when its weight is
strictly positive, so terms appearing in every document (idf 0) and terms
missing from a document are structurally absent.
"""

import math
from collections import Counter, namedtuple

from .errors import EssayScoreError


class Vocabulary(namedtuple("Vocabulary", "idf")):
    """The idf of every term in one fitted corpus."""

    __slots__ = ()


def term_frequency(grams: list[str]) -> dict[str, float]:
    """Relative frequency of each gram; empty input gives an empty map."""
    total = len(grams)
    return {term: count / total for term, count in Counter(grams).items()}


def _check_log_base(log_base: float) -> None:
    """Reject an idf log base that is not a finite number greater than 1."""
    if not (1.0 < log_base < math.inf):
        raise EssayScoreError(f"log base must be finite and greater than 1, got {log_base!r}")


def fit_vocabulary(
    docs: list[list[str]], log_base: float = math.e, *, _terms: dict | None = None
) -> Vocabulary:
    """Fit the idf of every term over a collection of gram profiles.

    Individual documents may be empty (they still count toward the corpus
    size); the collection itself must not be.

    ``_terms``, private, is a dict each of whose keys is a term of
    ``docs``. Its values are reset to 0 in place and the counts go into
    it, so it becomes the returned ``idf`` and the caller's table is the
    fit's one term table.
    """
    _check_log_base(log_base)
    if not docs:
        raise EssayScoreError("cannot fit a vocabulary over zero documents")
    size = len(docs)
    # the df counts go into the plain dict that is returned, a caller's
    # _terms reset in place or a new one, each then overwritten by its idf,
    # so a fit never holds two term tables; Counter.update runs its C
    # counting loop on any dict
    idf: dict[str, float] = {} if _terms is None else _terms
    for term in idf:
        idf[term] = 0
    for grams in docs:
        Counter.update(idf, set(grams))
    idf_by_df = {n_docs: math.log(size / n_docs, log_base) for n_docs in set(idf.values())}
    for term, n_docs in idf.items():
        idf[term] = idf_by_df[n_docs]
    return Vocabulary(idf=idf)


def transform(grams: list[str], vocab: Vocabulary) -> dict[str, float]:
    """TF-IDF weights of one document under a fitted vocabulary.

    Out-of-vocabulary terms are dropped, as are terms whose idf is zero,
    keeping the vector strictly positive and sparse.
    """
    total = len(grams)
    idf = vocab.idf
    # count / total * weight rounds exactly as term_frequency's value times the idf
    return {
        term: count / total * weight
        for term, count in Counter(grams).items()
        if (weight := idf.get(term, 0.0)) > 0.0
    }

