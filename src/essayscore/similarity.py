"""Cosine and Jaccard similarity between sparse TF-IDF vectors.

Cosine is the normalized dot product (angle-based, frequency-sensitive);
Jaccard is intersection over union of the two key sets, so it ignores
weights entirely, zeros included. For nonnegative weights, which every
TF-IDF vector from `transform` has, both metrics map a pair of vectors
to [0, 1]. When either vector is empty - a blank or fully stopworded
answer - similarity is defined as 0, the conservative grade.

Sums use math.fsum, which returns the correctly rounded total regardless
of iteration order; this makes both metrics exactly symmetric and
independent of dict insertion order. Cosine first multiplies each vector
by the power of two that brings its largest weight into [0.5, 1). That
is exact for every weight within a factor 2**1022 of the largest, so the
cosine is unchanged, and it keeps every square and product in range, so
any finite weights, 1e-300 or 1e300 alike, keep the [0, 1] contract on
one path.

A scorer compares every answer with the same model vector, so it can
prepare that vector once with _prepare_query: the result has the same
keys, holds the weights already multiplied by their power of two, and
carries that vector's norm. Cosine takes a prepared query's norm and a
scale of 1 instead of scaling it again, which gives the same bits.
"""

import math
from collections.abc import Callable


class _Query(dict):
    """A query vector already scaled by _scale's power of two, with its norm."""

    __slots__ = ("norm",)


def _scale(v: dict[str, float]) -> tuple[float, float]:
    """The power of two s that brings the vector's largest weight into [0.5, 1), and |s·v|."""
    exponent = math.frexp(max(map(abs, v.values()), default=0.0))[1]
    # 2**1023 is the largest power of two a float holds; it still lifts a
    # subnormal largest weight to at least 2**-51
    s = math.ldexp(1.0, min(-exponent, 1023))
    return s, math.sqrt(math.fsum([(w * s) * (w * s) for w in v.values()]))


def _prepare_query(q: dict[str, float]) -> _Query:
    """q scaled once for every cosine_similarity(d, q) against it."""
    s, norm = _scale(q)
    prepared = _Query({t: w * s for t, w in q.items()})
    prepared.norm = norm
    return prepared


def cosine_similarity(d: dict[str, float], q: dict[str, float]) -> float:
    """Normalized dot product of two sparse vectors, clamped to at most 1."""
    s_d, norm_d = _scale(d)
    s_q, norm_q = (1.0, q.norm) if type(q) is _Query else _scale(q)
    if not (norm_d and norm_q):
        return 0.0
    dot = math.fsum([d[t] * s_d * (q[t] * s_q) for t in d.keys() & q.keys()])
    # rounding can push v·v/|v||v| a hair above 1; the range is [0, 1]
    return min(dot / (norm_d * norm_q), 1.0)


def jaccard_similarity(d: dict[str, float], q: dict[str, float]) -> float:
    """Intersection over union of the two key sets; 0 when both are empty."""
    shared = len(d.keys() & q.keys())
    union = len(d) + len(q) - shared
    return shared / union if union else 0.0


SIMILARITY_METRICS: dict[str, Callable[[dict[str, float], dict[str, float]], float]] = {
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
}
