"""Cosine and Jaccard similarity between sparse TF-IDF vectors.

Both metrics map a pair of term vectors to [0, 1]. Cosine is the
normalized dot product (angle-based, frequency-sensitive); Jaccard is
intersection over union of the term sets carrying non-zero weight, so it
ignores weight magnitudes entirely. When either vector is empty - a blank
or fully stopworded answer - similarity is defined as 0, the conservative
grade.

Sums use math.fsum, which returns the correctly rounded total regardless
of iteration order; this makes both metrics exactly symmetric and
independent of dict insertion order. Cosine rescales a vector by a power
of two, which is exact, when its norm would leave the range where the
squares stay normal and finite, so weights such as 1e-200 or 1e200 keep
the [0, 1] contract.
"""

from __future__ import annotations

import math
from collections.abc import Callable


# Norms in this range keep every square, the dot product and |d||q| normal
# and finite, so the plain formula is accurate to rounding.
_NORM_MIN = 2.0**-500
_NORM_MAX = 2.0**500


def _norm(v: dict[str, float]) -> float:
    """Euclidean norm of a vector; inf when the sum of squares overflows."""
    try:
        return math.sqrt(math.fsum(w * w for w in v.values()))
    except OverflowError:
        return math.inf


def _unit_scaled(v: dict[str, float]) -> dict[str, float]:
    """The vector divided by a power of two that puts its largest weight in [0.5, 1)."""
    exponent = math.frexp(max(map(abs, v.values())))[1]
    return {t: math.ldexp(w, -exponent) for t, w in v.items()}


def cosine_similarity(d: dict[str, float], q: dict[str, float]) -> float:
    """Normalized dot product of two sparse vectors, clamped to at most 1."""
    norm_d = _norm(d)
    norm_q = _norm(q)
    if not (_NORM_MIN < norm_d < _NORM_MAX and _NORM_MIN < norm_q < _NORM_MAX):
        if not (any(d.values()) and any(q.values())):
            return 0.0
        # extreme weights: the squares under- or overflow, so rescale each
        # vector exactly by a power of two, which leaves the cosine unchanged
        d, q = _unit_scaled(d), _unit_scaled(q)
        norm_d, norm_q = _norm(d), _norm(q)
    dot = math.fsum(d[t] * q[t] for t in d.keys() & q.keys())
    # rounding can push v·v/|v||v| a hair above 1; the range is [0, 1]
    return min(dot / (norm_d * norm_q), 1.0)


def jaccard_similarity(d: dict[str, float], q: dict[str, float]) -> float:
    """Intersection over union of the two key sets; 0 when both are empty."""
    union = d.keys() | q.keys()
    if not union:
        return 0.0
    return len(d.keys() & q.keys()) / len(union)


SIMILARITY_METRICS: dict[str, Callable[[dict[str, float], dict[str, float]], float]] = {
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
}
