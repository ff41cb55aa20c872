"""Cosine and Jaccard similarity between sparse TF-IDF vectors.

Both metrics map a pair of term vectors to [0, 1]. Cosine is the
normalized dot product (angle-based, frequency-sensitive); Jaccard is
intersection over union of the term sets carrying non-zero weight, so it
ignores weight magnitudes entirely. When either vector is empty - a blank
or fully stopworded answer - similarity is defined as 0, the conservative
grade.

Sums use math.fsum, which returns the correctly rounded total regardless
of iteration order; this makes both metrics exactly symmetric and
independent of dict insertion order.
"""

from __future__ import annotations

import math
from collections.abc import Callable


def cosine_similarity(d: dict[str, float], q: dict[str, float]) -> float:
    """Normalized dot product of two sparse vectors, clamped to at most 1."""
    dot = math.fsum(d[t] * q[t] for t in d.keys() & q.keys())
    norm_d = math.sqrt(math.fsum(w * w for w in d.values()))
    norm_q = math.sqrt(math.fsum(w * w for w in q.values()))
    if norm_d == 0.0 or norm_q == 0.0:
        return 0.0
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
