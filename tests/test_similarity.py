"""Similarity metric tests, including an exhaustive small-alphabet oracle."""

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from essayscore import cosine_similarity, jaccard_similarity
from essayscore.similarity import _prepare_query

vectors = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.floats(min_value=1e-200, max_value=1e200, allow_nan=False),
    max_size=8,
)
nonempty_vectors = st.dictionaries(
    st.sampled_from("abcdefgh"),
    st.floats(min_value=1e-200, max_value=1e200, allow_nan=False),
    min_size=1,
    max_size=8,
)
# weights whose squares overflow in sum, and weights whose squares are subnormal
HUGE = {"a": 1.2e154, "b": 1.3e154}
TINY = {"a": 1e-160, "b": 2e-160, "c": 3e-160}


class TestCosine:
    def test_identical_singleton(self):
        assert cosine_similarity({"a": 1.0}, {"a": 1.0}) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_shared_term_of_two(self):
        value = cosine_similarity({"a": 1.0, "b": 1.0}, {"a": 1.0})
        assert value == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_empty_vector_convention(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0
        assert cosine_similarity({"a": 1.0}, {}) == 0.0
        assert cosine_similarity({}, {}) == 0.0

    @given(vectors, vectors)
    def test_symmetry_exact(self, d, q):
        assert cosine_similarity(d, q) == cosine_similarity(q, d)

    @given(vectors, vectors)
    # the squares are finite but their sum overflows
    @example(HUGE, {"a": 1.2, "b": 1.3})
    # the squares are subnormal
    @example(TINY, {"a": 1.0, "b": 1.0, "c": 1.0})
    @example(TINY, {"b": 2.5e-160, "c": 1e-160})
    @example(HUGE, TINY)
    def test_range(self, d, q):
        assert 0.0 <= cosine_similarity(d, q) <= 1.0

    @given(nonempty_vectors)
    # the norm itself passes the largest float, or is subnormal
    @example({"a": 1.5e308, "b": 1.5e308})
    @example({"a": 5e-324, "b": 1e-320})
    def test_self_similarity(self, d):
        assert cosine_similarity(d, d) == pytest.approx(1.0, abs=1e-12)

    @given(nonempty_vectors, vectors, st.floats(min_value=1e-100, max_value=1e100))
    # c brings the extreme weights of d near 1
    @example(HUGE, {"a": 1.2, "b": 1.3}, 1 / 1.3e154)
    @example(TINY, {"a": 1.0, "b": 1.0, "c": 1.0}, 1 / 3e-160)
    @example(TINY, {"b": 2.5e-160, "c": 1e-160}, 1 / 3e-160)
    @example(TINY, HUGE, 1 / 3e-160)
    def test_scale_invariance(self, d, q, c):
        scaled = {t: c * w for t, w in d.items()}
        assert abs(
            cosine_similarity(scaled, q) - cosine_similarity(d, q)
        ) <= 1e-12

    @given(nonempty_vectors)
    def test_insertion_order_irrelevant(self, d):
        reversed_d = dict(reversed(list(d.items())))
        assert cosine_similarity(d, reversed_d) == cosine_similarity(reversed_d, d)
        assert cosine_similarity(d, d) == cosine_similarity(reversed_d, reversed_d)


class TestJaccard:
    def test_identical_sets(self):
        d = {"a": 1.0, "b": 2.0, "c": 3.0}
        assert jaccard_similarity(d, dict(d)) == 1.0

    def test_two_of_four(self):
        d = {"a": 1.0, "b": 1.0, "c": 1.0}
        q = {"b": 1.0, "c": 1.0, "d": 1.0}
        assert jaccard_similarity(d, q) == 0.5

    def test_disjoint(self):
        assert jaccard_similarity({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_both_empty_convention(self):
        assert jaccard_similarity({}, {}) == 0.0

    @given(vectors, vectors)
    def test_symmetry_exact(self, d, q):
        assert jaccard_similarity(d, q) == jaccard_similarity(q, d)

    @given(vectors, vectors)
    def test_range(self, d, q):
        assert 0.0 <= jaccard_similarity(d, q) <= 1.0

    @given(nonempty_vectors)
    def test_self_similarity_exactly_one(self, d):
        assert jaccard_similarity(d, d) == 1.0

    @given(vectors, vectors, st.floats(min_value=1e-100, max_value=1e100))
    def test_weight_magnitudes_irrelevant(self, d, q, c):
        rescaled = {t: w * c for t, w in d.items()}
        assert jaccard_similarity(rescaled, q) == jaccard_similarity(d, q)


class TestPreparedQuery:
    @given(vectors, vectors)
    @example({"a": 1.2, "b": 1.3}, HUGE)
    @example({"a": 1.0, "b": 1.0, "c": 1.0}, TINY)
    @example({"a": 1.0}, {})
    # the largest weight is subnormal, so the scale is clamped at 2**1023
    @example({"a": 1.0, "b": 2.0}, {"a": 5e-324, "b": 1e-320})
    def test_same_bits_as_the_plain_query(self, d, q):
        prepared = _prepare_query(q)
        assert prepared.keys() == q.keys()
        assert cosine_similarity(d, prepared).hex() == cosine_similarity(d, q).hex()
        assert jaccard_similarity(d, prepared).hex() == jaccard_similarity(d, q).hex()


class TestExhaustiveOracle:
    """Enumerate every vector over a 4-term alphabet with weights {0, 1, 2},
    where weight 0 means the term is absent, and compare both metrics with
    plain-loop reference formulas."""

    @staticmethod
    def all_vectors():
        terms = ["a", "b", "c", "d"]
        out = []
        for w0 in (0, 1, 2):
            for w1 in (0, 1, 2):
                for w2 in (0, 1, 2):
                    for w3 in (0, 1, 2):
                        weights = (w0, w1, w2, w3)
                        out.append(
                            {t: float(w) for t, w in zip(terms, weights) if w}
                        )
        return out

    @staticmethod
    def cosine_reference(d, q):
        dot = 0.0
        for term in ("a", "b", "c", "d"):
            dot += d.get(term, 0.0) * q.get(term, 0.0)
        nd = math.sqrt(sum(v**2 for v in d.values()))
        nq = math.sqrt(sum(v**2 for v in q.values()))
        if nd == 0.0 or nq == 0.0:
            return 0.0
        return dot / (nd * nq)

    @staticmethod
    def jaccard_reference(d, q):
        union = set(d) | set(q)
        if not union:
            return 0.0
        return len(set(d) & set(q)) / len(union)

    def test_both_metrics_match_reference_everywhere(self):
        vecs = self.all_vectors()
        assert len(vecs) == 81
        for d in vecs:
            for q in vecs:
                assert cosine_similarity(d, q) == pytest.approx(
                    min(self.cosine_reference(d, q), 1.0), abs=1e-12
                )
                assert jaccard_similarity(d, q) == pytest.approx(
                    self.jaccard_reference(d, q), abs=1e-12
                )
