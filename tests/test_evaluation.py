"""Evaluation statistics: RMSE, descriptive stats, ANOVA, and the F tail."""

import math
import random

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from essayscore import (
    EssayScoreError,
    HumanGrade,
    ScoreRecord,
    aggregate_totals,
    build_report,
    descriptive_stats,
    f_survival,
    repeated_measures_anova,
    rmse,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRmse:
    def test_perfect_agreement(self):
        assert rmse([(5.0, 5.0), (7.0, 7.0)]) == 0.0

    def test_mixed_errors(self):
        assert rmse([(3.0, 0.0), (0.0, 4.0)]) == pytest.approx(
            math.sqrt(25 / 2), abs=1e-12
        )
        assert rmse([(3.0, 0.0), (0.0, 4.0)]) == pytest.approx(3.5355, abs=1e-4)

    def test_single_pair_is_absolute_difference(self):
        assert rmse([(10.0, 8.0)]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EssayScoreError, match="rmse needs at least one pair"):
            rmse([])

    def test_hundred_random_lists_against_reference(self):
        rng = random.Random(20240609)
        for _ in range(100):
            n = rng.randint(1, 40)
            pairs = [
                (rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)
            ]
            accum = 0.0
            for y, u in pairs:
                accum += (y - u) * (y - u)
            reference = (accum / n) ** 0.5
            assert abs(rmse(pairs) - reference) <= 1e-12

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
    def test_nonnegative_and_zero_iff_equal(self, pairs):
        value = rmse(pairs)
        assert value >= 0.0
        assert (value == 0.0) == all(y == u for y, u in pairs)

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=40))
    def test_symmetric_under_swap(self, pairs):
        swapped = [(u, y) for y, u in pairs]
        assert rmse(pairs) == rmse(swapped)


def spread_pair(mean, std):
    """Two values with exactly the given mean and sample standard deviation."""
    half = std / math.sqrt(2)
    return [mean - half, mean + half]


class TestDescriptiveStats:
    def test_system_like_mean_and_cv(self):
        stats = descriptive_stats(spread_pair(79.0, 3.46))
        assert stats.mean == pytest.approx(79.0, abs=1e-9)
        assert stats.std == pytest.approx(3.46, abs=1e-9)
        assert stats.cv == pytest.approx(4.385, abs=0.01)

    def test_human_like_mean_and_cv(self):
        stats = descriptive_stats(spread_pair(78.0, 2.45))
        assert stats.cv == pytest.approx(3.141, abs=1e-3)
        assert stats.cv == pytest.approx(3.140, abs=0.01)

    def test_constant_data(self):
        stats = descriptive_stats([5.0, 5.0, 5.0, 5.0])
        assert stats == (5.0, 0.0, 0.0)

    def test_too_few_values(self):
        # one value has a mean but no sample spread
        stats = descriptive_stats([7.5])
        assert stats.mean == 7.5
        assert math.isnan(stats.std)
        assert math.isnan(stats.cv)
        with pytest.raises(EssayScoreError, match="need at least 1 value, got 0"):
            descriptive_stats([])

    def test_zero_mean(self):
        stats = descriptive_stats([-1.0, 1.0])
        assert stats.mean == 0.0
        assert stats.std == pytest.approx(math.sqrt(2), abs=1e-12)
        assert math.isnan(stats.cv)

    def test_sample_denominator(self):
        # n-1 denominator: var([1, 3]) = 2, not 1
        assert descriptive_stats([1.0, 3.0]).std == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=30),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_cv_is_scale_free(self, values, k):
        base = descriptive_stats(values)
        scaled = descriptive_stats([k * v for v in values])
        assert abs(scaled.cv - base.cv) <= 1e-9 * max(1.0, base.cv)

    @pytest.mark.parametrize("big", [1e160, 1e308])
    def test_huge_values_do_not_overflow(self, big):
        # squaring a deviation this large, or summing these values, overflows
        stats = descriptive_stats([big, big, big / 2, big / 2])
        assert stats.mean == pytest.approx(0.75 * big, rel=1e-15)
        assert stats.std == pytest.approx(big / math.sqrt(12), rel=1e-15)
        assert stats.cv == pytest.approx(100 / math.sqrt(12) / 0.75, rel=1e-15)


class TestRepeatedMeasuresAnova:
    def test_zero_mean_difference(self):
        result = repeated_measures_anova([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert result.f == 0.0
        assert result.p == 1.0
        assert result.eta_sq == 0.0
        assert result.wilks_lambda == 1.0

    def test_hand_computed_case(self):
        # d = [2, 3, 3, 2]: mean 2.5, sd 0.5774, t = 8.6603, F = 75
        result = repeated_measures_anova(
            [80.0, 83.0, 85.0, 78.0], [78.0, 80.0, 82.0, 76.0]
        )
        assert result.f == pytest.approx(75.0, abs=1e-9)
        assert result.eta_sq == pytest.approx(75 / 78, abs=1e-12)
        assert result.eta_sq == pytest.approx(0.9615, abs=1e-4)
        assert result.df_error == 3

    def test_identical_nonconstant_conditions(self):
        a = [4.0, 9.0, 2.0, 7.0]
        result = repeated_measures_anova(a, list(a))
        assert result.f == 0.0
        assert result.p == 1.0
        assert not math.isinf(result.f)

    def test_degenerate_constant_nonzero_difference(self):
        result = repeated_measures_anova([3.0, 4.0, 5.0], [1.0, 2.0, 3.0])
        assert math.isinf(result.f)
        assert result.p == 0.0
        assert result.eta_sq == 1.0
        assert result.wilks_lambda == 0.0

    def test_tiny_differences_do_not_underflow(self):
        # d = [0, 0, 0, 0, -x]: mean -x/5, sd x/sqrt(5), so t = -1 for any x,
        # though var(d) / n underflows to 0 for x this small
        result = repeated_measures_anova([0.0] * 5, [0.0] * 4 + [7.667e-162])
        assert result.f == pytest.approx(1.0, rel=1e-12)
        assert not math.isinf(result.f)

    def test_length_mismatch(self):
        with pytest.raises(EssayScoreError, match="differ in length: 2 vs 3"):
            repeated_measures_anova([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_subjects(self):
        with pytest.raises(EssayScoreError, match="need at least 3 subjects, got 2"):
            repeated_measures_anova([1.0, 2.0], [2.0, 1.0])

    def test_hundred_random_datasets_against_paired_t(self):
        rng = np.random.default_rng(20240609)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            a = rng.normal(80.0, 5.0, size=n)
            b = a + rng.normal(1.0, 2.0, size=n)
            d = a - b
            sd = float(np.std(d, ddof=1))
            if sd == 0.0:
                continue
            t = float(np.mean(d)) / (sd / math.sqrt(n))
            result = repeated_measures_anova(list(a), list(b))
            assert result.f == pytest.approx(t * t, abs=1e-9, rel=1e-9)
            assert result.df_error == n - 1
            # two-sided paired-t p-value equals the F(1, n-1) tail of t^2
            p_t = float(scipy.stats.ttest_rel(a, b).pvalue)
            assert result.p == pytest.approx(p_t, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=25),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=25),
    )
    def test_effect_size_and_wilks_sum_to_one(self, a, b):
        n = min(len(a), len(b))
        result = repeated_measures_anova(a[:n], b[:n])
        assert result.eta_sq + result.wilks_lambda == 1.0
        assert 0.0 <= result.eta_sq <= 1.0
        assert 0.0 <= result.wilks_lambda <= 1.0


class TestFSurvival:
    def test_zero_statistic_has_full_tail(self):
        assert f_survival(0.0, 1, 10) == 1.0
        assert f_survival(0.0, 7, 3) == 1.0

    def test_critical_value_table_spot_checks(self):
        # upper 5% critical values from standard F tables
        assert f_survival(4.965, 1, 10) == pytest.approx(0.050, abs=1e-3)
        assert f_survival(161.45, 1, 1) == pytest.approx(0.050, abs=1e-3)
        assert f_survival(19.00, 2, 2) == pytest.approx(0.050, abs=1e-3)
        assert f_survival(3.326, 5, 10) == pytest.approx(0.050, abs=1e-3)
        # upper 1% critical value for (1, 10)
        assert f_survival(10.044, 1, 10) == pytest.approx(0.010, abs=1e-3)

    def test_huge_statistic_has_negligible_tail(self):
        assert f_survival(1e6, 1, 10) < 1e-6

    def test_monotone_decreasing(self):
        grid = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
        values = [f_survival(f, 3, 12) for f in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_df(self):
        with pytest.raises(EssayScoreError, match=r"must be >= 1, got \(0, 10\)"):
            f_survival(1.0, 0, 10)
        with pytest.raises(EssayScoreError, match=r"must be >= 1, got \(1, -2\)"):
            f_survival(1.0, 1, -2)

    def test_negative_statistic_rejected(self):
        for f in (-0.5, math.nan):
            with pytest.raises(EssayScoreError, match="f statistic must be nonnegative"):
                f_survival(f, 1, 10)

    def test_against_scipy_across_df_grid(self):
        for df1 in (1, 2, 5, 10, 60, 1000):
            for df2 in (1, 3, 8, 30, 120, 1000):
                for f in (0.01, 0.4, 1.0, 2.5, 4.965, 20.0, 400.0):
                    expected = float(scipy.stats.f.sf(f, df1, df2))
                    assert f_survival(f, df1, df2) == pytest.approx(
                        expected, abs=1e-6
                    )


def record(sid, qid, points):
    return ScoreRecord(sid, qid, similarity=0.5, points=points)


class TestBuildReport:
    def test_grade_without_record_is_skipped(self):
        records = [record("s1", "q1", 4.0), record("s2", "q1", 6.0)]
        grades = [HumanGrade("s1", "q1", 5.0), HumanGrade("s2", "q1", 6.0)]
        report = build_report(records, grades)
        with_stray = build_report(records, [*grades, HumanGrade("s9", "q1", 99.0)])
        assert with_stray == report
        assert [sid for sid, _, _ in report.totals] == ["s1", "s2"]

    def test_totals_sum_matched_pairs_only(self):
        # s1's q2 answer has no grade, so its 7 points are in no total
        records = [record("s1", "q1", 4.0), record("s1", "q2", 7.0), record("s2", "q1", 6.0)]
        grades = [HumanGrade("s1", "q1", 5.0), HumanGrade("s2", "q1", 6.0)]
        report = build_report(records, grades)
        assert report.totals == [("s1", 5.0, 4.0), ("s2", 6.0, 6.0)]
        assert report.system_stats.mean == 5.0
        assert list(report.per_question) == ["q1"]

    def test_per_question_keys_sorted(self):
        qids = ["q3", "q10", "q1", "q2"]
        records = [record("s1", q, 1.0) for q in qids]
        grades = [HumanGrade("s1", q, 2.0) for q in qids]
        report = build_report(records, grades)
        assert list(report.per_question) == ["q1", "q10", "q2", "q3"]

    @pytest.mark.parametrize("students, has_anova", [(2, False), (3, True)])
    def test_anova_needs_three_matched_students(self, students, has_anova):
        sids = [f"s{i}" for i in range(students)]
        records = [record(sid, "q1", float(i)) for i, sid in enumerate(sids)]
        grades = [HumanGrade(sid, "q1", float(i * i)) for i, sid in enumerate(sids)]
        # a graded but unanswered student is not matched
        grades.append(HumanGrade("s_unanswered", "q1", 1.0))
        report = build_report(records, grades)
        assert (report.anova is not None) == has_anova
        assert len(report.totals) == students

    @settings(max_examples=200)
    @given(
        points=st.lists(
            st.lists(st.floats(min_value=0, max_value=1e6), min_size=5, max_size=5),
            min_size=5,
            max_size=5,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_totals_are_fsum_whatever_the_grade_order(self, points, order):
        # 5 students x 5 questions, every answer graded
        records = [
            record(f"s{s}", f"q{q}", p)
            for s, row in enumerate(points)
            for q, p in enumerate(row)
        ]
        grades = [HumanGrade(r.student_id, r.question_id, r.points / 3) for r in records]
        order.shuffle(grades)
        totals = [(sid, h.hex(), s.hex()) for sid, h, s in build_report(records, grades).totals]
        expected = sorted((t.student_id, t.total.hex()) for t in aggregate_totals(records))
        assert [(sid, system) for sid, _, system in totals] == expected
        order.shuffle(grades)
        reshuffled = build_report(records, grades).totals
        assert [(sid, h.hex(), s.hex()) for sid, h, s in reshuffled] == totals
