"""Agreement between system scores and human grades.

Provides the error metric (RMSE), descriptive statistics (mean, sample
standard deviation, coefficient of variation), and a two-condition
repeated-measures ANOVA. With exactly two within-subject conditions the
repeated-measures ANOVA reduces analytically to the paired t-test, so it
is computed that way: F = t^2 with error df = n - 1. Effect size is
partial eta squared, eta^2 = F / (F + df_error), and Wilks's lambda is its
complement, 1 - eta^2.

The F tail probability is evaluated from scratch via the regularized
incomplete beta function (continued fraction, 200-iteration cap, 1e-12
convergence) so the package needs no statistics library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import EssayScoreError
from .ingest import HumanGrade
from .scoring import ScoreRecord

# One (human score, system score) pair per student, or per student-question
# when evaluating a single question.
PairedScores = Sequence[tuple[float, float]]

# repeated_measures_anova rejects fewer subjects; build_report skips it then
_ANOVA_MIN_SUBJECTS = 3


def rmse(pairs: PairedScores) -> float:
    """Root mean square error between paired human and system scores.

    Differences are scaled by their maximum before squaring so the result
    is exactly 0 iff every pair is equal, even when squared differences
    would underflow.
    """
    if not pairs:
        raise EssayScoreError("rmse needs at least one pair")
    scale = max(abs(y - u) for y, u in pairs)
    if scale == 0.0:
        return 0.0
    total = math.fsum(((y - u) / scale) ** 2 for y, u in pairs)
    return scale * math.sqrt(total / len(pairs))


class DescriptiveStats(NamedTuple):
    mean: float
    std: float
    cv: float


def descriptive_stats(values: Sequence[float]) -> DescriptiveStats:
    """Mean, sample standard deviation (n-1), and coefficient of variation.

    The coefficient of variation is std/mean expressed in percent; it is
    undefined for zero mean, where it is NaN. A single value has a mean but
    no sample spread, so its std and cv are NaN.
    """
    n = len(values)
    if n == 0:
        raise EssayScoreError("need at least 1 value, got 0")
    # dividing by a power of two near the largest magnitude is exact, and keeps
    # the sums and squares below from overflowing
    scale = math.ldexp(1.0, math.frexp(max(map(abs, values)))[1] - 1)
    scaled = [x / scale for x in values]
    mean = math.fsum(scaled) / n
    if n == 1:
        return DescriptiveStats(mean=mean * scale, std=math.nan, cv=math.nan)
    std = math.sqrt(math.fsum((x - mean) ** 2 for x in scaled) / (n - 1))
    cv = std / mean * 100.0 if mean != 0.0 else math.nan
    return DescriptiveStats(mean=mean * scale, std=std * scale, cv=cv)


@dataclass(frozen=True)
class AnovaResult:
    """Two-condition repeated-measures ANOVA outcome.

    When every paired difference is identical but non-zero, F is infinite
    and p is 0.
    """

    f: float
    p: float
    eta_sq: float
    wilks_lambda: float
    df_error: int


def repeated_measures_anova(a: Sequence[float], b: Sequence[float]) -> AnovaResult:
    """Compare two score conditions measured on the same subjects.

    Computed from the paired differences: t = mean(d) / (sd(d) / sqrt(n)),
    F = t^2 on (1, n-1) degrees of freedom.
    """
    if len(a) != len(b):
        raise EssayScoreError(f"paired lists differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < _ANOVA_MIN_SUBJECTS:
        raise EssayScoreError(f"need at least {_ANOVA_MIN_SUBJECTS} subjects, got {n}")
    diffs = [x - y for x, y in zip(a, b)]
    df_error = n - 1
    scale = max(abs(d) for d in diffs)
    if scale == 0.0:
        # the two conditions are identical: no effect at all
        return AnovaResult(0.0, 1.0, 0.0, 1.0, df_error)
    # t is scale-free; dividing by the largest difference keeps the variance
    # of tiny differences from underflowing to a zero standard error
    diffs = [d / scale for d in diffs]
    mean_d = math.fsum(diffs) / n
    var_d = math.fsum((d - mean_d) ** 2 for d in diffs) / (n - 1)
    if var_d == 0.0:
        return AnovaResult(math.inf, 0.0, 1.0, 0.0, df_error)
    t = mean_d / math.sqrt(var_d / n)
    f = t * t
    eta_sq = f / (f + df_error)
    return AnovaResult(
        f=f,
        p=f_survival(f, 1, df_error),
        eta_sq=eta_sq,
        wilks_lambda=1.0 - eta_sq,
        df_error=df_error,
    )


# ---------------------------------------------------------------------------
# F-distribution tail via the regularized incomplete beta function
# ---------------------------------------------------------------------------

_BETACF_MAX_ITER = 200
_BETACF_EPS = 1e-12
_BETACF_FPMIN = 1e-300


def _lentz_step(aa: float, c: float, d: float) -> tuple[float, float]:
    """One modified-Lentz update of (c, d) for the partial numerator ``aa``."""
    d = 1.0 + aa * d
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    c = 1.0 + aa / c
    if abs(c) < _BETACF_FPMIN:
        c = _BETACF_FPMIN
    return c, 1.0 / d


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETACF_FPMIN:
        d = _BETACF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        c, d = _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d * c
        c, d = _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETACF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for "
        f"a={a}, b={b}, x={x}"
    )


def _regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    # use the continued fraction on the side where it converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def f_survival(f: float, df1: int, df2: int) -> float:
    """Upper tail probability P(F(df1, df2) > f) for f >= 0."""
    if df1 < 1 or df2 < 1:
        raise EssayScoreError(f"degrees of freedom must be >= 1, got ({df1}, {df2})")
    if not f >= 0:  # also catches NaN
        raise EssayScoreError(f"f statistic must be nonnegative, got {f}")
    if math.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return _regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, x)


# ---------------------------------------------------------------------------
# pairing system scores against human grades
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvaluationReport:
    """Everything the evaluation step produces for one scoring run.

    ``totals`` holds (student_id, human_total, system_total) rows sorted by
    student; per-question and overall RMSE, descriptive statistics for both
    graders, and the two-condition ANOVA are all derived from the matched
    (student, question) pairs; ``anova`` is ``None`` when fewer than 3
    students are matched.
    """

    per_question: dict[str, float]
    overall: float
    totals: list[tuple[str, float, float]]
    system_stats: DescriptiveStats
    human_stats: DescriptiveStats
    anova: AnovaResult | None


def build_report(
    records: Sequence[ScoreRecord], grades: Sequence[HumanGrade]
) -> EvaluationReport:
    """Pair system scores with human grades and compute every statistic.

    Pairing is an inner join on (student_id, question_id); totals are sums
    over each student's matched pairs only, so both graders are compared on
    the same answers.
    """
    scored = {(r.student_id, r.question_id): r for r in records}
    per_question_pairs: dict[str, list[tuple[float, float]]] = {}
    per_student_pairs: dict[str, list[tuple[float, float]]] = {}
    for grade in grades:
        record = scored.get((grade.student_id, grade.question_id))
        if record is None:
            continue
        pair = (grade.score, record.points)
        per_question_pairs.setdefault(grade.question_id, []).append(pair)
        per_student_pairs.setdefault(grade.student_id, []).append(pair)

    per_question = {
        qid: rmse(pairs) for qid, pairs in sorted(per_question_pairs.items())
    }
    # fsum, as in aggregate_totals: exactly rounded, so the grade row order
    # cannot change a total's bits
    totals = [
        (sid, math.fsum(h for h, _ in pairs), math.fsum(s for _, s in pairs))
        for sid, pairs in sorted(per_student_pairs.items())
    ]
    overall = rmse([(h, s) for _, h, s in totals])
    system_series = [s for _, _, s in totals]
    human_series = [h for _, h, _ in totals]
    return EvaluationReport(
        per_question=per_question,
        overall=overall,
        totals=totals,
        system_stats=descriptive_stats(system_series),
        human_stats=descriptive_stats(human_series),
        anova=(
            repeated_measures_anova(system_series, human_series)
            if len(totals) >= _ANOVA_MIN_SUBJECTS
            else None
        ),
    )
