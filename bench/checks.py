"""Output checks for the benchmark's CLI commands.

Two levels, both returning a list of problems (empty when the output is
right):

* ``check_oracle`` matches a command's output on a small corpus against
  the brute-force reference scorer in ``tests/oracle.py``, at the
  precision the CLI prints. The oracle's idf grows with terms times
  documents, so it only runs on small corpora.
* ``check_structure`` checks a full-size output without recomputing it:
  the expected files exist, there is one row per answer, similarities lie
  in [0, 1], points never exceed the question's weight, and the
  evaluation files have the expected rows with finite values.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

METRICS = ("cosine", "jaccard")
NGRAMS = (1, 2, 3)

OUTPUTS = {
    "score": ("scores.csv", "totals.csv"),
    "evaluate": ("anova.csv", "evaluation.csv", "stats.csv"),
    "compare": ("compare.csv",),
}

# the CLI prints similarity to 4 decimals, points and totals to 2, rmse to
# 6 decimals, and stats to 4; anova values use %.6g
_SLACK = 1e-9


def read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def sha256_of(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
    }


def _close(printed: str, expected: float, decimals: int) -> bool:
    return abs(float(printed) - expected) <= 0.5 * 10.0 ** -decimals + _SLACK


def _close_sig(printed: str, expected: float) -> bool:
    value = float(printed)
    return abs(value - expected) <= 1e-5 * abs(expected) + _SLACK


def _is_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _files_problems(command: str, out_dir: Path) -> list[str]:
    expected = set(OUTPUTS[command])
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    if present != expected:
        return [f"output files {sorted(present)} != {sorted(expected)}"]
    return []


# ---------------------------------------------------------------------------
# full-size structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Facts:
    """What a full-size output is checked against, read once per corpus."""

    answer_keys: list[tuple[str, str]]  # sorted (student_id, question_id)
    weights: dict[str, float]
    questions: list[str]
    students: list[str]


def corpus_facts(corpus: Path) -> Facts:
    answers = read_rows(corpus / "answers.csv")[1:]
    return Facts(
        answer_keys=sorted((s, q) for s, q, _ in answers),
        weights={q: float(w) for q, _, w in read_rows(corpus / "model.csv")[1:]},
        questions=sorted({q for _, q, _ in answers}),
        students=sorted({s for s, _, _ in answers}),
    )


def check_structure(command: str, facts: Facts, out_dir: Path, stdout: Path) -> list[str]:
    """Problems in one command's output, judged without recomputing it."""
    problems = _files_problems(command, out_dir)
    if problems:
        return problems
    if command == "score":
        return _score_structure(out_dir, facts)
    if command == "evaluate":
        return _evaluate_structure(out_dir, facts.questions, len(facts.students))
    return _compare_structure(out_dir, stdout, facts.questions)


def _score_structure(out_dir: Path, facts: Facts) -> list[str]:
    problems = []
    weights = facts.weights
    rows = read_rows(out_dir / "scores.csv")
    if rows[0] != ["student_id", "question_id", "similarity", "points"]:
        problems.append(f"scores.csv header {rows[0]}")
    keys = [(r[0], r[1]) for r in rows[1:]]
    if keys != facts.answer_keys:
        problems.append("scores.csv does not hold exactly one sorted row per answer")
    points_of: dict[str, float] = {}
    for sid, qid, sim, points in rows[1:]:
        if not (_is_number(sim) and 0.0 <= float(sim) <= 1.0):
            problems.append(f"similarity {sim!r} for {sid},{qid} outside [0, 1]")
        elif not (_is_number(points) and 0.0 <= float(points) <= weights[qid]):
            problems.append(f"points {points!r} for {sid},{qid} outside [0, {weights[qid]}]")
        else:
            points_of[sid] = points_of.get(sid, 0.0) + float(points)
    totals = read_rows(out_dir / "totals.csv")
    if [r[0] for r in totals[1:]] != facts.students:
        problems.append("totals.csv does not hold exactly one sorted row per student")
    for sid, total in totals[1:]:
        # each printed point is off by at most half a cent
        slack = 0.005 * len(weights) + 0.005 + _SLACK
        if not _is_number(total) or abs(float(total) - points_of.get(sid, 0.0)) > slack:
            problems.append(f"total {total!r} for {sid} is not the sum of its points")
    return problems[:10]


def _evaluate_structure(out_dir, questions, n_students) -> list[str]:
    problems = _rmse_structure(read_rows(out_dir / "evaluation.csv"), questions, 1)
    stats = read_rows(out_dir / "stats.csv")
    if [r[0] for r in stats[1:]] != ["system", "human"] or not all(
        _is_number(v) for r in stats[1:] for v in r[1:]
    ):
        problems.append(f"stats.csv rows {stats[1:]}")
    anova = read_rows(out_dir / "anova.csv")
    if len(anova) != 2 or anova[1][0] != "system_vs_human":
        problems.append(f"anova.csv rows {anova}")
    else:
        f, wilks, p, eta_sq, df_error = anova[1][1:]
        if not (_is_number(p) and 0.0 <= float(p) <= 1.0):
            problems.append(f"anova p {p!r} outside [0, 1]")
        if df_error != str(n_students - 1):
            problems.append(f"anova df_error {df_error} != {n_students - 1}")
        if not all(_is_number(v) for v in (f, wilks, eta_sq)):
            problems.append(f"anova values {anova[1]}")
    return problems


def _compare_structure(out_dir, stdout, questions) -> list[str]:
    problems = _rmse_structure(read_rows(out_dir / "compare.csv"), questions, len(METRICS) * len(NGRAMS))
    text = stdout.read_text(encoding="utf-8")
    if "rmse by question" not in text or "lowest rmse per metric" not in text:
        problems.append("compare did not print its table")
    return problems


def _rmse_structure(rows, questions, cells) -> list[str]:
    if rows[0] != ["question_id", "metric", "ngram", "rmse"]:
        return [f"rmse header {rows[0]}"]
    keys = sorted((r[0], r[1], r[2]) for r in rows[1:])
    metrics = sorted({(r[1], r[2]) for r in rows[1:]})
    expected = sorted((q, m, n) for q in [*questions, "overall"] for m, n in metrics)
    problems = []
    if keys != expected or len(metrics) != cells:
        problems.append(f"rmse rows cover {len(keys)} cells, expected {len(expected)}")
    for row in rows[1:]:
        if not (_is_number(row[3]) and float(row[3]) >= 0.0):
            problems.append(f"rmse {row} is not a non-negative number")
    return problems[:10]


# ---------------------------------------------------------------------------
# small-corpus oracle
# ---------------------------------------------------------------------------

def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("essayscore_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_oracle(oracle, command: str, config: tuple[str, int], corpus: Path, out_dir: Path) -> list[str]:
    """Problems in one command's output, judged against the reference scorer."""
    problems = _files_problems(command, out_dir)
    if problems:
        return problems
    inputs = (
        oracle.read_answers(corpus / "answers.csv"),
        oracle.read_model(corpus / "model.csv"),
        oracle.read_stopwords(corpus / "stopwords.txt"),
        oracle.read_normalization(corpus / "normalization.csv"),
    )
    if command == "score":
        return _score_oracle(oracle, inputs, config, out_dir)
    grades = oracle.read_grades(corpus / "grades.csv")
    if command == "evaluate":
        expected = _expected_rmse(oracle, inputs, grades, *config)
        got = read_rows(out_dir / "evaluation.csv")[1:]
        problems = _rmse_oracle(got, expected)
        problems += _stats_oracle(oracle, inputs, grades, config, out_dir)
        return problems
    expected = {}
    for metric in METRICS:
        for n in NGRAMS:
            expected.update(_expected_rmse(oracle, inputs, grades, metric, n))
    return _rmse_oracle(read_rows(out_dir / "compare.csv")[1:], expected)


def _score_oracle(oracle, inputs, config, out_dir) -> list[str]:
    records, totals = oracle.score_corpus(*inputs, *config)
    problems = []
    rows = read_rows(out_dir / "scores.csv")[1:]
    if sorted((r[0], r[1]) for r in rows) != sorted(records):
        problems.append("scores.csv keys differ from the oracle's")
    for sid, qid, sim, points in rows:
        want_sim, want_points = records.get((sid, qid), (math.nan, math.nan))
        if not (_close(sim, want_sim, 4) and _close(points, want_points, 2)):
            problems.append(f"{sid},{qid}: {sim},{points} != oracle {want_sim},{want_points}")
    for sid, total in read_rows(out_dir / "totals.csv")[1:]:
        if not _close(total, totals.get(sid, math.nan), 2):
            problems.append(f"total {sid}: {total} != oracle {totals.get(sid)}")
    return problems[:10]


def _matched_totals(oracle, inputs, grades, metric, n):
    records, _ = oracle.score_corpus(*inputs, metric, n)
    per_question: dict[str, list[tuple[float, float]]] = {}
    human: dict[str, float] = {}
    system: dict[str, float] = {}
    for sid, qid, score in grades:
        if (sid, qid) not in records:
            continue
        points = records[(sid, qid)][1]
        per_question.setdefault(qid, []).append((score, points))
        human[sid] = human.get(sid, 0.0) + score
        system[sid] = system.get(sid, 0.0) + points
    return per_question, human, system


def _expected_rmse(oracle, inputs, grades, metric, n) -> dict[tuple[str, str, str], float]:
    per_question, human, system = _matched_totals(oracle, inputs, grades, metric, n)
    expected = {(qid, metric, str(n)): oracle.rmse(pairs) for qid, pairs in per_question.items()}
    expected[("overall", metric, str(n))] = oracle.rmse([(human[s], system[s]) for s in human])
    return expected


def _rmse_oracle(rows, expected) -> list[str]:
    problems = []
    if sorted((r[0], r[1], r[2]) for r in rows) != sorted(expected):
        problems.append("rmse cells differ from the oracle's")
    for qid, metric, n, value in rows:
        want = expected.get((qid, metric, n), math.nan)
        if not _close(value, want, 6):
            problems.append(f"rmse {qid},{metric},{n}: {value} != oracle {want}")
    return problems[:10]


def _stats_oracle(oracle, inputs, grades, config, out_dir) -> list[str]:
    _, human, system = _matched_totals(oracle, inputs, grades, *config)
    students = sorted(human)
    series = {"system": [system[s] for s in students], "human": [human[s] for s in students]}
    problems = []
    for source, mean, std, cv in read_rows(out_dir / "stats.csv")[1:]:
        values = series[source]
        want_mean = statistics.fmean(values)
        want_std = statistics.stdev(values)
        want_cv = want_std / want_mean * 100.0
        if not (_close(mean, want_mean, 4) and _close(std, want_std, 4) and _close(cv, want_cv, 4)):
            problems.append(f"stats {source}: {mean},{std},{cv} != {want_mean},{want_std},{want_cv}")
    # two conditions on the same subjects: the ANOVA is the paired t-test
    diffs = [a - b for a, b in zip(series["system"], series["human"])]
    df_error = len(diffs) - 1
    t = statistics.fmean(diffs) / (statistics.stdev(diffs) / math.sqrt(len(diffs)))
    f = t * t
    eta_sq = f / (f + df_error)
    _, got_f, got_wilks, got_p, got_eta, got_df = read_rows(out_dir / "anova.csv")[1]
    if not (
        _close_sig(got_f, f)
        and _close_sig(got_eta, eta_sq)
        and _close_sig(got_wilks, 1.0 - eta_sq)
        and got_df == str(df_error)
        and 0.0 <= float(got_p) <= 1.0
    ):
        problems.append(f"anova {got_f},{got_wilks},{got_p},{got_eta},{got_df} != F {f}, eta {eta_sq}")
    return problems
