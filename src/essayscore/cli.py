"""Command-line interface: score a corpus, evaluate it, or sweep the grid.

Three subcommands share one input convention (CSV corpus files plus the
two lexicon files) and write CSV reports into an output directory:

* ``score``    -> ``scores.csv``, ``totals.csv``
* ``evaluate`` -> ``evaluation.csv``, ``stats.csv``, ``anova.csv``
* ``compare``  -> ``compare.csv`` plus an aligned per-question table on
  stdout covering all six (metric, n-gram) combinations

Diagnostics go to stderr; data goes to files (the compare table being the
one deliberate exception), written all or none. Output rows are sorted so
repeated runs over the same inputs are byte-identical. Exit status is 0 on
success, 1 for bad input data or an unwritable output, 2 for bad usage.
"""

from __future__ import annotations

import argparse
import csv
import errno
import math
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import EssayScoreError
from .evaluation import EvaluationReport, build_report
from .ingest import HumanGrade, load_answers, load_grades, load_lexicons, load_model
from .ngrams import VALID_NGRAM_SIZES
from .scoring import ScoreRecord, aggregate_totals, score_corpus
from .similarity import SIMILARITY_METRICS

METRIC_CHOICES = tuple(sorted(SIMILARITY_METRICS))
DEFAULT_METRIC = "cosine"
DEFAULT_NGRAM = 1
OutputFiles = dict[str, tuple[Sequence[str], Sequence[Sequence[str]]]]  # name -> (header, rows)


def _load_corpus(args: argparse.Namespace):
    essays = load_answers(args.answers)
    questions = load_model(args.model)
    lexicons = load_lexicons(args.stopwords, args.normalization)
    return essays, questions, lexicons


def _write_outputs(out: Path, files: OutputFiles) -> None:
    """Write every file to a temporary name in ``out``, then move each into place.

    A target that is a directory fails the run before any file is replaced.
    """
    temps = {name: out / f".{name}.{os.getpid()}.tmp" for name in files}
    try:
        for name, (header, rows) in files.items():
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
            with open(temps[name], "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        for name, temp in temps.items():
            os.replace(temp, out / name)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def cmd_score(args: argparse.Namespace) -> OutputFiles:
    essays, questions, lexicons = _load_corpus(args)
    records = score_corpus(essays, questions, lexicons, metric=args.metric, n=args.ngram)
    score_rows = sorted(
        (r.student_id, r.question_id, f"{r.similarity:.4f}", f"{r.points:.2f}")
        for r in records
    )
    total_rows = sorted(
        (t.student_id, f"{t.total:.2f}") for t in aggregate_totals(records)
    )
    return {
        "scores.csv": (["student_id", "question_id", "similarity", "points"], score_rows),
        "totals.csv": (["student_id", "total"], total_rows),
    }


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _report(
    records: Sequence[ScoreRecord], grades: Sequence[HumanGrade], grades_path: Path
) -> EvaluationReport:
    """``build_report``; no grade row matching a record is an error, unmatched rows a warning."""
    scored = {(r.student_id, r.question_id) for r in records}
    if not any((g.student_id, g.question_id) in scored for g in grades):
        raise EssayScoreError(f"{grades_path}: no grade row matches a scored answer")
    report = build_report(records, grades)
    if report.unmatched_grades:
        _warn(
            f"skipped {report.unmatched_grades} grade row(s) "
            f"referencing unknown students or unanswered questions"
        )
    return report


def _rmse_rows(report: EvaluationReport, metric: str, ngram: int) -> list[tuple[str, str, str, str]]:
    """Long-form RMSE rows for one run; the per-student-total row is 'overall'."""
    rows = [
        (qid, metric, str(ngram), f"{value:.6f}")
        for qid, value in report.per_question.items()
    ]
    rows.append(("overall", metric, str(ngram), f"{report.overall:.6f}"))
    return rows


def _stats_rows(report: EvaluationReport) -> list[tuple[str, ...]]:
    """``stats.csv`` rows; an undefined std or cv is an empty cell plus a warning."""
    sources = (("system", report.system_stats), ("human", report.human_stats))
    students = len(report.totals)
    if students < 2:
        _warn(
            f"std and cv need at least 2 students, got {students}; "
            f"std and cv left empty"
        )
    else:
        for source, stats in sources:
            if math.isnan(stats.cv):
                _warn(
                    f"{source} totals have mean 0, so their coefficient of "
                    f"variation is undefined; cv left empty"
                )
    return [
        (source, *("" if math.isnan(v) else f"{v:.4f}" for v in stats))
        for source, stats in sources
    ]


def cmd_evaluate(args: argparse.Namespace) -> OutputFiles:
    essays, questions, lexicons = _load_corpus(args)
    grades = load_grades(args.grades)
    records = score_corpus(essays, questions, lexicons, metric=args.metric, n=args.ngram)
    report = _report(records, grades, args.grades)
    rmse_rows = sorted(_rmse_rows(report, args.metric, args.ngram))
    stats_rows = _stats_rows(report)
    anova = report.anova
    if anova is None:
        _warn(
            f"too few students ({len(report.totals)}) for the ANOVA; "
            f"anova.csv cells left empty"
        )
        cells = ("",) * 5
    else:
        cells = (
            f"{anova.f:.6g}",
            f"{anova.wilks_lambda:.6g}",
            f"{anova.p:.6g}",
            f"{anova.eta_sq:.6g}",
            str(anova.df_error),
        )
    return {
        "evaluation.csv": (["question_id", "metric", "ngram", "rmse"], rmse_rows),
        "stats.csv": (["source", "mean", "std", "cv"], stats_rows),
        "anova.csv": (
            ["comparison", "f", "wilks_lambda", "p", "eta_sq", "df_error"],
            [("system_vs_human", *cells)],
        ),
    }


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _print_grid(rows: list[tuple[str, str, str, str]]) -> None:
    """Render the long-form rows as one metric x n-gram table per question."""
    cells = {(qid, metric, ngram): value for qid, metric, ngram, value in rows}
    question_ids = sorted({qid for qid, _, _, _ in rows})
    ngram_labels = [str(n) for n in VALID_NGRAM_SIZES]

    print("rmse by question (rows: metric, columns: n-gram size)")
    for qid in question_ids:
        print(f"\n{qid}")
        print("  " + f"{'':<10}" + "".join(f"{'n=' + n:>12}" for n in ngram_labels))
        for metric in METRIC_CHOICES:
            values = [cells[(qid, metric, n)] for n in ngram_labels]
            print("  " + f"{metric:<10}" + "".join(f"{v:>12}" for v in values))

    print("\nlowest rmse per metric (per-question cells):")
    for metric in METRIC_CHOICES:
        candidates = [
            (value, qid, ngram)
            for qid, m, ngram, value in rows
            if m == metric and qid != "overall"
        ]
        value, qid, ngram = min(candidates, key=lambda c: (float(c[0]), c[1], c[2]))
        print(f"  {metric:<10}{value}  (question {qid}, n={ngram})")


def cmd_compare(args: argparse.Namespace) -> OutputFiles:
    essays, questions, lexicons = _load_corpus(args)
    grades = load_grades(args.grades)
    all_rows: list[tuple[str, str, str, str]] = []
    for metric in METRIC_CHOICES:
        for ngram in VALID_NGRAM_SIZES:
            records = score_corpus(essays, questions, lexicons, metric=metric, n=ngram)
            if all_rows:
                report = build_report(records, grades)
            else:  # grade matching depends only on the keys, not on the cell
                report = _report(records, grades, args.grades)
            all_rows.extend(_rmse_rows(report, metric, ngram))
            del records  # free this cell's records before the next cell is scored
    all_rows.sort()
    _print_grid(all_rows)
    return {"compare.csv": (["question_id", "metric", "ngram", "rmse"], all_rows)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_arguments(sub: argparse.ArgumentParser, with_grades: bool) -> None:
    sub.add_argument("--answers", required=True, type=Path, help="student answers CSV")
    sub.add_argument("--model", required=True, type=Path, help="model answers CSV")
    if with_grades:
        sub.add_argument("--grades", required=True, type=Path, help="teacher grades CSV")
    sub.add_argument("--stopwords", required=True, type=Path, help="stopword list, one per line")
    sub.add_argument("--normalization", required=True, type=Path, help="slang,formal CSV")
    sub.add_argument("--out", required=True, type=Path, metavar="DIR", help="output directory")


def _add_config_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--metric",
        choices=METRIC_CHOICES,
        default=DEFAULT_METRIC,
        help="similarity metric (default: %(default)s)",
    )
    sub.add_argument(
        "--ngram",
        type=int,
        choices=VALID_NGRAM_SIZES,
        default=DEFAULT_NGRAM,
        help="n-gram size (default: %(default)s)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essayscore",
        description="Score student essay answers against teacher model answers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score a corpus and write points")
    _add_common_arguments(p_score, with_grades=False)
    _add_config_arguments(p_score)
    p_score.set_defaults(handler=cmd_score)

    p_eval = sub.add_parser("evaluate", help="compare system scores to grades")
    _add_common_arguments(p_eval, with_grades=True)
    _add_config_arguments(p_eval)
    p_eval.set_defaults(handler=cmd_evaluate)

    p_cmp = sub.add_parser("compare", help="sweep all metric/n-gram combinations")
    _add_common_arguments(p_cmp, with_grades=True)
    p_cmp.set_defaults(handler=cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        files = args.handler(args)
    except EssayScoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        args.out.mkdir(parents=True, exist_ok=True)
        _write_outputs(args.out, files)
    except OSError as exc:  # os.replace names its target second
        print(f"error: {exc.filename2 or exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
