"""Command-line interface: score a corpus, evaluate it, or sweep the grid.

Three subcommands share one input convention (CSV corpus files plus the
two lexicon files) and write CSV reports into an output directory:

* ``score``    -> ``scores.csv``, ``totals.csv``
* ``evaluate`` -> ``evaluation.csv``, ``stats.csv``, ``anova.csv``
* ``compare``  -> ``compare.csv`` plus an aligned per-question table on
  stdout covering all six (metric, n-gram) combinations

Diagnostics go to stderr; data goes to files (the compare table, printed
once its file is written, being the one deliberate exception), written all
or none. A diagnostic that names a row's line takes it from the loaders,
so no input file is read twice. Output rows are sorted so repeated runs
over the same inputs are byte-identical. Exit status is 0 on success, 1
for bad input data or an unwritable output (stdout included), 2 for bad
usage.
"""

from __future__ import annotations

import argparse
import atexit
import csv
import errno
import math
import os
import sys
from collections.abc import Iterator, Sequence
from pathlib import Path

from .errors import EssayScoreError
from .evaluation import EvaluationReport, build_report
from .ingest import HumanGrade, RawEssay, load_answers, load_grades, load_lexicons, load_model
from .ngrams import VALID_NGRAM_SIZES
from .scoring import ScoreRecord, aggregate_totals, score_corpus
from .similarity import SIMILARITY_METRICS

METRIC_CHOICES = tuple(sorted(SIMILARITY_METRICS))
OutputFiles = dict[str, tuple[Sequence[str], Sequence[Sequence[str]]]]  # name -> (header, rows)


def _scored(
    args: argparse.Namespace, cells: list[tuple[str, int]]
) -> tuple[Iterator[list[ScoreRecord]], list[HumanGrade] | None]:
    """Load the inputs and score ``cells``: (records iterator, grades).

    The files load as answers, model, lexicons, then grades. That order
    decides which error a run with several bad files reports, so it stays
    fixed. The grades, for a command that reads them, are those of answered
    pairs. The answers live only here, so their texts are freed before the
    caller reads the first cell and builds a record.
    """
    essays = load_answers(args.answers)
    questions = load_model(args.model)
    lexicons = load_lexicons(args.stopwords, args.normalization, _warn=_warn)
    grades = _answered_grades(args, essays) if "grades" in args else None
    return score_corpus(essays, questions, lexicons, cells=cells), grades


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
    grid, _ = _scored(args, [(args.metric, args.ngram)])
    records = next(grid)
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


def _answered_grades(args: argparse.Namespace, essays: Sequence[RawEssay]) -> list[HumanGrade]:
    """Load the grades and keep the rows whose (student, question) was answered.

    Keeping none is an error naming the grades file; the rows dropped are
    counted in one warning naming the file and the line of the first.
    """
    grades = load_grades(args.grades)
    answered = {(e.student_id, e.question_id) for e in essays}
    kept = [g for g in grades if (g.student_id, g.question_id) in answered]
    if not kept:
        raise EssayScoreError(f"{args.grades}: no grade row matches a scored answer")
    if len(kept) < len(grades):
        first = next(
            k for k, g in enumerate(grades) if (g.student_id, g.question_id) not in answered
        )
        _warn(
            f"{args.grades}: skipped {len(grades) - len(kept)} grade row(s) referencing "
            f"unknown students or unanswered questions, the first on line {grades.lines[first]}"
        )
    return kept


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
    grid, grades = _scored(args, [(args.metric, args.ngram)])
    report = build_report(next(grid), grades)
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
    cells = [(metric, ngram) for metric in METRIC_CHOICES for ngram in VALID_NGRAM_SIZES]
    grid, grades = _scored(args, cells)
    all_rows: list[tuple[str, str, str, str]] = []
    for metric, ngram in cells:
        # no name holds a cell's records, so they go before the next cell's are built
        all_rows.extend(_rmse_rows(build_report(next(grid), grades), metric, ngram))
    all_rows.sort()
    return {"compare.csv": (["question_id", "metric", "ngram", "rmse"], all_rows)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="essayscore",
        description="Score student essay answers against teacher model answers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name, handler, help, reads --grades, takes --metric/--ngram
    commands = (
        ("score", cmd_score, "score a corpus and write points", False, True),
        ("evaluate", cmd_evaluate, "compare system scores to grades", True, True),
        ("compare", cmd_compare, "sweep all metric/n-gram combinations", True, False),
    )
    for name, handler, help_text, with_grades, with_config in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--answers", required=True, type=Path, help="student answers CSV")
        p.add_argument("--model", required=True, type=Path, help="model answers CSV")
        if with_grades:
            p.add_argument("--grades", required=True, type=Path, help="teacher grades CSV")
        p.add_argument("--stopwords", required=True, type=Path, help="stopword list, one per line")
        p.add_argument("--normalization", required=True, type=Path, help="slang,formal CSV")
        p.add_argument("--out", required=True, type=Path, metavar="DIR", help="output directory")
        if with_config:
            p.add_argument(
                "--metric",
                choices=METRIC_CHOICES,
                default="cosine",
                help="similarity metric (default: %(default)s)",
            )
            p.add_argument(
                "--ngram",
                type=int,
                choices=VALID_NGRAM_SIZES,
                default=1,
                help="n-gram size (default: %(default)s)",
            )
        p.set_defaults(handler=handler)
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
    if args.command == "compare":
        try:
            _print_grid(files["compare.csv"][1])
            sys.stdout.flush()
        except OSError as exc:
            # as the Python docs' note on SIGPIPE advises, stdout goes to
            # devnull so run()'s flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if exc.errno != errno.EPIPE:  # a reader that left wants no message
                print(f"error: <stdout>: {exc.strerror}", file=sys.stderr)
            return 1
    return 0


def run() -> None:
    """The console script: ``main()``, then exit without the interpreter's teardown.

    The status is ``main()``'s, or argparse's ``SystemExit`` code. The
    ``atexit`` handlers run and stdout and stderr are flushed, in the
    interpreter's own order, then the process ends without freeing each
    object. A failed flush, a non-int status or ``python -i`` (whose prompt
    comes after the script) takes the interpreter's own exit, so what it
    prints and its status stay as they were.
    """
    try:
        status = main()
    except SystemExit as exc:
        status = exc.code
    if not isinstance(status, int) or sys.flags.inspect:
        sys.exit(status)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start-up
                stream.flush()
    except OSError:
        sys.exit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
