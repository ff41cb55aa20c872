"""CLI behaviour: golden outputs, exit codes, grid consistency, determinism."""

import builtins
import collections
import contextlib
import csv
import errno
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import weakref
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from essayscore import cli, ingest, scoring
from essayscore.cli import main
from conftest import cli_args

ROOT = Path(__file__).resolve().parent.parent


def read_text(path):
    # raw bytes, so CRLF line endings survive the comparison
    return path.read_bytes().decode("utf-8")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


CLOSED = "closed"  # run_cli's stdout for a child started with fd 1 closed, as `>&-` does
# the CLI as it ended before cli.run: through the interpreter's own exit
SYS_EXIT_MAIN = ("-c", "import sys; from essayscore.cli import main; sys.exit(main())")


def run_cli(args, stdout, *, entry=("-m", "essayscore.cli"), **options):
    """The CLI in a child process with ``stdout`` as its standard output.

    ``options`` go to ``subprocess.run``; the streams are text by default.
    """
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, *entry, *args]
    if stdout is CLOSED:
        command, stdout = ["sh", "-c", 'exec "$@" >&-', "sh", *command], None
    return subprocess.run(
        command,
        stdout=stdout,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
        **{"text": True, **options},
    )


@contextlib.contextmanager
def fed_fifo(path, data):
    """A named pipe at ``path`` that a thread fills with ``data`` once a reader opens it."""
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield path
    finally:
        if writer.is_alive():  # no reader opened it, so let the writer's open return
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
        assert not writer.is_alive()


def oracle_outputs(data_dir, metric, ngram):
    answers = oracle.read_answers(data_dir / "answers.csv")
    model = oracle.read_model(data_dir / "model.csv")
    stop = oracle.read_stopwords(data_dir / "stopwords.txt")
    norm = oracle.read_normalization(data_dir / "normalization.csv")
    return oracle.score_corpus(answers, model, stop, norm, metric, ngram)


class TestScoreCommand:
    def test_writes_golden_scores_and_totals(self, data_dir, tmp_path):
        assert main(["score", *cli_args(data_dir, tmp_path)]) == 0

        records, totals = oracle_outputs(data_dir, "cosine", 1)
        expected_scores = ["student_id,question_id,similarity,points"] + [
            f"{sid},{qid},{records[(sid, qid)][0]:.4f},{records[(sid, qid)][1]:.2f}"
            for (sid, qid) in sorted(records)
        ]
        assert read_text(tmp_path / "scores.csv") == "\r\n".join(
            expected_scores
        ) + "\r\n"

        expected_totals = ["student_id,total"] + [
            f"{sid},{totals[sid]:.2f}" for sid in sorted(totals)
        ]
        assert read_text(tmp_path / "totals.csv") == "\r\n".join(
            expected_totals
        ) + "\r\n"

    def test_every_combination_matches_oracle(self, data_dir, tmp_path, corpus):
        for metric in ("cosine", "jaccard"):
            for n in (1, 2, 3):
                out = tmp_path / f"{metric}{n}"
                code = main(
                    ["score", *cli_args(data_dir, out, "--metric", metric,
                                        "--ngram", str(n))]
                )
                assert code == 0
                _, expected = oracle_outputs(data_dir, metric, n)
                got = {
                    row[0]: float(row[1])
                    for row in read_rows(out / "totals.csv")[1:]
                }
                assert got.keys() == expected.keys()
                for sid in got:
                    assert got[sid] == pytest.approx(expected[sid], abs=0.005)

    def test_rows_sorted_by_student_then_question(self, data_dir, tmp_path):
        main(["score", *cli_args(data_dir, tmp_path)])
        keys = [(r[0], r[1]) for r in read_rows(tmp_path / "scores.csv")[1:]]
        assert keys == sorted(keys)

    def test_missing_answers_file_exits_1_naming_path(self, data_dir, tmp_path, capsys):
        args = cli_args(data_dir, tmp_path)
        args[1] = str(tmp_path / "absent.csv")
        assert main(["score", *args]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "absent.csv" in err

    def test_negative_zero_weight_prints_as_zero_points(self, data_dir, tmp_path):
        model = tmp_path / "model.csv"
        rows = read_rows(data_dir / "model.csv")
        assert rows[1][0] == "q1"
        rows[1][2] = "-0"
        write_csv(model, rows[0], rows[1:])
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--model") + 1] = str(model)
        assert main(["score", *args]) == 0
        scores = read_rows(tmp_path / "out" / "scores.csv")[1:]
        assert {points for _, qid, _, points in scores if qid == "q1"} == {"0.00"}

    def test_ngram_4_exits_2_with_usage(self, data_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["score", *cli_args(data_dir, tmp_path), "--ngram", "4"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_answer_longer_than_csv_default_field_limit(self, data_dir, tmp_path):
        # the csv module rejects fields over 131,072 characters by default
        text = " ".join(["pancasila dasar negara"] * 9000)[:200_000]
        answers = tmp_path / "answers.csv"
        with open(answers, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["student_id", "question_id", "answer_text"])
            writer.writerow(["s1", "q1", text])
            writer.writerow(["s2", "q1", "tidak tahu"])
        args = cli_args(data_dir, tmp_path / "out")
        args[1] = str(answers)
        assert main(["score", *args]) == 0
        rows = read_rows(tmp_path / "out" / "scores.csv")[1:]
        assert [r[:2] for r in rows] == [["s1", "q1"], ["s2", "q1"]]

    def test_unknown_metric_exits_2(self, data_dir, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["score", *cli_args(data_dir, tmp_path), "--metric", "dice"])
        assert exc.value.code == 2


class TestEvaluateCommand:
    def test_reports_written(self, data_dir, tmp_path):
        assert main(["evaluate", *cli_args(data_dir, tmp_path, grades=True)]) == 0
        rows = read_rows(tmp_path / "evaluation.csv")
        assert rows[0] == ["question_id", "metric", "ngram", "rmse"]
        by_question = {r[0]: r for r in rows[1:]}
        assert set(by_question) == {"overall", "q1", "q2", "q3"}
        assert all(r[1] == "cosine" and r[2] == "1" for r in rows[1:])

        stats = read_rows(tmp_path / "stats.csv")
        assert stats[0] == ["source", "mean", "std", "cv"]
        assert [r[0] for r in stats[1:]] == ["system", "human"]

        anova = read_rows(tmp_path / "anova.csv")
        assert anova[0] == ["comparison", "f", "wilks_lambda", "p", "eta_sq", "df_error"]
        f, lam, p, eta = (float(x) for x in anova[1][1:5])
        assert f >= 0.0 and 0.0 <= p <= 1.0
        assert lam + eta == pytest.approx(1.0, abs=1e-9)

    def test_printed_statistics_pinned(self, data_dir, tmp_path):
        assert main(["evaluate", *cli_args(data_dir, tmp_path, grades=True)]) == 0
        assert (tmp_path / "stats.csv").read_bytes() == (
            b"source,mean,std,cv\r\n"
            b"system,27.1223,28.2529,104.1683\r\n"
            b"human,59.5000,32.5115,54.6412\r\n"
        )
        assert (tmp_path / "anova.csv").read_bytes() == (
            b"comparison,f,wilks_lambda,p,eta_sq,df_error\r\n"
            b"system_vs_human,13.9167,0.17734,0.0335631,0.82266,3\r\n"
        )

    def test_grades_equal_to_system_totals_give_zero_rmse(self, data_dir, tmp_path):
        records, _ = oracle_outputs(data_dir, "cosine", 1)
        grades_path = tmp_path / "grades.csv"
        with open(grades_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["student_id", "question_id", "score"])
            for (sid, qid) in sorted(records):
                writer.writerow([sid, qid, repr(records[(sid, qid)][1])])

        args = cli_args(data_dir, tmp_path)
        assert main(["evaluate", "--grades", str(grades_path), *args]) == 0
        values = {r[0]: float(r[3]) for r in read_rows(tmp_path / "evaluation.csv")[1:]}
        for value in values.values():
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_one_grade_off_by_two_gives_overall_rmse_one(self, data_dir, tmp_path):
        # 4 students; one human total shifted by 2 -> sqrt(4/4) = 1
        records, _ = oracle_outputs(data_dir, "cosine", 1)
        grades_path = tmp_path / "grades.csv"
        with open(grades_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["student_id", "question_id", "score"])
            for (sid, qid) in sorted(records):
                points = records[(sid, qid)][1]
                if (sid, qid) == ("s2", "q1"):
                    points += 2.0
                writer.writerow([sid, qid, repr(points)])

        args = cli_args(data_dir, tmp_path)
        assert main(["evaluate", "--grades", str(grades_path), *args]) == 0
        values = {r[0]: float(r[3]) for r in read_rows(tmp_path / "evaluation.csv")[1:]}
        assert values["overall"] == pytest.approx(1.0, abs=1e-9)
        # the shifted question's rmse is 2/sqrt(4) = 1 as well
        assert values["q1"] == pytest.approx(1.0, abs=1e-9)
        assert values["q2"] == pytest.approx(0.0, abs=1e-9)

    def test_unknown_student_warned_and_skipped(self, data_dir, tmp_path, capsys):
        grades_path = tmp_path / "grades.csv"
        original = (data_dir / "grades.csv").read_text(encoding="utf-8")
        grades_path.write_text(original + "s99,q1,10\n", encoding="utf-8")

        args = cli_args(data_dir, tmp_path)
        assert main(["evaluate", "--grades", str(grades_path), *args]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "1 grade row" in err

        with_extra = read_text(tmp_path / "evaluation.csv")
        main(["evaluate", *cli_args(data_dir, tmp_path, grades=True)])
        assert read_text(tmp_path / "evaluation.csv") == with_extra


class TestCompareCommand:
    def test_cells_match_standalone_evaluate_runs(self, data_dir, tmp_path):
        cmp_out = tmp_path / "cmp"
        assert main(["compare", *cli_args(data_dir, cmp_out, grades=True)]) == 0
        compare_lines = set(read_text(cmp_out / "compare.csv").splitlines()[1:])

        evaluate_lines = set()
        for metric in ("cosine", "jaccard"):
            for n in (1, 2, 3):
                out = tmp_path / f"eval-{metric}-{n}"
                main(
                    ["evaluate", *cli_args(data_dir, out, "--metric", metric,
                                           "--ngram", str(n), grades=True)]
                )
                evaluate_lines.update(
                    read_text(out / "evaluation.csv").splitlines()[1:]
                )
        assert compare_lines == evaluate_lines

    def test_grid_shape(self, data_dir, tmp_path):
        main(["compare", *cli_args(data_dir, tmp_path, grades=True)])
        rows = read_rows(tmp_path / "compare.csv")[1:]
        # 6 combinations x (3 questions + 1 overall)
        assert len(rows) == 24
        assert {(r[1], r[2]) for r in rows} == {
            (m, str(n)) for m in ("cosine", "jaccard") for n in (1, 2, 3)
        }
        keys = [tuple(r) for r in rows]
        assert keys == sorted(keys)

    def test_five_question_corpus_yields_thirty_grid_cells(self, tmp_path):
        # 5 questions x 6 combinations = 30 per-question cells, plus one
        # overall row per combination
        students = ("s1", "s2", "s3")
        questions = [f"q{i}" for i in range(1, 6)]
        texts = {
            "s1": "jawaban lengkap tentang {}",
            "s2": "jawaban singkat {}",
            "s3": "tidak tahu",
        }
        answers = tmp_path / "answers.csv"
        with open(answers, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["student_id", "question_id", "answer_text"])
            for sid in students:
                for qid in questions:
                    w.writerow([sid, qid, texts[sid].format(qid)])
        model = tmp_path / "model.csv"
        with open(model, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["question_id", "model_answer", "weight"])
            for qid in questions:
                w.writerow([qid, f"jawaban lengkap tentang {qid}", "20"])
        grades = tmp_path / "grades.csv"
        with open(grades, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["student_id", "question_id", "score"])
            for sid in students:
                for qid in questions:
                    w.writerow([sid, qid, "15"])
        lexicons = tmp_path / "stopwords.txt"
        lexicons.write_text("", encoding="utf-8")
        norm = tmp_path / "normalization.csv"
        norm.write_text("slang,formal\n", encoding="utf-8")

        out = tmp_path / "out"
        code = main([
            "compare",
            "--answers", str(answers), "--model", str(model),
            "--grades", str(grades), "--stopwords", str(lexicons),
            "--normalization", str(norm), "--out", str(out),
        ])
        assert code == 0
        rows = read_rows(out / "compare.csv")[1:]
        question_cells = [r for r in rows if r[0] != "overall"]
        assert len(question_cells) == 30
        assert len(rows) == 36

    def test_prints_table_and_minima(self, data_dir, tmp_path, capsys):
        main(["compare", *cli_args(data_dir, tmp_path, grades=True)])
        out = capsys.readouterr().out
        assert "rmse by question" in out
        assert "lowest rmse per metric" in out
        for qid in ("q1", "q2", "q3", "overall"):
            assert qid in out

    def test_loads_each_input_once(self, data_dir, tmp_path, monkeypatch):
        calls = []
        for name in ("load_answers", "load_model", "load_lexicons", "load_grades"):
            original = getattr(cli, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        assert main(["compare", *cli_args(data_dir, tmp_path, grades=True)]) == 0
        assert sorted(calls) == [
            "load_answers", "load_grades", "load_lexicons", "load_model"
        ]

    def test_preprocesses_each_document_once_and_fits_once_per_size(
        self, data_dir, tmp_path, monkeypatch, corpus
    ):
        answers = corpus[0]
        calls = {"preprocess_pipeline": 0, "fit_vocabulary": 0, "score_corpus": 0}
        for module, name in (
            (scoring, "preprocess_pipeline"), (scoring, "fit_vocabulary"), (cli, "score_corpus")
        ):
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        assert main(["compare", *cli_args(data_dir, tmp_path, grades=True)]) == 0
        answered = {a.question_id for a in answers}
        # one model answer per answered question plus every answer, then one
        # fit per question at each of the three n-gram sizes
        assert calls == {
            "preprocess_pipeline": len(answered) + len(answers),
            "fit_vocabulary": 3 * len(answered),
            "score_corpus": 1,
        }

    def test_unmatched_grades_warned_once(self, data_dir, tmp_path, capsys):
        grades_path = tmp_path / "grades.csv"
        original = (data_dir / "grades.csv").read_text(encoding="utf-8")
        grades_path.write_text(original + "s99,q1,10\n", encoding="utf-8")
        args = cli_args(data_dir, tmp_path / "out")
        assert main(["compare", "--grades", str(grades_path), *args]) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")
        ]
        assert warnings == [
            f"warning: {grades_path}: skipped 1 grade row(s) referencing unknown students "
            "or unanswered questions, the first on line 14"
        ]

    def test_empty_student_set_exits_1(self, data_dir, tmp_path, capsys):
        empty_answers = tmp_path / "answers.csv"
        empty_answers.write_text(
            "student_id,question_id,answer_text\n", encoding="utf-8"
        )
        empty_grades = tmp_path / "grades.csv"
        empty_grades.write_text("student_id,question_id,score\n", encoding="utf-8")
        args = cli_args(data_dir, tmp_path)
        args[1] = str(empty_answers)
        assert main(["compare", "--grades", str(empty_grades), *args]) == 1
        assert "error:" in capsys.readouterr().err


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def one_question_args(root, students):
    """CLI args for a one-question corpus of (student_id, answer, grade) rows."""
    write_csv(
        root / "answers.csv",
        ["student_id", "question_id", "answer_text"],
        [(sid, "q1", text) for sid, text, _ in students],
    )
    write_csv(
        root / "model.csv",
        ["question_id", "model_answer", "weight"],
        [("q1", "dasar negara republik indonesia", "20")],
    )
    write_csv(
        root / "grades.csv",
        ["student_id", "question_id", "score"],
        [(sid, "q1", grade) for sid, _, grade in students],
    )
    (root / "stopwords.txt").write_text("", encoding="utf-8")
    (root / "normalization.csv").write_text("slang,formal\n", encoding="utf-8")
    args = cli_args(root, root / "out", grades=True)
    args[args.index("--grades") + 1] = str(root / "grades.csv")
    return args


def warnings_in(capsys):
    return [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("warning:")
    ]


STUDENTS = [
    ("s1", "dasar negara", "12"),
    ("s2", "negara indonesia", "8"),
    ("s3", "republik kita", "3"),
]


@pytest.fixture
def trigram_free_args(tmp_path):
    """Corpus args where no two-word answer has a trigram, so every n=3 total is 0."""
    return one_question_args(tmp_path, STUDENTS)


class TestZeroMeanTotals:
    def test_compare_writes_every_cell(self, trigram_free_args, tmp_path):
        assert main(["compare", *trigram_free_args]) == 0
        rows = read_rows(tmp_path / "out" / "compare.csv")[1:]
        assert len([r for r in rows if r[0] != "overall"]) == 6

    def test_evaluate_leaves_cv_empty_and_warns(self, trigram_free_args, tmp_path, capsys):
        assert main(["evaluate", *trigram_free_args, "--ngram", "3"]) == 0
        stats = read_rows(tmp_path / "out" / "stats.csv")
        assert stats[1] == ["system", "0.0000", "0.0000", ""]
        assert stats[2][0] == "human" and stats[2][3] != ""
        warnings = warnings_in(capsys)
        assert len(warnings) == 1 and "system" in warnings[0]
        assert (tmp_path / "out" / "evaluation.csv").exists()
        assert (tmp_path / "out" / "anova.csv").exists()


class TestFewerThanThreeStudents:
    @pytest.mark.parametrize("count", [1, 2])
    def test_compare_writes_every_cell(self, tmp_path, capsys, count):
        args = one_question_args(tmp_path, STUDENTS[:count])
        assert main(["compare", *args]) == 0
        rows = read_rows(tmp_path / "out" / "compare.csv")[1:]
        assert len(rows) == 12
        assert all(r[3] != "" for r in rows)
        assert warnings_in(capsys) == []

    def test_evaluate_two_students_leaves_anova_empty(self, tmp_path, capsys):
        args = one_question_args(tmp_path, STUDENTS[:2])
        assert main(["evaluate", *args]) == 0
        anova = read_rows(tmp_path / "out" / "anova.csv")
        assert anova[1] == ["system_vs_human", "", "", "", "", ""]
        stats = read_rows(tmp_path / "out" / "stats.csv")
        assert all(cell != "" for row in stats[1:] for cell in row[:3])
        assert warnings_in(capsys) == [
            "warning: too few students (2) for the ANOVA; anova.csv cells left empty"
        ]
        assert len(read_rows(tmp_path / "out" / "evaluation.csv")) == 3

    def test_evaluate_one_student_leaves_std_and_cv_empty(self, tmp_path, capsys):
        args = one_question_args(tmp_path, STUDENTS[:1])
        assert main(["evaluate", *args]) == 0
        stats = read_rows(tmp_path / "out" / "stats.csv")
        assert stats[1][0] == "system" and stats[1][2:] == ["", ""]
        assert stats[2] == ["human", "12.0000", "", ""]
        anova = read_rows(tmp_path / "out" / "anova.csv")
        assert anova[1] == ["system_vs_human", "", "", "", "", ""]
        assert warnings_in(capsys) == [
            "warning: std and cv need at least 2 students, got 1; "
            "std and cv left empty",
            "warning: too few students (1) for the ANOVA; anova.csv cells left empty",
        ]


def tree(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {
        p.relative_to(root): None if p.is_dir() else p.read_bytes()
        for p in sorted(root.rglob("*"))
    }


class TestFileBoundary:
    """Bad input is one error line and no --out; a failed write changes no file."""

    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    def test_non_utf8_stopwords_exit_1_without_creating_out(
        self, data_dir, tmp_path, capsys, command
    ):
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_bytes("café\n".encode("latin-1"))
        args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
        args[args.index("--stopwords") + 1] = str(stopwords)
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {stopwords}: not valid UTF-8 (")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_nul_in_an_answer_reads_as_a_space(self, data_dir, tmp_path):
        """A NUL inside a field is read, as csv does since Python 3.11, and scores as a space."""
        scores = []
        for name, between in [("nul", "\0"), ("space", " ")]:
            answers = tmp_path / f"{name}.csv"
            answers.write_text(
                "student_id,question_id,answer_text\n"
                f"s1,q1,Pancasila{between}dasar negara\ns2,q1,ibu kota\n",
                encoding="utf-8",
            )
            args = cli_args(data_dir, tmp_path / name)
            args[args.index("--answers") + 1] = str(answers)
            assert main(["score", *args]) == 0
            scores.append(read_rows(tmp_path / name / "scores.csv"))
        assert scores[0] == scores[1]
        assert scores[0][1][0] == "s1" and float(scores[0][1][-1]) > 0

    def test_read_fault_exit_1_without_creating_out(self, data_dir, tmp_path, monkeypatch, capsys):
        answers = data_dir / "answers.csv"

        def failing_open(file, *args, **kwargs):
            if Path(file) != answers:
                return open(file, *args, **kwargs)

            def lines():
                raise OSError(errno.EIO, os.strerror(errno.EIO))
                yield

            return contextlib.nullcontext(lines())

        monkeypatch.setattr(ingest, "open", failing_open, raising=False)
        assert main(["score", *cli_args(data_dir, tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {answers}: {os.strerror(errno.EIO)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--answers", "--model", "--grades", "--stopwords",
                                        "--normalization"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unopenable_input_is_one_strerror_line_without_creating_out(
        self, data_dir, tmp_path, capsys, option, kind
    ):
        args = cli_args(data_dir, tmp_path / "out", grades=True)
        bad = tmp_path / "absent.csv" if kind == "missing" else data_dir
        args[args.index(option) + 1] = str(bad)
        assert main(["evaluate", *args]) == 1
        reason = os.strerror(errno.ENOENT if kind == "missing" else errno.EISDIR)
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    def test_answers_from_a_named_pipe_match_the_file(self, data_dir, tmp_path, capsys, command):
        grades = command != "score"
        assert main([command, *cli_args(data_dir, tmp_path / "file", grades=grades)]) == 0
        from_file = capsys.readouterr()
        args = cli_args(data_dir, tmp_path / "pipe", grades=grades)
        data = (data_dir / "answers.csv").read_bytes()
        with fed_fifo(tmp_path / "answers.fifo", data) as fifo:
            args[args.index("--answers") + 1] = str(fifo)
            assert main([command, *args]) == 0
        assert capsys.readouterr() == from_file
        assert tree(tmp_path / "pipe") == tree(tmp_path / "file")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_non_utf8_from_a_named_pipe_is_one_line_without_hanging(self, data_dir, tmp_path):
        # the pipe cannot be read again to find the line, so only the byte is named
        data = b"student_id,question_id,answer_text\ns1,q1,caf\xe9\n"
        args = cli_args(data_dir, tmp_path / "out")
        with fed_fifo(tmp_path / "answers.fifo", data) as fifo:
            args[args.index("--answers") + 1] = str(fifo)
            result = run_cli(["score", *args], subprocess.PIPE)  # run_cli times out
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"error: {fifo}: not valid UTF-8 (byte 0xe9)\n"
        assert not (tmp_path / "out").exists()

    def test_failed_scoring_child_exit_1_without_creating_out(
        self, data_dir, tmp_path, monkeypatch, capfd, workers
    ):
        parent = os.getpid()
        original = scoring._score_question

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("planted fault")
            return original(*args)

        monkeypatch.setattr(scoring, "_score_question", failing)
        workers.cpus(2)
        assert main(["score", *cli_args(data_dir, tmp_path / "out")]) == 1
        out, err = capfd.readouterr()
        assert out == ""
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "in a child process failed" in errors[0]
        assert workers.forks == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    def test_unknown_question_names_the_answers_line(self, data_dir, tmp_path, capsys, command):
        answers = tmp_path / "answers.csv"
        rows = read_rows(data_dir / "answers.csv")
        rows[2][1] = "q9"  # line 3
        write_csv(answers, rows[0], rows[1:])
        args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
        args[args.index("--answers") + 1] = str(answers)
        assert main([command, *args]) == 1
        # for evaluate and compare, the grade of line 3's old pair is skipped first
        *warnings, error = capsys.readouterr().err.splitlines()
        assert len(warnings) == (command != "score")
        assert error == (
            f"error: {answers}: line 3: answer {rows[2][0]!r} refers to unknown question "
            f"'q9' (not in {data_dir / 'model.csv'})"
        )
        assert not (tmp_path / "out").exists()
        if command != "score":
            # a bad grades file is still reported first
            args[args.index("--grades") + 1] = str(tmp_path / "missing.csv")
            assert main([command, *args]) == 1
            assert capsys.readouterr().err == (
                f"error: {tmp_path / 'missing.csv'}: {os.strerror(errno.ENOENT)}\n"
            )

    def test_unmatchable_lexicon_entries_warned_once_each(self, data_dir, tmp_path, capsys):
        assert main(["score", *cli_args(data_dir, tmp_path / "plain")]) == 0
        assert capsys.readouterr().err == ""
        stopwords = tmp_path / "stopwords.txt"
        stopwords.write_text(
            (data_dir / "stopwords.txt").read_text(encoding="utf-8") + "don't\n", encoding="utf-8"
        )
        normalization = tmp_path / "normalization.csv"
        normalization.write_text(
            (data_dir / "normalization.csv").read_text(encoding="utf-8") + "x1,y\n",
            encoding="utf-8",
        )
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--stopwords") + 1] = str(stopwords)
        args[args.index("--normalization") + 1] = str(normalization)
        assert main(["score", *args]) == 0
        stop_lines = len(stopwords.read_text(encoding="utf-8").splitlines())
        norm_lines = len(normalization.read_text(encoding="utf-8").splitlines())
        assert capsys.readouterr().err == (
            f"warning: {stopwords}: line {stop_lines}: stopword \"don't\" can never match: "
            f"preprocessing never yields it\n"
            f"warning: {normalization}: line {norm_lines}: slang 'x1' can never match: "
            f"preprocessing never yields it\n"
        )
        for name in ("scores.csv", "totals.csv"):
            assert read_text(tmp_path / "out" / name) == read_text(tmp_path / "plain" / name)

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_grades_matching_no_answer_exit_1_without_creating_out(
        self, data_dir, tmp_path, capsys, command
    ):
        grades = tmp_path / "grades.csv"
        grades.write_text("student_id,question_id,score\ns9,q1,5\n", encoding="utf-8")
        args = cli_args(data_dir, tmp_path / "out")
        assert main([command, "--grades", str(grades), *args]) == 1
        assert capsys.readouterr().err == (
            f"error: {grades}: no grade row matches a scored answer\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_grades_matching_no_answer_fail_before_scoring(
        self, data_dir, tmp_path, monkeypatch, command
    ):
        calls = []
        original = cli.score_corpus

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "score_corpus", counting)
        grades = tmp_path / "grades.csv"
        grades.write_text("student_id,question_id,score\ns9,q1,5\n", encoding="utf-8")
        args = cli_args(data_dir, tmp_path / "out")
        assert main([command, "--grades", str(grades), *args]) == 1
        assert calls == []

    @staticmethod
    def q2_renamed_overall(data_dir, tmp_path, command):
        """CLI args with question q2 renamed "overall" in the answers, model and grades."""
        args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
        for name, column in [("answers", 1), ("model", 0), ("grades", 1)]:
            rows = read_rows(data_dir / f"{name}.csv")
            for row in rows:
                row[column] = "overall" if row[column] == "q2" else row[column]
            write_csv(tmp_path / f"{name}.csv", rows[0], rows[1:])
            if f"--{name}" in args:
                args[args.index(f"--{name}") + 1] = str(tmp_path / f"{name}.csv")
        return args

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    def test_question_named_overall_exit_1_before_scoring(
        self, data_dir, tmp_path, monkeypatch, capsys, command
    ):
        # the all-questions row of evaluation.csv and compare.csv is named "overall"
        calls = []
        original = cli.score_corpus

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "score_corpus", counting)
        assert main([command, *self.q2_renamed_overall(data_dir, tmp_path, command)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {tmp_path / 'model.csv'}: line 3: "
            "question_id 'overall' is reserved for the all-questions row\n"
        )
        assert captured.out == ""
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_score_accepts_a_question_named_overall(self, data_dir, tmp_path, capsys):
        assert main(["score", *self.q2_renamed_overall(data_dir, tmp_path, "score")]) == 0
        assert main(["score", *cli_args(data_dir, tmp_path / "plain")]) == 0
        assert capsys.readouterr().err == ""
        renamed = [
            [sid, "q2" if qid == "overall" else qid, *rest]
            for sid, qid, *rest in read_rows(tmp_path / "out" / "scores.csv")
        ]
        assert sorted(renamed) == sorted(read_rows(tmp_path / "plain" / "scores.csv"))
        assert read_text(tmp_path / "out" / "totals.csv") == read_text(
            tmp_path / "plain" / "totals.csv"
        )

    @pytest.mark.parametrize(
        "name, row, names, command",
        [
            ("model.csv", ",extra model,3", "question_id", "score"),
            ("grades.csv", ",q1,5", "student_id or question_id", "evaluate"),
        ],
        ids=["model", "grades"],
    )
    def test_empty_key_cell_exit_1_without_creating_out(
        self, data_dir, tmp_path, capsys, name, row, names, command
    ):
        path = tmp_path / name
        lines = (data_dir / name).read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([*lines, row]) + "\n", encoding="utf-8")
        args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
        args[args.index(f"--{path.stem}") + 1] = str(path)
        assert main([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: line {len(lines) + 1}: empty {names}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    @pytest.mark.parametrize("model_answer", ["...", "yang dan"])
    def test_model_answer_without_terms_exit_1_without_creating_out(
        self, data_dir, tmp_path, capsys, command, model_answer
    ):
        model = tmp_path / "model.csv"
        rows = read_rows(data_dir / "model.csv")
        rows[2][1] = model_answer
        write_csv(model, rows[0], rows[1:])
        args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
        args[args.index("--model") + 1] = str(model)
        assert main([command, *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {model}: line 3: "
            f"question {rows[2][0]!r}: model answer has no terms after preprocessing\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    def test_out_that_is_a_file_exits_1(self, data_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        out.write_text("keep\n", encoding="utf-8")
        assert main([command, *cli_args(data_dir, out, grades=command != "score")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: {os.strerror(errno.EEXIST)}\n"
        assert captured.out == ""
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_directory_target_changes_nothing(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "anova.csv").mkdir(parents=True)
        (out / "evaluation.csv").write_text("old\n", encoding="utf-8")
        before = tree(out)
        assert main(["evaluate", *cli_args(data_dir, out, grades=True)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'anova.csv'}: {os.strerror(errno.EISDIR)}\n"
        )
        assert tree(out) == before

    def test_failed_replace_names_target_and_leaves_no_temporary(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        def refuse(src, dst):
            raise PermissionError(
                errno.EACCES, os.strerror(errno.EACCES), str(src), None, str(dst)
            )

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "out"
        assert main(["score", *cli_args(data_dir, out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'scores.csv'}: {os.strerror(errno.EACCES)}\n"
        )
        assert tree(out) == {}

    def test_closed_stdout_exits_1_silently_keeping_files(self, data_dir, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the grid is printed
        try:
            result = run_cli(["compare", *cli_args(data_dir, tmp_path, grades=True)], write_end)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, "")
        assert read_rows(tmp_path / "compare.csv")[0] == ["question_id", "metric", "ngram", "rmse"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_stdout_exits_1_with_one_error_line_keeping_files(self, data_dir, tmp_path):
        with open("/dev/full", "wb") as full:
            result = run_cli(["compare", *cli_args(data_dir, tmp_path, grades=True)], full)
        assert result.returncode == 1
        assert result.stderr == f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n"
        assert read_rows(tmp_path / "compare.csv")[0] == ["question_id", "metric", "ngram", "rmse"]

    def test_stdout_that_cannot_encode_a_question_id_exits_1_writing_nothing(
        self, data_dir, tmp_path, capsys, monkeypatch
    ):
        corpus = tmp_path / "data"
        shutil.copytree(data_dir, corpus)
        for name in ("answers.csv", "model.csv", "grades.csv"):
            text = (corpus / name).read_text(encoding="utf-8")
            (corpus / name).write_text(re.sub(r"\bq2\b", "q2é", text), encoding="utf-8")
        assert main(["compare", *cli_args(corpus, tmp_path / "in", grades=True)]) == 0
        table = capsys.readouterr().out
        monkeypatch.setenv("PYTHONIOENCODING", "ascii")
        result = run_cli(
            ["compare", *cli_args(corpus, tmp_path / "child", grades=True)], subprocess.PIPE
        )
        assert (result.returncode, result.stdout, result.stderr) == (
            1,
            "",
            "error: <stdout>: 'ascii' codec can't encode character '\\xe9' in position "
            f"{table.index('é')}: ordinal not in range(128)\n",
        )
        assert tree(tmp_path / "child") == tree(tmp_path / "in")


class TestHugeValues:
    """Every weight and grade set to one huge value: a result or one error, never a traceback."""

    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    @pytest.mark.parametrize("value", ["1e160", "1e308"])
    def test_every_weight_and_grade_huge(self, data_dir, tmp_path, capsys, command, value):
        for name, column in (("model.csv", "weight"), ("grades.csv", "score")):
            rows = read_rows(data_dir / name)
            i = rows[0].index(column)
            write_csv(tmp_path / name, rows[0], [[*r[:i], value, *r[i + 1:]] for r in rows[1:]])
        args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
        args[args.index("--model") + 1] = str(tmp_path / "model.csv")
        if command != "score":
            args[args.index("--grades") + 1] = str(tmp_path / "grades.csv")
        code = main([command, *args])
        err = capsys.readouterr().err
        if value == "1e160":
            # squaring the spread of 3e160-point totals would overflow a float
            assert (code, err) == (0, "")
        else:
            # three 1e308 weights sum past the largest float
            assert code == 1
            assert err == (
                f"error: {tmp_path / 'model.csv'}: weight column sums past the largest float\n"
            )
            assert not (tmp_path / "out").exists()


STOPWORDS = ["yang", "dan", "di", "ini"]
WORDS = ["pancasila", "dasar", "negara", "republik", "indonesia", "rakyat"]
# letters with no shared n-gram between two documents, for any n
UNIQUE_LETTERS = "bcdfghjklmnp"
WEIGHTS = ["0", "1", "20", repr(sys.float_info.max / 8), repr(sys.float_info.max)]
# six grades of max / 8 still sum to a finite column
SCORES = ["0", "5", "20", repr(sys.float_info.max / 8)]


def _sentence(pool, min_size=1):
    return st.lists(st.sampled_from(pool), min_size=min_size, max_size=8).map(" ".join)


def _unique_words(doc):
    return " ".join(f"{UNIQUE_LETTERS[doc % 12]}{UNIQUE_LETTERS[j]}" for j in range(doc % 3 + 1))


# Each kind draws one document's text; ``doc`` numbers the document in its corpus.
TEXT_KINDS = {
    "blank": lambda model, doc: st.sampled_from(["", " ", "\t \n"]),
    "model": lambda model, doc: st.just(model),
    "digits_punctuation": lambda model, doc: st.text(
        alphabet="0123456789 .,;:!?-()'\"", max_size=20
    ),
    "stopwords": lambda model, doc: _sentence(STOPWORDS),
    "no_shared_ngrams": lambda model, doc: st.just(_unique_words(doc)),
    "cyrillic_cjk": lambda model, doc: _sentence(
        ["школа", "Москва", "ученик", "学生", "国家", "考试", "東京"]
    ),
    "ordinary": lambda model, doc: _sentence(WORDS + STOPWORDS, min_size=0),
}


@st.composite
def degenerate_corpora(draw):
    """Legal but degenerate answer, model and grade files, as {name: (header, rows)}."""
    kind = draw(st.sampled_from(sorted(TEXT_KINDS)))
    questions = [f"q{i}" for i in range(1, draw(st.integers(1, 2)) + 1)]
    students = [f"s{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]
    models = {}
    for i, qid in enumerate(questions):
        model_kind = draw(st.sampled_from([kind, "ordinary"]))
        # Answers are documents 0..5, so model answers start at 10. A model
        # answer may be whitespace or punctuation, but not empty.
        text = draw(TEXT_KINDS[model_kind]("", 10 + i))
        models[qid] = text or " "
    answers = [
        (sid, qid, draw(TEXT_KINDS[kind](models[qid], j * len(questions) + i)))
        for j, sid in enumerate(students)
        for i, qid in enumerate(questions)
    ]
    return {
        "answers.csv": (["student_id", "question_id", "answer_text"], answers),
        "model.csv": (
            ["question_id", "model_answer", "weight"],
            [(qid, models[qid], draw(st.sampled_from(WEIGHTS))) for qid in questions],
        ),
        "grades.csv": (
            ["student_id", "question_id", "score"],
            [(sid, qid, draw(st.sampled_from(SCORES))) for sid, qid, _ in answers],
        ),
    }


class TestDegenerateCorpora:
    """Every command on a legal corpus exits 0, or 1 with one error line and no --out."""

    @settings(max_examples=50, deadline=None)
    @given(degenerate_corpora())
    def test_exit_0_or_one_error_line_never_a_traceback(self, files):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, (header, rows) in files.items():
                write_csv(root / name, header, rows)
            (root / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n", encoding="utf-8")
            (root / "normalization.csv").write_text("slang,formal\nnegri,negara\n", encoding="utf-8")
            for command in ("score", "evaluate", "compare"):
                out = root / command
                stderr = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main([command, *cli_args(root, out, grades=command != "score")])
                lines = stderr.getvalue().splitlines()
                assert "Traceback" not in stderr.getvalue()
                assert code in (0, 1), (command, lines)
                if code == 1:
                    assert len([line for line in lines if line.startswith("error:")]) == 1
                    assert not out.exists()


# legal ways to write one CSV file, each read as the file itself
LEGAL_ENCODINGS = [
    "lf", "crlf", "cr", "quote-all", "bom", "no-final-newline", "blank-lines", "crlf-blank-lines",
]


def re_encode(rows, encoding):
    """CSV ``rows`` as the bytes of a file in one of the ``LEGAL_ENCODINGS``.

    The blank-line forms put a blank line after the first data row and at the end.
    """
    end = "\r\n" if encoding.startswith("crlf") else "\r" if encoding == "cr" else "\n"
    quoting = csv.QUOTE_ALL if encoding == "quote-all" else csv.QUOTE_MINIMAL
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=end, quoting=quoting)
    for k, row in enumerate(rows):
        writer.writerow(row)
        if encoding.endswith("blank-lines") and k in (1, len(rows) - 1):
            out.write(end)
    text = out.getvalue()
    if encoding == "no-final-newline":
        text = text.removesuffix(end)
    return (("\ufeff" if encoding == "bom" else "") + text).encode("utf-8")


class TestDeterminism:
    def test_two_full_runs_are_byte_identical(self, data_dir, tmp_path):
        trees = []
        for name in ("a", "b"):
            root = tmp_path / name
            main(["score", *cli_args(data_dir, root / "score")])
            main(["evaluate", *cli_args(data_dir, root / "evaluate", grades=True)])
            main(["compare", *cli_args(data_dir, root / "compare", grades=True)])
            tree = {
                p.relative_to(root): p.read_bytes()
                for p in sorted(root.rglob("*.csv"))
            }
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]

    def test_outputs_do_not_depend_on_row_order(self, data_dir, tmp_path, capsys):
        # every input file's data rows, and the stopword file's lines, shuffled
        rng = random.Random(0)
        shuffled = tmp_path / "shuffled"
        shuffled.mkdir()
        for path in sorted(data_dir.iterdir()):
            if path.suffix == ".csv":
                header, *rows = read_rows(path)
                rng.shuffle(rows)
                write_csv(shuffled / path.name, header, rows)
            else:
                lines = path.read_text(encoding="utf-8").splitlines()
                rng.shuffle(lines)
                (shuffled / path.name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_rows(shuffled / "answers.csv") != read_rows(data_dir / "answers.csv")
        runs = []
        for corpus in (data_dir, shuffled):
            root = tmp_path / f"out-{corpus.name}"
            stdout = {}
            for command in ("score", "evaluate", "compare"):
                args = cli_args(corpus, root / command, grades=command != "score")
                assert main([command, *args]) == 0
                stdout[command] = capsys.readouterr().out
            files = {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.csv"))}
            runs.append((stdout, files))
        assert len(runs[0][1]) == 6
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("encoding", LEGAL_ENCODINGS)
    def test_legal_re_encodings_change_nothing(self, data_dir, tmp_path, capsys, encoding):
        # every CSV file rewritten in one legal form; the stopword file as it is
        encoded = tmp_path / "encoded"
        shutil.copytree(data_dir, encoded)
        for path in encoded.glob("*.csv"):
            path.write_bytes(re_encode(read_rows(path), encoding))
        runs = []
        for corpus in (data_dir, encoded):
            root = tmp_path / f"out-{corpus.name}"
            streams = {}
            for command in ("score", "evaluate", "compare"):
                args = cli_args(corpus, root / command, grades=command != "score")
                status = main([command, *args])
                out, err = capsys.readouterr()
                streams[command] = (status, out, err.replace(str(corpus), "<corpus>"))
            files = {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*.csv"))}
            runs.append((streams, files))
        assert len(runs[0][1]) == 6
        assert runs[0] == runs[1]


def keep_first_row(path):
    """Cut a CSV file to its header and first data row."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:2]), encoding="utf-8")


def change_after(monkeypatch, name, change):
    """Call ``change()`` right after each call of ``cli.<name>`` returns."""
    original = getattr(cli, name)

    def changing(*args, **kwargs):
        loaded = original(*args, **kwargs)
        change()
        return loaded

    monkeypatch.setattr(cli, name, changing)


class TestInputChangedDuringRun:
    """A file changed after its load does not change the diagnostic, which names its line."""

    @staticmethod
    def run(capsys, command, args, out):
        """Exit status and stderr of one run writing to ``out``."""
        args = [*args]
        args[args.index("--out") + 1] = str(out)
        return main([command, *args]), capsys.readouterr().err

    def test_model_answer_without_terms_still_names_its_file(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        model = tmp_path / "model.csv"
        rows = read_rows(data_dir / "model.csv")
        rows[-1][1] = "..."
        write_csv(model, rows[0], rows[1:])
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--model") + 1] = str(model)
        before = self.run(capsys, "score", args, tmp_path / "out")
        assert before == (1, (
            f"error: {model}: line {len(rows)}: "
            f"question {rows[-1][0]!r}: model answer has no terms after preprocessing\n"
        ))
        change_after(monkeypatch, "load_model", lambda: keep_first_row(model))
        assert self.run(capsys, "score", args, tmp_path / "out") == before
        assert not (tmp_path / "out").exists()

    def test_unknown_question_still_names_its_file(self, data_dir, tmp_path, monkeypatch, capsys):
        answers = tmp_path / "answers.csv"
        rows = read_rows(data_dir / "answers.csv")
        rows[-1][1] = "q9"
        write_csv(answers, rows[0], rows[1:])
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--answers") + 1] = str(answers)
        before = self.run(capsys, "score", args, tmp_path / "out")
        assert before == (1, (
            f"error: {answers}: line {len(rows)}: answer {rows[-1][0]!r} refers to unknown "
            f"question 'q9' (not in {data_dir / 'model.csv'})\n"
        ))
        change_after(monkeypatch, "load_answers", lambda: keep_first_row(answers))
        assert self.run(capsys, "score", args, tmp_path / "out") == before
        assert not (tmp_path / "out").exists()

    def test_skipped_grade_warned_with_its_line(self, data_dir, tmp_path, monkeypatch, capsys):
        grades = tmp_path / "grades.csv"
        rows = read_rows(data_dir / "grades.csv")
        write_csv(grades, rows[0], [*rows[1:], ["s9", "q1", "5"]])
        args = cli_args(data_dir, tmp_path / "out", grades=True)
        args[args.index("--grades") + 1] = str(grades)
        before = self.run(capsys, "evaluate", args, tmp_path / "before")
        assert before[0] == 0
        assert before[1].startswith(
            f"warning: {grades}: skipped 1 grade row(s) referencing unknown students "
            f"or unanswered questions, the first on line {len(rows) + 1}\n"
        )
        change_after(monkeypatch, "load_grades", lambda: keep_first_row(grades))
        assert self.run(capsys, "evaluate", args, tmp_path / "after") == before
        for name in ("evaluation.csv", "stats.csv", "anova.csv"):
            assert read_text(tmp_path / "after" / name) == read_text(tmp_path / "before" / name)

    def test_unknown_question_in_a_file_that_no_longer_reads_names_its_line(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        answers = tmp_path / "answers.csv"
        rows = read_rows(data_dir / "answers.csv")
        rows[1][1] = "q9"
        write_csv(answers, rows[0], rows[1:])
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--answers") + 1] = str(answers)
        before = self.run(capsys, "score", args, tmp_path / "out")
        assert before == (1, (
            f"error: {answers}: line 2: answer {rows[1][0]!r} refers to unknown question "
            f"'q9' (not in {data_dir / 'model.csv'})\n"
        ))
        rewrite = partial(write_csv, answers, ["sid", "qid", "text"], rows[1:])
        change_after(monkeypatch, "load_answers", rewrite)
        assert self.run(capsys, "score", args, tmp_path / "out") == before
        assert not (tmp_path / "out").exists()

    def check_dead_slang_key_warned_with_its_line(
        self, data_dir, tmp_path, monkeypatch, capsys, rewritten
    ):
        """The dead slang key's warning, with ``normalization.csv`` rewritten after its load."""
        normalization = tmp_path / "normalization.csv"
        text = (data_dir / "normalization.csv").read_text(encoding="utf-8") + "x1,y\n"
        normalization.write_text(text, encoding="utf-8")
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--normalization") + 1] = str(normalization)
        before = self.run(capsys, "score", args, tmp_path / "before")
        assert before == (0, (
            f"warning: {normalization}: line {len(text.splitlines())}: slang 'x1' can never "
            f"match: preprocessing never yields it\n"
        ))
        rewrite = partial(normalization.write_text, rewritten, encoding="utf-8")
        change_after(monkeypatch, "load_lexicons", rewrite)
        assert self.run(capsys, "score", args, tmp_path / "after") == before
        for name in ("scores.csv", "totals.csv"):
            assert read_text(tmp_path / "after" / name) == read_text(tmp_path / "before" / name)

    def test_dead_lexicon_entry_of_a_file_that_no_longer_reads_warned_with_its_line(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        self.check_dead_slang_key_warned_with_its_line(
            data_dir, tmp_path, monkeypatch, capsys, 'slang,formal\n"x1,y\n'
        )

    def test_dead_lexicon_entry_the_file_no_longer_holds_warned_with_its_line(
        self, data_dir, tmp_path, monkeypatch, capsys
    ):
        self.check_dead_slang_key_warned_with_its_line(
            data_dir, tmp_path, monkeypatch, capsys, "slang,formal\n"
        )


class TestOneReadPerInput:
    """Each input file is opened once, and a diagnostic's line comes from that read."""

    @pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
    @pytest.mark.parametrize(
        "fault", ["unknown_question", "model_answer_without_terms", "warnings"]
    )
    def test_each_input_opened_once(self, data_dir, tmp_path, monkeypatch, capsys, command, fault):
        corpus = tmp_path / "corpus"
        shutil.copytree(data_dir, corpus)
        if fault == "unknown_question":
            rows = read_rows(corpus / "answers.csv")
            rows[1][1] = "q9"
            write_csv(corpus / "answers.csv", rows[0], rows[1:])
            expected = ["line 2: answer 's1' refers to unknown question 'q9'"]
        elif fault == "model_answer_without_terms":
            rows = read_rows(corpus / "model.csv")
            rows[1][1] = "..."
            write_csv(corpus / "model.csv", rows[0], rows[1:])
            expected = ["line 2: question 'q1': model answer has no terms"]
        else:
            appended = {
                "stopwords.txt": "don't", "normalization.csv": "x1,y", "grades.csv": "s9,q1,5"
            }
            for name, row in appended.items():
                with open(corpus / name, "a", encoding="utf-8") as fh:
                    fh.write(row + "\n")
            expected = ["line 17: stopword \"don't\"", "line 8: slang 'x1'"]
            if command != "score":
                expected.append("grade row(s) referencing unknown students or unanswered "
                                "questions, the first on line 14")
        opened = collections.Counter()
        for module in (builtins, io):  # pathlib opens through io.open
            def counting(file, *args, _open=module.open, **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    opened[Path(file).resolve()] += 1
                return _open(file, *args, **kwargs)

            monkeypatch.setattr(module, "open", counting)
        args = cli_args(corpus, tmp_path / "out", grades=command != "score")
        status = main([command, *args])
        monkeypatch.undo()
        err = capsys.readouterr().err
        assert status == (fault != "warnings")
        for diagnostic in expected:
            assert diagnostic in err
        inputs = ["answers.csv", "model.csv", "stopwords.txt", "normalization.csv"]
        inputs += ["grades.csv"] if command != "score" else []
        counts = {name: opened[(corpus / name).resolve()] for name in inputs}
        assert counts == dict.fromkeys(inputs, 1)

    @pytest.mark.parametrize(
        "first, line", [("q1", 2), ("q3", 4)], ids=["q1_answered_first", "q3_answered_first"]
    )
    def test_of_two_model_answers_without_terms_the_first_answered_is_named(
        self, data_dir, tmp_path, monkeypatch, capsys, first, line
    ):
        model = tmp_path / "model.csv"
        rows = read_rows(data_dir / "model.csv")
        rows[1][1] = rows[3][1] = "..."
        write_csv(model, rows[0], rows[1:])
        answers = tmp_path / "answers.csv"
        rows = read_rows(data_dir / "answers.csv")
        # a stable sort moves the answers to ``first`` ahead of the rest
        write_csv(answers, rows[0], sorted(rows[1:], key=lambda row: row[1] != first))
        calls = []
        original = scoring.preprocess_pipeline

        def counting(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(scoring, "preprocess_pipeline", counting)
        args = cli_args(data_dir, tmp_path / "out")
        args[args.index("--model") + 1] = str(model)
        args[args.index("--answers") + 1] = str(answers)
        assert main(["score", *args]) == 1
        assert capsys.readouterr().err == (
            f"error: {model}: line {line}: "
            f"question {first!r}: model answer has no terms after preprocessing\n"
        )
        # only the model answer named was preprocessed, and once
        assert calls == ["..."]


@pytest.mark.parametrize("command", ["score", "evaluate", "compare"])
def test_answers_freed_before_the_first_record(data_dir, tmp_path, monkeypatch, command):
    class Answers(list):
        __slots__ = ("__weakref__",)

    refs = []
    load_answers, score_corpus = cli.load_answers, cli.score_corpus

    def loading(*args):
        answers = Answers(load_answers(*args))
        refs.append(weakref.ref(answers))
        return answers

    def checking(*args, **kwargs):
        grid = score_corpus(*args, **kwargs)

        def cells():
            assert refs[0]() is None, "the answers outlive the scoring call"
            yield from grid

        return cells()

    monkeypatch.setattr(cli, "load_answers", loading)
    monkeypatch.setattr(cli, "score_corpus", checking)
    args = cli_args(data_dir, tmp_path / "out", grades=command != "score")
    assert main([command, *args]) == 0
    assert len(refs) == 1


@contextlib.contextmanager
def unwritable_stdout(kind):
    """A child's stdout that takes no byte: fd 1 closed, ``/dev/full`` or a pipe whose reader left."""
    if kind == "closed":
        yield CLOSED
    elif kind == "full":
        with open("/dev/full", "wb") as full:
            yield full
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            yield write_end
        finally:
            os.close(write_end)


class TestEntryPoint:
    """``python -m essayscore.cli`` ends through ``cli.run`` without the interpreter's teardown.

    Its children run with stdout buffered, as a console script's is, so a
    failed write shows at the flush on exit.
    """

    @pytest.fixture(autouse=True)
    def child_env(self, monkeypatch):
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        monkeypatch.setenv("COLUMNS", "80")  # the width of --help, in process and in the child

    @staticmethod
    def command_args(data_dir, out, command):
        if command == "usage":
            return ["score", *cli_args(data_dir, out), "--ngram", "4"]
        if command == "bad-input":
            return ["score", *cli_args(data_dir, out), "--answers", str(out.parent / "missing.csv")]
        if command == "--help":
            return ["--help"]
        return [command, *cli_args(data_dir, out, grades=command != "score")]

    @pytest.mark.parametrize(
        "command, status",
        [("--help", 0), ("usage", 2), ("bad-input", 1), ("score", 0), ("compare", 0)],
    )
    def test_as_main_in_process(self, data_dir, tmp_path, capsys, command, status):
        try:
            got = main(self.command_args(data_dir, tmp_path / "in", command))
        except SystemExit as exc:
            got = exc.code
        out, err = capsys.readouterr()
        result = run_cli(
            self.command_args(data_dir, tmp_path / "child", command), subprocess.PIPE, text=False
        )
        assert got == status
        assert (result.returncode, result.stdout, result.stderr) == (
            status, out.encode(), err.encode()
        )
        assert tree(tmp_path / "child") == tree(tmp_path / "in")
        if command == "compare":
            assert out.startswith("rmse by question")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "kind, statuses",
        [
            ("closed", {"--help": 0, "score": 0, "compare": 1}),
            ("full", {"--help": 120, "score": 0, "compare": 1}),
            ("gone", {"--help": 120, "score": 0, "compare": 1}),
        ],
    )
    @pytest.mark.parametrize("command", ["--help", "score", "compare"])
    def test_unwritable_stdout_as_the_interpreters_exit(
        self, data_dir, tmp_path, kind, statuses, command
    ):
        """Status and stderr as ``sys.exit(main())`` gives, the parent's; a traceback's last line."""
        results = []
        for k, entry in enumerate([("-m", "essayscore.cli"), SYS_EXIT_MAIN]):
            with unwritable_stdout(kind) as stdout:
                args = self.command_args(data_dir, tmp_path / f"out{k}", command)
                results.append(run_cli(args, stdout, entry=entry))
        got, want = results
        assert got.returncode == want.returncode == statuses[command]
        if want.stderr.startswith("Traceback"):  # whose frames name the entry
            assert got.stderr.startswith("Traceback")
            assert got.stderr.splitlines()[-1] == want.stderr.splitlines()[-1]
        else:
            assert got.stderr == want.stderr
        assert tree(tmp_path / "out0") == tree(tmp_path / "out1")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_help_to_a_full_unbuffered_stdout_exits_0(self, monkeypatch):
        """The failed write is ignored, as by argparse since Python 3.11, not a traceback."""
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
        with unwritable_stdout("full") as stdout:
            result = run_cli(["--help"], stdout)
        assert (result.returncode, result.stderr) == (0, "")

    def test_compare_with_stdout_closed_names_the_bad_descriptor(self, data_dir, tmp_path, capsys):
        """One ``error: <stdout>:`` line, as for ``/dev/full``, and ``compare.csv`` kept."""
        assert main(["compare", *cli_args(data_dir, tmp_path / "in", grades=True)]) == 0
        capsys.readouterr()
        result = run_cli(["compare", *cli_args(data_dir, tmp_path / "child", grades=True)], CLOSED)
        assert (result.returncode, result.stderr) == (
            1, f"error: <stdout>: {os.strerror(errno.EBADF)}\n"
        )
        assert tree(tmp_path / "child") == tree(tmp_path / "in")

    def test_atexit_handlers_still_run(self, data_dir, tmp_path, monkeypatch):
        """A handler runs, and what it prints is flushed, as with the interpreter's own exit."""
        site = tmp_path / "site"
        site.mkdir()
        ran = tmp_path / "ran"
        (site / "sitecustomize.py").write_text(
            "import atexit, pathlib\n"
            f"atexit.register(lambda: (pathlib.Path({str(ran)!r}).touch(), print('at exit')))\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("PYTHONPATH", str(site))
        result = run_cli(["score", *cli_args(data_dir, tmp_path / "out")], subprocess.PIPE)
        assert (result.returncode, result.stdout, result.stderr) == (0, "at exit\n", "")
        assert ran.exists()

    def test_python_i_still_reaches_the_prompt(self):
        result = run_cli(
            ["--help"], subprocess.PIPE, entry=("-i", "-m", "essayscore.cli"), input="print('prompt')\n"
        )
        assert result.returncode == 0
        assert result.stdout.startswith("usage: essayscore") and result.stdout.endswith("prompt\n")
