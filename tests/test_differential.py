"""Differential gate: the library against the brute-force oracle on random corpora.

A seeded generator writes small corpora in mixed scripts, with blank
answers, random lexicons, weights from 0 to 10 and multi-line answers.
For every (metric, n) cell the library's records and totals must match
``tests/oracle.py`` to 1e-9 and equal those of one ``cells`` call over the
whole grid exactly, questions scored in parallel must give exactly the
records of questions scored in one process, and the CLI's ``compare.csv``
must match the oracle's RMSE at its printed precision. The seeds are fixed, so every run
checks the same corpora.
"""

import csv
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
from essayscore import (
    EssayScoreError,
    aggregate_totals,
    load_answers,
    load_lexicons,
    load_model,
    score_corpus,
)
from essayscore.cli import main

ROOT = Path(__file__).resolve().parent.parent
CELLS = [(m, n) for m in ("cosine", "jaccard") for n in (1, 2, 3)]
SEEDS = range(24)

# letters from several scripts; "İ" lowercases to "i" plus a combining dot
ALPHABETS = [
    "abcdefghijklmnoprstuwy",
    "ABCDEGHKLMNOPRSTU",
    "абвгдеёжзийклмнопрстуя",
    "αβγδεζηθικλμνξοπρσςτω",
    "日本語文字漢字",
    "éüñçøåßİ",
]
SEPARATORS = [" ", " ", " ", ", ", ". ", "\n", "\r\n", " - ", " 42 ", "!? ", "\t", "_"]
# the file behind each input flag of the CLI
FILES = {
    "answers": "answers.csv",
    "model": "model.csv",
    "grades": "grades.csv",
    "stopwords": "stopwords.txt",
    "normalization": "normalization.csv",
}


def _word(rng):
    alphabet = rng.choice(ALPHABETS)
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))


def _text(rng, pool, words):
    out = []
    for _ in range(words):
        out.append(rng.choice(pool) if rng.random() < 0.85 else _word(rng))
        out.append(rng.choice(SEPARATORS))
    return "".join(out)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def make_corpus(seed, out_dir, allow_tokenless=True):
    """Write one random corpus into ``out_dir`` and return its paths by CLI flag.

    With ``allow_tokenless`` some corpora hold a question whose model answer
    has no terms after preprocessing.
    """
    rng = random.Random(seed)
    pool = [_word(rng) for _ in range(rng.randint(4, 12))]
    stopwords = rng.sample(pool, rng.randint(0, 2))
    normalization = [(rng.choice(pool).upper(), rng.choice(pool)) for _ in range(rng.randint(0, 5))]
    questions = [f"q{i}" for i in range(1, rng.randint(2, 4) + 1)]
    students = [f"s{i}" for i in range(1, rng.randint(3, 7) + 1)]
    tokenless = rng.choice(questions) if allow_tokenless and rng.random() < 0.3 else None

    model_rows = []
    for qid in questions:
        if qid == tokenless:
            text = rng.choice(["123 !?", " - ", " ".join(stopwords) or "7"])
        else:
            text = _text(rng, pool, rng.randint(1, 12)) + rng.choice(pool)
        weight = rng.choice([0, 10, rng.randint(0, 10), rng.uniform(0, 10)])
        model_rows.append((qid, text, repr(weight)))

    answer_rows, grade_rows = [], []
    for sid in students:
        for qid in questions:
            roll = rng.random()
            if roll < 0.1:
                continue  # not answered
            text = "" if roll < 0.2 else _text(rng, pool, rng.randint(0, 14))
            answer_rows.append((sid, qid, text))
            if rng.random() < 0.85:
                grade_rows.append((sid, qid, repr(round(rng.uniform(0, 10), rng.randint(0, 3)))))
    rng.shuffle(answer_rows)
    if not grade_rows:
        sid, qid, _ = answer_rows[0]
        grade_rows.append((sid, qid, "1"))

    paths = {flag: out_dir / name for flag, name in FILES.items()}
    _write_csv(paths["answers"], ["student_id", "question_id", "answer_text"], answer_rows)
    _write_csv(paths["model"], ["question_id", "model_answer", "weight"], model_rows)
    _write_csv(paths["grades"], ["student_id", "question_id", "score"], grade_rows)
    _write_csv(paths["normalization"], ["slang", "formal"], normalization)
    paths["stopwords"].write_text(
        "# random stopwords\n" + "".join(f"{w}\n" for w in stopwords), encoding="utf-8"
    )
    return paths


def oracle_inputs(paths):
    return (
        oracle.read_answers(paths["answers"]),
        oracle.read_model(paths["model"]),
        oracle.read_stopwords(paths["stopwords"]),
        oracle.read_normalization(paths["normalization"]),
    )


def oracle_rmse_cells(paths, metric, n):
    """{question_id or 'overall': rmse} as the oracle computes it for one cell."""
    o_answers, o_model, o_stop, o_norm = oracle_inputs(paths)
    records, _ = oracle.score_corpus(o_answers, o_model, o_stop, o_norm, metric, n)
    per_question, per_student = {}, {}
    for sid, qid, score in oracle.read_grades(paths["grades"]):
        if (sid, qid) in records:
            pair = (score, records[(sid, qid)][1])
            per_question.setdefault(qid, []).append(pair)
            per_student.setdefault(sid, []).append(pair)
    cells = {qid: oracle.rmse(pairs) for qid, pairs in per_question.items()}
    totals = [
        (sum(h for h, _ in pairs), sum(s for _, s in pairs)) for pairs in per_student.values()
    ]
    cells["overall"] = oracle.rmse(totals)
    return cells


def cli_paths(paths, out):
    return [arg for flag, path in paths.items() for arg in (f"--{flag}", str(path))] + [
        "--out", str(out)
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_library_matches_oracle(tmp_path, seed):
    paths = make_corpus(seed, tmp_path)
    answers = load_answers(paths["answers"])
    questions = load_model(paths["model"])
    lexicons = load_lexicons(paths["stopwords"], paths["normalization"])
    o_answers, o_model, o_stop, o_norm = oracle_inputs(paths)
    answered = {a.question_id for a in answers}
    tokenless = [
        qid for qid, text, _ in o_model
        if qid in answered and not oracle.pipeline(text, o_stop, o_norm)
    ]
    if tokenless:
        with pytest.raises(EssayScoreError, match="model answer has no terms"):
            score_corpus(answers, questions, lexicons, cells=CELLS)
    else:
        grid = dict(zip(CELLS, score_corpus(answers, questions, lexicons, cells=CELLS)))
    for metric, n in CELLS:
        expected, expected_totals = oracle.score_corpus(
            o_answers, o_model, o_stop, o_norm, metric, n
        )
        if tokenless:
            # the oracle scores such a question 0; the library refuses it
            assert all(expected[(a.student_id, a.question_id)] == (0.0, 0.0)
                       for a in answers if a.question_id in tokenless)
            with pytest.raises(EssayScoreError, match="model answer has no terms"):
                score_corpus(answers, questions, lexicons, metric=metric, n=n)
            continue
        records = score_corpus(answers, questions, lexicons, metric=metric, n=n)
        # the one-pass grid gives the one-cell call's records exactly
        assert grid[(metric, n)] == records, (metric, n)
        assert len(records) == len(expected)
        for r in records:
            similarity, points = expected[(r.student_id, r.question_id)]
            assert abs(r.similarity - similarity) <= 1e-9, (metric, n, r)
            assert abs(r.points - points) <= 1e-9, (metric, n, r)
        totals = {t.student_id: t.total for t in aggregate_totals(records)}
        assert totals.keys() == expected_totals.keys()
        for sid, total in totals.items():
            assert abs(total - expected_totals[sid]) <= 1e-9, (metric, n, sid)


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_scoring_gives_the_same_bits(tmp_path, workers, seed):
    paths = make_corpus(seed, tmp_path)
    answers = load_answers(paths["answers"])
    questions = load_model(paths["model"])
    lexicons = load_lexicons(paths["stopwords"], paths["normalization"])

    def outcome():
        try:
            return (
                list(score_corpus(answers, questions, lexicons, cells=CELLS)),
                [score_corpus(answers, questions, lexicons, metric=m, n=n) for m, n in CELLS],
            )
        except EssayScoreError as exc:
            return str(exc)

    workers.cpus(1)
    sequential = outcome()
    assert workers.forks == 0
    workers.cpus(4)
    assert outcome() == sequential
    # a tokenless model answer is refused before any child is forked
    assert (workers.forks > 0) == (not isinstance(sequential, str))


def test_row_order_changes_no_record(tmp_path):
    """Shuffled answer and model rows give each (student, question) its record, bit for bit."""

    def records_by_key(answers, questions, lexicons):
        return [
            {(r.student_id, r.question_id): (r.similarity.hex(), r.points.hex()) for r in cell}
            for cell in score_corpus(answers, questions, lexicons, cells=CELLS)
        ]

    for seed in SEEDS:
        paths = make_corpus(seed, tmp_path, allow_tokenless=False)
        answers = load_answers(paths["answers"])
        questions = load_model(paths["model"])
        lexicons = load_lexicons(paths["stopwords"], paths["normalization"])
        expected = records_by_key(answers, questions, lexicons)
        rng = random.Random(seed)
        for _ in range(3):
            shuffled = rng.sample(answers, len(answers)), rng.sample(questions, len(questions))
            assert records_by_key(*shuffled, lexicons) == expected, seed


def test_the_seeds_reach_every_case(tmp_path):
    """The fixed seeds include every case the generator is there to produce."""
    seen = set()
    for seed in SEEDS:
        o_answers, o_model, o_stop, o_norm = oracle_inputs(make_corpus(seed, tmp_path))
        answers = [text for _, _, text in o_answers]
        texts = answers + [text for _, text, _ in o_model]
        seen.update(f"script {i}" for i, a in enumerate(ALPHABETS) if set(a) & set("".join(texts)))
        cases = {
            "stopwords": o_stop,
            "normalization chain": o_norm.keys() & set(o_norm.values()),
            "blank answer": [t for t in answers if not oracle.pipeline(t, o_stop, o_norm)],
            "multi-line answer": [t for t in answers if "\n" in t],
            "weight 0": [w for _, _, w in o_model if w == 0],
            "weight 10": [w for _, _, w in o_model if w == 10],
        }
        seen.update(name for name, hits in cases.items() if hits)
        for qid, text, _ in o_model:
            docs = [set(oracle.pipeline(text, o_stop, o_norm))] + [
                set(oracle.pipeline(t, o_stop, o_norm)) for _, q, t in o_answers if q == qid
            ]
            if len(docs) > 1 and not docs[0]:
                seen.add("tokenless model answer")
            if len(docs) > 1 and set.intersection(*docs):
                seen.add("term in every document")
    assert seen == {
        *(f"script {i}" for i in range(len(ALPHABETS))),
        "stopwords",
        "normalization chain",
        "blank answer",
        "multi-line answer",
        "tokenless model answer",
        "term in every document",
        "weight 0",
        "weight 10",
    }


@pytest.mark.parametrize("seed", range(6))
def test_compare_matches_oracle_rmse(tmp_path, capsys, seed):
    paths = make_corpus(seed, tmp_path, allow_tokenless=False)
    assert main(["compare", *cli_paths(paths, tmp_path / "out")]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "compare.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    expected = {
        (qid, metric, str(n)): value
        for metric, n in CELLS
        for qid, value in oracle_rmse_cells(paths, metric, n).items()
    }
    assert sorted((qid, metric, ngram) for qid, metric, ngram, _ in rows) == sorted(expected)
    for qid, metric, ngram, value in rows:
        # printed with 6 decimals, so within half a unit of the last digit
        assert abs(float(value) - expected[(qid, metric, ngram)]) <= 5e-7 + 1e-12, (
            qid, metric, ngram, value
        )


def test_compare_is_byte_identical_across_hash_seeds(tmp_path):
    paths = make_corpus(3, tmp_path, allow_tokenless=False)
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"out-{hash_seed}"
        result = subprocess.run(
            [sys.executable, "-m", "essayscore.cli", "compare", *cli_paths(paths, out)],
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed},
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        runs.append((result.stdout, result.stderr, (out / "compare.csv").read_bytes()))
    assert runs[0] == runs[1]
