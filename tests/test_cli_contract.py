"""The CLI's contract on bad input, over seeded random mutations of its input files.

Each case copies a corpus, mutates one of its files with one to four random
byte edits and runs one command in process. Whatever the edit, the run exits
0 or 1 and raises nothing. On exit 1 stderr holds exactly one line that is
not a warning: it starts ``error:`` and names the mutated file. An error
naming a line names the right one: the line a CSV row starts on, a stopword
file's entry, or the line of a file's first byte that is not UTF-8. And
``--out`` is left as it was: absent if it was absent, unchanged if not.

The corpora are ``data/`` and a copy of it with 100 students, whose answers
run past 8 KiB, the text reader's decode chunk, so that a byte offset counted
from the start of a chunk would show.
"""

import contextlib
import csv
import io
import random
import re
import shutil

import pytest

from essayscore.cli import main

FILES = {
    "answers": "answers.csv",
    "model": "model.csv",
    "grades": "grades.csv",
    "stopwords": "stopwords.txt",
    "normalization": "normalization.csv",
}
COMMANDS = {
    "score": ("answers", "model", "stopwords", "normalization"),
    "evaluate": ("answers", "model", "grades", "stopwords", "normalization"),
    "compare": ("answers", "model", "grades", "stopwords", "normalization"),
}
# byte strings an edit inserts: CSV syntax, line ends, bytes that are not
# UTF-8, Unicode line separators and a BOM, numbers a cell must refuse, a
# letter that case-folds to two code points, a comment mark, unknown ids
INSERTS = [
    b",", b'"', b"\r", b"\n", b"\r\n", b"\x00", b"\xff", b"\xc3", b"\x85",
    "\x85".encode(), "\u2028".encode(), "\ufeff".encode(), b"nan", b"inf",
    b"-1", b"1e309", b"1e-320", "\u0130".encode(), b"#", b"q9", b"s9", b" ", b"'",
]
# the errors that concern a whole file, not one row; every
# other error names a line
WHOLE_FILE_ERRORS = (
    "expected header", "column sums past the largest float",
    "no grade row matches a scored answer",
)
CASES = {"data": 360, "large": 150}


def _mutate(rng, data):
    """``data`` after one to four random edits."""
    for _ in range(rng.randint(1, 4)):
        edit = rng.randrange(5)
        at = rng.randint(0, len(data))
        if edit == 0:
            data = data[:at] + rng.choice(INSERTS) + data[at:]
        elif edit == 1:
            data = data[:at] + data[at + rng.randint(1, 6):]
        elif edit == 2:
            lines = data.splitlines(keepends=True)
            if lines:
                k = rng.randrange(len(lines))
                lines.insert(k, lines[k])
            data = b"".join(lines)
        elif edit == 3:
            data = data[:at]
        elif data:
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([rng.randrange(128)]) + data[at + 1:]
    return data


def _line_of(data, offset):
    """The line ``offset`` is on, lines ending at LF, CR or CRLF."""
    return len((data[:offset] + b".").splitlines())


def _lines_named(path):
    """The lines an error about ``path`` may name: where a row or entry starts."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return {_line_of(data, exc.start)}
    if path.suffix == ".txt":
        return set(range(1, len(data.splitlines()) + 1))
    starts, start = set(), 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            for _ in reader:
                starts.add(start)
                start = reader.line_num + 1
        except csv.Error:
            starts.add(start)
    return starts


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else None


def _large_corpus(data_dir, directory):
    """A copy of ``data/`` with 100 students' answers and grades, the answers past 8 KiB."""
    shutil.copytree(data_dir, directory)
    with open(data_dir / "answers.csv", newline="", encoding="utf-8") as fh:
        texts = [row[2] for row in list(csv.reader(fh))[1:]]
    answers, grades = [], []
    for s in range(1, 101):
        for q in (1, 2, 3):
            answers.append((f"s{s}", f"q{q}", texts[(s * 3 + q) % len(texts)]))
            grades.append((f"s{s}", f"q{q}", str((s * 7 + q) % 20)))
    for name, header, rows in (
        ("answers.csv", ["student_id", "question_id", "answer_text"], answers),
        ("grades.csv", ["student_id", "question_id", "score"], grades),
    ):
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    assert (directory / "answers.csv").stat().st_size > 8192
    return directory


@pytest.mark.parametrize("corpus", sorted(CASES))
def test_mutated_input_keeps_the_cli_contract(data_dir, tmp_path, corpus):
    source = data_dir if corpus == "data" else _large_corpus(data_dir, tmp_path / "large")
    rng = random.Random(f"cli-contract-{corpus}")
    statuses = {0: 0, 1: 0}
    for case in range(CASES[corpus]):
        command = rng.choice(sorted(COMMANDS))
        flags = COMMANDS[command]
        target = rng.choice(flags)
        work = tmp_path / f"case{case}"
        shutil.copytree(source, work)
        path = work / FILES[target]
        path.write_bytes(_mutate(rng, path.read_bytes()))
        out = work / "out"
        if rng.random() < 0.5:
            out.mkdir()
            (out / "scores.csv").write_bytes(b"kept\n")
        before = _snapshot(out)
        argv = [command, "--out", str(out)]
        argv += [arg for flag in flags for arg in (f"--{flag}", str(work / FILES[flag]))]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
        where = f"case {case}: {command}, {target} mutated"
        assert status in (0, 1), where
        statuses[status] += 1
        errors = [
            line for line in stderr.getvalue().splitlines() if not line.startswith("warning: ")
        ]
        if status == 0:
            assert errors == [], where
            continue
        assert len(errors) == 1, (where, errors)
        error = errors[0]
        assert error.startswith("error: ") and str(path) in error, (where, error)
        assert _snapshot(out) == before, (where, error)
        line = re.search(r"\bline (\d+)\b", error)
        if not any(phrase in error for phrase in WHOLE_FILE_ERRORS):
            assert line, (where, error)
        if line:
            named = work / FILES[
                next(flag for flag in flags if error.startswith(f"error: {work / FILES[flag]}: "))
            ]
            assert int(line.group(1)) in _lines_named(named), (where, error)
        shutil.rmtree(work)
    # the edits reach both outcomes
    assert min(statuses.values()) > CASES[corpus] // 10, statuses
