"""Loaders for the five input files.

All inputs are UTF-8 text, read from any path ``open()`` reads, a named
pipe too. Tabular files are RFC-4180 CSV with a required header row; LF,
CR and CRLF line endings are all accepted. Loading is order-preserving and
purely a function of file contents.

Each input file is read once, and each data row becomes its record as
soon as it is read, so no file's rows are held beside its records. Each
record's line is kept with it, so a later diagnostic names its line
without reading the file again: a record names its line while it stays
where it was loaded, and the file is named while the list is as loaded.
The first fault in file order is reported, and reading stops there
(within a row, a bad number is found before an empty key, and a repeated
key last). The two readers, ``_read_rows`` and ``_stopword_entries``,
name the file and line of a faulty row, so no row check takes either.

File formats:

* ``answers.csv``       header ``student_id,question_id,answer_text``
* ``model.csv``         header ``question_id,model_answer,weight``
* ``grades.csv``        header ``student_id,question_id,score``
* ``stopwords.txt``     one token per line, ``#`` starts a comment line
* ``normalization.csv`` header ``slang,formal``
"""

import csv
import math
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path

from .errors import EssayScoreError
from .preprocess import Lexicons, _is_token

ANSWERS_HEADER = ["student_id", "question_id", "answer_text"]
MODEL_HEADER = ["question_id", "model_answer", "weight"]
GRADES_HEADER = ["student_id", "question_id", "score"]
NORMALIZATION_HEADER = ["slang", "formal"]


class RawEssay(namedtuple("RawEssay", "student_id question_id text")):
    """One student's unprocessed answer text to one question."""

    __slots__ = ()


class QuestionSpec(namedtuple("QuestionSpec", "question_id model_answer weight")):
    """A question's model answer and its weight (maximum points)."""

    __slots__ = ()


class HumanGrade(namedtuple("HumanGrade", "student_id question_id score")):
    """The teacher's score for one (student, question) pair."""

    __slots__ = ()


@contextmanager
def _open_input(path: Path):
    """Open what ``open()`` can, a pipe too, as UTF-8 text; a fault raises ``"<file>: <reason>"``."""
    # the csv module's default limit of 131,072 characters per field would
    # reject a long but legal essay (2**31 - 1 is the largest C long on every
    # platform); the limit is process-wide, so the caller's is restored
    old_limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise EssayScoreError(f"{path}: not valid UTF-8 ({_first_non_utf8(path, exc)})") from exc
    except OSError as exc:
        raise EssayScoreError(f"{path}: {exc.strerror}") from exc
    finally:
        csv.field_size_limit(old_limit)


def _first_non_utf8(path: Path, exc: UnicodeDecodeError) -> str:
    """The file's first byte that does not decode as UTF-8, and the line it is on.

    ``exc``, the text reader's error, counts its position from the start of
    the chunk it was decoding, so a regular file is decoded again whole;
    lines end at LF, CR or CRLF, as for the readers. A file that now decodes
    is described by ``exc``, and a pipe, which cannot be read again, by its byte.
    """
    if not path.is_file():
        return f"byte {exc.object[exc.start]:#04x}"
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = len((data[: whole.start] + b".").splitlines())
        return f"byte {data[whole.start]:#04x} on line {line}"
    return str(exc)


class _Rows(list):
    """The records of file ``path``; ``made`` holds them as loaded.

    ``made[k]``'s row starts on ``lines[k]``. The list may change in place,
    so a line is read through ``_line``.
    """

    __slots__ = ("path", "lines", "made")


def _line(records: Sequence, k: int) -> int | None:
    """The line record ``k`` starts on, while it is the record loaded at ``k``; else None."""
    if isinstance(records, _Rows) and k < len(records.made) and records[k] is records.made[k]:
        return records.lines[k]
    return None


def _where(records: Sequence, k: int | None = None) -> str:
    """Where loaded ``records`` came from: their file, or record ``k``'s ``"<file>: line N: "``.

    The file is named while the list holds just the records loaded, in file
    order, and record ``k``'s line while ``_line`` finds one; else "".
    """
    if k is not None:
        line = _line(records, k)
        return "" if line is None else f"{records.path}: line {line}: "
    if isinstance(records, _Rows) and len(records) == len(records.made):
        if all(a is b for a, b in zip(records, records.made)):
            return str(records.path)
    return ""


def _read_rows(path: Path, header: list[str], make: Callable[[list[str]], object]) -> _Rows:
    """``make(row)`` for each data row of a CSV file, in file order, reading it once.

    A row's line is the physical line it starts on, one past where the row
    before it ended, so a quoted field spanning lines shifts no later row.
    A blank line after the header is no row, and is skipped. Each row gives
    way to what ``make`` returns as soon as it is read, so the rows are
    never all held at once; its line and the record loaded are kept, 16
    bytes a row.
    The first fault in file order is raised as soon as it is read, and
    reading stops there: a wrong header, naming the file, or else a CSV
    syntax error, a row with the wrong field count, or an error ``make``
    raises, each prefixed with ``"<file>: line N: "``, the line its row
    starts on.
    """
    records = _Rows()
    records.path = path
    records.lines = array("L")
    with _open_input(path) as fh:
        reader = csv.reader(fh, strict=True)
        start = 1
        try:
            got = next(reader, None)
            if got == header:
                start = reader.line_num + 1
                for row in reader:
                    if row:  # a blank line holds no row
                        if len(row) != len(header):
                            raise EssayScoreError(f"expected {len(header)} fields, got {len(row)}")
                        records.append(make(row))
                        records.lines.append(start)
                    start = reader.line_num + 1
        except (csv.Error, EssayScoreError) as exc:
            raise EssayScoreError(f"{path}: line {start}: {exc}") from exc
    if got != header:
        raise EssayScoreError(
            f"{path}: expected header {','.join(header)!r}, "
            f"got {','.join(got) if got is not None else '<empty file>'!r}"
        )
    records.made = tuple(records)
    return records


def _parse_number(text: str, column: str) -> float:
    """A finite, nonnegative number from one cell of ``column``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise EssayScoreError(f"{column} {text!r} is not a number") from exc
    if not math.isfinite(value):
        raise EssayScoreError(f"{column} {text!r} is not finite")
    if value < 0:
        raise EssayScoreError(f"{column} {value} is negative")
    return abs(value)  # "-0" passes the check above; it loads as 0.0


def _check_column_sum(values: list[float], path: Path, column: str) -> None:
    """Every value is finite; a column whose total is not would overflow the totals."""
    if math.isinf(sum(values)):
        raise EssayScoreError(f"{path}: {column} column sums past the largest float")


def _keyed_records(
    path: Path, header: list[str], record: type, last: Callable[[str], object], kind: str
) -> list:
    """Each data row of a file keyed by (student_id, question_id), as a ``record``.

    ``last`` makes the record's last field from the row's last cell. Each id
    passes through a dict mapping it to its first instance, so equal ids
    share one str.
    """
    seen: set[tuple[str, str]] = set()
    first: dict[str, str] = {}

    def make(row: list[str]) -> tuple:
        student_id, question_id, cell = row
        value = last(cell)
        key = (first.setdefault(student_id, student_id), first.setdefault(question_id, question_id))
        if not all(key):
            raise EssayScoreError("empty student_id or question_id")
        if key in seen:
            raise EssayScoreError(f"duplicate {kind} for {key}")
        seen.add(key)
        return record(*key, value)

    return _read_rows(path, header, make)


def load_answers(path: str | Path) -> list[RawEssay]:
    """Load the student answer corpus.

    Empty answer text is allowed (blank answers score zero downstream);
    empty identifiers and repeated (student_id, question_id) keys are not.
    """
    return _keyed_records(Path(path), ANSWERS_HEADER, RawEssay, lambda text: text, "answer")


def load_model(path: str | Path) -> list[QuestionSpec]:
    """Load the model answers and question weights."""
    path = Path(path)
    seen: set[str] = set()

    def make(row: list[str]) -> QuestionSpec:
        question_id, model_answer, weight_text = row
        weight = _parse_number(weight_text, "weight")
        if not question_id:
            raise EssayScoreError("empty question_id")
        if not model_answer:
            raise EssayScoreError("empty model answer")
        if question_id in seen:
            raise EssayScoreError(f"duplicate question {question_id!r}")
        seen.add(question_id)
        return QuestionSpec(question_id, model_answer, weight)

    specs = _read_rows(path, MODEL_HEADER, make)
    _check_column_sum([q.weight for q in specs], path, "weight")
    return specs


def load_grades(path: str | Path) -> list[HumanGrade]:
    """Load the teacher's per-question grades."""
    path = Path(path)
    grades = _keyed_records(
        path, GRADES_HEADER, HumanGrade, lambda text: _parse_number(text, "score"), "grade"
    )
    _check_column_sum([g.score for g in grades], path, "score")
    return grades


def _check_single_token(entry: str) -> str:
    """``entry`` case-folded, once it is checked to be a single whitespace-free token."""
    if not entry or any(ch.isspace() for ch in entry):
        raise EssayScoreError(f"{entry!r} must be a single whitespace-free token")
    return entry.lower()


def load_lexicons(
    stopword_path: str | Path,
    normalization_path: str | Path,
    *,
    _warn: Callable[[str], object] = lambda message: None,
) -> Lexicons:
    """Load the stopword list and the slang/typo normalization dictionary.

    All entries are case-folded to lowercase on load. Later normalization
    rows overwrite earlier ones with the same key. ``_warn``, the CLI's
    hook, gets a message naming the file and line of each entry that no
    token can equal. A slang key matches only a token. A stopword matches a
    formal form, or a token that no slang key rewrites.
    """
    stopword_path = Path(stopword_path)
    normalization_path = Path(normalization_path)
    stopwords = list(_stopword_entries(stopword_path))
    # (key as written, key case-folded, formal case-folded) of each slang row
    rows = _read_rows(normalization_path, NORMALIZATION_HEADER,
                      lambda row: (row[0], *map(_check_single_token, row)))
    mapping = {key: formal for _, key, formal in rows}
    formals = set(mapping.values())
    dead = [
        (stopword_path, line, "stopword", entry)
        for line, entry, word in stopwords
        if word not in formals and not (_is_token(word) and mapping.get(word, word) == word)
    ] + [
        (normalization_path, line, "slang", entry)
        for line, (entry, key, _) in zip(rows.lines, rows)
        if not _is_token(key)
    ]
    for path, line, kind, entry in dead:
        _warn(f"{path}: line {line}: {kind} {entry!r} can never match: "
              "preprocessing never yields it")
    return Lexicons(stopwords=frozenset(word for _, _, word in stopwords), normalization=mapping)


def _stopword_entries(path: Path) -> Iterator[tuple[int, str, str]]:
    """(line, entry, entry case-folded) of each stopword-file line not blank or a comment.

    A bad entry raises an error naming its file and line.
    """
    with _open_input(path) as fh:
        for i, line in enumerate(fh, start=1):
            entry = line.strip()
            if entry and not entry.startswith("#"):
                try:
                    word = _check_single_token(entry)
                except EssayScoreError as exc:
                    raise EssayScoreError(f"{path}: line {i}: {exc}") from exc
                yield i, entry, word
