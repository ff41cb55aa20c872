"""Loaders for the five input files.

All inputs are UTF-8 text. Tabular files are RFC-4180 CSV with a required
header row; both LF and CRLF line endings are accepted. Loading is
order-preserving and purely a function of file contents.

Each input file is read once, and each data row becomes its record as
soon as it is read, so no file's rows are held beside its records. Each
record's line is kept with it, so a later diagnostic names its line
without reading the file again. The first fault in file order is
reported, and reading stops there (within a row, a bad number is found
before an empty key, and a repeated key last).

File formats:

* ``answers.csv``       header ``student_id,question_id,answer_text``
* ``model.csv``         header ``question_id,model_answer,weight``
* ``grades.csv``        header ``student_id,question_id,score``
* ``stopwords.txt``     one token per line, ``#`` starts a comment line
* ``normalization.csv`` header ``slang,formal``
"""

from __future__ import annotations

import csv
import math
from array import array
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType

from .errors import EssayScoreError

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


class Lexicons(
    namedtuple("Lexicons", "stopwords normalization", defaults=(frozenset(), MappingProxyType({})))
):
    """Stopword set and slang-to-formal normalization map, all lowercase.

    The normalization map is applied once per token (no chaining), so a
    cycle among entries is harmless.
    """

    __slots__ = ()


@contextmanager
def _open_input(path: Path):
    """Open an input file as UTF-8 text; a fault reading it raises an error naming it."""
    if not path.is_file():
        raise EssayScoreError(f"input file not found: {path}")
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
    the chunk it was decoding, so the whole file is decoded again; lines end
    at LF, CR or CRLF, as for the readers. A file that now decodes is
    described by ``exc``.
    """
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = len((data[: whole.start] + b".").splitlines())
        return f"byte {data[whole.start]:#04x} on line {line}"
    return str(exc)


class _Rows(list):
    """The records of file ``path`` in file order; record ``k``'s row starts on ``lines[k]``.

    Any in-place change to the list sets ``lines`` to None, since record
    ``k`` may then be another row.
    """

    __slots__ = ("path", "lines")


def _forgetting_lines(change: Callable) -> Callable:
    def changed(self, *args, **kwargs):
        self.lines = None
        return change(self, *args, **kwargs)

    return changed


for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
    "insert", "pop", "remove", "clear", "sort", "reverse",
):
    setattr(_Rows, _name, _forgetting_lines(getattr(list, _name)))


def _where(records: Sequence, k: int | None = None) -> str:
    """Where loaded ``records`` came from: their file, or record ``k``'s ``"<file>: line N: "``.

    Records no loader made, such as a plain list, come from nowhere: "", as
    do loaded records since changed in place, whose lines no longer fit.
    """
    if not isinstance(records, _Rows) or records.lines is None:
        return ""
    return str(records.path) if k is None else f"{records.path}: line {records.lines[k]}: "


def _read_rows(path: Path, header: list[str], make: Callable[[list[str], int], object]) -> _Rows:
    """``make(row, line)`` for each data row of a CSV file, in file order, reading it once.

    A row's line is the physical line it starts on, one past where the row
    before it ended, so a quoted field spanning lines shifts no later row.
    Each row gives way to what ``make`` returns as soon as it is read, so
    the rows are never all held at once; its line is kept, 8 bytes a row.
    The first fault in file order is raised as soon as it is read, and
    reading stops there: a CSV syntax error (naming the line its row starts
    on), a wrong header, a row with the wrong field count, or an error
    ``make`` raises.
    """
    records = _Rows()
    records.path = path
    records.lines = array("L")
    append = super(_Rows, records).append  # list's own, which keeps the lines
    with _open_input(path) as fh:
        reader = csv.reader(fh, strict=True)
        start = 1
        try:
            got = next(reader, None)
            if got != header:
                raise EssayScoreError(
                    f"{path}: expected header {','.join(header)!r}, "
                    f"got {','.join(got) if got is not None else '<empty file>'!r}"
                )
            start = reader.line_num + 1
            for row in reader:
                if len(row) != len(header):
                    raise EssayScoreError(
                        f"{path}: line {start}: expected {len(header)} fields, got {len(row)}"
                    )
                append(make(row, start))
                records.lines.append(start)
                start = reader.line_num + 1
        except csv.Error as exc:
            raise EssayScoreError(f"{path}: line {start}: {exc}") from exc
    return records


def _parse_number(text: str, path: Path, line: int, column: str) -> float:
    """A finite, nonnegative number from one cell, or an error naming its line."""
    try:
        value = float(text)
    except ValueError as exc:
        raise EssayScoreError(
            f"{path}: line {line}: {column} {text!r} is not a number"
        ) from exc
    if not math.isfinite(value):
        raise EssayScoreError(f"{path}: line {line}: {column} {text!r} is not finite")
    if value < 0:
        raise EssayScoreError(f"{path}: line {line}: {column} {value} is negative")
    return value


def _check_key(key: tuple[str, ...], names: str, path: Path, line: int) -> None:
    """No cell of a row's key is empty; ``names`` names the key columns in the message."""
    if not all(key):
        raise EssayScoreError(f"{path}: line {line}: empty {names}")


def _check_column_sum(values: list[float], path: Path, column: str) -> None:
    """Every value is finite; a column whose total is not would overflow the totals."""
    if math.isinf(sum(values)):
        raise EssayScoreError(f"{path}: {column} column sums past the largest float")


def _keyed_records(
    path: Path, header: list[str], record: type, last: Callable[[str, int], object], kind: str
) -> list:
    """Each data row of a file keyed by (student_id, question_id), as a ``record``.

    ``last`` makes the record's last field from the row's last cell and its
    line. Each id passes through a dict mapping it to its first instance, so
    equal ids share one str.
    """
    seen: set[tuple[str, str]] = set()
    first: dict[str, str] = {}

    def make(row: list[str], line: int) -> tuple:
        student_id, question_id, cell = row
        value = last(cell, line)
        key = (first.setdefault(student_id, student_id), first.setdefault(question_id, question_id))
        _check_key(key, "student_id or question_id", path, line)
        if key in seen:
            raise EssayScoreError(f"{path}: line {line}: duplicate {kind} for {key}")
        seen.add(key)
        return record(*key, value)

    return _read_rows(path, header, make)


def load_answers(path: str | Path) -> list[RawEssay]:
    """Load the student answer corpus.

    Empty answer text is allowed (blank answers score zero downstream);
    empty identifiers and repeated (student_id, question_id) keys are not.
    """
    return _keyed_records(Path(path), ANSWERS_HEADER, RawEssay, lambda text, _: text, "answer")


def load_model(path: str | Path) -> list[QuestionSpec]:
    """Load the model answers and question weights."""
    path = Path(path)
    seen: set[str] = set()

    def make(row: list[str], line: int) -> QuestionSpec:
        question_id, model_answer, weight_text = row
        weight = _parse_number(weight_text, path, line, "weight")
        _check_key((question_id,), "question_id", path, line)
        if not model_answer:
            raise EssayScoreError(f"{path}: line {line}: empty model answer")
        if question_id in seen:
            raise EssayScoreError(f"{path}: line {line}: duplicate question {question_id!r}")
        seen.add(question_id)
        return QuestionSpec(question_id, model_answer, weight)

    specs = _read_rows(path, MODEL_HEADER, make)
    _check_column_sum([q.weight for q in specs], path, "weight")
    return specs


def load_grades(path: str | Path) -> list[HumanGrade]:
    """Load the teacher's per-question grades."""
    path = Path(path)
    grades = _keyed_records(
        path,
        GRADES_HEADER,
        HumanGrade,
        lambda text, line: _parse_number(text, path, line, "score"),
        "grade",
    )
    _check_column_sum([g.score for g in grades], path, "score")
    return grades


def _check_single_token(entry: str, path: Path, line: int) -> str:
    if not entry or any(ch.isspace() for ch in entry):
        raise EssayScoreError(
            f"{path}: line {line}: {entry!r} must be a single whitespace-free token"
        )
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
    # (line, entry as written, entry case-folded) of each stopword
    stopwords = [
        (line, entry, _check_single_token(entry, stopword_path, line))
        for line, entry in _stopword_entries(stopword_path)
    ]
    dead_keys = []  # (line, key as written) of each slang key no token can equal

    def slang(row: list[str], line: int) -> tuple[str, str]:
        key, formal = (_check_single_token(cell, normalization_path, line) for cell in row)
        if not _is_token(key):
            dead_keys.append((line, row[0]))
        return key, formal

    mapping = dict(_read_rows(normalization_path, NORMALIZATION_HEADER, slang))
    formals = set(mapping.values())
    dead = [
        (stopword_path, line, "stopword", entry)
        for line, entry, word in stopwords
        if word not in formals and not (_is_token(word) and mapping.get(word, word) == word)
    ] + [(normalization_path, line, "slang", entry) for line, entry in dead_keys]
    for path, line, kind, entry in dead:
        _warn(f"{path}: line {line}: {kind} {entry!r} can never match: "
              "preprocessing never yields it")
    return Lexicons(stopwords=frozenset(word for _, _, word in stopwords), normalization=mapping)


def _stopword_entries(path: Path) -> Iterator[tuple[int, str]]:
    """(line, entry) for each line of a stopword file that is not blank or a comment."""
    with _open_input(path) as fh:
        for i, line in enumerate(fh, start=1):
            entry = line.strip()
            if entry and not entry.startswith("#"):
                yield i, entry


def _is_token(entry: str) -> bool:
    """Whether preprocessing can make the token ``entry``, a case-folded lexicon entry.

    Cleaning keeps only letters, and lowercasing a letter gives letters, but
    for "İ" (U+0130), whose lowercase "i̇" ends in a combining dot.
    """
    return entry.replace("i\u0307", "i").isalpha()
