"""Exception types raised across the package.

Everything derives from :class:`EssayScoreError` so callers (notably the
CLI) can catch one base class for data/usage problems while letting real
bugs propagate.
"""


class EssayScoreError(Exception):
    """Base class for all errors raised by this package."""


# --- input file errors -----------------------------------------------------

class MissingFile(EssayScoreError):
    """An input file path does not exist."""


class MalformedCsv(EssayScoreError):
    """A CSV file has the wrong header, bad quoting, or an unparseable field."""


class DuplicateKey(EssayScoreError):
    """A (student_id, question_id) or question_id key appears twice."""


class EmptyId(EssayScoreError):
    """A student or question identifier is empty."""


class NegativeWeight(EssayScoreError):
    """A question weight is negative."""


class EmptyModelAnswer(EssayScoreError):
    """A model answer is empty."""


class NegativeScore(EssayScoreError):
    """A human grade is negative."""


class MultiTokenEntry(EssayScoreError):
    """A stopword or normalization entry is empty or contains whitespace."""


# --- feature extraction errors ---------------------------------------------

class InvalidN(EssayScoreError):
    """Requested n-gram size is outside the supported {1, 2, 3}."""


class EmptyCorpus(EssayScoreError):
    """A vocabulary was requested for an empty document collection."""


# --- scoring errors ----------------------------------------------------------

class QuestionMismatch(EssayScoreError):
    """An answer refers to a different question than the one being scored."""


# --- evaluation errors -------------------------------------------------------

class EmptyInput(EssayScoreError):
    """A statistic was requested for an empty list of values."""


class TooFewValues(EssayScoreError):
    """Descriptive statistics need at least two values."""


class LengthMismatch(EssayScoreError):
    """Paired samples have different lengths."""


class TooFewSubjects(EssayScoreError):
    """A repeated-measures comparison needs at least three subjects."""


class InvalidDf(EssayScoreError):
    """Degrees of freedom must be positive integers."""
