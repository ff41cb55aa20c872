"""Text preprocessing: raw answer text to a normalized token sequence.

The pipeline runs five stages in a fixed order: clean, case-fold,
tokenize, normalize slang/typos, remove stopwords. Each stage is a pure
function, exposed individually so they can be tested and demonstrated in
isolation. A token sequence is a plain list of lowercase tokens in text
order. The module owns what a token can be: ``_is_token`` tells the
loaders which ``Lexicons`` entries no token can equal.
"""

from collections import namedtuple
from types import MappingProxyType


class Lexicons(
    namedtuple("Lexicons", "stopwords normalization", defaults=(frozenset(), MappingProxyType({})))
):
    """Stopword set and slang-to-formal normalization map, all lowercase.

    The normalization map is applied once per token (no chaining), so a
    cycle among entries is harmless.
    """

    __slots__ = ()


class _LetterTable(dict):
    """``str.translate`` table keeping letters and mapping the rest to a space.

    A letter maps to its own code point (``None`` would delete it). Entries
    are filled on first sight of a code point, so the table holds only the
    characters the input has used.
    """

    def __missing__(self, code: int) -> int | str:
        self[code] = value = code if chr(code).isalpha() else " "
        return value


_LETTERS_ONLY = _LetterTable()


def clean_text(raw: str) -> str:
    """Replace every non-letter character with a space and tidy whitespace.

    "Letter" means the Unicode letter property, so the rule is total over
    arbitrary UTF-8 input: digits, punctuation, and symbols all become
    spaces, runs of whitespace collapse to one space, and the result is
    trimmed.
    """
    return " ".join(raw.translate(_LETTERS_ONLY).split())


def case_fold(s: str) -> str:
    """Lowercase every character."""
    return s.lower()


def tokenize(s: str) -> list[str]:
    """Split a cleaned, case-folded string on spaces."""
    return s.split()


def normalize_tokens(tokens: list[str], lexicons: Lexicons) -> list[str]:
    """Replace slang/typo tokens with their formal form, one pass per token.

    Tokens without a dictionary entry pass through unchanged; length is
    preserved.
    """
    mapping = lexicons.normalization
    return [mapping.get(tok, tok) for tok in tokens]


def remove_stopwords(tokens: list[str], lexicons: Lexicons) -> list[str]:
    """Drop stopword tokens, preserving the order of the survivors."""
    stopwords = lexicons.stopwords
    return [tok for tok in tokens if tok not in stopwords]


def preprocess_pipeline(raw: str, lexicons: Lexicons) -> list[str]:
    """Run the full five-stage pipeline on raw text; ``_is_token`` says what tokens it makes."""
    return remove_stopwords(
        normalize_tokens(tokenize(case_fold(clean_text(raw))), lexicons),
        lexicons,
    )


def _is_token(entry: str) -> bool:
    """Whether the pipeline can make the token ``entry``, a case-folded lexicon entry.

    Cleaning keeps only letters and comes before case folding, and
    lowercasing a letter gives letters, but for "İ" (U+0130), whose
    lowercase "i̇" ends in a combining dot that survives.
    """
    return entry.replace("i\u0307", "i").isalpha()
